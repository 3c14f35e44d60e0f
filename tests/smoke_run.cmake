# Run PROGRAM with no arguments; fail unless it exits 0 and prints
# something on stdout.
#
#   cmake -DPROGRAM=path/to/program -P smoke_run.cmake
execute_process(COMMAND ${PROGRAM}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE stdout)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()
if(stdout STREQUAL "")
  message(FATAL_ERROR "${PROGRAM} printed nothing on stdout")
endif()
