/**
 * @file
 * Runs one command and reports its own resource usage:
 *
 *   runchild STATS_FILE PROGRAM [ARGS...]
 *
 * forks, execs PROGRAM with the inherited stdin/stdout/stderr, waits,
 * writes "wall_ns user_us sys_us maxrss_kb" to STATS_FILE and exits
 * with PROGRAM's exit code (128 + signal number if it was killed).
 *
 * run.py needs it because a child forked from the Python harness
 * starts with the harness's memory, and Linux counts that towards the
 * child's peak RSS (ru_maxrss) even after exec. Forked from this
 * small process instead, the child's peak RSS is its own.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: runchild STATS_FILE PROGRAM [ARGS...]\n");
        return 2;
    }
    auto start = std::chrono::steady_clock::now();
    pid_t pid = fork();
    if (pid < 0) {
        std::perror("runchild: fork");
        return 2;
    }
    if (pid == 0) {
        execv(argv[2], argv + 2);
        std::perror("runchild: exec");
        _exit(127);
    }
    int status = 0;
    struct rusage usage = {};
    if (wait4(pid, &status, 0, &usage) != pid) {
        std::perror("runchild: wait4");
        return 2;
    }
    auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    auto us = [](const timeval &tv) {
        return static_cast<long long>(tv.tv_sec) * 1000000 + tv.tv_usec;
    };
    std::FILE *out = std::fopen(argv[1], "w");
    if (!out || std::fprintf(out, "%lld %lld %lld %ld\n",
                             static_cast<long long>(wall),
                             us(usage.ru_utime), us(usage.ru_stime),
                             usage.ru_maxrss) < 0 ||
        std::fclose(out) != 0) {
        std::perror("runchild: stats file");
        return 2;
    }
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
}
