/**
 * @file
 * Unit helpers and physical constants used across the simulator.
 *
 * The simulator keeps time in seconds (double) or cycles (uint64_t),
 * energy in joules, power in watts, capacity in bytes, and bandwidth in
 * bytes/second. These helpers make call sites read like the paper text
 * ("128 MB SRAM", "2765 GB/s HBM").
 */

#ifndef REGATE_COMMON_UNITS_H
#define REGATE_COMMON_UNITS_H

#include <cstdint>

namespace regate {

/** Cycle count type used by all timing models. */
using Cycles = std::uint64_t;

namespace units {

constexpr double kMega = 1e6;
constexpr double kGiga = 1e9;
constexpr double kPico = 1e-12;

/** Bytes from KiB/MiB/GiB (the paper uses binary sizes for SRAM/HBM). */
constexpr std::uint64_t KiB(std::uint64_t n) { return n << 10; }
constexpr std::uint64_t MiB(std::uint64_t n) { return n << 20; }
constexpr std::uint64_t GiB(std::uint64_t n) { return n << 30; }

/** Bandwidths are decimal, matching vendor GB/s figures. */
constexpr double GBps(double n) { return n * kGiga; }

/** Frequency in Hz from MHz. */
constexpr double MHz(double n) { return n * kMega; }

/** Energy from picojoules. */
constexpr double pJ(double n) { return n * kPico; }

/** Joules -> kilowatt-hours (used by the carbon model). */
constexpr double joulesToKWh(double j) { return j / 3.6e6; }

}  // namespace units
}  // namespace regate

#endif  // REGATE_COMMON_UNITS_H
