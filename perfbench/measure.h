// Small measurement helpers shared by the benchmark's files: a steady
// clock, process CPU time and high-water RSS, and percentiles.
#ifndef MAXRS_PERFBENCH_MEASURE_H_
#define MAXRS_PERFBENCH_MEASURE_H_

#include <chrono>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock instants.
inline double Millis(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();

/// Runs the benchmark's reference loop on the calling thread and returns
/// the thread CPU milliseconds it took. The loop walks 1 MiB of state
/// eight times through a 256-entry table, a chain of dependent table
/// lookups like the program's checksums, and calls no code of the program,
/// so its time tracks only how fast the machine runs. One thread at a time.
double RefLoopCpuMillis();

/// High-water resident set size of the process, in MiB.
double PeakRssMb();

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty sample. Sorts a copy.
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // MAXRS_PERFBENCH_MEASURE_H_
