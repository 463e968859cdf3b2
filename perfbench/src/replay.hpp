// Running one workload: the untraced timed passes that give the end-to-end
// metrics, and the traced phase-by-phase replay that gives the per-layer
// ones.  Everything here drives the library through its public entry
// points only; spans are recorded around those calls, from outside.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct RunSpec {
  Workload workload = Workload::CryptoSingle;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for job files, cache directories and span dumps.
  std::string work_dir = ".bench_build/work";
  /// Jobs per stream pass, and the largest degree among them (the
  /// smallest is 8).
  std::size_t stream_jobs = 100;
  unsigned stream_max_m = 96;
  /// Largest crypto_single degree (smaller only in the self-check).
  unsigned crypto_max_m = 283;
  /// Untraced passes per run, at least; a run also goes on until `seconds`
  /// of passes are measured.  Stream workloads set up once per pass.
  /// crypto_single sets up `crypto_passes` times and reuses the jobs,
  /// since no scheduler or cache state is consumed by a pass.
  unsigned stream_passes = 5;
  unsigned crypto_passes = 5;
  /// Applied to every freshly generated job list (self-check hook).
  std::function<void(std::vector<Job>&)> edit_jobs;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;         ///< oracle mismatches, drops, errors
  std::size_t wrong_polynomial = 0;
  /// Traced run only: replay reports equal the untraced ones, and span
  /// self times plus the unattributed remainder add up to the wall time.
  bool consistent = true;
  std::vector<std::string> problems;  ///< why a job or check failed
  std::map<std::string, Metric> metrics;
  /// Human-readable lines about the run (mix, tail percentile, layers).
  std::vector<std::string> notes;

  bool correct() const { return failed == 0 && consistent; }
};

RunResult run_workload(const RunSpec& spec);

/// Effective parallelism of this host: k equal spin threads against one,
/// median of three trials.
double effective_cores(unsigned k);

}  // namespace perfbench
