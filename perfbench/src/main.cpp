// The benchmark harness: one workload, one seed, one run.
//
//   perfbench_harness --workload crypto_single|batch_stream|cache_replay
//                     --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints the host context, the run's notes and every metric by name and
// unit, then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones from the traced replay.  Exits 1 when a clean job gets a
// wrong P(x), 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "anf/simd.hpp"
#include "replay.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_harness --workload "
               "crypto_single|batch_stream|cache_replay --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunSpec spec;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        if (!perfbench::workload_from_name(value, &spec.workload)) {
          return usage(("unknown workload " + value).c_str());
        }
        have_workload = true;
      } else if (flag == "--seed") {
        spec.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        spec.seconds = std::stod(value);
      } else if (flag == "--trace") {
        spec.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        spec.work_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf(
      "host: {\"nproc\": %u, \"effective_cores\": %.3f, \"simd\": \"%s\", "
      "\"build\": \"%s\", \"compiler\": \"%s\"}\n",
      nproc, perfbench::effective_cores(nproc),
      gfre::anf::simd::to_string(gfre::anf::simd::active_level()),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);

  const perfbench::RunResult result = perfbench::run_workload(spec);
  for (const auto& note : result.notes) std::printf("note: %s\n", note.c_str());
  for (const auto& problem : result.problems) {
    std::printf("FAILED: %s\n", problem.c_str());
  }
  std::printf("metric: failed_frac = %.6g fraction (%zu of %zu jobs)\n",
              static_cast<double>(result.failed) / result.attempted,
              result.failed, result.attempted);
  for (const auto& [name, metric] : result.metrics) {
    std::printf("metric: %s = %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.wrong_polynomial != 0 ? 1 : 0;
}
