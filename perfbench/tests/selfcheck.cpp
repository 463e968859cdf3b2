// Self-check of the benchmark itself, at tiny scale:
//   - every workload runs, traced and untraced, with every verdict right;
//   - a job given a deliberately wrong expected P(x) is counted as failed;
//   - two generations from one seed give byte-identical job sets.
//
// Run: ctest in the perfbench build, or `python3 perfbench/run.py --selfcheck`.
#include <cstdio>
#include <string>
#include <vector>

#include "replay.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

perfbench::RunSpec tiny(perfbench::Workload workload, bool trace) {
  perfbench::RunSpec spec;
  spec.workload = workload;
  spec.seed = 7;
  spec.seconds = 0.0;
  spec.trace = trace;
  spec.work_dir = ".bench_build/selfcheck";
  spec.stream_jobs = 40;
  spec.stream_max_m = 20;
  spec.crypto_max_m = 163;
  spec.stream_passes = 2;
  spec.crypto_passes = 2;
  return spec;
}

const char* kEndToEnd[] = {"jobs_per_s", "job_p50_s", "job_tail_s",
                           "peak_rss_mb", "setup_s"};
const char* kPerLayer[] = {
    "frontend.parse_s",     "frontend.parse_mb_per_s", "frontend.gates",
    "ports.resolve_s",      "extract.s",               "extract.cones",
    "extract.substitutions", "extract.peak_terms",     "extract.heaviest_bit_s",
    "alg2.s",               "redmatrix.s",             "permutation.s",
    "permutation.recovered", "verify.s",               "scheduler.idle_frac",
    "scheduler.memo_hits",  "scheduler.cone_steals",   "scheduler.queue_peak",
    "scheduler.cones_extracted", "cache.key_s",        "cache.lookup_s",
    "cache.store_s",        "cache.hit_ratio",         "cache.bytes_stored",
    "rss_retained_mb",      "trace.overhead_frac"};

bool same_jobs(const std::vector<perfbench::Job>& a,
               const std::vector<perfbench::Job>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].file != b[i].file || a[i].text != b[i].text ||
        a[i].kind != b[i].kind || a[i].in_snapshot != b[i].in_snapshot ||
        a[i].expected.kind != b[i].expected.kind ||
        !(a[i].expected.p == b[i].expected.p) ||
        a[i].expected.permuted != b[i].expected.permuted) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using perfbench::Workload;
  for (Workload workload : {Workload::CryptoSingle, Workload::BatchStream,
                            Workload::CacheReplay}) {
    for (bool trace : {false, true}) {
      const std::string label = std::string(perfbench::to_string(workload)) +
                                (trace ? " traced" : " untraced");
      const auto result = perfbench::run_workload(tiny(workload, trace));
      for (const auto& problem : result.problems) {
        std::printf("  %s\n", problem.c_str());
      }
      check(result.correct() && result.attempted > 0,
            label + ": every verdict matches the oracle");
      bool all = true;
      for (const char* name : kEndToEnd) {
        all &= result.metrics.count(name) == (trace ? 0 : 1);
      }
      for (const char* name : kPerLayer) {
        all &= result.metrics.count(name) == (trace ? 1 : 0);
      }
      check(all, label + ": reports exactly its metric set");
    }
  }

  auto spec = tiny(Workload::BatchStream, false);
  spec.edit_jobs = [](std::vector<perfbench::Job>& jobs) {
    for (auto& job : jobs) {
      if (job.kind == perfbench::JobKind::Clean &&
          job.expected.kind == perfbench::Expect::Multiplier) {
        job.expected.p = gfre::gf2::Poly{job.m};  // x^m: never irreducible
        return;
      }
    }
  };
  const auto wrong = perfbench::run_workload(spec);
  check(wrong.failed == spec.stream_passes &&
            wrong.wrong_polynomial == spec.stream_passes,
        "a wrong expected P(x) is counted in failed_frac in every pass");

  check(same_jobs(perfbench::generate_stream(11, 60, true, 24),
                  perfbench::generate_stream(11, 60, true, 24)),
        "one seed gives byte-identical stream job sets");
  check(same_jobs(perfbench::generate_crypto(11, 163),
                  perfbench::generate_crypto(11, 163)),
        "one seed gives byte-identical crypto job sets");
  check(!same_jobs(perfbench::generate_stream(11, 60, false, 24),
                   perfbench::generate_stream(12, 60, false, 24)),
        "another seed gives another stream job set");

  std::printf("%s\n", failures == 0 ? "selfcheck passed" : "selfcheck FAILED");
  return failures == 0 ? 0 : 1;
}
