// Batch reverse-engineering driver — the serving entry point for whole
// verification workloads:
//
//   gfre_batch --jobs <manifest> [options]
//
// The manifest lists one netlist per line with optional per-job overrides
// (see core/batch.hpp):
//
//   # path                     per-job options
//   rtl/mastrovito_m8.eqn
//   rtl/montgomery_m16.blif    strategy=indexed
//   drops/unknown.v            infer=1 max_terms=2000000
//
// The driver STREAMS the manifest through a long-lived
// core::BatchScheduler: each line is submitted the moment it is parsed
// (extraction of the first job overlaps reading the rest — a 100k-line
// manifest never materializes as a job vector), per-job completion
// callbacks print progress as results land, and the per-job futures are
// collected in submission order for the --out JSONL report.  Duplicate
// submissions are served from the content-hash cache or attach to the
// in-flight extraction.
//
// Options: see usage() below (or run `gfre_batch --help`) — that listing
// is the single source of truth, and the CI docs job keeps it in sync
// with README.md's flag table.
//
// Exit code 0 iff every job succeeded.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/report_json.hpp"
#include "core/result_cache.hpp"
#include "core/scheduler.hpp"
#include "gf2poly/gf2_poly.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: gfre_batch --jobs <manifest> [--threads N]\n"
     << "                  [--strategy packed|indexed]\n"
     << "                  [--ports a,b,z] [--max-terms N]\n"
     << "                  [--library cells.lib]\n"
     << "                  [--queue-cap N] [--deadline-ms N]\n"
     << "                  [--admission block|reject]\n"
     << "                  [--no-verify] [--no-cache]\n"
     << "                  [--cache DIR] [--cache-prune BYTES]\n"
     << "                  [--cache-cap BYTES] [--cache-negative-ttl SECS]\n"
     << "                  [--out report.jsonl] [--quiet] [--help]\n"
     << "\n"
     << "  --jobs FILE        job manifest (required): one netlist per\n"
     << "                     line with optional key=value overrides\n"
     << "                     (name=, ports=a,b,z, strategy=, infer=,\n"
     << "                     verify=, permute=, max_terms=, library=,\n"
     << "                     deadline_ms=, priority=high|normal|low)\n"
     << "  --threads N        shared pool width (default: hardware)\n"
     << "  --strategy NAME    default backend: packed|indexed\n"
     << "  --ports a,b,z      default operand/result port base names\n"
     << "  --max-terms N      default per-bit term budget (0 = unlimited)\n"
     << "  --library FILE     default cell library (.lib subset) resolving\n"
     << "                     non-builtin cells during parsing; per-line\n"
     << "                     library= overrides\n"
     << "  --queue-cap N      bound on admitted-but-unresolved jobs\n"
     << "                     (0 = unbounded); submission backpressures\n"
     << "                     at the cap per --admission\n"
     << "  --deadline-ms N    default per-job wall-clock budget in ms\n"
     << "                     (0 = none); per-line deadline_ms= overrides\n"
     << "  --admission MODE   at a full queue: 'block' the stream until a\n"
     << "                     job resolves (default) or 'reject' the\n"
     << "                     submission immediately\n"
     << "  --no-verify        skip golden-model comparison by default\n"
     << "  --no-cache         disable content-hash memoization\n"
     << "  --cache DIR        persistent cross-run result cache keyed by\n"
     << "                     SHA-256 content hash (created if absent)\n"
     << "  --cache-prune N    after the run, evict oldest cache entries\n"
     << "                     down to N bytes total (0 empties the\n"
     << "                     cache); requires --cache\n"
     << "  --cache-cap N      enforce an N-byte cache budget at store\n"
     << "                     time (auto-prune); requires --cache\n"
     << "  --cache-negative-ttl N  expire cached parse/port-error\n"
     << "                     diagnoses older than N seconds, so a file\n"
     << "                     fixed in place gets re-tried (0 = keep\n"
     << "                     forever, the default); requires --cache\n"
     << "  --out FILE         write per-job results as JSON lines\n"
     << "  --quiet            suppress per-job lines (summary only)\n"
     << "  --help             print this message and exit\n";
}

/// Progress line for one completed job; runs on scheduler worker threads
/// under a caller-held mutex.
void print_result(const gfre::core::BatchJobResult& result) {
  if (result.rejected) {
    std::printf("  [REJECTED] %-40s %s\n", result.name.c_str(),
                result.error.c_str());
  } else if (result.deadline_exceeded) {
    // Queued expiry carries the diagnosis in `error`; a mid-extraction
    // soft abort carries it in the report.
    std::printf("  [DEADLINE] %-40s %s\n", result.name.c_str(),
                !result.error.empty()
                    ? result.error.c_str()
                    : result.report.recovery.diagnosis.c_str());
  } else if (result.cancelled) {
    std::printf("  [CANCELLED] %-40s\n", result.name.c_str());
  } else if (!result.error.empty()) {
    std::printf("  [LOAD-ERROR] %-40s %s\n", result.name.c_str(),
                result.error.c_str());
  } else if (result.ok) {
    std::printf("  [ok%s] %-40s GF(2^%u) P(x)=%s\n",
                result.cache_hit ? ",cached" : "", result.name.c_str(),
                result.report.m,
                result.report.recovery.p.to_paper_string().c_str());
  } else {
    std::printf("  [FAILED%s] %-40s %s\n", result.cache_hit ? ",cached" : "",
                result.name.c_str(),
                result.report.recovery.diagnosis.c_str());
  }
}

// SIGINT/SIGTERM request an orderly wind-down: stop submitting, cancel
// what has not started, keep the summary.  sig_atomic_t + a polling wait
// is the whole mechanism — nothing async-signal-unsafe runs in the
// handler.
volatile std::sig_atomic_t g_signal = 0;

extern "C" void on_interrupt(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  using namespace gfre;

  std::string manifest;
  std::string out_path;
  std::string cache_dir;
  std::optional<std::uint64_t> cache_prune;
  std::uint64_t cache_cap = 0;
  std::uint64_t cache_negative_ttl = 0;
  std::uint64_t default_deadline_ms = 0;
  bool admission_reject = false;
  bool quiet = false;
  bool no_cache = false;
  core::BatchOptions batch_options;
  batch_options.threads = static_cast<unsigned>(configured_threads());
  core::FlowOptions defaults;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--jobs" && i + 1 < argc) {
        manifest = argv[++i];
      } else if (arg == "--threads" && i + 1 < argc) {
        const std::string value = argv[++i];
        if (value.empty() || value[0] == '-') {
          // stoul wraps "-1" to ~4 billion workers.
          std::cerr << "--threads wants a positive integer\n";
          usage(std::cerr);
          return 2;
        }
        const unsigned long threads = std::stoul(value);
        if (threads == 0 || threads > 4096) {
          std::cerr << "--threads wants 1..4096\n";
          usage(std::cerr);
          return 2;
        }
        batch_options.threads = static_cast<unsigned>(threads);
      } else if (arg == "--strategy" && i + 1 < argc) {
        const auto strategy = core::strategy_from_name(argv[++i]);
        if (!strategy.has_value()) {
          std::cerr << "unknown strategy '" << argv[i] << "'\n";
          usage(std::cerr);
          return 2;
        }
        defaults.strategy = *strategy;
      } else if (arg == "--ports" && i + 1 < argc) {
        const std::string spec = argv[++i];
        const auto c1 = spec.find(',');
        const auto c2 = spec.find(',', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos ||
            spec.find(',', c2 + 1) != std::string::npos) {
          usage(std::cerr);
          return 2;
        }
        defaults.a_base = spec.substr(0, c1);
        defaults.b_base = spec.substr(c1 + 1, c2 - c1 - 1);
        defaults.z_base = spec.substr(c2 + 1);
      } else if (arg == "--max-terms" && i + 1 < argc) {
        const std::string value = argv[++i];
        if (value.empty() || value[0] == '-') {
          // stoull silently wraps negatives to huge budgets.
          std::cerr << "--max-terms wants a non-negative integer\n";
          usage(std::cerr);
          return 2;
        }
        defaults.max_terms = std::stoull(value);
      } else if (arg == "--library" && i + 1 < argc) {
        defaults.library = argv[++i];
      } else if (arg == "--queue-cap" && i + 1 < argc) {
        const std::string value = argv[++i];
        if (value.empty() || value[0] == '-') {
          std::cerr << "--queue-cap wants a non-negative integer\n";
          usage(std::cerr);
          return 2;
        }
        batch_options.max_queued = std::stoull(value);
      } else if (arg == "--deadline-ms" && i + 1 < argc) {
        const std::string value = argv[++i];
        if (value.empty() || value[0] == '-') {
          std::cerr << "--deadline-ms wants a non-negative integer\n";
          usage(std::cerr);
          return 2;
        }
        default_deadline_ms = std::stoull(value);
      } else if (arg == "--admission" && i + 1 < argc) {
        const std::string mode = argv[++i];
        if (mode == "block") {
          admission_reject = false;
        } else if (mode == "reject") {
          admission_reject = true;
        } else {
          std::cerr << "--admission wants 'block' or 'reject'\n";
          usage(std::cerr);
          return 2;
        }
      } else if (arg == "--no-verify") {
        defaults.verify_with_golden = false;
      } else if (arg == "--no-cache") {
        no_cache = true;
        batch_options.memoize = false;
      } else if (arg == "--cache" && i + 1 < argc) {
        cache_dir = argv[++i];
      } else if (arg == "--cache-prune" && i + 1 < argc) {
        const std::string value = argv[++i];
        if (value.empty() || value[0] == '-') {
          std::cerr << "--cache-prune wants a non-negative byte count\n";
          usage(std::cerr);
          return 2;
        }
        cache_prune = std::stoull(value);
      } else if (arg == "--cache-cap" && i + 1 < argc) {
        const std::string value = argv[++i];
        if (value.empty() || value[0] == '-') {
          std::cerr << "--cache-cap wants a positive byte count\n";
          usage(std::cerr);
          return 2;
        }
        cache_cap = std::stoull(value);
      } else if (arg == "--cache-negative-ttl" && i + 1 < argc) {
        const std::string value = argv[++i];
        if (value.empty() || value[0] == '-') {
          std::cerr << "--cache-negative-ttl wants a non-negative second "
                       "count\n";
          usage(std::cerr);
          return 2;
        }
        cache_negative_ttl = std::stoull(value);
      } else if (arg == "--out" && i + 1 < argc) {
        out_path = argv[++i];
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--help") {
        usage(std::cout);
        return 0;
      } else {
        usage(std::cerr);
        return 2;
      }
    }
  } catch (const std::exception& e) {
    // std::stoul/std::stoull reject non-numeric or overflowing values.
    std::cerr << "bad numeric argument: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }
  if (manifest.empty() || batch_options.threads == 0) {
    usage(std::cerr);
    return 2;
  }
  // The disk layer sits behind the in-memory memo; silently attaching it
  // while memoization is off would promise hits that can never happen.
  if (!cache_dir.empty() && no_cache) {
    std::cerr << "--cache requires memoization; drop --no-cache\n";
    return 2;
  }
  if (cache_prune.has_value() && cache_dir.empty()) {
    std::cerr << "--cache-prune needs --cache DIR\n";
    return 2;
  }
  if (cache_cap != 0 && cache_dir.empty()) {
    std::cerr << "--cache-cap needs --cache DIR\n";
    return 2;
  }
  if (cache_negative_ttl != 0 && cache_dir.empty()) {
    std::cerr << "--cache-negative-ttl needs --cache DIR\n";
    return 2;
  }
  if (admission_reject && batch_options.max_queued == 0) {
    std::cerr << "--admission reject needs --queue-cap N\n";
    return 2;
  }

  try {
    std::ifstream in(manifest);
    if (!in) throw Error("cannot open manifest '" + manifest + "'");
    const std::string base =
        std::filesystem::path(manifest).parent_path().string();
    if (!cache_dir.empty()) {
      batch_options.result_cache = std::make_shared<core::ResultCache>(
          cache_dir, cache_cap, cache_negative_ttl);
    }
    std::printf("gfre_batch: streaming '%s' onto %u shared workers "
                "(memo %s%s%s)\n",
                manifest.c_str(), batch_options.threads,
                batch_options.memoize ? "on" : "off",
                cache_dir.empty() ? "" : ", disk cache ",
                cache_dir.c_str());

    Timer clock;
    core::BatchScheduler scheduler(batch_options);
    // A Ctrl-C (or a supervisor's SIGTERM) mid-run used to kill the
    // process outright: no drain, no summaries, futures abandoned.  Now
    // it stops the stream, cancels everything not yet started via
    // drain_for(0), and still reports what DID run.
    std::signal(SIGINT, on_interrupt);
    std::signal(SIGTERM, on_interrupt);
    std::mutex print_mu;
    const auto on_complete = [&print_mu](const core::BatchJobResult& r) {
      std::lock_guard<std::mutex> lock(print_mu);
      print_result(r);
    };

    // Submit each job the moment its line parses — extraction of early
    // jobs overlaps manifest I/O, and nothing holds the whole job list.
    // A bad line stops the stream but must NOT discard the work already
    // in flight: everything submitted still drains into the report below
    // (the old parse-everything-first driver simply exited; a streaming
    // driver may be hours into a huge manifest when the typo surfaces).
    std::vector<std::future<core::BatchJobResult>> pending;
    std::string manifest_error;
    std::string line;
    int lineno = 0;
    while (g_signal == 0 && std::getline(in, line)) {
      ++lineno;
      std::optional<core::BatchJob> job;
      try {
        job = core::parse_manifest_line(line, lineno, manifest, base,
                                        defaults);
      } catch (const Error& e) {
        manifest_error = e.what();
        std::fprintf(stderr, "manifest error (submission stops, %zu "
                     "submitted jobs still complete): %s\n",
                     pending.size(), e.what());
        break;
      }
      if (!job.has_value()) continue;
      if (job->deadline_ms == 0) job->deadline_ms = default_deadline_ms;
      const auto callback =
          quiet ? core::BatchScheduler::Callback{} : on_complete;
      // Reject mode resolves over-cap submissions immediately (the future
      // is already fulfilled), so the stream never stalls; block mode
      // backpressures the manifest read itself.
      auto submission =
          admission_reject ? scheduler.try_submit(std::move(*job), callback)
                           : scheduler.submit(std::move(*job), callback);
      pending.push_back(std::move(submission.result));
    }
    if (pending.empty() && !manifest_error.empty()) return 2;
    if (pending.empty() && g_signal == 0) {
      std::cerr << "manifest '" << manifest << "' lists no jobs\n";
      return 2;
    }

    // Interruptible drain: wait in slices so a signal that lands while
    // jobs are in flight is honored within ~200 ms instead of after the
    // last extraction.  On interrupt, drain_for(0) immediately cancels
    // every job that has not started and waits only for the running
    // remainder — the report below then shows real results for finished
    // work and `cancelled` lines for the rest.
    while (g_signal == 0 &&
           !scheduler.wait_idle_for(std::chrono::milliseconds(200))) {
    }
    const int interrupted = g_signal;
    if (interrupted != 0) {
      std::fprintf(stderr,
                   "gfre_batch: interrupted by %s — cancelling queued "
                   "jobs, finishing in-flight extractions\n",
                   interrupted == SIGINT ? "SIGINT" : "SIGTERM");
      scheduler.drain_for(std::chrono::milliseconds(0));
    }
    const core::BatchStats stats = scheduler.stats();
    const double wall = clock.seconds();

    bool all_ok = true;
    bool report_written = true;
    std::size_t report_lines = 0;
    {
      // Futures resolve in completion order but are collected in
      // submission order, so the JSONL report matches the manifest.
      std::optional<JsonlWriter> writer;
      if (!out_path.empty()) writer.emplace(out_path);
      for (auto& future : pending) {
        const core::BatchJobResult result = future.get();
        all_ok = all_ok && result.ok;
        if (writer.has_value()) writer->write(core::result_json_line(result));
      }
      if (writer.has_value()) {
        writer->close();
        report_written = writer->ok();
        report_lines = writer->lines_written();
      }
    }
    if (!out_path.empty()) {
      std::printf("wrote %zu result lines to %s%s\n", report_lines,
                  out_path.c_str(), report_written ? "" : " (WRITE ERROR)");
    }

    std::printf(
        "batch: streamed %zu jobs in %.3f s (%.1f jobs/s) — %zu ok, "
        "%zu failed, %zu load errors, %zu cache hits, %zu cones "
        "(%zu cross-circuit steals)\n",
        stats.jobs, wall,
        wall > 0 ? static_cast<double>(stats.jobs) / wall : 0.0,
        stats.succeeded, stats.failed, stats.load_errors, stats.cache_hits,
        stats.cones_extracted, stats.cone_steals);
    // The admission-control CI smoke greps this line for exact
    // rejected/deadline-exceeded counts.
    std::printf("admission: queue peak %zu, %zu rejected, %zu "
                "deadline-exceeded, %zu memo evictions\n",
                stats.queue_peak, stats.rejected, stats.deadline_exceeded,
                stats.memo_evictions);
    if (batch_options.result_cache) {
      // The warm-run CI leg greps this line: an unchanged manifest's
      // second run must show every job as a disk hit and zero misses.
      std::printf("disk cache: %zu disk hits, %zu disk misses, %zu stores "
                  "(%s)\n",
                  stats.disk_hits, stats.disk_misses, stats.disk_stores,
                  batch_options.result_cache->dir().c_str());
      if (cache_prune.has_value()) {
        const auto pruned = batch_options.result_cache->prune(*cache_prune);
        std::printf("cache prune: removed %zu entries (%llu bytes), kept "
                    "%zu (%llu bytes <= budget %llu)\n",
                    pruned.entries_removed,
                    static_cast<unsigned long long>(pruned.bytes_removed),
                    pruned.entries_kept,
                    static_cast<unsigned long long>(pruned.bytes_kept),
                    static_cast<unsigned long long>(*cache_prune));
      }
    }
    // A truncated --out report or an unparseable manifest is a tool
    // failure even when every submitted job succeeded — downstream
    // pipelines consume that file / assume full manifest coverage.
    // An interrupt outranks both: the caller must be able to tell a run
    // it killed (128+signal, the shell convention) from one that failed
    // on its own.
    if (interrupted != 0) return 128 + interrupted;
    if (!report_written || !manifest_error.empty()) return 2;
    return all_ok ? 0 : 1;
  } catch (const gfre::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
