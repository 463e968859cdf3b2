#include "replay.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/flow.hpp"
#include "core/permutation.hpp"
#include "core/poly_extract.hpp"
#include "core/redmatrix.hpp"
#include "core/result_cache.hpp"
#include "core/scheduler.hpp"
#include "core/verify.hpp"
#include "frontend/frontend.hpp"
#include "gf2m/field.hpp"
#include "util/error.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace core = gfre::core;
namespace fs = std::filesystem;
using gfre::Timer;

namespace {

/// Per-cone live-monomial budget of every stream job.  Clean paper-size
/// multipliers stay far below it; a fault that turns the circuit
/// non-bilinear ends in a diagnosed term-budget failure instead of an
/// unbounded blow-up, as it would behind a real service.
constexpr std::size_t kStreamMaxTerms = std::size_t{1} << 14;

/// Scheduler workers and jobs the client keeps in flight on the stream
/// workloads, and FlowOptions::threads of each crypto_single job.  With
/// one job in flight per worker a job's latency is its service time; a
/// deeper window adds a wait behind whichever large circuit is running,
/// and that wait, not the library, would set job_p50_s.
constexpr unsigned kWorkers = 2;
constexpr std::size_t kWindow = 2;
constexpr unsigned kFlowThreads = 2;

constexpr double kMB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  std::size_t job;
  int parent;
  double start;
  double end;
};

/// In-memory span recorder.  A disabled tracer records nothing and reads
/// no clock, which is what the overhead measurement compares against.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::size_t job)
        : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = static_cast<int>(tracer_.spans_.size());
      tracer_.spans_.push_back(
          Span{name, job, tracer_.current_, tracer_.clock_.seconds(), 0.0});
      tracer_.current_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
      span.end = tracer_.clock_.seconds();
      tracer_.current_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Timer clock_;
  std::vector<Span> spans_;
  int current_ = -1;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Harrell-Davis estimate of the p-quantile: the mean of all order
/// statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density.  A single
/// order statistic jumps whenever the jobs next to the quantile trade
/// places, from seed to seed and from run to run; this estimate moves
/// with the whole neighbourhood instead.  Every median below, over jobs,
/// passes or set-ups, is quantile(values, 0.5).
double quantile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 2) return n == 0 ? 0.0 : values.front();
  const double a = p * static_cast<double>(n + 1);
  const double b = (1.0 - p) * static_cast<double>(n + 1);
  const double log_norm = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
  const auto density = [&](double x) {
    if (x <= 0.0 || x >= 1.0) return 0.0;
    return std::exp(log_norm + (a - 1.0) * std::log(x) +
                    (b - 1.0) * std::log1p(-x));
  };
  // Order statistic i weighs the Beta mass of [i/n, (i+1)/n] (Simpson).
  constexpr int kSteps = 32;
  const double h = 1.0 / static_cast<double>(n * kSteps);
  double estimate = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = static_cast<double>(i) / static_cast<double>(n);
    double weight = density(lo) + density(lo + kSteps * h);
    for (int k = 1; k < kSteps; ++k) {
      weight += (k % 2 == 1 ? 4.0 : 2.0) * density(lo + k * h);
    }
    estimate += weight * values[i];
    total += weight;
  }
  return estimate / total;
}

/// The highest of a fixed ladder of percentiles that has at least ten
/// samples beyond it (nearest rank), estimated by quantile().  With fewer
/// than 11 samples no percentile qualifies and the maximum is returned,
/// labelled p100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};

Tail tail_latency(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  tail.value = values.back();
  const std::size_t n = values.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank >= 1 && n - rank >= 10) {
      tail.value = quantile(values, p / 100.0);
      tail.percentile = p;
      break;
    }
  }
  return tail;
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw gfre::Error("cannot write " + path.string());
}

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// ---------------------------------------------------------------------------
// One workload's jobs, files, cache and scheduler
// ---------------------------------------------------------------------------

/// A job's verdict, judged by the oracle as soon as the job resolves so a
/// pass never holds its reports: their memory would count in the RSS
/// metrics as if the library kept it.
struct Outcome {
  /// Cancelled, rejected or past a deadline: no verdict at all.
  bool dropped = false;
  bool matches = false;
  bool wrong_p = false;
  /// Hash of the load error and the canonical report (traced runs only).
  std::size_t digest = 0;
  double latency_s = 0.0;
  std::string got;  ///< what came back, when it does not match
};

Outcome settle(const Job& job, const std::string& error,
               const core::FlowReport& report, bool digest) {
  Outcome outcome;
  outcome.matches = verdict_matches(job.expected, error, report);
  outcome.wrong_p = wrong_polynomial(job.expected, error, report);
  if (digest) {
    outcome.digest =
        std::hash<std::string>{}(error + '\n' + canonical_report(report));
  }
  if (!outcome.matches || outcome.wrong_p) {
    outcome.got = !error.empty() ? "error: " + error
                  : report.success
                      ? "P(x) = " + report.recovery.p.to_string()
                      : "failure: " + report.recovery.diagnosis;
  }
  return outcome;
}

struct Pass {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  double retained_mb = 0.0;
  core::BatchStats stats;
};

/// What the replay counts at the layer boundaries.
struct LayerCounts {
  std::uint64_t parsed_bytes = 0;
  std::size_t gates = 0;
  std::size_t cones = 0;
  std::size_t substitutions = 0;
  std::size_t peak_terms = 0;
  double heaviest_bit_s = 0.0;
  std::size_t permutations = 0;
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::uint64_t bytes_stored = 0;
};

struct Replay {
  std::vector<Outcome> outcomes;
  /// Jobs answered by the disk cache (cache_replay).
  std::vector<bool> cache_hit;
  double wall_s = 0.0;
  LayerCounts counts;
};

class Workspace {
 public:
  explicit Workspace(const RunSpec& spec)
      : spec_(spec),
        root_(fs::path(spec.work_dir) /
              (std::string(to_string(spec.workload)) + "-" +
               std::to_string(spec.seed) + "-" +
               std::to_string(::getpid()))),
        jobs_dir_(root_ / "jobs"),
        cache_dir_(root_ / "cache"),
        snapshot_dir_(root_ / "snapshot") {
    fs::remove_all(root_);
    fs::create_directories(root_);
    options_.max_terms = stream() ? kStreamMaxTerms : 0;
    options_.threads = stream() ? 1 : kFlowThreads;
  }

  ~Workspace() {
    scheduler_.reset();
    cache_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  bool stream() const { return spec_.workload != Workload::CryptoSingle; }
  bool cached() const { return spec_.workload == Workload::CacheReplay; }
  const std::vector<Job>& jobs() const { return jobs_; }

  /// Fills the snapshot directory with the outcomes of the jobs marked
  /// in_snapshot, computed by a scheduler writing through to the cache.
  /// Untimed: it stands for the cache a service would already hold.
  void build_snapshot() {
    generate_jobs();
    write_jobs([](const Job& job) { return job.in_snapshot; });
    core::BatchOptions options;
    options.threads = kWorkers;
    options.result_cache = std::make_shared<core::ResultCache>(snapshot_dir_);
    core::BatchScheduler scheduler(options);
    for (const Job& job : jobs_) {
      if (job.in_snapshot) scheduler.submit(batch_job(job));
    }
    scheduler.drain();
  }

  /// Set-up of one pass: generate the jobs, write their files, restore the
  /// cache snapshot and start the workers.  Returns its wall time.
  double setup() {
    scheduler_.reset();
    cache_.reset();
    fs::remove_all(jobs_dir_);
    fs::remove_all(cache_dir_);
    Timer timer;
    generate_jobs();
    if (stream()) write_jobs([](const Job&) { return true; });
    if (cached()) {
      fs::copy(snapshot_dir_, cache_dir_, fs::copy_options::recursive);
      cache_ = std::make_shared<core::ResultCache>(cache_dir_.string());
    }
    if (stream()) {
      core::BatchOptions options;
      options.threads = kWorkers;
      options.result_cache = cache_;
      scheduler_ = std::make_unique<core::BatchScheduler>(options);
    }
    return timer.seconds();
  }

  /// One untraced pass over every job, closed loop.
  Pass run_pass() {
    Pass pass;
    // Free heap pages go back to the kernel first, so both RSS readings
    // count live memory, not what the allocator happens to cache.
    ::malloc_trim(0);
    gfre::reset_peak_rss();
    const double rss_before = static_cast<double>(gfre::current_rss_bytes());
    if (stream()) {
      run_stream(pass);
    } else {
      run_crypto(pass);
    }
    pass.peak_rss_mb = static_cast<double>(gfre::peak_rss_bytes()) / kMB;
    ::malloc_trim(0);
    pass.retained_mb =
        (static_cast<double>(gfre::current_rss_bytes()) - rss_before) / kMB;
    if (scheduler_) pass.stats = scheduler_->stats();
    return pass;
  }

  /// The same jobs, one at a time, phase by phase through the public
  /// phase functions, with a span around every call.
  Replay replay(Tracer& tracer) {
    Replay replay;
    replay.outcomes.resize(jobs_.size());
    replay.cache_hit.resize(jobs_.size());
    const std::uint64_t cache_bytes_before =
        cached() ? directory_bytes(cache_dir_) : 0;
    // The scheduler's in-memory memo, mimicked: a byte-identical repeat
    // costs a hash lookup and copies the earlier outcome.
    std::unordered_map<std::string, std::size_t> memo;
    Timer wall;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const Job& job = jobs_[i];
      std::string read_text;
      std::string error;
      core::FlowReport report;
      std::optional<std::size_t> repeat_of;
      {
        Tracer::Scope job_span(tracer, "job", i);
        if (stream()) {
          Tracer::Scope span(tracer, "read", i);
          read_text = read_file(jobs_dir_ / job.file);
        }
        repeat_of = replay_job(tracer, i, stream() ? read_text : job.text,
                               memo, error, report, replay);
      }
      // Judging the outcome is the benchmark's own work: outside the span.
      replay.outcomes[i] = repeat_of ? replay.outcomes[*repeat_of]
                                     : settle(job, error, report, true);
      if (stream() && !repeat_of) memo.emplace(std::move(read_text), i);
    }
    replay.wall_s = wall.seconds();
    if (cached()) {
      replay.counts.bytes_stored =
          directory_bytes(cache_dir_) - cache_bytes_before;
    }
    return replay;
  }

 private:
  void generate_jobs() {
    jobs_ = stream() ? generate_stream(spec_.seed, spec_.stream_jobs,
                                       cached(), spec_.stream_max_m)
                     : generate_crypto(spec_.seed, spec_.crypto_max_m);
    if (spec_.edit_jobs) spec_.edit_jobs(jobs_);
  }

  template <typename Pred>
  void write_jobs(Pred keep) {
    fs::remove_all(jobs_dir_);
    fs::create_directories(jobs_dir_);
    for (const Job& job : jobs_) {
      if (keep(job)) write_file(jobs_dir_ / job.file, job.text);
    }
  }

  core::BatchJob batch_job(const Job& job) const {
    core::BatchJob batch;
    batch.name = job.file;
    batch.path = (jobs_dir_ / job.file).string();
    batch.options = options_;
    return batch;
  }

  void run_crypto(Pass& pass) {
    pass.outcomes.resize(jobs_.size());
    Timer wall;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      Timer latency;
      std::string error;
      core::FlowReport report;
      try {
        const auto netlist =
            gfre::frontend::parse_netlist(jobs_[i].text, jobs_[i].file);
        report = core::reverse_engineer(netlist, options_);
      } catch (const gfre::Error& e) {
        error = e.what();
      }
      const double seconds = latency.seconds();
      pass.outcomes[i] = settle(jobs_[i], error, report, spec_.trace);
      pass.outcomes[i].latency_s = seconds;
    }
    pass.wall_s = wall.seconds();
  }

  /// One submitting thread keeps `window` jobs in flight: the next job is
  /// submitted only when a completion frees a slot (closed loop).
  void run_stream(Pass& pass) {
    const std::size_t n = jobs_.size();
    pass.outcomes.resize(n);
    std::vector<double> submitted(n, 0.0);
    std::vector<double> resolved(n, 0.0);
    std::vector<std::future<core::BatchJobResult>> futures;
    futures.reserve(n);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t in_flight = 0;
    std::vector<std::size_t> ready;  // resolved, not yet judged
    // Judges resolved jobs on this thread while the workers run on.
    const auto harvest = [&](std::vector<std::size_t> batch) {
      for (std::size_t j : batch) {
        core::BatchJobResult result = futures[j].get();
        Outcome& outcome = pass.outcomes[j];
        outcome = settle(jobs_[j], result.error, result.report, spec_.trace);
        outcome.dropped =
            result.cancelled || result.rejected || result.deadline_exceeded;
      }
    };
    Timer clock;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::size_t> batch;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return in_flight < kWindow; });
        ++in_flight;
        batch.swap(ready);
      }
      harvest(std::move(batch));
      submitted[i] = clock.seconds();
      futures.push_back(
          scheduler_
              ->submit(batch_job(jobs_[i]),
                       [&, i](const core::BatchJobResult&) {
                         const double now = clock.seconds();
                         std::lock_guard<std::mutex> lock(mu);
                         resolved[i] = now;
                         ready.push_back(i);
                         --in_flight;
                         cv.notify_one();
                       })
              .result);
    }
    scheduler_->drain();
    pass.wall_s = clock.seconds();
    harvest(std::move(ready));
    for (std::size_t i = 0; i < n; ++i) {
      pass.outcomes[i].latency_s = resolved[i] - submitted[i];
    }
  }

  /// One replayed job, inside its span.  Returns the earlier job whose
  /// outcome a byte-identical repeat reuses, if any.
  std::optional<std::size_t> replay_job(
      Tracer& tracer, std::size_t i, const std::string& text,
      const std::unordered_map<std::string, std::size_t>& memo,
      std::string& error, core::FlowReport& report, Replay& replay) {
    if (stream()) {
      const auto it = memo.find(text);
      if (it != memo.end()) return it->second;
    }
    std::string key;
    if (cached()) {
      {
        Tracer::Scope span(tracer, "cache.key", i);
        key = core::ResultCache::key_for_file(text, options_);
      }
      std::optional<core::CachedOutcome> hit;
      {
        Tracer::Scope span(tracer, "cache.lookup", i);
        hit = cache_->lookup(key);
      }
      ++replay.counts.lookups;
      if (hit.has_value()) {
        ++replay.counts.hits;
        replay.cache_hit[i] = true;
        error = std::move(hit->error);
        report = std::move(hit->report);
        return std::nullopt;
      }
    }
    run_phases(tracer, i, text, error, report, replay.counts);
    if (cached()) {
      Tracer::Scope span(tracer, "cache.store", i);
      cache_->store(key, report, error);
    }
    return std::nullopt;
  }

  /// Parse, ports, extraction, Alg. 2, reduction matrix, the output-order
  /// retry and verification: the body of core::reverse_engineer, one
  /// public phase function per span.
  void run_phases(Tracer& tracer, std::size_t i, const std::string& text,
                  std::string& error, core::FlowReport& report,
                  LayerCounts& counts) {
    const std::string path =
        stream() ? (jobs_dir_ / jobs_[i].file).string() : jobs_[i].file;
    gfre::nl::Netlist netlist;
    {
      Tracer::Scope span(tracer, "frontend.parse", i);
      try {
        netlist = gfre::frontend::parse_netlist(text, path);
      } catch (const gfre::Error& e) {
        error = e.what();
      }
    }
    if (!error.empty()) return;
    counts.parsed_bytes += text.size();
    counts.gates += netlist.num_gates();

    std::optional<gfre::nl::MultiplierPorts> ports;
    {
      Tracer::Scope span(tracer, "ports.resolve", i);
      ports = core::resolve_flow_ports(netlist, options_, &report);
    }
    if (!ports.has_value()) return;

    report = core::FlowReport{};
    report.m = ports->m();
    report.equations = netlist.num_equations();
    try {
      {
        Tracer::Scope span(tracer, "extract", i);
        report.extraction =
            core::extract_outputs(netlist, ports->z.bits, options_.threads,
                                  options_.strategy, options_.max_terms);
      }
      for (const auto& bit : report.extraction.per_bit) {
        ++counts.cones;
        counts.substitutions += bit.substitutions;
        counts.peak_terms = std::max(counts.peak_terms, bit.peak_terms);
        counts.heaviest_bit_s = std::max(counts.heaviest_bit_s, bit.seconds);
      }
      auto& anfs = report.extraction.anfs;
      const auto classify = [&] {
        {
          Tracer::Scope span(tracer, "alg2", i);
          report.algorithm2_p = core::recover_irreducible(anfs, *ports);
        }
        Tracer::Scope span(tracer, "redmatrix", i);
        report.recovery = core::recover_reduction_matrix(anfs, *ports);
      };
      classify();
      if (report.recovery.circuit_class ==
              core::CircuitClass::NotAMultiplier &&
          options_.try_output_permutation) {
        std::optional<std::vector<unsigned>> order;
        {
          Tracer::Scope span(tracer, "permutation", i);
          order = core::recover_output_order(anfs, *ports);
          bool identity = true;
          for (unsigned b = 0; order && b < report.m; ++b) {
            identity &= (*order)[b] == b;
          }
          if (order && !identity) {
            std::vector<gfre::anf::Anf> reordered(report.m);
            std::vector<core::RewriteStats> stats(report.m);
            for (unsigned b = 0; b < report.m; ++b) {
              reordered[b] = anfs[(*order)[b]];
              stats[b] = report.extraction.per_bit[(*order)[b]];
            }
            anfs = std::move(reordered);
            report.extraction.per_bit = std::move(stats);
            report.output_permutation = *order;
          } else {
            order.reset();
          }
        }
        if (order) {
          ++counts.permutations;
          classify();
        }
      }
      const auto& recovery = report.recovery;
      if (recovery.circuit_class != core::CircuitClass::NotAMultiplier &&
          recovery.p_is_irreducible) {
        Tracer::Scope span(tracer, "verify", i);
        const gfre::gf2m::Field field(recovery.p);
        report.verification = core::verify_against_golden(
            anfs, field, *ports, recovery.circuit_class);
      } else {
        report.verification.detail = "skipped: no irreducible P(x) recovered";
      }
      report.success =
          recovery.circuit_class != core::CircuitClass::NotAMultiplier &&
          recovery.p_is_irreducible && recovery.rows_consistent &&
          report.verification.equivalent;
    } catch (const gfre::Error& e) {
      report = core::extraction_failure_report(netlist, *ports, e.what());
    }
  }

  const RunSpec& spec_;
  fs::path root_;
  fs::path jobs_dir_;
  fs::path cache_dir_;
  fs::path snapshot_dir_;
  core::FlowOptions options_;
  std::vector<Job> jobs_;
  std::shared_ptr<core::ResultCache> cache_;
  std::unique_ptr<core::BatchScheduler> scheduler_;
};

// ---------------------------------------------------------------------------
// Checking and reporting
// ---------------------------------------------------------------------------

/// Checks every outcome of one pass against the oracle.
void check_pass(const std::vector<Job>& jobs,
                const std::vector<Outcome>& outcomes, RunResult& result) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Outcome& outcome = outcomes[i];
    ++result.attempted;
    result.wrong_polynomial += outcome.wrong_p;
    if (outcome.dropped || outcome.wrong_p || !outcome.matches) {
      ++result.failed;
      if (result.problems.size() < 20) {
        std::ostringstream why;
        why << jobs[i].file << " (" << to_string(jobs[i].kind) << " "
            << jobs[i].family << " m=" << jobs[i].m << "): expected "
            << (jobs[i].expected.kind == Expect::Multiplier
                    ? "P(x) = " + jobs[i].expected.p.to_string()
                : jobs[i].expected.kind == Expect::LoadError
                    ? std::string("a load error")
                    : std::string("not a multiplier"))
            << ", got "
            << (outcome.dropped ? std::string("no verdict") : outcome.got);
        result.problems.push_back(why.str());
      }
    }
  }
}

void put(RunResult& result, const std::string& name, double value,
         const char* unit) {
  result.metrics[name] = Metric{value, unit};
}

/// Every pass runs the same jobs.  A job's latency is the median of its
/// latencies over the passes; p50 and the tail are quantile() estimates
/// over those per-job latencies.  Memory is taken per pass.  Throughput
/// is the median over passes, except with one job in flight
/// (crypto_single): there a pass lasts the sum of its latencies, so the
/// median pass is rebuilt from the per-job medians.  A pass or a job
/// slowed by a noisy neighbour therefore does not move the result.
void end_to_end(const std::vector<Pass>& passes,
                const std::vector<double>& setups, bool one_in_flight,
                RunResult& result) {
  std::vector<double> throughput, peaks;
  for (const Pass& pass : passes) {
    throughput.push_back(static_cast<double>(pass.outcomes.size()) /
                         pass.wall_s);
    peaks.push_back(pass.peak_rss_mb);
  }
  std::vector<double> latencies;
  double median_pass_s = 0.0;
  for (std::size_t j = 0; j < passes.front().outcomes.size(); ++j) {
    std::vector<double> samples;
    for (const Pass& pass : passes) {
      samples.push_back(pass.outcomes[j].latency_s);
    }
    latencies.push_back(quantile(samples, 0.5));
    median_pass_s += latencies.back();
  }
  const Tail tail = tail_latency(latencies);
  put(result, "jobs_per_s",
      one_in_flight ? static_cast<double>(latencies.size()) / median_pass_s
                    : quantile(throughput, 0.5),
      "1/s");
  put(result, "job_p50_s", quantile(latencies, 0.5), "s");
  put(result, "job_tail_s", tail.value, "s");
  put(result, "peak_rss_mb", quantile(peaks, 0.5), "MB");
  put(result, "setup_s", quantile(setups, 0.5), "s");
  std::ostringstream note;
  note << "medians over " << passes.size() << " passes (jobs_per_s";
  for (double value : throughput) note << " " << value;
  note << ") and " << setups.size()
       << " set-ups; job_tail_s is p" << tail.percentile << " of "
       << tail.samples << " per-job latencies"
       << (tail.percentile == 100.0
               ? " (fewer than 11: no percentile has 10 beyond it, so the "
                 "maximum)"
               : " (Harrell-Davis, as is job_p50_s)");
  result.notes.push_back(note.str());
}

/// Self time by span name, over the jobs `keep` accepts (all by default).
std::map<std::string, double> self_times(
    const std::vector<Span>& spans,
    const std::function<bool(std::size_t)>& keep = nullptr) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (keep && !keep(spans[i].job)) continue;
    self[spans[i].name] += spans[i].end - spans[i].start - child[i];
  }
  return self;
}

/// Writes the job table, then one line per span, as JSON lines.
void write_spans(const RunSpec& spec, const std::vector<Job>& jobs,
                 const std::vector<Span>& spans) {
  const fs::path dir = fs::path(spec.work_dir) / "traces";
  fs::create_directories(dir);
  std::ofstream out(dir / (std::string(to_string(spec.workload)) + "-seed" +
                           std::to_string(spec.seed) + ".jsonl"));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out << "{\"job\": " << i << ", \"file\": \"" << jobs[i].file
        << "\", \"kind\": \"" << to_string(jobs[i].kind)
        << "\", \"family\": \"" << jobs[i].family << "\", \"m\": "
        << jobs[i].m << "}\n";
  }
  for (const Span& span : spans) {
    out << "{\"name\": \"" << span.name << "\", \"job\": " << span.job
        << ", \"parent\": " << span.parent << ", \"start\": " << span.start
        << ", \"end\": " << span.end << "}\n";
  }
}

/// The traced run: one untraced reference pass, then the same jobs
/// replayed phase by phase without spans and with them.
void traced_run(const RunSpec& spec, Workspace& workspace,
                RunResult& result) {
  workspace.setup();
  const Pass reference = workspace.run_pass();
  check_pass(workspace.jobs(), reference.outcomes, result);

  workspace.setup();
  Tracer plain(false);
  const Replay untraced = workspace.replay(plain);
  workspace.setup();
  Tracer tracer(true);
  const Replay traced = workspace.replay(tracer);
  write_spans(spec, workspace.jobs(), tracer.spans());

  // Consistency 1: the replay reached the same reports as the untraced
  // pass, timing and memory fields aside.
  for (std::size_t i = 0; i < workspace.jobs().size(); ++i) {
    const Outcome& want = reference.outcomes[i];
    const Outcome& got = traced.outcomes[i];
    if (want.digest != got.digest) {
      result.consistent = false;
      result.problems.push_back("traced replay of " +
                                workspace.jobs()[i].file +
                                " differs from the untraced report");
    }
  }

  // Consistency 2: layer self times plus the unattributed remainder (job
  // self time and the gaps between jobs) add up to the traced wall time.
  const auto self = self_times(tracer.spans());
  const auto layer = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double layers = 0.0;
  double job_spans = 0.0;
  for (const auto& [name, seconds] : self) {
    if (name != "job") layers += seconds;
  }
  for (const Span& span : tracer.spans()) {
    if (span.parent < 0) job_spans += span.end - span.start;
  }
  const double unattributed = layer("job") + (traced.wall_s - job_spans);
  const double residual = layers + unattributed - traced.wall_s;
  if (std::abs(residual) > 1e-6 * std::max(1.0, traced.wall_s) ||
      unattributed < 0.0) {
    result.consistent = false;
    result.problems.push_back("span self times do not add up to the traced "
                              "wall time (residual " +
                              std::to_string(residual) + " s)");
  }

  const LayerCounts& c = traced.counts;
  const double parse_s = layer("frontend.parse");
  put(result, "read.s", layer("read"), "s");
  put(result, "frontend.parse_s", parse_s, "s");
  put(result, "frontend.parse_mb_per_s",
      parse_s > 0.0 ? static_cast<double>(c.parsed_bytes) / kMB / parse_s
                    : 0.0,
      "MB/s");
  put(result, "frontend.gates", static_cast<double>(c.gates), "count");
  put(result, "ports.resolve_s", layer("ports.resolve"), "s");
  put(result, "extract.s", layer("extract"), "s");
  put(result, "extract.cones", static_cast<double>(c.cones), "count");
  put(result, "extract.substitutions", static_cast<double>(c.substitutions),
      "count");
  put(result, "extract.peak_terms", static_cast<double>(c.peak_terms),
      "count");
  put(result, "extract.heaviest_bit_s", c.heaviest_bit_s, "s");
  put(result, "alg2.s", layer("alg2"), "s");
  put(result, "redmatrix.s", layer("redmatrix"), "s");
  put(result, "permutation.s", layer("permutation"), "s");
  put(result, "permutation.recovered", static_cast<double>(c.permutations),
      "count");
  put(result, "verify.s", layer("verify"), "s");

  // Service time is the traced replay's per-job time; a stream pass has
  // kWorkers servers, crypto_single one client with one job in flight.
  const double servers = workspace.stream() ? kWorkers : 1.0;
  put(result, "scheduler.idle_frac",
      1.0 - job_spans / (servers * reference.wall_s), "fraction");
  const core::BatchStats& stats = reference.stats;
  put(result, "scheduler.memo_hits", static_cast<double>(stats.cache_hits),
      "count");
  put(result, "scheduler.cone_steals", static_cast<double>(stats.cone_steals),
      "count");
  put(result, "scheduler.queue_peak", static_cast<double>(stats.queue_peak),
      "count");
  put(result, "scheduler.cones_extracted",
      static_cast<double>(stats.cones_extracted), "count");

  put(result, "cache.key_s", layer("cache.key"), "s");
  put(result, "cache.lookup_s", layer("cache.lookup"), "s");
  put(result, "cache.store_s", layer("cache.store"), "s");
  put(result, "cache.hit_ratio",
      c.lookups ? static_cast<double>(c.hits) / c.lookups : 0.0, "fraction");
  put(result, "cache.bytes_stored", static_cast<double>(c.bytes_stored),
      "bytes");
  // Scheduler workers keep their arenas and the memo keeps its reports
  // after a pass drains (ROADMAP item 4).  Near 0 on crypto_single, whose
  // extraction threads end with each job, so it carries no bound.
  put(result, "rss_retained_mb", reference.retained_mb, "MB");
  put(result, "trace.overhead_frac", traced.wall_s / untraced.wall_s - 1.0,
      "fraction");
  put(result, "trace.unattributed_s", unattributed, "s");

  std::ostringstream shape;
  shape << "traced replay " << traced.wall_s << " s (untraced replay "
        << untraced.wall_s << " s, untraced pass " << reference.wall_s
        << " s); self time by layer:";
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [name, seconds] : self) {
    if (name != "job") ranked.emplace_back(seconds, name);
  }
  ranked.emplace_back(unattributed, "unattributed");
  std::sort(ranked.rbegin(), ranked.rend());
  for (const auto& [seconds, name] : ranked) {
    shape << " " << name << " " << seconds << " s ("
          << 100.0 * seconds / traced.wall_s << "%)";
  }
  result.notes.push_back(shape.str());

  if (workspace.cached()) {
    std::ostringstream hits;
    hits << "cache-hit jobs (" << c.hits << "), self time:";
    for (const auto& [name, seconds] : self_times(
             tracer.spans(), [&](std::size_t j) { return traced.cache_hit[j]; })) {
      hits << " " << (name == "job" ? "unattributed" : name) << " " << seconds
           << " s";
    }
    result.notes.push_back(hits.str());
  }
}

}  // namespace

RunResult run_workload(const RunSpec& spec) {
  RunResult result;
  Workspace workspace(spec);
  if (workspace.cached()) {
    Timer fixture;
    workspace.build_snapshot();
    result.notes.push_back("cache snapshot built in " +
                           std::to_string(fixture.seconds()) +
                           " s (untimed fixture)");
  }
  if (spec.trace) {
    traced_run(spec, workspace, result);
  } else {
    std::vector<double> setups;
    std::vector<Pass> passes;
    double measured = 0.0;
    if (!workspace.stream()) {
      for (unsigned r = 0; r < std::max(1u, spec.crypto_passes); ++r) {
        setups.push_back(workspace.setup());
      }
    }
    const unsigned min_passes = std::max(
        1u, workspace.stream() ? spec.stream_passes : spec.crypto_passes);
    while (passes.size() < min_passes ||
           measured < spec.seconds) {
      if (workspace.stream()) setups.push_back(workspace.setup());
      passes.push_back(workspace.run_pass());
      measured += passes.back().wall_s;
      check_pass(workspace.jobs(), passes.back().outcomes, result);
    }
    end_to_end(passes, setups, !workspace.stream(), result);
  }
  result.notes.insert(result.notes.begin(),
                      std::string("workload mix: ") +
                          describe_mix(workspace.jobs()));
  return result;
}

double effective_cores(unsigned k) {
  const auto spin = [] {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::atomic<std::uint64_t> sink{0};
  const auto timed = [&](unsigned threads) {
    Timer timer;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&] { sink += spin(); });
    }
    for (auto& thread : pool) thread.join();
    return timer.seconds();
  };
  std::vector<double> ratios;
  for (int trial = 0; trial < 3; ++trial) {
    const double one = timed(1);
    ratios.push_back(k * one / timed(k));
  }
  return quantile(ratios, 0.5);
}

}  // namespace perfbench
