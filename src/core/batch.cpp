#include "core/batch.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <set>
#include <sstream>

#include "core/scheduler.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace gfre::core {

bool BatchReport::all_ok() const {
  return std::all_of(results.begin(), results.end(),
                     [](const BatchJobResult& r) { return r.ok; });
}

const char* to_string(JobPriority priority) {
  switch (priority) {
    case JobPriority::High:
      return "high";
    case JobPriority::Normal:
      return "normal";
    case JobPriority::Low:
      return "low";
  }
  return "normal";
}

std::optional<JobPriority> priority_from_name(std::string_view name) {
  std::string lowered(name);
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lowered == "high") return JobPriority::High;
  if (lowered == "normal") return JobPriority::Normal;
  if (lowered == "low") return JobPriority::Low;
  return std::nullopt;
}

// The submit-all-then-wait entry point, reimplemented as a thin wrapper
// over the long-lived scheduler: submit every job, drain, collect the
// futures in submission order.  All scheduling behavior (state machine,
// memoization, in-flight dedup, affinity, cone stealing) lives in
// core/scheduler.cpp — there is exactly one engine, so the differential
// guarantees proven for run_batch hold for the async path by construction.
BatchReport run_batch(std::vector<BatchJob> jobs,
                      const BatchOptions& options) {
  GFRE_ASSERT(options.threads >= 1, "batch needs at least one worker");
  Timer clock;
  BatchReport out;
  out.threads = options.threads;
  std::vector<std::future<BatchJobResult>> futures;
  futures.reserve(jobs.size());
  {
    BatchScheduler scheduler(options);
    for (auto& job : jobs) {
      futures.push_back(scheduler.submit(std::move(job)).result);
    }
    scheduler.drain();
    out.stats = scheduler.stats();
  }
  out.results.reserve(futures.size());
  // get() rethrows only for engine bugs (per-job failures are results) —
  // the same surface the old in-place scheduler exposed via parallel_for.
  for (auto& future : futures) out.results.push_back(future.get());
  out.wall_seconds = clock.seconds();
  return out;
}

// ---------------------------------------------------------------------------
// The job-option vocabulary and manifest parsing
// ---------------------------------------------------------------------------

namespace {

bool parse_bool(std::string_view key, std::string_view value) {
  if (value == "1" || value == "true" || value == "yes") return true;
  if (value == "0" || value == "false" || value == "no") return false;
  throw InvalidArgument(std::string(key) + " wants a boolean, got '" +
                        std::string(value) + "'");
}

/// Resolves a relative path against `base_dir` (empty: kept as given).
std::string resolve(std::string_view value, const std::string& base_dir) {
  const std::filesystem::path p(value);
  if (base_dir.empty() || p.is_absolute()) return p.string();
  return (std::filesystem::path(base_dir) / p).string();
}

struct JobOption {
  std::string_view key;
  JobOptionKind kind;
  void (*set)(BatchJob&, std::string_view value, const std::string& base);
};

// The whole vocabulary: one row per key, in the order submit_message
// writes them.
constexpr JobOption kJobOptions[] = {
    {"name", JobOptionKind::Text,
     [](BatchJob& job, std::string_view v, const std::string&) {
       job.name = v;
     }},
    {"ports", JobOptionKind::Text,
     [](BatchJob& job, std::string_view v, const std::string&) {
       // 'a,b,z,extra' must not fold ",extra" into the z base name —
       // that is a job analyzing the wrong port.
       const auto c1 = v.find(',');
       const auto c2 = c1 == v.npos ? v.npos : v.find(',', c1 + 1);
       if (c2 == v.npos || v.find(',', c2 + 1) != v.npos) {
         throw InvalidArgument("ports wants exactly three names a,b,z, got '" +
                               std::string(v) + "'");
       }
       job.options.a_base = v.substr(0, c1);
       job.options.b_base = v.substr(c1 + 1, c2 - c1 - 1);
       job.options.z_base = v.substr(c2 + 1);
     }},
    {"strategy", JobOptionKind::Text,
     [](BatchJob& job, std::string_view v, const std::string&) {
       const auto strategy = strategy_from_name(v);
       if (!strategy.has_value()) {
         throw InvalidArgument("unknown strategy '" + std::string(v) +
                               "' (want packed|indexed)");
       }
       job.options.strategy = *strategy;
     }},
    {"infer", JobOptionKind::Bool,
     [](BatchJob& job, std::string_view v, const std::string&) {
       job.options.infer_ports = parse_bool("infer", v);
     }},
    {"verify", JobOptionKind::Bool,
     [](BatchJob& job, std::string_view v, const std::string&) {
       job.options.verify_with_golden = parse_bool("verify", v);
     }},
    {"permute", JobOptionKind::Bool,
     [](BatchJob& job, std::string_view v, const std::string&) {
       job.options.try_output_permutation = parse_bool("permute", v);
     }},
    {"max_terms", JobOptionKind::Integer,
     [](BatchJob& job, std::string_view v, const std::string&) {
       job.options.max_terms = parse_uint(
           "max_terms", v, 0, std::numeric_limits<std::size_t>::max());
     }},
    {"library", JobOptionKind::Text,
     [](BatchJob& job, std::string_view v, const std::string& base) {
       job.options.library = v.empty() ? std::string() : resolve(v, base);
     }},
    {"deadline_ms", JobOptionKind::Integer,
     [](BatchJob& job, std::string_view v, const std::string&) {
       job.deadline_ms = parse_uint("deadline_ms", v);
     }},
    {"priority", JobOptionKind::Text,
     [](BatchJob& job, std::string_view v, const std::string&) {
       const auto priority = priority_from_name(v);
       if (!priority.has_value()) {
         throw InvalidArgument("unknown priority '" + std::string(v) +
                               "' (want high|normal|low)");
       }
       job.priority = *priority;
     }},
};

const JobOption& job_option(std::string_view key) {
  for (const JobOption& option : kJobOptions) {
    if (option.key == key) return option;
  }
  throw InvalidArgument("unknown job option '" + std::string(key) + "'");
}

}  // namespace

JobOptionKind job_option_kind(std::string_view key) {
  return job_option(key).kind;
}

void set_job_option(BatchJob& job, std::string_view key,
                    std::string_view value, const std::string& base_dir) {
  job_option(key).set(job, value, base_dir);
}

std::optional<BatchJob> parse_manifest_line(const std::string& line,
                                            int lineno,
                                            const std::string& manifest_path,
                                            const std::string& base_dir,
                                            const BatchJob& defaults) {
  std::string text = line;
  // Manifests written on Windows (or fetched through a CRLF-normalizing
  // transport) end lines in \r\n; getline leaves the \r attached.
  if (!text.empty() && text.back() == '\r') text.pop_back();

  std::istringstream tokens(text);
  std::string token;
  BatchJob job = defaults;
  bool have_path = false;
  bool have_options = false;
  std::set<std::string> seen_keys;
  while (tokens >> token) {
    if (token[0] == '#') break;
    const auto eq = token.find('=');
    if (!have_path && eq == std::string::npos) {
      job.path = resolve(token, base_dir);
      have_path = true;
      continue;
    }
    if (eq == std::string::npos) {
      throw ParseError(manifest_path, lineno,
                       "expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    have_options = true;
    // A repeated key is near-certainly an editing mistake ("deadline_ms=1
    // deadline_ms=1000"); letting the last one win silently runs the job
    // under whichever value happened to be typed second.
    if (!seen_keys.insert(key).second) {
      throw ParseError(manifest_path, lineno,
                       "duplicate manifest key '" + key + "'");
    }
    try {
      set_job_option(job, key, std::string_view(token).substr(eq + 1),
                     base_dir);
    } catch (const Error& e) {
      throw ParseError(manifest_path, lineno, e.what());
    }
  }
  if (!have_path) {
    // Blank and comment-only lines are fine; a line that parsed options
    // but no path is a dropped job waiting to go unnoticed.
    if (have_options) {
      throw ParseError(manifest_path, lineno,
                       "job line has key=value options but no netlist "
                       "path");
    }
    return std::nullopt;
  }
  return job;
}

std::vector<BatchJob> parse_manifest(const std::string& path,
                                     const BatchJob& defaults) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open manifest '" + path + "'");
  const std::string base =
      std::filesystem::path(path).parent_path().string();

  std::vector<BatchJob> jobs;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (auto job = parse_manifest_line(line, lineno, path, base, defaults)) {
      jobs.push_back(std::move(*job));
    }
  }
  return jobs;
}

}  // namespace gfre::core
