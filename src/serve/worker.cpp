#include "serve/worker.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/batch.hpp"
#include "core/report_json.hpp"
#include "core/result_cache.hpp"
#include "core/rewriter.hpp"
#include "core/scheduler.hpp"
#include "serve/wire.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"

namespace gfre::serve {

// The wire carries exactly the manifest-line option set (the client
// already resolved relative paths), so a job routed through the server
// runs with the same FlowOptions a gfre_batch run of the same manifest
// would use — that is what makes the two JSONL reports diffable.  Every
// field but the envelope goes through core::set_job_option, which also
// says which JSON kind each field must be.
core::BatchJob job_from_wire(const WireObject& msg) {
  core::BatchJob job;
  job.path = require_string(msg, "path");
  for (const auto& [key, value] : msg) {
    if (key == "op" || key == "id" || key == "path" ||
        value.kind == WireValue::Kind::Null)
      continue;
    switch (core::job_option_kind(key)) {
      case core::JobOptionKind::Text:
        if (value.kind != WireValue::Kind::String)
          throw Error("wire: field '" + key + "' must be a string");
        core::set_job_option(job, key, value.text);
        break;
      case core::JobOptionKind::Bool:
        if (value.kind != WireValue::Kind::Bool)
          throw Error("wire: field '" + key + "' must be a bool");
        core::set_job_option(job, key, value.boolean ? "1" : "0");
        break;
      case core::JobOptionKind::Integer:
        if (value.kind != WireValue::Kind::Number)
          throw Error("wire: field '" + key + "' must be a number");
        core::set_job_option(job, key, value.text);
        break;
    }
  }
  if (job.name.empty()) job.name = job.path;
  return job;
}

std::string submit_message(std::uint64_t id, const core::BatchJob& job) {
  JsonLine line;
  line.add("op", "submit");
  line.add("id", id);
  line.add("path", job.path);
  line.add("name", job.name);
  const core::FlowOptions& opt = job.options;
  line.add("ports", opt.a_base + "," + opt.b_base + "," + opt.z_base);
  line.add("strategy", core::to_string(opt.strategy));
  line.add("infer", opt.infer_ports);
  line.add("verify", opt.verify_with_golden);
  line.add("permute", opt.try_output_permutation);
  line.add("max_terms", static_cast<std::uint64_t>(opt.max_terms));
  if (!opt.library.empty()) line.add("library", opt.library);
  line.add("deadline_ms", job.deadline_ms);
  line.add("priority", core::to_string(job.priority));
  return line.render();
}

namespace {

/// Result event: the verbatim JSONL report line travels as an escaped
/// string so the coordinator/client can emit it byte-for-byte without
/// re-encoding (double formatting would drift on a re-render).
std::string result_event(std::uint64_t id, const core::BatchJobResult& r) {
  JsonLine line;
  line.add("event", "result");
  line.add("id", id);
  line.add("ok", r.ok);
  line.add("rejected", r.rejected);
  line.add("cancelled", r.cancelled);
  line.add("cache_hit", r.cache_hit);
  line.add("line", core::result_json_line(r).render());
  return line.render();
}

}  // namespace

int worker_main(int fd, const WorkerConfig& config) {
  // A dead coordinator must surface as a failed write, not a process kill;
  // SIGINT at the terminal belongs to the server's drain logic, not to the
  // workers (the server forwards shutdown as socket EOF).  SIGTERM keeps
  // its lethal default on purpose — see the header.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, SIG_IGN);

  core::BatchOptions options;
  options.threads = config.threads == 0 ? 1 : config.threads;
  options.max_queued = config.max_queued;
  if (!config.cache_dir.empty()) {
    try {
      options.result_cache = std::make_shared<core::ResultCache>(
          config.cache_dir, config.cache_cap_bytes,
          config.cache_negative_ttl_seconds);
    } catch (const Error& e) {
      std::fprintf(stderr, "worker: cannot open cache: %s\n", e.what());
      return 3;
    }
  }

  core::BatchScheduler scheduler(options);
  std::mutex write_mu;  // result callbacks fire on scheduler threads

  const auto send = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    // A write failure means the coordinator is gone; results have nowhere
    // to go, but in-flight extractions still complete into the shared
    // disk cache, so the work is not lost — the retry will replay it.
    (void)write_line(fd, line);
  };

  FdLineReader reader(fd);
  std::map<std::uint64_t, core::BatchScheduler::JobHandle> handles;
  std::mutex handles_mu;

  for (;;) {
    auto line = reader.read_line();
    if (!line.has_value()) break;  // coordinator closed: drain and exit
    if (line->empty()) continue;

    std::uint64_t id = 0;
    try {
      const WireObject msg = parse_wire_object(*line);
      const std::string op = require_string(msg, "op");

      if (op == "submit") {
        id = get_u64(msg, "id");
        core::BatchJob job = job_from_wire(msg);
        const auto on_complete = [&, id](const core::BatchJobResult& r) {
          send(result_event(id, r));
          std::lock_guard<std::mutex> lock(handles_mu);
          handles.erase(id);
        };
        // try_submit under a bounded queue: the worker's read loop must
        // never block on admission, or cancel/stats messages would sit
        // unread behind it.  The coordinator mirrors the cap, so this
        // rejection firing means the two views diverged — still resolved
        // correctly, as a rejected result event.
        auto ticket = options.max_queued != 0
                          ? scheduler.try_submit(std::move(job), on_complete)
                          : scheduler.submit(std::move(job), on_complete);
        if (ticket.handle != 0) {
          std::lock_guard<std::mutex> lock(handles_mu);
          // The callback may already have fired for fast jobs; don't
          // resurrect the entry it erased.
          if (ticket.result.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready)
            handles.emplace(id, ticket.handle);
        }
      } else if (op == "cancel") {
        id = get_u64(msg, "id");
        core::BatchScheduler::JobHandle handle = 0;
        {
          std::lock_guard<std::mutex> lock(handles_mu);
          auto it = handles.find(id);
          if (it != handles.end()) handle = it->second;
        }
        // A successful cancel resolves the job through its completion
        // callback, which emits the result event; an unknown/running id
        // needs no reply — the real result is coming.
        if (handle != 0) (void)scheduler.cancel(handle);
      } else if (op == "stats") {
        const core::BatchStats s = scheduler.stats();
        JsonLine reply;
        reply.add("event", "stats");
        reply.add("token", get_u64(msg, "token"));
        reply.add("jobs", s.jobs);
        reply.add("succeeded", s.succeeded);
        reply.add("failed", s.failed);
        reply.add("load_errors", s.load_errors);
        reply.add("cancelled", s.cancelled);
        reply.add("rejected", s.rejected);
        reply.add("deadline_exceeded", s.deadline_exceeded);
        reply.add("cache_hits", s.cache_hits);
        reply.add("disk_hits", s.disk_hits);
        reply.add("disk_misses", s.disk_misses);
        reply.add("disk_stores", s.disk_stores);
        reply.add("cones_extracted", s.cones_extracted);
        reply.add("queue_peak", s.queue_peak);
        send(reply.render());
      } else {
        throw Error("unknown op '" + op + "'");
      }
    } catch (const Error& e) {
      // Protocol errors on a submit resolve that id (the coordinator is
      // waiting on it); otherwise they are logged and the stream goes on —
      // one malformed message must not wedge the worker.
      if (id != 0) {
        core::BatchJobResult r;
        r.name = "job#" + std::to_string(id);
        r.error = std::string("worker protocol error: ") + e.what();
        send(result_event(id, r));
      } else {
        std::fprintf(stderr, "worker: protocol error: %s\n", e.what());
      }
    }
  }

  const bool clean = scheduler.drain_for(
      std::chrono::milliseconds(config.drain_grace_ms));
  return clean ? 0 : 4;
}

}  // namespace gfre::serve
