// Shared infrastructure for the paper-table benchmark harnesses.
//
// Each bench binary regenerates one table or figure of the paper.  The
// container running this reproduction is much smaller than the paper's
// 12-core/32 GB Xeon, so every harness has two modes:
//   * default     — scaled bit-widths that finish in seconds,
//   * GFRE_FULL=1 — the paper's full problem sizes.
// Thread count defaults to hardware concurrency (GFRE_THREADS overrides);
// the paper used 16 threads.
//
// Columns mirror the paper: bit-width, P(x), #eqns, runtime, memory.  Where
// the paper reports a number for the same configuration we print it next to
// ours — the claim being reproduced is the *shape* (who is slower, where
// memory blows up), not absolute seconds on different silicon.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/catalog.hpp"
#include "netlist/netlist.hpp"
#include "util/options.hpp"
#include "util/rss.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace gfre::bench {

struct PaperReference {
  double runtime_seconds;
  const char* memory;
};

/// One row of a paper-style extraction table.
struct Row {
  unsigned m;
  std::string p;
  std::size_t equations;
  double gen_seconds;
  double extract_seconds;
  std::string memory;
  bool success;
  std::optional<PaperReference> paper;
};

/// Rewriting backend for the table benches: GFRE_STRATEGY
/// (packed|indexed) overrides the packed default, so any paper table
/// can be regenerated on any backend without a rebuild.
inline core::RewriteStrategy configured_strategy() {
  const std::string name = env_string("GFRE_STRATEGY", "packed");
  const auto strategy = core::strategy_from_name(name);
  if (!strategy.has_value()) {
    std::printf("warning: unknown GFRE_STRATEGY '%s', using packed\n",
                name.c_str());
    return core::RewriteStrategy::Packed;
  }
  return *strategy;
}

inline void print_header(const std::string& what) {
  std::printf("=== %s ===\n", what.c_str());
  std::printf("threads: %zu (paper: 16 on a 12-core Xeon E5-2420v2)\n",
              configured_threads());
  std::printf("engine:  %s (set GFRE_STRATEGY=packed|indexed)\n",
              core::to_string(configured_strategy()));
  std::printf("scale:   %s (set GFRE_FULL=1 for the paper's full sizes)\n\n",
              full_scale_requested() ? "FULL (paper sizes)" : "scaled");
}

inline void print_rows(const std::vector<Row>& rows,
                       const std::string& title) {
  TextTable table({"m", "P(x)", "#eqns", "gen(s)", "extract(s)", "mem",
                   "paper extract(s)", "paper mem", "P(x) recovered"});
  for (const Row& row : rows) {
    table.add_row({
        std::to_string(row.m),
        row.p,
        fmt_thousands(row.equations),
        fmt_double(row.gen_seconds, 2),
        fmt_double(row.extract_seconds, 2),
        row.memory,
        row.paper ? fmt_double(row.paper->runtime_seconds, 1) : "-",
        row.paper ? row.paper->memory : "-",
        row.success ? "yes" : "NO",
    });
  }
  std::printf("%s\n", table.render(title).c_str());
}

/// Runs the reverse-engineering flow on a netlist and fills a table row.
/// Verification is excluded from the timed section to match the paper's
/// "extraction" runtime definition, then run separately to assert success.
inline Row run_flow_row(const nl::Netlist& netlist, const gf2m::Field& field,
                        double gen_seconds,
                        std::optional<PaperReference> paper = std::nullopt) {
  core::FlowOptions options;
  options.threads = static_cast<unsigned>(configured_threads());
  options.strategy = configured_strategy();
  options.verify_with_golden = false;
  const auto report = core::reverse_engineer(netlist, options);

  Row row;
  row.m = field.m();
  row.p = field.modulus().to_paper_string();
  row.equations = report.equations;
  row.gen_seconds = gen_seconds;
  row.extract_seconds = report.total_seconds;
  row.memory = format_bytes(report.memory_bytes());
  row.success = report.success && report.recovery.p == field.modulus();
  row.paper = paper;
  return row;
}

}  // namespace gfre::bench
