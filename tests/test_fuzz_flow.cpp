// Deterministic fuzz wall for the reverse-engineering flow.
//
// A seeded mutator corrupts real multiplier netlists — gate-type flips,
// wire swaps, output drops/duplicates, constant stuck-ats — across all
// five generator families.  The contract under fuzz: every mutant either
// recovers a correct P(x) (success implies the golden check passed) or
// returns success=false with a non-empty diagnosis.  Never a crash, an
// uncaught exception, a sanitizer trip, or an unbounded blowup (the
// per-bit term budget turns exponential mutants into diagnosed failures).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/flow.hpp"
#include "frontend/cell_library.hpp"
#include "frontend/emit_hier.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gen/squarer.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "netlist/cell.hpp"
#include "netlist/io_blif.hpp"
#include "netlist/io_eqn.hpp"
#include "netlist/io_verilog.hpp"
#include "obf/passes.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/prng.hpp"

#ifndef GFRE_SOURCE_DIR
#define GFRE_SOURCE_DIR "."
#endif

namespace gfre::core {
namespace {

using gf2::Poly;

/// Per-mutation seed count.  2 in the tier-1 suite; the nightly CI long
/// run dials it up through the environment (GFRE_FUZZ_ITERS=25 multiplies
/// the whole wall without touching the code); a malformed value throws
/// InvalidArgument naming the variable.
std::uint64_t fuzz_iters() {
  return env_uint("GFRE_FUZZ_ITERS", 2, 1, 1000000);
}

enum class Mutation {
  GateTypeFlip,     ///< swap a gate's cell for another of the same arity
  WireSwap,         ///< reroute one gate input to a random earlier net
  OutputDrop,       ///< rename one z bit away (word port goes sparse)
  OutputDuplicate,  ///< alias one z bit to another (two identical rows)
  StuckAt,          ///< pin one gate input to constant 0/1
};

const char* to_string(Mutation m) {
  switch (m) {
    case Mutation::GateTypeFlip: return "gate-type-flip";
    case Mutation::WireSwap: return "wire-swap";
    case Mutation::OutputDrop: return "output-drop";
    case Mutation::OutputDuplicate: return "output-duplicate";
    case Mutation::StuckAt: return "stuck-at";
  }
  return "?";
}

/// Rebuilds `base` (names preserved, gates in topological order) with one
/// seeded mutation applied.  The result always passes Netlist::validate();
/// whether it still computes anything meaningful is the flow's problem.
nl::Netlist mutate(const nl::Netlist& base, Mutation kind, Prng& rng) {
  // Keeps the base name: a mutation that lands on nothing must rebuild to
  // the identical content hash (the control path of the fuzz contract).
  nl::Netlist out(base.name());
  std::vector<nl::Var> map(base.num_vars());
  for (nl::Var v : base.inputs()) {
    map[v] = out.add_input(base.var_name(v));
  }
  const auto order = base.topological_order();
  const std::size_t target = order.empty() ? 0 : rng.next_below(order.size());

  // Output aliasing/dropping picks its victims up front.
  const std::size_t num_outputs = base.outputs().size();
  std::size_t drop_idx = num_outputs, dup_from = num_outputs,
              dup_to = num_outputs;
  if (kind == Mutation::OutputDrop && num_outputs > 0) {
    drop_idx = rng.next_below(num_outputs);
  }
  if (kind == Mutation::OutputDuplicate && num_outputs > 1) {
    dup_to = rng.next_below(num_outputs);
    do {
      dup_from = rng.next_below(num_outputs);
    } while (dup_from == dup_to);
  }

  // Pool of nets legal as gate inputs at each point of the rebuild.
  std::vector<nl::Var> pool(out.inputs());

  std::optional<nl::Var> stuck_constant;
  if (kind == Mutation::StuckAt) {
    // Explicit name: auto-generated "n<id>" could collide with the base
    // netlist's own auto names (ids shift by one here).
    stuck_constant = out.add_gate(
        rng.next_bool() ? nl::CellType::Const1 : nl::CellType::Const0, {},
        "fuzz_stuck_const");
  }

  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    const nl::Gate& gate = base.gate(order[idx]);
    nl::CellType type = gate.type;
    std::vector<nl::Var> inputs;
    inputs.reserve(gate.inputs.size());
    for (nl::Var in : gate.inputs) inputs.push_back(map[in]);
    std::string name = base.var_name(gate.output);

    if (idx == target) {
      switch (kind) {
        case Mutation::GateTypeFlip: {
          std::vector<nl::CellType> candidates;
          for (nl::CellType candidate : nl::all_cell_types()) {
            if (candidate != gate.type &&
                nl::arity_ok(candidate, inputs.size())) {
              candidates.push_back(candidate);
            }
          }
          if (!candidates.empty()) {
            type = candidates[rng.next_below(candidates.size())];
          }
          break;
        }
        case Mutation::WireSwap:
          if (!inputs.empty() && !pool.empty()) {
            inputs[rng.next_below(inputs.size())] =
                pool[rng.next_below(pool.size())];
          }
          break;
        case Mutation::StuckAt:
          if (!inputs.empty()) {
            inputs[rng.next_below(inputs.size())] = *stuck_constant;
          }
          break;
        case Mutation::OutputDrop:
        case Mutation::OutputDuplicate:
          break;  // handled below via the output nets
      }
    }
    if (drop_idx < num_outputs &&
        gate.output == base.outputs()[drop_idx]) {
      name = "fuzz_dropped";  // the z word loses this index
    }
    map[gate.output] = out.add_gate(type, std::move(inputs), name);
    pool.push_back(map[gate.output]);
  }

  if (dup_to < num_outputs) {
    // Alias: replace bit dup_to's net with a buffer of bit dup_from.  The
    // original driver keeps its logic under a fresh name.
    // (Both nets exist by now; out must not reuse the z name.)
    const nl::Var from = map[base.outputs()[dup_from]];
    const nl::Var to_old = map[base.outputs()[dup_to]];
    const std::string z_name = base.var_name(base.outputs()[dup_to]);
    // Rebuild with the name freed: simplest is a second pass.
    nl::Netlist out2(out.name());
    std::vector<nl::Var> map2(out.num_vars());
    for (nl::Var v : out.inputs()) map2[v] = out2.add_input(out.var_name(v));
    for (std::size_t g : out.topological_order()) {
      const nl::Gate& gate = out.gate(g);
      std::vector<nl::Var> inputs;
      for (nl::Var in : gate.inputs) inputs.push_back(map2[in]);
      const bool is_victim = gate.output == to_old;
      map2[gate.output] =
          out2.add_gate(gate.type, std::move(inputs),
                        is_victim ? "fuzz_unaliased"
                                  : out.var_name(gate.output));
    }
    const nl::Var alias = out2.add_gate(nl::CellType::Buf, {map2[from]},
                                        z_name);
    for (std::size_t i = 0; i < num_outputs; ++i) {
      const nl::Var original = map[base.outputs()[i]];
      out2.mark_output(i == dup_to ? alias : map2[original]);
    }
    return out2;
  }

  for (nl::Var v : base.outputs()) out.mark_output(map[v]);
  return out;
}

struct FamilyCase {
  const char* name;
  nl::Netlist (*generate)(const gf2m::Field&);
};

nl::Netlist make_mastrovito(const gf2m::Field& f) {
  return gen::generate_mastrovito(f);
}
nl::Netlist make_montgomery(const gf2m::Field& f) {
  return gen::generate_montgomery(f);
}
nl::Netlist make_karatsuba(const gf2m::Field& f) {
  return gen::generate_karatsuba(f);
}
nl::Netlist make_shift_add(const gf2m::Field& f) {
  return gen::generate_shift_add(f);
}
nl::Netlist make_squarer(const gf2m::Field& f) {
  return gen::generate_squarer(f);
}

const FamilyCase kFamilies[] = {
    {"mastrovito", &make_mastrovito}, {"montgomery", &make_montgomery},
    {"karatsuba", &make_karatsuba},   {"shiftadd", &make_shift_add},
    {"squarer", &make_squarer},
};

const Mutation kMutations[] = {
    Mutation::GateTypeFlip, Mutation::WireSwap, Mutation::OutputDrop,
    Mutation::OutputDuplicate, Mutation::StuckAt,
};

FlowOptions fuzz_options() {
  FlowOptions options;
  options.threads = 2;
  // The wall against exponential mutants: a diagnosed failure instead of
  // an OOM/hang when a flip turns an XOR tree into an OR tower.
  options.max_terms = 50000;
  return options;
}

/// The fuzz contract for one mutant.  `base` is the unmutated circuit's
/// report: a mutation that landed on nothing must reproduce its outcome
/// (the squarer family legitimately fails even unmutated — one-operand
/// interface).
void expect_recovers_or_diagnoses(const nl::Netlist& mutant,
                                  const std::string& label, bool changed,
                                  const FlowReport& base) {
  FlowReport report;
  ASSERT_NO_THROW(report = reverse_engineer(mutant, fuzz_options()))
      << label;
  if (!changed) {
    EXPECT_EQ(report.success, base.success)
        << label << "\n" << report.summary();
    EXPECT_EQ(report.recovery.p, base.recovery.p) << label;
    return;
  }
  if (report.success) {
    // The mutant still verifies as *some* clean multiplier (e.g. the flip
    // reproduced an equivalent cell).  success already implies the golden
    // equivalence check passed; pin the invariants that make it safe.
    EXPECT_TRUE(report.recovery.p_is_irreducible) << label;
    EXPECT_TRUE(report.recovery.rows_consistent) << label;
    EXPECT_TRUE(report.verification.equivalent) << label;
  } else {
    EXPECT_FALSE(report.recovery.diagnosis.empty())
        << label << " failed without a diagnosis\n"
        << report.summary();
  }
}

class FuzzFamilies : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(FuzzFamilies, MutantsRecoverOrDiagnoseM4To12) {
  const FamilyCase family = GetParam();
  for (unsigned m : {4u, 5u, 7u, 9u, 12u}) {
    const gf2m::Field field(gf2::default_irreducible(m));
    const auto base = family.generate(field);
    const auto base_hash = netlist_content_hash(base);
    const FlowReport base_report = reverse_engineer(base, fuzz_options());
    for (const Mutation kind : kMutations) {
      for (std::uint64_t seed = 1; seed <= fuzz_iters(); ++seed) {
        Prng rng(0x9e3779b9u * m + 1000003u * seed +
                 static_cast<std::uint64_t>(kind) * 7919u);
        const auto mutant = mutate(base, kind, rng);
        ASSERT_NO_THROW(mutant.validate())
            << family.name << " m=" << m << " " << to_string(kind);
        const bool changed = netlist_content_hash(mutant) != base_hash;
        expect_recovers_or_diagnoses(
            mutant,
            std::string(family.name) + " m=" + std::to_string(m) + " " +
                to_string(kind) + " seed=" + std::to_string(seed),
            changed, base_report);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FuzzFamilies,
                         ::testing::ValuesIn(kFamilies),
                         [](const ::testing::TestParamInfo<FamilyCase>& info) {
                           return std::string(info.param.name);
                         });

// -- Mutator properties -----------------------------------------------------

TEST(FuzzMutator, DeterministicForSeed) {
  const gf2m::Field field(Poly{8, 4, 3, 1, 0});
  const auto base = gen::generate_mastrovito(field);
  for (const Mutation kind : kMutations) {
    Prng a(42), b(42), c(43);
    const auto ma = mutate(base, kind, a);
    const auto mb = mutate(base, kind, b);
    EXPECT_EQ(netlist_content_hash(ma), netlist_content_hash(mb))
        << to_string(kind);
    const auto mc = mutate(base, kind, c);
    // Different seeds *usually* differ; not asserted (they may collide).
    (void)mc;
  }
}

TEST(FuzzMutator, IdentityRebuildPreservesHash) {
  // A mutation kind that targets outputs leaves the gate structure alone
  // when the netlist has one output and duplication is impossible — the
  // rebuild itself must be hash-transparent.
  const gf2m::Field field(Poly{4, 1, 0});
  const auto base = gen::generate_mastrovito(field);
  nl::Netlist copy("x");
  {
    Prng rng(7);
    copy = mutate(base, Mutation::OutputDuplicate, rng);
  }
  // Same gates, same names, same outputs — only the victim bit's driver
  // differs.  Hashes differ because the mutation landed; rerun on a
  // single-output netlist to check transparency.
  nl::Netlist single("single");
  const nl::Var i0 = single.add_input("a0");
  const nl::Var i1 = single.add_input("b0");
  const nl::Var g = single.add_gate(nl::CellType::And, {i0, i1}, "z0");
  single.mark_output(g);
  Prng rng(9);
  const auto rebuilt = mutate(single, Mutation::OutputDuplicate, rng);
  EXPECT_EQ(netlist_content_hash(rebuilt), netlist_content_hash(single));
}

// -- Term budget ------------------------------------------------------------

TEST(FuzzBudget, TinyBudgetDiagnosesInsteadOfExploding) {
  const gf2m::Field field(Poly{8, 4, 3, 1, 0});
  FlowOptions options;
  options.max_terms = 3;
  const auto report = reverse_engineer(gen::generate_mastrovito(field),
                                       options);
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.recovery.diagnosis.find("term budget"), std::string::npos)
      << report.recovery.diagnosis;
}

TEST(FuzzBudget, DefaultBudgetIsUnlimited) {
  const gf2m::Field field(Poly{8, 4, 3, 1, 0});
  const auto report = reverse_engineer(gen::generate_mastrovito(field));
  EXPECT_TRUE(report.success) << report.summary();
}

// -- Hierarchical text mutants (the frontend fuzz stage) --------------------
//
// The flat mutator above exercises the flow on well-formed netlists; this
// stage attacks the PARSER: seeded mutations of emitted hierarchical
// cell-mapped Verilog text.  The contract: every mutant either fails with
// a diagnosed ParseError (file:line position, never an uncaught foreign
// exception) or parses into a netlist the flow recovers or diagnoses.

enum class HierMutation {
  InstanceNetSwap,  ///< swap two connection actuals on one instance line
  ModuleDrop,       ///< delete one submodule definition (dangling instance)
  CellSubstitute,   ///< swap a cell name for its dual (AND2 <-> NAND2, ...)
  Truncate,         ///< cut the file mid-token
};

const char* to_string(HierMutation m) {
  switch (m) {
    case HierMutation::InstanceNetSwap: return "instance-net-swap";
    case HierMutation::ModuleDrop: return "module-drop";
    case HierMutation::CellSubstitute: return "cell-substitute";
    case HierMutation::Truncate: return "truncate";
  }
  return "?";
}

const HierMutation kHierMutations[] = {
    HierMutation::InstanceNetSwap, HierMutation::ModuleDrop,
    HierMutation::CellSubstitute, HierMutation::Truncate,
};

/// Innermost "(...)" spans on one line: for an instance
/// "AND2 g0 (.a1(x), .a2(y), .y(z));" these are the actuals x, y, z.
std::vector<std::pair<std::size_t, std::size_t>> inner_groups(
    const std::string& line) {
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  std::size_t open = std::string::npos;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '(') open = i;
    if (line[i] == ')' && open != std::string::npos) {
      groups.emplace_back(open + 1, i);
      open = std::string::npos;
    }
  }
  return groups;
}

std::string mutate_hier_text(const std::string& text, HierMutation kind,
                             Prng& rng) {
  switch (kind) {
    case HierMutation::InstanceNetSwap: {
      // Candidate lines: instances with at least two actuals.
      std::vector<std::pair<std::size_t, std::size_t>> lines;  // begin, end
      for (std::size_t begin = 0; begin < text.size();) {
        std::size_t end = text.find('\n', begin);
        if (end == std::string::npos) end = text.size();
        const std::string line = text.substr(begin, end - begin);
        if (line.find(" g") != std::string::npos &&
            inner_groups(line).size() >= 2)
          lines.emplace_back(begin, end);
        begin = end + 1;
      }
      if (lines.empty()) return text;
      const auto [begin, end] = lines[rng.next_below(lines.size())];
      std::string line = text.substr(begin, end - begin);
      const auto groups = inner_groups(line);
      const std::size_t a = rng.next_below(groups.size());
      std::size_t b = rng.next_below(groups.size());
      if (a == b) b = (b + 1) % groups.size();
      const auto [a_lo, a_hi] = groups[std::min(a, b)];
      const auto [b_lo, b_hi] = groups[std::max(a, b)];
      const std::string a_net = line.substr(a_lo, a_hi - a_lo);
      const std::string b_net = line.substr(b_lo, b_hi - b_lo);
      // Replace back-to-front so earlier offsets stay valid.
      line.replace(b_lo, b_hi - b_lo, a_net);
      line.replace(a_lo, a_hi - a_lo, b_net);
      return text.substr(0, begin) + line + text.substr(end);
    }
    case HierMutation::ModuleDrop: {
      // Drop one "module ...part<k> ... endmodule" block; instances of it
      // in the top module dangle.
      std::vector<std::size_t> starts;
      for (std::size_t pos = text.find("module ");
           pos != std::string::npos; pos = text.find("module ", pos + 1)) {
        if (pos > 0 && text[pos - 1] == 'd') continue;  // "endmodule "
        starts.push_back(pos);
      }
      if (starts.size() < 2) return text;
      // Never the last module (the top); dangling submodules are the point.
      const std::size_t victim =
          starts[rng.next_below(starts.size() - 1)];
      const std::size_t stop = text.find("endmodule", victim);
      if (stop == std::string::npos) return text;
      return text.substr(0, victim) +
             text.substr(stop + std::string("endmodule").size());
    }
    case HierMutation::CellSubstitute: {
      const std::pair<const char*, const char*> duals[] = {
          {" AND2 ", " NAND2 "}, {" XOR2 ", " XNOR2 "},
          {" AOI21 ", " OAI21 "}, {" AOI22 ", " OAI22 "},
          {" INV ", " BUF "},     {" TIE0 ", " TIE1 "},
      };
      // Try duals in seeded order until one is present.
      std::size_t first = rng.next_below(std::size(duals));
      for (std::size_t d = 0; d < std::size(duals); ++d) {
        const auto& [from, to] = duals[(first + d) % std::size(duals)];
        std::vector<std::size_t> sites;
        for (std::size_t pos = text.find(from); pos != std::string::npos;
             pos = text.find(from, pos + 1))
          sites.push_back(pos);
        if (sites.empty()) continue;
        const std::size_t site = sites[rng.next_below(sites.size())];
        std::string out = text;
        out.replace(site, std::string(from).size(), to);
        return out;
      }
      return text;
    }
    case HierMutation::Truncate:
      // Cut somewhere in the second half — usually mid-module.
      return text.substr(
          0, text.size() / 2 + rng.next_below(text.size() / 2));
  }
  return text;
}

TEST(FuzzHier, TextMutantsParseOrDiagnoseNeverCrash) {
  const auto library = std::make_shared<const frontend::CellLibrary>(
      frontend::load_cell_library_file(std::string(GFRE_SOURCE_DIR) +
                                       "/data/frontend/cells_basic.lib"));
  frontend::FrontendOptions parse_options;
  parse_options.library = library;

  for (unsigned m : {4u, 8u}) {
    const gf2m::Field field(gf2::default_irreducible(m));
    const auto base = gen::generate_mastrovito(field);
    frontend::HierEmitOptions emit_options;
    emit_options.chunks = 3;
    emit_options.library = library;
    const std::string text = frontend::emit_hier_verilog(base, emit_options).top;

    // The unmutated emission is the control: it must parse and recover.
    {
      const nl::Netlist parsed =
          nl::read_verilog(text, "hier.v", parse_options);
      const FlowReport report = reverse_engineer(parsed, fuzz_options());
      ASSERT_TRUE(report.success) << "m=" << m << "\n" << report.summary();
    }

    for (const HierMutation kind : kHierMutations) {
      for (std::uint64_t seed = 1; seed <= fuzz_iters(); ++seed) {
        Prng rng(0x6a09e667u * m + 104729u * seed +
                 static_cast<std::uint64_t>(kind) * 31337u);
        const std::string mutant = mutate_hier_text(text, kind, rng);
        const std::string label = "m=" + std::to_string(m) + " " +
                                  to_string(kind) +
                                  " seed=" + std::to_string(seed);
        nl::Netlist parsed("unset");
        try {
          parsed = nl::read_verilog(mutant, "mutant.v", parse_options);
        } catch (const ParseError& e) {
          // Diagnosed rejection is a pass — but it must carry a position.
          EXPECT_EQ(e.file(), "mutant.v") << label;
          EXPECT_GE(e.line(), 1) << label;
          continue;
        }
        // Parsed: the flow must recover or diagnose, never throw.
        FlowReport report;
        ASSERT_NO_THROW(report = reverse_engineer(parsed, fuzz_options()))
            << label;
        if (report.success) {
          EXPECT_TRUE(report.verification.equivalent) << label;
        } else {
          EXPECT_FALSE(report.recovery.diagnosis.empty())
              << label << " failed without a diagnosis\n"
              << report.summary();
        }
      }
    }
  }
}

// -- Line-dialect text mutants ----------------------------------------------
//
// The same parse-or-diagnose contract for the line-oriented dialects (.eqn
// and BLIF), whose scanner hands out zero-copy views for plain lines and
// copies only lines with comments, continuations or CRs.  The mutations
// aim at exactly that split.  Swapping two gate statements is the control
// of the stage: statement order must never change the verdict or P(x).

enum class LineMutation {
  Truncate,            ///< cut the file in the middle of a line
  CommentInject,       ///< insert '#', '//' or an unterminated '/*'
  Continuation,        ///< insert '\' + newline inside a line
  StrayCr,             ///< insert a lone CR inside a line
  DuplicateStatement,  ///< repeat one statement
  SwapStatements,      ///< exchange two gate statements (order invariance)
};

const char* to_string(LineMutation m) {
  switch (m) {
    case LineMutation::Truncate: return "truncate";
    case LineMutation::CommentInject: return "comment-inject";
    case LineMutation::Continuation: return "continuation";
    case LineMutation::StrayCr: return "stray-cr";
    case LineMutation::DuplicateStatement: return "duplicate-statement";
    case LineMutation::SwapStatements: return "swap-statements";
  }
  return "?";
}

const LineMutation kLineMutations[] = {
    LineMutation::Truncate,           LineMutation::CommentInject,
    LineMutation::Continuation,       LineMutation::StrayCr,
    LineMutation::DuplicateStatement, LineMutation::SwapStatements,
};

/// `text` cut into statements, each with its trailing newline: one per
/// line for .eqn; for BLIF a directive line plus the cover rows under it.
std::vector<std::string> split_statements(const std::string& text,
                                          bool blif) {
  std::vector<std::string> statements;
  for (std::size_t begin = 0; begin < text.size();) {
    std::size_t end = text.find('\n', begin);
    end = end == std::string::npos ? text.size() : end + 1;
    const bool starts_statement = !blif || statements.empty() ||
                                  text[begin] == '.' || text[begin] == '#';
    if (starts_statement) statements.emplace_back();
    statements.back() += text.substr(begin, end - begin);
    begin = end;
  }
  return statements;
}

bool is_gate_statement(const std::string& statement, bool blif) {
  return blif ? statement.rfind(".names ", 0) == 0
              : statement.find('=') != std::string::npos;
}

std::string join(const std::vector<std::string>& statements) {
  std::string text;
  for (const std::string& s : statements) text += s;
  return text;
}

std::string mutate_line_text(const std::string& text, bool blif,
                             LineMutation kind, Prng& rng) {
  std::vector<std::string> statements = split_statements(text, blif);
  // A position strictly inside a random non-empty line.
  const auto inner_position = [&]() {
    std::vector<std::pair<std::size_t, std::size_t>> lines;  // begin, size
    for (std::size_t begin = 0; begin < text.size();) {
      std::size_t end = text.find('\n', begin);
      if (end == std::string::npos) end = text.size();
      if (end - begin >= 2) lines.emplace_back(begin, end - begin);
      begin = end + 1;
    }
    const auto [begin, size] = lines[rng.next_below(lines.size())];
    return begin + 1 + rng.next_below(size - 1);
  };
  switch (kind) {
    case LineMutation::Truncate:
      return text.substr(0, inner_position());
    case LineMutation::CommentInject: {
      const char* comments[] = {"#", "//", "/*"};
      std::string out = text;
      out.insert(inner_position(), comments[rng.next_below(3)]);
      return out;
    }
    case LineMutation::Continuation: {
      std::string out = text;
      out.insert(inner_position(), "\\\n");
      return out;
    }
    case LineMutation::StrayCr: {
      std::string out = text;
      out.insert(inner_position(), "\r");
      return out;
    }
    case LineMutation::DuplicateStatement: {
      const std::size_t from = rng.next_below(statements.size());
      const std::size_t to = rng.next_below(statements.size() + 1);
      statements.insert(statements.begin() + static_cast<std::ptrdiff_t>(to),
                        statements[from]);
      return join(statements);
    }
    case LineMutation::SwapStatements: {
      std::vector<std::size_t> gates;
      for (std::size_t i = 0; i < statements.size(); ++i)
        if (is_gate_statement(statements[i], blif)) gates.push_back(i);
      const std::size_t a = rng.next_below(gates.size());
      std::size_t b = rng.next_below(gates.size() - 1);
      if (b >= a) ++b;
      std::swap(statements[gates[a]], statements[gates[b]]);
      return join(statements);
    }
  }
  return text;
}

TEST(FuzzLineDialects, TextMutantsParseOrDiagnoseNeverCrash) {
  for (unsigned m = 4; m <= 12; ++m) {
    const FamilyCase family = kFamilies[m % std::size(kFamilies)];
    const gf2m::Field field(gf2::default_irreducible(m));
    const auto base = family.generate(field);
    const FlowReport control = reverse_engineer(base, fuzz_options());
    for (const bool blif : {false, true}) {
      const std::string file = blif ? "mutant.blif" : "mutant.eqn";
      const auto parse = [&](const std::string& text) {
        return blif ? nl::read_blif(text, file) : nl::read_eqn(text, file);
      };
      const std::string text = blif ? nl::write_blif(base)
                                    : nl::write_eqn(base);
      for (const LineMutation kind : kLineMutations) {
        for (std::uint64_t seed = 1; seed <= fuzz_iters(); ++seed) {
          Prng rng(0xbb67ae85u * m + 65537u * seed +
                   static_cast<std::uint64_t>(kind) * 2654435761u + blif);
          const std::string mutant = mutate_line_text(text, blif, kind, rng);
          const std::string label = std::string(family.name) + " m=" +
                                    std::to_string(m) + " " + file + " " +
                                    to_string(kind) +
                                    " seed=" + std::to_string(seed);
          nl::Netlist parsed("unset");
          try {
            parsed = parse(mutant);
          } catch (const ParseError& e) {
            EXPECT_NE(kind, LineMutation::SwapStatements)
                << label << ": " << e.what();
            EXPECT_EQ(e.file(), file) << label;
            EXPECT_GE(e.line(), 1) << label;
            continue;
          }
          FlowReport report;
          ASSERT_NO_THROW(report = reverse_engineer(parsed, fuzz_options()))
              << label;
          if (kind == LineMutation::SwapStatements) {
            EXPECT_EQ(report.success, control.success) << label;
            EXPECT_EQ(report.recovery.p, control.recovery.p) << label;
          } else if (report.success) {
            EXPECT_TRUE(report.verification.equivalent) << label;
          } else {
            EXPECT_FALSE(report.recovery.diagnosis.empty())
                << label << " failed without a diagnosis\n"
                << report.summary();
          }
        }
      }
    }
  }
}

// -- Mutants through the batch engine ---------------------------------------

TEST(FuzzBatch, MutantSwarmNeverPoisonsTheBatch) {
  // 25 mutants of one circuit through the shared-pool engine: per-job
  // outcomes only, no exception may escape run_batch.
  const gf2m::Field field(Poly{8, 4, 3, 1, 0});
  const auto base = gen::generate_mastrovito(field);
  std::vector<BatchJob> jobs;
  Prng rng(20260730);
  for (int i = 0; i < 25; ++i) {
    const Mutation kind = kMutations[rng.next_below(5)];
    BatchJob job;
    job.name = std::string(to_string(kind)) + "#" + std::to_string(i);
    job.netlist = mutate(base, kind, rng);
    job.options = fuzz_options();
    jobs.push_back(std::move(job));
  }
  BatchOptions options;
  options.threads = 4;
  BatchReport batch;
  ASSERT_NO_THROW(batch = run_batch(std::move(jobs), options));
  ASSERT_EQ(batch.results.size(), 25u);
  for (const auto& result : batch.results) {
    EXPECT_TRUE(result.error.empty()) << result.name;
    if (!result.report.success) {
      EXPECT_FALSE(result.report.recovery.diagnosis.empty()) << result.name;
    }
  }
}

// -- Obfuscation-pass stacks -------------------------------------------------

TEST_P(FuzzFamilies, ObfuscationStacksRecoverOrDiagnose) {
  // Random pass stacks (1-3 passes, strengths 0-3) over the family grid,
  // attacked correct-keyed / wrong-keyed / keys-free at random, under the
  // same recover-or-diagnose-never-crash contract.  A correctly keyed
  // semantics-preserving-only stack must additionally be an exact inverse
  // back to the base netlist (content-hash equality => identical report).
  const FamilyCase family = GetParam();
  const obf::PassKind kPasses[] = {
      obf::PassKind::KeyGates, obf::PassKind::PxMix, obf::PassKind::Rewrite,
      obf::PassKind::FaultStuckAt, obf::PassKind::FaultFlip};
  for (unsigned m : {4u, 8u}) {
    const gf2m::Field field(gf2::default_irreducible(m));
    const auto base = family.generate(field);
    const auto base_hash = netlist_content_hash(base);
    const FlowReport base_report = reverse_engineer(base, fuzz_options());
    for (std::uint64_t seed = 1; seed <= fuzz_iters(); ++seed) {
      Prng rng(0x0bf5ca7e * m + 1000003u * seed);
      std::vector<obf::PassSpec> stack;
      const std::size_t depth = 1 + rng.next_below(3);
      bool keygate_only_obf = true;  // every pass a keygate or pure rewrite
      for (std::size_t i = 0; i < depth; ++i) {
        obf::PassSpec spec;
        spec.kind = kPasses[rng.next_below(5)];
        spec.strength = static_cast<unsigned>(rng.next_below(4));
        if (spec.kind != obf::PassKind::KeyGates && spec.strength != 0)
          keygate_only_obf = false;
        stack.push_back(spec);
      }
      obf::PassOptions options;
      options.seed = seed * 977u + m;
      obf::ObfuscationResult obfd;
      ASSERT_NO_THROW(obfd = obf::apply_stack(base, stack, options))
          << family.name << " m=" << m << " " << obf::to_string(stack);
      ASSERT_NO_THROW(obfd.netlist.validate())
          << family.name << " m=" << m << " " << obf::to_string(stack);

      nl::Netlist attack = obfd.netlist;
      std::string mode = "free";
      if (!obfd.key.empty()) {
        switch (rng.next_below(3)) {
          case 0:
            attack = obf::apply_key(obfd.netlist, obfd.key);
            mode = "correct";
            break;
          case 1:
            attack =
                obf::apply_key(obfd.netlist, obf::complement_key(obfd.key));
            mode = "wrong";
            break;
          default:
            break;
        }
      }
      const std::string label = std::string(family.name) +
                                " m=" + std::to_string(m) + " " +
                                obf::to_string(stack) + " key=" + mode +
                                " seed=" + std::to_string(seed);
      if (mode == "correct" && keygate_only_obf) {
        // Key application must be the exact inverse of key insertion.
        EXPECT_EQ(netlist_content_hash(attack), base_hash) << label;
      }
      const bool changed = netlist_content_hash(attack) != base_hash;
      expect_recovers_or_diagnoses(attack, label, changed, base_report);
    }
  }
}

}  // namespace
}  // namespace gfre::core
