// Backward rewriting — Algorithm 1 of the paper.
//
// Starting from F0 = (the output bit's variable), walk the output's fanin
// cone in reverse topological order; for every gate whose output variable
// occurs in F, substitute the gate's ANF over its inputs, cancelling
// monomials mod 2.  After the last substitution F mentions only primary
// inputs: it is the unique ANF of that output bit (Theorem 1), and by
// Theorem 2 each output bit can be rewritten independently.
//
// Algorithm 1 itself is generic over a substitution backend; two are
// provided:
//  * Packed  — the default.  Cone variables are densely remapped to 32-bit
//              slots 0..k-1 and monomials packed as fixed-width bitsets
//              (1/2/4/8 64-bit words chosen per cone, a sorted inline
//              slot-array spill for wider cones) in an open-addressed flat
//              table with an occurrence index of small handles
//              (anf/packed.hpp).  The final polynomial is converted back to
//              the canonical anf::Anf, so everything downstream is
//              unchanged.
//  * Indexed — heap monomials in an unordered set plus a variable ->
//              occurrence-handle index, making each substitution
//              O(occurrences x |gate ANF|).  Packed's fallback for cones
//              beyond its packing limits, and the independent differential
//              reference.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "anf/anf.hpp"
#include "netlist/netlist.hpp"
#include "util/error.hpp"

namespace gfre::core {

/// Thrown when a rewriting run exceeds its configured term budget
/// (RewriteOptions::max_terms).  Non-multiplier inputs — fuzzed mutants,
/// hostile submissions to the batch service — can make |F| blow up
/// exponentially; the budget turns that into a bounded, diagnosable
/// failure instead of an OOM or an effective hang.
class TermBudgetExceeded : public Error {
 public:
  TermBudgetExceeded(std::size_t terms, std::size_t budget)
      : Error("backward rewriting exceeded its term budget (" +
              std::to_string(terms) + " live monomials > limit " +
              std::to_string(budget) +
              "); the cone is not a bounded GF(2^m) datapath"),
        terms_(terms),
        budget_(budget) {}

  std::size_t terms() const { return terms_; }
  std::size_t budget() const { return budget_; }

 private:
  std::size_t terms_;
  std::size_t budget_;
};

/// Thrown when a rewriting run crosses its wall-clock deadline
/// (RewriteOptions::deadline) — the batch scheduler's soft-abort for jobs
/// with a BatchJob::deadline_ms budget.  The message is deliberately fixed
/// (no elapsed times, no term counts): the diagnosed report a deadline
/// abort produces must be bit-identical at any worker count and under any
/// cone interleaving.
class DeadlineExceeded : public Error {
 public:
  DeadlineExceeded()
      : Error("backward rewriting exceeded the job deadline; the cone was "
              "abandoned at a substitution checkpoint") {}
};

/// The values are hashed into result-cache keys (core/content_walk.hpp):
/// they never change, and the retired value 2 is never reused.
enum class RewriteStrategy {
  Packed = 0,
  Indexed = 1,
};

/// Canonical lower-case name ("packed", "indexed").
const char* to_string(RewriteStrategy strategy);

/// Inverse of to_string (case-insensitive).
std::optional<RewriteStrategy> strategy_from_name(std::string_view name);

/// Per-extraction statistics (drives the paper's runtime/memory columns and
/// the Figure 4 per-bit profile).
struct RewriteStats {
  std::size_t cone_gates = 0;      ///< gates in the output's fanin cone
  std::size_t substitutions = 0;   ///< gates whose output occurred in F
  std::size_t cancellations = 0;   ///< monomials removed mod 2
  std::size_t peak_terms = 0;      ///< max |F| during rewriting
  std::size_t final_terms = 0;     ///< |ANF| at the end
  double seconds = 0.0;            ///< wall time of this extraction
};

struct RewriteOptions {
  RewriteStrategy strategy = RewriteStrategy::Packed;
  /// When set, prints a per-iteration trace in the style of the paper's
  /// Figure 3 ("G3: (1+a0b1+p0+s2)x+x   elim: 2x").
  std::ostream* trace = nullptr;
  /// Upper bound on live monomials during rewriting; 0 = unlimited.
  /// Exceeding it throws TermBudgetExceeded (checked between
  /// substitutions, so the transient overshoot is at most one gate-ANF
  /// expansion).
  std::size_t max_terms = 0;
  /// Wall-clock deadline for this extraction (monotonic clock); unset =
  /// unlimited.  Checked at the same between-substitutions checkpoint as
  /// max_terms, throwing DeadlineExceeded — so a cone already past its
  /// deadline overshoots by at most one gate-ANF expansion before it is
  /// abandoned, and the abort can never tear a substitution in half.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// Extracts the ANF of one output bit by backward rewriting.
/// `output` may be any net; gates outside its cone are never touched.
anf::Anf extract_output_anf(const nl::Netlist& netlist, nl::Var output,
                            const RewriteOptions& options = {},
                            RewriteStats* stats = nullptr);

}  // namespace gfre::core
