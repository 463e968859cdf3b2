// Differential suite for the arena-backed packed cone engine: it must be
// bit-identical to independent references — at the engine level against a
// toggle-by-toggle anf::Anf replay (every RepKind, including widths
// straddling the 64- and 512-bit representation boundaries), and at the
// whole-flow level against the Indexed backend and the textbook reference
// (FlowReports across generator families and thread counts).  Also
// unit-covers MonotonicArena/ArenaVector and asserts the acceptance
// property that a cone extraction performs zero steady-state heap
// allocations once the per-thread arena is warm.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "anf/arena.hpp"
#include "anf/packed.hpp"
#include "core/flow.hpp"
#include "core/rewriter.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gen/squarer.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/catalog.hpp"
#include "gf2poly/irreducible.hpp"
#include "helpers.hpp"
#include "util/prng.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter — replaces operator new/delete for this binary
// so the zero-steady-state-allocation acceptance test can observe every
// heap allocation the engine (or the arena behind it) performs.  malloc is
// still the backing store, so sanitizers keep full visibility.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) throw std::bad_alloc();
  return p;
}

// GCC pairs the *builtin* operator-new semantics with these frees when it
// inlines them at delete sites, and warns — a false positive once the
// whole new/delete family is replaced with malloc-backed bodies above.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace gfre {
namespace {

using anf::MonotonicArena;
using anf::ArenaVector;
using anf::packed::ConeEngine;
using anf::packed::RepKind;
using anf::packed::Slot;
using anf::packed::SlotMono;
using anf::packed::TermList;

// ---------------------------------------------------------------------------
// MonotonicArena / ArenaVector units
// ---------------------------------------------------------------------------

TEST(Arena, AlignedBumpAllocation) {
  MonotonicArena arena(256);
  auto* a = static_cast<char*>(arena.allocate(3, 1));
  auto* b = static_cast<char*>(arena.allocate(8, 8));
  auto* c = static_cast<char*>(arena.allocate(64, 64));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
  EXPECT_NE(a, b);
  // Distinct non-overlapping regions: writing one must not disturb others.
  std::memset(a, 0xAA, 3);
  std::memset(b, 0xBB, 8);
  std::memset(c, 0xCC, 64);
  EXPECT_EQ(static_cast<unsigned char>(a[0]), 0xAAu);
  EXPECT_EQ(static_cast<unsigned char>(b[7]), 0xBBu);
  EXPECT_EQ(static_cast<unsigned char>(c[63]), 0xCCu);
}

TEST(Arena, GrowsAcrossChunksAndResetReuses) {
  MonotonicArena arena(4096);
  // Force several refills.
  for (int i = 0; i < 64; ++i) arena.allocate(1024, 8);
  const std::size_t chunks = arena.chunk_count();
  const std::size_t bytes = arena.capacity_bytes();
  EXPECT_GT(chunks, 1u);
  // The same workload after reset() must fit in the chunks already owned:
  // no growth, which is the zero-steady-state-allocation property.
  arena.reset();
  for (int i = 0; i < 64; ++i) arena.allocate(1024, 8);
  EXPECT_EQ(arena.chunk_count(), chunks);
  EXPECT_EQ(arena.capacity_bytes(), bytes);
}

TEST(Arena, OversizedRequestGetsDedicatedChunk) {
  MonotonicArena arena(4096);
  auto* p = static_cast<char*>(arena.allocate(1 << 20, 8));
  std::memset(p, 0x5A, 1 << 20);  // must be fully usable
  EXPECT_GE(arena.capacity_bytes(), std::size_t{1} << 20);
}

TEST(Arena, ArenaVectorGrowsAndSurvivesReset) {
  MonotonicArena arena;
  ArenaVector<std::uint32_t> v(arena);
  for (std::uint32_t i = 0; i < 10000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 10000u);
  for (std::uint32_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(v[i], i) << "growth must preserve contents";
  }
  v.clear();
  EXPECT_TRUE(v.empty());
  arena.reset();
  v.attach(arena);  // the engine's per-cone re-attach pattern
  for (std::uint32_t i = 0; i < 10000; ++i) v.push_back(i * 3);
  EXPECT_EQ(v[9999], 9999u * 3);
}

// ---------------------------------------------------------------------------
// Engine-level differential: every representation tier vs an Anf replay
// ---------------------------------------------------------------------------

struct Step {
  Slot var;
  TermList terms;
};

/// Reverse-topological substitution script over `num_slots` slots: var
/// walks down from the root and each gate ANF mentions only lower slots,
/// like a real cone.  Degrees stay low (XOR-dominated, like real
/// multiplier datapaths) so the Sparse tier never overflows its cap.
std::vector<Step> make_script(std::size_t num_slots, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<Step> script;
  const Slot root = static_cast<Slot>(num_slots - 1);
  for (Slot var = root; var > 0; --var) {
    if (num_slots > 80 && (rng.next_u64() & 3u) == 0) continue;  // keep it fast
    Step step;
    step.var = var;
    const unsigned terms = 1 + static_cast<unsigned>(rng.next_below(3));
    for (unsigned t = 0; t < terms; ++t) {
      step.terms.begin_term();
      const unsigned degree = (rng.next_u64() & 7u) == 0 ? 2 : 1;
      for (unsigned d = 0; d < degree; ++d) {
        step.terms.push_slot(static_cast<Slot>(rng.next_below(var)));
      }
      step.terms.end_term();
    }
    script.push_back(std::move(step));
  }
  return script;
}

struct EngineRun {
  std::vector<SlotMono> monomials;
  std::size_t size = 0;
  std::size_t cancellations = 0;
  std::size_t peak_terms = 0;
};

EngineRun run_script(std::size_t num_slots, const std::vector<Step>& script,
                     RepKind* rep) {
  ConeEngine engine(num_slots, static_cast<Slot>(num_slots - 1));
  for (const Step& step : script) {
    engine.substitute(step.var, step.terms);
  }
  EngineRun run;
  run.monomials = engine.monomials();
  std::sort(run.monomials.begin(), run.monomials.end());
  run.size = engine.size();
  run.cancellations = engine.cancellations();
  run.peak_terms = engine.peak_terms();
  *rep = engine.rep();
  return run;
}

/// The same script replayed toggle by toggle on anf::Anf, with slots as
/// variables: shares no code with the packed engine, and counts mod-2
/// cancellations and the peak exactly where the engine does.
EngineRun run_reference(std::size_t num_slots,
                        const std::vector<Step>& script) {
  anf::Anf f = anf::Anf::var(static_cast<anf::Var>(num_slots - 1));
  EngineRun run;
  run.peak_terms = f.size();
  for (const Step& step : script) {
    std::vector<anf::Monomial> hits;
    for (const anf::Monomial& m : f.monomials()) {
      if (m.contains(step.var)) hits.push_back(m);
    }
    for (const anf::Monomial& hit : hits) {
      f.toggle(hit);
      const anf::Monomial rest = hit.without(step.var);
      for (std::size_t t = 0; t < step.terms.term_count(); ++t) {
        const std::vector<anf::Var> vars(step.terms.term_begin(t),
                                         step.terms.term_end(t));
        if (!f.toggle(rest.times(anf::Monomial::from_vars(vars)))) {
          ++run.cancellations;
        }
      }
    }
    run.peak_terms = std::max(run.peak_terms, f.size());
  }
  for (const anf::Monomial& m : f.monomials()) {
    run.monomials.emplace_back(m.vars().begin(), m.vars().end());
  }
  std::sort(run.monomials.begin(), run.monomials.end());
  run.size = f.size();
  return run;
}

class EngineWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineWidths, MatchesAnfReferenceBitForBit) {
  const std::size_t num_slots = GetParam();
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto script = make_script(num_slots, seed * 0x9e37 + num_slots);
    RepKind rep;
    const EngineRun got = run_script(num_slots, script, &rep);
    const EngineRun want = run_reference(num_slots, script);
    const std::string label = "slots=" + std::to_string(num_slots) +
                              " seed=" + std::to_string(seed);
    EXPECT_EQ(rep, anf::packed::rep_for_cone(num_slots)) << label;
    EXPECT_EQ(got.size, want.size) << label;
    EXPECT_EQ(got.cancellations, want.cancellations) << label;
    EXPECT_EQ(got.peak_terms, want.peak_terms) << label;
    EXPECT_EQ(got.monomials, want.monomials) << label;
  }
}

// Widths straddling every representation boundary: 63/64/65 around the
// one-word tier, 127..129 and 255..257 around the two/four-word tiers,
// 511/512/513 around Bits512 -> Sparse, plus a deep-Sparse width.
INSTANTIATE_TEST_SUITE_P(
    BoundaryWidths, EngineWidths,
    ::testing::Values(std::size_t{2}, std::size_t{63}, std::size_t{64},
                      std::size_t{65}, std::size_t{127}, std::size_t{128},
                      std::size_t{129}, std::size_t{255}, std::size_t{256},
                      std::size_t{257}, std::size_t{511}, std::size_t{512},
                      std::size_t{513}, std::size_t{900}));

// ---------------------------------------------------------------------------
// Flow-level differential: packed FlowReports bit-identical to the Indexed
// backend's across families and thread counts
// ---------------------------------------------------------------------------

struct FamilyCase {
  const char* name;
  nl::Netlist (*generate)(const gf2m::Field&);
  unsigned m;
  // The squarer is not a two-operand multiplier, so the flow diagnoses it
  // rather than succeeding — its *failure* report must be backend-identical
  // too.
  bool expect_success;
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

class EngineFlowFamilies : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(EngineFlowFamilies, ReportsBitIdenticalToIndexedAcrossThreads) {
  const FamilyCase family = GetParam();
  const gf2m::Field field(gf2::has_paper_polynomial(family.m)
                              ? gf2::paper_polynomial(family.m).p
                              : gf2::default_irreducible(family.m));
  const auto netlist = family.generate(field);
  core::FlowOptions indexed;
  indexed.threads = 1;
  indexed.strategy = core::RewriteStrategy::Indexed;
  const core::FlowReport want = core::reverse_engineer(netlist, indexed);
  EXPECT_EQ(want.success, family.expect_success) << family.name;
  for (unsigned threads : {1u, 4u}) {
    core::FlowOptions options;
    options.threads = threads;
    const auto got = core::reverse_engineer(netlist, options);
    test::expect_reports_equal(got, want,
                               std::string(family.name) +
                                   " m=" + std::to_string(family.m) +
                                   " threads=" + std::to_string(threads));
  }
}

// m=16 puts montgomery/karatsuba cones into the multi-word tiers; the
// small widths keep the whole sweep fast.
INSTANTIATE_TEST_SUITE_P(
    AllFamilies, EngineFlowFamilies,
    ::testing::Values(FamilyCase{"mastrovito", &make_mastrovito, 12, true},
                      FamilyCase{"montgomery", &make_montgomery, 16, true},
                      FamilyCase{"karatsuba", &make_karatsuba, 16, true},
                      FamilyCase{"shiftadd", &make_shift_add, 12, true},
                      FamilyCase{"squarer", &make_squarer, 12, false}),
    [](const ::testing::TestParamInfo<FamilyCase>& info) {
      return std::string(info.param.name);
    });

/// Long XOR chain: the single output cone exceeds `width` variables, so
/// extraction runs the requested representation tier end to end.
nl::Netlist xor_chain(unsigned num_inputs, unsigned num_gates) {
  nl::Netlist netlist("chain");
  std::vector<nl::Var> ins;
  for (unsigned i = 0; i < num_inputs; ++i) {
    ins.push_back(netlist.add_input("i" + std::to_string(i)));
  }
  nl::Var prev = ins[0];
  for (unsigned g = 0; g < num_gates; ++g) {
    prev = netlist.add_gate(nl::CellType::Xor,
                            {prev, ins[(g + 1) % num_inputs]});
  }
  netlist.mark_output(prev);
  return netlist;
}

TEST(EngineFlow, Bits512AndSparseConesMatchReferences) {
  // 400 gates -> Bits512 tier; 700 gates -> Sparse spill.  Both must match
  // the Indexed backend and the textbook reference through the real
  // extraction path, statistics included.
  for (unsigned gates : {400u, 700u}) {
    const auto netlist = xor_chain(8, gates);
    const nl::Var out = netlist.outputs()[0];
    core::RewriteOptions packed, indexed;
    packed.strategy = core::RewriteStrategy::Packed;
    indexed.strategy = core::RewriteStrategy::Indexed;
    core::RewriteStats got_stats, want_stats;
    const auto got = core::extract_output_anf(netlist, out, packed, &got_stats);
    const auto want =
        core::extract_output_anf(netlist, out, indexed, &want_stats);
    EXPECT_EQ(got, want) << "gates=" << gates;
    EXPECT_EQ(got, test::textbook_anf(netlist, out)) << "gates=" << gates;
    EXPECT_EQ(got_stats.substitutions, want_stats.substitutions);
    EXPECT_EQ(got_stats.cancellations, want_stats.cancellations);
    EXPECT_EQ(got_stats.peak_terms, want_stats.peak_terms);
  }
}

// ---------------------------------------------------------------------------
// Acceptance: zero steady-state heap allocations per cone
// ---------------------------------------------------------------------------

TEST(ArenaEngine, ConeExtractionIsAllocationFreeAfterWarmup) {
  // A wide-enough script to force table growth and occurrence-bucket
  // churn, prebuilt so the measured loop touches no std::vector growth.
  const std::size_t num_slots = 300;
  const auto script = make_script(num_slots, 0xfeed);

  const auto run_cone = [&] {
    ConeEngine engine(num_slots, static_cast<Slot>(num_slots - 1));
    for (const Step& step : script) engine.substitute(step.var, step.terms);
    return engine.size();
  };

  // Warmup: grows the thread's arena chunks and the table to their
  // steady-state footprint.
  const std::size_t warm_size = run_cone();

  // Steady state: the identical cone must allocate nothing at all.
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const std::size_t size1 = run_cone();
  const std::size_t size2 = run_cone();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "cone extraction must be allocation-free after "
         "arena warmup";
  EXPECT_EQ(size1, warm_size);
  EXPECT_EQ(size2, warm_size);
}

TEST(ArenaEngine, AllocationCounterHookIsLive) {
  // Guards the acceptance test above against silently measuring nothing
  // (e.g. the replacement operators not being linked in).
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  auto* p = new std::vector<int>(100);
  delete p;
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace gfre
