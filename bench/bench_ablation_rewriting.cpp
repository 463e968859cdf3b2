// Ablation — three readings of Algorithm 1 head to head:
//
//  * packed  — cone-local slot remapping + fixed-width bitset monomials in
//              an open-addressed flat table (anf/packed.hpp, the default);
//  * indexed — heap monomials in an unordered set with an occurrence-handle
//              index (the library's other backend);
//  * naive   — whole-polynomial rescan per gate (the textbook reading of
//              Algorithm 1), a reference local to this bench.
//
// The design decisions under test: (1) the occurrence index makes each
// substitution O(occurrences x |gate ANF|) where the naive scan is
// superlinear in |F| — which is why the paper's Montgomery extractions
// (Table II) were so much costlier than Mastrovito at the same width; and
// (2) packing monomials into cache-friendly fixed-width words removes the
// per-monomial allocation and pointer-chasing the legacy engine pays at
// exactly the paper's measured hot path, which is the headline speedup.
//
// A second, crypto-scale tier times the packed engine on the NIST
// binary-field widths (m = 163..571, Mastrovito and Montgomery) and checks
// every extraction against the golden multiplier ANFs.
//
// Timings cover extraction only, matching the paper's "runtime"
// definition; every reading's ANFs are asserted bit-identical before any
// number is reported.  Results also land in BENCH_rewriting.json (strategy
// x family x m -> seconds, peak_terms, and for the crypto tier the host's
// SIMD level and peak RSS) for the CI perf-trend artifact;
// GFRE_BENCH_JSON overrides the path.
#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "anf/simd.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/parallel_extract.hpp"
#include "core/verify.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gf2poly/irreducible.hpp"
#include "netlist/cell.hpp"
#include "netlist/ports.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace gfre;
namespace simd = gfre::anf::simd;

struct Family {
  const char* name;
  std::function<nl::Netlist(const gf2m::Field&)> generate;
};

/// The textbook reading of Algorithm 1: every cone gate, in reverse
/// topological order, substituted by a whole-polynomial rescan.  One output
/// per pool task, like extract_all_outputs; peak_terms sums each bit's
/// largest |F| between substitutions.
core::ExtractionResult naive_extract_all(const nl::Netlist& netlist,
                                         unsigned threads) {
  const auto& outputs = netlist.outputs();
  core::ExtractionResult result;
  result.anfs.resize(outputs.size());
  std::vector<std::size_t> peaks(outputs.size(), 0);
  ThreadPool pool(threads);
  pool.parallel_for(outputs.size(), [&](std::size_t i) {
    anf::Anf f = anf::Anf::var(outputs[i]);
    const auto cone = netlist.fanin_cone(outputs[i]);
    for (std::size_t g = cone.size(); g-- > 0;) {
      const nl::Gate& gate = netlist.gate(cone[g]);
      f.substitute(gate.output, nl::cell_anf(gate.type, gate.inputs));
      peaks[i] = std::max(peaks[i], f.size());
    }
    result.anfs[i] = std::move(f);
  });
  for (std::size_t peak : peaks) result.total_peak_terms += peak;
  return result;
}

/// Median-of-repeats extraction time: repeat until the total exceeds
/// ~100 ms (at least 3 runs, capped once a reading has burned ~2 s so the
/// full-scale naive runs stay bounded) so small widths aren't timer noise.
double time_extraction(const std::function<core::ExtractionResult()>& run,
                       core::ExtractionResult* out) {
  std::vector<double> samples;
  double total = 0.0;
  while (samples.empty() || (samples.size() < 3 && total < 2.0) ||
         (total < 0.1 && samples.size() < 25)) {
    Timer timer;
    auto result = run();
    samples.push_back(timer.seconds());
    total += samples.back();
    if (out != nullptr && samples.size() == 1) *out = std::move(result);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: packed vs indexed vs naive-scan backward rewriting");

  std::vector<unsigned> widths{8, 16, 32, 64};
  if (full_scale_requested()) widths = {16, 32, 64, 96, 163};
  const auto threads = static_cast<unsigned>(configured_threads());

  const std::vector<Family> families{
      {"mastrovito",
       [](const gf2m::Field& f) { return gen::generate_mastrovito(f); }},
      {"montgomery",
       [](const gf2m::Field& f) { return gen::generate_montgomery(f); }},
      {"karatsuba",
       [](const gf2m::Field& f) { return gen::generate_karatsuba(f); }},
      {"shiftadd",
       [](const gf2m::Field& f) { return gen::generate_shift_add(f); }},
  };

  TextTable table({"family", "m", "#eqns", "packed(s)", "indexed(s)",
                   "naive(s)", "pack-speedup", "index-speedup"});
  bench::JsonReport report("rewriting");
  std::vector<double> packed_speedups_m8_up;
  std::vector<double> montgomery_index_speedups;

  for (const Family& family : families) {
    for (unsigned m : widths) {
      const gf2m::Field field(gf2::has_paper_polynomial(m)
                                  ? gf2::paper_polynomial(m).p
                                  : gf2::default_irreducible(m));
      const auto netlist = family.generate(field);

      const auto backend = [&](core::RewriteStrategy strategy) {
        return [&netlist, threads, strategy] {
          return core::extract_all_outputs(netlist, threads, strategy);
        };
      };
      core::ExtractionResult packed_result, indexed_result, naive_result;
      const double packed_seconds = time_extraction(
          backend(core::RewriteStrategy::Packed), &packed_result);
      const double indexed_seconds = time_extraction(
          backend(core::RewriteStrategy::Indexed), &indexed_result);
      const double naive_seconds = time_extraction(
          [&] { return naive_extract_all(netlist, threads); }, &naive_result);

      // The ablation is only meaningful if the readings agree bit-exactly.
      for (std::size_t i = 0; i < packed_result.anfs.size(); ++i) {
        GFRE_ASSERT(packed_result.anfs[i] == indexed_result.anfs[i] &&
                        packed_result.anfs[i] == naive_result.anfs[i],
                    "strategies disagree on " << family.name << " m=" << m
                                              << " bit " << i);
      }

      const double pack_speedup = indexed_seconds / packed_seconds;
      const double index_speedup = naive_seconds / indexed_seconds;
      table.add_row({family.name, std::to_string(m),
                     fmt_thousands(netlist.num_equations()),
                     fmt_double(packed_seconds, 4),
                     fmt_double(indexed_seconds, 4),
                     fmt_double(naive_seconds, 4),
                     fmt_double(pack_speedup, 1),
                     fmt_double(index_speedup, 1)});
      if (m >= 8) packed_speedups_m8_up.push_back(pack_speedup);
      if (std::string(family.name) == "montgomery") {
        montgomery_index_speedups.push_back(index_speedup);
      }

      const struct {
        const char* name;
        double seconds;
        const core::ExtractionResult* result;
      } rows[] = {{"packed", packed_seconds, &packed_result},
                  {"indexed", indexed_seconds, &indexed_result},
                  {"naive", naive_seconds, &naive_result}};
      for (const auto& row : rows) {
        report.add_record()
            .add("strategy", row.name)
            .add("family", family.name)
            .add("m", m)
            .add("equations", netlist.num_equations())
            .add("threads", threads)
            .add("seconds", row.seconds)
            .add("peak_terms", row.result->total_peak_terms);
      }
      std::printf("  done %s m=%u\n", family.name, m);
      std::fflush(stdout);
    }
  }
  std::printf("\n%s\n", table.render("Rewriting-strategy ablation").c_str());

  // ---- Crypto-scale tier: the packed engine at NIST widths ----
  //
  // Single-threaded, so the time measures the engine rather than scheduler
  // behavior; each config keeps its minimum over the repetitions, far more
  // stable than a single run on a shared CI box.  Peak RSS is reset before
  // each config's first run so the recorded figure covers that extraction
  // alone.
  const char* simd_level = simd::to_string(simd::active_level());
  const int tier_reps =
      static_cast<int>(env_long("GFRE_LARGE_M_REPS", 3));
  const std::vector<unsigned> tier_widths{163, 233, 283, 409, 571};

  TextTable tier_table({"family", "m", "#eqns", "packed(s)", "peak-rss"});

  for (const Family& family : families) {
    if (std::string(family.name) != "mastrovito" &&
        std::string(family.name) != "montgomery") {
      continue;  // the crypto tier tracks the paper's two headline families
    }
    for (unsigned m : tier_widths) {
      const gf2m::Field field(gf2::has_paper_polynomial(m)
                                  ? gf2::paper_polynomial(m).p
                                  : gf2::default_irreducible(m));
      const auto netlist = family.generate(field);
      const auto ports = nl::multiplier_ports(netlist);
      const auto golden = core::golden_anfs(field, ports);

      double seconds = 1e300;
      std::size_t peak_terms = 0;
      reset_peak_rss();
      std::uint64_t rss = 0;
      for (int rep = 0; rep < tier_reps; ++rep) {
        Timer timer;
        const auto result = core::extract_outputs(
            netlist, ports.z.bits, 1, core::RewriteStrategy::Packed);
        seconds = std::min(seconds, timer.seconds());
        if (rep == 0) rss = peak_rss_bytes();
        GFRE_ASSERT(result.anfs == golden,
                    "packed extraction disagrees with the golden ANFs on "
                        << family.name << " m=" << m);
        peak_terms = result.total_peak_terms;
      }

      tier_table.add_row({family.name, std::to_string(m),
                          fmt_thousands(netlist.num_equations()),
                          fmt_double(seconds, 3), format_bytes(rss)});
      report.add_record()
          .add("tier", "crypto")
          .add("strategy", "packed")
          .add("simd", simd_level)
          .add("family", family.name)
          .add("m", m)
          .add("equations", netlist.num_equations())
          .add("threads", 1u)
          .add("seconds", seconds)
          .add("peak_terms", peak_terms)
          .add("peak_rss_bytes", rss);
      std::printf("  done crypto tier %s m=%u (%.3f s)\n", family.name, m,
                  seconds);
      std::fflush(stdout);
    }
  }
  std::printf("\n%s\n",
              tier_table.render("Crypto-scale tier: packed engine (host " +
                                std::string(simd_level) + ")")
                  .c_str());

  report.write(env_string("GFRE_BENCH_JSON", "BENCH_rewriting.json"));

  // Claim 1 (legacy, the paper's Table II pain point): the occurrence
  // index's edge over the naive scan grows with m on flattened Montgomery
  // netlists, where intermediate expression blow-up makes the rescan
  // superlinear.
  const bool index_shape =
      montgomery_index_speedups.back() > 1.5 &&
      montgomery_index_speedups.back() > montgomery_index_speedups.front();
  std::printf("shape check: index speedup on Montgomery grows with m and "
              "exceeds 1.5x at the top width: %s\n",
              index_shape ? "PASS" : "FAIL");

  // Claim 2: the packed cone-local engine beats the
  // indexed engine by >= 1.5x on the geometric mean across every family at
  // m >= 8 — allocation-free fixed-width monomials at the measured hot
  // path.
  double geo = 1.0;
  for (double s : packed_speedups_m8_up) geo *= s;
  geo = std::pow(geo, 1.0 / static_cast<double>(packed_speedups_m8_up.size()));
  const bool packed_shape = geo >= 1.5;
  std::printf("shape check: packed vs indexed geomean speedup at m >= 8 is "
              "%.2fx (need >= 1.5x): %s\n",
              geo, packed_shape ? "PASS" : "FAIL");

  return (index_shape && packed_shape) ? 0 : 1;
}
