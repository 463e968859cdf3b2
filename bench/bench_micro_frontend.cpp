// Per-dialect parse record: what each netlist reader costs on the same
// multiplier, written as .eqn, BLIF and structural Verilog.
//
// For {Mastrovito, Montgomery, Karatsuba} x m in {94, 163, 283}, each
// netlist is rendered once per dialect, then parsed best of kReps times on
// one thread, the three dialects interleaved in every repetition.  The file
// name passed to the readers is as long as the repository benchmark's job
// paths, since readers keep it for diagnostics.  Records land in
// BENCH_frontend.json (GFRE_BENCH_JSON overrides the path):
//
//   * one host record: nproc, effective cores (k equal spin threads
//     against one) and the SIMD level;
//   * per family x m x dialect: bytes, gates, best seconds and MB/s;
//   * per family x m: the Verilog/.eqn parse ratio.
//
// Shape check: Verilog parses within 2x of .eqn for every family at
// m = 94 and m = 163 (exit 1 otherwise).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "anf/simd.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gf2poly/irreducible.hpp"
#include "netlist/io_blif.hpp"
#include "netlist/io_eqn.hpp"
#include "netlist/io_verilog.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace gfre;

constexpr int kReps = 7;
/// As long as a perfbench job path (.bench_build/work/<run>/jobs/...).
const std::string kPath = ".bench_build/work/cache_replay_s1/jobs/job00001";

struct Dialect {
  const char* name;
  const char* extension;
  std::function<std::string(const nl::Netlist&)> write;
  std::function<nl::Netlist(const std::string&, const std::string&)> read;
};

}  // namespace

int main() {
  bench::print_header("Micro: netlist parse cost per dialect");
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double cores = effective_cores(nproc);
  const char* simd = anf::simd::to_string(anf::simd::active_level());
  std::printf("host: nproc %u, effective cores %.2f, simd %s\n\n", nproc,
              cores, simd);

  bench::JsonReport report("frontend");
  report.add_record()
      .add("record", "host")
      .add("nproc", nproc)
      .add("effective_cores", cores)
      .add("simd", simd);

  const std::vector<Dialect> dialects{
      {"eqn", ".eqn", [](const nl::Netlist& n) { return nl::write_eqn(n); },
       [](const std::string& t, const std::string& f) {
         return nl::read_eqn(t, f);
       }},
      {"blif", ".blif",
       [](const nl::Netlist& n) { return nl::write_blif(n); },
       [](const std::string& t, const std::string& f) {
         return nl::read_blif(t, f);
       }},
      {"verilog", ".v",
       [](const nl::Netlist& n) { return nl::write_verilog(n); },
       [](const std::string& t, const std::string& f) {
         return nl::read_verilog(t, f);
       }},
  };
  const std::vector<std::pair<const char*,
                              std::function<nl::Netlist(const gf2m::Field&)>>>
      families{
          {"mastrovito",
           [](const gf2m::Field& f) { return gen::generate_mastrovito(f); }},
          {"montgomery",
           [](const gf2m::Field& f) { return gen::generate_montgomery(f); }},
          {"karatsuba",
           [](const gf2m::Field& f) { return gen::generate_karatsuba(f); }},
      };

  TextTable table({"family", "m", "gates", "eqn(s)", "blif(s)", "verilog(s)",
                   "eqn MB/s", "verilog MB/s", "verilog/eqn"});
  bool shape_ok = true;
  for (const unsigned m : {94u, 163u, 283u}) {
    const gf2m::Field field(gf2::default_irreducible(m));
    for (const auto& [family, generate] : families) {
      const nl::Netlist netlist = generate(field);
      std::vector<std::string> texts;
      for (const Dialect& d : dialects) texts.push_back(d.write(netlist));
      std::vector<double> best(dialects.size(), 1e30);
      for (int rep = 0; rep < kReps; ++rep) {
        for (std::size_t i = 0; i < dialects.size(); ++i) {
          Timer timer;
          const nl::Netlist parsed =
              dialects[i].read(texts[i], kPath + dialects[i].extension);
          best[i] = std::min(best[i], timer.seconds());
          GFRE_ASSERT(parsed.num_gates() >= netlist.num_gates(),
                      dialects[i].name << " lost gates");
        }
      }
      for (std::size_t i = 0; i < dialects.size(); ++i) {
        report.add_record()
            .add("family", family)
            .add("m", m)
            .add("dialect", dialects[i].name)
            .add("bytes", texts[i].size())
            .add("gates", netlist.num_gates())
            .add("threads", 1u)
            .add("seconds", best[i])
            .add("mb_per_s", static_cast<double>(texts[i].size()) / 1e6 /
                                 best[i]);
      }
      const double ratio = best[2] / best[0];
      report.add_record()
          .add("family", family)
          .add("m", m)
          .add("verilog_over_eqn", ratio);
      if (m <= 163 && ratio > 2.0) shape_ok = false;
      table.add_row({family, std::to_string(m),
                     fmt_thousands(netlist.num_gates()),
                     fmt_double(best[0], 4), fmt_double(best[1], 4),
                     fmt_double(best[2], 4),
                     fmt_double(texts[0].size() / 1e6 / best[0], 1),
                     fmt_double(texts[2].size() / 1e6 / best[2], 1),
                     fmt_double(ratio, 2)});
      std::printf("  done %s m=%u\n", family, m);
      std::fflush(stdout);
    }
  }
  std::printf("\n%s\n", table.render("Parse cost per dialect").c_str());
  report.write(env_string("GFRE_BENCH_JSON", "BENCH_frontend.json"));
  std::printf("shape check: Verilog within 2x of .eqn at m <= 163: %s\n",
              shape_ok ? "PASS" : "FAIL");
  return shape_ok ? 0 : 1;
}
