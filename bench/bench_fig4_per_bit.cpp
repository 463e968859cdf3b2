// Figure 4 — Runtime of extracting the polynomial expression of each
// output bit of the GF(2^233) multipliers of Table IV.
//
// The paper plots per-output-bit extraction runtime (y) against output bit
// position (x) for the four architecture polynomials; the pentanomial
// curves (Pentium, MSP430) sit above the trinomial curves (ARM, NIST).
//
// This harness writes fig4_per_bit.csv with one series per polynomial and
// prints a coarse ASCII summary (mean per-bit time per architecture plus a
// downsampled profile).
#include <fstream>

#include "bench_common.hpp"
#include "gen/mastrovito.hpp"

int main() {
  using namespace gfre;
  bench::print_header(
      "Figure 4: per-output-bit extraction runtime, GF(2^233)");

  struct Series {
    std::string name;
    std::vector<double> micros;  // per-bit extraction time
  };
  std::vector<Series> series;

  for (const auto& entry : gf2::architecture_polynomials_233()) {
    const gf2m::Field field(entry.p);
    const auto netlist = gen::generate_mastrovito(field);
    core::FlowOptions options;
    options.threads = bench::bench_threads();
    options.verify_with_golden = false;
    const auto report = core::reverse_engineer(netlist, options);
    Series s;
    s.name = entry.name;
    for (const auto& stats : report.extraction.per_bit) {
      s.micros.push_back(stats.seconds * 1e6);
    }
    series.push_back(std::move(s));
    std::printf("  done %s\n", entry.name.c_str());
    std::fflush(stdout);
  }

  // CSV: bit, <series...>
  const std::string csv_path = "fig4_per_bit.csv";
  {
    std::ofstream csv(csv_path);
    csv << "bit";
    for (const auto& s : series) csv << "," << s.name;
    csv << "\n";
    const std::size_t bits = series.front().micros.size();
    for (std::size_t bit = 0; bit < bits; ++bit) {
      csv << bit;
      for (const auto& s : series) csv << "," << s.micros[bit];
      csv << "\n";
    }
  }
  std::printf("\nwrote %s (233 rows x %zu series)\n\n", csv_path.c_str(),
              series.size());

  // Summary table: mean/max per-bit extraction time.
  TextTable table({"architecture", "mean per-bit (us)", "max per-bit (us)",
                   "total (s)"});
  std::vector<double> means;
  for (const auto& s : series) {
    double total = 0, max = 0;
    for (double v : s.micros) {
      total += v;
      max = std::max(max, v);
    }
    means.push_back(total / static_cast<double>(s.micros.size()));
    table.add_row({s.name, fmt_double(means.back(), 1), fmt_double(max, 1),
                   fmt_double(total / 1e6, 3)});
  }
  std::printf("%s\n", table.render("Figure 4 summary").c_str());

  // Downsampled ASCII profile (every 24th bit) for quick eyeballing.
  std::printf("per-bit profile (us), every 24th bit:\nbit:");
  for (std::size_t bit = 0; bit < series[0].micros.size(); bit += 24) {
    std::printf("%8zu", bit);
  }
  std::printf("\n");
  for (const auto& s : series) {
    std::printf("%-4.4s", s.name.c_str());
    for (std::size_t bit = 0; bit < s.micros.size(); bit += 24) {
      std::printf("%8.1f", s.micros[bit]);
    }
    std::printf("\n");
  }

  // Shape check: pentanomial series cost more on average than trinomials
  // (paper: Pentium ~ 2x NIST).
  const bool shape = means[0] > means[3] && means[2] > means[1];
  std::printf("\nshape check: Pentium > NIST and MSP430 > ARM mean per-bit "
              "runtime: %s\n",
              shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}
