// Architecture survey — the Table IV experiment as a reusable tool.
//
// For a chosen field size (default: the paper's GF(2^233)), builds one
// Mastrovito multiplier per candidate irreducible polynomial and reports
// implementation cost (XOR count, depth) next to reverse-engineering cost
// (extraction runtime) — the correlation the paper discusses in
// Section IV.  For non-233 sizes the candidate set is synthesized from the
// trinomial/pentanomial search (low/high trinomial, low/spread
// pentanomial).
//
//   arch_survey [m]      m in 2..1024
//   arch_survey --help
#include <iostream>
#include <string>

#include "core/flow.hpp"
#include "gen/mastrovito.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/catalog.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace gfre;

  constexpr const char* kUsage =
      "usage: arch_survey [m]   (field size 2..1024, default 233)\n"
      "       arch_survey --help\n";
  if (argc > 1 && std::string(argv[1]) == "--help") {
    std::cout << kUsage;
    return 0;
  }
  unsigned m = 233;
  try {
    if (argc > 2) throw InvalidArgument("too many arguments");
    if (argc > 1)
      m = static_cast<unsigned>(parse_uint("m", argv[1], 2, 1024));
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n" << kUsage;
    return 2;
  }

  std::vector<gf2::CatalogEntry> candidates;
  if (m == 233) {
    candidates = gf2::architecture_polynomials_233();
  } else {
    candidates = gf2::contrasting_polynomials(m);
    if (candidates.empty()) {
      std::cerr << "no irreducible tri/pentanomial candidates for m=" << m
                << "\n";
      return 2;
    }
  }

  unsigned threads = 1;
  try {
    threads = static_cast<unsigned>(configured_threads());
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  std::cout << "Surveying " << candidates.size()
            << " irreducible polynomials for GF(2^" << m << ")\n\n";

  TextTable table({"name", "P(x)", "terms", "reduction XORs", "#eqns",
                   "depth", "extract(s)", "recovered"});
  bool all_ok = true;
  for (const auto& entry : candidates) {
    const gf2m::Field field(entry.p);
    const auto netlist = gen::generate_mastrovito(field);
    core::FlowOptions options;
    options.threads = threads;
    const auto report = core::reverse_engineer(netlist, options);
    const bool ok = report.success && report.recovery.p == entry.p;
    all_ok &= ok;
    table.add_row({entry.name, entry.p.to_paper_string(),
                   std::to_string(entry.p.weight()),
                   fmt_thousands(field.reduction_xor_count()),
                   fmt_thousands(netlist.num_equations()),
                   std::to_string(netlist.depth()),
                   fmt_double(report.extraction.wall_seconds, 3),
                   ok ? "yes" : "NO"});
    std::cout << "  done " << entry.name << "\n";
  }
  std::cout << "\n" << table.render("Architecture survey") << "\n";
  std::cout << "The extraction cost tracks the reduction XOR count: "
               "polynomials with middle terms near the top of the field "
               "(spread pentanomials) make both the circuit and its "
               "reverse engineering more expensive.\n";
  return all_ok ? 0 : 1;
}
