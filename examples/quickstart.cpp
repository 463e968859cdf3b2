// Quickstart: reverse engineer the irreducible polynomial of a GF(2^8)
// multiplier (the AES field) and verify it against the golden model.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/example_quickstart
#include <iostream>

#include "core/flow.hpp"
#include "gen/mastrovito.hpp"
#include "gf2m/field.hpp"
#include "util/error.hpp"
#include "util/options.hpp"

int main() {
  using namespace gfre;

  // 1. Construct the field GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1.
  const gf2::Poly aes{8, 4, 3, 1, 0};
  const gf2m::Field field(aes);
  std::cout << "Field: " << field.to_string() << "\n";

  // 2. Generate a flattened gate-level Mastrovito multiplier.  In a real
  //    reverse-engineering setting this netlist would come from
  //    nl::read_eqn_file / read_blif_file / read_verilog_file instead.
  const nl::Netlist netlist = gen::generate_mastrovito(field);
  std::cout << "Netlist: " << netlist.num_equations() << " equations, depth "
            << netlist.depth() << "\n\n";

  // 3. Run the reverse-engineering flow: parallel backward rewriting
  //    (Algorithm 1 + Theorem 2), P(x) recovery (Algorithm 2 + Theorem 3),
  //    reduction-matrix validation, and the golden-model check.
  core::FlowOptions options;
  try {
    options.threads = static_cast<unsigned>(configured_threads());
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const core::FlowReport report = core::reverse_engineer(netlist, options);

  std::cout << report.summary() << "\n";
  return report.success && report.recovery.p == aes ? 0 : 1;
}
