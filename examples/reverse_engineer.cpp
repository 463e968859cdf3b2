// Command-line reverse-engineering tool — the deliverable a user would
// actually run on an unknown netlist:
//
//   reverse_engineer [options] <netlist.{eqn,blif,v}>
//   reverse_engineer --demo           (generate + analyze a sample)
//
// Options:
//   --threads N        extraction threads (default: hardware)
//   --ports a,b,z      operand/result port base names (default a,b,z)
//   --strategy NAME    rewriting backend: packed (default), indexed
//   --library FILE     cell library (.lib subset) resolving non-builtin cells
//   --no-verify        skip the golden-model comparison
//   --trace BIT        print the Algorithm-1 trace of one output bit
//
// Exit code 0 iff a GF(2^m) multiplier was recognized, its P(x) is
// irreducible, and all checks passed.
#include <cstring>
#include <iostream>
#include <string>

#include "core/batch.hpp"
#include "core/flow.hpp"
#include "core/rewriter.hpp"
#include "gen/mastrovito.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "util/error.hpp"
#include "util/options.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: reverse_engineer [--threads N] [--ports a,b,z]\n"
      << "                        [--strategy packed|indexed]\n"
      << "                        [--library cells.lib]\n"
      << "                        [--no-verify] [--trace BIT]\n"
      << "                        <netlist.eqn|netlist.blif|netlist.v>\n"
      << "       reverse_engineer --demo\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gfre;

  std::string path;
  core::FlowOptions options;
  options.threads = static_cast<unsigned>(configured_threads());
  bool demo = false;
  long trace_bit = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--strategy" && i + 1 < argc) {
      const auto strategy = core::strategy_from_name(argv[++i]);
      if (!strategy.has_value()) {
        std::cerr << "unknown strategy '" << argv[i] << "'\n";
        usage();
        return 2;
      }
      options.strategy = *strategy;
    } else if (arg == "--no-verify") {
      options.verify_with_golden = false;
    } else if (arg == "--library" && i + 1 < argc) {
      options.library = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_bit = std::stol(argv[++i]);
    } else if (arg == "--ports" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const auto c1 = spec.find(',');
      const auto c2 = spec.find(',', c1 + 1);
      if (c1 == std::string::npos || c2 == std::string::npos) {
        usage();
        return 2;
      }
      options.a_base = spec.substr(0, c1);
      options.b_base = spec.substr(c1 + 1, c2 - c1 - 1);
      options.z_base = spec.substr(c2 + 1);
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
      return 2;
    } else {
      path = arg;
    }
  }

  try {
    nl::Netlist netlist("demo");
    if (demo) {
      // A realistic demo: the NIST K-233 field, flattened Mastrovito.
      const gf2m::Field field(gf2::Poly{233, 74, 0});
      std::cout << "demo mode: generating a flattened Mastrovito multiplier "
                << "over " << field.to_string() << "\n";
      netlist = gen::generate_mastrovito(field);
    } else if (path.empty()) {
      usage();
      return 2;
    } else {
      netlist = core::load_netlist_file(path, options.library);
      std::cout << "loaded '" << path << "': " << netlist.num_equations()
                << " equations, " << netlist.inputs().size() << " inputs, "
                << netlist.outputs().size() << " outputs\n";
    }

    if (trace_bit >= 0) {
      const auto v = netlist.find_var(options.z_base +
                                      std::to_string(trace_bit));
      if (!v.has_value()) {
        std::cerr << "no output net " << options.z_base << trace_bit << "\n";
        return 2;
      }
      core::RewriteOptions rewrite_options;
      rewrite_options.strategy = options.strategy;
      rewrite_options.trace = &std::cout;
      std::cout << "--- Algorithm 1 trace of bit " << trace_bit << " ---\n";
      (void)core::extract_output_anf(netlist, *v, rewrite_options);
      std::cout << "\n";
    }

    const auto report = core::reverse_engineer(netlist, options);
    std::cout << report.summary();
    return report.success ? 0 : 1;
  } catch (const gfre::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
