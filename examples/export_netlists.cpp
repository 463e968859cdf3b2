// Netlist exporter — generates benchmark circuits for external tools.
//
// Writes a multiplier netlist in all three supported formats (.eqn, .blif,
// structural .v), optionally synthesized/tech-mapped first.  This is how a
// user would produce inputs for ABC, Yosys or the paper's own tool chain,
// and how the regression corpus under test was created.
//
//   export_netlists [m] [outdir]
//     m       field size, 2..1024 (default 16; uses the paper polynomial
//             when the width is in the catalog, else the NIST-convention
//             default)
//     outdir  output directory (default ".")
//
//   export_netlists --frontend-fixtures [m] [outdir] [cells.lib]
//     Regenerates the frozen frontend fixtures: a cell-mapped Mastrovito
//     multiplier rewritten onto the complex cells of the given library
//     (default data/frontend/cells_basic.lib), written both flat
//     (mastrovito_hier_m<m>_flat.eqn) and as hierarchical structural
//     Verilog (mastrovito_hier_m<m>.v + `include'd _cells.vh).  The two
//     forms parse into bit-identical netlists — tests/test_frontend.cpp
//     and the CI frontend smoke diff their flow reports.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>

#include "frontend/cell_library.hpp"
#include "frontend/emit_hier.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/catalog.hpp"
#include "gf2poly/irreducible.hpp"
#include "netlist/io_blif.hpp"
#include "netlist/io_eqn.hpp"
#include "netlist/io_verilog.hpp"
#include "opt/passes.hpp"
#include "util/error.hpp"
#include "util/options.hpp"

namespace {

/// Rewrites AND2/XOR2 gates onto the complex-cell repertoire
/// (AOI/OAI/MAJ3/MUX plus tie cells) without changing function or
/// topological order — the fixture generator's way of making a netlist
/// that genuinely needs a cell library to parse.  Deterministic: the k-th
/// AND2 (or XOR2) always picks the same form.
gfre::nl::Netlist complexify(const gfre::nl::Netlist& src) {
  using gfre::nl::CellType;
  using gfre::nl::Var;
  gfre::nl::Netlist out(src.name() + "_cells");
  std::vector<Var> map(src.num_vars());
  for (Var v : src.inputs()) map[v] = out.add_input(src.var_name(v));
  const Var tie0 = out.add_gate(CellType::Const0, {}, "tie0");
  const Var tie1 = out.add_gate(CellType::Const1, {}, "tie1");
  std::size_t and_k = 0, xor_k = 0, helper = 0;
  const auto fresh = [&] { return "cx" + std::to_string(helper++); };
  for (const gfre::nl::Gate& gate : src.gates()) {
    std::vector<Var> in;
    in.reserve(gate.inputs.size());
    for (Var v : gate.inputs) in.push_back(map[v]);
    const std::string name = src.var_name(gate.output);
    Var mapped;
    if (gate.type == CellType::And && in.size() == 2) {
      switch (and_k++ % 5) {
        case 0:  // a&b = !AOI21(a, b, 0)
          mapped = out.add_gate(
              CellType::Inv,
              {out.add_gate(CellType::Aoi21, {in[0], in[1], tie0}, fresh())},
              name);
          break;
        case 1:  // a&b = !OAI21(a, 0, b)  (= !!((a|0) & b))
          mapped = out.add_gate(
              CellType::Inv,
              {out.add_gate(CellType::Oai21, {in[0], tie0, in[1]}, fresh())},
              name);
          break;
        case 2:  // a&b = MAJ3(a, b, 0)
          mapped = out.add_gate(CellType::Maj3, {in[0], in[1], tie0}, name);
          break;
        case 3:  // a&b = !AOI22(a, b, 0, 1)
          mapped = out.add_gate(CellType::Inv,
                                {out.add_gate(CellType::Aoi22,
                                              {in[0], in[1], tie0, tie1},
                                              fresh())},
                                name);
          break;
        default:  // a&b = !OAI22(a, 0, b, 0)
          mapped = out.add_gate(CellType::Inv,
                                {out.add_gate(CellType::Oai22,
                                              {in[0], tie0, in[1], tie0},
                                              fresh())},
                                name);
          break;
      }
    } else if (gate.type == CellType::Xor && in.size() == 2) {
      switch (xor_k++ % 3) {
        case 0:  // a^b = MUX(a, b, !b)
          mapped = out.add_gate(
              CellType::Mux,
              {in[0], in[1],
               out.add_gate(CellType::Inv, {in[1]}, fresh())},
              name);
          break;
        case 1:  // a^b = XNOR(a, !b)
          mapped = out.add_gate(
              CellType::Xnor,
              {in[0], out.add_gate(CellType::Inv, {in[1]}, fresh())}, name);
          break;
        default:
          mapped = out.add_gate(gate.type, std::move(in), name);
          break;
      }
    } else {
      mapped = out.add_gate(gate.type, std::move(in), name);
    }
    map[gate.output] = mapped;
  }
  for (Var v : src.outputs()) out.mark_output(map[v]);
  return out;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
}

int write_frontend_fixtures(unsigned m, const std::string& outdir,
                            const std::string& library_path) {
  using namespace gfre;
  const gf2::Poly p = gf2::has_paper_polynomial(m)
                          ? gf2::paper_polynomial(m).p
                          : gf2::default_irreducible(m);
  const gf2m::Field field(p);
  std::cout << "field: " << field.to_string() << "\n";

  const nl::Netlist flat = complexify(gen::generate_mastrovito(field));
  const std::string stem =
      outdir + "/mastrovito_hier_m" + std::to_string(m);
  nl::write_eqn_file(flat, stem + "_flat.eqn");
  std::cout << "wrote " << stem << "_flat.eqn  (" << flat.num_equations()
            << " equations)\n";

  frontend::HierEmitOptions options;
  options.chunks = 4;
  options.top_name = "mastrovito_hier_m" + std::to_string(m);
  options.include_file =
      "mastrovito_hier_m" + std::to_string(m) + "_cells.vh";
  options.library = std::make_shared<const frontend::CellLibrary>(
      frontend::load_cell_library_file(library_path));
  const frontend::HierEmitResult emitted =
      frontend::emit_hier_verilog(flat, options);
  write_text_file(stem + ".v", emitted.top);
  write_text_file(stem + "_cells.vh", emitted.included);
  std::cout << "wrote " << stem << ".v + " << stem << "_cells.vh  (library "
            << library_path << ")\n";
  return 0;
}

void usage(std::ostream& os) {
  os << "usage: export_netlists [m] [outdir]\n"
     << "       export_netlists --frontend-fixtures [m] [outdir] "
        "[cells.lib]\n"
     << "       export_netlists --help\n"
     << "  m          field size, 2..1024 (default 16)\n"
     << "  outdir     output directory (default .)\n"
     << "  cells.lib  library for the fixtures (default "
        "data/frontend/cells_basic.lib)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gfre;

  if (argc > 1 && std::string(argv[1]) == "--help") {
    usage(std::cout);
    return 0;
  }
  const bool fixtures =
      argc > 1 && std::string(argv[1]) == "--frontend-fixtures";
  const int first = fixtures ? 2 : 1;  // index of the m argument
  if (argc > first + (fixtures ? 3 : 2)) {
    std::cerr << "error: too many arguments\n";
    usage(std::cerr);
    return 2;
  }
  unsigned m = 16;
  try {
    if (argc > first)
      m = static_cast<unsigned>(parse_uint("m", argv[first], 2, 1024));
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }
  const std::string outdir = argc > first + 1 ? argv[first + 1] : ".";
  if (fixtures) {
    return write_frontend_fixtures(
        m, outdir,
        argc > first + 2 ? argv[first + 2] : "data/frontend/cells_basic.lib");
  }

  const gf2::Poly p = gf2::has_paper_polynomial(m)
                          ? gf2::paper_polynomial(m).p
                          : gf2::default_irreducible(m);
  const gf2m::Field field(p);
  std::cout << "field: " << field.to_string() << "\n";

  struct Job {
    std::string name;
    nl::Netlist netlist;
  };
  std::vector<Job> jobs;
  jobs.push_back({"mastrovito", gen::generate_mastrovito(field)});
  {
    gen::MastrovitoOptions options;
    options.style = gen::MastrovitoOptions::Style::Matrix;
    jobs.push_back({"mastrovito_matrix",
                    gen::generate_mastrovito(field, options)});
  }
  jobs.push_back({"montgomery", gen::generate_montgomery(field)});
  jobs.push_back({"karatsuba", gen::generate_karatsuba(field)});
  jobs.push_back({"shiftadd", gen::generate_shift_add(field)});
  jobs.push_back({"mastrovito_syn",
                  opt::synthesize(gen::generate_mastrovito(field))});
  {
    opt::SynthesisOptions options;
    options.run_tech_map = true;
    jobs.push_back(
        {"mastrovito_mapped",
         opt::synthesize(gen::generate_mastrovito(field), options)});
  }

  for (const auto& job : jobs) {
    const std::string base =
        outdir + "/" + job.name + "_m" + std::to_string(m);
    nl::write_eqn_file(job.netlist, base + ".eqn");
    nl::write_blif_file(job.netlist, base + ".blif");
    nl::write_verilog_file(job.netlist, base + ".v");
    std::cout << "wrote " << base << ".{eqn,blif,v}  ("
              << job.netlist.num_equations() << " equations)\n";
  }
  std::cout << "\nanalyze any of them with:\n  reverse_engineer <file>\n";
  return 0;
}
