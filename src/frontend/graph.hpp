// Name-level netlist construction shared by every frontend.
//
// Parsers collect abstract nodes — "net <output> is computed from nets
// <args> by <emit>" — in source order, plus declared inputs and outputs.
// build() then instantiates a Netlist by depth-first dependency traversal,
// so statements may appear in any order and every structural diagnostic
// (undefined net, double definition, combinational cycle, driven input,
// undriven output) is produced by one implementation with the source
// location of the offending statement.
//
// Every source name is interned once, when it is added, into one
// util::NameTable; nodes, inputs and outputs hold ids from then on.
// build() resolves arguments through dense per-id vectors (driving node,
// declared-input flag, created net), so it does no string lookup per
// argument.  A name is defined only by a declared input or a node output:
// helper nets an emit callback auto-names never satisfy a source
// reference, whatever their name.
//
// The traversal visits nodes in insertion order and resolves each node's
// args first, which means a file whose statements are already in
// topological order instantiates gates exactly in file order — the
// property the hierarchical-vs-flat differential tests lean on.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "frontend/source.hpp"
#include "netlist/netlist.hpp"
#include "util/name_table.hpp"

namespace gfre::frontend {

/// Emits the gate(s) computing one node.  `args` are the resolved nets for
/// the node's argument names, in order.  The callback must create a net
/// named exactly `output`, the node's output name (the builder reserves
/// the name beforehand and asserts afterwards).  It may create auxiliary
/// auto-named gates.
using EmitFn = std::function<void(
    nl::Netlist&, const std::vector<nl::Var>& args, const std::string& output)>;

class GraphBuilder {
 public:
  GraphBuilder(std::string model_name, std::string file);

  /// Declares a primary input (declaration order = Var id order).
  void add_input(std::string_view name, const Loc& loc);

  /// Declares a primary output (order significant).
  void add_output(std::string_view name, const Loc& loc);

  /// Adds a combinational node driving `output` from `args`.
  void add_node(std::string_view output, std::span<const std::string_view> args,
                const Loc& loc, EmitFn emit);
  void add_node(std::string_view output, std::span<const std::string> args,
                const Loc& loc, EmitFn emit);

  /// Instantiates the netlist; throws ParseError on structural problems.
  nl::Netlist build();

 private:
  using Id = util::NameTable::Id;

  /// A Loc with its file held as an index into files_: a crypto-size
  /// netlist has over 100k nodes, and a Loc per node would copy the file
  /// name into each.
  struct Site {
    std::uint32_t file;
    int line;
    int column;
  };

  struct Node {
    Id output;
    std::uint32_t args_begin;  ///< [args_begin, args_end) in arg_ids_
    std::uint32_t args_end;
    Site site;
    EmitFn emit;
    unsigned char state = 0;  // 0 unvisited, 1 visiting, 2 done
  };

  /// Interns `name`, growing the per-id vectors alongside the table.
  Id intern(std::string_view name);
  Site site_of(const Loc& loc);
  Loc loc_of(const Site& site) const;
  /// Checks and registers the node output; its args follow in arg_ids_.
  void begin_node(std::string_view output, const Loc& loc, EmitFn emit);
  /// Emits every node, each after the nodes its args name.
  void instantiate(nl::Netlist& netlist);

  std::string model_name_;
  std::vector<std::string> files_;
  util::NameTable names_;
  std::vector<std::uint32_t> node_of_;    ///< per id: driving node or kNone
  std::vector<unsigned char> is_input_;   ///< per id: declared input
  std::vector<nl::Var> var_of_;           ///< per id: net, during build()
  std::vector<std::pair<Id, Site>> inputs_;
  std::vector<std::pair<Id, Site>> outputs_;
  std::vector<Node> nodes_;
  std::vector<Id> arg_ids_;
};

}  // namespace gfre::frontend
