// Name-level netlist construction shared by every frontend.
//
// Parsers collect abstract nodes — "net <output> is computed from nets
// <args> by <emit>" — in source order, plus declared inputs and outputs.
// build() then instantiates a Netlist by depth-first dependency traversal,
// so statements may appear in any order and every structural diagnostic
// (undefined net, double definition, combinational cycle, driven input,
// undriven output) is produced by one implementation with the source
// location of the offending statement.  Locations are compact Pos
// values whose file is an index into the builder's file table; the file
// name is looked up only when a diagnostic is thrown.
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
  using Id = util::NameTable::Id;

  /// `files` are the file names a Pos indexes.
  GraphBuilder(std::string model_name, std::vector<std::string> files);

  /// The id of a net name, interned on first sight.  A caller that refers
  /// to one net many times (the Verilog elaborator) interns it once and
  /// passes the id.
  Id intern(std::string_view name);

  /// Declares a primary input (declaration order = Var id order).
  void add_input(Id name, const Pos& pos);
  void add_input(std::string_view name, const Pos& pos) {
    add_input(intern(name), pos);
  }

  /// Declares a primary output (order significant).
  void add_output(Id name, const Pos& pos);
  void add_output(std::string_view name, const Pos& pos) {
    add_output(intern(name), pos);
  }

  /// Adds a combinational node driving `output` from `args`.
  void add_node(Id output, std::span<const Id> args, const Pos& pos,
                EmitFn emit);
  void add_node(std::string_view output, std::span<const std::string_view> args,
                const Pos& pos, EmitFn emit);
  void add_node(std::string_view output, std::span<const std::string> args,
                const Pos& pos, EmitFn emit);

  /// Room for `names` net names and `nodes` nodes with `args` arguments
  /// in all, for a caller that knows its sizes up front.
  void reserve(std::size_t names, std::size_t nodes, std::size_t args);

  /// Instantiates the netlist; throws ParseError on structural problems.
  nl::Netlist build();

 private:
  struct Node {
    Id output;
    std::uint32_t args_begin;  ///< [args_begin, args_end) in arg_ids_
    std::uint32_t args_end;
    Pos pos;
    EmitFn emit;
    unsigned char state = 0;  // 0 unvisited, 1 visiting, 2 done
  };

  [[noreturn]] void fail_at(const Pos& pos, const std::string& msg) const;
  /// Checks and registers the node output; its args follow in arg_ids_.
  void begin_node(Id output, const Pos& pos, EmitFn emit);
  /// Emits every node, each after the nodes its args name.
  void instantiate(nl::Netlist& netlist);

  std::string model_name_;
  std::vector<std::string> files_;
  util::NameTable names_;
  std::vector<std::uint32_t> node_of_;    ///< per id: driving node or kNone
  std::vector<unsigned char> is_input_;   ///< per id: declared input
  std::vector<nl::Var> var_of_;           ///< per id: net, during build()
  std::vector<std::pair<Id, Pos>> inputs_;
  std::vector<std::pair<Id, Pos>> outputs_;
  std::vector<Node> nodes_;
  std::vector<Id> arg_ids_;
};

}  // namespace gfre::frontend
