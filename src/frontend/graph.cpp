#include "frontend/graph.hpp"

#include "util/error.hpp"

namespace gfre::frontend {

namespace {
constexpr std::uint32_t kNone = util::NameTable::kNone;
}  // namespace

GraphBuilder::GraphBuilder(std::string model_name,
                           std::vector<std::string> files)
    : model_name_(std::move(model_name)), files_(std::move(files)) {}

GraphBuilder::Id GraphBuilder::intern(std::string_view name) {
  const auto [id, added] = names_.intern(name);
  if (added) {
    node_of_.push_back(kNone);
    is_input_.push_back(0);
  }
  return id;
}

void GraphBuilder::reserve(std::size_t names, std::size_t nodes,
                           std::size_t args) {
  names_.reserve(names);
  node_of_.reserve(names);
  is_input_.reserve(names);
  nodes_.reserve(nodes);
  arg_ids_.reserve(args);
}

void GraphBuilder::fail_at(const Pos& pos, const std::string& msg) const {
  frontend::fail_at(Loc{files_[pos.file], pos.line, pos.column}, msg);
}

void GraphBuilder::add_input(Id id, const Pos& pos) {
  if (is_input_[id])
    fail_at(pos, "input '" + names_.name(id) + "' declared twice");
  if (node_of_[id] != kNone)
    fail_at(pos, "input '" + names_.name(id) + "' is also driven");
  is_input_[id] = 1;
  inputs_.emplace_back(id, pos);
}

void GraphBuilder::add_output(Id id, const Pos& pos) {
  outputs_.emplace_back(id, pos);
}

void GraphBuilder::begin_node(Id id, const Pos& pos, EmitFn emit) {
  if (node_of_[id] != kNone)
    fail_at(pos, "net '" + names_.name(id) + "' defined twice");
  if (is_input_[id])
    fail_at(pos, "input '" + names_.name(id) + "' is also driven");
  node_of_[id] = static_cast<std::uint32_t>(nodes_.size());
  const auto begin = static_cast<std::uint32_t>(arg_ids_.size());
  nodes_.push_back(Node{id, begin, begin, pos, std::move(emit)});
}

void GraphBuilder::add_node(Id output, std::span<const Id> args,
                            const Pos& pos, EmitFn emit) {
  begin_node(output, pos, std::move(emit));
  arg_ids_.insert(arg_ids_.end(), args.begin(), args.end());
  nodes_.back().args_end = static_cast<std::uint32_t>(arg_ids_.size());
}

void GraphBuilder::add_node(std::string_view output,
                            std::span<const std::string_view> args,
                            const Pos& pos, EmitFn emit) {
  begin_node(intern(output), pos, std::move(emit));
  for (const std::string_view arg : args) arg_ids_.push_back(intern(arg));
  nodes_.back().args_end = static_cast<std::uint32_t>(arg_ids_.size());
}

void GraphBuilder::add_node(std::string_view output,
                            std::span<const std::string> args, const Pos& pos,
                            EmitFn emit) {
  begin_node(intern(output), pos, std::move(emit));
  for (const std::string& arg : args) arg_ids_.push_back(intern(arg));
  nodes_.back().args_end = static_cast<std::uint32_t>(arg_ids_.size());
}

void GraphBuilder::instantiate(nl::Netlist& netlist) {
  // Iterative DFS from each node in insertion order: frame = (node index,
  // next argument to resolve).  Deep XOR chains in crypto-scale netlists
  // overflow the call stack otherwise.
  struct Frame {
    std::size_t node;
    std::uint32_t next_arg;
  };
  std::vector<Frame> stack;
  std::vector<nl::Var> args;
  for (std::size_t root = 0; root < nodes_.size(); ++root) {
    if (nodes_[root].state == 2) continue;
    stack.push_back({root, nodes_[root].args_begin});
    nodes_[root].state = 1;
    while (!stack.empty()) {
      Frame& fr = stack.back();
      Node& node = nodes_[fr.node];
      bool descended = false;
      while (fr.next_arg < node.args_end) {
        const Id arg = arg_ids_[fr.next_arg++];
        const std::uint32_t dep_idx = node_of_[arg];
        if (dep_idx == kNone) {
          if (is_input_[arg]) continue;  // inputs pre-created
          fail_at(node.pos, "undefined net '" + names_.name(arg) + "'");
        }
        Node& dep = nodes_[dep_idx];
        if (dep.state == 2) continue;
        if (dep.state == 1)
          fail_at(node.pos,
                  "combinational cycle through '" + names_.name(arg) + "'");
        dep.state = 1;
        stack.push_back({dep_idx, dep.args_begin});
        descended = true;
        break;
      }
      if (descended) continue;
      // All args resolved: emit this node's gates.
      args.clear();
      for (std::uint32_t i = node.args_begin; i < node.args_end; ++i)
        args.push_back(var_of_[arg_ids_[i]]);
      const std::string& output = names_.name(node.output);
      node.emit(netlist, args, output);
      // The named net is almost always the last one created.
      const auto last = static_cast<nl::Var>(netlist.num_vars() - 1);
      if (netlist.num_vars() > 0 && netlist.var_name(last) == output) {
        var_of_[node.output] = last;
      } else {
        const auto v = netlist.find_var(output);
        GFRE_ASSERT(v.has_value(), "frontend node for '"
                                       << output
                                       << "' did not create its net");
        var_of_[node.output] = *v;
      }
      node.state = 2;
      stack.pop_back();
    }
  }
}

nl::Netlist GraphBuilder::build() {
  nl::Netlist netlist(model_name_);
  // Reserve every node output so auto-generated helper names never take a
  // declared one, regardless of instantiation order.
  for (const Node& node : nodes_) netlist.reserve_name(names_.name(node.output));
  var_of_.assign(names_.size(), 0);
  for (const auto& [id, pos] : inputs_)
    var_of_[id] = netlist.add_input(names_.name(id));
  instantiate(netlist);
  for (const auto& [id, pos] : outputs_) {
    if (!is_input_[id] && node_of_[id] == kNone)
      fail_at(pos, "undriven output '" + names_.name(id) + "'");
    netlist.mark_output(var_of_[id]);
  }
  netlist.validate();
  return netlist;
}

}  // namespace gfre::frontend
