// Gate-level netlist graph.
//
// A netlist is a DAG of cells over named Boolean nets.  Every net is an
// anf::Var, so netlist signals and rewriting variables share one id space —
// backward rewriting (core) substitutes gate outputs without any mapping
// layer.  Gates are stored in creation order; topological order is computed
// on demand (parsers may interleave declarations).
//
// The number of gates is the paper's "#eqns" column: one algebraic equation
// per gate.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "anf/monomial.hpp"
#include "netlist/cell.hpp"
#include "util/name_table.hpp"

namespace gfre::nl {

using anf::Var;

/// One gate instance: a cell driving one output net.
struct Gate {
  CellType type;
  Var output;
  std::vector<Var> inputs;
};

/// Gate-level combinational netlist.
class Netlist {
 public:
  explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // -- Construction -------------------------------------------------------

  /// Declares a primary input net.  Names must be unique.
  Var add_input(const std::string& name);

  /// Creates a gate; returns its output net.  An empty name auto-generates
  /// one ("n<id>").  Inputs must already exist.
  Var add_gate(CellType type, std::vector<Var> inputs,
               const std::string& name = "");

  /// Marks an existing net as a primary output (order is significant: for a
  /// multiplier, outputs are z0..z{m-1} in bit order).
  void mark_output(Var v);

  /// Reserves a name so auto-generated names never take it.  Used by
  /// rebuilding passes (output names must survive) and parsers (declared
  /// names may appear after intermediate gates are synthesized).  Only
  /// names of the auto shape "n<digits>" can collide, so only those are
  /// kept.
  void reserve_name(std::string_view name);

  // -- Interrogation ------------------------------------------------------

  std::size_t num_vars() const { return names_.size(); }
  std::size_t num_gates() const { return gates_.size(); }
  /// One equation per gate — the paper's "#eqns" metric.
  std::size_t num_equations() const { return gates_.size(); }

  const std::vector<Gate>& gates() const { return gates_; }
  const Gate& gate(std::size_t idx) const { return gates_[idx]; }
  const std::vector<Var>& inputs() const { return inputs_; }
  const std::vector<Var>& outputs() const { return outputs_; }

  const std::string& var_name(Var v) const;
  bool is_input(Var v) const;

  /// Gate index driving net v, or nullopt for primary inputs.
  std::optional<std::size_t> driver(Var v) const;

  /// Net id by name, or nullopt.
  std::optional<Var> find_var(const std::string& name) const;

  // -- Structure ----------------------------------------------------------

  /// Gate indices in topological order (inputs before users).
  /// Throws Error on combinational cycles.
  std::vector<std::size_t> topological_order() const;

  /// Gate indices in the transitive fanin cone of `root`, topologically
  /// ordered.  This is the per-output-bit logic cone of Theorem 2.
  ///
  /// Cost: one whole-netlist index build on first use (cached until the
  /// netlist is mutated), then a bitmap sweep per call that skips empty
  /// 64-gate words.  Crypto-size multipliers call this once per output
  /// bit; their cones are small next to the netlist (an average of 2,852
  /// of 653,814 gates for Mastrovito at m=571).
  std::vector<std::size_t> fanin_cone(Var root) const;

  /// Primary inputs feeding the cone of `root`.
  std::vector<Var> cone_inputs(Var root) const;

  /// Logic depth (longest path, in gates).
  unsigned depth() const;

  /// Per-cell-type gate counts.
  std::unordered_map<CellType, std::size_t> cell_histogram() const;

  /// Total XOR/XNOR two-input-equivalent operations: an n-ary XOR counts as
  /// n-1.  Used for the Figure 1 style cost comparisons on real netlists.
  std::size_t xor2_equivalent_count() const;

  /// Structural sanity: unique drivers, defined inputs, acyclic, declared
  /// outputs exist.  Throws Error with a diagnostic on violation.
  void validate() const;

 private:
  Var new_var(std::string_view name, bool is_input);

  /// Tri-color DFS from one gate, appending reachable gates to `order` in
  /// topological order; backs topological_order().
  void topo_dfs(std::size_t root_gate, std::vector<unsigned char>& mark,
                std::vector<std::size_t>& order) const;

  /// Whole-netlist structure shared by every fanin_cone() call: the global
  /// topological order plus a flattened gate -> driver-gate adjacency, both
  /// expressed in topological *positions* so the per-cone reachability
  /// sweep is one backward pass over a dense bitmap.  Built lazily under
  /// cone_index_mutex_ and dropped on mutation; callers hold a shared_ptr
  /// so concurrent extraction threads never race a rebuild.
  struct ConeIndex {
    std::vector<std::size_t> topo;         ///< topo[pos] = gate index
    std::vector<std::uint32_t> pos_of;     ///< gate index -> topo position
    std::vector<std::uint32_t> fanin_off;  ///< per position: fanin_pos range
    std::vector<std::uint32_t> fanin_pos;  ///< driver gates, as positions
  };
  /// Cache cell for the lazily-built index.  Copying or moving a Netlist
  /// must not share (or steal) the cache — copies simply start cold, which
  /// also keeps Netlist's value semantics despite the mutex inside.
  struct ConeIndexCache {
    std::mutex mutex;
    std::shared_ptr<const ConeIndex> index;
    ConeIndexCache() = default;
    ConeIndexCache(const ConeIndexCache&) noexcept {}
    ConeIndexCache(ConeIndexCache&&) noexcept {}
    ConeIndexCache& operator=(const ConeIndexCache&) noexcept {
      index.reset();
      return *this;
    }
    ConeIndexCache& operator=(ConeIndexCache&&) noexcept {
      index.reset();
      return *this;
    }
  };
  std::shared_ptr<const ConeIndex> cone_index() const;
  void invalidate_cone_index();

  std::string name_;
  std::size_t next_auto_name_ = 0;
  /// k for every reserved name "n<k>" (the only ones auto names can hit).
  std::unordered_set<std::size_t> reserved_auto_;
  /// Net names; the id of a name is its Var.
  util::NameTable names_;
  std::vector<bool> var_is_input_;
  // driver_[v] = gate index + 1, or 0 when v is an input.
  std::vector<std::size_t> driver_;
  std::vector<Gate> gates_;
  std::vector<Var> inputs_;
  std::vector<Var> outputs_;
  mutable ConeIndexCache cone_cache_;
};

/// Adds gates computing the function whose ANF (mobius_transform) is
/// `anf` over `inputs`, at most kMaxTableInputs of them: an AND per
/// monomial of degree two or more, then one XOR over the monomials —
/// XNOR when the constant term is 1, with XORs of at most kMaxAndArity
/// monomials below it when there are more.  The root gate drives
/// `output` (empty = auto-named); returns its net.
Var add_anf_gates(Netlist& netlist, const TruthTable& anf,
                  std::span<const Var> inputs, const std::string& output);

/// Adds the gates of the function with truth table `table` over `inputs`:
/// one builtin cell when match_truth_table finds one, add_anf_gates
/// otherwise.  Returns the net driving `output`.
Var add_truth_table_gates(Netlist& netlist, const TruthTable& table,
                          std::span<const Var> inputs,
                          const std::string& output);

}  // namespace gfre::nl
