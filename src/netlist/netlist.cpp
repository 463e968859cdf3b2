#include "netlist/netlist.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace gfre::nl {

namespace {
// Tri-color DFS marks for topo_dfs.
constexpr unsigned char kWhite = 0;
constexpr unsigned char kGrey = 1;
constexpr unsigned char kBlack = 2;

/// k when `name` is "n<k>" exactly as an auto name spells it (no leading
/// zeros, at most 18 digits), else nullopt.
std::optional<std::size_t> auto_name_number(std::string_view name) {
  if (name.size() < 2 || name.size() > 19 || name[0] != 'n')
    return std::nullopt;
  if (name[1] == '0' && name.size() > 2) return std::nullopt;
  std::size_t k = 0;
  for (const char c : name.substr(1)) {
    if (c < '0' || c > '9') return std::nullopt;
    k = 10 * k + static_cast<std::size_t>(c - '0');
  }
  return k;
}

}  // namespace

Var Netlist::new_var(std::string_view name, bool is_input) {
  std::string auto_name;
  if (name.empty()) {
    // Auto names must not collide with explicit or reserved names (e.g. a
    // parsed file whose nets were themselves auto-named "n<k>" by a
    // previous tool, or output names a rebuilding pass will need later).
    std::size_t k;
    do {
      k = next_auto_name_++;
      auto_name = "n" + std::to_string(k);
    } while (reserved_auto_.count(k) != 0 ||
             names_.find(auto_name) != util::NameTable::kNone);
    name = auto_name;
  }
  const auto [v, added] = names_.intern(name);
  GFRE_ASSERT(added, "duplicate net name '" << name << "'");
  var_is_input_.push_back(is_input);
  driver_.push_back(0);
  return v;
}

Var Netlist::add_input(const std::string& name) {
  const Var v = new_var(name, /*is_input=*/true);
  inputs_.push_back(v);
  return v;
}

Var Netlist::add_gate(CellType type, std::vector<Var> inputs,
                      const std::string& name) {
  GFRE_ASSERT(arity_ok(type, inputs.size()),
              "gate " << cell_name(type) << " cannot take " << inputs.size()
                      << " inputs");
  for (Var in : inputs) {
    GFRE_ASSERT(in < num_vars(), "gate input net " << in << " undeclared");
  }
  const Var out = new_var(name, /*is_input=*/false);
  gates_.push_back(Gate{type, out, std::move(inputs)});
  driver_[out] = gates_.size();  // index + 1
  invalidate_cone_index();
  return out;
}

void Netlist::mark_output(Var v) {
  GFRE_ASSERT(v < num_vars(), "output net " << v << " undeclared");
  outputs_.push_back(v);
}

void Netlist::reserve_name(std::string_view name) {
  if (const auto k = auto_name_number(name)) reserved_auto_.insert(*k);
}

const std::string& Netlist::var_name(Var v) const {
  GFRE_ASSERT(v < num_vars(), "net " << v << " undeclared");
  return names_.name(v);
}

bool Netlist::is_input(Var v) const {
  GFRE_ASSERT(v < num_vars(), "net " << v << " undeclared");
  return var_is_input_[v];
}

std::optional<std::size_t> Netlist::driver(Var v) const {
  GFRE_ASSERT(v < num_vars(), "net " << v << " undeclared");
  if (driver_[v] == 0) return std::nullopt;
  return driver_[v] - 1;
}

std::optional<Var> Netlist::find_var(const std::string& name) const {
  const Var v = names_.find(name);
  if (v == util::NameTable::kNone) return std::nullopt;
  return v;
}

void Netlist::topo_dfs(std::size_t root_gate,
                       std::vector<unsigned char>& mark,
                       std::vector<std::size_t>& order) const {
  // Iterative tri-color DFS appending gates reachable from root_gate to
  // `order` in topological order (inputs before users); throws on
  // combinational cycles.  Backs the whole-netlist sort (which in turn
  // backs the cached cone index behind fanin_cone).
  std::vector<std::pair<std::size_t, std::size_t>> stack;  // (gate, next-in)
  mark[root_gate] = kGrey;
  stack.emplace_back(root_gate, 0);
  while (!stack.empty()) {
    auto& [g, next] = stack.back();
    const Gate& gate = gates_[g];
    bool descended = false;
    while (next < gate.inputs.size()) {
      const Var in = gate.inputs[next++];
      const auto drv = driver(in);
      if (!drv.has_value() || mark[*drv] == kBlack) continue;
      if (mark[*drv] == kGrey) {
        throw Error("combinational cycle through net '" + var_name(in) +
                    "' in netlist '" + name_ + "'");
      }
      mark[*drv] = kGrey;
      // emplace_back may reallocate, invalidating g/next/gate — leave the
      // inner loop now and re-bind from stack.back() on the next pass.
      stack.emplace_back(*drv, 0);
      descended = true;
      break;
    }
    if (!descended && next >= gate.inputs.size()) {
      mark[g] = kBlack;
      order.push_back(g);
      stack.pop_back();
    }
  }
}

std::vector<std::size_t> Netlist::topological_order() const {
  std::vector<unsigned char> mark(gates_.size(), kWhite);
  std::vector<std::size_t> order;
  order.reserve(gates_.size());
  for (std::size_t root = 0; root < gates_.size(); ++root) {
    if (mark[root] == kWhite) topo_dfs(root, mark, order);
  }
  return order;
}

std::shared_ptr<const Netlist::ConeIndex> Netlist::cone_index() const {
  std::lock_guard<std::mutex> lock(cone_cache_.mutex);
  if (cone_cache_.index == nullptr) {
    auto index = std::make_shared<ConeIndex>();
    index->topo = topological_order();  // throws on combinational cycles
    index->pos_of.resize(gates_.size());
    for (std::size_t pos = 0; pos < index->topo.size(); ++pos) {
      index->pos_of[index->topo[pos]] = static_cast<std::uint32_t>(pos);
    }
    index->fanin_off.reserve(index->topo.size() + 1);
    for (std::size_t g : index->topo) {
      index->fanin_off.push_back(
          static_cast<std::uint32_t>(index->fanin_pos.size()));
      for (Var in : gates_[g].inputs) {
        if (driver_[in] != 0) {
          index->fanin_pos.push_back(index->pos_of[driver_[in] - 1]);
        }
      }
    }
    index->fanin_off.push_back(
        static_cast<std::uint32_t>(index->fanin_pos.size()));
    cone_cache_.index = std::move(index);
  }
  return cone_cache_.index;
}

void Netlist::invalidate_cone_index() {
  std::lock_guard<std::mutex> lock(cone_cache_.mutex);
  cone_cache_.index.reset();
}

std::vector<std::size_t> Netlist::fanin_cone(Var root) const {
  GFRE_ASSERT(root < num_vars(), "net " << root << " undeclared");
  const auto root_drv = driver(root);
  if (!root_drv.has_value()) return {};
  // Backward reachability sweep over the cached whole-netlist order: mark
  // the root's position in a dense bitmap, walk positions downward (every
  // driver sits at a strictly lower position), and mark each reached
  // gate's drivers.  The pass reads the flattened adjacency in order
  // instead of chasing pointers per bit, and the bitmap replaces a
  // byte-per-gate mark array.
  const auto index = cone_index();
  const std::size_t root_pos = index->pos_of[*root_drv];
  std::vector<std::uint64_t> in_cone((root_pos + 64) / 64, 0);
  in_cone[root_pos >> 6] |= std::uint64_t{1} << (root_pos & 63);
  const std::uint32_t* fanin_off = index->fanin_off.data();
  const std::uint32_t* fanin_pos = index->fanin_pos.data();
  std::size_t count = 0;
  // Sweep word-by-word downward, skipping all-zero words outright — small
  // cones in a large netlist (e.g. Mastrovito output bits) would otherwise
  // crawl position-by-position through vast empty stretches.  A nonzero
  // word is scanned bit-by-bit descending from a register image: marking
  // p's fanin can set bits in the current word (always strictly below p,
  // drivers sit at lower positions), and folding those into the register
  // keeps dense cones free of per-position memory round-trips.  (A
  // count-leading-zeros skip within the word measures slower on dense
  // cones: it chains each bit pick on the previous visit's marks.)
  for (std::size_t w = (root_pos >> 6) + 1; w-- > 0;) {
    std::uint64_t word = in_cone[w];
    if (word == 0) continue;  // all marks for w arrived before the sweep got here
    for (unsigned b = 64; b-- > 0;) {
      if (((word >> b) & 1u) == 0) continue;
      const std::size_t p = (w << 6) | b;
      ++count;
      for (std::uint32_t i = fanin_off[p]; i < fanin_off[p + 1]; ++i) {
        const std::uint32_t q = fanin_pos[i];
        const std::uint64_t bit = std::uint64_t{1} << (q & 63);
        if ((q >> 6) == w) {
          word |= bit;  // below b: the descending scan still reaches it
        } else {
          in_cone[q >> 6] |= bit;
        }
      }
    }
    in_cone[w] = word;
  }
  // Emit in increasing position: a restriction of a topological order is
  // a topological order of the cone.
  std::vector<std::size_t> cone;
  cone.reserve(count);
  for (std::size_t w = 0; w < in_cone.size(); ++w) {
    std::uint64_t bits = in_cone[w];
    while (bits != 0) {
      const std::size_t p =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      cone.push_back(index->topo[p]);
    }
  }
  return cone;
}

std::vector<Var> Netlist::cone_inputs(Var root) const {
  std::vector<bool> seen(num_vars(), false);
  std::vector<Var> result;
  std::vector<Var> work{root};
  while (!work.empty()) {
    const Var v = work.back();
    work.pop_back();
    if (seen[v]) continue;
    seen[v] = true;
    const auto drv = driver(v);
    if (!drv.has_value()) {
      if (var_is_input_[v]) result.push_back(v);
      continue;
    }
    for (Var in : gates_[*drv].inputs) work.push_back(in);
  }
  std::sort(result.begin(), result.end());
  return result;
}

unsigned Netlist::depth() const {
  std::vector<unsigned> level(num_vars(), 0);
  unsigned max_level = 0;
  for (std::size_t g : topological_order()) {
    const Gate& gate = gates_[g];
    unsigned lvl = 0;
    for (Var in : gate.inputs) lvl = std::max(lvl, level[in]);
    level[gate.output] = lvl + 1;
    max_level = std::max(max_level, lvl + 1);
  }
  return max_level;
}

std::unordered_map<CellType, std::size_t> Netlist::cell_histogram() const {
  std::unordered_map<CellType, std::size_t> histogram;
  for (const Gate& g : gates_) ++histogram[g.type];
  return histogram;
}

std::size_t Netlist::xor2_equivalent_count() const {
  std::size_t count = 0;
  for (const Gate& g : gates_) {
    if (g.type == CellType::Xor || g.type == CellType::Xnor) {
      count += g.inputs.size() - 1;
    }
  }
  return count;
}

void Netlist::validate() const {
  for (const Gate& g : gates_) {
    GFRE_ASSERT(arity_ok(g.type, g.inputs.size()),
                "gate on net '" << var_name(g.output) << "' has bad arity");
    GFRE_ASSERT(!var_is_input_[g.output],
                "net '" << var_name(g.output) << "' is both input and driven");
  }
  for (Var out : outputs_) {
    GFRE_ASSERT(out < num_vars(), "undeclared output net " << out);
  }
  // Every non-input net must have a driver; cycle check via topo sort.
  for (Var v = 0; v < num_vars(); ++v) {
    if (!var_is_input_[v] && driver_[v] == 0) {
      throw Error("net '" + names_.name(v) + "' has no driver in netlist '" +
                  name_ + "'");
    }
  }
  (void)topological_order();
}

Var add_anf_gates(Netlist& netlist, const TruthTable& anf,
                  std::span<const Var> inputs, const std::string& output) {
  const std::size_t n = inputs.size();
  GFRE_ASSERT(n <= kMaxTableInputs, "ANF over " << n << " inputs");
  std::vector<Var> terms;
  for (std::size_t row = 1; row < (std::size_t{1} << n); ++row) {
    if (((anf[row / 64] >> (row % 64)) & 1) == 0) continue;
    std::vector<Var> literals;
    for (std::size_t i = 0; i < n; ++i) {
      if ((row >> i) & 1) literals.push_back(inputs[i]);
    }
    terms.push_back(literals.size() == 1
                        ? literals[0]
                        : netlist.add_gate(CellType::And, std::move(literals)));
  }
  while (terms.size() > kMaxAndArity) {
    std::vector<Var> chunks;
    for (std::size_t i = 0; i < terms.size(); i += kMaxAndArity) {
      std::vector<Var> chunk(
          terms.begin() + i,
          terms.begin() + std::min(terms.size(), i + kMaxAndArity));
      chunks.push_back(chunk.size() == 1
                           ? chunk[0]
                           : netlist.add_gate(CellType::Xor, std::move(chunk)));
    }
    terms = std::move(chunks);
  }
  const bool one = anf[0] & 1;
  switch (terms.size()) {
    case 0:
      return netlist.add_gate(one ? CellType::Const1 : CellType::Const0, {},
                              output);
    case 1:
      return netlist.add_gate(one ? CellType::Inv : CellType::Buf, terms,
                              output);
    default:
      return netlist.add_gate(one ? CellType::Xnor : CellType::Xor,
                              std::move(terms), output);
  }
}

Var add_truth_table_gates(Netlist& netlist, const TruthTable& table,
                          std::span<const Var> inputs,
                          const std::string& output) {
  if (const auto type = match_truth_table(table, inputs.size())) {
    return netlist.add_gate(*type, std::vector<Var>(inputs.begin(),
                                                    inputs.end()),
                            output);
  }
  return add_anf_gates(netlist, mobius_transform(table, inputs.size()),
                       inputs, output);
}

}  // namespace gfre::nl
