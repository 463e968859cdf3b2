#include "core/permutation.hpp"

#include "core/poly_extract.hpp"

namespace gfre::core {

std::optional<std::vector<unsigned>> recover_output_order(
    const std::vector<anf::Anf>& anfs, const nl::MultiplierPorts& ports) {
  const unsigned m = ports.m();
  const ProductMatrix matrix = product_matrix(anfs, ports);
  // A split in-field set is not a clean product structure.
  if (matrix.first_split && matrix.first_split->k < m) return std::nullopt;

  // The in-field rows k < m must form a permutation matrix: S_k is held by
  // exactly one output, and no output holds two of them.
  std::vector<unsigned> order(m);  // order[bit] = anf index
  gf2::Poly claimed;  // sum of the rows: weight m iff no output repeats
  for (unsigned k = 0; k < m; ++k) {
    const gf2::Poly& row = matrix.rows[k];
    if (row.weight() != 1) return std::nullopt;  // no claim, or two
    order[k] = static_cast<unsigned>(row.degree());
    claimed += row;
  }
  if (claimed.weight() != m) return std::nullopt;
  return order;
}

}  // namespace gfre::core
