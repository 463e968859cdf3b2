#include "core/poly_extract.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace gfre::core {

using anf::Anf;
using anf::Monomial;
using anf::Var;

std::vector<Monomial> product_set(const nl::MultiplierPorts& ports,
                                  unsigned k) {
  const unsigned m = ports.m();
  GFRE_ASSERT(k <= 2 * m - 2, "product set index " << k << " out of range");
  std::vector<Monomial> set;
  const unsigned i_begin = (k >= m) ? (k - m + 1) : 0u;
  const unsigned i_end = std::min(k, m - 1);
  for (unsigned i = i_begin; i <= i_end; ++i) {
    const unsigned j = k - i;
    set.push_back(Monomial::from_vars({ports.a.bits[i], ports.b.bits[j]}));
  }
  return set;
}

ProductMatrix product_matrix(const std::vector<Anf>& anfs,
                             const nl::MultiplierPorts& ports) {
  const unsigned m = ports.m();
  GFRE_ASSERT(m >= 2, "need m >= 2");
  GFRE_ASSERT(anfs.size() == m,
              "expected " << m << " output ANFs, got " << anfs.size());

  // a_of[v] = i and b_of[v] = j for net v = a_i and/or b_j.  The words may
  // alias (`--ports a,a,z`): a net is then both, and a_i*b_i is just a_i.
  constexpr unsigned kNone = ~0u;
  const auto& a = ports.a.bits;
  const auto& b = ports.b.bits;
  const Var max_var = std::max(*std::max_element(a.begin(), a.end()),
                               *std::max_element(b.begin(), b.end()));
  std::vector<unsigned> a_of(std::size_t{max_var} + 1, kNone);
  std::vector<unsigned> b_of(a_of);
  for (unsigned i = 0; i < m; ++i) {
    a_of[a[i]] = i;
    b_of[b[i]] = i;
  }

  ProductMatrix matrix;
  matrix.rows.assign(2 * m - 1, gf2::Poly{});
  std::vector<unsigned> hits(2 * m - 1);
  for (unsigned bit = 0; bit < m; ++bit) {
    std::fill(hits.begin(), hits.end(), 0u);
    for (const Monomial& monomial : anfs[bit].monomials()) {
      // Every (i, j) with a_i*b_j == monomial is one hit on S_{i+j}.
      unsigned products = 0;
      const auto hit = [&](Var x, Var y) {
        if (x > max_var || y > max_var) return;
        if (a_of[x] == kNone || b_of[y] == kNone) return;
        ++hits[a_of[x] + b_of[y]];
        ++products;
      };
      const auto& vars = monomial.vars();
      if (vars.size() == 1 || vars.size() == 2) hit(vars.front(), vars.back());
      if (vars.size() == 2) hit(vars.back(), vars.front());
      if (!matrix.non_bilinear.empty()) continue;
      if (vars.size() != 2) {
        matrix.non_bilinear = "output bit " + std::to_string(bit) +
                              " has a non-bilinear monomial of degree " +
                              std::to_string(vars.size());
      } else if (products != 1) {
        matrix.non_bilinear = "output bit " + std::to_string(bit) +
                              " mixes operand sides in a monomial";
      }
    }
    for (unsigned k = 0; k <= 2 * m - 2; ++k) {
      const unsigned size = std::min(k, 2 * m - 2 - k) + 1;  // |S_k|
      if (hits[k] == size) {
        matrix.rows[k].set_coeff(bit, true);
      } else if (hits[k] != 0 &&
                 (!matrix.first_split || k < matrix.first_split->k)) {
        matrix.first_split = ProductMatrix::Split{k, bit};
      }
    }
  }
  return matrix;
}

gf2::Poly recover_irreducible(const std::vector<Anf>& anfs,
                              const nl::MultiplierPorts& ports) {
  const unsigned m = ports.m();
  // Line 2: P(x) = x^m; lines 3-9: P(x) += x^i for each bit i whose ANF
  // holds P_m = S_m completely.
  return product_matrix(anfs, ports).rows[m] + gf2::Poly::monomial(m);
}

}  // namespace gfre::core
