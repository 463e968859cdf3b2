// Algorithm 2 / Theorem 3: recovering the irreducible polynomial from the
// per-output-bit ANFs.
//
// The first out-field product set P_m = { a_i*b_j : i + j = m } is the
// coefficient of x^m in the double-width product; after reduction modulo
// P(x) = x^m + P'(x) it lands exactly on the output bits named by P'(x).
// Hence x^i is a term of P(x) iff *all* monomials of P_m appear in output
// bit i's ANF (and x^m is always a term).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "anf/anf.hpp"
#include "gf2poly/gf2_poly.hpp"
#include "netlist/ports.hpp"

namespace gfre::core {

/// The product set S_k = { a_i * b_j : i + j == k, 0 <= i,j < m } as ANF
/// monomials over the port nets.  k ranges over [0, 2m-2]; S_m is the
/// paper's P_m.
std::vector<anf::Monomial> product_set(const nl::MultiplierPorts& ports,
                                       unsigned k);

/// Which product sets each output bit's ANF holds — the one question of
/// Algorithm 2, the reduction matrix and output-order recovery.
struct ProductMatrix {
  /// rows[k].coeff(i) == 1 iff ANF i holds all of S_k, k in [0, 2m-2].
  std::vector<gf2::Poly> rows;
  /// The first S_k (smallest k, then smallest bit) an ANF holds in part.
  struct Split {
    unsigned k = 0;
    unsigned bit = 0;
  };
  std::optional<Split> first_split;
  /// Diagnosis of the first monomial, in bit order, that is not a_i*b_j
  /// for exactly one pair (i, j); empty when there is none.
  std::string non_bilinear;
};

/// Reads the matrix in one pass over every ANF's monomials.  `anfs[i]`
/// must be the ANF of output bit i, and m >= 2.
ProductMatrix product_matrix(const std::vector<anf::Anf>& anfs,
                             const nl::MultiplierPorts& ports);

/// Algorithm 2 verbatim: P(x) = x^m + sum { x^i : P_m fully contained in
/// ANF of z_i }.  `anfs[i]` must be the ANF of output bit i.
gf2::Poly recover_irreducible(const std::vector<anf::Anf>& anfs,
                              const nl::MultiplierPorts& ports);

}  // namespace gfre::core
