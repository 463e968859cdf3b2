#include "core/redmatrix.hpp"

#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"

namespace gfre::core {

using anf::Anf;
using gf2::Poly;

std::string to_string(CircuitClass c) {
  switch (c) {
    case CircuitClass::StandardProduct: return "standard-product";
    case CircuitClass::MontgomeryRaw: return "montgomery-raw";
    case CircuitClass::NotAMultiplier: return "not-a-multiplier";
  }
  return "?";
}

RecoveryReport recover_reduction_matrix(const std::vector<Anf>& anfs,
                                        const nl::MultiplierPorts& ports) {
  const unsigned m = ports.m();
  ProductMatrix matrix = product_matrix(anfs, ports);

  RecoveryReport report;
  if (!matrix.non_bilinear.empty()) {
    report.diagnosis = std::move(matrix.non_bilinear);
    return report;
  }

  // rows[k].coeff(i) = does S_k feed output bit i?
  report.rows = std::move(matrix.rows);
  if (const auto split = matrix.first_split) {
    // Rows past the split are not trusted: keep only the memberships a
    // k-major scan reads before reaching it.
    for (unsigned i = split->bit; i < m; ++i) {
      report.rows[split->k].set_coeff(i, false);
    }
    for (unsigned k = split->k + 1; k <= 2 * m - 2; ++k) report.rows[k] = {};
    report.diagnosis = "product set S_" + std::to_string(split->k) +
                       " is split across output bit " +
                       std::to_string(split->bit) +
                       " — inconsistent GF(2^m) reduction";
    return report;
  }

  // Classification by the identity half of the matrix.
  const auto identity = [&](unsigned first, unsigned last) {
    for (unsigned k = first; k <= last; ++k) {
      if (report.rows[k] != Poly::monomial(k - first)) return false;
    }
    return true;
  };

  if (identity(0, m - 1)) {  // rows[k] == x^k for k < m
    // Standard product: row m is P'(x) = P(x) - x^m (Theorem 3).
    report.circuit_class = CircuitClass::StandardProduct;
    report.p = report.rows[m] + Poly::monomial(m);
    report.p_is_irreducible = gf2::is_irreducible(report.p);
    // Row recurrence: row_{k+1} = x*row_k, reduced by row_m on overflow.
    report.rows_consistent = true;
    Poly r = report.rows[m];
    for (unsigned k = m; k <= 2 * m - 2; ++k) {
      if (report.rows[k] != r) {
        report.rows_consistent = false;
        report.diagnosis = "reduction row for S_" + std::to_string(k) +
                           " violates the x^k mod P recurrence";
        break;
      }
      r = r << 1;
      if (r.coeff(m)) {
        r.flip_coeff(m);
        r += report.rows[m];
      }
    }
    if (report.rows_consistent && !report.p_is_irreducible) {
      report.diagnosis = "recovered modulus " + report.p.to_string() +
                         " is reducible";
    }
    return report;
  }

  if (identity(m, 2 * m - 2)) {  // rows[k] == x^(k-m) for k >= m
    // Raw Montgomery: Z = A*B*x^(-m) mod P.  Row m-1 is x^(-1) mod P =
    // (P(x)+1)/x, so p_{j+1} = rows[m-1].coeff(j) and p_0 = 1.
    report.circuit_class = CircuitClass::MontgomeryRaw;
    const Poly p = (report.rows[m - 1] << 1) + Poly::one();
    report.p = p;
    if (p.degree() != static_cast<int>(m)) {
      report.diagnosis = "raw-Montgomery row m-1 does not encode a degree-" +
                         std::to_string(m) + " modulus";
      return report;
    }
    report.p_is_irreducible = gf2::is_irreducible(p);
    if (!report.p_is_irreducible) {
      report.diagnosis = "recovered modulus " + p.to_string() +
                         " is reducible";
      return report;
    }
    // Verify every low row against x^(k-m) mod P.
    const gf2m::Field field(p);
    const Poly x_inv_m =
        field.inverse(field.reduce(Poly::monomial(m)));  // x^(-m) mod P
    report.rows_consistent = true;
    for (unsigned k = 0; k < m; ++k) {
      const Poly expected = field.mul(field.reduce(Poly::monomial(k)),
                                      x_inv_m);
      if (report.rows[k] != expected) {
        report.rows_consistent = false;
        report.diagnosis = "raw-Montgomery row for S_" + std::to_string(k) +
                           " mismatches x^(k-m) mod P";
        break;
      }
    }
    return report;
  }

  report.circuit_class = CircuitClass::NotAMultiplier;
  report.diagnosis =
      "bit functions are bilinear but neither Z = A*B mod P nor "
      "Z = A*B*x^(-m) mod P fits the recovered coefficient matrix";
  return report;
}

}  // namespace gfre::core
