// Tests for the extended reduction-matrix recovery: classification,
// consistency checking, raw-Montgomery support and fault rejection.
#include <gtest/gtest.h>

#include "core/parallel_extract.hpp"
#include "core/redmatrix.hpp"
#include "core/verify.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "helpers.hpp"

namespace gfre::core {
namespace {

using anf::Anf;
using anf::Monomial;
using gf2::Poly;

using test::fake_ports;

// NIST B-163's pentanomial: golden ANFs at a crypto-scale m.
const Poly kB163{163, 7, 6, 3, 0};

TEST(RedMatrix, StandardProductClassification) {
  for (const Poly& p :
       {Poly{4, 1, 0}, Poly{8, 4, 3, 1, 0}, Poly{11, 2, 0}, kB163}) {
    const gf2m::Field field(p);
    const auto ports = fake_ports(field.m());
    const auto report =
        recover_reduction_matrix(golden_anfs(field, ports), ports);
    EXPECT_EQ(report.circuit_class, CircuitClass::StandardProduct);
    EXPECT_EQ(report.p, p);
    EXPECT_TRUE(report.p_is_irreducible);
    EXPECT_TRUE(report.rows_consistent) << report.diagnosis;
    // Recovered high rows equal the field's reduction rows.
    for (unsigned k = field.m(); k <= 2 * field.m() - 2; ++k) {
      EXPECT_EQ(report.rows[k], field.reduction_rows()[k - field.m()]);
    }
  }
}

TEST(RedMatrix, MontgomeryRawClassification) {
  for (const Poly& p :
       {Poly{4, 1, 0}, Poly{8, 4, 3, 1, 0}, Poly{13, 4, 3, 1, 0}, kB163}) {
    const gf2m::Field field(p);
    const auto ports = fake_ports(field.m());
    const auto spec = golden_anfs(field, ports, /*montgomery_raw=*/true);
    const auto report = recover_reduction_matrix(spec, ports);
    EXPECT_EQ(report.circuit_class, CircuitClass::MontgomeryRaw)
        << report.diagnosis;
    EXPECT_EQ(report.p, p) << "raw-Montgomery P(x) recovery failed";
    EXPECT_TRUE(report.p_is_irreducible);
    EXPECT_TRUE(report.rows_consistent) << report.diagnosis;
  }
}

TEST(RedMatrix, RawMontgomeryFromGateLevelNetlist) {
  const gf2::Poly p{8, 4, 3, 1, 0};
  const gf2m::Field field(p);
  gen::MontgomeryOptions options;
  options.raw = true;
  const auto netlist = gen::generate_montgomery(field, options);
  const auto ports = nl::multiplier_ports(netlist);
  const auto extraction = extract_all_outputs(netlist, 2);
  const auto report = recover_reduction_matrix(extraction.anfs, ports);
  EXPECT_EQ(report.circuit_class, CircuitClass::MontgomeryRaw)
      << report.diagnosis;
  EXPECT_EQ(report.p, p);
}

TEST(RedMatrix, RejectsNonBilinearCircuit) {
  // z0 = a0 (degree-1 monomial) — not a multiplier.
  const auto ports = fake_ports(2);
  std::vector<Anf> anfs(2);
  anfs[0] = Anf::var(ports.a.bits[0]);
  anfs[1] = Anf::var(ports.b.bits[1]);
  const auto report = recover_reduction_matrix(anfs, ports);
  EXPECT_EQ(report.circuit_class, CircuitClass::NotAMultiplier);
  EXPECT_NE(report.diagnosis.find("non-bilinear"), std::string::npos);
}

TEST(RedMatrix, RejectsSameSideProducts) {
  // a0*a1 mixes operand sides.
  const auto ports = fake_ports(2);
  std::vector<Anf> anfs(2);
  anfs[0].toggle(Monomial::from_vars({ports.a.bits[0], ports.a.bits[1]}));
  anfs[1].toggle(Monomial::from_vars({ports.a.bits[1], ports.b.bits[1]}));
  const auto report = recover_reduction_matrix(anfs, ports);
  EXPECT_EQ(report.circuit_class, CircuitClass::NotAMultiplier);
  EXPECT_NE(report.diagnosis.find("sides"), std::string::npos);
}

TEST(RedMatrix, RejectsSplitProductSet) {
  // Start from a good spec and knock a single monomial out of S_m on one
  // bit: the membership becomes Mixed and the report must say so.
  const gf2m::Field field(Poly{4, 1, 0});
  const auto ports = fake_ports(4);
  auto spec = golden_anfs(field, ports);
  const auto p_m = product_set(ports, 4);
  // Bit 0 contains S_4 fully (since P = x^4+x+1 has x^0): remove one
  // member.
  ASSERT_TRUE(spec[0].contains(p_m[0]));
  spec[0].toggle(p_m[0]);
  const auto report = recover_reduction_matrix(spec, ports);
  EXPECT_EQ(report.circuit_class, CircuitClass::NotAMultiplier);
  EXPECT_NE(report.diagnosis.find("split"), std::string::npos);
  // Rows read before the split in k-major order are kept; row 4 (whose bit
  // 1 holds S_4 completely) and everything after it are not.
  ASSERT_EQ(report.rows.size(), 7u);
  for (unsigned k = 0; k < 4; ++k) EXPECT_EQ(report.rows[k], Poly::monomial(k));
  for (unsigned k = 4; k <= 6; ++k) EXPECT_EQ(report.rows[k], Poly{});
}

TEST(RedMatrix, FlagsReducibleModulus) {
  // A "multiplier" built modulo the reducible x^4+x^2+1: bilinear and
  // recurrence-consistent, but P must be flagged as reducible.
  const unsigned m = 4;
  const Poly fake{4, 2, 0};  // (x^2+x+1)^2
  const auto ports = fake_ports(m);
  // Build rows with the shift recurrence by hand.
  std::vector<Poly> rows(2 * m - 1);
  for (unsigned k = 0; k < m; ++k) rows[k] = Poly::monomial(k);
  Poly r = fake + Poly::monomial(m);
  for (unsigned k = m; k <= 2 * m - 2; ++k) {
    rows[k] = r;
    r = r << 1;
    if (r.coeff(m)) {
      r.flip_coeff(m);
      r += fake + Poly::monomial(m);
    }
  }
  std::vector<Anf> anfs(m);
  for (unsigned k = 0; k <= 2 * m - 2; ++k) {
    for (unsigned i = 0; i < m; ++i) {
      if (!rows[k].coeff(i)) continue;
      for (const auto& monomial : product_set(ports, k)) {
        anfs[i].toggle(monomial);
      }
    }
  }
  const auto report = recover_reduction_matrix(anfs, ports);
  EXPECT_EQ(report.circuit_class, CircuitClass::StandardProduct);
  EXPECT_EQ(report.p, fake);
  EXPECT_FALSE(report.p_is_irreducible);
  EXPECT_NE(report.diagnosis.find("reducible"), std::string::npos);
}

TEST(RedMatrix, DetectsInconsistentReductionRows) {
  // Corrupt one high row wholesale (swap S_5's destination bits): still
  // all-or-none memberships, but the shift recurrence breaks.
  const gf2m::Field field(Poly{4, 1, 0});
  const auto ports = fake_ports(4);
  auto spec = golden_anfs(field, ports);
  // Row 5 is {2,1}: move S_5 from bit 2 to bit 3.
  for (const auto& monomial : product_set(ports, 5)) {
    spec[2].toggle(monomial);  // remove
    spec[3].toggle(monomial);  // add
  }
  const auto report = recover_reduction_matrix(spec, ports);
  EXPECT_EQ(report.circuit_class, CircuitClass::StandardProduct);
  EXPECT_FALSE(report.rows_consistent);
  EXPECT_NE(report.diagnosis.find("recurrence"), std::string::npos);
}

TEST(RedMatrix, ToStringNames) {
  EXPECT_EQ(to_string(CircuitClass::StandardProduct), "standard-product");
  EXPECT_EQ(to_string(CircuitClass::MontgomeryRaw), "montgomery-raw");
  EXPECT_EQ(to_string(CircuitClass::NotAMultiplier), "not-a-multiplier");
}

}  // namespace
}  // namespace gfre::core
