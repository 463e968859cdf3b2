// Tests for Algorithm 2 / Theorem 3: product sets and irreducible
// polynomial recovery from per-bit ANFs.
#include <gtest/gtest.h>

#include "core/parallel_extract.hpp"
#include "core/poly_extract.hpp"
#include "core/verify.hpp"
#include "gen/mastrovito.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "helpers.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace gfre::core {
namespace {

using anf::Anf;
using anf::Monomial;
using gf2::Poly;

using test::fake_ports;

TEST(ProductSet, ContentsMatchDefinition) {
  const auto ports = fake_ports(4);
  // S_0 = {a0 b0}
  EXPECT_EQ(product_set(ports, 0).size(), 1u);
  // S_3 = {a0b3, a1b2, a2b1, a3b0}
  EXPECT_EQ(product_set(ports, 3).size(), 4u);
  // S_4 = P_m = {a1b3, a2b2, a3b1}  (m-1 = 3 products; no a0b4!)
  const auto p_m = product_set(ports, 4);
  EXPECT_EQ(p_m.size(), 3u);
  for (const auto& monomial : p_m) {
    ASSERT_EQ(monomial.degree(), 2u);
    const unsigned i = monomial.vars()[0];
    const unsigned j = monomial.vars()[1] - 1000;
    EXPECT_EQ(i + j, 4u);
    EXPECT_GE(i, 1u);
    EXPECT_LE(i, 3u);
  }
  // S_6 = {a3 b3}
  EXPECT_EQ(product_set(ports, 6).size(), 1u);
  EXPECT_THROW(product_set(ports, 7), Error);
}

TEST(ProductSet, SetsPartitionAllProducts) {
  const unsigned m = 5;
  const auto ports = fake_ports(m);
  std::size_t total = 0;
  for (unsigned k = 0; k <= 2 * m - 2; ++k) {
    total += product_set(ports, k).size();
  }
  EXPECT_EQ(total, std::size_t{m} * m);
}

void expect_same_matrix(const ProductMatrix& got, const ProductMatrix& want,
                        const std::string& label) {
  EXPECT_EQ(got.rows, want.rows) << label;
  ASSERT_EQ(got.first_split.has_value(), want.first_split.has_value())
      << label;
  if (got.first_split) {
    EXPECT_EQ(got.first_split->k, want.first_split->k) << label;
    EXPECT_EQ(got.first_split->bit, want.first_split->bit) << label;
  }
  EXPECT_EQ(got.non_bilinear, want.non_bilinear) << label;
}

/// Random ANFs over `ports`: a random reduction matrix of full product sets,
/// then — each with probability 1/4 — split sets, same-side products,
/// non-port variables and monomials of degree 0, 1 or 3.
std::vector<Anf> random_anfs(Prng& rng, const nl::MultiplierPorts& ports) {
  const unsigned m = ports.m();
  std::vector<Anf> anfs(m);
  for (unsigned k = 0; k <= 2 * m - 2; ++k) {
    for (unsigned i = 0; i < m; ++i) {
      if (rng.next_below(3) != 0) continue;
      for (const auto& monomial : product_set(ports, k)) {
        anfs[i].toggle(monomial);
      }
    }
  }
  const auto chance = [&] { return rng.next_below(4) == 0; };
  const auto any_bit = [&] { return unsigned(rng.next_below(m)); };
  const auto a = [&] { return ports.a.bits[rng.next_below(m)]; };
  if (chance()) {  // split sets: toggle single products of random S_k
    for (unsigned n = 1 + rng.next_below(3); n-- > 0;) {
      const auto set = product_set(ports, rng.next_below(2 * m - 1));
      anfs[any_bit()].toggle(set[rng.next_below(set.size())]);
    }
  }
  if (chance()) anfs[any_bit()].toggle(Monomial::from_vars({a(), a()}));
  if (chance()) anfs[any_bit()].toggle(Monomial::from_vars({a(), 5000}));
  if (chance()) anfs[any_bit()].toggle(Monomial{});
  if (chance()) anfs[any_bit()].toggle(Monomial(a()));
  if (chance()) {
    anfs[any_bit()].toggle(
        Monomial::from_vars({a(), ports.b.bits[rng.next_below(m)], 5001}));
  }
  return anfs;
}

TEST(ProductMatrix, MatchesProbeReference) {
  Prng rng(2017);
  for (unsigned m = 2; m <= 16; ++m) {
    std::vector<nl::MultiplierPorts> shapes(4, fake_ports(m));
    std::swap(shapes[1].a, shapes[1].b);  // the `--ports b,a,z` shape
    shapes[2].b = shapes[2].a;            // the `--ports a,a,z` shape
    shapes[3].b.bits[0] = shapes[3].a.bits[m - 1];  // one shared net
    for (std::size_t shape = 0; shape < shapes.size(); ++shape) {
      const auto& ports = shapes[shape];
      for (unsigned trial = 0; trial < 20; ++trial) {
        const auto anfs = random_anfs(rng, ports);
        expect_same_matrix(product_matrix(anfs, ports),
                           test::probe_product_matrix(anfs, ports),
                           "m=" + std::to_string(m) + " shape " +
                               std::to_string(shape) + " trial " +
                               std::to_string(trial));
      }
    }
  }
}

// Recovery from golden spec ANFs, exhaustively over every irreducible
// polynomial of degree 2..8 — Theorem 3 as a theorem, checked.
class Theorem3Sweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(Theorem3Sweep, RecoversEveryIrreducible) {
  const unsigned m = GetParam();
  const auto ports = fake_ports(m);
  for (const Poly& p : gf2::all_irreducible(m)) {
    const gf2m::Field field(p);
    const auto spec = golden_anfs(field, ports);
    EXPECT_EQ(recover_irreducible(spec, ports), p)
        << "failed to recover " << p.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, Theorem3Sweep,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Theorem3, RecoversFromGeneratedNetlists) {
  for (const Poly& p : {Poly{4, 1, 0}, Poly{4, 3, 0}, Poly{8, 4, 3, 1, 0},
                        Poly{16, 5, 3, 1, 0}}) {
    const gf2m::Field field(p);
    const auto netlist = gen::generate_mastrovito(field);
    const auto ports = nl::multiplier_ports(netlist);
    const auto extraction = extract_all_outputs(netlist, 2);
    EXPECT_EQ(recover_irreducible(extraction.anfs, ports), p);
  }
}

TEST(Theorem3, XmAlwaysIncluded) {
  const auto ports = fake_ports(4);
  // Even for garbage ANFs the result contains x^m (line 2 of Algorithm 2).
  std::vector<Anf> junk(4);
  const Poly p = recover_irreducible(junk, ports);
  EXPECT_TRUE(p.coeff(4));
  EXPECT_EQ(p, Poly::monomial(4));
}

TEST(Theorem3, WidthMismatchRejected) {
  const auto ports = fake_ports(4);
  std::vector<Anf> wrong(3);
  EXPECT_THROW(recover_irreducible(wrong, ports), Error);
  // m = 1 has no S_m to read.
  EXPECT_THROW(recover_irreducible(std::vector<Anf>(1), fake_ports(1)),
               Error);
}

TEST(GoldenAnfs, MatchTextbookGf24Example) {
  // Section II of the paper spells out GF(2^4)/x^4+x+1:
  //   z0 = s0+s4, z1 = s1+s4+s5, z2 = s2+s5+s6, z3 = s3+s6.
  const gf2m::Field field(Poly{4, 1, 0});
  const auto ports = fake_ports(4);
  const auto spec = golden_anfs(field, ports);

  const auto sum_sets = [&](std::initializer_list<unsigned> ks) {
    Anf acc;
    for (unsigned k : ks) {
      for (const auto& monomial : product_set(ports, k)) acc.toggle(monomial);
    }
    return acc;
  };
  EXPECT_EQ(spec[0], sum_sets({0, 4}));
  EXPECT_EQ(spec[1], sum_sets({1, 4, 5}));
  EXPECT_EQ(spec[2], sum_sets({2, 5, 6}));
  EXPECT_EQ(spec[3], sum_sets({3, 6}));
}

TEST(GoldenAnfs, MatchP1Gf24Example) {
  // And for P1 = x^4+x^3+1 (Figure 1 left):
  //   z0 = s0+s4+s5+s6, z1 = s1+s5+s6, z2 = s2+s6, z3 = s3+s4+s5+s6.
  const gf2m::Field field(Poly{4, 3, 0});
  const auto ports = fake_ports(4);
  const auto spec = golden_anfs(field, ports);
  const auto sum_sets = [&](std::initializer_list<unsigned> ks) {
    Anf acc;
    for (unsigned k : ks) {
      for (const auto& monomial : product_set(ports, k)) acc.toggle(monomial);
    }
    return acc;
  };
  EXPECT_EQ(spec[0], sum_sets({0, 4, 5, 6}));
  EXPECT_EQ(spec[1], sum_sets({1, 5, 6}));
  EXPECT_EQ(spec[2], sum_sets({2, 6}));
  EXPECT_EQ(spec[3], sum_sets({3, 4, 5, 6}));
}

}  // namespace
}  // namespace gfre::core
