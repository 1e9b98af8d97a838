// Unit and property tests for the sparse LU solver, and its bit-for-bit
// parity with the dense partial-pivoting LU kept as a test oracle.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstring>
#include <type_traits>

#include "dense_lu_oracle.hpp"
#include "linalg/sparse_lu.hpp"
#include "util/rng.hpp"

namespace olp::linalg {
namespace {

using oracle::ComplexMatrix;
using oracle::RealMatrix;
using C = std::complex<double>;

/// Solves a dense matrix's system with the sparse LU on the pattern of its
/// nonzeros; returns false when the factorization is singular.
template <typename T>
bool sparse_solve(const oracle::Matrix<T>& a, const std::vector<T>& b,
                  std::vector<T>& x) {
  std::vector<T> values;
  const SparsePattern p = oracle::pattern_of(a, values);
  SparseLu<T> lu(p);
  if (!lu.factor(values)) return false;
  lu.solve(b, x);
  return true;
}

TEST(Matrix, ConstructionAndIndexing) {
  RealMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, IdentityProduct) {
  const RealMatrix i = RealMatrix::identity(4);
  RealMatrix a(4, 4);
  Rng rng(5);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.uniform(-1, 1);
  }
  const RealMatrix ai = a.mul(i);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(ai(r, c), a(r, c));
    }
  }
}

TEST(Matrix, MatVecDimensionMismatchThrows) {
  RealMatrix a(3, 2);
  EXPECT_THROW(a.mul(std::vector<double>{1.0, 2.0, 3.0}),
               InvalidArgumentError);
}

TEST(Matrix, SetZero) {
  RealMatrix a(2, 2, 3.0);
  a.set_zero();
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 0.0);
}

TEST(SparsePattern, SlotsAreRowMajorAndGroundIsMinusOne) {
  const SparsePattern p(3, {{2, 0}, {0, 1}, {0, 0}, {2, 0}, {1, 2}});
  EXPECT_EQ(p.size(), 3);
  EXPECT_EQ(p.nnz(), 4);  // the duplicate (2,0) merges
  EXPECT_EQ(p.slot(0, 0), 0);
  EXPECT_EQ(p.slot(0, 1), 1);
  EXPECT_EQ(p.slot(1, 2), 2);
  EXPECT_EQ(p.slot(2, 0), 3);
  EXPECT_EQ(p.slot(-1, 2), -1);
  EXPECT_EQ(p.slot(1, -1), -1);
  EXPECT_THROW(p.slot(1, 1), InvalidArgumentError);
  EXPECT_THROW(SparsePattern(2, {{0, 2}}), InvalidArgumentError);
}

TEST(Lu, SolvesDiagonalSystem) {
  RealMatrix a(3, 3);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  a(2, 2) = 8.0;
  std::vector<double> x;
  ASSERT_TRUE(sparse_solve(a, {2.0, 4.0, 8.0}, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[2], 1.0, 1e-12);
}

TEST(Lu, SolvesKnownSystem) {
  RealMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  std::vector<double> x;
  ASSERT_TRUE(sparse_solve(a, {5.0, 11.0}, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the initial diagonal forces a row swap.
  RealMatrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  std::vector<double> x;
  ASSERT_TRUE(sparse_solve(a, {3.0, 7.0}, x));
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, DetectsSingularMatrix) {
  RealMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;  // rank 1
  std::vector<double> x;
  EXPECT_FALSE(sparse_solve(a, {1.0, 2.0}, x));
}

TEST(Lu, DetectsZeroMatrix) {
  RealMatrix a(3, 3);
  std::vector<double> x;
  EXPECT_FALSE(sparse_solve(a, {1.0, 1.0, 1.0}, x));
}

TEST(Lu, SolveOnSingularFactorizationThrows) {
  const SparsePattern p(2, {{0, 0}, {1, 1}});
  SparseLu<double> lu(p);
  EXPECT_FALSE(lu.factor({0.0, 0.0}));
  EXPECT_FALSE(lu.ok());
  std::vector<double> x;
  EXPECT_THROW(lu.solve({1.0, 2.0}, x), InvalidArgumentError);
}

TEST(Lu, ComplexSolve) {
  ComplexMatrix a(2, 2);
  a(0, 0) = C{1, 1};
  a(0, 1) = C{0, 0};
  a(1, 0) = C{0, 0};
  a(1, 1) = C{0, 2};
  std::vector<C> x;
  ASSERT_TRUE(sparse_solve(a, std::vector<C>{C{2, 0}, C{0, 4}}, x));
  EXPECT_NEAR(std::abs(x[0] - C{1, -1}), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - C{2, 0}), 0.0, 1e-12);
}

// Property: A * solve(A, b) == b for random well-conditioned systems.
class LuRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LuRoundTrip, ResidualIsSmall) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Rng rng(1234 + GetParam());
  RealMatrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.uniform(-10, 10);
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
    a(i, i) += static_cast<double>(n);  // diagonal dominance
  }
  std::vector<double> x;
  ASSERT_TRUE(sparse_solve(a, b, x));
  const std::vector<double> ax = a.mul(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[i], b[i], 1e-8) << "row " << i << " of n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32, 64, 128));

// Property: complex round trip.
class LuComplexRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LuComplexRoundTrip, ResidualIsSmall) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Rng rng(77 + GetParam());
  ComplexMatrix a(n, n);
  std::vector<C> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = C{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = C{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
    a(i, i) += C{static_cast<double>(n), 0};
  }
  std::vector<C> x;
  ASSERT_TRUE(sparse_solve(a, b, x));
  const std::vector<C> ax = a.mul(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(ax[i] - b[i]), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuComplexRoundTrip,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(InfNorm, RealAndComplex) {
  using oracle::inf_norm;
  EXPECT_DOUBLE_EQ(inf_norm(std::vector<double>{1.0, -3.0, 2.0}), 3.0);
  EXPECT_DOUBLE_EQ(inf_norm(std::vector<C>{C{3, 4}, C{0, 1}}), 5.0);
}

// ---------------------------------------------------------------------------
// Parity with the dense oracle: same singular verdict, and solutions equal
// byte for byte.

/// Factors `values` with `lu` (replaying when it holds a record) and checks
/// the outcome against a fresh dense LU of the same matrix. Returns whether
/// the system was nonsingular.
template <typename T>
bool expect_parity(const SparsePattern& p, SparseLu<T>& lu,
                   const std::vector<T>& values, const std::vector<T>& b) {
  std::vector<T> dense_x;
  const bool dense_ok =
      oracle::solve(oracle::to_dense(p, values), b, dense_x);
  const bool sparse_ok = lu.factor(values);
  EXPECT_EQ(sparse_ok, dense_ok);
  if (!sparse_ok || !dense_ok) return false;
  std::vector<T> x;
  lu.solve(b, x);
  EXPECT_EQ(x, dense_x);
  EXPECT_EQ(0, std::memcmp(x.data(), dense_x.data(), x.size() * sizeof(T)))
      << "solutions differ in their bits";
  return true;
}

/// A random MNA-shaped system: node conductances (a supply hub node tied to
/// about half the others), VCCS couplings, and voltage-source branch rows
/// with zero diagonals. Element values come from a small set when `ties` is
/// set, so equal pivot magnitudes are common; a share of them are exactly
/// zero, leaving explicit zeros in pattern slots.
template <typename T>
struct MnaCase {
  int nodes = 0;
  int branches = 0;
  std::vector<std::pair<int, int>> conductances;  // node pairs, -1 = ground
  std::vector<std::array<int, 4>> vccs;           // p, n, cp, cn
  std::vector<std::pair<int, int>> sources;       // p, n

  int size() const { return nodes + branches; }

  SparsePattern pattern() const {
    std::vector<std::pair<int, int>> e;
    auto entry = [&](int r, int c) {
      if (r >= 0 && c >= 0) e.emplace_back(r, c);
    };
    for (const auto& [a, b] : conductances) {
      entry(a, a);
      entry(b, b);
      entry(a, b);
      entry(b, a);
    }
    for (const auto& g : vccs) {
      entry(g[0], g[2]);
      entry(g[0], g[3]);
      entry(g[1], g[2]);
      entry(g[1], g[3]);
    }
    for (std::size_t k = 0; k < sources.size(); ++k) {
      const int br = nodes + static_cast<int>(k);
      entry(sources[k].first, br);
      entry(sources[k].second, br);
      entry(br, sources[k].first);
      entry(br, sources[k].second);
    }
    for (int k = 0; k < nodes; ++k) entry(k, k);
    return SparsePattern(size(), std::move(e));
  }

  /// Stamps one random value set into the pattern's slots.
  std::vector<T> values(const SparsePattern& p, Rng& rng, bool ties,
                        double zero_share, double gmin) const {
    auto draw = [&]() -> T {
      if (rng.chance(zero_share)) return T{};
      double re, im;
      if (ties) {
        static const double kSet[] = {1.0, 0.5, 2.0, 1e-3};
        re = kSet[rng.uniform_int(0, 3)];
        im = kSet[rng.uniform_int(0, 3)];
      } else {
        re = std::exp(rng.uniform(-8, 2));
        im = std::exp(rng.uniform(-8, 2));
      }
      if constexpr (std::is_same_v<T, double>) {
        return re;
      } else {
        return T{re, im};
      }
    };
    std::vector<T> v(static_cast<std::size_t>(p.nnz()), T{});
    auto add = [&](int r, int c, T x) {
      if (r >= 0 && c >= 0) v[static_cast<std::size_t>(p.slot(r, c))] += x;
    };
    for (const auto& [a, b] : conductances) {
      const T g = draw();
      add(a, a, g);
      add(b, b, g);
      add(a, b, -g);
      add(b, a, -g);
    }
    for (const auto& g : vccs) {
      const T gm = draw();
      add(g[0], g[2], gm);
      add(g[0], g[3], -gm);
      add(g[1], g[2], -gm);
      add(g[1], g[3], gm);
    }
    for (std::size_t k = 0; k < sources.size(); ++k) {
      const int br = nodes + static_cast<int>(k);
      add(sources[k].first, br, T{1});
      add(sources[k].second, br, T{-1});
      add(br, sources[k].first, T{1});
      add(br, sources[k].second, T{-1});
    }
    for (int k = 0; k < nodes; ++k) add(k, k, T{gmin});
    return v;
  }
};

template <typename T>
MnaCase<T> random_case(Rng& rng) {
  MnaCase<T> c;
  c.nodes = rng.uniform_int(2, 30);
  c.branches = rng.uniform_int(0, 4);
  auto node = [&](bool allow_ground) {
    return rng.uniform_int(allow_ground ? -1 : 0, c.nodes - 1);
  };
  // A chain keeps most nodes connected; a hub (node 0, the supply) reaches
  // about half the nodes; random extra conductances, some to ground.
  for (int k = 1; k < c.nodes; ++k) c.conductances.emplace_back(k - 1, k);
  for (int k = 1; k < c.nodes; ++k) {
    if (rng.chance(0.5)) c.conductances.emplace_back(0, k);
  }
  const int extra = rng.uniform_int(0, c.nodes);
  for (int k = 0; k < extra; ++k) {
    c.conductances.emplace_back(node(true), node(true));
  }
  const int ncs = rng.uniform_int(0, c.nodes / 3);
  for (int k = 0; k < ncs; ++k) {
    c.vccs.push_back({node(false), node(true), node(false), node(true)});
  }
  for (int k = 0; k < c.branches; ++k) {
    int p = node(false), n = node(true);
    if (p == n) n = -1;
    c.sources.emplace_back(p, n);
  }
  return c;
}

template <typename T>
std::vector<T> random_rhs(int n, Rng& rng) {
  std::vector<T> b(static_cast<std::size_t>(n));
  for (T& x : b) {
    if constexpr (std::is_same_v<T, double>) {
      x = rng.uniform(0.1, 1.0) * (rng.chance(0.5) ? 1.0 : -1.0);
    } else {
      x = T{rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)};
    }
  }
  return b;
}

/// Many random cases; each pattern is factored for several value sets on
/// one SparseLu, so replays (accepted and rejected) are compared too.
template <typename T>
void run_random_parity(std::uint64_t seed) {
  Rng rng(seed);
  long solved = 0, singular = 0;
  long replays = 0, repivots = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const MnaCase<T> c = random_case<T>(rng);
    const SparsePattern p = c.pattern();
    SparseLu<T> lu(p);
    const bool ties = rng.chance(0.5);
    const double zero_share = rng.chance(0.3) ? 0.25 : 0.0;
    // gmin on the node diagonals as the simulator stamps it, or none (so
    // floating nodes make the system singular).
    const double gmin = rng.chance(0.8) ? 1e-12 : 0.0;
    for (int rep = 0; rep < 6; ++rep) {
      const std::vector<T> v = c.values(p, rng, ties, zero_share, gmin);
      const std::vector<T> b = random_rhs<T>(c.size(), rng);
      if (expect_parity(p, lu, v, b)) {
        ++solved;
      } else {
        ++singular;
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "trial " << trial << " rep " << rep << " n=" << c.size();
      }
    }
    replays += lu.counts().replay;
    repivots += lu.counts().repivot;
  }
  // The generator reaches every path it is meant to.
  EXPECT_GT(solved, 100);
  EXPECT_GT(singular, 0);
  EXPECT_GT(replays, 100);
  EXPECT_GT(repivots, 0);
}

TEST(SparseLuParity, RandomMnaSystemsReal) { run_random_parity<double>(2024); }

TEST(SparseLuParity, RandomMnaSystemsComplex) { run_random_parity<C>(4048); }

TEST(SparseLuParity, ResumedSearchesRejoinTheRecordAndStillMatch) {
  // Newton-like sequences: each factorization rescales a few entries of the
  // last system, so a pivot changes here and there while the rest of the
  // elimination stays as recorded. Resumed searches then rejoin the record
  // at varying distances, and every solution must still equal the dense one.
  // Half the trials keep values on a small set (powers of two), where ties
  // make the pivot depend on the rows' current positions.
  Rng rng(99);
  long repivots = 0, rejoins = 0;
  for (int trial = 0; trial < 300; ++trial) {
    MnaCase<double> c = random_case<double>(rng);
    while (c.nodes < 12) c = random_case<double>(rng);
    const SparsePattern p = c.pattern();
    SparseLu<double> lu(p);
    const bool ties = trial % 2 == 1;
    std::vector<double> v = c.values(p, rng, ties, 0.0, 1e-12);
    for (int rep = 0; rep < 40; ++rep) {
      for (int k = rng.uniform_int(1, 3); k > 0; --k) {
        v[static_cast<std::size_t>(rng.uniform_int(0, p.nnz() - 1))] *=
            ties ? std::ldexp(1.0, rng.uniform_int(-2, 2))
                 : std::exp(rng.uniform(-4.0, 4.0));
      }
      expect_parity(p, lu, v, random_rhs<double>(c.size(), rng));
      if (::testing::Test::HasFailure()) {
        FAIL() << "trial " << trial << " rep " << rep << " n=" << c.size();
      }
    }
    repivots += lu.counts().repivot;
    rejoins += lu.counts().rejoin;
  }
  EXPECT_GT(repivots, 1000);
  EXPECT_GT(rejoins, 500);
}

TEST(SparseLuParity, RejoinNeedsEqualRowPositions) {
  // Rows 2 and 3 share a structure and hold the only entries of columns 0
  // and 1. The first system pivots row 2 then row 3, the second row 3 then
  // row 2: the same rows pivoted, the same structure left, but rows 0 and 1
  // (displaced by the swaps) trade positions. Their column-2 entries tie,
  // so the row now at position 2, row 1, must win step 2; the record of the
  // first system would pick row 0.
  auto system = [](double a, double b) {
    RealMatrix m(5, 5);
    m(0, 2) = 1, m(0, 3) = 0.3, m(0, 4) = 0.7;
    m(1, 2) = -1, m(1, 3) = 0.55, m(1, 4) = 0.11;
    m(2, 0) = a, m(2, 1) = 1, m(2, 2) = 1, m(2, 3) = 1, m(2, 4) = 1;
    m(3, 0) = b, m(3, 1) = 2, m(3, 2) = 1, m(3, 3) = 3, m(3, 4) = 1;
    m(4, 3) = 0.13, m(4, 4) = 0.17;
    return m;
  };
  // The nonzeros only: an explicit zero on a diagonal would make rows 0, 1
  // and 4 candidates of steps 0 and 1.
  std::vector<std::pair<int, int>> entries;
  const RealMatrix m1 = system(4, 1), m2 = system(1, 4);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      if (m1(r, c) != 0.0) {
        entries.emplace_back(static_cast<int>(r), static_cast<int>(c));
      }
    }
  }
  const SparsePattern p(5, entries);
  std::vector<double> v1, v2;
  for (const auto& [r, c] : entries) {
    const std::size_t rs = static_cast<std::size_t>(r);
    const std::size_t cs = static_cast<std::size_t>(c);
    v1.push_back(m1(rs, cs));
    v2.push_back(m2(rs, cs));
  }
  SparseLu<double> lu(p);
  const std::vector<double> b{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_TRUE(expect_parity(p, lu, v1, b));
  EXPECT_TRUE(expect_parity(p, lu, v2, b));
  EXPECT_EQ(lu.counts().repivot, 1);
}

TEST(SparseLuParity, TieBreaksByCurrentRowPosition) {
  // Step 0 pivots row 3 and swaps row 0 into position 3. At step 1, rows 0
  // (position 3) and 2 (position 2) tie on |1|; the dense rule takes the
  // lower position, row 2, although row 0 has the lower index.
  RealMatrix a(4, 4);
  a(0, 0) = 1, a(0, 1) = 1;
  a(1, 2) = 1, a(1, 3) = 1;
  a(2, 1) = 1, a(2, 2) = 1;
  a(3, 0) = 4, a(3, 3) = 1;
  std::vector<double> values;
  const SparsePattern p = oracle::pattern_of(a, values);
  SparseLu<double> lu(p);
  EXPECT_TRUE(expect_parity(p, lu, values, {1.0, 2.0, 3.0, 4.0}));
  // The row already at position k wins a tie: equal magnitudes down a
  // column keep the natural order.
  RealMatrix t(3, 3);
  t(0, 0) = 1, t(1, 0) = -1, t(2, 0) = 1;
  t(0, 1) = 2, t(1, 1) = 1, t(2, 2) = 3;
  const SparsePattern pt = oracle::pattern_of(t, values);
  SparseLu<double> lut(pt);
  EXPECT_TRUE(expect_parity(pt, lut, values, {1.0, 0.5, 0.25}));
}

TEST(SparseLuParity, SingularAndNearThresholdPivots) {
  // [[1, 1], [1, 1 + d]]: the second pivot is d, against a threshold of
  // 1e-13 * max(max|a|, 1) = 1e-13 (from max|a| = 1 + d, rounded).
  const SparsePattern p(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  SparseLu<double> lu(p);
  for (double d : {0.0, 5e-14, 1e-13, 1.0000000000000002e-13, 2e-13, 1e-12}) {
    const std::vector<double> v{1.0, 1.0, 1.0, 1.0 + d};
    expect_parity(p, lu, v, {1.0, 2.0});
  }
  // A floating node with only explicit zeros in its slots.
  const SparsePattern q(3, {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}, {0, 2},
                            {2, 0}});
  SparseLu<double> luq(q);
  EXPECT_FALSE(expect_parity(q, luq, {2.0, -1.0, 0.0, -1.0, 2.0, 0.0, 0.0},
                             {1.0, 1.0, 1.0}));
}

TEST(SparseLuParity, ReplayRejectionRepivotsAndStillMatches) {
  const SparsePattern p(3, {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2},
                            {2, 0}, {2, 1}, {2, 2}});
  SparseLu<double> lu(p);
  const std::vector<double> b{1.0, -2.0, 3.0};
  // Column 0 is largest in row 0: the recorded pivot.
  const std::vector<double> v1{4, 1, 0, 1, 3, 1, 0.5, 1, 5};
  ASSERT_TRUE(expect_parity(p, lu, v1, b));
  EXPECT_EQ(lu.counts().factor, 1);
  EXPECT_EQ(lu.counts().replay, 0);
  // New values, same pivots: a replay.
  const std::vector<double> v2{5, 2, 1, 1, 4, 1, 2, 1, 6};
  ASSERT_TRUE(expect_parity(p, lu, v2, b));
  EXPECT_EQ(lu.counts().replay, 1);
  EXPECT_EQ(lu.counts().repivot, 0);
  // Row 2 now dominates column 0: the replay's pivot check rejects the
  // record and a pivoting factorization records the new order.
  const std::vector<double> v3{1, 2, 1, 1, 4, 1, 7, 1, 6};
  ASSERT_TRUE(expect_parity(p, lu, v3, b));
  EXPECT_EQ(lu.counts().repivot, 1);
  EXPECT_EQ(lu.counts().factor, 2);
  // Which the next factorization replays.
  const std::vector<double> v4{1.5, 2, 1, 1, 4, 1, 7, 1, 6};
  ASSERT_TRUE(expect_parity(p, lu, v4, b));
  EXPECT_EQ(lu.counts().replay, 2);
  EXPECT_EQ(lu.counts().repivot, 1);
  // A tie with a lower position also breaks the record.
  const std::vector<double> v5{7, 2, 1, 1, 4, 1, 7, 1, 6};
  ASSERT_TRUE(expect_parity(p, lu, v5, b));
  EXPECT_EQ(lu.counts().repivot, 2);
  // Step 0 keeps its pivot but step 1 flips (row 2's updated |-1| beats
  // row 1's 0.5 - 2/7): the search resumes at step 1 on the replayed step 0.
  const std::vector<double> v6{7, 2, 1, 1, 0.5, 1, 7, 1, 6};
  ASSERT_TRUE(expect_parity(p, lu, v6, b));
  EXPECT_EQ(lu.counts().repivot, 3);
  EXPECT_EQ(lu.counts().factor, 4);
  ASSERT_TRUE(expect_parity(p, lu, v6, b));
  EXPECT_EQ(lu.counts().replay, 3);
}

}  // namespace
}  // namespace olp::linalg
