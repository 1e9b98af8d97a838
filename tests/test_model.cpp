// Unit and property tests for the EKV-style FinFET compact model: continuity,
// derivative consistency, drain/source symmetry, and LDE parameter effects.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "spice/model.hpp"
#include "spice/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace olp::spice {
namespace {

MosModel test_model() {
  MosModel m;
  m.vth0 = 0.30;
  m.nslope = 1.25;
  m.kp = 400e-6;
  m.lambda = 0.2;
  m.lref = 14e-9;
  return m;
}

constexpr double kW = 1e-6;
constexpr double kL = 14e-9;

TEST(EkvF, PositiveAndMonotone) {
  double prev = ekv(-20.0).f;
  for (double u = -19.0; u < 60.0; u += 0.5) {
    const double f = ekv(u).f;
    EXPECT_GE(f, 0.0);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST(EkvF, DerivativeMatchesFiniteDifference) {
  for (double u = -10.0; u < 40.0; u += 1.7) {
    const double h = 1e-6;
    const double fd = (ekv(u + h).f - ekv(u - h).f) / (2 * h);
    EXPECT_NEAR(ekv(u).df, fd, 1e-5 * std::max(1.0, std::fabs(fd)));
  }
}

TEST(EkvF, StrongInversionAsymptote) {
  // F(u) -> (u/2)^2 and dF/du -> u/2 for large u.
  EXPECT_NEAR(ekv(80.0).f, 1600.0, 1.0);
  EXPECT_NEAR(ekv(80.0).df, 40.0, 1e-9);
}

// --- bit-exactness against the two-pass formulas ------------------------------
//
// The model used to evaluate F and dF/du in separate functions that each
// recomputed exp(u/2) and log1p(), and smoothed |vds| and its derivative
// with two square roots. Those formulas are the oracle: the one-pass forms
// must reproduce every bit, or simulator solutions and flow decisions move.

double two_pass_f(double u) {
  const double half = 0.5 * u;
  const double l = half > 30.0 ? half : std::log1p(std::exp(half));
  return l * l;
}

double two_pass_df(double u) {
  const double half = 0.5 * u;
  const double l = half > 30.0 ? half : std::log1p(std::exp(half));
  const double sig =
      half > 30.0 ? 1.0 : std::exp(half) / (1.0 + std::exp(half));
  return l * sig;
}

MosEval two_pass_mos_eval(const MosModel& model, double vgs, double vds,
                          double w, double l, double delta_vth,
                          double mobility_mult) {
  constexpr double eps = 1e-3;
  const double vt = model.vt_thermal;
  const double n = model.nslope;
  const double vth = model.vth0 + delta_vth;
  const double ispec = 2.0 * n * model.kp * mobility_mult * vt * vt * (w / l);
  const double uf = (vgs - vth) / (n * vt);
  const double ur = (vgs - vth - n * vds) / (n * vt);
  const double ff = two_pass_f(uf);
  const double fr = two_pass_f(ur);
  const double dff = two_pass_df(uf);
  const double dfr = two_pass_df(ur);
  const double lam = model.lambda * (model.lref / l);
  const double clm = 1.0 + lam * (std::sqrt(vds * vds + eps * eps) - eps);
  const double dclm = lam * (vds / std::sqrt(vds * vds + eps * eps));
  MosEval e;
  e.id = ispec * (ff - fr) * clm;
  e.gm = ispec * (dff - dfr) / (n * vt) * clm;
  e.gds = ispec * (dfr / vt * clm + (ff - fr) * dclm);
  return e;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(EkvF, OnePassMatchesTwoPassFormulasBitForBit) {
  // The guard boundary u/2 = 30 and its neighbours, signed zeros, then a
  // seeded spread from deep cutoff to far past the guard.
  std::vector<double> us = {0.0, -0.0, 60.0, 1e-300, -1e-300, -800.0, 800.0};
  for (double edge : {60.0, -60.0}) {
    double below = edge, above = edge;
    for (int k = 0; k < 4; ++k) {
      below = std::nextafter(below, -1e9);
      above = std::nextafter(above, 1e9);
      us.push_back(below);
      us.push_back(above);
    }
  }
  Rng rng(20240611);
  for (int k = 0; k < 65536; ++k) us.push_back(rng.uniform(-120.0, 200.0));
  int past_guard = 0;
  for (double u : us) {
    const Ekv e = ekv(u);
    ASSERT_TRUE(same_bits(e.f, two_pass_f(u))) << "u=" << u;
    ASSERT_TRUE(same_bits(e.df, two_pass_df(u))) << "u=" << u;
    if (0.5 * u > 30.0) ++past_guard;
  }
  EXPECT_GT(past_guard, 1000);
}

TEST(MosEval, OnePassMatchesTwoPassFormulasBitForBit) {
  MosModel m = test_model();
  Rng rng(77);
  int strong = 0, zero_vds = 0, negative_vds = 0;
  for (int k = 0; k < 65536; ++k) {
    // vgs up to 3.5 V puts u/2 past the overflow guard on both ends; every
    // eighth point sits at vds = +-0 exactly.
    const double vgs = rng.uniform(-1.0, 3.5);
    double vds = rng.uniform(-1.2, 1.2);
    if (k % 8 == 0) vds = k % 16 == 0 ? 0.0 : -0.0;
    const double w = rng.uniform(0.1e-6, 5e-6);
    const double l = rng.uniform(14e-9, 60e-9);
    const double dvth = rng.uniform(-0.05, 0.05);
    const double mu = rng.uniform(0.8, 1.2);
    m.lambda = rng.uniform(0.0, 0.3);
    const MosEval got = mos_eval(m, vgs, vds, w, l, dvth, mu);
    const MosEval want = two_pass_mos_eval(m, vgs, vds, w, l, dvth, mu);
    ASSERT_TRUE(same_bits(got.id, want.id)) << vgs << " " << vds;
    ASSERT_TRUE(same_bits(got.gm, want.gm)) << vgs << " " << vds;
    ASSERT_TRUE(same_bits(got.gds, want.gds)) << vgs << " " << vds;
    if (0.5 * (vgs - m.vth0 - dvth) / (m.nslope * m.vt_thermal) > 30.0) {
      ++strong;
    }
    if (vds == 0.0) ++zero_vds;
    if (vds < 0.0) ++negative_vds;
  }
  EXPECT_GT(strong, 1000);
  EXPECT_GT(zero_vds, 1000);
  EXPECT_GT(negative_vds, 10000);
}

TEST(MosEval, SimulatorSignMappingMatchesTwoPassFormulasBitForBit) {
  // The simulator evaluates a PMOS with negated vgs/vds and negates the
  // current back; NMOS passes the voltages through. Node voltages come
  // from the solution vector the simulator is handed.
  Circuit c;
  MosModel nm = test_model();
  MosModel pm = test_model();
  pm.name = "pfet";
  pm.type = MosType::kPmos;
  const int nmi = c.add_model(nm);
  const int pmi = c.add_model(pm);
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  const NodeId s = c.node("s");
  Mosfet mn;
  mn.name = "mn";
  mn.d = d;
  mn.g = g;
  mn.s = s;
  mn.model = nmi;
  mn.delta_vth = 0.01;
  mn.mobility_mult = 0.95;
  c.add_mosfet(mn);
  Mosfet mp = mn;
  mp.name = "mp";
  mp.model = pmi;
  mp.w = 1.3e-6;
  c.add_mosfet(mp);
  const Simulator sim(c);

  Rng rng(5);
  std::vector<double> x(static_cast<std::size_t>(c.unknown_count()));
  auto v = [&x](NodeId node) -> double& {
    return x[static_cast<std::size_t>(node - 1)];
  };
  for (int k = 0; k < 4096; ++k) {
    for (double& xi : x) xi = rng.uniform(-3.0, 3.0);
    if (k % 4 == 0) v(d) = v(s);  // vds = 0
    const std::vector<MosOperatingPoint> ops = sim.mos_operating_points(x);
    ASSERT_EQ(ops.size(), 2u);
    const double vgs = v(g) - v(s);
    const double vds = v(d) - v(s);
    const Mosfet* devs[] = {&mn, &mp};
    for (int i = 0; i < 2; ++i) {
      const Mosfet& dev = *devs[i];
      const double sigma = i == 0 ? 1.0 : -1.0;
      const MosEval want =
          two_pass_mos_eval(i == 0 ? nm : pm, sigma * vgs, sigma * vds, dev.w,
                            dev.l, dev.delta_vth, dev.mobility_mult);
      const MosOperatingPoint& got = ops[static_cast<std::size_t>(i)];
      ASSERT_TRUE(same_bits(got.id, sigma * want.id)) << i << " " << k;
      ASSERT_TRUE(same_bits(got.gm, want.gm)) << i << " " << k;
      ASSERT_TRUE(same_bits(got.gds, want.gds)) << i << " " << k;
    }
  }
}

TEST(MosEval, CutoffCurrentIsTiny) {
  const MosEval e = mos_eval(test_model(), 0.0, 0.4, kW, kL, 0.0, 1.0);
  EXPECT_GT(e.id, 0.0);  // subthreshold leakage exists
  EXPECT_LT(e.id, 1e-6);
}

TEST(MosEval, SaturationCurrentScalesWithWidth) {
  const MosEval e1 = mos_eval(test_model(), 0.6, 0.5, kW, kL, 0.0, 1.0);
  const MosEval e2 = mos_eval(test_model(), 0.6, 0.5, 2 * kW, kL, 0.0, 1.0);
  EXPECT_NEAR(e2.id / e1.id, 2.0, 1e-9);
}

TEST(MosEval, ZeroVdsGivesZeroCurrent) {
  const MosEval e = mos_eval(test_model(), 0.6, 0.0, kW, kL, 0.0, 1.0);
  EXPECT_NEAR(e.id, 0.0, 1e-15);
}

TEST(MosEval, ReverseVdsFlipsSign) {
  const MosEval fwd = mos_eval(test_model(), 0.6, 0.05, kW, kL, 0.0, 1.0);
  // With vds negated AND vgs referenced to the new source (old drain), the
  // device is exactly mirrored; at small vds the simple negation is nearly
  // symmetric already.
  const MosEval rev = mos_eval(test_model(), 0.6, -0.05, kW, kL, 0.0, 1.0);
  EXPECT_GT(fwd.id, 0.0);
  EXPECT_LT(rev.id, 0.0);
}

TEST(MosEval, PositiveVthShiftReducesCurrent) {
  const MosEval base = mos_eval(test_model(), 0.5, 0.4, kW, kL, 0.0, 1.0);
  const MosEval shifted =
      mos_eval(test_model(), 0.5, 0.4, kW, kL, 20e-3, 1.0);
  EXPECT_LT(shifted.id, base.id);
  // ~ gm * dVth to first order.
  EXPECT_NEAR(base.id - shifted.id, base.gm * 20e-3,
              0.1 * base.gm * 20e-3);
}

TEST(MosEval, MobilityMultiplierScalesCurrent) {
  const MosEval base = mos_eval(test_model(), 0.5, 0.4, kW, kL, 0.0, 1.0);
  const MosEval deg = mos_eval(test_model(), 0.5, 0.4, kW, kL, 0.0, 0.9);
  EXPECT_NEAR(deg.id / base.id, 0.9, 1e-9);
}

TEST(MosEval, ChannelLengthModulationRaisesCurrentWithVds) {
  const MosEval a = mos_eval(test_model(), 0.6, 0.4, kW, kL, 0.0, 1.0);
  const MosEval b = mos_eval(test_model(), 0.6, 0.6, kW, kL, 0.0, 1.0);
  EXPECT_GT(b.id, a.id);
  EXPECT_GT(a.gds, 0.0);
}

TEST(MosEval, LongerChannelReducesLambdaEffect) {
  const MosEval short_l = mos_eval(test_model(), 0.6, 0.5, kW, kL, 0.0, 1.0);
  const MosEval long_l =
      mos_eval(test_model(), 0.6, 0.5, kW, 4 * kL, 0.0, 1.0);
  // Normalized output conductance gds/id falls with length.
  EXPECT_LT(long_l.gds / long_l.id, short_l.gds / short_l.id);
}

TEST(MosEval, InvalidGeometryThrows) {
  EXPECT_THROW(mos_eval(test_model(), 0.5, 0.5, 0.0, kL, 0, 1),
               InvalidArgumentError);
  EXPECT_THROW(mos_eval(test_model(), 0.5, 0.5, kW, -1e-9, 0, 1),
               InvalidArgumentError);
}

// Property sweep: analytic gm/gds match finite differences over a bias grid.
struct BiasPoint {
  double vgs;
  double vds;
};

class MosDerivatives : public ::testing::TestWithParam<BiasPoint> {};

TEST_P(MosDerivatives, GmMatchesFiniteDifference) {
  const auto [vgs, vds] = GetParam();
  const MosModel m = test_model();
  const double h = 1e-7;
  const MosEval e = mos_eval(m, vgs, vds, kW, kL, 0.0, 1.0);
  const double fd_gm = (mos_eval(m, vgs + h, vds, kW, kL, 0, 1).id -
                        mos_eval(m, vgs - h, vds, kW, kL, 0, 1).id) /
                       (2 * h);
  EXPECT_NEAR(e.gm, fd_gm, 1e-5 * std::max(std::fabs(fd_gm), 1e-9))
      << "vgs=" << vgs << " vds=" << vds;
}

TEST_P(MosDerivatives, GdsMatchesFiniteDifference) {
  const auto [vgs, vds] = GetParam();
  const MosModel m = test_model();
  const double h = 1e-7;
  const MosEval e = mos_eval(m, vgs, vds, kW, kL, 0.0, 1.0);
  const double fd_gds = (mos_eval(m, vgs, vds + h, kW, kL, 0, 1).id -
                         mos_eval(m, vgs, vds - h, kW, kL, 0, 1).id) /
                        (2 * h);
  EXPECT_NEAR(e.gds, fd_gds, 2e-4 * std::max(std::fabs(fd_gds), 1e-9))
      << "vgs=" << vgs << " vds=" << vds;
}

INSTANTIATE_TEST_SUITE_P(
    BiasGrid, MosDerivatives,
    ::testing::Values(BiasPoint{0.1, 0.05}, BiasPoint{0.1, 0.5},
                      BiasPoint{0.3, 0.02}, BiasPoint{0.3, 0.3},
                      BiasPoint{0.45, 0.1}, BiasPoint{0.45, 0.7},
                      BiasPoint{0.6, 0.05}, BiasPoint{0.6, 0.4},
                      BiasPoint{0.8, 0.8}, BiasPoint{0.5, -0.2},
                      BiasPoint{0.7, -0.05}));

// Property: Id is continuous and increasing in vgs at fixed vds.
class MosMonotone : public ::testing::TestWithParam<double> {};

TEST_P(MosMonotone, CurrentIncreasesWithVgs) {
  const double vds = GetParam();
  const MosModel m = test_model();
  double prev = mos_eval(m, -0.2, vds, kW, kL, 0, 1).id;
  for (double vgs = -0.18; vgs <= 0.9; vgs += 0.02) {
    const double id = mos_eval(m, vgs, vds, kW, kL, 0, 1).id;
    EXPECT_GE(id, prev) << "vgs=" << vgs << " vds=" << vds;
    prev = id;
  }
}

INSTANTIATE_TEST_SUITE_P(VdsGrid, MosMonotone,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4, 0.8));

}  // namespace
}  // namespace olp::spice
