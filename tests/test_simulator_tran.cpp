// Transient analysis tests: RC step responses against the analytic solution,
// integration-method behavior, initial conditions, and the time-domain
// measurement helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "circuits/common.hpp"
#include "circuits/vco.hpp"
#include "dense_lu_oracle.hpp"
#include "spice/measure.hpp"
#include "spice/simulator.hpp"
#include "tech/technology.hpp"

namespace olp::spice {
namespace {

/// RC charging circuit: step source, tau = 1 ns.
Circuit rc_step(double r = 1e3, double c_val = 1e-12) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround,
                Waveform::pulse(0.0, 1.0, 0.1e-9, 1e-12, 1e-12, 100e-9,
                                200e-9));
  c.add_resistor("r", in, out, r);
  c.add_capacitor("c", out, kGround, c_val);
  return c;
}

TEST(Tran, RcStepMatchesAnalytic) {
  const Circuit c = rc_step();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 5e-9;
  tr.dt = 5e-12;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  const std::vector<double> v = tran_waveform(sim, res, c.find_node("out"));
  for (std::size_t k = 0; k < res.times.size(); ++k) {
    const double t = res.times[k] - 0.1e-9;  // step delay
    const double expected = t < 0 ? 0.0 : 1.0 - std::exp(-t / 1e-9);
    EXPECT_NEAR(v[k], expected, 0.01) << "t=" << res.times[k];
  }
}

TEST(Tran, BackwardEulerAlsoTracksAnalytic) {
  const Circuit c = rc_step();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 4e-9;
  tr.dt = 2e-12;
  tr.backward_euler = true;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  const std::vector<double> v = tran_waveform(sim, res, c.find_node("out"));
  const double t_end = res.times.back() - 0.1e-9;
  EXPECT_NEAR(v.back(), 1.0 - std::exp(-t_end / 1e-9), 0.02);
}

TEST(Tran, TrapezoidalIsMoreAccurateThanEulerAtCoarseStep) {
  // Clean exponential via an initial condition (no sub-step source edges).
  auto error_at_tau = [&](bool be) {
    Circuit c;
    const NodeId in = c.node("in");
    const NodeId out = c.node("out");
    c.add_vsource("vin", in, kGround, Waveform::dc(1.0));
    c.add_resistor("r", in, out, 1e3);
    c.add_capacitor("c", out, kGround, 1e-12);
    c.set_initial_condition(out, 0.0);
    Simulator sim(c);
    TranOptions tr;
    tr.tstop = 1e-9;  // exactly one tau
    tr.dt = 100e-12;  // coarse: 10 steps
    tr.backward_euler = be;
    const TranResult res = sim.tran(tr);
    const std::vector<double> v = tran_waveform(sim, res, out);
    return std::fabs(v.back() - (1.0 - std::exp(-1.0)));
  };
  EXPECT_LT(error_at_tau(false), error_at_tau(true));
}

TEST(Tran, StartsFromOperatingPoint) {
  // DC-settled divider: transient from the OP shows no startup transient.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround, Waveform::dc(1.0));
  c.add_resistor("r1", in, out, 1e3);
  c.add_resistor("r2", out, kGround, 1e3);
  c.add_capacitor("c1", out, kGround, 1e-12);
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 2e-9;
  tr.dt = 10e-12;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  const std::vector<double> v = tran_waveform(sim, res, out);
  for (double x : v) EXPECT_NEAR(x, 0.5, 1e-6);
}

TEST(Tran, NodeInitialConditionOverridesOp) {
  Circuit c;
  const NodeId out = c.node("out");
  c.add_resistor("r", out, kGround, 1e3);
  c.add_capacitor("c", out, kGround, 1e-12);
  c.set_initial_condition(out, 1.0);
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 5e-9;
  tr.dt = 10e-12;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  const std::vector<double> v = tran_waveform(sim, res, out);
  EXPECT_NEAR(v.front(), 1.0, 1e-9);
  // Discharges with tau = 1 ns.
  EXPECT_NEAR(v.back(), 0.0, 0.02);
  // Roughly e^-1 after one tau.
  for (std::size_t k = 0; k < res.times.size(); ++k) {
    if (std::fabs(res.times[k] - 1e-9) < 6e-12) {
      EXPECT_NEAR(v[k], std::exp(-1.0), 0.02);
    }
  }
}

TEST(Tran, InverterSwitches) {
  Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const int pm = c.add_model(circuits::default_pmos());
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vs", vdd, kGround, Waveform::dc(0.8));
  c.add_vsource("vi", in, kGround,
                Waveform::pulse(0.0, 0.8, 0.2e-9, 20e-12, 20e-12, 1e-9,
                                2e-9));
  Mosfet mn;
  mn.name = "mn";
  mn.d = out;
  mn.g = in;
  mn.s = kGround;
  mn.b = kGround;
  mn.model = nm;
  mn.w = 1e-6;
  mn.l = 14e-9;
  c.add_mosfet(mn);
  Mosfet mp = mn;
  mp.name = "mp";
  mp.s = vdd;
  mp.b = vdd;
  mp.model = pm;
  mp.w = 1.2e-6;
  c.add_mosfet(mp);
  c.add_capacitor("cl", out, kGround, 5e-15);

  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 1e-12;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  const std::vector<double> vi = tran_waveform(sim, res, in);
  const std::vector<double> vo = tran_waveform(sim, res, out);
  EXPECT_GT(vo.front(), 0.75);  // input low -> output high
  EXPECT_LT(vo.back(), 0.05);   // input high -> output low
  const auto delay =
      delay_between(res.times, vi, 0.4, true, vo, 0.4, false);
  ASSERT_TRUE(delay.has_value());
  EXPECT_GT(*delay, 0.0);
  EXPECT_LT(*delay, 100e-12);
}

TEST(Tran, RecordStrideThinsSamples) {
  const Circuit c = rc_step();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 2e-9;
  tr.dt = 10e-12;
  tr.record_stride = 4;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  EXPECT_LT(res.samples.size(), 60u);
}

TEST(Tran, RejectsBadOptions) {
  const Circuit c = rc_step();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 0.0;
  EXPECT_THROW(sim.tran(tr), InvalidArgumentError);
}

TEST(Tran, RejectsNonPositiveRecordStride) {
  // A stride of zero used to divide by zero once the first step was taken.
  Circuit c;
  const NodeId out = c.node("out");
  c.add_resistor("r", out, kGround, 1e3);
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 1e-10;
  for (int stride : {0, -1}) {
    tr.record_stride = stride;
    EXPECT_THROW(sim.tran(tr), InvalidArgumentError) << stride;
  }
  tr.record_stride = 1;
  EXPECT_TRUE(sim.tran(tr).ok);
}

TEST(TranAssembly, VcoRingStepSystemsMatchDenseOracle) {
  // The Table VII ring (8 stages, extracted primitives) from its t=0 state:
  // the Newton iterations of its first backward-Euler steps, with the
  // transient's stamping and damped update, each system factored by one
  // solver (pivoting, then replays) and by the dense oracle.
  const tech::Technology t = tech::make_default_finfet_tech();
  circuits::RoVco vco(t);
  ASSERT_TRUE(vco.prepare());
  circuits::Realization real =
      circuits::schematic_realization(vco.instances(), t);
  real.ideal = false;
  const Circuit ckt = vco.build(real, 0.5);
  const Simulator sim(ckt);
  const linalg::SparsePattern& p = sim.pattern();
  EXPECT_GT(p.size(), 100);
  EXPECT_LT(p.nnz(), p.size() * p.size() / 20);  // under 5% dense

  std::vector<double> x_prev = sim.op().x;
  for (const auto& [node, v] : ckt.initial_conditions()) {
    x_prev[static_cast<std::size_t>(node - 1)] = v;
  }
  const int nn = ckt.node_count() - 1;
  const double h = 1e-12;
  linalg::SparseLu<double> lu(p);
  int solves = 0;
  for (int step = 1; step <= 3; ++step) {
    std::vector<double> x = x_prev;
    bool converged = false;
    for (int iter = 0; iter < 80 && !converged; ++iter) {
      const MnaSystem sys = sim.tran_system(x_prev, x, step * h, h);
      std::vector<double> dense_x, sparse_x;
      ASSERT_TRUE(linalg::oracle::solve(
          linalg::oracle::to_dense(p, sys.values), sys.rhs, dense_x));
      ASSERT_TRUE(lu.factor(sys.values));
      lu.solve(sys.rhs, sparse_x);
      ++solves;
      ASSERT_EQ(sparse_x, dense_x) << "step " << step << " iteration " << iter;
      EXPECT_EQ(0, std::memcmp(sparse_x.data(), dense_x.data(),
                               dense_x.size() * sizeof(double)));
      converged = iter > 0;
      for (std::size_t k = 0; k < x.size(); ++k) {
        double delta = dense_x[k] - x[k];
        if (static_cast<int>(k) < nn) {
          delta = std::clamp(delta, -0.5, 0.5);
          if (std::fabs(delta) > 1e-7 + 1e-5 * std::fabs(x[k])) {
            converged = false;
          }
        }
        x[k] += delta;
      }
    }
    ASSERT_TRUE(converged) << "step " << step;
    x_prev = x;
  }
  EXPECT_EQ(lu.counts().factor + lu.counts().replay, solves);
  EXPECT_GT(lu.counts().replay, lu.counts().factor);
}

TEST(TranAssembly, OscillatingRingRejectedReplaysMatchDenseOracle) {
  // The same ring oscillating at Vctrl = 0.5 V: as the wave travels round
  // the ring its devices switch, the pivot order changes and replays are
  // rejected part-way, so the solver resumes its pivot search at many
  // different steps. Each system is one backward-Euler step between two
  // consecutive samples of the transient itself.
  const tech::Technology t = tech::make_default_finfet_tech();
  circuits::RoVco vco(t);
  ASSERT_TRUE(vco.prepare());
  circuits::Realization real =
      circuits::schematic_realization(vco.instances(), t);
  real.ideal = false;
  const Circuit ckt = vco.build(real, 0.5);
  const Simulator sim(ckt);
  TranOptions tr;
  tr.dt = 1e-12;
  tr.tstop = 60e-12;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.samples.size(), 61u);

  const linalg::SparsePattern& p = sim.pattern();
  linalg::SparseLu<double> lu(p);
  for (std::size_t k = 1; k < res.samples.size(); ++k) {
    const MnaSystem sys = sim.tran_system(res.samples[k - 1], res.samples[k],
                                          res.times[k], tr.dt);
    std::vector<double> dense_x, sparse_x;
    ASSERT_TRUE(linalg::oracle::solve(linalg::oracle::to_dense(p, sys.values),
                                      sys.rhs, dense_x));
    ASSERT_TRUE(lu.factor(sys.values)) << "sample " << k;
    lu.solve(sys.rhs, sparse_x);
    ASSERT_EQ(sparse_x.size(), dense_x.size());
    ASSERT_EQ(0, std::memcmp(sparse_x.data(), dense_x.data(),
                             dense_x.size() * sizeof(double)))
        << "sample " << k;
  }
  EXPECT_EQ(lu.counts().factor, 1 + lu.counts().repivot);
  EXPECT_GT(lu.counts().repivot, 10);
  EXPECT_GT(lu.counts().rejoin, 10);
  EXPECT_GT(lu.counts().replay, 0);
}

// --- time-domain measurement helpers ----------------------------------------

TEST(Measure, CrossingTimesOfSine) {
  std::vector<double> times, wave;
  for (int k = 0; k <= 1000; ++k) {
    const double t = k * 1e-11;
    times.push_back(t);
    wave.push_back(std::sin(2 * M_PI * 1e9 * t));  // 1 GHz
  }
  const std::vector<double> rising = crossing_times(times, wave, 0.0, true);
  ASSERT_GE(rising.size(), 9u);
  for (std::size_t k = 1; k < rising.size(); ++k) {
    EXPECT_NEAR(rising[k] - rising[k - 1], 1e-9, 1e-11);
  }
}

TEST(Measure, OscillationFrequencyOfSine) {
  std::vector<double> times, wave;
  for (int k = 0; k <= 2000; ++k) {
    const double t = k * 5e-12;
    times.push_back(t);
    wave.push_back(0.4 + 0.4 * std::sin(2 * M_PI * 2e9 * t));
  }
  const auto f = oscillation_frequency(times, wave, 0.4, 5);
  ASSERT_TRUE(f.has_value());
  EXPECT_NEAR(*f, 2e9, 1e7);
}

TEST(Measure, OscillationFrequencyNeedsEnoughPeriods) {
  std::vector<double> times = {0, 1e-9, 2e-9};
  std::vector<double> wave = {0, 1, 0};
  EXPECT_FALSE(oscillation_frequency(times, wave, 0.5, 5).has_value());
}

TEST(Measure, TimeAverage) {
  const std::vector<double> times = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> wave = {0.0, 2.0, 2.0, 0.0};
  // Trapezoids: 1 + 2 + 1 = 4 over span 3.
  EXPECT_NEAR(time_average(times, wave, 0.0, 3.0), 4.0 / 3.0, 1e-12);
  // Sub-window [1,2] is flat at 2.
  EXPECT_NEAR(time_average(times, wave, 1.0, 2.0), 2.0, 1e-12);
}

TEST(Measure, SupplyPowerOfResistor) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("vdd", a, kGround, Waveform::dc(1.0));
  c.add_resistor("r", a, kGround, 1e3);
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 10e-12;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  EXPECT_NEAR(average_supply_power(sim, res, "vdd", 0.0, 1e-9), 1e-3, 1e-9);
}

}  // namespace
}  // namespace olp::spice
