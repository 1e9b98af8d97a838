// Transient analysis tests: RC step responses against the analytic solution,
// integration-method behavior, initial conditions, and the time-domain
// measurement helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "circuits/common.hpp"
#include "circuits/vco.hpp"
#include "dense_lu_oracle.hpp"
#include "spice/export.hpp"
#include "spice/measure.hpp"
#include "spice/simulator.hpp"
#include "tech/technology.hpp"
#include "util/faults.hpp"
#include "util/obs.hpp"

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

/// CMOS inverter driven by a 0 -> 0.8 V pulse at 0.2 ns, 5 fF load.
Circuit pulsed_inverter() {
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
  return c;
}

TEST(Tran, InverterSwitches) {
  const Circuit c = pulsed_inverter();
  const NodeId in = c.find_node("in");
  const NodeId out = c.find_node("out");
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

/// Every time and sample of `part` is bit-identical to the first ones of
/// `full`.
void expect_prefix_of(const TranResult& part, const TranResult& full) {
  ASSERT_LE(part.samples.size(), full.samples.size());
  ASSERT_EQ(part.times.size(), part.samples.size());
  for (std::size_t k = 0; k < part.samples.size(); ++k) {
    ASSERT_EQ(std::memcmp(&part.times[k], &full.times[k], sizeof(double)), 0)
        << "sample " << k;
    ASSERT_EQ(part.samples[k].size(), full.samples[k].size());
    ASSERT_EQ(std::memcmp(part.samples[k].data(), full.samples[k].data(),
                          full.samples[k].size() * sizeof(double)),
              0)
        << "sample " << k;
  }
}

/// The inverter's input-rise to output-fall delay at mid-rail.
std::optional<double> inverter_delay(const Simulator& sim,
                                     const TranResult& res) {
  const Circuit& c = sim.circuit();
  return delay_between(res.times, tran_waveform(sim, res, c.find_node("in")),
                       0.4, true, tran_waveform(sim, res, c.find_node("out")),
                       0.4, false);
}

TEST(Tran, DelayStopEndsAtTheDecidingSample) {
  const Circuit c = pulsed_inverter();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 1e-12;
  const TranResult full = sim.tran(tr);
  tr.stop = delay_decided_stop(sim, c.find_node("in"), 0.4, true,
                               c.find_node("out"), 0.4, false);
  obs::Registry::global().enable();
  const TranResult stopped = sim.tran(tr);
  obs::Registry::global().disable();
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  ASSERT_TRUE(full.ok);
  ASSERT_TRUE(stopped.ok);
  // The input rises through 0.4 V at 0.21 ns; the output follows within
  // 100 ps, well before the 1 ns window ends.
  EXPECT_LT(stopped.samples.size(), full.samples.size() / 2);
  expect_prefix_of(stopped, full);
  const std::optional<double> d_full = inverter_delay(sim, full);
  const std::optional<double> d_stopped = inverter_delay(sim, stopped);
  ASSERT_TRUE(d_full && d_stopped);
  EXPECT_EQ(std::memcmp(&*d_full, &*d_stopped, sizeof(double)), 0);
  // The previous prefix had no delay yet.
  TranResult shorter = stopped;
  shorter.times.pop_back();
  shorter.samples.pop_back();
  EXPECT_FALSE(inverter_delay(sim, shorter).has_value());
  EXPECT_EQ(snap.counter("sim.tran.stopped"), 1);
  EXPECT_EQ(snap.counter("sim.tran.attempts"), 1);
  EXPECT_EQ(snap.counter("sim.tran.steps"),
            static_cast<long>(stopped.samples.size()) - 1);
}

TEST(Tran, StopThatNeverFiresRunsTheWholeWindow) {
  const Circuit c = pulsed_inverter();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 1e-12;
  const TranResult full = sim.tran(tr);
  int calls = 0;
  tr.stop = [&calls](const TranResult&) {
    ++calls;
    return false;
  };
  obs::Registry::global().enable();
  const TranResult never = sim.tran(tr);
  obs::Registry::global().disable();
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  ASSERT_TRUE(never.ok);
  ASSERT_EQ(never.samples.size(), full.samples.size());
  expect_prefix_of(never, full);
  // Checked after every recorded sample but the one at t = 0.
  EXPECT_EQ(calls, static_cast<int>(full.samples.size()) - 1);
  EXPECT_EQ(snap.counter("sim.tran.stopped"), 0);
  EXPECT_EQ(snap.counter("sim.tran.steps"),
            static_cast<long>(full.samples.size()) - 1);
}

TEST(Tran, RetryAfterInjectedFailureStopsToo) {
  // The first attempt fails by injection; the backward-Euler retry at half
  // the step must stop at its own deciding sample, and match an unstopped
  // run of the retry's settings up to there.
  const Circuit c = pulsed_inverter();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 1e-12;
  tr.stop = delay_decided_stop(sim, c.find_node("in"), 0.4, true,
                               c.find_node("out"), 0.4, false);
  FaultConfig config;
  config.tran_rate = 1.0;
  config.max_total_fires = 1;
  TranResult retried;
  obs::Registry::global().enable();
  {
    ScopedFaultInjection chaos(config);
    retried = sim.tran(tr);
  }
  obs::Registry::global().disable();
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  EXPECT_EQ(FaultInjector::global().fired(FaultSite::kTranNonConvergence), 1);
  EXPECT_EQ(snap.counter("sim.tran.retries"), 1);
  EXPECT_EQ(snap.counter("sim.tran.stopped"), 1);
  ASSERT_TRUE(retried.ok);

  TranOptions be;
  be.tstop = 1e-9;
  be.dt = 0.5e-12;
  be.backward_euler = true;
  be.max_retries = 0;
  const TranResult full = sim.tran(be);
  ASSERT_TRUE(full.ok);
  EXPECT_LT(retried.samples.size(), full.samples.size() / 2);
  expect_prefix_of(retried, full);
  const std::optional<double> d_full = inverter_delay(sim, full);
  const std::optional<double> d_retried = inverter_delay(sim, retried);
  ASSERT_TRUE(d_full && d_retried);
  EXPECT_EQ(std::memcmp(&*d_full, &*d_retried, sizeof(double)), 0);
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

// --- probed recording --------------------------------------------------------

/// Whether two waveforms are equal bit for bit.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(TranProbes, ProbedTracesEqualTheColumnsOfAFullRecording) {
  const Circuit c = pulsed_inverter();
  const NodeId in = c.find_node("in");
  const NodeId out = c.find_node("out");
  Simulator sim(c);
  for (const int stride : {1, 3}) {
    TranOptions tr;
    tr.tstop = 1e-9;
    tr.dt = 1e-12;
    tr.record_stride = stride;
    const TranResult full = sim.tran(tr);
    tr.probes = {out, in};
    const TranResult probed = sim.tran(tr);
    ASSERT_TRUE(full.ok && probed.ok);
    EXPECT_FALSE(full.probed());
    ASSERT_TRUE(probed.probed());
    EXPECT_EQ(probed.probes, (std::vector<NodeId>{out, in}));
    EXPECT_TRUE(probed.samples.empty());
    EXPECT_TRUE(same_bits(probed.times, full.times)) << stride;
    EXPECT_TRUE(same_bits(probed.trace(out), tran_waveform(sim, full, out)));
    EXPECT_TRUE(same_bits(probed.trace(in), tran_waveform(sim, full, in)));
    EXPECT_TRUE(same_bits(tran_waveform(sim, probed, out),
                          tran_waveform(sim, full, out)));
    EXPECT_TRUE(same_bits(tran_waveform(sim, probed, kGround),
                          tran_waveform(sim, full, kGround)));
    EXPECT_EQ(tran_to_csv(sim, probed, {"in", "out"}),
              tran_to_csv(sim, full, {"in", "out"}));
  }
}

TEST(TranProbes, DelayStopReadsAProbedRecording) {
  const Circuit c = pulsed_inverter();
  const NodeId in = c.find_node("in");
  const NodeId out = c.find_node("out");
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 1e-12;
  tr.stop = delay_decided_stop(sim, in, 0.4, true, out, 0.4, false);
  const TranResult full = sim.tran(tr);
  tr.probes = {in, out};
  const TranResult probed = sim.tran(tr);
  ASSERT_TRUE(full.ok && probed.ok);
  EXPECT_LT(probed.times.size(), 500u);
  EXPECT_TRUE(same_bits(probed.times, full.times));
  const auto d_full = inverter_delay(sim, full);
  const auto d_probed = inverter_delay(sim, probed);
  ASSERT_TRUE(d_full && d_probed);
  EXPECT_EQ(std::memcmp(&*d_full, &*d_probed, sizeof(double)), 0);

  // A stop over a node the run does not record is refused, not misread.
  tr.probes = {in};
  EXPECT_THROW(sim.tran(tr), InvalidArgumentError);
}

TEST(TranProbes, ReadersOfWhatAProbedResultLacksRejectIt) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_vsource("vdd", a, kGround, Waveform::dc(1.0));
  c.add_resistor("r1", a, b, 1e3);
  c.add_resistor("r2", b, kGround, 1e3);
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 10e-12;
  tr.probes = {b};
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  EXPECT_NEAR(res.trace(b).back(), 0.5, 1e-9);
  EXPECT_THROW(res.trace(a), InvalidArgumentError);
  EXPECT_THROW(tran_waveform(sim, res, a), InvalidArgumentError);
  EXPECT_THROW(tran_source_current(sim, res, "vdd"), InvalidArgumentError);
  EXPECT_THROW(average_supply_power(sim, res, "vdd", 0.0, 1e-9),
               InvalidArgumentError);
  const TranResult full = sim.tran(TranOptions{tr.tstop, tr.dt});
  EXPECT_THROW(full.trace(b), InvalidArgumentError);

  for (const NodeId bad : {kGround, NodeId{3}}) {
    tr.probes = {bad};
    EXPECT_THROW(sim.tran(tr), InvalidArgumentError) << bad;
  }
}

TEST(TranProbes, InjectedFailureKeepsTheProbedShape) {
  Circuit c = rc_step();
  const NodeId out = c.find_node("out");
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 10e-12;
  tr.max_retries = 0;
  tr.probes = {out};
  FaultConfig config;
  config.tran_rate = 1.0;
  TranResult res;
  {
    ScopedFaultInjection chaos(config);
    res = sim.tran(tr);
  }
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.samples.empty());
  ASSERT_EQ(res.traces.size(), 1u);
  EXPECT_EQ(res.traces[0].size(), res.times.size());
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
