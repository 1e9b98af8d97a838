// DC operating-point tests: linear networks with exact answers, controlled
// sources, MOSFET bias points against hand analysis, and solver robustness.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "circuits/common.hpp"
#include "dense_lu_oracle.hpp"
#include "spice/parser.hpp"
#include "spice/simulator.hpp"
#include "util/obs.hpp"

namespace olp::spice {
namespace {

TEST(DcOp, ResistorDivider) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.add_vsource("v1", in, kGround, Waveform::dc(1.0));
  c.add_resistor("r1", in, mid, 1e3);
  c.add_resistor("r2", mid, kGround, 3e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, mid), 0.75, 1e-9);
  // Branch current flows p->n inside the source: the supply sources current,
  // so the branch current is negative (out of the + terminal externally).
  EXPECT_NEAR(sim.vsource_current(op.x, "v1"), -1.0 / 4e3, 1e-9);
}

TEST(DcOp, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add_isource("i1", kGround, n, Waveform::dc(1e-3));  // pushes into n
  c.add_resistor("r1", n, kGround, 2e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, n), 2.0, 1e-6);
}

TEST(DcOp, SeriesResistorsKirchhoff) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId d = c.node("d");
  c.add_vsource("v1", a, kGround, Waveform::dc(3.0));
  c.add_resistor("r1", a, b, 1e3);
  c.add_resistor("r2", b, d, 1e3);
  c.add_resistor("r3", d, kGround, 1e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, b), 2.0, 1e-6);
  EXPECT_NEAR(sim.voltage(op.x, d), 1.0, 1e-6);
}

TEST(DcOp, VcvsAmplifies) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(0.1));
  c.add_vcvs("e1", out, kGround, in, kGround, 10.0);
  c.add_resistor("rl", out, kGround, 1e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, out), 1.0, 1e-9);
}

TEST(DcOp, VccsSinksProportionalCurrent) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(0.5));
  c.add_vsource("v2", out, kGround, Waveform::dc(1.0));
  // i(out->gnd) = 1m * v(in): pulls 0.5 mA out of the out node, which the
  // clamp supplies (its p->n branch current is therefore negative).
  c.add_vccs("g1", out, kGround, in, kGround, 1e-3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.vsource_current(op.x, "v2"), -0.5e-3, 1e-9);
}

TEST(DcOp, TwoSourcesSuperpose) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add_isource("ia", kGround, n, Waveform::dc(1e-3));
  c.add_isource("ib", kGround, n, Waveform::dc(2e-3));
  c.add_resistor("r", n, kGround, 1e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, n), 3.0, 1e-6);
}

TEST(DcOp, DiodeConnectedMosfetSelfBiases) {
  Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const NodeId d = c.node("d");
  c.add_isource("ib", kGround, d, Waveform::dc(100e-6));
  Mosfet m;
  m.name = "m1";
  m.d = d;
  m.g = d;
  m.s = kGround;
  m.b = kGround;
  m.model = nm;
  m.w = 2e-6;
  m.l = 14e-9;
  c.add_mosfet(m);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  const double vgs = sim.voltage(op.x, d);
  // Self-biased diode lands a bit above threshold for this density.
  EXPECT_GT(vgs, 0.20);
  EXPECT_LT(vgs, 0.55);
  // Device current equals the bias current.
  const std::vector<MosOperatingPoint> ops = sim.mos_operating_points(op.x);
  EXPECT_NEAR(ops[0].id, 100e-6, 1e-9);
}

TEST(DcOp, NmosMirrorCopiesCurrent) {
  Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const NodeId ref = c.node("ref");
  const NodeId out = c.node("out");
  c.add_isource("ib", kGround, ref, Waveform::dc(50e-6));
  c.add_vsource("vo", out, kGround, Waveform::dc(0.4));
  for (int i = 0; i < 2; ++i) {
    Mosfet m;
    m.name = i == 0 ? "mref" : "mout";
    m.d = i == 0 ? ref : out;
    m.g = ref;
    m.s = kGround;
    m.b = kGround;
    m.model = nm;
    m.w = 2e-6;
    m.l = 14e-9;
    c.add_mosfet(m);
  }
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  const double iout = sim.vsource_current(op.x, "vo");
  // Mirror ratio within CLM error (Vds mismatch).
  EXPECT_NEAR(std::fabs(iout), 50e-6, 10e-6);
}

TEST(DcOp, PmosSourceFollowsSupply) {
  Circuit c;
  const int pm = c.add_model(circuits::default_pmos());
  const NodeId vdd = c.node("vdd");
  const NodeId out = c.node("out");
  c.add_vsource("vs", vdd, kGround, Waveform::dc(0.8));
  c.add_vsource("vg", c.node("g"), kGround, Waveform::dc(0.4));
  Mosfet m;
  m.name = "mp";
  m.d = out;
  m.g = c.node("g");
  m.s = vdd;
  m.b = vdd;
  m.model = pm;
  m.w = 2e-6;
  m.l = 14e-9;
  c.add_mosfet(m);
  c.add_resistor("rl", out, kGround, 10e3);
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  // PMOS with Vsg = 0.4 sources current; out rises above ground.
  EXPECT_GT(sim.voltage(op.x, out), 0.1);
}

TEST(DcOp, InverterTransferMidpoint) {
  Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const int pm = c.add_model(circuits::default_pmos());
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vs", vdd, kGround, Waveform::dc(0.8));
  c.add_vsource("vi", in, kGround, Waveform::dc(0.0));
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
  Mosfet mp;
  mp.name = "mp";
  mp.d = out;
  mp.g = in;
  mp.s = vdd;
  mp.b = vdd;
  mp.model = pm;
  mp.w = 1.2e-6;
  mp.l = 14e-9;
  c.add_mosfet(mp);

  Simulator sim(c);
  // Input low -> output high.
  OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_GT(sim.voltage(op.x, out), 0.75);
  // Input high -> output low (warm start from the previous solution).
  c.vsources()[1].wave = Waveform::dc(0.8);
  Simulator sim2(c);
  op = sim2.op();
  ASSERT_TRUE(op.converged);
  EXPECT_LT(sim2.voltage(op.x, out), 0.05);
}

TEST(DcOp, WarmStartConverges) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add_isource("i1", kGround, n, Waveform::dc(1e-3));
  c.add_resistor("r1", n, kGround, 1e3);
  Simulator sim(c);
  const OpResult first = sim.op();
  ASSERT_TRUE(first.converged);
  OpOptions warm;
  warm.initial_guess = first.x;
  const OpResult second = sim.op(warm);
  ASSERT_TRUE(second.converged);
  EXPECT_LE(second.iterations, first.iterations);
}

TEST(DcOp, FloatingNodeHandledByGmin) {
  // A node connected only to a capacitor has no DC path; the gmin floor must
  // keep the system solvable.
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId fl = c.node("floating");
  c.add_vsource("v1", a, kGround, Waveform::dc(1.0));
  c.add_resistor("r1", a, kGround, 1e3);
  c.add_capacitor("c1", fl, a, 1e-15);
  Simulator sim(c);
  const OpResult op = sim.op();
  EXPECT_TRUE(op.converged);
}

TEST(DcOp, RejectsMosfetOnUnknownNode) {
  // Terminal ids are checked once, when the simulator is built; device
  // evaluation then reads node voltages unchecked.
  for (NodeId bad : {-2, 3}) {
    Circuit c;
    const int nm = c.add_model(circuits::default_nmos());
    const NodeId d = c.node("d");
    const NodeId g = c.node("g");
    Mosfet m;
    m.name = "m1";
    m.d = d;
    m.g = g;
    m.s = bad;
    m.model = nm;
    c.add_mosfet(m);
    EXPECT_THROW(Simulator{c}, InvalidArgumentError) << bad;
  }
}

TEST(DcOp, ParsedNetlistMatchesProgrammatic) {
  const Circuit c = parse_netlist(R"(
V1 in 0 DC 2.0
R1 in mid 1k
R2 mid 0 1k
)");
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, c.find_node("mid")), 1.0, 1e-9);
}

/// A five-transistor OTA: NMOS tail mirror fed by iref, input pair, PMOS
/// mirror load, load capacitor.
Circuit five_transistor_ota() {
  Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const int pm = c.add_model(circuits::default_pmos());
  const NodeId vdd = c.node("vdd"), iref = c.node("iref"),
               tail = c.node("tail"), vip = c.node("vip"), vin = c.node("vin"),
               d1 = c.node("d1"), out = c.node("out");
  c.add_vsource("vdd_src", vdd, kGround, Waveform::dc(0.8));
  c.add_vsource("vip_src", vip, kGround, Waveform::dc(0.5), 0.5, 0.0);
  c.add_vsource("vin_src", vin, kGround, Waveform::dc(0.5), 0.5, M_PI);
  c.add_isource("iref_src", vdd, iref, Waveform::dc(100e-6));
  auto mos = [&](const char* name, NodeId d, NodeId g, NodeId s, NodeId b,
                 int model, double w) {
    Mosfet m;
    m.name = name;
    m.d = d, m.g = g, m.s = s, m.b = b;
    m.model = model;
    m.w = w;
    m.l = 14e-9;
    c.add_mosfet(m);
  };
  mos("mref", iref, iref, kGround, kGround, nm, 2e-6);
  mos("mtail", tail, iref, kGround, kGround, nm, 2e-6);
  mos("m1", d1, vip, tail, kGround, nm, 4e-6);
  mos("m2", out, vin, tail, kGround, nm, 4e-6);
  mos("m3", d1, d1, vdd, vdd, pm, 4e-6);
  mos("m4", out, d1, vdd, vdd, pm, 4e-6);
  c.add_capacitor("cl", out, kGround, 50e-15);
  return c;
}

TEST(DcAssembly, OtaNewtonSystemsMatchDenseOracle) {
  // op()'s Newton iterations on the OTA, replayed here through the same
  // stamping: every iterate's system, factored by one solver (pivoting
  // first, then replays), equals the dense oracle's solution bit for bit.
  const Circuit c = five_transistor_ota();
  const Simulator sim(c);
  const linalg::SparsePattern& p = sim.pattern();
  const int nn = c.node_count() - 1;
  std::vector<double> x(static_cast<std::size_t>(c.unknown_count()), 0.0);
  linalg::SparseLu<double> lu(p);
  for (int iter = 0; iter < 12; ++iter) {
    const MnaSystem sys = sim.dc_system(x, 1e-12);
    std::vector<double> dense_x, sparse_x;
    ASSERT_TRUE(linalg::oracle::solve(linalg::oracle::to_dense(p, sys.values),
                                      sys.rhs, dense_x));
    ASSERT_TRUE(lu.factor(sys.values));
    lu.solve(sys.rhs, sparse_x);
    ASSERT_EQ(sparse_x, dense_x) << "iteration " << iter;
    EXPECT_EQ(0, std::memcmp(sparse_x.data(), dense_x.data(),
                             dense_x.size() * sizeof(double)));
    // op()'s damped update.
    for (std::size_t k = 0; k < x.size(); ++k) {
      double delta = dense_x[k] - x[k];
      if (static_cast<int>(k) < nn) delta = std::clamp(delta, -0.3, 0.3);
      x[k] += delta;
    }
  }
  EXPECT_EQ(lu.counts().factor + lu.counts().replay, 12);
  EXPECT_GE(lu.counts().replay, 6);
  // The iteration reached op()'s answer.
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(x, c.find_node("out")),
              sim.voltage(op.x, c.find_node("out")), 1e-6);
}

TEST(DcAssembly, OpReportsFactorizationCounters) {
  const Circuit c = five_transistor_ota();
  const Simulator sim(c);
  obs::Registry::global().enable();
  const OpResult op = sim.op();
  const long factor = obs::Registry::global().counter("sim.lu.factor");
  const long replay = obs::Registry::global().counter("sim.lu.replay");
  const long repivot = obs::Registry::global().counter("sim.lu.repivot");
  obs::Registry::global().disable();
  ASSERT_TRUE(op.converged);
  // One solve per Newton iteration; the first records, the rest replay
  // unless a pivot changes.
  EXPECT_GE(factor, 1);
  EXPECT_EQ(factor + replay, op.iterations);
  EXPECT_EQ(factor, 1 + repivot);
}

TEST(SimStats, CountsOpRuns) {
  SimStats::global().reset();
  Circuit c;
  const NodeId n = c.node("n");
  c.add_resistor("r", n, kGround, 1e3);
  c.add_isource("i", kGround, n, Waveform::dc(1e-6));
  Simulator sim(c);
  (void)sim.op();
  (void)sim.op();
  EXPECT_EQ(SimStats::global().op_count, 2);
}

}  // namespace
}  // namespace olp::spice
