// Microbenchmarks (google-benchmark) for the substrate components: the
// sparse LU on assembled MNA systems, the circuit simulator's analyses, the
// primitive generator, the placer and the global router. These are the
// building blocks whose speed sets the flow runtimes reported in Table VIII.

#include <benchmark/benchmark.h>

#include "circuits/common.hpp"
#include "circuits/vco.hpp"
#include "core/evaluator.hpp"
#include "linalg/sparse_lu.hpp"
#include "pcell/generator.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "spice/measure.hpp"
#include "spice/model.hpp"
#include "spice/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace olp;

spice::Circuit make_dp_testbench(const tech::Technology& t) {
  const pcell::PrimitiveGenerator gen(t);
  pcell::LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 20;
  cfg.m = 6;
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg);
  spice::Circuit ckt;
  const int nm = ckt.add_model(circuits::default_nmos());
  const int pm = ckt.add_model(circuits::default_pmos());
  extract::AnnotateOptions opt;
  opt.nmos_model = nm;
  opt.pmos_model = pm;
  const auto ports = annotate_primitive(ckt, lay, t, "p.", opt);
  ckt.add_vsource("vga", ports.at("ga"), 0, spice::Waveform::dc(0.5), 1.0);
  ckt.add_vsource("vgb", ports.at("gb"), 0, spice::Waveform::dc(0.5));
  ckt.add_vsource("vda", ports.at("da"), 0, spice::Waveform::dc(0.5));
  ckt.add_vsource("vdb", ports.at("db"), 0, spice::Waveform::dc(0.5));
  ckt.add_isource("it", ports.at("s"), 0, spice::Waveform::dc(700e-6));
  return ckt;
}

/// The systems the simulator factors, assembled by its own stamping: the
/// RO-VCO ring's first transient step from its t=0 state (8 stages,
/// extracted primitives at the schematic sizes, Vctrl = 0.5 V), and the
/// diff-pair testbench's first op() iteration.
struct Assembled {
  linalg::SparsePattern pattern;
  spice::MnaSystem system;
};

Assembled assemble_vco_ring() {
  const tech::Technology t = tech::make_default_finfet_tech();
  circuits::RoVco vco(t);
  vco.prepare();
  circuits::Realization real =
      circuits::schematic_realization(vco.instances(), t);
  real.ideal = false;
  const spice::Circuit ckt = vco.build(real, 0.5);
  const spice::Simulator sim(ckt);
  std::vector<double> x = sim.op().x;
  for (const auto& [node, v] : ckt.initial_conditions()) {
    x[static_cast<std::size_t>(node - 1)] = v;
  }
  return {sim.pattern(), sim.tran_system(x, x, 1e-12, 1e-12)};
}

Assembled assemble_dp_testbench() {
  const tech::Technology t = tech::make_default_finfet_tech();
  const spice::Circuit ckt = make_dp_testbench(t);
  const spice::Simulator sim(ckt);
  const std::vector<double> x(static_cast<std::size_t>(ckt.unknown_count()),
                              0.0);
  return {sim.pattern(), sim.dc_system(x, 1e-12)};
}

const Assembled& assembled(int which) {
  static const Assembled vco = assemble_vco_ring();
  static const Assembled dp = assemble_dp_testbench();
  return which == 0 ? vco : dp;
}

void set_lu_labels(benchmark::State& state, const Assembled& a) {
  state.counters["n"] = a.pattern.size();
  state.counters["nnz"] = a.pattern.nnz();
}

/// A pivoting factorization (pivot search, fill and record) plus a solve,
/// on a fresh solver: what the first solve of every analysis costs.
void BM_LuPivotFactorSolve(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<int>(state.range(0)));
  std::vector<double> x;
  for (auto _ : state) {
    linalg::SparseLu<double> lu(a.pattern);
    benchmark::DoNotOptimize(lu.factor(a.system.values));
    lu.solve(a.system.rhs, x);
    benchmark::DoNotOptimize(x.data());
  }
  set_lu_labels(state, a);
}
BENCHMARK(BM_LuPivotFactorSolve)->ArgName("vco0_dp1")->Arg(0)->Arg(1);

/// Load, replayed refactorization and solve on a solver holding a record:
/// what every later Newton iteration and time step costs.
void BM_LuReplayFactorSolve(benchmark::State& state) {
  const Assembled& a = assembled(static_cast<int>(state.range(0)));
  linalg::SparseLu<double> lu(a.pattern);
  lu.factor(a.system.values);
  std::vector<double> x;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.factor(a.system.values));
    lu.solve(a.system.rhs, x);
    benchmark::DoNotOptimize(x.data());
  }
  set_lu_labels(state, a);
  state.counters["repivots"] = static_cast<double>(lu.counts().repivot);
}
BENCHMARK(BM_LuReplayFactorSolve)->ArgName("vco0_dp1")->Arg(0)->Arg(1);

/// Two consecutive backward-Euler systems of the same ring's transient from
/// t=0 (dt = 1 ps, the systems of steps 11 and 12). Their pivot orders first
/// differ at elimination step 111 of 216, so factoring them alternately on
/// one solver makes every factorization a replay rejected at a middle step
/// that resumes the pivot search there.
struct RingPair {
  linalg::SparsePattern pattern;
  spice::MnaSystem system[2];
};

RingPair assemble_ring_pair() {
  const tech::Technology t = tech::make_default_finfet_tech();
  circuits::RoVco vco(t);
  vco.prepare();
  circuits::Realization real =
      circuits::schematic_realization(vco.instances(), t);
  real.ideal = false;
  const spice::Circuit ckt = vco.build(real, 0.5);
  const spice::Simulator sim(ckt);
  spice::TranOptions tr;
  tr.dt = 1e-12;
  tr.tstop = 12e-12;
  const spice::TranResult res = sim.tran(tr);
  RingPair pair{sim.pattern(), {}};
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t k = 11 + i;
    pair.system[i] = sim.tran_system(res.samples[k - 1], res.samples[k],
                                     res.times[k], tr.dt);
  }
  return pair;
}

void BM_LuResumedSearch(benchmark::State& state) {
  static const RingPair pair = assemble_ring_pair();
  linalg::SparseLu<double> lu(pair.pattern);
  lu.factor(pair.system[0].values);
  std::size_t next = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.factor(pair.system[next].values));
    next ^= 1;
  }
  state.counters["n"] = pair.pattern.size();
  state.counters["nnz"] = pair.pattern.nnz();
  // 1 when every factorization was a rejected replay.
  state.counters["repivot_share"] =
      static_cast<double>(lu.counts().repivot) /
      static_cast<double>(lu.counts().replay + lu.counts().repivot);
}
BENCHMARK(BM_LuResumedSearch);

/// One MOSFET evaluation (drain current, gm, gds), cycling through seeded
/// bias points from cutoff to strong inversion with both signs of vds.
void BM_MosEval(benchmark::State& state) {
  const spice::MosModel model = circuits::default_nmos();
  Rng rng(5);
  std::vector<std::pair<double, double>> bias(1024);
  for (auto& [vgs, vds] : bias) {
    vgs = rng.uniform(-0.2, 0.9);
    vds = rng.uniform(-0.9, 0.9);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [vgs, vds] = bias[i];
    benchmark::DoNotOptimize(
        spice::mos_eval(model, vgs, vds, 1e-6, 14e-9, 0.0, 1.0));
    i = (i + 1) % bias.size();
  }
}
BENCHMARK(BM_MosEval);

void BM_OperatingPoint(benchmark::State& state) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const spice::Circuit ckt = make_dp_testbench(t);
  const spice::Simulator sim(ckt);
  for (auto _ : state) {
    const spice::OpResult op = sim.op();
    benchmark::DoNotOptimize(op.x.data());
  }
}
BENCHMARK(BM_OperatingPoint);

void BM_AcSweep(benchmark::State& state) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const spice::Circuit ckt = make_dp_testbench(t);
  const spice::Simulator sim(ckt);
  const spice::OpResult op = sim.op();
  spice::AcOptions ac;
  ac.frequencies = spice::log_frequencies(1e6, 1e10, 10);
  for (auto _ : state) {
    const spice::AcResult r = sim.ac(op.x, ac);
    benchmark::DoNotOptimize(r.solutions.data());
  }
}
BENCHMARK(BM_AcSweep);

void BM_GeneratePrimitive(benchmark::State& state) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const pcell::PrimitiveGenerator gen(t);
  const pcell::PrimitiveNetlist dp = pcell::make_diff_pair();
  pcell::LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 20;
  cfg.m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const pcell::PrimitiveLayout lay = gen.generate(dp, cfg);
    benchmark::DoNotOptimize(lay.devices.size());
  }
}
BENCHMARK(BM_GeneratePrimitive)->Arg(1)->Arg(4)->Arg(8);

void BM_PrimitiveEvaluation(benchmark::State& state) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const pcell::PrimitiveGenerator gen(t);
  pcell::LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 20;
  cfg.m = 6;
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg);
  core::BiasContext bias;
  bias.vdd = t.vdd;
  bias.bias_current = 700e-6;
  const core::PrimitiveEvaluator eval(t, circuits::default_nmos(),
                                      circuits::default_pmos(), bias);
  for (auto _ : state) {
    const core::MetricValues v = eval.evaluate(lay, {});
    benchmark::DoNotOptimize(v.size());
  }
}
BENCHMARK(BM_PrimitiveEvaluation);

void BM_Placer(benchmark::State& state) {
  Rng rng(3);
  std::vector<place::Block> blocks;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    blocks.push_back(place::Block{"b" + std::to_string(i),
                                  rng.uniform(1e-6, 5e-6),
                                  rng.uniform(1e-6, 5e-6)});
  }
  std::vector<place::PlacementNet> nets;
  for (int i = 0; i + 1 < n; ++i) {
    place::PlacementNet pn;
    pn.name = "n" + std::to_string(i);
    pn.pins = {{i, 0, 0}, {i + 1, 0, 0}};
    nets.push_back(pn);
  }
  place::PlacerOptions opt;
  opt.iterations = 2000;
  const place::AnnealingPlacer placer(opt);
  for (auto _ : state) {
    const place::PlacementResult r = placer.place(blocks, nets, {});
    benchmark::DoNotOptimize(r.width);
  }
}
BENCHMARK(BM_Placer)->Arg(4)->Arg(8)->Arg(16);

void BM_GlobalRoute(benchmark::State& state) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const geom::Rect region{0, 0, geom::to_nm(20e-6), geom::to_nm(20e-6)};
  Rng rng(11);
  for (auto _ : state) {
    route::GlobalRouter router(t, region, {});
    for (int n = 0; n < 8; ++n) {
      std::vector<geom::Point> pins;
      for (int p = 0; p < 3; ++p) {
        pins.push_back(geom::Point{geom::to_nm(rng.uniform(0, 20e-6)),
                                   geom::to_nm(rng.uniform(0, 20e-6))});
      }
      const route::NetRoute nr =
          router.route("n" + std::to_string(n), pins, {});
      benchmark::DoNotOptimize(nr.segments.size());
    }
  }
}
BENCHMARK(BM_GlobalRoute);

}  // namespace

BENCHMARK_MAIN();
