// The paper's headline claims as executable assertions. Each runs whole
// flows plus circuit-level measurement, a few seconds in Release and more
// than ten under ASan, hence the SLOW label on this target.

#include <gtest/gtest.h>

#include "circuits/experiments.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"
#include "vco_ladder_oracle.hpp"

namespace olp::circuits {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

TEST(VcoExperiment, TableVIIRangeRecovery) {
  // Table VII's headline: the conventional layout loses the lowest control
  // voltage (its ring does not oscillate at Vctrl = 0), while the optimized
  // layout oscillates there like the schematic does.
  set_log_level(LogLevel::kError);
  const CircuitExperiment ex = run_vco(t(), {}, {0.0, 0.1});
  const auto& sch = ex.results.at("schematic");
  const auto& conv = ex.results.at("conventional");
  const auto& work = ex.results.at("this_work");
  ASSERT_EQ(sch.count("vrange_lo"), 1u);
  ASSERT_EQ(conv.count("vrange_lo"), 1u);
  ASSERT_EQ(work.count("vrange_lo"), 1u);
  EXPECT_EQ(conv.at("vrange_lo"), 0.1);
  EXPECT_EQ(work.at("vrange_lo"), 0.0);
  EXPECT_EQ(sch.at("vrange_lo"), 0.0);
}

TEST(VcoExperiment, TableVIISweepMatchesSerialLadder) {
  // Every frequency() of the full Table VII sweep (six control voltages,
  // three realizations) equals the serial reference ladder bit for bit.
  set_log_level(LogLevel::kError);
  RoVco vco(t());
  ASSERT_TRUE(vco.prepare());
  const FlowEngine engine(t(), {});
  const Realization realizations[] = {
      schematic_realization(vco.instances(), t()),
      engine.run(FlowMode::kConventional, vco.instances(), vco.routed_nets(),
                 nullptr),
      engine.run(FlowMode::kOptimize, vco.instances(), vco.routed_nets(),
                 nullptr)};
  for (const Realization& real : realizations) {
    for (const double vctrl : RoVco::default_sweep()) {
      EXPECT_TRUE(oracle::same_bits(vco.frequency(real, vctrl),
                                    oracle::serial_frequency(vco, real, vctrl)))
          << "Vctrl " << vctrl;
    }
  }
}

/// Runs the default optimize flow with telemetry on and returns the
/// routing stage's summed overflow.
template <typename Circuit>
long optimize_flow_overflow(Circuit& circuit) {
  EXPECT_TRUE(circuit.prepare());
  const FlowEngine engine(t(), {});
  FlowReport report;
  {
    obs::ScopedObservability obs_on;
    engine.run(FlowMode::kOptimize, circuit.instances(),
               circuit.routed_nets(), &report);
  }
  EXPECT_EQ(report.telemetry.snapshot.counters.count("router.overflow"), 1u);
  return report.telemetry.snapshot.counter("router.overflow");
}

TEST(GlobalRouting, PaperFlowsRouteWithoutOverflow) {
  // Sec. III-B1 uses the global router only to report each net's length,
  // layer and vias to port optimization. The router has no rip-up and
  // reroute, so that report is sound only while no gcell edge carries more
  // tracks than it holds: a flow that congests must fail here.
  set_log_level(LogLevel::kError);
  Ota5T ota(t());
  EXPECT_EQ(optimize_flow_overflow(ota), 0);
  StrongArmComparator sa(t());
  EXPECT_EQ(optimize_flow_overflow(sa), 0);
  RoVco vco(t());
  EXPECT_EQ(optimize_flow_overflow(vco), 0);
}

}  // namespace
}  // namespace olp::circuits
