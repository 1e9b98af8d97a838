// RoVco::frequency()'s window ladder: running the next window early on a
// second thread changes when windows run, never what frequency() returns.
// Every result is compared bit for bit with the serial reference ladder of
// vco_ladder_oracle.hpp.

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuits/flow.hpp"
#include "circuits/vco.hpp"
#include "util/faults.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"
#include "vco_ladder_oracle.hpp"

namespace olp::circuits {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

/// The ring and its three Table VII realizations, built once.
struct Rings {
  RoVco vco{t()};
  Realization schematic, conventional, optimized;
  Rings() {
    set_log_level(LogLevel::kError);
    EXPECT_TRUE(vco.prepare());
    schematic = schematic_realization(vco.instances(), t());
    const FlowEngine engine(t(), {});
    conventional = engine.run(FlowMode::kConventional, vco.instances(),
                              vco.routed_nets(), nullptr);
    optimized = engine.run(FlowMode::kOptimize, vco.instances(),
                           vco.routed_nets(), nullptr);
  }
};

const Rings& rings() {
  static const Rings r;
  return r;
}

struct LadderRun {
  std::optional<double> freq;
  long speculated = 0;
  long cancelled = 0;
};

/// frequency() with the obs registry on, and its ladder's counters.
template <typename... Speculation>
LadderRun traced_frequency(const Realization& real, double vctrl,
                           const Speculation&... speculate) {
  LadderRun run;
  {
    obs::ScopedObservability on;
    run.freq = rings().vco.frequency(real, vctrl, speculate...);
  }
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  run.speculated = snap.counter("vco.window.speculated");
  run.cancelled = snap.counter("vco.window.cancelled");
  return run;
}

struct Point {
  const char* name;
  const Realization* real;
  double vctrl;
  bool speculates;  ///< whether the default rule starts a window early
};

TEST(VcoLadder, SpeculativeFrequencyMatchesSerialLadder) {
  const Rings& r = rings();
  // The three 0.0 V points need more than one window: the schematic's and
  // the optimized layout's second window passes, the conventional layout
  // fails all three. 0.5 V passes its first window.
  const Point points[] = {{"schematic 0.0 V", &r.schematic, 0.0, true},
                          {"conventional 0.0 V", &r.conventional, 0.0, true},
                          {"optimized 0.0 V", &r.optimized, 0.0, true},
                          {"schematic 0.5 V", &r.schematic, 0.5, false}};
  for (const Point& p : points) {
    const LadderRun run = traced_frequency(*p.real, p.vctrl);
    const std::optional<double> serial =
        oracle::serial_frequency(r.vco, *p.real, p.vctrl);
    EXPECT_TRUE(oracle::same_bits(run.freq, serial)) << p.name;
    if (p.speculates) {
      EXPECT_GE(run.speculated, 1) << p.name;
    } else {
      EXPECT_EQ(run.speculated, 0) << p.name;
    }
    // The default rule fires only on windows that fail, so no window it
    // starts is ever cancelled.
    EXPECT_EQ(run.cancelled, 0) << p.name;
  }
  EXPECT_FALSE(oracle::serial_frequency(r.vco, r.conventional, 0.0));
  EXPECT_TRUE(oracle::serial_frequency(r.vco, r.optimized, 0.0));
}

TEST(VcoLadder, FalseTriggerLeavesTheResultUnchanged) {
  // A rule that fires at once starts the 20 ns window beside a 2.5 ns
  // window that passes. Slowed to at least 5 s (the rule is asked at each
  // of its samples and never fires there), the 20 ns window is still
  // running when the 2.5 ns one passes, and is cancelled.
  const Rings& r = rings();
  const RoVco::Speculation fire_and_stall =
      [](double tstop, const std::vector<double>&,
         const std::vector<double>&) {
        if (tstop != 20e-9) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return false;
      };
  const LadderRun run = traced_frequency(r.schematic, 0.5, fire_and_stall);
  EXPECT_TRUE(run.freq.has_value());
  EXPECT_TRUE(oracle::same_bits(run.freq,
                                r.vco.frequency(r.schematic, 0.5, {})));
  EXPECT_EQ(run.speculated, 1);
  EXPECT_EQ(run.cancelled, 1);
}

TEST(VcoLadder, AlwaysSpeculatingLadderMatchesSerialLadder) {
  // Every window starts as soon as the one below it records a sample: the
  // conventional layout's three windows at 0.0 V all fail.
  const Rings& r = rings();
  const RoVco::Speculation always = [](double, const std::vector<double>&,
                                       const std::vector<double>&) {
    return true;
  };
  const LadderRun run = traced_frequency(r.conventional, 0.0, always);
  EXPECT_FALSE(run.freq.has_value());
  EXPECT_GE(run.speculated, 1);
  EXPECT_EQ(run.cancelled, 0);
  EXPECT_TRUE(oracle::same_bits(r.vco.frequency(r.schematic, 0.0, always),
                                oracle::serial_frequency(r.vco, r.schematic,
                                                         0.0)));
}

TEST(VcoLadder, SpeculativeWindowErrorSurfacesOnlyWhenReached) {
  // A rule that throws in the 20 ns window: the serial ladder reaches that
  // window only when the 2.5 ns one fails.
  const Rings& r = rings();
  const RoVco::Speculation throws_at_20ns =
      [](double tstop, const std::vector<double>&,
         const std::vector<double>&) -> bool {
    if (tstop == 20e-9) throw std::runtime_error("window 2");
    return true;
  };
  const std::optional<double> passing =
      r.vco.frequency(r.schematic, 0.5, throws_at_20ns);
  EXPECT_TRUE(oracle::same_bits(passing,
                                r.vco.frequency(r.schematic, 0.5, {})));
  EXPECT_THROW(r.vco.frequency(r.conventional, 0.0, throws_at_20ns),
               std::runtime_error);
}

TEST(VcoLadder, ChaosRunsTheLadderSerially) {
  // With fault injection on, draws follow call order only if every window
  // runs on the caller's thread in ladder order.
  const Rings& r = rings();
  FaultConfig config;
  config.tran_rate = 1e-12;  // enabled, never fires
  LadderRun run;
  {
    ScopedFaultInjection chaos(config);
    run = traced_frequency(r.schematic, 0.0);
  }
  EXPECT_EQ(run.speculated, 0);
  EXPECT_EQ(FaultInjector::global().draws(FaultSite::kTranNonConvergence), 2);
  EXPECT_TRUE(oracle::same_bits(run.freq, rings().vco.frequency(
                                              r.schematic, 0.0, {})));
}

}  // namespace
}  // namespace olp::circuits
