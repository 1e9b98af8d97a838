// Unit tests for source waveforms (DC / PULSE / SIN / PWL) and for the
// transient stop that ends a delay measurement at its deciding sample.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <random>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/measure.hpp"
#include "spice/simulator.hpp"
#include "spice/waveform.hpp"

namespace olp::spice {
namespace {

TEST(Waveform, DcIsConstant) {
  const Waveform w = Waveform::dc(1.5);
  EXPECT_DOUBLE_EQ(w.value(0.0), 1.5);
  EXPECT_DOUBLE_EQ(w.value(1e-3), 1.5);
  EXPECT_DOUBLE_EQ(w.dc_value(), 1.5);
}

TEST(Waveform, PulseBeforeDelayIsV1) {
  const Waveform w = Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 1e-9, 4e-9);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(0.99e-9), 0.0);
}

TEST(Waveform, PulseEdgesInterpolate) {
  const Waveform w = Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 2e-9, 8e-9);
  EXPECT_NEAR(w.value(0.5e-9), 0.5, 1e-12);   // mid-rise
  EXPECT_DOUBLE_EQ(w.value(2e-9), 1.0);       // plateau
  EXPECT_NEAR(w.value(3.5e-9), 0.5, 1e-12);   // mid-fall
  EXPECT_DOUBLE_EQ(w.value(5e-9), 0.0);       // low
}

TEST(Waveform, PulseIsPeriodic) {
  const Waveform w = Waveform::pulse(0.0, 1.0, 0.0, 1e-10, 1e-10, 1e-9, 4e-9);
  EXPECT_NEAR(w.value(0.5e-9), w.value(0.5e-9 + 4e-9), 1e-12);
  EXPECT_NEAR(w.value(2.3e-9), w.value(2.3e-9 + 8e-9), 1e-12);
}

TEST(Waveform, PulseValidation) {
  EXPECT_THROW(Waveform::pulse(0, 1, 0, 0.0, 1e-10, 1e-9, 4e-9),
               InvalidArgumentError);
  EXPECT_THROW(Waveform::pulse(0, 1, 0, 1e-10, 1e-10, 1e-9, 0.0),
               InvalidArgumentError);
  // Negative delay is rejected.
  EXPECT_THROW(Waveform::pulse(0, 1, -1e-9, 1e-10, 1e-10, 1e-9, 4e-9),
               InvalidArgumentError);
  // Edges plus width must fit within one period...
  EXPECT_THROW(Waveform::pulse(0, 1, 0, 1e-9, 1e-9, 3e-9, 4e-9),
               InvalidArgumentError);
  // ...and an exact fit is allowed.
  EXPECT_NO_THROW(Waveform::pulse(0, 1, 0, 1e-9, 1e-9, 2e-9, 4e-9));
}

TEST(Waveform, SineValueAndDelay) {
  const Waveform w = Waveform::sine(0.5, 0.2, 1e9, 1e-9);
  EXPECT_DOUBLE_EQ(w.value(0.5e-9), 0.5);  // before delay: offset
  // Quarter period past the delay: peak.
  EXPECT_NEAR(w.value(1e-9 + 0.25e-9), 0.7, 1e-9);
  EXPECT_NEAR(w.value(1e-9 + 0.75e-9), 0.3, 1e-9);
}

TEST(Waveform, SineValidation) {
  EXPECT_THROW(Waveform::sine(0, 1, 0.0), InvalidArgumentError);
}

TEST(Waveform, PwlInterpolatesAndClamps) {
  const Waveform w = Waveform::pwl({{0.0, 0.0}, {1e-9, 1.0}, {2e-9, 0.5}});
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_NEAR(w.value(0.5e-9), 0.5, 1e-12);
  EXPECT_NEAR(w.value(1.5e-9), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(w.value(5e-9), 0.5);  // clamps to last value
}

TEST(Waveform, PwlValidation) {
  EXPECT_THROW(Waveform::pwl({}), InvalidArgumentError);
  EXPECT_THROW(Waveform::pwl({{1e-9, 1.0}, {0.5e-9, 0.0}}),
               InvalidArgumentError);
}

TEST(Waveform, DcValueUsesTimeZero) {
  const Waveform p =
      Waveform::pulse(0.3, 1.0, 1e-9, 1e-10, 1e-10, 1e-9, 4e-9);
  EXPECT_DOUBLE_EQ(p.dc_value(), 0.3);
}

// --- delay_decided_stop over synthetic waveforms ---------------------------

/// Two probe nodes, `ref` and `sig`; a sample's unknown vector is just their
/// voltages.
struct Probes {
  Probes() {
    ref = ckt.node("ref");
    sig = ckt.node("sig");
    ckt.add_resistor("rr", ref, kGround, 1e3);
    ckt.add_resistor("rs", sig, kGround, 1e3);
  }
  Circuit ckt;
  NodeId ref = 0;
  NodeId sig = 0;
};

constexpr double kLevel = 0.4;

struct StopOutcome {
  std::optional<std::size_t> fired_at;   ///< samples held when it fired
  std::optional<std::size_t> first_value;  ///< first prefix with a delay
  std::optional<double> stopped_delay;   ///< delay on the prefix it fired on
  std::optional<double> full_delay;      ///< delay on the whole waveform
};

/// Feeds the waveforms to the stop one sample at a time, as the simulator
/// records them (the reference rises, the signal falls through kLevel), and
/// checks delay_between on every prefix too.
StopOutcome run_stop(const std::vector<double>& times,
                     const std::vector<double>& ref,
                     const std::vector<double>& sig, int ref_skip) {
  const Probes p;
  const Simulator sim(p.ckt);
  const auto stop = delay_decided_stop(sim, p.ref, kLevel, true, p.sig,
                                       kLevel, false, ref_skip);
  auto delay_of = [&](std::size_t m) {
    const std::vector<double> t(times.begin(), times.begin() + m);
    const std::vector<double> r(ref.begin(), ref.begin() + m);
    const std::vector<double> s(sig.begin(), sig.begin() + m);
    return delay_between(t, r, kLevel, true, s, kLevel, false, ref_skip);
  };
  StopOutcome out;
  TranResult so_far;
  for (std::size_t m = 1; m <= times.size(); ++m) {
    so_far.times.push_back(times[m - 1]);
    so_far.samples.push_back({ref[m - 1], sig[m - 1]});
    if (!out.first_value && delay_of(m)) out.first_value = m;
    if (!out.fired_at && stop(so_far)) {
      out.fired_at = m;
      out.stopped_delay = delay_of(m);
    }
  }
  out.full_delay = delay_of(times.size());
  return out;
}

/// The stop's contract: it first fires on the first prefix with a delay, and
/// that delay is bit-identical to the whole waveform's.
void expect_stop_contract(const StopOutcome& o) {
  EXPECT_EQ(o.fired_at, o.first_value);
  ASSERT_EQ(o.full_delay.has_value(), o.fired_at.has_value());
  if (!o.fired_at) return;
  ASSERT_TRUE(o.stopped_delay.has_value());
  EXPECT_EQ(std::memcmp(&*o.stopped_delay, &*o.full_delay, sizeof(double)), 0)
      << *o.stopped_delay << " vs " << *o.full_delay;
}

std::vector<double> unit_times(std::size_t n) {
  std::vector<double> t(n);
  for (std::size_t k = 0; k < n; ++k) t[k] = 1e-12 * static_cast<double>(k);
  return t;
}

TEST(DelayStop, GlitchBeforeReferenceDoesNotStop) {
  // The signal dips through the level at samples 1-2, before the reference
  // rises (sample 4); only its second fall (sample 6) decides the delay.
  const std::vector<double> t = unit_times(9);
  const std::vector<double> ref = {0, 0, 0, 0, 0.8, 0.8, 0.8, 0.8, 0.8};
  const std::vector<double> sig = {0.8, 0.2, 0.8, 0.8, 0.8, 0.8, 0.2, 0, 0};
  const StopOutcome o = run_stop(t, ref, sig, 0);
  expect_stop_contract(o);
  EXPECT_EQ(o.fired_at, std::optional<std::size_t>(7));
}

TEST(DelayStop, BothCrossingsInOneInterval) {
  // Reference crosses at 2.25 ps, signal at 2.5 ps, both in (2, 3).
  const std::vector<double> t = unit_times(6);
  const std::vector<double> ref = {0, 0, 0, 1.6, 1.6, 1.6};
  const std::vector<double> sig = {0.8, 0.8, 0.8, 0.0, 0.0, 0.0};
  const StopOutcome o = run_stop(t, ref, sig, 0);
  expect_stop_contract(o);
  EXPECT_EQ(o.fired_at, std::optional<std::size_t>(4));
}

TEST(DelayStop, SignalCrossingBeforeReferenceInSameIntervalWaits) {
  // In (2, 3) the signal crosses (2.5 ps) before the reference (2.8 ps), so
  // that crossing does not count; the signal's next fall decides.
  const std::vector<double> t = unit_times(8);
  const std::vector<double> ref = {0, 0, 0, 0.5, 0.5, 0.5, 0.5, 0.5};
  const std::vector<double> sig = {0.8, 0.8, 0.8, 0, 0.8, 0.2, 0.2, 0.2};
  const StopOutcome o = run_stop(t, ref, sig, 0);
  expect_stop_contract(o);
  EXPECT_EQ(o.fired_at, std::optional<std::size_t>(6));
}

TEST(DelayStop, SamplesExactlyAtTheLevel) {
  // Reference reaches the level exactly at sample 2 (frac 1 of (1, 2)); the
  // signal leaves it from exactly the level at sample 4, which is no falling
  // crossing (frac 0 of (4, 5) needs a sample above), and reaches it exactly
  // at sample 7.
  const std::vector<double> t = unit_times(10);
  const std::vector<double> ref = {0, 0.2, kLevel, 0.8, 0.8, 0.8, 0.8, 0.8,
                                   0.8, 0.8};
  const std::vector<double> sig = {kLevel, kLevel, kLevel, kLevel, kLevel,
                                   0.2, 0.8, kLevel, 0.1, 0.1};
  const StopOutcome o = run_stop(t, ref, sig, 0);
  expect_stop_contract(o);
  EXPECT_EQ(o.fired_at, std::optional<std::size_t>(8));
  ASSERT_TRUE(o.full_delay.has_value());
  EXPECT_DOUBLE_EQ(*o.full_delay, 5e-12);
}

TEST(DelayStop, ReferenceCrossingRoundingOntoAnEarlierSignalCrossing) {
  // The signal reaches the level exactly at sample 2 (t = 2 ps). The
  // reference sits one ulp below the level there and crosses in (2, 3) at a
  // fraction so small that its time rounds to 2 ps, so the delay (0) appears
  // with a newest interval that holds only a reference crossing.
  const std::vector<double> t = unit_times(5);
  const double below = std::nextafter(kLevel, 0.0);
  const std::vector<double> ref = {0, 0, below, 0.8, 0.8};
  const std::vector<double> sig = {0.8, 0.8, kLevel, 0.2, 0.2};
  const StopOutcome o = run_stop(t, ref, sig, 0);
  expect_stop_contract(o);
  EXPECT_EQ(o.fired_at, std::optional<std::size_t>(4));
  ASSERT_TRUE(o.full_delay.has_value());
  EXPECT_EQ(*o.full_delay, 0.0);
}

TEST(DelayStop, RefSkipWaitsForTheSecondReferenceCrossing) {
  // The signal falls after the first reference rise (sample 2), which
  // ref_skip = 1 ignores; the fall after the second rise (sample 6) decides.
  const std::vector<double> t = unit_times(10);
  const std::vector<double> ref = {0, 0, 0.8, 0, 0, 0.8, 0.8, 0.8, 0.8, 0.8};
  const std::vector<double> sig = {0.8, 0.8, 0.8, 0, 0.8, 0.8, 0.8, 0, 0, 0};
  const StopOutcome o = run_stop(t, ref, sig, 1);
  expect_stop_contract(o);
  EXPECT_EQ(o.fired_at, std::optional<std::size_t>(8));
  EXPECT_EQ(run_stop(t, ref, sig, 0).fired_at,
            std::optional<std::size_t>(4));
}

TEST(DelayStop, NoSignalCrossingNeverStops) {
  const std::vector<double> t = unit_times(8);
  const std::vector<double> ref = {0, 0, 0.8, 0, 0.8, 0, 0.8, 0.8};
  const std::vector<double> sig = {0.8, 0.8, 0.8, 0.8, 0.6, 0.8, 0.5, 0.8};
  const StopOutcome o = run_stop(t, ref, sig, 0);
  expect_stop_contract(o);
  EXPECT_FALSE(o.fired_at.has_value());
}

TEST(DelayStop, SeededRandomWaveformsStopAtTheFirstDecidingPrefix) {
  // Random walks over a few levels including kLevel itself, on uneven time
  // grids: glitches, shared intervals, exact-level samples and missing
  // crossings all occur many times over 4,000 cases.
  std::mt19937_64 rng(20261019);
  const std::vector<double> values = {0.0, 0.2, kLevel, kLevel, 0.6, 0.8};
  std::uniform_int_distribution<std::size_t> pick(0, values.size() - 1);
  std::uniform_int_distribution<int> len(2, 40);
  std::uniform_real_distribution<double> dt(0.5e-12, 2e-12);
  std::bernoulli_distribution hold(0.6);
  int fired = 0;
  int never = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t n = static_cast<std::size_t>(len(rng));
    std::vector<double> t(n), ref(n), sig(n);
    double now = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      t[k] = now;
      now += dt(rng);
      ref[k] = k > 0 && hold(rng) ? ref[k - 1] : values[pick(rng)];
      sig[k] = k > 0 && hold(rng) ? sig[k - 1] : values[pick(rng)];
    }
    const int ref_skip = trial % 3 == 2 ? 1 : 0;
    const StopOutcome o = run_stop(t, ref, sig, ref_skip);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_stop_contract(o);
    (o.fired_at ? fired : never)++;
  }
  EXPECT_GT(fired, 500);
  EXPECT_GT(never, 500);
}

}  // namespace
}  // namespace olp::spice
