// Tests for the primitive testbench evaluator: every primitive family's
// metrics come out physically plausible, schematic references behave, and
// wire/tuning effects move the metrics in the right direction.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "circuits/common.hpp"
#include "core/evaluator.hpp"
#include "pcell/generator.hpp"

namespace olp::core {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

pcell::LayoutConfig cfg(int nfin, int nf, int m) {
  pcell::LayoutConfig c;
  c.nfin = nfin;
  c.nf = nf;
  c.m = m;
  return c;
}

PrimitiveEvaluator make_eval(BiasContext bias) {
  return PrimitiveEvaluator(t(), circuits::default_nmos(),
                            circuits::default_pmos(), std::move(bias));
}

BiasContext dp_bias() {
  BiasContext b;
  b.vdd = t().vdd;
  b.bias_current = 500e-6;
  b.port_voltage = {
      {"ga", 0.5}, {"gb", 0.5}, {"da", 0.5}, {"db", 0.5}, {"s", 0.2}};
  b.port_load_cap = {{"da", 20e-15}, {"db", 20e-15}};
  return b;
}

TEST(Evaluator, DiffPairSchematicMetricsPlausible) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  // gm of half the pair at 250 uA: a few mA/V for this geometry.
  EXPECT_GT(v.at(MetricKind::kGm), 1e-3);
  EXPECT_LT(v.at(MetricKind::kGm), 20e-3);
  // Drain capacitance: device caps + 20 fF external load.
  EXPECT_GT(v.at(MetricKind::kCout), 20e-15);
  EXPECT_LT(v.at(MetricKind::kCout), 200e-15);
  // No systematic offset in the schematic.
  EXPECT_LT(std::fabs(v.at(MetricKind::kInputOffset)), 1e-6);
  EXPECT_GT(v.at(MetricKind::kGmOverCtotal), 0.0);
}

TEST(Evaluator, DiffPairExtractedGmBelowSchematic) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  EvalCondition ideal;
  ideal.ideal = true;
  EvalCondition extracted;
  const double gm_sch = eval.evaluate(lay, ideal).at(MetricKind::kGm);
  const double gm_lay = eval.evaluate(lay, extracted).at(MetricKind::kGm);
  EXPECT_LT(gm_lay, gm_sch);            // source strap degenerates
  EXPECT_GT(gm_lay, 0.8 * gm_sch);      // but only by a few percent
}

TEST(Evaluator, DiffPairTuningImprovesGm) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  EvalCondition base;
  EvalCondition tuned;
  tuned.tuning["s"] = 6;
  EXPECT_GT(eval.evaluate(lay, tuned).at(MetricKind::kGm),
            eval.evaluate(lay, base).at(MetricKind::kGm));
}

TEST(Evaluator, DiffPairDrainWireU_ShapedTradeoff) {
  // More parallel drain routes: Gm improves, Ctotal grows (Table IV shape).
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  auto with_wire = [&](int wires) {
    EvalCondition c;
    extract::WireRc rc;
    rc.resistance = 600.0 / wires;
    rc.capacitance = 0.4e-15 * wires;
    c.port_wires["da"] = rc;  // mirrored to db by the symmetry rule
    return eval.evaluate(lay, c);
  };
  const MetricValues w1 = with_wire(1);
  const MetricValues w6 = with_wire(6);
  EXPECT_GT(w6.at(MetricKind::kGm), w1.at(MetricKind::kGm));
  EXPECT_GT(w6.at(MetricKind::kCout), w1.at(MetricKind::kCout));
}

TEST(Evaluator, SymmetricWireKeepsOffsetSmall) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  EvalCondition c;
  c.port_wires["da"] = extract::WireRc{400.0, 0.5e-15};
  const MetricValues v = eval.evaluate(lay, c);
  // The wire is mirrored to db, so no systematic imbalance appears.
  EXPECT_LT(std::fabs(v.at(MetricKind::kInputOffset)),
            0.1 * eval.random_offset_sigma(lay));
}

TEST(Evaluator, MirrorRatioNearUnity) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_current_mirror(1), cfg(8, 16, 4));
  BiasContext b;
  b.vdd = t().vdd;
  b.bias_current = 400e-6;
  b.port_voltage = {{"out", 0.4}, {"s", 0.0}};
  const PrimitiveEvaluator eval = make_eval(b);
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  EXPECT_NEAR(v.at(MetricKind::kCurrentRatio), 1.0, 0.15);
  EXPECT_GT(v.at(MetricKind::kRout), 500.0);
}

TEST(Evaluator, MirrorRatioHonorsRatioParameter) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_current_mirror(4), cfg(8, 4, 2));
  BiasContext b;
  b.vdd = t().vdd;
  b.bias_current = 100e-6;
  b.port_voltage = {{"out", 0.4}, {"s", 0.0}};
  const PrimitiveEvaluator eval = make_eval(b);
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  // kCurrentRatio is normalized by the nominal ratio.
  EXPECT_NEAR(v.at(MetricKind::kCurrentRatio), 1.0, 0.2);
  EXPECT_NEAR(v.at(MetricKind::kOutputCurrent), 400e-6, 100e-6);
}

TEST(Evaluator, ActiveMirrorUsesVddRail) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_active_current_mirror(), cfg(8, 16, 2));
  BiasContext b;
  b.vdd = t().vdd;
  b.bias_current = 200e-6;
  b.port_voltage = {{"out", 0.4}};
  const PrimitiveEvaluator eval = make_eval(b);
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  EXPECT_NEAR(v.at(MetricKind::kCurrentRatio), 1.0, 0.15);
}

TEST(Evaluator, CurrentSourceMetrics) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_current_source(), cfg(8, 16, 2));
  BiasContext b;
  b.vdd = t().vdd;
  b.port_voltage = {{"bias", 0.45}, {"out", 0.4}, {"s", 0.0}};
  const PrimitiveEvaluator eval = make_eval(b);
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  EXPECT_GT(v.at(MetricKind::kOutputCurrent), 10e-6);
  EXPECT_GT(v.at(MetricKind::kRout), 100.0);
  EXPECT_GT(v.at(MetricKind::kCout), 0.0);
}

TEST(Evaluator, CommonSourceServoHoldsBiasCurrent) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_common_source(), cfg(8, 12, 1));
  BiasContext b;
  b.vdd = t().vdd;
  b.bias_current = 290e-6;
  b.port_voltage = {{"in", 0.45}, {"out", 0.42}, {"s", 0.0}};
  const PrimitiveEvaluator eval = make_eval(b);
  for (bool ideal : {true, false}) {
    EvalCondition c;
    c.ideal = ideal;
    const MetricValues v = eval.evaluate(lay, c);
    EXPECT_NEAR(v.at(MetricKind::kOutputCurrent), 290e-6, 3e-6)
        << "ideal=" << ideal;
    EXPECT_GT(v.at(MetricKind::kGm), 1e-3);
    EXPECT_GT(v.at(MetricKind::kRout), 1e3);
  }
}

TEST(Evaluator, StarvedInverterMetrics) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_current_starved_inverter(), cfg(8, 4, 1));
  BiasContext b;
  b.vdd = t().vdd;
  b.port_voltage = {{"vbn", 0.4}, {"vbp", t().vdd - 0.4}};
  b.port_load_cap = {{"out", 4e-15}};
  const PrimitiveEvaluator eval = make_eval(b);
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  EXPECT_GT(v.at(MetricKind::kDelay), 1e-12);
  EXPECT_LT(v.at(MetricKind::kDelay), 1e-9);
  EXPECT_GT(v.at(MetricKind::kOutputCurrent), 1e-6);
  EXPECT_GT(v.at(MetricKind::kGain), 1.0);  // inverter gain at mid-rail
}

TEST(Evaluator, StarvedInverterDelayGrowsWithLoad) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_current_starved_inverter(), cfg(8, 4, 1));
  auto delay_with_load = [&](double cl) {
    BiasContext b;
    b.vdd = t().vdd;
    b.port_voltage = {{"vbn", 0.4}, {"vbp", t().vdd - 0.4}};
    b.port_load_cap = {{"out", cl}};
    const PrimitiveEvaluator eval = make_eval(b);
    EvalCondition ideal;
    ideal.ideal = true;
    return eval.evaluate(lay, ideal).at(MetricKind::kDelay);
  };
  EXPECT_GT(delay_with_load(20e-15), delay_with_load(2e-15));
}

TEST(Evaluator, StarvedInverterDelayFallsWithControl) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_current_starved_inverter(), cfg(8, 4, 1));
  auto delay_at = [&](double vctrl) {
    BiasContext b;
    b.vdd = t().vdd;
    b.port_voltage = {{"vbn", vctrl}, {"vbp", t().vdd - vctrl}};
    b.port_load_cap = {{"out", 4e-15}};
    const PrimitiveEvaluator eval = make_eval(b);
    EvalCondition ideal;
    ideal.ideal = true;
    return eval.evaluate(lay, ideal).at(MetricKind::kDelay);
  };
  EXPECT_GT(delay_at(0.2), delay_at(0.5));
}

// The delay bench's transient ends at the step that decides its delay; the
// delay must keep every bit it had when the bench ran the whole 1.2 ns
// window. Golden bits recorded from the full-window bench. At vbn = 0 the
// starved inverter switches late (up to 1.14 ns on extracted 4-fin, 1-finger
// layouts), near the end of the window.
TEST(Evaluator, StarvedInverterDelayBitsMatchFullWindowGolden) {
  struct Case {
    double vbn;
    int nfin;
    int nf;
    bool ideal;
    std::uint64_t delay_bits;
  };
  static constexpr Case kGolden[] = {
      {0.0, 4, 1, true, 0x3e0400dca4c3ef71ULL},
      {0.0, 4, 1, false, 0x3e13a53d26fa4047ULL},
      {0.0, 4, 2, true, 0x3df5afd0805639a4ULL},
      {0.0, 4, 2, false, 0x3e03034d3f8354e8ULL},
      {0.0, 4, 4, true, 0x3de8a448692c9042ULL},
      {0.0, 4, 4, false, 0x3df3315197b1decaULL},
      {0.0, 4, 8, true, 0x3dddbc8a97b13ec9ULL},
      {0.0, 4, 8, false, 0x3de509984d03f468ULL},
      {0.0, 8, 1, true, 0x3df5afd0805639a4ULL},
      {0.0, 8, 1, false, 0x3e05883f069d0a27ULL},
      {0.0, 8, 2, true, 0x3de8a448692c9042ULL},
      {0.0, 8, 2, false, 0x3df5e158ca1fa837ULL},
      {0.0, 8, 4, true, 0x3dddbc8a97b13ec9ULL},
      {0.0, 8, 4, false, 0x3de79160401c5d9aULL},
      {0.0, 8, 8, true, 0x3dd3871bb6a44aa1ULL},
      {0.0, 8, 8, false, 0x3ddc55f1cf68e8ebULL},
      {0.0, 16, 1, true, 0x3de8a448692c9042ULL},
      {0.0, 16, 1, false, 0x3df919a2b6d81bf2ULL},
      {0.0, 16, 2, true, 0x3dddbc8a97b13ec9ULL},
      {0.0, 16, 2, false, 0x3deb0760c2e56a54ULL},
      {0.0, 16, 4, true, 0x3dd3871bb6a44aa1ULL},
      {0.0, 16, 4, false, 0x3ddfc9f614b6d117ULL},
      {0.0, 16, 8, true, 0x3dcc9d1898eb6cd2ULL},
      {0.0, 16, 8, false, 0x3dd5be8a9d638169ULL},
      {0.2, 4, 1, true, 0x3db9704bb1208100ULL},
      {0.2, 4, 1, false, 0x3dc1cfb2347058ccULL},
      {0.2, 4, 2, true, 0x3dabf603c1658bf0ULL},
      {0.2, 4, 2, false, 0x3db2ce6601105cb8ULL},
      {0.2, 4, 4, true, 0x3da06d6f0f01e948ULL},
      {0.2, 4, 4, false, 0x3da5c391dcc22900ULL},
      {0.2, 4, 8, true, 0x3d956052c72bdf30ULL},
      {0.2, 4, 8, false, 0x3d9e10286926db80ULL},
      {0.2, 8, 1, true, 0x3dabf603c1658bf0ULL},
      {0.2, 8, 1, false, 0x3db4999168ae6e10ULL},
      {0.2, 8, 2, true, 0x3da06d6f0f01e948ULL},
      {0.2, 8, 2, false, 0x3da7534ab4b1e600ULL},
      {0.2, 8, 4, true, 0x3d956052c72bdf30ULL},
      {0.2, 8, 4, false, 0x3d9e55adb36b1b80ULL},
      {0.2, 8, 8, true, 0x3d8edf5a25e7b680ULL},
      {0.2, 8, 8, false, 0x3d996871cf5a77a0ULL},
      {0.2, 16, 1, true, 0x3da06d6f0f01e948ULL},
      {0.2, 16, 1, false, 0x3dab7287d909c0e8ULL},
      {0.2, 16, 2, true, 0x3d956052c72bdf30ULL},
      {0.2, 16, 2, false, 0x3da1120e518cc448ULL},
      {0.2, 16, 4, true, 0x3d8edf5a25e7b680ULL},
      {0.2, 16, 4, false, 0x3d99dededb799560ULL},
      {0.2, 16, 8, true, 0x3d888f8af58f3370ULL},
      {0.2, 16, 8, false, 0x3d9a2c1b46a4a480ULL},
      {0.4, 4, 1, true, 0x3da367e0f6c06ce8ULL},
      {0.4, 4, 1, false, 0x3da73fe7d9a366e8ULL},
      {0.4, 4, 2, true, 0x3d996bfffd97c610ULL},
      {0.4, 4, 2, false, 0x3d9dc911e0c2dc40ULL},
      {0.4, 4, 4, true, 0x3d9252f201fea470ULL},
      {0.4, 4, 4, false, 0x3d95ddcae0fd1e60ULL},
      {0.4, 4, 8, true, 0x3d8b703487652020ULL},
      {0.4, 4, 8, false, 0x3d92936c6378c880ULL},
      {0.4, 8, 1, true, 0x3d996bfffd97c610ULL},
      {0.4, 8, 1, false, 0x3d9fad3d2930dda0ULL},
      {0.4, 8, 2, true, 0x3d9252f201fea470ULL},
      {0.4, 8, 2, false, 0x3d96947ea4dca240ULL},
      {0.4, 8, 4, true, 0x3d8b703487652020ULL},
      {0.4, 8, 4, false, 0x3d921c390e74f850ULL},
      {0.4, 8, 8, true, 0x3d854a5041772df0ULL},
      {0.4, 8, 8, false, 0x3d9178a7d40af840ULL},
      {0.4, 16, 1, true, 0x3d9252f201fea470ULL},
      {0.4, 16, 1, false, 0x3d996895500570e0ULL},
      {0.4, 16, 2, true, 0x3d8b703487652020ULL},
      {0.4, 16, 2, false, 0x3d93879e48cb23b0ULL},
      {0.4, 16, 4, true, 0x3d854a5041772df0ULL},
      {0.4, 16, 4, false, 0x3d9126e8af55f970ULL},
      {0.4, 16, 8, true, 0x3d81ea168b23fac0ULL},
      {0.4, 16, 8, false, 0x3d93a4d6451869f0ULL},
      {0.5, 4, 1, true, 0x3da147014841e3e8ULL},
      {0.5, 4, 1, false, 0x3da4555b20b30ea0ULL},
      {0.5, 4, 2, true, 0x3d9780cd83a00660ULL},
      {0.5, 4, 2, false, 0x3d9b18b014cd2540ULL},
      {0.5, 4, 4, true, 0x3d9129624f88ca40ULL},
      {0.5, 4, 4, false, 0x3d9486d3129e85f0ULL},
      {0.5, 4, 8, true, 0x3d89d9131f9ed370ULL},
      {0.5, 4, 8, false, 0x3d91b12a9be72010ULL},
      {0.5, 8, 1, true, 0x3d9780cd83a00660ULL},
      {0.5, 8, 1, false, 0x3d9cae42d4968b50ULL},
      {0.5, 8, 2, true, 0x3d9129624f88ca40ULL},
      {0.5, 8, 2, false, 0x3d95217cb8b4e6b0ULL},
      {0.5, 8, 4, true, 0x3d89d9131f9ed370ULL},
      {0.5, 8, 4, false, 0x3d912f404f7ca770ULL},
      {0.5, 8, 8, true, 0x3d844f211324b240ULL},
      {0.5, 8, 8, false, 0x3d90da7d6a3c7710ULL},
      {0.5, 16, 1, true, 0x3d9129624f88ca40ULL},
      {0.5, 16, 1, false, 0x3d97bf8b1efffec0ULL},
      {0.5, 16, 2, true, 0x3d89d9131f9ed370ULL},
      {0.5, 16, 2, false, 0x3d92958edc22be80ULL},
      {0.5, 16, 4, true, 0x3d844f211324b240ULL},
      {0.5, 16, 4, false, 0x3d90853cf69cd130ULL},
      {0.5, 16, 8, true, 0x3d80cb3d93bb60d0ULL},
      {0.5, 16, 8, false, 0x3d933040e83ccb20ULL},
  };
  const pcell::PrimitiveGenerator gen(t());
  for (const Case& g : kGolden) {
    BiasContext b;
    b.vdd = t().vdd;
    b.port_voltage = {{"vbn", g.vbn}, {"vbp", t().vdd - g.vbn}};
    b.port_load_cap = {{"out", 4e-15}};
    const PrimitiveEvaluator eval = make_eval(b);
    const pcell::PrimitiveLayout lay = gen.generate(
        pcell::make_current_starved_inverter(), cfg(g.nfin, g.nf, 1));
    EvalCondition c;
    c.ideal = g.ideal;
    const double delay = eval.evaluate(lay, c).at(MetricKind::kDelay);
    double golden = 0.0;
    std::memcpy(&golden, &g.delay_bits, sizeof golden);
    EXPECT_EQ(std::memcmp(&delay, &golden, sizeof delay), 0)
        << "vbn=" << g.vbn << " nfin=" << g.nfin << " nf=" << g.nf
        << " ideal=" << g.ideal << ": " << delay << " vs " << golden;
  }
}

TEST(Evaluator, SwitchOnCurrent) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_switch(), cfg(8, 8, 1));
  BiasContext b;
  b.vdd = t().vdd;
  b.port_voltage = {{"a", 0.4}, {"b", 0.0}};
  const PrimitiveEvaluator eval = make_eval(b);
  EvalCondition ideal;
  ideal.ideal = true;
  const MetricValues v = eval.evaluate(lay, ideal);
  EXPECT_GT(v.at(MetricKind::kOutputCurrent), 50e-6);
}

TEST(Evaluator, RandomOffsetSigmaFollowsPelgrom) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout small =
      gen.generate(pcell::make_diff_pair(), cfg(4, 6, 1));
  const pcell::PrimitiveLayout large =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  // Bigger devices mismatch less; the ratio follows sqrt(area).
  const double s_small = eval.random_offset_sigma(small);
  const double s_large = eval.random_offset_sigma(large);
  EXPECT_GT(s_small, s_large);
  EXPECT_NEAR(s_small / s_large, std::sqrt(960.0 / 24.0), 0.5);
}

TEST(Evaluator, StatsCountTestbenches) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const PrimitiveEvaluator eval = make_eval(dp_bias());
  eval.stats().reset();
  (void)eval.evaluate(lay, {});
  // DP runs three testbenches: Gm, drain capacitance, offset (Table V).
  EXPECT_EQ(eval.stats().testbenches, 3);
}

TEST(Evaluator, MomCapMetrics) {
  const pcell::MomCapLayout cap =
      pcell::generate_mom_cap(t(), {16, 2e-6, tech::Layer::kM3});
  EvalCondition cond;
  const MetricValues v = evaluate_mom_cap(t(), cap, cond);
  EXPECT_GT(v.at(MetricKind::kCapacitance), 0.0);
  EXPECT_GT(v.at(MetricKind::kCornerFreq), 1e9);
  // Terminal wires lower the corner frequency.
  EvalCondition wired;
  wired.port_wires["a"] = extract::WireRc{500.0, 1e-15};
  const MetricValues vw = evaluate_mom_cap(t(), cap, wired);
  EXPECT_LT(vw.at(MetricKind::kCornerFreq), v.at(MetricKind::kCornerFreq));
}

}  // namespace
}  // namespace olp::core
