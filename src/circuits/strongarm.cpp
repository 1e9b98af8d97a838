#include "circuits/strongarm.hpp"

#include <cmath>
#include <limits>

#include "spice/measure.hpp"
#include "spice/simulator.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace olp::circuits {

StrongArmComparator::StrongArmComparator(const tech::Technology& technology)
    : tech_(technology) {
  {
    InstanceSpec tail;
    tail.name = "tail";
    tail.netlist = pcell::make_switch(spice::MosType::kNmos);
    tail.fins = 128;
    tail.port_nets = {{"a", "tail"}, {"b", "vssa"}, {"clk", "clk"}};
    instances_.push_back(tail);
  }
  {
    InstanceSpec dp;
    dp.name = "dp";
    dp.netlist = pcell::make_diff_pair();
    dp.fins = 96;
    dp.port_nets = {{"da", "xp"},
                    {"db", "xn"},
                    {"ga", "vip"},
                    {"gb", "vin"},
                    {"s", "tail"}};
    instances_.push_back(dp);
  }
  {
    InstanceSpec nl;
    nl.name = "nlatch";
    nl.netlist = pcell::make_latch_pair(spice::MosType::kNmos);
    nl.fins = 64;
    nl.port_nets = {
        {"da", "outp"}, {"db", "outn"}, {"sa", "xp"}, {"sb", "xn"}};
    instances_.push_back(nl);
  }
  {
    InstanceSpec pl;
    pl.name = "platch";
    pl.netlist = pcell::make_cross_coupled_pair(spice::MosType::kPmos);
    pl.fins = 48;
    pl.port_nets = {{"da", "outp"}, {"db", "outn"}, {"s", "vdd"}};
    instances_.push_back(pl);
  }
  // Precharge switches: outputs and internal nodes to vdd on clk low.
  const char* nodes[4] = {"outp", "outn", "xp", "xn"};
  for (int k = 0; k < 4; ++k) {
    InstanceSpec sw;
    sw.name = std::string("pre") + std::to_string(k);
    sw.netlist = pcell::make_switch(spice::MosType::kPmos);
    sw.fins = 24;
    sw.port_nets = {{"a", nodes[k]}, {"b", "vdd"}, {"clk", "clk"}};
    instances_.push_back(sw);
  }
}

spice::Circuit StrongArmComparator::build(
    const Realization& realization) const {
  BuildContext bc = make_build_context(realization.corner);
  const spice::NodeId vdd = bc.net("vdd");
  const spice::NodeId vssa = bc.net("vssa");
  instantiate(bc, instances_, realization, tech_, "0", "vdd",
              {"vdd", "vssa", "clk"});
  bc.ckt.add_vsource("vdd_src", vdd, spice::kGround,
                     spice::Waveform::dc(tech_.vdd));
  bc.ckt.add_vsource("vss_src", vssa, spice::kGround,
                     spice::Waveform::dc(0.0));
  // Clock: low for the first quarter period (precharge), then evaluate.
  bc.ckt.add_vsource(
      "clk_src", bc.net("clk"), spice::kGround,
      spice::Waveform::pulse(0.0, tech_.vdd, 0.25 * clock_period_, 20e-12,
                             20e-12, 0.5 * clock_period_, clock_period_));
  bc.ckt.add_vsource("vip_src", bc.net("vip"), spice::kGround,
                     spice::Waveform::dc(vcm_ + 0.5 * vin_diff_));
  bc.ckt.add_vsource("vin_src", bc.net("vin"), spice::kGround,
                     spice::Waveform::dc(vcm_ - 0.5 * vin_diff_));
  // Comparator output load (following latch input).
  bc.ckt.add_capacitor("clp", bc.net("outp"), spice::kGround, 5e-15);
  bc.ckt.add_capacitor("cln", bc.net("outn"), spice::kGround, 5e-15);
  return bc.ckt;
}

bool StrongArmComparator::prepare() {
  // The comparator is clocked; bias contexts use precharge-phase conditions
  // for capacitance-like metrics and evaluation-phase conditions for Gm.
  for (InstanceSpec& inst : instances_) {
    inst.bias.vdd = tech_.vdd;
    if (inst.name == "tail") {
      inst.bias.port_voltage = {{"a", 0.15}, {"b", 0.0}, {"clk", tech_.vdd}};
      inst.bias.bias_current = 400e-6;
    } else if (inst.name == "dp") {
      inst.bias.port_voltage = {{"ga", vcm_},
                                {"gb", vcm_},
                                {"da", 0.45},
                                {"db", 0.45},
                                {"s", 0.15}};
      inst.bias.port_load_cap = {{"da", 15e-15}, {"db", 15e-15}};
      inst.bias.bias_current = 400e-6;
    } else if (inst.name == "nlatch") {
      inst.bias.port_voltage = {
          {"da", 0.6}, {"db", 0.6}, {"sa", 0.3}, {"sb", 0.3}};
      inst.bias.port_load_cap = {{"da", 10e-15}, {"db", 10e-15}};
      inst.bias.bias_current = 200e-6;
    } else if (inst.name == "platch") {
      inst.bias.port_voltage = {{"da", 0.4}, {"db", 0.4}};
      inst.bias.port_load_cap = {{"da", 10e-15}, {"db", 10e-15}};
      inst.bias.bias_current = 200e-6;
    } else {  // precharge switches
      inst.bias.port_voltage = {
          {"a", 0.6}, {"b", tech_.vdd}, {"clk", 0.0}};
      inst.bias.bias_current = 100e-6;
    }
  }
  return true;
}

std::map<std::string, double> StrongArmComparator::measure(
    const Realization& realization) const {
  spice::Circuit ckt = build(realization);
  spice::Simulator sim(ckt);
  std::map<std::string, double> out;

  spice::TranOptions tr;
  tr.tstop = 2.0 * clock_period_;
  tr.dt = 1e-12;
  const spice::TranResult res = sim.tran(tr);
  if (!res.ok) {
    OLP_WARN << "StrongARM transient failed";
    return out;
  }

  const std::vector<double> clk =
      spice::tran_waveform(sim, res, ckt.find_node("clk"));
  const std::vector<double> outp =
      spice::tran_waveform(sim, res, ckt.find_node("outp"));
  const std::vector<double> outn =
      spice::tran_waveform(sim, res, ckt.find_node("outn"));

  // Regeneration delay: clock rising 50% -> differential output reaches
  // half the supply. vip > vin pulls the xp side down harder, so outp
  // collapses through the NMOS latch and outn stays precharged: the resolved
  // decision is outn - outp.
  std::vector<double> diff(outp.size());
  for (std::size_t i = 0; i < diff.size(); ++i) diff[i] = outn[i] - outp[i];
  const auto delay = spice::delay_between(
      res.times, clk, 0.5 * tech_.vdd, true, diff, 0.5 * tech_.vdd, true,
      /*ref_skip=*/1);  // use the second clock edge (first is startup)
  if (delay) out["delay_ps"] = *delay * 1e12;

  out["power_uw"] = spice::average_supply_power(
                        sim, res, "vdd_src", clock_period_,
                        2.0 * clock_period_) *
                    1e6;
  return out;
}

double StrongArmComparator::measure_offset(const Realization& realization,
                                           double search_range) const {
  // Copy so the probe can vary the input differential without mutating this
  // comparator's configuration.
  StrongArmComparator probe = *this;
  // The decision at input differential d: +1 or -1, or 0 when its
  // transient fails.
  auto decision = [&](double d) {
    probe.vin_diff_ = d;
    spice::Circuit ckt = probe.build(realization);
    spice::Simulator sim(ckt);
    spice::TranOptions tr;
    tr.tstop = 2.0 * clock_period_;
    tr.dt = 2e-12;
    const spice::NodeId outp = ckt.find_node("outp");
    const spice::NodeId outn = ckt.find_node("outn");
    tr.probes = {outp, outn};
    const spice::TranResult res = sim.tran(tr);
    if (!res.ok) return 0;
    return (res.trace(outn).back() - res.trace(outp).back()) > 0 ? 1 : -1;
  };
  const double kFailed = std::numeric_limits<double>::quiet_NaN();

  double lo = -search_range;
  double hi = search_range;
  const int d_lo = decision(lo);
  const int d_hi = decision(hi);
  if (d_lo == 0 || d_hi == 0) return kFailed;
  // No flip within the window: the offset is beyond the range.
  if (d_lo == d_hi) return search_range;
  for (int it = 0; it < 10; ++it) {
    const double mid = 0.5 * (lo + hi);
    const int d = decision(mid);
    if (d == 0) return kFailed;
    if (d == d_hi) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace olp::circuits
