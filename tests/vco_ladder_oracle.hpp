#pragma once
// The RO-VCO window ladder as a plain serial loop over full recordings:
// the reference RoVco::frequency() must match bit for bit. It runs the
// 2.5 / 20 / 160 ns windows one after another, each recording the full
// unknown vector, and returns the first window's frequency that shows
// sustained, adequately sampled oscillation.

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "circuits/vco.hpp"
#include "spice/measure.hpp"
#include "spice/simulator.hpp"

namespace olp::circuits::oracle {

inline std::optional<double> serial_frequency(const RoVco& vco,
                                              const Realization& realization,
                                              double vctrl) {
  const spice::Circuit ckt = vco.build(realization, vctrl);
  const spice::Simulator sim(ckt);
  const double vdd = vco.technology().vdd;
  struct Window {
    double tstop, dt;
  };
  const Window windows[] = {{2.5e-9, 1e-12}, {20e-9, 8e-12}, {160e-9, 64e-12}};
  for (const Window& win : windows) {
    spice::TranOptions tr;
    tr.tstop = win.tstop;
    tr.dt = win.dt;
    const spice::TranResult res = sim.tran(tr);
    if (!res.ok) continue;
    const std::vector<double> w =
        spice::tran_waveform(sim, res, ckt.find_node("op0"));
    const auto freq = spice::oscillation_frequency(res.times, w, 0.5 * vdd, 4);
    if (!freq) continue;
    double lo = 1e9, hi = -1e9;
    for (std::size_t i = w.size() / 2; i < w.size(); ++i) {
      lo = std::min(lo, w[i]);
      hi = std::max(hi, w[i]);
    }
    if (hi - lo < 0.5 * vdd) continue;
    if (1.0 / (*freq) < 8.0 * win.dt) continue;
    return freq;
  }
  return std::nullopt;
}

/// Whether two frequency() results are the same, bit for bit.
inline bool same_bits(const std::optional<double>& a,
                      const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || std::memcmp(&*a, &*b, sizeof(double)) == 0;
}

}  // namespace olp::circuits::oracle
