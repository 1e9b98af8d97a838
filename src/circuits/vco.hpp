#pragma once
// Eight-stage differential ring-oscillator VCO (paper Table VII).
//
// Each stage is a pseudo-differential pair of current-starved inverters with
// a weak cross-coupled latch (NMOS + PMOS pairs) holding the two phases in
// antiphase. The ring closes with one polarity twist. The starve devices are
// driven by the control voltage (NMOS side) and its complement (PMOS side);
// bias generation is outside the scope, as in the paper where the VCO's
// control circuitry is supplied externally.
//
// All stages are identical, so primitive optimization runs on one
// representative stage and the result is replicated — exactly the paper's
// usage ("the primitive (current starved inverter) and its ports are
// optimized for delay and current").

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuits/common.hpp"

namespace olp::circuits {

class RoVco {
 public:
  explicit RoVco(const tech::Technology& technology, int stages = 8);

  bool prepare();

  /// Representative instances: "inv" (one current-starved inverter, used for
  /// all 2*stages inverters), "nlatch"/"platch" (per-stage latches).
  const std::vector<InstanceSpec>& instances() const { return instances_; }
  std::vector<InstanceSpec>& instances() { return instances_; }

  /// Oscillation frequency at a control voltage; nullopt when the ring does
  /// not oscillate within the simulation window (the basis of the paper's
  /// "voltage range" row).
  std::optional<double> frequency(const Realization& realization,
                                  double vctrl) const;

  /// Table VII metrics over a control sweep: "fmax_ghz", "fmin_ghz",
  /// "vrange_lo", "vrange_hi" (the lowest/highest control voltage at which
  /// oscillation is observed).
  std::map<std::string, double> measure(const Realization& realization,
                                        const std::vector<double>& vctrls) const;

  /// Default control sweep (0 to 0.5 V).
  static std::vector<double> default_sweep();

  std::vector<std::string> routed_nets() const { return {"stage_out"}; }

  int stages() const { return stages_; }
  const tech::Technology& technology() const { return tech_; }

  /// The testbench frequency() simulates: the ring under `realization` at
  /// control voltage `vctrl`, with the phase kick in its initial conditions.
  spice::Circuit build(const Realization& realization, double vctrl) const;

 private:
  const tech::Technology& tech_;
  int stages_;
  std::vector<InstanceSpec> instances_;
};

}  // namespace olp::circuits
