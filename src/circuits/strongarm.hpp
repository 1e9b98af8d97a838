#pragma once
// StrongARM latch comparator (paper Fig. 3, Table VI).
//
// Topology (Razavi, SSCS Magazine'15): clocked NMOS tail, input differential
// pair, NMOS latch pair stacked on the DP drains, PMOS cross-coupled pair at
// the outputs, and four PMOS precharge switches (internal nodes + outputs).
// Performance is measured in transient: regeneration delay from the clock
// edge to output resolution, and average supply power at the clock rate.

#include <map>
#include <string>
#include <vector>

#include "circuits/common.hpp"

namespace olp::circuits {

class StrongArmComparator {
 public:
  explicit StrongArmComparator(const tech::Technology& technology);

  bool prepare();

  const std::vector<InstanceSpec>& instances() const { return instances_; }
  std::vector<InstanceSpec>& instances() { return instances_; }

  /// Table VI metrics: "delay_ps", "power_uw".
  std::map<std::string, double> measure(const Realization& realization) const;

  /// Input-referred offset: the differential input at which the decision
  /// flips, found by bisection over transient evaluations. The paper notes
  /// the offset "is similar in all cases, because it is a function of
  /// matching nets" — this measurement backs that claim for our layouts.
  /// Returns `search_range` when the decision does not flip within it, and
  /// NaN when any decision transient fails.
  double measure_offset(const Realization& realization,
                        double search_range = 20e-3) const;

  std::vector<std::string> routed_nets() const {
    return {"tail", "xp", "xn", "outp", "outn"};
  }

  double clock_period() const { return clock_period_; }
  double input_differential() const { return vin_diff_; }
  const tech::Technology& technology() const { return tech_; }

 private:
  spice::Circuit build(const Realization& realization) const;

  const tech::Technology& tech_;
  std::vector<InstanceSpec> instances_;
  double clock_period_ = 1e-9;  ///< 1 GHz clock
  double vcm_ = 0.45;
  double vin_diff_ = 50e-3;
};

}  // namespace olp::circuits
