// Standalone check of RoVco::frequency()'s speculative window ladder (no
// gtest), for tests/run_tsan.sh: the sanitizer tree configures with
// -DOLP_BUILD_TESTS=OFF. On the schematic ring it runs
//
//   - 0.0 V with the default rule, which starts the 20 ns window on a
//     second thread while the 2.5 ns one is still running;
//   - 0.5 V with a rule that fires at once, so the 20 ns window runs beside
//     a 2.5 ns window that passes and is cancelled;
//   - 0.0 V with a rule that throws in the 20 ns window, which the ladder
//     reaches, so frequency() must rethrow;
//
// and compares each result bit for bit with the serial reference ladder.
// Exits nonzero on any mismatch. The gtest twin is test_vco_ladder.cpp.

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "circuits/vco.hpp"
#include "util/logging.hpp"
#include "vco_ladder_oracle.hpp"

int main() {
  using namespace olp;
  using namespace olp::circuits;
  set_log_level(LogLevel::kError);
  const tech::Technology t = tech::make_default_finfet_tech();
  RoVco vco(t);
  if (!vco.prepare()) return 1;
  const Realization real = schematic_realization(vco.instances(), t);
  int failures = 0;
  auto check = [&](const char* what, bool ok) {
    std::printf("%s: %s\n", what, ok ? "ok" : "MISMATCH");
    if (!ok) ++failures;
  };

  check("0.0 V, default rule",
        oracle::same_bits(vco.frequency(real, 0.0),
                          oracle::serial_frequency(vco, real, 0.0)));
  const RoVco::Speculation always = [](double, const std::vector<double>&,
                                       const std::vector<double>&) {
    return true;
  };
  check("0.5 V, always speculating",
        oracle::same_bits(vco.frequency(real, 0.5, always),
                          oracle::serial_frequency(vco, real, 0.5)));
  const RoVco::Speculation throws_at_20ns =
      [](double tstop, const std::vector<double>&,
         const std::vector<double>&) -> bool {
    if (tstop == 20e-9) throw std::runtime_error("window 2");
    return true;
  };
  bool threw = false;
  try {
    vco.frequency(real, 0.0, throws_at_20ns);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check("0.0 V, reached window throws", threw);
  return failures == 0 ? 0 : 1;
}
