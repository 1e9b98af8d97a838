#include "circuits/vco.hpp"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <iterator>
#include <mutex>
#include <system_error>
#include <thread>

#include "spice/measure.hpp"
#include "spice/simulator.hpp"
#include "util/error.hpp"
#include "util/faults.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"

namespace olp::circuits {

namespace {

/// The ladder's windows, shortest first: a short fast window, then wider
/// ones for a ring too slow to show enough full-swing crossings in it (the
/// paper's "voltage range" row is about whether the ring oscillates at all).
struct Window {
  double tstop, dt;
};
constexpr Window kWindows[] = {{2.5e-9, 1e-12}, {20e-9, 8e-12},
                               {160e-9, 64e-12}};

/// Runs a ladder of windows and returns the result of the lowest one that
/// passes, exactly as running them one after another would. The caller's
/// thread runs the lowest window nobody runs yet; when the trigger says a
/// running window probably fails, the next window starts at once, on a
/// second thread if the caller's is busy. At most two windows are in
/// flight: the lowest undecided one and the one above it. A window stops
/// early (through its TranOptions::stop) only once a window below it has
/// passed or thrown, which decides the ladder without it. An exception is
/// rethrown only if every window below the one that threw failed.
class WindowLadder {
 public:
  /// Runs window k with `stop` as its transient's stop condition; returns
  /// its frequency when it passes.
  using Run = std::function<std::optional<double>(int k, spice::TranStop stop)>;
  /// Whether window k probably fails, from what it has recorded so far.
  using Trigger = std::function<bool(int k, const spice::TranResult& so_far)>;

  WindowLadder(int count, Run run, Trigger trigger)
      : run_(std::move(run)),
        trigger_(std::move(trigger)),
        state_(static_cast<std::size_t>(count), State::kIdle),
        freq_(static_cast<std::size_t>(count)),
        error_(static_cast<std::size_t>(count)),
        triggered_(static_cast<std::size_t>(count), false),
        asked_(static_cast<std::size_t>(count), 0),
        cancel_from_(count),
        context_(obs::capture_thread_context()) {}

  ~WindowLadder() {
    if (helper_.joinable()) helper_.join();
  }

  WindowLadder(const WindowLadder&) = delete;
  WindowLadder& operator=(const WindowLadder&) = delete;

  std::optional<double> result() {
    std::unique_lock<std::mutex> lock(mu_);
    for (int lowest = undecided(); !decided(lowest); lowest = undecided()) {
      const int k = pick(lowest);
      if (k >= 0) {
        run_window(k, lock);
      } else {
        cv_.wait(lock);
      }
    }
    // A window still running is above the deciding one, which cancelled it
    // when it passed or threw; wait for it to stop.
    const int lowest = undecided();
    cv_.wait(lock, [&] { return !helper_busy_; });
    lock.unlock();
    if (helper_.joinable()) helper_.join();
    if (lowest == count()) return std::nullopt;
    if (error_[static_cast<std::size_t>(lowest)]) {
      std::rethrow_exception(error_[static_cast<std::size_t>(lowest)]);
    }
    return freq_[static_cast<std::size_t>(lowest)];
  }

 private:
  enum class State { kIdle, kRunning, kFailed, kPassed, kThrew, kCancelled };

  int count() const { return static_cast<int>(state_.size()); }
  State state(int k) const { return state_[static_cast<std::size_t>(k)]; }

  /// The lowest window that has not failed: every window below it failed.
  int undecided() const {
    int k = 0;
    while (k < count() && state(k) == State::kFailed) ++k;
    return k;
  }
  /// Whether the ladder's result is known, given undecided().
  bool decided(int lowest) const {
    return lowest == count() || state(lowest) == State::kPassed ||
           state(lowest) == State::kThrew;
  }
  /// The window to start now, or -1: the lowest undecided window if it is
  /// idle, else the one above it if the lowest has triggered.
  int pick(int lowest) const {
    if (decided(lowest)) return -1;
    if (state(lowest) == State::kIdle) return lowest;
    const int next = lowest + 1;
    if (next < count() && triggered_[static_cast<std::size_t>(lowest)] &&
        state(next) == State::kIdle) {
      return next;
    }
    return -1;
  }

  /// Makes every window above `k` stop at its next sample.
  void cancel_above(int k) {
    if (k + 1 < cancel_from_.load()) {
      cancel_from_.store(k + 1);
    }
  }

  /// Runs window k with the lock released; records how it ended.
  void run_window(int k, std::unique_lock<std::mutex>& lock) {
    if (k > undecided()) obs::counter_add("vco.window.speculated");
    state_[static_cast<std::size_t>(k)] = State::kRunning;
    lock.unlock();
    std::optional<double> freq;
    std::exception_ptr error;
    try {
      freq = run_(k, [this, k](const spice::TranResult& so_far) {
        if (k >= cancel_from_.load()) return true;
        const std::size_t i = static_cast<std::size_t>(k);
        if (trigger_ && !asked_[i] && trigger_(k, so_far)) {
          asked_[i] = 1;
          on_trigger(k);
        }
        return false;
      });
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    State& st = state_[static_cast<std::size_t>(k)];
    if (k >= cancel_from_.load()) {
      st = State::kCancelled;
      obs::counter_add("vco.window.cancelled");
    } else if (error) {
      st = State::kThrew;
      error_[static_cast<std::size_t>(k)] = error;
      cancel_above(k);
    } else if (freq) {
      st = State::kPassed;
      freq_[static_cast<std::size_t>(k)] = freq;
      cancel_above(k);
    } else {
      st = State::kFailed;
    }
    cv_.notify_all();
  }

  /// Window k probably fails: start the window above it, on the helper
  /// thread when that is free, else on whichever thread frees up first.
  void on_trigger(int k) {
    std::lock_guard<std::mutex> lock(mu_);
    triggered_[static_cast<std::size_t>(k)] = true;
    cv_.notify_all();
    if (helper_busy_ || pick(undecided()) < 0) return;
    if (helper_.joinable()) helper_.join();
    try {
      helper_ = std::thread([this] { helper_loop(); });
      helper_busy_ = true;
    } catch (const std::system_error&) {
      // No thread to spare: the ladder goes on serially.
    }
  }

  void helper_loop() {
    try {
      obs::ThreadContextScope scope(context_);
      std::unique_lock<std::mutex> lock(mu_);
      for (int k = pick(undecided()); k >= 0; k = pick(undecided())) {
        run_window(k, lock);
      }
    } catch (...) {
      // A window's own errors are caught in run_window(); what is left is
      // running out of memory for the bookkeeping around it. The caller's
      // thread runs whatever the helper has not started.
    }
    std::lock_guard<std::mutex> lock(mu_);
    helper_busy_ = false;
    cv_.notify_all();
  }

  const Run run_;
  const Trigger trigger_;
  std::mutex mu_;  ///< guards everything below but asked_ and cancel_from_
  std::condition_variable cv_;
  std::vector<State> state_;
  std::vector<std::optional<double>> freq_;
  std::vector<std::exception_ptr> error_;
  std::vector<bool> triggered_;
  /// Whether window k's trigger has fired; touched only by its own thread.
  std::vector<char> asked_;
  /// Windows from this index up stop at their next sample.
  std::atomic<int> cancel_from_;
  const obs::ThreadContext context_;
  std::thread helper_;
  bool helper_busy_ = false;
};

/// frequency()'s speculation rule: window `tstop` probably fails.
bool probably_fails(double tstop, const std::vector<double>& times,
                    const std::vector<double>& op0, double level) {
  // A passing window holds five rising crossings, so its period is under a
  // quarter of the window and the ring, kicked at t = 0, first rises
  // within about 0.6 periods. No rising crossing in the first eighth means
  // the period is about as long as the window or the ring has not started.
  // Decided once, at the first sample past the eighth.
  const std::size_t m = times.size();
  const double eighth = 0.125 * tstop;
  if (m < 2 || times[m - 2] >= eighth || times[m - 1] < eighth) return false;
  return spice::crossing_times(times, op0, level, true).empty();
}

}  // namespace

RoVco::RoVco(const tech::Technology& technology, int stages)
    : tech_(technology), stages_(stages) {
  OLP_CHECK(stages_ >= 3, "ring oscillator needs at least 3 stages");
  {
    InstanceSpec inv;
    inv.name = "inv";
    inv.netlist = pcell::make_current_starved_inverter();
    inv.fins = 32;
    // Representative connectivity (one stage's positive-phase inverter).
    inv.port_nets = {{"in", "stage_in"}, {"out", "stage_out"},
                     {"vbp", "vbp"},     {"vbn", "vbn"},
                     {"vdd", "vdd"},     {"vss", "vssa"}};
    instances_.push_back(inv);
  }
  {
    // Weak cross-coupled *starved* inverters latch the two phases in
    // antiphase; starving them from the same control keeps the latch/drive
    // strength ratio constant so the ring oscillates across the whole
    // control range.
    InstanceSpec xi;
    xi.name = "xinv";
    xi.netlist = pcell::make_current_starved_inverter();
    xi.fins = 8;
    xi.port_nets = {{"in", "stage_out"}, {"out", "stage_outb"},
                    {"vbp", "vbp"},      {"vbn", "vbn"},
                    {"vdd", "vdd"},      {"vss", "vssa"}};
    instances_.push_back(xi);
  }
}

bool RoVco::prepare() {
  // Representative bias at mid-range control.
  const double vctrl_rep = 0.4;
  for (InstanceSpec& inst : instances_) {
    inst.bias.vdd = tech_.vdd;
    if (inst.name == "inv") {
      inst.bias.port_voltage = {{"vbn", vctrl_rep},
                                {"vbp", tech_.vdd - vctrl_rep},
                                {"in", 0.5 * tech_.vdd},
                                {"out", 0.5 * tech_.vdd},
                                {"vdd", tech_.vdd},
                                {"vss", 0.0}};
      // Load: next stage's inverter input plus the latch devices.
      inst.bias.port_load_cap = {{"out", 4e-15}};
      inst.bias.bias_current = 150e-6;
    } else {  // xinv
      inst.bias.port_voltage = {{"vbn", vctrl_rep},
                                {"vbp", tech_.vdd - vctrl_rep},
                                {"in", 0.5 * tech_.vdd},
                                {"out", 0.5 * tech_.vdd},
                                {"vdd", tech_.vdd},
                                {"vss", 0.0}};
      inst.bias.port_load_cap = {{"out", 4e-15}};
      inst.bias.bias_current = 40e-6;
    }
  }
  return true;
}

spice::Circuit RoVco::build(const Realization& realization,
                            double vctrl) const {
  // Expand the representative realization to all stages.
  std::vector<InstanceSpec> expanded;
  Realization expanded_real;
  expanded_real.ideal = realization.ideal;

  auto rep_layout = [&](const std::string& name) -> const auto& {
    const auto it = realization.layouts.find(name);
    OLP_CHECK(it != realization.layouts.end(),
              "VCO realization missing representative layout " + name);
    return it->second;
  };
  auto rep_tuning = [&](const std::string& name) {
    const auto it = realization.tunings.find(name);
    return it != realization.tunings.end() ? it->second
                                           : extract::TuningMap{};
  };

  auto out_p = [&](int i) { return "op" + std::to_string(i); };
  auto out_n = [&](int i) { return "on" + std::to_string(i); };

  for (int i = 0; i < stages_; ++i) {
    const int prev = (i + stages_ - 1) % stages_;
    // One polarity twist at the wrap keeps the differential ring oscillating.
    const std::string in_p = (i == 0) ? out_n(prev) : out_p(prev);
    const std::string in_n = (i == 0) ? out_p(prev) : out_n(prev);

    InstanceSpec invp = instances_[0];
    invp.name = "s" + std::to_string(i) + ".invp";
    invp.port_nets = {{"in", in_p},   {"out", out_p(i)}, {"vbp", "vbp"},
                      {"vbn", "vbn"}, {"vdd", "vdd"},    {"vss", "vssa"}};
    InstanceSpec invn = instances_[0];
    invn.name = "s" + std::to_string(i) + ".invn";
    invn.port_nets = {{"in", in_n},   {"out", out_n(i)}, {"vbp", "vbp"},
                      {"vbn", "vbn"}, {"vdd", "vdd"},    {"vss", "vssa"}};
    InstanceSpec xa = instances_[1];
    xa.name = "s" + std::to_string(i) + ".xa";
    xa.port_nets = {{"in", out_p(i)}, {"out", out_n(i)}, {"vbp", "vbp"},
                    {"vbn", "vbn"},   {"vdd", "vdd"},    {"vss", "vssa"}};
    InstanceSpec xb = instances_[1];
    xb.name = "s" + std::to_string(i) + ".xb";
    xb.port_nets = {{"in", out_n(i)}, {"out", out_p(i)}, {"vbp", "vbp"},
                    {"vbn", "vbn"},   {"vdd", "vdd"},    {"vss", "vssa"}};

    for (const InstanceSpec* src : {&invp, &invn}) {
      expanded_real.layouts[src->name] = rep_layout("inv");
      expanded_real.tunings[src->name] = rep_tuning("inv");
    }
    for (const InstanceSpec* src : {&xa, &xb}) {
      expanded_real.layouts[src->name] = rep_layout("xinv");
      expanded_real.tunings[src->name] = rep_tuning("xinv");
    }
    expanded.push_back(invp);
    expanded.push_back(invn);
    expanded.push_back(xa);
    expanded.push_back(xb);

    // The representative "stage_out" wire applies to every stage output.
    if (auto it = realization.net_wires.find("stage_out");
        it != realization.net_wires.end()) {
      expanded_real.net_wires[out_p(i)] = it->second;
      expanded_real.net_wires[out_n(i)] = it->second;
    }
  }

  BuildContext bc = make_build_context(realization.corner);
  const spice::NodeId vdd = bc.net("vdd");
  const spice::NodeId vssa = bc.net("vssa");
  // Supply/bias straps are lumped (capacitance only) to bound the MNA size
  // of the 32-inverter ring; the signal path keeps full strap fidelity.
  instantiate(bc, expanded, expanded_real, tech_, "0", "vdd",
              {"vdd", "vssa", "vbp", "vbn"});
  bc.ckt.add_vsource("vdd_src", vdd, spice::kGround,
                     spice::Waveform::dc(tech_.vdd));
  bc.ckt.add_vsource("vss_src", vssa, spice::kGround,
                     spice::Waveform::dc(0.0));
  bc.ckt.add_vsource("vbn_src", bc.net("vbn"), spice::kGround,
                     spice::Waveform::dc(vctrl));
  bc.ckt.add_vsource("vbp_src", bc.net("vbp"), spice::kGround,
                     spice::Waveform::dc(tech_.vdd - vctrl));
  // Symmetry-breaking kick.
  bc.ckt.set_initial_condition(bc.net("op0"), tech_.vdd);
  bc.ckt.set_initial_condition(bc.net("on0"), 0.0);
  return bc.ckt;
}

std::optional<double> RoVco::frequency(const Realization& realization,
                                       double vctrl) const {
  if (FaultInjector::global().enabled()) {
    // Injected faults are drawn in call order; a second thread would make
    // that order follow thread interleaving.
    return frequency(realization, vctrl, Speculation{});
  }
  const double level = 0.5 * tech_.vdd;
  return frequency(realization, vctrl,
                   [level](double tstop, const std::vector<double>& times,
                           const std::vector<double>& op0) {
                     return probably_fails(tstop, times, op0, level);
                   });
}

std::optional<double> RoVco::frequency(const Realization& realization,
                                       double vctrl,
                                       const Speculation& speculate) const {
  const spice::Circuit ckt = build(realization, vctrl);
  const spice::Simulator sim(ckt);
  const spice::NodeId op0 = ckt.find_node("op0");
  const double vdd = tech_.vdd;

  // Window k of the ladder: the ring's frequency if the window shows
  // sustained, adequately sampled oscillation, else nullopt.
  auto run = [&](int k, spice::TranStop stop) -> std::optional<double> {
    const Window& win = kWindows[static_cast<std::size_t>(k)];
    spice::TranOptions tr;
    tr.tstop = win.tstop;
    tr.dt = win.dt;
    tr.record_stride = 1;
    tr.probes = {op0};
    tr.stop = std::move(stop);
    const spice::TranResult res = sim.tran(tr);
    if (!res.ok) return std::nullopt;

    const std::vector<double>& w = res.trace(op0);
    const auto freq = spice::oscillation_frequency(res.times, w, 0.5 * vdd, 4);
    if (!freq) return std::nullopt;
    // Require sustained full-swing amplitude late in the window.
    double lo = 1e9, hi = -1e9;
    for (std::size_t i = w.size() / 2; i < w.size(); ++i) {
      lo = std::min(lo, w[i]);
      hi = std::max(hi, w[i]);
    }
    if (hi - lo < 0.5 * vdd) return std::nullopt;
    // Demand adequate sampling of the period before trusting the number.
    if (1.0 / (*freq) < 8.0 * win.dt) return std::nullopt;
    return freq;
  };
  WindowLadder::Trigger trigger;
  if (speculate) {
    trigger = [&speculate](int k, const spice::TranResult& so_far) {
      return speculate(kWindows[static_cast<std::size_t>(k)].tstop,
                       so_far.times, so_far.traces.front());
    };
  }
  return WindowLadder(static_cast<int>(std::size(kWindows)), run, trigger)
      .result();
}

std::vector<double> RoVco::default_sweep() {
  return {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
}

std::map<std::string, double> RoVco::measure(
    const Realization& realization, const std::vector<double>& vctrls) const {
  std::map<std::string, double> out;
  double fmax = 0.0, fmin = 1e300;
  double vlo = 1e300, vhi = -1e300;
  for (double v : vctrls) {
    const std::optional<double> f = frequency(realization, v);
    if (!f) continue;
    fmax = std::max(fmax, *f);
    fmin = std::min(fmin, *f);
    vlo = std::min(vlo, v);
    vhi = std::max(vhi, v);
  }
  if (fmax > 0.0) {
    out["fmax_ghz"] = fmax / 1e9;
    out["fmin_ghz"] = fmin / 1e9;
    out["vrange_lo"] = vlo;
    out["vrange_hi"] = vhi;
  }
  return out;
}

}  // namespace olp::circuits
