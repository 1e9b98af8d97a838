// Workload driver of the repository benchmark; perfbench/run.py builds it,
// feeds it the rounds it generated from the workload seed, and analyses what
// it prints.
//
//   olp_perfbench --workload <vco_tran|table6_flows|batch_explore>
//                 --trace <0|1> < rounds
//
// stdin holds one round per line, as whitespace-separated "<circuit>:<placer
// seed>" tokens (circuit = ota | sa | vco). The driver only drives the
// public API — FlowEngine::run, BatchRunner::run, Ota5T::measure,
// StrongArmComparator::measure, RoVco::frequency — and times every call
// from outside with a steady clock.
//
// With --trace 0 it runs every round once, in order; run.py decides how
// many rounds a run holds. With --trace 1 it runs each round twice,
// untraced and with the obs registry enabled, so the pair gives the tracing
// overhead on identical inputs; after each traced round it prints the
// registry's spans, counters, distributions and histograms.
//
// Output is one JSON object per line on stdout: every operation (flow
// decisions or circuit metrics, status, seconds), one line per round, trace
// dumps, set-up times, and the peak resident set size. Correctness checks
// and every statistic are computed by run.py (harness.py).
//
// A probe thread measures the host's speed throughout (HostSpeed), and each
// round line carries the mean probe time over that round, so that run.py
// can scale the round's times to a reference host speed.

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/batch.hpp"
#include "circuits/flow.hpp"
#include "circuits/ota5t.hpp"
#include "circuits/strongarm.hpp"
#include "circuits/vco.hpp"
#include "tech/technology.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"

namespace {

using namespace olp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Host speed -----------------------------------------------------------

/// Fixed work that never touches the library, in the mix the workloads do:
/// dense LU of a 40x40 matrix, a dependent walk through a 4 MB random
/// cycle (cache misses), and a small std::map fill (allocation).
class Probe {
 public:
  Probe() : next_(kCycle) {
    // One random cycle through every slot (Sattolo's shuffle), from a
    // fixed xorshift sequence.
    for (std::uint32_t i = 0; i < kCycle; ++i) next_[i] = i;
    std::uint64_t x = 88172645463325252ull;
    for (std::uint32_t i = kCycle - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }

  /// Runs the work once; returns the CPU seconds this thread spent on it,
  /// so that time the thread waits for a CPU does not count.
  double run() {
    const double t0 = thread_cpu_s();
    constexpr int n = 40;
    double a[n][n];
    for (int rep = 0; rep < 10; ++rep) {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) a[i][j] = i == j ? n + 1.0 : 1.0 / (1 + i + j + rep);
      }
      for (int k = 0; k < n; ++k) {
        for (int i = k + 1; i < n; ++i) {
          const double f = a[i][k] / a[k][k];
          for (int j = k; j < n; ++j) a[i][j] -= f * a[k][j];
        }
      }
      sink_ = sink_ + a[n - 1][n - 1];
    }
    for (int i = 0; i < 2000; ++i) at_ = next_[at_];
    std::map<int, double> m;
    for (int i = 0; i < 300; ++i) m[(i * 7919) % 1000] = i;
    sink_ = sink_ + static_cast<double>(at_ + m.size());
    return thread_cpu_s() - t0;
  }

 private:
  static constexpr std::uint32_t kCycle = 1u << 20;

  static double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }

  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
  volatile double sink_ = 0.0;
};

/// Runs the probe every 20 ms on its own thread for as long as it lives.
/// The hosts this runs on slow down by up to 1.6x, for seconds to minutes
/// at a time, from load the process cannot see; the probe slows with them,
/// so a round's time divided by the probe's mean time over the round
/// measures the work and not the host's state.
class HostSpeed {
 public:
  HostSpeed() : thread_([this] { loop(); }) {}
  ~HostSpeed() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }

  /// Mean probe seconds of the samples started since `t0`; the latest
  /// sample when none has.
  double mean_since(Clock::time_point t0) {
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [&] { return !samples_.empty(); });
    double sum = 0.0;
    int n = 0;
    for (auto it = samples_.rbegin(); it != samples_.rend() && it->first >= t0; ++it) {
      sum += it->second;
      ++n;
    }
    return n > 0 ? sum / n : samples_.back().second;
  }

 private:
  void loop() {
    Probe probe;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      lock.unlock();
      const Clock::time_point t = Clock::now();
      const double secs = probe.run();
      lock.lock();
      samples_.emplace_back(t, secs);
      wake_.notify_all();
      wake_.wait_for(lock, std::chrono::milliseconds(20), [&] { return stop_; });
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<std::pair<Clock::time_point, double>> samples_;
  std::thread thread_;
};

// --- JSON output ----------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Round-trip decimal (17 significant digits); non-finite values as null.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(u));
  return buf;
}

std::string metrics_json(const std::map<std::string, double>& metrics) {
  std::string out = "{";
  for (const auto& [k, v] : metrics) {
    if (out.size() > 1) out += ",";
    out += quote(k) + ":" + num(v);
  }
  return out + "}";
}

void emit(const std::string& line) { std::cout << line << '\n'; }

// --- Flow decisions -------------------------------------------------------

/// Canonical text of everything a flow decided: the option chosen per
/// instance, its strap tuning, the port wire count per net, and the bits of
/// every realized net RC. Two runs decided the same iff the texts are equal.
std::string decisions(const circuits::FlowReport& report,
                      const circuits::Realization& real) {
  std::ostringstream os;
  os << "chosen";
  for (const auto& [inst, idx] : report.chosen_option) os << ' ' << inst << '=' << idx;
  os << ";tuning";
  for (const auto& [inst, tuning] : real.tunings) {
    for (const auto& [term, wires] : tuning) {
      os << ' ' << inst << '.' << term << '=' << wires;
    }
  }
  os << ";wires";
  for (const core::NetWireDecision& d : report.decisions) {
    os << ' ' << d.circuit_net << '=' << d.parallel_routes;
  }
  os << ";rc";
  for (const auto& [net, rc] : real.net_wires) {
    os << ' ' << net << '=' << bits(rc.resistance) << '/' << bits(rc.capacitance);
  }
  return os.str();
}

// --- Rounds ---------------------------------------------------------------

struct Job {
  std::string circuit;
  std::uint64_t seed = 0;
};
using Round = std::vector<Job>;

std::vector<Round> read_rounds(std::istream& in) {
  std::vector<Round> rounds;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    Round round;
    std::string tok;
    while (ls >> tok) {
      const auto colon = tok.find(':');
      if (colon == std::string::npos) throw std::runtime_error("bad token " + tok);
      round.push_back({tok.substr(0, colon), std::stoull(tok.substr(colon + 1))});
    }
    if (!round.empty()) rounds.push_back(std::move(round));
  }
  return rounds;
}

/// One workload: its set-up (technology, prepared circuits) and how it runs
/// a round. Every call into the library is timed by `timed`, whose sum is
/// the attributed part of the round's wall time.
class Workload {
 public:
  Workload(std::string name, HostSpeed& host) : name_(std::move(name)), host_(host) {
    setup();
  }

  /// Technology construction, prepare() of every circuit the workload uses
  /// and batch-runner construction. Flow engines are built per round, since
  /// the placer seed is one of their options. Re-running it replaces the
  /// previous set-up.
  void setup() {
    runner_.reset();
    circuits_.reset();
    tech_.reset();
    tech_ = std::make_unique<tech::Technology>(tech::make_default_finfet_tech());
    circuits_ = std::make_unique<Circuits>(*tech_);
    bool ok = true;
    if (name_ == "vco_tran") {
      ok = circuits_->vco.prepare();
    } else if (name_ == "table6_flows") {
      ok = circuits_->ota.prepare() && circuits_->sa.prepare();
    } else if (name_ == "batch_explore") {
      ok = circuits_->ota.prepare() && circuits_->sa.prepare();
      runner_ = std::make_unique<circuits::BatchRunner>(*tech_, batch_options());
    } else {
      throw std::runtime_error("unknown workload " + name_);
    }
    if (!ok) throw std::runtime_error("circuit preparation failed");
  }

  /// Runs one round; returns {wall seconds of the whole round, from before
  /// its job list is built to after its outputs are written, seconds inside
  /// library calls}.
  std::pair<double, double> run(const Round& round, int index, bool traced) {
    round_ = index;
    traced_ = traced;
    calls_s_ = 0.0;
    const Clock::time_point t0 = Clock::now();
    if (name_ == "vco_tran") {
      for (const Job& job : round) run_vco(job);
    } else if (name_ == "table6_flows") {
      for (const Job& job : round) run_table6(job);
    } else {
      run_batch(round);
    }
    return {seconds_since(t0), calls_s_};
  }

 private:
  struct Circuits {
    explicit Circuits(const tech::Technology& t) : ota(t), sa(t), vco(t) {}
    circuits::Ota5T ota;
    circuits::StrongArmComparator sa;
    circuits::RoVco vco;
  };

  // Flows never own the obs registry here: an owning run rebases it at
  // entry, which would drop the spans of the calls before it in the round.
  // They run serially (the default): a 4-thread VCO flow took 1.2-1.9 s
  // from run to run on one host, slowed by whichever CPU the host held
  // back, which no in-process measure of the host's speed sees.
  static circuits::FlowOptions serial_options(std::uint64_t seed) {
    circuits::FlowOptions o;
    o.seed = seed;
    o.own_telemetry = false;
    return o;
  }
  /// bench_batch's evaluation-heavy exploration profile.
  static circuits::FlowOptions explore_options(std::uint64_t seed) {
    circuits::FlowOptions o;
    o.seed = seed;
    o.bins = 4;
    o.max_tuning_wires = 12;
    o.placer_iterations = 2000;
    o.combo_place_iterations = 300;
    return o;
  }
  static circuits::BatchOptions batch_options() {
    circuits::BatchOptions o;
    o.workers = 4;
    o.share_cache = true;
    return o;
  }

  template <typename F>
  auto timed(double& secs, F&& fn) {
    const Clock::time_point t0 = Clock::now();
    struct Stop {
      Clock::time_point t0;
      double& secs;
      Workload& w;
      ~Stop() {
        secs = seconds_since(t0);
        w.calls_s_ += secs;
        w.call_probe_s_ = w.host_.mean_since(t0);
      }
    } stop{t0, secs, *this};
    return fn();
  }

  std::string op_head(const char* op, const Job& job, double secs) const {
    return std::string("{\"op\":") + quote(op) + ",\"round\":" + std::to_string(round_) +
           ",\"traced\":" + (traced_ ? "1" : "0") + ",\"circuit\":" + quote(job.circuit) +
           ",\"seed\":" + std::to_string(job.seed) + ",\"secs\":" + num(secs) +
           ",\"probe_s\":" + num(call_probe_s_);
  }

  template <typename Measure>
  void run_flow_and_measure(const Job& job, const circuits::FlowEngine& engine,
                            circuits::FlowMode mode,
                            const std::vector<circuits::InstanceSpec>& instances,
                            const std::vector<std::string>& nets, Measure&& measure) {
    double secs = 0.0;
    circuits::FlowReport report;
    std::optional<circuits::Realization> real;
    std::string tail;
    try {
      real = timed(secs, [&] { return engine.run(mode, instances, nets, &report); });
      tail = std::string(",\"status\":") + (report.degraded ? "\"degraded\"" : "\"ok\"") +
             ",\"decisions\":" + quote(decisions(report, *real));
    } catch (const std::exception& e) {
      tail = ",\"status\":\"failed\",\"error\":" + quote(e.what());
    }
    emit(op_head("flow", job, secs) + ",\"mode\":" +
         quote(circuits::flow_mode_name(mode)) + tail + "}");
    if (real) measure(circuits::flow_mode_name(mode), *real);
  }

  void emit_measure(const Job& job, const std::string& of, double secs,
                    const std::string& tail, long tran_delta) {
    emit(op_head("measure", job, secs) + ",\"of\":" + quote(of) +
         ",\"tran\":" + std::to_string(tran_delta) + tail + "}");
  }

  /// Measures one realization of a Table VI circuit.
  template <typename Circuit>
  void measure_table6(const Job& job, const Circuit& circuit, const std::string& of,
                      const circuits::Realization& real) {
    double secs = 0.0;
    std::string tail;
    const long tran0 = sim_tran();
    try {
      const auto metrics = timed(secs, [&] { return circuit.measure(real); });
      tail = ",\"status\":\"ok\",\"metrics\":" + metrics_json(metrics);
    } catch (const std::exception& e) {
      tail = ",\"status\":\"failed\",\"error\":" + quote(e.what());
    }
    emit_measure(job, of, secs, tail, sim_tran() - tran0);
  }

  template <typename Circuit>
  void table6_circuit(const Job& job, const Circuit& circuit) {
    measure_table6(job, circuit, "schematic",
                   circuits::schematic_realization(circuit.instances(), *tech_));
    const circuits::FlowEngine engine(*tech_, serial_options(job.seed));
    for (const circuits::FlowMode mode :
         {circuits::FlowMode::kConventional, circuits::FlowMode::kOptimize,
          circuits::FlowMode::kManualOracle}) {
      run_flow_and_measure(job, engine, mode, circuit.instances(), circuit.routed_nets(),
                           [&](const std::string& of, const circuits::Realization& real) {
                             measure_table6(job, circuit, of, real);
                           });
    }
  }

  void run_table6(const Job& job) {
    if (job.circuit == "ota") {
      table6_circuit(job, circuits_->ota);
    } else if (job.circuit == "sa") {
      table6_circuit(job, circuits_->sa);
    } else {
      throw std::runtime_error("table6_flows runs ota and sa, not " + job.circuit);
    }
  }

  void run_vco(const Job& job) {
    if (job.circuit != "vco") throw std::runtime_error("vco_tran runs vco, not " + job.circuit);
    const circuits::RoVco& vco = circuits_->vco;
    const circuits::FlowEngine engine(*tech_, serial_options(job.seed));
    run_flow_and_measure(
        job, engine, circuits::FlowMode::kOptimize, vco.instances(), vco.routed_nets(),
        [&](const std::string& of, const circuits::Realization& real) {
          // The two ends of Table VII's control range.
          for (const double vctrl : {0.0, 0.5}) {
            double secs = 0.0;
            std::string tail;
            const long tran0 = sim_tran();
            try {
              const std::optional<double> f =
                  timed(secs, [&] { return vco.frequency(real, vctrl); });
              tail = ",\"status\":\"ok\",\"vctrl\":" + num(vctrl) +
                     ",\"metrics\":{\"freq_hz\":" + (f ? num(*f) : "null") + "}";
            } catch (const std::exception& e) {
              tail = ",\"status\":\"failed\",\"vctrl\":" + num(vctrl) +
                     ",\"error\":" + quote(e.what());
            }
            emit_measure(job, of, secs, tail, sim_tran() - tran0);
          }
        });
  }

  void run_batch(const Round& round) {
    std::vector<circuits::FlowJob> jobs;
    jobs.reserve(round.size());
    for (const Job& j : round) {
      circuits::FlowJob job;
      if (j.circuit == "ota") {
        job.instances = circuits_->ota.instances();
        job.routed_nets = circuits_->ota.routed_nets();
      } else if (j.circuit == "sa") {
        job.instances = circuits_->sa.instances();
        job.routed_nets = circuits_->sa.routed_nets();
      } else {
        throw std::runtime_error("batch_explore runs ota and sa, not " + j.circuit);
      }
      job.options = explore_options(j.seed);
      jobs.push_back(std::move(job));
    }
    double secs = 0.0;
    const circuits::BatchReport report = timed(secs, [&] { return runner_->run(jobs); });
    for (std::size_t i = 0; i < round.size(); ++i) {
      const circuits::JobResult& r = report.jobs[i];
      std::string tail = ",\"mode\":\"optimize\",\"status\":";
      if (r.status == circuits::JobStatus::kFailed) {
        tail += "\"failed\",\"error\":" + quote(r.error);
      } else {
        tail += quote(r.status == circuits::JobStatus::kDegraded ? "degraded" : "ok") +
                ",\"decisions\":" + quote(decisions(r.report, r.realization));
      }
      emit(op_head("flow", round[i], r.run_s) + tail + "}");
    }
    emit("{\"op\":\"batch\",\"round\":" + std::to_string(round_) +
         ",\"traced\":" + (traced_ ? "1" : "0") + ",\"secs\":" + num(secs) +
         ",\"probe_s\":" + num(call_probe_s_) + ",\"jobs\":" + std::to_string(report.jobs.size()) +
         ",\"failed\":" + std::to_string(report.failed()) + "}");
  }

  static long sim_tran() { return obs::Registry::global().counter("sim.tran"); }

  std::string name_;
  HostSpeed& host_;
  std::unique_ptr<tech::Technology> tech_;
  std::unique_ptr<Circuits> circuits_;
  std::unique_ptr<circuits::BatchRunner> runner_;
  int round_ = 0;
  bool traced_ = false;
  double calls_s_ = 0.0;
  double call_probe_s_ = 0.0;  // mean probe time during the latest call
};

/// Prints everything the registry collected during one traced round.
void emit_trace(int round) {
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  std::map<std::string, int> name_index;
  std::string names = "[";
  std::string spans = "[";
  for (const obs::SpanRecord& s : snap.spans) {
    auto [it, added] = name_index.emplace(s.name, static_cast<int>(name_index.size()));
    if (added) names += (names.size() > 1 ? "," : "") + quote(s.name);
    if (spans.size() > 1) spans += ",";
    spans += "[" + std::to_string(s.id) + "," + std::to_string(s.parent) + "," +
             std::to_string(it->second) + "," + std::to_string(s.start_us) + "," +
             std::to_string(s.dur_us) + "]";
  }
  std::string counters = "{";
  for (const auto& [k, v] : snap.counters) {
    if (counters.size() > 1) counters += ",";
    counters += quote(k) + ":" + std::to_string(v);
  }
  std::string dists = "{";
  for (const auto& [k, d] : snap.distributions) {
    if (dists.size() > 1) dists += ",";
    dists += quote(k) + ":[" + std::to_string(d.count) + "," + num(d.mean) + "]";
  }
  std::string hists = "{";
  for (const auto& [k, h] : snap.histograms) {
    if (hists.size() > 1) hists += ",";
    hists += quote(k) + ":[" + std::to_string(h.count) + "," + num(h.sum) + "]";
  }
  emit("{\"trace\":" + std::to_string(round) + ",\"names\":" + names +
       "],\"spans\":" + spans + "],\"counters\":" + counters +
       "},\"dists\":" + dists + "},\"hists\":" + hists + "}}");
}

void emit_round(int index, bool traced, std::pair<double, double> times, double probe_s) {
  emit("{\"round\":" + std::to_string(index) + ",\"traced\":" + (traced ? "1" : "0") +
       ",\"wall_s\":" + num(times.first) + ",\"calls_s\":" + num(times.second) +
       ",\"probe_s\":" + num(probe_s) + "}");
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 101;

struct Args {
  std::string workload;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--trace") a.trace = val == "1";
    else throw std::runtime_error("unknown argument " + key);
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    set_log_level(LogLevel::kOff);
    const Args args = parse_args(argc, argv);
    const std::vector<Round> rounds = read_rounds(std::cin);
    if (rounds.empty()) throw std::runtime_error("no rounds on stdin");

    HostSpeed host;
    host.mean_since(Clock::now());  // waits for the first sample

    // Set-up runs kSetupReps times, the first before any round; the others
    // are spread evenly between rounds, so that the samples cover the whole
    // run rather than one moment of the host's speed. The rounds use the
    // latest set-up. Each set-up is followed by a probe run on this thread:
    // a set-up lasts microseconds, so the probe thread's samples cannot
    // tell the host's speed at that moment.
    std::unique_ptr<Workload> workload;
    Probe probe;
    std::vector<double> setup_s;
    std::vector<double> setup_probe_s;
    const auto set_up = [&] {
      const Clock::time_point t0 = Clock::now();
      if (workload) {
        workload->setup();
      } else {
        workload = std::make_unique<Workload>(args.workload, host);
      }
      setup_s.push_back(seconds_since(t0));
      setup_probe_s.push_back(probe.run());
    };
    set_up();

    const auto run_round = [&](int i, bool traced) {
      const Clock::time_point t0 = Clock::now();
      const auto times = workload->run(rounds[i], i, traced);
      emit_round(i, traced, times, host.mean_since(t0));
    };
    const int n = static_cast<int>(rounds.size());
    for (int i = 0; i < n; ++i) {
      if (args.trace) {
        // Alternate which half of the pair runs first, so that warm-up
        // does not bias the overhead either way.
        for (const bool traced : {i % 2 == 1, i % 2 == 0}) {
          if (traced) obs::Registry::global().enable();
          run_round(i, traced);
          if (traced) {
            obs::Registry::global().disable();
            emit_trace(i);
          }
        }
      } else {
        run_round(i, false);
      }
      while (static_cast<int>(setup_s.size()) < 1 + (kSetupReps - 1) * (i + 1) / n) set_up();
    }
    std::string setup = "{\"setup_s\":[";
    std::string setup_probe = "],\"setup_probe_s\":[";
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      setup += (i > 0 ? "," : "") + num(setup_s[i]);
      setup_probe += (i > 0 ? "," : "") + num(setup_probe_s[i]);
    }
    emit(setup + setup_probe + "]}");

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    emit("{\"peak_rss_kb\":" + std::to_string(usage.ru_maxrss) + "}");
    std::cout.flush();
    return 0;
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "olp_perfbench: " << e.what() << '\n';
    return 1;
  }
}
