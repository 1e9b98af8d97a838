// Chaos fault-injection tests: the flow must complete end-to-end under
// injected op/tran/route/NaN faults, produce a structurally valid realization
// with finite costs, flag the report as degraded, and account for every
// injected fault with a diagnostic record.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "circuits/flow.hpp"
#include "service/journal.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "service/transport.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif
#include "circuits/ota5t.hpp"
#include "circuits/strongarm.hpp"
#include "core/evaluator.hpp"
#include "pcell/generator.hpp"
#include "util/diag.hpp"
#include "util/faults.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"

namespace olp {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

/// Counts diagnostics reported by the chaos stage for one fault site.
std::size_t chaos_count(const std::vector<Diagnostic>& diags, FaultSite site) {
  std::size_t n = 0;
  for (const Diagnostic& d : diags) {
    if (d.stage == "chaos" && d.subject == fault_site_name(site)) ++n;
  }
  return n;
}

class ChaosFlow : public ::testing::TestWithParam<double> {};

TEST_P(ChaosFlow, OtaFlowSurvivesInjectedFaults) {
  const double rate = GetParam();
  set_log_level(LogLevel::kOff);
  circuits::Ota5T ota(t());
  ASSERT_TRUE(ota.prepare());  // schematic prep runs outside the fault scope

  const circuits::FlowEngine engine(t(), {});
  FaultConfig config;
  config.seed = 42;
  config.op_rate = rate;
  config.tran_rate = rate;
  config.route_rate = rate;
  config.nan_metric_rate = rate;

  circuits::FlowReport report;
  circuits::Realization real;
  {
    ScopedFaultInjection chaos(config);
    ASSERT_NO_THROW(real = engine.run(circuits::FlowMode::kOptimize, ota.instances(), ota.routed_nets(),
                                           &report));
  }
  set_log_level(LogLevel::kWarn);
  FaultInjector& inj = FaultInjector::global();

  // The realization is structurally complete.
  for (const circuits::InstanceSpec& inst : ota.instances()) {
    EXPECT_TRUE(real.layouts.count(inst.name)) << inst.name;
  }
  // Every candidate cost is finite (quarantine clamps, never NaN).
  for (const auto& [name, options] : report.options) {
    ASSERT_FALSE(options.empty()) << name;
    for (const core::LayoutCandidate& cand : options) {
      EXPECT_TRUE(std::isfinite(cand.cost.total)) << name;
    }
  }
  // Exact accounting: one chaos diagnostic per injected fault that fired.
  for (FaultSite site :
       {FaultSite::kOpNonConvergence, FaultSite::kTranNonConvergence,
        FaultSite::kRouteFailure, FaultSite::kNanMetric}) {
    EXPECT_EQ(chaos_count(report.diagnostics, site),
              static_cast<std::size_t>(inj.fired(site)))
        << fault_site_name(site);
  }
  if (rate >= 0.1) {
    // At 10% the OTA flow makes thousands of draws; faults certainly fired
    // (deterministic given the seed) and the report must say so.
    EXPECT_GT(inj.total_fired(), 0);
    EXPECT_TRUE(report.degraded);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, ChaosFlow, ::testing::Values(0.03, 0.10));

class ChaosWithBudget : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosWithBudget, FaultsComposeWithTightBudget) {
  // Chaos injection at every site (including injected budget exhaustion)
  // combined with a tight testbench budget: the flow must never crash, hang,
  // or produce an inconsistent report, across seeds.
  set_log_level(LogLevel::kOff);
  circuits::Ota5T ota(t());
  ASSERT_TRUE(ota.prepare());

  circuits::FlowOptions fopt;
  fopt.budget_limits.max_testbenches = 60;
  const circuits::FlowEngine engine(t(), fopt);

  FaultConfig config;
  config.seed = GetParam();
  config.op_rate = 0.05;
  config.tran_rate = 0.05;
  config.route_rate = 0.05;
  config.nan_metric_rate = 0.05;
  config.budget_rate = 0.02;

  circuits::FlowReport report;
  circuits::Realization real;
  {
    ScopedFaultInjection chaos(config);
    ASSERT_NO_THROW(real = engine.run(circuits::FlowMode::kOptimize, ota.instances(), ota.routed_nets(),
                                           &report));
  }
  set_log_level(LogLevel::kWarn);

  // Structurally complete realization regardless of what fired.
  for (const circuits::InstanceSpec& inst : ota.instances()) {
    EXPECT_TRUE(real.layouts.count(inst.name)) << inst.name;
  }
  for (const auto& [name, options] : report.options) {
    ASSERT_FALSE(options.empty()) << name;
    for (const core::LayoutCandidate& cand : options) {
      EXPECT_TRUE(std::isfinite(cand.cost.total)) << name;
    }
    ASSERT_TRUE(report.chosen_option.count(name)) << name;
  }
  // Budget accounting stays consistent: whatever tripped, the status report
  // and the degraded flag agree with the diagnostics.
  EXPECT_LE(report.budget.testbenches_consumed, 60 + 8);
  if (report.budget.exhausted) {
    EXPECT_NE(report.budget.tripped, BudgetKind::kNone);
    EXPECT_TRUE(report.degraded);
    bool has_budget_diag = false;
    for (const Diagnostic& d : report.diagnostics) {
      if (d.stage == "budget") has_budget_diag = true;
    }
    EXPECT_TRUE(has_budget_diag);
  }
  if (report.degraded) EXPECT_FALSE(report.diagnostics.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosWithBudget,
                         ::testing::Values(1u, 7u, 42u, 1234u));

TEST(ChaosPooled, FaultsComposeWithPoolDelaysAndTightBudget) {
  // Everything at once: 4 worker threads whose task claim/completion order
  // is scrambled by injected per-task delays, simulator/metric faults, the
  // eval cache on, and a tight testbench budget. The flow must still
  // complete with a structurally consistent report — and the count-based
  // fault accounting must stay exact under worker interleaving.
  set_log_level(LogLevel::kOff);
  circuits::Ota5T ota(t());
  ASSERT_TRUE(ota.prepare());

  circuits::FlowOptions fopt;
  fopt.budget_limits.max_testbenches = 60;
  fopt.num_threads = 4;
  fopt.eval_cache = true;
  const circuits::FlowEngine engine(t(), fopt);

  FaultConfig config;
  config.seed = 42;
  config.op_rate = 0.05;
  config.tran_rate = 0.05;
  config.nan_metric_rate = 0.05;
  config.pool_delay_rate = 0.5;

  circuits::FlowReport report;
  circuits::Realization real;
  {
    ScopedFaultInjection chaos(config);
    ASSERT_NO_THROW(real = engine.run(circuits::FlowMode::kOptimize, ota.instances(), ota.routed_nets(),
                                           &report));
  }
  set_log_level(LogLevel::kWarn);
  FaultInjector& inj = FaultInjector::global();

  // The pool actually ran tasks through the delay site.
  EXPECT_GT(inj.fired(FaultSite::kPoolTaskDelay), 0);
  // Exact accounting per evaluator-side site, despite worker interleaving.
  for (FaultSite site :
       {FaultSite::kOpNonConvergence, FaultSite::kTranNonConvergence,
        FaultSite::kNanMetric}) {
    EXPECT_EQ(chaos_count(report.diagnostics, site),
              static_cast<std::size_t>(inj.fired(site)))
        << fault_site_name(site);
  }
  for (const circuits::InstanceSpec& inst : ota.instances()) {
    EXPECT_TRUE(real.layouts.count(inst.name)) << inst.name;
  }
  for (const auto& [name, options] : report.options) {
    ASSERT_FALSE(options.empty()) << name;
    for (const core::LayoutCandidate& cand : options) {
      EXPECT_TRUE(std::isfinite(cand.cost.total)) << name;
    }
    ASSERT_TRUE(report.chosen_option.count(name)) << name;
  }
  // With up to 4 testbench batches in flight when the budget trips, the
  // overshoot bound scales with the thread count.
  EXPECT_LE(report.budget.testbenches_consumed, 60 + 8 * 4);
  if (report.budget.exhausted) {
    EXPECT_NE(report.budget.tripped, BudgetKind::kNone);
    EXPECT_TRUE(report.degraded);
  }
  if (report.degraded) EXPECT_FALSE(report.diagnostics.empty());
}

TEST(Chaos, CleanRunReportsNothing) {
  // With injection disabled (the default), the flow reports no diagnostics
  // and no degradation on the healthy OTA.
  set_log_level(LogLevel::kError);
  circuits::Ota5T ota(t());
  ASSERT_TRUE(ota.prepare());
  const circuits::FlowEngine engine(t(), {});
  circuits::FlowReport report;
  engine.run(circuits::FlowMode::kOptimize, ota.instances(), ota.routed_nets(), &report);
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(report.diagnostics.empty());
}

/// The extracted 8-fin, 4-finger current-starved inverter: the only
/// primitive whose evaluation runs a transient (its delay bench).
pcell::PrimitiveLayout starved_inverter_8x4() {
  const pcell::PrimitiveGenerator gen(t());
  pcell::LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 4;
  cfg.m = 1;
  return gen.generate(pcell::make_current_starved_inverter(), cfg);
}

core::PrimitiveEvaluator starved_inverter_evaluator() {
  core::BiasContext bias;
  bias.vdd = t().vdd;
  bias.port_voltage = {{"vbn", 0.4}, {"vbp", t().vdd - 0.4}};
  bias.port_load_cap = {{"out", 4e-15}};
  return core::PrimitiveEvaluator(t(), circuits::default_nmos(),
                                  circuits::default_pmos(), bias);
}

TEST(Chaos, TranFaultSiteFiresInStarvedInverterEvaluation) {
  // The OTA flow has no transient testbench; cover the tran site through the
  // current-starved inverter, whose delay bench is the only tran user. The
  // injected failure must engage the backward-Euler retry, which must end at
  // its own deciding sample like the first attempt would have, and still
  // produce finite metrics.
  set_log_level(LogLevel::kOff);
  const pcell::PrimitiveLayout lay = starved_inverter_8x4();
  core::PrimitiveEvaluator eval = starved_inverter_evaluator();
  DiagnosticsSink sink;
  eval.set_diagnostics(&sink);

  FaultConfig config;
  config.seed = 7;
  config.tran_rate = 1.0;
  config.max_total_fires = 1;  // first tran attempt fails, retries are clean
  core::MetricValues values;
  obs::Registry::global().enable();
  {
    ScopedFaultInjection chaos(config);
    core::EvalCondition cond;  // extracted mode
    values = eval.evaluate(lay, cond);
  }
  obs::Registry::global().disable();
  set_log_level(LogLevel::kWarn);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.counter("sim.tran.attempts"), 2);
  EXPECT_EQ(snap.counter("sim.tran.retries"), 1);
  EXPECT_EQ(snap.counter("sim.tran.stopped"), 1);
  // The retry at dt = 0.5 ps stops within the first half of its window of
  // about 2,400 steps.
  EXPECT_GT(snap.counter("sim.tran.steps"), 0);
  EXPECT_LT(snap.counter("sim.tran.steps"), 1200);
  EXPECT_EQ(FaultInjector::global().fired(FaultSite::kTranNonConvergence), 1);
  EXPECT_EQ(sink.count("chaos", fault_site_name(FaultSite::kTranNonConvergence)),
            1u);
  // The retry ladder reported its fallback and ultimately delivered a real
  // (finite) delay.
  EXPECT_GE(sink.count("simulator", "tran"), 1u);
  for (const auto& [kind, value] : values) {
    EXPECT_TRUE(std::isfinite(value)) << core::metric_name(kind);
  }
  EXPECT_GT(values.at(core::MetricKind::kDelay), 0.0);
}

TEST(Chaos, FailedDelayTransientIsQuarantinedNotDefaulted) {
  // Every transient attempt fails, retries included: there is no delay to
  // report, so the evaluation must quarantine the delay metric rather than
  // pass a plausible default on to the cost.
  set_log_level(LogLevel::kOff);
  const pcell::PrimitiveLayout lay = starved_inverter_8x4();
  core::PrimitiveEvaluator eval = starved_inverter_evaluator();
  DiagnosticsSink sink;
  eval.set_diagnostics(&sink);

  FaultConfig config;
  config.seed = 7;
  config.tran_rate = 1.0;
  core::MetricValues values;
  core::EvalOutcome outcome;
  {
    ScopedFaultInjection chaos(config);
    values = eval.evaluate(lay, core::EvalCondition{}, &outcome);
  }
  set_log_level(LogLevel::kWarn);
  EXPECT_GE(FaultInjector::global().fired(FaultSite::kTranNonConvergence), 3);
  EXPECT_EQ(outcome.quarantined, 1);
  EXPECT_EQ(sink.count("evaluator",
                       core::metric_name(core::MetricKind::kDelay)),
            1u);
  // Quarantine zeroes the metric; no finite delay survives the failure.
  EXPECT_EQ(values.at(core::MetricKind::kDelay), 0.0);
}

TEST(Chaos, FailedDecisionTransientsGiveNoComparatorOffset) {
  // Every decision transient fails: the bisection has nothing to go on, so
  // the offset is NaN, not the search range ("beyond range") and not a
  // bisection biased by failures read as decisions.
  set_log_level(LogLevel::kOff);
  circuits::StrongArmComparator sa(t());
  ASSERT_TRUE(sa.prepare());
  const circuits::Realization real =
      circuits::schematic_realization(sa.instances(), t());
  FaultConfig config;
  config.seed = 3;
  config.tran_rate = 1.0;
  double offset = 0.0;
  {
    ScopedFaultInjection chaos(config);
    offset = sa.measure_offset(real, 20e-3);
  }
  set_log_level(LogLevel::kWarn);
  EXPECT_TRUE(std::isnan(offset)) << offset;
  EXPECT_GE(FaultInjector::global().fired(FaultSite::kTranNonConvergence), 1);
}

// --- service-facing chaos sites ---------------------------------------------

TEST(ChaosSites, NewSiteNamesAreStable) {
  EXPECT_STREQ(fault_site_name(FaultSite::kSnapshotIo), "snapshot_io");
  EXPECT_STREQ(fault_site_name(FaultSite::kRequestParse), "request_parse");
  EXPECT_STREQ(fault_site_name(FaultSite::kJobTransient), "job_transient");
  EXPECT_STREQ(fault_site_name(FaultSite::kTransportPartialWrite),
               "partial_write");
  EXPECT_STREQ(fault_site_name(FaultSite::kTransportDisconnect), "disconnect");
  EXPECT_STREQ(fault_site_name(FaultSite::kJournalIo), "journal_io");
}

TEST(ChaosRequestParse, InjectedFaultRejectsValidLine) {
  const std::string line = "{\"op\":\"ping\"}";
  // Uninjected, the line parses fine.
  {
    service::ServiceRequest request;
    std::string error;
    EXPECT_EQ(service::parse_request(line, &request, &error),
              service::RejectReason::kNone);
    EXPECT_EQ(request.op, service::RequestOp::kPing);
  }
  FaultConfig config;
  config.request_parse_rate = 1.0;
  ScopedFaultInjection chaos(config);
  service::ServiceRequest request;
  std::string error;
  EXPECT_EQ(service::parse_request(line, &request, &error),
            service::RejectReason::kParseError);
  EXPECT_NE(error.find("injected"), std::string::npos);
  EXPECT_EQ(FaultInjector::global().fired(FaultSite::kRequestParse), 1);
  EXPECT_EQ(FaultInjector::global().draws(FaultSite::kRequestParse), 1);
}

TEST(ChaosRequestParse, PartialRateIsDeterministic) {
  const std::string line = "{\"op\":\"stats\"}";
  FaultConfig config;
  config.seed = 7;
  config.request_parse_rate = 0.5;
  std::vector<bool> first;
  for (int round = 0; round < 2; ++round) {
    ScopedFaultInjection chaos(config);
    std::vector<bool> rejects;
    for (int i = 0; i < 16; ++i) {
      service::ServiceRequest request;
      rejects.push_back(service::parse_request(line, &request, nullptr) !=
                        service::RejectReason::kNone);
    }
    if (round == 0) {
      first = rejects;
      // A 0.5 rate over 16 draws all-but-certainly mixes both outcomes.
      EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
      EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
    } else {
      EXPECT_EQ(rejects, first);  // same seed, same fire pattern
    }
  }
}

TEST(ChaosJobTransient, RetryRecoversInjectedTransient) {
  // One transient fires on the first attempt; the retry must succeed and
  // the outcome must account for both attempts.
  service::ServiceOptions options;
  options.workers = 1;
  options.pool_threads = 1;
  options.max_retries = 2;
  options.retry_backoff_ms = 0.1;
  service::LayoutService svc(t(), options);
  svc.start();

  FaultConfig config;
  config.job_transient_rate = 1.0;
  config.max_total_fires = 1;
  ScopedFaultInjection chaos(config);

  service::ServiceRequest request;
  request.id = "chaos1";
  request.client = "tester";
  request.circuit = "vco";
  request.mode = circuits::FlowMode::kConventional;

  std::promise<service::RequestOutcome> done;
  auto future = done.get_future();
  ASSERT_EQ(svc.submit(request,
                       [&done](const service::RequestOutcome& o) {
                         done.set_value(o);
                       }),
            service::RejectReason::kNone);
  const service::RequestOutcome outcome = future.get();
  EXPECT_EQ(outcome.status, circuits::JobStatus::kSucceeded);
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(FaultInjector::global().fired(FaultSite::kJobTransient), 1);
  svc.drain();
  EXPECT_EQ(svc.stats().retries, 1);
}

TEST(ChaosJobTransient, ExhaustedRetriesFailWithoutCrashing) {
  service::ServiceOptions options;
  options.workers = 1;
  options.pool_threads = 1;
  options.max_retries = 1;
  options.retry_backoff_ms = 0.1;
  service::LayoutService svc(t(), options);
  svc.start();

  FaultConfig config;
  config.job_transient_rate = 1.0;  // every attempt fails
  ScopedFaultInjection chaos(config);

  service::ServiceRequest request;
  request.id = "chaos2";
  request.client = "tester";
  request.circuit = "vco";
  request.mode = circuits::FlowMode::kConventional;

  std::promise<service::RequestOutcome> done;
  auto future = done.get_future();
  ASSERT_EQ(svc.submit(request,
                       [&done](const service::RequestOutcome& o) {
                         done.set_value(o);
                       }),
            service::RejectReason::kNone);
  const service::RequestOutcome outcome = future.get();
  EXPECT_EQ(outcome.status, circuits::JobStatus::kFailed);
  EXPECT_EQ(outcome.attempts, 2);  // first try + one retry
  EXPECT_NE(outcome.error.find("transient"), std::string::npos);
  svc.drain();
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.completed, 1);
}

// --- journal I/O chaos ------------------------------------------------------

TEST(ChaosJournalIo, AppendFailureDegradesDurabilityNotTheJournal) {
  const std::string path = testing::TempDir() + "olp_chaos_journal.bin";
  std::remove(path.c_str());
  service::RequestJournal journal(path);
  ASSERT_TRUE(journal.open());

  service::ServiceRequest request;
  request.id = "j";
  request.client = "tester";
  request.circuit = "vco";
  {
    FaultConfig config;
    config.journal_io_rate = 1.0;
    ScopedFaultInjection chaos(config);
    std::string error;
    EXPECT_EQ(journal.append_accepted(request, &error), 0u);
    EXPECT_NE(error.find("injected"), std::string::npos);
    EXPECT_FALSE(journal.compact(&error));
  }
  const service::JournalStats degraded = journal.stats();
  EXPECT_GE(degraded.append_failures, 1l);
  // With injection gone the SAME journal object appends again — the
  // failure was counted, not sticky.
  EXPECT_GT(journal.append_accepted(request), 0u);
  std::remove(path.c_str());
}

TEST(ChaosJournalIo, ServiceKeepsServingWhenTheJournalCannotOpen) {
  const std::string path = testing::TempDir() + "olp_chaos_journal_open.bin";
  std::remove(path.c_str());
  service::ServiceOptions options;
  options.workers = 1;
  options.pool_threads = 1;
  options.journal_path = path;
  service::LayoutService svc(t(), options);
  {
    FaultConfig config;
    config.journal_io_rate = 1.0;
    ScopedFaultInjection chaos(config);
    svc.start();  // journal open fails under injection; service must not
  }
  EXPECT_FALSE(svc.stats().journal.enabled);

  // Submission and completion still work — acceptance just is not durable,
  // and each failed append is counted.
  service::ServiceRequest request;
  request.id = "undurable";
  request.client = "tester";
  request.circuit = "vco";
  request.mode = circuits::FlowMode::kConventional;
  std::promise<service::RequestOutcome> done;
  auto future = done.get_future();
  ASSERT_EQ(svc.submit(request,
                       [&done](const service::RequestOutcome& o) {
                         done.set_value(o);
                       }),
            service::RejectReason::kNone);
  EXPECT_EQ(future.get().status, circuits::JobStatus::kSucceeded);
  svc.drain();
  EXPECT_GE(svc.stats().journal.append_failures, 1l);
  std::remove(path.c_str());
}

// --- transport chaos (real loopback sockets) --------------------------------

#if defined(__unix__) || defined(__APPLE__)

namespace transport_chaos {

/// Minimal blocking loopback client (5 s receive timeout).
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool read_line(int fd, std::string* out) {
  out->clear();
  char c = 0;
  while (true) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    out->push_back(c);
  }
}

}  // namespace transport_chaos

TEST(ChaosTransport, PartialWritesDelayButNeverCorruptTheStream) {
  service::TransportSupervisor transport;
  service::TransportOptions options;
  options.tcp_port = 0;
  options.read_timeout_ms = 0;
  // A response long enough that halving flushes take several rounds.
  const std::string payload(512, 'p');
  ASSERT_TRUE(transport.start(
      options, [&payload](const std::string&, const std::string&,
                          const service::TransportSupervisor::Emit& emit) {
        emit("{\"payload\":\"" + payload + "\"}");
      }));

  FaultConfig config;
  config.partial_write_rate = 1.0;  // EVERY flush writes only a prefix
  ScopedFaultInjection chaos(config);

  const int fd = transport_chaos::connect_loopback(transport.tcp_port());
  ASSERT_GE(fd, 0);
  const std::string request = "{\"op\":\"ping\"}\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string line;
  ASSERT_TRUE(transport_chaos::read_line(fd, &line));
  // The full line arrived intact despite every flush being truncated.
  EXPECT_EQ(line, "{\"payload\":\"" + payload + "\"}");
  EXPECT_GE(transport.stats().partial_writes, 2l);
  ::close(fd);
  transport.stop();
}

TEST(ChaosTransport, InjectedDisconnectDropsTheConnectionCleanly) {
  std::atomic<int> dispatched{0};
  service::TransportSupervisor transport;
  service::TransportOptions options;
  options.tcp_port = 0;
  options.read_timeout_ms = 0;
  ASSERT_TRUE(transport.start(
      options, [&dispatched](const std::string&, const std::string&,
                             const service::TransportSupervisor::Emit&) {
        ++dispatched;
      }));

  FaultConfig config;
  config.disconnect_rate = 1.0;
  ScopedFaultInjection chaos(config);

  const int fd = transport_chaos::connect_loopback(transport.tcp_port());
  ASSERT_GE(fd, 0);
  const std::string request = "{\"op\":\"ping\"}\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  // The injected disconnect closes the connection before the frame is
  // dispatched; the client observes EOF, the supervisor stays up.
  char c = 0;
  EXPECT_EQ(::read(fd, &c, 1), 0);
  ::close(fd);
  const service::TransportStats stats = transport.stats();
  EXPECT_EQ(stats.injected_disconnects, 1l);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(dispatched.load(), 0);

  // A post-chaos client is served normally by the same supervisor.
  FaultInjector::global().disable();
  const int fd2 = transport_chaos::connect_loopback(transport.tcp_port());
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(::write(fd2, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  for (int i = 0; i < 500 && dispatched.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(dispatched.load(), 1);
  ::close(fd2);
  transport.stop();
}

#endif  // POSIX sockets

}  // namespace
}  // namespace olp
