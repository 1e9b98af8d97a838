#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <utility>

#include "circuits/ota5t.hpp"
#include "circuits/strongarm.hpp"
#include "circuits/vco.hpp"
#include "util/env.hpp"
#include "util/faults.hpp"
#include "util/jsonl.hpp"
#include "util/obs.hpp"
#include "util/table.hpp"
#include "util/trace_export.hpp"

namespace olp::service {

namespace {

long env_long(const char* name, long base) {
  const long v = env::integer(name, base);
  return v >= 0 ? v : base;
}

int env_int(const char* name, int base) {
  const int v = env::int_value(name, base);
  return v >= 0 ? v : base;
}

/// How many completed idempotency keys the service remembers in memory
/// (mirrors RequestJournal::kKeyHistoryCap for journal-less operation).
constexpr std::size_t kKeyHistoryCap = RequestJournal::kKeyHistoryCap;

/// Past this many distinct identities the token-bucket map is reset rather
/// than grown — a deliberate coarse bound so an identity-churning client
/// cannot leak memory (fresh buckets start full, so a reset only ever
/// forgives, never over-penalizes).
constexpr std::size_t kMaxBuckets = 4096;

}  // namespace

/// Budget registration of one running job, shared between the worker that
/// owns the run and drain(), which may cancel it concurrently.
struct LayoutService::Inflight {
  Budget budget;
  explicit Inflight(const BudgetOptions& limits) : budget(limits) {}
};

std::string ServiceStats::to_json() const {
  std::string out = "{\"uptime_s\":" + fixed(uptime_s, 3);
  out += ",\"draining\":" + std::string(draining ? "true" : "false");
  out += ",\"queue_depth\":" + std::to_string(queue_depth);
  out += ",\"inflight\":" + std::to_string(inflight);
  out += ",\"max_inflight\":" + std::to_string(max_inflight);
  out += ",\"workers\":" + std::to_string(workers);
  out += ",\"admitted\":" + std::to_string(admitted);
  out += ",\"completed\":" + std::to_string(completed);
  out += ",\"succeeded\":" + std::to_string(succeeded);
  out += ",\"degraded\":" + std::to_string(degraded);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"retries\":" + std::to_string(retries);
  out += ",\"shed_queue_full\":" + std::to_string(shed_queue_full);
  out += ",\"shed_client_quota\":" + std::to_string(shed_client_quota);
  out += ",\"shed_draining\":" + std::to_string(shed_draining);
  out += ",\"parse_rejects\":" + std::to_string(parse_rejects);
  out += ",\"reloads\":" + std::to_string(reloads);
  // Per-RejectReason shed breakdown, nested so new reasons extend it
  // without growing the flat namespace.
  out += ",\"shed\":{\"queue_full\":" + std::to_string(shed_queue_full);
  out += ",\"client_quota\":" + std::to_string(shed_client_quota);
  out += ",\"draining\":" + std::to_string(shed_draining);
  out += ",\"rate_limited\":" + std::to_string(shed_rate_limited);
  out += ",\"duplicate\":" + std::to_string(duplicates);
  out += ",\"parse_error\":" + std::to_string(parse_rejects) + "}";
  out += ",\"p50_ms\":" + fixed(p50_ms, 3);
  out += ",\"p99_ms\":" + fixed(p99_ms, 3);
  out += ",\"p999_ms\":" + fixed(p999_ms, 3);
  out += ",\"latency_ms\":" + obs::histogram_json(latency);
  out += ",\"cache_hits\":" + std::to_string(cache.hits);
  out += ",\"cache_misses\":" + std::to_string(cache.misses);
  out += ",\"cache_entries\":" + std::to_string(cache.entries);
  out += ",\"cache_evictions\":" + std::to_string(cache.evictions);
  out += ",\"cache_capacity\":" + std::to_string(cache.capacity);
  out += ",\"cross_client_hits\":" + std::to_string(cache.cross_client_hits);
  out += ",\"restored_hits\":" + std::to_string(cache.restored_hits);
  out += ",\"cache_scopes\":" + std::to_string(cache_scopes);
  out += ",\"snapshot_loaded\":" +
         std::string(snapshot_loaded ? "true" : "false");
  if (!snapshot_error.empty()) {
    out += ",\"snapshot_error\":\"" + jsonl::escape(snapshot_error) + "\"";
  }
  out += ",\"snapshots_saved\":" + std::to_string(snapshots_saved);
  out += ",\"journal\":{\"enabled\":" +
         std::string(journal.enabled ? "true" : "false");
  out += ",\"pending\":" + std::to_string(journal.pending);
  out += ",\"appended\":" + std::to_string(journal.appended);
  out += ",\"append_failures\":" + std::to_string(journal.append_failures);
  out += ",\"compactions\":" + std::to_string(journal.compactions);
  out += ",\"torn_tail_recovered\":" +
         std::string(journal.torn_tail_recovered ? "true" : "false");
  out += ",\"key_history\":" + std::to_string(journal.key_history);
  out += ",\"replayed\":" + std::to_string(journal_replayed);
  out += ",\"deduped\":" + std::to_string(journal_deduped);
  if (!journal.last_error.empty()) {
    out += ",\"last_error\":\"" + jsonl::escape(journal.last_error) + "\"";
  }
  out += "}";
  if (obs::enabled()) {
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    out += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
      if (!first) out += ",";
      first = false;
      out += "\"" + jsonl::escape(name) + "\":" + std::to_string(value);
    }
    out += "}";
  }
  out += "}";
  return out;
}

namespace {

/// Environment-resolved copy of the caller's options (applied once, at
/// construction — same convention as FlowEngine/BatchRunner).
ServiceOptions resolve_options(ServiceOptions options) {
  options.workers = env_int("OLP_SERVICE_WORKERS", options.workers);
  if (options.workers < 1) options.workers = 1;
  options.pool_threads = threads_from_env(options.pool_threads);
  options.queue.max_depth = static_cast<std::size_t>(
      env_long("OLP_SERVICE_QUEUE_DEPTH",
               static_cast<long>(options.queue.max_depth)));
  options.queue.max_per_client = static_cast<std::size_t>(
      env_long("OLP_SERVICE_CLIENT_QUEUE",
               static_cast<long>(options.queue.max_per_client)));
  const long cap = env::integer("OLP_CACHE_MAX_ENTRIES",
                                static_cast<long>(options.cache_max_entries));
  options.cache_max_entries = cap > 0 ? static_cast<std::size_t>(cap) : 0;
  options.max_retries = env_int("OLP_SERVICE_RETRIES", options.max_retries);
  options.snapshot_path =
      env::str("OLP_SERVICE_SNAPSHOT", options.snapshot_path);
  options.snapshot_every =
      env_long("OLP_SERVICE_SNAPSHOT_EVERY", options.snapshot_every);
  options.journal_path = env::str("OLP_SERVICE_JOURNAL", options.journal_path);
  options.rate_per_s = env::number("OLP_SERVICE_RATE", options.rate_per_s);
  options.rate_burst =
      env::number("OLP_SERVICE_RATE_BURST", options.rate_burst);
  options.observability = env::flag("OLP_OBS", options.observability);
  options.metrics_path = env::str("OLP_METRICS_PATH", options.metrics_path);
  options.metrics_every = env_long("OLP_METRICS_EVERY", options.metrics_every);
  return options;
}

}  // namespace

LayoutService::LayoutService(const tech::Technology& technology,
                             ServiceOptions options)
    : tech_(technology),
      options_(resolve_options(std::move(options))),
      queue_(options_.queue),
      caches_(options_.cache_max_entries) {
  snapshot_every_.store(options_.snapshot_every);
  metrics_every_.store(options_.metrics_every);
  max_retries_.store(options_.max_retries);
  rate_per_s_.store(options_.rate_per_s);
  rate_burst_.store(options_.rate_burst);
  desired_workers_.store(options_.workers);
}

LayoutService::~LayoutService() { drain(/*cancel_inflight=*/true); }

std::vector<std::string> LayoutService::known_circuits() {
  return {"ota5t", "strongarm", "vco"};
}

void LayoutService::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;

  // The service owns observability when asked to: live-metrics families
  // (obs.pool.*, obs.contention.*) start collecting from here.
  if (options_.observability) obs::Registry::global().enable();

  if (!options_.snapshot_path.empty()) {
    std::string error;
    if (caches_.load_snapshot(options_.snapshot_path, &error)) {
      std::lock_guard<std::mutex> lock(state_mu_);
      snapshot_loaded_ = true;
    } else {
      // Cold start: the pool is untouched (all-or-nothing restore). Record
      // why, keep going — a bad snapshot must never keep the service down.
      std::lock_guard<std::mutex> lock(state_mu_);
      snapshot_loaded_ = false;
      snapshot_error_ = error;
      obs::counter_add("service.snapshot_load_failed");
    }
  }

  if (!options_.journal_path.empty()) {
    journal_ = std::make_unique<RequestJournal>(options_.journal_path);
    std::string error;
    if (!journal_->open(&error)) {
      // Durability degrades (counted in stats), the service stays up.
      obs::counter_add("service.journal_open_failed");
    }
  }

  pool_ = std::make_unique<TaskPool>(options_.pool_threads);

  // Replay BEFORE workers spawn: the queue is filled while nothing drains
  // it, so recovered work keeps its original acceptance order.
  replay_journal();

  std::lock_guard<std::mutex> lock(workers_mu_);
  spawn_workers_locked(desired_workers_.load());
}

void LayoutService::spawn_workers_locked(int count) {
  const std::uint64_t epoch = worker_epoch_.load();
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this, i, epoch] { worker_loop(i, epoch); });
  }
}

void LayoutService::resize_workers(int target) {
  if (target < 1) target = 1;
  std::lock_guard<std::mutex> lock(workers_mu_);
  if (desired_workers_.load() == target && !workers_.empty()) return;
  desired_workers_.store(target);
  if (!started_.load()) return;  // start() will spawn the right count
  // Retire the whole current fleet (each worker exits after its current
  // job — briefly over-committed on grow, never abandoned) and spawn a
  // fresh one under the new epoch. Retired threads join at drain.
  worker_epoch_.fetch_add(1);
  for (std::thread& t : workers_) retired_.push_back(std::move(t));
  workers_.clear();
  spawn_workers_locked(target);
  queue_.wake();  // stale-epoch workers re-check their stop condition now
  obs::counter_add("service.worker_resizes");
}

void LayoutService::replay_journal() {
  if (!journal_) return;
  std::vector<JournalEntry> pending = journal_->take_pending();
  if (pending.empty()) return;

  // This work was admitted once already — bounds were paid then. Lift them
  // for the replay, restore afterwards.
  const QueueOptions bounds = queue_.options();
  queue_.set_options(QueueOptions{0, 0});

  for (JournalEntry& entry : pending) {
    circuits::JobStatus prior = circuits::JobStatus::kFailed;
    if (!entry.request.key.empty() &&
        journal_->completed_key(entry.request.key, &prior)) {
      // The key finished in a previous life; void this entry so it never
      // replays again, and never re-run it.
      journal_->append_completed(entry.seq, "", prior);
      std::lock_guard<std::mutex> lock(state_mu_);
      ++journal_deduped_;
      continue;
    }
    QueuedJob job;
    job.request = std::move(entry.request);
    job.ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
    job.admitted_s = clock_.seconds();
    job.journal_seq = entry.seq;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (!job.request.key.empty()) active_keys_.insert(job.request.key);
      // Replayed outcomes have no living submitter; account them so the
      // stats (and the smoke test) can prove zero loss.
      done_[job.ticket] = [](const RequestOutcome&) {};
      ++journal_replayed_;
    }
    queue_.offer(std::move(job));
  }
  queue_.set_options(bounds);
  obs::counter_add("service.journal_replayed");
}

bool LayoutService::take_token(const std::string& identity) {
  const double rate = rate_per_s_.load();
  if (rate <= 0.0) return true;
  double burst = rate_burst_.load();
  if (burst < 1.0) burst = std::max(rate, 1.0);
  const double now = clock_.seconds();
  std::lock_guard<std::mutex> lock(state_mu_);
  if (buckets_.size() >= kMaxBuckets && buckets_.count(identity) == 0) {
    buckets_.clear();
  }
  Bucket& b = buckets_[identity];
  if (b.tokens < 0.0) {
    b.tokens = burst;  // fresh bucket starts full
  } else {
    b.tokens = std::min(burst, b.tokens + (now - b.last_s) * rate);
  }
  b.last_s = now;
  if (b.tokens < 1.0) return false;
  b.tokens -= 1.0;
  return true;
}

RejectReason LayoutService::submit(const ServiceRequest& request,
                                   OutcomeFn done) {
  const std::vector<std::string> known = known_circuits();
  if (std::find(known.begin(), known.end(), request.circuit) == known.end()) {
    return RejectReason::kUnknownCircuit;
  }
  // Token bucket in front of the queue, keyed by the connection-stable
  // identity (self-reported client only for trusted direct callers).
  if (!take_token(queue_key(request))) {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++rate_limited_;
    return RejectReason::kRateLimited;
  }
  // Idempotency: a key that is in flight or already completed is answered
  // without re-running (duplicate_status() has the recorded outcome).
  if (!request.key.empty()) {
    std::lock_guard<std::mutex> lock(state_mu_);
    const bool known_key = active_keys_.count(request.key) != 0 ||
                           completed_keys_.count(request.key) != 0 ||
                           (journal_ && journal_->completed_key(request.key));
    if (known_key) {
      ++duplicates_;
      return RejectReason::kDuplicate;
    }
    active_keys_.insert(request.key);
  }

  QueuedJob job;
  job.request = request;
  job.ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  job.admitted_s = clock_.seconds();
  // Durability barrier: the journal record must be on disk before the
  // caller is told "accepted" (submit returning kNone IS that promise).
  if (journal_) {
    job.journal_seq = journal_->append_accepted(request);
  }
  // Register the callback BEFORE offering: a worker may pick the job up
  // and finish it before offer() even returns.
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    done_[job.ticket] = std::move(done);
  }
  const std::uint64_t ticket = job.ticket;
  const std::uint64_t journal_seq = job.journal_seq;
  const RejectReason reason = queue_.offer(std::move(job));
  if (reason != RejectReason::kNone) {
    std::lock_guard<std::mutex> lock(state_mu_);
    done_.erase(ticket);
    if (!request.key.empty()) active_keys_.erase(request.key);
    // Already journaled but never admitted: void the entry (empty key —
    // the idempotency key is NOT burned by a shed) so it cannot replay.
    if (journal_ && journal_seq != 0) {
      journal_->append_completed(journal_seq, "",
                                 circuits::JobStatus::kFailed);
    }
  }
  return reason;
}

bool LayoutService::duplicate_status(const std::string& key,
                                     circuits::JobStatus* status) const {
  if (key.empty()) return false;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = completed_keys_.find(key);
    if (it != completed_keys_.end()) {
      if (status != nullptr) *status = it->second;
      return true;
    }
  }
  return journal_ && journal_->completed_key(key, status);
}

void LayoutService::reload(const std::map<std::string, double>& values) {
  const auto get = [&values](const char* key, double* out) {
    const auto it = values.find(key);
    if (it == values.end()) return false;
    *out = it->second;
    return true;
  };
  double v = 0.0;
  QueueOptions bounds = queue_.options();
  bool bounds_changed = false;
  if (get("queue_depth", &v)) {
    bounds.max_depth = static_cast<std::size_t>(v);
    bounds_changed = true;
  }
  if (get("client_queue", &v)) {
    bounds.max_per_client = static_cast<std::size_t>(v);
    bounds_changed = true;
  }
  if (bounds_changed) queue_.set_options(bounds);
  if (get("workers", &v)) resize_workers(static_cast<int>(v));
  if (get("snapshot_every", &v)) snapshot_every_.store(static_cast<long>(v));
  if (get("retries", &v)) max_retries_.store(static_cast<int>(v));
  if (get("metrics_every", &v)) metrics_every_.store(static_cast<long>(v));
  if (get("rate", &v)) rate_per_s_.store(v);
  if (get("burst", &v)) rate_burst_.store(v);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++reloads_;
  }
  obs::counter_add("service.reloads");
}

void LayoutService::worker_loop(int worker_index, std::uint64_t epoch) {
  obs::set_thread_name("service/worker-" + std::to_string(worker_index));
  QueuedJob job;
  const auto retired = [this, epoch] {
    return worker_epoch_.load(std::memory_order_relaxed) != epoch;
  };
  while (queue_.take(&job, retired)) run_one(std::move(job));
}

void LayoutService::run_one(QueuedJob job) {
  const double picked_s = clock_.seconds();
  RequestOutcome outcome;
  outcome.id = job.request.id;
  outcome.client = job.request.client;
  outcome.queued_s = picked_s - job.admitted_s;

  // Per-request budget: deadline + testbench cap ride the existing Budget
  // machinery, registered so drain(cancel) can cancel it mid-run.
  BudgetOptions limits;
  const double deadline_ms = job.request.deadline_ms > 0.0
                                 ? job.request.deadline_ms
                                 : options_.default_deadline_ms;
  if (deadline_ms > 0.0) limits.deadline_s = deadline_ms / 1000.0;
  limits.max_testbenches = job.request.max_testbenches;
  auto inflight = std::make_shared<Inflight>(limits);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    inflight_[job.ticket] = inflight;
    if (static_cast<long>(inflight_.size()) > max_inflight_) {
      max_inflight_ = static_cast<long>(inflight_.size());
    }
  }

  circuits::FlowJob flow_job;
  flow_job.name = job.request.id;
  flow_job.mode = job.request.mode;
  flow_job.options.seed = job.request.seed;
  flow_job.options.budget = &inflight->budget;

  std::string circuit_error;
  const bool circuit_ok =
      circuit_spec(job.request.circuit, &flow_job.instances,
                   &flow_job.routed_nets, &circuit_error);

  const int retries =
      job.request.retries >= 0 ? job.request.retries : max_retries_.load();
  circuits::JobResult result;
  int attempts = 0;
  if (!circuit_ok) {
    result.status = circuits::JobStatus::kFailed;
    result.error = circuit_error;
    attempts = 1;
  } else {
    for (attempts = 1; attempts <= retries + 1; ++attempts) {
      if (attempts > 1) {
        // Exponential backoff before each re-attempt. A cancelled budget
        // skips the wait — drain(cancel) must not sit out the backoff.
        const double backoff_ms =
            options_.retry_backoff_ms * static_cast<double>(1 << (attempts - 2));
        if (!inflight->budget.exhausted()) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              backoff_ms));
        }
        {
          std::lock_guard<std::mutex> lock(state_mu_);
          ++retries_;
        }
        obs::counter_add("service.retries");
      }
      if (FaultInjector::global().enabled() &&
          FaultInjector::global().should_fail(FaultSite::kJobTransient)) {
        // Injected transient: this attempt failed before doing any work.
        result = circuits::JobResult{};
        result.status = circuits::JobStatus::kFailed;
        result.error = "injected transient fault";
        obs::counter_add("service.transient_faults");
        continue;
      }
      result = circuits::run_flow_job(flow_job, tech_, pool_.get(),
                                      caches_.cache_for(tech_),
                                      client_id(job.request.client));
      if (result.status != circuits::JobStatus::kFailed) break;
      // A budget-exhausted failure is NOT transient — retrying a request
      // whose deadline already passed only burns a worker.
      if (inflight->budget.exhausted()) break;
    }
    if (attempts > retries + 1) attempts = retries + 1;
  }

  outcome.status = result.status;
  outcome.error = result.error;
  outcome.attempts = attempts;
  outcome.run_s = clock_.seconds() - picked_s;
  outcome.testbenches = result.report.testbenches;
  outcome.degraded = result.report.degraded;
  outcome.budget_exhausted = result.report.budget.exhausted;

  // Completion is durable before it is visible: the journal record lands
  // before the callback (and any "done" line) fires.
  if (journal_ && job.journal_seq != 0) {
    journal_->append_completed(job.journal_seq, job.request.key,
                               outcome.status);
  }

  OutcomeFn done;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    inflight_.erase(job.ticket);
    const auto it = done_.find(job.ticket);
    if (it != done_.end()) {
      done = std::move(it->second);
      done_.erase(it);
    }
    if (!job.request.key.empty()) {
      active_keys_.erase(job.request.key);
      if (completed_keys_.emplace(job.request.key, outcome.status).second) {
        completed_key_order_.push_back(job.request.key);
        if (completed_key_order_.size() > kKeyHistoryCap) {
          completed_keys_.erase(completed_key_order_.front());
          completed_key_order_.erase(completed_key_order_.begin());
        }
      }
    }
    ++completed_;
    switch (outcome.status) {
      case circuits::JobStatus::kSucceeded:
        ++succeeded_;
        break;
      case circuits::JobStatus::kDegraded:
        ++degraded_;
        break;
      case circuits::JobStatus::kFailed:
        ++failed_;
        break;
    }
    latency_hist_.record((outcome.queued_s + outcome.run_s) * 1000.0);
  }
  obs::counter_add("service.completed");
  if (done) done(outcome);
  maybe_periodic_snapshot();
  maybe_periodic_metrics(/*force=*/false);
}

void LayoutService::maybe_periodic_snapshot() {
  const long every = snapshot_every_.load();
  if (options_.snapshot_path.empty() || every <= 0) return;
  bool due = false;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    due = completed_ % every == 0;
  }
  if (due) save_snapshot(nullptr);
}

void LayoutService::maybe_periodic_metrics(bool force) {
  if (options_.metrics_path.empty()) return;
  if (!force) {
    const long every = metrics_every_.load();
    if (every <= 0) return;
    std::lock_guard<std::mutex> lock(state_mu_);
    if (completed_ == 0 || completed_ % every != 0) return;
  }
  // Build the line before taking the append lock (metrics_json snapshots
  // the registry); append failures are recorded, never fatal.
  const std::string line = metrics_json();
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    std::ofstream out(options_.metrics_path, std::ios::app);
    if (out) {
      out << line << "\n";
    } else {
      obs::counter_add("service.metrics_write_failed");
    }
  }
  // When the service owns the registry, each emitted line closes its
  // interval: the rebase clears spans (bounding resident memory) and
  // restarts the obs counter/histogram families, so successive lines are
  // per-interval deltas. The service's own gauges (completed, latency
  // histogram, shed counts) stay cumulative.
  if (options_.observability) obs::Registry::global().rebase();
}

bool LayoutService::save_snapshot(std::string* error) {
  if (options_.snapshot_path.empty()) {
    if (error != nullptr) *error = "no snapshot path configured";
    return false;
  }
  std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
  std::string local;
  if (!caches_.save_snapshot(options_.snapshot_path, &local)) {
    std::lock_guard<std::mutex> lock(state_mu_);
    snapshot_error_ = local;
    if (error != nullptr) *error = local;
    obs::counter_add("service.snapshot_save_failed");
    return false;
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  ++snapshots_saved_;
  obs::counter_add("service.snapshots_saved");
  return true;
}

int LayoutService::client_id(const std::string& client) {
  std::lock_guard<std::mutex> lock(state_mu_);
  const auto it = client_ids_.find(client);
  if (it != client_ids_.end()) return it->second;
  const int id = static_cast<int>(client_ids_.size());
  client_ids_[client] = id;
  return id;
}

bool LayoutService::circuit_spec(
    const std::string& name, std::vector<circuits::InstanceSpec>* instances,
    std::vector<std::string>* routed_nets, std::string* error) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = circuits_.find(name);
    if (it != circuits_.end()) {
      *instances = it->second.first;
      *routed_nets = it->second.second;
      return true;
    }
  }
  // Prepare outside the lock (sizing runs testbenches); a racing duplicate
  // preparation is wasted work, not an error — last writer wins with an
  // identical value (preparation is deterministic).
  std::vector<circuits::InstanceSpec> inst;
  std::vector<std::string> nets;
  try {
    if (name == "ota5t") {
      circuits::Ota5T c(tech_);
      if (!c.prepare()) {
        if (error != nullptr) *error = "ota5t preparation failed";
        return false;
      }
      inst = c.instances();
      nets = c.routed_nets();
    } else if (name == "strongarm") {
      circuits::StrongArmComparator c(tech_);
      if (!c.prepare()) {
        if (error != nullptr) *error = "strongarm preparation failed";
        return false;
      }
      inst = c.instances();
      nets = c.routed_nets();
    } else if (name == "vco") {
      circuits::RoVco c(tech_);
      if (!c.prepare()) {
        if (error != nullptr) *error = "vco preparation failed";
        return false;
      }
      inst = c.instances();
      nets = c.routed_nets();
    } else {
      if (error != nullptr) *error = "unknown circuit \"" + name + "\"";
      return false;
    }
  } catch (const std::exception& e) {
    if (error != nullptr) {
      *error = "circuit preparation threw: " + std::string(e.what());
    }
    return false;
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  circuits_[name] = {inst, nets};
  *instances = std::move(inst);
  *routed_nets = std::move(nets);
  return true;
}

bool LayoutService::draining() const {
  return draining_.load(std::memory_order_relaxed);
}

void LayoutService::drain(bool cancel_inflight) {
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (!started_.load(std::memory_order_relaxed)) return;
  draining_.store(true, std::memory_order_relaxed);
  queue_.close();
  if (cancel_inflight) {
    // Drop what never started, cancel what did. Dropped jobs still owe
    // their submitters an outcome — deliver a cancelled failure. Their
    // journal entries stay pending on purpose: accepted work that was
    // cancelled by a fast shutdown replays on the next start.
    std::vector<OutcomeFn> cancelled;
    std::vector<RequestOutcome> outcomes;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      // Every registered callback whose ticket is NOT in flight belongs to
      // a queued (or about-to-be-taken) job.
      for (auto it = done_.begin(); it != done_.end();) {
        if (inflight_.find(it->first) == inflight_.end()) {
          RequestOutcome o;
          o.status = circuits::JobStatus::kFailed;
          o.error = "cancelled by shutdown";
          cancelled.push_back(std::move(it->second));
          outcomes.push_back(std::move(o));
          it = done_.erase(it);
          ++failed_;
          ++completed_;
        } else {
          ++it;
        }
      }
      for (auto& [ticket, inflight] : inflight_) inflight->budget.cancel();
    }
    queue_.clear();
    for (std::size_t i = 0; i < cancelled.size(); ++i) {
      if (cancelled[i]) cancelled[i](outcomes[i]);
    }
  }
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
    workers_.clear();
    for (std::thread& w : retired_) {
      if (w.joinable()) w.join();
    }
    retired_.clear();
  }
  if (!options_.snapshot_path.empty()) save_snapshot(nullptr);
  if (journal_) journal_->compact(nullptr);  // shrink to live state
  maybe_periodic_metrics(/*force=*/true);  // final metrics line
  obs::counter_add("service.drains");
}

ServiceStats LayoutService::stats() const {
  ServiceStats s;
  s.uptime_s = clock_.seconds();
  s.draining = draining();
  s.queue_depth = queue_.depth();
  s.workers = desired_workers_.load();
  s.admitted = queue_.admitted();
  s.shed_queue_full = queue_.shed(RejectReason::kQueueFull);
  s.shed_client_quota = queue_.shed(RejectReason::kClientQuota);
  s.shed_draining = queue_.shed(RejectReason::kDraining);
  s.cache = caches_.stats();
  s.cache_scopes = caches_.scopes();
  if (journal_) s.journal = journal_->stats();
  std::lock_guard<std::mutex> lock(state_mu_);
  s.inflight = static_cast<long>(inflight_.size());
  s.max_inflight = max_inflight_;
  s.completed = completed_;
  s.succeeded = succeeded_;
  s.degraded = degraded_;
  s.failed = failed_;
  s.retries = retries_;
  s.parse_rejects = parse_rejects_;
  s.shed_rate_limited = rate_limited_;
  s.duplicates = duplicates_;
  s.reloads = reloads_;
  s.journal_replayed = journal_replayed_;
  s.journal_deduped = journal_deduped_;
  s.latency = latency_hist_.stats();
  s.p50_ms = s.latency.p50;
  s.p99_ms = s.latency.p99;
  s.p999_ms = s.latency.p999;
  s.snapshot_loaded = snapshot_loaded_;
  s.snapshot_error = snapshot_error_;
  s.snapshots_saved = snapshots_saved_;
  return s;
}

std::string LayoutService::metrics_json() const {
  const ServiceStats s = stats();
  std::string out = "{\"uptime_s\":" + fixed(s.uptime_s, 3);
  out += ",\"queue_depth\":" + std::to_string(s.queue_depth);
  out += ",\"inflight\":" + std::to_string(s.inflight);
  out += ",\"max_inflight\":" + std::to_string(s.max_inflight);
  out += ",\"workers\":" + std::to_string(s.workers);
  out += ",\"admitted\":" + std::to_string(s.admitted);
  out += ",\"completed\":" + std::to_string(s.completed);
  out += ",\"succeeded\":" + std::to_string(s.succeeded);
  out += ",\"degraded\":" + std::to_string(s.degraded);
  out += ",\"failed\":" + std::to_string(s.failed);
  out += ",\"retries\":" + std::to_string(s.retries);
  out += ",\"reloads\":" + std::to_string(s.reloads);
  out += ",\"shed\":{\"queue_full\":" + std::to_string(s.shed_queue_full);
  out += ",\"client_quota\":" + std::to_string(s.shed_client_quota);
  out += ",\"draining\":" + std::to_string(s.shed_draining);
  out += ",\"rate_limited\":" + std::to_string(s.shed_rate_limited);
  out += ",\"duplicate\":" + std::to_string(s.duplicates);
  out += ",\"parse_error\":" + std::to_string(s.parse_rejects) + "}";
  out += ",\"journal\":{\"enabled\":" +
         std::string(s.journal.enabled ? "true" : "false");
  out += ",\"pending\":" + std::to_string(s.journal.pending);
  out += ",\"append_failures\":" + std::to_string(s.journal.append_failures);
  out += ",\"replayed\":" + std::to_string(s.journal_replayed);
  out += ",\"deduped\":" + std::to_string(s.journal_deduped) + "}";
  out += ",\"latency_ms\":" + obs::histogram_json(s.latency);
  out += ",\"cache\":{\"hits\":" + std::to_string(s.cache.hits);
  out += ",\"misses\":" + std::to_string(s.cache.misses);
  out += ",\"entries\":" + std::to_string(s.cache.entries);
  out += ",\"evictions\":" + std::to_string(s.cache.evictions) + "}";
  // The obs families (one registry snapshot): lock-wait and pool metrics
  // live here as obs.contention.* / obs.pool.* counters and histograms.
  out += ",\"obs_enabled\":";
  out += obs::enabled() ? "true" : "false";
  out += ",\"counters\":{";
  if (obs::enabled()) {
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
      if (!first) out += ',';
      first = false;
      out += "\"" + jsonl::escape(name) + "\":" + std::to_string(value);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : snap.histograms) {
      if (!first) out += ',';
      first = false;
      out += "\"" + jsonl::escape(name) + "\":" + obs::histogram_json(h);
    }
  } else {
    out += "},\"histograms\":{";
  }
  out += "}}";
  return out;
}

bool LayoutService::handle_line(const std::string& identity,
                                const std::string& line, const EmitFn& emit) {
  if (line.empty()) return true;
  ServiceRequest request;
  std::string error;
  const RejectReason parsed = parse_request(line, &request, &error);
  if (parsed != RejectReason::kNone) {
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      ++parse_rejects_;
    }
    obs::counter_add("service.parse_rejects");
    emit("{\"event\":\"rejected\",\"reason\":\"" +
         std::string(reject_reason_name(parsed)) + "\",\"error\":\"" +
         jsonl::escape(error) + "\"}");
    return true;
  }
  // The transport's identity overrides anything the line could claim
  // (parse_request rejects an "identity" member outright).
  request.identity = identity;
  switch (request.op) {
    case RequestOp::kSubmit: {
      if (request.id.empty()) {
        request.id =
            "r" + std::to_string(next_auto_id_.fetch_add(1,
                                                         std::memory_order_relaxed) +
                                 1);
      }
      const std::string id = request.id;
      const RejectReason reason =
          submit(request, [emit, id](const RequestOutcome& o) {
            std::string msg = "{\"id\":\"" + jsonl::escape(id) + "\"";
            msg += ",\"event\":\"done\",\"status\":\"" +
                   std::string(circuits::job_status_name(o.status)) + "\"";
            if (!o.error.empty()) {
              msg += ",\"error\":\"" + jsonl::escape(o.error) + "\"";
            }
            msg += ",\"attempts\":" + std::to_string(o.attempts);
            msg += ",\"queued_s\":" + fixed(o.queued_s, 4);
            msg += ",\"run_s\":" + fixed(o.run_s, 4);
            msg += ",\"testbenches\":" + std::to_string(o.testbenches);
            msg += ",\"degraded\":" +
                   std::string(o.degraded ? "true" : "false");
            msg += ",\"budget_exhausted\":" +
                   std::string(o.budget_exhausted ? "true" : "false");
            msg += "}";
            emit(msg);
          });
      if (reason == RejectReason::kNone) {
        emit("{\"id\":\"" + jsonl::escape(id) +
             "\",\"event\":\"accepted\",\"queue_depth\":" +
             std::to_string(queue_.depth()) + "}");
      } else if (reason == RejectReason::kDuplicate) {
        // Answer with what the key already produced (or "pending" while the
        // original is still running) — never run the job twice.
        circuits::JobStatus prior = circuits::JobStatus::kFailed;
        const bool completed = duplicate_status(request.key, &prior);
        std::string msg = "{\"id\":\"" + jsonl::escape(id) +
                          "\",\"event\":\"duplicate\",\"key\":\"" +
                          jsonl::escape(request.key) + "\",\"status\":\"";
        msg += completed ? circuits::job_status_name(prior) : "pending";
        msg += "\"}";
        emit(msg);
      } else {
        emit("{\"id\":\"" + jsonl::escape(id) +
             "\",\"event\":\"rejected\",\"reason\":\"" +
             std::string(reject_reason_name(reason)) + "\"}");
      }
      break;
    }
    case RequestOp::kStats:
      emit("{\"event\":\"stats\",\"stats\":" + stats().to_json() + "}");
      break;
    case RequestOp::kMetrics:
      emit("{\"event\":\"metrics\",\"metrics\":" + metrics_json() + "}");
      break;
    case RequestOp::kSnapshot: {
      std::string snap_error;
      const bool ok = save_snapshot(&snap_error);
      std::string msg = "{\"event\":\"snapshot\",\"ok\":";
      msg += ok ? "true" : "false";
      if (!ok) msg += ",\"error\":\"" + jsonl::escape(snap_error) + "\"";
      msg += "}";
      emit(msg);
      break;
    }
    case RequestOp::kReload: {
      reload(request.reload_values);
      const QueueOptions bounds = queue_.options();
      std::string msg = "{\"event\":\"reloaded\",\"queue_depth\":" +
                        std::to_string(bounds.max_depth);
      msg += ",\"client_queue\":" + std::to_string(bounds.max_per_client);
      msg += ",\"workers\":" + std::to_string(desired_workers_.load());
      msg += ",\"snapshot_every\":" + std::to_string(snapshot_every_.load());
      msg += ",\"retries\":" + std::to_string(max_retries_.load());
      msg += ",\"metrics_every\":" + std::to_string(metrics_every_.load());
      msg += ",\"rate\":" + fixed(rate_per_s_.load(), 3);
      msg += ",\"burst\":" + fixed(rate_burst_.load(), 3);
      msg += "}";
      emit(msg);
      break;
    }
    case RequestOp::kDrain:
      drain(/*cancel_inflight=*/false);
      emit("{\"event\":\"drained\",\"cancelled\":false}");
      return false;
    case RequestOp::kShutdown:
      drain(/*cancel_inflight=*/true);
      emit("{\"event\":\"drained\",\"cancelled\":true}");
      return false;
    case RequestOp::kPing:
      emit("{\"event\":\"pong\"}");
      break;
  }
  return true;
}

void LayoutService::serve(std::istream& in, std::ostream& out,
                          const std::function<bool()>& on_interrupt) {
  start();
  obs::set_thread_name("service/intake");
  auto out_mu = std::make_shared<std::mutex>();
  const EmitFn emit = [&out, out_mu](const std::string& line) {
    std::lock_guard<std::mutex> lock(*out_mu);
    out << line << "\n" << std::flush;
  };

  std::string line;
  bool stop = false;
  while (!stop) {
    if (!std::getline(in, line)) {
      // A signal (SIGHUP reload) ends the read; the hook decides whether
      // to absorb it and keep serving. Do NOT gate on eof(): a read ended
      // by a signal is indistinguishable from end-of-file at this layer
      // (both set eofbit), so the hook — which knows whether a signal
      // actually arrived — is the only reliable discriminator. On true EOF
      // it returns false and the loop falls through to the drain.
      if (on_interrupt && on_interrupt()) {
        in.clear();
        continue;
      }
      break;
    }
    // stdin is a trusted direct caller: no transport identity, quotas key
    // on the self-reported client name (see request.hpp).
    stop = !handle_line(std::string(), line, emit);
  }
  // EOF (or SIGTERM interrupting the read): graceful drain — finish queued
  // and in-flight work, flush the snapshot.
  if (!stop) drain(/*cancel_inflight=*/false);
}

}  // namespace olp::service
