#pragma once
// The resident layout service: a long-running front end over the batch flow
// machinery (circuits::run_flow_job + circuits::CachePool) that accepts
// work continuously instead of one vector at a time.
//
//   intake ──► rate limit ──► journal ──► AdmissionQueue ──► workers ──► outcome
//   (submit /   (token bucket  (durable     (fair share,      (run_flow_job,
//    serve /     per identity)  accepted-    bounded,          per-job Budget,
//    transport)                 work ledger) load-shed)        retry w/ backoff)
//
// Lifetime of the cache pool is the lifetime of the SERVICE, not of one
// request — evaluations stay warm across requests, clients, and (via the
// versioned disk snapshot) restarts: start() warm-loads the snapshot when
// configured, workers checkpoint every `snapshot_every` completions, and
// drain() flushes a final checkpoint. A missing/truncated/corrupt snapshot
// is a logged cold start, never a crash.
//
// Durability contract (when `journal_path` is configured): an accepted
// submit is appended to the request journal BEFORE its "accepted" response
// is emitted, and marked completed when the job leaves a worker. After a
// hard crash (kill -9), start() replays unfinished entries with
// at-least-once semantics; requests carrying a client-supplied idempotency
// `key` are never executed twice — a key with a recorded completion is
// answered with a "duplicate" event instead of re-running (see
// service/journal.hpp).
//
// Robustness contract:
//   - overload sheds with a machine-readable reason (never blocks intake,
//     never crashes, never drops silently); the per-identity token bucket
//     (rate/burst) sheds kRateLimited in front of the queue;
//   - per-request deadlines/testbench budgets ride the existing Budget
//     machinery, so a stuck request degrades and salvages instead of
//     wedging a worker;
//   - transient faults (FaultSite::kJobTransient, chaos-injectable) are
//     retried with exponential backoff up to a bounded attempt count;
//   - hot reload (the "reload" verb / reload()) adjusts queue bounds,
//     worker count, rate limits, snapshot/metrics cadence and retry count
//     in place — no restart, no dropped connections, no lost queue items;
//   - drain (SIGTERM or the "drain" verb) stops admission, lets in-flight
//     and queued work finish, flushes the snapshot, compacts the journal,
//     and joins every worker; shutdown additionally cancels in-flight
//     budgets so workers salvage partial results promptly (queued-but-
//     cancelled journaled work stays pending and replays on next start).
//
// Thread model: N worker std::threads pull whole jobs from the queue; every
// job's INNER parallel stages run single-submission on one shared TaskPool
// (the pool's FIFO multi-batch fairness interleaves concurrent jobs).
// Worker resizing retires the old fleet (each exits after its current job)
// and spawns a fresh one — briefly over-committed, never under-joined. All
// public methods are thread-safe; outcome callbacks run on worker threads.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>
#include <istream>
#include <ostream>

#include "circuits/batch.hpp"
#include "service/journal.hpp"
#include "service/queue.hpp"
#include "service/request.hpp"
#include "util/budget.hpp"
#include "util/obs.hpp"
#include "util/task_pool.hpp"

namespace olp::service {

struct ServiceOptions {
  /// Concurrent jobs (dedicated worker threads). OLP_SERVICE_WORKERS
  /// overrides at construction. Hot-reloadable ("workers").
  int workers = 2;
  /// Threads of the shared inner TaskPool all jobs' parallel stages run on
  /// (1 = serial stages, 0 = one per core). OLP_THREADS overrides.
  int pool_threads = 1;
  /// Admission bounds. OLP_SERVICE_QUEUE_DEPTH / OLP_SERVICE_CLIENT_QUEUE
  /// override max_depth / max_per_client. Hot-reloadable ("queue_depth",
  /// "client_queue").
  QueueOptions queue;
  /// Capacity bound per scope cache. Unlike BatchOptions, the service
  /// DEFAULTS to bounded — a resident unbounded cache is a slow memory
  /// leak. OLP_CACHE_MAX_ENTRIES overrides.
  std::size_t cache_max_entries = 1u << 16;
  /// Re-attempts after a transiently failed job attempt (injected
  /// kJobTransient fault or a thrown job). OLP_SERVICE_RETRIES overrides.
  /// Hot-reloadable ("retries").
  int max_retries = 2;
  /// Backoff before retry attempt k is 'retry_backoff_ms << (k-1)'
  /// milliseconds (exponential). Kept small: service jobs are seconds-long,
  /// transients are injected or logic-level, not network-level.
  double retry_backoff_ms = 5.0;
  /// Warm-start snapshot path; empty disables persistence entirely.
  /// OLP_SERVICE_SNAPSHOT overrides.
  std::string snapshot_path;
  /// Checkpoint the cache pool every N completed jobs (0 = only on drain).
  /// OLP_SERVICE_SNAPSHOT_EVERY overrides. Hot-reloadable ("snapshot_every").
  long snapshot_every = 16;
  /// Durable request journal path; empty disables the durability contract
  /// (accepted work is lost on a crash, exactly as before journaling
  /// existed). OLP_SERVICE_JOURNAL overrides.
  std::string journal_path;
  /// Per-identity admission rate limit, requests per second (0 = off) and
  /// burst size (<1 = defaults to max(rate, 1)). OLP_SERVICE_RATE /
  /// OLP_SERVICE_RATE_BURST override. Hot-reloadable ("rate", "burst").
  double rate_per_s = 0.0;
  double rate_burst = 0.0;
  /// Default deadline applied to requests that don't carry one (0 = none).
  double default_deadline_ms = 0.0;
  /// Enable the process-wide obs registry at start() so the live-metrics
  /// families (obs.pool.*, obs.contention.*) are collected. OLP_OBS
  /// overrides. In a long-running service pair this with `metrics_path` —
  /// the periodic emission rebases the registry, which both bounds span
  /// memory and makes each JSONL line a per-interval delta.
  bool observability = false;
  /// Append a metrics_json() line to this JSONL file every `metrics_every`
  /// completed jobs and at drain; empty disables. OLP_METRICS_PATH
  /// overrides.
  std::string metrics_path;
  /// Completions between periodic metrics lines (0 = only at drain).
  /// OLP_METRICS_EVERY overrides. Hot-reloadable ("metrics_every").
  long metrics_every = 16;
};

/// Terminal report for one accepted request, delivered to the submitter's
/// callback on a worker thread.
struct RequestOutcome {
  std::string id;
  std::string client;
  circuits::JobStatus status = circuits::JobStatus::kFailed;
  std::string error;       ///< nonempty iff status == kFailed
  int attempts = 1;        ///< 1 = first try succeeded
  double queued_s = 0.0;   ///< admission -> worker pickup
  double run_s = 0.0;      ///< worker pickup -> done (includes retries)
  long testbenches = 0;
  bool degraded = false;
  bool budget_exhausted = false;
  bool replayed = false;   ///< re-run from the journal after a restart
};

/// Point-in-time health/metrics snapshot (the "stats" verb's payload).
struct ServiceStats {
  double uptime_s = 0.0;
  bool draining = false;
  std::size_t queue_depth = 0;
  long inflight = 0;
  long max_inflight = 0;  ///< high-water mark of concurrently running jobs
  int workers = 0;        ///< current worker-fleet target (hot-reloadable)
  long admitted = 0;
  long completed = 0;
  long succeeded = 0;
  long degraded = 0;
  long failed = 0;
  long retries = 0;  ///< total re-attempts across all jobs
  long shed_queue_full = 0;
  long shed_client_quota = 0;
  long shed_draining = 0;
  long shed_rate_limited = 0;  ///< token-bucket sheds at admission
  long duplicates = 0;         ///< keyed submits answered without re-running
  long parse_rejects = 0;  ///< malformed / injected-fault request lines
  long reloads = 0;        ///< hot config reloads applied
  double p50_ms = 0.0;  ///< admission->done latency percentiles, from the
  double p99_ms = 0.0;  ///< bounded histogram below (bucket-interpolated)
  double p999_ms = 0.0;
  /// Full admission->done latency histogram (milliseconds; bounded memory
  /// regardless of how long the service has been up).
  obs::HistogramStats latency;
  core::EvalCacheStats cache;
  std::size_t cache_scopes = 0;
  bool snapshot_loaded = false;   ///< start() warm-started from disk
  std::string snapshot_error;     ///< last snapshot load/save failure
  long snapshots_saved = 0;
  /// Durable-journal health (journal.enabled false = no journal_path or it
  /// failed to open; the service keeps running either way).
  JournalStats journal;
  long journal_replayed = 0;  ///< entries re-enqueued by start()
  long journal_deduped = 0;   ///< replay entries skipped via key history

  /// One-line JSON rendering (the "stats" response body). When the obs
  /// registry is enabled, includes its counters as a nested object.
  std::string to_json() const;
};

class LayoutService {
 public:
  using OutcomeFn = std::function<void(const RequestOutcome&)>;
  using EmitFn = std::function<void(const std::string& line)>;

  /// `technology` is not owned and must outlive the service. Environment
  /// overrides (see ServiceOptions fields) apply here, once.
  LayoutService(const tech::Technology& technology, ServiceOptions options);
  /// Drains with cancellation (fast path) if still running.
  ~LayoutService();

  LayoutService(const LayoutService&) = delete;
  LayoutService& operator=(const LayoutService&) = delete;

  /// Loads the warm-start snapshot (when configured; failure = cold start,
  /// recorded in stats), opens the journal and replays its unfinished
  /// entries (keyed ones deduplicated against the completion history), and
  /// spawns the workers. Idempotent.
  void start();

  /// Admission: validates the circuit, charges the identity's token bucket,
  /// deduplicates the idempotency key, journals, and either enqueues
  /// (kNone; `done` fires later on a worker thread, exactly once) or sheds
  /// with the reason (`done` never fires). kDuplicate means the key was
  /// already accepted or completed — query duplicate_status() for the
  /// recorded outcome. Thread-safe, never blocks on queue space.
  RejectReason submit(const ServiceRequest& request, OutcomeFn done);

  /// Terminal status recorded for a completed idempotency key. False when
  /// the key is unknown or still in flight ("pending").
  bool duplicate_status(const std::string& key,
                        circuits::JobStatus* status) const;

  /// Applies the whitelisted hot-reload knobs (queue_depth, client_queue,
  /// workers, snapshot_every, retries, metrics_every, rate, burst — the
  /// "reload" verb's fields). Unknown keys are ignored; absent keys keep
  /// their current values. Never drops queued work or connections.
  void reload(const std::map<std::string, double>& values);

  /// Dispatches ONE request line exactly as serve() would: parse, stamp
  /// `identity`, execute the verb, answer via `emit` (responses and later
  /// "done" events). Returns false when the line asked the service to stop
  /// (drain/shutdown — the service HAS drained by then). This is the shared
  /// core behind serve() and the socket transport; `emit` must be callable
  /// from worker threads for as long as the service lives.
  bool handle_line(const std::string& identity, const std::string& line,
                   const EmitFn& emit);

  /// Stops admission and waits for queued + in-flight work to finish, then
  /// joins workers, flushes a final snapshot and compacts the journal. With
  /// `cancel_inflight`, queued jobs are dropped and in-flight budgets are
  /// cancelled first — running jobs salvage partial results and report
  /// budget-exhausted; journaled queued work stays pending for replay.
  /// Idempotent; safe from any non-worker thread.
  void drain(bool cancel_inflight = false);

  /// True once drain() has begun (new submissions shed with kDraining).
  bool draining() const;

  ServiceStats stats() const;

  /// Full live-telemetry dump as one JSON object (the "metrics" verb's
  /// payload and the OLP_METRICS_PATH line format): service gauges, the
  /// latency histogram, the shed breakdown, and — when the obs registry is
  /// enabled — every obs counter and histogram family (obs.pool.*,
  /// obs.contention.*, ...).
  std::string metrics_json() const;

  /// Checkpoints the cache pool now. False (with *error) on failure —
  /// the previous snapshot file, if any, survives.
  bool save_snapshot(std::string* error = nullptr);

  /// Blocking JSONL request loop: one request per input line, responses as
  /// single JSON lines on `out` (interleaved "done" events carry the
  /// request id). Returns after EOF or a drain/shutdown verb, having
  /// drained the service. When `on_interrupt` is set, a failed read (e.g. a
  /// signal waking an FdInputBuf, see fd_input.hpp) calls it: true means
  /// "handled, keep serving" (the stream is cleared — SIGHUP reload), false
  /// falls through to the EOF drain. See request.hpp for the wire protocol.
  void serve(std::istream& in, std::ostream& out,
             const std::function<bool()>& on_interrupt = {});

  /// Circuit names submit() accepts ("ota5t", "strongarm", "vco").
  static std::vector<std::string> known_circuits();

  const ServiceOptions& options() const { return options_; }

 private:
  struct Inflight;  // budget registration of one running job
  /// Per-identity token bucket (tokens < 0 = fresh, starts full).
  struct Bucket {
    double tokens = -1.0;
    double last_s = 0.0;
  };

  void worker_loop(int worker_index, std::uint64_t epoch);
  void run_one(QueuedJob job);
  /// Retires the current worker fleet and spawns `target` fresh workers
  /// (no-op when the target matches). Old workers finish their current job
  /// first; their threads are joined at drain.
  void resize_workers(int target);
  void spawn_workers_locked(int count);
  /// Charges one token from `identity`'s bucket; false = rate-limited.
  bool take_token(const std::string& identity);
  /// Re-enqueues unfinished journal entries (dedups keyed ones). Called by
  /// start() before workers spawn; bounds are bypassed — this work was
  /// already admitted once.
  void replay_journal();
  void maybe_periodic_snapshot();
  /// Appends a metrics_json() line to options_.metrics_path every
  /// `metrics_every` completions (and from drain); when the service owns
  /// observability, each emission rebases the registry so lines are
  /// per-interval deltas and span memory stays bounded.
  void maybe_periodic_metrics(bool force);
  int client_id(const std::string& client);
  /// Resolves the named circuit's instances/nets, preparing it on first
  /// use. Returns false when preparation fails (job fails with the error).
  bool circuit_spec(const std::string& name,
                    std::vector<circuits::InstanceSpec>* instances,
                    std::vector<std::string>* routed_nets, std::string* error);

  const tech::Technology& tech_;
  ServiceOptions options_;
  AdmissionQueue queue_;
  circuits::CachePool caches_;
  std::unique_ptr<TaskPool> pool_;
  std::unique_ptr<RequestJournal> journal_;  ///< null = journaling disabled
  MonotonicStopwatch clock_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> next_ticket_{1};
  std::atomic<std::uint64_t> next_auto_id_{0};

  /// Hot-reloadable knobs (options_ itself stays the construction-time
  /// record; these are the live values).
  std::atomic<long> snapshot_every_{0};
  std::atomic<long> metrics_every_{0};
  std::atomic<int> max_retries_{0};
  std::atomic<double> rate_per_s_{0.0};
  std::atomic<double> rate_burst_{0.0};

  /// Worker fleet management: the epoch retires workers wholesale (a worker
  /// whose epoch is stale exits after its current job).
  std::mutex workers_mu_;  ///< guards workers_/retired_/desired_workers_
  std::vector<std::thread> workers_;
  std::vector<std::thread> retired_;
  std::atomic<std::uint64_t> worker_epoch_{0};
  std::atomic<int> desired_workers_{0};

  mutable std::mutex state_mu_;  ///< guards everything below
  std::map<std::uint64_t, OutcomeFn> done_;  ///< ticket -> callback
  std::map<std::string, int> client_ids_;
  std::map<std::uint64_t, std::shared_ptr<Inflight>> inflight_;
  std::map<std::string,
           std::pair<std::vector<circuits::InstanceSpec>,
                     std::vector<std::string>>>
      circuits_;
  std::map<std::string, Bucket> buckets_;  ///< identity -> token bucket
  /// Idempotency bookkeeping (works with or without a journal): keys
  /// accepted but not yet completed, and completed keys with their status
  /// (bounded like the journal's key history).
  std::set<std::string> active_keys_;
  std::map<std::string, circuits::JobStatus> completed_keys_;
  std::vector<std::string> completed_key_order_;  ///< FIFO eviction order
  obs::LatencyHistogram latency_hist_;  ///< admission->done, milliseconds
  long completed_ = 0;
  long succeeded_ = 0;
  long degraded_ = 0;
  long failed_ = 0;
  long retries_ = 0;
  long parse_rejects_ = 0;
  long rate_limited_ = 0;
  long duplicates_ = 0;
  long reloads_ = 0;
  long max_inflight_ = 0;
  long journal_replayed_ = 0;
  long journal_deduped_ = 0;
  long snapshots_saved_ = 0;
  bool snapshot_loaded_ = false;
  std::string snapshot_error_;

  std::mutex snapshot_mu_;  ///< serializes snapshot writes to one path
  std::mutex metrics_mu_;   ///< serializes metrics appends to one path
  std::mutex drain_mu_;     ///< serializes drain()
};

}  // namespace olp::service
