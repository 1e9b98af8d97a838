#include "util/task_pool.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "util/env.hpp"
#include "util/faults.hpp"

namespace olp {

namespace {

/// Deterministic per-index delay for a fired kPoolTaskDelay draw: a
/// Knuth-hash scramble of the index spreads sleeps over ~[0.1, 2.4] ms so
/// neighboring indices finish in thoroughly shuffled order.
void chaos_delay(std::size_t index) {
  if (!FaultInjector::global().enabled()) return;
  if (!FaultInjector::global().should_fail(FaultSite::kPoolTaskDelay)) return;
  const std::uint64_t h = (index * 2654435761ULL) % 24ULL;
  std::this_thread::sleep_for(std::chrono::microseconds(100 + 100 * h));
}

/// The slot mutexes' contention attribution (obs::timed_lock). One site for
/// all slots: the meter answers "how often do claims collide at all".
constexpr obs::LockSite kPoolLock{"obs.contention.pool.contended",
                                  "obs.contention.pool.wait_us"};

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Which run-queue slot the current thread submits through on a given pool:
/// workers publish their identity here at startup; every other thread (and
/// any thread on a different pool) falls back to the shared slot 0.
struct ThreadSlot {
  const void* pool = nullptr;
  std::size_t slot = 0;
};
thread_local ThreadSlot tl_slot;

}  // namespace

int resolve_num_threads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int threads_from_env(int base) {
  return resolve_num_threads(env::int_value("OLP_THREADS", base));
}

TaskPool::TaskPool(int threads) {
  const int total = threads < 1 ? 1 : threads;
  slots_.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) slots_.push_back(std::make_unique<Slot>());
  workers_.reserve(static_cast<std::size_t>(total - 1));
  for (int i = 1; i < total; ++i) {
    workers_.emplace_back([this, i] {
      obs::set_thread_name("pool/worker-" + std::to_string(i - 1));
      tl_slot.pool = this;
      tl_slot.slot = static_cast<std::size_t>(i);
      worker_loop(static_cast<std::size_t>(i));
    });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    shutdown_ = true;
    ++work_version_;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void TaskPool::unlist(Slot& slot, Batch* batch) {
  const auto it = std::find(slot.batches.begin(), slot.batches.end(), batch);
  if (it != slot.batches.end()) slot.batches.erase(it);
}

void TaskPool::parallel_for(std::size_t n,
                            const std::function<bool(std::size_t)>& task) {
  if (n == 0) return;
  obs::counter_add("pool.batches");
  if (workers_.empty()) {
    // Inline path: the seed-serial loop (ordered, break on false).
    long ran = 0;
    bool stopped = false;
    for (std::size_t i = 0; i < n; ++i) {
      chaos_delay(i);
      ++ran;
      if (!task(i)) {
        stopped = true;
        break;
      }
    }
    obs::counter_add("pool.tasks", ran);
    if (stopped) obs::counter_add("pool.stopped_batches");
    return;
  }

  Batch batch;
  batch.task = &task;
  batch.n = n;
  batch.context = obs::capture_thread_context();
  Slot& home =
      *slots_[tl_slot.pool == this ? tl_slot.slot : std::size_t{0}];
  batch.home = &home;

  std::unique_lock<std::mutex> lock = obs::timed_lock(home.mu, kPoolLock);
  home.batches.push_back(&batch);
  obs::histogram("obs.pool.queue_depth",
                 static_cast<double>(home.batches.size()));
  lock.unlock();
  {
    std::lock_guard<std::mutex> wake(wake_mu_);
    ++work_version_;
  }
  work_cv_.notify_all();

  // The submitter works its own batch first (so progress never depends on a
  // free worker — nested submission cannot deadlock), then waits for
  // stragglers claimed by thieves.
  obs::timed_relock(lock, kPoolLock);
  while (batch.claimable()) {
    const std::size_t index = batch.next++;
    ++batch.in_flight;
    if (!batch.claimable()) unlist(home, &batch);
    lock.unlock();
    run_claimed(&batch, index, /*is_worker=*/false);
    obs::timed_relock(lock, kPoolLock);
  }
  home.done_cv.wait(lock, [&batch] { return batch.done(); });
  const bool stopped = batch.stop;
  std::exception_ptr error = batch.error;
  lock.unlock();
  if (stopped) obs::counter_add("pool.stopped_batches");
  if (error != nullptr) std::rethrow_exception(error);
}

void TaskPool::worker_loop(std::size_t slot_index) {
  // Per-thief LCG for victim selection: cheap, and seeded by slot so
  // thieves start their sweeps on different victims.
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL * (slot_index + 1);
  for (;;) {
    if (find_and_run_once(slot_index, rng)) continue;
    std::unique_lock<std::mutex> wake(wake_mu_);
    if (shutdown_) return;
    const std::uint64_t seen = work_version_;
    wake.unlock();
    // Re-sweep after recording the version: any batch published before the
    // read is visible to this sweep, any published after bumps the version
    // and defeats the wait below — no lost wakeups.
    if (find_and_run_once(slot_index, rng)) continue;
    wake.lock();
    // Idle time = waiting for claimable work; the clock is only read while
    // the registry is enabled, so disabled runs pay nothing here.
    const std::int64_t idle_t0 = obs::enabled() ? now_us() : 0;
    work_cv_.wait(wake,
                  [this, seen] { return shutdown_ || work_version_ != seen; });
    if (idle_t0 != 0) {
      obs::counter_add("obs.pool.idle_us", now_us() - idle_t0);
    }
    if (shutdown_) return;
  }
}

bool TaskPool::find_and_run_once(std::size_t self_slot,
                                 std::uint64_t& rng_state) {
  const std::size_t count = slots_.size();
  rng_state = rng_state * 6364136223846793005ULL + 1442695040888963407ULL;
  const std::size_t start = (rng_state >> 33) % count;
  // Own slot first (nested batches, locality), then a full sweep of the
  // other slots from a random starting victim — randomized so concurrent
  // thieves fan out, exhaustive so queued work is never overlooked.
  for (std::size_t k = 0; k <= count; ++k) {
    const std::size_t victim = k == 0 ? self_slot : (start + k - 1) % count;
    if (k != 0 && victim == self_slot) continue;
    Slot& slot = *slots_[victim];
    Batch* claimed = nullptr;
    std::size_t index = 0;
    {
      std::unique_lock<std::mutex> lock = obs::timed_lock(slot.mu, kPoolLock);
      for (Batch* batch : slot.batches) {  // oldest first: FIFO fairness
        if (!batch->claimable()) continue;
        claimed = batch;
        index = batch->next++;
        ++batch->in_flight;
        if (!batch->claimable()) unlist(slot, batch);
        break;  // the list was mutated above; do not keep iterating
      }
    }
    if (claimed != nullptr) {
      run_claimed(claimed, index, /*is_worker=*/true);
      return true;
    }
  }
  return false;
}

void TaskPool::run_claimed(Batch* batch, std::size_t index, bool is_worker) {
  bool keep_going = false;
  std::exception_ptr thrown;
  const std::int64_t busy_t0 = obs::enabled() ? now_us() : 0;
  {
    // Workers adopt the submitting thread's span position so their spans
    // (and any diagnostics' span paths) nest inside the submitting span.
    // The submitter already is that position. Applied per task because a
    // worker may interleave claims from different batches.
    std::unique_ptr<obs::ThreadContextScope> scope;
    if (is_worker) {
      scope = std::make_unique<obs::ThreadContextScope>(batch->context);
    }
    chaos_delay(index);
    try {
      keep_going = (*batch->task)(index);
    } catch (...) {
      thrown = std::current_exception();
    }
  }
  obs::counter_add("pool.tasks");
  if (busy_t0 != 0 && is_worker) {
    obs::counter_add("obs.pool.busy_us", now_us() - busy_t0);
  }

  Slot& home = *batch->home;
  std::unique_lock<std::mutex> lock = obs::timed_lock(home.mu, kPoolLock);
  --batch->in_flight;
  if (thrown != nullptr) {
    if (batch->error == nullptr || index < batch->error_index) {
      batch->error = thrown;
      batch->error_index = index;
    }
    batch->stop = true;
    unlist(home, batch);
  } else if (!keep_going) {
    batch->stop = true;
    unlist(home, batch);
  }
  if (batch->done()) home.done_cv.notify_all();
}

void run_indexed(TaskPool* pool, std::size_t n,
                 const std::function<bool(std::size_t)>& task) {
  if (pool != nullptr) {
    pool->parallel_for(n, task);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!task(i)) break;
  }
}

}  // namespace olp
