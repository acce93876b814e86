#include "util/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

#include "obs/log.h"
#include "obs/stage.h"

namespace sentinel::util {

std::size_t HardwareThreads() {
  if (const char* env = std::getenv("SENTINEL_THREADS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && value > 0) return static_cast<std::size_t>(value);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) thread_count = 1;
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
  // Record the resolved worker count: bench runs otherwise only know what
  // SENTINEL_THREADS *requested*, not what the pool actually started.
  const char* env = std::getenv("SENTINEL_THREADS");
  SENTINEL_LOG_INFO("thread_pool", "started",
                    {"threads", workers_.size()},
                    {"sentinel_threads", env != nullptr ? env : "unset"},
                    {"source", env != nullptr ? "env" : "hardware"});
  AttachMetrics(obs::DefaultRegistry());
}

void ThreadPool::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = PoolMetrics{};
    return;
  }
  metrics_.threads = &registry->GetGauge(
      "sentinel_pool_threads", "resolved worker count of the thread pool");
  metrics_.queue_depth = &registry->GetGauge(
      "sentinel_pool_queue_depth", "tasks waiting in the pool queue");
  metrics_.queue_wait_ns = &registry->GetHistogram(
      "sentinel_pool_queue_wait_ns", "submit-to-dequeue task latency");
  metrics_.task_run_ns = &registry->GetHistogram(
      "sentinel_pool_task_run_ns", "task execution time on a worker");
  metrics_.tasks_total = &registry->GetCounter(
      "sentinel_pool_tasks_total", "tasks executed by pool workers");
  metrics_.busy_ns_total = &registry->GetCounter(
      "sentinel_pool_busy_ns_total",
      "cumulative worker busy time (utilization = busy_ns / (threads * "
      "wall_ns))");
  metrics_.threads->Set(static_cast<double>(workers_.size()));
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (metrics_.tasks_total != nullptr) {
    // Wrap only when instrumented: the uninstrumented submit path stays
    // allocation- and clock-free beyond the task itself.
    const std::uint64_t enqueued_ns = obs::NowNs();
    PoolMetrics& m = metrics_;
    task = [m, enqueued_ns, inner = std::move(task)] {
      const std::uint64_t start_ns = obs::NowNs();
      m.queue_wait_ns->Observe(static_cast<double>(start_ns - enqueued_ns));
      inner();
      const std::uint64_t run_ns = obs::NowNs() - start_ns;
      m.task_run_ns->Observe(static_cast<double>(run_ns));
      m.busy_ns_total->Increment(run_ns);
      m.tasks_total->Increment();
    };
  }
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
    if (metrics_.queue_depth != nullptr)
      metrics_.queue_depth->Set(static_cast<double>(queue_.size()));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.Wait(mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      if (metrics_.queue_depth != nullptr)
        metrics_.queue_depth->Set(static_cast<double>(queue_.size()));
    }
    task();
  }
}

namespace {

// Shared loop state: indices are claimed via `next` and completion is
// counted via `finished`, so the join below never depends on the enqueued
// helper tasks actually being scheduled (the nested-ParallelFor deadlock
// hazard). The function object lives here so late-running helpers never
// touch a reference into the caller's (possibly unwound) frame.
struct ParallelForState {
  ParallelForState(std::size_t total_count, std::size_t grain_size,
                   std::function<void(std::size_t)> body)
      : total(total_count), grain(grain_size), fn(std::move(body)) {}

  const std::size_t total;
  const std::size_t grain;
  std::function<void(std::size_t)> fn;
  // ordering: relaxed — next is a pure work-claiming ticket; the claimed
  // indices are disjoint, and fn's writes are published by `finished`.
  std::atomic<std::size_t> next{0};
  // ordering: acq_rel on add / acquire on the caller's re-check — the
  // release half publishes every completed fn(i)'s writes, the acquire
  // half (plus the cv mutex) lets the joining caller read them.
  std::atomic<std::size_t> finished{0};
  // ordering: relaxed — a best-effort skip flag; exactness is not needed,
  // the error slot below is the synchronized source of truth.
  std::atomic<bool> aborted{false};
  Mutex mutex{"thread_pool.parallel_for"};
  CondVar cv;
  std::exception_ptr error SENTINEL_GUARDED_BY(mutex);  // first wins
};

// Claims and runs chunks of `grain` indices until the range is exhausted.
// Every claimed index counts toward `finished` exactly once, whether it
// ran, was skipped after an error, or threw itself (an exception mid-chunk
// skips the chunk's remaining indices, like any post-error index).
void ExecuteRange(ParallelForState& state) {
  for (;;) {
    const std::size_t begin =
        state.next.fetch_add(state.grain, std::memory_order_relaxed);
    if (begin >= state.total) return;
    const std::size_t end = std::min(begin + state.grain, state.total);
    if (!state.aborted.load(std::memory_order_relaxed)) {
      obs::StageScope stage(obs::Stage::kParallelChunk);
      try {
        for (std::size_t i = begin; i < end; ++i) state.fn(i);
      } catch (...) {
        {
          MutexLock lock(state.mutex);
          if (!state.error) state.error = std::current_exception();
        }
        state.aborted.store(true, std::memory_order_relaxed);
      }
    }
    const std::size_t chunk = end - begin;
    if (state.finished.fetch_add(chunk, std::memory_order_acq_rel) + chunk ==
        state.total) {
      // Wake the caller; the lock orders the notify against its wait.
      MutexLock lock(state.mutex);
      state.cv.NotifyAll();
    }
  }
}

}  // namespace

void ParallelFor(ThreadPool* pool, std::size_t count,
                 std::function<void(std::size_t)> fn,
                 std::size_t min_grain) {
  if (count == 0) return;
  if (min_grain == 0) min_grain = 1;
  if (pool == nullptr || pool->thread_count() <= 1 || count == 1 ||
      count <= min_grain) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  auto state =
      std::make_shared<ParallelForState>(count, min_grain, std::move(fn));
  // The caller is one worker; enqueue at most enough helpers to give every
  // thread (caller included) one chunk. Helpers that run after the range
  // is drained exit immediately.
  const std::size_t chunks = (count + min_grain - 1) / min_grain;
  const std::size_t helpers = std::min(pool->thread_count(), chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h)
    pool->Submit([state] { ExecuteRange(*state); });

  ExecuteRange(*state);
  {
    MutexLock lock(state->mutex);
    while (state->finished.load(std::memory_order_acquire) != state->total)
      state->cv.Wait(state->mutex);
    if (state->error) std::rethrow_exception(state->error);
  }
}

}  // namespace sentinel::util
