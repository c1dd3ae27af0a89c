// Shared parallel execution core for the simulators, oracles and the
// design-space exploration.
//
// Two design rules make the pool safe for a validation library:
//
//  1. *Deterministic chunking.*  `parallel_for` / `parallel_map_reduce`
//     split a range into contiguous chunks of `grain` indices.  The chunk
//     layout depends only on (range, grain) — never on the thread count —
//     and the reduction folds chunk results strictly in chunk order on
//     the calling thread.  Floating-point merges are therefore bit-stable
//     whether the region runs on 1 thread or 64.
//
//  2. *No work stealing.*  Chunks are claimed from a simple FIFO; a
//     chunk's work never migrates mid-flight, so per-chunk state (RNG
//     streams, Kahan accumulators) stays thread-private until the ordered
//     merge.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "sealpaa/util/timer.hpp"

namespace sealpaa::util {

/// Wall-clock record of one shard of a parallel sweep.
struct ShardTiming {
  std::uint64_t shard = 0;    // chunk index in deterministic reduction order
  std::uint64_t items = 0;    // indices of the sharded range covered
  double seconds = 0.0;       // wall-clock spent inside the shard
};

/// Per-shard accounting of a parallel run, filled by
/// util::parallel_map_reduce.  `wall_seconds` is the elapsed time of the
/// whole fork/join region; the shard seconds sum to the aggregate CPU
/// time, so `cpu_seconds() / wall_seconds` approximates the achieved
/// parallel speedup and benches can report scaling.
struct ShardTimings {
  unsigned threads = 0;       // pool width the region ran on
  double wall_seconds = 0.0;
  std::vector<ShardTiming> shards;

  /// Sum of all shard durations (aggregate work time).
  [[nodiscard]] double cpu_seconds() const noexcept;
  /// Longest single shard — the lower bound on the critical path.
  [[nodiscard]] double max_shard_seconds() const noexcept;
  /// cpu_seconds / wall_seconds; ~threads when scaling is perfect.
  [[nodiscard]] double speedup() const noexcept;
  [[nodiscard]] std::string summary() const;
};

/// max(1, std::thread::hardware_concurrency()).
[[nodiscard]] unsigned hardware_threads() noexcept;

/// Process-wide default worker count used when an engine is called with
/// `threads == 0`.  Pass 0 to restore `hardware_threads()`.  The CLI sets
/// this once at startup from `--threads`.
void set_default_threads(unsigned threads) noexcept;
[[nodiscard]] unsigned default_threads() noexcept;

/// Fixed-width FIFO thread pool.  Tasks are executed in submission order
/// by whichever worker frees up first; `wait()` blocks until every
/// submitted task finished and rethrows the first task exception.
class ThreadPool {
 public:
  /// Lifetime execution statistics of a pool, snapshot via `stats()` —
  /// the raw material of the observability layer's thread-pool section.
  struct Stats {
    std::uint64_t tasks_executed = 0;
    /// Peak number of tasks queued (submitted but not yet started).
    std::uint64_t queue_high_water = 0;
    /// Wall seconds each worker spent executing tasks, indexed by worker.
    std::vector<double> worker_busy_seconds;

    /// Sum over all workers.
    [[nodiscard]] double total_busy_seconds() const noexcept;
  };

  /// A pool of `threads` workers (0 → `default_threads()`).  The worker
  /// threads start on the first `submit()`, so a pool that only ever
  /// runs inline regions (see `parallel_map_reduce`) costs no thread.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned thread_count() const noexcept {
    return thread_count_;
  }

  /// Enqueues one task.  Thread-safe.
  void submit(std::function<void()> task);

  /// Blocks until all submitted tasks completed; rethrows the first
  /// exception any task raised.
  void wait();

  /// True when the calling thread is one of this pool's workers — used
  /// by the parallel helpers to degrade to inline execution instead of
  /// deadlocking on nested fork/join regions.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// Snapshot of the pool's lifetime execution counters.  Thread-safe;
  /// call after `wait()` for totals that cover every submitted task.
  [[nodiscard]] Stats stats() const;

  /// Lazily constructed process-wide pool sized `default_threads()` at
  /// first use.  Engines called with `threads == 0` run here, so repeated
  /// invocations reuse one set of workers instead of respawning threads.
  [[nodiscard]] static ThreadPool& shared();

 private:
  void worker_main(std::size_t worker_index);

  const unsigned thread_count_;
  std::vector<std::thread> workers_;  // empty until the first submit()
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t pending_ = 0;  // queued + currently executing
  bool stop_ = false;
  std::exception_ptr first_error_;
  // Execution counters, all guarded by mutex_.
  std::uint64_t tasks_executed_ = 0;
  std::uint64_t queue_high_water_ = 0;
  std::vector<double> worker_busy_seconds_;
};

/// Runs `fn(pool)` on the shared pool when `threads` is 0 (the library
/// default) or on a dedicated pool of exactly `threads` workers otherwise
/// (used by determinism tests and the scaling bench to pin parallelism).
template <typename Fn>
auto with_pool(unsigned threads, Fn&& fn) {
  if (threads == 0) return fn(ThreadPool::shared());
  ThreadPool pool(threads);
  return fn(pool);
}

/// Chunked map + *ordered* reduce over [begin, end).
///
/// `map(chunk_begin, chunk_end)` runs concurrently, one call per chunk
/// of at most `grain` indices; `reduce(acc, chunk_result)` then folds
/// the chunk results into `init` sequentially in ascending chunk order
/// on the calling thread.  Because the chunk layout is a function of
/// (begin, end, grain) only, the returned value is bit-identical for
/// every pool width.  When `timings` is non-null it receives one
/// ShardTiming per chunk (in chunk order) plus the region wall time.
template <typename R, typename Map, typename Reduce>
R parallel_map_reduce(ThreadPool& pool, std::uint64_t begin, std::uint64_t end,
                      std::uint64_t grain, R init, Map&& map, Reduce&& reduce,
                      ShardTimings* timings = nullptr) {
  if (grain == 0) {
    throw std::invalid_argument("parallel_map_reduce: grain must be >= 1");
  }
  R acc = std::move(init);
  if (timings != nullptr) {
    timings->threads = pool.thread_count();
    timings->wall_seconds = 0.0;
    timings->shards.clear();
  }
  if (end <= begin) return acc;

  WallTimer wall;
  const std::uint64_t span = end - begin;
  const std::size_t chunks = static_cast<std::size_t>((span + grain - 1) / grain);
  using Mapped = std::invoke_result_t<Map&, std::uint64_t, std::uint64_t>;
  std::vector<std::optional<Mapped>> results(chunks);
  std::vector<ShardTiming> shard_times(timings != nullptr ? chunks : 0);

  const auto run_chunk = [&](std::size_t chunk) {
    const std::uint64_t lo = begin + static_cast<std::uint64_t>(chunk) * grain;
    const std::uint64_t hi = std::min(end, lo + grain);
    WallTimer shard_timer;
    results[chunk].emplace(map(lo, hi));
    if (timings != nullptr) {
      shard_times[chunk] = ShardTiming{static_cast<std::uint64_t>(chunk),
                                       hi - lo, shard_timer.elapsed_seconds()};
    }
  };

  // Inline when concurrency cannot help (single chunk / single worker) or
  // must not be used (nested call from a worker): same chunk layout, same
  // reduction order, so the result is unchanged.
  const bool inline_run =
      chunks == 1 || pool.thread_count() == 1 || pool.on_worker_thread();
  if (inline_run) {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) run_chunk(chunk);
  } else {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      pool.submit([&run_chunk, chunk] { run_chunk(chunk); });
    }
    pool.wait();
  }

  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    reduce(acc, std::move(*results[chunk]));
  }
  if (timings != nullptr) {
    timings->shards = std::move(shard_times);
    timings->wall_seconds = wall.elapsed_seconds();
  }
  return acc;
}

/// Chunked parallel loop: `fn(chunk_begin, chunk_end)` once per chunk.
/// Same chunking and determinism contract as `parallel_map_reduce`.
template <typename Fn>
void parallel_for(ThreadPool& pool, std::uint64_t begin, std::uint64_t end,
                  std::uint64_t grain, Fn&& fn,
                  ShardTimings* timings = nullptr) {
  struct Unit {};
  parallel_map_reduce(
      pool, begin, end, grain, Unit{},
      [&fn](std::uint64_t lo, std::uint64_t hi) {
        fn(lo, hi);
        return Unit{};
      },
      [](Unit&, Unit&&) {}, timings);
}

}  // namespace sealpaa::util
