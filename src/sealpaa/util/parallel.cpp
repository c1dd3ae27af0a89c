#include "sealpaa/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "sealpaa/util/format.hpp"

namespace sealpaa::util {

double ShardTimings::cpu_seconds() const noexcept {
  double total = 0.0;
  for (const ShardTiming& shard : shards) total += shard.seconds;
  return total;
}

double ShardTimings::max_shard_seconds() const noexcept {
  double worst = 0.0;
  for (const ShardTiming& shard : shards) {
    worst = std::max(worst, shard.seconds);
  }
  return worst;
}

double ShardTimings::speedup() const noexcept {
  if (wall_seconds <= 0.0) return 1.0;
  return cpu_seconds() / wall_seconds;
}

std::string ShardTimings::summary() const {
  std::ostringstream out;
  out << "threads=" << threads << " shards=" << shards.size()
      << " wall=" << fixed(wall_seconds, 4) << "s"
      << " cpu=" << fixed(cpu_seconds(), 4) << "s"
      << " max-shard=" << fixed(max_shard_seconds(), 4) << "s"
      << " speedup=" << fixed(speedup(), 2) << "x";
  return out.str();
}

namespace {

std::atomic<unsigned> g_default_threads{0};

// Set for the lifetime of each worker thread; lets nested fork/join
// regions detect they are already inside a pool and run inline.
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

unsigned hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void set_default_threads(unsigned threads) noexcept {
  g_default_threads.store(threads, std::memory_order_relaxed);
}

unsigned default_threads() noexcept {
  const unsigned n = g_default_threads.load(std::memory_order_relaxed);
  return n == 0 ? hardware_threads() : n;
}

double ThreadPool::Stats::total_busy_seconds() const noexcept {
  double total = 0.0;
  for (const double seconds : worker_busy_seconds) total += seconds;
  return total;
}

ThreadPool::ThreadPool(unsigned threads)
    : thread_count_(std::max(1U, threads == 0 ? default_threads() : threads)) {
  worker_busy_seconds_.assign(thread_count_, 0.0);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Workers start with the first task: a pool whose fork/join regions
    // all run inline (one worker or one chunk) never spawns a thread.
    if (workers_.empty()) {
      workers_.reserve(thread_count_);
      for (unsigned t = 0; t < thread_count_; ++t) {
        workers_.emplace_back([this, t] { worker_main(t); });
      }
    }
    ++pending_;
    queue_.push_back(std::move(task));
    queue_high_water_ =
        std::max<std::uint64_t>(queue_high_water_, queue_.size());
  }
  task_ready_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

bool ThreadPool::on_worker_thread() const noexcept {
  return tls_worker_pool == this;
}

ThreadPool::Stats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats snapshot;
  snapshot.tasks_executed = tasks_executed_;
  snapshot.queue_high_water = queue_high_water_;
  snapshot.worker_busy_seconds = worker_busy_seconds_;
  return snapshot;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(default_threads());
  return pool;
}

void ThreadPool::worker_main(std::size_t worker_index) {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    WallTimer busy;
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++tasks_executed_;
      worker_busy_seconds_[worker_index] += busy.elapsed_seconds();
      --pending_;
      if (pending_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace sealpaa::util
