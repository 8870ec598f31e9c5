// Fixed-size fork-join worker pool — the cluster layer's parallel driver.
//
// The only primitive offered is parallel_for(n, body, grain): run
// body(0..n-1) once each, on the pool plus the calling thread, and return
// when every index has completed. Indices are handed out in *chunks* of
// `grain` through a single atomic counter, so the assignment of chunk ->
// OS thread is nondeterministic — which is exactly why the pool is safe
// for the cluster's determinism contract: bodies must touch only state
// owned by their index (one hv::Host each), so *what* each body computes
// is independent of *where* it runs. Within a chunk indices run in
// ascending order on one thread; chunking only reduces how often the
// executors hit the shared counter, it never changes which indices run.
// See docs/ARCHITECTURE.md ("parallel ≡ serial").
//
// Semantics:
//   * ThreadPool(t) provides t executors total: t-1 workers plus the
//     caller, which always participates. t == 0 means one executor per
//     hardware thread; t == 1 spawns nothing and parallel_for degenerates
//     to a plain loop, as does a job of at most one chunk (n <= grain).
//   * parallel_for is a full barrier: every worker checks in once per
//     call, so a second parallel_for can never race the tail of the
//     first. Not reentrant and not thread-safe across callers — one
//     coordinating thread drives the pool (the cluster run loop).
//   * parallel_for borrows its body for the length of the call (it
//     returns only after every index ran), so a body of any capture size
//     is invoked in place: issuing a parallel_for never copies or
//     heap-allocates it — the cluster fires one per segment, thousands of
//     times per simulated run.
//   * Exceptions thrown by bodies are captured and the one from the
//     LOWEST index is rethrown after the barrier — deterministic no
//     matter how the chunks were interleaved. Later indices still run
//     (an index is never skipped because an earlier one threw).
//   * Destruction with no parallel_for ever issued is clean shutdown.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pas::common {

class ThreadPool {
 public:
  /// Default chunk size for index hand-out. Segment bodies are a few µs
  /// each; 8 per counter hit keeps the atomic off the profile while still
  /// load-balancing fleets where a handful of hosts dominate.
  static constexpr std::size_t kDefaultGrain = 8;

  /// `threads` = total executors (workers + the participating caller);
  /// 0 resolves to hardware_threads().
  explicit ThreadPool(std::size_t threads) {
    const std::size_t total = threads == 0 ? hardware_threads() : threads;
    workers_.reserve(total > 0 ? total - 1 : 0);
    for (std::size_t i = 1; i < total; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      ++generation_;
    }
    job_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executors, including the calling thread. Always >= 1.
  [[nodiscard]] std::size_t thread_count() const { return workers_.size() + 1; }

  /// hardware_concurrency with the "may return 0" wart removed.
  [[nodiscard]] static std::size_t hardware_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  /// Runs f(i) exactly once for every i in [0, n); returns after all
  /// completed. Rethrows the lowest-index exception, if any. `grain` is
  /// the number of consecutive indices claimed per counter hit (0 is
  /// treated as 1); it affects scheduling only, never which indices run.
  template <typename F>
  void parallel_for(std::size_t n, F&& f, std::size_t grain = kDefaultGrain) {
    using Fn = std::remove_reference_t<F>;
    const Body body{const_cast<void*>(static_cast<const void*>(std::addressof(f))),
                    [](void* object, std::size_t i) { (*static_cast<Fn*>(object))(i); }};
    run(n, body, grain == 0 ? 1 : grain);
  }

 private:
  /// A borrowed loop body: the caller's callable and a thunk that invokes it.
  struct Body {
    void* object;
    void (*call)(void* object, std::size_t i);
    void operator()(std::size_t i) const { call(object, i); }
  };

  static constexpr std::size_t kNoError = std::numeric_limits<std::size_t>::max();

  void run(std::size_t n, const Body& body, std::size_t grain) {
    if (n == 0) return;
    if (workers_.empty() || n <= grain) {
      // Inline path — one chunk leaves the workers nothing to claim, so
      // waking them only costs the barrier. Same error semantics as the
      // pooled one: every index runs, then the lowest-index exception
      // surfaces.
      std::exception_ptr error;
      for (std::size_t i = 0; i < n; ++i) {
        try {
          body(i);
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      }
      if (error) std::rethrow_exception(error);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_n_ = n;
      job_grain_ = grain;
      job_body_ = &body;
      next_index_.store(0, std::memory_order_relaxed);
      workers_done_ = 0;
      error_index_ = kNoError;
      error_ = nullptr;
      ++generation_;
    }
    job_cv_.notify_all();
    drain(n, grain, body);  // the caller is executor 0
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return workers_done_ == workers_.size(); });
    if (error_) std::rethrow_exception(error_);
  }

  /// Claims chunks of `grain` consecutive indices until the job is
  /// exhausted; never throws (errors are parked for the post-barrier
  /// rethrow, and an index throwing never skips the rest of its chunk).
  void drain(std::size_t n, std::size_t grain, const Body& body) {
    for (;;) {
      const std::size_t base = next_index_.fetch_add(grain, std::memory_order_relaxed);
      if (base >= n) return;
      const std::size_t end = n - base < grain ? n : base + grain;
      for (std::size_t i = base; i < end; ++i) {
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex_);
          if (i < error_index_) {
            error_index_ = i;
            error_ = std::current_exception();
          }
        }
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      job_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      const std::size_t n = job_n_;
      const std::size_t grain = job_grain_;
      const Body* body = job_body_;
      lock.unlock();
      drain(n, grain, *body);
      lock.lock();
      // Every worker checks in once per generation — the barrier that lets
      // parallel_for reuse the job slots immediately after returning.
      if (++workers_done_ == workers_.size()) done_cv_.notify_one();
    }
  }

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable job_cv_;   // workers: a new generation (or stop)
  std::condition_variable done_cv_;  // caller: all workers checked in
  std::uint64_t generation_ = 0;     // guarded by mutex_
  bool stop_ = false;                // guarded by mutex_
  std::size_t job_n_ = 0;            // guarded by mutex_ at publication
  std::size_t job_grain_ = 1;        // guarded by mutex_ at publication
  const Body* job_body_ = nullptr;   // guarded by mutex_ at publication
  std::size_t workers_done_ = 0;     // guarded by mutex_
  std::size_t error_index_ = kNoError;  // guarded by mutex_
  std::exception_ptr error_;            // guarded by mutex_

  std::atomic<std::size_t> next_index_{0};
};

}  // namespace pas::common
