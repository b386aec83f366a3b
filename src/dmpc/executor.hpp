// Round executors: how the per-machine work between two finish_round()
// barriers is scheduled.
//
// In the DMPC model machines compute independently within a round and
// synchronize only at round boundaries, so the simulator may run each
// machine's local step (shard scans, staging of the round's outgoing
// messages) on any thread it likes as long as the finish_round()
// barrier sees all of it.  A RoundExecutor owns that scheduling
// decision:
//   * SerialExecutor runs machines one after another on the calling
//     thread (the seed behaviour, and the reference for determinism);
//   * ThreadPoolExecutor fans the machines out over a persistent worker
//     pool and joins them before returning — the call itself is the
//     barrier.
//
// Contract for submitted work: task i may touch machine i's local state
// (its algorithm shard, its MemoryMeter) and may stage messages *from*
// machine i (Cluster::send with from == i; the RoundBuffer's per-sender
// staging shards make that race-free).  It must not touch other
// machines' state, the Metrics stream, or stage messages on their
// behalf — cross-machine effects happen only between barriers, charged
// as the messages that carry them, exactly as in the model.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dmpc {

class RoundExecutor {
 public:
  virtual ~RoundExecutor() = default;

  /// Runs work(i) for every i in [0, count).  Calls may execute
  /// concurrently; the function returns only after all of them finished
  /// (a barrier).  When tasks throw, the exception of the LOWEST task
  /// index is rethrown after the barrier — a deterministic choice, so
  /// fault-injection runs surface the same error under every executor.
  virtual void run(std::size_t count,
                   const std::function<void(std::size_t)>& work) = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Runs all tasks in index order on the calling thread.  Like the
/// thread pool, a throwing task does not stop the remaining tasks: the
/// first exception is rethrown only once every index ran, so both
/// executors leave identical machine state even on error paths.
class SerialExecutor final : public RoundExecutor {
 public:
  void run(std::size_t count,
           const std::function<void(std::size_t)>& work) override {
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        work(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
  }
  [[nodiscard]] const char* name() const override { return "serial"; }
};

/// Fans tasks out over a persistent worker pool; the calling thread
/// participates in the draining, and run() returns only once every
/// woken worker has finished the dispatched generation.  One pool may be
/// shared by several clusters (harness::Driver does this) as long as
/// their rounds never run concurrently: run() itself is not reentrant.
///
/// Two provisions keep the per-round dispatch cost proportional to the
/// work actually available instead of the pool size:
///   * rounds with at most `serial_cutoff` tasks run inline on the
///     calling thread — at sqrt(N) machines the per-task work is tiny
///     and the wake/join barrier dominates, so small clusters should
///     never pay it;
///   * larger rounds admit only min(threads, count - 1) workers into the
///     generation (wake tickets via `joiners_`) rather than the whole
///     pool, so a round with 24 tasks on an 8-thread pool no longer
///     stampedes workers into the claim counter and the join barrier —
///     unticketed workers re-sleep immediately.
/// Results are identical across all paths: tasks stage per-sender and
/// the barrier settles in sender order regardless of who ran what.
class ThreadPoolExecutor final : public RoundExecutor {
 public:
  /// Below this task count run() bypasses the pool entirely.  Chosen so
  /// clusters smaller than ~sqrt(256 + 4*256) machines stay serial.
  static constexpr std::size_t kDefaultSerialCutoff = 16;

  /// `threads` worker threads in addition to the calling thread; 0 picks
  /// the hardware concurrency (clamped to [1, 8]).  `serial_cutoff` is
  /// the largest task count run inline without waking the pool (0
  /// disables the bypass; tests use that to force pool scheduling).
  explicit ThreadPoolExecutor(std::size_t threads = 0,
                              std::size_t serial_cutoff = kDefaultSerialCutoff);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  void run(std::size_t count,
           const std::function<void(std::size_t)>& work) override;
  [[nodiscard]] const char* name() const override { return "thread-pool"; }

  /// Worker threads (the calling thread also drains tasks).
  [[nodiscard]] std::size_t num_threads() const { return workers_.size(); }
  [[nodiscard]] std::size_t serial_cutoff() const { return serial_cutoff_; }

 private:
  void worker_loop();
  /// Claims task indexes off the shared counter until they run out,
  /// recording the first exception instead of unwinding across threads.
  void drain(const std::function<void(std::size_t)>& work, std::size_t count);

  std::vector<std::thread> workers_;
  std::size_t serial_cutoff_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* work_ = nullptr;  // current batch
  std::size_t count_ = 0;
  std::uint64_t generation_ = 0;  // bumped per run() to wake the workers
  std::size_t joiners_ = 0;       // wake tickets left for this generation
  std::size_t pending_ = 0;       // ticketed workers still inside it
  bool stop_ = false;
  std::exception_ptr error_;
  std::size_t error_index_ = 0;  ///< task index that produced error_
  // Shared claim counter for the current generation.  Plain size_t under
  // fetch-add semantics via std::atomic would also work; a dedicated
  // atomic keeps the hot path lock-free.
  std::atomic<std::size_t> next_{0};
};

}  // namespace dmpc
