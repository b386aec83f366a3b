#include "dmpc/executor.hpp"

#include <algorithm>

namespace dmpc {

ThreadPoolExecutor::ThreadPoolExecutor(std::size_t threads,
                                       std::size_t serial_cutoff)
    : serial_cutoff_(serial_cutoff) {
  if (threads == 0) {
    threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                      1, 8);
  }
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPoolExecutor::drain(const std::function<void(std::size_t)>& work,
                               std::size_t count, std::size_t grain) {
  while (true) {
    const std::size_t begin =
        next_.fetch_add(grain, std::memory_order_relaxed);
    if (begin >= count) return;
    const std::size_t end = std::min(count, begin + grain);
    for (std::size_t i = begin; i < end; ++i) {
      try {
        work(i);
      } catch (...) {
        // Lowest task index wins, matching SerialExecutor's index-order
        // sweep: which thread throws first is timing, which task does not.
        std::lock_guard<std::mutex> lk(mu_);
        if (!error_ || i < error_index_) {
          error_ = std::current_exception();
          error_index_ = i;
        }
      }
    }
  }
}

void ThreadPoolExecutor::worker_loop() {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(std::size_t)>* work = nullptr;
    std::size_t count = 0;
    std::size_t grain = 1;
    {
      std::unique_lock<std::mutex> lk(mu_);
      // Join a generation only while it still has wake tickets: a round
      // that asked for fewer workers than the pool holds leaves the rest
      // asleep (or re-sleeping after a spurious wake) for this round.
      cv_work_.wait(lk, [&] {
        return stop_ || (generation_ != seen && joiners_ > 0);
      });
      if (stop_) return;
      seen = generation_;
      --joiners_;
      work = work_;
      count = count_;
      grain = grain_;
    }
    drain(*work, count, grain);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

void ThreadPoolExecutor::run(std::size_t count,
                             const std::function<void(std::size_t)>& work) {
  if (count == 0) return;
  if (count <= serial_cutoff_ || workers_.empty()) {
    // Tiny round: the barrier would cost more than the work.  Run inline
    // with SerialExecutor's exception semantics (first error rethrown
    // after every index ran).
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        work(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  // The calling thread drains too, so count - 1 helpers saturate a round.
  const std::size_t helpers = std::min(workers_.size(), count - 1);
  const std::size_t grain = claim_grain(count, helpers + 1);
  {
    std::lock_guard<std::mutex> lk(mu_);
    work_ = &work;
    count_ = count;
    grain_ = grain;
    next_.store(0, std::memory_order_relaxed);
    joiners_ = helpers;
    pending_ = helpers;
    ++generation_;
  }
  // notify_all rather than `helpers` notify_one calls: a targeted notify
  // can be consumed by an already-finished worker (predicate false, goes
  // back to sleep) and is then lost, deadlocking the barrier.  The
  // ticket counter still caps actual participation at `helpers`; excess
  // workers wake, find no ticket, and re-sleep without touching the
  // claim counter or the barrier.
  cv_work_.notify_all();
  drain(work, count, grain);
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return pending_ == 0; });
  work_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace dmpc
