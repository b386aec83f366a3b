// The one bisect-and-retry recovery routine, shared by harness::Driver
// and serve::QueryBroker (docs/ROBUSTNESS.md, "Recovery").
//
// A cap trip (the model's S-word limits) or an injected fault makes an
// apply throw mid-protocol; the algorithm's undo journal restores the
// pre-attempt state (the strong exception guarantee), so the same
// updates can simply be tried again.  The policy:
//   * a unit whose first attempt fails is retried up to
//     max(1, max_retries) times;
//   * a segment that exhausts its retries is split in half, front half
//     first, and each half gets the same retry budget;
//   * a single update that still fails is abandoned.
//
// The routine is resumable: step() makes exactly ONE attempt on the
// front segment, so the Driver drains it to completion inside a batch
// while the QueryBroker makes one attempt per pump() and answers queries
// against the last committed epoch in between.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>

namespace harness {

/// Failure-recovery counters (see docs/ROBUSTNESS.md).  All zero on a
/// fault-free run.
struct RecoveryStats {
  std::uint64_t aborts = 0;      ///< apply attempts that threw
  std::uint64_t retries = 0;     ///< re-attempts after the first failure
  std::uint64_t bisections = 0;  ///< failed segments split in half
  /// Updates that committed despite riding at least one failed attempt.
  std::uint64_t updates_recovered = 0;
  /// Updates dropped after their singleton segment exhausted retries.
  std::uint64_t updates_abandoned = 0;
};

/// A queue of (off, len) segments of the caller's update sequence.
class BisectRetry {
 public:
  /// `stats` is not owned and must outlive the routine.
  BisectRetry(std::size_t max_retries, RecoveryStats& stats)
      : retries_(std::max<std::size_t>(1, max_retries)), stats_(stats) {}

  /// Queues the unit [off, off + len) behind any pending segments.  Its
  /// first attempt is the ordinary apply, not a retry.
  void push(std::size_t off, std::size_t len) {
    segs_.push_back({off, len, false, 0});
  }

  [[nodiscard]] bool done() const { return segs_.empty(); }

  /// One attempt on the front segment.  `attempt(off, len)` applies the
  /// segment and throws on failure, leaving the pre-attempt state;
  /// `abandon(off)` is told each position dropped.  Returns whether the
  /// attempt committed.
  template <typename Attempt, typename Abandon>
  bool step(const Attempt& attempt, const Abandon& abandon) {
    Segment& s = segs_.front();
    if (s.recovering) ++stats_.retries;
    try {
      attempt(s.off, s.len);
    } catch (...) {
      ++stats_.aborts;
      if (!s.recovering) {
        s.recovering = true;
      } else if (++s.failures >= retries_) {
        const Segment dead = s;
        segs_.pop_front();
        if (dead.len > 1) {
          ++stats_.bisections;
          const std::size_t half = dead.len / 2;
          segs_.push_front({dead.off + half, dead.len - half, true, 0});
          segs_.push_front({dead.off, half, true, 0});
        } else {
          ++stats_.updates_abandoned;
          abandon(dead.off);
        }
      }
      return false;
    }
    if (s.recovering) stats_.updates_recovered += s.len;
    segs_.pop_front();
    return true;
  }

  /// Steps until every queued segment has committed or been abandoned.
  template <typename Attempt, typename Abandon>
  void drain(const Attempt& attempt, const Abandon& abandon) {
    while (!done()) step(attempt, abandon);
  }

 private:
  struct Segment {
    std::size_t off, len;
    bool recovering;       ///< an attempt on these updates has failed
    std::size_t failures;  ///< failed retries of this segment
  };

  std::size_t retries_;  ///< attempts per segment while recovering
  RecoveryStats& stats_;
  std::deque<Segment> segs_;
};

}  // namespace harness
