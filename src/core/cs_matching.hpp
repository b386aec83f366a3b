// Fully-dynamic (2+eps)-approximate maximum matching in the DMPC model
// (paper, Section 6) — the distributed adaptation of Charikar–Solomon
// (ICALP '18) over the Baswana–Gupta–Sen level decomposition.
//
// Table 1 row: O(1) rounds per update, O~(1) active machines, O~(1)
// communication per round — the only matching algorithm of the paper
// with *polylogarithmic* (not sqrt N) machine/communication profile, at
// the price of maintaining an *almost*-maximal matching: at most an eps
// fraction of would-be matched edges may be missing at any time.
//
// Structure implemented (mirroring Section 6):
//  * level decomposition lvl(v) in [-1, L], L = ceil(log_gamma n); free
//    vertices at level -1; matched edges level-homogeneous; edges
//    oriented high-to-low (Out_v / In_v[l] lists); Phi_v(l) counters;
//  * per-edge *support* (the sampling-space size when the matched edge
//    was chosen); kept large by the unmatch-scheduler (invariant (e));
//  * four scheduler families executed every update cycle, each
//    simulating a batch of Delta operations in O(1) DMPC rounds:
//      - free-schedule: drains the temporarily-free queues Q_l via
//        handle-free (uniform sampling of a new mate from S(v) \ A);
//      - unmatch-schedule: proactively unmatches the lowest-support edge
//        per level when invariant (e) is violated;
//      - shuffle-schedule: resamples a uniformly random matched edge per
//        level (the anti-adversary mechanism);
//      - rise-schedule: raises vertices violating the Phi invariant (f);
//  * the active list A: vertices currently being processed are excluded
//    from sampling (the paper's "sampling mates" conflict rule), and the
//    arbitration of unmatch/shuffle choices happens at one machine (the
//    "deleting unmatched edges" conflict rule).
//
// DMPC accounting per update cycle: the coordinator ingests the update
// (1 round), dispatches the O(log n) subschedulers (1 round), which fan
// out one message per touched vertex-home machine (1 round) and gather
// replies (1 round).  Touched machines and words are counted exactly, so
// benches can verify they stay polylogarithmic while sqrt(N) grows.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "dmpc/cluster.hpp"
#include "graph/graph.hpp"
#include "oracle/oracles.hpp"

namespace core {

using dmpc::MachineId;
using dmpc::VertexId;
using dmpc::Word;

struct CsMatchingConfig {
  std::size_t n = 0;
  double eps = 0.2;
  double gamma = 4.0;          ///< level base (theta(n)-ish in the paper;
                               ///< small here so levels are exercised)
  std::size_t delta = 0;       ///< batch size Delta (0 = c * log^2 n)
  std::uint64_t seed = 1;
};

class CsMatching {
 public:
  explicit CsMatching(const CsMatchingConfig& config);

  void insert(VertexId u, VertexId v);  // precondition: edge absent
  void erase(VertexId u, VertexId v);   // precondition: edge present

  /// Runs scheduler-only update cycles (no graph change); tests use this
  /// to let the background work drain, which the paper's adversary model
  /// provides implicitly through subsequent updates.
  void idle_cycles(std::size_t count);

  [[nodiscard]] dmpc::Cluster& cluster() { return *cluster_; }
  [[nodiscard]] const dmpc::Cluster& cluster() const { return *cluster_; }

  // --- driver-side introspection -----------------------------------------
  [[nodiscard]] oracle::Matching matching_snapshot() const { return mate_; }
  [[nodiscard]] int level_of(VertexId v) const {
    graph::require_vertex(v, config_.n, "CsMatching");
    return lvl_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] std::size_t pending_work() const;
  /// Invariants (a)-(d): free vertices at level -1 with out-degree 0,
  /// matched edges level-homogeneous at level >= 0, orientation
  /// consistent with levels.
  [[nodiscard]] bool validate(std::string* why = nullptr) const;

 private:
  /// S = kMemorySlack * sqrt(4n) + 512 words per machine.
  static constexpr double kMemorySlack = 64;

  struct PendingFree {
    VertexId v;
  };

  [[nodiscard]] MachineId home(VertexId v) const {
    return static_cast<MachineId>(static_cast<std::uint64_t>(v) %
                                  cluster_->size());
  }

  [[nodiscard]] int max_level() const { return levels_; }
  /// Phi_v(l): neighbours of v strictly below level l.
  [[nodiscard]] std::size_t phi(VertexId v, int l) const;

  void set_level(VertexId v, int l);
  void unmatch_edge(VertexId a, VertexId b);
  /// The handle-free procedure: samples a new mate for v from the
  /// highest feasible level.  Returns the touched vertices.
  void handle_free(VertexId v);

  void run_schedulers();
  void run_free_schedule();
  void run_unmatch_schedule();
  void run_shuffle_schedule();
  void run_rise_schedule();

  /// Accounting: one update cycle's rounds, given the vertices whose home
  /// machines were touched by this cycle's batches.
  void charge_cycle_rounds();
  void note_touched(VertexId v) { touched_.insert(home(v)); }

  CsMatchingConfig config_;
  std::unique_ptr<dmpc::Cluster> cluster_;
  int levels_;
  std::size_t delta_;
  std::mt19937_64 rng_;

  std::vector<std::set<VertexId>> adj_;
  std::vector<int> lvl_;
  oracle::Matching mate_;
  std::map<graph::EdgeKey, std::size_t> support_;  // matched edges only
  std::vector<std::deque<VertexId>> queues_;       // Q_0 .. Q_L (by level)
  std::set<VertexId> active_;                      // the active list A

  std::set<MachineId> touched_;  // homes touched in the current cycle
  std::size_t ops_budget_ = 0;   // remaining Delta units this cycle
};

}  // namespace core
