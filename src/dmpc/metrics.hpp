// Complexity accounting for the DMPC model.
//
// The paper (Section 2) characterizes a dynamic DMPC algorithm by three
// per-update quantities, all of which we record exactly:
//   (1) the number of rounds required to update the solution,
//   (2) the number of machines that are active per round,
//   (3) the total amount of data communicated per round.
// Section 8 additionally proposes an entropy metric over the distribution
// of communicated words across (sender, receiver) machine pairs; we record
// the per-pair histogram so benches can compute it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "dmpc/types.hpp"

namespace dmpc {

/// Accounting for one synchronous communication round.
struct RoundRecord {
  std::uint64_t active_machines = 0;  ///< machines sending or receiving
  WordCount comm_words = 0;           ///< total words moved this round
  std::uint64_t messages = 0;         ///< number of messages sent
};

/// Accounting for one update operation (a group of rounds).
struct UpdateRecord {
  std::uint64_t rounds = 0;
  std::uint64_t max_active_machines = 0;  ///< max over the update's rounds
  WordCount max_comm_words = 0;           ///< max over the update's rounds
  WordCount total_comm_words = 0;
};

/// Aggregate over a sequence of updates: worst-case and totals, which is
/// what Table 1's worst-case bounds talk about.
struct UpdateAggregate {
  std::uint64_t updates = 0;
  std::uint64_t worst_rounds = 0;
  std::uint64_t worst_active_machines = 0;
  WordCount worst_comm_words = 0;
  std::uint64_t total_rounds = 0;
  WordCount total_comm_words = 0;

  void absorb(const UpdateRecord& u) {
    ++updates;
    if (u.rounds > worst_rounds) worst_rounds = u.rounds;
    if (u.max_active_machines > worst_active_machines) {
      worst_active_machines = u.max_active_machines;
    }
    if (u.max_comm_words > worst_comm_words) {
      worst_comm_words = u.max_comm_words;
    }
    total_rounds += u.rounds;
    total_comm_words += u.total_comm_words;
  }

  [[nodiscard]] double mean_rounds() const {
    return updates == 0 ? 0.0
                        : static_cast<double>(total_rounds) /
                              static_cast<double>(updates);
  }
};

/// Aggregate over read-only query batches (the serving layer's
/// connected?/path-weight lookups).  Kept apart from UpdateAggregate so
/// the O(1)-round read path never pollutes the Table-1 update
/// accounting: a query batch is answered purely from the directory and
/// must not count as an update, nor shift the update worst cases.
struct QueryAggregate {
  std::uint64_t batches = 0;  ///< query batches executed
  std::uint64_t queries = 0;  ///< individual queries answered
  std::uint64_t total_rounds = 0;
  std::uint64_t worst_rounds = 0;  ///< max rounds of any one batch
  std::uint64_t worst_active_machines = 0;
  WordCount total_comm_words = 0;

  bool operator==(const QueryAggregate&) const = default;

  [[nodiscard]] double mean_rounds_per_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(total_rounds) /
                              static_cast<double>(batches);
  }
};

/// Scheduling statistics of a batch-update planner: how apply_batch
/// partitioned its batches into shared-round groups and how much ran
/// out of order.
/// Defined here (not in the algorithm) so the harness and benches can
/// aggregate/print them without depending on the algorithm's type —
/// any BatchApplicable algorithm with a scheduler can expose one via a
/// `batch_stats()` accessor (see harness::BatchScheduled).
struct BatchScheduleStats {
  std::uint64_t batches = 0;           ///< apply_batch invocations
  std::uint64_t grouped_updates = 0;   ///< updates committed by a stage
  /// No longer written (there is no serial per-update protocol); kept
  /// so the frozen end-to-end bench (bench/e2e) still compiles, always 0.
  std::uint64_t serial_updates = 0;
  std::uint64_t reordered_updates = 0; ///< ran before an earlier batch entry
  std::uint64_t batched_tree_deletes = 0;  ///< tree-edge deletions grouped
  std::uint64_t max_group = 0;         ///< largest stage size seen
  /// MST cycle-rule inserts committed by a stage whose shared path-max
  /// round ran their x..y search (instead of a serial per-update
  /// protocol).
  std::uint64_t path_max_grouped = 0;
  /// Cycle-rule inserts a stage returned to the pending set because an
  /// earlier committing swap in their component rewrote the tree they
  /// probed.
  std::uint64_t deferred_updates = 0;
  /// Constant-round stages executed (each stage covers every admissible
  /// update of the remaining batch in one shared schedule).
  std::uint64_t stages = 0;
  /// Components split by a k-way tour split — by tree deletions or a
  /// committing cycle-rule swap (all cuts of a component moved in one
  /// composed transform).
  std::uint64_t kway_splits = 0;
  /// Links/merges applied through a k-way tour join (replacement links
  /// and batch merges composed into one transform per final tree).
  std::uint64_t kway_joins = 0;
  /// Rounds spent inside replacement-search cascades (the per-fragment
  /// proposal/resolution exchange after a k-way split).
  std::uint64_t cascade_rounds = 0;
  /// Replacement edges promoted by cascades (tree reconnections found).
  std::uint64_t cascade_links = 0;
  /// Updates elided by net-op compression: an unweighted insert/delete
  /// chain on one edge whose net effect is a no-op (or collapses to a
  /// single effective update) skips the protocol entirely.
  std::uint64_t elided_updates = 0;
  /// Cycle-rule swaps committed: an insert lighter than its path max
  /// whose displaced edge a stage cut (one per component per stage).
  std::uint64_t swaps_committed = 0;
  /// Stages that rewrote at least one tour (a k-way split or join) and
  /// so appended their stage maps to the pending log.
  std::uint64_t rewriting_stages = 0;
  /// Pending-log compactions: passes that wrote every record the log
  /// moved and emptied it, each run at the start of a batch that could
  /// otherwise carry the log past its bound (or that finishes one a
  /// fault cut short).
  std::uint64_t compactions = 0;
  /// The largest pending-log size, in words, at the end of any batch
  /// (DynamicForest::pending_log_bound() bounds it).
  std::uint64_t log_words_peak = 0;
  /// Query chunks answered while the pending log held stages, so every
  /// read resolved its records through it.
  std::uint64_t reads_through_log = 0;
  /// Edge records cascade round A read, summed over machines: every
  /// shard in a cascade that scans, the record index's candidates once
  /// it is built (the same on every executor).
  std::uint64_t cascade_records_read = 0;
  /// Builds of the forest's one record index by cascade round A.
  std::uint64_t record_index_builds = 0;

  bool operator==(const BatchScheduleStats&) const = default;
};

/// Aggregate over aborted updates/batches: work that threw mid-protocol
/// and was rolled back.  Kept apart from UpdateAggregate so a fault
/// never pollutes the Table-1 rounds/update numbers — the discarded
/// rounds and traffic are still real work the simulation performed, so
/// they are counted here instead of vanishing.
struct AbortAggregate {
  std::uint64_t aborts = 0;
  std::uint64_t rounds_discarded = 0;
  WordCount comm_words_discarded = 0;

  bool operator==(const AbortAggregate&) const = default;
};

/// Full metrics stream attached to a Cluster.
class Metrics {
 public:
  /// A bare stream: the pair-traffic ledger starts empty and grows to
  /// the largest machine id recorded.
  Metrics() = default;
  /// A stream for a `machines`-machine cluster: the pair-traffic ledger
  /// is sized up front, so recording never allocates.
  explicit Metrics(std::size_t machines)
      : pair_dim_(machines), pair_words_(machines * machines, 0) {}

  void begin_update() {
    current_ = UpdateRecord{};
    in_update_ = true;
  }

  UpdateRecord end_update() {
    in_update_ = false;
    aggregate_.absorb(current_);
    last_update_ = current_;
    return current_;
  }

  /// Read-only query batches use the same per-round recording as
  /// updates (record_round branches on in_update_) but settle into the
  /// separate QueryAggregate: begin/end bracket one O(1)-round batch of
  /// `queries` directory lookups.  Never nest with begin_update().
  void begin_query_batch() {
    current_ = UpdateRecord{};
    in_update_ = true;
    in_query_ = true;
  }

  UpdateRecord end_query_batch(std::uint64_t queries) {
    in_update_ = false;
    in_query_ = false;
    ++query_agg_.batches;
    query_agg_.queries += queries;
    query_agg_.total_rounds += current_.rounds;
    if (current_.rounds > query_agg_.worst_rounds) {
      query_agg_.worst_rounds = current_.rounds;
    }
    if (current_.max_active_machines > query_agg_.worst_active_machines) {
      query_agg_.worst_active_machines = current_.max_active_machines;
    }
    query_agg_.total_comm_words += current_.total_comm_words;
    return current_;
  }

  /// Whether the rounds being recorded belong to a query batch (the
  /// serving read path) rather than an update.
  [[nodiscard]] bool in_query_batch() const { return in_query_; }

  /// Aborts the in-flight update (or query batch) after a mid-protocol
  /// throw: the partial UpdateRecord is discarded instead of settling
  /// into the aggregates, and the discarded work is tallied separately
  /// in abort_aggregate().  One caveat is deliberate: per-pair traffic of
  /// the aborted rounds stays in pair_traffic() — those words really
  /// crossed the network before the fault.
  void abort_update() {
    abort_agg_.aborts += 1;
    abort_agg_.rounds_discarded += current_.rounds;
    abort_agg_.comm_words_discarded += current_.total_comm_words;
    current_ = UpdateRecord{};
    in_update_ = false;
    in_query_ = false;
  }

  [[nodiscard]] const AbortAggregate& abort_aggregate() const {
    return abort_agg_;
  }

  void record_round(const RoundRecord& r) { record_rounds(r, 1); }

  /// Records `count` identical rounds at once (the Section 7 reduction
  /// charges one round per memory access, which can be thousands per
  /// update).
  void record_rounds(const RoundRecord& r, std::uint64_t count) {
    if (count == 0) return;
    if (in_update_) {
      current_.rounds += count;
      if (r.active_machines > current_.max_active_machines) {
        current_.max_active_machines = r.active_machines;
      }
      if (r.comm_words > current_.max_comm_words) {
        current_.max_comm_words = r.comm_words;
      }
      current_.total_comm_words += r.comm_words * count;
    }
  }

  /// Hot path: called once per staged message at the round barrier, so
  /// the histogram is a dense sender-major mu x mu array and a record is
  /// one indexed add.  An id past the ledger's size (a bare Metrics)
  /// grows it first.
  void record_pair_traffic(MachineId from, MachineId to, WordCount words) {
    if (from >= pair_dim_ || to >= pair_dim_) {
      grow_pairs(static_cast<std::size_t>(from > to ? from : to) + 1);
    }
    pair_words_[from * pair_dim_ + to] += words;
  }

  [[nodiscard]] const UpdateAggregate& aggregate() const { return aggregate_; }
  [[nodiscard]] const QueryAggregate& query_aggregate() const {
    return query_agg_;
  }
  [[nodiscard]] const UpdateRecord& last_update() const {
    return last_update_;
  }
  /// Per-(sender,receiver) traffic histogram in pair order, holding
  /// only the pairs that carried words.  Built on demand from the dense
  /// ledger: only diagnostics and tests want this view.
  [[nodiscard]] std::map<std::pair<MachineId, MachineId>, WordCount>
  pair_traffic() const;

  /// Shannon entropy (bits) of the normalized per-(sender,receiver)
  /// communication distribution — the Section 8 metric.  Higher means the
  /// traffic is spread more uniformly across machine pairs; coordinator
  /// algorithms concentrate traffic and score lower relative to the
  /// maximum attainable entropy log2(#pairs-used).
  [[nodiscard]] double pair_entropy_bits() const;

  /// Resets the per-update aggregate and pair traffic (keeps nothing but
  /// the ledger's size).
  /// Used by benches to separate the preprocessing phase from the update
  /// phase.
  void reset();

 private:
  void grow_pairs(std::size_t dim);

  UpdateRecord current_{};
  UpdateRecord last_update_{};
  bool in_update_ = false;
  bool in_query_ = false;
  UpdateAggregate aggregate_{};
  QueryAggregate query_agg_{};
  AbortAggregate abort_agg_{};
  std::size_t pair_dim_ = 0;
  std::vector<WordCount> pair_words_;  // pair_dim_^2, row = sender
};

}  // namespace dmpc
