// Connectivity-as-a-service: a read-dominated serving layer over
// DynamicForest.
//
// The QueryBroker accepts concurrent client sessions issuing
// connected?(u,v) / path-weight queries, batches them into shared
// O(1)-round directory lookups (DynamicForest::answer_queries — pure
// reads, no split/join/cascade participation), and interleaves those
// query batches with update stages: the broker owns a bounded update
// queue and a single-threaded pump() that alternates one update batch
// (apply_batch) with the drained query backlog.
//
// Snapshot consistency: query batches only ever run between update
// batches (never inside one), and every answer is stamped with the
// EPOCH — the number of committed update batches — it observed.  A
// client can therefore replay an oracle to exactly that epoch and
// compare; a query never observes a half-committed stage.
//
// Admission control / backpressure: the update queue is bounded
// (submit_update returns false when full — the caller must retry or
// slow down) and the query backlog sheds above max_pending_queries
// (submit_query returns nullopt); both are counted in ServingStats.
//
// Threading: submit/poll/stats are thread-safe (one mutex, swap-out
// under lock).  The protocol itself runs on whichever single thread
// calls pump(), because DynamicForest is not thread-safe.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/dyn_forest.hpp"
#include "graph/update_stream.hpp"
#include "harness/recovery.hpp"

namespace serve {

using core::ReadAnswer;
using core::ReadQuery;
using dmpc::VertexId;

/// Monotonic per-broker ticket identifying a submitted query.
using QueryId = std::uint64_t;

struct ServingConfig {
  /// Queries per shared directory lookup handed to answer_queries at
  /// once.  Kept at or below the forest's own comm-cap chunking so one
  /// served batch is one O(1)-round protocol instance.
  std::size_t max_query_batch = 256;
  /// Query backlog bound: submissions above this are shed (admission
  /// control; ServingStats::queries_shed).
  std::size_t max_pending_queries = 4096;
  /// Update queue bound: submit_update returns false above this
  /// (backpressure; ServingStats::updates_rejected).  A zero capacity
  /// rejects every update — a read-only replica.
  std::size_t max_pending_updates = 1024;
  /// Retries per failed segment before it is bisected, or — once it is
  /// a single update — abandoned (harness::BisectRetry).  Recovery runs
  /// one attempt per pump(), so queries keep draining from the last
  /// committed epoch between attempts (graceful degradation; see
  /// docs/ROBUSTNESS.md).
  std::size_t recovery_max_retries = 3;
};

/// Serving-layer counters (see docs/METRICS.md).
struct ServingStats {
  std::uint64_t sessions_opened = 0;
  std::uint64_t queries_answered = 0;
  std::uint64_t query_batches = 0;   ///< shared directory lookups issued
  std::uint64_t queries_shed = 0;    ///< admissions rejected at the backlog cap
  std::uint64_t updates_enqueued = 0;
  std::uint64_t updates_rejected = 0;  ///< bounced off the bounded queue
  std::uint64_t updates_applied = 0;
  std::uint64_t update_batches = 0;  ///< committed pump() apply_batch calls
  // Failure recovery (harness::RecoveryStats under serving names).  All
  // zero on a fault-free run.
  std::uint64_t update_aborts = 0;      ///< apply attempts that threw
  std::uint64_t update_retries = 0;     ///< degraded-mode re-attempts
  std::uint64_t update_bisections = 0;  ///< failed segments split in half
  std::uint64_t updates_abandoned = 0;  ///< dropped after exhausting retries
  std::uint64_t degraded_intervals = 0;  ///< pump()s spent in degraded mode
  double degraded_time_us = 0;     ///< total wall time the epoch lagged
  double worst_recovery_us = 0;    ///< longest single degraded interval
};

/// A delivered answer: the payload plus the snapshot token and the
/// submit-to-answer latency.
struct ServedAnswer {
  ReadAnswer answer;
  std::size_t epoch = 0;    ///< committed update batches when answered
  double latency_us = 0.0;  ///< submit() to answer deposit, wall time
};

class QueryBroker;

/// A client's handle on the broker: issues queries, polls answers.
/// Sessions are cheap value handles; many may exist concurrently and
/// each may live on its own thread (the broker serializes internally).
class ClientSession {
 public:
  /// Shed (nullopt) when the broker's query backlog is saturated.
  std::optional<QueryId> connected(VertexId u, VertexId v);
  std::optional<QueryId> path_weight(VertexId u, VertexId v);

  /// Non-blocking: the answer if the ticket has been served (the ticket
  /// is consumed), nullopt while still pending.
  std::optional<ServedAnswer> poll(QueryId id);

 private:
  friend class QueryBroker;
  explicit ClientSession(QueryBroker* broker) : broker_(broker) {}
  QueryBroker* broker_;
};

class QueryBroker {
 public:
  /// The forest is not owned and must outlive the broker; its updates
  /// flow through submit_update/pump.
  explicit QueryBroker(core::DynamicForest& forest, ServingConfig config = {});

  /// Opens a client session (thread-safe).
  ClientSession session();

  /// Thread-safe admission: nullopt = shed (backlog at capacity).
  std::optional<QueryId> submit_query(const ReadQuery& query);

  /// Thread-safe bounded enqueue: false = queue full, caller owns the
  /// retry (backpressure).
  bool submit_update(const graph::Update& update);

  /// Thread-safe poll; consumes the ticket when an answer is returned.
  std::optional<ServedAnswer> try_answer(QueryId id);

  /// One service iteration (single pump thread): applies at most one
  /// bounded batch drained from the update queue, advancing the epoch,
  /// then answers the entire pending query backlog in
  /// max_query_batch-sized shared lookups.
  ///
  /// Graceful degradation: when the apply throws mid-protocol the
  /// forest's undo journal restores the last committed epoch and the
  /// broker enters DEGRADED mode — every subsequent pump() makes ONE
  /// harness::BisectRetry step on the failed batch (retry, bisect, or
  /// abandon, per recovery_max_retries) and still answers the whole
  /// query backlog against the last committed epoch.  The epoch only
  /// advances as recovered sub-batches commit; queries are never shed
  /// because of a failing update.
  void pump();

  /// Committed-update-batch count = the snapshot token stamped on
  /// answers issued now (thread-safe).
  [[nodiscard]] std::size_t epoch() const;

  [[nodiscard]] ServingStats stats() const;

 private:
  struct PendingQuery {
    QueryId id;
    ReadQuery query;
    std::chrono::steady_clock::time_point submitted;
  };

  /// Swaps the backlog out under the lock, runs the shared lookups
  /// outside it, deposits stamped answers back under the lock.
  void drain_queries();
  /// pump()'s update stage: one committed batch, or — in degraded mode —
  /// one recovery step on the failed batch.
  void pump_updates();

  core::DynamicForest& forest_;
  ServingConfig config_;

  mutable std::mutex mu_;
  std::vector<PendingQuery> pending_queries_;
  std::deque<graph::Update> pending_updates_;
  std::unordered_map<QueryId, ServedAnswer> answered_;
  QueryId next_id_ = 0;
  std::size_t epoch_ = 0;
  ServingStats stats_;
  // Pump thread only: the batch being applied, and the recovery routine
  // whose pending segments index into it — pending segments ARE degraded
  // mode.
  std::vector<graph::Update> batch_;
  harness::RecoveryStats recovery_stats_;
  harness::BisectRetry recovery_;
  std::chrono::steady_clock::time_point degraded_since_;
};

}  // namespace serve
