#include "serve/query_broker.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "dmpc/trace.hpp"

namespace serve {

std::optional<QueryId> ClientSession::connected(VertexId u, VertexId v) {
  return broker_->submit_query({core::QueryKind::kConnected, u, v});
}

std::optional<QueryId> ClientSession::path_weight(VertexId u, VertexId v) {
  return broker_->submit_query({core::QueryKind::kPathWeight, u, v});
}

std::optional<ServedAnswer> ClientSession::poll(QueryId id) {
  return broker_->try_answer(id);
}

QueryBroker::QueryBroker(core::DynamicForest& forest, ServingConfig config)
    : forest_(forest),
      config_(config),
      recovery_(config.recovery_max_retries, recovery_stats_) {
  if (config_.max_query_batch == 0) {
    throw std::invalid_argument("QueryBroker: max_query_batch must be > 0");
  }
}

ClientSession QueryBroker::session() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.sessions_opened;
  }
  return ClientSession(this);
}

std::optional<QueryId> QueryBroker::submit_query(const ReadQuery& query) {
  // Rejected here, not in pump(): a bad endpoint would make the whole
  // shared lookup throw and strand the valid queries batched with it.
  const auto n = static_cast<VertexId>(forest_.num_vertices());
  if (query.u < 0 || query.u >= n || query.v < 0 || query.v >= n) {
    throw std::invalid_argument("QueryBroker: query endpoint out of range");
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (pending_queries_.size() >= config_.max_pending_queries) {
    ++stats_.queries_shed;
    return std::nullopt;
  }
  const QueryId id = next_id_++;
  pending_queries_.push_back({id, query, std::chrono::steady_clock::now()});
  return id;
}

bool QueryBroker::submit_update(const graph::Update& update) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (pending_updates_.size() >= config_.max_pending_updates) {
    ++stats_.updates_rejected;
    return false;
  }
  pending_updates_.push_back(update);
  ++stats_.updates_enqueued;
  return true;
}

std::optional<ServedAnswer> QueryBroker::try_answer(QueryId id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = answered_.find(id);
  if (it == answered_.end()) return std::nullopt;
  ServedAnswer out = it->second;
  answered_.erase(it);
  return out;
}

void QueryBroker::pump() {
  // Stage 1: one update commit, or one recovery attempt in degraded
  // mode.  Stage 2: the bubble between update batches — answer the
  // backlog.  The order guarantees queries always see a fully committed
  // epoch, degraded or not.
  pump_updates();
  drain_queries();
}

void QueryBroker::pump_updates() {
  // Pending recovery segments are degraded mode: this pump makes ONE
  // more attempt on them, so the query backlog between attempts never
  // starves.  Otherwise commit at most one update batch drained from the
  // bounded queue; apply_batch tolerates no-op updates (duplicate
  // inserts, absent erases), so the raw queue is applied verbatim.  The
  // forest's journal restores the last committed epoch after every
  // abort, so each attempt starts from clean state.
  const bool degraded = !recovery_.done();
  if (!degraded) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      batch_.assign(pending_updates_.begin(), pending_updates_.end());
      pending_updates_.clear();
    }
    if (batch_.empty()) return;
    recovery_.push(0, batch_.size());
  }
  std::size_t applied = 0;
  const bool committed = recovery_.step(
      [this, &applied](std::size_t off, std::size_t len) {
        // Inside the attempt so an aborted attempt closes as an aborted
        // span.
        dmpc::PhaseScope epoch_phase(forest_.cluster().tracer(),
                                     dmpc::TracePhase::kEpoch);
        forest_.apply_batch(
            std::span<const graph::Update>(batch_).subspan(off, len));
        applied = len;
      },
      [](std::size_t /*off*/) {});
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  if (committed) {
    ++epoch_;
    ++stats_.update_batches;
    stats_.updates_applied += applied;
  }
  stats_.update_aborts = recovery_stats_.aborts;
  stats_.update_retries = recovery_stats_.retries;
  stats_.update_bisections = recovery_stats_.bisections;
  stats_.updates_abandoned = recovery_stats_.updates_abandoned;
  if (!degraded) {
    // A failed healthy attempt enters degraded mode: queries keep being
    // answered from the epoch that did commit.
    if (!recovery_.done()) degraded_since_ = now;
    return;
  }
  ++stats_.degraded_intervals;
  if (recovery_.done()) {
    const double us =
        std::chrono::duration<double, std::micro>(now - degraded_since_)
            .count();
    stats_.degraded_time_us += us;
    stats_.worst_recovery_us = std::max(stats_.worst_recovery_us, us);
  }
}

std::size_t QueryBroker::epoch() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

ServingStats QueryBroker::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void QueryBroker::drain_queries() {
  std::vector<PendingQuery> backlog;
  std::size_t epoch = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    backlog.swap(pending_queries_);
    epoch = epoch_;
  }
  if (backlog.empty()) return;
  std::vector<ReadQuery> queries;
  queries.reserve(std::min(backlog.size(), config_.max_query_batch));
  for (std::size_t off = 0; off < backlog.size();
       off += config_.max_query_batch) {
    const std::size_t len =
        std::min(config_.max_query_batch, backlog.size() - off);
    queries.clear();
    for (std::size_t i = 0; i < len; ++i) {
      queries.push_back(backlog[off + i].query);
    }
    // The shared O(1)-round lookup: pure reads, outside the lock — the
    // pending state was swapped out, so submissions keep flowing.
    const std::vector<ReadAnswer> answers =
        forest_.answer_queries(std::span<const ReadQuery>(queries));
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < len; ++i) {
      const PendingQuery& pq = backlog[off + i];
      ServedAnswer served;
      served.answer = answers[i];
      served.epoch = epoch;
      served.latency_us =
          std::chrono::duration<double, std::micro>(now - pq.submitted)
              .count();
      answered_.emplace(pq.id, served);
    }
    ++stats_.query_batches;
    stats_.queries_answered += len;
  }
}

}  // namespace serve
