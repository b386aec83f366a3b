#include "harness/driver.hpp"

#include <algorithm>

namespace harness {
namespace {

/// Folds one committed attempt's record into a per-batch accumulator:
/// rounds and traffic add up, the per-round maxima stay maxima.
void accumulate(dmpc::UpdateRecord& batch, const dmpc::UpdateRecord& up) {
  batch.rounds += up.rounds;
  batch.total_comm_words += up.total_comm_words;
  batch.max_active_machines =
      std::max(batch.max_active_machines, up.max_active_machines);
  batch.max_comm_words = std::max(batch.max_comm_words, up.max_comm_words);
}

}  // namespace

const AlgorithmStats* DriverReport::find(std::string_view name) const {
  for (const auto& a : algorithms) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

Driver::Driver(std::size_t n, DriverConfig config)
    : config_(config), shadow_(n) {}

void Driver::seed(const graph::EdgeList& edges) {
  for (auto [u, v] : edges) shadow_.insert_edge(u, v);
}

void Driver::seed(const graph::WeightedEdgeList& edges) {
  for (const auto& e : edges) shadow_.insert_edge(e.u, e.v);
}

void Driver::run_checkpoint() {
  for (const Handle& h : handles_) {
    if (!h.validate) continue;
    std::string why;
    if (!h.validate(&why)) {
      throw ValidationError("algorithm '" + h.name +
                            "' failed validate() at step " +
                            std::to_string(report_.applied) + ": " + why);
    }
  }
  const Checkpoint cp{report_.applied, shadow_};
  for (const CheckpointFn& fn : checkpoint_fns_) fn(cp);
  ++report_.checkpoints;
}

const DriverReport& Driver::run(const graph::UpdateStream& stream) {
  while (report_.algorithms.size() < handles_.size()) {
    const Handle& h = handles_[report_.algorithms.size()];
    AlgorithmStats stats;
    stats.name = h.name;
    stats.instrumented = static_cast<bool>(h.last_update);
    stats.batched = batching() && static_cast<bool>(h.apply_batch);
    stats.scheduled = stats.batched && static_cast<bool>(h.sched_stats);
    report_.algorithms.push_back(std::move(stats));
  }
  // The open batch's effective updates (already applied to the filter
  // shadow).
  std::vector<graph::Update> batch;
  std::size_t batches_since_checkpoint = 0;
  // True while the current state has already been checkpointed, so the
  // final checkpoint is skipped when the last batch landed on a
  // checkpoint boundary (no duplicate oracle sweeps on identical state).
  bool at_checkpoint = false;
  // Set when stop_when_ fires at a checkpoint: the run returns without
  // applying anything further.
  bool stopped = false;
  const auto close_batch = [&](const std::vector<graph::Update>& b) {
    // Positions dropped by recovery (exhausted retries), union across
    // handles: they must not reach the shadow or later handles.  With
    // several algorithms registered, handles processed BEFORE the one
    // that abandoned have already applied the update — mixed
    // registration only stays differential while nothing is abandoned.
    std::vector<char> abandoned(b.size(), 0);
    dmpc::PhaseScope batch_phase(tracer_.get(), dmpc::TracePhase::kBatch);
    const std::span<const graph::Update> whole(b);
    for (std::size_t i = 0; i < handles_.size(); ++i) {
      const Handle& h = handles_[i];
      AlgorithmStats& stats = report_.algorithms[i];
      dmpc::UpdateRecord batch_rec;
      const auto attempt = [&](std::size_t off, std::size_t len) {
        if (stats.batched) {
          h.apply_batch(whole.subspan(off, len));
        } else {
          h.apply(b[off]);
        }
        if (h.last_update) {
          const dmpc::UpdateRecord rec = h.last_update();
          if (!stats.batched) stats.agg.absorb(rec);
          accumulate(batch_rec, rec);
        }
      };
      const auto abandon = [&](std::size_t off) { abandoned[off] = 1; };
      BisectRetry recovery(config_.recovery_max_retries, stats.recovery);
      const std::size_t unit = stats.batched ? b.size() : 1;
      for (std::size_t off = 0; off < b.size(); off += unit) {
        if (unit == 1 && abandoned[off] != 0) continue;
        recovery.push(off, unit);
        if (!recovery.step(attempt, abandon)) {
          dmpc::PhaseScope recovery_phase(tracer_.get(),
                                          dmpc::TracePhase::kRecovery);
          recovery.drain(attempt, abandon);
        }
      }
      if (h.last_update) stats.batch_agg.absorb(batch_rec);
      // The algorithm's scheduler stats are cumulative; keep the
      // report's copy current after every batch.
      if (stats.scheduled) stats.sched = h.sched_stats();
    }
    // The batch span ends here: commit hooks and checkpoints that follow
    // are not batch-apply work.
    batch_phase.close();
    std::size_t dropped = 0;
    for (const char a : abandoned) dropped += a != 0 ? 1 : 0;
    report_.applied += b.size() - dropped;
    if (dropped != 0) {
      // The filter shadow already holds the whole batch; peel the
      // abandoned updates back out (newest first) so checkpoints and
      // later filtering compare against what actually committed.
      for (std::size_t j = b.size(); j-- > 0;) {
        if (abandoned[j] == 0) continue;
        if (b[j].kind == graph::UpdateKind::kInsert) {
          shadow_.delete_edge(b[j].u, b[j].v);
        } else {
          shadow_.insert_edge(b[j].u, b[j].v);
        }
      }
    }
    ++report_.batches;
    for (const auto& fn : batch_commit_fns_) fn(report_.batches, shadow_);
    for (const auto& fn : batch_end_fns_) fn();
    if (config_.checkpoint_every != 0 &&
        ++batches_since_checkpoint >= config_.checkpoint_every) {
      batches_since_checkpoint = 0;
      run_checkpoint();
      at_checkpoint = true;
      if (stop_when_ && stop_when_()) stopped = true;
    }
  };
  for (const graph::Update& up : stream) {
    if (stopped) break;
    // Enforce the algorithms' preconditions against the shadow: inserts of
    // present edges and deletes of absent ones are no-ops and are dropped.
    if (!graph::apply_update(shadow_, up)) {
      ++report_.skipped;
      continue;
    }
    // Queue the update as the per-update path would pass it: when the
    // driver is configured weighted the stream's weight travels verbatim
    // (0 included — it is a legal weight); otherwise insert(u, v) uses
    // the algorithms' default weight of 1, so the batch carries that.
    // Batched and per-update application therefore see identical inputs.
    graph::Update queued = up;
    if (!config_.weighted) queued.w = 1;
    batch.push_back(queued);
    at_checkpoint = false;
    if (batch.size() == config_.batch_size) {
      close_batch(batch);
      batch.clear();
    }
  }
  // A stop fires only inside close_batch, right before the batch is
  // cleared, so nothing filtered into the shadow is left unapplied.
  if (stopped) return report_;
  if (!batch.empty()) {
    close_batch(batch);
    batch.clear();
  }
  if (config_.final_checkpoint && !at_checkpoint) {
    run_checkpoint();
  }
  return report_;
}

}  // namespace harness
