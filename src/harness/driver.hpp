// The unified dynamic-algorithm harness.
//
// Every consumer of the dynamic algorithms — differential tests, model
// benches, examples — used to hand-roll the same loop: keep a shadow
// DynamicGraph, skip no-op updates (the algorithms' insert/erase have
// strict present/absent preconditions), feed each update to one or more
// algorithms, periodically cross-check invariants, and read the DMPC
// metrics off each cluster.  The Driver centralizes that loop.
//
// Any type with `insert(u, v)` / `erase(u, v)` (the DynamicAlgorithm
// concept below) can be registered: the distributed algorithms
// (DynamicForest, MaximalMatching, ThreeHalvesMatching, CsMatching) and
// their sequential twins (seq::HdtConnectivity, seq::NsMatching) all
// qualify.  Registration inspects the type:
//   * a weighted insert overload is used when the driver is configured
//     weighted (DynamicForest's MST variant);
//   * `validate(std::string*)` is called at every checkpoint and a
//     ValidationError is thrown on failure;
//   * a `cluster()` accessor makes the algorithm *instrumented*: the
//     driver absorbs the per-update DMPC record after every update into
//     a per-algorithm UpdateAggregate, independent of any metrics reset
//     the caller performs (benches use this to separate phases);
//   * an `apply_batch(span<const Update>)` overload (the BatchApplicable
//     concept) makes the algorithm *batched* whenever batch_size > 1:
//     the driver hands it each whole batch at the batch boundary so
//     independent updates can share protocol rounds, instead of
//     replaying the batch one update at a time.
//
// Updates are grouped into batches of `batch_size`, and each batch is
// applied the moment it fills; checkpoints and the on_batch_end hooks
// fire only at batch boundaries, so batched and per-update algorithms
// registered side by side agree on the graph at every checkpoint.
// Per-batch DMPC cost is aggregated for every instrumented algorithm
// (AlgorithmStats::batch_agg) in both modes, so the round-sharing win of
// a batch protocol is directly measurable against the serial baseline.
//
// A failed apply is recovered by the shared bisect-and-retry routine
// (recovery.hpp): a batched algorithm's unit is the whole batch, a
// per-update algorithm's unit is one update, and every committed
// attempt's DMPC record adds into the batch record.
//
// The driver can also install a RoundExecutor on every registered
// cluster-backed algorithm (DriverConfig::executor): kThreadPool runs
// each cluster's per-machine round work on a worker pool, with results
// byte-identical to the serial default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dmpc/executor.hpp"
#include "dmpc/metrics.hpp"
#include "dmpc/trace.hpp"
#include "dmpc/types.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/update_stream.hpp"
#include "harness/recovery.hpp"

namespace harness {

using dmpc::VertexId;

/// Anything the Driver can feed an update stream.
template <typename A>
concept DynamicAlgorithm = requires(A a, VertexId u, VertexId v) {
  a.insert(u, v);
  a.erase(u, v);
};

/// Algorithms that can check their own internal invariants.
template <typename A>
concept SelfValidating = requires(const A a, std::string* why) {
  { a.validate(why) } -> std::convertible_to<bool>;
};

/// Algorithms running on a simulated DMPC cluster (metrics available).
template <typename A>
concept ClusterBacked = requires(const A a) {
  { a.cluster().metrics().last_update() } ->
      std::convertible_to<const dmpc::UpdateRecord&>;
};

/// Algorithms that can apply a whole batch at once, sharing protocol
/// rounds between independent updates.
template <typename A>
concept BatchApplicable =
    requires(A a, std::span<const graph::Update> batch) {
      a.apply_batch(batch);
    };

/// Batch-applicable algorithms whose scheduler also reports how batches
/// were partitioned (stages, out-of-order runs); the
/// driver snapshots the stats into AlgorithmStats::sched after every
/// batch.
template <typename A>
concept BatchScheduled = requires(const A a) {
  { a.batch_stats() } ->
      std::convertible_to<const dmpc::BatchScheduleStats&>;
};

/// Algorithms whose cluster accepts a driver-installed RoundExecutor.
template <typename A>
concept ExecutorConfigurable =
    requires(A a, std::shared_ptr<dmpc::RoundExecutor> e) {
      a.cluster().set_executor(std::move(e));
    };

/// Thrown when a registered algorithm's validate() fails at a checkpoint.
class ValidationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Snapshot handed to checkpoint callbacks: the ground-truth graph after
/// `step` applied updates.
struct Checkpoint {
  std::size_t step;
  const graph::DynamicGraph& shadow;
};
using CheckpointFn = std::function<void(const Checkpoint&)>;

/// Which RoundExecutor the driver installs on registered cluster-backed
/// algorithms.
enum class ExecutorKind {
  kSerial,      ///< leave the clusters' serial default in place
  kThreadPool,  ///< install a dmpc::ThreadPoolExecutor per cluster
};

struct DriverConfig {
  std::size_t batch_size = 1;        ///< updates per batch
  std::size_t checkpoint_every = 1;  ///< in *batches*; 0 = only at the end
  bool weighted = false;             ///< pass Update::w to weighted inserts
  bool final_checkpoint = true;      ///< checkpoint after the last batch
  ExecutorKind executor = ExecutorKind::kSerial;
  std::size_t executor_threads = 0;  ///< 0 = hardware concurrency
  /// Recovery: when an algorithm's apply throws mid-batch (a fault-
  /// injected cap trip, a crash), the driver assumes the algorithm
  /// rolled itself back to the pre-attempt state (DynamicForest's
  /// atomic_updates journal provides exactly that) and runs
  /// harness::BisectRetry with this many retries per segment.  An
  /// abandoned update is un-applied from the driver's shadow so
  /// checkpoints compare against what actually committed.
  std::size_t recovery_max_retries = 3;
};

/// Per-registered-algorithm results of a run.
struct AlgorithmStats {
  std::string name;
  bool instrumented = false;   ///< ClusterBacked: aggregates are meaningful
  bool batched = false;        ///< updates were applied via apply_batch()
  /// Per-update DMPC cost.  Empty when batched: a batch shares rounds
  /// between its updates, so no per-update record exists — read
  /// batch_agg instead.
  dmpc::UpdateAggregate agg;
  /// Per-*batch* DMPC cost, one record per closed batch (instrumented
  /// algorithms only): the sum of the records of every attempt that
  /// committed in the batch — its updates for a per-update algorithm,
  /// the batch (or its recovered segments) for a batched one — so batched
  /// and serial runs are directly comparable.
  dmpc::UpdateAggregate batch_agg;
  /// Scheduler statistics (BatchScheduled algorithms applied via
  /// apply_batch only): stages, reorders, k-way and cascade work.
  bool scheduled = false;
  dmpc::BatchScheduleStats sched;
  /// Failure-recovery counters (DriverConfig::recovery_max_retries).
  RecoveryStats recovery;
};

struct DriverReport {
  std::size_t applied = 0;      ///< updates fed to the algorithms
  std::size_t skipped = 0;      ///< no-op updates dropped by the shadow
  std::size_t batches = 0;
  std::size_t checkpoints = 0;
  std::vector<AlgorithmStats> algorithms;

  [[nodiscard]] const AlgorithmStats* find(std::string_view name) const;
};

class Driver {
 public:
  explicit Driver(std::size_t n, DriverConfig config = {});

  /// Registers an algorithm (not owned; must outlive the driver).
  template <DynamicAlgorithm A>
  void add(std::string name, A& alg) {
    Handle h;
    h.name = std::move(name);
    const bool weighted = config_.weighted;
    h.apply = [&alg, weighted](const graph::Update& up) {
      if (up.kind == graph::UpdateKind::kInsert) {
        if constexpr (requires { alg.insert(up.u, up.v, up.w); }) {
          if (weighted) {
            alg.insert(up.u, up.v, up.w);
            return;
          }
        }
        alg.insert(up.u, up.v);
      } else {
        alg.erase(up.u, up.v);
      }
    };
    if constexpr (SelfValidating<A>) {
      h.validate = [&alg](std::string* why) { return alg.validate(why); };
    }
    if constexpr (ClusterBacked<A>) {
      h.last_update = [&alg]() -> dmpc::UpdateRecord {
        return std::as_const(alg).cluster().metrics().last_update();
      };
    }
    if constexpr (BatchApplicable<A>) {
      h.apply_batch = [&alg](std::span<const graph::Update> batch) {
        alg.apply_batch(batch);
      };
    }
    if constexpr (BatchScheduled<A>) {
      h.sched_stats = [&alg]() -> dmpc::BatchScheduleStats {
        return std::as_const(alg).batch_stats();
      };
    }
    if constexpr (ExecutorConfigurable<A>) {
      if (config_.executor == ExecutorKind::kThreadPool) {
        // One pool shared by every registered cluster: the driver applies
        // algorithms sequentially, so their rounds never overlap.
        if (!pool_) {
          pool_ = std::make_shared<dmpc::ThreadPoolExecutor>(
              config_.executor_threads);
        }
        alg.cluster().set_executor(pool_);
      }
    }
    handles_.push_back(std::move(h));
  }

  /// Registers an invariant check run at every checkpoint (after the
  /// registered algorithms' own validate()).  See checks.hpp for
  /// ready-made oracle cross-checks.
  void on_checkpoint(CheckpointFn fn) {
    checkpoint_fns_.push_back(std::move(fn));
  }

  /// Called after every batch (e.g. CsMatching::idle_cycles to drain
  /// scheduler work between batches).
  void on_batch_end(std::function<void()> fn) {
    batch_end_fns_.push_back(std::move(fn));
  }

  /// Called the moment a batch COMMITS — after the algorithms applied
  /// it, before the on_batch_end hooks and any checkpoint.  `epoch` is the
  /// number of committed batches so far and `committed` is the graph at
  /// exactly that epoch: a reader running here sits in the bubble between
  /// two update stages, so it never observes a half-committed stage.
  void on_batch_commit(
      std::function<void(std::size_t, const graph::DynamicGraph&)> fn) {
    batch_commit_fns_.push_back(std::move(fn));
  }

  /// Installs a tracer for driver-level spans (nullptr uninstalls): one
  /// `batch` span per closed batch and a `recovery` span around each
  /// bisect-and-retry episode.  Callers who also want
  /// round/phase spans install the same tracer on the registered
  /// algorithms' clusters (Cluster::set_tracer).
  void set_tracer(std::shared_ptr<dmpc::Tracer> tracer) {
    tracer_ = std::move(tracer);
  }

  /// Polled after every checkpoint; when it returns true, run() returns
  /// early.  Lets gtest consumers abort on the first fatal assertion
  /// recorded inside a checkpoint callback (ASSERT_* only exits the
  /// callback, not the run) instead of flooding the log with follow-on
  /// failures from the already-diverged algorithms.
  void stop_when(std::function<bool()> fn) { stop_when_ = std::move(fn); }

  /// Seeds the shadow graph with preprocessed edges WITHOUT feeding the
  /// algorithms (callers preprocess the algorithms with the same list).
  void seed(const graph::EdgeList& edges);
  void seed(const graph::WeightedEdgeList& edges);

  /// Replays the stream through the shadow and every registered
  /// algorithm.  May be called repeatedly: the shadow graph and the
  /// report (counters, per-algorithm aggregates) persist across calls,
  /// but batch position and checkpoint cadence restart — a trailing
  /// partial batch is closed (with its on_batch_end hooks) at the end of
  /// each run().  The returned report covers all runs so far.
  const DriverReport& run(const graph::UpdateStream& stream);

  [[nodiscard]] const graph::DynamicGraph& shadow() const { return shadow_; }
  [[nodiscard]] const DriverReport& report() const { return report_; }

 private:
  struct Handle {
    std::string name;
    std::function<void(const graph::Update&)> apply;
    std::function<bool(std::string*)> validate;        // may be empty
    std::function<dmpc::UpdateRecord()> last_update;   // may be empty
    std::function<void(std::span<const graph::Update>)>
        apply_batch;                                   // may be empty
    std::function<dmpc::BatchScheduleStats()> sched_stats;  // may be empty
  };

  void run_checkpoint();
  [[nodiscard]] bool batching() const { return config_.batch_size > 1; }

  DriverConfig config_;
  graph::DynamicGraph shadow_;
  std::shared_ptr<dmpc::ThreadPoolExecutor> pool_;  // shared across clusters
  std::shared_ptr<dmpc::Tracer> tracer_;
  std::vector<Handle> handles_;
  std::vector<CheckpointFn> checkpoint_fns_;
  std::vector<std::function<void()>> batch_end_fns_;
  std::vector<std::function<void(std::size_t, const graph::DynamicGraph&)>>
      batch_commit_fns_;
  std::function<bool()> stop_when_;
  DriverReport report_;
};

}  // namespace harness
