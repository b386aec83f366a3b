// Crash-consistency and recovery tests for the fault-tolerance layer:
//
//  * the every-injection-point sweep: a one-shot fault armed at EVERY
//    round boundary (and, on alternating batches, at every
//    for_each_machine dispatch) of every batch must roll the forest back
//    to exactly its pre-batch state — the undo journal's strong
//    exception guarantee — across both executors, on delete-heavy and
//    weighted streams;
//  * the shared bisect-and-retry routine (harness::BisectRetry) against
//    a scripted apply: retry budget, front-first bisection, abandonment;
//  * Driver recovery: a seeded Bernoulli fault schedule must converge —
//    retries/bisections commit every update (none abandoned), every
//    checkpoint matches the no-fault oracle, and the per-batch DMPC cost
//    sums to what the forest committed;
//  * the serving layer's graceful degradation: a failed update epoch
//    re-queues while queries keep answering from the committed epoch;
//  * determinism plumbing: ThreadPoolExecutor rethrows the LOWEST task
//    index's exception, and Metrics::abort_update keeps aborted work out
//    of the update aggregate.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/dyn_forest.hpp"
#include "dmpc/cluster.hpp"
#include "dmpc/executor.hpp"
#include "dmpc/fault.hpp"
#include "dmpc/memory.hpp"
#include "dmpc/metrics.hpp"
#include "graph/graph.hpp"
#include "graph/update_stream.hpp"
#include "harness/driver.hpp"
#include "harness/recovery.hpp"
#include "oracle/oracles.hpp"
#include "serve/query_broker.hpp"
#include "test_util.hpp"

namespace {

using core::DynamicForest;
using core::DynForestConfig;
using dmpc::FaultInjector;
using dmpc::FaultKind;
using graph::Update;
using graph::UpdateKind;
using graph::VertexId;

// Everything observable about a forest.  tree_edges() lists records in
// shard-slot order, so equal states also have equal slot order.
struct ForestState {
  std::vector<VertexId> components;
  std::vector<std::pair<VertexId, VertexId>> edges;
  core::Weight weight = 0;

  bool operator==(const ForestState&) const = default;
};

ForestState capture(const DynamicForest& forest) {
  ForestState s;
  s.components = forest.component_snapshot();
  s.edges = forest.tree_edges();
  s.weight = forest.forest_weight();
  return s;
}

// Splits a stream into no-op-free batches of `batch_size` (tracking a
// shadow graph, seeded with the initial edges, so the batch protocols'
// preconditions hold).
std::vector<std::vector<Update>> make_batches(
    std::size_t n, const graph::UpdateStream& stream, std::size_t batch_size,
    const graph::EdgeList& initial = {}) {
  graph::DynamicGraph shadow(n);
  for (const auto& [u, v] : initial) shadow.insert_edge(u, v);
  std::vector<std::vector<Update>> batches(1);
  for (const Update& up : stream) {
    if (!graph::apply_update(shadow, up)) continue;
    batches.back().push_back(up);
    if (batches.back().size() == batch_size) batches.emplace_back();
  }
  if (batches.back().empty()) batches.pop_back();
  return batches;
}

// The tentpole sweep: walk every batch of the stream; per batch, arm a
// one-shot fault at injection point 0, 1, 2, ... (even batches sweep
// round boundaries with kinds cycling comm/memory/crash, odd batches
// sweep for_each_machine dispatches) until the armed point lies beyond
// the batch's protocol and the attempt commits.  Every faulted attempt
// must throw and leave the forest exactly at its pre-batch snapshot, and
// every commit must leave it exactly where a fault-free twin forest
// fed the same batches stands (slot order and counters included).
// `stats`, when given, receives the forest's final scheduling counters
// (rolled-back attempts leave no trace in them); `initial` is the graph
// the forest is preprocessed with; `counts`, when given, what the faults
// hit (SweepCounts).
struct SweepCounts {
  /// Batches whose sweep faulted a compaction's dispatch: a task sweep
  /// of a batch that compacts (its compaction is the first dispatch).
  std::size_t compaction_faults = 0;
  /// Aborts of batches that began with earlier batches' stages still in
  /// the pending log, which the rollback must keep.
  std::size_t pending_log_aborts = 0;
};

void sweep_every_injection_point(const DynForestConfig& config,
                                 bool thread_pool,
                                 const graph::UpdateStream& stream,
                                 std::size_t batch_size,
                                 dmpc::BatchScheduleStats* stats = nullptr,
                                 const graph::EdgeList& initial = {},
                                 SweepCounts* counts = nullptr) {
  DynamicForest forest(config);
  forest.preprocess(initial);
  DynamicForest twin(config);
  twin.preprocess(initial);
  if (thread_pool) {
    // serial_cutoff 1: small test clusters must still go through the
    // pool, or this sweep would silently degenerate to the serial case.
    forest.cluster().set_executor(
        std::make_shared<dmpc::ThreadPoolExecutor>(4, /*serial_cutoff=*/1));
  }
  auto faults = std::make_shared<FaultInjector>();
  forest.cluster().set_fault_injector(faults);

  constexpr FaultKind kBarrierKinds[] = {FaultKind::kComm, FaultKind::kMemory,
                                         FaultKind::kCrash};
  const auto batches = make_batches(config.n, stream, batch_size, initial);
  ASSERT_GE(batches.size(), 4u) << "stream too short to exercise the sweep";
  graph::DynamicGraph shadow(config.n);
  for (const auto& [u, v] : initial) shadow.insert_edge(u, v);
  // Rewriting stages in the twin's pending log (it equals the forest's
  // at every batch start).
  std::uint64_t pending_stages = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::span<const Update> batch(batches[b]);
    const bool sweep_tasks = (b % 2) == 1;
    const ForestState before = capture(forest);
    bool committed = false;
    for (std::uint64_t at = 0; !committed; ++at) {
      ASSERT_LT(at, 5000u) << "batch " << b << " never ran fault-free";
      if (sweep_tasks) {
        faults->fail_in_task(at, static_cast<dmpc::MachineId>(at % 5));
      } else {
        faults->fail_at_round(at, kBarrierKinds[at % 3],
                              static_cast<dmpc::MachineId>(at % 7));
      }
      try {
        forest.apply_batch(batch);
        committed = true;
        faults->disarm();  // the armed point was past the protocol's end
      } catch (const std::exception& e) {
        ASSERT_TRUE(faults->fired())
            << "non-injected failure at point " << at << " of batch " << b
            << ": " << e.what();
        ASSERT_EQ(capture(forest), before)
            << "rollback mismatch after "
            << (sweep_tasks ? "dispatch " : "round ") << at << " of batch "
            << b;
        std::string why;
        ASSERT_TRUE(forest.validate(&why))
            << "invalid state after point " << at << " of batch " << b << ": "
            << why;
        if (counts != nullptr && pending_stages > 0) {
          ++counts->pending_log_aborts;
        }
      }
      if (testing::Test::HasFatalFailure()) return;
    }
    const dmpc::BatchScheduleStats twin_before = twin.batch_stats();
    twin.apply_batch(batch);
    const dmpc::BatchScheduleStats& twin_after = twin.batch_stats();
    const bool compacted = twin_after.compactions > twin_before.compactions;
    const std::uint64_t staged =
        twin_after.rewriting_stages - twin_before.rewriting_stages;
    pending_stages = compacted ? staged : pending_stages + staged;
    if (counts != nullptr && compacted && sweep_tasks) {
      ++counts->compaction_faults;
    }
    ASSERT_EQ(capture(forest), capture(twin))
        << "divergence from the fault-free twin after batch " << b;
    ASSERT_EQ(forest.batch_stats(), twin.batch_stats())
        << "counter divergence from the fault-free twin after batch " << b;
    for (const Update& up : batches[b]) graph::apply_update(shadow, up);
    ASSERT_EQ(forest.component_snapshot(),
              oracle::connected_components(shadow))
        << "post-commit divergence after batch " << b;
    std::string why;
    ASSERT_TRUE(forest.validate(&why)) << "after batch " << b << ": " << why;
  }
  if (stats != nullptr) *stats = forest.batch_stats();
}

DynForestConfig sweep_config(bool weighted) {
  DynForestConfig config;
  config.n = 32;
  config.m_cap = 160;
  config.weighted = weighted;
  return config;
}

graph::UpdateStream sweep_stream(std::size_t n, bool weighted) {
  return weighted
             ? graph::weighted_interleaved_delete_stream(n, 48, 3, 2, 17)
             : graph::interleaved_delete_stream(n, 48, 3, 2, 17);
}

TEST(FaultSweep, BatchDynamicDeleteHeavy) {
  const auto config = sweep_config(false);
  sweep_every_injection_point(config, false, sweep_stream(config.n, false), 6);
  sweep_every_injection_point(config, true, sweep_stream(config.n, false), 6);
}

// The sweep covers the swap rounds only if a swap actually committed.
void expect_swaps_committed(const dmpc::BatchScheduleStats& stats) {
  EXPECT_GT(stats.path_max_grouped, 0u);
  EXPECT_GT(stats.swaps_committed, 0u)
      << "the swept stream committed no cycle-rule swap";
}

TEST(FaultSweep, BatchDynamicWeighted) {
  const auto config = sweep_config(true);
  dmpc::BatchScheduleStats stats;
  sweep_every_injection_point(config, false, sweep_stream(config.n, true), 6,
                              &stats);
  expect_swaps_committed(stats);
  sweep_every_injection_point(config, true, sweep_stream(config.n, true), 6);
  // Weights 1-2 make path-max ties common, and the path-max round takes
  // the first heaviest slot in shard order, so which edge a swap
  // displaces depends on the slot order a rollback must restore.
  const DynForestConfig ties{.n = 64, .m_cap = 384, .weighted = true};
  const auto tie_stream = graph::random_stream(ties.n, 320, 0.6, 7,
                                               /*weighted=*/true,
                                               /*max_weight=*/2);
  sweep_every_injection_point(ties, false, tie_stream, 16, &stats);
  expect_swaps_committed(stats);
  sweep_every_injection_point(ties, true, tie_stream, 16, &stats);
  expect_swaps_committed(stats);
}

// Random churn over many small components: batches mix merges, tree
// deletions and non-tree record ops, so shard erases swap-remove
// records that an earlier stage of the same batch already journaled.
// The journal keeps one pre-image per record per batch, found by the
// record's epoch mark, so this sweep checks that a swap-remove carries
// the mark with the moved record.
TEST(FaultSweep, BatchDynamicMixedComponents) {
  const DynForestConfig config{.n = 64, .m_cap = 384};
  const auto stream = graph::random_stream(config.n, 320, 0.55, 8);
  sweep_every_injection_point(config, false, stream, 16);
  sweep_every_injection_point(config, true, stream, 16);
}

// Churn on one giant component: most records of gnm(256, 256) share a
// label, so a batch's rewriting stages log their stage maps over them
// and read them back through the pending log, and each batch's
// compaction (this S is small, so every 16-update batch compacts first)
// skips the records the composed maps leave unchanged.  A fault at any
// point must truncate the pending log and restore every record a stage
// wrote.
TEST(FaultSweep, BatchDynamicGiantComponent) {
  const DynForestConfig config{.n = 256, .m_cap = 1024};
  const graph::EdgeList initial = graph::gnm(config.n, config.n, 5);
  const auto stream = graph::random_stream(config.n, 320, 0.5, 9);
  dmpc::BatchScheduleStats stats;
  sweep_every_injection_point(config, false, stream, 16, &stats, initial);
  EXPECT_GT(stats.kway_splits, 0u);
  EXPECT_GT(stats.kway_joins, 0u);
  sweep_every_injection_point(config, true, stream, 16, nullptr, initial);
}

// Small batches on one giant component: the pending log stays within its
// bound across a few batches (m_cap sets N and so S, and the log may
// take S/16), so each compaction moves several batches' stages over the
// whole giant.  A compaction writes no undo entries: a fault in
// its dispatch leaves some machines' records brought forward and others
// not, which must read exactly as before, and the retry must finish the
// compaction so that the forest and its counters equal the fault-free
// twin's.
TEST(FaultSweep, CompactionDispatchFaultsRollBack) {
  const DynForestConfig config{.n = 256, .m_cap = 16384};
  const graph::EdgeList initial = graph::gnm(config.n, config.n, 5);
  const auto stream = graph::random_stream(config.n, 240, 0.5, 9);
  for (const bool pool : {false, true}) {
    dmpc::BatchScheduleStats stats;
    SweepCounts counts;
    sweep_every_injection_point(config, pool, stream, 3, &stats, initial,
                                &counts);
    EXPECT_GT(stats.compactions, 1u);
    EXPECT_GT(counts.compaction_faults, 0u)
        << "no swept batch faulted a compaction";
  }
}

// Churn on one giant component in batches of three with S large enough
// that the log, and each machine's count of the records cascade round A
// scanned, outlive batches: round A builds machines' record indexes, in
// its own dispatch, and reads through them.  A fault anywhere must drop
// an index built in the batch and cut an older one back to the shard the
// rollback restores, so the retry reads, counts and builds exactly as
// the fault-free twin does (its batch_stats() are compared too).
TEST(FaultSweep, RecordIndexBuildRollsBack) {
  const DynForestConfig config{.n = 256, .m_cap = 16384};
  const graph::EdgeList initial = graph::gnm(config.n, config.n, 5);
  const auto stream = graph::random_stream(config.n, 240, 0.5, 9);
  for (const bool pool : {false, true}) {
    dmpc::BatchScheduleStats stats;
    sweep_every_injection_point(config, pool, stream, 3, &stats, initial);
    EXPECT_GT(stats.record_index_builds, 0u)
        << "round A built no record index in the swept stream";
  }
}

// Churn over many small components in batches of two, with S large
// enough (m_cap) that most batches start with earlier batches' stages
// still pending, and a fault anywhere
// in a batch must truncate the log back to exactly those stages (the
// records they moved read through it unchanged, and the next commit
// equals the twin's).
TEST(FaultSweep, RollbackKeepsEarlierBatchesPendingStages) {
  const DynForestConfig config{.n = 64, .m_cap = 16384};
  const auto stream = graph::random_stream(config.n, 200, 0.55, 8);
  for (const bool pool : {false, true}) {
    dmpc::BatchScheduleStats stats;
    SweepCounts counts;
    sweep_every_injection_point(config, pool, stream, 2, &stats, {}, &counts);
    EXPECT_GT(stats.rewriting_stages, stats.compactions);
    EXPECT_GT(counts.pending_log_aborts, 0u)
        << "no abort hit a batch that began with stages pending";
  }
}

// Single-update insert/erase (batches of one) journal and roll back too.
TEST(FaultSweep, SerialEraseRollsBack) {
  DynamicForest forest(DynForestConfig{.n = 12, .m_cap = 48});
  forest.preprocess(graph::EdgeList{});
  auto faults = std::make_shared<FaultInjector>();
  forest.cluster().set_fault_injector(faults);
  forest.insert(0, 1);
  forest.insert(1, 2);
  forest.insert(3, 4);
  const ForestState before = capture(forest);
  for (std::uint64_t r = 0;; ++r) {
    ASSERT_LT(r, 200u);
    faults->fail_at_round(r, FaultKind::kCrash);
    try {
      forest.erase(1, 2);
      faults->disarm();
      break;
    } catch (const std::exception&) {
      ASSERT_TRUE(faults->fired());
      ASSERT_EQ(capture(forest), before) << "single erase, round " << r;
      ASSERT_TRUE(forest.validate());
    }
  }
  EXPECT_FALSE(forest.connected(1, 2));
  EXPECT_TRUE(forest.connected(0, 1));
}

// With atomic_updates off the journal never arms and the fault-free
// behavior is unchanged.
TEST(FaultSweep, AtomicUpdatesOffStillCommitsCleanly) {
  DynForestConfig config{.n = 16, .m_cap = 64};
  config.atomic_updates = false;
  DynamicForest forest(config);
  forest.preprocess(graph::EdgeList{});
  forest.insert(0, 1);
  forest.insert(1, 2);
  forest.erase(0, 1);
  EXPECT_TRUE(forest.validate());
  EXPECT_TRUE(forest.connected(1, 2));
  EXPECT_FALSE(forest.connected(0, 1));
}

// ---------------------------------------------------------------------------
// harness::BisectRetry against a scripted apply
// ---------------------------------------------------------------------------

// A scripted apply: the first `transient` attempts fail whatever they
// cover, and any segment holding a poisoned position always fails.
// Every attempt and every abandoned position is logged.
struct ScriptedApply {
  std::set<std::size_t> poisoned;
  std::size_t transient = 0;
  std::vector<std::pair<std::size_t, std::size_t>> attempts;
  std::vector<std::size_t> abandoned;

  void attempt(std::size_t off, std::size_t len) {
    attempts.emplace_back(off, len);
    if (attempts.size() <= transient) throw std::runtime_error("transient");
    for (const std::size_t p : poisoned) {
      if (off <= p && p < off + len) throw std::runtime_error("poisoned");
    }
  }
};

auto counters(const harness::RecoveryStats& rs) {
  return std::make_tuple(rs.aborts, rs.retries, rs.bisections,
                         rs.updates_recovered, rs.updates_abandoned);
}

// Queues every unit, then drains the routine (or, with `one_step_each`,
// calls step() once per loop iteration, as the QueryBroker's pump does).
harness::RecoveryStats run_script(
    ScriptedApply& script, std::size_t max_retries,
    const std::vector<std::pair<std::size_t, std::size_t>>& units,
    bool one_step_each = false) {
  harness::RecoveryStats rs;
  harness::BisectRetry retry(max_retries, rs);
  for (const auto& [off, len] : units) retry.push(off, len);
  const auto attempt = [&](std::size_t off, std::size_t len) {
    script.attempt(off, len);
  };
  const auto abandon = [&](std::size_t off) {
    script.abandoned.push_back(off);
  };
  if (one_step_each) {
    while (!retry.done()) retry.step(attempt, abandon);
  } else {
    retry.drain(attempt, abandon);
  }
  return rs;
}

using Segments = std::vector<std::pair<std::size_t, std::size_t>>;

// A unit's first failure buys it max_retries more attempts on the whole
// unit; only when those fail too is it bisected.
TEST(BisectRetryUnit, RetriesAUnitBeforeBisecting) {
  ScriptedApply heals;
  heals.transient = 3;  // first attempt + 2 retries fail; retry 3 commits
  const harness::RecoveryStats a = run_script(heals, 3, {{0, 8}});
  EXPECT_EQ(heals.attempts, Segments(4, {0, 8}));
  EXPECT_EQ(counters(a), std::make_tuple(3u, 3u, 0u, 8u, 0u));

  ScriptedApply splits;
  splits.transient = 4;  // the third retry fails too: bisect
  const harness::RecoveryStats b = run_script(splits, 3, {{0, 8}});
  EXPECT_EQ(splits.attempts,
            Segments({{0, 8}, {0, 8}, {0, 8}, {0, 8}, {0, 4}, {4, 4}}));
  EXPECT_EQ(counters(b), std::make_tuple(4u, 5u, 1u, 8u, 0u));
  EXPECT_TRUE(splits.abandoned.empty());
}

// Halves get the same retry budget and run front first; a poisoned
// singleton is abandoned and everything around it commits.
TEST(BisectRetryUnit, BisectsFrontFirstAndAbandonsThePoisonedPosition) {
  ScriptedApply script;
  script.poisoned = {5};
  const harness::RecoveryStats rs = run_script(script, 2, {{0, 8}});
  EXPECT_EQ(script.attempts, Segments({{0, 8},
                                       {0, 8},
                                       {0, 8},
                                       {0, 4},
                                       {4, 4},
                                       {4, 4},
                                       {4, 2},
                                       {4, 2},
                                       {4, 1},
                                       {5, 1},
                                       {5, 1},
                                       {6, 2}}));
  EXPECT_EQ(script.abandoned, std::vector<std::size_t>({5}));
  EXPECT_EQ(counters(rs), std::make_tuple(9u, 11u, 3u, 7u, 1u));
}

// Every unit is recovered in queue order, each with its own budget.
TEST(BisectRetryUnit, QueuedUnitsRecoverInOrder) {
  ScriptedApply script;
  script.poisoned = {0, 3};
  const harness::RecoveryStats rs =
      run_script(script, 1, {{0, 1}, {1, 1}, {2, 2}});
  EXPECT_EQ(script.attempts,
            Segments({{0, 1}, {0, 1}, {1, 1}, {2, 2}, {2, 2}, {2, 1},
                      {3, 1}}));
  EXPECT_EQ(script.abandoned, std::vector<std::size_t>({0, 3}));
  EXPECT_EQ(counters(rs), std::make_tuple(5u, 4u, 1u, 1u, 2u));
}

// max_retries 0 is clamped to one retry per segment.
TEST(BisectRetryUnit, ZeroRetriesBehavesAsOne) {
  for (const std::size_t transient : {0u, 1u, 2u, 5u}) {
    ScriptedApply zero, one;
    zero.poisoned = one.poisoned = {2, 6};
    zero.transient = one.transient = transient;
    const harness::RecoveryStats a = run_script(zero, 0, {{0, 8}, {8, 4}});
    const harness::RecoveryStats b = run_script(one, 1, {{0, 8}, {8, 4}});
    EXPECT_EQ(zero.attempts, one.attempts) << "transient " << transient;
    EXPECT_EQ(zero.abandoned, one.abandoned) << "transient " << transient;
    EXPECT_EQ(counters(a), counters(b)) << "transient " << transient;
  }
}

// step() is resumable: one attempt per call reaches exactly the state
// a drain does.
TEST(BisectRetryUnit, SteppingMatchesDraining) {
  for (const std::size_t retries : {1u, 2u, 3u}) {
    ScriptedApply drained, stepped;
    drained.poisoned = stepped.poisoned = {1, 9, 10};
    drained.transient = stepped.transient = 2;
    const Segments units = {{0, 4}, {4, 8}, {12, 1}};
    const harness::RecoveryStats a = run_script(drained, retries, units);
    const harness::RecoveryStats b =
        run_script(stepped, retries, units, /*one_step_each=*/true);
    EXPECT_EQ(drained.attempts, stepped.attempts) << "retries " << retries;
    EXPECT_EQ(drained.abandoned, stepped.abandoned) << "retries " << retries;
    EXPECT_EQ(counters(a), counters(b)) << "retries " << retries;
    EXPECT_EQ(drained.abandoned, std::vector<std::size_t>({1, 9, 10}));
  }
}

// Driver recovery: a Bernoulli fault schedule aborts batches throughout
// the run; retry + bisection must commit every update (none abandoned)
// and every checkpoint must match the oracle on the driver's shadow.
TEST(DriverRecovery, BernoulliScheduleConverges) {
  constexpr std::size_t kN = 48;
  DynamicForest forest(DynForestConfig{.n = kN, .m_cap = 400});
  forest.preprocess(graph::EdgeList{});
  auto faults = std::make_shared<FaultInjector>(/*seed=*/11, /*rate=*/0.03);
  forest.cluster().set_fault_injector(faults);

  harness::DriverConfig dconfig;
  dconfig.batch_size = 8;
  dconfig.checkpoint_every = 4;
  dconfig.recovery_max_retries = 6;
  harness::Driver driver(kN, dconfig);
  driver.add("forest", forest);
  driver.on_checkpoint([&](const harness::Checkpoint& cp) {
    ASSERT_EQ(forest.component_snapshot(),
              oracle::connected_components(cp.shadow))
        << "diverged at step " << cp.step;
  });
  test_util::stop_on_fatal_failure(driver);

  const auto stream = graph::interleaved_delete_stream(kN, 480, 4, 2, 23);
  const harness::DriverReport& report = driver.run(stream);
  const harness::AlgorithmStats* stats = report.find("forest");
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->recovery.aborts, 0u)
      << "rate 0.03 across " << faults->rounds_observed()
      << " observed boundaries should have tripped at least once";
  EXPECT_EQ(stats->recovery.updates_abandoned, 0u);
  EXPECT_GE(stats->recovery.updates_recovered, 1u);
  // Every driver-observed abort was one forest-side rollback.
  EXPECT_EQ(forest.cluster().metrics().abort_aggregate().aborts,
            stats->recovery.aborts);
}

// An unrecoverable update is abandoned, un-applied from the driver's
// shadow, and counted — the driver still terminates coherently.
TEST(DriverRecovery, AbandonsUnrecoverableUpdates) {
  constexpr std::size_t kN = 12;
  DynamicForest forest(DynForestConfig{.n = kN, .m_cap = 48});
  forest.preprocess(graph::EdgeList{});
  // rate 1.0: EVERY round boundary faults, so nothing can ever commit.
  forest.cluster().set_fault_injector(
      std::make_shared<FaultInjector>(/*seed=*/3, /*rate=*/1.0));

  harness::DriverConfig dconfig;
  dconfig.batch_size = 4;
  dconfig.recovery_max_retries = 2;
  dconfig.checkpoint_every = 0;
  dconfig.final_checkpoint = false;
  harness::Driver driver(kN, dconfig);
  driver.add("forest", forest);
  graph::UpdateStream stream;
  for (VertexId v = 0; v + 1 < 8; ++v) {
    stream.push_back({UpdateKind::kInsert, v, v + 1, 1});
  }
  const harness::DriverReport& report = driver.run(stream);
  const harness::AlgorithmStats* stats = report.find("forest");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->recovery.updates_abandoned, 7u);
  EXPECT_GT(stats->recovery.bisections, 0u);
  EXPECT_EQ(stats->recovery.updates_recovered, 0u);
  EXPECT_EQ(report.applied, 0u);
  // The abandoned inserts were rolled back out of the driver's shadow.
  EXPECT_EQ(driver.shadow().num_edges(), 0u);
  // The forest never committed anything either (connectivity queries run
  // as query batches, which the injector never touches).
  for (VertexId v = 0; v + 1 < 8; ++v) {
    EXPECT_FALSE(forest.connected(v, v + 1));
  }
  EXPECT_TRUE(forest.validate());
}

// A recovered batch's DMPC cost is the sum of its committed attempts:
// with bisection in play, the per-batch records must add up to exactly
// what the forest committed (aborted attempts count in neither).
TEST(DriverRecovery, BisectedBatchCostSumsToForestAggregate) {
  constexpr std::size_t kN = 48;
  DynamicForest forest(DynForestConfig{.n = kN, .m_cap = 400});
  forest.preprocess(graph::EdgeList{});
  forest.cluster().set_fault_injector(
      std::make_shared<FaultInjector>(/*seed=*/11, /*rate=*/0.08));

  harness::DriverConfig dconfig;
  dconfig.batch_size = 8;
  dconfig.checkpoint_every = 0;
  dconfig.final_checkpoint = false;
  dconfig.recovery_max_retries = 1;
  harness::Driver driver(kN, dconfig);
  driver.add("forest", forest);
  const harness::DriverReport& report =
      driver.run(graph::interleaved_delete_stream(kN, 480, 4, 2, 23));
  const harness::AlgorithmStats* stats = report.find("forest");
  ASSERT_NE(stats, nullptr);
  ASSERT_TRUE(stats->batched);
  ASSERT_GT(stats->recovery.bisections, 0u) << "the schedule must bisect";
  const dmpc::UpdateAggregate& committed =
      forest.cluster().metrics().aggregate();
  EXPECT_EQ(stats->batch_agg.updates, report.batches);
  EXPECT_EQ(stats->batch_agg.total_rounds, committed.total_rounds);
  EXPECT_EQ(stats->batch_agg.total_comm_words, committed.total_comm_words);
}

// Standalone serving: a failed update epoch re-queues for recovery while
// queries keep answering from the last committed epoch.
TEST(ServingDegradation, QueriesAnswerThroughUpdateFailure) {
  constexpr std::size_t kN = 16;
  DynamicForest forest(DynForestConfig{.n = kN, .m_cap = 64});
  forest.preprocess(graph::EdgeList{});
  serve::QueryBroker broker(forest);
  serve::ClientSession client = broker.session();

  // Healthy epoch: a committed chain 0-1-2.
  ASSERT_TRUE(broker.submit_update({UpdateKind::kInsert, 0, 1, 1}));
  ASSERT_TRUE(broker.submit_update({UpdateKind::kInsert, 1, 2, 1}));
  broker.pump();
  ASSERT_EQ(broker.epoch(), 1u);

  // Arm a one-shot crash for the next update protocol, then submit an
  // update and a query into the same pump.
  auto faults = std::make_shared<FaultInjector>();
  forest.cluster().set_fault_injector(faults);
  faults->fail_at_round(0, FaultKind::kCrash);
  ASSERT_TRUE(broker.submit_update({UpdateKind::kInsert, 2, 3, 1}));
  const auto q1 = client.connected(0, 2);
  ASSERT_TRUE(q1.has_value());
  broker.pump();  // the update aborts; the query must still be answered
  const auto a1 = client.poll(*q1);
  ASSERT_TRUE(a1.has_value());
  EXPECT_TRUE(a1->answer.connected);
  EXPECT_EQ(a1->epoch, 1u) << "answered from the committed epoch";
  serve::ServingStats stats = broker.stats();
  EXPECT_EQ(stats.update_aborts, 1u);
  EXPECT_EQ(broker.epoch(), 1u);

  // The fault was one-shot: the next pump recovers the re-queued batch
  // and the epoch advances.
  const auto q2 = client.connected(2, 3);
  ASSERT_TRUE(q2.has_value());
  broker.pump();
  const auto a2 = client.poll(*q2);
  ASSERT_TRUE(a2.has_value());
  EXPECT_TRUE(a2->answer.connected);
  EXPECT_EQ(a2->epoch, 2u);
  stats = broker.stats();
  EXPECT_EQ(stats.update_retries, 1u);
  EXPECT_EQ(stats.updates_abandoned, 0u);
  EXPECT_EQ(stats.degraded_intervals, 1u);
  EXPECT_GT(stats.worst_recovery_us, 0.0);
  EXPECT_EQ(stats.queries_answered, 2u);
  EXPECT_TRUE(forest.validate());
}

// A batch whose front sub-batch keeps failing is bisected down to a
// singleton, which is abandoned; the rest commits and the broker leaves
// degraded mode.
TEST(ServingDegradation, BisectsAndAbandonsPoisonedUpdate) {
  constexpr std::size_t kN = 16;
  DynamicForest forest(DynForestConfig{.n = kN, .m_cap = 64});
  forest.preprocess(graph::EdgeList{});
  serve::ServingConfig sconfig;
  sconfig.recovery_max_retries = 1;  // bisect on the first failure
  serve::QueryBroker broker(forest, sconfig);

  auto faults = std::make_shared<FaultInjector>();
  forest.cluster().set_fault_injector(faults);
  ASSERT_TRUE(broker.submit_update({UpdateKind::kInsert, 0, 1, 1}));
  ASSERT_TRUE(broker.submit_update({UpdateKind::kInsert, 1, 2, 1}));
  ASSERT_TRUE(broker.submit_update({UpdateKind::kInsert, 2, 3, 1}));
  ASSERT_TRUE(broker.submit_update({UpdateKind::kInsert, 3, 4, 1}));

  // Fault every attempt until the front sub-batch has been bisected down
  // to a singleton (4 -> 2+2 -> 1+1) and that singleton is abandoned;
  // then stop arming and let the rest of the recovery queue drain
  // fault-free.
  std::uint64_t pumps = 0;
  while (broker.stats().updates_abandoned == 0 && pumps < 32) {
    faults->fail_at_round(0, FaultKind::kComm);
    broker.pump();
    ++pumps;
  }
  faults->disarm();
  for (int i = 0; i < 8; ++i) broker.pump();

  const serve::ServingStats stats = broker.stats();
  EXPECT_EQ(stats.updates_abandoned, 1u);
  EXPECT_GE(stats.update_bisections, 2u);
  EXPECT_EQ(stats.updates_applied, 3u);
  EXPECT_TRUE(forest.validate());
}

// A malformed update (a self-loop) reaching the broker throws out of
// apply_batch before any round runs.  Recovery treats it like any other
// failed batch: bisection isolates it, it alone is abandoned, and the
// valid updates around it commit.
TEST(ServingDegradation, MalformedUpdateIsBisectedOutAndAbandoned) {
  constexpr std::size_t kN = 16;
  DynamicForest forest(DynForestConfig{.n = kN, .m_cap = 64});
  forest.preprocess(graph::EdgeList{});
  serve::ServingConfig sconfig;
  sconfig.recovery_max_retries = 1;
  serve::QueryBroker broker(forest, sconfig);
  ASSERT_TRUE(broker.submit_update({UpdateKind::kInsert, 0, 1, 1}));
  ASSERT_TRUE(broker.submit_update({UpdateKind::kInsert, 3, 3, 1}));
  ASSERT_TRUE(broker.submit_update({UpdateKind::kInsert, 1, 2, 1}));
  for (int i = 0; i < 16; ++i) broker.pump();

  const serve::ServingStats stats = broker.stats();
  EXPECT_EQ(stats.updates_abandoned, 1u);
  EXPECT_EQ(stats.updates_applied, 2u);
  EXPECT_TRUE(forest.connected(0, 2));
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
}

// The injector never fires inside a query batch: reads stay available
// even under a certain-fault schedule.
TEST(ServingDegradation, QueryBatchesAreNeverFaulted) {
  constexpr std::size_t kN = 12;
  DynamicForest forest(DynForestConfig{.n = kN, .m_cap = 48});
  forest.preprocess(graph::EdgeList{});
  forest.insert(0, 1);
  forest.cluster().set_fault_injector(
      std::make_shared<FaultInjector>(/*seed=*/5, /*rate=*/1.0));
  const std::vector<core::ReadQuery> queries = {
      {core::QueryKind::kConnected, 0, 1},
      {core::QueryKind::kConnected, 0, 2},
  };
  const auto answers =
      forest.answer_queries(std::span<const core::ReadQuery>(queries));
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_TRUE(answers[0].connected);
  EXPECT_FALSE(answers[1].connected);
}

// ThreadPoolExecutor must rethrow the exception of the LOWEST task
// index, matching SerialExecutor's in-order sweep, no matter which
// worker thread happens to throw first.
TEST(ExecutorDeterminism, LowestTaskIndexExceptionWins) {
  dmpc::ThreadPoolExecutor pool(4, /*serial_cutoff=*/1);
  dmpc::SerialExecutor serial;
  for (int trial = 0; trial < 25; ++trial) {
    for (dmpc::RoundExecutor* exec :
         {static_cast<dmpc::RoundExecutor*>(&pool),
          static_cast<dmpc::RoundExecutor*>(&serial)}) {
      try {
        exec->run(16, [](std::size_t i) {
          if (i == 3 || i == 7 || i == 11) {
            throw std::runtime_error("task " + std::to_string(i));
          }
        });
        FAIL() << exec->name() << " should have rethrown";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task 3") << exec->name();
      }
    }
  }
}

// Aborted work stays out of the update aggregate and lands in the abort
// aggregate.
TEST(MetricsAbort, AbortedUpdateIsExcluded) {
  dmpc::Metrics metrics;
  dmpc::RoundRecord rec;
  rec.active_machines = 2;
  rec.comm_words = 10;
  rec.messages = 1;
  metrics.begin_update();
  metrics.record_round(rec);
  metrics.end_update();
  ASSERT_EQ(metrics.aggregate().updates, 1u);

  metrics.begin_update();
  metrics.record_round(rec);
  metrics.record_round(rec);
  metrics.abort_update();

  EXPECT_EQ(metrics.aggregate().updates, 1u) << "aborts must not aggregate";
  EXPECT_EQ(metrics.aggregate().total_rounds, 1u);
  EXPECT_EQ(metrics.abort_aggregate().aborts, 1u);
  EXPECT_EQ(metrics.abort_aggregate().rounds_discarded, 2u);
  EXPECT_EQ(metrics.abort_aggregate().comm_words_discarded, 20u);
  // The bracket is closed: a fresh update opens and settles normally.
  metrics.begin_update();
  metrics.record_round(rec);
  metrics.end_update();
  EXPECT_EQ(metrics.aggregate().updates, 2u);
  EXPECT_EQ(metrics.aggregate().total_rounds, 2u);
}

// The injector's one-shot semantics and exception-type mapping, on a
// bare cluster.
TEST(FaultInjectorUnit, OneShotsFireExactlyOnceWithMappedTypes) {
  dmpc::Cluster cluster(4, 4096);
  auto faults = std::make_shared<FaultInjector>();
  cluster.set_fault_injector(faults);

  cluster.begin_update();
  faults->fail_at_round(1, FaultKind::kComm);
  EXPECT_NO_THROW(cluster.finish_round());
  EXPECT_THROW(cluster.finish_round(), dmpc::CommOverflowError);
  EXPECT_TRUE(faults->fired());
  EXPECT_FALSE(faults->armed());
  EXPECT_NO_THROW(cluster.finish_round());  // one-shot: fired, now inert
  cluster.metrics().abort_update();

  cluster.begin_update();
  faults->fail_at_round(0, FaultKind::kMemory);
  EXPECT_THROW(cluster.finish_round(), dmpc::MemoryOverflowError);
  cluster.metrics().abort_update();

  cluster.begin_update();
  faults->fail_at_round(0, FaultKind::kCrash);
  EXPECT_THROW(cluster.finish_round(), dmpc::InjectedFault);
  cluster.metrics().abort_update();

  cluster.begin_update();
  faults->fail_in_task(0, 2);
  EXPECT_THROW(cluster.for_each_machine([](dmpc::MachineId) {}),
               dmpc::InjectedFault);
  EXPECT_NO_THROW(cluster.for_each_machine([](dmpc::MachineId) {}));
  EXPECT_EQ(faults->faults_injected(), 4u);
  cluster.metrics().abort_update();
}

TEST(FaultInjectorUnit, BernoulliScheduleIsSeedDeterministic) {
  FaultInjector a(/*seed=*/42, /*rate=*/0.3);
  FaultInjector b(/*seed=*/42, /*rate=*/0.3);
  std::uint64_t fired = 0;
  for (int i = 0; i < 200; ++i) {
    bool threw_a = false;
    bool threw_b = false;
    try {
      a.on_round_boundary();
    } catch (const std::exception&) {
      threw_a = true;
    }
    try {
      b.on_round_boundary();
    } catch (const std::exception&) {
      threw_b = true;
    }
    EXPECT_EQ(threw_a, threw_b) << "boundary " << i;
    fired += threw_a ? 1 : 0;
  }
  EXPECT_EQ(a.faults_injected(), fired);
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 200u);
}

}  // namespace
