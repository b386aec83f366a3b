// Tests of the round-execution layer: the ThreadPoolExecutor's barrier
// semantics, the RoundBuffer's deterministic settling of concurrently
// staged messages, and the end-to-end determinism requirement — a
// ThreadPoolExecutor run must produce identical metrics and algorithm
// state as a SerialExecutor run on the same seeded stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/dyn_forest.hpp"
#include "dmpc/cluster.hpp"
#include "dmpc/executor.hpp"
#include "graph/update_stream.hpp"
#include "harness/driver.hpp"

namespace {

using dmpc::Cluster;
using dmpc::MachineId;
using dmpc::SerialExecutor;
using dmpc::ThreadPoolExecutor;
using dmpc::Word;

TEST(SerialExecutor, RunsAllTasksInOrder) {
  SerialExecutor exec;
  std::vector<std::size_t> order;
  exec.run(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolExecutor, RunsEveryIndexExactlyOnce) {
  ThreadPoolExecutor pool(4);
  std::vector<std::atomic<int>> hits(500);
  pool.run(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolExecutor, ReusableAcrossRuns) {
  ThreadPoolExecutor pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.run(100, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPoolExecutor, ZeroTasksIsANoOp) {
  ThreadPoolExecutor pool(2);
  EXPECT_NO_THROW(pool.run(0, [](std::size_t) { FAIL(); }));
}

TEST(ThreadPoolExecutor, SmallRoundsBypassThePool) {
  // Rounds at or below the serial cutoff run inline on the calling
  // thread — no worker wake-up, no barrier.
  ThreadPoolExecutor pool(4);
  ASSERT_GE(pool.serial_cutoff(), 8u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  pool.run(ran.size(), [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i], caller) << "task " << i << " left the calling thread";
  }
}

TEST(ThreadPoolExecutor, InlinePathKeepsExceptionSemantics) {
  ThreadPoolExecutor pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(4,
                        [&](std::size_t i) {
                          ran.fetch_add(1);
                          if (i == 1) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // Like SerialExecutor, the remaining tasks still ran before the
  // rethrow.
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolExecutor, CutoffZeroForcesPoolScheduling) {
  ThreadPoolExecutor pool(2, /*serial_cutoff=*/0);
  std::vector<std::atomic<int>> hits(4);
  pool.run(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolExecutor, WakesOnlyAsManyWorkersAsNeeded) {
  // 8 workers, 20 tasks (above the cutoff): only 8 can ever join, and
  // repeated rounds must neither deadlock nor drop tasks even though
  // most generations wake a strict subset of the pool.
  ThreadPoolExecutor pool(8, /*serial_cutoff=*/1);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> total{0};
    pool.run(20, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(total.load(), 20) << "round " << round;
  }
}

TEST(ThreadPoolExecutor, PropagatesTaskExceptionsAtTheBarrier) {
  ThreadPoolExecutor pool(4);
  EXPECT_THROW(pool.run(64,
                        [](std::size_t i) {
                          if (i == 13) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool stays usable after a failed generation.
  std::atomic<int> total{0};
  pool.run(32, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 32);
}

TEST(Cluster, ConcurrentStagingMergesInSenderOrder) {
  Cluster c(8, 100);
  c.set_executor(std::make_unique<ThreadPoolExecutor>(4));
  // Every machine stages a message from itself to the ingress,
  // concurrently; the barrier settles all of them.
  c.for_each_machine([&](MachineId m) {
    c.send(m, 0, 100 + static_cast<Word>(m), {static_cast<Word>(m)});
  });
  const auto rec = c.finish_round();
  EXPECT_EQ(rec.messages, 8u);
  EXPECT_EQ(rec.active_machines, 8u);
}

TEST(Cluster, SetExecutorNullRestoresSerial) {
  Cluster c(4, 100);
  c.set_executor(std::make_unique<ThreadPoolExecutor>(2));
  EXPECT_STREQ(c.executor().name(), "thread-pool");
  c.set_executor(nullptr);
  EXPECT_STREQ(c.executor().name(), "serial");
}

// --- end-to-end determinism ------------------------------------------------

void expect_identical(const core::DynamicForest& a,
                      const core::DynamicForest& b) {
  // Algorithm state.
  EXPECT_EQ(a.component_snapshot(), b.component_snapshot());
  auto ta = a.tree_edges(), tb = b.tree_edges();
  std::sort(ta.begin(), ta.end());
  std::sort(tb.begin(), tb.end());
  EXPECT_EQ(ta, tb);
  EXPECT_EQ(a.forest_weight(), b.forest_weight());
  std::string why;
  EXPECT_TRUE(a.validate(&why)) << why;
  EXPECT_TRUE(b.validate(&why)) << why;

  // Metrics: update, query and abort aggregates, pair-traffic histogram.
  const auto& ma = a.cluster().metrics();
  const auto& mb = b.cluster().metrics();
  EXPECT_EQ(ma.aggregate().updates, mb.aggregate().updates);
  EXPECT_EQ(ma.aggregate().worst_rounds, mb.aggregate().worst_rounds);
  EXPECT_EQ(ma.aggregate().worst_active_machines,
            mb.aggregate().worst_active_machines);
  EXPECT_EQ(ma.aggregate().worst_comm_words, mb.aggregate().worst_comm_words);
  EXPECT_EQ(ma.aggregate().total_rounds, mb.aggregate().total_rounds);
  EXPECT_EQ(ma.aggregate().total_comm_words,
            mb.aggregate().total_comm_words);
  EXPECT_EQ(ma.query_aggregate(), mb.query_aggregate());
  EXPECT_EQ(ma.abort_aggregate(), mb.abort_aggregate());
  EXPECT_EQ(ma.pair_traffic(), mb.pair_traffic());
}

std::unique_ptr<core::DynamicForest> run_forest(
    harness::ExecutorKind kind, std::size_t batch_size,
    const graph::UpdateStream& stream, std::size_t n) {
  auto forest = std::make_unique<core::DynamicForest>(
      core::DynForestConfig{.n = n, .m_cap = 4 * n});
  forest->preprocess(graph::WeightedEdgeList{});
  harness::DriverConfig config{.batch_size = batch_size,
                               .checkpoint_every = 0};
  config.executor = kind;
  config.executor_threads = 4;
  harness::Driver driver(n, config);
  driver.add("forest", *forest);
  driver.run(stream);
  return forest;
}

void expect_same_sched(const core::DynamicForest& a,
                       const core::DynamicForest& b) {
  const dmpc::BatchScheduleStats& sa = a.batch_stats();
  const dmpc::BatchScheduleStats& sb = b.batch_stats();
  EXPECT_EQ(sa.batches, sb.batches);
  EXPECT_EQ(sa.grouped_updates, sb.grouped_updates);
  EXPECT_EQ(sa.reordered_updates, sb.reordered_updates);
  EXPECT_EQ(sa.batched_tree_deletes, sb.batched_tree_deletes);
  EXPECT_EQ(sa.max_group, sb.max_group);
  EXPECT_EQ(sa.path_max_grouped, sb.path_max_grouped);
  EXPECT_EQ(sa.deferred_updates, sb.deferred_updates);
  EXPECT_EQ(sa.stages, sb.stages);
  EXPECT_EQ(sa.kway_splits, sb.kway_splits);
  EXPECT_EQ(sa.kway_joins, sb.kway_joins);
  EXPECT_EQ(sa.cascade_rounds, sb.cascade_rounds);
  EXPECT_EQ(sa.cascade_links, sb.cascade_links);
  EXPECT_EQ(sa.elided_updates, sb.elided_updates);
}

TEST(ExecutorDeterminism, ThreadPoolMatchesSerialPerUpdate) {
  const std::size_t n = 96;
  const auto stream =
      graph::bridge_adversary_stream(n, 2 * n + 150, n / 4, 77);
  const auto serial = run_forest(harness::ExecutorKind::kSerial, 1, stream, n);
  const auto pooled =
      run_forest(harness::ExecutorKind::kThreadPool, 1, stream, n);
  expect_identical(*serial, *pooled);
}

TEST(ExecutorDeterminism, ThreadPoolMatchesSerialBatched) {
  const std::size_t n = 96;
  const auto stream = graph::random_stream(n, 250, 0.7, 78);
  const auto serial = run_forest(harness::ExecutorKind::kSerial, 8, stream, n);
  const auto pooled =
      run_forest(harness::ExecutorKind::kThreadPool, 8, stream, n);
  expect_identical(*serial, *pooled);
}

// The batch scheduler's planning runs on the driver thread, so group
// assignment — including batched tree deletions and out-of-order
// executions — must be identical under the thread pool, not just the
// final state.
TEST(ExecutorDeterminism, GroupAssignmentMatchesSerialOnDeleteHeavy) {
  const std::size_t n = 96;
  const auto stream = graph::interleaved_delete_stream(n, 400, 6, 2, 21);
  const auto serial =
      run_forest(harness::ExecutorKind::kSerial, 16, stream, n);
  const auto pooled =
      run_forest(harness::ExecutorKind::kThreadPool, 16, stream, n);
  expect_identical(*serial, *pooled);
  expect_same_sched(*serial, *pooled);
  EXPECT_GT(serial->batch_stats().batched_tree_deletes, 0u);
}

}  // namespace
