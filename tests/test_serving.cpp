// Tests of the serving layer: answer_queries correctness against the
// connectivity oracle and exact tree-path sums, the O(1)-round /
// pure-read contract of the query path, the QueryBroker's snapshot
// consistency (every answer's epoch names the exact committed state it
// observed, under both executors), and the admission-control edges
// (zero-capacity update queue, query shedding, all-update workloads).
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/dyn_forest.hpp"
#include "dmpc/executor.hpp"
#include "graph/update_stream.hpp"
#include "oracle/oracles.hpp"
#include "serve/query_broker.hpp"

namespace {

using core::DynamicForest;
using core::QueryKind;
using core::ReadAnswer;
using core::ReadQuery;
using graph::Update;
using graph::UpdateKind;
using serve::QueryBroker;
using serve::ServedAnswer;
using serve::ServingConfig;

// ---------------------------------------------------------------------------
// answer_queries correctness + round accounting
// ---------------------------------------------------------------------------

TEST(AnswerQueries, MatchesConnectivityOracleOnRandomGraph) {
  const std::size_t n = 64;
  DynamicForest forest({.n = n, .m_cap = 256});
  forest.preprocess(graph::EdgeList{});
  graph::DynamicGraph shadow(n);
  const graph::UpdateStream stream = graph::random_stream(n, 200, 0.7, 11);
  for (const Update& up : stream) {
    if (!graph::apply_update(shadow, up)) continue;
    if (up.kind == UpdateKind::kInsert) {
      forest.insert(up.u, up.v);
    } else {
      forest.erase(up.u, up.v);
    }
  }
  std::vector<ReadQuery> queries;
  for (std::size_t u = 0; u < n; u += 3) {
    for (std::size_t v = u; v < n; v += 7) {
      queries.push_back({QueryKind::kConnected, static_cast<dmpc::VertexId>(u),
                         static_cast<dmpc::VertexId>(v)});
    }
  }
  const std::vector<ReadAnswer> answers =
      forest.answer_queries(std::span<const ReadQuery>(queries));
  ASSERT_EQ(answers.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(answers[i].connected,
              oracle::same_component(shadow, queries[i].u, queries[i].v))
        << "query " << queries[i].u << " -- " << queries[i].v;
  }
}

TEST(AnswerQueries, PathWeightMatchesTreeSums) {
  // Two weighted paths (so the spanning forest IS the graph): path
  // weights are exact prefix-sum differences, cross-path queries are
  // disconnected.
  const std::size_t n = 32;
  DynamicForest forest({.n = n, .m_cap = 64, .weighted = true});
  graph::WeightedEdgeList edges;
  std::vector<long long> prefix(n, 0);  // prefix[v] = path weight 0(or 16)..v
  for (std::size_t u = 0; u + 1 < 16; ++u) {
    edges.push_back({static_cast<dmpc::VertexId>(u),
                     static_cast<dmpc::VertexId>(u + 1),
                     static_cast<graph::Weight>(u + 1)});
    prefix[u + 1] = prefix[u] + static_cast<long long>(u + 1);
  }
  for (std::size_t u = 16; u + 1 < 32; ++u) {
    edges.push_back({static_cast<dmpc::VertexId>(u),
                     static_cast<dmpc::VertexId>(u + 1),
                     static_cast<graph::Weight>(2 * u + 5)});
    prefix[u + 1] = prefix[u] + static_cast<long long>(2 * u + 5);
  }
  forest.preprocess(edges);
  std::vector<ReadQuery> queries;
  std::vector<ReadAnswer> expected;
  for (std::size_t u = 0; u < 16; u += 2) {
    for (std::size_t v = u + 1; v < 16; v += 3) {
      queries.push_back({QueryKind::kPathWeight, static_cast<dmpc::VertexId>(u),
                         static_cast<dmpc::VertexId>(v)});
      expected.push_back(
          {true, static_cast<graph::Weight>(prefix[v] - prefix[u])});
    }
  }
  queries.push_back({QueryKind::kPathWeight, 20, 27});
  expected.push_back(
      {true, static_cast<graph::Weight>(prefix[27] - prefix[20])});
  queries.push_back({QueryKind::kPathWeight, 3, 20});  // cross-path
  expected.push_back({false, 0});
  queries.push_back({QueryKind::kPathWeight, 9, 9});  // self
  expected.push_back({true, 0});
  const std::vector<ReadAnswer> answers =
      forest.answer_queries(std::span<const ReadQuery>(queries));
  ASSERT_EQ(answers.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(answers[i].connected, expected[i].connected) << "query " << i;
    if (expected[i].connected) {
      EXPECT_EQ(answers[i].path_weight, expected[i].path_weight)
          << "query " << queries[i].u << " .. " << queries[i].v;
    }
  }
}

TEST(AnswerQueries, QueriesAreO1RoundsAndNeverTouchUpdateAccounting) {
  const std::size_t n = 256;
  DynamicForest forest({.n = n, .m_cap = 1024, .weighted = true});
  graph::WeightedEdgeList edges;
  for (std::size_t u = 0; u + 1 < n; ++u) {
    edges.push_back({static_cast<dmpc::VertexId>(u),
                     static_cast<dmpc::VertexId>(u + 1), 1});
  }
  forest.preprocess(edges);
  forest.cluster().metrics().reset();
  const dmpc::UpdateAggregate before = forest.cluster().metrics().aggregate();
  const std::uint64_t serial_before = forest.batch_stats().serial_updates;

  // Enough mixed queries to force several comm-cap chunks.
  std::vector<ReadQuery> queries;
  for (std::size_t i = 0; i < 1500; ++i) {
    const auto u = static_cast<dmpc::VertexId>((i * 37) % n);
    const auto v = static_cast<dmpc::VertexId>((i * 53 + 11) % n);
    queries.push_back({i % 5 == 0 ? QueryKind::kPathWeight
                                  : QueryKind::kConnected,
                       u, v});
  }
  forest.answer_queries(std::span<const ReadQuery>(queries));

  const dmpc::QueryAggregate& qa = forest.cluster().metrics().query_aggregate();
  EXPECT_EQ(qa.queries, queries.size());
  EXPECT_GE(qa.batches, 2u);  // the cap chunking split the batch
  EXPECT_LE(qa.worst_rounds, 6u) << "a query batch exceeded O(1) rounds";
  EXPECT_GT(qa.total_comm_words, 0u);
  // Pure reads: the update-side aggregates and the serial-fallback
  // counter are untouched — the read path never joins the protocol.
  const dmpc::UpdateAggregate after = forest.cluster().metrics().aggregate();
  EXPECT_EQ(after.updates, before.updates);
  EXPECT_EQ(after.total_rounds, before.total_rounds);
  EXPECT_EQ(forest.batch_stats().serial_updates, serial_before);
}

// ---------------------------------------------------------------------------
// QueryBroker: standalone snapshot consistency
// ---------------------------------------------------------------------------

TEST(QueryBrokerStandalone, AnswersAreStampedWithTheObservedEpoch) {
  DynamicForest forest({.n = 16, .m_cap = 64});
  forest.preprocess(graph::EdgeList{});
  QueryBroker broker(forest);
  serve::ClientSession client = broker.session();

  // Epoch 0: nothing committed, nothing connected.
  const auto q0 = client.connected(0, 1);
  ASSERT_TRUE(q0.has_value());
  broker.pump();  // no updates pending: epoch stays 0
  const auto a0 = client.poll(*q0);
  ASSERT_TRUE(a0.has_value());
  EXPECT_EQ(a0->epoch, 0u);
  EXPECT_FALSE(a0->answer.connected);
  EXPECT_GE(a0->latency_us, 0.0);

  // One update batch -> epoch 1; the query submitted BEFORE the pump
  // observes the post-batch state (queries drain after the commit).
  ASSERT_TRUE(broker.submit_update({UpdateKind::kInsert, 0, 1}));
  ASSERT_TRUE(broker.submit_update({UpdateKind::kInsert, 1, 2}));
  const auto q1 = client.connected(0, 2);
  ASSERT_TRUE(q1.has_value());
  broker.pump();
  EXPECT_EQ(broker.epoch(), 1u);
  const auto a1 = client.poll(*q1);
  ASSERT_TRUE(a1.has_value());
  EXPECT_EQ(a1->epoch, 1u);
  EXPECT_TRUE(a1->answer.connected);
  // The ticket was consumed.
  EXPECT_FALSE(client.poll(*q1).has_value());

  const serve::ServingStats stats = broker.stats();
  EXPECT_EQ(stats.queries_answered, 2u);
  EXPECT_EQ(stats.updates_applied, 2u);
  EXPECT_EQ(stats.update_batches, 1u);
  EXPECT_EQ(stats.queries_shed, 0u);
  EXPECT_EQ(stats.updates_rejected, 0u);
}

// Differential snapshot-consistency replay: drive a small Zipfian mixed
// stream through a standalone broker, snapshot the committed graph at
// every epoch, and check every answer against the connectivity oracle
// evaluated AT THE ANSWER'S OWN EPOCH — never a half-committed state.
// Run under both executors: the thread-pool round path must serve the
// same answers as the serial one.
void run_snapshot_differential(bool thread_pool) {
  graph::ZipfianServingConfig traffic;
  traffic.n = 256;
  traffic.length = 4000;
  traffic.blocks = 8;
  traffic.query_fraction = 0.8;
  traffic.path_query_fraction = 0.0;  // connectivity oracle only
  traffic.seed = 5;
  const graph::MixedStream stream = graph::zipfian_serving_stream(traffic);

  DynamicForest forest({.n = traffic.n, .m_cap = 4096});
  forest.preprocess(graph::EdgeList{});
  if (thread_pool) {
    forest.cluster().set_executor(
        std::make_shared<dmpc::ThreadPoolExecutor>(4));
  }
  QueryBroker broker(forest, {.max_query_batch = 64,
                              .max_pending_queries = 1u << 12,
                              .max_pending_updates = 1u << 12});
  serve::ClientSession client = broker.session();

  std::vector<graph::DynamicGraph> snapshots;  // snapshots[e] = epoch e
  snapshots.emplace_back(traffic.n);           // epoch 0: empty
  std::vector<Update> staged;                  // updates since last pump
  struct Outstanding {
    serve::QueryId id;
    ReadQuery query;
  };
  std::vector<Outstanding> outstanding;
  std::size_t checked = 0;

  const auto service = [&] {
    broker.pump();
    // The broker committed the staged updates as one batch (or none).
    if (!staged.empty()) {
      graph::DynamicGraph next = snapshots.back();
      for (const Update& up : staged) graph::apply_update(next, up);
      snapshots.push_back(std::move(next));
      staged.clear();
    }
    ASSERT_EQ(broker.epoch(), snapshots.size() - 1);
    for (const Outstanding& out : outstanding) {
      const std::optional<ServedAnswer> answer = client.poll(out.id);
      ASSERT_TRUE(answer.has_value());
      ASSERT_LT(answer->epoch, snapshots.size());
      EXPECT_EQ(answer->answer.connected,
                oracle::same_component(snapshots[answer->epoch],
                                       out.query.u, out.query.v))
          << "epoch " << answer->epoch << " query " << out.query.u << " -- "
          << out.query.v;
      ++checked;
    }
    outstanding.clear();
  };

  std::size_t since_service = 0;
  for (const graph::MixedOp& op : stream) {
    if (op.kind == graph::MixedKind::kUpdate) {
      ASSERT_TRUE(broker.submit_update(op.as_update()));
      staged.push_back(op.as_update());
    } else {
      const auto id = client.connected(op.u, op.v);
      ASSERT_TRUE(id.has_value());
      outstanding.push_back({*id, {QueryKind::kConnected, op.u, op.v}});
    }
    if (++since_service >= 128) {
      since_service = 0;
      service();
    }
  }
  service();
  EXPECT_GT(checked, traffic.length / 2);
  EXPECT_EQ(broker.stats().queries_shed, 0u);
  EXPECT_EQ(broker.stats().updates_rejected, 0u);
  // The read path stayed O(1) rounds throughout the run.
  EXPECT_LE(forest.cluster().metrics().query_aggregate().worst_rounds, 6u);
}

TEST(QueryBrokerStandalone, SnapshotDifferentialSerialExecutor) {
  run_snapshot_differential(/*thread_pool=*/false);
}

TEST(QueryBrokerStandalone, SnapshotDifferentialThreadPoolExecutor) {
  run_snapshot_differential(/*thread_pool=*/true);
}

// ---------------------------------------------------------------------------
// Admission control / backpressure edges
// ---------------------------------------------------------------------------

TEST(QueryBrokerBackpressure, ZeroCapacityUpdateQueueAlwaysRejects) {
  DynamicForest forest({.n = 8, .m_cap = 16});
  forest.preprocess(graph::EdgeList{});
  QueryBroker broker(forest, {.max_pending_updates = 0});  // read-only replica
  serve::ClientSession client = broker.session();
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(broker.submit_update({UpdateKind::kInsert, 0, 1}));
  }
  const auto q = client.connected(0, 1);
  ASSERT_TRUE(q.has_value());
  broker.pump();
  EXPECT_EQ(broker.epoch(), 0u);  // nothing ever commits
  const auto answer = client.poll(*q);
  ASSERT_TRUE(answer.has_value());
  EXPECT_FALSE(answer->answer.connected);
  const serve::ServingStats stats = broker.stats();
  EXPECT_EQ(stats.updates_rejected, 5u);
  EXPECT_EQ(stats.updates_applied, 0u);
  EXPECT_EQ(stats.update_batches, 0u);
  EXPECT_EQ(stats.queries_answered, 1u);
}

TEST(QueryBrokerBackpressure, QueryBacklogShedsAboveCapAndRecovers) {
  DynamicForest forest({.n = 8, .m_cap = 16});
  forest.preprocess(graph::EdgeList{});
  QueryBroker broker(forest, {.max_pending_queries = 4});
  serve::ClientSession client = broker.session();
  std::vector<serve::QueryId> admitted;
  std::size_t shed = 0;
  for (int i = 0; i < 10; ++i) {
    if (const auto id = client.connected(0, 1)) {
      admitted.push_back(*id);
    } else {
      ++shed;
    }
  }
  EXPECT_EQ(admitted.size(), 4u);
  EXPECT_EQ(shed, 6u);
  EXPECT_EQ(broker.stats().queries_shed, 6u);
  broker.pump();  // drains the backlog, freeing capacity
  for (const serve::QueryId id : admitted) {
    EXPECT_TRUE(client.poll(id).has_value());
  }
  EXPECT_TRUE(client.connected(0, 1).has_value());  // admission recovered
}

TEST(QueryBrokerBackpressure, AllUpdateWorkloadServesNoQueries) {
  const std::size_t n = 32;
  DynamicForest forest({.n = n, .m_cap = 128});
  forest.preprocess(graph::EdgeList{});
  QueryBroker broker(forest);
  graph::DynamicGraph shadow(n);
  const graph::UpdateStream stream = graph::random_stream(n, 60, 0.7, 31);
  std::size_t batches = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(broker.submit_update(stream[i]));
    graph::apply_update(shadow, stream[i]);
    if (i % 16 == 15) {
      broker.pump();
      ++batches;
    }
  }
  broker.pump();
  ++batches;
  const serve::ServingStats stats = broker.stats();
  EXPECT_EQ(stats.queries_answered, 0u);
  EXPECT_EQ(stats.query_batches, 0u);
  EXPECT_EQ(stats.updates_applied, stream.size());
  EXPECT_EQ(stats.update_batches, batches);
  EXPECT_EQ(broker.epoch(), batches);
  // The forest tracked the whole stream: spot-check against the oracle.
  serve::ClientSession client = broker.session();
  for (std::size_t u = 0; u < n; u += 5) {
    const auto id = client.connected(static_cast<dmpc::VertexId>(u),
                                     static_cast<dmpc::VertexId>((u + 9) % n));
    ASSERT_TRUE(id.has_value());
    broker.pump();
    const auto answer = client.poll(*id);
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(answer->answer.connected,
              oracle::same_component(shadow, static_cast<dmpc::VertexId>(u),
                                     static_cast<dmpc::VertexId>((u + 9) % n)));
  }
}

}  // namespace
