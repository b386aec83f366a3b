// Tests of the serving layer: answer_queries correctness against the
// connectivity oracle and exact tree-path sums (on a static forest and
// after every batch of a weighted update stream), the exact round
// counts and pure-read contract of the query path, the QueryBroker's
// snapshot consistency (every answer's epoch names the exact committed
// state it observed, under both executors), and the admission-control
// edges (zero-capacity update queue, query shedding, all-update
// workloads, out-of-range query endpoints).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dyn_forest.hpp"
#include "dmpc/executor.hpp"
#include "graph/update_stream.hpp"
#include "oracle/oracles.hpp"
#include "serve/query_broker.hpp"
#include "test_util.hpp"

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
  const std::uint64_t stages_before = forest.batch_stats().stages;

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
  EXPECT_LE(qa.worst_rounds, 5u) << "a query batch exceeded O(1) rounds";
  EXPECT_GT(qa.total_comm_words, 0u);
  // Pure reads: the update-side aggregates and the stage counter are
  // untouched — the read path never joins the update protocol.
  const dmpc::UpdateAggregate after = forest.cluster().metrics().aggregate();
  EXPECT_EQ(after.updates, before.updates);
  EXPECT_EQ(after.total_rounds, before.total_rounds);
  EXPECT_EQ(forest.batch_stats().stages, stages_before);
}

TEST(AnswerQueries, ChunkRoundsArePinned) {
  // A connectivity-only chunk is the 2-round lookup; a chunk holding a
  // path-weight query takes exactly 5 rounds, connected or not.
  const std::size_t n = 64;
  DynamicForest forest({.n = n, .m_cap = 256, .weighted = true});
  graph::WeightedEdgeList edges;
  for (std::size_t u = 0; u + 1 < 32; ++u) {
    edges.push_back({static_cast<dmpc::VertexId>(u),
                     static_cast<dmpc::VertexId>(u + 1), 2});
  }
  forest.preprocess(edges);
  const auto rounds_of = [&](const std::vector<ReadQuery>& queries) {
    forest.cluster().metrics().reset();
    forest.answer_queries(std::span<const ReadQuery>(queries));
    const dmpc::QueryAggregate& qa =
        forest.cluster().metrics().query_aggregate();
    EXPECT_EQ(qa.batches, 1u);
    return qa.total_rounds;
  };
  EXPECT_EQ(rounds_of({{QueryKind::kConnected, 0, 5},
                       {QueryKind::kConnected, 3, 40}}),
            2u);
  EXPECT_EQ(rounds_of({{QueryKind::kConnected, 0, 5},
                       {QueryKind::kPathWeight, 2, 20}}),
            5u);
  EXPECT_EQ(rounds_of({{QueryKind::kPathWeight, 2, 40}}), 5u);  // disconnected
}

TEST(AnswerQueries, PathSumsNeverLeakAnUnprobedComponent) {
  // One batch probes paths A and C only; B's component id lies between
  // theirs and its tour intervals overlap their probe indexes, so only
  // the exact per-component filter keeps B's heavy edges out of the sums.
  const std::size_t len = 24;
  const std::size_t n = 3 * len;
  const graph::WeightedEdgeList edges = test_util::three_weighted_paths(len);
  DynamicForest forest({.n = n, .m_cap = 2 * n, .weighted = true});
  forest.preprocess(edges);
  std::map<graph::EdgeKey, graph::Weight> weight;
  for (const auto& e : edges) weight[graph::EdgeKey(e.u, e.v)] = e.w;
  std::vector<std::vector<std::pair<dmpc::VertexId, graph::Weight>>> adj(n);
  for (const auto& [u, v] : forest.tree_edges()) {
    const graph::Weight w = weight.at(graph::EdgeKey(u, v));
    adj[static_cast<std::size_t>(u)].push_back({v, w});
    adj[static_cast<std::size_t>(v)].push_back({u, w});
  }
  std::vector<ReadQuery> queries;
  for (const std::size_t base : {std::size_t{0}, 2 * len}) {
    for (std::size_t a = 0; a < len; a += 3) {
      for (std::size_t b = a + 1; b < len; b += 5) {
        queries.push_back({QueryKind::kPathWeight,
                           static_cast<dmpc::VertexId>(base + a),
                           static_cast<dmpc::VertexId>(base + b)});
      }
    }
  }
  const std::vector<ReadAnswer> answers =
      forest.answer_queries(std::span<const ReadQuery>(queries));
  ASSERT_EQ(answers.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const ReadQuery& q = queries[i];
    // BFS over the forest's tree edges: the unique tree path's sum.
    std::vector<graph::Weight> dist(n, -1);
    std::deque<dmpc::VertexId> frontier{q.u};
    dist[static_cast<std::size_t>(q.u)] = 0;
    while (!frontier.empty()) {
      const dmpc::VertexId x = frontier.front();
      frontier.pop_front();
      for (const auto& [y, w] : adj[static_cast<std::size_t>(x)]) {
        if (dist[static_cast<std::size_t>(y)] >= 0) continue;
        dist[static_cast<std::size_t>(y)] =
            dist[static_cast<std::size_t>(x)] + w;
        frontier.push_back(y);
      }
    }
    EXPECT_TRUE(answers[i].connected) << q.u << " .. " << q.v;
    EXPECT_EQ(answers[i].path_weight, dist[static_cast<std::size_t>(q.v)])
        << q.u << " .. " << q.v;
  }
}

// Path weights after dynamic updates: the read path resolves endpoints
// from the home machines' cached tour indexes, so those must stay exact
// after every k-way split, join and cycle-rule swap.  A weighted random
// stream runs through apply_batch in batches of 16; after every batch,
// sampled path-weight queries — cross-component pairs, u == v and
// never-touched isolated vertices included — are checked against the
// tree-path sum in the maintained forest (tree_edges() weighted by a
// shadow weight map, walked by BFS).
void run_path_weight_differential(bool thread_pool) {
  const std::size_t n = 48;
  const std::size_t active = n - 4;  // vertices active..n-1 stay isolated
  DynamicForest forest({.n = n, .m_cap = 4 * n, .weighted = true});
  forest.preprocess(graph::WeightedEdgeList{});
  if (thread_pool) {
    forest.cluster().set_executor(
        std::make_shared<dmpc::ThreadPoolExecutor>(4));
  }
  const graph::UpdateStream stream =
      graph::random_stream(active, 480, 0.6, 23, /*weighted=*/true, 50);
  std::map<graph::EdgeKey, graph::Weight> weight;
  std::mt19937_64 rng(99);
  const auto vertex = [&](std::size_t bound) {
    return static_cast<dmpc::VertexId>(rng() % bound);
  };
  std::size_t connected = 0, disconnected = 0;
  for (std::size_t b = 0; b < stream.size(); b += 16) {
    const std::span<const Update> batch(
        stream.data() + b, std::min<std::size_t>(16, stream.size() - b));
    forest.apply_batch(batch);
    for (const Update& up : batch) {
      if (up.kind == UpdateKind::kInsert) {
        weight[graph::EdgeKey(up.u, up.v)] = up.w;
      } else {
        weight.erase(graph::EdgeKey(up.u, up.v));
      }
    }
    std::vector<std::vector<std::pair<dmpc::VertexId, graph::Weight>>> adj(n);
    for (const auto& [u, v] : forest.tree_edges()) {
      const graph::Weight w = weight.at(graph::EdgeKey(u, v));
      adj[static_cast<std::size_t>(u)].push_back({v, w});
      adj[static_cast<std::size_t>(v)].push_back({u, w});
    }

    std::vector<ReadQuery> queries;
    for (std::size_t i = 0; i < 64; ++i) {
      queries.push_back({QueryKind::kPathWeight, vertex(active), vertex(n)});
    }
    const dmpc::VertexId self = vertex(n);
    queries.push_back({QueryKind::kPathWeight, self, self});
    queries.push_back({QueryKind::kPathWeight, vertex(active),
                       static_cast<dmpc::VertexId>(active + b / 16 % 4)});
    const std::vector<dmpc::VertexId> label = forest.component_snapshot();
    for (dmpc::VertexId v = 1; v < static_cast<dmpc::VertexId>(active); ++v) {
      if (label[static_cast<std::size_t>(v)] != label[0]) {
        queries.push_back({QueryKind::kPathWeight, 0, v});  // cross-component
        break;
      }
    }

    const std::vector<ReadAnswer> answers =
        forest.answer_queries(std::span<const ReadQuery>(queries));
    ASSERT_EQ(answers.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const ReadQuery& q = queries[i];
      // BFS over the maintained forest: the unique tree path's sum.
      std::vector<graph::Weight> dist(n, -1);
      std::deque<dmpc::VertexId> frontier{q.u};
      dist[static_cast<std::size_t>(q.u)] = 0;
      while (!frontier.empty()) {
        const dmpc::VertexId x = frontier.front();
        frontier.pop_front();
        for (const auto& [y, w] : adj[static_cast<std::size_t>(x)]) {
          if (dist[static_cast<std::size_t>(y)] >= 0) continue;
          dist[static_cast<std::size_t>(y)] =
              dist[static_cast<std::size_t>(x)] + w;
          frontier.push_back(y);
        }
      }
      const graph::Weight expected = dist[static_cast<std::size_t>(q.v)];
      EXPECT_EQ(answers[i].connected, expected >= 0)
          << "batch " << b / 16 << " query " << q.u << " .. " << q.v;
      EXPECT_EQ(answers[i].path_weight, std::max<graph::Weight>(expected, 0))
          << "batch " << b / 16 << " query " << q.u << " .. " << q.v;
      (expected >= 0 ? connected : disconnected) += 1;
    }
  }
  // The samples exercised both outcomes over many nontrivial trees.
  EXPECT_GT(connected, stream.size());
  EXPECT_GT(disconnected, stream.size() / 4);
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
}

// Reads through a non-empty pending log.  Small batches on a giant
// component keep earlier batches' stages pending (a compaction runs only
// when a batch could carry the log past its bound), so every read after
// a batch resolves records through the log: connectivity and path-weight
// queries, the component snapshot, the tree edges, the forest weight and
// validate() must all match the oracles and a forest fed the same updates
// one at a time.
class ReadsThroughLog : public ::testing::TestWithParam<bool> {};

TEST_P(ReadsThroughLog, MatchOraclesAndOneAtATime) {
  const bool weighted = GetParam();
  const std::size_t n = 320, giant = 256;
  const graph::EdgeList base = graph::gnm(giant, 2 * giant, 31);
  graph::WeightedEdgeList edges;
  std::map<graph::EdgeKey, graph::Weight> weight;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const graph::Weight w =
        weighted ? static_cast<graph::Weight>(1 + (i * 37) % 50) : 1;
    edges.push_back({base[i].first, base[i].second, w});
    weight[graph::EdgeKey(base[i].first, base[i].second)] = w;
  }
  // A roomy m_cap (N, and so S) lets the log outlive several batches.
  const core::DynForestConfig config{
      .n = n, .m_cap = 16384, .weighted = weighted, .eps = 1e-9};
  DynamicForest batched(config);
  DynamicForest one(config);
  batched.preprocess(edges);
  one.preprocess(edges);
  graph::DynamicGraph shadow(n);
  for (const auto& [u, v] : base) shadow.insert_edge(u, v);

  graph::UpdateStream stream =
      graph::random_stream(n, 240, 0.6, 41, weighted, 50);
  if (!weighted) {
    for (Update& up : stream) up.w = 1;
  }
  std::mt19937_64 rng(7);
  const auto vertex = [&] { return static_cast<dmpc::VertexId>(rng() % n); };
  std::size_t logged_reads = 0;
  for (std::size_t b = 0; b < stream.size(); b += 3) {
    const std::span<const Update> batch(
        stream.data() + b, std::min<std::size_t>(3, stream.size() - b));
    batched.apply_batch(batch);
    for (const Update& up : batch) {
      if (up.kind == UpdateKind::kInsert) {
        one.insert(up.u, up.v, up.w);
        if (graph::apply_update(shadow, up)) {
          weight[graph::EdgeKey(up.u, up.v)] = up.w;
        }
      } else {
        one.erase(up.u, up.v);
        if (graph::apply_update(shadow, up)) {
          weight.erase(graph::EdgeKey(up.u, up.v));
        }
      }
    }

    std::vector<ReadQuery> queries;
    for (std::size_t i = 0; i < 24; ++i) {
      queries.push_back({QueryKind::kConnected, vertex(), vertex()});
      queries.push_back({QueryKind::kPathWeight, vertex(), vertex()});
    }
    const std::uint64_t reads_before = batched.batch_stats().reads_through_log;
    const std::vector<ReadAnswer> answers = batched.answer_queries(queries);
    const bool through_log =
        batched.batch_stats().reads_through_log > reads_before;
    logged_reads += through_log ? 1 : 0;
    const std::vector<ReadAnswer> expected = one.answer_queries(queries);

    // The tree-path sums in the maintained forest, by BFS.
    std::vector<std::vector<std::pair<dmpc::VertexId, graph::Weight>>> adj(n);
    for (const auto& [u, v] : batched.tree_edges()) {
      const graph::Weight w = weight.at(graph::EdgeKey(u, v));
      adj[static_cast<std::size_t>(u)].push_back({v, w});
      adj[static_cast<std::size_t>(v)].push_back({u, w});
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const ReadQuery& q = queries[i];
      SCOPED_TRACE("batch " + std::to_string(b / 3) + " query " +
                   std::to_string(q.u) + " .. " + std::to_string(q.v) +
                   (through_log ? " through the log" : ""));
      EXPECT_EQ(answers[i].connected, oracle::same_component(shadow, q.u, q.v));
      EXPECT_EQ(answers[i].connected, expected[i].connected);
      EXPECT_EQ(answers[i].path_weight, expected[i].path_weight);
      if (q.kind != QueryKind::kPathWeight) continue;
      std::vector<graph::Weight> dist(n, -1);
      std::deque<dmpc::VertexId> frontier{q.u};
      dist[static_cast<std::size_t>(q.u)] = 0;
      while (!frontier.empty()) {
        const dmpc::VertexId x = frontier.front();
        frontier.pop_front();
        for (const auto& [y, w] : adj[static_cast<std::size_t>(x)]) {
          if (dist[static_cast<std::size_t>(y)] >= 0) continue;
          dist[static_cast<std::size_t>(y)] =
              dist[static_cast<std::size_t>(x)] + w;
          frontier.push_back(y);
        }
      }
      EXPECT_EQ(answers[i].path_weight,
                std::max<graph::Weight>(dist[static_cast<std::size_t>(q.v)], 0));
    }

    EXPECT_EQ(batched.component_snapshot(), one.component_snapshot());
    EXPECT_TRUE(oracle::same_partition(batched.component_snapshot(),
                                       oracle::connected_components(shadow)));
    auto trees = batched.tree_edges();
    auto one_trees = one.tree_edges();
    std::sort(trees.begin(), trees.end());
    std::sort(one_trees.begin(), one_trees.end());
    EXPECT_EQ(trees, one_trees);
    EXPECT_EQ(batched.forest_weight(), one.forest_weight());
    std::string why;
    EXPECT_TRUE(batched.validate(&why)) << "batch " << b / 3 << ": " << why;
    if (testing::Test::HasFailure()) return;
  }
  // Most reads went through a non-empty log, and compactions did run.
  EXPECT_GT(logged_reads, stream.size() / 3 / 2);
  EXPECT_GT(batched.batch_stats().compactions, 0u);
  EXPECT_LE(batched.batch_stats().log_words_peak, batched.pending_log_bound());
}

INSTANTIATE_TEST_SUITE_P(Kinds, ReadsThroughLog, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Weighted" : "Unweighted";
                         });

TEST(AnswerQueries, PathWeightsTrackUpdatesSerialExecutor) {
  run_path_weight_differential(/*thread_pool=*/false);
}

TEST(AnswerQueries, PathWeightsTrackUpdatesThreadPoolExecutor) {
  run_path_weight_differential(/*thread_pool=*/true);
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
  EXPECT_LE(forest.cluster().metrics().query_aggregate().worst_rounds, 5u);
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
  // A zero query batch could never drain the backlog, so it is refused.
  EXPECT_THROW(QueryBroker(forest, {.max_query_batch = 0}),
               std::invalid_argument);
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

TEST(QueryBrokerBackpressure, OutOfRangeQueryIsRejectedAtSubmit) {
  // A bad endpoint throws at submission and enqueues nothing, so the
  // valid query beside it is still answered by the next pump.
  const std::size_t n = 8;
  DynamicForest forest({.n = n, .m_cap = 16});
  forest.preprocess(graph::EdgeList{});
  QueryBroker broker(forest);
  serve::ClientSession client = broker.session();
  ASSERT_TRUE(broker.submit_update({UpdateKind::kInsert, 0, 2}));
  const auto good = client.connected(0, 2);
  ASSERT_TRUE(good.has_value());
  EXPECT_THROW(client.connected(0, 100), std::invalid_argument);
  EXPECT_THROW(client.path_weight(0, 100), std::invalid_argument);
  EXPECT_THROW(client.connected(-1, 2), std::invalid_argument);
  EXPECT_THROW(client.path_weight(static_cast<dmpc::VertexId>(n), 0),
               std::invalid_argument);
  EXPECT_NO_THROW(broker.pump());
  const auto answer = client.poll(*good);
  ASSERT_TRUE(answer.has_value());
  EXPECT_TRUE(answer->answer.connected);
  EXPECT_EQ(broker.stats().queries_answered, 1u);
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
