// Tests of batched update application: DynamicForest::apply_batch's
// shared-round stages (the paper's observation that many updates can
// share the O(1)-round protocols), its ordering of conflicting updates,
// and the Driver's batch detection + per-batch aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/dyn_forest.hpp"
#include "core/maximal_matching.hpp"
#include "graph/update_stream.hpp"
#include "harness/checks.hpp"
#include "harness/driver.hpp"
#include "test_util.hpp"

namespace {

using graph::Update;
using graph::UpdateKind;
using harness::Driver;
using harness::DriverConfig;

static_assert(harness::BatchApplicable<core::DynamicForest>);
static_assert(!harness::BatchApplicable<core::MaximalMatching>);
static_assert(harness::ExecutorConfigurable<core::DynamicForest>);

std::vector<std::pair<dmpc::VertexId, dmpc::VertexId>> sorted_tree_edges(
    const core::DynamicForest& f) {
  auto edges = f.tree_edges();
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// k pairwise-independent inserts: a perfect matching over 2k singleton
/// vertices, so every insert links two fresh components.
graph::UpdateStream independent_inserts(std::size_t k) {
  graph::UpdateStream stream;
  for (std::size_t i = 0; i < k; ++i) {
    stream.push_back({UpdateKind::kInsert, static_cast<dmpc::VertexId>(2 * i),
                      static_cast<dmpc::VertexId>(2 * i + 1)});
  }
  return stream;
}

// The ISSUE acceptance criterion: a Driver with batch_size = k > 1 must
// use strictly fewer total rounds than k serial updates on a batch of
// independent edges.
TEST(ApplyBatch, IndependentInsertsUseStrictlyFewerRounds) {
  const std::size_t n = 64, k = 8;
  const auto stream = independent_inserts(k);

  core::DynamicForest serial({.n = n, .m_cap = 4 * n});
  serial.preprocess(graph::EdgeList{});
  Driver serial_driver(n, DriverConfig{.checkpoint_every = 0});
  serial_driver.add("forest", serial);
  const auto& serial_report = serial_driver.run(stream);
  const auto* ss = serial_report.find("forest");
  ASSERT_NE(ss, nullptr);
  ASSERT_EQ(ss->agg.updates, k);
  const auto serial_rounds = ss->agg.total_rounds;

  core::DynamicForest batched({.n = n, .m_cap = 4 * n});
  batched.preprocess(graph::EdgeList{});
  Driver batched_driver(n, DriverConfig{.batch_size = k,
                                        .checkpoint_every = 0});
  batched_driver.add("forest", batched);
  const auto& batched_report = batched_driver.run(stream);
  const auto* bs = batched_report.find("forest");
  ASSERT_NE(bs, nullptr);
  EXPECT_TRUE(bs->batched);
  ASSERT_EQ(bs->batch_agg.updates, 1u);  // one batch
  const auto batched_rounds = bs->batch_agg.total_rounds;

  EXPECT_LT(batched_rounds, serial_rounds);
  // Each independent group shares one constant-round protocol instance
  // (8 rounds).  On this deterministic workload a coordinator-machine
  // hash collision may keep one insert out of the shared stage (a second
  // stage), so the batch costs at most two instances — still far below
  // the 6k serial rounds.
  EXPECT_LE(batched_rounds, 16u);
  EXPECT_LT(batched_rounds, serial_rounds / 2);

  // Same final state either way.
  EXPECT_EQ(serial.component_snapshot(), batched.component_snapshot());
  EXPECT_EQ(sorted_tree_edges(serial), sorted_tree_edges(batched));
  std::string why;
  EXPECT_TRUE(batched.validate(&why)) << why;
}

TEST(ApplyBatch, MatchesSerialOnRandomStreams) {
  const std::size_t n = 48;
  const auto stream = graph::random_stream(n, 300, 0.6, 91);

  core::DynamicForest serial({.n = n, .m_cap = 4 * n});
  serial.preprocess(graph::EdgeList{});
  Driver serial_driver(n, DriverConfig{.checkpoint_every = 0});
  serial_driver.add("forest", serial);
  serial_driver.run(stream);

  core::DynamicForest batched({.n = n, .m_cap = 4 * n});
  batched.preprocess(graph::EdgeList{});
  Driver batched_driver(n, DriverConfig{.batch_size = 8,
                                        .checkpoint_every = 4});
  batched_driver.add("forest", batched);
  batched_driver.on_checkpoint(
      harness::components_match_oracle(batched, "forest"));
  EXPECT_NO_THROW(batched_driver.run(stream));

  EXPECT_EQ(serial.component_snapshot(), batched.component_snapshot());
  EXPECT_EQ(sorted_tree_edges(serial).size(),
            sorted_tree_edges(batched).size());
  std::string why;
  EXPECT_TRUE(batched.validate(&why)) << why;
}

TEST(ApplyBatch, MatchesSerialOnWeightedStreams) {
  const std::size_t n = 40;
  const auto stream = graph::random_stream(n, 250, 0.65, 92, /*weighted=*/true);

  core::DynamicForest serial({.n = n, .m_cap = 4 * n, .weighted = true});
  serial.preprocess(graph::WeightedEdgeList{});
  Driver serial_driver(
      n, DriverConfig{.checkpoint_every = 0, .weighted = true});
  serial_driver.add("mst", serial);
  serial_driver.run(stream);

  core::DynamicForest batched({.n = n, .m_cap = 4 * n, .weighted = true});
  batched.preprocess(graph::WeightedEdgeList{});
  Driver batched_driver(n, DriverConfig{.batch_size = 8,
                                        .checkpoint_every = 0,
                                        .weighted = true});
  batched_driver.add("mst", batched);
  batched_driver.run(stream);

  EXPECT_EQ(serial.component_snapshot(), batched.component_snapshot());
  EXPECT_EQ(serial.forest_weight(), batched.forest_weight());
  std::string why;
  EXPECT_TRUE(batched.validate(&why)) << why;
}

TEST(ApplyBatch, PreservesOrderWithinConflictingBatch) {
  const std::size_t n = 16;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{});
  // The erase targets an edge created earlier in the same batch: the
  // group must end at the repeated edge so the delete observes the
  // insert.
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 2, 3, 1},
      {UpdateKind::kInsert, 4, 5, 1},
      {UpdateKind::kDelete, 2, 3, 1},
      {UpdateKind::kInsert, 6, 7, 1},
  };
  forest.apply_batch(std::span<const Update>(batch));
  EXPECT_FALSE(forest.connected(2, 3));
  EXPECT_TRUE(forest.connected(4, 5));
  EXPECT_TRUE(forest.connected(6, 7));
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
}

TEST(BatchScheduler, ExecutesIndependentUpdatesOutOfOrder) {
  const std::size_t n = 16;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{{0, 1}, {1, 2}});
  // insert(2,3) merges into the component delete(0,1) splits, and a
  // stage carries one writer kind per component, so it waits for the
  // next stage; the two later independent inserts must overtake it into
  // the first stage instead of queueing behind it.
  const std::vector<Update> batch = {
      {UpdateKind::kDelete, 0, 1, 1},
      {UpdateKind::kInsert, 2, 3, 1},
      {UpdateKind::kInsert, 4, 5, 1},
      {UpdateKind::kInsert, 6, 7, 1},
  };
  forest.apply_batch(std::span<const Update>(batch));
  EXPECT_FALSE(forest.connected(0, 1));
  EXPECT_TRUE(forest.connected(1, 3));
  EXPECT_TRUE(forest.connected(4, 5));
  EXPECT_TRUE(forest.connected(6, 7));
  const auto& stats = forest.batch_stats();
  EXPECT_EQ(stats.stages, 2u);
  EXPECT_EQ(stats.reordered_updates, 2u);
  EXPECT_EQ(stats.grouped_updates, 4u);
  EXPECT_EQ(stats.serial_updates, 0u);
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
}

TEST(BatchScheduler, BatchesIndependentTreeDeletions) {
  const std::size_t n = 16;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  // Two triangles in distinct components: deleting one tree edge from
  // each is a pair of independent splits whose replacement searches
  // share one round (each triangle's chord is the candidate).
  forest.preprocess(
      graph::EdgeList{{0, 1}, {1, 2}, {0, 2}, {4, 5}, {5, 6}, {4, 6}});
  const auto tree_before = sorted_tree_edges(forest);
  ASSERT_EQ(tree_before.size(), 4u);
  const std::vector<Update> batch = {
      {UpdateKind::kDelete, tree_before[0].first, tree_before[0].second, 1},
      {UpdateKind::kDelete, tree_before[2].first, tree_before[2].second, 1},
  };
  forest.apply_batch(std::span<const Update>(batch));
  // Replacements re-link both triangles.
  EXPECT_TRUE(forest.connected(0, 2));
  EXPECT_TRUE(forest.connected(4, 6));
  const auto& stats = forest.batch_stats();
  EXPECT_EQ(stats.stages, 1u);
  EXPECT_EQ(stats.batched_tree_deletes, 2u);
  EXPECT_EQ(stats.serial_updates, 0u);
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
}

TEST(BatchScheduler, BatchedTreeDeletionsDisconnectWithoutReplacement) {
  const std::size_t n = 16;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  // Two disjoint paths, no chords: the batched deletions genuinely
  // disconnect their components.
  forest.preprocess(graph::EdgeList{{0, 1}, {1, 2}, {4, 5}, {5, 6}});
  const std::vector<Update> batch = {
      {UpdateKind::kDelete, 0, 1, 1},
      {UpdateKind::kDelete, 5, 6, 1},
  };
  forest.apply_batch(std::span<const Update>(batch));
  EXPECT_FALSE(forest.connected(0, 1));
  EXPECT_TRUE(forest.connected(1, 2));
  EXPECT_TRUE(forest.connected(4, 5));
  EXPECT_FALSE(forest.connected(5, 6));
  EXPECT_EQ(forest.batch_stats().batched_tree_deletes, 2u);
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
}

TEST(BatchScheduler, WeightedTreeDeletionsPickMinWeightReplacement) {
  const std::size_t n = 16;
  // Two weighted triangles; deleting the tree edges must promote each
  // triangle's cheapest crossing chord, matching serial application.
  const graph::WeightedEdgeList initial = {
      {0, 1, 5}, {1, 2, 7}, {0, 2, 50}, {4, 5, 3}, {5, 6, 4}, {4, 6, 40}};
  auto make = [&] {
    auto f = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n, .m_cap = 4 * n, .weighted = true});
    f->preprocess(initial);
    return f;
  };
  auto serial = make();
  serial->erase(0, 1);
  serial->erase(4, 5);

  auto batched = make();
  const std::vector<Update> batch = {
      {UpdateKind::kDelete, 0, 1, 0},
      {UpdateKind::kDelete, 4, 5, 0},
  };
  batched->apply_batch(std::span<const Update>(batch));

  EXPECT_EQ(batched->batch_stats().batched_tree_deletes, 2u);
  EXPECT_EQ(serial->component_snapshot(), batched->component_snapshot());
  EXPECT_EQ(serial->forest_weight(), batched->forest_weight());
  EXPECT_EQ(sorted_tree_edges(*serial), sorted_tree_edges(*batched));
  std::string why;
  EXPECT_TRUE(batched->validate(&why)) << why;
}

TEST(BatchScheduler, MatchesSerialOnDeleteHeavyInterleavedStream) {
  const std::size_t n = 64;
  const auto stream = graph::interleaved_delete_stream(n, 400, 6, 2, 98);

  core::DynamicForest serial({.n = n, .m_cap = 4 * n});
  serial.preprocess(graph::EdgeList{});
  Driver serial_driver(n, DriverConfig{.checkpoint_every = 0});
  serial_driver.add("forest", serial);
  serial_driver.run(stream);

  core::DynamicForest batched({.n = n, .m_cap = 4 * n});
  batched.preprocess(graph::EdgeList{});
  Driver batched_driver(n, DriverConfig{.batch_size = 16,
                                        .checkpoint_every = 2});
  batched_driver.add("forest", batched);
  batched_driver.on_checkpoint(
      harness::components_match_oracle(batched, "forest"));
  EXPECT_NO_THROW(batched_driver.run(stream));

  EXPECT_EQ(serial.component_snapshot(), batched.component_snapshot());
  EXPECT_EQ(sorted_tree_edges(serial).size(),
            sorted_tree_edges(batched).size());
  EXPECT_GT(batched.batch_stats().batched_tree_deletes, 0u);
  std::string why;
  EXPECT_TRUE(batched.validate(&why)) << why;
}

// Equal-weight tie: the cycle rule fires only on a STRICTLY heavier
// path edge, so an insert matching its path max must stay non-tree —
// in a shared path-max round exactly as serially.
TEST(BatchScheduler, EqualWeightTiesInsertAsNontree) {
  const std::size_t n = 16;
  const graph::WeightedEdgeList initial = {
      {0, 1, 5}, {1, 2, 5}, {4, 5, 5}, {5, 6, 5}};
  auto make = [&] {
    auto f = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n, .m_cap = 4 * n, .weighted = true});
    f->preprocess(initial);
    return f;
  };
  auto serial = make();
  serial->insert(0, 2, 5);
  serial->insert(4, 6, 5);

  auto batched = make();
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 0, 2, 5},
      {UpdateKind::kInsert, 4, 6, 5},
  };
  batched->apply_batch(std::span<const Update>(batch));

  EXPECT_EQ(batched->batch_stats().path_max_grouped, 2u);
  EXPECT_EQ(serial->component_snapshot(), batched->component_snapshot());
  EXPECT_EQ(sorted_tree_edges(*serial), sorted_tree_edges(*batched));
  EXPECT_EQ(serial->forest_weight(), batched->forest_weight());
  // No swap: the preprocessed tree survives.
  EXPECT_EQ(sorted_tree_edges(*batched),
            (std::vector<std::pair<dmpc::VertexId, dmpc::VertexId>>{
                {0, 1}, {1, 2}, {4, 5}, {5, 6}}));
  std::string why;
  EXPECT_TRUE(batched->validate(&why)) << why;
}

// Swap-rejected inserts: a new edge heavier than its whole cycle path
// must stay non-tree (the search runs, the swap does not).
TEST(BatchScheduler, SwapRejectedInsertsStayNontree) {
  const std::size_t n = 16;
  const graph::WeightedEdgeList initial = {
      {0, 1, 3}, {1, 2, 4}, {4, 5, 3}, {5, 6, 4}};
  auto make = [&] {
    auto f = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n, .m_cap = 4 * n, .weighted = true});
    f->preprocess(initial);
    return f;
  };
  auto serial = make();
  serial->insert(0, 2, 10);
  serial->insert(4, 6, 10);

  auto batched = make();
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 0, 2, 10},
      {UpdateKind::kInsert, 4, 6, 10},
  };
  batched->apply_batch(std::span<const Update>(batch));

  EXPECT_EQ(batched->batch_stats().path_max_grouped, 2u);
  EXPECT_EQ(serial->component_snapshot(), batched->component_snapshot());
  EXPECT_EQ(sorted_tree_edges(*serial), sorted_tree_edges(*batched));
  EXPECT_EQ(sorted_tree_edges(*batched),
            (std::vector<std::pair<dmpc::VertexId, dmpc::VertexId>>{
                {0, 1}, {1, 2}, {4, 5}, {5, 6}}));
  EXPECT_EQ(serial->forest_weight(), batched->forest_weight());
  std::string why;
  EXPECT_TRUE(batched->validate(&why)) << why;
}

// A grouped swap displacing a tree edge in the MIDDLE of the cycle path
// (not adjacent to either endpoint): the demoted edge must become a
// crossing candidate of its own split and lose the replacement search
// to the lighter inserted edge.
TEST(BatchScheduler, SwapDisplacesMidPathTreeEdge) {
  const std::size_t n = 16;
  const graph::WeightedEdgeList initial = {{0, 1, 1},  {1, 2, 9},
                                           {2, 3, 1},  {12, 13, 1},
                                           {13, 14, 9}, {14, 15, 1}};
  auto make = [&] {
    auto f = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n, .m_cap = 4 * n, .weighted = true});
    f->preprocess(initial);
    return f;
  };
  auto serial = make();
  serial->insert(0, 3, 2);
  serial->insert(12, 15, 2);

  auto batched = make();
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 0, 3, 2},
      {UpdateKind::kInsert, 12, 15, 2},
  };
  batched->apply_batch(std::span<const Update>(batch));

  EXPECT_EQ(batched->batch_stats().path_max_grouped, 2u);
  EXPECT_EQ(serial->component_snapshot(), batched->component_snapshot());
  EXPECT_EQ(sorted_tree_edges(*serial), sorted_tree_edges(*batched));
  // The mid-path 9-weight edges were displaced by the new 2-weight ones.
  EXPECT_EQ(sorted_tree_edges(*batched),
            (std::vector<std::pair<dmpc::VertexId, dmpc::VertexId>>{
                {0, 1}, {0, 3}, {2, 3}, {12, 13}, {12, 15}, {14, 15}}));
  EXPECT_EQ(serial->forest_weight(), batched->forest_weight());
  EXPECT_EQ(batched->forest_weight(), 2 * (1 + 1 + 2));
  std::string why;
  EXPECT_TRUE(batched->validate(&why)) << why;
}

// Two cycle-rule inserts in the SAME component that both want to swap:
// only the earlier batch position may commit; the later one must be
// deferred and re-planned against the committed tree, matching serial
// application exactly.
TEST(BatchScheduler, SameComponentSwapsDeferAndMatchSerial) {
  const std::size_t n = 16;
  const graph::WeightedEdgeList initial = {{0, 1, 9}, {1, 2, 9}, {2, 3, 9}};
  auto make = [&] {
    auto f = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n, .m_cap = 4 * n, .weighted = true});
    f->preprocess(initial);
    return f;
  };
  auto serial = make();
  serial->insert(0, 2, 1);
  serial->insert(1, 3, 1);

  auto batched = make();
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 0, 2, 1},
      {UpdateKind::kInsert, 1, 3, 1},
  };
  batched->apply_batch(std::span<const Update>(batch));

  EXPECT_EQ(serial->component_snapshot(), batched->component_snapshot());
  EXPECT_EQ(sorted_tree_edges(*serial), sorted_tree_edges(*batched));
  EXPECT_EQ(serial->forest_weight(), batched->forest_weight());
  std::string why;
  EXPECT_TRUE(batched->validate(&why)) << why;
}

// Regression: a later cycle-rule insert must not overtake an EARLIER
// same-component pending insert (e.g. one held back by a coordinator
// collision) and commit a swap the earlier update should have observed.
// The plan-time ordering check treats a path-max read claim as a
// potential write, so the later insert waits.  Found by review: with
// read-read overtaking allowed, this batch promoted edge (5,6) where
// serial replay keeps (1,6).
TEST(BatchScheduler, SwapCannotOvertakeEarlierPendingSameComponentInsert) {
  const std::size_t n = 12;
  const graph::WeightedEdgeList initial = {{0, 1, 3}, {1, 2, 1}, {1, 3, 5},
                                           {1, 4, 4}, {3, 5, 2}, {1, 6, 2},
                                           {1, 7, 2}};
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 7, 2, 3}, {UpdateKind::kInsert, 7, 6, 5},
      {UpdateKind::kInsert, 2, 3, 1}, {UpdateKind::kInsert, 6, 5, 2},
      {UpdateKind::kInsert, 1, 4, 4}, {UpdateKind::kInsert, 6, 3, 2},
  };
  core::DynamicForest serial({.n = n, .m_cap = 8 * n, .weighted = true});
  serial.preprocess(initial);
  for (const Update& up : batch) serial.insert(up.u, up.v, up.w);

  core::DynamicForest batched({.n = n, .m_cap = 8 * n, .weighted = true});
  batched.preprocess(initial);
  batched.apply_batch(std::span<const Update>(batch));

  EXPECT_EQ(serial.component_snapshot(), batched.component_snapshot());
  EXPECT_EQ(sorted_tree_edges(serial), sorted_tree_edges(batched));
  EXPECT_EQ(serial.forest_weight(), batched.forest_weight());
  std::string why;
  EXPECT_TRUE(batched.validate(&why)) << why;
}

/// Applies `batch` to two weighted forests preprocessed from `initial`,
/// one update at a time and as one apply_batch, and expects identical
/// components, tree edges and forest weight.  Returns the batched forest
/// for stage-shape checks.
std::unique_ptr<core::DynamicForest> expect_batch_matches_serial(
    std::size_t n, const graph::WeightedEdgeList& initial,
    const std::vector<Update>& batch) {
  const core::DynForestConfig config{.n = n, .m_cap = 4 * n, .weighted = true};
  core::DynamicForest serial(config);
  serial.preprocess(initial);
  for (const Update& up : batch) {
    if (up.kind == UpdateKind::kInsert) {
      serial.insert(up.u, up.v, up.w);
    } else {
      serial.erase(up.u, up.v);
    }
  }
  auto batched = std::make_unique<core::DynamicForest>(config);
  batched->preprocess(initial);
  batched->apply_batch(std::span<const Update>(batch));
  EXPECT_EQ(serial.component_snapshot(), batched->component_snapshot());
  EXPECT_EQ(sorted_tree_edges(serial), sorted_tree_edges(*batched));
  EXPECT_EQ(serial.forest_weight(), batched->forest_weight());
  std::string why;
  EXPECT_TRUE(batched->validate(&why)) << why;
  return batched;
}

// A tree deletion in one component, a committing cycle-rule swap in a
// second and a merge of two more share ONE stage: the swap is just one
// more cut of the k-way split, re-linked by the same cascade.
TEST(BatchScheduler, SwapDeletionAndMergeShareOneStage) {
  const graph::WeightedEdgeList initial = {
      {0, 1, 1}, {1, 2, 2},  {0, 2, 50},  // A: chord (0,2) is non-tree
      {4, 5, 1}, {5, 6, 9},  {6, 7, 1},   // B
      {8, 9, 3}, {10, 11, 4},             // C, D
  };
  const std::vector<Update> batch = {
      {UpdateKind::kDelete, 0, 1, 0},   // A: chord replaces it
      {UpdateKind::kInsert, 4, 7, 2},   // B: displaces (5,6)
      {UpdateKind::kInsert, 9, 10, 5},  // merges C and D
  };
  const auto batched = expect_batch_matches_serial(16, initial, batch);
  EXPECT_EQ(sorted_tree_edges(*batched),
            (std::vector<std::pair<dmpc::VertexId, dmpc::VertexId>>{
                {0, 2}, {1, 2}, {4, 5}, {4, 7}, {6, 7}, {8, 9}, {9, 10},
                {10, 11}}));
  const auto& stats = batched->batch_stats();
  EXPECT_EQ(stats.stages, 1u);
  EXPECT_EQ(stats.path_max_grouped, 1u);
  EXPECT_EQ(stats.deferred_updates, 0u);
  EXPECT_EQ(stats.kway_splits, 2u);
  EXPECT_EQ(stats.cascade_links, 2u);
}

// The swap's replacement search is the full cut rule: a lighter
// pre-existing non-tree edge beats the inserted edge.  (The (1+eps)
// bucketing is what lets the lighter chord (1,3) sit outside the tree:
// weights 38 and 40 share a bucket, and (1,2) came first.)
TEST(BatchScheduler, SwapPromotesLighterExistingNontreeEdge) {
  const graph::WeightedEdgeList initial = {
      {0, 1, 1}, {2, 3, 1}, {1, 2, 40}, {1, 3, 38}};
  const std::vector<Update> batch = {{UpdateKind::kInsert, 0, 3, 39}};
  const auto batched = expect_batch_matches_serial(8, initial, batch);
  EXPECT_EQ(sorted_tree_edges(*batched),
            (std::vector<std::pair<dmpc::VertexId, dmpc::VertexId>>{
                {0, 1}, {1, 3}, {2, 3}}));
  EXPECT_EQ(batched->batch_stats().stages, 1u);
  EXPECT_EQ(batched->batch_stats().cascade_links, 1u);
}

// Three cycle-rule inserts in one component: a non-swapping insert, a
// swap, and a third insert.  The first two commit in stage 1 — the
// first one's record is stored before the swap's replacement scan, so
// it competes there as it does serially — and the third, which probed
// the pre-swap tree, defers to stage 2 (where it swaps in turn).
TEST(BatchScheduler, InsertsBehindSameComponentSwapDefer) {
  const graph::WeightedEdgeList initial = {
      {0, 1, 1}, {1, 2, 30}, {2, 3, 1}, {3, 4, 1}};
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 0, 2, 35},  // path max 30: stays non-tree
      {UpdateKind::kInsert, 0, 3, 5},   // displaces (1,2)
      {UpdateKind::kInsert, 1, 4, 3},   // deferred; then displaces (0,3)
  };
  const auto batched = expect_batch_matches_serial(8, initial, batch);
  EXPECT_EQ(sorted_tree_edges(*batched),
            (std::vector<std::pair<dmpc::VertexId, dmpc::VertexId>>{
                {0, 1}, {1, 4}, {2, 3}, {3, 4}}));
  const auto& stats = batched->batch_stats();
  EXPECT_EQ(stats.stages, 2u);
  EXPECT_EQ(stats.deferred_updates, 1u);
  EXPECT_EQ(stats.path_max_grouped, 3u);
  EXPECT_EQ(stats.cascade_links, 2u);
}

TEST(ApplyBatch, HandlesNoopsAndNontreeOps) {
  const std::size_t n = 16;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{{0, 1}, {1, 2}, {0, 2}, {4, 5}});
  // Non-tree insert (3-cycle chord deletion + re-insert), a duplicate
  // insert, and an absent delete, all in one batch.
  const std::vector<Update> batch = {
      {UpdateKind::kDelete, 0, 2, 1},  // non-tree delete in comp {0,1,2}
      {UpdateKind::kInsert, 4, 5, 1},  // duplicate -> no-op
      {UpdateKind::kDelete, 8, 9, 1},  // absent -> no-op
      {UpdateKind::kInsert, 6, 7, 1},  // independent merge
  };
  forest.apply_batch(std::span<const Update>(batch));
  EXPECT_TRUE(forest.connected(0, 2));  // still connected through the tree
  EXPECT_TRUE(forest.connected(6, 7));
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
}

TEST(DriverBatching, ReportsPerBatchStatsForBothModes) {
  const std::size_t n = 32;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{});
  core::MaximalMatching mm({.n = n, .m_cap = 4 * n});
  mm.preprocess({});
  Driver driver(n, DriverConfig{.batch_size = 4, .checkpoint_every = 0});
  driver.add("forest", forest);
  driver.add("mm", mm);
  const auto stream = test_util::make_stream(test_util::StreamKind::kRandom,
                                             n, 60, 17);
  const auto& report = driver.run(stream);
  ASSERT_GT(report.batches, 1u);

  const auto* fs = report.find("forest");
  ASSERT_NE(fs, nullptr);
  EXPECT_TRUE(fs->batched);
  // Batched algorithms have no per-update records, only per-batch ones.
  EXPECT_EQ(fs->agg.updates, 0u);
  EXPECT_EQ(fs->batch_agg.updates, report.batches);
  EXPECT_GT(fs->batch_agg.total_rounds, 0u);

  const auto* ms = report.find("mm");
  ASSERT_NE(ms, nullptr);
  EXPECT_FALSE(ms->batched);
  EXPECT_EQ(ms->agg.updates, report.applied);
  EXPECT_EQ(ms->batch_agg.updates, report.batches);
  // Per-batch rounds of a serial algorithm are the sum of its per-update
  // rounds, so the two aggregates must agree on totals.
  EXPECT_EQ(ms->batch_agg.total_rounds, ms->agg.total_rounds);
  EXPECT_EQ(ms->batch_agg.total_comm_words, ms->agg.total_comm_words);
}

TEST(DriverBatching, OracleCheckpointsPassOnBatchedBridgeAdversary) {
  const std::size_t n = 32;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{});
  Driver driver(n, DriverConfig{.batch_size = 6, .checkpoint_every = 1});
  driver.add("forest", forest);
  driver.on_checkpoint(harness::components_match_oracle(forest, "forest"));
  const auto stream = test_util::make_stream(
      test_util::StreamKind::kBridgeAdversary, n, 200, 19);
  EXPECT_NO_THROW(driver.run(stream));
  EXPECT_GT(driver.report().checkpoints, 5u);
}

}  // namespace
