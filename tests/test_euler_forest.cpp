// Property tests for the sequential reference Euler-tour forest: random
// link/cut sequences stay structurally valid and agree with a DSU/BFS
// connectivity oracle.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "etour/euler_forest.hpp"
#include "etour/tour_builder.hpp"
#include "graph/graph.hpp"
#include "oracle/oracles.hpp"

namespace {

using etour::EulerForest;
using graph::DynamicGraph;
using graph::VertexId;

TEST(EulerForestBasic, SingletonsStartDisconnected) {
  EulerForest forest(4);
  EXPECT_FALSE(forest.connected(0, 1));
  EXPECT_EQ(forest.component_size(0), 1);
  EXPECT_EQ(forest.first_index(0), etour::kNoIndex);
  EXPECT_TRUE(forest.validate());
}

TEST(EulerForestBasic, LinkTwoSingletons) {
  EulerForest forest(4);
  forest.link(0, 1);
  EXPECT_TRUE(forest.connected(0, 1));
  EXPECT_EQ(forest.component_size(0), 2);
  // Tour [0,1,1,0]: 0 at {1,4}, 1 at {2,3}.
  EXPECT_EQ(forest.tour(0), (std::vector<VertexId>{0, 1, 1, 0}));
  EXPECT_TRUE(forest.validate());
}

TEST(EulerForestBasic, CutBackToSingletons) {
  EulerForest forest(4);
  forest.link(0, 1);
  forest.cut(0, 1, 77);
  EXPECT_FALSE(forest.connected(0, 1));
  EXPECT_EQ(forest.component_size(0), 1);
  EXPECT_EQ(forest.component_size(1), 1);
  EXPECT_TRUE(forest.validate());
}

TEST(EulerForestBasic, LinkRejectsSameComponent) {
  EulerForest forest(3);
  forest.link(0, 1);
  EXPECT_THROW(forest.link(1, 0), std::logic_error);
}

TEST(EulerForestBasic, CutRejectsNonTreeEdge) {
  EulerForest forest(3);
  forest.link(0, 1);
  EXPECT_THROW(forest.cut(0, 2, 9), std::logic_error);
}

TEST(EulerForestBasic, PathLinkChain) {
  EulerForest forest(8);
  for (VertexId v = 0; v + 1 < 8; ++v) forest.link(v, v + 1);
  EXPECT_EQ(forest.component_size(0), 8);
  EXPECT_TRUE(forest.validate());
  for (VertexId v = 0; v + 1 < 8; ++v) EXPECT_TRUE(forest.connected(0, v));
}

TEST(EulerForestBasic, StarLinks) {
  EulerForest forest(10);
  for (VertexId v = 1; v < 10; ++v) forest.link(0, v);
  EXPECT_EQ(forest.component_size(0), 10);
  EXPECT_TRUE(forest.validate());
  // Cutting a leaf detaches exactly that leaf.
  forest.cut(0, 5, 55);
  EXPECT_FALSE(forest.connected(0, 5));
  EXPECT_EQ(forest.component_size(5), 1);
  EXPECT_EQ(forest.component_size(0), 9);
  EXPECT_TRUE(forest.validate());
}

TEST(EulerForestBasic, RerootIsIdempotentOnRoot) {
  EulerForest forest(5);
  forest.link(0, 1);
  forest.link(1, 2);
  const auto before = forest.tour(0);
  // The root of the tour is its first entry; re-rooting there must not
  // change anything.
  forest.reroot(before.front());
  EXPECT_EQ(forest.tour(0), before);
  EXPECT_TRUE(forest.validate());
}

TEST(EulerForestBasic, RerootPreservesTreeEdges) {
  EulerForest forest(6);
  forest.link(0, 1);
  forest.link(1, 2);
  forest.link(2, 3);
  forest.link(1, 4);
  const auto edges_before = forest.tree_edges();
  forest.reroot(3);
  EXPECT_TRUE(forest.validate());
  EXPECT_EQ(forest.first_index(3), 1);
  // Same edge set, new indexes.
  ASSERT_EQ(forest.tree_edges().size(), edges_before.size());
  for (const auto& [key, idx] : edges_before) {
    EXPECT_TRUE(forest.is_tree_edge(key.u, key.v));
  }
}

TEST(TourBuilder, BuildsCanonicalTour) {
  // Tree: 0-1, 1-2, 0-3 rooted at 0 -> [0,1,1,2,2,1,1,0,0,3,3,0].
  std::vector<std::vector<VertexId>> adj(4);
  adj[0] = {1, 3};
  adj[1] = {0, 2};
  adj[2] = {1};
  adj[3] = {0};
  const auto tour = etour::build_tour(adj, 0);
  EXPECT_EQ(tour,
            (std::vector<VertexId>{0, 1, 1, 2, 2, 1, 1, 0, 0, 3, 3, 0}));
  // And the parser accepts what the builder produces.
  const auto idx = etour::indexes_from_tour(tour);
  EXPECT_EQ(idx.size(), 3u);
}

TEST(TourBuilder, SingletonTourIsEmpty) {
  std::vector<std::vector<VertexId>> adj(1);
  EXPECT_TRUE(etour::build_tour(adj, 0).empty());
}

TEST(TourBuilder, RejectsBrokenWalk) {
  EXPECT_THROW(etour::indexes_from_tour({0, 1, 2, 0}),
               std::invalid_argument);
}

// Every malformed-tour throw, with its reason.
TEST(TourBuilder, RejectsEachMalformedTour) {
  const std::vector<std::pair<std::vector<VertexId>, std::string>> cases = {
      {{0, 1, 1}, "tour length must be a multiple of 4"},
      {{0, 1, 1, 2}, "tour must start and end at the root"},
      {{0, 1, 2, 0}, "tour is not a closed walk"},
      {{0, 1, 1, 1, 1, 1, 1, 0}, "self-loop traversal in tour"},
      // (0,1) is walked four times.
      {{0, 1, 1, 0, 0, 1, 1, 0}, "edge not traversed exactly twice"},
      // Twice around the triangle 0-1-2: each edge walked twice, but both
      // times the same way, as no tree's tour walks one.
      {{0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2, 0}, "unbalanced edge traversals"},
  };
  for (const auto& [tour, reason] : cases) {
    try {
      (void)etour::indexes_from_tour(tour);
      ADD_FAILURE() << "accepted; want: " << reason;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), reason);
    }
  }
}

class EulerForestRandomTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EulerForestRandomTest, RandomLinkCutAgreesWithOracle) {
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  const std::size_t n = 24;
  EulerForest forest(n);
  DynamicGraph shadow(n);  // holds exactly the current tree edges
  std::vector<std::pair<VertexId, VertexId>> tree_edges;

  std::uniform_int_distribution<VertexId> pick(0,
                                               static_cast<VertexId>(n) - 1);
  for (int step = 0; step < 300; ++step) {
    const bool do_link = tree_edges.empty() || (rng() % 100 < 55);
    if (do_link) {
      const VertexId u = pick(rng);
      const VertexId v = pick(rng);
      if (u == v || forest.connected(u, v)) continue;
      forest.link(u, v);
      shadow.insert_edge(u, v);
      tree_edges.emplace_back(u, v);
    } else {
      std::uniform_int_distribution<std::size_t> pe(0, tree_edges.size() - 1);
      const std::size_t i = pe(rng);
      auto [u, v] = tree_edges[i];
      forest.cut(u, v, static_cast<etour::Word>(1000 + step));
      shadow.delete_edge(u, v);
      tree_edges[i] = tree_edges.back();
      tree_edges.pop_back();
    }
    std::string why;
    ASSERT_TRUE(forest.validate(&why)) << "step " << step << ": " << why;
    const auto labels = oracle::connected_components(shadow);
    for (std::size_t a = 0; a < n; a += 3) {
      for (std::size_t b = a + 1; b < n; b += 5) {
        ASSERT_EQ(forest.connected(static_cast<VertexId>(a),
                                   static_cast<VertexId>(b)),
                  labels[a] == labels[b])
            << "step " << step << " pair (" << a << "," << b << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EulerForestRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(EulerForestRandom, RepeatedRerootStaysValid) {
  std::mt19937_64 rng(99);
  EulerForest forest(16);
  for (VertexId v = 1; v < 16; ++v) {
    forest.link(static_cast<VertexId>(rng() % v), v);
  }
  for (int i = 0; i < 50; ++i) {
    forest.reroot(static_cast<VertexId>(rng() % 16));
    std::string why;
    ASSERT_TRUE(forest.validate(&why)) << why;
  }
}

}  // namespace
