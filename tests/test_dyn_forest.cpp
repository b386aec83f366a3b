// Integration and property tests for the distributed dynamic
// connectivity / (1+eps)-MST algorithm (paper, Sections 5 and 5.1).
//
// Every test maintains a shadow DynamicGraph and checks after each update:
//  * component labels equal the oracle's,
//  * the distributed E-tour invariants hold (DynamicForest::validate),
//  * the Table 1 complexity bounds hold: O(1) rounds per update, and
//    communication within the O(sqrt N) machine-count regime.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dyn_forest.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "oracle/oracles.hpp"
#include "test_util.hpp"

namespace core {

// Test-only access to a forest's stored records (the friend declared in
// dyn_forest.hpp), so the validate() rejection suite can corrupt one
// invariant at a time.  The suite edits only records the pending log has
// not moved, so a stored value is the value validate() reads; each
// accessor checks that.
struct DynamicForestTestAccess {
  using EdgeRec = DynamicForest::EdgeRec;
  using VertexRec = DynamicForest::VertexRec;

  static EdgeRec edge(const DynamicForest& f, VertexId u, VertexId v) {
    const MachineId m = f.edge_machine(u, v);
    const auto s = static_cast<std::size_t>(
        f.machines_[m].edges.find(f.edge_key(u, v)));
    const EdgeRec stored = f.machines_[m].edges.get(s);
    const EdgeRec current = f.current_edge(m, s);
    EXPECT_TRUE(stored.comp == current.comp && stored.iu1 == current.iu1 &&
                stored.iu2 == current.iu2 && stored.iv1 == current.iv1 &&
                stored.iv2 == current.iv2)
        << "edge (" << u << "," << v << ") was moved by the pending log";
    return stored;
  }
  // Overwrites the record stored under edge (u, v)'s key.
  static void set_edge(DynamicForest& f, VertexId u, VertexId v,
                       const EdgeRec& r) {
    const MachineId m = f.edge_machine(u, v);
    DynamicForest::EdgeShard& es = f.machines_[m].edges;
    const auto s = static_cast<std::size_t>(es.find(f.edge_key(u, v)));
    es.u[s] = r.u;
    es.v[s] = r.v;
    es.comp[s] = r.comp;
    es.tree[s] = r.tree ? 1 : 0;
    es.iu1[s] = r.iu1;
    es.iu2[s] = r.iu2;
    es.iv1[s] = r.iv1;
    es.iv2[s] = r.iv2;
  }
  static VertexRec& vertex(DynamicForest& f, VertexId v) {
    VertexRec& stored =
        f.machines_[f.vertex_machine(v)].vertices[f.vertex_slot(v)];
    const VertexRec current = f.current_vertex(v);
    EXPECT_TRUE(stored.comp == current.comp &&
                stored.cached_idx == current.cached_idx)
        << "vertex " << v << " was moved by the pending log";
    return stored;
  }
  // v's current component (the pending log may have moved it).
  static Word comp(const DynamicForest& f, VertexId v) {
    return f.current_vertex(v).comp;
  }
  // The directory shard that holds component comp's size.
  static std::unordered_map<Word, Word>& directory(DynamicForest& f,
                                                   Word comp) {
    return f.machines_[f.dir_machine(comp)].comp_sizes;
  }
  static bool log_empty(const DynamicForest& f) { return f.pending_.empty(); }
};

}  // namespace core

namespace {

using core::DynamicForest;
using core::DynForestConfig;
using graph::DynamicGraph;
using graph::Update;
using graph::UpdateKind;
using graph::VertexId;
using graph::WeightedDynamicGraph;

// Worst-case rounds any single update is allowed to take.  An update is
// a one-update k-way stage with a bounded constant number of rounds
// (scatter, directory, cascade, commit; the MST cycle rule adds the
// path-max rounds), so 40 is a safe constant that does not grow with N.
constexpr std::uint64_t kRoundCap = 40;

void expect_components_match(const DynamicForest& forest,
                             const DynamicGraph& shadow,
                             const std::string& where) {
  const auto got = forest.component_snapshot();
  const auto want = oracle::connected_components(shadow);
  ASSERT_EQ(got, want) << where;
}

TEST(DynForestBasic, EmptyGraphIsAllSingletons) {
  DynamicForest forest({.n = 8, .m_cap = 16});
  forest.preprocess(graph::EdgeList{});
  const auto labels = forest.component_snapshot();
  for (std::size_t v = 0; v < 8; ++v) {
    EXPECT_EQ(labels[v], static_cast<VertexId>(v));
  }
  EXPECT_TRUE(forest.validate());
}

TEST(DynForestBasic, PreprocessArbitraryGraph) {
  const auto edges = graph::gnm(40, 80, 3);
  DynamicForest forest({.n = 40, .m_cap = 200});
  forest.preprocess(edges);
  DynamicGraph shadow(40);
  for (auto [u, v] : edges) shadow.insert_edge(u, v);
  expect_components_match(forest, shadow, "after preprocess");
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
}

// A malformed edge list — a repeated edge in either orientation, a
// self-loop, an endpoint outside [0, n) — throws before any state
// changes, so the forest is still the valid all-singletons start.
TEST(DynForestBasic, PreprocessRejectsMalformedEdgeLists) {
  const std::vector<graph::EdgeList> malformed = {
      {{0, 1}, {0, 1}}, {{0, 1}, {1, 0}}, {{2, 2}}, {{0, 9}}};
  for (const graph::EdgeList& edges : malformed) {
    DynamicForest forest({.n = 8, .m_cap = 16});
    EXPECT_THROW(forest.preprocess(edges), std::invalid_argument);
    std::string why;
    EXPECT_TRUE(forest.validate(&why)) << why;
    const auto labels = forest.component_snapshot();
    for (std::size_t v = 0; v < 8; ++v) {
      EXPECT_EQ(labels[v], static_cast<VertexId>(v));
    }
  }
}

TEST(DynForestBasic, InsertLinksComponents) {
  DynamicForest forest({.n = 4, .m_cap = 8});
  forest.preprocess(graph::EdgeList{});
  forest.insert(0, 1);
  forest.insert(2, 3);
  EXPECT_TRUE(forest.connected(0, 1));
  EXPECT_FALSE(forest.connected(1, 2));
  forest.insert(1, 2);
  EXPECT_TRUE(forest.connected(0, 3));
  EXPECT_TRUE(forest.validate());
}

TEST(DynForestBasic, DeleteTreeEdgeUsesReplacement) {
  // Cycle: deleting one edge must keep everything connected via the
  // replacement search.
  DynamicForest forest({.n = 6, .m_cap = 12});
  forest.preprocess(graph::cycle(6));
  forest.erase(0, 1);
  EXPECT_TRUE(forest.connected(0, 1));
  EXPECT_TRUE(forest.validate());
  // A second deletion on the now-path graph disconnects it.
  forest.erase(3, 4);
  EXPECT_FALSE(forest.connected(3, 4));
  EXPECT_TRUE(forest.validate());
}

TEST(DynForestBasic, DuplicateInsertAndMissingDeleteAreNoOps) {
  DynamicForest forest({.n = 4, .m_cap = 8});
  forest.preprocess(graph::path(4));
  forest.insert(0, 1);  // already present
  forest.erase(0, 3);   // absent
  DynamicGraph shadow(4);
  for (auto [u, v] : graph::path(4)) shadow.insert_edge(u, v);
  expect_components_match(forest, shadow, "after no-ops");
  EXPECT_TRUE(forest.validate());
}

TEST(DynForestBasic, StarCenterDeletions) {
  // The star stresses a single heavy vertex whose edges spread over many
  // machines.
  DynamicForest forest({.n = 32, .m_cap = 64});
  forest.preprocess(graph::star(32));
  DynamicGraph shadow(32);
  for (auto [u, v] : graph::star(32)) shadow.insert_edge(u, v);
  for (VertexId v = 1; v < 32; v += 2) {
    forest.erase(0, v);
    shadow.delete_edge(0, v);
    std::string why;
    ASSERT_TRUE(forest.validate(&why)) << "leaf " << v << ": " << why;
  }
  expect_components_match(forest, shadow, "after star deletions");
}

struct StreamCase {
  const char* name;
  std::size_t n;
  graph::UpdateStream stream;
};

class DynForestStreamTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(DynForestStreamTest, AgreesWithOracleThroughout) {
  const auto [kind, seed] = GetParam();
  const std::size_t n = 28;
  const auto stream = test_util::make_stream(
      std::array{test_util::StreamKind::kRandom,
                 test_util::StreamKind::kSlidingWindow,
                 test_util::StreamKind::kBridgeAdversary}[kind],
      n, 220, seed);
  DynamicForest forest({.n = n, .m_cap = 600});
  forest.preprocess(graph::EdgeList{});
  const auto shadow = test_util::replay(
      n, stream,
      [&](const Update& up, const DynamicGraph& sh, std::size_t step) {
        test_util::apply(forest, up);
        const auto& last = forest.cluster().metrics().last_update();
        ASSERT_LE(last.rounds, kRoundCap) << "update " << step;
        if (step % 10 == 0) {
          std::string why;
          ASSERT_TRUE(forest.validate(&why))
              << "update " << step << ": " << why;
          expect_components_match(forest, sh, "update " + std::to_string(step));
        }
      });
  std::string why;
  ASSERT_TRUE(forest.validate(&why)) << why;
  expect_components_match(forest, shadow, "final");
}

INSTANTIATE_TEST_SUITE_P(
    Streams, DynForestStreamTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1u, 2u, 3u)));

TEST(DynForestBounds, RoundsStayConstantAcrossSizes) {
  // The Table 1 "O(1) rounds" column: worst-case rounds per update must
  // not grow with N.
  std::uint64_t worst_small = 0, worst_large = 0;
  for (const std::size_t n : {64u, 1024u}) {
    DynamicForest forest({.n = n, .m_cap = 4 * n});
    forest.preprocess(graph::cycle(n));
    forest.cluster().metrics().reset();
    test_util::drive(forest, graph::bridge_adversary_stream(n, 120, n / 4, 5));
    const auto worst = forest.cluster().metrics().aggregate().worst_rounds;
    (n == 64 ? worst_small : worst_large) = worst;
  }
  EXPECT_LE(worst_large, kRoundCap);
  // Constant across a 16x size change (allowing for which code paths the
  // streams happen to hit).
  EXPECT_LE(worst_large, worst_small + 4);
}

TEST(DynForestBounds, MemoryFitsInMachineCap) {
  const std::size_t n = 256;
  const auto edges = graph::gnm(n, 3 * n, 9);
  DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(edges);
  // No machine ever exceeded its O(sqrt N) capacity (charge() would have
  // thrown), and the high-water mark is genuinely sublinear.
  const auto hw = forest.cluster().max_memory_high_water();
  EXPECT_LE(hw, forest.cluster().machine_capacity());
  EXPECT_LT(hw, static_cast<dmpc::WordCount>(n + 4 * n));  // << N words
}

TEST(DynMstBasic, MaintainsExactMsfWeightWithTinyEps) {
  // With distinct weights and eps small enough that every weight lands in
  // its own bucket, the maintained forest must be the exact MSF.
  const std::size_t n = 24;
  auto wedges = graph::with_random_weights(graph::cycle(n), 1000, 13);
  DynamicForest forest({.n = n, .m_cap = 200, .weighted = true, .eps = 1e-9});
  forest.preprocess(wedges);
  WeightedDynamicGraph shadow(n);
  for (const auto& e : wedges) shadow.insert_edge(e.u, e.v, e.w);
  EXPECT_EQ(forest.forest_weight(), oracle::msf_weight(shadow));
  // The cycle rule: inserting a light chord displaces the heaviest cycle
  // edge.
  forest.insert(0, n / 2, 1);
  shadow.insert_edge(0, n / 2, 1);
  EXPECT_EQ(forest.forest_weight(), oracle::msf_weight(shadow));
  EXPECT_TRUE(forest.validate());
}

class DynMstRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynMstRandomTest, TracksExactMsfUnderUpdates) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 20;
  DynamicForest forest({.n = n, .m_cap = 500, .weighted = true, .eps = 1e-9});
  forest.preprocess(graph::WeightedEdgeList{});
  WeightedDynamicGraph shadow(n);
  auto stream = graph::random_stream(n, 160, 0.65, seed, /*weighted=*/true);
  std::size_t step = 0;
  for (const Update& up : stream) {
    if (up.kind == UpdateKind::kInsert) {
      forest.insert(up.u, up.v, up.w);
      shadow.insert_edge(up.u, up.v, up.w);
    } else {
      forest.erase(up.u, up.v);
      shadow.delete_edge(up.u, up.v);
    }
    ASSERT_EQ(forest.forest_weight(), oracle::msf_weight(shadow))
        << "step " << step;
    if (step % 10 == 0) {
      std::string why;
      ASSERT_TRUE(forest.validate(&why)) << "step " << step << ": " << why;
    }
    ++step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynMstRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(DynMstApprox, BucketedPreprocessingWithinOnePlusEps) {
  const std::size_t n = 60;
  const double eps = 0.25;
  auto wedges = graph::with_random_weights(graph::gnm(n, 180, 7), 5000, 7);
  DynamicForest forest({.n = n, .m_cap = 400, .weighted = true, .eps = eps});
  forest.preprocess(wedges);
  WeightedDynamicGraph shadow(n);
  for (const auto& e : wedges) shadow.insert_edge(e.u, e.v, e.w);
  const auto exact = oracle::msf_weight(shadow);
  const auto approx = forest.forest_weight();
  EXPECT_GE(approx, exact);
  EXPECT_LE(static_cast<double>(approx),
            (1.0 + eps) * static_cast<double>(exact) + 1e-9);
}

// --- validate() rejects each broken invariant --------------------------

// A singleton 0, a path A = 1-2-3-4, a path B = 5-6-7-8 (rooted at 5, so
// its tour is 5 6 6 7 7 8 8 7 7 6 6 5) with the non-tree chord (5,7), an
// edge C = 9-10 rooted at 9, and singletons 11..15.  With `pending`, a
// batch then splits A at (2,3) and joins both halves to singletons, which
// leaves the pending log non-empty.  B, C and the singletons keep their
// base records either way.
std::unique_ptr<DynamicForest> rejection_forest(bool pending) {
  auto forest =
      std::make_unique<DynamicForest>(DynForestConfig{.n = 16, .m_cap = 32});
  forest->preprocess(graph::EdgeList{
      {1, 2}, {2, 3}, {3, 4}, {5, 6}, {6, 7}, {7, 8}, {5, 7}, {9, 10}});
  if (pending) {
    const std::vector<Update> batch = {{UpdateKind::kDelete, 2, 3},
                                       {UpdateKind::kInsert, 4, 11},
                                       {UpdateKind::kInsert, 1, 12}};
    forest->apply_batch(std::span<const Update>(batch));
  }
  return forest;
}

using Access = core::DynamicForestTestAccess;

// One corruption: breaks one invariant of a rejection_forest and returns
// the reason validate() must give.
struct Corruption {
  const char* name;
  std::function<std::string(DynamicForest&)> apply;
};

// B's tour has 4(|B| - 1) = 12 entries.
constexpr dmpc::Word kTourB = 12;
const std::array<std::pair<VertexId, VertexId>, 3> kTreeB = {
    {{5, 6}, {6, 7}, {7, 8}}};

std::vector<Corruption> corruptions() {
  return {
      {"directory entry missing",
       [](DynamicForest& f) {
         const dmpc::Word c = Access::comp(f, 4);
         Access::directory(f, c).erase(c);
         return std::string("missing directory entry");
       }},
      {"directory size wrong",
       [](DynamicForest& f) {
         const dmpc::Word c = Access::comp(f, 4);
         ++Access::directory(f, c).at(c);
         return "directory size mismatch for component " + std::to_string(c);
       }},
      {"singleton with tree edges",
       [](DynamicForest& f) {
         // Singleton 0's id is the smallest, so its check runs first.
         auto r = Access::edge(f, 9, 10);
         r.comp = Access::comp(f, 0);
         Access::set_edge(f, 9, 10, r);
         return std::string("singleton with tree edges");
       }},
      {"singleton with a cached index",
       [](DynamicForest& f) {
         Access::vertex(f, 15).cached_idx = 1;
         return std::string("singleton with a cached tour index");
       }},
      {"component without tree edges",
       [](DynamicForest& f) {
         auto r = Access::edge(f, 9, 10);
         r.comp = dmpc::Word{1} << 40;  // names no component
         Access::set_edge(f, 9, 10, r);
         return std::string("component without tree edges");
       }},
      {"index out of range",
       [](DynamicForest& f) {
         auto r = Access::edge(f, 6, 7);
         r.iu1 = kTourB + 1;
         Access::set_edge(f, 6, 7, r);
         return std::string("tour index out of range");
       }},
      {"index duplicated",
       [](DynamicForest& f) {
         auto r = Access::edge(f, 6, 7);
         r.iu2 = r.iu1;
         Access::set_edge(f, 6, 7, r);
         return std::string("duplicate tour index");
       }},
      {"tour incomplete",
       [](DynamicForest& f) {
         auto r = Access::edge(f, 7, 8);
         r.tree = false;
         Access::set_edge(f, 7, 8, r);
         return "tour incomplete for component " +
                std::to_string(Access::comp(f, 5));
       }},
      {"tour not closed",
       [](DynamicForest& f) {
         // Reverse the last traversal: the tour now ends off the root.
         for (auto [u, v] : kTreeB) {
           auto r = Access::edge(f, u, v);
           if (r.iu1 == kTourB || r.iv1 == kTourB) std::swap(r.iu1, r.iv1);
           if (r.iu2 == kTourB || r.iv2 == kTourB) std::swap(r.iu2, r.iv2);
           Access::set_edge(f, u, v, r);
         }
         return std::string("tour not closed");
       }},
      {"tour broken",
       [](DynamicForest& f) {
         // Reverse (6,7)'s first traversal, which neither starts nor ends
         // the tour: it no longer continues from where the walk stands.
         auto r = Access::edge(f, 6, 7);
         EXPECT_GT(std::min(r.iu1, r.iv1), 1);
         EXPECT_LT(std::max(r.iu1, r.iv1), kTourB);
         std::swap(r.iu1, r.iv1);
         Access::set_edge(f, 6, 7, r);
         return std::string("tour walk broken");
       }},
      {"vertex missing",
       [](DynamicForest& f) {
         // Relabel C's root 9 as 10: the walk stays closed along the
         // record's own (now self-loop) key, but 9 no longer appears.
         auto r = Access::edge(f, 9, 10);
         EXPECT_EQ(std::min(r.iu1, r.iu2), 1);
         r.u = 10;
         Access::set_edge(f, 9, 10, r);
         return std::string("vertex 9 missing from tour");
       }},
      {"vertex cached index stale",
       [](DynamicForest& f) {
         // An appearance of 8's neighbour 7.
         Access::vertex(f, 8).cached_idx = Access::edge(f, 7, 8).iu1;
         return std::string("stale cached index for vertex 8");
       }},
      {"non-tree record in the wrong component",
       [](DynamicForest& f) {
         auto r = Access::edge(f, 5, 7);
         EXPECT_FALSE(r.tree);
         r.comp = Access::comp(f, 0);
         Access::set_edge(f, 5, 7, r);
         return std::string("non-tree record with inconsistent component");
       }},
      {"non-tree cached index stale",
       [](DynamicForest& f) {
         // 5's cached appearance now points at one of 7's.
         auto r = Access::edge(f, 5, 7);
         r.iu1 = r.iv1;
         Access::set_edge(f, 5, 7, r);
         return std::string("stale cached index on non-tree edge (5,7)");
       }},
  };
}

class ValidateRejectsTest : public ::testing::TestWithParam<bool> {};

TEST_P(ValidateRejectsTest, EachBrokenInvariantWithItsReason) {
  const bool pending = GetParam();
  {
    const auto forest = rejection_forest(pending);
    ASSERT_EQ(Access::log_empty(*forest), !pending);
    std::string why;
    ASSERT_TRUE(forest->validate(&why)) << why;
  }
  for (const Corruption& c : corruptions()) {
    const auto forest = rejection_forest(pending);
    const std::string want = c.apply(*forest);
    std::string why;
    EXPECT_FALSE(forest->validate(&why)) << c.name;
    EXPECT_EQ(why, want) << c.name;
    // Every pass runs pooled too (cutoff 0: no inline rounds), with the
    // same verdict and reason.
    forest->cluster().set_executor(
        std::make_shared<dmpc::ThreadPoolExecutor>(2, 0));
    std::string pooled_why;
    EXPECT_FALSE(forest->validate(&pooled_why)) << c.name;
    EXPECT_EQ(pooled_why, want) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(States, ValidateRejectsTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "PendingLog" : "Preprocessed";
                         });

}  // namespace
