// Integration and property tests for the distributed dynamic
// connectivity / (1+eps)-MST algorithm (paper, Sections 5 and 5.1).
//
// Every test maintains a shadow DynamicGraph and checks after each update:
//  * component labels equal the oracle's,
//  * the distributed E-tour invariants hold (DynamicForest::validate),
//  * the Table 1 complexity bounds hold: O(1) rounds per update, and
//    communication within the O(sqrt N) machine-count regime.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dyn_forest.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "forest_access.hpp"
#include "oracle/oracles.hpp"
#include "test_util.hpp"


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
      {"tree record endpoint out of range",
       [](DynamicForest& f) {
         // Vertex -1 is the tour fill's empty mark: the walk would not
         // see the duplicate index this record also carries.
         auto r = Access::edge(f, 6, 7);
         r.u = dmpc::kNoVertex;
         r.iu2 = r.iu1;
         Access::set_edge(f, 6, 7, r);
         return std::string("edge record endpoint outside [0, n)");
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

// ---------------------------------------------------------------------------
// Cascade round A's record index
// ---------------------------------------------------------------------------
//
// Round A builds the cluster's record index once it has scanned every
// shard once since the last compaction, so a batch's second deletion
// stage is the first that can read through it, and the index outlives
// every compaction after.  These tests switch on the test-only audit:
// every machine in an indexed round A also reads every slot the index
// did not name, and a slot that would have sent something counts as a
// miss.  After every batch, the index must also name every record off
// its side list where it is, and nothing else (RecordIndex::audit).

using dmpc::MachineId;
using Edge = std::pair<VertexId, VertexId>;

// One giant component, gnm(kIdxGiant, 2 * kIdxGiant) on the low ids,
// beside isolated vertices that merges attach.
constexpr std::size_t kIdxN = 300;
constexpr std::size_t kIdxGiant = 240;

std::unique_ptr<DynamicForest> index_forest(bool weighted, bool pool,
                                            std::size_t m_cap) {
  const graph::EdgeList base = graph::gnm(kIdxGiant, 2 * kIdxGiant, 23);
  graph::WeightedEdgeList edges;
  for (std::size_t i = 0; i < base.size(); ++i) {
    edges.push_back({base[i].first, base[i].second,
                     weighted ? static_cast<graph::Weight>(1 + (i * 37) % 50)
                              : 1});
  }
  auto forest = std::make_unique<DynamicForest>(DynForestConfig{
      .n = kIdxN, .m_cap = m_cap, .weighted = weighted, .eps = 1e-9});
  if (pool) {
    forest->cluster().set_executor(
        std::make_shared<dmpc::ThreadPoolExecutor>(2, 0));
  }
  forest->preprocess(edges);
  Access::audit_record_index(*forest);
  return forest;
}

// The tree path between a and b in the forest's spanning forest, as
// canonical edges (empty if they are disconnected or equal).
std::vector<Edge> tree_path(const DynamicForest& f, VertexId a, VertexId b) {
  std::vector<std::vector<VertexId>> adj(f.num_vertices());
  for (const auto& [u, v] : f.tree_edges()) {
    adj[static_cast<std::size_t>(u)].push_back(v);
    adj[static_cast<std::size_t>(v)].push_back(u);
  }
  std::vector<VertexId> parent(f.num_vertices(), dmpc::kNoVertex);
  parent[static_cast<std::size_t>(a)] = a;
  std::queue<VertexId> q;
  q.push(a);
  while (!q.empty()) {
    const VertexId x = q.front();
    q.pop();
    for (const VertexId y : adj[static_cast<std::size_t>(x)]) {
      if (parent[static_cast<std::size_t>(y)] != dmpc::kNoVertex) continue;
      parent[static_cast<std::size_t>(y)] = x;
      q.push(y);
    }
  }
  std::vector<Edge> path;
  if (parent[static_cast<std::size_t>(b)] == dmpc::kNoVertex) return path;
  for (VertexId x = b; x != a; x = parent[static_cast<std::size_t>(x)]) {
    path.push_back(std::minmax(x, parent[static_cast<std::size_t>(x)]));
  }
  return path;
}

// Builds batches on the giant and applies them, checking the audit, the
// oracle and validate() after each.
class IndexStream {
 public:
  IndexStream(DynamicForest& f, std::uint64_t seed) : f_(f), rng_(seed) {
    for (const auto& [u, v] : graph::gnm(kIdxGiant, 2 * kIdxGiant, 23)) {
      present_.insert(std::minmax(u, v));
      shadow_.insert_edge(u, v);
    }
    for (VertexId v = kIdxGiant; v < static_cast<VertexId>(kIdxN); ++v) {
      iso_.push_back(v);
    }
  }

  // The giant's tree edges, sorted, minus `keep`.
  std::vector<Edge> giant_tree(const std::set<Edge>& keep = {}) const {
    std::vector<Edge> out;
    for (const auto& [u, v] : f_.tree_edges()) {
      const Edge e = std::minmax(u, v);
      if (e.second < static_cast<VertexId>(kIdxGiant) && keep.count(e) == 0) {
        out.push_back(e);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  std::vector<Edge> giant_nontree() const {
    const std::vector<Edge> tree = giant_tree();
    std::vector<Edge> out;
    for (const Edge& e : present_) {
      if (e.second < static_cast<VertexId>(kIdxGiant) &&
          !std::binary_search(tree.begin(), tree.end(), e)) {
        out.push_back(e);
      }
    }
    return out;
  }
  VertexId giant_vertex() {
    return static_cast<VertexId>(rng_() % kIdxGiant);
  }
  // A merge of the next isolated vertex into the giant whose record
  // does not land on machine `avoid`.
  Update merge(MachineId avoid = dmpc::kNoMachine) {
    const VertexId i = iso_.back();
    iso_.pop_back();
    while (true) {
      const VertexId g = giant_vertex();
      if (Access::machine_of(f_, g, i) == avoid) continue;
      present_.insert(std::minmax(g, i));
      return {UpdateKind::kInsert, g, i, 1};
    }
  }
  // An insert of a random absent giant pair.
  Update insert(graph::Weight w = 1) {
    while (true) {
      const VertexId a = giant_vertex(), b = giant_vertex();
      if (a == b || !present_.insert(std::minmax(a, b)).second) continue;
      return {UpdateKind::kInsert, a, b, w};
    }
  }
  Update erase(const Edge& e) {
    present_.erase(e);
    return {UpdateKind::kDelete, e.first, e.second, 1};
  }
  std::size_t isolated_left() const { return iso_.size(); }
  std::mt19937_64& rng() { return rng_; }

  void apply(const std::vector<Update>& batch) {
    f_.apply_batch(std::span<const Update>(batch));
    for (const Update& up : batch) graph::apply_update(shadow_, up);
    EXPECT_EQ(Access::audit(f_).misses, 0u)
        << "round A's record index missed a record the scan sends from";
    const core::RecordIndex::Coverage coverage = Access::index_coverage(f_);
    EXPECT_EQ(coverage.missing, 0u)
        << "the record index lacks an entry of a record off its side list";
    EXPECT_EQ(coverage.stale, 0u)
        << "the record index names a record off its side list wrongly";
    expect_components_match(f_, shadow_, "after an indexed batch");
    std::string why;
    EXPECT_TRUE(f_.validate(&why)) << why;
  }

 private:
  DynamicForest& f_;
  std::mt19937_64 rng_;
  std::set<Edge> present_;
  graph::DynamicGraph shadow_{kIdxN};
  std::vector<VertexId> iso_;
};

// (weighted, pooled, small batches)
class RecordIndexAudit
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(RecordIndexAudit, CoversEveryRecordTheScanSendsFrom) {
  // Many-stage batches in the style of PendingLogBatch: giant tree-edge
  // deletions each followed by a merge (and, weighted, a cycle-rule
  // insert), with non-tree inserts and deletes between them.  Large
  // batches compact at the top of each batch (S is small here), so after
  // the first build every batch re-keys the index; batches of three with
  // a larger S keep the log across batches, so their side list folds in
  // between compactions.
  const auto [weighted, pool, small] = GetParam();
  const auto forest =
      index_forest(weighted, pool, small ? std::size_t{1} << 18 : 4 * kIdxN);
  IndexStream stream(*forest, weighted ? 41 : 43);
  const std::size_t deletes = small ? 1 : 4;
  std::size_t folds = 0;
  while (stream.isolated_left() >= deletes) {
    std::vector<Update> batch;
    std::vector<Edge> trees = stream.giant_tree();
    std::shuffle(trees.begin(), trees.end(), stream.rng());
    for (std::size_t i = 0; i < deletes; ++i) {
      batch.push_back(stream.erase(trees[i]));
      if (weighted) {
        batch.push_back(stream.insert(
            static_cast<graph::Weight>(1 + stream.rng()() % 20)));
      }
      batch.push_back(stream.merge());
      if (i % 2 == 0) {
        batch.push_back(stream.insert());
      } else {
        const std::vector<Edge> nontree = stream.giant_nontree();
        batch.push_back(
            stream.erase(nontree[stream.rng()() % nontree.size()]));
      }
    }
    const bool fold_due = Access::index_fold_due(*forest);
    const std::uint64_t compactions = forest->batch_stats().compactions;
    stream.apply(batch);
    if (HasFailure()) return;
    if (fold_due && forest->batch_stats().compactions == compactions) {
      ++folds;
    }
  }
  EXPECT_EQ(forest->batch_stats().record_index_builds, 1u)
      << "the record index did not outlive the stream's compactions";
  EXPECT_GT(Access::audit(*forest).machines, 0u);
  EXPECT_GT(Access::audit(*forest).remapped, 0u)
      << "no smaller side mapped back to several base ranges";
  if (small) {
    EXPECT_GT(folds, 0u)
        << "no batch folded the side list in between compactions";
  } else {
    EXPECT_GT(Access::audit(*forest).rekeys, 0u)
        << "no compaction re-keyed the built index";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, RecordIndexAudit,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "Weighted" : "Unweighted") +
             (std::get<1>(info.param) ? "Pooled" : "Serial") +
             (std::get<2>(info.param) ? "SmallBatches" : "LargeBatches");
    });

// Appends `stages` warm-up stages to `batch`, a deletion of a giant tree
// edge outside `keep` each followed by a merge whose record avoids
// machine `avoid`.  Round A builds the index at the stage after one
// that scanned every shard, so by the second stage the index is built.
void warm_up(IndexStream& stream, const std::set<Edge>& keep,
             std::vector<Update>& batch, std::size_t stages = 2,
             MachineId avoid = dmpc::kNoMachine,
             const DynamicForest* f = nullptr) {
  std::vector<Edge> trees = stream.giant_tree(keep);
  std::size_t taken = 0;
  for (const Edge& e : trees) {
    if (taken == stages) break;
    if (f != nullptr && Access::machine_of(*f, e.first, e.second) == avoid) {
      continue;
    }
    batch.push_back(stream.erase(e));
    batch.push_back(stream.merge(avoid));
    ++taken;
  }
}

TEST(RecordIndex, FindsARecordCreatedInTheCurrentBatch) {
  const auto forest = index_forest(false, false, 4 * kIdxN);
  IndexStream stream(*forest, 5);
  // A non-tree insert (a, b) after three warm-up stages, so the index
  // was built before the record exists, then a deletion on the tree path
  // between a and b: the new record crosses the cut.
  VertexId a = 0, b = 0;
  std::vector<Edge> path;
  while (path.size() < 3 ||
         Access::shard(*forest, Access::machine_of(*forest, a, b)).empty()) {
    a = stream.giant_vertex();
    b = stream.giant_vertex();
    path = a == b ? std::vector<Edge>{} : tree_path(*forest, a, b);
  }
  std::vector<Update> batch;
  warm_up(stream, std::set<Edge>(path.begin(), path.end()), batch, 3);
  batch.push_back({UpdateKind::kInsert, a, b, 1});
  batch.push_back(stream.erase(path[path.size() / 2]));
  stream.apply(batch);
  EXPECT_TRUE(Access::index_built(*forest));
  EXPECT_GT(Access::audit(*forest).machines, 0u);
}

TEST(RecordIndex, FindsARecordSwapMovedAfterTheBuild) {
  const auto forest = index_forest(false, false, 4 * kIdxN);
  IndexStream stream(*forest, 7);
  // Machine m's last record L is a giant non-tree record and another of
  // its non-tree records X is deleted after the index was built, so L
  // moves into X's slot; a later deletion on L's tree path must read it.
  for (MachineId m = 0; m < forest->num_machines(); ++m) {
    const auto shard = Access::shard(*forest, m);
    if (shard.size() < 3) continue;
    const auto [lu, lv, ltree] = shard.back();
    if (ltree || lv >= static_cast<VertexId>(kIdxGiant)) continue;
    std::optional<Edge> x;
    for (std::size_t s = 0; s + 1 < shard.size(); ++s) {
      if (!std::get<2>(shard[s])) {
        x = std::minmax(std::get<0>(shard[s]), std::get<1>(shard[s]));
      }
    }
    const std::vector<Edge> path = tree_path(*forest, lu, lv);
    if (!x.has_value() || path.size() < 2) continue;
    std::set<Edge> keep(path.begin(), path.end());
    std::vector<Update> batch;
    // The index is built by the third stage, before X goes.
    warm_up(stream, keep, batch, 3, m, forest.get());
    batch.push_back(stream.erase(*x));
    batch.push_back(stream.erase(path.front()));
    stream.apply(batch);
    EXPECT_TRUE(Access::index_built(*forest));
    EXPECT_GT(Access::audit(*forest).machines, 0u);
    return;
  }
  FAIL() << "no machine ends its shard with a giant non-tree record";
}

TEST(RecordIndex, FindsARecordWhoseCachedEntryAnEarlierStageRemoved) {
  // S large enough that the log, and round A's scan count, outlive the
  // first batch.
  const auto forest = index_forest(false, false, std::size_t{1} << 16);
  IndexStream stream(*forest, 9);
  // Non-tree record R = (x, y) caches an appearance of x that tree edge
  // e1, off the x..y path, owns.  Deleting e1 removes that entry, so R
  // resolves through that stage's cut fix.  The next batch deletes an
  // edge on the x..y path, which R crosses, in the first round A that
  // reads through the index.
  const std::vector<Edge> tree = stream.giant_tree();
  for (const Edge& r : stream.giant_nontree()) {
    const auto rec = Access::edge(*forest, r.first, r.second);
    for (const auto& [x, y, ix] : {std::tuple{rec.u, rec.v, rec.iu1},
                                   std::tuple{rec.v, rec.u, rec.iv1}}) {
      const std::vector<Edge> path = tree_path(*forest, x, y);
      if (path.size() < 2) continue;
      for (const Edge& e1 : tree) {
        if (e1.first != x && e1.second != x) continue;
        const auto t = Access::edge(*forest, e1.first, e1.second);
        const bool owns = t.u == x ? (t.iu1 == ix || t.iu2 == ix)
                                   : (t.iv1 == ix || t.iv2 == ix);
        if (!owns || std::find(path.begin(), path.end(), e1) != path.end()) {
          continue;
        }
        std::set<Edge> keep(path.begin(), path.end());
        keep.insert(e1);
        const std::vector<Edge> others = stream.giant_tree(keep);
        stream.apply({stream.erase(e1), stream.merge(),
                      stream.erase(others.front())});
        ASSERT_TRUE(Access::caches_removed_entry(*forest, r.first, r.second));
        // Cut where x's side is the smaller one, so R's only entry in a
        // queried fragment is the removed one.
        const std::vector<Edge> now = tree_path(*forest, x, y);
        const auto x_side = [&](const Edge& cut) {
          std::vector<std::vector<VertexId>> adj(kIdxN);
          for (const auto& [u, v] : forest->tree_edges()) {
            if (Edge(std::minmax(u, v)) == cut) continue;
            adj[static_cast<std::size_t>(u)].push_back(v);
            adj[static_cast<std::size_t>(v)].push_back(u);
          }
          std::set<VertexId> seen{x};
          std::vector<VertexId> todo{x};
          while (!todo.empty()) {
            const VertexId at = todo.back();
            todo.pop_back();
            for (const VertexId to : adj[static_cast<std::size_t>(at)]) {
              if (seen.insert(to).second) todo.push_back(to);
            }
          }
          return seen.size();
        };
        const std::size_t giant = x_side({-1, -1});
        const auto e2 = std::find_if(
            now.begin(), now.end(),
            [&](const Edge& c) { return 2 * x_side(c) < giant; });
        ASSERT_NE(e2, now.end()) << "x's side is never the smaller one";
        const std::uint64_t compactions = forest->batch_stats().compactions;
        stream.apply({stream.erase(*e2)});
        EXPECT_EQ(forest->batch_stats().compactions, compactions);
        EXPECT_GT(forest->batch_stats().record_index_builds, 0u);
        EXPECT_TRUE(Access::index_built(*forest));
        EXPECT_GT(Access::audit(*forest).machines, 0u);
        return;
      }
    }
  }
  FAIL() << "no non-tree record caches an entry of an off-path tree edge";
}

TEST(RecordIndex, SideListNamesEachSlotOnce) {
  // A slot written many times after the build is one side-list entry;
  // cutting the list back (a rollback) lets its slots be noted again.
  // Two machines: machine 1 holds tree record (0, 1) and non-tree
  // records (0, v) for v = 2..4.
  std::vector<core::EdgeShard> shards(2);
  shards[1].append(1, {.u = 0, .v = 1, .comp = 0, .tree = true}, 0);
  for (VertexId v = 2; v <= 4; ++v) {
    shards[1].append(static_cast<std::uint64_t>(v),
                     {.u = 0, .v = v, .comp = 0, .iu1 = 2 * v, .iv1 = 2 * v + 1},
                     0);
  }
  const core::PendingLog log;
  const core::RecordIndex::ShardOf shard =
      [&](std::size_t m) -> const core::EdgeShard& { return shards[m]; };
  core::RecordIndex index(5, 2);
  index.build(shard, log);
  EXPECT_EQ(index.side_size(), 0u);
  const auto before = index.mark();
  // Tree record (2, 3) created after the build, in slot 4.
  shards[1].append(5, {.u = 2, .v = 3, .comp = 0, .tree = true}, 0);
  for (int i = 0; i < 100; ++i) index.touch(1, 2, shards[1]);
  index.touch_new(1, 4);
  EXPECT_EQ(index.side_size(), 2u);
  index.restore({true, 1});
  for (int i = 0; i < 100; ++i) {
    index.touch_new(1, 4);
    index.touch(1, 2, shards[1]);
  }
  index.touch_new(1, 6);  // a slot created and erased since: past the end
  EXPECT_EQ(index.side_size(), 3u);
  // Slots as (machine << 32 | slot).  The side list's non-tree record
  // is always a candidate, its tree record only under vertex 2 or 3, and
  // its vanished slot never; tree record (0, 1) is listed under vertex
  // 1, and non-tree record (0, 4)'s v entry at index 9.
  const auto at = [](std::uint64_t m, std::uint64_t s) { return m << 32 | s; };
  const auto verts = [](const VertexId& v) {
    return std::span<const VertexId>(&v, 1);
  };
  std::vector<std::uint64_t> slots;
  index.collect(shard, {}, {}, slots);
  EXPECT_EQ(slots, (std::vector<std::uint64_t>{at(1, 2)}));
  index.collect(shard, {}, verts(1), slots);
  EXPECT_EQ(slots, (std::vector<std::uint64_t>{at(1, 0), at(1, 2)}));
  index.collect(shard, {}, verts(3), slots);
  EXPECT_EQ(slots, (std::vector<std::uint64_t>{at(1, 2), at(1, 4)}));
  const core::TourRange nine{0, 9, 9};
  index.collect(shard, std::span<const core::TourRange>(&nine, 1), {}, slots);
  EXPECT_EQ(slots, (std::vector<std::uint64_t>{at(1, 2), at(1, 3)}));
  // Rolled back to the build (the shard too), the index audits clean;
  // dropped, it names nothing.
  shards[1].erase_at(4);
  index.restore(before);
  EXPECT_EQ(index.side_size(), 0u);
  EXPECT_EQ(index.audit(shard, log).missing, 0u);
  EXPECT_EQ(index.audit(shard, log).stale, 0u);
  index.restore({});
  EXPECT_FALSE(index.built());
}

}  // namespace
