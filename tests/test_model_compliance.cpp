// Model-compliance sweeps: every algorithm must respect the DMPC model's
// resource caps on every graph family — per-machine memory within the
// O(sqrt N) capacity (MemoryMeter throws on violation, so completing a
// run is itself an assertion; we additionally check the high-water marks
// are genuinely sublinear), per-round communication within the machine
// cap (Cluster throws), and clean failure on precondition violations.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cs_matching.hpp"
#include "core/dyn_forest.hpp"
#include "core/maximal_matching.hpp"
#include "core/three_halves_matching.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "etour/euler_forest.hpp"
#include "harness/driver.hpp"
#include "seq/hdt.hpp"
#include "seq/ns_matching.hpp"
#include "test_util.hpp"

namespace {

using graph::Update;
using graph::UpdateKind;
using graph::VertexId;

graph::EdgeList family(int kind, std::size_t n) {
  switch (kind) {
    case 0:
      return graph::gnm(n, 3 * n, 5);
    case 1:
      return graph::star(n);  // one machine-spilling heavy vertex
    case 2:
      return graph::grid(n / 16, 16);
    default:
      return graph::preferential_attachment(n, 4, 5);
  }
}

class MemoryComplianceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MemoryComplianceTest, HighWaterStaysSublinear) {
  const auto [algo, fam] = GetParam();
  const std::size_t n = 256;
  const std::size_t m_cap = 4 * n;
  const auto edges = family(fam, n);
  auto stream = graph::random_stream(n, 150, 0.5, 77);

  // The Driver seeds its shadow with the preprocessed edges and drops the
  // stream updates that would violate the algorithms' preconditions; its
  // final checkpoint also runs the algorithm's validate().
  const auto sweep = [&](auto& alg) {
    alg.preprocess(edges);
    harness::Driver driver(n, harness::DriverConfig{.checkpoint_every = 0});
    driver.add("alg", alg);
    driver.seed(edges);
    driver.run(stream);
    return std::pair{alg.cluster().max_memory_high_water(),
                     alg.cluster().machine_capacity()};
  };
  dmpc::WordCount high_water = 0, capacity = 0;
  if (algo == 0) {
    core::DynamicForest forest({.n = n, .m_cap = m_cap});
    std::tie(high_water, capacity) = sweep(forest);
  } else {
    core::MaximalMatching mm({.n = n, .m_cap = m_cap});
    std::tie(high_water, capacity) = sweep(mm);
  }
  EXPECT_LE(high_water, capacity);
  // Genuinely O(sqrt N): within a constant of sqrt(N) words (the
  // coordinator's update-history window alone is ~40 sqrt(N)), far from
  // the N words it would take to hold the input on one machine.
  const double sqrt_n = std::sqrt(static_cast<double>(n + m_cap));
  EXPECT_LT(static_cast<double>(high_water), 128.0 * sqrt_n + 1024.0);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndFamilies, MemoryComplianceTest,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(0, 1, 2, 3)));

TEST(PreconditionFailures, ThrowCleanly) {
  // The public contracts reject malformed operations instead of
  // corrupting state.
  core::CsMatching cs({.n = 4});
  cs.insert(0, 1);
  EXPECT_THROW(cs.insert(0, 1), std::logic_error);
  EXPECT_THROW(cs.erase(2, 3), std::logic_error);

  // The matchings reject an out-of-range endpoint and a self-loop before
  // the update begins: the state, the matching and the update count stay
  // as they were.  (Duplicate inserts and absent erases need a presence
  // lookup the §3/§4 matchings do not have.)
  const auto expect_rejected = [](auto& algo, VertexId n) {
    algo.insert(0, 1);
    const auto matching_before = algo.matching_snapshot();
    const std::uint64_t updates_before =
        algo.cluster().metrics().aggregate().updates;
    for (const auto& [u, v] :
         {std::pair<VertexId, VertexId>{2, 2}, {0, n}, {n, 0}, {-1, 1}}) {
      EXPECT_THROW(algo.insert(u, v), std::invalid_argument)
          << "insert (" << u << ", " << v << ")";
      EXPECT_THROW(algo.erase(u, v), std::invalid_argument)
          << "erase (" << u << ", " << v << ")";
      std::string why;
      EXPECT_TRUE(algo.validate(&why)) << why;
      EXPECT_EQ(algo.matching_snapshot(), matching_before);
      EXPECT_EQ(algo.cluster().metrics().aggregate().updates, updates_before);
    }
  };
  core::CsMatching cs_bad({.n = 4});
  expect_rejected(cs_bad, 4);
  core::MaximalMatching mm({.n = 8, .m_cap = 32});
  mm.preprocess({});
  expect_rejected(mm, 8);
  core::ThreeHalvesMatching th({.n = 8, .m_cap = 32});
  th.preprocess({});
  expect_rejected(th, 8);

  // The per-vertex reads reject a vertex outside [0, n) the same way: the
  // coordinator query (mate_of) before its update begins, the
  // introspection accessors before they index a per-vertex table.
  const auto expect_unchanged_after = [](auto& algo, auto&& read) {
    const auto matching_before = algo.matching_snapshot();
    const std::uint64_t updates_before =
        algo.cluster().metrics().aggregate().updates;
    EXPECT_THROW(read(), std::invalid_argument);
    std::string why;
    EXPECT_TRUE(algo.validate(&why)) << why;
    EXPECT_EQ(algo.matching_snapshot(), matching_before);
    EXPECT_EQ(algo.cluster().metrics().aggregate().updates, updates_before);
  };
  for (const VertexId v : {VertexId{8}, VertexId{-1}}) {
    expect_unchanged_after(mm, [&] { return mm.mate_of(v); });
    expect_unchanged_after(mm, [&] { return mm.degree_of(v); });
    expect_unchanged_after(mm, [&] { return mm.is_heavy(v); });
    expect_unchanged_after(th, [&] { return th.mate_of(v); });
    expect_unchanged_after(th, [&] { return th.free_neighbor_count(v); });
  }
  for (const VertexId v : {VertexId{4}, VertexId{-1}}) {
    expect_unchanged_after(cs_bad, [&] { return cs_bad.level_of(v); });
  }
  EXPECT_EQ(mm.mate_of(0), 1);  // a valid read still answers

  seq::AccessCounter c;
  seq::HdtConnectivity hdt(4, c);
  hdt.insert(0, 1);
  EXPECT_THROW(hdt.insert(1, 0), std::logic_error);
  EXPECT_THROW(hdt.erase(2, 3), std::logic_error);

  seq::NsMatching ns(4, 16, c);
  ns.insert(0, 1);
  EXPECT_THROW(ns.insert(0, 1), std::logic_error);
  EXPECT_THROW(ns.erase(1, 2), std::logic_error);

  // DynamicForest rejects an out-of-range endpoint (edge keys are
  // u * n + v, so delete (0, 10) at n = 8 would alias the key of (1, 2))
  // and a self-loop before any round runs — through insert/erase and
  // apply_batch alike, a valid update ahead of a bad one included.
  core::DynamicForest forest({.n = 8, .m_cap = 32});
  forest.preprocess(graph::EdgeList{});
  forest.insert(1, 2);
  const auto tree_before = forest.tree_edges();
  const std::uint64_t updates_before =
      forest.cluster().metrics().aggregate().updates;
  const std::vector<Update> alias = {{UpdateKind::kDelete, 0, 10, 1}};
  EXPECT_THROW(forest.apply_batch(alias), std::invalid_argument);
  EXPECT_THROW(forest.erase(0, 10), std::invalid_argument);
  EXPECT_THROW(forest.insert(-1, 2), std::invalid_argument);
  EXPECT_THROW(forest.insert(3, 3), std::invalid_argument);
  const std::vector<Update> mixed = {{UpdateKind::kInsert, 4, 5, 1},
                                     {UpdateKind::kInsert, 3, 3, 1}};
  EXPECT_THROW(forest.apply_batch(mixed), std::invalid_argument);
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
  EXPECT_EQ(forest.tree_edges(), tree_before);
  EXPECT_EQ(forest.cluster().metrics().aggregate().updates, updates_before);
  EXPECT_FALSE(forest.connected(4, 5));

  // The read path rejects an out-of-range endpoint the same way: before
  // any round runs, with the query accounting untouched, for both query
  // kinds and a valid query ahead of the bad one.
  const dmpc::QueryAggregate queries_before =
      forest.cluster().metrics().query_aggregate();
  for (const VertexId bad : {VertexId{-1}, VertexId{8}, VertexId{9}}) {
    for (const core::QueryKind kind :
         {core::QueryKind::kConnected, core::QueryKind::kPathWeight}) {
      const std::vector<core::ReadQuery> batch = {{kind, 1, 2},
                                                  {kind, 0, bad}};
      EXPECT_THROW(forest.answer_queries(batch), std::invalid_argument)
          << "endpoint " << bad;
    }
  }
  EXPECT_THROW(forest.connected(8, 0), std::invalid_argument);
  const dmpc::QueryAggregate& queries_after =
      forest.cluster().metrics().query_aggregate();
  EXPECT_EQ(queries_after.batches, queries_before.batches);
  EXPECT_EQ(queries_after.queries, queries_before.queries);
  EXPECT_EQ(queries_after.total_rounds, queries_before.total_rounds);
  EXPECT_EQ(queries_after.total_comm_words, queries_before.total_comm_words);
  EXPECT_TRUE(forest.connected(1, 2));
}

TEST(PreconditionFailures, EulerForestGuards) {
  etour::EulerForest forest(4);
  forest.link(0, 1);
  EXPECT_THROW(forest.link(0, 1), std::logic_error);
  EXPECT_THROW(forest.cut(2, 3, 9), std::logic_error);
  EXPECT_THROW(forest.add_tree_from_tour({0, 1, 1}), std::invalid_argument);
}

TEST(CommCaps, TinyMachinesRejectOversizeProtocols) {
  // A cluster sized below the protocol's needs must fail loudly (comm
  // overflow), not silently undercount.
  dmpc::Cluster c(4, 3);
  for (dmpc::MachineId m = 1; m < 4; ++m) {
    c.send(0, m, 1, {1, 2, 3});  // 4 words per message, cap 3
  }
  EXPECT_THROW(c.finish_round(), dmpc::CommOverflowError);
}

TEST(ClusterDeterminism, IdenticalRunsProduceIdenticalMetrics) {
  // The whole simulator is deterministic: same seed, same stream, same
  // metrics — the property that makes EXPERIMENTS.md reproducible.
  auto run = [] {
    core::DynamicForest forest({.n = 64, .m_cap = 256});
    forest.preprocess(graph::cycle(64));
    forest.cluster().metrics().reset();
    test_util::drive(forest, graph::bridge_adversary_stream(64, 300, 16, 3));
    const auto& a = forest.cluster().metrics().aggregate();
    return std::tuple{a.updates, a.worst_rounds, a.worst_active_machines,
                      a.worst_comm_words, a.total_comm_words};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
