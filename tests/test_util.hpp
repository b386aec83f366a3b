// Shared helpers for the test suites: standard stream fixtures, the
// shadow-graph replay loop (previously copy-pasted across the matching
// and forest suites), and oracle-replay assertions.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "graph/graph.hpp"
#include "graph/update_stream.hpp"
#include "harness/driver.hpp"
#include "oracle/oracles.hpp"

namespace test_util {

/// The stream shapes the suites exercise, in one place so every suite
/// covers the same adversaries.
enum class StreamKind {
  kRandom,            // uniform insert/delete mix
  kMatchedAdversary,  // deletes edges likely in any maximal matching
  kSlidingWindow,     // evolving-network window
  kBridgeAdversary,   // deletes spanning-tree bridges
};

inline graph::UpdateStream make_stream(StreamKind kind, std::size_t n,
                                       std::size_t length,
                                       std::uint64_t seed) {
  switch (kind) {
    case StreamKind::kRandom:
      return graph::random_stream(n, length, 0.6, seed);
    case StreamKind::kMatchedAdversary:
      // The generators are no-op free by contract (asserted by
      // GeneratorsAreNoOpFree), so no clean_stream pass is needed.
      return graph::matched_edge_adversary_stream(n, length, seed);
    case StreamKind::kSlidingWindow:
      return graph::sliding_window_stream(n, length, n + n / 4, seed);
    case StreamKind::kBridgeAdversary:
      return graph::bridge_adversary_stream(n, length, n / 4, seed);
  }
  return {};
}

/// Makes a Driver's run() return as soon as a checkpoint callback records
/// a fatal gtest assertion (ASSERT_* only exits the callback, not the
/// run), matching replay()'s first-failure early exit.
inline void stop_on_fatal_failure(harness::Driver& driver) {
  driver.stop_when([] { return ::testing::Test::HasFatalFailure(); });
}

/// Applies one update to any algorithm with insert/erase.
template <typename A>
void apply(A& alg, const graph::Update& up) {
  if (up.kind == graph::UpdateKind::kInsert) {
    alg.insert(up.u, up.v);
  } else {
    alg.erase(up.u, up.v);
  }
}

/// Feeds a whole (already no-op-free) stream to an algorithm.
template <typename A>
void drive(A& alg, const graph::UpdateStream& stream) {
  for (const graph::Update& up : stream) apply(alg, up);
}

/// Replays a stream against a shadow graph seeded with `initial`,
/// dropping no-op updates (insert of a present edge / delete of an absent
/// one, which the algorithms' preconditions forbid).  After each
/// *effective* update — already applied to the shadow — invokes
///   step(const graph::Update&, const graph::DynamicGraph& shadow,
///        std::size_t step_index)
/// which typically forwards the update to the algorithm under test and
/// asserts.  Replay stops early on a fatal gtest failure inside `step`.
/// Returns the final shadow graph.
template <typename Step>
graph::DynamicGraph replay(std::size_t n, const graph::EdgeList& initial,
                           const graph::UpdateStream& stream, Step&& step) {
  graph::DynamicGraph shadow(n);
  for (auto [u, v] : initial) shadow.insert_edge(u, v);
  std::size_t i = 0;
  for (const graph::Update& up : stream) {
    if (!graph::apply_update(shadow, up)) continue;
    step(up, static_cast<const graph::DynamicGraph&>(shadow), i);
    if (::testing::Test::HasFatalFailure()) break;
    ++i;
  }
  return shadow;
}

template <typename Step>
graph::DynamicGraph replay(std::size_t n, const graph::UpdateStream& stream,
                           Step&& step) {
  return replay(n, graph::EdgeList{}, stream, std::forward<Step>(step));
}

/// The weighted graph left by `initial` followed by `updates` (duplicate
/// inserts and absent deletes are no-ops, as in DynamicForest) — the
/// input of the oracle::msf_weight checks.
inline graph::WeightedDynamicGraph final_weighted_graph(
    std::size_t n, const graph::WeightedEdgeList& initial,
    std::span<const graph::Update> updates) {
  graph::WeightedDynamicGraph g(n);
  for (const auto& e : initial) g.insert_edge(e.u, e.v, e.w);
  for (const graph::Update& up : updates) {
    if (up.kind == graph::UpdateKind::kInsert) {
      g.insert_edge(up.u, up.v, up.w);
    } else {
      g.delete_edge(up.u, up.v);
    }
  }
  return g;
}

/// Three weighted paths of `len` vertices each, A = [0, len),
/// B = [len, 2 len) and C = [2 len, 3 len), so their component ids order
/// A < B < C.  Tour indexes are per component, so B's tree edges overlap
/// the tour indexes of A's and C's vertices.  Edge weights: 1 on A,
/// 1,000,000 on B and 1,000 on C.  B, the heaviest, lies between the
/// others, so a shard scan that lets B's edges reach either neighbour's
/// probes changes a path sum and a path maximum.
inline graph::WeightedEdgeList three_weighted_paths(std::size_t len) {
  graph::WeightedEdgeList edges;
  const graph::Weight weight[3] = {1, 1000000, 1000};
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::size_t i = 0; i + 1 < len; ++i) {
      const auto u = static_cast<graph::VertexId>(p * len + i);
      edges.push_back({u, u + 1, weight[p]});
    }
  }
  return edges;
}

/// Oracle-replay assertion: the snapshot must be a valid maximal matching
/// of the shadow graph.
inline void expect_maximal(const oracle::Matching& m,
                           const graph::DynamicGraph& shadow,
                           const std::string& where) {
  ASSERT_TRUE(oracle::matching_is_valid(shadow, m)) << where;
  ASSERT_TRUE(oracle::matching_is_maximal(shadow, m)) << where;
}

}  // namespace test_util
