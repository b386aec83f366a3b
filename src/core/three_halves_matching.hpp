// Fully-dynamic 3/2-approximate maximum matching in the DMPC model
// (paper, Section 4).
//
// Table 1 row: O(1) rounds, O(n / sqrt N) active machines, O(sqrt N)
// communication per round, worst case, using a coordinator, starting from
// the *empty* graph (the paper notes no initialization algorithm exists
// within O(N) total memory).
//
// The algorithm extends the Section 3 maximal matching with one extra
// piece of distributed state: a *free-neighbour counter* per vertex,
// stored with the vertex statistics.  A maximal matching with no
// augmenting path of length 3 is a 3/2-approximation (Hopcroft–Karp with
// k = 2), and a length-3 path exists iff some matched edge has distinct
// free neighbours on both endpoints — which the counters detect in O(1)
// lookups.  Whenever a vertex changes matching status, the counters of
// all its neighbours are updated through the coordinator: one message of
// total size O(sqrt N) fanned out to the O(n / sqrt N) stats machines —
// exactly the Table 1 machine/communication profile.
#pragma once

#include <optional>

#include "core/maximal_matching.hpp"
#include "graph/graph.hpp"

namespace core {

class ThreeHalvesMatching : public MaximalMatching {
 public:
  explicit ThreeHalvesMatching(const MaximalMatchingConfig& config)
      : MaximalMatching(config) {}

  void insert(VertexId x, VertexId y) override;
  void erase(VertexId x, VertexId y) override;

  /// Section 4 starts from the empty graph; arbitrary-graph preprocessing
  /// is deliberately unsupported (see the paper's remark).
  void preprocess_empty() { MaximalMatching::preprocess({}); }

  [[nodiscard]] std::size_t free_neighbor_count(VertexId v) const {
    graph::require_vertex(v, config_.n, "ThreeHalvesMatching");
    return stats(v).free_nbs;
  }

 protected:
  void set_match(VertexId a, VertexId b) override;
  void clear_match(VertexId a, VertexId b) override;

 private:
  /// Neighbours of v across its storage machine and suspended chain
  /// (driver-side view of data the fan-out message would carry).
  [[nodiscard]] std::vector<VertexId> all_neighbors(VertexId v);

  /// Adds `delta` to the free-neighbour counters of all neighbours of z,
  /// as one coordinator fan-out round to their stats machines.
  void bump_neighbor_counters(VertexId z, int delta);

  /// A free neighbour of z anywhere in its lists, excluding `exclude`.
  std::optional<VertexId> find_free_neighbor_excluding(VertexId z,
                                                       VertexId exclude);

  /// The Section 4 "temporarily free vertex" handler: match with a free
  /// neighbour if any; heavy vertices steal a light-mated neighbour; light
  /// vertices hunt a length-3 augmenting path through the counters.
  void settle_free_vertex(VertexId z);

  /// Eliminates the length-3 path v-u-u'-w created by inserting edge
  /// (u, v) with u matched and v free.
  void eliminate_insert_path(VertexId u, VertexId v);
};

}  // namespace core
