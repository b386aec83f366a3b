// Construction of E-tours from scratch (preprocessing) and parsing of tour
// sequences into per-edge index quadruples.
#pragma once

#include <utility>
#include <vector>

#include "etour/euler_forest.hpp"

namespace etour {

/// Builds the E-tour entry sequence of the tree containing `root`, given a
/// tree adjacency structure.  The sequence starts and ends at `root` and
/// has length 4(|T|-1); returns an empty sequence for a singleton.
std::vector<VertexId> build_tour(
    const std::vector<std::vector<VertexId>>& tree_adj, VertexId root);

/// Parses a tour sequence into the per-edge index quadruples that both the
/// reference EulerForest and the distributed algorithm store, sorted by
/// edge key.  Throws on a malformed tour.
std::vector<std::pair<EdgeKey, EdgeIndexes>> indexes_from_tour(
    const std::vector<VertexId>& tour_seq);

}  // namespace etour
