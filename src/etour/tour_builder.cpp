#include "etour/tour_builder.hpp"

#include <algorithm>
#include <stdexcept>

namespace etour {

std::vector<VertexId> build_tour(
    const std::vector<std::vector<VertexId>>& tree_adj, VertexId root) {
  std::vector<VertexId> seq;
  // Iterative DFS emitting the two endpoints of every edge traversal.
  struct Frame {
    VertexId v;
    VertexId parent;
    std::size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back({root, dmpc::kNoVertex, 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    const auto& nbrs = tree_adj[static_cast<std::size_t>(f.v)];
    bool descended = false;
    while (f.next_child < nbrs.size()) {
      const VertexId c = nbrs[f.next_child++];
      if (c == f.parent) continue;
      seq.push_back(f.v);
      seq.push_back(c);
      stack.push_back({c, f.v, 0});
      descended = true;
      break;
    }
    if (descended) continue;
    // Done with v's children: emit the upward traversal (unless root).
    const VertexId parent = f.parent;
    const VertexId v = f.v;
    stack.pop_back();
    if (parent != dmpc::kNoVertex) {
      seq.push_back(v);
      seq.push_back(parent);
    }
  }
  return seq;
}

std::vector<std::pair<EdgeKey, EdgeIndexes>> indexes_from_tour(
    const std::vector<VertexId>& tour_seq) {
  const std::size_t len = tour_seq.size();
  if (len % 4 != 0) {
    throw std::invalid_argument("tour length must be a multiple of 4");
  }
  if (len == 0) return {};
  if (tour_seq.front() != tour_seq.back()) {
    throw std::invalid_argument("tour must start and end at the root");
  }
  for (std::size_t k = 1; 2 * k < len; ++k) {
    if (tour_seq[2 * k - 1] != tour_seq[2 * k]) {
      throw std::invalid_argument("tour is not a closed walk");
    }
  }
  // Traversal k covers entries 2k+1 and 2k+2.  Sorted by (edge, k), each
  // edge's traversals sit together in tour order.
  std::vector<std::pair<EdgeKey, std::size_t>> traversals;
  traversals.reserve(len / 2);
  for (std::size_t k = 0; 2 * k + 1 < len; ++k) {
    const VertexId a = tour_seq[2 * k];
    const VertexId b = tour_seq[2 * k + 1];
    if (a == b) throw std::invalid_argument("self-loop traversal in tour");
    traversals.emplace_back(EdgeKey(a, b), k);
  }
  std::sort(traversals.begin(), traversals.end());
  std::vector<std::pair<EdgeKey, EdgeIndexes>> out;
  out.reserve(traversals.size() / 2);
  for (std::size_t t = 0; t < traversals.size(); t += 2) {
    const EdgeKey key = traversals[t].first;
    if (t + 1 == traversals.size() || traversals[t + 1].first != key ||
        (t + 2 < traversals.size() && traversals[t + 2].first == key)) {
      throw std::invalid_argument("edge not traversed exactly twice");
    }
    // A tree's edge is walked once each way, so an endpoint that leads
    // one traversal trails the other.
    const std::size_t k1 = traversals[t].second;
    const std::size_t k2 = traversals[t + 1].second;
    if (tour_seq[2 * k1] == tour_seq[2 * k2]) {
      throw std::invalid_argument("unbalanced edge traversals");
    }
    const auto i1 = static_cast<Word>(2 * k1 + 1);
    const auto i2 = static_cast<Word>(2 * k2 + 1);
    out.emplace_back(key, tour_seq[2 * k1] == key.u
                              ? EdgeIndexes{i1, i2 + 1, i1 + 1, i2}
                              : EdgeIndexes{i1 + 1, i2, i1, i2 + 1});
  }
  return out;
}

}  // namespace etour
