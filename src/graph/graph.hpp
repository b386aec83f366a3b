// Dynamic graph containers used as ground-truth inputs and by oracles.
//
// The DMPC algorithms never see these directly — they receive update
// streams — but tests, oracles and generators operate on them.
//
// Edge and adjacency membership is hash-based (O(1) amortized updates).
// Iteration order of edges()/neighbors()/weights() is therefore
// unspecified; edge_list() sorts on demand and is the deterministic view.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dmpc/types.hpp"

namespace graph {

using dmpc::VertexId;
using Weight = std::int64_t;

/// Canonical undirected edge key with u <= v.
struct EdgeKey {
  VertexId u;
  VertexId v;

  EdgeKey(VertexId a, VertexId b) : u(std::min(a, b)), v(std::max(a, b)) {}
  auto operator<=>(const EdgeKey&) const = default;
};

/// Hash for EdgeKey: packs (u,v) into one 64-bit word and mixes it.
struct EdgeKeyHash {
  std::size_t operator()(const EdgeKey& e) const noexcept {
    std::uint64_t x = (static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(e.u))
                       << 32) |
                      static_cast<std::uint32_t>(e.v);
    // splitmix64 finalizer.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// Whether v names a vertex of [0, n).
inline bool in_vertex_range(VertexId v, std::size_t n) {
  return v >= 0 && static_cast<std::size_t>(v) < n;
}

/// Throws std::invalid_argument unless v names a vertex of [0, n).  The
/// dynamic algorithms call it before a per-vertex read touches any state.
inline void require_vertex(VertexId v, std::size_t n, const char* who) {
  if (!in_vertex_range(v, n)) {
    throw std::invalid_argument(std::string(who) + ": vertex out of range");
  }
}

/// Throws std::invalid_argument unless (u, v) can be an edge of a simple
/// graph over vertices [0, n): both endpoints in range and distinct.
/// The dynamic algorithms call it before an update changes any state.
inline void require_edge_endpoints(VertexId u, VertexId v, std::size_t n,
                                   const char* who) {
  if (!in_vertex_range(u, n) || !in_vertex_range(v, n)) {
    throw std::invalid_argument(std::string(who) +
                                ": edge endpoint out of range");
  }
  if (u == v) throw std::invalid_argument(std::string(who) + ": self-loop");
}

/// A fully-dynamic undirected graph over vertices [0, n).
class DynamicGraph {
 public:
  explicit DynamicGraph(std::size_t n) : adj_(n) {}

  [[nodiscard]] std::size_t num_vertices() const { return adj_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const {
    return edges_.count(EdgeKey(u, v)) > 0;
  }

  /// Inserts edge (u,v); returns false if it was already present.
  bool insert_edge(VertexId u, VertexId v) {
    if (u == v) throw std::invalid_argument("self loops not supported");
    if (!edges_.insert(EdgeKey(u, v)).second) return false;
    adj_[u].insert(v);
    adj_[v].insert(u);
    return true;
  }

  /// Deletes edge (u,v); returns false if it was not present.
  bool delete_edge(VertexId u, VertexId v) {
    if (edges_.erase(EdgeKey(u, v)) == 0) return false;
    adj_[u].erase(v);
    adj_[v].erase(u);
    return true;
  }

  /// Neighbor set of u. Iteration order is unspecified.
  [[nodiscard]] const std::unordered_set<VertexId>& neighbors(
      VertexId u) const {
    return adj_[static_cast<std::size_t>(u)];
  }

  [[nodiscard]] std::size_t degree(VertexId u) const {
    return adj_[static_cast<std::size_t>(u)].size();
  }

  /// Edge set. Iteration order is unspecified; use edge_list() when a
  /// deterministic order matters.
  [[nodiscard]] const std::unordered_set<EdgeKey, EdgeKeyHash>& edges() const {
    return edges_;
  }

  /// All edges sorted by (u, v) — deterministic regardless of the
  /// insertion/deletion history.
  [[nodiscard]] std::vector<std::pair<VertexId, VertexId>> edge_list() const {
    std::vector<std::pair<VertexId, VertexId>> out;
    out.reserve(edges_.size());
    for (const auto& e : edges_) out.emplace_back(e.u, e.v);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::vector<std::unordered_set<VertexId>> adj_;
  std::unordered_set<EdgeKey, EdgeKeyHash> edges_;
};

/// A fully-dynamic weighted undirected graph (for MST).
class WeightedDynamicGraph {
 public:
  explicit WeightedDynamicGraph(std::size_t n) : g_(n) {}

  [[nodiscard]] std::size_t num_vertices() const { return g_.num_vertices(); }
  [[nodiscard]] std::size_t num_edges() const { return g_.num_edges(); }
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const {
    return g_.has_edge(u, v);
  }

  bool insert_edge(VertexId u, VertexId v, Weight w) {
    if (!g_.insert_edge(u, v)) return false;
    weights_[EdgeKey(u, v)] = w;
    return true;
  }

  bool delete_edge(VertexId u, VertexId v) {
    if (!g_.delete_edge(u, v)) return false;
    weights_.erase(EdgeKey(u, v));
    return true;
  }

  [[nodiscard]] Weight weight(VertexId u, VertexId v) const {
    return weights_.at(EdgeKey(u, v));
  }

  [[nodiscard]] const DynamicGraph& unweighted() const { return g_; }

  /// Weight map. Iteration order is unspecified.
  [[nodiscard]] const std::unordered_map<EdgeKey, Weight, EdgeKeyHash>&
  weights() const {
    return weights_;
  }

 private:
  DynamicGraph g_;
  std::unordered_map<EdgeKey, Weight, EdgeKeyHash> weights_;
};

}  // namespace graph
