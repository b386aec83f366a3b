#include "etour/euler_forest.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "etour/tour_builder.hpp"

namespace etour {
namespace {

std::string edge_str(VertexId u, VertexId v) {
  return "(" + std::to_string(u) + "," + std::to_string(v) + ")";
}

}  // namespace

EulerForest::EulerForest(std::size_t n) : comp_(n), tree_adj_(n) {
  for (std::size_t v = 0; v < n; ++v) {
    comp_[v] = static_cast<Word>(v);
    comp_size_[static_cast<Word>(v)] = 1;
  }
}

Word EulerForest::component_size(VertexId v) const {
  return comp_size_.at(component(v));
}

std::vector<Word> EulerForest::indexes_of(VertexId v) const {
  std::vector<Word> out;
  for (VertexId nb : tree_adj_[static_cast<std::size_t>(v)]) {
    const EdgeKey key(v, nb);
    const EdgeIndexes& idx = edges_.at(key);
    if (key.u == v) {
      out.push_back(idx.u1);
      out.push_back(idx.u2);
    } else {
      out.push_back(idx.v1);
      out.push_back(idx.v2);
    }
  }
  return out;
}

Word EulerForest::first_index(VertexId v) const {
  const auto idx = indexes_of(v);
  return idx.empty() ? kNoIndex : *std::min_element(idx.begin(), idx.end());
}

Word EulerForest::last_index(VertexId v) const {
  const auto idx = indexes_of(v);
  return idx.empty() ? kNoIndex : *std::max_element(idx.begin(), idx.end());
}

template <typename Fn>
void EulerForest::transform_component(Word c, Fn&& fn) {
  for (auto& [key, idx] : edges_) {
    if (comp_[static_cast<std::size_t>(key.u)] != c) continue;
    idx.u1 = fn(idx.u1);
    idx.u2 = fn(idx.u2);
    idx.v1 = fn(idx.v1);
    idx.v2 = fn(idx.v2);
  }
}

void EulerForest::reroot(VertexId y) {
  const Word size = component_size(y);
  if (size <= 1) return;
  const Word l_y = last_index(y);
  const Word elen = elength(size);
  if (l_y == elen) return;  // y is already the root
  const RerootParams p{elen, l_y};
  transform_component(component(y),
                      [&p](Word i) { return reroot_index(i, p); });
}

void EulerForest::link(VertexId x, VertexId y) {
  if (connected(x, y)) {
    throw std::logic_error("link" + edge_str(x, y) +
                           ": endpoints already connected");
  }
  reroot(y);
  const Word cx = component(x);
  const Word cy = component(y);
  const Word size_y = comp_size_.at(cy);
  const Word splice = merge_splice(first_index(x), elength(comp_size_.at(cx)));
  const MergeParams p{splice, elength(size_y)};

  transform_component(cy, [&p](Word i) { return merge_shift_ty(i, p); });
  transform_component(cx, [&p](Word i) { return merge_shift_tx(i, p); });

  const MergeNewIndexes ni = merge_new_indexes(p);
  const EdgeKey key(x, y);
  EdgeIndexes idx;
  if (key.u == x) {
    idx = {ni.x_enter, ni.x_exit, ni.y_enter, ni.y_exit};
  } else {
    idx = {ni.y_enter, ni.y_exit, ni.x_enter, ni.x_exit};
  }
  edges_[key] = idx;
  tree_adj_[static_cast<std::size_t>(x)].push_back(y);
  tree_adj_[static_cast<std::size_t>(y)].push_back(x);

  // The merged component keeps x's id.
  for (std::size_t v = 0; v < comp_.size(); ++v) {
    if (comp_[v] == cy) comp_[v] = cx;
  }
  comp_size_[cx] += size_y;
  comp_size_.erase(cy);
}

VertexId EulerForest::cut(VertexId u, VertexId v, Word new_comp) {
  const EdgeKey key(u, v);
  const auto it = edges_.find(key);
  if (it == edges_.end()) {
    throw std::logic_error("cut" + edge_str(u, v) + ": not a tree edge");
  }
  const EdgeIndexes idx = it->second;

  // The child endpoint owns the inner pair of the edge's four indexes.
  const Word u_lo = std::min(idx.u1, idx.u2), u_hi = std::max(idx.u1, idx.u2);
  const Word v_lo = std::min(idx.v1, idx.v2), v_hi = std::max(idx.v1, idx.v2);
  VertexId child;
  SplitParams p{};
  if (u_lo > v_lo && u_hi < v_hi) {
    child = key.u;
    p = {u_lo, u_hi};
  } else if (v_lo > u_lo && v_hi < u_hi) {
    child = key.v;
    p = {v_lo, v_hi};
  } else {
    throw std::logic_error("cut" + edge_str(u, v) +
                           ": inconsistent edge indexes");
  }

  const Word old_comp = component(u);
  const Word old_size = comp_size_.at(old_comp);

  // Decide membership before transforming: any remaining index inside
  // [f_c, l_c] marks a subtree vertex; the child itself is in the subtree
  // by definition (it may have no remaining indexes if it becomes a
  // singleton).
  std::vector<VertexId> subtree;
  for (std::size_t w = 0; w < comp_.size(); ++w) {
    if (comp_[w] != old_comp) continue;
    const VertexId wid = static_cast<VertexId>(w);
    if (wid == child) {
      subtree.push_back(wid);
      continue;
    }
    if (wid == u || wid == v) {
      if (wid != child) continue;  // the parent stays in the old component
    }
    bool inside = false;
    for (Word i : indexes_of(wid)) {
      // Skip the indexes owned by the edge being cut (they belong to u/v
      // only, already excluded above).
      if (split_in_subtree(i, p)) {
        inside = true;
        break;
      }
    }
    if (inside) subtree.push_back(wid);
  }

  edges_.erase(it);
  auto& au = tree_adj_[static_cast<std::size_t>(u)];
  au.erase(std::find(au.begin(), au.end(), v));
  auto& av = tree_adj_[static_cast<std::size_t>(v)];
  av.erase(std::find(av.begin(), av.end(), u));

  transform_component(old_comp, [&p](Word i) {
    return split_in_subtree(i, p) ? split_shift_subtree(i, p)
                                  : split_shift_rest(i, p);
  });

  for (VertexId w : subtree) comp_[static_cast<std::size_t>(w)] = new_comp;
  const Word sub_size = static_cast<Word>(subtree.size());
  comp_size_[new_comp] = sub_size;
  comp_size_[old_comp] = old_size - sub_size;
  return child;
}

std::vector<VertexId> EulerForest::cut_many(
    const std::vector<std::pair<VertexId, VertexId>>& cut_edges,
    const std::vector<Word>& new_comps) {
  if (cut_edges.size() != new_comps.size()) {
    throw std::invalid_argument("cut_many: one new component id per cut");
  }
  struct CutInfo {
    std::size_t pos;  // position in the input list
    EdgeKey key;
    VertexId child;
    KWaySplit::Cut cut;
  };
  std::map<Word, std::vector<CutInfo>> by_comp;
  std::set<EdgeKey> seen;
  std::vector<VertexId> children(cut_edges.size());
  for (std::size_t i = 0; i < cut_edges.size(); ++i) {
    const EdgeKey key(cut_edges[i].first, cut_edges[i].second);
    if (!seen.insert(key).second) {
      throw std::logic_error("cut_many: duplicate cut " +
                             edge_str(key.u, key.v));
    }
    const auto it = edges_.find(key);
    if (it == edges_.end()) {
      throw std::logic_error("cut_many" + edge_str(key.u, key.v) +
                             ": not a tree edge");
    }
    const EdgeIndexes idx = it->second;
    const Word u_lo = std::min(idx.u1, idx.u2),
               u_hi = std::max(idx.u1, idx.u2);
    const Word v_lo = std::min(idx.v1, idx.v2),
               v_hi = std::max(idx.v1, idx.v2);
    CutInfo info{i, key, dmpc::kNoVertex, {}};
    if (u_lo > v_lo && u_hi < v_hi) {
      info.child = key.u;
      info.cut = {u_lo, u_hi};
    } else if (v_lo > u_lo && v_hi < u_hi) {
      info.child = key.v;
      info.cut = {v_lo, v_hi};
    } else {
      throw std::logic_error("cut_many" + edge_str(key.u, key.v) +
                             ": inconsistent edge indexes");
    }
    children[i] = info.child;
    by_comp[component(key.u)].push_back(info);
  }

  for (const auto& [c, infos] : by_comp) {
    std::vector<KWaySplit::Cut> cuts;
    cuts.reserve(infos.size());
    for (const CutInfo& info : infos) cuts.push_back(info.cut);
    const KWaySplit split(elength(comp_size_.at(c)), cuts);

    for (const CutInfo& info : infos) {
      edges_.erase(info.key);
      auto& au = tree_adj_[static_cast<std::size_t>(info.key.u)];
      au.erase(std::find(au.begin(), au.end(), info.key.v));
      auto& av = tree_adj_[static_cast<std::size_t>(info.key.v)];
      av.erase(std::find(av.begin(), av.end(), info.key.u));
    }

    std::vector<Word> frag_comp(split.fragments());
    frag_comp[0] = c;
    for (std::size_t j = 0; j < infos.size(); ++j) {
      frag_comp[split.fragment_of_cut(j)] = new_comps[infos[j].pos];
    }

    // Decide membership from any surviving index (all of a vertex's
    // surviving appearances lie in one fragment); vertices left with no
    // indexes are singleton fragments — a cut's child endpoint lands in
    // its own fragment, everything else stays with the old root.
    std::vector<std::pair<std::size_t, std::size_t>> vert_frag;  // (v, frag)
    std::vector<Word> frag_size(split.fragments(), 0);
    for (std::size_t w = 0; w < comp_.size(); ++w) {
      if (comp_[w] != c) continue;
      const auto idxs = indexes_of(static_cast<VertexId>(w));
      std::size_t frag = 0;
      if (!idxs.empty()) {
        frag = split.fragment_of(idxs.front());
      } else {
        for (std::size_t j = 0; j < infos.size(); ++j) {
          if (infos[j].child == static_cast<VertexId>(w)) {
            frag = split.fragment_of_cut(j);
            break;
          }
        }
      }
      vert_frag.push_back({w, frag});
      ++frag_size[frag];
    }

    transform_component(c, [&split](Word i) { return split.new_index(i); });

    comp_size_.erase(c);
    for (const auto& [w, frag] : vert_frag) comp_[w] = frag_comp[frag];
    for (std::size_t frag = 0; frag < split.fragments(); ++frag) {
      if (frag_size[frag] > 0) comp_size_[frag_comp[frag]] = frag_size[frag];
    }
  }
  return children;
}

void EulerForest::link_many(
    const std::vector<std::pair<VertexId, VertexId>>& new_links) {
  if (new_links.empty()) return;
  // Dense fragment ids for every component any link touches.
  std::map<Word, std::size_t> frag_of_comp;
  std::vector<Word> comp_of_frag;
  std::vector<Word> elens;
  const auto frag_id = [&](Word c) {
    const auto [it, inserted] = frag_of_comp.try_emplace(c, comp_of_frag.size());
    if (inserted) {
      comp_of_frag.push_back(c);
      elens.push_back(elength(comp_size_.at(c)));
    }
    return it->second;
  };
  for (const auto& [x, y] : new_links) {
    frag_id(component(x));
    frag_id(component(y));
  }

  KWayJoinPlan plan(elens);
  struct Rec {
    VertexId x, y;
    std::size_t link_id;
  };
  std::vector<Rec> recs;
  recs.reserve(new_links.size());
  for (const auto& [x, y] : new_links) {
    const std::size_t fx = frag_id(component(x));
    const std::size_t fy = frag_id(component(y));
    if (plan.same_tree(fx, fy)) {
      throw std::logic_error("link_many" + edge_str(x, y) +
                             ": endpoints already connected");
    }
    // Any stored appearance works as an anchor/pivot source; use the same
    // ones the sequential link() reads.
    recs.push_back({x, y, plan.link(fx, first_index(x), fy, last_index(y))});
  }

  for (auto& [key, idx] : edges_) {
    const auto it = frag_of_comp.find(comp_[static_cast<std::size_t>(key.u)]);
    if (it == frag_of_comp.end()) continue;
    const std::size_t f = it->second;
    idx.u1 = plan.map_index(f, idx.u1);
    idx.u2 = plan.map_index(f, idx.u2);
    idx.v1 = plan.map_index(f, idx.v1);
    idx.v2 = plan.map_index(f, idx.v2);
  }
  for (const Rec& r : recs) {
    const MergeNewIndexes ni = plan.edge_indexes(r.link_id);
    const EdgeKey key(r.x, r.y);
    EdgeIndexes idx;
    if (key.u == r.x) {
      idx = {ni.x_enter, ni.x_exit, ni.y_enter, ni.y_exit};
    } else {
      idx = {ni.y_enter, ni.y_exit, ni.x_enter, ni.x_exit};
    }
    edges_[key] = idx;
    tree_adj_[static_cast<std::size_t>(r.x)].push_back(r.y);
    tree_adj_[static_cast<std::size_t>(r.y)].push_back(r.x);
  }

  for (const Word c : comp_of_frag) comp_size_.erase(c);
  for (std::size_t w = 0; w < comp_.size(); ++w) {
    const auto it = frag_of_comp.find(comp_[w]);
    if (it == frag_of_comp.end()) continue;
    comp_[w] = comp_of_frag[plan.tree_of(it->second)];
  }
  for (std::size_t f = 0; f < comp_of_frag.size(); ++f) {
    if (plan.tree_of(f) != f) continue;
    comp_size_[comp_of_frag[f]] = tree_size(plan.tree_elength(f));
  }
}

std::vector<VertexId> EulerForest::tour(VertexId v) const {
  const Word c = component(v);
  const Word elen = elength(comp_size_.at(c));
  std::vector<VertexId> seq(static_cast<std::size_t>(elen), dmpc::kNoVertex);
  auto place = [&seq, elen](Word i, VertexId w) {
    if (i < 1 || i > elen) {
      throw std::logic_error("tour index " + std::to_string(i) +
                             " out of range [1," + std::to_string(elen) + "]");
    }
    auto& slot = seq[static_cast<std::size_t>(i - 1)];
    if (slot != dmpc::kNoVertex) {
      throw std::logic_error("duplicate tour index " + std::to_string(i));
    }
    slot = w;
  };
  for (const auto& [key, idx] : edges_) {
    if (comp_[static_cast<std::size_t>(key.u)] != c) continue;
    place(idx.u1, key.u);
    place(idx.u2, key.u);
    place(idx.v1, key.v);
    place(idx.v2, key.v);
  }
  for (VertexId w : seq) {
    if (w == dmpc::kNoVertex) {
      throw std::logic_error("tour has unassigned index");
    }
  }
  return seq;
}

void EulerForest::add_tree_from_tour(const std::vector<VertexId>& tour_seq) {
  const std::size_t len = tour_seq.size();
  if (len == 0 || len % 4 != 0) {
    throw std::invalid_argument("tour length must be a positive multiple of 4");
  }
  if (tour_seq.front() != tour_seq.back()) {
    throw std::invalid_argument("tour must start and end at the root");
  }
  // Verify all involved vertices are singletons.
  std::set<VertexId> vertices(tour_seq.begin(), tour_seq.end());
  for (VertexId v : vertices) {
    if (component_size(v) != 1) {
      throw std::invalid_argument("vertex " + std::to_string(v) +
                                  " is not a singleton");
    }
  }
  // The walk, and each edge's four indexes.
  const Word root_comp = comp_[static_cast<std::size_t>(tour_seq.front())];
  for (const auto& [key, idx] : indexes_from_tour(tour_seq)) {
    edges_[key] = idx;
    tree_adj_[static_cast<std::size_t>(key.u)].push_back(key.v);
    tree_adj_[static_cast<std::size_t>(key.v)].push_back(key.u);
  }
  for (VertexId v : vertices) {
    comp_size_.erase(comp_[static_cast<std::size_t>(v)]);
    comp_[static_cast<std::size_t>(v)] = root_comp;
  }
  comp_size_[root_comp] = static_cast<Word>(vertices.size());
}

bool EulerForest::validate(std::string* why) const {
  auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  // Component sizes must partition the vertex set.
  std::map<Word, Word> counted;
  for (std::size_t v = 0; v < comp_.size(); ++v) ++counted[comp_[v]];
  if (counted != comp_size_) return fail("component size table inconsistent");

  for (const auto& [c, size] : comp_size_) {
    // Pick any member vertex.
    VertexId member = dmpc::kNoVertex;
    for (std::size_t v = 0; v < comp_.size(); ++v) {
      if (comp_[v] == c) {
        member = static_cast<VertexId>(v);
        break;
      }
    }
    if (member == dmpc::kNoVertex) return fail("empty component");
    if (size == 1) {
      if (!tree_adj_[static_cast<std::size_t>(member)].empty()) {
        return fail("singleton with tree edges");
      }
      continue;
    }
    std::vector<VertexId> seq;
    try {
      seq = tour(member);
    } catch (const std::logic_error& e) {
      return fail(std::string("tour reconstruction failed: ") + e.what());
    }
    if (seq.front() != seq.back()) return fail("tour not closed at root");
    for (std::size_t k = 1; 2 * k < seq.size(); ++k) {
      if (seq[2 * k - 1] != seq[2 * k]) return fail("tour walk broken");
    }
    // Every pair must be a stored tree edge traversed exactly twice.
    std::map<EdgeKey, int> traversals;
    for (std::size_t k = 0; 2 * k + 1 < seq.size(); ++k) {
      const EdgeKey key(seq[2 * k], seq[2 * k + 1]);
      if (edges_.count(key) == 0) return fail("tour uses a non-tree edge");
      ++traversals[key];
    }
    for (const auto& [key, count] : traversals) {
      if (count != 2) return fail("tree edge not traversed exactly twice");
    }
    // The tour must span the whole component.
    std::set<VertexId> seen(seq.begin(), seq.end());
    if (static_cast<Word>(seen.size()) != size) {
      return fail("tour does not span the component");
    }
  }
  return true;
}

}  // namespace etour
