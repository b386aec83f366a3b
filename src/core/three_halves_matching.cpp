#include "core/three_halves_matching.hpp"

#include <map>

#include "graph/graph.hpp"

namespace core {
namespace {
constexpr Word kCounterFanOut = 40;
constexpr Word kChainSearch = 41;
constexpr Word kChainReply = 42;
}  // namespace

std::vector<VertexId> ThreeHalvesMatching::all_neighbors(VertexId v) {
  std::vector<VertexId> out;
  const VertexStats& sv = stats(v);
  if (sv.storage == kNoMachine) return out;
  sync_machine(sv.storage);
  {
    const auto& lists = machines_[sv.storage].lists;
    auto it = lists.find(v);
    if (it != lists.end()) {
      for (const auto& [nb, info] : it->second) out.push_back(nb);
    }
  }
  MachineId m = sv.suspended_top;
  while (m != kNoMachine) {
    sync_machine(m);
    const auto& lists = machines_[m].lists;
    auto it = lists.find(v);
    if (it != lists.end()) {
      for (const auto& [nb, info] : it->second) out.push_back(nb);
    }
    m = machines_[m].below;
  }
  return out;
}

void ThreeHalvesMatching::bump_neighbor_counters(VertexId z, int delta) {
  const auto nbs = all_neighbors(z);
  if (nbs.empty()) return;
  // One fan-out round: MC sends each involved stats machine the ids whose
  // counters change.  O(n / sqrt N) recipients, O(sqrt N) total words.
  std::map<MachineId, std::size_t> per_machine;
  for (VertexId nb : nbs) {
    auto& s = stats(nb);
    if (delta > 0) {
      s.free_nbs += static_cast<std::size_t>(delta);
    } else {
      s.free_nbs -= std::min<std::size_t>(s.free_nbs,
                                          static_cast<std::size_t>(-delta));
    }
    ++per_machine[stats_machine(nb)];
  }
  for (const auto& [m, count] : per_machine) {
    cluster_->send(0, m, kCounterFanOut, std::vector<Word>(count + 1, 0));
  }
  cluster_->finish_round();
}

void ThreeHalvesMatching::set_match(VertexId a, VertexId b) {
  // a and b stop being free: their neighbours lose one free neighbour.
  bump_neighbor_counters(a, -1);
  bump_neighbor_counters(b, -1);
  MaximalMatching::set_match(a, b);
}

void ThreeHalvesMatching::clear_match(VertexId a, VertexId b) {
  MaximalMatching::clear_match(a, b);
  bump_neighbor_counters(a, +1);
  bump_neighbor_counters(b, +1);
}

std::optional<VertexId> ThreeHalvesMatching::find_free_neighbor_excluding(
    VertexId z, VertexId exclude) {
  const VertexStats& sz = stats(z);
  if (sz.storage == kNoMachine) return std::nullopt;
  // One request round to the storage chain, one reply round.
  std::vector<MachineId> chain{sz.storage};
  for (MachineId m = sz.suspended_top; m != kNoMachine;
       m = machines_[m].below) {
    chain.push_back(m);
  }
  for (MachineId m : chain) {
    const Word slice = sync_machine(m);
    cluster_->send(0, m, kChainSearch,
                   std::vector<Word>(static_cast<std::size_t>(slice) + 2, 0));
  }
  cluster_->finish_round();
  std::optional<VertexId> found;
  for (MachineId m : chain) {
    const auto& lists = machines_[m].lists;
    auto it = lists.find(z);
    Word answer = -1;
    if (it != lists.end()) {
      for (const auto& [nb, info] : it->second) {
        if (!info.nb_matched && nb != exclude) {
          answer = nb;
          break;
        }
      }
    }
    cluster_->send(m, 0, kChainReply, {answer});
    if (answer >= 0 && !found.has_value()) found = answer;
  }
  cluster_->finish_round();
  return found;
}

void ThreeHalvesMatching::settle_free_vertex(VertexId z) {
  VertexStats& sz = stats(z);
  if (sz.mate != dmpc::kNoVertex) return;
  if (sz.free_nbs > 0) {
    // A free neighbour exists somewhere; the chain search locates it.
    const auto w = find_free_neighbor_excluding(z, dmpc::kNoVertex);
    if (w.has_value()) {
      set_match(z, *w);
      return;
    }
  }
  if (sz.heavy) {
    // Invariant 3.1 steal; the freed light ex-mate is then settled
    // recursively (it lands in the light branch below).
    const auto w = find_light_mated_neighbor(z);
    if (!w.has_value()) return;
    const VertexId mate_w = stats(*w).mate;
    clear_match(*w, mate_w);
    set_match(z, *w);
    settle_free_vertex(mate_w);
    return;
  }
  // Light z with no free neighbour: hunt a length-3 augmenting path
  // z - w - w' - q.  z's machine lists its matched neighbours and their
  // mates; the mates' free-neighbour counters (one O(sqrt N) stats
  // round-trip) reveal which mate has a free neighbour besides z.
  if (sz.storage == kNoMachine) return;  // isolated vertex
  sync_machine(sz.storage);
  const auto& lists = machines_[sz.storage].lists;
  auto lit = lists.find(z);
  if (lit == lists.end()) return;
  std::vector<std::pair<VertexId, VertexId>> candidates;  // (w, w')
  for (const auto& [w, info] : lit->second) {
    if (info.nb_matched && info.nb_mate != dmpc::kNoVertex) {
      candidates.emplace_back(w, info.nb_mate);
    }
  }
  if (candidates.empty()) return;
  // Stats round-trip for the mates' counters.
  {
    std::vector<VertexId> mates;
    mates.reserve(candidates.size());
    for (const auto& [w, wp] : candidates) mates.push_back(wp);
    query_stats_round(mates);
  }
  for (const auto& [w, wp] : candidates) {
    const bool z_adjacent_to_wp = lit->second.count(wp) > 0;
    const std::size_t needed = z_adjacent_to_wp ? 2 : 1;
    if (stats(wp).free_nbs < needed) continue;
    const auto q = find_free_neighbor_excluding(wp, z);
    if (!q.has_value()) continue;
    clear_match(w, wp);
    set_match(z, w);
    set_match(wp, *q);
    return;
  }
}

void ThreeHalvesMatching::eliminate_insert_path(VertexId u, VertexId v) {
  // Inserting (u, v) with u matched and v free can only create the
  // length-3 path v - u - u' - w; it exists iff u' has a free neighbour
  // besides v.
  const VertexId up = stats(u).mate;
  if (up == dmpc::kNoVertex) return;
  query_stats_round({up});
  const bool up_adjacent_to_v = [&] {
    // u''s adjacency to v is checked on v's machine (already synced by the
    // caller's add_edge_side).
    const VertexStats& sv = stats(v);
    if (sv.storage == kNoMachine) return false;
    const auto& lists = machines_[sv.storage].lists;
    auto it = lists.find(v);
    return it != lists.end() && it->second.count(up) > 0;
  }();
  const std::size_t needed = up_adjacent_to_v ? 2 : 1;
  if (stats(up).free_nbs < needed) return;
  const auto w = find_free_neighbor_excluding(up, v);
  if (!w.has_value()) return;
  clear_match(u, up);
  set_match(up, *w);
  set_match(u, v);
}

void ThreeHalvesMatching::insert(VertexId x, VertexId y) {
  graph::require_edge_endpoints(x, y, config_.n, "ThreeHalvesMatching");
  cluster_->begin_update();
  query_stats_round({x, y});
  const VertexId mx = stats(x).mate;
  const VertexId my = stats(y).mate;
  std::vector<VertexId> mates;
  if (mx != dmpc::kNoVertex) mates.push_back(mx);
  if (my != dmpc::kNoVertex) mates.push_back(my);
  if (!mates.empty()) query_stats_round(mates);

  NbInfo about_y{my != dmpc::kNoVertex, my,
                 my != dmpc::kNoVertex && !stats(my).heavy};
  NbInfo about_x{mx != dmpc::kNoVertex, mx,
                 mx != dmpc::kNoVertex && !stats(mx).heavy};
  add_edge_side(x, y, about_y);
  add_edge_side(y, x, about_x);
  // The new edge itself changes the endpoints' free-neighbour counters.
  if (mx == dmpc::kNoVertex) ++stats(y).free_nbs;
  if (my == dmpc::kNoVertex) ++stats(x).free_nbs;
  class_transition_check(x);
  class_transition_check(y);

  if (mx == dmpc::kNoVertex && my == dmpc::kNoVertex) {
    set_match(x, y);
  } else if (mx != dmpc::kNoVertex && my == dmpc::kNoVertex) {
    if (stats(y).heavy) {
      settle_free_vertex(y);  // Invariant 3.1 for a newly heavy endpoint
    } else {
      eliminate_insert_path(x, y);
    }
  } else if (my != dmpc::kNoVertex && mx == dmpc::kNoVertex) {
    if (stats(x).heavy) {
      settle_free_vertex(x);
    } else {
      eliminate_insert_path(y, x);
    }
  }
  commit_stats_round({x, y});
  refresh_one_machine();
  cluster_->end_update();
}

void ThreeHalvesMatching::erase(VertexId x, VertexId y) {
  graph::require_edge_endpoints(x, y, config_.n, "ThreeHalvesMatching");
  cluster_->begin_update();
  query_stats_round({x, y});
  append_event({EventKind::kEdgeDelete, x, y, false});
  remove_edge_side(x, y);
  remove_edge_side(y, x);
  // The removed edge no longer contributes to the counters: an endpoint
  // that was free stops being a free neighbour of the other.
  if (stats(x).mate == dmpc::kNoVertex) {
    auto& s = stats(y);
    if (s.free_nbs > 0) --s.free_nbs;
  }
  if (stats(y).mate == dmpc::kNoVertex) {
    auto& s = stats(x);
    if (s.free_nbs > 0) --s.free_nbs;
  }
  class_transition_check(x);
  class_transition_check(y);
  const bool was_matched = stats(x).mate == y;
  if (was_matched) {
    clear_match(x, y);
    settle_free_vertex(x);
    settle_free_vertex(y);
  }
  commit_stats_round({x, y});
  refresh_one_machine();
  cluster_->end_update();
}

}  // namespace core
