#include "core/maximal_matching.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace core {
namespace {

enum Tag : Word {
  kStatsQuery = 1,
  kStatsReply,
  kStatsCommit,
  kUpdateVertex,  // slice + addEdge/removeEdge instructions
  kMoveEdges,
  kSearchRequest,
  kSearchReply,
  kRefresh,
  kMateQuery,
  kMateReply,
};

}  // namespace

MaximalMatching::MaximalMatching(const MaximalMatchingConfig& config)
    : config_(config) {
  const double N = static_cast<double>(config_.n + config_.m_cap);
  const double sqrtN = std::sqrt(N);
  heavy_thresh_ = static_cast<std::size_t>(
      std::ceil(2.0 * std::sqrt(static_cast<double>(config_.m_cap) + 1.0)));
  alive_cap_ = static_cast<std::size_t>(
      std::ceil(std::sqrt(2.0 * static_cast<double>(config_.m_cap) + 1.0)));

  vertices_per_stats_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(sqrtN)));
  const std::size_t stats_count =
      (config_.n + vertices_per_stats_ - 1) / vertices_per_stats_;
  // Pool: enough light machines for every edge twice plus one alive and a
  // suspended chain per possible heavy vertex, with headroom.
  const std::size_t heavy_possible = static_cast<std::size_t>(
      std::ceil(2.0 * config_.m_cap / std::max<std::size_t>(heavy_thresh_, 1)));
  const std::size_t pool =
      8 + 2 * static_cast<std::size_t>(std::ceil(sqrtN)) + 2 * heavy_possible;
  const std::size_t mu = 1 + stats_count + pool;
  const dmpc::WordCount S = static_cast<dmpc::WordCount>(
      kMemorySlack * sqrtN + 512.0);
  cluster_ = std::make_unique<dmpc::Cluster>(mu, S);
  machines_.resize(mu);
  stats_.resize(config_.n);
  stats_begin_ = 1;
  stats_end_ = static_cast<MachineId>(1 + stats_count);
  for (MachineId m = stats_end_; m < mu; ++m) {
    free_pool_.push_back(static_cast<MachineId>(mu - 1 - (m - stats_end_)) );
  }
  // Charge the static footprints: MC's directory + update-history window,
  // and the per-vertex statistics on their machines.
  cluster_->memory(0).charge(static_cast<dmpc::WordCount>(
      2 * mu + kEventWords * static_cast<dmpc::WordCount>(sqrtN * 8)));
  for (VertexId v = 0; v < static_cast<VertexId>(config_.n); ++v) {
    cluster_->memory(stats_machine(v)).charge(kStatsWords);
  }
}

MachineId MaximalMatching::stats_machine(VertexId v) const {
  return static_cast<MachineId>(
      stats_begin_ + static_cast<std::size_t>(v) / vertices_per_stats_);
}

MaximalMatching::VertexStats& MaximalMatching::stats(VertexId v) {
  return stats_[static_cast<std::size_t>(v)];
}
const MaximalMatching::VertexStats& MaximalMatching::stats(VertexId v) const {
  return stats_[static_cast<std::size_t>(v)];
}

std::size_t MaximalMatching::light_capacity_edges() const {
  return 2 * heavy_thresh_ + 2;
}

void MaximalMatching::round_msg(MachineId from, MachineId to, Word tag,
                                std::size_t payload_words) {
  cluster_->send(from, to, tag,
                 std::vector<Word>(payload_words, 0));
  cluster_->finish_round();
}

// ---------------------------------------------------------------------------
// Event log (update-history H)
// ---------------------------------------------------------------------------

void MaximalMatching::append_event(const Event& ev) { log_.push_back(ev); }

void MaximalMatching::apply_events(MachineState& ms, std::size_t from,
                                   std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    const Event& ev = log_[i];
    // Events never apply to entries created after them (born > i): a
    // stale delete would otherwise kill a re-inserted edge, and a stale
    // status change would overwrite fresher information.
    switch (ev.kind) {
      case EventKind::kEdgeDelete: {
        auto drop = [&](VertexId a, VertexId b) {
          auto lit = ms.lists.find(a);
          if (lit == ms.lists.end()) return;
          auto eit = lit->second.find(b);
          if (eit == lit->second.end() || eit->second.born > i) return;
          lit->second.erase(eit);
          --ms.edge_slots;
          // Memory release is accounted in sync_machine, which knows the
          // machine id.
        };
        drop(ev.a, ev.b);
        drop(ev.b, ev.a);
        break;
      }
      case EventKind::kMatchSet:
        for (auto& [v, list] : ms.lists) {
          auto it = list.find(ev.a);
          if (it != list.end() && it->second.born <= i) {
            it->second.nb_matched = true;
            it->second.nb_mate = ev.b;
            it->second.nb_mate_light = ev.c;
          }
        }
        break;
      case EventKind::kMatchClear:
        for (auto& [v, list] : ms.lists) {
          auto it = list.find(ev.a);
          if (it != list.end() && it->second.born <= i) {
            it->second.nb_matched = false;
            it->second.nb_mate = dmpc::kNoVertex;
          }
        }
        break;
      case EventKind::kClassChange:
        for (auto& [v, list] : ms.lists) {
          for (auto& [nb, info] : list) {
            if (info.nb_mate == ev.a && info.born <= i) {
              info.nb_mate_light = ev.c;
            }
          }
        }
        break;
    }
  }
  ms.last_applied = to;
}

Word MaximalMatching::sync_machine(MachineId m) {
  MachineState& ms = machines_[m];
  const std::size_t missed = log_.size() - ms.last_applied;
  const std::size_t before = ms.edge_slots;
  apply_events(ms, ms.last_applied, log_.size());
  if (before > ms.edge_slots) {
    cluster_->memory(m).release(
        static_cast<dmpc::WordCount>(before - ms.edge_slots) *
        kEdgeEntryWords);
  }
  return static_cast<Word>(missed * kEventWords);
}

void MaximalMatching::refresh_one_machine() {
  // Round-robin lazy refresh: one machine per update, which bounds every
  // machine's staleness (and hence every H slice) by O(sqrt N) events.
  refresh_cursor_ = static_cast<MachineId>((refresh_cursor_ + 1) %
                                           machines_.size());
  const Word words = sync_machine(refresh_cursor_);
  cluster_->send(0, refresh_cursor_, kRefresh,
                 std::vector<Word>(static_cast<std::size_t>(words), 0));
  cluster_->finish_round();
}

// ---------------------------------------------------------------------------
// Stats round-trips (coordinator <-> stats machines)
// ---------------------------------------------------------------------------

void MaximalMatching::query_stats_round(const std::vector<VertexId>& vs) {
  for (VertexId v : vs) cluster_->send(0, stats_machine(v), kStatsQuery, {v});
  cluster_->finish_round();
  for (VertexId v : vs) {
    cluster_->send(stats_machine(v), 0, kStatsReply,
                   std::vector<Word>(kStatsWords, 0));
  }
  cluster_->finish_round();
}

void MaximalMatching::commit_stats_round(const std::vector<VertexId>& vs) {
  for (VertexId v : vs) {
    cluster_->send(0, stats_machine(v), kStatsCommit,
                   std::vector<Word>(kStatsWords, 0));
  }
  cluster_->finish_round();
}

// ---------------------------------------------------------------------------
// Storage management
// ---------------------------------------------------------------------------

MachineId MaximalMatching::alloc_machine(Role role, VertexId owner) {
  if (free_pool_.empty()) {
    throw std::runtime_error("machine pool exhausted");
  }
  const MachineId m = free_pool_.back();
  free_pool_.pop_back();
  MachineState& ms = machines_[m];
  ms.role = role;
  ms.owner = owner;
  ms.below = kNoMachine;
  ms.lists.clear();
  ms.edge_slots = 0;
  ms.last_applied = log_.size();
  return m;
}

void MaximalMatching::free_machine(MachineId m) {
  MachineState& ms = machines_[m];
  cluster_->memory(m).release(
      static_cast<dmpc::WordCount>(ms.edge_slots) * kEdgeEntryWords);
  ms = MachineState{};
  ms.last_applied = log_.size();
  free_pool_.push_back(m);
}

MachineId MaximalMatching::to_fit(std::size_t slots) {
  // MC's fill table lookup (local to the coordinator, hence free).
  // Best-fit: the fullest light machine that still has room — this is
  // the paper's "merge into half-full machines" discipline, which bounds
  // the number of used machines under churn (Lemma 3.2).
  MachineId best = kNoMachine;
  for (MachineId m = stats_end_; m < machines_.size(); ++m) {
    const MachineState& ms = machines_[m];
    if (ms.role != Role::kLight) continue;
    if (ms.edge_slots + slots > light_capacity_edges()) continue;
    if (best == kNoMachine || ms.edge_slots > machines_[best].edge_slots) {
      best = m;
    }
  }
  return best != kNoMachine ? best
                            : alloc_machine(Role::kLight, dmpc::kNoVertex);
}

void MaximalMatching::reclaim_if_empty(MachineId m) {
  if (m == kNoMachine) return;
  MachineState& ms = machines_[m];
  if (ms.role != Role::kLight) return;
  // Drop empty lists and reset their owners' storage pointers.  A list
  // may be empty while its owner's degree is still positive: during a
  // deletion, syncing the first endpoint's machine applies the delete
  // event to *both* sides when they share a machine, before the second
  // endpoint's degree is decremented.  Erasing such a list here would
  // strand the owner's storage pointer at a machine that may later be
  // freed and reallocated — so only settled (degree-0) owners are
  // reclaimed.
  for (auto it = ms.lists.begin(); it != ms.lists.end();) {
    if (it->second.empty() && stats(it->first).degree == 0) {
      if (stats(it->first).storage == m) {
        stats(it->first).storage = kNoMachine;
      }
      it = ms.lists.erase(it);
    } else {
      ++it;
    }
  }
  if (ms.lists.empty() && ms.edge_slots == 0) free_machine(m);
}

MaximalMatching::AdjList& MaximalMatching::list_of(VertexId v) {
  return machines_[stats(v).storage].lists[v];
}

void MaximalMatching::add_edge_side(VertexId x, VertexId y,
                                    const NbInfo& info_in) {
  NbInfo info = info_in;
  info.born = log_.size();  // events older than this must not touch it
  VertexStats& sx = stats(x);
  ++sx.degree;
  if (!sx.heavy) {
    if (sx.storage == kNoMachine) {
      sx.storage = to_fit(1);
    }
    MachineState& ms = machines_[sx.storage];
    Word slice = sync_machine(sx.storage);
    if (ms.edge_slots + 1 > light_capacity_edges()) {
      // moveEdges: relocate x's whole list to a machine that fits it.
      const std::size_t list_size = ms.lists[x].size();
      const MachineId dst = to_fit(list_size + 1);
      MachineState& dst_ms = machines_[dst];
      sync_machine(dst);
      dst_ms.lists[x] = std::move(ms.lists[x]);
      ms.lists.erase(x);
      ms.edge_slots -= list_size;
      dst_ms.edge_slots += list_size;
      cluster_->memory(sx.storage)
          .release(static_cast<dmpc::WordCount>(list_size) * kEdgeEntryWords);
      cluster_->memory(dst).charge(
          static_cast<dmpc::WordCount>(list_size) * kEdgeEntryWords);
      // One machine-to-machine message carrying the list.
      cluster_->send(sx.storage, dst, kMoveEdges,
                     std::vector<Word>(list_size * kEdgeEntryWords, 0));
      cluster_->finish_round();
      const MachineId old = sx.storage;
      sx.storage = dst;
      reclaim_if_empty(old);
    }
    MachineState& fin = machines_[sx.storage];
    fin.lists[x][y] = info;
    ++fin.edge_slots;
    cluster_->memory(sx.storage).charge(kEdgeEntryWords);
    // The MC->machine message carrying the slice and the new edge.
    cluster_->send(0, sx.storage, kUpdateVertex,
                   std::vector<Word>(
                       static_cast<std::size_t>(slice) + kEdgeEntryWords, 0));
    cluster_->finish_round();
    if (sx.degree >= heavy_thresh_) promote_to_heavy(x);
    return;
  }
  // Heavy: alive machine first, then the suspended stack.
  const Word slice = sync_machine(sx.storage);
  MachineState& alive = machines_[sx.storage];
  if (alive.edge_slots < alive_cap_) {
    alive.lists[x][y] = info;
    ++alive.edge_slots;
    cluster_->memory(sx.storage).charge(kEdgeEntryWords);
    cluster_->send(0, sx.storage, kUpdateVertex,
                   std::vector<Word>(
                       static_cast<std::size_t>(slice) + kEdgeEntryWords, 0));
    cluster_->finish_round();
    return;
  }
  MachineId top = sx.suspended_top;
  if (top == kNoMachine ||
      machines_[top].edge_slots + 1 > light_capacity_edges()) {
    const MachineId fresh = alloc_machine(Role::kSuspended, x);
    machines_[fresh].below = top;
    sx.suspended_top = fresh;
    top = fresh;
  }
  MachineState& sus = machines_[top];
  const Word sslice = sync_machine(top);
  sus.lists[x][y] = info;
  ++sus.edge_slots;
  cluster_->memory(top).charge(kEdgeEntryWords);
  cluster_->send(0, top, kUpdateVertex,
                 std::vector<Word>(
                     static_cast<std::size_t>(sslice) + kEdgeEntryWords, 0));
  cluster_->finish_round();
}

void MaximalMatching::remove_edge_side(VertexId x, VertexId y) {
  VertexStats& sx = stats(x);
  --sx.degree;
  // Eager removal where reachable (the endpoint's own storage machine is
  // touched by this update anyway); suspended copies are handled lazily
  // by the kEdgeDelete event.
  if (sx.storage != kNoMachine) {
    const MachineId m = sx.storage;
    const Word slice = sync_machine(m);
    MachineState& ms = machines_[m];
    auto lit = ms.lists.find(x);
    if (lit != ms.lists.end() && lit->second.erase(y) > 0) {
      --ms.edge_slots;
      cluster_->memory(m).release(kEdgeEntryWords);
    }
    cluster_->send(0, m, kUpdateVertex,
                   std::vector<Word>(static_cast<std::size_t>(slice) + 2, 0));
    cluster_->finish_round();
    if (!sx.heavy) reclaim_if_empty(m);
  }
  if (sx.heavy) {
    fetch_suspended(x);
    if (sx.degree < heavy_thresh_) demote_to_light(x);
  }
}

void MaximalMatching::fetch_suspended(VertexId x) {
  VertexStats& sx = stats(x);
  if (!sx.heavy) return;
  MachineState& alive = machines_[sx.storage];
  const std::size_t target =
      std::min<std::size_t>(sx.degree, alive_cap_);
  int safety = 0;
  while (alive.lists[x].size() < target && sx.suspended_top != kNoMachine) {
    if (++safety > 8) {
      throw std::logic_error("fetch_suspended did not converge");
    }
    const MachineId top = sx.suspended_top;
    sync_machine(top);  // applies lazy deletions before edges move
    MachineState& sus = machines_[top];
    auto& sus_list = sus.lists[x];
    std::size_t moved = 0;
    while (alive.lists[x].size() < target && !sus_list.empty()) {
      auto it = sus_list.begin();
      alive.lists[x][it->first] = it->second;
      sus_list.erase(it);
      ++moved;
    }
    sus.edge_slots -= moved;
    alive.edge_slots += moved;
    cluster_->memory(top).release(
        static_cast<dmpc::WordCount>(moved) * kEdgeEntryWords);
    cluster_->memory(sx.storage)
        .charge(static_cast<dmpc::WordCount>(moved) * kEdgeEntryWords);
    cluster_->send(top, sx.storage, kMoveEdges,
                   std::vector<Word>(moved * kEdgeEntryWords + 1, 0));
    cluster_->finish_round();
    if (sus_list.empty()) {
      sx.suspended_top = sus.below;
      free_machine(top);
    }
  }
}

void MaximalMatching::promote_to_heavy(VertexId x) {
  VertexStats& sx = stats(x);
  if (sx.heavy) return;
  sx.heavy = true;
  const MachineId src = sx.storage;
  sync_machine(src);
  MachineState& light = machines_[src];
  AdjList full = std::move(light.lists[x]);
  light.lists.erase(x);
  light.edge_slots -= full.size();
  cluster_->memory(src).release(
      static_cast<dmpc::WordCount>(full.size()) * kEdgeEntryWords);
  reclaim_if_empty(src);

  const MachineId alive_m = alloc_machine(Role::kAlive, x);
  sx.storage = alive_m;
  sx.suspended_top = kNoMachine;
  MachineState& alive = machines_[alive_m];
  std::size_t moved_alive = 0;
  auto it = full.begin();
  for (; it != full.end() && moved_alive < alive_cap_; ++it, ++moved_alive) {
    alive.lists[x][it->first] = it->second;
  }
  alive.edge_slots = moved_alive;
  cluster_->memory(alive_m).charge(
      static_cast<dmpc::WordCount>(moved_alive) * kEdgeEntryWords);
  std::size_t rest = full.size() - moved_alive;
  cluster_->send(src, alive_m, kMoveEdges,
                 std::vector<Word>(moved_alive * kEdgeEntryWords, 0));
  if (rest > 0) {
    const MachineId sus_m = alloc_machine(Role::kSuspended, x);
    sx.suspended_top = sus_m;
    MachineState& sus = machines_[sus_m];
    for (; it != full.end(); ++it) sus.lists[x][it->first] = it->second;
    sus.edge_slots = rest;
    cluster_->memory(sus_m).charge(
        static_cast<dmpc::WordCount>(rest) * kEdgeEntryWords);
    cluster_->send(src, sus_m, kMoveEdges,
                   std::vector<Word>(rest * kEdgeEntryWords, 0));
  }
  cluster_->finish_round();
  append_event({EventKind::kClassChange, x, dmpc::kNoVertex, false});
}

void MaximalMatching::demote_to_light(VertexId x) {
  VertexStats& sx = stats(x);
  if (!sx.heavy) return;
  sx.heavy = false;
  // Gather every remaining edge from the alive machine and the suspended
  // stack (syncing each applies pending deletions first).
  AdjList full;
  sync_machine(sx.storage);
  MachineState& alive = machines_[sx.storage];
  for (auto& [nb, info] : alive.lists[x]) full[nb] = info;
  free_machine(sx.storage);
  MachineId top = sx.suspended_top;
  int chain = 0;
  while (top != kNoMachine) {
    if (++chain > 8) throw std::logic_error("suspended chain too long");
    sync_machine(top);
    MachineState& sus = machines_[top];
    for (auto& [nb, info] : sus.lists[x]) full[nb] = info;
    const MachineId below = sus.below;
    free_machine(top);
    top = below;
  }
  sx.suspended_top = kNoMachine;
  const MachineId dst = to_fit(full.size());
  sx.storage = dst;
  MachineState& dst_ms = machines_[dst];
  sync_machine(dst);
  dst_ms.edge_slots += full.size();
  cluster_->memory(dst).charge(
      static_cast<dmpc::WordCount>(full.size()) * kEdgeEntryWords);
  cluster_->send(0, dst, kMoveEdges,
                 std::vector<Word>(full.size() * kEdgeEntryWords, 0));
  cluster_->finish_round();
  dst_ms.lists[x] = std::move(full);
  append_event({EventKind::kClassChange, x, dmpc::kNoVertex, true});
}

// ---------------------------------------------------------------------------
// Matching logic
// ---------------------------------------------------------------------------

void MaximalMatching::set_match(VertexId a, VertexId b) {
  stats(a).mate = b;
  stats(b).mate = a;
  append_event({EventKind::kMatchSet, a, b, !stats(b).heavy});
  append_event({EventKind::kMatchSet, b, a, !stats(a).heavy});
  commit_stats_round({a, b});
}

void MaximalMatching::clear_match(VertexId a, VertexId b) {
  stats(a).mate = dmpc::kNoVertex;
  stats(b).mate = dmpc::kNoVertex;
  append_event({EventKind::kMatchClear, a, dmpc::kNoVertex, false});
  append_event({EventKind::kMatchClear, b, dmpc::kNoVertex, false});
  commit_stats_round({a, b});
}

std::optional<VertexId> MaximalMatching::find_free_neighbor(VertexId z) {
  VertexStats& sz = stats(z);
  if (sz.storage == kNoMachine) return std::nullopt;
  const Word slice = sync_machine(sz.storage);
  // MC -> machine: search request carrying the slice; machine -> MC: the
  // answer.
  cluster_->send(0, sz.storage, kSearchRequest,
                 std::vector<Word>(static_cast<std::size_t>(slice) + 2, 0));
  cluster_->finish_round();
  std::optional<VertexId> found;
  const MachineState& ms = machines_[sz.storage];
  auto lit = ms.lists.find(z);
  if (lit != ms.lists.end()) {
    for (const auto& [nb, info] : lit->second) {
      if (!info.nb_matched) {
        found = nb;
        break;
      }
    }
  }
  cluster_->send(sz.storage, 0, kSearchReply, {found ? *found : -1});
  cluster_->finish_round();
  return found;
}

std::optional<VertexId> MaximalMatching::find_light_mated_neighbor(
    VertexId x) {
  VertexStats& sx = stats(x);
  const Word slice = sync_machine(sx.storage);
  cluster_->send(0, sx.storage, kSearchRequest,
                 std::vector<Word>(static_cast<std::size_t>(slice) + 2, 0));
  cluster_->finish_round();
  std::optional<VertexId> found;
  const MachineState& ms = machines_[sx.storage];
  auto lit = ms.lists.find(x);
  if (lit != ms.lists.end()) {
    for (const auto& [nb, info] : lit->second) {
      if (info.nb_matched && info.nb_mate_light &&
          info.nb_mate != dmpc::kNoVertex) {
        found = nb;
        break;
      }
    }
  }
  cluster_->send(sx.storage, 0, kSearchReply, {found ? *found : -1});
  cluster_->finish_round();
  return found;
}

void MaximalMatching::rematch_freed(VertexId z) {
  VertexStats& sz = stats(z);
  if (sz.mate != dmpc::kNoVertex) return;
  if (sz.degree == 0) return;
  const auto free_nb = find_free_neighbor(z);
  if (free_nb.has_value()) {
    set_match(z, *free_nb);
    return;
  }
  if (!sz.heavy) return;  // light and saturated neighbourhood: stays free
  // Invariant 3.1 restoration: steal an alive neighbour w whose mate is
  // light, then rematch that light ex-mate (which recurses at most once,
  // into the light case).
  const auto w = find_light_mated_neighbor(z);
  if (!w.has_value()) {
    // The degree-sum argument (Section 3) guarantees existence when the
    // alive set is full; an unmatched heavy vertex with no candidates can
    // only occur transiently below the threshold regime.
    return;
  }
  const VertexId mate_w = stats(*w).mate;
  clear_match(*w, mate_w);
  set_match(z, *w);
  rematch_freed(mate_w);
}

void MaximalMatching::restore_heavy_invariant(VertexId x) {
  rematch_freed(x);
}

void MaximalMatching::class_transition_check(VertexId v) {
  VertexStats& sv = stats(v);
  if (!sv.heavy && sv.degree >= heavy_thresh_) {
    promote_to_heavy(v);
  } else if (sv.heavy && sv.degree < heavy_thresh_) {
    demote_to_light(v);
  }
}

// ---------------------------------------------------------------------------
// Public operations
// ---------------------------------------------------------------------------

void MaximalMatching::preprocess(const graph::EdgeList& edges) {
  // Greedy maximal matching, standing in for the O(log n)-round
  // randomized CONGEST algorithm [23] whose round cost we charge below.
  oracle::Matching match(config_.n, dmpc::kNoVertex);
  for (auto [u, v] : edges) {
    if (match[static_cast<std::size_t>(u)] == dmpc::kNoVertex &&
        match[static_cast<std::size_t>(v)] == dmpc::kNoVertex) {
      match[static_cast<std::size_t>(u)] = v;
      match[static_cast<std::size_t>(v)] = u;
    }
  }
  // Degrees decide light/heavy placement.
  std::vector<std::size_t> deg(config_.n, 0);
  for (auto [u, v] : edges) {
    ++deg[static_cast<std::size_t>(u)];
    ++deg[static_cast<std::size_t>(v)];
  }
  for (VertexId v = 0; v < static_cast<VertexId>(config_.n); ++v) {
    VertexStats& sv = stats(v);
    sv.degree = 0;  // re-counted by add_edge_side below
    sv.mate = match[static_cast<std::size_t>(v)];
    sv.heavy = false;
    sv.storage = kNoMachine;
    sv.suspended_top = kNoMachine;
  }
  // Place the adjacency lists through the regular machinery (this also
  // promotes vertices that are born heavy).
  auto info_of = [&](VertexId nb) {
    const VertexId nb_mate = match[static_cast<std::size_t>(nb)];
    NbInfo info;
    info.nb_matched = nb_mate != dmpc::kNoVertex;
    info.nb_mate = nb_mate;
    info.nb_mate_light =
        nb_mate != dmpc::kNoVertex &&
        deg[static_cast<std::size_t>(nb_mate)] < heavy_thresh_;
    return info;
  };
  for (auto [u, v] : edges) {
    add_edge_side(u, v, info_of(v));
    add_edge_side(v, u, info_of(u));
  }
  // Charge the O(log n) preprocessing rounds: every machine active, O(N)
  // words shuffled per round.
  const std::uint64_t rounds = static_cast<std::uint64_t>(
      std::ceil(std::log2(std::max<std::size_t>(config_.n, 2))));
  for (std::uint64_t r = 0; r < rounds; ++r) {
    dmpc::RoundRecord rec;
    rec.active_machines = machines_.size();
    rec.comm_words = kEdgeEntryWords * 2 * edges.size() + config_.n;
    rec.messages = machines_.size();
    cluster_->charge_round(rec);
  }
  cluster_->metrics().reset();
}

void MaximalMatching::insert(VertexId x, VertexId y) {
  cluster_->begin_update();
  query_stats_round({x, y});
  const VertexId mx = stats(x).mate;
  const VertexId my = stats(y).mate;
  // A second stats round fetches the mates' class for the NbInfo copies.
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
  class_transition_check(x);
  class_transition_check(y);

  if (mx == dmpc::kNoVertex && my == dmpc::kNoVertex) {
    set_match(x, y);
  } else {
    // One matched endpoint suffices for maximality; an unmatched *heavy*
    // endpoint must still be matched to keep Invariant 3.1.
    if (mx == dmpc::kNoVertex && stats(x).heavy) restore_heavy_invariant(x);
    if (my == dmpc::kNoVertex && stats(y).heavy) restore_heavy_invariant(y);
  }
  commit_stats_round({x, y});
  refresh_one_machine();
  cluster_->end_update();
}

void MaximalMatching::erase(VertexId x, VertexId y) {
  cluster_->begin_update();
  query_stats_round({x, y});
  append_event({EventKind::kEdgeDelete, x, y, false});
  remove_edge_side(x, y);
  remove_edge_side(y, x);
  class_transition_check(x);
  class_transition_check(y);
  const bool was_matched = stats(x).mate == y;
  if (was_matched) {
    clear_match(x, y);
    rematch_freed(x);
    rematch_freed(y);
  }
  commit_stats_round({x, y});
  refresh_one_machine();
  cluster_->end_update();
}

VertexId MaximalMatching::mate_of(VertexId v) {
  cluster_->begin_update();
  cluster_->send(0, stats_machine(v), kMateQuery, {v});
  cluster_->finish_round();
  cluster_->send(stats_machine(v), 0, kMateReply, {stats(v).mate});
  cluster_->finish_round();
  cluster_->end_update();
  return stats(v).mate;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

oracle::Matching MaximalMatching::matching_snapshot() const {
  oracle::Matching m(config_.n, dmpc::kNoVertex);
  for (VertexId v = 0; v < static_cast<VertexId>(config_.n); ++v) {
    m[static_cast<std::size_t>(v)] = stats(v).mate;
  }
  return m;
}

bool MaximalMatching::is_heavy(VertexId v) const { return stats(v).heavy; }

std::size_t MaximalMatching::degree_of(VertexId v) const {
  return stats(v).degree;
}

bool MaximalMatching::validate(std::string* why) const {
  auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  // Mate symmetry.
  for (VertexId v = 0; v < static_cast<VertexId>(config_.n); ++v) {
    const VertexId mate = stats(v).mate;
    if (mate == dmpc::kNoVertex) continue;
    if (stats(mate).mate != v) return fail("asymmetric mates");
  }
  // Storage shape: count live entries per vertex after virtually applying
  // all pending events (test-only; does not touch the cluster).
  std::vector<std::size_t> stored(config_.n, 0);
  for (MachineId m = 0; m < machines_.size(); ++m) {
    MachineState copy = machines_[m];
    const_cast<MaximalMatching*>(this)->apply_events(copy, copy.last_applied,
                                                     log_.size());
    for (const auto& [v, list] : copy.lists) {
      stored[static_cast<std::size_t>(v)] += list.size();
      const VertexStats& sv = stats(v);
      if (!sv.heavy && sv.storage != m && !list.empty()) {
        return fail("light list fragment outside its storage machine");
      }
    }
  }
  for (VertexId v = 0; v < static_cast<VertexId>(config_.n); ++v) {
    if (stored[static_cast<std::size_t>(v)] != stats(v).degree) {
      return fail("stored degree mismatch for vertex " + std::to_string(v) +
                  ": stored " +
                  std::to_string(stored[static_cast<std::size_t>(v)]) +
                  " vs stats " + std::to_string(stats(v).degree));
    }
  }
  // Alive sets of heavy vertices are as full as they can be.
  for (VertexId v = 0; v < static_cast<VertexId>(config_.n); ++v) {
    const VertexStats& sv = stats(v);
    if (!sv.heavy) continue;
    MachineState copy = machines_[sv.storage];
    const_cast<MaximalMatching*>(this)->apply_events(copy, copy.last_applied,
                                                     log_.size());
    const std::size_t alive_now =
        copy.lists.count(v) ? copy.lists.at(v).size() : 0;
    const std::size_t target = std::min<std::size_t>(sv.degree, alive_cap_);
    if (alive_now + 0 < target && sv.suspended_top != kNoMachine) {
      return fail("alive set underfull while suspended edges exist");
    }
  }
  return true;
}

}  // namespace core
