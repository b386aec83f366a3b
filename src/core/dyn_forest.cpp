#include "core/dyn_forest.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "dmpc/primitives.hpp"
#include "dmpc/trace.hpp"
#include "etour/tour_builder.hpp"
#include "oracle/dsu.hpp"

namespace core {
namespace {

// Protocol message tags.
enum Tag : Word {
  kPrepare = 1,
  kPrepReply,
  kDirQuery,
  kDirReply,
  kMergeBcast,
  kSplitBcast,
  kPathMaxBcast,
  kProposal,
  kNewRecord,
  kDeleteRecord,
  kDirUpdate,
  kPromote,
  kQuery,
  kQueryReply,
  // Batch-dynamic protocol (apply_batch): the ingress scatters each
  // update of a stage to its coordinator machine, which runs the
  // update's share of the stage's O(1) rounds.  Surviving-appearance
  // minima travel as batch replies.  The rest: k-way split descriptors
  // (tree deletions and committing cycle-rule swaps), cached-index
  // overrides for records whose surviving appearance a cut invalidated,
  // per-fragment-pair replacement minima (machine -> pair collector ->
  // component owner), cascade link grants (owner -> link edge machine),
  // link broadcasts, and merge descriptors for the shared k-way join.
  kBatchScatter,
  kBatchReply,
  kCutBcast,
  kCachedFix,
  kPairMin,
  kLinkGrant,
  kLinkBcast,
  kMergeDesc,
  // Read-only query batches (answer_queries): path-weight queries are
  // scattered to per-query coordinators, which broadcast the endpoints
  // for the shard scans, fold the scan replies, broadcast the resolved
  // tour intervals, fold the local path sums, and return the answers to
  // the ingress.  Connectivity-only queries reuse kQuery/kQueryReply.
  kQueryScanBcast,
  kQueryScanReply,
  kQuerySumBcast,
  kQuerySumReply,
  kQueryAnswer,
};

// A tree edge's child endpoint owns the inner pair of the edge's four
// tour indexes (its appearances nest inside the parent's); that pair is
// the split-off subtree's interval [f_c, l_c].
struct ChildInterval {
  bool u_is_child = false;
  Word f_c = 0, l_c = 0;

  // The edge lies on the tree path between the subtree intervals
  // [fx, lx] and [fy, ly] iff its child subtree holds exactly one of
  // them (the ancestor-XOR criterion).
  [[nodiscard]] bool on_path(Word fx, Word lx, Word fy, Word ly) const {
    return (f_c <= fx && lx <= l_c) != (f_c <= fy && ly <= l_c);
  }
};

// Takes the four indexes one by one, so shard scans read the index
// columns without materializing an EdgeRec per slot.
ChildInterval child_interval(Word iu1, Word iu2, Word iv1, Word iv2) {
  const Word u_lo = std::min(iu1, iu2);
  const Word v_lo = std::min(iv1, iv2);
  if (u_lo > v_lo) return {true, u_lo, std::max(iu1, iu2)};
  return {false, v_lo, std::max(iv1, iv2)};
}

// Calls fn(slot) for every tree record of `comp` in the shard that lies
// on the tree path between [fx, lx] and [fy, ly].
template <typename Shard, typename Fn>
void for_each_path_slot(const Shard& es, Word comp, Word fx, Word lx, Word fy,
                        Word ly, const Fn& fn) {
  for (std::size_t i = 0; i < es.size(); ++i) {
    if (es.tree[i] == 0 || es.comp[i] != comp) continue;
    if (child_interval(es.iu1[i], es.iu2[i], es.iv1[i], es.iv2[i])
            .on_path(fx, lx, fy, ly)) {
      fn(i);
    }
  }
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

DynamicForest::DynamicForest(const DynForestConfig& config)
    : config_(config), next_comp_id_(static_cast<Word>(config.n)) {
  const double N = static_cast<double>(config_.n + config_.m_cap);
  const std::size_t mu = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::ceil(std::sqrt(N))));
  const dmpc::WordCount S = static_cast<dmpc::WordCount>(
      kMemorySlack * std::sqrt(N) + 256.0);
  cluster_ = std::make_unique<dmpc::Cluster>(mu, S);
  machines_.resize(mu);
  // Vertex records: comp(v) = v, no tour index yet.
  for (VertexId v = 0; v < static_cast<VertexId>(config_.n); ++v) {
    MachineState& ms = machines_[vertex_machine(v)];
    ms.vertices[v] = VertexRec{v, etour::kNoIndex};
    cluster_->memory(vertex_machine(v)).charge(kVertexRecWords);
    machines_[dir_machine(v)].comp_sizes[v] = 1;
    cluster_->memory(dir_machine(v)).charge(kDirRecWords);
  }
}

std::size_t DynamicForest::num_machines() const { return machines_.size(); }

std::uint64_t DynamicForest::edge_key(VertexId u, VertexId v) const {
  const EdgeKey k(u, v);
  return static_cast<std::uint64_t>(k.u) * config_.n +
         static_cast<std::uint64_t>(k.v);
}

MachineId DynamicForest::edge_machine(VertexId u, VertexId v) const {
  return static_cast<MachineId>(splitmix64(edge_key(u, v)) %
                                machines_.size());
}

void DynamicForest::charge_edge_record(MachineId m) {
  cluster_->memory(m).charge(kEdgeRecWords);
}

void DynamicForest::release_edge_record(MachineId m) {
  cluster_->memory(m).release(kEdgeRecWords);
}

// ---------------------------------------------------------------------------
// Atomic updates: the undo journal (config_.atomic_updates)
// ---------------------------------------------------------------------------

void DynamicForest::journal_begin() {
  if (!config_.atomic_updates) return;
  journal_mem_used_.resize(machines_.size());
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    machines_[m].journal.clear();
    machines_[m].journal_armed = true;
    journal_mem_used_[m] = cluster_->memory(static_cast<MachineId>(m)).used();
  }
  journal_next_comp_id_ = next_comp_id_;
  journal_batch_stats_ = batch_stats_;
  journal_active_ = true;
}

void DynamicForest::journal_commit() {
  if (!journal_active_) return;
  for (MachineState& ms : machines_) ms.journal_armed = false;
  journal_active_ = false;
}

void DynamicForest::journal_rollback() {
  if (!journal_active_) return;
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    MachineState& ms = machines_[m];
    // Reverse replay: the EARLIEST pre-image of a key wins, so later
    // duplicates are harmlessly overwritten on the way back.
    for (auto it = ms.journal.edges.rbegin(); it != ms.journal.edges.rend();
         ++it) {
      if (it->existed) {
        ms.edges.put(it->key, it->rec);
      } else {
        ms.edges.erase(it->key);
      }
    }
    for (auto it = ms.journal.vertices.rbegin();
         it != ms.journal.vertices.rend(); ++it) {
      ms.vertices[it->v] = it->rec;
    }
    for (auto it = ms.journal.dirs.rbegin(); it != ms.journal.dirs.rend();
         ++it) {
      if (it->existed) {
        ms.comp_sizes[it->comp] = it->size;
      } else {
        ms.comp_sizes.erase(it->comp);
      }
    }
    ms.journal_armed = false;
    cluster_->memory(static_cast<MachineId>(m))
        .restore_used(journal_mem_used_[m]);
  }
  next_comp_id_ = journal_next_comp_id_;
  batch_stats_ = journal_batch_stats_;
  cluster_->drop_round_state();
  cluster_->metrics().abort_update();
  journal_active_ = false;
}

// ---------------------------------------------------------------------------
// Preprocessing (Section 5 "Preprocessing" + 5.1 bucketization)
// ---------------------------------------------------------------------------

void DynamicForest::preprocess(const graph::EdgeList& edges) {
  graph::WeightedEdgeList wl;
  wl.reserve(edges.size());
  for (auto [u, v] : edges) wl.push_back({u, v, 1});
  preprocess(wl);
}

void DynamicForest::preprocess(const graph::WeightedEdgeList& edges) {
  // Select the spanning forest.  The MST variant considers edges bucket by
  // bucket in increasing (1+eps) weight classes — exactly the paper's
  // bucketization, which is what makes the result a (1+eps)-approximate
  // MSF rather than an exact one.
  std::vector<std::size_t> order(edges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (config_.weighted) {
    const double log_base = std::log1p(config_.eps);
    auto bucket = [&](Weight w) {
      return static_cast<long>(std::floor(
          std::log(static_cast<double>(std::max<Weight>(w, 1))) / log_base));
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return bucket(edges[a].w) < bucket(edges[b].w);
                     });
  }
  oracle::Dsu dsu(config_.n);
  std::vector<bool> is_tree(edges.size(), false);
  std::vector<std::vector<VertexId>> tree_adj(config_.n);
  for (std::size_t i : order) {
    const auto& e = edges[i];
    if (dsu.unite(static_cast<std::size_t>(e.u),
                  static_cast<std::size_t>(e.v))) {
      is_tree[i] = true;
      tree_adj[static_cast<std::size_t>(e.u)].push_back(e.v);
      tree_adj[static_cast<std::size_t>(e.v)].push_back(e.u);
    }
  }

  // Build one E-tour per non-singleton component, rooted at the smallest
  // vertex, and record every vertex's component id and first appearance.
  // The per-root builds are independent, so they run on the installed
  // executor; every tree edge and vertex belongs to exactly one root, so
  // the parallel writes are disjoint and the root-order merge below is
  // deterministic whichever executor ran them.
  std::vector<Word> comp_of(config_.n);
  std::vector<Word> first_idx(config_.n, etour::kNoIndex);
  std::map<EdgeKey, etour::EdgeIndexes> tree_idx;
  std::map<Word, Word> comp_size;
  for (VertexId v = 0; v < static_cast<VertexId>(config_.n); ++v) {
    const std::size_t root = dsu.find(static_cast<std::size_t>(v));
    comp_of[static_cast<std::size_t>(v)] = static_cast<Word>(root);
  }
  std::vector<VertexId> roots;
  for (VertexId root = 0; root < static_cast<VertexId>(config_.n); ++root) {
    if (comp_of[static_cast<std::size_t>(root)] == root) roots.push_back(root);
  }
  struct RootBuild {
    std::vector<std::pair<EdgeKey, etour::EdgeIndexes>> tree_idx;
    Word size = 1;
  };
  std::vector<RootBuild> built(roots.size());
  exec().run(roots.size(), [&](std::size_t r) {
    const auto tour = etour::build_tour(tree_adj, roots[r]);
    if (tour.empty()) return;  // singleton, size stays 1
    RootBuild& rb = built[r];
    for (const auto& [key, idx] : etour::indexes_from_tour(tour)) {
      rb.tree_idx.emplace_back(key, idx);
    }
    std::set<VertexId> members(tour.begin(), tour.end());
    for (const auto& [w, fi] : etour::first_indexes_of_tour(tour)) {
      first_idx[static_cast<std::size_t>(w)] = fi;
    }
    rb.size = static_cast<Word>(members.size());
  });
  for (std::size_t r = 0; r < roots.size(); ++r) {
    for (const auto& [key, idx] : built[r].tree_idx) tree_idx[key] = idx;
    comp_size[roots[r]] = built[r].size;
  }

  // Distribute the records (memory-charged), replacing the initial
  // singleton directory.
  for (VertexId v = 0; v < static_cast<VertexId>(config_.n); ++v) {
    const std::size_t sv = static_cast<std::size_t>(v);
    VertexRec& rec = machines_[vertex_machine(v)].vertices[v];
    rec.comp = comp_of[sv];
    rec.cached_idx = first_idx[sv];
    auto& dir = machines_[dir_machine(v)].comp_sizes;
    if (comp_of[sv] != v) {
      dir.erase(v);
      cluster_->memory(dir_machine(v)).release(kDirRecWords);
    }
  }
  for (const auto& [comp, size] : comp_size) {
    machines_[dir_machine(comp)].comp_sizes[comp] = size;
  }
  // Each machine installs its own bucket of edge records (pure reads of
  // comp_of / tree_idx / first_idx, writes only to its own shard and
  // memory meter), so the distribution parallelizes; per-machine
  // insertion order is input order either way.
  std::vector<std::vector<std::size_t>> edges_by_machine(machines_.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    edges_by_machine[edge_machine(edges[i].u, edges[i].v)].push_back(i);
  }
  cluster_->for_each_machine([&](MachineId m) {
    machines_[m].edges.reserve(machines_[m].edges.size() +
                               edges_by_machine[m].size());
    for (std::size_t i : edges_by_machine[m]) {
      const auto& e = edges[i];
      const EdgeKey key(e.u, e.v);
      EdgeRec rec;
      rec.u = key.u;
      rec.v = key.v;
      rec.comp = comp_of[static_cast<std::size_t>(key.u)];
      rec.tree = is_tree[i];
      rec.w = e.w;
      if (rec.tree) {
        const etour::EdgeIndexes& idx = tree_idx.at(key);
        rec.iu1 = idx.u1;
        rec.iu2 = idx.u2;
        rec.iv1 = idx.v1;
        rec.iv2 = idx.v2;
      } else {
        rec.iu1 = first_idx[static_cast<std::size_t>(key.u)];
        rec.iv1 = first_idx[static_cast<std::size_t>(key.v)];
      }
      machines_[m].edges.put(edge_key(key.u, key.v), rec);
      charge_edge_record(m);
    }
  });

  // Charge the O(log n)-round, all-machines, O(N)-communication cost of
  // the contraction-based preprocessing the paper builds on ([3] plus the
  // Section 5 parallel tour merge).
  const std::uint64_t rounds = static_cast<std::uint64_t>(
      std::ceil(std::log2(std::max<std::size_t>(config_.n, 2))));
  const dmpc::WordCount words =
      kEdgeRecWords * edges.size() + kVertexRecWords * config_.n;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    dmpc::RoundRecord rec;
    rec.active_machines = machines_.size();
    rec.comm_words = words;
    rec.messages = machines_.size();
    cluster_->charge_round(rec);
  }
}

// ---------------------------------------------------------------------------
// Prepare phase (rounds 1-4 of every update)
// ---------------------------------------------------------------------------

DynamicForest::EndpointScan DynamicForest::scan_endpoints(MachineId m,
                                                          VertexId x,
                                                          VertexId y) const {
  const MachineState& ms = machines_[m];
  const EdgeShard& es = ms.edges;
  EndpointScan s;
  auto touch = [&](VertexId side, Word i1, Word i2) {
    if (side == x) {
      s.fx = s.has_x ? std::min(s.fx, std::min(i1, i2)) : std::min(i1, i2);
      s.lx = s.has_x ? std::max(s.lx, std::max(i1, i2)) : std::max(i1, i2);
      s.has_x = true;
    } else if (side == y) {
      s.fy = s.has_y ? std::min(s.fy, std::min(i1, i2)) : std::min(i1, i2);
      s.ly = s.has_y ? std::max(s.ly, std::max(i1, i2)) : std::max(i1, i2);
      s.has_y = true;
    }
  };
  for (std::size_t i = 0; i < es.size(); ++i) {
    if (es.tree[i] == 0) continue;
    touch(es.u[i], es.iu1[i], es.iu2[i]);
    touch(es.v[i], es.iv1[i], es.iv2[i]);
  }
  if (m == vertex_machine(x)) {
    s.hosts_x = true;
    s.cx = ms.vertices.at(x).comp;
  }
  if (m == vertex_machine(y)) {
    s.hosts_y = true;
    s.cy = ms.vertices.at(y).comp;
  }
  if (m == edge_machine(x, y)) {
    const std::ptrdiff_t slot = es.find(edge_key(x, y));
    if (slot != EdgeShard::kNpos) {
      s.edge_here = true;
      s.edge = es.get(static_cast<std::size_t>(slot));
    }
  }
  return s;
}

std::vector<Word> DynamicForest::scan_reply(const EndpointScan& s) {
  std::vector<Word> reply;
  if (s.has_x) reply.insert(reply.end(), {1, s.fx, s.lx});
  if (s.has_y) reply.insert(reply.end(), {2, s.fy, s.ly});
  if (s.hosts_x) reply.insert(reply.end(), {3, s.cx});
  if (s.hosts_y) reply.insert(reply.end(), {4, s.cy});
  if (s.edge_here) {
    reply.insert(reply.end(),
                 {5, s.edge.tree ? 1 : 0, s.edge.w, s.edge.iu1, s.edge.iu2,
                  s.edge.iv1, s.edge.iv2});
  }
  return reply;
}

DynamicForest::Prep DynamicForest::fold_scans(
    const std::vector<EndpointScan>& scans) {
  Prep p;
  bool have_x = false, have_y = false;
  for (const EndpointScan& s : scans) {
    if (s.has_x) {
      p.fx = have_x ? std::min(p.fx, s.fx) : s.fx;
      p.lx = have_x ? std::max(p.lx, s.lx) : s.lx;
      have_x = true;
    }
    if (s.has_y) {
      p.fy = have_y ? std::min(p.fy, s.fy) : s.fy;
      p.ly = have_y ? std::max(p.ly, s.ly) : s.ly;
      have_y = true;
    }
    if (s.hosts_x) p.cx = s.cx;
    if (s.hosts_y) p.cy = s.cy;
    if (s.edge_here) {
      p.edge_exists = true;
      p.edge = s.edge;
    }
  }
  if (!have_x) p.fx = p.lx = etour::kNoIndex;
  if (!have_y) p.fy = p.ly = etour::kNoIndex;
  return p;
}

DynamicForest::Prep DynamicForest::prepare(VertexId x, VertexId y) {
  // Round 1: ingress broadcasts the touched endpoints to all machines.
  dmpc::broadcast(*cluster_, 0, kPrepare, {x, y});

  // Round 2: every machine owning relevant state scans its own shard —
  // concurrently under a thread-pool executor — and stages its reply to
  // the ingress (local f/l contributions from tree-edge records touching
  // x or y, the endpoints' component ids from their home machines, and
  // the (x,y) record itself from its edge machine).  The finish_round()
  // barrier merges the per-machine staging deterministically.
  std::vector<EndpointScan> scans(machines_.size());
  cluster_->for_each_machine([&](MachineId m) {
    scans[m] = scan_endpoints(m, x, y);
    std::vector<Word> reply = scan_reply(scans[m]);
    if (!reply.empty()) cluster_->send(m, 0, kPrepReply, std::move(reply));
  });
  cluster_->finish_round();
  Prep p = fold_scans(scans);

  // Round 3: directory query; round 4: size replies.
  cluster_->send(0, dir_machine(p.cx), kDirQuery, {p.cx});
  if (p.cy != p.cx) cluster_->send(0, dir_machine(p.cy), kDirQuery, {p.cy});
  cluster_->finish_round();
  p.size_cx = machines_[dir_machine(p.cx)].comp_sizes.at(p.cx);
  p.size_cy = p.cy == p.cx
                  ? p.size_cx
                  : machines_[dir_machine(p.cy)].comp_sizes.at(p.cy);
  cluster_->send(dir_machine(p.cx), 0, kDirReply, {p.cx, p.size_cx});
  if (p.cy != p.cx) {
    cluster_->send(dir_machine(p.cy), 0, kDirReply, {p.cy, p.size_cy});
  }
  cluster_->finish_round();
  return p;
}

// ---------------------------------------------------------------------------
// Local transform application
// ---------------------------------------------------------------------------

void DynamicForest::apply_merge_local(MachineState& ms, const MergeBcast& mb) {
  const etour::RerootParams rp{mb.elen_ty, mb.reroot_l_y};
  const etour::MergeParams mp{mb.f_x, mb.elen_ty};
  auto ty_xform = [&](Word i) {
    if (i == etour::kNoIndex) return i;
    const Word r = mb.reroot ? etour::reroot_index(i, rp) : i;
    return etour::merge_shift_ty(r, mp);
  };
  auto tx_xform = [&](Word i) {
    return i == etour::kNoIndex ? i : etour::merge_shift_tx(i, mp);
  };
  EdgeShard& es = ms.edges;
  for (std::size_t i = 0; i < es.size(); ++i) {
    // Crossing records keep their pre-split component id, which is the
    // rest side cx of the re-merge that resolves them.  The guard scopes
    // resolution to this merge's own split, leaving any other split's
    // crossing records alone.
    if (es.crossing[i] != 0 && mb.resolve_crossing && es.comp[i] == mb.cx) {
      ms.jlog_edge_slot(i);
      es.iu1[i] = es.u_in_subtree[i] != 0 ? ty_xform(es.iu1[i])
                                          : tx_xform(es.iu1[i]);
      es.iv1[i] = es.v_in_subtree[i] != 0 ? ty_xform(es.iv1[i])
                                          : tx_xform(es.iv1[i]);
      // Endpoints that were singletons before this merge (kNoIndex cached)
      // gain their first appearances now; the broadcast carries them.
      if (es.u[i] == mb.x) es.iu1[i] = mb.cached_x;
      if (es.u[i] == mb.y) es.iu1[i] = mb.cached_y;
      if (es.v[i] == mb.x) es.iv1[i] = mb.cached_x;
      if (es.v[i] == mb.y) es.iv1[i] = mb.cached_y;
      es.comp[i] = mb.cx;
      es.crossing[i] = 0;
      es.u_in_subtree[i] = es.v_in_subtree[i] = 0;
      continue;
    }
    if (es.comp[i] == mb.cy) {
      ms.jlog_edge_slot(i);
      es.iu1[i] = ty_xform(es.iu1[i]);
      es.iu2[i] = es.tree[i] != 0 ? ty_xform(es.iu2[i]) : es.iu2[i];
      es.iv1[i] = ty_xform(es.iv1[i]);
      es.iv2[i] = es.tree[i] != 0 ? ty_xform(es.iv2[i]) : es.iv2[i];
      es.comp[i] = mb.cx;
    } else if (es.comp[i] == mb.cx) {
      ms.jlog_edge_slot(i);
      es.iu1[i] = tx_xform(es.iu1[i]);
      es.iu2[i] = es.tree[i] != 0 ? tx_xform(es.iu2[i]) : es.iu2[i];
      es.iv1[i] = tx_xform(es.iv1[i]);
      es.iv2[i] = es.tree[i] != 0 ? tx_xform(es.iv2[i]) : es.iv2[i];
    }
  }
  for (auto& [v, rec] : ms.vertices) {
    if (rec.comp == mb.cy || rec.comp == mb.cx || v == mb.x || v == mb.y) {
      ms.jlog_vertex(v, rec);
    }
    if (rec.comp == mb.cy) {
      rec.cached_idx = ty_xform(rec.cached_idx);
      rec.comp = mb.cx;
    } else if (rec.comp == mb.cx) {
      rec.cached_idx = tx_xform(rec.cached_idx);
    }
    if (v == mb.x) rec.cached_idx = mb.cached_x;
    if (v == mb.y) rec.cached_idx = mb.cached_y;
  }
}

void DynamicForest::apply_split_local(MachineState& ms, const SplitBcast& sb) {
  const etour::SplitParams sp{sb.f_c, sb.l_c};
  const std::uint64_t cut_key = edge_key(sb.parent, sb.child);
  auto xform = [&](Word i) {
    if (i == etour::kNoIndex) return i;
    return etour::split_in_subtree(i, sp) ? etour::split_shift_subtree(i, sp)
                                          : etour::split_shift_rest(i, sp);
  };
  EdgeShard& es = ms.edges;
  for (std::size_t i = 0; i < es.size(); ++i) {
    if (es.comp[i] != sb.comp) continue;
    if (es.key_at(i) == cut_key) {
      continue;  // deleted by an explicit message next round
    }
    ms.jlog_edge_slot(i);
    if (es.tree[i] != 0) {
      const bool inside = etour::split_in_subtree(es.iu1[i], sp);
      es.iu1[i] = xform(es.iu1[i]);
      es.iu2[i] = xform(es.iu2[i]);
      es.iv1[i] = xform(es.iv1[i]);
      es.iv2[i] = xform(es.iv2[i]);
      if (inside) es.comp[i] = sb.new_comp;
    } else {
      const bool su = etour::split_in_subtree(es.iu1[i], sp);
      const bool sv = etour::split_in_subtree(es.iv1[i], sp);
      es.iu1[i] = xform(es.iu1[i]);
      es.iv1[i] = xform(es.iv1[i]);
      // Cached indexes that were copies of the cut edge's own entries
      // became stale; the broadcast carries fresh appearances for the two
      // endpoints.
      if (es.u[i] == sb.parent) es.iu1[i] = sb.cached_parent;
      if (es.u[i] == sb.child) es.iu1[i] = sb.cached_child;
      if (es.v[i] == sb.parent) es.iv1[i] = sb.cached_parent;
      if (es.v[i] == sb.child) es.iv1[i] = sb.cached_child;
      if (su == sv) {
        if (su) es.comp[i] = sb.new_comp;
      } else {
        es.crossing[i] = 1;
        es.u_in_subtree[i] = su ? 1 : 0;
        es.v_in_subtree[i] = sv ? 1 : 0;
      }
    }
  }
  for (auto& [v, rec] : ms.vertices) {
    if (rec.comp != sb.comp) continue;
    ms.jlog_vertex(v, rec);
    if (v == sb.parent) {
      rec.cached_idx = sb.cached_parent;
    } else if (v == sb.child) {
      rec.cached_idx = sb.cached_child;
      rec.comp = sb.new_comp;
    } else if (etour::split_in_subtree(rec.cached_idx, sp)) {
      rec.cached_idx = etour::split_shift_subtree(rec.cached_idx, sp);
      rec.comp = sb.new_comp;
    } else {
      rec.cached_idx = etour::split_shift_rest(rec.cached_idx, sp);
    }
  }
}

void DynamicForest::run_merge(const MergeBcast& mb) {
  dmpc::broadcast(*cluster_, 0, kMergeBcast, merge_payload(mb));
  cluster_->for_each_machine(
      [&](MachineId m) { apply_merge_local(machines_[m], mb); });
}

void DynamicForest::run_split(const SplitBcast& sb) {
  const std::vector<Word> payload = {sb.comp, sb.new_comp, sb.parent,
                                     sb.child, sb.f_c, sb.l_c,
                                     sb.cached_parent, sb.cached_child};
  dmpc::broadcast(*cluster_, 0, kSplitBcast, payload);
  cluster_->for_each_machine(
      [&](MachineId m) { apply_split_local(machines_[m], sb); });
}

// ---------------------------------------------------------------------------
// Update protocols
// ---------------------------------------------------------------------------

DynamicForest::MergePlan DynamicForest::make_merge(const Prep& p, VertexId x,
                                                   VertexId y,
                                                   bool resolve_crossing) {
  MergePlan plan;
  MergeBcast& mb = plan.mb;
  mb.cx = p.cx;
  mb.cy = p.cy;
  mb.x = x;
  mb.y = y;
  mb.elen_ty = etour::elength(p.size_cy);
  mb.reroot = p.size_cy > 1 && p.ly != mb.elen_ty;
  mb.reroot_l_y = p.ly;
  mb.f_x = etour::merge_splice(p.fx, etour::elength(p.size_cx));
  plan.ni = etour::merge_new_indexes({mb.f_x, mb.elen_ty});
  mb.cached_x = plan.ni.x_enter;
  mb.cached_y = plan.ni.y_enter;
  mb.resolve_crossing = resolve_crossing;
  return plan;
}

DynamicForest::EdgeRec DynamicForest::make_tree_record(
    VertexId x, VertexId y, Weight w, Word comp,
    const etour::MergeNewIndexes& ni) {
  const EdgeKey key(x, y);
  EdgeRec rec;
  rec.u = key.u;
  rec.v = key.v;
  rec.comp = comp;
  rec.tree = true;
  rec.w = w;
  if (key.u == x) {
    rec.iu1 = ni.x_enter;
    rec.iu2 = ni.x_exit;
    rec.iv1 = ni.y_enter;
    rec.iv2 = ni.y_exit;
  } else {
    rec.iu1 = ni.y_enter;
    rec.iu2 = ni.y_exit;
    rec.iv1 = ni.x_enter;
    rec.iv2 = ni.x_exit;
  }
  return rec;
}

DynamicForest::EdgeRec DynamicForest::make_nontree_record(const Prep& p,
                                                          VertexId x,
                                                          VertexId y,
                                                          Weight w) {
  const EdgeKey key(x, y);
  EdgeRec rec;
  rec.u = key.u;
  rec.v = key.v;
  rec.comp = p.cx;
  rec.tree = false;
  rec.w = w;
  rec.iu1 = key.u == x ? p.fx : p.fy;
  rec.iv1 = key.v == y ? p.fy : p.fx;
  return rec;
}

std::vector<Word> DynamicForest::merge_payload(const MergeBcast& mb) {
  return {mb.cx, mb.cy, mb.x, mb.y, mb.reroot, mb.reroot_l_y, mb.elen_ty,
          mb.f_x, mb.cached_x, mb.cached_y, mb.resolve_crossing ? 1 : 0};
}

void DynamicForest::insert_nontree_record(const Prep& p, VertexId x,
                                          VertexId y, Weight w) {
  const EdgeRec rec = make_nontree_record(p, x, y, w);
  const MachineId m = edge_machine(x, y);
  cluster_->send(0, m, kNewRecord,
                 {rec.u, rec.v, rec.comp, rec.w, rec.iu1, rec.iv1});
  cluster_->finish_round();
  machines_[m].jlog_edge(edge_key(x, y));
  machines_[m].edges.put(edge_key(x, y), rec);
  charge_edge_record(m);
}

void DynamicForest::link_components(const Prep& p, VertexId x, VertexId y,
                                    Weight w) {
  const MergePlan plan = make_merge(p, x, y, /*resolve_crossing=*/false);
  run_merge(plan.mb);

  // Record round: create the tree edge record, update the directory.
  const EdgeRec rec = make_tree_record(x, y, w, p.cx, plan.ni);
  const MachineId em = edge_machine(x, y);
  cluster_->send(0, em, kNewRecord,
                 {rec.u, rec.v, rec.comp, rec.w, rec.iu1, rec.iu2, rec.iv1,
                  rec.iv2});
  cluster_->send(0, dir_machine(p.cx), kDirUpdate,
                 {p.cx, p.size_cx + p.size_cy});
  cluster_->send(0, dir_machine(p.cy), kDirUpdate, {p.cy, 0});
  cluster_->finish_round();
  machines_[em].jlog_edge(edge_key(x, y));
  machines_[em].edges.put(edge_key(x, y), rec);
  charge_edge_record(em);
  machines_[dir_machine(p.cx)].jlog_dir(p.cx);
  machines_[dir_machine(p.cx)].comp_sizes[p.cx] = p.size_cx + p.size_cy;
  machines_[dir_machine(p.cy)].jlog_dir(p.cy);
  machines_[dir_machine(p.cy)].comp_sizes.erase(p.cy);
  cluster_->memory(dir_machine(p.cy)).release(kDirRecWords);
}

DynamicForest::SplitPlan DynamicForest::make_split(const Prep& p, VertexId x,
                                                   VertexId y, Word new_comp) {
  const EdgeKey key(x, y);
  const EdgeRec& e = p.edge;
  const ChildInterval c = child_interval(e.iu1, e.iu2, e.iv1, e.iv2);
  const VertexId child = c.u_is_child ? key.u : key.v;
  const VertexId parent = c.u_is_child ? key.v : key.u;
  const etour::SplitParams sp{c.f_c, c.l_c};
  // f/l of parent from the prepare results.
  const Word f_p = parent == x ? p.fx : p.fy;
  const Word l_p = parent == x ? p.lx : p.ly;

  SplitPlan plan;
  SplitBcast& sb = plan.sb;
  sb.comp = p.cx;
  sb.new_comp = new_comp;
  sb.parent = parent;
  sb.child = child;
  sb.f_c = sp.f_c;
  sb.l_c = sp.l_c;
  const Word sub_elen = etour::split_subtree_elength(sp);
  plan.sub_size = etour::tree_size(sub_elen);
  plan.rest_size = p.size_cx - plan.sub_size;
  // Parent: reuse a surviving appearance (f or l), mapped through the
  // rest-side shift; both removed means the parent becomes a singleton.
  if (f_p < sp.f_c - 1) {
    sb.cached_parent = etour::split_shift_rest(f_p, sp);
  } else if (l_p > sp.l_c + 1) {
    sb.cached_parent = etour::split_shift_rest(l_p, sp);
  } else {
    sb.cached_parent = etour::kNoIndex;
  }
  // Child: it becomes the root of the split-off tree (f = 1), or a
  // singleton.
  sb.cached_child = plan.sub_size > 1 ? 1 : etour::kNoIndex;
  return plan;
}

void DynamicForest::demote_record(EdgeRec& rec, const SplitBcast& sb) {
  rec.tree = false;
  rec.crossing = true;
  rec.u_in_subtree = rec.u == sb.child;
  rec.v_in_subtree = rec.v == sb.child;
  rec.iu1 = rec.u == sb.child ? sb.cached_child : sb.cached_parent;
  rec.iv1 = rec.v == sb.child ? sb.cached_child : sb.cached_parent;
  rec.iu2 = rec.iv2 = etour::kNoIndex;
}

void DynamicForest::delete_tree_edge(const Prep& p, VertexId x, VertexId y,
                                     bool demote) {
  const EdgeKey key(x, y);
  const SplitPlan split = make_split(p, x, y, next_comp_id_++);
  const SplitBcast& sb = split.sb;
  const Word sub_size = split.sub_size;
  const Word rest_size = split.rest_size;
  run_split(sb);

  // Record round: delete (or, for the cycle rule, demote to non-tree) the
  // cut edge's record, and update the directory.
  const MachineId em = edge_machine(x, y);
  if (demote) {
    cluster_->send(0, em, kDeleteRecord,
                   {key.u, key.v, 1, sb.cached_parent, sb.cached_child});
  } else {
    cluster_->send(0, em, kDeleteRecord, {key.u, key.v, 0});
  }
  cluster_->send(0, dir_machine(p.cx), kDirUpdate, {p.cx, rest_size});
  cluster_->send(0, dir_machine(sb.new_comp), kDirUpdate,
                 {sb.new_comp, sub_size});
  cluster_->finish_round();
  if (demote) {
    EdgeShard& des = machines_[em].edges;
    const std::size_t dslot =
        static_cast<std::size_t>(des.find(edge_key(x, y)));
    machines_[em].jlog_edge_slot(dslot);
    EdgeRec drec = des.get(dslot);
    demote_record(drec, sb);
    des.set(dslot, drec);
  } else {
    machines_[em].jlog_edge(edge_key(x, y));
    machines_[em].edges.erase(edge_key(x, y));
    release_edge_record(em);
  }
  machines_[dir_machine(p.cx)].jlog_dir(p.cx);
  machines_[dir_machine(p.cx)].comp_sizes[p.cx] = rest_size;
  machines_[dir_machine(sb.new_comp)].jlog_dir(sb.new_comp);
  machines_[dir_machine(sb.new_comp)].comp_sizes[sb.new_comp] = sub_size;
  cluster_->memory(dir_machine(sb.new_comp)).charge(kDirRecWords);

  // Replacement search: every machine scans its shard (concurrently) and
  // proposes its best (min-weight) crossing candidate to the ingress.
  // The scan streams the crossing/weight columns; only the winning slot
  // is materialized into a record.
  std::vector<std::optional<EdgeRec>> candidates(machines_.size());
  cluster_->for_each_machine([&](MachineId m) {
    const EdgeShard& es = machines_[m].edges;
    std::ptrdiff_t best_slot = EdgeShard::kNpos;
    for (std::size_t i = 0; i < es.size(); ++i) {
      if (es.crossing[i] == 0) continue;
      if (best_slot == EdgeShard::kNpos || es.w[i] < es.w[best_slot]) {
        best_slot = static_cast<std::ptrdiff_t>(i);
      }
    }
    if (best_slot != EdgeShard::kNpos) {
      const EdgeRec local_best = es.get(static_cast<std::size_t>(best_slot));
      candidates[m] = local_best;
      cluster_->send(m, 0, kProposal,
                     {local_best.u, local_best.v, local_best.w,
                      local_best.u_in_subtree ? 1 : 0});
    }
  });
  cluster_->finish_round();
  std::optional<EdgeRec> best;
  for (const std::optional<EdgeRec>& cand : candidates) {
    if (!cand.has_value()) continue;
    if (!best.has_value() || cand->w < best->w) best = *cand;
  }
  if (!best.has_value()) return;  // genuinely disconnected

  // Reconnect: the subtree side plays Ty.  A fresh prepare fetches the
  // post-split f/l of the replacement endpoints.
  const VertexId a = best->u_in_subtree ? best->v : best->u;  // rest side
  const VertexId b = best->u_in_subtree ? best->u : best->v;  // subtree side
  Prep rp = prepare(a, b);
  const MergePlan plan = make_merge(rp, a, b, /*resolve_crossing=*/true);
  run_merge(plan.mb);

  // Promotion round: the replacement record becomes a tree edge; the
  // directory reflects the re-merge.
  const EdgeKey rkey(a, b);
  const MachineId rm = edge_machine(a, b);
  cluster_->send(0, rm, kPromote,
                 {rkey.u, rkey.v, plan.ni.x_enter, plan.ni.x_exit,
                  plan.ni.y_enter, plan.ni.y_exit});
  cluster_->send(0, dir_machine(rp.cx), kDirUpdate,
                 {rp.cx, rp.size_cx + rp.size_cy});
  cluster_->send(0, dir_machine(rp.cy), kDirUpdate, {rp.cy, 0});
  cluster_->finish_round();
  machines_[rm].jlog_edge(edge_key(a, b));
  machines_[rm].edges.put(edge_key(a, b),
                          make_tree_record(a, b, best->w, rp.cx, plan.ni));
  machines_[dir_machine(rp.cx)].jlog_dir(rp.cx);
  machines_[dir_machine(rp.cx)].comp_sizes[rp.cx] = rp.size_cx + rp.size_cy;
  machines_[dir_machine(rp.cy)].jlog_dir(rp.cy);
  machines_[dir_machine(rp.cy)].comp_sizes.erase(rp.cy);
  cluster_->memory(dir_machine(rp.cy)).release(kDirRecWords);
}

std::optional<DynamicForest::EdgeRec> DynamicForest::path_max_local(
    MachineId m, Word comp, Word fx, Word lx, Word fy, Word ly) const {
  const EdgeShard& es = machines_[m].edges;
  std::ptrdiff_t best_slot = EdgeShard::kNpos;
  for_each_path_slot(es, comp, fx, lx, fy, ly, [&](std::size_t i) {
    if (best_slot == EdgeShard::kNpos || es.w[i] > es.w[best_slot]) {
      best_slot = static_cast<std::ptrdiff_t>(i);
    }
  });
  if (best_slot == EdgeShard::kNpos) return std::nullopt;
  return es.get(static_cast<std::size_t>(best_slot));
}

Weight DynamicForest::path_weight_local(MachineId m, Word comp, Word fx,
                                        Word lx, Word fy, Word ly) const {
  const EdgeShard& es = machines_[m].edges;
  Weight sum = 0;
  for_each_path_slot(es, comp, fx, lx, fy, ly,
                     [&](std::size_t i) { sum += es.w[i]; });
  return sum;
}

void DynamicForest::insert_impl(VertexId x, VertexId y, Weight w) {
  Prep p = prepare(x, y);
  if (p.edge_exists) return;  // duplicate insertion is a no-op
  if (p.cx != p.cy) {
    link_components(p, x, y, w);
    return;
  }
  if (!config_.weighted) {
    insert_nontree_record(p, x, y, w);
    return;
  }
  // MST cycle rule: find the maximum-weight tree edge on the x..y path.
  // Broadcast the endpoints' intervals; every machine tests its local
  // tree records with the ancestor-XOR criterion (concurrently) and
  // proposes its local maximum.
  dmpc::broadcast(*cluster_, 0, kPathMaxBcast, {p.cx, p.fx, p.lx, p.fy, p.ly});
  std::vector<std::optional<EdgeRec>> candidates(machines_.size());
  cluster_->for_each_machine([&](MachineId m) {
    candidates[m] = path_max_local(m, p.cx, p.fx, p.lx, p.fy, p.ly);
    if (candidates[m].has_value()) {
      cluster_->send(m, 0, kProposal,
                     {candidates[m]->u, candidates[m]->v, candidates[m]->w});
    }
  });
  cluster_->finish_round();
  std::optional<EdgeRec> heaviest;
  for (const std::optional<EdgeRec>& cand : candidates) {
    if (!cand.has_value()) continue;
    if (!heaviest.has_value() || cand->w > heaviest->w) heaviest = *cand;
  }

  if (!heaviest.has_value() || heaviest->w <= w) {
    insert_nontree_record(p, x, y, w);
    return;
  }
  // The new edge displaces the heaviest path edge: record (x,y) as
  // non-tree first, then run the standard tree-edge deletion, whose
  // min-weight replacement search (the cut rule) re-links the parts —
  // possibly through (x,y) itself, or through an even lighter crossing
  // edge.
  insert_nontree_record(p, x, y, w);
  Prep hp = prepare(heaviest->u, heaviest->v);
  delete_tree_edge(hp, heaviest->u, heaviest->v, /*demote=*/true);
}

void DynamicForest::erase_impl(VertexId x, VertexId y) {
  Prep p = prepare(x, y);
  if (!p.edge_exists) return;
  if (!p.edge.tree) {
    const MachineId em = edge_machine(x, y);
    cluster_->send(0, em, kDeleteRecord, {EdgeKey(x, y).u, EdgeKey(x, y).v});
    cluster_->finish_round();
    machines_[em].jlog_edge(edge_key(x, y));
    machines_[em].edges.erase(edge_key(x, y));
    release_edge_record(em);
    return;
  }
  delete_tree_edge(p, x, y);
}

void DynamicForest::insert(VertexId x, VertexId y, Weight w) {
  cluster_->begin_update();
  journal_begin();
  try {
    insert_impl(x, y, w);
  } catch (...) {
    journal_rollback();
    throw;
  }
  journal_commit();
  cluster_->end_update();
}

void DynamicForest::erase(VertexId x, VertexId y) {
  cluster_->begin_update();
  journal_begin();
  try {
    erase_impl(x, y);
  } catch (...) {
    journal_rollback();
    throw;
  }
  journal_commit();
  cluster_->end_update();
}

bool DynamicForest::connected(VertexId u, VertexId v) {
  const ReadQuery q{QueryKind::kConnected, u, v};
  return answer_queries(std::span<const ReadQuery>(&q, 1))[0].connected;
}

std::vector<ReadAnswer> DynamicForest::answer_queries(
    std::span<const ReadQuery> queries) {
  std::vector<ReadAnswer> answers(queries.size());
  if (queries.empty()) return answers;
  // Chunk the batch so no machine's round traffic can exceed the S-word
  // cap even in the worst case (every tree edge of every queried
  // component on one machine): a connectivity query costs <= 6
  // ingress-side words, a path-weight query up to ~19 words per scan
  // reply at its coordinator, so they are budgeted 1 and 4 units
  // against an S/16-unit chunk.  Rounds stay O(1) per chunk and the
  // broker bounds batch sizes, so served batches are one chunk each.
  const auto cap = static_cast<std::size_t>(cluster_->machine_capacity());
  const std::size_t budget = std::max<std::size_t>(4, cap / 16);
  auto unit_cost = [](const ReadQuery& q) -> std::size_t {
    return q.kind == QueryKind::kPathWeight ? 4 : 1;
  };
  std::size_t begin = 0;
  std::size_t units = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::size_t cost = unit_cost(queries[i]);
    if (units + cost > budget && i > begin) {
      answer_query_chunk(queries.subspan(begin, i - begin),
                         std::span<ReadAnswer>(answers).subspan(begin,
                                                                i - begin));
      begin = i;
      units = 0;
    }
    units += cost;
  }
  answer_query_chunk(queries.subspan(begin),
                     std::span<ReadAnswer>(answers).subspan(begin));
  return answers;
}

// The read path writes no machine state, so a mid-chunk throw (the fault
// injector never fires inside a query batch, but a genuine cap trip can)
// only needs the network wiped and the metrics bracket closed.
void DynamicForest::answer_query_chunk(std::span<const ReadQuery> qs,
                                       std::span<ReadAnswer> out) try {
  const std::size_t mu = machines_.size();
  dmpc::PhaseScope phase(cluster_->tracer(), dmpc::TracePhase::kQueryBatch);
  cluster_->begin_query_batch();

  // Plan host-side: unique connectivity endpoints grouped by their home
  // machines, and one coordinator per path-weight query (round-robin,
  // so scan-reply folds spread across the cluster).
  std::vector<std::vector<VertexId>> lookups(mu);
  std::set<VertexId> seen;
  struct PathQ {
    std::size_t pos;
    MachineId coord;
  };
  std::vector<PathQ> paths;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const ReadQuery& q = qs[i];
    out[i] = ReadAnswer{};
    if (q.u == q.v) {
      out[i].connected = true;  // empty path, weight 0
      continue;
    }
    if (q.kind == QueryKind::kPathWeight) {
      paths.push_back({i, static_cast<MachineId>(paths.size() % mu)});
      continue;  // the scan replies carry the component ids
    }
    for (const VertexId vtx : {q.u, q.v}) {
      if (seen.insert(vtx).second) lookups[vertex_machine(vtx)].push_back(vtx);
    }
  }

  // Round 1: the ingress scatters each connectivity endpoint to its
  // home machine and each path query to its coordinator.
  for (MachineId m = 0; m < mu; ++m) {
    for (const VertexId vtx : lookups[m]) cluster_->send(0, m, kQuery, {vtx});
  }
  for (std::size_t k = 0; k < paths.size(); ++k) {
    const ReadQuery& q = qs[paths[k].pos];
    cluster_->send(0, paths[k].coord, kQueryScanBcast,
                   {static_cast<Word>(k), q.u, q.v});
  }
  cluster_->finish_round();

  // Round 2: home machines reply the component ids; path coordinators
  // broadcast their queries' endpoints for the shard scans.
  cluster_->for_each_machine([&](MachineId m) {
    for (const VertexId vtx : lookups[m]) {
      cluster_->send(m, 0, kQueryReply,
                     {vtx, machines_[m].vertices.at(vtx).comp});
    }
    for (std::size_t k = 0; k < paths.size(); ++k) {
      if (paths[k].coord != m) continue;
      const ReadQuery& q = qs[paths[k].pos];
      for (MachineId to = 0; to < mu; ++to) {
        cluster_->send(m, to, kQueryScanBcast,
                       {static_cast<Word>(k), q.u, q.v});
      }
    }
  });
  cluster_->finish_round();
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const ReadQuery& q = qs[i];
    if (q.u == q.v || q.kind == QueryKind::kPathWeight) continue;
    out[i].connected =
        machines_[vertex_machine(q.u)].vertices.at(q.u).comp ==
        machines_[vertex_machine(q.v)].vertices.at(q.v).comp;
  }
  if (paths.empty()) {
    cluster_->end_query_batch(qs.size());
    return;
  }

  // Round 3: every machine scans its shard once per path query and
  // stages the f/l + component contributions to the query's coordinator.
  std::vector<std::vector<EndpointScan>> scans(mu);
  cluster_->for_each_machine([&](MachineId m) {
    scans[m].resize(paths.size());
    for (std::size_t k = 0; k < paths.size(); ++k) {
      const ReadQuery& q = qs[paths[k].pos];
      scans[m][k] = scan_endpoints(m, q.u, q.v);
      std::vector<Word> reply = scan_reply(scans[m][k]);
      if (!reply.empty()) {
        reply.insert(reply.begin(), static_cast<Word>(k));
        cluster_->send(m, paths[k].coord, kQueryScanReply, reply);
      }
    }
  });
  cluster_->finish_round();
  std::vector<Prep> preps(paths.size());
  {
    std::vector<EndpointScan> column(mu);
    for (std::size_t k = 0; k < paths.size(); ++k) {
      for (MachineId m = 0; m < mu; ++m) column[m] = scans[m][k];
      preps[k] = fold_scans(column);
      out[paths[k].pos].connected = preps[k].cx == preps[k].cy;
    }
  }

  // Round 4: coordinators broadcast the connected queries' resolved
  // tour intervals for the local path sums.
  cluster_->for_each_machine([&](MachineId m) {
    for (std::size_t k = 0; k < paths.size(); ++k) {
      if (paths[k].coord != m || !out[paths[k].pos].connected) continue;
      const Prep& p = preps[k];
      for (MachineId to = 0; to < mu; ++to) {
        cluster_->send(m, to, kQuerySumBcast,
                       {static_cast<Word>(k), p.cx, p.fx, p.lx, p.fy, p.ly});
      }
    }
  });
  cluster_->finish_round();

  // Round 5: local path sums (ancestor-XOR criterion, summed) back to
  // the coordinators.
  std::vector<std::vector<Weight>> sums(mu);
  cluster_->for_each_machine([&](MachineId m) {
    sums[m].assign(paths.size(), 0);
    for (std::size_t k = 0; k < paths.size(); ++k) {
      if (!out[paths[k].pos].connected) continue;
      const Prep& p = preps[k];
      sums[m][k] = path_weight_local(m, p.cx, p.fx, p.lx, p.fy, p.ly);
      if (sums[m][k] != 0) {
        cluster_->send(m, paths[k].coord, kQuerySumReply,
                       {static_cast<Word>(k), sums[m][k]});
      }
    }
  });
  cluster_->finish_round();

  // Round 6: coordinators fold the sums and return the answers to the
  // ingress.
  for (std::size_t k = 0; k < paths.size(); ++k) {
    ReadAnswer& a = out[paths[k].pos];
    if (a.connected) {
      for (MachineId m = 0; m < mu; ++m) a.path_weight += sums[m][k];
    }
    cluster_->send(paths[k].coord, 0, kQueryAnswer,
                   {static_cast<Word>(k), a.connected ? Word{1} : Word{0},
                    a.path_weight});
  }
  cluster_->finish_round();
  cluster_->end_query_batch(qs.size());
} catch (...) {
  cluster_->drop_round_state();
  cluster_->metrics().abort_update();
  throw;
}

// ---------------------------------------------------------------------------
// Batched updates: classification and ordering claims
// ---------------------------------------------------------------------------

DynamicForest::BatchOp DynamicForest::classify_op(const graph::Update& up,
                                                  std::size_t pos) const {
  BatchOp op;
  op.pos = pos;
  op.x = up.u;
  op.y = up.v;
  op.w = up.w;
  op.ekey = edge_key(op.x, op.y);
  op.coord = edge_machine(op.x, op.y);
  const EdgeShard& es = machines_[op.coord].edges;
  const std::ptrdiff_t slot = es.find(op.ekey);
  const bool exists = slot != EdgeShard::kNpos;
  if (up.kind == graph::UpdateKind::kInsert) {
    if (exists) return op;  // duplicate insert: kNoop
    op.cx = machines_[vertex_machine(op.x)].vertices.at(op.x).comp;
    op.cy = machines_[vertex_machine(op.y)].vertices.at(op.y).comp;
    if (op.cx != op.cy) {
      op.kind = BatchOpKind::kMerge;
      op.writes[op.num_writes++] = op.cx;
      op.writes[op.num_writes++] = op.cy;
    } else if (!config_.weighted) {
      // A same-component insert only stores a record with cached tour
      // indexes; the tour itself is untouched, so the component is a
      // read claim (two such ops may share it, a merge/split may not).
      op.kind = BatchOpKind::kNontreeInsert;
      op.reads[op.num_reads++] = op.cx;
    } else {
      // The MST cycle rule's path-max search is read-only until a swap
      // commits: claim the component for reading so a stage runs all of
      // its inserts' searches in one shared round.  A committing swap
      // escalates to a write at commit time, deferring the
      // same-component inserts behind it back to pending.
      op.kind = BatchOpKind::kPathMax;
      op.reads[op.num_reads++] = op.cx;
    }
    return op;
  }
  if (!exists) return op;  // absent delete: kNoop
  op.cx = op.cy = es.comp[slot];
  if (es.tree[slot] != 0) {
    op.kind = BatchOpKind::kTreeDelete;
    op.writes[op.num_writes++] = op.cx;
  } else {
    // Erasing a non-tree record leaves the tour untouched, but a
    // concurrent split in the component could promote this very edge as
    // its replacement, so the component is still a read claim.
    op.kind = BatchOpKind::kNontreeDelete;
    op.reads[op.num_reads++] = op.cx;
  }
  return op;
}

bool DynamicForest::ops_conflict_ordering(const BatchOp& a,
                                          const BatchOp& b) {
  if (a.ekey == b.ekey) return true;
  // w's write claims hit c's claims.  A cycle-rule insert may commit a
  // swap that rewrites the component it only reads at plan time, so its
  // read claim counts as a write: nothing may be reordered across it
  // within that component (its search — and the records a reordered
  // non-tree op would add or remove — must observe serial order).
  const auto writes_hit = [](const BatchOp& w, const BatchOp& c) {
    const auto hits = [&](Word comp) {
      for (std::size_t j = 0; j < c.num_writes; ++j) {
        if (comp == c.writes[j]) return true;
      }
      for (std::size_t j = 0; j < c.num_reads; ++j) {
        if (comp == c.reads[j]) return true;
      }
      return false;
    };
    for (std::size_t i = 0; i < w.num_writes; ++i) {
      if (hits(w.writes[i])) return true;
    }
    if (w.kind != BatchOpKind::kPathMax) return false;
    for (std::size_t i = 0; i < w.num_reads; ++i) {
      if (hits(w.reads[i])) return true;
    }
    return false;
  };
  return writes_hit(a, b) || writes_hit(b, a);
}

// ---------------------------------------------------------------------------
// Batch-dynamic protocol
// ---------------------------------------------------------------------------

namespace {
// Per-coordinator-machine op budget per kStageKWay stage: every non-noop
// op makes its coordinator broadcast O(1)-word descriptors, and a machine
// broadcasting b words costs b * mu send words in that round.  Bounding
// the ops hashed onto one machine keeps a stage's descriptor rounds
// inside the per-machine comm cap even before the chunked-broadcast
// fallback kicks in.
constexpr std::size_t kStageCoordBudget = 4;
}  // namespace

DynamicForest::StagePlan DynamicForest::plan_stage(
    std::span<const graph::Update> batch,
    std::span<const std::size_t> pending,
    std::vector<BatchOp>& rejected) const {
  rejected.clear();
  StagePlan stage;
  // Admission: one op KIND per component — all-deletes ('d'), all-merges
  // ('m'), all-non-tree-record ops ('n'), or all cycle-rule inserts
  // ('p') — with exclusive edge keys and a stage-local DSU keeping
  // chained merges acyclic.  MANY deletions may share a component (they
  // become one k-way split), merges may chain (they become one k-way
  // join), and a component's cycle-rule inserts share one path-max
  // round (the earliest swap commits as a cut, the inserts behind it
  // defer).
  std::map<Word, char> comp_use;
  std::set<std::uint64_t> ekeys;
  std::map<Word, Word> dsu;
  std::map<MachineId, std::size_t> coord_load;
  const auto find = [&](Word c) {
    while (true) {
      const auto it = dsu.find(c);
      if (it == dsu.end() || it->second == c) return c;
      c = it->second;
    }
  };
  const auto use = [&](Word c) {
    const auto it = comp_use.find(c);
    return it == comp_use.end() ? '\0' : it->second;
  };
  for (std::size_t i = 0; i < pending.size(); ++i) {
    BatchOp op = classify_op(batch[pending[i]], pending[i]);
    bool blocked = false;
    for (const BatchOp& r : rejected) {
      if (blocked) break;
      blocked = ops_conflict_ordering(op, r);
    }
    bool fits = !blocked && ekeys.count(op.ekey) == 0;
    if (fits && op.kind != BatchOpKind::kNoop) {
      fits = coord_load[op.coord] < kStageCoordBudget;
    }
    if (fits) {
      switch (op.kind) {
        case BatchOpKind::kTreeDelete:
          fits = use(op.cx) == '\0' || use(op.cx) == 'd';
          break;
        case BatchOpKind::kMerge:
          fits = (use(op.cx) == '\0' || use(op.cx) == 'm') &&
                 (use(op.cy) == '\0' || use(op.cy) == 'm') &&
                 find(op.cx) != find(op.cy);
          break;
        case BatchOpKind::kNontreeInsert:
        case BatchOpKind::kNontreeDelete:
          fits = use(op.cx) == '\0' || use(op.cx) == 'n';
          break;
        case BatchOpKind::kPathMax:
          fits = use(op.cx) == '\0' || use(op.cx) == 'p';
          break;
        default:
          break;
      }
    }
    if (!fits) {
      rejected.push_back(std::move(op));
      continue;
    }
    ekeys.insert(op.ekey);
    switch (op.kind) {
      case BatchOpKind::kTreeDelete:
        comp_use[op.cx] = 'd';
        break;
      case BatchOpKind::kMerge:
        comp_use[op.cx] = 'm';
        comp_use[op.cy] = 'm';
        dsu[find(op.cy)] = find(op.cx);  // x-side label survives
        break;
      case BatchOpKind::kNontreeInsert:
      case BatchOpKind::kNontreeDelete:
        comp_use[op.cx] = 'n';
        break;
      case BatchOpKind::kPathMax:
        comp_use[op.cx] = 'p';
        break;
      default:
        break;
    }
    if (op.kind != BatchOpKind::kNoop) ++coord_load[op.coord];
    if (!rejected.empty()) ++stage.reordered;
    stage.ops.push_back(std::move(op));
    stage.taken.push_back(i);
  }
  return stage;
}

std::vector<std::size_t> DynamicForest::run_stage_kway(
    std::vector<BatchOp>& ops) {
  const MachineId mu = static_cast<MachineId>(machines_.size());
  const dmpc::WordCount cap = cluster_->machine_capacity();
  // The O(1)-round protocol's sections are linear, not nested, so one
  // scope walks the phase taxonomy with next() as the rounds progress.
  dmpc::PhaseScope phase(cluster_->tracer(),
                         dmpc::TracePhase::kScatterClassify);
  std::uint64_t rounds = 0;
  // Multi-source broadcast with per-sender chunking: a sender whose
  // staged broadcast words would overflow its round budget flushes the
  // round for everyone.  Driver-deterministic — it depends only on the
  // op sequence, never on executor scheduling.
  std::vector<dmpc::WordCount> bload(machines_.size(), 0);
  const auto finish = [&] {
    cluster_->finish_round();
    ++rounds;
    std::fill(bload.begin(), bload.end(), 0);
  };
  const auto bcast = [&](MachineId from, Word tag,
                         std::initializer_list<Word> payload) {
    const dmpc::WordCount cost =
        static_cast<dmpc::WordCount>(payload.size() + 2) *
        static_cast<dmpc::WordCount>(mu - 1);
    if (bload[from] != 0 && bload[from] + cost > cap) finish();
    for (MachineId m = 0; m < mu; ++m) {
      if (m != from) cluster_->send(from, m, tag, payload);
    }
    bload[from] += cost;
  };

  std::vector<std::size_t> deferred;  // batch positions, returned
  // ops is in batch order, so each of these index lists is too.
  std::vector<std::size_t> dels, mrgs, nti, ntd, pms;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    switch (ops[i].kind) {
      case BatchOpKind::kTreeDelete: dels.push_back(i); break;
      case BatchOpKind::kMerge: mrgs.push_back(i); break;
      case BatchOpKind::kNontreeInsert: nti.push_back(i); break;
      case BatchOpKind::kNontreeDelete: ntd.push_back(i); break;
      case BatchOpKind::kPathMax: pms.push_back(i); break;
      default: break;
    }
  }
  if (dels.empty() && mrgs.empty() && nti.empty() && ntd.empty() &&
      pms.empty()) {
    return deferred;
  }

  // ---- Round 1: ingress scatter + directory / vertex queries ----------
  // Tree deletions and cycle-rule inserts (whose swap would split the
  // displaced edge out) receive the id of their split-off side here.
  std::set<Word> size_comps;
  // Endpoints whose cached appearance every machine needs: merge
  // endpoints resolve inside the shared join plan, and cycle-rule
  // endpoints feed every machine's path-max probe.
  std::set<VertexId> bcast_verts;
  std::map<VertexId, std::set<MachineId>> ntins_targets;
  for (BatchOp& op : ops) {
    if (op.kind == BatchOpKind::kNoop) continue;
    if (op.kind == BatchOpKind::kTreeDelete ||
        op.kind == BatchOpKind::kPathMax) {
      op.new_comp = next_comp_id_++;
    }
    cluster_->send(0, op.coord, kBatchScatter,
                   {static_cast<Word>(op.kind), op.x, op.y,
                    static_cast<Word>(op.w), op.cx, op.cy, op.new_comp});
  }
  for (const std::size_t i : dels) size_comps.insert(ops[i].cx);
  for (const std::size_t i : mrgs) {
    size_comps.insert(ops[i].cx);
    size_comps.insert(ops[i].cy);
    bcast_verts.insert(ops[i].x);
    bcast_verts.insert(ops[i].y);
  }
  for (const std::size_t i : pms) {
    size_comps.insert(ops[i].cx);
    bcast_verts.insert(ops[i].x);
    bcast_verts.insert(ops[i].y);
  }
  for (const std::size_t i : nti) {
    ntins_targets[ops[i].x].insert(ops[i].coord);
    ntins_targets[ops[i].y].insert(ops[i].coord);
  }
  for (const Word c : size_comps) {
    cluster_->send(0, dir_machine(c), kDirQuery, {c});
  }
  {
    std::set<VertexId> qverts = bcast_verts;
    for (const auto& [v, t] : ntins_targets) qverts.insert(v);
    for (const VertexId v : qverts) {
      cluster_->send(0, vertex_machine(v), kQuery, {v});
    }
  }
  finish();
  // Behind round 1: a non-tree deletion only touches its own record.
  for (const std::size_t i : ntd) {
    machines_[ops[i].coord].jlog_edge(ops[i].ekey);
    machines_[ops[i].coord].edges.erase(ops[i].ekey);
    release_edge_record(ops[i].coord);
  }
  if (dels.empty() && mrgs.empty() && nti.empty() && pms.empty()) {
    return deferred;
  }
  phase.next(dmpc::TracePhase::kDirectory);

  // ---- Round 2: directory replies, cached-index replies, cut
  // descriptor broadcasts, and path-max probe broadcasts ---------------
  std::map<Word, Word> comp_size;
  for (const Word c : size_comps) {
    const Word size = machines_[dir_machine(c)].comp_sizes.at(c);
    comp_size[c] = size;
    cluster_->send(dir_machine(c), 0, kDirReply, {c, size});
  }
  std::map<VertexId, Word> vert_idx;
  for (const VertexId v : bcast_verts) {
    const Word idx = machines_[vertex_machine(v)].vertices.at(v).cached_idx;
    vert_idx[v] = idx;
    // Every machine resolves merge endpoints inside the shared join plan
    // and probes cycle-rule paths, so the cached appearance is broadcast,
    // not just sent to the owner.
    bcast(vertex_machine(v), kQueryReply, {v, idx});
  }
  for (const auto& [v, targets] : ntins_targets) {
    const Word idx = machines_[vertex_machine(v)].vertices.at(v).cached_idx;
    vert_idx[v] = idx;
    if (bcast_verts.count(v) != 0) continue;  // already broadcast
    for (const MachineId t : targets) {
      cluster_->send(vertex_machine(v), t, kQueryReply, {v, idx});
    }
  }
  struct CutInfo {
    std::size_t op = 0;  ///< index into ops (a swap: its cycle-rule insert)
    std::uint64_t ekey = 0;  ///< the cut tree edge
    bool demote = false;     ///< a swap: the cut edge stays as non-tree
    Word comp = 0, new_comp = 0;
    VertexId parent = 0, child = 0;
    Word f_c = 0, l_c = 0;
  };
  const auto make_cut = [&](std::size_t i, const EdgeRec& e) {
    const ChildInterval c = child_interval(e.iu1, e.iu2, e.iv1, e.iv2);
    CutInfo ci;
    ci.op = i;
    ci.ekey = edge_key(e.u, e.v);
    ci.comp = ops[i].cx;
    ci.new_comp = ops[i].new_comp;
    ci.child = c.u_is_child ? e.u : e.v;
    ci.parent = c.u_is_child ? e.v : e.u;
    ci.f_c = c.f_c;
    ci.l_c = c.l_c;
    return ci;
  };
  std::vector<CutInfo> cuts;  // deletions in batch order, then swaps
  for (const std::size_t i : dels) {
    const BatchOp& op = ops[i];
    const EdgeShard& des = machines_[op.coord].edges;
    const CutInfo ci =
        make_cut(i, des.get(static_cast<std::size_t>(des.find(op.ekey))));
    cuts.push_back(ci);
    bcast(op.coord, kCutBcast,
          {ci.comp, ci.new_comp, ci.parent, ci.child, ci.f_c, ci.l_c});
  }
  for (const std::size_t i : pms) {
    const BatchOp& op = ops[i];
    bcast(op.coord, kPathMaxBcast,
          {static_cast<Word>(op.pos), op.cx, op.x, op.y});
  }
  finish();
  // Non-tree records commit at their coordinators with both endpoint
  // appearances cached.
  const auto store_nontree = [&](const BatchOp& op) {
    const EdgeKey key(op.x, op.y);
    EdgeRec rec;
    rec.u = key.u;
    rec.v = key.v;
    rec.comp = op.cx;
    rec.tree = false;
    rec.w = op.w;
    rec.iu1 = vert_idx.at(rec.u);
    rec.iv1 = vert_idx.at(rec.v);
    machines_[op.coord].jlog_edge(op.ekey);
    machines_[op.coord].edges.put(op.ekey, rec);
    charge_edge_record(op.coord);
  };
  for (const std::size_t i : nti) store_nontree(ops[i]);

  if (!pms.empty()) {
    phase.next(dmpc::TracePhase::kPathMax);
    // ---- Round 3: path-max proposals.  Every machine scans its shard
    // once per probe (concurrently) with the endpoints' broadcast cached
    // appearances and proposes its local maximum, as a tour-index cut
    // descriptor, to the insert's coordinator.
    std::vector<std::vector<std::optional<EdgeRec>>> pmc(
        machines_.size(), std::vector<std::optional<EdgeRec>>(pms.size()));
    cluster_->for_each_machine([&](MachineId m) {
      for (std::size_t k = 0; k < pms.size(); ++k) {
        const BatchOp& op = ops[pms[k]];
        const Word ix = vert_idx.at(op.x);
        const Word iy = vert_idx.at(op.y);
        pmc[m][k] = path_max_local(m, op.cx, ix, ix, iy, iy);
        if (!pmc[m][k].has_value() || m == op.coord) continue;
        const CutInfo c = make_cut(pms[k], *pmc[m][k]);
        cluster_->send(m, op.coord, kProposal,
                       {static_cast<Word>(op.pos),
                        static_cast<Word>(pmc[m][k]->w), c.parent, c.child,
                        c.f_c, c.l_c});
      }
    });
    finish();
    // ---- Round 4: swap cuts.  Each coordinator folds its proposals in
    // machine order, strictly heavier wins (the serial fold, so the
    // shared search displaces the serial edge); an insert lighter than
    // its path max broadcasts the displaced edge's cut.  Every machine
    // then commits the earliest swap per component and defers the
    // component's later inserts: they probed the pre-swap tree.
    std::map<Word, std::size_t> swap_of;  // component -> pms index
    for (std::size_t k = 0; k < pms.size(); ++k) {
      const BatchOp& op = ops[pms[k]];
      std::optional<EdgeRec> heaviest;
      for (MachineId m = 0; m < mu; ++m) {
        const std::optional<EdgeRec>& c = pmc[m][k];
        if (c.has_value() && (!heaviest.has_value() || c->w > heaviest->w)) {
          heaviest = c;
        }
      }
      if (!heaviest.has_value() || heaviest->w <= op.w) continue;
      const CutInfo ci = make_cut(pms[k], *heaviest);
      bcast(op.coord, kCutBcast,
            {ci.comp, ci.new_comp, ci.parent, ci.child, ci.f_c, ci.l_c,
             static_cast<Word>(op.pos)});
      if (swap_of.emplace(op.cx, k).second) {
        cuts.push_back(ci);
        cuts.back().demote = true;
      }
    }
    if (!swap_of.empty()) finish();
    // Committed inserts store their record before the cascade's shard
    // scan, so a swap's own edge — and any earlier insert of its
    // component — competes for the replacement as it does serially.
    for (std::size_t k = 0; k < pms.size(); ++k) {
      const BatchOp& op = ops[pms[k]];
      const auto it = swap_of.find(op.cx);
      if (it != swap_of.end() && k > it->second) {
        deferred.push_back(op.pos);
        continue;
      }
      store_nontree(op);
      ++batch_stats_.path_max_grouped;
    }
  }
  if (cuts.empty() && mrgs.empty()) return deferred;
  phase.next(dmpc::TracePhase::kKWaySplit);

  // Every machine now holds every cut descriptor: the k-way transform of
  // each split component is constructed once from shared data.
  struct SplitComp {
    std::vector<etour::KWaySplit::Cut> ivals;
    std::vector<std::size_t> cut_ids;  ///< into cuts, batch order
    std::optional<etour::KWaySplit> split;
    std::size_t base = 0;  ///< universe index of fragment 0
  };
  std::map<Word, SplitComp> splits;
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    SplitComp& sc = splits[cuts[c].comp];
    sc.ivals.push_back({cuts[c].f_c, cuts[c].l_c});
    sc.cut_ids.push_back(c);
  }
  for (auto& [comp, sc] : splits) {
    sc.split.emplace(etour::elength(comp_size.at(comp)), sc.ivals);
    ++batch_stats_.kway_splits;
  }

  // ---- Replacement cascade (tree deletions only) ----------------------
  struct Cand {
    Weight w = 0;
    VertexId u = 0, v = 0;
    Word fu = 0, fv = 0;  ///< endpoint fragments
    Word iu = 0, iv = 0;  ///< cached pre-split appearances (possibly removed)
  };
  struct LinkRec {
    Word comp = 0;
    Cand c;
    Word ia = 0, ib = 0;      ///< fragment-original post-split indexes
    std::size_t link_id = 0;  ///< assigned when applied to the join plan
  };
  std::vector<LinkRec> links;
  // Min surviving appearance per (component, cut vertex): repairs cached
  // indexes that were copies of removed tour entries.
  std::map<std::pair<Word, VertexId>, Word> app;
  // Per-vertex repaired (fragment, fragment-original index), derived from
  // `app` at the owner and rebroadcast by each cut's coordinator.
  std::map<std::pair<Word, VertexId>, std::pair<Word, Word>> fixes;
  if (!cuts.empty()) {
    phase.next(dmpc::TracePhase::kCascade);
    const std::uint64_t cascade_start = rounds;
    std::map<Word, std::vector<VertexId>> cut_verts;
    for (const CutInfo& ci : cuts) {
      cut_verts[ci.comp].push_back(ci.parent);
      cut_verts[ci.comp].push_back(ci.child);
    }
    for (auto& [comp, verts] : cut_verts) {
      std::sort(verts.begin(), verts.end());
      verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
    }
    const auto app_collector = [&](Word comp, VertexId vert) {
      return static_cast<MachineId>(
          splitmix64((static_cast<std::uint64_t>(comp) << 32) ^ vert) % mu);
    };
    const auto pair_collector = [&](Word comp, Word fa, Word fb) {
      return static_cast<MachineId>(
          splitmix64((static_cast<std::uint64_t>(comp) << 32) ^ (fa << 16) ^
                     fb) %
          mu);
    };
    // ---- Cascade round A: fragment-crossing scan.  Each machine folds
    // its shard to per-(comp,vertex) appearance minima and per-fragment-
    // pair best (w,u,v) crossing candidates, sent to hashed collectors
    // (two-hop fold keeps any one receiver under the comm cap).
    std::map<std::pair<Word, VertexId>, Word> best_app;
    std::map<std::tuple<Word, Word, Word>, Cand> best;
    std::vector<std::map<std::pair<Word, VertexId>, Word>> mapp(
        machines_.size());
    std::vector<std::map<std::tuple<Word, Word, Word>, Cand>> mbest(
        machines_.size());
    cluster_->for_each_machine([&](MachineId m) {
      const EdgeShard& es = machines_[m].edges;
      auto& lapp = mapp[m];
      auto& lbest = mbest[m];
      for (std::size_t s = 0; s < es.size(); ++s) {
        const auto sit = splits.find(es.comp[s]);
        if (sit == splits.end()) continue;
        const etour::KWaySplit& sp = *sit->second.split;
        if (es.tree[s] != 0) {
          const std::vector<VertexId>& cv = cut_verts.find(es.comp[s])->second;
          const auto touch = [&](VertexId vert, Word i1, Word i2) {
            if (!std::binary_search(cv.begin(), cv.end(), vert)) return;
            for (const Word entry : {i1, i2}) {
              if (sp.removed(entry)) continue;
              const auto [it, fresh] =
                  lapp.emplace(std::make_pair(es.comp[s], vert), entry);
              if (!fresh && entry < it->second) it->second = entry;
            }
          };
          touch(es.u[s], es.iu1[s], es.iu2[s]);
          touch(es.v[s], es.iv1[s], es.iv2[s]);
        } else {
          // Cached appearances locate the fragment even when the entry
          // itself was removed (a removed entry sits positionally inside
          // its owner vertex's fragment); only the index VALUE needs the
          // owner-side fix, resolved after the Kruskal.
          const Word fu = static_cast<Word>(sp.fragment_of(es.iu1[s]));
          const Word fv = static_cast<Word>(sp.fragment_of(es.iv1[s]));
          if (fu == fv) continue;
          Cand c;
          c.w = es.w[s];
          c.u = es.u[s];
          c.v = es.v[s];
          c.fu = fu;
          c.fv = fv;
          c.iu = es.iu1[s];
          c.iv = es.iv1[s];
          const auto key = std::make_tuple(es.comp[s], std::min(fu, fv),
                                           std::max(fu, fv));
          const auto [it, fresh] = lbest.emplace(key, c);
          if (!fresh && std::tie(c.w, c.u, c.v) <
                            std::tie(it->second.w, it->second.u,
                                     it->second.v)) {
            it->second = c;
          }
        }
      }
      for (const auto& [k, entry] : lapp) {
        cluster_->send(m, app_collector(k.first, k.second), kBatchReply,
                       {k.first, k.second, entry});
      }
      for (const auto& [k, c] : lbest) {
        cluster_->send(m,
                       pair_collector(std::get<0>(k), std::get<1>(k),
                                      std::get<2>(k)),
                       kPairMin,
                       {std::get<0>(k), c.fu, c.fv, static_cast<Word>(c.w),
                        c.u, c.v, c.iu, c.iv});
      }
    });
    finish();
    // ---- Cascade round B: collectors fold and forward the survivors to
    // each split component's owner machine.
    for (MachineId m = 0; m < mu; ++m) {
      for (const auto& [k, entry] : mapp[m]) {
        const auto [it, fresh] = best_app.emplace(k, entry);
        if (!fresh && entry < it->second) it->second = entry;
      }
      for (const auto& [k, c] : mbest[m]) {
        const auto [it, fresh] = best.emplace(k, c);
        if (!fresh && std::tie(c.w, c.u, c.v) <
                          std::tie(it->second.w, it->second.u,
                                   it->second.v)) {
          it->second = c;
        }
      }
    }
    app = best_app;
    for (const auto& [k, entry] : app) {
      cluster_->send(app_collector(k.first, k.second), dir_machine(k.first),
                     kBatchReply, {k.first, k.second, entry});
    }
    for (const auto& [k, c] : best) {
      cluster_->send(
          pair_collector(std::get<0>(k), std::get<1>(k), std::get<2>(k)),
          dir_machine(std::get<0>(k)), kPairMin,
          {std::get<0>(k), c.fu, c.fv, static_cast<Word>(c.w), c.u, c.v,
           c.iu, c.iv});
    }
    finish();
    // Behind it, each owner runs the fragment Kruskal: candidates in
    // (w, u, v) order — the deterministic tie-break — link fragments
    // still in different trees.  Link order is the shared replay order.
    for (auto& [comp, sc] : splits) {
      std::vector<Cand> cands;
      for (const auto& [k, c] : best) {
        if (std::get<0>(k) == comp) cands.push_back(c);
      }
      std::sort(cands.begin(), cands.end(),
                [](const Cand& a, const Cand& b) {
                  return std::tie(a.w, a.u, a.v) < std::tie(b.w, b.u, b.v);
                });
      std::vector<std::size_t> fd(sc.split->fragments());
      for (std::size_t f = 0; f < fd.size(); ++f) fd[f] = f;
      const auto froot = [&](std::size_t f) {
        while (fd[f] != f) f = fd[f];
        return f;
      };
      for (const Cand& c : cands) {
        const std::size_t ru = froot(c.fu), rv = froot(c.fv);
        if (ru == rv) continue;
        fd[rv] = ru;
        const auto resolve_end = [&](VertexId vert, Word raw) {
          if (!sc.split->removed(raw)) return sc.split->new_index(raw);
          const auto it = app.find(std::make_pair(comp, vert));
          return it == app.end() ? etour::kNoIndex
                                 : sc.split->new_index(it->second);
        };
        LinkRec lr;
        lr.comp = comp;
        lr.c = c;
        lr.ia = resolve_end(c.u, c.iu);
        lr.ib = resolve_end(c.v, c.iv);
        links.push_back(lr);
      }
    }
    // ---- Cascade round C: owners grant the chosen links to their edge
    // machines and send repaired cached indexes to each cut coordinator.
    for (const LinkRec& lr : links) {
      cluster_->send(dir_machine(lr.comp), edge_machine(lr.c.u, lr.c.v),
                     kLinkGrant,
                     {lr.comp, lr.c.fu, lr.ia, lr.c.fv, lr.ib, lr.c.u,
                      lr.c.v, static_cast<Word>(lr.c.w)});
    }
    for (const CutInfo& ci : cuts) {
      const SplitComp& sc = splits.at(ci.comp);
      const etour::KWaySplit& sp = *sc.split;
      const auto fix_of = [&](VertexId vert, Word probe) {
        const Word frag = static_cast<Word>(sp.fragment_of(probe));
        const auto it = app.find(std::make_pair(ci.comp, vert));
        const Word idx =
            it == app.end() ? etour::kNoIndex : sp.new_index(it->second);
        return std::make_pair(frag, idx);
      };
      const auto pfix = fix_of(ci.parent, ci.f_c - 1);
      const auto cfix = fix_of(ci.child, ci.f_c);
      fixes[std::make_pair(ci.comp, ci.parent)] = pfix;
      fixes[std::make_pair(ci.comp, ci.child)] = cfix;
      cluster_->send(dir_machine(ci.comp), ops[ci.op].coord, kCachedFix,
                     {ci.comp, ci.parent, pfix.first, pfix.second, ci.child,
                      cfix.first, cfix.second});
    }
    finish();
    batch_stats_.cascade_rounds += rounds - cascade_start;
    batch_stats_.cascade_links += links.size();
  }
  phase.next(dmpc::TracePhase::kKWayJoin);

  // ---- Shared fragment universe + k-way join plan ---------------------
  // Fragment ids: split components ascending (fragment 0 keeps the old
  // label, cut fragments take their op's pre-assigned new label), then
  // merge components ascending as single whole-tour fragments.  Every
  // machine derives the identical universe from the broadcast data.
  struct Frag {
    Word label = 0;
    Word elen = 0;
  };
  std::vector<Frag> frags;
  std::map<Word, std::size_t> comp_base;
  for (auto& [comp, sc] : splits) {
    sc.base = frags.size();
    comp_base[comp] = sc.base;
    const etour::KWaySplit& sp = *sc.split;
    std::vector<Word> label_of(sp.fragments(), comp);
    for (std::size_t j = 0; j < sc.cut_ids.size(); ++j) {
      label_of[sp.fragment_of_cut(j)] = cuts[sc.cut_ids[j]].new_comp;
    }
    for (std::size_t f = 0; f < sp.fragments(); ++f) {
      frags.push_back({label_of[f], sp.fragment_elength(f)});
    }
  }
  std::set<Word> merge_comps;
  for (const std::size_t i : mrgs) {
    merge_comps.insert(ops[i].cx);
    merge_comps.insert(ops[i].cy);
  }
  for (const Word c : merge_comps) {
    comp_base[c] = frags.size();
    frags.push_back({c, etour::elength(comp_size.at(c))});
  }
  std::vector<Word> elens;
  elens.reserve(frags.size());
  for (const Frag& f : frags) elens.push_back(f.elen);
  etour::KWayJoinPlan plan(elens);
  // Cascade links first (components ascending, Kruskal order within),
  // then the batch merges in batch order.  The x side's label survives
  // each link, matching the sequential merge.
  for (LinkRec& lr : links) {
    const std::size_t base = splits.at(lr.comp).base;
    lr.link_id = plan.link(base + lr.c.fu, lr.ia, base + lr.c.fv, lr.ib);
  }
  struct MergeApp {
    std::size_t op = 0;
    std::size_t link_id = 0;
  };
  std::vector<MergeApp> mapply;
  for (const std::size_t i : mrgs) {
    const BatchOp& op = ops[i];
    const std::size_t id =
        plan.link(comp_base.at(op.cx), vert_idx.at(op.x), comp_base.at(op.cy),
                  vert_idx.at(op.y));
    mapply.push_back({i, id});
  }
  const auto final_label = [&](std::size_t frag) {
    return frags[plan.tree_of(frag)].label;
  };
  {
    std::set<std::size_t> join_roots;
    for (const LinkRec& lr : links) {
      join_roots.insert(plan.tree_of(splits.at(lr.comp).base + lr.c.fu));
    }
    for (const MergeApp& ma : mapply) {
      join_roots.insert(plan.tree_of(comp_base.at(ops[ma.op].cx)));
    }
    batch_stats_.kway_joins += join_roots.size();
  }

  // ---- Commit round: merge descriptors, repaired cached indexes, and
  // chosen links are broadcast so every machine can replay the composed
  // split + join transform locally; the directory absorbs the final
  // labels and sizes.
  for (const std::size_t i : mrgs) {
    const BatchOp& op = ops[i];
    bcast(op.coord, kMergeDesc,
          {op.cx, op.cy, op.x, op.y, static_cast<Word>(op.w)});
  }
  for (const CutInfo& ci : cuts) {
    const auto& pfix = fixes.at(std::make_pair(ci.comp, ci.parent));
    const auto& cfix = fixes.at(std::make_pair(ci.comp, ci.child));
    bcast(ops[ci.op].coord, kCachedFix,
          {ci.comp, ci.parent, pfix.first, pfix.second, ci.child, cfix.first,
           cfix.second});
  }
  for (const LinkRec& lr : links) {
    bcast(edge_machine(lr.c.u, lr.c.v), kLinkBcast,
          {lr.comp, lr.c.fu, lr.ia, lr.c.fv, lr.ib, lr.c.u, lr.c.v,
           static_cast<Word>(lr.c.w)});
  }
  std::vector<std::pair<Word, Word>> dir_writes;  // (label, size; 0 erases)
  {
    std::set<Word> surviving;
    for (std::size_t f = 0; f < frags.size(); ++f) {
      if (plan.tree_of(f) != f) continue;
      surviving.insert(frags[f].label);
      dir_writes.emplace_back(frags[f].label,
                              etour::tree_size(plan.tree_elength(f)));
    }
    for (const auto& [c, base] : comp_base) {
      if (surviving.count(c) == 0) dir_writes.emplace_back(c, 0);
    }
  }
  for (const auto& [label, size] : dir_writes) {
    cluster_->send(0, dir_machine(label), kDirUpdate, {label, size});
  }
  finish();

  // ---- Behind the commit barrier: every machine transforms its shard
  // and vertex records with the shared split/join algebra. --------------
  std::map<std::uint64_t, bool> cut_keys;  // cut edge -> demoted (a swap)
  for (const CutInfo& ci : cuts) cut_keys[ci.ekey] = ci.demote;
  struct LinkInfo {
    std::size_t link_id = 0;
    Word fu = 0;
  };
  std::map<std::uint64_t, LinkInfo> link_keys;
  for (const LinkRec& lr : links) {
    link_keys[edge_key(lr.c.u, lr.c.v)] = {lr.link_id, lr.c.fu};
  }
  cluster_->for_each_machine([&](MachineId m) {
    EdgeShard& es = machines_[m].edges;
    for (std::size_t s = 0; s < es.size(); ++s) {
      const Word comp = es.comp[s];
      const auto sit = splits.find(comp);
      if (sit != splits.end()) {
        const SplitComp& sc = sit->second;
        const etour::KWaySplit& sp = *sc.split;
        const auto cit = cut_keys.find(es.key_at(s));
        if (cit != cut_keys.end() && !cit->second) continue;  // erased below
        machines_[m].jlog_edge_slot(s);
        if (cit != cut_keys.end()) {
          // A swap's displaced edge stays as a non-tree record; its four
          // entries were all removed, and the cut-vertex fixes below
          // resolve its cached endpoints like any other stale copy.
          es.tree[s] = 0;
          es.iu2[s] = es.iv2[s] = etour::kNoIndex;
        }
        if (es.tree[s] != 0) {
          // A surviving tree edge's 4 entries all live in one fragment.
          const std::size_t frag = sc.base + sp.fragment_of(es.iu1[s]);
          es.iu1[s] = plan.map_index(frag, sp.new_index(es.iu1[s]));
          es.iu2[s] = plan.map_index(frag, sp.new_index(es.iu2[s]));
          es.iv1[s] = plan.map_index(frag, sp.new_index(es.iv1[s]));
          es.iv2[s] = plan.map_index(frag, sp.new_index(es.iv2[s]));
          es.comp[s] = final_label(frag);
          continue;
        }
        const auto lit = link_keys.find(es.key_at(s));
        if (lit != link_keys.end()) {
          // Promoted replacement: the join plan owns its 4 new entries.
          const etour::MergeNewIndexes ni =
              plan.edge_indexes(lit->second.link_id);
          es.tree[s] = 1;
          es.iu1[s] = ni.x_enter;
          es.iu2[s] = ni.x_exit;
          es.iv1[s] = ni.y_enter;
          es.iv2[s] = ni.y_exit;
          es.comp[s] = final_label(sc.base + lit->second.fu);
          continue;
        }
        const auto endpoint = [&](VertexId vert, Word raw) {
          if (!sp.removed(raw)) {
            return std::make_pair(sp.fragment_of(raw), sp.new_index(raw));
          }
          const auto& fx = fixes.at(std::make_pair(comp, vert));
          return std::make_pair(static_cast<std::size_t>(fx.first),
                                fx.second);
        };
        const auto pu = endpoint(es.u[s], es.iu1[s]);
        const auto pv = endpoint(es.v[s], es.iv1[s]);
        es.iu1[s] = plan.resolve(sc.base + pu.first, pu.second);
        es.iv1[s] = plan.resolve(sc.base + pv.first, pv.second);
        es.comp[s] = final_label(sc.base + pu.first);
        continue;
      }
      const auto mbit = comp_base.find(comp);
      if (mbit == comp_base.end()) continue;
      machines_[m].jlog_edge_slot(s);
      const std::size_t base = mbit->second;
      if (es.tree[s] != 0) {
        es.iu1[s] = plan.map_index(base, es.iu1[s]);
        es.iu2[s] = plan.map_index(base, es.iu2[s]);
        es.iv1[s] = plan.map_index(base, es.iv1[s]);
        es.iv2[s] = plan.map_index(base, es.iv2[s]);
      } else {
        es.iu1[s] = plan.map_index(base, es.iu1[s]);
        es.iv1[s] = plan.map_index(base, es.iv1[s]);
      }
      es.comp[s] = final_label(base);
    }
    for (auto& [v, rec] : machines_[m].vertices) {
      const auto sit = splits.find(rec.comp);
      if (sit != splits.end()) {
        machines_[m].jlog_vertex(v, rec);
        const SplitComp& sc = sit->second;
        const etour::KWaySplit& sp = *sc.split;
        std::size_t frag;
        Word idx;
        if (!sp.removed(rec.cached_idx)) {
          frag = sp.fragment_of(rec.cached_idx);
          idx = sp.new_index(rec.cached_idx);
        } else {
          const auto& fx = fixes.at(std::make_pair(rec.comp, v));
          frag = fx.first;
          idx = fx.second;
        }
        rec.cached_idx = plan.resolve(sc.base + frag, idx);
        rec.comp = final_label(sc.base + frag);
        continue;
      }
      const auto mbit = comp_base.find(rec.comp);
      if (mbit == comp_base.end()) continue;
      machines_[m].jlog_vertex(v, rec);
      rec.cached_idx = plan.resolve(mbit->second, rec.cached_idx);
      rec.comp = final_label(mbit->second);
    }
  });
  // Deleted cut records vanish, merge edges become tree records at their
  // coordinators, and the directory applies the staged writes.
  for (const CutInfo& ci : cuts) {
    if (ci.demote) continue;
    machines_[ops[ci.op].coord].jlog_edge(ops[ci.op].ekey);
    machines_[ops[ci.op].coord].edges.erase(ops[ci.op].ekey);
    release_edge_record(ops[ci.op].coord);
  }
  for (const MergeApp& ma : mapply) {
    const BatchOp& op = ops[ma.op];
    const etour::MergeNewIndexes ni = plan.edge_indexes(ma.link_id);
    const Word label = final_label(comp_base.at(op.cx));
    machines_[op.coord].jlog_edge(op.ekey);
    machines_[op.coord].edges.put(
        op.ekey, make_tree_record(op.x, op.y, op.w, label, ni));
    charge_edge_record(op.coord);
  }
  for (const auto& [label, size] : dir_writes) {
    machines_[dir_machine(label)].jlog_dir(label);
    auto& dir = machines_[dir_machine(label)].comp_sizes;
    if (size == 0) {
      if (dir.erase(label) != 0) {
        cluster_->memory(dir_machine(label)).release(kDirRecWords);
      }
      continue;
    }
    const auto [it, fresh] = dir.emplace(label, size);
    if (fresh) {
      cluster_->memory(dir_machine(label)).charge(kDirRecWords);
    } else {
      it->second = size;
    }
  }
  return deferred;
}

// Function-try-block: any mid-protocol throw (a fault-injected cap trip,
// a crash) unwinds through journal_rollback, which restores the pre-batch
// state and closes the metrics bracket; after journal_commit the rollback
// is a no-op, so a late throw cannot replay a committed journal.
void DynamicForest::apply_batch(std::span<const graph::Update> batch) try {
  if (batch.empty()) return;
  cluster_->begin_update();
  journal_begin();
  ++batch_stats_.batches;
  // Net-op compression (unweighted only): the observable state —
  // components, sizes, record set, forest weight — is path-independent
  // for unweighted updates, so an insert/delete chain on one edge key
  // collapses to its net effect before any protocol round runs.
  std::vector<std::size_t> pending;
  if (!config_.weighted) {
    std::map<std::uint64_t, std::vector<std::size_t>> by_key;
    std::vector<char> keep(batch.size(), 0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      by_key[edge_key(batch[i].u, batch[i].v)].push_back(i);
    }
    for (const auto& [key, positions] : by_key) {
      const bool present0 =
          machines_[edge_machine(batch[positions[0]].u,
                                 batch[positions[0]].v)]
              .edges.contains(key);
      bool present = present0;
      std::size_t first_del = SIZE_MAX, last_ins = SIZE_MAX;
      for (const std::size_t i : positions) {
        if (batch[i].kind == graph::UpdateKind::kInsert) {
          if (!present) {
            present = true;
            last_ins = i;
          }
        } else if (present) {
          present = false;
          if (first_del == SIZE_MAX) first_del = i;
        }
      }
      if (present == present0) {
        batch_stats_.elided_updates += positions.size();
        continue;
      }
      keep[present ? last_ins : first_del] = 1;
      batch_stats_.elided_updates += positions.size() - 1;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (keep[i] != 0) pending.push_back(i);
    }
  } else {
    pending.resize(batch.size());
    for (std::size_t i = 0; i < pending.size(); ++i) pending[i] = i;
  }
  while (!pending.empty()) {
    std::vector<BatchOp> rejected;
    StagePlan stage = plan_stage(batch, pending, rejected);
    ++batch_stats_.stages;
    batch_stats_.reordered_updates += stage.reordered;
    std::vector<std::size_t> rest;
    rest.reserve(pending.size() - stage.taken.size());
    {
      std::size_t t = 0;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (t < stage.taken.size() && stage.taken[t] == i) {
          ++t;
          continue;
        }
        rest.push_back(pending[i]);
      }
    }
    batch_stats_.max_group =
        std::max<std::uint64_t>(batch_stats_.max_group, stage.ops.size());
    for (const BatchOp& op : stage.ops) {
      if (op.kind == BatchOpKind::kTreeDelete) {
        ++batch_stats_.batched_tree_deletes;
      }
    }
    const std::vector<std::size_t> deferred = run_stage_kway(stage.ops);
    batch_stats_.grouped_updates += stage.ops.size() - deferred.size();
    batch_stats_.deferred_updates += deferred.size();
    if (!deferred.empty()) {
      rest.insert(rest.end(), deferred.begin(), deferred.end());
      std::sort(rest.begin(), rest.end());
    }
    pending.swap(rest);
  }
  journal_commit();
  cluster_->end_update();
} catch (...) {
  journal_rollback();
  throw;
}

// ---------------------------------------------------------------------------
// Driver-side introspection
// ---------------------------------------------------------------------------

std::vector<VertexId> DynamicForest::component_snapshot() const {
  // Vertices are partitioned across machines, so the per-machine fills
  // write disjoint elements of `raw` and run on the installed executor.
  std::vector<Word> raw(config_.n);
  exec().run(machines_.size(), [&](std::size_t m) {
    for (const auto& [v, rec] : machines_[m].vertices) {
      raw[static_cast<std::size_t>(v)] = rec.comp;
    }
  });
  // Canonicalize to the smallest member vertex id.
  std::map<Word, VertexId> smallest;
  for (std::size_t v = 0; v < raw.size(); ++v) {
    auto [it, inserted] =
        smallest.emplace(raw[v], static_cast<VertexId>(v));
    if (!inserted) it->second = std::min(it->second, static_cast<VertexId>(v));
  }
  std::vector<VertexId> out(config_.n);
  for (std::size_t v = 0; v < raw.size(); ++v) out[v] = smallest[raw[v]];
  return out;
}

Weight DynamicForest::forest_weight() const {
  // Per-machine partial sums over the tree/weight columns, merged in
  // machine order (integer addition, so the merge order is cosmetic).
  std::vector<Weight> partial(machines_.size(), 0);
  exec().run(machines_.size(), [&](std::size_t m) {
    const EdgeShard& es = machines_[m].edges;
    Weight sum = 0;
    for (std::size_t i = 0; i < es.size(); ++i) {
      if (es.tree[i] != 0) sum += es.w[i];
    }
    partial[m] = sum;
  });
  Weight total = 0;
  for (Weight p : partial) total += p;
  return total;
}

std::vector<std::pair<VertexId, VertexId>> DynamicForest::tree_edges() const {
  // Per-machine collection concatenated in machine order: the same
  // sequence the serial walk produced.
  std::vector<std::vector<std::pair<VertexId, VertexId>>> partial(
      machines_.size());
  exec().run(machines_.size(), [&](std::size_t m) {
    const EdgeShard& es = machines_[m].edges;
    for (std::size_t i = 0; i < es.size(); ++i) {
      if (es.tree[i] != 0) partial[m].emplace_back(es.u[i], es.v[i]);
    }
  });
  std::vector<std::pair<VertexId, VertexId>> out;
  for (const auto& p : partial) out.insert(out.end(), p.begin(), p.end());
  return out;
}

bool DynamicForest::validate(std::string* why) const {
  auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  // Phase 1 (pooled, per machine): each machine flattens its shard into
  // plain vectors.  The serial machine-order merge below rebuilds the
  // same global maps whichever executor ran the collection, so the
  // verdict — and the failure message — is byte-identical under
  // SerialExecutor and ThreadPoolExecutor.
  struct MachinePart {
    bool crossing = false;
    std::vector<std::pair<Word, std::pair<EdgeKey, etour::EdgeIndexes>>> tree;
    std::vector<EdgeRec> nontree;
  };
  std::vector<MachinePart> parts(machines_.size());
  exec().run(machines_.size(), [&](std::size_t m) {
    MachinePart& pt = parts[m];
    const EdgeShard& es = machines_[m].edges;
    for (std::size_t i = 0; i < es.size(); ++i) {
      const EdgeRec rec = es.get(i);
      if (rec.crossing) {
        pt.crossing = true;
      } else if (rec.tree) {
        pt.tree.emplace_back(
            rec.comp,
            std::pair{EdgeKey(rec.u, rec.v),
                      etour::EdgeIndexes{rec.iu1, rec.iu2, rec.iv1, rec.iv2}});
      } else {
        pt.nontree.push_back(rec);
      }
    }
  });
  std::map<Word, std::map<EdgeKey, etour::EdgeIndexes>> comp_edges;
  std::map<Word, std::set<VertexId>> comp_members;
  std::map<VertexId, VertexRec> vrecs;
  std::map<Word, Word> dir;
  std::vector<EdgeRec> nontree;
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    if (parts[m].crossing) return fail("unresolved crossing record");
    for (const auto& [comp, edge] : parts[m].tree) {
      comp_edges[comp][edge.first] = edge.second;
    }
    nontree.insert(nontree.end(), parts[m].nontree.begin(),
                   parts[m].nontree.end());
    for (const auto& [v, rec] : machines_[m].vertices) {
      vrecs[v] = rec;
      comp_members[rec.comp].insert(v);
    }
    for (const auto& [c, s] : machines_[m].comp_sizes) dir[c] = s;
  }

  // Phase 2 (pooled, per component): the full-tour walks are independent
  // pure reads of the merged maps.  Failures surface in component order —
  // the order the serial walk would have hit them.
  std::vector<const std::pair<const Word, std::set<VertexId>>*> comps;
  comps.reserve(comp_members.size());
  for (const auto& entry : comp_members) comps.push_back(&entry);
  std::vector<std::optional<std::string>> comp_err(comps.size());
  std::vector<std::map<VertexId, std::set<Word>>> comp_apps(comps.size());
  exec().run(comps.size(), [&](std::size_t c) {
    const Word comp = comps[c]->first;
    const std::set<VertexId>& members = comps[c]->second;
    auto err = [&](std::string msg) { comp_err[c] = std::move(msg); };
    const auto dit = dir.find(comp);
    if (dit == dir.end()) return err("missing directory entry");
    if (dit->second != static_cast<Word>(members.size())) {
      return err("directory size mismatch for component " +
                 std::to_string(comp));
    }
    const Word elen = etour::elength(static_cast<Word>(members.size()));
    std::map<Word, VertexId> tour;
    const auto eit = comp_edges.find(comp);
    if (members.size() == 1) {
      if (eit != comp_edges.end()) return err("singleton with tree edges");
      const VertexRec& vr = vrecs.at(*members.begin());
      if (vr.cached_idx != etour::kNoIndex) {
        return err("singleton with a cached tour index");
      }
      return;
    }
    if (eit == comp_edges.end()) return err("component without tree edges");
    std::map<VertexId, std::set<Word>>& appearances = comp_apps[c];
    for (const auto& [key, idx] : eit->second) {
      for (auto [w, i] : {std::pair{key.u, idx.u1}, std::pair{key.u, idx.u2},
                          std::pair{key.v, idx.v1}, std::pair{key.v, idx.v2}}) {
        if (i < 1 || i > elen) return err("tour index out of range");
        if (!tour.emplace(i, w).second) return err("duplicate tour index");
        appearances[w].insert(i);
      }
    }
    if (static_cast<Word>(tour.size()) != elen) {
      return err("tour incomplete for component " + std::to_string(comp));
    }
    // Closed-walk property.
    std::vector<VertexId> seq;
    seq.reserve(static_cast<std::size_t>(elen));
    for (const auto& [i, w] : tour) seq.push_back(w);
    if (seq.front() != seq.back()) return err("tour not closed");
    for (std::size_t k = 1; 2 * k < seq.size(); ++k) {
      if (seq[2 * k - 1] != seq[2 * k]) return err("tour walk broken");
    }
    for (std::size_t k = 0; 2 * k + 1 < seq.size(); ++k) {
      const EdgeKey kk(seq[2 * k], seq[2 * k + 1]);
      if (eit->second.count(kk) == 0) {
        return err("tour traverses a non-tree edge");
      }
    }
    // Every member vertex appears, and cached indexes are genuine
    // appearances.
    for (VertexId v : members) {
      const auto ait = appearances.find(v);
      if (ait == appearances.end()) {
        return err("vertex " + std::to_string(v) + " missing from tour");
      }
      const VertexRec& vr = vrecs.at(v);
      if (ait->second.count(vr.cached_idx) == 0) {
        return err("stale cached index for vertex " + std::to_string(v));
      }
    }
  });
  std::map<VertexId, std::set<Word>> global_appearances;
  for (std::size_t c = 0; c < comps.size(); ++c) {
    if (comp_err[c].has_value()) return fail(*comp_err[c]);
    // Vertices belong to exactly one component, so the merge is disjoint.
    global_appearances.merge(comp_apps[c]);
  }

  // Phase 3 (pooled, per non-tree record): component consistency and
  // cached-appearance checks (a stale cached index would silently corrupt
  // a future split's crossing detection, so this is the load-bearing
  // invariant).  First failure in machine-then-slot order, as before.
  std::vector<std::optional<std::string>> nt_err(nontree.size());
  exec().run(nontree.size(), [&](std::size_t i) {
    const EdgeRec& rec = nontree[i];
    if (vrecs.at(rec.u).comp != rec.comp ||
        vrecs.at(rec.v).comp != rec.comp) {
      nt_err[i] = "non-tree record with inconsistent component";
      return;
    }
    const auto au = global_appearances.find(rec.u);
    const auto av = global_appearances.find(rec.v);
    if (au == global_appearances.end() || au->second.count(rec.iu1) == 0 ||
        av == global_appearances.end() || av->second.count(rec.iv1) == 0) {
      nt_err[i] = "stale cached index on non-tree edge (" +
                  std::to_string(rec.u) + "," + std::to_string(rec.v) + ")";
    }
  });
  for (const std::optional<std::string>& e : nt_err) {
    if (e.has_value()) return fail(*e);
  }
  return true;
}

}  // namespace core
