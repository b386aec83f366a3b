#include "core/dyn_forest.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <compare>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "dmpc/trace.hpp"
#include "etour/tour_builder.hpp"
#include "oracle/dsu.hpp"

namespace core {
namespace {

// Protocol message tags.  The first group is shared by the update
// stages and the read path: directory size queries/replies/writes,
// path-max probes and proposals, and vertex lookups.
enum Tag : Word {
  kDirQuery = 1,
  kDirReply,
  kPathMaxBcast,
  kProposal,
  kDirUpdate,
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
  // Read-only query batches (answer_queries): the ingress assigns each
  // path-weight query to a coordinator (kQueryPath) and sends each path
  // endpoint to its home machine with the coordinators that need it
  // (kQueryEndpoint); the home machines send the endpoint's component
  // and cached tour index to those coordinators (kQueryEndpointReply),
  // which broadcast the connected queries' indexes, fold the local path
  // sums, and return the answers to the ingress.  Connectivity lookups
  // use kQuery/kQueryReply.
  kQueryPath,
  kQueryEndpoint,
  kQueryEndpointReply,
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

  // The edge lies on the tree path between the vertices appearing at
  // tour indexes ix and iy iff its child subtree holds exactly one of
  // them (the ancestor-XOR criterion).  Any single appearance of a
  // vertex decides subtree membership.  An unsigned compare tests each
  // range in one step, so the shard scan takes no data-dependent branch.
  [[nodiscard]] bool on_path(Word ix, Word iy) const {
    const auto width = static_cast<std::uint64_t>(l_c - f_c);
    return (static_cast<std::uint64_t>(ix - f_c) <= width) !=
           (static_cast<std::uint64_t>(iy - f_c) <= width);
  }
};

// Takes the four indexes one by one, so shard scans read the index
// columns without materializing an EdgeRec per slot.
ChildInterval child_interval(Word iu1, Word iu2, Word iv1, Word iv2) {
  const Word u_lo = std::min(iu1, iu2);
  const Word v_lo = std::min(iv1, iv2);
  const bool u_is_child = u_lo > v_lo;
  return {u_is_child, u_is_child ? u_lo : v_lo,
          u_is_child ? std::max(iu1, iu2) : std::max(iv1, iv2)};
}

// One tree-path probe: the path of component `comp` between the cached
// appearances ix and iy of its two endpoints; `id` is the caller's.
struct PathProbe {
  Word comp = 0;
  Word ix = 0, iy = 0;
  std::size_t id = 0;
};

// One batch's probes, sorted by (comp, id), with two O(1) tables over
// the probed components: a bitmap filter with no false negatives, and an
// exact open-addressing index from each component to its run of probes.
// With records pending in the log, a second filter passes the labels the
// shard stores for them (map_back).  Every machine derives the same set
// from the probe broadcast it receives; the simulation builds it once and
// shares it read-only across the machine tasks.
class ProbeSet {
 public:
  explicit ProbeSet(std::vector<PathProbe> probes)
      : probes_(std::move(probes)) {
    std::sort(probes_.begin(), probes_.end(),
              [](const PathProbe& a, const PathProbe& b) {
                return std::tie(a.comp, a.id) < std::tie(b.comp, b.id);
              });
    std::size_t comps = 0;
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      if (i == 0 || probes_[i].comp != probes_[i - 1].comp) ++comps;
    }
    // The filter passes an unprobed component with odds <= 1/64; the
    // index, at load <= 1/4, mostly resolves a probed one on its first
    // read.
    filter_shift_ = shift_for(64 * comps, 9);
    filter_.assign((std::size_t{1} << (64 - filter_shift_)) / 64, 0);
    index_shift_ = shift_for(4 * comps, 2);
    keys_.assign(std::size_t{1} << (64 - index_shift_), kEmpty);
    runs_.resize(keys_.size());
    for (std::size_t b = 0; b < probes_.size();) {
      const Word comp = probes_[b].comp;
      std::size_t e = b;
      while (e < probes_.size() && probes_[e].comp == comp) ++e;
      set(filter_, comp);
      std::size_t h = hash(comp, index_shift_);
      while (keys_[h] != kEmpty) h = (h + 1) & (keys_.size() - 1);
      keys_[h] = comp;
      runs_[h] = {b, e};
      b = e;
    }
  }

  [[nodiscard]] bool empty() const { return probes_.empty(); }

  // False only if `comp` is not probed; one bit test, no branch.
  [[nodiscard]] bool may_hold(Word comp) const { return test(filter_, comp); }

  // The probe filter mapped back to the labels records at base store: a
  // probed label itself (a component the log has not moved), and each
  // base component whose composed map carries a probed label.  `log` is
  // DynamicForest::PendingLog.
  template <class Log>
  void map_back(const Log& log) {
    stored_ = filter_;
    for (const auto& [base, cm] : log.composed) {
      for (const Word label : cm->labels()) {
        if (!of(label).empty()) {
          set(stored_, base);
          break;
        }
      }
    }
  }
  // False only if no record at base storing `comp` can lie in a probed
  // component (after map_back).
  [[nodiscard]] bool may_store(Word comp) const { return test(stored_, comp); }

  // The probes of component `comp`, empty unless it is probed.
  [[nodiscard]] std::span<const PathProbe> of(Word comp) const {
    for (std::size_t h = hash(comp, index_shift_);;
         h = (h + 1) & (keys_.size() - 1)) {
      if (keys_[h] == comp) {
        return std::span<const PathProbe>(probes_).subspan(
            runs_[h].first, runs_[h].second - runs_[h].first);
      }
      if (keys_[h] == kEmpty) return {};
    }
  }

 private:
  static constexpr Word kEmpty = -1;  // component ids are >= 0

  // The shift that maps a 64-bit hash onto the smallest power of two
  // >= max(want, 2^min_bits).
  static unsigned shift_for(std::size_t want, unsigned min_bits) {
    unsigned bits = min_bits;
    while ((std::size_t{1} << bits) < want) ++bits;
    return 64 - bits;
  }

  static std::size_t hash(Word comp, unsigned shift) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(comp) * 0x9e3779b97f4a7c15ULL) >> shift);
  }
  void set(std::vector<std::uint64_t>& bits, Word comp) const {
    const std::size_t f = hash(comp, filter_shift_);
    bits[f / 64] |= std::uint64_t{1} << (f % 64);
  }
  bool test(const std::vector<std::uint64_t>& bits, Word comp) const {
    const std::size_t f = hash(comp, filter_shift_);
    return ((bits[f / 64] >> (f % 64)) & 1) != 0;
  }

  std::vector<PathProbe> probes_;
  unsigned filter_shift_ = 0;
  std::vector<std::uint64_t> filter_;
  std::vector<std::uint64_t> stored_;
  unsigned index_shift_ = 0;
  std::vector<Word> keys_;
  std::vector<std::pair<std::size_t, std::size_t>> runs_;
};

// std::lower_bound over a sorted range without data-dependent branches:
// the loop runs ceil(log2(len)) times for any key and each step is a
// conditional move, so the scattered keys of a shard pass cost no
// mispredictions.
template <class T, class Key, class Less>
const T* branchless_lower_bound(const T* first, std::size_t len,
                                const Key& key, Less less) {
  if (len == 0) return first;
  while (len > 1) {
    const std::size_t half = len / 2;
    first = less(first[half], key) ? first + half : first;
    len -= half;
  }
  return first + static_cast<std::size_t>(less(*first, key));
}

// One pass over the shard for a whole batch of probes: calls fn(id, slot)
// for every probe and every tree record of the probe's component on its
// path, slots in shard order and each slot's probes in id order.  Each
// block of slots first keeps, without a branch, the tree slots whose
// component passes the filter; only those look up their probes, compute
// their child interval once and test it against each probe.  With
// records pending in `log` (DynamicForest::PendingLog; null: every record
// reads as stored), the filter tests the label a record at base stores
// against the probes mapped back (ProbeSet::map_back) and keeps every
// record off base; a kept record is resolved through the log, its
// component with one lookup and its indexes only if that is probed.
template <class Shard, class Log, class Fn>
void for_each_path_slot(const Shard& es, const Log* log,
                        const ProbeSet& probes, const Fn& fn) {
  if (probes.empty()) return;
  constexpr std::size_t kBlock = 256;
  std::array<std::size_t, kBlock> kept;
  std::optional<typename Log::Cursor> cursor;
  if (log != nullptr) cursor.emplace(*log);
  for (std::size_t base = 0; base < es.size(); base += kBlock) {
    const std::size_t end = std::min(es.size(), base + kBlock);
    std::size_t count = 0;
    if (log == nullptr) {
      for (std::size_t i = base; i < end; ++i) {
        kept[count] = i;
        count += static_cast<std::size_t>(es.tree[i] != 0) &
                 static_cast<std::size_t>(probes.may_hold(es.comp[i]));
      }
    } else {
      for (std::size_t i = base; i < end; ++i) {
        kept[count] = i;
        count += static_cast<std::size_t>(es.tree[i] != 0) &
                 (static_cast<std::size_t>(!log->at_base(es.ver[i])) |
                  static_cast<std::size_t>(probes.may_store(es.comp[i])));
      }
    }
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t i = kept[k];
      ChildInterval c;
      std::span<const PathProbe> run;
      // Load-bearing (see "Reads through the pending log").
      if (log == nullptr) {
        run = probes.of(es.comp[i]);
        if (run.empty()) continue;
        c = child_interval(es.iu1[i], es.iu2[i], es.iv1[i], es.iv2[i]);
      } else {
        const auto* cm = cursor->of(es, i);
        const auto u1 = log->first_entry(es, i, cm);
        run = probes.of(u1.comp);
        if (run.empty()) continue;
        const auto r = log->current(es, i, cm, u1);
        c = child_interval(r.iu1, r.iu2, r.iv1, r.iv2);
      }
      for (const PathProbe& p : run) {
        if (c.on_path(p.ix, p.iy)) fn(p.id, i);
      }
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
  log_bound_ = static_cast<std::size_t>(S) / kLogShare;
  pending_.reset(0, next_comp_id_);
  machines_.resize(mu);
  for (std::size_t m = 0; m < mu; ++m) {
    const std::size_t count = m < config_.n ? (config_.n - m + mu - 1) / mu : 0;
    machines_[m].vertices.resize(count);
    machines_[m].vertex_ver.assign(count, 0);
  }
  // Vertex records: comp(v) = v, no tour index yet.
  for (VertexId v = 0; v < static_cast<VertexId>(config_.n); ++v) {
    machines_[vertex_machine(v)].vertices[vertex_slot(v)] =
        VertexRec{v, etour::kNoIndex};
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

// ---------------------------------------------------------------------------
// Atomic updates: the undo journal (config_.atomic_updates)
// ---------------------------------------------------------------------------

void DynamicForest::journal_begin() {
  if (!config_.atomic_updates) return;
  journal_mem_used_.resize(machines_.size());
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    MachineState& ms = machines_[m];
    ms.journal.clear();
    ms.journal_armed = true;
    ++ms.journal_epoch;
    ms.journal_index_built = ms.index.built();
    ms.journal_index_side = ms.index.side_size();
    ms.journal_cascade_scanned = ms.cascade_scanned;
    journal_mem_used_[m] = cluster_->memory(static_cast<MachineId>(m)).used();
  }
  journal_next_comp_id_ = next_comp_id_;
  journal_batch_stats_ = batch_stats_;
  journal_pending_ = pending_;
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
    // Strict reverse replay: each entry finds its slot as it was logged.
    using Kind = MachineJournal::EdgeUndo::Kind;
    for (auto it = ms.journal.edges.rbegin(); it != ms.journal.edges.rend();
         ++it) {
      const std::size_t s = it->slot;
      switch (it->what()) {
        case Kind::kCreated:
          assert(s + 1 == ms.edges.size());
          ms.edges.erase_at(s);
          break;
        case Kind::kErased:
          ms.edges.unerase(
              s, it->key,
              {static_cast<VertexId>(it->key / config_.n),
               static_cast<VertexId>(it->key % config_.n), it->comp,
               it->tree != 0, it->w, it->iu1, it->iu2, it->iv1, it->iv2},
              it->ver);
          break;
        case Kind::kRewritten:
          ms.edges.comp[s] = it->comp;
          ms.edges.iu1[s] = it->iu1;
          ms.edges.iu2[s] = it->iu2;
          ms.edges.iv1[s] = it->iv1;
          ms.edges.iv2[s] = it->iv2;
          ms.edges.tree[s] = static_cast<std::uint8_t>(it->tree);
          ms.edges.ver[s] = it->ver;
          break;
      }
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
    // The shard is back slot for slot, so an index from before the batch
    // holds again once the batch's side-list slots are cut.
    if (ms.journal_index_built) {
      ms.index.truncate_side(ms.journal_index_side);
    } else {
      ms.index.drop();
    }
    ms.cascade_scanned = ms.journal_cascade_scanned;
    cluster_->memory(static_cast<MachineId>(m))
        .restore_used(journal_mem_used_[m]);
  }
  next_comp_id_ = journal_next_comp_id_;
  batch_stats_ = journal_batch_stats_;
  // The restored records name only stages and tracked appearances the
  // snapshot holds.
  pending_ = std::move(journal_pending_);
  cluster_->drop_round_state();
  cluster_->metrics().abort_update();
  journal_active_ = false;
}

// ---------------------------------------------------------------------------
// Reads through the pending log (the log itself: core/pending_log.hpp)
// ---------------------------------------------------------------------------
//
// The empty-log fast paths are load-bearing, not leftovers.  Every read
// that resolves records through the log first asks whether the log is
// empty and, if so, reads the records as stored: the `log == nullptr`
// branches of for_each_path_slot, `pending_.empty()` in current_edge,
// `pending ?` in the per-record body of the cascade's round A (which
// runs on every slot of a scanning machine and on every record-index
// candidate of an indexed one), and the two ProbeSet::map_back sites
// (the path-max and query-batch probes).  A build with these
// deleted (current_vertex's own guard kept) lost all six alternating 8 s
// e2e `serve` pairs (seeds 11-16) on a shared 4-core container: ops_per_s
// fell from 518-560k to 427-482k and query_p50_us rose from 406-446 to
// 484-551.  Remove one only with a measurement.

EdgeRec DynamicForest::current_edge(MachineId m, std::size_t s) const {
  const EdgeShard& es = machines_[m].edges;
  if (pending_.empty()) return es.get(s);  // load-bearing (see above)
  PendingLog::Cursor cursor(pending_);
  const etour::ComposedMap* cm = cursor.of(es, s);
  return pending_.current(es, s, cm, pending_.first_entry(es, s, cm));
}

std::uint32_t DynamicForest::written_version(Appearance a1, VertexId v1,
                                             Appearance a2, VertexId v2) {
  return pending_.empty() ? pending_.generation
                          : pending_.track(a1, v1, a2, v2);
}

void DynamicForest::compact_log() {
  ++batch_stats_.compactions;
  dmpc::PhaseScope phase(cluster_->tracer(), dmpc::TracePhase::kCompact);
  const std::size_t mu = machines_.size();
  const std::uint32_t target = pending_.generation + 1;
  compaction_interrupted_ = true;
  // Every base coordinate moves: the record indexes go, for good (a
  // rollback of the rest of the batch does not bring them back).
  for (MachineState& ms : machines_) {
    ms.index.drop();
    ms.cascade_scanned = 0;
    ms.journal_index_built = false;
    ms.journal_cascade_scanned = 0;
  }
  // A record the log leaves unchanged (the x side up to its splice
  // anchor, a remainder before its first cut) keeps its version: its
  // base coordinates hold at the target too.
  cluster_->for_each_machine([&](MachineId m) {
    MachineState& ms = machines_[m];
    EdgeShard& es = ms.edges;
    PendingLog::Cursor cursor(pending_);
    for (std::size_t s = 0; s < es.size(); ++s) {
      const std::uint32_t version = es.ver[s];
      if (version == target) continue;  // written before a fault
      const etour::ComposedMap* cm = nullptr;
      if (pending_.at_base(version)) {
        cm = cursor.find(es.comp[s]);
        if (cm == nullptr) continue;
        if (es.tree[s] != 0) {
          // The common record: a tree edge at base, whose two traversals
          // each move by their piece's delta.
          const etour::ComposedMap::Piece& p1 = cm->piece(es.iu1[s]);
          const etour::ComposedMap::Piece& p2 = cm->piece(es.iu2[s]);
          assert(p1.removed_at == 0 && p2.removed_at == 0);
          if ((p1.delta | p2.delta) == 0 && p1.label == es.comp[s]) continue;
          es.iu1[s] += p1.delta;
          es.iv1[s] += p1.delta;
          es.iu2[s] += p2.delta;
          es.iv2[s] += p2.delta;
          es.comp[s] = p1.label;
          es.ver[s] = target;
          continue;
        }
      }
      const EdgeRec r =
          pending_.current(es, s, cm, pending_.first_entry(es, s, cm));
      es.comp[s] = r.comp;
      es.iu1[s] = r.iu1;
      es.iu2[s] = r.iu2;
      es.iv1[s] = r.iv1;
      es.iv2[s] = r.iv2;
      es.ver[s] = target;
    }
    for (std::size_t j = 0; j < ms.vertices.size(); ++j) {
      if (!pending_.at_base(ms.vertex_ver[j])) continue;
      VertexRec& rec = ms.vertices[j];
      const etour::ComposedMap* cm = cursor.find(rec.comp);
      if (cm == nullptr) continue;
      const Appearance a =
          pending_.resolve({rec.comp, rec.cached_idx},
                           static_cast<VertexId>(j * mu + m), cm);
      if (a.idx == rec.cached_idx && a.comp == rec.comp) continue;
      rec = {a.comp, a.idx};
      ms.vertex_ver[j] = target;
    }
  });
  // Every machine is done: drop the compacted prefix.
  pending_.reset(target, next_comp_id_);
  compaction_interrupted_ = false;
  if (journal_active_) {
    // A completed compaction survives a rollback of the rest of the
    // batch: the rolled-back records are restored to values it wrote.
    journal_pending_ = pending_;
    journal_batch_stats_.compactions = batch_stats_.compactions;
  }
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
  // The records below are written in current coordinates, at base.
  if (!pending_.empty()) compact_log();
  // Reject a malformed edge list before any state changes: an
  // out-of-range endpoint has no vertex record, a self-loop has no place
  // in a forest, and a repeated edge would overwrite its first copy's
  // record.
  {
    std::vector<std::uint64_t> keys;
    keys.reserve(edges.size());
    for (const auto& e : edges) {
      graph::require_edge_endpoints(e.u, e.v, config_.n,
                                    "DynamicForest::preprocess");
      keys.push_back(edge_key(e.u, e.v));
    }
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      throw std::invalid_argument("DynamicForest: preprocess repeated edge");
    }
  }
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

  // Build one E-tour per non-singleton component, rooted at its DSU
  // representative, and record every vertex's component id and first
  // appearance, and every tree edge's indexes under its child endpoint
  // (the one a tour enters second).  The per-root builds are independent,
  // so they run on the installed executor; every tree edge and vertex
  // belongs to exactly one root, so the parallel writes are disjoint and
  // whichever executor ran them leaves the same arrays.
  std::vector<Word> comp_of(config_.n);
  std::vector<Word> first_idx(config_.n, etour::kNoIndex);
  std::vector<etour::EdgeIndexes> parent_edge_idx(config_.n);
  for (VertexId v = 0; v < static_cast<VertexId>(config_.n); ++v) {
    const std::size_t root = dsu.find(static_cast<std::size_t>(v));
    comp_of[static_cast<std::size_t>(v)] = static_cast<Word>(root);
  }
  std::vector<VertexId> roots;
  for (VertexId root = 0; root < static_cast<VertexId>(config_.n); ++root) {
    if (comp_of[static_cast<std::size_t>(root)] == root) roots.push_back(root);
  }
  std::vector<Word> comp_size(roots.size(), 1);
  exec().run(roots.size(), [&](std::size_t r) {
    const auto tour = etour::build_tour(tree_adj, roots[r]);
    if (tour.empty()) return;  // singleton, size stays 1
    comp_size[r] = etour::tree_size(static_cast<Word>(tour.size()));
    for (std::size_t i = 0; i < tour.size(); ++i) {
      Word& fi = first_idx[static_cast<std::size_t>(tour[i])];
      if (fi == etour::kNoIndex) fi = static_cast<Word>(i + 1);
    }
    for (const auto& [key, idx] : etour::indexes_from_tour(tour)) {
      const VertexId child = idx.u1 < idx.v1 ? key.v : key.u;
      parent_edge_idx[static_cast<std::size_t>(child)] = idx;
    }
  });

  // Distribute the records (memory-charged), replacing the initial
  // singleton directory.
  for (VertexId v = 0; v < static_cast<VertexId>(config_.n); ++v) {
    const std::size_t sv = static_cast<std::size_t>(v);
    VertexRec& rec = machines_[vertex_machine(v)].vertices[vertex_slot(v)];
    rec.comp = comp_of[sv];
    rec.cached_idx = first_idx[sv];
    auto& dir = machines_[dir_machine(v)].comp_sizes;
    if (comp_of[sv] != v) {
      dir.erase(v);
      cluster_->memory(dir_machine(v)).release(kDirRecWords);
    }
  }
  for (std::size_t r = 0; r < roots.size(); ++r) {
    machines_[dir_machine(roots[r])].comp_sizes[roots[r]] = comp_size[r];
  }
  // Each machine installs its own bucket of edge records (pure reads of
  // comp_of / first_idx / parent_edge_idx, writes only to its own shard
  // and memory meter), so the distribution parallelizes; per-machine
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
        // Its child endpoint is the one the tour enters later.
        const auto u = static_cast<std::size_t>(key.u);
        const auto v = static_cast<std::size_t>(key.v);
        const etour::EdgeIndexes& idx =
            parent_edge_idx[first_idx[u] < first_idx[v] ? v : u];
        rec.iu1 = idx.u1;
        rec.iu2 = idx.u2;
        rec.iv1 = idx.v1;
        rec.iv2 = idx.v2;
      } else {
        rec.iu1 = first_idx[static_cast<std::size_t>(key.u)];
        rec.iv1 = first_idx[static_cast<std::size_t>(key.v)];
      }
      machines_[m].create_edge(edge_key(key.u, key.v), rec,
                               cluster_->memory(m), pending_.generation);
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
// The read path: batched connectivity and path-weight queries
// ---------------------------------------------------------------------------

bool DynamicForest::connected(VertexId u, VertexId v) {
  const ReadQuery q{QueryKind::kConnected, u, v};
  return answer_queries(std::span<const ReadQuery>(&q, 1))[0].connected;
}

std::vector<ReadAnswer> DynamicForest::answer_queries(
    std::span<const ReadQuery> queries) {
  // Reject an out-of-range endpoint before any round runs: no machine
  // holds a record for it.
  for (const ReadQuery& q : queries) {
    if (!is_vertex(q.u) || !is_vertex(q.v)) {
      throw std::invalid_argument("DynamicForest: query endpoint out of "
                                  "range");
    }
  }
  std::vector<ReadAnswer> answers(queries.size());
  if (queries.empty()) return answers;
  // Chunk the batch so no machine's round traffic can exceed the S-word
  // cap.  Per query, a message costing its payload plus one tag word:
  //   * connectivity: <= 4 words sent by the ingress in round 1 and <= 6
  //     received by it in round 2;
  //   * path weight: <= 10 words sent by the ingress in round 1 (the
  //     coordinator assignment plus one coordinator word on each
  //     endpoint's message), <= 8 received by its coordinator in round 2,
  //     5 received by EVERY machine in round 3, <= 3 per machine in
  //     round 4 and 4 at the ingress in round 5.  A coordinator also
  //     sends 5 mu words per query in round 3 and receives <= 3 mu in
  //     round 4, but round-robin coordinators hold ceil(P / mu) of the P
  //     path queries each, which adds at most 5 mu <= S/6 words.
  // Budgeted 1 and 4 units against an S/16-unit chunk, every machine
  // stays under 6 S/16 + S/6 < S words per round.  Rounds stay O(1) per
  // chunk and the broker bounds batch sizes, so served batches are one
  // chunk each.
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

  // Plan host-side, as two flat lists sorted by home machine, each with
  // mu + 1 offsets so machine m reads its own range in round 2: the
  // unique connectivity endpoints, and every path endpoint with each
  // coordinator that needs it.  One coordinator per path-weight query
  // (round-robin, so the sum folds spread across the cluster).
  struct Lookup {
    MachineId home;
    VertexId vtx;
    auto operator<=>(const Lookup&) const = default;
  };
  struct Endpoint {
    MachineId home;
    VertexId vtx;
    MachineId coord;
    auto operator<=>(const Endpoint&) const = default;
  };
  std::vector<Lookup> lookups;
  std::vector<Endpoint> endpoints;
  std::vector<std::size_t> paths;  // query k's position in qs
  const auto coord = [&](std::size_t k) {
    return static_cast<MachineId>(k % mu);
  };
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const ReadQuery& q = qs[i];
    out[i] = ReadAnswer{};
    if (q.u == q.v) {
      out[i].connected = true;  // empty path, weight 0
      continue;
    }
    if (q.kind == QueryKind::kPathWeight) {
      for (const VertexId vtx : {q.u, q.v}) {
        endpoints.push_back({vertex_machine(vtx), vtx, coord(paths.size())});
      }
      paths.push_back(i);
      continue;
    }
    for (const VertexId vtx : {q.u, q.v}) {
      lookups.push_back({vertex_machine(vtx), vtx});
    }
  }
  const auto by_machine = [mu](auto& list) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    std::vector<std::size_t> offsets(mu + 1, 0);
    for (const auto& entry : list) ++offsets[entry.home + 1];
    for (std::size_t m = 0; m < mu; ++m) offsets[m + 1] += offsets[m];
    return offsets;
  };
  const std::vector<std::size_t> lookup_off = by_machine(lookups);
  const std::vector<std::size_t> endpoint_off = by_machine(endpoints);

  // Round 1: the ingress scatters each connectivity endpoint to its home
  // machine, each path query to its coordinator, and each path endpoint
  // to its home machine with the coordinators that need it.
  for (const Lookup& l : lookups) cluster_->send(0, l.home, kQuery, {l.vtx});
  for (std::size_t k = 0; k < paths.size(); ++k) {
    const ReadQuery& q = qs[paths[k]];
    cluster_->send(0, coord(k), kQueryPath, {static_cast<Word>(k), q.u, q.v});
  }
  std::vector<Word> msg;
  for (std::size_t a = 0; a < endpoints.size();) {
    const Endpoint& e = endpoints[a];
    msg.assign(1, e.vtx);
    for (; a < endpoints.size() && endpoints[a].home == e.home &&
           endpoints[a].vtx == e.vtx;
         ++a) {
      msg.push_back(static_cast<Word>(endpoints[a].coord));
    }
    cluster_->send(0, e.home, kQueryEndpoint, msg);
  }
  cluster_->finish_round();

  // Round 2: home machines reply the component ids to the ingress and
  // send each path endpoint's component and cached tour index to its
  // coordinators, each read through the pending log.  The simulation
  // reads a reply back by resolving the vertex again: its record and map
  // lines are still in cache, which beats storing the replies.
  cluster_->for_each_machine([&](MachineId m) {
    for (std::size_t a = lookup_off[m]; a < lookup_off[m + 1]; ++a) {
      const VertexId vtx = lookups[a].vtx;
      cluster_->send(m, 0, kQueryReply, {vtx, current_vertex(vtx).comp});
    }
    for (std::size_t a = endpoint_off[m]; a < endpoint_off[m + 1]; ++a) {
      const Endpoint& e = endpoints[a];
      const VertexRec rec = current_vertex(e.vtx);
      cluster_->send(m, e.coord, kQueryEndpointReply,
                     {e.vtx, rec.comp, rec.cached_idx});
    }
  });
  cluster_->finish_round();
  if (!pending_.empty()) ++batch_stats_.reads_through_log;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const ReadQuery& q = qs[i];
    if (q.u == q.v || q.kind == QueryKind::kPathWeight) continue;
    out[i].connected = current_vertex(q.u).comp == current_vertex(q.v).comp;
  }
  if (paths.empty()) {
    cluster_->end_query_batch(qs.size());
    return;
  }

  // Coordinators resolve their queries: connected iff both endpoints
  // report one component, whose path is then probed between the
  // endpoints' cached appearances (any one decides subtree membership).
  std::vector<PathProbe> probes;
  for (std::size_t k = 0; k < paths.size(); ++k) {
    const ReadQuery& q = qs[paths[k]];
    const VertexRec rx = current_vertex(q.u);
    const VertexRec ry = current_vertex(q.v);
    if (rx.comp != ry.comp) continue;
    out[paths[k]].connected = true;
    probes.push_back({rx.comp, rx.cached_idx, ry.cached_idx, k});
  }

  // Round 3: coordinators broadcast their connected queries' probes.
  cluster_->for_each_machine([&](MachineId m) {
    for (const PathProbe& p : probes) {
      if (coord(p.id) != m) continue;
      for (MachineId to = 0; to < mu; ++to) {
        cluster_->send(m, to, kQuerySumBcast,
                       {static_cast<Word>(p.id), p.comp, p.ix, p.iy});
      }
    }
  });
  cluster_->finish_round();

  // Round 4: every machine sums its tree edges on every probed path in
  // one pass over its shard and sends the nonzero sums to the
  // coordinators.
  ProbeSet probe_set(std::move(probes));
  // Load-bearing empty-log fast path (see "Reads through the pending log").
  const PendingLog* log = pending_.empty() ? nullptr : &pending_;
  if (log != nullptr) probe_set.map_back(*log);
  const std::size_t num_paths = paths.size();
  std::vector<Weight> sums(mu * num_paths, 0);  // machine-major
  cluster_->for_each_machine([&](MachineId m) {
    const EdgeShard& es = machines_[m].edges;
    Weight* local = sums.data() + m * num_paths;
    for_each_path_slot(es, log, probe_set, [&](std::size_t k, std::size_t i) {
      local[k] += es.w[i];
    });
    for (std::size_t k = 0; k < num_paths; ++k) {
      if (local[k] != 0) {
        cluster_->send(m, coord(k), kQuerySumReply,
                       {static_cast<Word>(k), local[k]});
      }
    }
  });
  cluster_->finish_round();

  // Round 5: coordinators fold the sums and return the answers to the
  // ingress.
  for (std::size_t k = 0; k < num_paths; ++k) {
    ReadAnswer& a = out[paths[k]];
    for (MachineId m = 0; m < mu; ++m) {
      a.path_weight += sums[m * num_paths + k];
    }
    cluster_->send(coord(k), 0, kQueryAnswer,
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
    op.cx = current_vertex(op.x).comp;
    op.cy = current_vertex(op.y).comp;
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
  op.cx = op.cy = current_edge(op.coord, static_cast<std::size_t>(slot)).comp;
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
  // non-tree op would add or remove — must observe batch order).
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

EdgeRec DynamicForest::make_tree_record(
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
    const BatchOp& op = ops[i];
    machines_[op.coord].erase_edge(op.ekey, cluster_->memory(op.coord));
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
    const Word idx = current_vertex(v).cached_idx;
    vert_idx[v] = idx;
    // Every machine resolves merge endpoints inside the shared join plan
    // and probes cycle-rule paths, so the cached appearance is broadcast,
    // not just sent to the owner.
    bcast(vertex_machine(v), kQueryReply, {v, idx});
  }
  for (const auto& [v, targets] : ntins_targets) {
    const Word idx = current_vertex(v).cached_idx;
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
    const CutInfo ci = make_cut(
        i, current_edge(op.coord, static_cast<std::size_t>(
                                      machines_[op.coord].edges.find(
                                          op.ekey))));
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
  // appearances cached, as of the pending stages so far.
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
    machines_[op.coord].create_edge(
        op.ekey, rec, cluster_->memory(op.coord),
        written_version({rec.comp, rec.iu1}, rec.u, {rec.comp, rec.iv1},
                        rec.v));
  };
  for (const std::size_t i : nti) store_nontree(ops[i]);

  if (!pms.empty()) {
    phase.next(dmpc::TracePhase::kPathMax);
    // ---- Round 3: path-max proposals.  Every machine makes one pass
    // over its shard (concurrently) for all probes, with the endpoints'
    // broadcast cached appearances, and proposes each probe's local
    // maximum — the first strictly heavier slot in shard order — as a
    // tour-index cut descriptor to the insert's coordinator.
    std::vector<PathProbe> probes;
    for (std::size_t k = 0; k < pms.size(); ++k) {
      const BatchOp& op = ops[pms[k]];
      probes.push_back({op.cx, vert_idx.at(op.x), vert_idx.at(op.y), k});
    }
    ProbeSet probe_set(std::move(probes));
    // Load-bearing empty-log fast path (see "Reads through the pending log").
    const PendingLog* log = pending_.empty() ? nullptr : &pending_;
    if (log != nullptr) probe_set.map_back(*log);
    std::vector<std::vector<std::optional<EdgeRec>>> pmc(
        machines_.size(), std::vector<std::optional<EdgeRec>>(pms.size()));
    cluster_->for_each_machine([&](MachineId m) {
      const EdgeShard& es = machines_[m].edges;
      std::vector<std::ptrdiff_t> best(pms.size(), EdgeShard::kNpos);
      for_each_path_slot(es, log, probe_set, [&](std::size_t k, std::size_t i) {
        if (best[k] == EdgeShard::kNpos || es.w[i] > es.w[best[k]]) {
          best[k] = static_cast<std::ptrdiff_t>(i);
        }
      });
      for (std::size_t k = 0; k < pms.size(); ++k) {
        const BatchOp& op = ops[pms[k]];
        if (best[k] == EdgeShard::kNpos) continue;
        pmc[m][k] = current_edge(m, static_cast<std::size_t>(best[k]));
        if (m == op.coord) continue;
        const CutInfo c = make_cut(pms[k], *pmc[m][k]);
        cluster_->send(m, op.coord, kProposal,
                       {static_cast<Word>(op.pos),
                        static_cast<Word>(pmc[m][k]->w), c.parent, c.child,
                        c.f_c, c.l_c});
      }
    });
    finish();
    // ---- Round 4: swap cuts.  Each coordinator folds its proposals in
    // machine order, strictly heavier wins (the same fold in every
    // stage, so a shared search displaces the edge the insert's own
    // stage would); an insert lighter than its path max broadcasts the
    // displaced edge's cut.  Every machine then commits the earliest
    // swap per component and defers the component's later inserts: they
    // probed the pre-swap tree.
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
        ++batch_stats_.swaps_committed;
      }
    }
    if (!swap_of.empty()) finish();
    // Committed inserts store their record before the cascade's shard
    // scan, so a swap's own edge — and any earlier insert of its
    // component — competes for the replacement as it would one update
    // at a time.
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
    std::vector<VertexId> cut_verts;   ///< cut endpoints, sorted, unique,
                                       ///< then a max() sentinel
    std::optional<etour::KWaySplit> split;
  };
  std::map<Word, SplitComp> splits;
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    SplitComp& sc = splits[cuts[c].comp];
    sc.ivals.push_back({cuts[c].f_c, cuts[c].l_c});
    sc.cut_ids.push_back(c);
    sc.cut_verts.push_back(cuts[c].parent);
    sc.cut_verts.push_back(cuts[c].child);
  }
  for (auto& [comp, sc] : splits) {
    std::sort(sc.cut_verts.begin(), sc.cut_verts.end());
    sc.cut_verts.erase(std::unique(sc.cut_verts.begin(), sc.cut_verts.end()),
                       sc.cut_verts.end());
    sc.cut_verts.push_back(std::numeric_limits<VertexId>::max());
    sc.split.emplace(etour::elength(comp_size.at(comp)), sc.ivals);
    ++batch_stats_.kway_splits;
  }

  // ---- Shared fragment universe ----------------------------------------
  // Fragment ids: split components ascending (fragment 0 keeps the old
  // label, cut fragments take their op's pre-assigned new label), then
  // merge components ascending as single whole-tour fragments.  Every
  // machine derives the identical universe from the broadcast data.
  struct Frag {
    Word label = 0;
    Word elen = 0;
  };
  std::vector<Frag> frags;
  // The stage's rewritten components, ascending: each one's split (null
  // for a merge component, which joins as one whole-tour fragment), the
  // universe index of its fragment 0, and its split alone as a stage map
  // (the cascade's scan reads it; the pending log gets the compiled split
  // + join once the join plan is finished).
  struct Rewritten {
    Word comp = 0;
    const SplitComp* split = nullptr;
    std::size_t base = 0;
    etour::StageMap map;
  };
  std::vector<Rewritten> rewritten;
  for (const auto& [comp, sc] : splits) {
    const etour::KWaySplit& sp = *sc.split;
    rewritten.push_back({comp, &sc, frags.size(),
                         etour::StageMap(etour::elength(comp_size.at(comp)),
                                         &sp)});
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
    const Word elen = etour::elength(comp_size.at(c));
    rewritten.push_back(
        {c, nullptr, frags.size(), etour::StageMap(elen, nullptr)});
    frags.push_back({c, elen});
  }
  std::sort(rewritten.begin(), rewritten.end(),
            [](const Rewritten& a, const Rewritten& b) {
              return a.comp < b.comp;
            });
  // A record's rewritten component, or null.  A large component owns most
  // of the records its stage rewrites, so each machine task keeps its
  // last hit: usually the next record's answer.
  struct RewrittenCursor {
    const std::vector<Rewritten>& table;
    Word last_comp = -1;
    const Rewritten* last = nullptr;
    const Rewritten* find(Word comp) {
      if (comp != last_comp) {
        last_comp = comp;
        const Rewritten* it = branchless_lower_bound(
            table.data(), table.size(), comp,
            [](const Rewritten& r, Word c) { return r.comp < c; });
        last = it == table.data() + table.size() || it->comp != comp
                   ? nullptr
                   : it;
      }
      return last;
    }
  };
  const auto base_of = [&](Word comp) {
    return RewrittenCursor{rewritten}.find(comp)->base;
  };

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
  // Per-cut-vertex repaired fragment-original index, derived from `app`
  // at the owner and rebroadcast by each cut's coordinator.
  std::map<std::pair<Word, VertexId>, Word> fixes;
  if (!cuts.empty()) {
    phase.next(dmpc::TracePhase::kCascade);
    const std::uint64_t cascade_start = rounds;
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
    // its records to per-(comp,vertex) appearance minima and per-
    // fragment-pair best (w,u,v) crossing candidates, sent to hashed
    // collectors (two-hop fold keeps any one receiver under the comm
    // cap).  Each machine collects flat and sorts + folds once, so it
    // sends in key order, whatever order it read its records in.  A
    // record the pending log moved is read as it left it; with nothing
    // pending the shard is read as stored.
    //
    // Only a cut vertex's tree records and a non-tree record with an
    // entry outside its split's largest fragment can send anything (the
    // smaller-side search), so a machine whose record index is built
    // reads only the index's candidates for those: every other
    // fragment's tour ranges mapped back to base coordinates, the cut
    // vertices, and the side list.  Every machine derives the same query
    // from the broadcast cuts; the simulation builds it once.
    using AppKey = std::pair<Word, VertexId>;
    using PairKey = std::tuple<Word, Word, Word>;
    std::map<AppKey, Word> best_app;
    std::map<PairKey, Cand> best;
    std::vector<std::vector<std::pair<AppKey, Word>>> mapp(machines_.size());
    std::vector<std::vector<std::pair<PairKey, Cand>>> mbest(
        machines_.size());
    // Ski rental: a machine scans until the records it scanned since the
    // last compaction would have paid for a build.
    const auto reads_index = [&](const MachineState& ms) {
      return ms.index.built() ||
             (ms.cascade_scanned != 0 &&
              ms.cascade_scanned >= kIndexAfterScans * ms.edges.size());
    };
    const bool indexed =
        RecordIndex::fits(config_.n) &&
        std::any_of(machines_.begin(), machines_.end(), reads_index);
    std::vector<TourRange> query_ranges;
    std::vector<VertexId> query_verts;
    if (indexed) {
      std::vector<TourRange> smaller;
      for (const Rewritten& rw : rewritten) {
        if (rw.split == nullptr) continue;
        const etour::KWaySplit& sp = *rw.split->split;
        std::size_t largest = 0;  // the lowest id among the longest tours
        for (std::size_t f = 1; f < sp.fragments(); ++f) {
          if (sp.fragment_elength(f) > sp.fragment_elength(largest)) {
            largest = f;
          }
        }
        smaller.clear();
        for (std::size_t p = 0; p < rw.map.pieces(); ++p) {
          if (rw.map.piece_at(p).frag == largest) continue;
          const Word lo = rw.map.piece_start(p);
          const Word hi = std::min(rw.map.piece_start(p + 1) - 1,
                                   rw.map.elen());
          if (!smaller.empty() && smaller.back().hi + 1 == lo) {
            smaller.back().hi = hi;
          } else {
            smaller.push_back({rw.comp, lo, hi});
          }
        }
        const std::size_t mapped = query_ranges.size();
        pending_.map_back(rw.comp, smaller, query_ranges);
        if (index_audit_.on &&
            query_ranges.size() - mapped > smaller.size()) {
          ++index_audit_.remapped;
        }
        // cut_verts ends in a max() sentinel.
        query_verts.insert(query_verts.end(), rw.split->cut_verts.begin(),
                           rw.split->cut_verts.end() - 1);
      }
      std::sort(query_ranges.begin(), query_ranges.end(),
                [](const TourRange& a, const TourRange& b) {
                  return std::tie(a.comp, a.lo) < std::tie(b.comp, b.lo);
                });
      std::sort(query_verts.begin(), query_verts.end());
    }
    // Per machine, kept only when some machine reads through an index:
    // otherwise every machine reads its whole shard and builds nothing.
    std::vector<std::uint64_t> records_read(indexed ? machines_.size() : 0);
    std::vector<std::uint8_t> index_built(indexed ? machines_.size() : 0);
    // Per machine: whether it was audited, and the slots it missed.
    std::vector<std::uint64_t> audit(index_audit_.on ? 2 * machines_.size()
                                                     : 0);
    // Load-bearing empty-log fast path (see "Reads through the pending log").
    const bool pending = !pending_.empty();
    cluster_->for_each_machine([&](MachineId m) {
      MachineState& ms = machines_[m];
      const EdgeShard& es = ms.edges;
      auto& lapp = mapp[m];
      auto& lbest = mbest[m];
      RewrittenCursor cursor{rewritten};
      PendingLog::Cursor pcursor(pending_);
      // Forced inline: the loops below call it once per record, and with
      // three callers the compiler kept it out of line, a call per record
      // on the whole-shard scan as well.
      const auto read = [&](std::size_t s) __attribute__((always_inline)) {
        // The record's current component takes one lookup (its u-side
        // entry); the whole record is resolved only if the scan uses it,
        // reusing that entry.
        const etour::ComposedMap* cm = pending ? pcursor.of(es, s) : nullptr;
        const Appearance u1 = pending ? pending_.first_entry(es, s, cm)
                                      : Appearance{es.comp[s], es.iu1[s]};
        const Rewritten* rw = cursor.find(u1.comp);
        if (rw == nullptr || rw->split == nullptr) return;
        const Word comp = u1.comp;
        const etour::StageMap& sm = rw->map;
        const auto record = [&] {
          return pending ? pending_.current(es, s, cm, u1) : es.get(s);
        };
        if (es.tree[s] != 0) {
          const std::vector<VertexId>& cv = rw->split->cut_verts;
          const auto is_cut = [&](VertexId vert) {
            return *branchless_lower_bound(cv.data(), cv.size(), vert,
                                           std::less<>()) == vert;
          };
          const bool cut_u = is_cut(es.u[s]);
          const bool cut_v = is_cut(es.v[s]);
          if (!cut_u && !cut_v) return;
          const EdgeRec r = record();
          const auto touch = [&](VertexId vert, Word i1, Word i2) {
            for (const Word entry : {i1, i2}) {
              if (sm.piece(entry).removed) continue;
              lapp.push_back({{comp, vert}, entry});
            }
          };
          if (cut_u) touch(r.u, r.iu1, r.iu2);
          if (cut_v) touch(r.v, r.iv1, r.iv2);
        } else {
          // Cached appearances locate the fragment even when the entry
          // itself was removed (a removed entry sits positionally inside
          // its owner vertex's fragment); only the index VALUE needs the
          // owner-side fix, resolved after the Kruskal.
          const EdgeRec r = record();
          const Word fu = sm.piece(r.iu1).frag;
          const Word fv = sm.piece(r.iv1).frag;
          if (fu == fv) return;
          Cand c;
          c.w = r.w;
          c.u = r.u;
          c.v = r.v;
          c.fu = fu;
          c.fv = fv;
          c.iu = r.iu1;
          c.iv = r.iv1;
          lbest.push_back({{comp, std::min(fu, fv), std::max(fu, fv)}, c});
        }
      };
      if (indexed && reads_index(ms)) {
        if (!ms.index.built()) {
          ms.index.build(es, pending_);
          index_built[m] = 1;
        }
        std::vector<std::uint32_t> slots;
        ms.index.collect(query_ranges, query_verts, es.size(), slots);
        for (const std::uint32_t s : slots) read(s);
        records_read[m] = slots.size();
        if (index_audit_.on) {
          // Test-only: a slot the index did not name must send nothing.
          const std::size_t apps = lapp.size(), bests = lbest.size();
          auto named = slots.begin();
          for (std::size_t s = 0; s < es.size(); ++s) {
            if (named != slots.end() && *named == s) {
              ++named;
              continue;
            }
            read(s);
            if (lapp.size() != apps || lbest.size() != bests) {
              ++audit[2 * m + 1];
              lapp.resize(apps);
              lbest.resize(bests);
            }
          }
          audit[2 * m] = 1;
        }
      } else {
        for (std::size_t s = 0; s < es.size(); ++s) read(s);
        ms.cascade_scanned += es.size();
        if (indexed) records_read[m] = es.size();
      }
      // Per key: the minimum appearance; the (w, u, v)-least candidate.
      std::sort(lapp.begin(), lapp.end());
      lapp.erase(std::unique(lapp.begin(), lapp.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }),
                 lapp.end());
      std::sort(lbest.begin(), lbest.end(),
                [](const auto& a, const auto& b) {
                  return std::tie(a.first, a.second.w, a.second.u,
                                  a.second.v) < std::tie(b.first, b.second.w,
                                                         b.second.u,
                                                         b.second.v);
                });
      lbest.erase(std::unique(lbest.begin(), lbest.end(),
                              [](const auto& a, const auto& b) {
                                return a.first == b.first;
                              }),
                  lbest.end());
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
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      if (indexed) {
        batch_stats_.cascade_records_read += records_read[m];
        batch_stats_.record_index_builds += index_built[m];
      } else {
        batch_stats_.cascade_records_read += machines_[m].edges.size();
      }
    }
    for (std::size_t m = 0; m < audit.size(); m += 2) {
      index_audit_.machines += audit[m];
      index_audit_.misses += audit[m + 1];
    }
    // ---- Cascade round B: collectors fold and forward the survivors to
    // each split component's owner machine.
    for (MachineId m = 0; m < mu; ++m) {
      for (const auto& [k, entry] : mapp[m]) {
        const auto [it, fresh] = best_app.try_emplace(k, entry);
        if (!fresh && entry < it->second) it->second = entry;
      }
      for (const auto& [k, c] : mbest[m]) {
        const auto [it, fresh] = best.try_emplace(k, c);
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
      const auto fix_of = [&](VertexId vert) {
        const auto it = app.find(std::make_pair(ci.comp, vert));
        return it == app.end() ? etour::kNoIndex : sp.new_index(it->second);
      };
      const Word pidx = fix_of(ci.parent);
      const Word cidx = fix_of(ci.child);
      fixes[std::make_pair(ci.comp, ci.parent)] = pidx;
      fixes[std::make_pair(ci.comp, ci.child)] = cidx;
      cluster_->send(dir_machine(ci.comp), ops[ci.op].coord, kCachedFix,
                     {ci.comp, ci.parent,
                      static_cast<Word>(sp.fragment_of(ci.f_c - 1)), pidx,
                      ci.child, static_cast<Word>(sp.fragment_of(ci.f_c)),
                      cidx});
    }
    finish();
    batch_stats_.cascade_rounds += rounds - cascade_start;
    batch_stats_.cascade_links += links.size();
  }
  phase.next(dmpc::TracePhase::kKWayJoin);

  // ---- K-way join plan ------------------------------------------------
  std::vector<Word> elens;
  elens.reserve(frags.size());
  for (const Frag& f : frags) elens.push_back(f.elen);
  etour::KWayJoinPlan plan(elens);
  // Cascade links first (components ascending, Kruskal order within),
  // then the batch merges in batch order.  The x side's label survives
  // each link, matching the sequential merge.
  for (LinkRec& lr : links) {
    const std::size_t base = base_of(lr.comp);
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
        plan.link(base_of(op.cx), vert_idx.at(op.x), base_of(op.cy),
                  vert_idx.at(op.y));
    mapply.push_back({i, id});
  }
  // Each fragment's final tree label (the plan is complete).
  std::vector<Word> final_label(frags.size());
  for (std::size_t f = 0; f < frags.size(); ++f) {
    final_label[f] = frags[plan.tree_of(f)].label;
  }
  {
    std::set<std::size_t> join_roots;
    for (const LinkRec& lr : links) {
      join_roots.insert(plan.tree_of(base_of(lr.comp) + lr.c.fu));
    }
    for (const MergeApp& ma : mapply) {
      join_roots.insert(plan.tree_of(base_of(ops[ma.op].cx)));
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
    bcast(ops[ci.op].coord, kCachedFix,
          {ci.comp, ci.parent, fixes.at(std::make_pair(ci.comp, ci.parent)),
           ci.child, fixes.at(std::make_pair(ci.comp, ci.child))});
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
    for (const Rewritten& r : rewritten) {
      if (surviving.count(r.comp) == 0) dir_writes.emplace_back(r.comp, 0);
    }
  }
  for (const auto& [label, size] : dir_writes) {
    cluster_->send(0, dir_machine(label), kDirUpdate, {label, size});
  }
  finish();

  // ---- Behind the commit barrier: the stage's compiled maps join the
  // pending log, which every later read resolves records through until a
  // compaction writes them.  Only the records the stage demotes,
  // promotes, erases or creates are written now, each with its two
  // entries tracked by the log. ------------------------------------------
  PendingStage logged;
  for (const Rewritten& rw : rewritten) {
    const etour::KWaySplit* sp =
        rw.split != nullptr ? &*rw.split->split : nullptr;
    const std::size_t fragments = sp != nullptr ? sp->fragments() : 1;
    logged.rewrites.push_back(
        {rw.comp,
         etour::StageMap(etour::elength(comp_size.at(rw.comp)), sp, plan,
                         rw.base),
         std::vector<Word>(
             final_label.begin() + static_cast<std::ptrdiff_t>(rw.base),
             final_label.begin() +
                 static_cast<std::ptrdiff_t>(rw.base + fragments))});
  }
  // Each cut vertex's final appearance, for records whose cached
  // appearance was a removed entry.  The broadcast carries only the
  // fragment-original index: every machine derives the fragment from the
  // shared split, where the parent's removed entry f_c - 1 and the
  // child's f_c sit positionally inside their owners' fragments.
  for (const CutInfo& ci : cuts) {
    const etour::KWaySplit& sp = *splits.at(ci.comp).split;
    const std::size_t base = base_of(ci.comp);
    for (const auto& [vert, probe] :
         {std::pair{ci.parent, ci.f_c - 1}, std::pair{ci.child, ci.f_c}}) {
      const auto key = std::make_pair(ci.comp, vert);
      const std::size_t frag = base + sp.fragment_of(probe);
      logged.cut_fix[key] = {final_label[frag],
                             plan.resolve(frag, fixes.at(key))};
    }
  }
  pending_.append(logged);
  ++batch_stats_.rewriting_stages;
  const auto& cut_fix = logged.cut_fix;
  // The edge's shard and slot, its pre-image journaled for a write.
  const auto slot_of = [&](VertexId u, VertexId v) {
    MachineState& ms = machines_[edge_machine(u, v)];
    const std::ptrdiff_t found = ms.edges.find(edge_key(u, v));
    assert(found != EdgeShard::kNpos);
    const auto slot = static_cast<std::size_t>(found);
    ms.write_slot(slot);
    return std::pair<EdgeShard&, std::size_t>(ms.edges, slot);
  };
  for (const CutInfo& ci : cuts) {
    if (!ci.demote) continue;
    // A swap's displaced edge stays as a non-tree record; its four
    // entries were all removed, so its endpoints take the cut fixes.
    const auto [es, s] = slot_of(ci.parent, ci.child);
    const Appearance au = cut_fix.at({ci.comp, es.u[s]});
    const Appearance av = cut_fix.at({ci.comp, es.v[s]});
    es.tree[s] = 0;
    es.comp[s] = au.comp;
    es.iu1[s] = au.idx;
    es.iv1[s] = av.idx;
    es.iu2[s] = es.iv2[s] = etour::kNoIndex;
    es.ver[s] = written_version(au, es.u[s], av, es.v[s]);
  }
  for (const LinkRec& lr : links) {
    // Promoted replacement: the join plan owns its 4 new entries.
    const auto [es, s] = slot_of(lr.c.u, lr.c.v);
    const etour::MergeNewIndexes ni = plan.edge_indexes(lr.link_id);
    const Word label = final_label[base_of(lr.comp) + lr.c.fu];
    es.tree[s] = 1;
    es.comp[s] = label;
    es.iu1[s] = ni.x_enter;
    es.iu2[s] = ni.x_exit;
    es.iv1[s] = ni.y_enter;
    es.iv2[s] = ni.y_exit;
    es.ver[s] = written_version({label, ni.x_enter}, es.u[s],
                                {label, ni.x_exit}, es.u[s]);
  }
  // Deleted cut records vanish, merge edges become tree records at their
  // coordinators, and the directory applies the staged writes.
  for (const CutInfo& ci : cuts) {
    if (ci.demote) continue;
    const BatchOp& op = ops[ci.op];
    machines_[op.coord].erase_edge(op.ekey, cluster_->memory(op.coord));
  }
  for (const MergeApp& ma : mapply) {
    const BatchOp& op = ops[ma.op];
    const etour::MergeNewIndexes ni = plan.edge_indexes(ma.link_id);
    const EdgeRec rec =
        make_tree_record(op.x, op.y, op.w, final_label[base_of(op.cx)], ni);
    machines_[op.coord].create_edge(
        op.ekey, rec, cluster_->memory(op.coord),
        written_version({rec.comp, rec.iu1}, rec.u, {rec.comp, rec.iu2},
                        rec.u));
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
  // Reject malformed updates before any state changes: an out-of-range
  // endpoint would alias another edge's key (u * n + v), and a self-loop
  // has no place in a forest.
  for (const graph::Update& up : batch) {
    graph::require_edge_endpoints(up.u, up.v, config_.n, "DynamicForest");
  }
  cluster_->begin_update();
  journal_begin();
  // Compact before any stage when the batch could carry the log past
  // its bound, or when a fault cut the last compaction short.
  if (compaction_interrupted_ ||
      (!pending_.empty() &&
       pending_.words() + kLogWordsPerUpdate * batch.size() > log_bound_)) {
    compact_log();
  }
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
  batch_stats_.log_words_peak =
      std::max<std::uint64_t>(batch_stats_.log_words_peak, pending_.words());
  journal_commit();
  cluster_->end_update();
} catch (...) {
  journal_rollback();
  throw;
}

void DynamicForest::insert(VertexId x, VertexId y, Weight w) {
  const graph::Update up{graph::UpdateKind::kInsert, x, y, w};
  apply_batch(std::span<const graph::Update>(&up, 1));
}

void DynamicForest::erase(VertexId x, VertexId y) {
  const graph::Update up{graph::UpdateKind::kDelete, x, y};
  apply_batch(std::span<const graph::Update>(&up, 1));
}

// ---------------------------------------------------------------------------
// Driver-side introspection
// ---------------------------------------------------------------------------

std::vector<VertexId> DynamicForest::component_snapshot() const {
  // Vertices are partitioned across machines, so the per-machine fills
  // write disjoint elements of `members` and run on the installed
  // executor.
  std::vector<std::pair<Word, VertexId>> members(config_.n);
  const std::size_t mu = machines_.size();
  exec().run(mu, [&](std::size_t m) {
    for (std::size_t j = 0; j < machines_[m].vertices.size(); ++j) {
      const auto v = static_cast<VertexId>(j * mu + m);
      members[static_cast<std::size_t>(v)] = {current_vertex(v).comp, v};
    }
  });
  // Canonicalize to the smallest member vertex id: sorted by (comp, v),
  // each component's run starts at it.
  std::sort(members.begin(), members.end());
  std::vector<VertexId> out(config_.n);
  VertexId smallest = 0;
  for (std::size_t j = 0; j < members.size(); ++j) {
    if (j == 0 || members[j].first != members[j - 1].first) {
      smallest = members[j].second;
    }
    out[static_cast<std::size_t>(members[j].second)] = smallest;
  }
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
  const std::size_t mu = machines_.size();
  // Phase 1 (pooled, per machine): every vertex's current record and
  // component, and every tree record's current component, key and
  // indexes.  Every record's endpoints must name vertices first: the
  // tour fill below marks an empty entry kNoVertex, and the later
  // passes index per-vertex arrays by endpoint.
  struct TreeRec {
    Word comp;
    EdgeKey key;
    etour::EdgeIndexes idx;
  };
  std::vector<VertexRec> vrecs(config_.n);
  std::vector<std::pair<Word, VertexId>> members(config_.n);  // (comp, v)
  std::vector<std::vector<TreeRec>> parts(mu);
  std::vector<char> bad_endpoint(mu, 0);
  exec().run(mu, [&](std::size_t m) {
    const MachineState& ms = machines_[m];
    for (std::size_t j = 0; j < ms.vertices.size(); ++j) {
      const std::size_t v = j * mu + m;
      vrecs[v] = current_vertex(static_cast<VertexId>(v));
      members[v] = {vrecs[v].comp, static_cast<VertexId>(v)};
    }
    for (std::size_t i = 0; i < ms.edges.size(); ++i) {
      if (!is_vertex(ms.edges.u[i]) || !is_vertex(ms.edges.v[i])) {
        bad_endpoint[m] = 1;
        return;
      }
    }
    for (std::size_t i = 0; i < ms.edges.size(); ++i) {
      if (ms.edges.tree[i] == 0) continue;
      const EdgeRec rec = current_edge(static_cast<MachineId>(m), i);
      parts[m].push_back({rec.comp, EdgeKey(rec.u, rec.v),
                          {rec.iu1, rec.iu2, rec.iv1, rec.iv2}});
    }
  });
  for (const char bad : bad_endpoint) {
    if (bad != 0) return fail("edge record endpoint outside [0, n)");
  }
  // Merged in machine-then-slot order and sorted by (comp, key); a
  // repeated (comp, key) keeps its last record.
  std::vector<TreeRec> tree;
  for (const std::vector<TreeRec>& p : parts) {
    tree.insert(tree.end(), p.begin(), p.end());
  }
  parts.clear();
  auto key_less = [](const TreeRec& a, const TreeRec& b) {
    return std::tie(a.comp, a.key) < std::tie(b.comp, b.key);
  };
  std::stable_sort(tree.begin(), tree.end(), key_less);
  auto same_key = [](const TreeRec& a, const TreeRec& b) {
    return std::tie(a.comp, a.key) == std::tie(b.comp, b.key);
  };
  tree.erase(tree.begin(),
             std::unique(tree.rbegin(), tree.rend(), same_key).base());

  // The components: sorted by (comp, v), the vertices form one run per
  // component in component order, each with a tour slice of its
  // E-length in one flat array (kNoVertex: no entry yet).
  std::sort(members.begin(), members.end());
  struct Comp {
    Word id = 0;
    std::size_t begin = 0, end = 0;  // its run of `members`
    Word elen = 0;
    std::size_t tour = 0;  // its slice's offset in `tours`
  };
  std::vector<Comp> comps;
  std::size_t tours_len = 0;
  for (std::size_t b = 0, e = 0; b < members.size(); b = e) {
    while (e < members.size() && members[e].first == members[b].first) ++e;
    const Word elen = etour::elength(static_cast<Word>(e - b));
    comps.push_back({members[b].first, b, e, elen, tours_len});
    tours_len += static_cast<std::size_t>(elen);
  }
  std::vector<VertexId> tours(tours_len, dmpc::kNoVertex);

  // Phase 2 (pooled, per component): each fills and walks its own slice.
  // Failures surface in component order.
  std::vector<std::optional<std::string>> comp_err(comps.size());
  exec().run(comps.size(), [&](std::size_t c) {
    const Comp& cc = comps[c];
    auto err = [&](std::string msg) { comp_err[c] = std::move(msg); };
    const auto& dir = machines_[dir_machine(cc.id)].comp_sizes;
    const auto dit = dir.find(cc.id);
    if (dit == dir.end()) return err("missing directory entry");
    if (dit->second != static_cast<Word>(cc.end - cc.begin)) {
      return err("directory size mismatch for component " +
                 std::to_string(cc.id));
    }
    const auto [first, last] = std::equal_range(
        tree.begin(), tree.end(), TreeRec{cc.id, EdgeKey(0, 0), {}},
        [](const TreeRec& a, const TreeRec& b) { return a.comp < b.comp; });
    if (cc.end - cc.begin == 1) {
      if (first != last) return err("singleton with tree edges");
      const VertexId v = members[cc.begin].second;
      if (vrecs[static_cast<std::size_t>(v)].cached_idx != etour::kNoIndex) {
        return err("singleton with a cached tour index");
      }
      return;
    }
    if (first == last) return err("component without tree edges");
    const Word elen = cc.elen;
    VertexId* seq = tours.data() + cc.tour;
    for (auto it = first; it != last; ++it) {
      for (auto [w, i] : {std::pair{it->key.u, it->idx.u1},
                          std::pair{it->key.u, it->idx.u2},
                          std::pair{it->key.v, it->idx.v1},
                          std::pair{it->key.v, it->idx.v2}}) {
        if (i < 1 || i > elen) return err("tour index out of range");
        if (seq[i - 1] != dmpc::kNoVertex) return err("duplicate tour index");
        seq[i - 1] = w;
      }
    }
    if (4 * (last - first) != elen) {
      return err("tour incomplete for component " + std::to_string(cc.id));
    }
    // Closed-walk property.
    if (seq[0] != seq[elen - 1]) return err("tour not closed");
    for (Word k = 1; 2 * k < elen; ++k) {
      if (seq[2 * k - 1] != seq[2 * k]) return err("tour walk broken");
    }
    for (Word k = 0; 2 * k + 1 < elen; ++k) {
      const TreeRec walked{cc.id, EdgeKey(seq[2 * k], seq[2 * k + 1]), {}};
      if (!std::binary_search(first, last, walked, key_less)) {
        return err("tour traverses a non-tree edge");
      }
    }
    // Every member's cached index is a genuine appearance; one that is
    // not either is missing from the tour or has a stale index.
    for (std::size_t j = cc.begin; j < cc.end; ++j) {
      const VertexId v = members[j].second;
      const Word ci = vrecs[static_cast<std::size_t>(v)].cached_idx;
      if (ci >= 1 && ci <= elen && seq[ci - 1] == v) continue;
      if (std::find(seq, seq + elen, v) == seq + elen) {
        return err("vertex " + std::to_string(v) + " missing from tour");
      }
      return err("stale cached index for vertex " + std::to_string(v));
    }
  });
  for (const std::optional<std::string>& e : comp_err) {
    if (e.has_value()) return fail(*e);
  }

  // Phase 3 (pooled, per machine): non-tree records' component
  // consistency and cached appearances (a stale cached index would
  // silently corrupt a future split's crossing detection, so this is the
  // load-bearing invariant).  First failure in machine-then-slot order.
  auto appears = [&](VertexId v, Word idx) {
    const Word comp = vrecs[static_cast<std::size_t>(v)].comp;
    const Comp& cc = *std::lower_bound(
        comps.begin(), comps.end(), comp,
        [](const Comp& a, Word id) { return a.id < id; });
    return idx >= 1 && idx <= cc.elen &&
           tours[cc.tour + static_cast<std::size_t>(idx) - 1] == v;
  };
  std::vector<std::optional<std::string>> nt_err(mu);
  exec().run(mu, [&](std::size_t m) {
    const EdgeShard& es = machines_[m].edges;
    for (std::size_t i = 0; i < es.size(); ++i) {
      if (es.tree[i] != 0) continue;
      const EdgeRec rec = current_edge(static_cast<MachineId>(m), i);
      if (vrecs[static_cast<std::size_t>(rec.u)].comp != rec.comp ||
          vrecs[static_cast<std::size_t>(rec.v)].comp != rec.comp) {
        nt_err[m] = "non-tree record with inconsistent component";
        return;
      }
      if (!appears(rec.u, rec.iu1) || !appears(rec.v, rec.iv1)) {
        nt_err[m] = "stale cached index on non-tree edge (" +
                    std::to_string(rec.u) + "," + std::to_string(rec.v) + ")";
        return;
      }
    }
  });
  for (const std::optional<std::string>& e : nt_err) {
    if (e.has_value()) return fail(*e);
  }
  return true;
}

}  // namespace core
