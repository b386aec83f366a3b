// Fully-dynamic connected components and (1+eps)-approximate MST in the
// DMPC model (paper, Section 5 and 5.1).
//
// State distribution (vertex/edge partitioned, all O(sqrt N) per machine):
//   * every graph edge (tree or non-tree) has one record on machine
//     hash(edge) % mu holding: component id, tree flag, weight, and tour
//     indexes — for tree edges the 4 appearances the edge owns, for
//     non-tree edges one *cached* tour index per endpoint (any appearance
//     of that endpoint; a subtree occupies a contiguous index interval, so
//     any single index decides subtree membership — the paper's trick for
//     avoiding O(N) neighbour refresh traffic);
//   * every vertex has a record on machine (v % mu) holding its component
//     id and one cached tour index;
//   * every component has a directory record on machine (comp % mu)
//     holding its size (hence ELength = 4(size-1));
//   * machine 0 is the ingress: updates enter there and it orchestrates
//     the O(1)-round protocols (it is the paper's "messages from x and y
//     to all other machines" sender).
//
// Per-update protocol shapes (all O(1) rounds, O(sqrt N) active machines,
// O(sqrt N) words per round — Table 1 rows "Connected comps" and
// "(1+eps)-MST"):
//   insert(x,y), different components:    prepare (4 rounds: broadcast,
//     f/l+component replies, directory query, reply) then one merge
//     broadcast round applying reroot+splice transforms locally on every
//     machine, then one record/directory round.
//   insert(x,y), same component (MST):    prepare, path-max search
//     (broadcast + proposals), then a combined swap broadcast performing
//     split+merge in one local pass if the cycle rule fires.
//   delete tree edge:                     prepare, split broadcast,
//     crossing-candidate gather, optional replacement merge (its own
//     prepare + broadcast).
//
// Batched updates (apply_batch): a whole batch — conflicting updates
// included — shares a constant number of O(1)-round protocol stages
// instead of running the per-update protocol once each, which is the
// paper's observation that Theta(sqrt N) updates fit in the same rounds.
// Each update's edge machine acts as its coordinator, so the per-machine
// round traffic stays O(sqrt N).  A stage runs all of its tree deletions
// as one k-way Euler-tour split per component, reconnects the fragments
// with one parallel replacement cascade, and commits every merge and
// replacement link as one k-way join per final tree.  MST cycle-rule
// inserts ride the same stage: their path-max searches share two extra
// rounds, and a committing swap becomes one more (demoting) cut of the
// k-way split.  See apply_batch below.
//
// Per-machine round work (shard scans, local transform application) is
// submitted through Cluster::for_each_machine and so runs in parallel
// under a ThreadPoolExecutor, with identical results to the serial
// executor (per-sender staging shards are merged deterministically at
// the finish_round barrier).  Edge records are stored per machine in a
// structure-of-arrays shard (EdgeShard) so those scans stream dense
// columns instead of hash-map nodes, and the driver-side serial folds —
// per-update scan reductions, preprocessing's tour builds, validate()'s
// full-tour walk, the snapshot helpers — also run on the installed
// executor with deterministic merge order (byte-identical results under
// SerialExecutor and ThreadPoolExecutor).
//
// Preprocessing ("starts from an arbitrary graph") computes a spanning
// forest — bucketed by (1+eps) weight classes for the MST variant — builds
// each tree's E-tour, distributes the records, and charges the O(log n)
// rounds / O(N) words of the contraction algorithm the paper builds on
// ([3] + the Section 5 parallel merge; see DESIGN.md on charged rounds).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dmpc/cluster.hpp"
#include "etour/transforms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/update_stream.hpp"

namespace core {

using dmpc::MachineId;
using dmpc::VertexId;
using dmpc::Word;
using graph::EdgeKey;
using graph::Weight;

struct DynForestConfig {
  std::size_t n = 0;         ///< number of vertices
  std::size_t m_cap = 0;     ///< maximum number of edges over the run
  bool weighted = false;     ///< MST variant if true
  double eps = 0.1;          ///< MST approximation slack (bucketing)
  /// Strong exception guarantee for updates: insert/erase/apply_batch
  /// keep a per-machine undo journal (pre-images of every record,
  /// vertex, and directory entry they touch, appended as they mutate)
  /// and ANY mid-protocol throw — comm/memory cap trips, injected
  /// faults — rolls the forest, the round buffer, and the metrics
  /// stream back to the pre-update state before rethrowing.  The
  /// journal is mutation-proportional (nothing is copied eagerly), so
  /// its fault-free cost rides the update path at a few percent; off
  /// restores the pre-journal behavior where a throw leaves the forest
  /// half-transformed (benches use that to measure the overhead).
  bool atomic_updates = true;
};

/// What a read-only serving query asks of the forest.
enum class QueryKind : std::uint8_t {
  kConnected,   ///< are u and v in the same component?
  kPathWeight,  ///< total weight of the tree path u..v (0 if disconnected)
};

/// One read-only query.  Answered purely from the distributed directory
/// and edge records — no split/join/cascade participation, no state
/// writes — so whole batches share a constant number of rounds
/// (answer_queries).
struct ReadQuery {
  QueryKind kind = QueryKind::kConnected;
  VertexId u = 0;
  VertexId v = 0;
};

/// Answer to one ReadQuery.  path_weight is meaningful only for
/// kPathWeight queries on connected endpoints; it is 0 otherwise (and 0
/// for u == v, whose path is empty).
struct ReadAnswer {
  bool connected = false;
  Weight path_weight = 0;
};

class DynamicForest {
 public:
  explicit DynamicForest(const DynForestConfig& config);

  /// Loads an initial graph, builds the spanning forest (bucketed for the
  /// MST variant) and its E-tours, distributes all records, and charges
  /// the O(log n)-round preprocessing cost.
  void preprocess(const graph::WeightedEdgeList& edges);
  void preprocess(const graph::EdgeList& edges);

  /// Fully-dynamic updates; each runs the O(1)-round protocol and is
  /// wrapped in begin_update()/end_update() for metrics.
  void insert(VertexId x, VertexId y, Weight w = 1);
  void erase(VertexId x, VertexId y);

  /// Applies a whole batch of updates, wrapped in ONE
  /// begin_update()/end_update() group.  The whole batch — conflicting
  /// updates included — runs through a constant number of constant-round
  /// stages: per-edge update chains are net-op compressed (unweighted),
  /// each stage admits every remaining update it can order safely,
  /// executes ALL its tree deletions as one k-way tour split per
  /// component, runs ONE parallel replacement cascade over the resulting
  /// fragments, and commits all merges plus replacement links as one
  /// k-way join per final tree.  MST cycle-rule inserts join the same
  /// stages: their path-max searches share two extra rounds (proposals,
  /// swap cuts), and a committing swap is one more cut of the k-way split
  /// whose displaced edge is demoted to a non-tree record (one swap per
  /// component per stage; same-component inserts behind it defer to the
  /// next stage).  There is no serial fallback.  Rolls back atomically
  /// on a throw (atomic_updates).  The final state is identical to applying
  /// the batch one update at a time with insert(x, y, w) / erase(x, y):
  /// Update::w is stored verbatim, so unweighted callers should carry
  /// the serial default of 1 (harness::Driver normalizes its batches
  /// this way when configured unweighted).
  void apply_batch(std::span<const graph::Update> batch);

  /// Kept for bench/e2e, which still passes the next batch: forwards to
  /// apply_batch(batch) and ignores the second argument.
  void apply_batch(std::span<const graph::Update> batch,
                   std::span<const graph::Update> /*unused*/) {
    apply_batch(batch);
  }

  /// Cumulative scheduling statistics over all apply_batch calls
  /// (stages, out-of-order executions, k-way and cascade work).
  [[nodiscard]] const dmpc::BatchScheduleStats& batch_stats() const {
    return batch_stats_;
  }

  /// Connectivity query: a one-element answer_queries batch (2 rounds
  /// through the ingress, accounted as a query batch, not an update).
  bool connected(VertexId u, VertexId v);

  /// Answers a batch of read-only queries in O(1) rounds, sharing the
  /// round structure across the whole batch: one ingress scatter of the
  /// endpoints to their home machines and one component-id reply round
  /// for connectivity; path-weight queries add a coordinator-scattered
  /// endpoint broadcast, a shard-scan reply round, an interval
  /// broadcast, a local path-sum reply round (the path-max ancestor-XOR
  /// criterion with + instead of max), and a coordinator-to-ingress
  /// answer round.  The batch is internally chunked so no machine
  /// exceeds its S-word round cap; every chunk is bracketed by
  /// begin_query_batch()/end_query_batch(), so query rounds settle into
  /// Metrics::query_aggregate() and NEVER touch the update accounting
  /// (worst_rounds stays <= 6 regardless of batch size).  Reads only:
  /// no machine state is written.
  std::vector<ReadAnswer> answer_queries(std::span<const ReadQuery> queries);

  [[nodiscard]] std::size_t num_machines() const;
  [[nodiscard]] dmpc::Cluster& cluster() { return *cluster_; }
  [[nodiscard]] const dmpc::Cluster& cluster() const { return *cluster_; }

  // --- driver-side introspection for tests and oracles (does not touch
  // --- the cluster's accounting) -----------------------------------------

  /// Component label of every vertex, canonicalized to the smallest
  /// vertex id per component.
  [[nodiscard]] std::vector<VertexId> component_snapshot() const;

  /// Total weight of the maintained spanning forest (MST variant).
  [[nodiscard]] Weight forest_weight() const;

  /// All maintained tree edges.
  [[nodiscard]] std::vector<std::pair<VertexId, VertexId>> tree_edges() const;

  /// Structural validation: rebuilds every component's tour from the
  /// distributed records and checks the E-tour invariants, the cached
  /// vertex indexes, and the directory sizes.  Returns false + reason on
  /// violation.
  [[nodiscard]] bool validate(std::string* why = nullptr) const;

 private:
  /// S = kMemorySlack * sqrt(N) + 256 words per machine.
  static constexpr double kMemorySlack = 32;

  struct EdgeRec {
    VertexId u = dmpc::kNoVertex;  // canonical u < v
    VertexId v = dmpc::kNoVertex;
    Word comp = -1;
    bool tree = false;
    Weight w = 1;
    // Tree edges: the 4 tour indexes the edge owns (two per endpoint).
    // Non-tree edges: iu1 / iv1 cache one tour index per endpoint.
    Word iu1 = 0, iu2 = 0, iv1 = 0, iv2 = 0;
    // Crossing bookkeeping during a split: which endpoints landed in the
    // split-off subtree.
    bool crossing = false;
    bool u_in_subtree = false;
    bool v_in_subtree = false;
  };

  struct VertexRec {
    Word comp = -1;
    Word cached_idx = etour::kNoIndex;
  };

  /// Structure-of-arrays storage for one machine's edge records.  The
  /// replacement-search and path-max scans walk the whole shard testing a
  /// couple of fields per record; dense per-field columns let those scans
  /// touch only the bytes they read (and vectorize) instead of striding
  /// over hash-map nodes.  Slots are dense [0, size()); erase swap-removes
  /// the last slot in, so slot order depends on the shard's full mutation
  /// history — callers may rely on it only being identical across
  /// executors (the mutation sequence is), never on any particular order.
  class EdgeShard {
   public:
    static constexpr std::ptrdiff_t kNpos = -1;

    [[nodiscard]] std::size_t size() const { return keys_.size(); }

    /// Pre-size the key index and every field column (preprocess knows
    /// the machine's record count up front, so the first post-preprocess
    /// batch doesn't pay rehash/regrow mid-round).
    void reserve(std::size_t n) {
      index_.reserve(n);
      keys_.reserve(n);
      u.reserve(n);
      v.reserve(n);
      comp.reserve(n);
      w.reserve(n);
      iu1.reserve(n);
      iu2.reserve(n);
      iv1.reserve(n);
      iv2.reserve(n);
      tree.reserve(n);
      crossing.reserve(n);
      u_in_subtree.reserve(n);
      v_in_subtree.reserve(n);
    }

    [[nodiscard]] std::ptrdiff_t find(std::uint64_t key) const {
      const auto it = index_.find(key);
      return it == index_.end() ? kNpos
                                : static_cast<std::ptrdiff_t>(it->second);
    }
    [[nodiscard]] bool contains(std::uint64_t key) const {
      return index_.find(key) != index_.end();
    }
    [[nodiscard]] std::uint64_t key_at(std::size_t s) const { return keys_[s]; }

    [[nodiscard]] EdgeRec get(std::size_t s) const {
      EdgeRec r;
      r.u = u[s];
      r.v = v[s];
      r.comp = comp[s];
      r.tree = tree[s] != 0;
      r.w = w[s];
      r.iu1 = iu1[s];
      r.iu2 = iu2[s];
      r.iv1 = iv1[s];
      r.iv2 = iv2[s];
      r.crossing = crossing[s] != 0;
      r.u_in_subtree = u_in_subtree[s] != 0;
      r.v_in_subtree = v_in_subtree[s] != 0;
      return r;
    }

    void set(std::size_t s, const EdgeRec& r) {
      u[s] = r.u;
      v[s] = r.v;
      comp[s] = r.comp;
      tree[s] = r.tree ? 1 : 0;
      w[s] = r.w;
      iu1[s] = r.iu1;
      iu2[s] = r.iu2;
      iv1[s] = r.iv1;
      iv2[s] = r.iv2;
      crossing[s] = r.crossing ? 1 : 0;
      u_in_subtree[s] = r.u_in_subtree ? 1 : 0;
      v_in_subtree[s] = r.v_in_subtree ? 1 : 0;
    }

    /// Insert-or-overwrite under `key`.
    void put(std::uint64_t key, const EdgeRec& r) {
      const auto it = index_.find(key);
      if (it != index_.end()) {
        set(it->second, r);
        return;
      }
      index_.emplace(key, static_cast<std::uint32_t>(keys_.size()));
      keys_.push_back(key);
      u.push_back(r.u);
      v.push_back(r.v);
      comp.push_back(r.comp);
      tree.push_back(r.tree ? 1 : 0);
      w.push_back(r.w);
      iu1.push_back(r.iu1);
      iu2.push_back(r.iu2);
      iv1.push_back(r.iv1);
      iv2.push_back(r.iv2);
      crossing.push_back(r.crossing ? 1 : 0);
      u_in_subtree.push_back(r.u_in_subtree ? 1 : 0);
      v_in_subtree.push_back(r.v_in_subtree ? 1 : 0);
    }

    /// Swap-remove; absent keys are a no-op.
    void erase(std::uint64_t key) {
      const auto it = index_.find(key);
      if (it == index_.end()) return;
      const std::size_t s = it->second;
      index_.erase(it);
      const std::size_t last = keys_.size() - 1;
      if (s != last) {
        keys_[s] = keys_[last];
        u[s] = u[last];
        v[s] = v[last];
        comp[s] = comp[last];
        tree[s] = tree[last];
        w[s] = w[last];
        iu1[s] = iu1[last];
        iu2[s] = iu2[last];
        iv1[s] = iv1[last];
        iv2[s] = iv2[last];
        crossing[s] = crossing[last];
        u_in_subtree[s] = u_in_subtree[last];
        v_in_subtree[s] = v_in_subtree[last];
        index_[keys_[s]] = static_cast<std::uint32_t>(s);
      }
      keys_.pop_back();
      u.pop_back();
      v.pop_back();
      comp.pop_back();
      tree.pop_back();
      w.pop_back();
      iu1.pop_back();
      iu2.pop_back();
      iv1.pop_back();
      iv2.pop_back();
      crossing.pop_back();
      u_in_subtree.pop_back();
      v_in_subtree.pop_back();
    }

    // The columns, slot-indexed.  Mutators above keep them parallel;
    // transform loops (apply_merge_local / apply_split_local) write the
    // index columns in place.
    std::vector<VertexId> u, v;
    std::vector<Word> comp;
    std::vector<Weight> w;
    std::vector<Word> iu1, iu2, iv1, iv2;
    std::vector<std::uint8_t> tree, crossing, u_in_subtree, v_in_subtree;

   private:
    std::vector<std::uint64_t> keys_;
    std::unordered_map<std::uint64_t, std::uint32_t> index_;
  };

  /// One machine's undo journal: pre-images appended right before each
  /// mutation, replayed in REVERSE on rollback (so a record touched at
  /// several protocol sites settles back to its earliest pre-image).
  /// Entries are logged without dedup — the log length is bounded by the
  /// mutation work the protocol performs anyway, and reverse replay
  /// makes duplicates harmless.  Arenas keep their capacity across
  /// batches, so in steady state arming and logging never allocate.
  struct MachineJournal {
    struct EdgeEntry {
      std::uint64_t key = 0;
      bool existed = false;  ///< false: the mutation created it — undo erases
      EdgeRec rec;           ///< pre-image when existed
    };
    struct VertexEntry {
      VertexId v = dmpc::kNoVertex;
      VertexRec rec;
    };
    struct DirEntry {
      Word comp = -1;
      bool existed = false;
      Word size = 0;
    };
    std::vector<EdgeEntry> edges;
    std::vector<VertexEntry> vertices;
    std::vector<DirEntry> dirs;

    void clear() {
      edges.clear();
      vertices.clear();
      dirs.clear();
    }
  };

  struct MachineState {
    EdgeShard edges;
    std::unordered_map<VertexId, VertexRec> vertices;
    std::unordered_map<Word, Word> comp_sizes;  // directory shard
    // Undo journal (see MachineJournal).  Written only by this machine's
    // round task or by the orchestrator between barriers — exactly the
    // executor contract the rest of the machine state lives under — so
    // journaling is race-free without locks.
    bool journal_armed = false;
    MachineJournal journal;

    /// Logs edge `key`'s pre-image (or its absence) before a put/erase.
    void jlog_edge(std::uint64_t key) {
      if (!journal_armed) return;
      const std::ptrdiff_t s = edges.find(key);
      if (s == EdgeShard::kNpos) {
        journal.edges.push_back({key, false, EdgeRec{}});
      } else {
        journal.edges.push_back(
            {key, true, edges.get(static_cast<std::size_t>(s))});
      }
    }
    /// Logs a known-live slot's pre-image before in-place column writes
    /// (the transform loops' path: no hash lookup on the hot path).
    void jlog_edge_slot(std::size_t s) {
      if (!journal_armed) return;
      journal.edges.push_back({edges.key_at(s), true, edges.get(s)});
    }
    /// Logs vertex `v`'s pre-image before a record write.  Vertex
    /// records exist for the lifetime of the forest, so there is no
    /// created-by-the-mutation case.
    void jlog_vertex(VertexId v, const VertexRec& rec) {
      if (!journal_armed) return;
      journal.vertices.push_back({v, rec});
    }
    /// Logs directory entry `comp`'s pre-image before a write or erase.
    void jlog_dir(Word comp) {
      if (!journal_armed) return;
      const auto it = comp_sizes.find(comp);
      if (it == comp_sizes.end()) {
        journal.dirs.push_back({comp, false, 0});
      } else {
        journal.dirs.push_back({comp, true, it->second});
      }
    }
  };

  // Result of the prepare phase for an update touching (x, y).
  struct Prep {
    Word cx = -1, cy = -1;
    Word fx = 0, lx = 0, fy = 0, ly = 0;
    Word size_cx = 1, size_cy = 1;
    bool edge_exists = false;
    EdgeRec edge;  // valid if edge_exists
  };

  // One machine's contribution to a prepare: its local f/l extremes for
  // the two endpoints, the endpoints' component ids if it hosts them,
  // and the (x,y) record if it owns it.  Computed per machine inside
  // for_each_machine (concurrently under a thread-pool executor) and
  // folded into a Prep at the barrier.
  struct EndpointScan {
    bool has_x = false, has_y = false;
    Word fx = 0, lx = 0, fy = 0, ly = 0;
    bool hosts_x = false, hosts_y = false;
    Word cx = -1, cy = -1;
    bool edge_here = false;
    EdgeRec edge;
  };

  // Parameters of a merge broadcast: link (x, y) where y's tree becomes
  // the spliced subtree.
  struct MergeBcast {
    Word cx, cy;
    VertexId x, y;
    bool reroot;       // y was not the root of its tree
    Word reroot_l_y;   // l(y) before rerooting
    Word elen_ty;      // ELength of y's tree (= l(y) after reroot)
    Word f_x;          // f(x) (0 when x is a singleton)
    Word cached_x;     // new cached index for x's vertex record
    Word cached_y;     // ... and y's
    bool resolve_crossing;  // clear crossing marks into comp cx
  };

  // A merge broadcast plus the new tree edge's four tour indexes.
  struct MergePlan {
    MergeBcast mb{};
    etour::MergeNewIndexes ni{};
  };

  // Parameters of a split broadcast: cut tree edge (parent, child).
  struct SplitBcast {
    Word comp;       // the component being split
    Word new_comp;   // id assigned to the subtree side
    VertexId parent, child;
    Word f_c, l_c;   // the subtree interval
    Word cached_parent, cached_child;  // refreshed cached indexes
  };

  // A split broadcast plus the two side sizes it implies (the directory
  // deltas, and the elengths a replacement merge needs).
  struct SplitPlan {
    SplitBcast sb{};
    Word rest_size = 0;
    Word sub_size = 0;
  };

  // --- batched updates -----------------------------------------------------

  enum class BatchOpKind : Word {
    kNoop = 0,           // duplicate insert / absent delete
    kMerge = 1,          // insert linking two components
    kNontreeInsert = 2,  // same-component insert (unweighted)
    kNontreeDelete = 3,  // delete of a non-tree record
    kTreeDelete = 4,     // batched split + shared replacement search
    kPathMax = 5,        // MST cycle-rule insert: shared path-max search
                         // (read claim), swap commits escalate to writes
  };

  // One update of a stage, pinned to its coordinator (= its edge
  // machine), with the conflict-graph claims it makes at plan time:
  // components it rewrites (merge/split transforms shift their tour
  // indexes) vs. components it only reads (non-tree record ops leave the
  // tour untouched, so they may share a component with each other but
  // not with a writer).
  struct BatchOp {
    BatchOpKind kind = BatchOpKind::kNoop;
    std::size_t pos = 0;  // index in the batch (reorder accounting)
    VertexId x = dmpc::kNoVertex, y = dmpc::kNoVertex;
    Weight w = 1;
    MachineId coord = dmpc::kNoMachine;
    Word cx = -1, cy = -1;
    Word new_comp = -1;  // tree deletes, swaps: id for the split-off side
    std::uint64_t ekey = 0;
    Word writes[2] = {0, 0};
    std::size_t num_writes = 0;
    Word reads[1] = {0};
    std::size_t num_reads = 0;
  };

  [[nodiscard]] std::uint64_t edge_key(VertexId u, VertexId v) const;
  [[nodiscard]] MachineId edge_machine(VertexId u, VertexId v) const;
  [[nodiscard]] MachineId vertex_machine(VertexId v) const {
    return static_cast<MachineId>(static_cast<std::uint64_t>(v) %
                                  machines_.size());
  }
  [[nodiscard]] MachineId dir_machine(Word comp) const {
    return static_cast<MachineId>(static_cast<std::uint64_t>(comp) %
                                  machines_.size());
  }

  /// Machine m's local prepare contribution for endpoints (x, y).
  [[nodiscard]] EndpointScan scan_endpoints(MachineId m, VertexId x,
                                            VertexId y) const;
  /// The scan serialized as the machine's kPrepReply payload (empty when
  /// the machine has nothing to report).
  [[nodiscard]] static std::vector<Word> scan_reply(const EndpointScan& s);
  /// Ingress-side fold of all machines' scans into one Prep.
  [[nodiscard]] static Prep fold_scans(const std::vector<EndpointScan>& scans);

  /// Rounds 1-4 of every update: broadcast (x,y), gather f/l + component
  /// replies, query the directory, gather sizes.
  Prep prepare(VertexId x, VertexId y);

  /// Builds the merge broadcast (and the linking edge's new indexes) for
  /// linking (x, y) given a completed prepare.
  [[nodiscard]] static MergePlan make_merge(const Prep& p, VertexId x,
                                            VertexId y,
                                            bool resolve_crossing);
  /// The new tree-edge record created by a merge, oriented to the
  /// canonical (u < v) key.
  [[nodiscard]] static EdgeRec make_tree_record(
      VertexId x, VertexId y, Weight w, Word comp,
      const etour::MergeNewIndexes& ni);
  /// A fresh non-tree record for (x, y) with cached indexes taken from
  /// the prepare results, oriented to the canonical key.
  [[nodiscard]] static EdgeRec make_nontree_record(const Prep& p, VertexId x,
                                                   VertexId y, Weight w);
  /// The merge broadcast's wire payload (shared by the serial and the
  /// batched protocol so both account identical traffic).
  [[nodiscard]] static std::vector<Word> merge_payload(const MergeBcast& mb);

  /// One broadcast round applying the merge transform on every machine.
  void run_merge(const MergeBcast& mb);
  /// One broadcast round applying the split transform on every machine.
  void run_split(const SplitBcast& sb);

  /// Applies the merge/split index transforms to one machine's state.
  /// (The MST cycle-rule swap composes these two: the displaced edge is
  /// demoted to a crossing non-tree record and the replacement search
  /// re-links the parts — see delete_tree_edge.)
  static void apply_merge_local(MachineState& ms, const MergeBcast& mb);
  void apply_split_local(MachineState& ms, const SplitBcast& sb);

  void insert_nontree_record(const Prep& p, VertexId x, VertexId y, Weight w);
  void link_components(const Prep& p, VertexId x, VertexId y, Weight w);
  /// Cuts tree edge (x, y), searches for a replacement, re-links if one
  /// exists.  With `demote` (the MST cycle rule) the edge stays in the
  /// graph as a non-tree record and competes in the replacement search;
  /// otherwise its record is deleted.
  void delete_tree_edge(const Prep& p, VertexId x, VertexId y,
                        bool demote = false);

  /// Computes the split broadcast (and both side sizes) for cutting tree
  /// edge (x, y), given a completed prepare and the id of the split-off
  /// component.
  [[nodiscard]] static SplitPlan make_split(const Prep& p, VertexId x,
                                            VertexId y, Word new_comp);
  /// The serial MST cycle rule's demote: the cut edge stays in the graph
  /// as a crossing non-tree record (its endpoints straddle its own split,
  /// so it competes in the replacement search).
  static void demote_record(EdgeRec& rec, const SplitBcast& sb);

  /// The serial per-update protocols; insert()/erase() wrap them in the
  /// begin_update()/end_update() bracket and the undo journal.
  void insert_impl(VertexId x, VertexId y, Weight w);
  void erase_impl(VertexId x, VertexId y);

  /// Classifies one update against the current state: protocol kind,
  /// coordinator, and component read/write claims.
  [[nodiscard]] BatchOp classify_op(const graph::Update& up,
                                    std::size_t pos) const;
  /// Whether a may not run before b (or b before a): they share an edge,
  /// or one's component writes intersect the other's claims.  A
  /// cycle-rule insert's component claim is a read at plan time but may
  /// ESCALATE to a write when its swap commits, so either side's
  /// kPathMax read counts as a write here.  Within a stage the commit
  /// phase enforces the order among same-component cycle-rule inserts by
  /// committing one swap per component and deferring the inserts behind
  /// it.
  [[nodiscard]] static bool ops_conflict_ordering(const BatchOp& a,
                                                  const BatchOp& b);

  /// The heaviest local tree edge of `comp` on the tree path between the
  /// subtree intervals of x ([fx,lx]) and y ([fy,ly]) — the per-machine
  /// share of the path-max search (ancestor-XOR criterion).  Shared by
  /// the serial cycle-rule protocol and the k-way stage's path-max round,
  /// which passes one cached appearance per endpoint (fx == lx): a
  /// single index already decides subtree membership.
  /// Returns a copy: SoA slots are not stable across shard mutation.
  [[nodiscard]] std::optional<EdgeRec> path_max_local(MachineId m, Word comp,
                                                      Word fx, Word lx,
                                                      Word fy, Word ly) const;

  /// Sum of this machine's tree-edge weights on the x..y path (the
  /// path-max ancestor-XOR criterion, folded with + instead of max).
  [[nodiscard]] Weight path_weight_local(MachineId m, Word comp, Word fx,
                                         Word lx, Word fy, Word ly) const;

  /// One comm-cap-safe chunk of answer_queries; writes answers in place.
  void answer_query_chunk(std::span<const ReadQuery> queries,
                          std::span<ReadAnswer> answers);

  // --- batch-dynamic protocol ---------------------------------------------

  // One stage of the batch-dynamic protocol: every remaining update it
  // can order safely — MANY tree deletions per component, chained
  // merges, any number of cycle-rule inserts per component.
  struct StagePlan {
    std::vector<BatchOp> ops;
    std::vector<std::size_t> taken;  // indexes into `pending`
    std::uint64_t reordered = 0;
  };

  /// Plans the next stage over the still-pending batch positions: every
  /// pending op joins if it can run out of order (no ordering conflict
  /// with a rejected earlier op), its edge is unclaimed, and its
  /// components carry at most one op KIND (all-deletes, all-merges via a
  /// stage-local DSU, all-nontree ops, or all cycle-rule inserts per
  /// component).  The first pending op always joins.
  [[nodiscard]] StagePlan plan_stage(std::span<const graph::Update> batch,
                                     std::span<const std::size_t> pending,
                                     std::vector<BatchOp>& rejected) const;

  /// Executes one stage: scatter, cut/endpoint broadcasts, the shared
  /// path-max search of the cycle-rule inserts (whose committing swaps
  /// add demoting cuts), surviving-appearance scans, the parallel
  /// replacement cascade (per-(fragment,fragment) minima folded over two
  /// hops, per-component fragment Kruskal), and one global k-way
  /// split+join transform pass applied locally on every machine.
  /// Adaptive: 1 round for pure non-tree stages up to 8 with swaps or
  /// deletions needing reconnection.  Returns the batch positions of the
  /// cycle-rule inserts deferred behind a same-component swap.
  std::vector<std::size_t> run_stage_kway(std::vector<BatchOp>& ops);

  /// Memory accounting helpers.
  void charge_edge_record(MachineId m);
  void release_edge_record(MachineId m);

  // --- atomic updates (config_.atomic_updates) -----------------------------

  /// Arms every machine's undo journal and snapshots the ingress-local
  /// scalars (next_comp_id_, batch_stats_) plus each memory meter's
  /// usage.  No machine state is copied — pre-images accrue lazily as
  /// the protocol mutates (jlog_* above).
  void journal_begin();
  /// Disarms the journals after a successful update (the logs are kept
  /// as arenas for the next one).
  void journal_commit();
  /// Rolls everything back after a mid-protocol throw: replays every
  /// machine's journal in reverse, restores the meters and scalars,
  /// drops the round buffer's staged/inbox state, and aborts the
  /// in-flight metrics update.  Restores the
  /// exact pre-update record/vertex/directory CONTENT; EdgeShard slot
  /// order may differ from the pre-update order (put/erase replay uses
  /// swap-remove), which callers are already forbidden to rely on.
  void journal_rollback();

  /// The installed round executor, reachable from const introspection
  /// helpers (validate, snapshots): RoundExecutor::run only schedules the
  /// supplied tasks, it does not touch the cluster state the const-ness
  /// of those helpers protects.
  [[nodiscard]] dmpc::RoundExecutor& exec() const {
    return const_cast<dmpc::Cluster&>(*cluster_).executor();
  }

  DynForestConfig config_;
  std::unique_ptr<dmpc::Cluster> cluster_;
  std::vector<MachineState> machines_;
  Word next_comp_id_;  // ingress-local state (machine 0)
  dmpc::BatchScheduleStats batch_stats_;
  // journal_begin snapshots (valid while the journals are armed).
  bool journal_active_ = false;
  Word journal_next_comp_id_ = 0;
  dmpc::BatchScheduleStats journal_batch_stats_;
  std::vector<dmpc::WordCount> journal_mem_used_;

  static constexpr Word kEdgeRecWords = 12;
  static constexpr Word kVertexRecWords = 3;
  static constexpr Word kDirRecWords = 2;
};

}  // namespace core
