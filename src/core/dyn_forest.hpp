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
//   * every vertex has a record on machine (v % mu), at index v / mu of
//     that machine's dense vertex table, holding its component id and one
//     cached tour index;
//   * every component has a directory record on machine (comp % mu)
//     holding its size (hence ELength = 4(size-1));
//   * machine 0 is the ingress: updates and queries enter there and it
//     scatters them to their coordinator machines.
//
// Updates: one protocol.  A batch — conflicting updates included —
// shares a constant number of O(1)-round protocol stages (apply_batch),
// which is the paper's observation that Theta(sqrt N) updates fit in the
// same rounds; a single insert(x, y) / erase(x, y) is a batch of one
// (O(1) rounds, O(sqrt N) active machines, O(sqrt N) words per round —
// Table 1 rows "Connected comps" and "(1+eps)-MST").  Each update's edge
// machine acts as its coordinator, so the per-machine round traffic
// stays O(sqrt N).  A stage runs all of its tree deletions as one k-way
// Euler-tour split per component, reconnects the fragments with one
// parallel replacement cascade, and commits every merge and replacement
// link as one k-way join per final tree.  MST cycle-rule inserts ride
// the same stage: their path-max searches share two extra rounds, and a
// committing swap becomes one more (demoting) cut of the k-way split.
// A stage does not rewrite the records of the components it transforms:
// it appends its compiled stage maps to the pending log, which is kept
// across batches, and every reader resolves records through it.  A
// compaction writes every moved record once, but only when the log would
// outgrow a fixed share of S (every machine holds a copy).  See
// apply_batch below.
//
// Per-machine round work (shard scans, local transform application) is
// submitted through Cluster::for_each_machine and so runs in parallel
// under a ThreadPoolExecutor, with identical results to the serial
// executor (per-sender staging shards are merged deterministically at
// the finish_round barrier).  Edge records are stored per machine in a
// structure-of-arrays shard (EdgeShard) so those scans stream dense
// columns instead of hash-map nodes, and the driver-side serial folds —
// preprocessing's tour builds, validate()'s full-tour walk, the
// snapshot helpers — also run on the installed
// executor with deterministic merge order (byte-identical results under
// SerialExecutor and ThreadPoolExecutor).
//
// Preprocessing ("starts from an arbitrary graph") computes a spanning
// forest — bucketed by (1+eps) weight classes for the MST variant — builds
// each tree's E-tour, distributes the records, and charges the O(log n)
// rounds / O(N) words of the contraction algorithm the paper builds on
// ([3] + the Section 5 parallel merge; see DESIGN.md on charged rounds).
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dmpc/cluster.hpp"
#include "core/edge_shard.hpp"
#include "core/pending_log.hpp"
#include "core/record_index.hpp"
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
  /// keep a per-machine undo journal (the inverse of every edge-record
  /// append and erase, and the first pre-image per batch of every record
  /// and directory entry they rewrite, appended as they mutate)
  /// and ANY mid-protocol throw — comm/memory cap trips,
  /// injected faults — rolls the forest, the round buffer, and the
  /// metrics stream back to the pre-update state before rethrowing, and
  /// truncates the pending log back to its state at the batch's start.
  /// Nothing is copied eagerly and a record is copied at most once per
  /// batch; only the records a stage cuts, demotes, promotes or creates
  /// are written, and a compaction, which changes how records are stored
  /// but not what they mean, logs nothing.  So the fault-free cost is one
  /// epoch compare per written record, one copy of each, and one copy of
  /// the pending log per batch; off restores the pre-journal behavior
  /// where a throw leaves the forest half-transformed (benches use that
  /// to measure the overhead).
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

  /// Fully-dynamic updates: each is apply_batch on a one-update batch,
  /// so it runs the same O(1)-round stages, is one
  /// begin_update()/end_update() record for metrics, and throws
  /// std::invalid_argument on a malformed update.
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
  /// next stage).  Rolls back atomically on a throw (atomic_updates).
  /// Every update must name two distinct vertices below n; otherwise it
  /// throws std::invalid_argument before any round runs, state
  /// untouched.  The final state is identical to applying the batch one
  /// update at a time with insert(x, y, w) / erase(x, y): Update::w is
  /// stored verbatim, so unweighted callers should carry insert's
  /// default of 1 (harness::Driver normalizes its batches this way when
  /// configured unweighted).
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

  /// The pending log's size bound in words: a fixed share of the
  /// per-machine memory S, since every machine holds a copy of the log.
  /// BatchScheduleStats::log_words_peak stays at or below it.
  [[nodiscard]] std::size_t pending_log_bound() const { return log_bound_; }

  /// Connectivity query: a one-element answer_queries batch (2 rounds
  /// through the ingress, accounted as a query batch, not an update).
  bool connected(VertexId u, VertexId v);

  /// Answers a batch of read-only queries in O(1) rounds, sharing the
  /// round structure across the whole batch.  A connectivity-only chunk
  /// takes 2 rounds: the ingress scatters the endpoints to their home
  /// machines, which reply the component ids.  A chunk holding a
  /// path-weight query takes 5: in round 1 the ingress also assigns each
  /// path query a round-robin coordinator and sends each path endpoint
  /// to its home machine; in round 2 the home machines send the
  /// endpoint's component id and cached tour index to the coordinators;
  /// in round 3 each coordinator broadcasts its connected queries'
  /// (component, index, index) probes; in round 4 every machine sums its
  /// tree edges on all probed paths in one pass over its shard (the
  /// ancestor-XOR criterion on single appearances, summed) and sends
  /// the nonzero sums to the coordinators; in round 5 the coordinators
  /// return the answers to the ingress.  The batch is internally chunked
  /// so no machine exceeds its S-word round cap; every chunk is
  /// bracketed by begin_query_batch()/end_query_batch(), so query rounds
  /// settle into Metrics::query_aggregate() and NEVER touch the update
  /// accounting (worst_rounds stays <= 5 regardless of batch size).
  /// Reads only: no machine state is written.  Every endpoint must lie
  /// in [0, n); otherwise it throws std::invalid_argument before any
  /// round runs, metrics untouched.
  std::vector<ReadAnswer> answer_queries(std::span<const ReadQuery> queries);

  [[nodiscard]] std::size_t num_machines() const;
  [[nodiscard]] std::size_t num_vertices() const { return config_.n; }
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
  // The validate() rejection tests corrupt records through this.
  friend struct DynamicForestTestAccess;

  /// S = kMemorySlack * sqrt(N) + 256 words per machine.
  static constexpr double kMemorySlack = 32;

  struct VertexRec {
    Word comp = -1;
    Word cached_idx = etour::kNoIndex;
  };

  /// One machine's undo journal, replayed in REVERSE on rollback.  Its
  /// edge log holds the exact inverse of every edge-shard mutation in
  /// mutation order, so when an entry's turn comes every later mutation
  /// is already undone and its slot means what it meant when logged:
  /// rollback needs no key lookup and restores each shard slot for slot.
  /// In-place column writes log one `kRewritten` pre-image per record
  /// per batch: journal_begin bumps the machine's epoch, and a record
  /// whose mark already holds it is skipped (the epoch is 64-bit, so it
  /// never wraps); only the earliest pre-image is ever needed.  Directory
  /// entries are logged before every write.  Vertex records need no log:
  /// only a compaction writes them, and it changes how they are stored,
  /// not what they mean (see compact_log).  Arenas keep their capacity
  /// across batches, so in steady state arming and logging never
  /// allocate.
  struct MachineJournal {
    /// One edge-shard mutation's inverse.  kRewritten: the columns the
    /// in-place passes write (never u, v or w) as they were at `slot`.
    /// kCreated: an append at `slot` (the last), undone by removing it.
    /// kErased: erase_at(`slot`) of the whole record (u and v follow
    /// from the key), undone by EdgeShard::unerase.  The slot, kind and
    /// tree flag share one word so the entry stays one cache line.
    struct EdgeUndo {
      enum class Kind : std::uint8_t { kRewritten, kCreated, kErased };
      static constexpr std::uint32_t kMaxSlot = (std::uint32_t{1} << 29) - 1;
      std::uint64_t key = 0;
      std::uint32_t slot : 29 = 0;
      std::uint32_t kind : 2 = 0;  ///< a Kind
      std::uint32_t tree : 1 = 0;
      std::uint32_t ver = 0;
      Word comp = -1;
      Word iu1 = 0, iu2 = 0, iv1 = 0, iv2 = 0;
      Weight w = 0;  ///< kErased only

      [[nodiscard]] Kind what() const { return static_cast<Kind>(kind); }
    };
    static_assert(sizeof(EdgeUndo) <= 64);
    struct DirEntry {
      Word comp = -1;
      bool existed = false;
      Word size = 0;
    };
    std::vector<EdgeUndo> edges;
    std::vector<DirEntry> dirs;

    void clear() {
      edges.clear();
      dirs.clear();
    }
  };

  struct MachineState {
    EdgeShard edges;
    // Vertex records, dense: vertex v lives on machine v % mu at slot
    // v / mu.  vertex_ver[slot] is the slot's pending-log version, as
    // EdgeShard::ver is for edge records (only compactions write vertex
    // records, so it is never a tracked pair).
    std::vector<VertexRec> vertices;
    std::vector<std::uint32_t> vertex_ver;
    std::unordered_map<Word, Word> comp_sizes;  // directory shard
    // Undo journal (see MachineJournal).  Written only by this machine's
    // round task or by the orchestrator between barriers — exactly the
    // executor contract the rest of the machine state lives under — so
    // journaling is race-free without locks.
    bool journal_armed = false;
    std::uint64_t journal_epoch = 0;
    MachineJournal journal;

    /// Appends the new record `r` under `key` at pending-log version
    /// `version` (logged kCreated) and charges it to `mem`, this
    /// machine's meter.  Rollback removes a created record whole, so its
    /// later in-place writes need no pre-image: it starts marked.
    void create_edge(std::uint64_t key, const EdgeRec& r,
                     dmpc::MemoryMeter& mem, std::uint32_t version) {
      edges.append(key, r, version);
      if (journal_armed) {
        journal.edges.push_back({.key = key,
                                 .slot = undo_slot(edges.size() - 1),
                                 .kind = kind_bits(Kind::kCreated)});
        edges.mark.back() = journal_epoch;
      }
      mem.charge(kEdgeRecWords);
    }
    /// Swap-removes the live record at slot s (logged kErased, whole)
    /// and releases it from `mem`, this machine's meter.
    void erase_edge(std::size_t s, dmpc::MemoryMeter& mem) {
      if (journal_armed) {
        journal.edges.push_back(pre_image(edges.key_at(s), s, Kind::kErased));
        journal.edges.back().w = edges.w[s];
      }
      edges.erase_at(s);
      mem.release(kEdgeRecWords);
    }
    /// Readies live slot s for in-place column writes: logs the slot's
    /// pre-image, once per batch.
    void write_slot(std::size_t s) {
      if (!journal_armed || edges.mark[s] == journal_epoch) return;
      edges.mark[s] = journal_epoch;
      journal.edges.push_back(pre_image(edges.key_at(s), s, Kind::kRewritten));
    }

   private:
    using Kind = MachineJournal::EdgeUndo::Kind;
    static std::uint32_t kind_bits(Kind k) {
      return static_cast<std::uint32_t>(k);
    }
    static std::uint32_t undo_slot(std::size_t s) {
      assert(s <= MachineJournal::EdgeUndo::kMaxSlot);
      return static_cast<std::uint32_t>(s);
    }
    /// Slot s's columns (all but w) as an undo entry of kind k.
    [[nodiscard]] MachineJournal::EdgeUndo pre_image(std::uint64_t key,
                                                     std::size_t s,
                                                     Kind k) const {
      return {.key = key,
              .slot = undo_slot(s),
              .kind = kind_bits(k),
              .tree = edges.tree[s],
              .ver = edges.ver[s],
              .comp = edges.comp[s],
              .iu1 = edges.iu1[s],
              .iu2 = edges.iu2[s],
              .iv1 = edges.iv1[s],
              .iv2 = edges.iv2[s]};
    }

   public:
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

  /// v's record as the pending log leaves it (inline: a query batch
  /// reads scattered vertices, most of them in components the log has
  /// not moved).
  [[nodiscard]] VertexRec current_vertex(VertexId v) const {
    const std::size_t j = vertex_slot(v);
    const MachineState& ms = machines_[vertex_machine(v)];
    const VertexRec& rec = ms.vertices[j];
    if (pending_.empty()) return rec;
    // Only an interrupted compaction leaves records off base.
    if (compaction_interrupted_ && !pending_.at_base(ms.vertex_ver[j])) {
      return rec;
    }
    const etour::ComposedMap* cm = pending_.composed_of(rec.comp);
    if (cm == nullptr) return rec;
    const Appearance a = pending_.resolve({rec.comp, rec.cached_idx}, v, cm);
    return {a.comp, a.idx};
  }
  /// Machine m's create_edge and erase_edge (of the record under `key`),
  /// noted in the record index: a created slot, and the erased slot and
  /// the last one, whose record moves into it.
  void create_edge(MachineId m, std::uint64_t key, const EdgeRec& r,
                   std::uint32_t version) {
    MachineState& ms = machines_[m];
    ms.create_edge(key, r, cluster_->memory(m), version);
    record_index_.touch_new(m, ms.edges.size() - 1);
  }
  void erase_edge(MachineId m, std::uint64_t key) {
    MachineState& ms = machines_[m];
    const std::ptrdiff_t found = ms.edges.find(key);
    assert(found != EdgeShard::kNpos);
    const auto s = static_cast<std::size_t>(found);
    record_index_.touch(m, s, ms.edges);
    record_index_.touch(m, ms.edges.size() - 1, ms.edges);
    ms.erase_edge(s, cluster_->memory(m));
  }
  /// The shard of machine m, for the record index.
  [[nodiscard]] RecordIndex::ShardOf shard_of() const {
    return [this](std::size_t m) -> const EdgeShard& {
      return machines_[m].edges;
    };
  }
  /// Edge slot s of machine m's shard as the pending log leaves it.
  [[nodiscard]] EdgeRec current_edge(MachineId m, std::size_t s) const;
  /// The version a record a stage writes now takes: its values are
  /// current, so base coordinates while the log is empty, else a tracked
  /// pair of its two entries (a1 owned by v1, a2 by v2).
  [[nodiscard]] std::uint32_t written_version(Appearance a1, VertexId v1,
                                              Appearance a2, VertexId v2);
  /// Compaction: one for_each_machine pass that writes every edge and
  /// vertex record the pending log moved to its current values, at
  /// generation + 1, then empties the log.  It logs no undo entry: it
  /// changes how records are stored, not what they mean, and each
  /// record's step is idempotent (a record already at generation + 1 is
  /// skipped), so a fault partway leaves a consistent mix that the next
  /// batch's compaction finishes.
  void compact_log();

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
  /// Whether v names a vertex, i.e. lies in [0, n).
  [[nodiscard]] bool is_vertex(VertexId v) const {
    return v >= 0 && v < static_cast<VertexId>(config_.n);
  }
  [[nodiscard]] MachineId vertex_machine(VertexId v) const {
    return static_cast<MachineId>(static_cast<std::uint64_t>(v) %
                                  machines_.size());
  }
  /// v's index in its home machine's dense vertex table.
  [[nodiscard]] std::size_t vertex_slot(VertexId v) const {
    return static_cast<std::size_t>(v) / machines_.size();
  }
  /// v's record on its home machine (v must name a vertex).
  [[nodiscard]] const VertexRec& vertex(VertexId v) const {
    return machines_[vertex_machine(v)].vertices[vertex_slot(v)];
  }
  [[nodiscard]] MachineId dir_machine(Word comp) const {
    return static_cast<MachineId>(static_cast<std::uint64_t>(comp) %
                                  machines_.size());
  }

  /// The tree-edge record a merge commits, with the four tour indexes
  /// the k-way join assigned it, oriented to the canonical (u < v) key.
  [[nodiscard]] static EdgeRec make_tree_record(
      VertexId x, VertexId y, Weight w, Word comp,
      const etour::MergeNewIndexes& ni);

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
  /// split+join transform, appended to the pending log (only the cut,
  /// demoted, promoted and new records are written in place).
  /// Adaptive: 1 round for pure non-tree stages up to 8 with swaps or
  /// deletions needing reconnection.  Returns the batch positions of the
  /// cycle-rule inserts deferred behind a same-component swap.
  std::vector<std::size_t> run_stage_kway(std::vector<BatchOp>& ops);

  // --- atomic updates (config_.atomic_updates) -----------------------------

  /// Arms every machine's undo journal, bumps its epoch (so every record
  /// is unlogged for this batch), and snapshots the ingress-local
  /// scalars (next_comp_id_, batch_stats_), the pending log, and each
  /// memory meter's usage, and the record index's state.  No machine
  /// state is copied — pre-images accrue lazily as the protocol mutates
  /// (create_edge, erase_edge, write_slot and jlog_dir above).
  void journal_begin();
  /// Disarms the journals after a successful update (the logs are kept
  /// as arenas for the next one).
  void journal_commit();
  /// Rolls everything back after a mid-protocol throw: replays every
  /// machine's journal in reverse, restores the meters and scalars,
  /// truncates the pending log back to its snapshot, drops the round
  /// buffer's staged messages, and aborts the in-flight metrics update.
  /// Every shard, vertex table and directory returns exactly to its
  /// pre-update state, edge slot order included, as read through the
  /// log (a compaction the batch completed stays: the snapshot is taken
  /// again after it).  A record index built during the batch is
  /// dropped; an older one loses the side-list slots the batch added,
  /// which the restored shard no longer needs.
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
  PendingLog pending_;
  std::size_t log_bound_ = 0;  // words; see pending_log_bound()
  // Cascade round A's record index (see RecordIndex), built by round A
  // once it has scanned every shard kIndexAfterScans times since the
  // last compaction (`cascade_scans_`), and kept from then on.
  // index_fits_: whether the forest fits its keys.
  RecordIndex record_index_;
  bool index_fits_ = false;
  std::uint32_t cascade_scans_ = 0;
  // Test-only (set through DynamicForestTestAccess): when on, every
  // machine in an indexed cascade round A also reads every slot the
  // index did not name, and counts those that would have sent something
  // (`misses`, which must stay 0); it counts the machines so audited,
  // the split components whose smaller side mapped back to more base
  // ranges than it has tour ranges, and the compactions that re-keyed a
  // built index.
  struct IndexAudit {
    bool on = false;
    std::uint64_t machines = 0;
    std::uint64_t misses = 0;
    std::uint64_t remapped = 0;
    std::uint64_t rekeys = 0;
  };
  IndexAudit index_audit_;
  // A compaction threw partway: the next batch finishes it before any
  // stage.  Not part of the journal's snapshot, so rollback keeps it.
  bool compaction_interrupted_ = false;
  // journal_begin snapshots (valid while the journals are armed).
  bool journal_active_ = false;
  Word journal_next_comp_id_ = 0;
  dmpc::BatchScheduleStats journal_batch_stats_;
  PendingLog journal_pending_;
  std::vector<dmpc::WordCount> journal_mem_used_;
  RecordIndex::Mark journal_index_;
  std::uint32_t journal_cascade_scans_ = 0;

  /// The pending log may take 1/kLogShare of S.
  static constexpr std::size_t kLogShare = 16;
  /// An upper bound on what one update adds to the log, in words: a
  /// batch compacts first unless its updates fit under the bound.
  static constexpr std::size_t kLogWordsPerUpdate = 64;
  /// Cascade round A builds the record index once it has scanned every
  /// shard this many times since the last compaction (the ski-rental
  /// rule: scan until the scans would have paid for a build).  A batch
  /// stream that compacts after every cascade never builds one; once
  /// built, the index outlives compactions.
  static constexpr std::uint32_t kIndexAfterScans = 1;

  static constexpr Word kEdgeRecWords = 12;
  static constexpr Word kVertexRecWords = 3;
  static constexpr Word kDirRecWords = 2;
};

}  // namespace core
