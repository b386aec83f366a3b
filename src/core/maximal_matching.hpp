// Fully-dynamic maximal matching in the DMPC model (paper, Section 3).
//
// Table 1 row: O(1) rounds per update, O(1) active machines per round,
// O(sqrt N) communication per round, worst case, using a coordinator, and
// starting from an arbitrary graph.
//
// Machine layout:
//   * machine 0 is the coordinator MC.  It stores the update-history H —
//     the global event log of edge updates and matching/status changes —
//     plus the directory: per-machine fill levels and per-machine
//     last-applied event positions.  All traffic flows through MC.
//   * a block of O(n / sqrt N) *stats machines* stores per-vertex records
//     (degree, mate, storage machine, suspended-stack top) by vertex-id
//     range.
//   * the remaining pool is allocated dynamically: *light machines* pack
//     whole adjacency lists of light vertices (degree <= 2 sqrt m); each
//     *heavy* vertex owns one *alive machine* holding up to sqrt(2m) alive
//     edges plus a stack of exclusive *suspended machines* for the rest.
//
// Status freshness (the paper's update-history mechanism): every stored
// edge carries a copy of the neighbour's matching status (matched? mate?
// is the mate light?).  These copies go stale as other updates run, so MC
// sends each touched machine the slice of H it has missed before the
// machine acts on its data, and additionally refreshes one machine per
// update round-robin — which bounds every machine's staleness, and hence
// every slice, by O(sqrt N) events.  Deletions of *suspended* edges are
// exactly the lazy case: they are applied when the suspended machine is
// next touched (fetchSuspended) or refreshed.
//
// Invariant 3.1: no heavy vertex that is matched ever becomes unmatched
// (while staying heavy).  Restored after every update via the
// steal-a-light-mate step; asserted by tests.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dmpc/cluster.hpp"
#include "graph/generators.hpp"
#include "oracle/oracles.hpp"

namespace core {

using dmpc::kNoMachine;
using dmpc::MachineId;
using dmpc::VertexId;
using dmpc::Word;

struct MaximalMatchingConfig {
  std::size_t n = 0;
  std::size_t m_cap = 0;  ///< max live edges over the run
};

class MaximalMatching {
 public:
  explicit MaximalMatching(const MaximalMatchingConfig& config);
  virtual ~MaximalMatching() = default;
  MaximalMatching(const MaximalMatching&) = delete;
  MaximalMatching& operator=(const MaximalMatching&) = delete;

  /// Loads an arbitrary initial graph: computes a maximal matching
  /// (charging the O(log n) rounds of the randomized CONGEST algorithm
  /// the paper cites [23]) and distributes adjacency lists and statistics.
  void preprocess(const graph::EdgeList& edges);

  /// Preconditions: insert(x,y) requires the edge to be absent, erase
  /// requires it present (update streams are cleaned accordingly).
  virtual void insert(VertexId x, VertexId y);
  virtual void erase(VertexId x, VertexId y);

  /// Query through the coordinator (2 rounds).
  VertexId mate_of(VertexId v);

  [[nodiscard]] dmpc::Cluster& cluster() { return *cluster_; }
  [[nodiscard]] const dmpc::Cluster& cluster() const { return *cluster_; }

  // --- driver-side introspection for tests ------------------------------
  [[nodiscard]] oracle::Matching matching_snapshot() const;
  [[nodiscard]] bool is_heavy(VertexId v) const;
  [[nodiscard]] std::size_t degree_of(VertexId v) const;
  /// Internal consistency: stats vs stored lists, alive-set fill, light
  /// lists on single machines, Invariant 3.1, matching validity.
  [[nodiscard]] bool validate(std::string* why = nullptr) const;
  /// Threshold separating light from heavy (2 sqrt m_cap).
  [[nodiscard]] std::size_t heavy_threshold() const { return heavy_thresh_; }

 protected:
  /// S = kMemorySlack * sqrt(N) + 512 words per machine.
  static constexpr double kMemorySlack = 96;

  // -- events (the update-history H) -------------------------------------
  enum class EventKind : std::uint8_t {
    kEdgeDelete,   // (a=u, b=v): remove edge wherever it is still stored
    kMatchSet,     // (a=v, b=mate, c=mate_is_light)
    kMatchClear,   // (a=v)
    kClassChange,  // (a=v, c=v_is_now_light): refresh mate_light copies
  };
  struct Event {
    EventKind kind;
    VertexId a = dmpc::kNoVertex;
    VertexId b = dmpc::kNoVertex;
    bool c = false;
  };

  // -- per-machine algorithm state ---------------------------------------
  struct NbInfo {
    bool nb_matched = false;
    VertexId nb_mate = dmpc::kNoVertex;
    bool nb_mate_light = true;
    // Position of the update-history when this entry was created.  Replay
    // of H on a stale machine must skip events older than the entry:
    // otherwise a delete event of a since-re-inserted edge (or a stale
    // status change) would corrupt the fresh entry.
    std::size_t born = 0;
  };
  using AdjList = std::map<VertexId, NbInfo>;

  enum class Role : std::uint8_t { kFree, kLight, kAlive, kSuspended };

  struct MachineState {
    Role role = Role::kFree;
    // kLight: lists of several light vertices.  kAlive/kSuspended: the
    // single heavy owner's (partial) list.
    std::map<VertexId, AdjList> lists;
    VertexId owner = dmpc::kNoVertex;      // kAlive / kSuspended
    MachineId below = dmpc::kNoMachine;    // kSuspended: next in the stack
    std::size_t last_applied = 0;          // position in the event log
    std::size_t edge_slots = 0;            // stored edge entries
  };

  // -- per-vertex statistics (on stats machines) -------------------------
  struct VertexStats {
    std::size_t degree = 0;
    VertexId mate = dmpc::kNoVertex;
    bool heavy = false;
    MachineId storage = kNoMachine;        // light machine or alive machine
    MachineId suspended_top = kNoMachine;  // kSuspended stack top
    std::size_t free_nbs = 0;  // Section 4's free-neighbour counter
  };

  [[nodiscard]] MachineId stats_machine(VertexId v) const;
  VertexStats& stats(VertexId v);
  [[nodiscard]] const VertexStats& stats(VertexId v) const;

  /// MC -> stats machines of the given vertices (1 round) + replies
  /// (1 round).  Returns nothing: stats are read driver-side afterwards;
  /// the rounds/messages model the paper's coordinator protocol.
  void query_stats_round(const std::vector<VertexId>& vs);
  /// MC -> stats machines: commit changed stats (1 round).
  void commit_stats_round(const std::vector<VertexId>& vs);

  /// Sends machine m the slice of H it has missed and applies it
  /// (piggybacked on the next MC->m message; accounted as that message's
  /// payload).  Returns the slice length in words for accounting.
  Word sync_machine(MachineId m);
  void apply_events(MachineState& ms, std::size_t from, std::size_t to);
  void append_event(const Event& ev);

  // -- storage management (the paper's supporting procedures) ------------
  [[nodiscard]] std::size_t light_capacity_edges() const;
  MachineId alloc_machine(Role role, VertexId owner);
  void free_machine(MachineId m);
  /// Finds a light machine with room for `slots` more edge entries
  /// (allocating a new one if needed) — the paper's toFit, best-fit
  /// flavoured to implement the machine-count bound of Lemma 3.2.
  MachineId to_fit(std::size_t slots);
  /// Returns an emptied light machine to the pool (the reclamation half
  /// of Lemma 3.2's bound on used machines).
  void reclaim_if_empty(MachineId m);
  /// Ensures a heavy vertex's alive machine holds min(deg, sqrt(2m))
  /// edges by pulling from the suspended stack — fetchSuspended.
  void fetch_suspended(VertexId x);
  /// Moves a light->heavy vertex's list into dedicated machines, or a
  /// heavy->light vertex's edges back into a shared light machine.
  void promote_to_heavy(VertexId x);
  void demote_to_light(VertexId x);
  /// Adds edge (x,y) on x's side, handling overflow — addEdge.
  void add_edge_side(VertexId x, VertexId y, const NbInfo& info);
  /// Removes edge (x,y) from x's side if eagerly reachable (alive/light);
  /// suspended copies are left to the lazy H mechanism.
  void remove_edge_side(VertexId x, VertexId y);

  /// Charges one MC->m (or m->MC) message round with the given payload.
  void round_msg(MachineId from, MachineId to, Word tag,
                 std::size_t payload_words);

  // -- matching logic (virtual so the Section 4 extension can maintain
  // -- its free-neighbour counters on every status change) ----------------
  virtual void set_match(VertexId a, VertexId b);
  virtual void clear_match(VertexId a, VertexId b);
  /// Finds a new mate for the freed vertex z per the Section 3 case
  /// analysis (free neighbour first; heavy vertices then steal a
  /// light-mated neighbour).
  void rematch_freed(VertexId z);
  /// The steal step for an unmatched heavy vertex x (Invariant 3.1).
  void restore_heavy_invariant(VertexId x);
  /// Round-robin refresh of one machine per update.
  void refresh_one_machine();
  void class_transition_check(VertexId v);

  /// Local search on z's machine data: a free neighbour of z, if any.
  [[nodiscard]] std::optional<VertexId> find_free_neighbor(VertexId z);
  /// Local search: an alive neighbour w of heavy x whose mate is light.
  [[nodiscard]] std::optional<VertexId> find_light_mated_neighbor(VertexId x);

  [[nodiscard]] AdjList& list_of(VertexId v);

  MaximalMatchingConfig config_;
  std::unique_ptr<dmpc::Cluster> cluster_;
  std::vector<MachineState> machines_;
  std::vector<VertexStats> stats_;       // sharded onto stats machines
  std::vector<Event> log_;               // the update-history H (global)
  std::size_t heavy_thresh_ = 0;         // 2 sqrt(m_cap)
  std::size_t alive_cap_ = 0;            // sqrt(2 m_cap)
  MachineId stats_begin_ = 1;            // stats machines [1, stats_end_)
  MachineId stats_end_ = 1;
  std::size_t vertices_per_stats_ = 1;
  MachineId refresh_cursor_ = 0;
  std::vector<MachineId> free_pool_;

  static constexpr Word kEdgeEntryWords = 4;
  static constexpr Word kStatsWords = 5;
  static constexpr Word kEventWords = 4;
};

}  // namespace core
