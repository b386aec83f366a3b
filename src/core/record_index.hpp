// Cascade round A's record index: one for the whole cluster, naming
// every edge record by where it sits in the pending log's base
// coordinates, so a deletion stage reads the records its splits' smaller
// sides may hold instead of every shard.  DynamicForest owns one; the
// host queries it once per cascade and hands each machine its slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/edge_shard.hpp"
#include "core/pending_log.hpp"

namespace core {

/// Every edge record of the cluster, indexed by where it sits in the
/// pending log's base coordinates.  It holds
///   * every non-tree record at base under (base comp, base index) of
///     both its cached appearances, iu1 and iv1;
///   * every tree record under both its endpoints, which no stage or
///     compaction moves;
///   * a side list of the slots whose records the index may not name
///     where they are: records off base at the build, and every slot
///     written, created or swap-moved into since the build or the last
///     compaction (touch), each once.
/// An entry names a slot of one machine, so an entry of a slot rewritten
/// since names whatever record is there now: collect() returns
/// candidates, and a caller reads each as it is.
///
/// A compaction moves every base coordinate but no slot, so it keeps the
/// index: rekey() moves each non-tree entry through the log's composed
/// maps, piece by piece, keeps the tree entries, and folds the side list
/// in.  Between compactions fold() enters the side list's records where
/// they are once kFoldAt slots joined it since the last fold, so the
/// side list, which every query returns whole, stays short however long
/// the log lives.  A fold costs the side list, not the index: it buries
/// the entries its records had (each side-list slot keeps their keys)
/// and enters the new ones in a small sorted overlay that the next
/// compaction merges into the runs.  A rollback restores the shards slot
/// for slot, so it drops an index built during the batch and cuts an
/// older one's side list back (mark, restore).
///
/// Memory: a non-tree entry is 8 bytes (a 32-bit key and a 32-bit slot
/// id), and the runs add 12 bytes per base component holding one; the
/// tree entries are lists threaded through 4 bytes per vertex and 8
/// bytes per slot id; the side list takes 48 bytes per slot on it and
/// 1 byte per slot id for its membership flags; between compactions,
/// each record a fold entered from the log's tracked appearances takes
/// 16 bytes per entry in the overlay and a map node for its keys, and a
/// buried entry keeps its 8 bytes.  A slot id is
/// slot * machines + machine, so ids run to machines times the largest
/// shard.
class RecordIndex {
 public:
  /// The shard of machine m.
  using ShardOf = std::function<const EdgeShard&(std::size_t)>;

  RecordIndex() = default;
  /// An empty index for an n-vertex forest on `machines` machines.
  RecordIndex(std::size_t n, std::size_t machines)
      : n_(n), machines_(machines) {}

  /// Whether an n-vertex forest on `machines` machines, each holding at
  /// most `slots` records, fits the index's 32-bit keys and slot ids.
  [[nodiscard]] static bool fits(std::size_t n, std::size_t machines,
                                 std::size_t slots) {
    return n < (std::size_t{1} << 30) &&
           machines * (slots + 1) < (std::size_t{1} << 31);
  }

  [[nodiscard]] bool built() const { return built_; }
  /// Indexes every record of every shard, whose base coordinates are
  /// `log`'s, with an empty side list (records off base go on it).
  void build(const ShardOf& shard, const PendingLog& log);
  /// Forgets every entry (keeping the arrays' capacity for a rebuild).
  void drop();

  /// Notes that machine m's live slot s is about to be written in place
  /// or swap-removed: the side list names each slot once, with the tree
  /// entries the index holds for it.
  void touch(std::size_t m, std::size_t s, const EdgeShard& es) {
    if (built_) note(m, s, &es);
  }
  /// Notes that machine m created slot s after the build.
  void touch_new(std::size_t m, std::size_t s) {
    if (built_) note(m, s, nullptr);
  }
  [[nodiscard]] std::size_t side_size() const { return side_.size(); }

  /// What a rollback restores: whether the index was built, and its side
  /// list's length.
  struct Mark {
    bool built = false;
    std::size_t side = 0;
  };
  [[nodiscard]] Mark mark() const { return {built_, side_.size()}; }
  /// Drops an index built since `mark`, or cuts the side list back to it.
  void restore(Mark mark);

  /// Sets `out` to the live slots, as (machine << 32 | slot), that may
  /// hold a non-tree record at base with an entry in one of `ranges`
  /// (base coordinates, sorted by comp), a tree record with an endpoint
  /// in `verts` (sorted), or a side-list record that is not a tree record
  /// away from `verts`: ascending, each once.
  void collect(const ShardOf& shard, std::span<const TourRange> ranges,
               std::span<const VertexId> verts,
               std::vector<std::uint64_t>& out) const;

  /// Whether kFoldAt slots joined the side list since the last fold.
  [[nodiscard]] bool fold_due() const {
    return built_ && side_.size() >= unfolded_ + kFoldAt;
  }
  /// Enters the side list's records where they now are, in the base
  /// coordinates of `log`: a tree record under its endpoints, a non-tree
  /// record at base under its cached appearances, and one the log tracks
  /// under the base index each tracked appearance moved from (the index
  /// moves as the appearance does, stage by stage, so the query's ranges
  /// mapped back find it).  A record with an appearance no base index
  /// moved to (an entry a link created) stays on the side list.
  void fold(const ShardOf& shard, const PendingLog& log);

  /// Follows a compaction that brought every record to the log's end,
  /// before the log is emptied: moves every non-tree entry from the log's
  /// base coordinates to the current ones and enters the side list's
  /// records as the compaction left them, emptying the side list.
  void rekey(const ShardOf& shard, const PendingLog& log);

  /// Test-only: the entries a record off the side list should have but
  /// the index lacks (`missing`), and those the index has for such a
  /// record but should not (`stale`), compared in current coordinates:
  /// every non-tree record under both cached appearances, every tree
  /// record under both endpoints.
  struct Coverage {
    std::uint64_t missing = 0;
    std::uint64_t stale = 0;
  };
  [[nodiscard]] Coverage audit(const ShardOf& shard,
                               const PendingLog& log) const;

 private:
  /// An end of a list, and a side-list record with no tree entries.
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  /// fold() runs once this many slots joined the side list since the
  /// last fold.  Every query returns the side list whole, so this bounds
  /// what a cascade reads beyond its own candidates; a fold costs a few
  /// lookups per side-list record, not a pass over the entries.
  static constexpr std::size_t kFoldAt = 16;

  /// A non-tree entry: its key (a base tour index) in the high 32 bits,
  /// then its slot id, then which cached appearance it is (0: iu1, 1:
  /// iv1), so entries sort as integers.
  using Entry = std::uint64_t;
  static Entry entry(Word key, std::uint32_t half) {
    return (static_cast<Entry>(key) << 32) | half;
  }
  static Word key_of(Entry e) { return static_cast<Word>(e >> 32); }
  static std::uint32_t half_of(Entry e) {
    return static_cast<std::uint32_t>(e);
  }

  /// A buried entry's half.
  static constexpr std::uint32_t kDead = kNil;
  [[nodiscard]] static bool dead(Entry e) { return half_of(e) == kDead; }

  /// A slot on the side list, the endpoints its tree entries are listed
  /// under (kNil: it has none), and the keys of its non-tree entries
  /// (`keyed`: it has them).
  struct Side {
    std::uint32_t id = 0;
    std::uint32_t u = kNil, v = kNil;
    bool keyed = false;
    Appearance k1{}, k2{};
  };
  /// The entries nontree_[begin, end) of one composed-map piece (or of a
  /// component the log did not move): they move to `label` with their
  /// keys shifted by `delta`, in order (rekey).
  struct Segment {
    Word label = 0;
    Word delta = 0;
    std::size_t begin = 0, end = 0;
  };
  /// A live composed-map piece as the current tour sees it: base
  /// component `base`'s indexes [lo - delta, hi - delta] are now `label`'s
  /// [lo, hi] (fold).
  struct Image {
    Word label = 0;
    Word lo = 0, hi = 0;
    Word base = 0;
    Word delta = 0;
  };

  [[nodiscard]] std::uint32_t id(std::size_t m, std::size_t s) const {
    return static_cast<std::uint32_t>(s * machines_ + m);
  }
  [[nodiscard]] bool on_side(std::uint32_t id) const {
    return id < on_side_.size() && on_side_[id] != 0;
  }
  void note(std::size_t m, std::size_t s, const EdgeShard* es);
  /// Takes the side list's tree entries off their lists.
  void unlink_side();
  /// Buries half-entry `half`, keyed at `a` in the runs or the overlay.
  void bury(Appearance a, std::uint32_t half);
  /// Appends to loose_ where rekey() moves the overlay's entries.
  void rekey_overlay(const ShardOf& shard, const PendingLog& log);
  /// Replaces the non-tree entries with segments_ (moved as each says)
  /// and loose_, leaving out every entry of a slot on the side list.
  void merge_entries();
  /// The base appearance that moved to `a` through a live piece of
  /// `log` (images_ holds its pieces), if there is one.
  [[nodiscard]] bool base_of(const PendingLog& log, Appearance a,
                             Appearance& out) const;
  /// Lists half-entry h (2 * id for the record's u, 2 * id + 1 for its
  /// v) under vertex `vert`, or takes it off.
  void link(VertexId vert, std::uint32_t h);
  void unlink(std::uint32_t vert, std::uint32_t h);

  std::size_t n_ = 0;
  std::size_t machines_ = 1;
  bool built_ = false;
  /// The base components of the non-tree entries, ascending, and the end
  /// of each one's run of nontree_, sorted by entry.
  std::vector<Word> comps_;
  std::vector<std::uint32_t> comp_end_;
  std::vector<Entry> nontree_;
  /// The overlay: the non-tree entries fold() entered since the last
  /// build or rekey, under their base components, sorted; and the keys
  /// of each such record that a tracked appearance placed, by slot id.
  std::vector<std::pair<Word, Entry>> recent_;
  std::unordered_map<std::uint32_t, std::pair<Appearance, Appearance>>
      folded_;
  /// Per vertex, the first half-entry listed under it; per half-entry,
  /// the next one under the same vertex.
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> next_;
  std::vector<Side> side_;
  std::vector<std::uint8_t> on_side_;  ///< per slot id
  /// The side list's length after the last fold: the records it could
  /// not enter.
  std::size_t unfolded_ = 0;
  // rekey's and fold's scratch, kept for its capacity.
  std::vector<Image> images_;
  std::vector<Side> kept_;
  std::vector<Segment> segments_;
  std::vector<std::pair<Word, Entry>> loose_;
  std::vector<std::pair<Word, Entry>> recent_out_;
  std::vector<Word> comps_out_;
  std::vector<std::uint32_t> comp_end_out_;
  std::vector<Entry> nontree_out_;
};

}  // namespace core
