// The pending log: what every rewriting stage since the last compaction
// did to the Euler tours, kept across batches so a stage need not rewrite
// the records of the components it transforms.  Every reader resolves a
// record through it (first_entry, current, resolve); DynamicForest owns
// one log and compacts it when it would outgrow its bound.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/edge_shard.hpp"
#include "etour/transforms.hpp"

namespace core {

/// An appearance: tour index `idx` of component `comp`.
struct Appearance {
  Word comp = 0;
  Word idx = etour::kNoIndex;
};

/// Tour indexes [lo, hi] of component `comp`.
struct TourRange {
  Word comp = 0;
  Word lo = 0, hi = 0;
};

/// What one rewriting stage did to the tours: each rewritten
/// component's compiled map and fragment labels (sorted by comp), and
/// each cut vertex's repaired appearance after the stage, for records
/// whose cached appearance the stage removed, keyed by (rewritten comp,
/// vertex).
struct PendingStage {
  std::vector<etour::StageRewrite> rewrites;
  std::map<std::pair<Word, VertexId>, Appearance> cut_fix;
};

/// The pending log: what every stage since the last compaction did to
/// the tours, kept across batches.  Every machine derives the same log
/// from the stages' broadcasts; the simulation keeps one copy, read-only
/// inside machine tasks.  It holds
///   * per component that held records at the last compaction (a label
///     below first_new_label), the composition of the stages since
///     (etour::ComposedMap): a record in those base coordinates takes
///     one lookup;
///   * the tracked appearances: appearances the log keeps current.  A
///     record a stage writes mid-log points at two of them, and each
///     stage's cut fixes become new ones, so an entry a stage removed
///     takes one more lookup.  Appending a stage moves every tracked
///     appearance through it (or, where it removed the entry, to its
///     own cut fix for the owner), so no read walks stages.
/// A compaction (compact_log) writes every record forward and empties
/// it; rollback truncates it back to a copy taken at the batch's start.
struct PendingLog {
  /// A record `ver` with this bit set names a tracked pair (the rest
  /// of the word is the first appearance's id).
  static constexpr std::uint32_t kTracked = std::uint32_t{1} << 31;

  /// An appearance of `vert` the log keeps current.
  struct Tracked {
    Appearance at;
    VertexId vert = 0;
  };
  /// A stage's cut fix for (comp, vert): tracked appearance `id`.
  struct FixRef {
    Word comp = 0;
    VertexId vert = 0;
    std::uint32_t id = 0;
  };

  /// Records at a version <= generation hold base coordinates.
  std::uint32_t generation = 0;
  Word first_new_label = 0;
  /// Stages appended since the last compaction.
  std::uint32_t stages = 0;
  /// Per base component, in the order the log opened them (found
  /// through an O(1) index).  Shared, so the rollback copy of the log
  /// costs no piece copies: appending a stage replaces the maps it
  /// touches.
  std::vector<std::pair<Word, std::shared_ptr<const etour::ComposedMap>>>
      composed;
  std::vector<Tracked> tracked;
  /// Every stage's cut fixes, stage by stage, each stage's sorted by
  /// (comp, vert); stage t's begin at fix_begin[t - 1].
  std::vector<FixRef> fixes;
  std::vector<std::uint32_t> fix_begin;

  [[nodiscard]] bool empty() const { return stages == 0; }
  /// Whether a record at `version` holds base coordinates.
  [[nodiscard]] bool at_base(std::uint32_t version) const {
    return version <= generation;
  }
  /// Empties the log after a compaction brought every record to
  /// generation `gen`; labels from `first_new` on are handed out later.
  void reset(std::uint32_t gen, Word first_new);
  /// The log's size: 4 words per composed piece, 3 per tracked
  /// appearance and per cut fix.
  [[nodiscard]] std::size_t words() const;
  /// Appends one stage: composes it into every composed map it
  /// touches, opening one for each base component it rewrites first,
  /// moves the tracked appearances through it, and tracks its cut
  /// fixes.
  void append(const PendingStage& stage);
  /// Tracks a record's two entries (a tree record: u's two traversals;
  /// a non-tree record: u's and v's cached appearances) and returns
  /// the record's version.
  std::uint32_t track(Appearance a1, VertexId v1, Appearance a2,
                      VertexId v2);
  /// The composed map of base component comp, or null (the log has
  /// not moved its records).
  [[nodiscard]] const etour::ComposedMap* composed_of(Word comp) const {
    if (index_.empty()) return nullptr;
    for (std::size_t h = slot_of(comp);; h = (h + 1) & (index_.size() - 1)) {
      const Slot& slot = index_[h];
      if (slot.map == nullptr || slot.comp == comp) return slot.map;
    }
  }
  /// Where the base-coordinate appearance `a` of `vert` now is; `cm`
  /// is composed_of(a.comp).
  [[nodiscard]] Appearance resolve(Appearance a, VertexId vert,
                                   const etour::ComposedMap* cm) const;

  /// Edge slot s's first entry (comp, iu1) as it now is; `cm` is
  /// composed_of(es.comp[s]) for a record at base, else null.
  [[nodiscard]] Appearance first_entry(const EdgeShard& es, std::size_t s,
                                       const etour::ComposedMap* cm) const;
  /// Edge slot s of `es` with its comp and indexes resolved, given its
  /// first entry `u1` (first_entry) and `cm` as there.
  [[nodiscard]] EdgeRec current(const EdgeShard& es, std::size_t s,
                                const etour::ComposedMap* cm,
                                Appearance u1) const;

  /// Appends to `out` base ranges holding every record at base whose
  /// entry now lies in `ranges` (of current component `label`, sorted
  /// by lo and disjoint): those ranges themselves if the log has
  /// not moved `label`, the part of each live piece carrying `label`
  /// that maps into them, and each removed piece whose removing stage
  /// fixed an owner of its label into them (a removed entry resolves
  /// through that fix, not by position).
  void map_back(Word label, std::span<const TourRange> ranges,
                std::vector<TourRange>& out) const;

  /// composed_of for a shard scan, which mostly asks about the
  /// component it asked about last.
  class Cursor {
   public:
    explicit Cursor(const PendingLog& log) : log_(log) {}
    const etour::ComposedMap* find(Word comp) {
      if (comp != last_comp_) {
        last_comp_ = comp;
        last_ = log_.composed_of(comp);
      }
      return last_;
    }
    /// find(es.comp[s]) for a record at base; null otherwise.
    const etour::ComposedMap* of(const EdgeShard& es, std::size_t s) {
      return log_.at_base(es.ver[s]) ? find(es.comp[s]) : nullptr;
    }

   private:
    const PendingLog& log_;
    Word last_comp_ = -1;
    const etour::ComposedMap* last_ = nullptr;
  };

 private:
  /// Stage t's cut fix for (comp, vert).
  [[nodiscard]] Appearance fixed(std::uint32_t t, Word comp,
                                 VertexId vert) const;
  /// Opens base component comp's composed map, `cm`.
  void open(Word comp, std::shared_ptr<const etour::ComposedMap> cm);
  /// Records that base component comp's map is now `cm`.
  void index(Word comp, const etour::ComposedMap* cm);
  [[nodiscard]] std::size_t slot_of(Word comp) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(comp) * 0x9e3779b97f4a7c15ULL) >>
        index_shift_);
  }

  /// Open addressing from a base component to its composed map (null:
  /// an empty slot), at most half full.
  struct Slot {
    Word comp = 0;
    const etour::ComposedMap* map = nullptr;
  };
  std::vector<Slot> index_;
  unsigned index_shift_ = 64;
};

// The readers every shard scan and point read calls are inline, as
// they were when the log shared a unit with its callers: with them out
// of line, answer_queries' scattered vertex reads measured about a
// quarter slower.

inline Appearance PendingLog::fixed(std::uint32_t t, Word comp,
                                     VertexId vert) const {
  assert(t >= 1 && t <= fix_begin.size());
  const FixRef* first = fixes.data() + fix_begin[t - 1];
  const FixRef* last =
      fixes.data() + (t < fix_begin.size() ? fix_begin[t] : fixes.size());
  const FixRef* it =
      std::lower_bound(first, last, std::pair{comp, vert},
                       [](const FixRef& f, const std::pair<Word, VertexId>& k) {
                         return std::pair{f.comp, f.vert} < k;
                       });
  assert(it != last && it->comp == comp && it->vert == vert);
  return tracked[it->id].at;
}

inline Appearance PendingLog::resolve(Appearance a, VertexId vert,
                                       const etour::ComposedMap* cm) const {
  if (cm == nullptr) return a;
  const etour::ComposedMap::Piece& p = cm->piece(a.idx);
  if (p.removed_at == 0) return {p.label, a.idx + p.delta};
  // Removed by stage t: the fix that stage tracked for the owner.
  return fixed(p.removed_at, p.label, vert);
}

inline Appearance PendingLog::first_entry(const EdgeShard& es, std::size_t s,
                                           const etour::ComposedMap* cm) const {
  const std::uint32_t version = es.ver[s];
  if ((version & kTracked) != 0) return tracked[version & ~kTracked].at;
  return resolve({es.comp[s], es.iu1[s]}, es.u[s], cm);
}

inline EdgeRec PendingLog::current(const EdgeShard& es, std::size_t s,
                                   const etour::ComposedMap* cm,
                                   Appearance u1) const {
  EdgeRec r = es.get(s);
  const std::uint32_t version = es.ver[s];
  // The second entry: a tree edge's second u traversal, a non-tree
  // record's cached v appearance.
  Appearance second;
  if ((version & kTracked) != 0) {
    second = tracked[(version & ~kTracked) + 1].at;
  } else if (cm == nullptr) {
    return r;
  } else {
    second = r.tree ? resolve({r.comp, r.iu2}, r.u, cm)
                    : resolve({r.comp, r.iv1}, r.v, cm);
  }
  if (r.tree) {
    // A live tree edge lost no entry, and each traversal's two entries,
    // (iu1, iv1) and (iu2, iv2), move together.
    r.iv1 += u1.idx - r.iu1;
    r.iv2 += second.idx - r.iu2;
    r.iu2 = second.idx;
  } else {
    r.iv1 = second.idx;
  }
  r.iu1 = u1.idx;
  r.comp = u1.comp;
  return r;
}

}  // namespace core
