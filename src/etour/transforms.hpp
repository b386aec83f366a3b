// The Euler-tour index transformations of Section 5.
//
// An E-tour of a tree T is the closed walk from the root traversing each
// edge twice, written as the sequence of endpoints of the traversed edges;
// its length is ELength_T = 4(|T|-1) (each edge contributes 4 entries: two
// per direction).  Every vertex appearance is an entry owned by one
// incident tree edge, so the whole tour is representable as 4 indexes per
// tree edge — which is exactly how both the reference structure and the
// distributed algorithm store it.
//
// The paper's key observation is that re-rooting, merging (edge insertion
// across trees) and splitting (tree-edge deletion) all transform every
// stored index by a piecewise-affine function parameterized by O(1)
// values (f/l of the two endpoints, the tour length).  Broadcasting those
// O(1) words lets every machine update its indexes locally.  These pure
// functions are that algebra.  A batched stage composes k splits and
// links per component (KWaySplit, KWayJoinPlan); StageMap compiles that
// composition once into one flat piecewise table of O(k + links) pieces,
// and ComposedMap chains the pending log's stage maps per starting
// component, which is what every distributed read of a record resolves
// through until a compaction writes it.
//
// Figure-validated correction: for the merge, the paper writes the shift
// of the remaining Tx indexes as "i + 4*ELength_Ty"; the arithmetic
// consistent with its own Figure 1(iii) (and with ELength = 4(|T|-1)) is
// "i + ELength_Ty + 4" — the tour grows by the inserted tour plus the 4
// new entries of the linking edge.  We implement the corrected form and
// pin Figure 1 in a golden test.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dmpc/types.hpp"

namespace etour {

using dmpc::Word;

/// Sentinel for "vertex has no tour index" (singleton component).
inline constexpr Word kNoIndex = 0;

/// E-tour length of a tree with `size` vertices.
constexpr Word elength(Word size) { return size <= 1 ? 0 : 4 * (size - 1); }

/// Number of vertices of a tree whose E-tour has length `elen`.
constexpr Word tree_size(Word elen) { return elen == 0 ? 1 : elen / 4 + 1; }

// ---------------------------------------------------------------------------
// Re-rooting (paper: "make y the root of its E-tree").
// Precondition: y is not already the root (its last appearance l_y < elen),
// the tree is not a singleton.  The new tour starts with the traversal of
// the edge from y to its former parent.
// ---------------------------------------------------------------------------
struct RerootParams {
  Word elen;  ///< ELength of y's tree
  Word l_y;   ///< last appearance of y in the old tour
};

constexpr Word reroot_index(Word i, const RerootParams& p) {
  return ((i + p.elen - p.l_y) % p.elen) + 1;
}

// ---------------------------------------------------------------------------
// Merge: insert edge (x, y) where y is the root of its tree Ty (after a
// reroot) and x belongs to a different tree Tx.  Ty's tour is spliced into
// Tx's tour right after f(x); the new edge contributes 4 entries.
// For a singleton x, use f_x = 0 (the merged tour then starts at x).
// For a singleton y, use elen_ty = 0.
// ---------------------------------------------------------------------------
struct MergeParams {
  Word f_x;      ///< splice position in Tx's tour (see merge_splice; 0 if x
                 ///< is a singleton)
  Word elen_ty;  ///< ELength of Ty (= l(y) after the reroot; 0 if singleton)
};

/// Where Ty is spliced into Tx's tour.  The paper says "after the first
/// appearance of x", which is an even position (the tour *entering* x) for
/// every non-root x — splicing there keeps the (odd, even) pair structure
/// intact.  When x is the root of Tx, f(x) = 1 is odd and splicing there
/// would break the tour, so we splice after x's closing appearance at
/// position ELength(Tx) instead (also an appearance of x; the "i > f_x"
/// shift then moves nothing, correctly).  A singleton x splices at 0.
constexpr Word merge_splice(Word f_x, Word elen_tx) {
  if (f_x == kNoIndex) return 0;     // singleton x
  return f_x == 1 ? elen_tx : f_x;   // root x appends at the tour end
}

/// New index for an old index of a vertex in Ty.
constexpr Word merge_shift_ty(Word i, const MergeParams& p) {
  return i + p.f_x + 2;
}

/// New index for an old index of a vertex in Tx (only indexes > f_x move).
constexpr Word merge_shift_tx(Word i, const MergeParams& p) {
  return i > p.f_x ? i + p.elen_ty + 4 : i;
}

/// The 4 new entries owned by the inserted edge (x, y):
/// x gains {f_x + 1, f_x + elen_ty + 4}; y gains {f_x + 2, f_x + elen_ty + 3}.
struct MergeNewIndexes {
  Word x_enter, x_exit;  ///< x's two new appearances
  Word y_enter, y_exit;  ///< y's two new appearances
};

constexpr MergeNewIndexes merge_new_indexes(const MergeParams& p) {
  return {p.f_x + 1, p.f_x + p.elen_ty + 4, p.f_x + 2, p.f_x + p.elen_ty + 3};
}

// ---------------------------------------------------------------------------
// Split: delete tree edge (p, c) where p is the ancestor endpoint.  The
// subtree rooted at c (tour interval [f_c, l_c]) becomes its own tree; the
// edge's 4 entries (p at f_c - 1 and l_c + 1, c at f_c and l_c) disappear.
// ---------------------------------------------------------------------------
struct SplitParams {
  Word f_c;  ///< first appearance of the child endpoint c
  Word l_c;  ///< last appearance of the child endpoint c
};

/// True iff tour index i lies in the subtree interval being split off.
constexpr bool split_in_subtree(Word i, const SplitParams& p) {
  return i >= p.f_c && i <= p.l_c;
}

/// New index for an old subtree index (the subtree tour is renumbered to
/// start at 1; c's own boundary entries f_c and l_c are removed, not
/// shifted).
constexpr Word split_shift_subtree(Word i, const SplitParams& p) {
  return i - p.f_c;
}

/// New index for an old index of the remaining tree (only indexes > l_c
/// move; p's boundary entries f_c - 1 and l_c + 1 are removed, not
/// shifted).
constexpr Word split_shift_rest(Word i, const SplitParams& p) {
  return i > p.l_c ? i - (p.l_c - p.f_c + 3) : i;
}

/// ELength of the split-off subtree.
constexpr Word split_subtree_elength(const SplitParams& p) {
  return p.l_c - p.f_c - 1;
}

/// Ancestor test from tour indexes: u is a (weak) ancestor of v in their
/// common tree iff u's appearance interval contains v's.
constexpr bool is_ancestor(Word f_u, Word l_u, Word f_v, Word l_v) {
  return f_u <= f_v && l_v <= l_u;
}

// ---------------------------------------------------------------------------
// Appearance-parity helpers for the k-way (batched) transforms.
//
// In the 4-entries-per-edge encoding, entries (2t-1, 2t) are the (source,
// destination) of traversal t, and the destination of traversal t equals
// the source of traversal t+1.  Hence from ANY stored appearance of a
// vertex we can derive both an even appearance (a valid splice anchor for
// a merge) and an odd appearance (a valid rotation pivot for a reroot)
// without another scan round: entry i-1 (for odd i > 1) and entry i+1
// (for even i < elen) name the same vertex, and the root owns both entry
// 1 and entry elen.  Every transform above preserves entry parity (reroot
// rotates at an odd pivot, shifts add even amounts), so these identities
// hold in composed coordinates too.
// ---------------------------------------------------------------------------

/// An even appearance of the vertex owning appearance i (tour length elen).
constexpr Word even_anchor(Word i, Word elen) {
  if (i % 2 == 0) return i;
  return i == 1 ? elen : i - 1;
}

/// An odd appearance of the vertex owning appearance i, usable as a reroot
/// pivot; returns 0 when the vertex is already the root (no reroot needed).
constexpr Word odd_pivot(Word i, Word elen) {
  if (i == 1 || i == elen) return 0;
  return i % 2 == 1 ? i : i + 1;
}

// ---------------------------------------------------------------------------
// K-way split: delete k tree edges of ONE tree in a single shared
// transform.  The cut set is given by each deleted edge's child-subtree
// interval [f_c, l_c] in the pre-split tour; distinct tree edges own
// disjoint entry sets, so their 4-entry boundary groups {f_c-1, f_c, l_c,
// l_c+1} never collide, and subtree intervals are laminar.  The result is
// k+1 fragments: fragment 0 is the remainder containing the old root;
// fragment j+1 (in sorted-f_c order; see fragment_of_cut for the original
// numbering) is cut j's subtree minus any nested cut subtrees.
//
// Applying the k cuts sequentially in ANY order through the single-split
// formulas above yields exactly these fragments with exactly these
// indexes — the property tests pin that equivalence.
// ---------------------------------------------------------------------------
class KWaySplit {
 public:
  struct Cut {
    Word f_c;  ///< child endpoint's first appearance (pre-split coords)
    Word l_c;  ///< child endpoint's last appearance
  };

  KWaySplit(Word elen, const std::vector<Cut>& cuts) : elen_(elen) {
    const std::size_t k = cuts.size();
    std::vector<std::size_t> order(k);
    for (std::size_t j = 0; j < k; ++j) order[j] = j;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return cuts[a].f_c < cuts[b].f_c;
    });
    cuts_.resize(k);
    frag_of_cut_.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      cuts_[j] = cuts[order[j]];
      frag_of_cut_[order[j]] = j + 1;
    }
    // Laminar-forest structure: parent fragment of each cut via a stack
    // over the f_c-sorted intervals.
    parent_.assign(k, 0);
    children_.assign(k + 1, {});
    std::vector<std::size_t> stack;
    for (std::size_t j = 0; j < k; ++j) {
      while (!stack.empty() && cuts_[stack.back()].l_c < cuts_[j].f_c)
        stack.pop_back();
      parent_[j] = stack.empty() ? 0 : stack.back() + 1;
      children_[parent_[j]].push_back(j);
      stack.push_back(j);
    }
    elens_.assign(k + 1, 0);
    elens_[0] = elen_;
    for (std::size_t j = 0; j < k; ++j)
      elens_[j + 1] = cuts_[j].l_c - cuts_[j].f_c - 1;
    for (std::size_t j = 0; j < k; ++j)
      elens_[parent_[j]] -= cuts_[j].l_c - cuts_[j].f_c + 3;
    removed_.reserve(4 * k);
    for (const Cut& c : cuts_) {
      removed_.push_back(c.f_c - 1);
      removed_.push_back(c.f_c);
      removed_.push_back(c.l_c);
      removed_.push_back(c.l_c + 1);
    }
    std::sort(removed_.begin(), removed_.end());
  }

  /// Number of resulting fragments (k + 1).
  std::size_t fragments() const { return cuts_.size() + 1; }

  /// Fragment id of the subtree split off by the i-th cut of the
  /// constructor's (unsorted) cut list.
  std::size_t fragment_of_cut(std::size_t cut) const {
    return frag_of_cut_[cut];
  }

  /// True iff pre-split tour index i is one of the 4k removed entries
  /// (an entry owned by a deleted edge).
  bool removed(Word i) const {
    return std::binary_search(removed_.begin(), removed_.end(), i);
  }

  /// Fragment containing surviving pre-split index i: the innermost cut
  /// interval containing i, else the root fragment.
  std::size_t fragment_of(Word i) const {
    // One cut (every single-update stage): a branch-free interval test
    // in place of the search, which mispredicts on scattered indexes.
    if (cuts_.size() == 1) {
      return static_cast<std::size_t>((cuts_[0].f_c <= i) &
                                      (i <= cuts_[0].l_c));
    }
    std::size_t lo = 0, hi = cuts_.size();
    while (lo < hi) {  // count of cuts with f_c <= i
      const std::size_t mid = (lo + hi) / 2;
      if (cuts_[mid].f_c <= i)
        lo = mid + 1;
      else
        hi = mid;
    }
    if (lo == 0) return 0;
    std::size_t frag = lo;  // cut (lo - 1) -> fragment lo
    while (frag != 0 && cuts_[frag - 1].l_c < i) frag = parent_[frag - 1];
    return frag;
  }

  /// Post-split index of surviving pre-split index i within its fragment.
  Word new_index(Word i) const {
    const std::size_t frag = fragment_of(i);
    Word idx = frag == 0 ? i : i - cuts_[frag - 1].f_c;
    for (const std::size_t m : children_[frag]) {
      if (cuts_[m].l_c + 1 < i) idx -= cuts_[m].l_c - cuts_[m].f_c + 3;
    }
    return idx;
  }

  /// ELength of a fragment's tour.
  Word fragment_elength(std::size_t frag) const { return elens_[frag]; }

 private:
  friend class StageMap;


  Word elen_;
  std::vector<Cut> cuts_;                        ///< sorted by f_c
  std::vector<std::size_t> frag_of_cut_;         ///< original cut -> fragment
  std::vector<std::size_t> parent_;              ///< cut -> parent fragment
  std::vector<std::vector<std::size_t>> children_;  ///< fragment -> cuts
  std::vector<Word> elens_;                      ///< fragment -> ELength
  std::vector<Word> removed_;                    ///< sorted removed entries
};

// ---------------------------------------------------------------------------
// K-way join: link k edges across a set of fragments in one shared
// transform.  Each fragment carries a chain of index maps (rotations for
// reroots, threshold-shifts for splices); a link reroots the absorbed
// tree at its y endpoint and splices it after an even appearance of x,
// exactly like the sequential merge, but anchors/pivots are derived from
// ANY stored appearance via even_anchor/odd_pivot, so links can be applied
// in arbitrary order over already-composed trees (no pre-order needed).
// The 4 entries of each inserted edge live in a pseudo-chain created at
// link time so later splices shift them too.  All decisions are pure
// functions of the inputs — every machine (and the serial reference)
// composes an identical plan from the same link descriptors.
// ---------------------------------------------------------------------------
class KWayJoinPlan {
 public:
  explicit KWayJoinPlan(std::vector<Word> fragment_elens)
      : tree_elen_(std::move(fragment_elens)) {
    const std::size_t f = tree_elen_.size();
    chains_.resize(f);
    dsu_.resize(f);
    members_.resize(f);
    adopted_.assign(f, Adopted{});
    for (std::size_t i = 0; i < f; ++i) {
      dsu_[i] = i;
      members_[i] = {i};
    }
  }

  /// Link x (in fragment x_frag at original appearance ix; kNoIndex if the
  /// fragment is a singleton) to y (y_frag, iy).  x's tree absorbs y's
  /// tree (y becomes the child endpoint, as in the sequential merge).
  /// Returns the link id for edge_indexes().  Precondition: the two
  /// fragments are in different trees.
  std::size_t link(std::size_t x_frag, Word ix, std::size_t y_frag, Word iy) {
    const std::size_t ra = find(x_frag), rb = find(y_frag);
    const Word elen_a = tree_elen_[ra], elen_b = tree_elen_[rb];
    const Word px = resolve(x_frag, ix);
    const Word py = resolve(y_frag, iy);
    if (elen_b > 0) {
      const Word pivot = odd_pivot(py, elen_b);
      if (pivot != 0) append(rb, Step{elen_b, pivot, 0});
    }
    const Word anchor = (px == kNoIndex || elen_a == 0)
                            ? 0
                            : even_anchor(px, elen_a);
    append(ra, Step{0, anchor, elen_b + 4});
    append(rb, Step{0, 0, anchor + 2});
    const std::size_t chain = chains_.size();
    chains_.emplace_back();
    members_[ra].push_back(chain);
    const MergeParams mp{anchor, elen_b};
    links_.push_back(Link{chain, merge_new_indexes(mp)});
    if (ix == kNoIndex && adopted_[x_frag].chain == kNone)
      adopted_[x_frag] = Adopted{chain, links_.back().base.x_enter};
    if (iy == kNoIndex && adopted_[y_frag].chain == kNone)
      adopted_[y_frag] = Adopted{chain, links_.back().base.y_enter};
    // Union: rb's members join ra; ra stays the representative, so the
    // final tree is labeled by the x side (matching the sequential merge,
    // where the combined component keeps x's id).
    for (const std::size_t m : members_[rb]) members_[ra].push_back(m);
    members_[rb].clear();
    dsu_[rb] = ra;
    tree_elen_[ra] = elen_a + elen_b + 4;
    return links_.size() - 1;
  }

  /// Map an original fragment index to its final composed position.
  Word map_index(std::size_t frag, Word i) const {
    return apply_chain(frag, i);
  }

  /// Final positions of the 4 entries owned by a link's inserted edge.
  MergeNewIndexes edge_indexes(std::size_t link_id) const {
    const Link& l = links_[link_id];
    return {apply_chain(l.chain, l.base.x_enter),
            apply_chain(l.chain, l.base.x_exit),
            apply_chain(l.chain, l.base.y_enter),
            apply_chain(l.chain, l.base.y_exit)};
  }

  /// Current position of the vertex owning a (possibly singleton)
  /// fragment-original appearance — kNoIndex only for a never-linked
  /// singleton.
  Word resolve(std::size_t frag, Word i) const {
    if (i != kNoIndex) return apply_chain(frag, i);
    const Adopted& a = adopted_[frag];
    if (a.chain == kNone) return kNoIndex;
    return apply_chain(a.chain, a.base);
  }

  /// Representative fragment of a fragment's final tree (the x-side label
  /// survives every link).
  std::size_t tree_of(std::size_t frag) const { return find(frag); }

  bool same_tree(std::size_t a, std::size_t b) const {
    return find(a) == find(b);
  }

  /// Final tour length of a fragment's tree.
  Word tree_elength(std::size_t frag) const { return tree_elen_[find(frag)]; }

  std::size_t num_links() const { return links_.size(); }

 private:
  friend class StageMap;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Step {
    Word rot_elen;    ///< nonzero: rotation of a tour of this length
    Word threshold;   ///< rotation pivot, or shift threshold
    Word add;         ///< shift amount (shifts only)
  };
  struct Link {
    std::size_t chain;      ///< pseudo-chain carrying the edge's entries
    MergeNewIndexes base;   ///< entries in at-link-time coordinates
  };
  struct Adopted {
    std::size_t chain = kNone;  ///< chain holding a singleton's first entry
    Word base = kNoIndex;
  };

  // A rotation only ever sees positions of its own tour, i and threshold
  // in [1, rot_elen], so one conditional add stands in for
  // ((i + rot_elen - threshold) % rot_elen) + 1.
  static Word apply_step(Word i, const Step& s) {
    if (s.rot_elen != 0) {
      const Word r = i - s.threshold;
      return (r < 0 ? r + s.rot_elen : r) + 1;
    }
    return i > s.threshold ? i + s.add : i;
  }

  Word apply_chain(std::size_t chain, Word i) const {
    for (const Step& s : chains_[chain]) i = apply_step(i, s);
    return i;
  }

  std::size_t find(std::size_t f) const {
    while (dsu_[f] != f) f = dsu_[f];
    return f;
  }

  void append(std::size_t root, const Step& s) {
    for (const std::size_t m : members_[root]) chains_[m].push_back(s);
  }

  std::vector<Word> tree_elen_;                ///< per-representative ELength
  std::vector<std::vector<Step>> chains_;      ///< fragment/pseudo op chains
  std::vector<std::size_t> dsu_;               ///< fragment union-find
  std::vector<std::vector<std::size_t>> members_;  ///< root -> chain ids
  std::vector<Adopted> adopted_;               ///< singleton first entries
  std::vector<Link> links_;
};

// ---------------------------------------------------------------------------
// A sorted table of pieces over the indexes [0, elen] of one tour, with an
// O(1) lookup: a directory of about kBucketsPerPiece buckets per piece
// over [0, elen] names each bucket's first piece, and a forward scan
// rarely takes a step (a branch-free count over the breakpoints cost 4x
// as much at ten pieces).  A bucket holding a breakpoint costs its
// lookups a second compare; more buckets mean fewer such buckets but a
// larger directory.  StageMap and ComposedMap below lay their pieces out
// in one.
// ---------------------------------------------------------------------------
template <class P, std::size_t kBucketsPerPiece = 32>
class PieceTable {
 public:
  /// Appends the piece starting at index lo; starts ascend from 0.
  void push(Word lo, const P& p) { entries_.push_back({lo, p}); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const P& back() const { return entries_.back().piece; }

  /// Lays out the directory; call once, after the last push.
  void finish(Word elen) {
    size_ = entries_.size();
    entries_.push_back({std::numeric_limits<Word>::max(), P{}});
    const auto buckets = static_cast<Word>(std::bit_ceil(kBucketsPerPiece * size_));
    while ((elen >> shift_) >= buckets) ++shift_;
    first_.resize(static_cast<std::size_t>(elen >> shift_) + 1);
    std::size_t p = 0;
    for (std::size_t b = 0; b < first_.size(); ++b) {
      while (entries_[p + 1].start <= static_cast<Word>(b) << shift_) ++p;
      first_[b] = static_cast<std::uint32_t>(p);
    }
  }

  /// The number of the piece holding index i (0 <= i <= elen).
  [[nodiscard]] std::size_t index_of(Word i) const {
    std::size_t p = first_[std::min(static_cast<std::size_t>(i >> shift_),
                                    first_.size() - 1)];
    while (entries_[p + 1].start <= i) ++p;
    return p;
  }
  [[nodiscard]] const P& find(Word i) const {
    return entries_[index_of(i)].piece;
  }
  [[nodiscard]] const P& operator[](std::size_t p) const {
    return entries_[p].piece;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// First index of piece p; start(size()) is a max() sentinel.
  [[nodiscard]] Word start(std::size_t p) const { return entries_[p].start; }

 private:
  // A piece beside its first index, so a lookup's compares and its piece
  // share cache lines.
  struct Entry {
    Word start = 0;
    P piece;
  };
  std::vector<Entry> entries_;  ///< then a max() sentinel after finish()
  std::size_t size_ = 0;
  int shift_ = 0;                     ///< index >> shift_ = bucket
  std::vector<std::uint32_t> first_;  ///< bucket -> its first piece
};

// ---------------------------------------------------------------------------
// Compiled stage map: one component's whole k-way stage (its split, if
// any, then each fragment's join chain) as one flat table over the
// component's OLD tour indexes.  A split and every chain step move each
// run of consecutive indexes by one constant, so the composition is a
// sorted list of breakpoints whose pieces store {fragment, delta}: the
// new index of i is i + delta.  Each of the 4k removed entries is a
// width-1 piece flagged removed, carrying the fragment fragment_of names
// for it (the cut fixes key on that).  Index kNoIndex is piece 0 of
// fragment 0; no_index(f) is the final position of kNoIndex in fragment
// f, i.e. the singleton entry the join plan adopted for it.
//
// The split's pieces come from the per-index algebra evaluated at the
// O(k) points where fragment_of, removed or a nested cut's shift can
// change (f_c - 1 .. f_c + 1 and l_c .. l_c + 2 of every cut).  The join
// then pushes every chain step of a fragment through that fragment's
// pieces; a step is affine on each side of one threshold, so it splits
// at most one piece.  That is O(k + links) pieces, built in
// O((k + links)^2) at most, with PieceTable's O(1) lookup.  Every
// surviving piece starts at an odd index (cuts remove whole traversals,
// pivots are odd, splices follow even anchors and all shifts are even),
// so the two entries 2t - 1 and 2t of a traversal always share a piece.
//
// EulerForest keeps the per-index calls above, so the serial reference
// stays independent of this table; the property tests compare the two.
// ---------------------------------------------------------------------------
class StageMap {
 public:
  struct Piece {
    Word delta = 0;          ///< new index = old index + delta
    std::uint32_t frag = 0;  ///< fragment of the split (0: the remainder)
    bool removed = false;    ///< an entry of a deleted edge: no new index
  };

  /// The split alone (null: one whole-tour fragment), to post-split
  /// fragment coordinates.  elen is the component's tour length.
  StageMap(Word elen, const KWaySplit* split)
      : elen_(elen),
        no_index_(split == nullptr ? 1 : split->fragments(), kNoIndex) {
    finish(elen, split_runs(elen, split));
  }

  /// The split composed with a finished join plan whose fragment `base`
  /// is this component's fragment 0, to final coordinates.
  StageMap(Word elen, const KWaySplit* split, const KWayJoinPlan& plan,
           std::size_t base)
      : elen_(elen), no_index_(split == nullptr ? 1 : split->fragments()) {
    for (std::size_t f = 0; f < no_index_.size(); ++f) {
      no_index_[f] = plan.resolve(base + f, kNoIndex);
    }
    std::vector<Run> out;
    for (const Run& r : split_runs(elen, split)) {
      out.push_back(r);
      if (r.lo == kNoIndex) {
        out.back().p.delta = no_index_[0];
        continue;
      }
      if (r.p.removed) continue;
      const std::size_t first = out.size() - 1;
      for (const KWayJoinPlan::Step& s : plan.chains_[base + r.p.frag]) {
        // The first input position on the step's upper side.
        const Word c = s.rot_elen != 0 ? s.threshold : s.threshold + 1;
        for (std::size_t j = first; j < out.size(); ++j) {
          const Run q = out[j];
          if (q.lo + q.p.delta < c && c <= q.hi + q.p.delta) {
            out[j].hi = c - q.p.delta - 1;
            out.insert(out.begin() + static_cast<std::ptrdiff_t>(j) + 1,
                       Run{c - q.p.delta, q.hi, q.p});
            break;
          }
        }
        for (std::size_t j = first; j < out.size(); ++j) {
          const Word at = out[j].lo + out[j].p.delta;
          out[j].p.delta += KWayJoinPlan::apply_step(at, s) - at;
        }
      }
    }
    finish(elen, std::move(out));
  }

  /// The piece holding old index i (0 <= i <= elen).
  const Piece& piece(Word i) const { return table_.find(i); }

  /// Final position of kNoIndex in fragment frag.
  Word no_index(std::size_t frag) const { return no_index_[frag]; }

  /// The old tour's length: the map covers [0, elen].
  Word elen() const { return elen_; }
  std::size_t pieces() const { return table_.size(); }
  /// First old index of piece p.
  Word piece_start(std::size_t p) const { return table_.start(p); }
  /// Piece p, and the number of the piece holding old index i.
  const Piece& piece_at(std::size_t p) const { return table_[p]; }
  std::size_t piece_index(Word i) const { return table_.index_of(i); }

 private:
  struct Run {
    Word lo, hi;  ///< old-index range, inclusive
    Piece p;
  };

  // The split's runs over [0, elen], from the per-index algebra at every
  // candidate breakpoint.
  static std::vector<Run> split_runs(Word elen, const KWaySplit* split) {
    std::vector<Run> runs{Run{kNoIndex, kNoIndex, Piece{}}};
    if (elen == 0) return runs;
    std::vector<Word> at{1};
    if (split != nullptr) {
      for (const KWaySplit::Cut& c : split->cuts_) {
        for (const Word b :
             {c.f_c - 1, c.f_c, c.f_c + 1, c.l_c, c.l_c + 1, c.l_c + 2}) {
          if (b <= elen) at.push_back(b);
        }
      }
      std::sort(at.begin(), at.end());
      at.erase(std::unique(at.begin(), at.end()), at.end());
    }
    for (std::size_t j = 0; j < at.size(); ++j) {
      Run r{at[j], j + 1 < at.size() ? at[j + 1] - 1 : elen, Piece{}};
      if (split != nullptr) {
        r.p.frag = static_cast<std::uint32_t>(split->fragment_of(r.lo));
        r.p.removed = split->removed(r.lo);
        if (!r.p.removed) r.p.delta = split->new_index(r.lo) - r.lo;
      }
      runs.push_back(r);
    }
    return runs;
  }

  // Merges neighbouring runs that map alike and lays out the table.
  void finish(Word elen, const std::vector<Run>& runs) {
    for (const Run& r : runs) {
      if (!table_.empty() && !r.p.removed && !table_.back().removed &&
          table_.back().frag == r.p.frag && table_.back().delta == r.p.delta) {
        continue;
      }
      table_.push(r.lo, r.p);
    }
    table_.finish(elen);
  }

  Word elen_;
  PieceTable<Piece> table_;
  std::vector<Word> no_index_;  ///< per fragment
};

/// One component a stage rewrote, as the stage's batch log keeps it: its
/// compiled map and the final label of each of its split's fragments.
struct StageRewrite {
  Word comp = 0;
  StageMap map;
  std::vector<Word> labels;  ///< fragment -> final label
};

/// The entry of `stage` (sorted by comp) that rewrote `comp`, or null.
inline const StageRewrite* find_rewrite(std::span<const StageRewrite> stage,
                                        Word comp) {
  const auto it = std::lower_bound(
      stage.begin(), stage.end(), comp,
      [](const StageRewrite& r, Word c) { return r.comp < c; });
  return it == stage.end() || it->comp != comp ? nullptr : &*it;
}

// ---------------------------------------------------------------------------
// Composed stage maps: where one component's entries went over several
// stages.  The pending log's stages rewrite components one StageMap at a
// time, and a fragment's label names the component a later stage
// rewrites next, so the entries of one starting component (index space
// [0, elen] of its tour before the first stage) follow a chain of maps.
// Composing them gives one more piecewise table over the starting
// indexes, each piece {label, delta}: entry i is now entry i + delta of
// component `label`.  A piece removed by stage t (an entry of an edge stage t cut)
// keeps the label stage t rewrote and records t: such an entry has no
// image, and its owner vertex's appearance comes from that stage's cut
// fix instead.
//
// then() pushes every live piece whose label the stage rewrote through
// that label's StageMap: the piece's image is one interval of the map's
// domain, which the map's breakpoints cut into O(pieces) parts.  Each
// stage's pieces start at odd indexes and every map keeps parity, so a
// composed piece starts at an odd index too and the two entries of a
// traversal still share one.  A label names one component at a time (a
// split's remainder keeps it, a dissolved one is never handed out
// again), so stage t's map of a label applies to every piece that
// carries it after stage t - 1.  A map keeps the sorted set of labels
// its live pieces carry, so a stage that rewrites none of them costs it
// one merge-walk of two short lists instead of a rebuild.
// ---------------------------------------------------------------------------
class ComposedMap {
  // A composed map outlives many stages and grows with them; random
  // lookups (reads of scattered vertices) keep its directory in cache
  // at this density.
  static constexpr std::size_t kBucketsPerPiece = 4;

 public:
  struct Piece {
    Word delta = 0;  ///< live: the current index is old index + delta
    Word label = 0;  ///< live: the current label; removed: the label the
                     ///< removing stage rewrote
    std::uint32_t removed_at = 0;  ///< 0: live; else the removing stage
  };

  /// The identity over [0, elen] under `label`.
  ComposedMap(Word elen, Word label) : elen_(elen), labels_{label} {
    table_.push(0, Piece{0, label, 0});
    table_.finish(elen_);
  }

  /// Whether stage `stage` (sorted by comp) rewrites a label some live
  /// piece carries.
  [[nodiscard]] bool touched_by(std::span<const StageRewrite> stage) const {
    auto l = labels_.begin();
    auto r = stage.begin();
    while (l != labels_.end() && r != stage.end()) {
      if (*l == r->comp) return true;
      if (*l < r->comp) {
        ++l;
      } else {
        ++r;
      }
    }
    return false;
  }

  /// Composes stage t (t >= 1): `stage` lists the components it rewrote,
  /// sorted by comp.
  void then(std::uint32_t t, std::span<const StageRewrite> stage) {
    if (!touched_by(stage)) return;
    PieceTable<Piece, kBucketsPerPiece> out;
    labels_.clear();
    const auto emit = [&](Word lo, const Piece& p) {
      if (p.removed_at == 0) labels_.push_back(p.label);
      if (!out.empty()) {
        const Piece& b = out.back();
        if (b.label == p.label && b.removed_at == p.removed_at &&
            (p.removed_at != 0 || b.delta == p.delta)) {
          return;
        }
      }
      out.push(lo, p);
    };
    for (std::size_t q = 0; q < table_.size(); ++q) {
      const Piece& p = table_[q];
      const Word lo = table_.start(q);
      const StageRewrite* rw =
          p.removed_at != 0 ? nullptr : find_rewrite(stage, p.label);
      if (rw == nullptr) {
        emit(lo, p);
        continue;
      }
      // The piece's image [a, b] in the rewritten component's old tour.
      const Word hi = std::min(table_.start(q + 1) - 1, elen_);
      const Word a = lo + p.delta;
      const Word b = hi + p.delta;
      for (std::size_t s = rw->map.piece_index(a);
           s < rw->map.pieces() && rw->map.piece_start(s) <= b; ++s) {
        const StageMap::Piece& sp = rw->map.piece_at(s);
        const Word from = std::max(a, rw->map.piece_start(s)) - p.delta;
        if (sp.removed) {
          emit(from, Piece{p.delta, p.label, t});
        } else {
          emit(from, Piece{p.delta + sp.delta, rw->labels[sp.frag], 0});
        }
      }
    }
    out.finish(elen_);
    table_ = std::move(out);
    std::sort(labels_.begin(), labels_.end());
    labels_.erase(std::unique(labels_.begin(), labels_.end()), labels_.end());
  }

  /// The piece holding starting index i (0 <= i <= elen).
  const Piece& piece(Word i) const { return table_.find(i); }
  std::size_t pieces() const { return table_.size(); }
  /// Piece q, and its first starting index (piece_start(pieces()) is a
  /// max() sentinel).
  const Piece& piece_at(std::size_t q) const { return table_[q]; }
  Word piece_start(std::size_t q) const { return table_.start(q); }
  /// The starting tour's length: the map covers [0, elen].
  Word elen() const { return elen_; }
  /// The labels the live pieces carry, sorted.
  std::span<const Word> labels() const { return labels_; }

 private:
  Word elen_;
  PieceTable<Piece, kBucketsPerPiece> table_;
  std::vector<Word> labels_;
};

}  // namespace etour
