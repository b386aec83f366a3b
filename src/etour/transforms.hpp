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
// functions are that algebra.
//
// Figure-validated correction: for the merge, the paper writes the shift
// of the remaining Tx indexes as "i + 4*ELength_Ty"; the arithmetic
// consistent with its own Figure 1(iii) (and with ELength = 4(|T|-1)) is
// "i + ELength_Ty + 4" — the tour grows by the inserted tour plus the 4
// new entries of the linking edge.  We implement the corrected form and
// pin Figure 1 in a golden test.
#pragma once

#include <algorithm>
#include <cstddef>
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
  Word new_index(Word i) const { return new_index(i, fragment_of(i)); }

  /// new_index for a caller that already knows frag == fragment_of(i)
  /// (the commit pass maps a tree edge's 4 entries, all in one fragment).
  Word new_index(Word i, std::size_t frag) const {
    Word idx = frag == 0 ? i : i - cuts_[frag - 1].f_c;
    for (const std::size_t m : children_[frag]) {
      if (cuts_[m].l_c + 1 < i) idx -= cuts_[m].l_c - cuts_[m].f_c + 3;
    }
    return idx;
  }

  /// ELength of a fragment's tour.
  Word fragment_elength(std::size_t frag) const { return elens_[frag]; }

 private:
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

}  // namespace etour
