#include "core/record_index.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <iterator>
#include <limits>
#include <tuple>
#include <utility>

namespace core {

namespace {

/// Appends `e` under `label` to runs (comps, ends, entries) that arrive
/// in (label, entry) order.
template <class Entry>
void append_run(std::vector<Word>& comps, std::vector<std::uint32_t>& ends,
                std::vector<Entry>& entries, Word label, Entry e) {
  if (comps.empty() || comps.back() != label) {
    if (!comps.empty()) {
      ends.push_back(static_cast<std::uint32_t>(entries.size()));
    }
    comps.push_back(label);
  }
  entries.push_back(e);
}

template <class Entry>
void close_runs(const std::vector<Word>& comps,
                std::vector<std::uint32_t>& ends,
                const std::vector<Entry>& entries) {
  if (!comps.empty()) {
    ends.push_back(static_cast<std::uint32_t>(entries.size()));
  }
}

/// Sorts `v` stably by field(x), an unsigned value at most `max`: one
/// counting pass per 11-bit digit the values use, skipping a digit every
/// element shares.  A comparison sort of a 2^18-vertex forest's non-tree
/// entries cost a build about four times as much.
template <class T, class Field>
void radix_sort(std::vector<T>& v, std::vector<T>& tmp, std::uint64_t max,
                Field field) {
  constexpr unsigned kDigitBits = 11;
  constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDigitBits) - 1;
  std::array<std::uint32_t, std::size_t{1} << kDigitBits> count{};
  tmp.resize(v.size());
  for (unsigned shift = 0; shift < 64 && (max >> shift) != 0 && !v.empty();
       shift += kDigitBits) {
    const auto digit = [&](const T& x) {
      return static_cast<std::size_t>((field(x) >> shift) & kDigitMask);
    };
    count.fill(0);
    for (const T& x : v) ++count[digit(x)];
    if (count[digit(v.front())] == v.size()) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& c : count) sum += std::exchange(c, sum);
    for (const T& x : v) tmp[count[digit(x)]++] = x;
    v.swap(tmp);
  }
}

}  // namespace

void RecordIndex::build(const ShardOf& shard, const PendingLog& log) {
  drop();
  std::size_t largest = 0;
  std::size_t nontree = 0;
  for (std::size_t m = 0; m < machines_; ++m) {
    const EdgeShard& es = shard(m);
    largest = std::max(largest, es.size());
    nontree += static_cast<std::size_t>(
        std::count(es.tree.begin(), es.tree.end(), 0));
  }
  head_.assign(n_, kNil);
  next_.assign(2 * machines_ * largest, kNil);
  std::uint32_t* const head = head_.data();
  std::uint32_t* const next = next_.data();
  // Non-tree entries under their base component, sorted by component
  // and key (ties, entries of one tour index, in any order), then split
  // into one run per component.
  std::vector<std::pair<Word, Entry>> by_comp;
  by_comp.reserve(2 * nontree);
  std::uint64_t max_comp = 0, max_key = 0;
  for (std::size_t m = 0; m < machines_; ++m) {
    const EdgeShard& es = shard(m);
    for (std::size_t s = 0; s < es.size(); ++s) {
      const std::uint32_t h = 2 * id(m, s);
      if (es.tree[s] != 0) {
        const auto u = static_cast<std::size_t>(es.u[s]);
        const auto v = static_cast<std::size_t>(es.v[s]);
        next[h] = std::exchange(head[u], h);
        next[h + 1] = std::exchange(head[v], h + 1);
      } else if (log.at_base(es.ver[s])) {
        const Word comp = es.comp[s];
        by_comp.emplace_back(comp, entry(es.iu1[s], h));
        by_comp.emplace_back(comp, entry(es.iv1[s], h + 1));
        max_comp = std::max(max_comp, static_cast<std::uint64_t>(comp));
        max_key = std::max({max_key, static_cast<std::uint64_t>(es.iu1[s]),
                            static_cast<std::uint64_t>(es.iv1[s])});
      } else {
        note(m, s, nullptr);
      }
    }
  }
  // Key first, then the component (labels are >= 0).
  std::vector<std::pair<Word, Entry>> tmp;
  radix_sort(by_comp, tmp, max_key,
             [](const std::pair<Word, Entry>& x) { return x.second >> 32; });
  radix_sort(by_comp, tmp, max_comp, [](const std::pair<Word, Entry>& x) {
    return static_cast<std::uint64_t>(x.first);
  });
  for (const auto& [comp, e] : by_comp) {
    append_run(comps_, comp_end_, nontree_, comp, e);
  }
  close_runs(comps_, comp_end_, nontree_);
  built_ = true;
}

void RecordIndex::drop() {
  comps_.clear();
  comp_end_.clear();
  nontree_.clear();
  head_.clear();
  next_.clear();
  recent_.clear();
  folded_.clear();
  for (const Side& e : side_) on_side_[e.id] = 0;
  side_.clear();
  unfolded_ = 0;
  built_ = false;
}

void RecordIndex::restore(Mark mark) {
  if (!mark.built) {
    drop();
    return;
  }
  for (std::size_t i = mark.side; i < side_.size(); ++i) {
    on_side_[side_[i].id] = 0;
  }
  side_.resize(mark.side);
  unfolded_ = std::min(unfolded_, side_.size());
}

void RecordIndex::note(std::size_t m, std::size_t s, const EdgeShard* es) {
  const std::uint32_t slot_id = id(m, s);
  if (slot_id >= on_side_.size()) on_side_.resize(slot_id + 1, 0);
  if (on_side_[slot_id] != 0) return;
  on_side_[slot_id] = 1;
  Side e{slot_id};
  if (es == nullptr) {
    // A slot created since: the index holds nothing for it.
  } else if (es->tree[s] != 0) {
    e.u = static_cast<std::uint32_t>(es->u[s]);
    e.v = static_cast<std::uint32_t>(es->v[s]);
  } else if (const auto f = folded_.find(slot_id); f != folded_.end()) {
    e.keyed = true;
    std::tie(e.k1, e.k2) = f->second;
  } else {
    // Entered at base by the build, a rekey or a fold, and not written
    // since.
    assert((es->ver[s] & PendingLog::kTracked) == 0);
    e.keyed = true;
    e.k1 = {es->comp[s], es->iu1[s]};
    e.k2 = {es->comp[s], es->iv1[s]};
  }
  side_.push_back(e);
}

void RecordIndex::link(VertexId vert, std::uint32_t h) {
  if (h >= next_.size()) {
    next_.resize(std::max<std::size_t>(h + 1, 2 * next_.size()), kNil);
  }
  std::uint32_t& first = head_[static_cast<std::size_t>(vert)];
  next_[h] = first;
  first = h;
}

void RecordIndex::unlink(std::uint32_t vert, std::uint32_t h) {
  for (std::uint32_t* at = &head_[vert]; *at != kNil; at = &next_[*at]) {
    if (*at == h) {
      *at = next_[h];
      return;
    }
  }
  assert(false && "a side-list slot's tree entry is not listed");
}

void RecordIndex::collect(const ShardOf& shard,
                          std::span<const TourRange> ranges,
                          std::span<const VertexId> verts,
                          std::vector<std::uint64_t>& out) const {
  out.clear();
  // An entry of a slot erased since (the side list has it) names nothing.
  const auto push = [&](std::uint32_t slot_id) {
    const std::size_t m = slot_id % machines_;
    const std::size_t s = slot_id / machines_;
    if (s < shard(m).size()) {
      out.push_back((static_cast<std::uint64_t>(m) << 32) | s);
    }
  };
  for (const TourRange& r : ranges) {
    const auto c = std::lower_bound(comps_.begin(), comps_.end(), r.comp);
    if (c == comps_.end() || *c != r.comp) continue;
    const auto k = static_cast<std::size_t>(c - comps_.begin());
    const Entry* last = nontree_.data() + comp_end_[k];
    for (const Entry* e = std::lower_bound(
             nontree_.data() + (k == 0 ? 0 : comp_end_[k - 1]), last,
             entry(r.lo, 0));
         e != last && key_of(*e) <= r.hi; ++e) {
      if (!dead(*e)) push(half_of(*e) / 2);
    }
  }
  for (const TourRange& r : ranges) {
    for (auto e = std::lower_bound(recent_.begin(), recent_.end(),
                                   std::pair{r.comp, entry(r.lo, 0)});
         e != recent_.end() && e->first == r.comp && key_of(e->second) <= r.hi;
         ++e) {
      push(half_of(e->second) / 2);
    }
  }
  for (const VertexId v : verts) {
    for (std::uint32_t h = head_[static_cast<std::size_t>(v)]; h != kNil;
         h = next_[h]) {
      push(h / 2);
    }
  }
  // A side-list slot as it is now: a tree record is a candidate only
  // under a vertex of `verts`, as its entries would be.
  const auto in_verts = [&](VertexId v) {
    return std::binary_search(verts.begin(), verts.end(), v);
  };
  for (const Side& e : side_) {
    const EdgeShard& es = shard(e.id % machines_);
    const std::size_t s = e.id / machines_;
    if (s < es.size() && es.tree[s] != 0 && !in_verts(es.u[s]) &&
        !in_verts(es.v[s])) {
      continue;
    }
    push(e.id);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void RecordIndex::rekey(const ShardOf& shard, const PendingLog& log) {
  if (!built_) return;
  const auto record = [&](std::uint32_t slot_id) {
    return std::pair<const EdgeShard&, std::size_t>(
        shard(slot_id % machines_), slot_id / machines_);
  };
  unlink_side();
  // Non-tree entries off the side list, run by run: an entry in a live
  // piece moves with the piece, in order, so each piece's entries are one
  // sorted segment.  An entry the log removed resolves through a cut fix,
  // so it takes the appearance the compaction wrote to its record.
  segments_.clear();
  loose_.clear();
  for (std::size_t k = 0; k < comps_.size(); ++k) {
    const Word comp = comps_[k];
    const std::size_t first = k == 0 ? 0 : comp_end_[k - 1];
    const std::size_t last = comp_end_[k];
    const etour::ComposedMap* cm = log.composed_of(comp);
    if (cm == nullptr) {
      segments_.push_back({comp, 0, first, last});
      continue;
    }
    std::size_t q = 0;
    for (std::size_t i = first; i < last;) {
      const Word key = key_of(nontree_[i]);
      while (cm->piece_start(q + 1) <= key) ++q;
      const etour::ComposedMap::Piece& p = cm->piece_at(q);
      if (p.removed_at == 0) {
        const std::size_t begin = i;
        const Word end_key = cm->piece_start(q + 1);
        while (i < last && key_of(nontree_[i]) < end_key) ++i;
        segments_.push_back({p.label, p.delta, begin, i});
        continue;
      }
      const std::uint32_t half = half_of(nontree_[i]);
      if (half != kDead && !on_side(half / 2)) {
        const auto [es, s] = record(half / 2);
        loose_.emplace_back(
            es.comp[s], entry((half & 1) != 0 ? es.iv1[s] : es.iu1[s], half));
      }
      ++i;
    }
  }
  rekey_overlay(shard, log);
  // The side list's records, each as the compaction left it.
  for (const Side& e : side_) {
    const auto [es, s] = record(e.id);
    if (s >= es.size()) continue;
    const std::uint32_t h = 2 * e.id;
    if (es.tree[s] != 0) {
      link(es.u[s], h);
      link(es.v[s], h + 1);
    } else {
      loose_.emplace_back(es.comp[s], entry(es.iu1[s], h));
      loose_.emplace_back(es.comp[s], entry(es.iv1[s], h + 1));
    }
  }
  merge_entries();
  recent_.clear();
  folded_.clear();
  for (const Side& e : side_) on_side_[e.id] = 0;
  side_.clear();
  unfolded_ = 0;
}

void RecordIndex::rekey_overlay(const ShardOf& shard, const PendingLog& log) {
  // As the runs' entries: a live piece's move, or a removed entry's
  // record as the compaction wrote it.
  for (const auto& [comp, e] : recent_) {
    const std::uint32_t half = half_of(e);
    if (on_side(half / 2)) continue;
    const etour::ComposedMap* cm = log.composed_of(comp);
    if (cm == nullptr) {
      loose_.emplace_back(comp, e);
      continue;
    }
    const etour::ComposedMap::Piece& p = cm->piece(key_of(e));
    if (p.removed_at == 0) {
      loose_.emplace_back(p.label, e + (static_cast<Entry>(p.delta) << 32));
      continue;
    }
    const EdgeShard& es = shard(half / 2 % machines_);
    const std::size_t s = half / 2 / machines_;
    loose_.emplace_back(
        es.comp[s], entry((half & 1) != 0 ? es.iv1[s] : es.iu1[s], half));
  }
}

void RecordIndex::fold(const ShardOf& shard, const PendingLog& log) {
  if (!built_) return;
  unlink_side();
  // Every live piece's image, by (label, lo): images of one label are
  // disjoint ranges of its tour.
  images_.clear();
  for (const auto& [base, cm] : log.composed) {
    for (std::size_t q = 0; q < cm->pieces(); ++q) {
      const etour::ComposedMap::Piece& p = cm->piece_at(q);
      if (p.removed_at != 0) continue;
      const Word lo = cm->piece_start(q);
      const Word hi = std::min(cm->piece_start(q + 1) - 1, cm->elen());
      images_.push_back({p.label, lo + p.delta, hi + p.delta, base, p.delta});
    }
  }
  std::sort(images_.begin(), images_.end(),
            [](const Image& a, const Image& b) {
              return std::tie(a.label, a.lo) < std::tie(b.label, b.lo);
            });
  // The side list's records bury the entries they had and enter the
  // overlay where they now are, or stay on the side list.
  loose_.clear();
  kept_.clear();
  for (const Side& e : side_) {
    if (e.keyed) {
      bury(e.k1, 2 * e.id);
      bury(e.k2, 2 * e.id + 1);
      folded_.erase(e.id);
    }
    const EdgeShard& es = shard(e.id % machines_);
    const std::size_t s = e.id / machines_;
    if (s >= es.size()) continue;
    const std::uint32_t h = 2 * e.id;
    if (es.tree[s] != 0) {
      link(es.u[s], h);
      link(es.v[s], h + 1);
      continue;
    }
    const std::uint32_t version = es.ver[s];
    Appearance a1{es.comp[s], es.iu1[s]}, a2{es.comp[s], es.iv1[s]};
    if ((version & PendingLog::kTracked) != 0) {
      const std::uint32_t t = version & ~PendingLog::kTracked;
      if (!base_of(log, log.tracked[t].at, a1) ||
          !base_of(log, log.tracked[t + 1].at, a2)) {
        kept_.push_back({e.id});
        continue;
      }
      folded_[e.id] = {a1, a2};
    } else {
      assert(log.at_base(version));
    }
    loose_.emplace_back(a1.comp, entry(a1.idx, h));
    loose_.emplace_back(a2.comp, entry(a2.idx, h + 1));
  }
  std::sort(loose_.begin(), loose_.end());
  recent_out_.clear();
  std::merge(recent_.begin(), recent_.end(), loose_.begin(), loose_.end(),
             std::back_inserter(recent_out_));
  recent_.swap(recent_out_);
  for (const Side& e : side_) on_side_[e.id] = 0;
  for (const Side& e : kept_) on_side_[e.id] = 1;
  side_.swap(kept_);
  unfolded_ = side_.size();
}

void RecordIndex::bury(Appearance a, std::uint32_t half) {
  const auto c = std::lower_bound(comps_.begin(), comps_.end(), a.comp);
  if (c != comps_.end() && *c == a.comp) {
    const auto k = static_cast<std::size_t>(c - comps_.begin());
    Entry* const last = nontree_.data() + comp_end_[k];
    for (Entry* e = std::lower_bound(
             nontree_.data() + (k == 0 ? 0 : comp_end_[k - 1]), last,
             entry(a.idx, 0));
         e != last && key_of(*e) == a.idx; ++e) {
      if (half_of(*e) == half) {
        // In place: the runs stay sorted by key.
        *e = entry(a.idx, kDead);
        return;
      }
    }
  }
  for (auto e = std::lower_bound(recent_.begin(), recent_.end(),
                                 std::pair{a.comp, entry(a.idx, 0)});
       e != recent_.end() && e->first == a.comp && key_of(e->second) == a.idx;
       ++e) {
    if (half_of(e->second) == half) {
      recent_.erase(e);
      return;
    }
  }
  assert(false && "a side-list slot's non-tree entry is not in the index");
}

bool RecordIndex::base_of(const PendingLog& log, Appearance a,
                          Appearance& out) const {
  if (a.comp < log.first_new_label && log.composed_of(a.comp) == nullptr) {
    out = a;  // a component the log has not moved
    return true;
  }
  const auto it = std::upper_bound(
      images_.begin(), images_.end(), std::pair{a.comp, a.idx},
      [](const std::pair<Word, Word>& at, const Image& im) {
        return at < std::pair{im.label, im.lo};
      });
  if (it == images_.begin()) return false;
  const Image& im = *std::prev(it);
  if (im.label != a.comp || a.idx > im.hi) return false;
  out = {im.base, a.idx - im.delta};
  return true;
}

void RecordIndex::unlink_side() {
  // The side list's tree entries leave their lists before its records
  // are entered again.
  for (const Side& e : side_) {
    if (e.u == kNil) continue;
    unlink(e.u, 2 * e.id);
    unlink(e.v, 2 * e.id + 1);
  }
}

void RecordIndex::merge_entries() {
  // Pieces map onto disjoint index ranges, so segments of one label
  // never interleave: sorted by their first entry, they concatenate in
  // order, and the loose entries merge in.
  const auto shift = [](Word delta) {
    return static_cast<Entry>(delta) << 32;
  };
  std::sort(segments_.begin(), segments_.end(),
            [&](const Segment& a, const Segment& b) {
              const Entry ea = nontree_[a.begin] + shift(a.delta);
              const Entry eb = nontree_[b.begin] + shift(b.delta);
              return std::tie(a.label, ea) < std::tie(b.label, eb);
            });
  std::sort(loose_.begin(), loose_.end());
  comps_out_.clear();
  comp_end_out_.clear();
  nontree_out_.clear();
  nontree_out_.reserve(nontree_.size());
  auto l = loose_.begin();
  const auto emit_loose_before = [&](Word label, Entry e) {
    for (; l != loose_.end() && std::tie(l->first, l->second) <
                                    std::tie(label, e);
         ++l) {
      append_run(comps_out_, comp_end_out_, nontree_out_, l->first,
                 l->second);
    }
  };
  for (const Segment& seg : segments_) {
    for (std::size_t i = seg.begin; i < seg.end; ++i) {
      if (dead(nontree_[i]) || on_side(half_of(nontree_[i]) / 2)) continue;
      const Entry e = nontree_[i] + shift(seg.delta);
      emit_loose_before(seg.label, e);
      append_run(comps_out_, comp_end_out_, nontree_out_, seg.label, e);
    }
  }
  emit_loose_before(std::numeric_limits<Word>::max(), 0);
  close_runs(comps_out_, comp_end_out_, nontree_out_);
  comps_.swap(comps_out_);
  comp_end_.swap(comp_end_out_);
  nontree_.swap(nontree_out_);
}

RecordIndex::Coverage RecordIndex::audit(const ShardOf& shard,
                                         const PendingLog& log) const {
  Coverage out;
  if (!built_) return out;
  // (current comp, current index, half-entry) of every non-tree entry,
  // and (vertex, half-entry) of every tree entry, off the side list.
  using Key = std::tuple<Word, Word, std::uint32_t>;
  std::vector<Key> want, have;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> want_tree, have_tree;
  for (std::size_t m = 0; m < machines_; ++m) {
    const EdgeShard& es = shard(m);
    PendingLog::Cursor cursor(log);
    for (std::size_t s = 0; s < es.size(); ++s) {
      const std::uint32_t h = 2 * id(m, s);
      if (on_side(h / 2)) continue;
      if (es.tree[s] != 0) {
        want_tree.emplace_back(static_cast<std::uint32_t>(es.u[s]), h);
        want_tree.emplace_back(static_cast<std::uint32_t>(es.v[s]), h + 1);
        continue;
      }
      const etour::ComposedMap* cm = cursor.of(es, s);
      const EdgeRec r = log.current(es, s, cm, log.first_entry(es, s, cm));
      want.emplace_back(r.comp, r.iu1, h);
      want.emplace_back(r.comp, r.iv1, h + 1);
    }
  }
  const auto have_entry = [&](Word comp, Entry e) {
    const std::uint32_t half = half_of(e);
    if (half == kDead || on_side(half / 2)) return;
    const EdgeShard& es = shard(half / 2 % machines_);
    const std::size_t s = half / 2 / machines_;
    if (s >= es.size() || es.tree[s] != 0) {
      ++out.stale;
      return;
    }
    const Appearance a =
        log.resolve({comp, key_of(e)}, (half & 1) != 0 ? es.v[s] : es.u[s],
                    log.composed_of(comp));
    have.emplace_back(a.comp, a.idx, half);
  };
  for (std::size_t k = 0; k < comps_.size(); ++k) {
    for (std::size_t i = k == 0 ? 0 : comp_end_[k - 1]; i < comp_end_[k];
         ++i) {
      have_entry(comps_[k], nontree_[i]);
    }
  }
  for (const auto& [comp, e] : recent_) have_entry(comp, e);
  for (std::size_t v = 0; v < head_.size(); ++v) {
    for (std::uint32_t h = head_[v]; h != kNil; h = next_[h]) {
      if (!on_side(h / 2)) {
        have_tree.emplace_back(static_cast<std::uint32_t>(v), h);
      }
    }
  }
  const auto compare = [&](auto& a, auto& b) {
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::size_t common = 0;
    for (auto i = a.begin(), j = b.begin(); i != a.end() && j != b.end();) {
      if (*i < *j) {
        ++i;
      } else if (*j < *i) {
        ++j;
      } else {
        ++common;
        ++i;
        ++j;
      }
    }
    out.missing += a.size() - common;
    out.stale += b.size() - common;
  };
  compare(want, have);
  compare(want_tree, have_tree);
  return out;
}

}  // namespace core
