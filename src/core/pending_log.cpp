#include "core/pending_log.hpp"

#include <algorithm>
#include <bit>
#include <span>

namespace core {

void PendingLog::reset(std::uint32_t gen, Word first_new) {
  generation = gen;
  first_new_label = first_new;
  stages = 0;
  composed.clear();
  index_.clear();
  index_shift_ = 64;
  tracked.clear();
  fixes.clear();
  fix_begin.clear();
}

std::size_t PendingLog::words() const {
  std::size_t pieces = 0;
  for (const auto& entry : composed) pieces += entry.second->pieces();
  return 4 * pieces + 3 * (tracked.size() + fixes.size());
}

void PendingLog::append(const PendingStage& stage) {
  const std::uint32_t t = ++stages;
  const std::span<const etour::StageRewrite> rewrites(stage.rewrites);
  for (auto& entry : composed) {
    if (!entry.second->touched_by(rewrites)) continue;
    auto next = std::make_shared<etour::ComposedMap>(*entry.second);
    next->then(t, rewrites);
    index(entry.first, next.get());
    entry.second = std::move(next);
  }
  // A base component this stage rewrites first still holds its base
  // coordinates: its composition starts here.
  for (const etour::StageRewrite& rw : rewrites) {
    if (rw.comp >= first_new_label || composed_of(rw.comp) != nullptr) {
      continue;
    }
    auto cm = std::make_shared<etour::ComposedMap>(rw.map.elen(), rw.comp);
    cm->then(t, rewrites);
    open(rw.comp, std::move(cm));
  }
  // Every tracked appearance moves through the stage; one whose entry
  // the stage removed takes its owner's cut fix.  Then the stage's own
  // fixes, already current, are tracked.
  for (Tracked& e : tracked) {
    const etour::StageRewrite* rw = etour::find_rewrite(rewrites, e.at.comp);
    if (rw == nullptr) continue;
    const etour::StageMap::Piece& p = rw->map.piece(e.at.idx);
    e.at = p.removed ? stage.cut_fix.at({e.at.comp, e.vert})
                     : Appearance{rw->labels[p.frag], e.at.idx + p.delta};
  }
  fix_begin.push_back(static_cast<std::uint32_t>(fixes.size()));
  for (const auto& [key, at] : stage.cut_fix) {
    fixes.push_back(
        {key.first, key.second, static_cast<std::uint32_t>(tracked.size())});
    tracked.push_back({at, key.second});
  }
}

std::uint32_t PendingLog::track(Appearance a1, VertexId v1, Appearance a2,
                                VertexId v2) {
  const auto id = static_cast<std::uint32_t>(tracked.size());
  assert(id + 1 < kTracked);
  tracked.push_back({a1, v1});
  tracked.push_back({a2, v2});
  return kTracked | id;
}

void PendingLog::open(Word comp,
                      std::shared_ptr<const etour::ComposedMap> cm) {
  composed.emplace_back(comp, std::move(cm));
  if (2 * composed.size() > index_.size()) {
    // Double the index (from 16 slots) and re-insert every map.
    index_shift_ = index_.empty() ? 60 : index_shift_ - 1;
    index_.assign(std::size_t{1} << (64 - index_shift_), Slot{});
    for (const auto& [c, map] : composed) index(c, map.get());
  } else {
    index(comp, composed.back().second.get());
  }
}

void PendingLog::index(Word comp, const etour::ComposedMap* cm) {
  std::size_t h = slot_of(comp);
  while (index_[h].map != nullptr && index_[h].comp != comp) {
    h = (h + 1) & (index_.size() - 1);
  }
  index_[h] = {comp, cm};
}

void PendingLog::map_back(Word label, std::span<const TourRange> ranges,
                          std::vector<TourRange>& out) const {
  if (ranges.empty()) return;
  // The first range that ends at or after index i.
  const auto from = [&](Word i) {
    return std::lower_bound(
        ranges.begin(), ranges.end(), i,
        [](const TourRange& r, Word at) { return r.hi < at; });
  };
  if (label < first_new_label && composed_of(label) == nullptr) {
    out.insert(out.end(), ranges.begin(), ranges.end());
  }
  // Whether stage t fixed an owner of an entry of `comp` into `ranges`.
  const auto fixed_into = [&](std::uint32_t t, Word comp) {
    const FixRef* first = fixes.data() + fix_begin[t - 1];
    const FixRef* last =
        fixes.data() + (t < fix_begin.size() ? fix_begin[t] : fixes.size());
    for (const FixRef* f = std::lower_bound(
             first, last, comp,
             [](const FixRef& r, Word c) { return r.comp < c; });
         f != last && f->comp == comp; ++f) {
      const Appearance at = tracked[f->id].at;
      if (at.comp != label) continue;
      const auto it = from(at.idx);
      if (it != ranges.end() && it->lo <= at.idx) return true;
    }
    return false;
  };
  for (const auto& [base, cm] : composed) {
    const std::span<const Word> labels = cm->labels();
    const bool carries =
        std::binary_search(labels.begin(), labels.end(), label);
    for (std::size_t q = 0; q < cm->pieces(); ++q) {
      const etour::ComposedMap::Piece& p = cm->piece_at(q);
      const Word lo = cm->piece_start(q);
      const Word hi = std::min(cm->piece_start(q + 1) - 1, cm->elen());
      if (p.removed_at != 0) {
        if (fixed_into(p.removed_at, p.label)) out.push_back({base, lo, hi});
        continue;
      }
      if (!carries || p.label != label) continue;
      for (auto it = from(lo + p.delta);
           it != ranges.end() && it->lo <= hi + p.delta; ++it) {
        out.push_back({base, std::max(lo, it->lo - p.delta),
                       std::min(hi, it->hi - p.delta)});
      }
    }
  }
}

void RecordIndex::build(const EdgeShard& es, const PendingLog& log) {
  drop();
  // Non-tree entries under their base component, sorted, then split
  // into one run per component.
  std::vector<std::pair<Word, Entry>> by_comp;
  std::size_t tree_entries = 0;
  for (std::size_t s = 0; s < es.size(); ++s) {
    if (es.tree[s] != 0) {
      tree_entries += 2;
    } else if (log.at_base(es.ver[s])) {
      by_comp.emplace_back(es.comp[s], entry(es.iu1[s], s));
      by_comp.emplace_back(es.comp[s], entry(es.iv1[s], s));
    } else {
      side_.push_back(static_cast<std::uint32_t>(s));
    }
  }
  on_side_.assign(es.size(), 0);
  for (const std::uint32_t s : side_) on_side_[s] = 1;
  std::sort(by_comp.begin(), by_comp.end());
  for (const auto& [comp, e] : by_comp) {
    if (comps_.empty() || comps_.back() != comp) {
      if (!comps_.empty()) {
        comp_end_.push_back(static_cast<std::uint32_t>(nontree_.size()));
      }
      comps_.push_back(comp);
    }
    nontree_.push_back(e);
  }
  if (!comps_.empty()) {
    comp_end_.push_back(static_cast<std::uint32_t>(nontree_.size()));
  }
  // Tree entries by a counting sort on their buckets: count, sum to
  // each bucket's end, then place back to front, so that each bucket
  // ends at its start and keeps slot order.
  const std::size_t buckets = std::bit_ceil(
      std::max<std::size_t>(2, tree_entries / kEntriesPerBucket));
  bucket_shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  tree_begin_.assign(buckets + 1, 0);
  for (std::size_t s = 0; s < es.size(); ++s) {
    if (es.tree[s] == 0) continue;
    ++tree_begin_[bucket(es.u[s])];
    ++tree_begin_[bucket(es.v[s])];
  }
  for (std::size_t b = 1; b < buckets; ++b) {
    tree_begin_[b] += tree_begin_[b - 1];
  }
  tree_begin_[buckets] = static_cast<std::uint32_t>(tree_entries);
  tree_.resize(tree_entries);
  for (std::size_t s = es.size(); s-- > 0;) {
    if (es.tree[s] == 0) continue;
    tree_[--tree_begin_[bucket(es.v[s])]] = entry(es.v[s], s);
    tree_[--tree_begin_[bucket(es.u[s])]] = entry(es.u[s], s);
  }
  built_ = true;
}

void RecordIndex::drop() {
  comps_.clear();
  comp_end_.clear();
  nontree_.clear();
  tree_.clear();
  tree_begin_.clear();
  side_.clear();
  on_side_.clear();
  built_ = false;
}

void RecordIndex::collect(std::span<const TourRange> ranges,
                          std::span<const VertexId> verts, std::size_t size,
                          std::vector<std::uint32_t>& out) const {
  out.clear();
  const auto key_of = [](Entry e) { return static_cast<Word>(e >> 32); };
  const auto slot_of = [](Entry e) { return static_cast<std::uint32_t>(e); };
  for (const TourRange& r : ranges) {
    const auto c = std::lower_bound(comps_.begin(), comps_.end(), r.comp);
    if (c == comps_.end() || *c != r.comp) continue;
    const auto k = static_cast<std::size_t>(c - comps_.begin());
    const Entry* last = nontree_.data() + comp_end_[k];
    for (const Entry* e = std::lower_bound(
             nontree_.data() + (k == 0 ? 0 : comp_end_[k - 1]), last,
             entry(r.lo, 0));
         e != last && key_of(*e) <= r.hi; ++e) {
      out.push_back(slot_of(*e));
    }
  }
  for (const VertexId v : verts) {
    const std::size_t b = bucket(v);
    for (std::size_t e = tree_begin_[b]; e < tree_begin_[b + 1]; ++e) {
      if (key_of(tree_[e]) == v) out.push_back(slot_of(tree_[e]));
    }
  }
  out.insert(out.end(), side_.begin(), side_.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  while (!out.empty() && out.back() >= size) out.pop_back();
}

}  // namespace core
