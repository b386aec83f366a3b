// One machine's edge records: the record type and its structure-of-arrays
// store.  DynamicForest keeps one EdgeShard per machine; the pending log
// (pending_log.hpp) resolves the records it moved through the shard's
// columns.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dmpc/types.hpp"
#include "graph/graph.hpp"

namespace core {

using dmpc::VertexId;
using dmpc::Word;
using graph::Weight;

/// One edge record, as the shard's columns hold it.
struct EdgeRec {
  VertexId u = dmpc::kNoVertex;  // canonical u < v
  VertexId v = dmpc::kNoVertex;
  Word comp = -1;
  bool tree = false;
  Weight w = 1;
  // Tree edges: the 4 tour indexes the edge owns (two per endpoint).
  // Non-tree edges: iu1 / iv1 cache one tour index per endpoint.
  Word iu1 = 0, iu2 = 0, iv1 = 0, iv2 = 0;
};

/// Structure-of-arrays storage for one machine's edge records.  The
/// replacement-search and tree-path scans walk the whole shard testing a
/// couple of fields per record; dense per-field columns let those scans
/// touch only the bytes they read (and vectorize) instead of striding
/// over hash-map nodes.  Slots are dense [0, size()): append adds the
/// last slot and erase_at swap-removes, so slot order follows the
/// shard's mutation sequence — identical across executors, and restored
/// slot for slot by a rollback (unerase inverts erase_at exactly).
/// Besides the record fields, the `mark` column holds the journal epoch
/// that last logged the slot's pre-image (0: never); it belongs to the
/// record, so append starts a new record at 0 and the slot swaps carry
/// it along.
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
    mark.reserve(n);
    ver.reserve(n);
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
    return r;
  }

  /// Appends a record under a key the shard does not hold, with the
  /// pending-log version its values are in (see `ver` below).
  void append(std::uint64_t key, const EdgeRec& r, std::uint32_t version) {
    [[maybe_unused]] const bool fresh =
        index_.emplace(key, static_cast<std::uint32_t>(keys_.size()))
            .second;
    assert(fresh);
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
    mark.push_back(0);
    ver.push_back(version);
  }

  /// Swap-removes slot s: the last record moves into s.
  void erase_at(std::size_t s) {
    const std::size_t last = keys_.size() - 1;
    if (s != last) swap_slots(s, last);
    index_.erase(keys_[last]);
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
    mark.pop_back();
    ver.pop_back();
  }

  /// Inverts the erase_at(s) that removed `key`'s record r, which was
  /// at `version`: the record it swapped into s returns to the end, and
  /// r returns to s.
  void unerase(std::size_t s, std::uint64_t key, const EdgeRec& r,
               std::uint32_t version) {
    append(key, r, version);
    const std::size_t last = keys_.size() - 1;
    if (s != last) swap_slots(s, last);
  }

  // The columns, slot-indexed.  Mutators above keep them parallel;
  // the k-way stage writes the few records it cuts, demotes or
  // promotes in place, and a compaction the index and component
  // columns of every record the pending log moved.  `ver` says which
  // log position a record's comp and index columns are in: a
  // generation number g <= PendingLog::generation for a record in the
  // log's base coordinates (resolved through the composed maps),
  // generation + 1 for one an interrupted compaction already brought
  // to the log's end (read as stored), and PendingLog::kTracked | id
  // for one a stage wrote mid-log (its two entries are the log's
  // tracked appearances id and id + 1).  The tree column is always
  // current.
  std::vector<VertexId> u, v;
  std::vector<Word> comp;
  std::vector<Weight> w;
  std::vector<Word> iu1, iu2, iv1, iv2;
  std::vector<std::uint8_t> tree;
  std::vector<std::uint64_t> mark;
  std::vector<std::uint32_t> ver;

 private:
  void swap_slots(std::size_t a, std::size_t b) {
    std::swap(keys_[a], keys_[b]);
    std::swap(u[a], u[b]);
    std::swap(v[a], v[b]);
    std::swap(comp[a], comp[b]);
    std::swap(tree[a], tree[b]);
    std::swap(w[a], w[b]);
    std::swap(iu1[a], iu1[b]);
    std::swap(iu2[a], iu2[b]);
    std::swap(iv1[a], iv1[b]);
    std::swap(iv2[a], iv2[b]);
    std::swap(mark[a], mark[b]);
    std::swap(ver[a], ver[b]);
    index_[keys_[a]] = static_cast<std::uint32_t>(a);
    index_[keys_[b]] = static_cast<std::uint32_t>(b);
  }

  std::vector<std::uint64_t> keys_;
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
};

}  // namespace core
