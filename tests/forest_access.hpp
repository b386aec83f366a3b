// Test-only access to a forest's private state (the friend declared in
// dyn_forest.hpp), shared by the forest and fault-injection suites.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/dyn_forest.hpp"

namespace core {

// The validate() rejection suite corrupts one invariant at a time through
// the record accessors.  It edits only records the pending log has not
// moved, so a stored value is the value validate() reads; each accessor
// checks that.
struct DynamicForestTestAccess {
  using EdgeRec = core::EdgeRec;
  using VertexRec = DynamicForest::VertexRec;

  static EdgeRec edge(const DynamicForest& f, VertexId u, VertexId v) {
    const MachineId m = f.edge_machine(u, v);
    const auto s = static_cast<std::size_t>(
        f.machines_[m].edges.find(f.edge_key(u, v)));
    const EdgeRec stored = f.machines_[m].edges.get(s);
    const EdgeRec current = f.current_edge(m, s);
    EXPECT_TRUE(stored.comp == current.comp && stored.iu1 == current.iu1 &&
                stored.iu2 == current.iu2 && stored.iv1 == current.iv1 &&
                stored.iv2 == current.iv2)
        << "edge (" << u << "," << v << ") was moved by the pending log";
    return stored;
  }
  // Overwrites the record stored under edge (u, v)'s key.
  static void set_edge(DynamicForest& f, VertexId u, VertexId v,
                       const EdgeRec& r) {
    const MachineId m = f.edge_machine(u, v);
    EdgeShard& es = f.machines_[m].edges;
    const auto s = static_cast<std::size_t>(es.find(f.edge_key(u, v)));
    es.u[s] = r.u;
    es.v[s] = r.v;
    es.comp[s] = r.comp;
    es.tree[s] = r.tree ? 1 : 0;
    es.iu1[s] = r.iu1;
    es.iu2[s] = r.iu2;
    es.iv1[s] = r.iv1;
    es.iv2[s] = r.iv2;
  }
  static VertexRec& vertex(DynamicForest& f, VertexId v) {
    VertexRec& stored =
        f.machines_[f.vertex_machine(v)].vertices[f.vertex_slot(v)];
    const VertexRec current = f.current_vertex(v);
    EXPECT_TRUE(stored.comp == current.comp &&
                stored.cached_idx == current.cached_idx)
        << "vertex " << v << " was moved by the pending log";
    return stored;
  }
  // v's current component (the pending log may have moved it).
  static Word comp(const DynamicForest& f, VertexId v) {
    return f.current_vertex(v).comp;
  }
  // The directory shard that holds component comp's size.
  static std::unordered_map<Word, Word>& directory(DynamicForest& f,
                                                   Word comp) {
    return f.machines_[f.dir_machine(comp)].comp_sizes;
  }
  static bool log_empty(const DynamicForest& f) { return f.pending_.empty(); }

  // Cascade round A's record-index audit (DynamicForest::IndexAudit).
  static void audit_record_index(DynamicForest& f) {
    f.index_audit_.on = true;
  }
  static const DynamicForest::IndexAudit& audit(const DynamicForest& f) {
    return f.index_audit_;
  }
  static MachineId machine_of(const DynamicForest& f, VertexId u,
                              VertexId v) {
    return f.edge_machine(u, v);
  }
  static bool index_built(const DynamicForest& f) {
    return f.record_index_.built();
  }
  // Whether the record index's next batch folds its side list in, if
  // it does not compact first (RecordIndex::fold_due), and the side
  // list's length.
  static bool index_fold_due(const DynamicForest& f) {
    return f.record_index_.fold_due();
  }
  static std::size_t index_side(const DynamicForest& f) {
    return f.record_index_.side_size();
  }
  // The record index's test-only coverage audit (RecordIndex::audit):
  // zero when the index is dropped.
  static RecordIndex::Coverage index_coverage(const DynamicForest& f) {
    return f.record_index_.audit(f.shard_of(), f.pending_);
  }
  // Machine m's records in slot order, as (u, v, tree).
  static std::vector<std::tuple<VertexId, VertexId, bool>> shard(
      const DynamicForest& f, MachineId m) {
    const EdgeShard& es = f.machines_[m].edges;
    std::vector<std::tuple<VertexId, VertexId, bool>> out;
    for (std::size_t s = 0; s < es.size(); ++s) {
      out.emplace_back(es.u[s], es.v[s], es.tree[s] != 0);
    }
    return out;
  }
  // Whether non-tree record (u, v) is stored in base coordinates with a
  // cached entry an earlier stage of the pending log removed.
  static bool caches_removed_entry(const DynamicForest& f, VertexId u,
                                   VertexId v) {
    const MachineId m = f.edge_machine(u, v);
    const EdgeShard& es = f.machines_[m].edges;
    const auto s = static_cast<std::size_t>(es.find(f.edge_key(u, v)));
    if (es.tree[s] != 0 || !f.pending_.at_base(es.ver[s])) return false;
    const etour::ComposedMap* cm = f.pending_.composed_of(es.comp[s]);
    return cm != nullptr && (cm->piece(es.iu1[s]).removed_at != 0 ||
                             cm->piece(es.iv1[s]).removed_at != 0);
  }
};

}  // namespace core
