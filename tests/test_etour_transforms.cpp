// Property tests for the pure Euler-tour index transformations of
// Section 5 (etour/transforms.hpp): algebraic identities that must hold
// for every tree shape, checked over exhaustive small parameter sweeps
// and random trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <tuple>
#include <set>
#include <vector>

#include "etour/euler_forest.hpp"
#include "etour/tour_builder.hpp"
#include "etour/transforms.hpp"

namespace {

using etour::Word;
using graph::VertexId;

TEST(TransformAlgebra, ElengthAndTreeSizeAreInverse) {
  for (Word size = 1; size <= 200; ++size) {
    EXPECT_EQ(etour::tree_size(etour::elength(size)), size);
  }
}

TEST(TransformAlgebra, RerootIsAPermutationOfIndexRange) {
  // For every tour length and every pivot l_y, the reroot map must be a
  // bijection of [1, elen] onto itself.
  for (Word size = 2; size <= 12; ++size) {
    const Word elen = etour::elength(size);
    for (Word l_y = 1; l_y < elen; ++l_y) {  // l_y = elen means "is root"
      const etour::RerootParams p{elen, l_y};
      std::set<Word> image;
      for (Word i = 1; i <= elen; ++i) {
        const Word j = etour::reroot_index(i, p);
        EXPECT_GE(j, 1);
        EXPECT_LE(j, elen);
        EXPECT_TRUE(image.insert(j).second) << "collision at i=" << i;
      }
    }
  }
}

TEST(TransformAlgebra, RerootMovesPivotToFront) {
  // The entry at the pivot position l_y must land at position 1: the new
  // tour starts with the edge from the new root to its former parent.
  const etour::RerootParams p{12, 11};
  EXPECT_EQ(etour::reroot_index(11, p), 1);
  EXPECT_EQ(etour::reroot_index(12, p), 2);
}

TEST(TransformAlgebra, MergeCoversTargetRangeExactly) {
  // After merging Ty (elen_ty) into Tx (elen_tx) at any even splice
  // position, the union of shifted Tx indexes, shifted Ty indexes and the
  // four new edge entries must be exactly [1, elen_tx + elen_ty + 4].
  for (Word size_x = 2; size_x <= 7; ++size_x) {
    for (Word size_y = 1; size_y <= 7; ++size_y) {
      const Word elen_tx = etour::elength(size_x);
      const Word elen_ty = etour::elength(size_y);
      for (Word f_x = 2; f_x <= elen_tx; f_x += 2) {
        const etour::MergeParams p{f_x, elen_ty};
        std::set<Word> image;
        for (Word i = 1; i <= elen_tx; ++i) {
          EXPECT_TRUE(image.insert(etour::merge_shift_tx(i, p)).second);
        }
        for (Word i = 1; i <= elen_ty; ++i) {
          EXPECT_TRUE(image.insert(etour::merge_shift_ty(i, p)).second);
        }
        const auto ni = etour::merge_new_indexes(p);
        for (Word i : {ni.x_enter, ni.x_exit, ni.y_enter, ni.y_exit}) {
          EXPECT_TRUE(image.insert(i).second) << "new index " << i;
        }
        EXPECT_EQ(static_cast<Word>(image.size()), elen_tx + elen_ty + 4);
        EXPECT_EQ(*image.begin(), 1);
        EXPECT_EQ(*image.rbegin(), elen_tx + elen_ty + 4);
      }
    }
  }
}

TEST(TransformAlgebra, SplitUndoesMerge) {
  // Splitting immediately after a merge must renumber both sides back to
  // 1..elen: split(merge(i)) == i for every index of both trees.
  const Word elen_tx = 12, elen_ty = 8;
  for (Word f_x = 2; f_x <= elen_tx; f_x += 2) {
    const etour::MergeParams mp{f_x, elen_ty};
    const auto ni = etour::merge_new_indexes(mp);
    // The spliced subtree occupies [y_enter, y_exit] in the merged tour.
    const etour::SplitParams sp{ni.y_enter, ni.y_exit};
    for (Word i = 1; i <= elen_ty; ++i) {
      const Word merged = etour::merge_shift_ty(i, mp);
      ASSERT_TRUE(etour::split_in_subtree(merged, sp));
      EXPECT_EQ(etour::split_shift_subtree(merged, sp), i);
    }
    for (Word i = 1; i <= elen_tx; ++i) {
      const Word merged = etour::merge_shift_tx(i, mp);
      ASSERT_FALSE(etour::split_in_subtree(merged, sp));
      EXPECT_EQ(etour::split_shift_rest(merged, sp), i);
    }
    EXPECT_EQ(etour::split_subtree_elength(sp), elen_ty);
  }
}

TEST(TransformAlgebra, MergeSpliceChoosesValidEvenPosition) {
  // Non-root x: f(x) itself (always even).  Root x: the tour end.
  EXPECT_EQ(etour::merge_splice(4, 12), 4);
  EXPECT_EQ(etour::merge_splice(1, 12), 12);          // root
  EXPECT_EQ(etour::merge_splice(etour::kNoIndex, 0), 0);  // singleton
}

TEST(TransformAlgebra, AncestorTestMatchesIntervalContainment) {
  EXPECT_TRUE(etour::is_ancestor(1, 24, 8, 17));
  EXPECT_FALSE(etour::is_ancestor(8, 17, 1, 24));
  EXPECT_TRUE(etour::is_ancestor(8, 17, 8, 17));  // weak (self)
  EXPECT_FALSE(etour::is_ancestor(2, 7, 10, 15)); // disjoint intervals
}

TEST(TransformAlgebra, AnchorAndPivotDerivableFromAnyAppearance) {
  // even_anchor / odd_pivot must name the SAME vertex as the appearance
  // they were derived from, for every entry of a real tour — this is what
  // lets the batched protocol splice/reroot from any cached index without
  // an extra scan round.
  std::mt19937_64 rng(7);
  etour::EulerForest forest(12);
  for (int step = 0; step < 60; ++step) {
    const auto u = static_cast<VertexId>(rng() % 12);
    const auto v = static_cast<VertexId>(rng() % 12);
    if (u == v || forest.connected(u, v)) continue;
    forest.link(u, v);
  }
  std::set<Word> seen_comps;
  for (VertexId v = 0; v < 12; ++v) {
    if (forest.component_size(v) <= 1) continue;
    if (!seen_comps.insert(forest.component(v)).second) continue;
    const auto seq = forest.tour(v);
    const Word elen = static_cast<Word>(seq.size());
    for (Word i = 1; i <= elen; ++i) {
      const Word a = etour::even_anchor(i, elen);
      EXPECT_EQ(a % 2, 0u) << "i=" << i;
      EXPECT_EQ(seq[a - 1], seq[i - 1]) << "anchor of i=" << i;
      const Word p = etour::odd_pivot(i, elen);
      if (p == 0) {
        // Derived "already root": the appearance must belong to the root.
        EXPECT_EQ(seq[i - 1], seq.front()) << "pivot of i=" << i;
      } else {
        EXPECT_EQ(p % 2, 1u) << "i=" << i;
        EXPECT_EQ(seq[p - 1], seq[i - 1]) << "pivot of i=" << i;
      }
    }
  }
}

/// Tree edges with their four indexes, as plain comparable values.
std::map<graph::EdgeKey, std::array<Word, 4>> edges_snapshot(
    const etour::EulerForest& f) {
  std::map<graph::EdgeKey, std::array<Word, 4>> out;
  for (const auto& [key, idx] : f.tree_edges()) {
    out[key] = {idx.u1, idx.u2, idx.v1, idx.v2};
  }
  return out;
}

std::map<VertexId, Word> component_map(const etour::EulerForest& f) {
  std::map<VertexId, Word> out;
  for (VertexId v = 0; v < static_cast<VertexId>(f.num_vertices()); ++v) {
    out[v] = f.component(v);
  }
  return out;
}

class KWayTransformTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KWayTransformTest, CutManyIsIndexIdenticalToSequentialCuts) {
  // Over random forests and random cut sets (including nested, adjacent,
  // and vertex-sharing cuts), the batched k-way split must produce
  // index-identical fragments to k sequential cut() calls — in whatever
  // order the cuts are applied.
  std::mt19937_64 rng(GetParam());
  const std::size_t n = 16;
  for (int round = 0; round < 40; ++round) {
    etour::EulerForest forest(n);
    std::vector<std::pair<VertexId, VertexId>> links;
    const int target_links = 4 + static_cast<int>(rng() % 11);
    for (int tries = 0; tries < 200 && static_cast<int>(links.size()) <
                                           target_links; ++tries) {
      const auto u = static_cast<VertexId>(rng() % n);
      const auto v = static_cast<VertexId>(rng() % n);
      if (u == v || forest.connected(u, v)) continue;
      forest.link(u, v);
      links.emplace_back(u, v);
    }
    if (links.empty()) continue;
    // Random cut subset (1..all edges).
    std::shuffle(links.begin(), links.end(), rng);
    const std::size_t k = 1 + rng() % links.size();
    std::vector<std::pair<VertexId, VertexId>> cuts(links.begin(),
                                                    links.begin() + k);
    std::vector<Word> new_comps;
    for (std::size_t j = 0; j < k; ++j) {
      new_comps.push_back(static_cast<Word>(1000 + j));
    }

    etour::EulerForest batched = forest;
    const auto children = batched.cut_many(cuts, new_comps);

    etour::EulerForest sequential = forest;
    std::vector<std::size_t> order(k);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<VertexId> seq_children(k);
    for (const std::size_t j : order) {
      seq_children[j] = sequential.cut(cuts[j].first, cuts[j].second,
                                       new_comps[j]);
    }

    EXPECT_EQ(children, seq_children) << "seed " << GetParam();
    EXPECT_EQ(edges_snapshot(batched), edges_snapshot(sequential))
        << "seed " << GetParam() << " round " << round;
    EXPECT_EQ(component_map(batched), component_map(sequential));
    std::string why;
    EXPECT_TRUE(batched.validate(&why)) << why;
  }
}

TEST_P(KWayTransformTest, LinkManyMatchesSequentialLinks) {
  // The batched k-way join must produce the same TREE as k sequential
  // link() calls in the same order: same tree-edge set, same component
  // ids and sizes, and a structurally valid tour.  (The tours themselves
  // may be rotations of each other — anchors are derived from different
  // appearances — so indexes are not compared.)
  std::mt19937_64 rng(GetParam());
  const std::size_t n = 18;
  for (int round = 0; round < 40; ++round) {
    etour::EulerForest forest(n);
    for (int tries = 0; tries < 40; ++tries) {
      const auto u = static_cast<VertexId>(rng() % n);
      const auto v = static_cast<VertexId>(rng() % n);
      if (u == v || forest.connected(u, v)) continue;
      if (rng() % 3 != 0) continue;  // keep several small trees around
      forest.link(u, v);
    }
    // A chainable batch of links: valid against the evolving forest.
    std::vector<std::pair<VertexId, VertexId>> batch;
    etour::EulerForest probe = forest;
    for (int tries = 0; tries < 60 && batch.size() < 6; ++tries) {
      const auto u = static_cast<VertexId>(rng() % n);
      const auto v = static_cast<VertexId>(rng() % n);
      if (u == v || probe.connected(u, v)) continue;
      probe.link(u, v);
      batch.emplace_back(u, v);
    }
    if (batch.empty()) continue;

    etour::EulerForest batched = forest;
    batched.link_many(batch);

    etour::EulerForest sequential = forest;
    for (const auto& [u, v] : batch) sequential.link(u, v);

    EXPECT_EQ(component_map(batched), component_map(sequential))
        << "seed " << GetParam() << " round " << round;
    auto keys = [](const etour::EulerForest& f) {
      std::set<graph::EdgeKey> out;
      for (const auto& [key, idx] : f.tree_edges()) out.insert(key);
      return out;
    };
    EXPECT_EQ(keys(batched), keys(sequential));
    for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
      EXPECT_EQ(batched.component_size(v), sequential.component_size(v));
    }
    std::string why;
    EXPECT_TRUE(batched.validate(&why))
        << "seed " << GetParam() << " round " << round << ": " << why;
  }
}

TEST(KWayTransforms, CutManyTakesAdjacentAndNestedCutsAtOnce) {
  // Cutting EVERY edge of a path and of a star exercises maximally
  // nested and maximally adjacent cut intervals (every removed 4-entry
  // group touches its neighbor's boundary).
  for (const bool star : {false, true}) {
    etour::EulerForest forest(8);
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId v = 1; v < 8; ++v) {
      const VertexId parent = star ? 0 : v - 1;
      forest.link(parent, v);
      edges.emplace_back(parent, v);
    }
    etour::EulerForest sequential = forest;
    std::vector<Word> new_comps;
    for (std::size_t j = 0; j < edges.size(); ++j) {
      new_comps.push_back(static_cast<Word>(100 + j));
    }
    forest.cut_many(edges, new_comps);
    for (std::size_t j = 0; j < edges.size(); ++j) {
      sequential.cut(edges[j].first, edges[j].second, new_comps[j]);
    }
    EXPECT_EQ(edges_snapshot(forest), edges_snapshot(sequential));
    EXPECT_EQ(component_map(forest), component_map(sequential));
    EXPECT_TRUE(forest.tree_edges().empty());
    std::string why;
    EXPECT_TRUE(forest.validate(&why)) << why;
  }
}

TEST(KWayTransforms, CutManyRejectsDuplicateCuts) {
  etour::EulerForest forest(4);
  forest.link(0, 1);
  forest.link(1, 2);
  EXPECT_THROW(forest.cut_many({{0, 1}, {1, 0}}, {100, 101}),
               std::logic_error);
}

TEST(KWayTransforms, LinkManyChainsThroughSingletons) {
  // Singleton vertices may appear on either side of several links in one
  // batch; the plan must track their adopted appearances.
  etour::EulerForest batched(6);
  batched.link_many({{0, 1}, {1, 2}, {2, 3}, {0, 4}, {5, 0}});
  etour::EulerForest sequential(6);
  for (const auto& [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {1, 2}, {2, 3}, {0, 4}, {5, 0}}) {
    sequential.link(u, v);
  }
  EXPECT_EQ(component_map(batched), component_map(sequential));
  EXPECT_EQ(batched.component_size(0), 6u);
  std::string why;
  EXPECT_TRUE(batched.validate(&why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Seeds, KWayTransformTest,
                         ::testing::Values(3, 14, 159, 2653));

class StageMapTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StageMapTest, CompiledMapEqualsPerIndexAlgebra) {
  // Random tours with random cut sets (nested, adjacent and single cuts,
  // leaf cuts that leave singleton fragments) and random link chains over
  // the fragments plus a few whole-tour merge components: the compiled
  // map must give every old index of every component the fragment, the
  // removed flag and the final index of the per-index calls, kNoIndex
  // included.
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 60; ++round) {
    const std::size_t n = 2 + rng() % 23;
    std::vector<std::vector<VertexId>> adj(n);
    for (std::size_t v = 1; v < n; ++v) {
      // Mostly recent parents: long paths give deep nesting, and the
      // rest gives siblings whose cut intervals touch.
      const std::size_t p = rng() % 2 == 0 ? v - 1 : rng() % v;
      adj[p].push_back(static_cast<VertexId>(v));
      adj[v].push_back(static_cast<VertexId>(p));
    }
    const std::vector<VertexId> tour = etour::build_tour(adj, 0);
    const Word elen = etour::elength(static_cast<Word>(n));
    ASSERT_EQ(static_cast<Word>(tour.size()), elen);
    std::vector<etour::KWaySplit::Cut> all;
    for (const auto& [key, idx] : etour::indexes_from_tour(tour)) {
      // The child endpoint enters second: its entries nest inside.
      const bool u_child = std::min(idx.u1, idx.u2) > std::min(idx.v1, idx.v2);
      all.push_back(u_child ? etour::KWaySplit::Cut{std::min(idx.u1, idx.u2),
                                                    std::max(idx.u1, idx.u2)}
                            : etour::KWaySplit::Cut{std::min(idx.v1, idx.v2),
                                                    std::max(idx.v1, idx.v2)});
    }
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(1 + rng() % std::min<std::size_t>(all.size(), 8));
    const etour::KWaySplit split(elen, all);

    // The fragment universe: the split's fragments, then whole-tour merge
    // components (singletons among them).
    std::vector<Word> elens;
    for (std::size_t f = 0; f < split.fragments(); ++f) {
      elens.push_back(split.fragment_elength(f));
    }
    const std::size_t merges = rng() % 3;
    for (std::size_t e = 0; e < merges; ++e) {
      elens.push_back(etour::elength(static_cast<Word>(1 + rng() % 4)));
    }
    etour::KWayJoinPlan plan(elens);
    const std::size_t links = rng() % elens.size();
    for (int tries = 0; tries < 200 && plan.num_links() < links; ++tries) {
      const std::size_t a = rng() % elens.size();
      const std::size_t b = rng() % elens.size();
      if (plan.same_tree(a, b)) continue;
      const auto appearance = [&](std::size_t f) {
        return elens[f] == 0 ? etour::kNoIndex
                             : static_cast<Word>(1 + rng() % elens[f]);
      };
      const Word ia = appearance(a);
      plan.link(a, ia, b, appearance(b));
    }

    const etour::StageMap split_only(elen, &split);
    const etour::StageMap map(elen, &split, plan, 0);
    for (Word i = 0; i <= elen; ++i) {
      const etour::StageMap::Piece& s = split_only.piece(i);
      const etour::StageMap::Piece& p = map.piece(i);
      const std::size_t frag = split.fragment_of(i);
      ASSERT_EQ(p.frag, frag) << "seed " << GetParam() << " i " << i;
      ASSERT_EQ(s.frag, frag) << "seed " << GetParam() << " i " << i;
      ASSERT_EQ(p.removed, split.removed(i)) << "i " << i;
      ASSERT_EQ(s.removed, split.removed(i)) << "i " << i;
      if (p.removed) continue;
      ASSERT_EQ(i + s.delta, split.new_index(i)) << "i " << i;
      ASSERT_EQ(i + p.delta, plan.resolve(frag, split.new_index(i)))
          << "seed " << GetParam() << " round " << round << " i " << i;
      if (i != etour::kNoIndex) {
        ASSERT_EQ(i + p.delta, plan.map_index(frag, split.new_index(i)));
      }
    }
    for (std::size_t f = 0; f < split.fragments(); ++f) {
      ASSERT_EQ(map.no_index(f), plan.resolve(f, etour::kNoIndex));
      ASSERT_EQ(split_only.no_index(f), etour::kNoIndex);
    }
    for (std::size_t e = 0; e < merges; ++e) {
      const std::size_t base = split.fragments() + e;
      const etour::StageMap whole(elens[base], nullptr, plan, base);
      ASSERT_EQ(whole.no_index(0), plan.resolve(base, etour::kNoIndex));
      for (Word i = 0; i <= elens[base]; ++i) {
        const etour::StageMap::Piece& p = whole.piece(i);
        ASSERT_EQ(p.frag, 0u);
        ASSERT_FALSE(p.removed);
        ASSERT_EQ(i + p.delta, plan.resolve(base, i)) << "i " << i;
      }
    }
    // A traversal's entries 2t - 1 and 2t never straddle a piece.
    for (std::size_t q = 1; q < map.pieces(); ++q) {
      const Word start = map.piece_start(q);
      EXPECT_TRUE(start % 2 == 1 || map.piece(start).removed)
          << "piece starting at " << start;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StageMapTest,
                         ::testing::Values(1, 7, 42, 1234, 98765));

// Up to max_cuts distinct random tree-edge cuts of a random tree on n >= 2
// vertices, as child intervals of its tour.
std::vector<etour::KWaySplit::Cut> random_cuts(std::mt19937_64& rng,
                                               std::size_t n,
                                               std::size_t max_cuts) {
  std::vector<std::vector<VertexId>> adj(n);
  for (std::size_t v = 1; v < n; ++v) {
    const std::size_t p = rng() % 2 == 0 ? v - 1 : rng() % v;
    adj[p].push_back(static_cast<VertexId>(v));
    adj[v].push_back(static_cast<VertexId>(p));
  }
  std::vector<etour::KWaySplit::Cut> cuts;
  for (const auto& [key, idx] :
       etour::indexes_from_tour(etour::build_tour(adj, 0))) {
    const bool u_child = std::min(idx.u1, idx.u2) > std::min(idx.v1, idx.v2);
    cuts.push_back(u_child ? etour::KWaySplit::Cut{std::min(idx.u1, idx.u2),
                                                   std::max(idx.u1, idx.u2)}
                           : etour::KWaySplit::Cut{std::min(idx.v1, idx.v2),
                                                   std::max(idx.v1, idx.v2)});
  }
  std::shuffle(cuts.begin(), cuts.end(), rng);
  cuts.resize(1 + rng() % std::min(cuts.size(), max_cuts));
  return cuts;
}

class ComposedMapTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ComposedMapTest, ComposedMapEqualsStageByStage) {
  // Random batches of 2 to 6 stages over a few starting components.  Each
  // stage splits one current component (random cuts, leaf cuts leaving
  // singleton fragments included) and joins its fragments with up to two
  // other whole components through random links, labelled as the forest
  // labels them: fragment 0 keeps the component's label, the other
  // fragments take fresh ones, and a final tree takes its representative
  // fragment's label.  Every starting index pushed through the stages one
  // map at a time must land where its component's composed map puts it,
  // or be removed by the same stage under the same label; an entry a
  // stage removed then continues from that stage's cut fix (here one per
  // removing stage and label) through the later stages alike.
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    std::map<Word, Word> elen_of;  // current label -> tour length
    const Word starting = 2 + static_cast<Word>(rng() % 3);
    for (Word c = 0; c < starting; ++c) {
      elen_of[c] = etour::elength(1 + static_cast<Word>(rng() % 14));
    }
    std::vector<etour::ComposedMap> composed;
    std::vector<Word> start_elen;
    for (Word c = 0; c < starting; ++c) {
      composed.emplace_back(elen_of[c], c);
      start_elen.push_back(elen_of[c]);
    }
    Word next_label = 100;
    std::vector<std::vector<etour::StageRewrite>> stages;
    // Per stage: label -> the cut fix its removed entries fall back to.
    std::vector<std::map<Word, std::pair<Word, Word>>> fixes;
    const int num_stages = 2 + static_cast<int>(rng() % 5);
    for (int t = 1; t <= num_stages; ++t) {
      std::vector<Word> labels;
      for (const auto& [label, elen] : elen_of) labels.push_back(label);
      std::shuffle(labels.begin(), labels.end(), rng);
      labels.resize(1 + rng() % std::min<std::size_t>(labels.size(), 3));
      // labels[0] splits (unless it is a singleton); the rest merge whole.
      std::optional<etour::KWaySplit> split;
      if (elen_of[labels[0]] > 0) {
        split.emplace(elen_of[labels[0]],
                      random_cuts(rng,
                                  static_cast<std::size_t>(
                                      etour::tree_size(elen_of[labels[0]])),
                                  6));
      }
      std::vector<Word> elens;
      std::vector<Word> pre_label;
      std::vector<std::size_t> base(labels.size());
      for (std::size_t j = 0; j < labels.size(); ++j) {
        base[j] = elens.size();
        if (j == 0 && split.has_value()) {
          for (std::size_t f = 0; f < split->fragments(); ++f) {
            elens.push_back(split->fragment_elength(f));
            pre_label.push_back(f == 0 ? labels[0] : next_label++);
          }
        } else {
          elens.push_back(elen_of[labels[j]]);
          pre_label.push_back(labels[j]);
        }
      }
      etour::KWayJoinPlan plan(elens);
      const std::size_t links = rng() % elens.size();
      for (int tries = 0; tries < 200 && plan.num_links() < links; ++tries) {
        const std::size_t a = rng() % elens.size();
        const std::size_t b = rng() % elens.size();
        if (plan.same_tree(a, b)) continue;
        const auto appearance = [&](std::size_t f) {
          return elens[f] == 0 ? etour::kNoIndex
                               : static_cast<Word>(1 + rng() % elens[f]);
        };
        const Word ia = appearance(a);
        plan.link(a, ia, b, appearance(b));
      }
      std::vector<etour::StageRewrite> rewrites;
      for (std::size_t j = 0; j < labels.size(); ++j) {
        const etour::KWaySplit* sp =
            j == 0 && split.has_value() ? &*split : nullptr;
        const std::size_t frags = sp != nullptr ? sp->fragments() : 1;
        std::vector<Word> final_labels;
        for (std::size_t f = 0; f < frags; ++f) {
          final_labels.push_back(pre_label[plan.tree_of(base[j] + f)]);
        }
        rewrites.push_back({labels[j],
                            etour::StageMap(elen_of[labels[j]], sp, plan,
                                            base[j]),
                            final_labels});
      }
      std::sort(rewrites.begin(), rewrites.end(),
                [](const auto& a, const auto& b) { return a.comp < b.comp; });
      for (const Word label : labels) elen_of.erase(label);
      for (std::size_t f = 0; f < elens.size(); ++f) {
        if (plan.tree_of(f) == f) elen_of[pre_label[f]] = plan.tree_elength(f);
      }
      // The cut fix: any appearance in a tree the split component's
      // fragments ended in.
      std::map<Word, std::pair<Word, Word>> fix;
      const Word to = pre_label[plan.tree_of(base[0])];
      fix[labels[0]] = {to, elen_of[to] == 0
                                ? etour::kNoIndex
                                : static_cast<Word>(1 + rng() % elen_of[to])};
      fixes.push_back(fix);
      stages.push_back(std::move(rewrites));
      for (etour::ComposedMap& cm : composed) {
        cm.then(static_cast<std::uint32_t>(t), stages.back());
      }
    }

    // Pushes (label, idx) through stages from + 1 .. num_stages, one map
    // at a time; stops at a removal (returning its stage) unless
    // `follow_fixes`, which continues from the removing stage's fix.
    struct Walk {
      Word label, idx;
      std::uint32_t removed_at = 0;
    };
    const auto walk = [&](Word label, Word idx, std::size_t from,
                          bool follow_fixes) {
      for (std::size_t t = from; t < stages.size(); ++t) {
        const etour::StageRewrite* rw =
            etour::find_rewrite(stages[t], label);
        if (rw == nullptr) continue;
        const etour::StageMap::Piece& p = rw->map.piece(idx);
        if (!p.removed) {
          idx += p.delta;
          label = rw->labels[p.frag];
          continue;
        }
        if (!follow_fixes) {
          return Walk{label, idx, static_cast<std::uint32_t>(t + 1)};
        }
        std::tie(label, idx) = fixes[t].at(label);
      }
      return Walk{label, idx, 0};
    };
    for (Word c = 0; c < starting; ++c) {
      const etour::ComposedMap& cm = composed[static_cast<std::size_t>(c)];
      for (Word i = 0; i <= start_elen[static_cast<std::size_t>(c)]; ++i) {
        const Walk ref = walk(c, i, 0, false);
        const etour::ComposedMap::Piece& p = cm.piece(i);
        ASSERT_EQ(p.removed_at, ref.removed_at)
            << "seed " << GetParam() << " round " << round << " i " << i;
        ASSERT_EQ(p.label, ref.label) << "i " << i;
        if (p.removed_at == 0) {
          ASSERT_EQ(i + p.delta, ref.idx) << "i " << i;
          continue;
        }
        const auto [fl, fi] = fixes[p.removed_at - 1].at(p.label);
        const Walk via_fix = walk(fl, fi, p.removed_at, true);
        const Walk whole = walk(c, i, 0, true);
        ASSERT_EQ(via_fix.label, whole.label) << "i " << i;
        ASSERT_EQ(via_fix.idx, whole.idx) << "i " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComposedMapTest,
                         ::testing::Values(3, 17, 256, 4099, 65537));

class RandomTreeTransformTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTreeTransformTest, RandomLinkRerootCutSequencesStayValid) {
  // Long randomized churn over the reference forest: after every single
  // operation the full structural validator must pass.  This is the
  // widest net for index-arithmetic bugs.
  std::mt19937_64 rng(GetParam());
  const std::size_t n = 18;
  etour::EulerForest forest(n);
  std::vector<std::pair<VertexId, VertexId>> links;
  for (int step = 0; step < 400; ++step) {
    const int dice = static_cast<int>(rng() % 100);
    if (dice < 45 || links.empty()) {
      const VertexId u = static_cast<VertexId>(rng() % n);
      const VertexId v = static_cast<VertexId>(rng() % n);
      if (u == v || forest.connected(u, v)) continue;
      forest.link(u, v);
      links.emplace_back(u, v);
    } else if (dice < 75) {
      const std::size_t i = rng() % links.size();
      auto [u, v] = links[i];
      forest.cut(u, v, static_cast<Word>(10000 + step));
      links[i] = links.back();
      links.pop_back();
    } else {
      forest.reroot(static_cast<VertexId>(rng() % n));
    }
    std::string why;
    ASSERT_TRUE(forest.validate(&why)) << "step " << step << ": " << why;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeTransformTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
