// Shared Table-1 complexity budgets: measured worst-case per-update
// triples on fixed seeds plus ~30-50% headroom, loose enough to survive
// benign protocol tweaks, tight enough that an asymptotic slip (an extra
// round per update, a broadcast past O(sqrt N)) trips them.
//
// Two consumers gate on these numbers:
//   * tests/test_table1_budgets.cpp asserts the full (rounds, machines,
//     communication) triple at n = 256, where the machines/comm values
//     were measured;
//   * bench_table1 / bench_scaling --check gate the ROUNDS component
//     only: per-update rounds are O(1) — independent of n — so the same
//     budget applies at every size the benches sweep, while machines and
//     communication grow with sqrt(N) and are only meaningful at the
//     size they were measured.
// The batched budgets bound mean rounds per update of apply_batch on the
// bench workloads (batch = 16), the metric the CI bench job guards.
#pragma once

#include <cstdint>

namespace harness::budgets {

struct Table1Budget {
  const char* name;
  std::uint64_t rounds;      ///< worst rounds per update (any n)
  std::uint64_t machines;    ///< worst active machines per round (n = 256)
  std::uint64_t comm_words;  ///< worst comm words per round (n = 256)
};

inline constexpr Table1Budget kMaximalMatching{"maximal matching", 16, 6,
                                               2100};
inline constexpr Table1Budget kThreeHalvesMatching{"3/2-approx matching", 18,
                                                   10, 2100};
inline constexpr Table1Budget kCsMatching{"(2+eps)-approx matching", 6, 32,
                                          64};
/// The forest rows: insert/erase are one-update k-way stages.  Measured
/// 6 rounds (connectivity) and 8 (MST: the cycle rule's path-max
/// proposal and swap-cut rounds), 36 machines, and 531 words in the
/// worst round — a deletion's k-way commit round — at n = 256.
inline constexpr Table1Budget kConnectedComponents{"connected components", 9,
                                                   44, 600};
inline constexpr Table1Budget kApproximateMst{"(1+eps)-MST", 12, 44, 600};

/// Batched connectivity at batch = 16, mean rounds per update of the
/// batch-dynamic protocol on bench_table1's random stream (the
/// `connectivity random bdyn16` row, measured 1.10; serial baseline
/// 3.56).  bench_scaling applies the same bound to its batched series at
/// every n.
inline constexpr double kBatchedConnectivityRoundsPerUpdate = 3.8;
/// Weighted (MST) delete-heavy interleaved stream at batch = 16
/// (graph::weighted_interleaved_delete_stream: every burst is a set of
/// independent tree-edge deletions followed by a set of independent
/// cycle-rule swap inserts), mean rounds per update.  Gated by
/// tests/test_table1_budgets.cpp at n = 256, where it measures 0.78;
/// bench_table1 measures 0.58 on the same stream shape at n = 1024 and
/// gates that row with kBatchDynamicWeightedDeleteHeavyRoundsPerUpdate
/// below.
inline constexpr double kWeightedDeleteHeavyRoundsPerUpdate = 1.1;
/// Wide (paths = 2x batch) delete-heavy interleaved streams at batch 16,
/// batch-dynamic protocol (bench_table1's `... delete-heavy wide bdyn16`
/// rows, which also gate stage coverage).  Measured 0.29
/// unweighted (one k-way stage per batch) and 0.40 weighted (the
/// cycle-rule inserts' path-max round adds two rounds to a stage, and a
/// committing swap one more cut) at n = 1024.
inline constexpr double kWideDeleteHeavyRoundsPerUpdate = 2.25;
inline constexpr double kWeightedWideDeleteHeavyRoundsPerUpdate = 0.6;
/// The batch-dynamic protocol on the delete-heavy interleaved streams at
/// batch = 16: the whole batch is classified once, every tree deletion
/// runs through ONE k-way tour split round, one parallel replacement
/// cascade with deterministic (w,u,v) tie-breaks re-links the fragments,
/// and all merges/joins commit as one k-way join round (bench_table1
/// separately gates that every update of these rows either ran in a
/// stage or was elided).  Measured 0.09 unweighted — the interleaved
/// adversary's delete/re-insert pairs are net no-ops, so net-op
/// compression elides most of the stream and the remainder runs in
/// O(1)-round stages — and
/// 0.58 weighted (no compression; a stage pays the k-way split round, one
/// replacement cascade, the k-way join round, and — for its cycle-rule
/// inserts — the shared path-max proposal round plus the swap-cut round,
/// with every committing swap one more cut of the same split).  Serial
/// application (batches of one) measures 3.59 / 4.56, so losing either
/// the compression or the shared stage rounds blows these budgets.
inline constexpr double kBatchDynamicDeleteHeavyRoundsPerUpdate = 1.0;
inline constexpr double kBatchDynamicWeightedDeleteHeavyRoundsPerUpdate = 0.85;

}  // namespace harness::budgets
