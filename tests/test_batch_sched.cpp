// Randomized stress tests of the batch-dynamic protocol: arbitrary
// mixed insert/delete batches through DynamicForest::apply_batch versus
// serial replay, across many seeds, stream shapes, batch sizes, both
// weighted modes, and the undo journal on and off.  Asserts identical final state (component partition,
// forest weight, tree-edge count), canonicalized directory contents, the
// structural validate() invariants, and oracle connectivity at driver
// checkpoints.  Component IDS may differ between the two runs (split-off
// ids are assigned in execution order), so the directory is compared as
// the multiset of (canonical component, size) pairs derived from the
// snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dyn_forest.hpp"
#include "dmpc/executor.hpp"
#include "graph/update_stream.hpp"
#include "harness/checks.hpp"
#include "harness/driver.hpp"

namespace {

using harness::Driver;
using harness::DriverConfig;

/// Canonicalized directory: component label (smallest member vertex) ->
/// size, derived from the snapshot every machine's directory shard must
/// agree with (validate() asserts that agreement separately).
std::map<dmpc::VertexId, std::size_t> canonical_directory(
    const core::DynamicForest& f) {
  std::map<dmpc::VertexId, std::size_t> dir;
  for (const dmpc::VertexId label : f.component_snapshot()) ++dir[label];
  return dir;
}

struct StressCase {
  std::uint64_t seed;
  std::size_t batch_size;
  bool weighted;
  bool atomic_updates;
};

std::vector<StressCase> stress_cases(bool atomic_updates);

class BatchSchedulerStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(BatchSchedulerStress, MatchesSerialReplay) {
  const auto [seed, batch_size, weighted, atomic_updates] = GetParam();
  const std::size_t n = 48;
  // Rotate through the stream shapes: uniformly random churn (with a
  // tiny weight range on even seeds, so weighted runs hit equal-weight
  // cycle-rule ties), the bridge adversary (serialized tree deletions),
  // the delete-heavy interleaved adversary (batched tree deletions),
  // and — weighted — its cycle-rule variant, whose bursts mix grouped
  // tree deletions with grouped path-max swaps (mid-path displacements,
  // rejected swaps, and same-component deferrals across the seeds).
  graph::UpdateStream stream;
  switch (seed % 4) {
    case 0:
      stream = graph::random_stream(n, 300, 0.6, seed, weighted,
                                    seed % 2 == 0 ? 6 : 1000);
      break;
    case 1:
      stream = graph::bridge_adversary_stream(n, 2 * n + 200, n / 4, seed,
                                              weighted);
      break;
    case 2:
      stream = graph::interleaved_delete_stream(n, 300, 5, 2, seed, weighted);
      break;
    default:
      stream = weighted ? graph::weighted_interleaved_delete_stream(n, 300, 5,
                                                                    2, seed)
                        : graph::interleaved_delete_stream(n, 300, 5, 3, seed);
      break;
  }

  core::DynamicForest serial({.n = n, .m_cap = 4 * n, .weighted = weighted});
  serial.preprocess(graph::WeightedEdgeList{});
  Driver serial_driver(
      n, DriverConfig{.checkpoint_every = 0, .weighted = weighted});
  serial_driver.add("forest", serial);
  serial_driver.run(stream);

  core::DynamicForest batched({.n = n,
                               .m_cap = 4 * n,
                               .weighted = weighted,
                               .atomic_updates = atomic_updates});
  batched.preprocess(graph::WeightedEdgeList{});
  Driver batched_driver(n, DriverConfig{.batch_size = batch_size,
                                        .checkpoint_every = 4,
                                        .weighted = weighted});
  batched_driver.add("forest", batched);
  batched_driver.on_checkpoint(
      harness::components_match_oracle(batched, "forest"));
  ASSERT_NO_THROW(batched_driver.run(stream)) << "seed " << seed;

  EXPECT_EQ(serial.component_snapshot(), batched.component_snapshot())
      << "seed " << seed;
  EXPECT_EQ(canonical_directory(serial), canonical_directory(batched))
      << "seed " << seed;
  auto st = serial.tree_edges(), bt = batched.tree_edges();
  EXPECT_EQ(st.size(), bt.size()) << "seed " << seed;
  EXPECT_EQ(serial.forest_weight(), batched.forest_weight())
      << "seed " << seed;
  std::string why;
  EXPECT_TRUE(batched.validate(&why)) << "seed " << seed << ": " << why;
  EXPECT_TRUE(serial.validate(&why)) << "seed " << seed << ": " << why;
}

/// Pooled-executor bit-identity: the SAME batched schedule run once under
/// the serial executor and once on the thread pool must agree on every
/// observable — final state, the full tree-edge sequence (merge order is
/// part of the contract), validate()'s verdict, the metrics stream, and
/// every scheduler counter.  This is what licenses running the driver's
/// serial folds (fold_scans, validate(), preprocess, the snapshot
/// helpers) on the pool.
class PooledExecutorBitIdentity : public ::testing::TestWithParam<StressCase> {
};

TEST_P(PooledExecutorBitIdentity, MatchesSerialExecutor) {
  const auto [seed, batch_size, weighted, atomic_updates] = GetParam();
  const std::size_t n = 48;
  graph::UpdateStream stream;
  switch (seed % 4) {
    case 0:
      stream = graph::random_stream(n, 300, 0.6, seed, weighted,
                                    seed % 2 == 0 ? 6 : 1000);
      break;
    case 1:
      stream = graph::bridge_adversary_stream(n, 2 * n + 200, n / 4, seed,
                                              weighted);
      break;
    case 2:
      stream = graph::interleaved_delete_stream(n, 300, 5, 2, seed, weighted);
      break;
    default:
      stream = weighted ? graph::weighted_interleaved_delete_stream(n, 300, 5,
                                                                    2, seed)
                        : graph::interleaved_delete_stream(n, 300, 5, 3, seed);
      break;
  }

  const auto run = [&](const std::shared_ptr<dmpc::RoundExecutor>& exec) {
    auto forest = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n,
                              .m_cap = 4 * n,
                              .weighted = weighted,
                              .atomic_updates = atomic_updates});
    forest->cluster().set_executor(exec);
    forest->preprocess(graph::WeightedEdgeList{});
    Driver driver(n, DriverConfig{.batch_size = batch_size,
                                  .checkpoint_every = 0,
                                  .weighted = weighted});
    driver.add("forest", *forest);
    driver.run(stream);
    return forest;
  };
  const auto serial = run(std::make_shared<dmpc::SerialExecutor>());
  const auto pooled = run(std::make_shared<dmpc::ThreadPoolExecutor>(4));

  EXPECT_EQ(serial->component_snapshot(), pooled->component_snapshot())
      << "seed " << seed;
  EXPECT_EQ(serial->tree_edges(), pooled->tree_edges()) << "seed " << seed;
  EXPECT_EQ(serial->forest_weight(), pooled->forest_weight())
      << "seed " << seed;
  EXPECT_EQ(canonical_directory(*serial), canonical_directory(*pooled))
      << "seed " << seed;
  std::string swhy, pwhy;
  EXPECT_EQ(serial->validate(&swhy), pooled->validate(&pwhy))
      << "seed " << seed;
  EXPECT_EQ(swhy, pwhy) << "seed " << seed;

  const auto& sagg = serial->cluster().metrics().aggregate();
  const auto& pagg = pooled->cluster().metrics().aggregate();
  EXPECT_EQ(sagg.total_rounds, pagg.total_rounds) << "seed " << seed;
  EXPECT_EQ(sagg.total_comm_words, pagg.total_comm_words) << "seed " << seed;
  EXPECT_EQ(sagg.worst_rounds, pagg.worst_rounds) << "seed " << seed;
  EXPECT_EQ(sagg.updates, pagg.updates) << "seed " << seed;

  const dmpc::BatchScheduleStats& ss = serial->batch_stats();
  const dmpc::BatchScheduleStats& ps = pooled->batch_stats();
  EXPECT_EQ(ss.batches, ps.batches) << "seed " << seed;
  EXPECT_EQ(ss.grouped_updates, ps.grouped_updates) << "seed " << seed;
  EXPECT_EQ(ss.serial_updates, ps.serial_updates) << "seed " << seed;
  EXPECT_EQ(ss.reordered_updates, ps.reordered_updates) << "seed " << seed;
  EXPECT_EQ(ss.batched_tree_deletes, ps.batched_tree_deletes)
      << "seed " << seed;
  EXPECT_EQ(ss.max_group, ps.max_group) << "seed " << seed;
  EXPECT_EQ(ss.path_max_grouped, ps.path_max_grouped) << "seed " << seed;
  EXPECT_EQ(ss.deferred_updates, ps.deferred_updates) << "seed " << seed;
  EXPECT_EQ(ss.stages, ps.stages) << "seed " << seed;
  EXPECT_EQ(ss.kway_splits, ps.kway_splits) << "seed " << seed;
  EXPECT_EQ(ss.kway_joins, ps.kway_joins) << "seed " << seed;
  EXPECT_EQ(ss.cascade_rounds, ps.cascade_rounds) << "seed " << seed;
  EXPECT_EQ(ss.cascade_links, ps.cascade_links) << "seed " << seed;
  EXPECT_EQ(ss.elided_updates, ps.elided_updates) << "seed " << seed;
}

std::vector<StressCase> stress_cases(bool atomic_updates) {
  std::vector<StressCase> cases;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    // Vary the batch size with the seed so group shapes differ: 4..32.
    const std::size_t batch_size = 4 << (seed % 4);
    cases.push_back({seed, batch_size, false, atomic_updates});
    cases.push_back({seed, batch_size, true, atomic_updates});
  }
  return cases;
}

std::string stress_case_name(const ::testing::TestParamInfo<StressCase>& info) {
  return "seed" + std::to_string(info.param.seed) + "_batch" +
         std::to_string(info.param.batch_size) +
         (info.param.weighted ? "_weighted" : "_unweighted");
}

// Two 48-case sweeps per suite over the batch-dynamic protocol:
// BatchDynamic with the default undo journal, and Wave with
// atomic_updates off (the configuration benches use to price the
// journal), where no pre-image is recorded and a stage's writes land
// unguarded.  The second sweep ran the deleted wave scheduler before the
// protocol became the only batch path; it keeps that suite name so its
// test IDs stay stable.
INSTANTIATE_TEST_SUITE_P(BatchDynamic, PooledExecutorBitIdentity,
                         ::testing::ValuesIn(stress_cases(true)),
                         stress_case_name);
INSTANTIATE_TEST_SUITE_P(Wave, PooledExecutorBitIdentity,
                         ::testing::ValuesIn(stress_cases(false)),
                         stress_case_name);

INSTANTIATE_TEST_SUITE_P(BatchDynamic, BatchSchedulerStress,
                         ::testing::ValuesIn(stress_cases(true)),
                         stress_case_name);
INSTANTIATE_TEST_SUITE_P(Wave, BatchSchedulerStress,
                         ::testing::ValuesIn(stress_cases(false)),
                         stress_case_name);

}  // namespace
