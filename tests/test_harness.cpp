// Tests of the harness subsystem itself: the Driver's no-op filtering,
// batching, checkpoint scheduling, per-algorithm DMPC metric aggregation,
// validate() integration, and the ready-made oracle cross-checks.
#include <gtest/gtest.h>

#include "core/dyn_forest.hpp"
#include "core/maximal_matching.hpp"
#include "graph/update_stream.hpp"
#include "harness/checks.hpp"
#include "harness/driver.hpp"
#include "seq/hdt.hpp"
#include "seq/ns_matching.hpp"
#include "test_util.hpp"

namespace {

using graph::Update;
using graph::UpdateKind;
using harness::Driver;
using harness::DriverConfig;

// A minimal algorithm for driving the Driver's bookkeeping.
struct RecordingAlgorithm {
  std::vector<Update> seen;
  void insert(dmpc::VertexId u, dmpc::VertexId v) {
    seen.push_back({UpdateKind::kInsert, u, v});
  }
  void erase(dmpc::VertexId u, dmpc::VertexId v) {
    seen.push_back({UpdateKind::kDelete, u, v});
  }
};
static_assert(harness::DynamicAlgorithm<RecordingAlgorithm>);
static_assert(!harness::SelfValidating<RecordingAlgorithm>);
static_assert(!harness::ClusterBacked<RecordingAlgorithm>);
static_assert(harness::ClusterBacked<core::MaximalMatching>);
static_assert(harness::SelfValidating<core::DynamicForest>);

TEST(HarnessDriver, DropsNoOpUpdatesAndCountsThem) {
  RecordingAlgorithm rec;
  Driver driver(4);
  driver.add("rec", rec);
  const graph::UpdateStream stream = {
      {UpdateKind::kInsert, 0, 1},
      {UpdateKind::kInsert, 0, 1},  // duplicate: no-op
      {UpdateKind::kDelete, 2, 3},  // absent: no-op
      {UpdateKind::kDelete, 1, 0},  // same edge, reversed: effective
  };
  const auto& report = driver.run(stream);
  EXPECT_EQ(report.applied, 2u);
  EXPECT_EQ(report.skipped, 2u);
  ASSERT_EQ(rec.seen.size(), 2u);
  EXPECT_EQ(rec.seen[0].kind, UpdateKind::kInsert);
  EXPECT_EQ(rec.seen[1].kind, UpdateKind::kDelete);
  EXPECT_EQ(driver.shadow().num_edges(), 0u);
}

TEST(HarnessDriver, SeedPopulatesShadowOnly) {
  RecordingAlgorithm rec;
  Driver driver(4);
  driver.add("rec", rec);
  driver.seed(graph::EdgeList{{0, 1}, {1, 2}});
  EXPECT_EQ(driver.shadow().num_edges(), 2u);
  EXPECT_TRUE(rec.seen.empty());
  // A re-insert of a seeded edge is now a no-op.
  driver.run({{UpdateKind::kInsert, 0, 1}});
  EXPECT_EQ(driver.report().skipped, 1u);
  EXPECT_TRUE(rec.seen.empty());
}

TEST(HarnessDriver, BatchBoundariesAndCheckpointCadence) {
  RecordingAlgorithm rec;
  Driver driver(16, DriverConfig{.batch_size = 4,
                                 .checkpoint_every = 2,
                                 .final_checkpoint = false});
  driver.add("rec", rec);
  std::size_t batch_ends = 0;
  std::vector<std::size_t> checkpoint_steps;
  driver.on_batch_end([&] { ++batch_ends; });
  driver.on_checkpoint([&](const harness::Checkpoint& cp) {
    checkpoint_steps.push_back(cp.step);
  });
  // 10 effective inserts: batches close at 4, 8, and the 2-update
  // remainder; checkpoints every 2nd batch.
  graph::UpdateStream stream;
  for (dmpc::VertexId v = 0; v < 10; ++v) {
    stream.push_back({UpdateKind::kInsert, v, (v + 1) % 16});
  }
  const auto& report = driver.run(stream);
  EXPECT_EQ(report.applied, 10u);
  EXPECT_EQ(report.batches, 3u);
  EXPECT_EQ(batch_ends, 3u);
  EXPECT_EQ(report.checkpoints, 1u);
  ASSERT_EQ(checkpoint_steps.size(), 1u);
  EXPECT_EQ(checkpoint_steps[0], 8u);
}

TEST(HarnessDriver, FinalCheckpointNotDuplicatedOnBoundary) {
  RecordingAlgorithm rec;
  Driver driver(8, DriverConfig{.batch_size = 2, .checkpoint_every = 1});
  driver.add("rec", rec);
  std::vector<std::size_t> checkpoint_steps;
  driver.on_checkpoint([&](const harness::Checkpoint& cp) {
    checkpoint_steps.push_back(cp.step);
  });
  // 4 effective updates = exactly 2 batches: checkpoints after steps 2 and
  // 4; the final checkpoint must not re-run on the state already checked
  // at step 4.
  graph::UpdateStream stream;
  for (dmpc::VertexId v = 0; v < 4; ++v) {
    stream.push_back({UpdateKind::kInsert, v, v + 4});
  }
  const auto& report = driver.run(stream);
  EXPECT_EQ(report.checkpoints, 2u);
  EXPECT_EQ(checkpoint_steps, (std::vector<std::size_t>{2, 4}));
}

TEST(HarnessDriver, StopWhenAbortsRunAfterCheckpoint) {
  RecordingAlgorithm rec;
  Driver driver(16, DriverConfig{.batch_size = 1,
                                 .checkpoint_every = 2,
                                 .final_checkpoint = false});
  driver.add("rec", rec);
  bool stop = false;
  driver.stop_when([&] { return stop; });
  driver.on_checkpoint([&](const harness::Checkpoint& cp) {
    if (cp.step >= 4) stop = true;
  });
  graph::UpdateStream stream;
  for (dmpc::VertexId v = 0; v < 10; ++v) {
    stream.push_back({UpdateKind::kInsert, v, v + 1});
  }
  // Checkpoints fire after steps 2 and 4; the second trips the stop
  // predicate, so the remaining 6 updates are never applied.
  const auto& report = driver.run(stream);
  EXPECT_EQ(report.applied, 4u);
  EXPECT_EQ(report.checkpoints, 2u);
  EXPECT_EQ(rec.seen.size(), 4u);
}

TEST(HarnessDriver, BatchedCheckpointsSeeCommittedStateOnly) {
  // With a batched algorithm registered, checkpoint callbacks must
  // observe exactly the committed state, or every oracle cross-check
  // would compare the algorithms against a graph they never saw.
  const std::size_t n = 32;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{});
  Driver driver(n, DriverConfig{.batch_size = 4, .checkpoint_every = 1});
  driver.add("forest", forest);
  std::vector<std::pair<std::size_t, std::size_t>> seen;  // (step, edges)
  driver.on_checkpoint([&](const harness::Checkpoint& cp) {
    seen.emplace_back(cp.step, cp.shadow.num_edges());
  });
  graph::UpdateStream stream;
  for (dmpc::VertexId v = 0; v < 10; ++v) {
    stream.push_back({UpdateKind::kInsert, 2 * v, 2 * v + 1});
  }
  const auto& report = driver.run(stream);
  EXPECT_EQ(report.applied, 10u);
  // Checkpoints at the batch boundaries 4, 8 and the trailing partial
  // batch, each seeing exactly the committed number of edges.
  EXPECT_EQ(seen, (std::vector<std::pair<std::size_t, std::size_t>>{
                      {4, 4}, {8, 8}, {10, 10}}));
}

TEST(HarnessDriver, BatchedRunsTheFinalCheckpointOnTheLastBatch) {
  // The post-loop close of the trailing batch commits new state after
  // the in-loop close of the previous batch checkpointed; the final
  // checkpoint must still fire on it (a stale at_checkpoint flag would
  // skip it, leaving the last batch unvalidated).
  const std::size_t n = 64;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{});
  Driver driver(n, DriverConfig{.batch_size = 4, .checkpoint_every = 2});
  driver.add("forest", forest);
  std::vector<std::size_t> checkpoint_steps;
  driver.on_checkpoint([&](const harness::Checkpoint& cp) {
    checkpoint_steps.push_back(cp.step);
  });
  graph::UpdateStream stream;
  for (dmpc::VertexId v = 0; v < 12; ++v) {
    stream.push_back({UpdateKind::kInsert, 2 * v, 2 * v + 1});
  }
  driver.run(stream);
  // Cadence checkpoint at batch 2 (step 8), final checkpoint on the
  // third batch (step 12).
  EXPECT_EQ(checkpoint_steps, (std::vector<std::size_t>{8, 12}));
}

TEST(HarnessDriver, StopAfterBatchedCheckpointKeepsShadowCommitted) {
  // When stop_when fires, the shadow must hold exactly what the
  // algorithms committed: an update filtered into the shadow but never
  // applied would make a later run() on the same driver drop its
  // re-application as a "duplicate" and silently diverge the
  // algorithms from the oracle.
  const std::size_t n = 32;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{});
  Driver driver(n, DriverConfig{.batch_size = 2, .checkpoint_every = 1});
  driver.add("forest", forest);
  bool stop = false;
  driver.stop_when([&] { return stop; });
  driver.on_checkpoint([&](const harness::Checkpoint& cp) {
    if (cp.step >= 2) stop = true;
  });
  graph::UpdateStream stream;
  for (dmpc::VertexId v = 0; v < 8; ++v) {
    stream.push_back({UpdateKind::kInsert, 2 * v, 2 * v + 1});
  }
  driver.run(stream);
  // The stop fired after the first batch closed (step 2); nothing past
  // it reached the shadow.
  EXPECT_EQ(driver.report().applied, 2u);
  EXPECT_EQ(driver.shadow().num_edges(), 2u);
  // Applying an edge the stopped run never reached is NOT a duplicate.
  driver.run({{UpdateKind::kInsert, 4, 5}});
  EXPECT_EQ(driver.report().skipped, 0u);
  EXPECT_EQ(driver.report().applied, 3u);
  EXPECT_TRUE(forest.connected(4, 5));
}

TEST(HarnessDriver, AggregatesPerUpdateMetricsPerAlgorithm) {
  const std::size_t n = 16;
  core::MaximalMatching mm({.n = n, .m_cap = 4 * n});
  mm.preprocess({});
  RecordingAlgorithm rec;
  Driver driver(n);
  driver.add("mm", mm);
  driver.add("rec", rec);
  const auto stream = test_util::make_stream(test_util::StreamKind::kRandom,
                                             n, 60, 11);
  const auto& report = driver.run(stream);
  const auto* mm_stats = report.find("mm");
  ASSERT_NE(mm_stats, nullptr);
  EXPECT_TRUE(mm_stats->instrumented);
  EXPECT_EQ(mm_stats->agg.updates, report.applied);
  EXPECT_GT(mm_stats->agg.worst_rounds, 0u);
  const auto* rec_stats = report.find("rec");
  ASSERT_NE(rec_stats, nullptr);
  EXPECT_FALSE(rec_stats->instrumented);
  EXPECT_EQ(rec_stats->agg.updates, 0u);
  EXPECT_EQ(report.find("nope"), nullptr);
  // The driver's aggregate survives a caller-side metrics reset.
  mm.cluster().metrics().reset();
  EXPECT_EQ(driver.report().find("mm")->agg.updates, report.applied);
}

TEST(HarnessDriver, ValidateFailureThrowsValidationError) {
  struct BrokenAlgorithm {
    void insert(dmpc::VertexId, dmpc::VertexId) {}
    void erase(dmpc::VertexId, dmpc::VertexId) {}
    bool validate(std::string* why) const {
      if (why) *why = "intentionally broken";
      return false;
    }
  };
  static_assert(harness::SelfValidating<BrokenAlgorithm>);
  BrokenAlgorithm broken;
  Driver driver(4);
  driver.add("broken", broken);
  EXPECT_THROW(driver.run({{UpdateKind::kInsert, 0, 1}}),
               harness::ValidationError);
}

TEST(HarnessDriver, OracleCrossChecksPassOnRealAlgorithms) {
  const std::size_t n = 24;
  core::DynamicForest forest({.n = n, .m_cap = 600});
  forest.preprocess(graph::EdgeList{});
  core::MaximalMatching mm({.n = n, .m_cap = 600});
  mm.preprocess({});
  Driver driver(n, DriverConfig{.batch_size = 5, .checkpoint_every = 1});
  driver.add("forest", forest);
  driver.add("matching", mm);
  driver.on_checkpoint(harness::components_match_oracle(forest, "forest"));
  driver.on_checkpoint(harness::matching_maximal(mm, "matching"));
  const auto stream = test_util::make_stream(test_util::StreamKind::kRandom,
                                             n, 200, 21);
  EXPECT_NO_THROW(driver.run(stream));
  EXPECT_GT(driver.report().checkpoints, 10u);
}

TEST(HarnessDriver, OracleCrossCheckCatchesDivergence) {
  // An algorithm that silently ignores deletions: the partition check
  // must flag it once a deletion disconnects the shadow.
  struct ForgetfulForest {
    explicit ForgetfulForest(std::size_t n) : labels(n) {
      for (std::size_t v = 0; v < n; ++v) {
        labels[v] = static_cast<dmpc::VertexId>(v);
      }
    }
    std::vector<dmpc::VertexId> labels;
    void insert(dmpc::VertexId u, dmpc::VertexId v) {
      const dmpc::VertexId lu = labels[static_cast<std::size_t>(u)];
      const dmpc::VertexId lv = labels[static_cast<std::size_t>(v)];
      for (auto& l : labels) {
        if (l == lv) l = lu;
      }
    }
    void erase(dmpc::VertexId, dmpc::VertexId) {}  // the bug
    [[nodiscard]] std::vector<dmpc::VertexId> component_snapshot() const {
      return labels;
    }
  };
  ForgetfulForest forgetful(4);
  Driver driver(4);
  driver.add("forgetful", forgetful);
  driver.on_checkpoint(
      harness::components_match_oracle(forgetful, "forgetful"));
  EXPECT_THROW(driver.run({{UpdateKind::kInsert, 0, 1},
                           {UpdateKind::kDelete, 0, 1}}),
               harness::ValidationError);
}

TEST(HarnessDriver, DrivesSequentialTwinsAlongsideDistributed) {
  const std::size_t n = 20;
  core::DynamicForest forest({.n = n, .m_cap = 500});
  forest.preprocess(graph::EdgeList{});
  seq::AccessCounter counter;
  seq::HdtConnectivity hdt(n, counter);
  Driver driver(n, DriverConfig{.checkpoint_every = 4});
  driver.add("forest", forest);
  driver.add("hdt", hdt);
  test_util::stop_on_fatal_failure(driver);
  driver.on_checkpoint([&](const harness::Checkpoint& cp) {
    const auto labels = forest.component_snapshot();
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = x + 1; y < n; y += 3) {
        ASSERT_EQ(labels[x] == labels[y],
                  hdt.connected(static_cast<dmpc::VertexId>(x),
                                static_cast<dmpc::VertexId>(y)))
            << "step " << cp.step;
      }
    }
  });
  const auto stream = test_util::make_stream(
      test_util::StreamKind::kBridgeAdversary, n, 150, 31);
  EXPECT_NO_THROW(driver.run(stream));
  EXPECT_GT(driver.report().applied, 0u);
}

}  // namespace
