// RoundBuffer: the per-round communication ledger behind every Cluster
// round.  These tests pin its contract:
//   * staging from concurrent round tasks settles to the same record and
//     pair traffic as serial staging (the shards are walked in sender
//     order at the barrier);
//   * a send-cap or receive-cap overflow throws CommOverflowError and
//     drops the staged records, so the next round records only its own
//     traffic;
//   * reset() (drop_round_state) after staging with no barrier leaves the
//     next round clean;
//   * an empty round records zeros;
//   * the dense pair-traffic ledger gives an ordered, zero-free view and
//     the Section 8 entropy, empties on reset(), keeps an aborted
//     update's traffic, and grows for ids past its size.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <utility>

#include "dmpc/cluster.hpp"
#include "dmpc/executor.hpp"
#include "dmpc/metrics.hpp"
#include "dmpc/round_buffer.hpp"

namespace {

using dmpc::MachineId;
using dmpc::Metrics;
using dmpc::RoundBuffer;
using dmpc::RoundRecord;
using dmpc::WordCount;

using PairTraffic = std::map<std::pair<MachineId, MachineId>, WordCount>;

void expect_same_record(const RoundRecord& a, const RoundRecord& b) {
  EXPECT_EQ(a.active_machines, b.active_machines);
  EXPECT_EQ(a.comm_words, b.comm_words);
  EXPECT_EQ(a.messages, b.messages);
}

/// Machine `from`'s share of a deterministic all-to-all pattern: one
/// message to every other machine, costing from + to + 1 words.
void stage_from(RoundBuffer& buf, MachineId from, std::size_t machines) {
  for (MachineId to = 0; to < static_cast<MachineId>(machines); ++to) {
    if (to != from) buf.stage(from, to, from + to + 1);
  }
}

TEST(RoundBuffer, ConcurrentStagingMatchesSerial) {
  constexpr std::size_t kMachines = 16;
  constexpr int kRounds = 4;
  RoundBuffer serial_buf(kMachines), pooled_buf(kMachines);
  Metrics serial_metrics, pooled_metrics;
  dmpc::SerialExecutor serial;
  dmpc::ThreadPoolExecutor pool(4);

  for (int round = 0; round < kRounds; ++round) {
    serial.run(kMachines, [&](std::size_t m) {
      stage_from(serial_buf, static_cast<MachineId>(m), kMachines);
    });
    pool.run(kMachines, [&](std::size_t m) {
      stage_from(pooled_buf, static_cast<MachineId>(m), kMachines);
    });
    const RoundRecord a = serial_buf.deliver(/*capacity=*/1 << 20,
                                             serial_metrics);
    const RoundRecord b = pooled_buf.deliver(/*capacity=*/1 << 20,
                                             pooled_metrics);
    EXPECT_EQ(a.messages, kMachines * (kMachines - 1)) << "round " << round;
    EXPECT_EQ(a.active_machines, kMachines) << "round " << round;
    expect_same_record(a, b);
  }
  const PairTraffic traffic = serial_metrics.pair_traffic();
  EXPECT_EQ(traffic, pooled_metrics.pair_traffic());
  EXPECT_EQ(traffic.size(), kMachines * (kMachines - 1));
  EXPECT_EQ((traffic.at({3, 5})), WordCount{kRounds * 9});
}

TEST(RoundBuffer, SendCapOverflowThrowsAndDropsStaged) {
  RoundBuffer buf(3);
  Metrics metrics;
  buf.stage(0, 1, 10);
  buf.stage(0, 2, 10);  // machine 0 sends 20 > 16
  EXPECT_THROW(buf.deliver(/*capacity=*/16, metrics),
               dmpc::CommOverflowError);

  // The staged records went with the failed round: the next round
  // records only its own traffic.
  buf.stage(2, 1, 4);
  const RoundRecord rec = buf.deliver(/*capacity=*/16, metrics);
  EXPECT_EQ(rec.messages, 1u);
  EXPECT_EQ(rec.comm_words, 4u);
  EXPECT_EQ(rec.active_machines, 2u);
}

TEST(RoundBuffer, ReceiveCapOverflowThrowsAndDropsStaged) {
  RoundBuffer buf(3);
  Metrics metrics;
  buf.stage(0, 2, 9);
  buf.stage(1, 2, 9);  // machine 2 receives 18 > 16
  EXPECT_THROW(buf.deliver(/*capacity=*/16, metrics),
               dmpc::CommOverflowError);

  buf.stage(1, 0, 3);
  const RoundRecord rec = buf.deliver(/*capacity=*/16, metrics);
  EXPECT_EQ(rec.messages, 1u);
  EXPECT_EQ(rec.comm_words, 3u);
  EXPECT_EQ(rec.active_machines, 2u);
}

TEST(RoundBuffer, ResetAfterStagingLeavesNextRoundClean) {
  // An injected task fault throws between staging and the barrier, so
  // deliver() never runs; recovery calls reset() instead.
  RoundBuffer buf(4);
  Metrics metrics;
  buf.stage(0, 1, 5);
  buf.stage(3, 2, 7);
  buf.reset();

  buf.stage(1, 2, 2);
  const RoundRecord rec = buf.deliver(/*capacity=*/16, metrics);
  EXPECT_EQ(rec.messages, 1u);
  EXPECT_EQ(rec.comm_words, 2u);
  EXPECT_EQ(rec.active_machines, 2u);
  EXPECT_EQ(metrics.pair_traffic(), (PairTraffic{{{1, 2}, 2}}));
}

TEST(RoundBuffer, EmptyRoundRecordsZeros) {
  RoundBuffer buf(2);
  Metrics metrics;
  buf.stage(0, 1, 4);
  buf.deliver(/*capacity=*/8, metrics);
  const RoundRecord rec = buf.deliver(/*capacity=*/8, metrics);
  EXPECT_EQ(rec.messages, 0u);
  EXPECT_EQ(rec.comm_words, 0u);
  EXPECT_EQ(rec.active_machines, 0u);
}

TEST(PairLedger, OrderedZeroFreeViewAndEntropy) {
  Metrics metrics(3);
  metrics.record_pair_traffic(2, 0, 3);
  metrics.record_pair_traffic(0, 1, 2);
  metrics.record_pair_traffic(0, 1, 5);
  EXPECT_EQ(metrics.pair_traffic(), (PairTraffic{{{0, 1}, 7}, {{2, 0}, 3}}));
  EXPECT_DOUBLE_EQ(metrics.pair_entropy_bits(),
                   -(0.7 * std::log2(0.7) + 0.3 * std::log2(0.3)));

  metrics.reset();
  EXPECT_TRUE(metrics.pair_traffic().empty());
  EXPECT_EQ(metrics.pair_entropy_bits(), 0.0);
}

TEST(PairLedger, AbortKeepsPairTraffic) {
  // The words of an aborted update really crossed the network before
  // the fault, so they stay in the histogram.
  Metrics metrics(2);
  metrics.begin_update();
  metrics.record_pair_traffic(1, 0, 4);
  metrics.abort_update();
  EXPECT_EQ(metrics.abort_aggregate().aborts, 1u);
  EXPECT_EQ(metrics.pair_traffic(), (PairTraffic{{{1, 0}, 4}}));
}

TEST(PairLedger, AcceptsIdsPastItsSize) {
  Metrics bare;
  bare.record_pair_traffic(5, 9, 4);
  bare.record_pair_traffic(1, 0, 1);
  EXPECT_EQ(bare.pair_traffic(), (PairTraffic{{{1, 0}, 1}, {{5, 9}, 4}}));

  // Growing a sized ledger keeps what it already holds.
  Metrics sized(2);
  sized.record_pair_traffic(1, 0, 6);
  sized.record_pair_traffic(0, 7, 2);
  sized.record_pair_traffic(1, 0, 1);
  EXPECT_EQ(sized.pair_traffic(), (PairTraffic{{{0, 7}, 2}, {{1, 0}, 7}}));
}

}  // namespace
