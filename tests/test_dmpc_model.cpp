// Unit tests for the DMPC round simulator: round semantics, activity and
// communication accounting, memory/communication caps, update grouping,
// and the Section 8 entropy metric.
#include <gtest/gtest.h>

#include <vector>

#include "dmpc/cluster.hpp"
#include "dmpc/memory.hpp"

namespace {

using dmpc::Cluster;
using dmpc::MemoryMeter;
using dmpc::RoundRecord;
using dmpc::Word;

TEST(MemoryMeter, ChargesAndReleases) {
  MemoryMeter meter(100);
  meter.charge(40);
  EXPECT_EQ(meter.used(), 40u);
  EXPECT_EQ(meter.free(), 60u);
  meter.charge(60);
  EXPECT_EQ(meter.used(), 100u);
  meter.release(30);
  EXPECT_EQ(meter.used(), 70u);
  EXPECT_EQ(meter.high_water(), 100u);
}

TEST(MemoryMeter, ThrowsOnOverflow) {
  MemoryMeter meter(10);
  meter.charge(10);
  EXPECT_THROW(meter.charge(1), dmpc::MemoryOverflowError);
}

TEST(MemoryMeter, ReleaseClampsAtZero) {
  MemoryMeter meter(10);
  meter.charge(5);
  meter.release(50);
  EXPECT_EQ(meter.used(), 0u);
}

TEST(Cluster, DeliversMessagesAtRoundEnd) {
  Cluster c(4, 100);
  c.send(0, 2, 7, {1, 2, 3});
  EXPECT_TRUE(c.metrics().pair_traffic().empty());  // nothing settles mid-round
  RoundRecord rec = c.finish_round();
  EXPECT_EQ(rec.messages, 1u);
  EXPECT_EQ(rec.active_machines, 2u);
  EXPECT_EQ(rec.comm_words, 4u);  // 3 payload + 1 tag word
}

TEST(Cluster, ActiveMachinesCountsSendersAndReceivers) {
  Cluster c(6, 100);
  c.send(0, 1, 1, {});
  c.send(2, 3, 1, {});
  c.send(0, 3, 1, {});  // 0 and 3 already counted
  RoundRecord rec = c.finish_round();
  EXPECT_EQ(rec.active_machines, 4u);
  EXPECT_EQ(rec.messages, 3u);
}

TEST(Cluster, SelfMessageActivatesOneMachine) {
  Cluster c(2, 100);
  c.send(1, 1, 1, {42});
  RoundRecord rec = c.finish_round();
  EXPECT_EQ(rec.active_machines, 1u);
}

TEST(Cluster, EnforcesPerMachineSendCap) {
  Cluster c(3, 4);
  c.send(0, 1, 1, {1, 2, 3, 4});  // 5 words > cap 4
  EXPECT_THROW(c.finish_round(), dmpc::CommOverflowError);
}

TEST(Cluster, EnforcesPerMachineReceiveCap) {
  Cluster c(3, 4);
  // Each message costs 3 words; machine 2 receives 6 > 4.
  c.send(0, 2, 1, {1, 2});
  c.send(1, 2, 1, {1, 2});
  EXPECT_THROW(c.finish_round(), dmpc::CommOverflowError);
}

TEST(Cluster, AllowsTrafficExactlyAtCap) {
  // The model cap is "at most S words per machine per round": exactly S
  // must pass on both the send and the receive side (tag counts 1 word).
  Cluster c(3, 4);
  c.send(0, 1, 1, {1, 2, 3});  // 4 words sent by 0, received by 1
  EXPECT_NO_THROW(c.finish_round());
}

TEST(Cluster, SendCapSumsOverMessages) {
  // Several small messages from one machine in one round count against
  // the same S-word send budget.
  Cluster c(4, 4);
  c.send(0, 1, 1, {1});  // 2 words
  c.send(0, 2, 1, {1});  // 2 words: at cap
  c.send(0, 3, 1, {});   // 1 word: over-S
  EXPECT_THROW(c.finish_round(), dmpc::CommOverflowError);
}

TEST(Cluster, CapsArePerRoundNotCumulative) {
  // Using the full budget in consecutive rounds is legal: the cap is per
  // round, not per update or per run.
  Cluster c(2, 4);
  for (int round = 0; round < 3; ++round) {
    c.send(0, 1, 1, {1, 2, 3});  // exactly S both sides
    EXPECT_NO_THROW(c.finish_round()) << "round " << round;
  }
}

TEST(Cluster, UpdateGroupingTracksWorstRound) {
  Cluster c(4, 100);
  c.begin_update();
  c.send(0, 1, 1, {1, 2, 3});
  c.finish_round();
  c.send(0, 1, 1, {});
  c.send(2, 3, 1, {});
  c.finish_round();
  auto rec = c.end_update();
  EXPECT_EQ(rec.rounds, 2u);
  EXPECT_EQ(rec.max_active_machines, 4u);
  EXPECT_EQ(rec.max_comm_words, 4u);
  EXPECT_EQ(rec.total_comm_words, 6u);
}

TEST(Cluster, AggregateAbsorbsWorstCase) {
  Cluster c(4, 100);
  for (int i = 0; i < 3; ++i) {
    c.begin_update();
    for (int r = 0; r <= i; ++r) {
      c.send(0, 1, 1, std::vector<Word>(static_cast<std::size_t>(i), 9));
      c.finish_round();
    }
    c.end_update();
  }
  const auto& agg = c.metrics().aggregate();
  EXPECT_EQ(agg.updates, 3u);
  EXPECT_EQ(agg.worst_rounds, 3u);
  EXPECT_EQ(agg.worst_comm_words, 3u);
  EXPECT_NEAR(agg.mean_rounds(), 2.0, 1e-9);
}

TEST(Cluster, SendCapViolationMidUpdate) {
  // The cap is enforced on every round of an update group, not only the
  // first: a batch protocol that overfills a later round must still
  // throw, and the error must name the send side.
  Cluster c(3, 8);
  c.begin_update();
  c.send(0, 1, 1, {1, 2, 3});
  EXPECT_NO_THROW(c.finish_round());
  c.send(0, 1, 1, {1, 2, 3, 4});  // 5 words
  c.send(0, 2, 1, {1, 2, 3});     // +4 words: 9 > 8 sent by machine 0
  try {
    c.finish_round();
    FAIL() << "expected CommOverflowError";
  } catch (const dmpc::CommOverflowError& e) {
    EXPECT_NE(std::string(e.what()).find("sent"), std::string::npos)
        << e.what();
  }
}

TEST(Cluster, ReceiveCapViolationMidUpdate) {
  // Same mid-update enforcement on the receive side: several senders
  // individually under the cap can still overflow one recipient.
  Cluster c(4, 8);
  c.begin_update();
  c.send(0, 3, 1, {1});
  EXPECT_NO_THROW(c.finish_round());
  c.send(0, 3, 1, {1, 2, 3});  // 4 words
  c.send(1, 3, 1, {1, 2, 3});  // 4 words
  c.send(2, 3, 1, {1});        // +2 words: 10 > 8 received by machine 3
  try {
    c.finish_round();
    FAIL() << "expected CommOverflowError";
  } catch (const dmpc::CommOverflowError& e) {
    EXPECT_NE(std::string(e.what()).find("received"), std::string::npos)
        << e.what();
  }
}

TEST(Cluster, ChargedRoundsShareAccountingWithRealRounds) {
  // charge_round (rounds charged as black boxes) must land in the
  // same per-update record as simulated rounds: rounds add up, the
  // per-round maxima cover both kinds, and the totals include both.
  Cluster c(4, 100);
  c.begin_update();
  c.send(0, 1, 1, {1, 2});  // real round: 3 words, 2 machines
  c.finish_round();
  RoundRecord synthetic;
  synthetic.active_machines = 4;
  synthetic.comm_words = 40;
  synthetic.messages = 4;
  c.charge_round(synthetic);
  c.send(2, 3, 1, {});  // real round: 1 word, 2 machines
  c.finish_round();
  const auto rec = c.end_update();
  EXPECT_EQ(rec.rounds, 3u);
  EXPECT_EQ(rec.max_active_machines, 4u);   // from the charged round
  EXPECT_EQ(rec.max_comm_words, 40u);       // from the charged round
  EXPECT_EQ(rec.total_comm_words, 44u);     // 3 + 40 + 1
  const auto& agg = c.metrics().aggregate();
  EXPECT_EQ(agg.updates, 1u);
  EXPECT_EQ(agg.worst_rounds, 3u);
  EXPECT_EQ(agg.total_rounds, 3u);
  EXPECT_EQ(agg.worst_comm_words, 40u);
}

TEST(Cluster, RejectsOutOfRangeMachine) {
  Cluster c(2, 10);
  EXPECT_THROW(c.send(0, 5, 1, {}), std::out_of_range);
  EXPECT_THROW(c.memory(9), std::out_of_range);
}

TEST(Metrics, EntropyZeroForSinglePair) {
  Cluster c(4, 100);
  c.send(0, 1, 1, {1, 2});
  c.finish_round();
  EXPECT_NEAR(c.metrics().pair_entropy_bits(), 0.0, 1e-12);
}

TEST(Metrics, EntropyMaxForUniformPairs) {
  Cluster c(4, 100);
  // Four distinct pairs, equal traffic: entropy = log2(4) = 2 bits.
  c.send(0, 1, 1, {1});
  c.send(1, 2, 1, {1});
  c.send(2, 3, 1, {1});
  c.send(3, 0, 1, {1});
  c.finish_round();
  EXPECT_NEAR(c.metrics().pair_entropy_bits(), 2.0, 1e-12);
}

TEST(Metrics, CoordinatorPatternHasLowerEntropyThanUniform) {
  // A coordinator talking to k machines yields entropy log2(k); the same
  // volume spread over k^2/2 distinct pairs yields more — the Section 8
  // argument in miniature.
  Cluster coord(9, 1000);
  for (dmpc::MachineId m = 1; m < 9; ++m) coord.send(0, m, 1, {1});
  coord.finish_round();
  Cluster spread(9, 1000);
  for (dmpc::MachineId a = 0; a < 9; ++a) {
    for (dmpc::MachineId b = a + 1; b < 9; ++b) spread.send(a, b, 1, {1});
  }
  spread.finish_round();
  EXPECT_LT(coord.metrics().pair_entropy_bits(),
            spread.metrics().pair_entropy_bits());
}

TEST(Metrics, ResetClearsEverything) {
  Cluster c(2, 100);
  c.begin_update();
  c.send(0, 1, 1, {1});
  c.finish_round();
  c.end_update();
  c.metrics().reset();
  EXPECT_EQ(c.metrics().aggregate().updates, 0u);
  EXPECT_EQ(c.metrics().aggregate().total_rounds, 0u);
  EXPECT_NEAR(c.metrics().pair_entropy_bits(), 0.0, 1e-12);
}

}  // namespace
