// The per-round communication ledger.
//
// The model charges a round by its traffic, not by what the messages
// say (paper, Section 2): the words each machine sends and receives,
// checked against the S-word cap, the machines that took part, and the
// total words moved.  So a staged message is recorded as its cost alone:
// a (to, words) entry in the sender's shard.  Protocols compute from
// machine state directly, so no payload is ever stored or delivered.
//
// Staging can be written to concurrently: each *sender* has its own
// shard, and the executor contract (see executor.hpp) makes machine i's
// round task the only writer of shard i.  deliver() (always called at
// the finish_round() barrier, on the orchestrating thread) walks the
// shards in sender order, so the accounting is identical no matter
// which executor staged them.  All Metrics accounting happens there, at
// the barrier, which keeps the metrics stream race-free without locks.
//
// The shards are cleared with their capacity kept, so in steady state
// staging never touches the allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dmpc/metrics.hpp"
#include "dmpc/types.hpp"

namespace dmpc {

class RoundBuffer {
 public:
  explicit RoundBuffer(std::size_t num_machines)
      : staged_(num_machines),
        sent_(num_machines, 0),
        received_(num_machines, 0),
        active_(num_machines, 0) {}

  /// Records a `words`-word message from `from` to `to` for the current
  /// round.  Both ids must already be validated by the caller.  Safe to
  /// call concurrently for *distinct* senders (one shard per sender);
  /// two concurrent stagings from the same sender are a data race.
  void stage(MachineId from, MachineId to, WordCount words) {
    staged_[from].push_back({to, words});
  }

  /// The barrier step: settles the staged records in sender order,
  /// records per-pair traffic into `metrics`, enforces the per-machine
  /// send/receive caps (throwing CommOverflowError, defined in
  /// cluster.hpp, on violation) and returns the round's record.  The
  /// staged records are dropped either way.  Must be called from a
  /// single thread with no round tasks in flight.
  RoundRecord deliver(WordCount capacity, Metrics& metrics);

  /// Recovery wipe: drops staged-but-undelivered records.  A fault
  /// between staging and the barrier (an injected task fault) never
  /// reaches deliver(), so rollback clears the shards here.
  void reset();

 private:
  struct StagedRec {
    MachineId to;
    WordCount words;  // payload + one tag word
  };

  std::vector<std::vector<StagedRec>> staged_;  // one shard per sender
  // deliver() scratch, reused across rounds.
  std::vector<WordCount> sent_;
  std::vector<WordCount> received_;
  std::vector<std::uint8_t> active_;
};

}  // namespace dmpc
