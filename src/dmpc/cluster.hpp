// The DMPC cluster: mu machines with S words of memory each, communicating
// in synchronous rounds (paper, Section 2).
//
// Usage pattern of an algorithm step:
//   cluster.begin_update();
//   cluster.send(a, b, tag, {x, y});   // stage round 1's traffic
//   cluster.finish_round();            // settle + account
//   ... compute from machine state, stage round 2 ...
//   cluster.finish_round();
//   cluster.end_update();
//
// The cluster is a ledger of the model's costs: rounds, active machines
// per round and words per round.  A message is charged as
// `payload.size() + 1` words (the tag travels in one header word) but
// its payload is not delivered; protocols read machine state directly.
// The cluster enforces the model's communication cap: each machine may
// send and receive at most S words per round.  A machine is "active" in
// a round iff it sends or receives at least one message.  Machine-local
// algorithm state lives outside the cluster (in the algorithm's own
// per-machine structures) but must be charged against the machine's
// MemoryMeter via memory(m).charge()/release().
//
// Execution model: message staging/accounting lives in a RoundBuffer (one
// staging shard per sender) and the per-machine work between two
// finish_round() barriers is scheduled by a pluggable RoundExecutor —
// serial by default, or a thread pool via set_executor().  Algorithms
// submit their per-machine round work through for_each_machine(); inside
// it, machine m's task may read/write machine m's state and stage
// messages from m concurrently with the other machines, exactly as the
// model allows.  All Metrics/MemoryMeter accounting is race-free by
// construction: meters are per-machine, staging is per-sender, and the
// metrics stream is only written at the finish_round() barrier.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmpc/executor.hpp"
#include "dmpc/fault.hpp"
#include "dmpc/memory.hpp"
#include "dmpc/metrics.hpp"
#include "dmpc/round_buffer.hpp"
#include "dmpc/trace.hpp"
#include "dmpc/types.hpp"

namespace dmpc {

class CommOverflowError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Cluster {
 public:
  /// Creates `num_machines` machines with `words_per_machine` memory each,
  /// executing rounds serially until set_executor() installs another
  /// executor.
  Cluster(std::size_t num_machines, WordCount words_per_machine);

  [[nodiscard]] std::size_t size() const { return memories_.size(); }
  [[nodiscard]] WordCount machine_capacity() const { return capacity_; }

  /// Installs the round executor (nullptr restores the serial default).
  /// Shared ownership so several clusters can run on one pool, provided
  /// their rounds never execute concurrently.
  void set_executor(std::shared_ptr<RoundExecutor> executor);
  [[nodiscard]] RoundExecutor& executor() { return *executor_; }
  [[nodiscard]] const RoundExecutor& executor() const { return *executor_; }

  /// Installs a fault injector (nullptr uninstalls).  Once installed,
  /// every finish_round() barrier and every
  /// for_each_machine dispatch outside a query batch is an injection
  /// point (see fault.hpp); query batches are never faulted, so the
  /// read path stays available while updates fail and recover.
  void set_fault_injector(std::shared_ptr<FaultInjector> faults);
  [[nodiscard]] FaultInjector* fault_injector() const {
    return faults_.get();
  }

  /// Installs a tracer (nullptr uninstalls).  Every barrier records a
  /// round span and every for_each_machine dispatch records per-machine
  /// task windows while the tracer is enabled; without one — or with it
  /// disabled — the cost is a single pointer/flag check (see trace.hpp
  /// for the overhead contract).  Shared ownership so the driver and
  /// serving layers can annotate the same trace.
  void set_tracer(std::shared_ptr<Tracer> tracer);
  [[nodiscard]] Tracer* tracer() const { return tracer_.get(); }

  /// Recovery wipe after a mid-protocol throw: drops every staged
  /// message, so a retried protocol starts from a quiet network.
  /// Machine-local algorithm state is the caller's to roll back (the
  /// forest's undo journal does that side).
  void drop_round_state() { buffer_.reset(); }

  /// Runs work(m) for every machine, scheduled by the installed executor
  /// (possibly concurrently), and returns after all machines finished.
  /// Task m may touch machine m's local state and stage messages from m
  /// (send with from == m); see executor.hpp for the full contract.
  void for_each_machine(const std::function<void(MachineId)>& work);

  /// Stages a message for the current round, charged
  /// `payload.size() + 1` words at the barrier.  The tag and payload
  /// name the protocol message at the call site; only the cost is
  /// recorded.  The span binds to vectors, arrays, and subranges alike;
  /// the brace-list overload covers the ubiquitous O(1)-word protocol
  /// messages.  Thread-safe across distinct senders (per-sender shards).
  void send(MachineId from, MachineId to, Word /*tag*/,
            std::span<const Word> payload) {
    if (from >= size() || to >= size()) [[unlikely]] {
      check_machine(from, "send(from)");
      check_machine(to, "send(to)");
    }
    buffer_.stage(from, to, payload.size() + 1);
  }
  void send(MachineId from, MachineId to, Word tag,
            std::initializer_list<Word> payload) {
    send(from, to, tag, std::span<const Word>(payload.begin(), payload.size()));
  }

  /// Settles all staged messages, enforces per-machine send/receive
  /// caps and records the round in the metrics.  This is the barrier:
  /// never call it with for_each_machine tasks in flight.
  RoundRecord finish_round();

  /// Records a synthetic round without staging its individual messages.
  /// Used for rounds the paper charges as black boxes: the O(log n)
  /// preprocessing rounds of the forest and the maximal matching, the
  /// (2+eps)-matching's per-update cycle and the static baselines'
  /// iterations.  The caller supplies the round's activity and traffic
  /// so the accounting stays honest.
  void charge_round(const RoundRecord& rec) {
    metrics_.record_round(rec);
    if (tracer_ && tracer_->enabled()) {
      tracer_->record_round(TraceRoundKind::kCharged, rec);
    }
  }

  /// Memory meter of machine `m`.
  MemoryMeter& memory(MachineId m);
  [[nodiscard]] const MemoryMeter& memory(MachineId m) const;

  void begin_update() { metrics_.begin_update(); }
  UpdateRecord end_update() { return metrics_.end_update(); }

  /// Brackets one read-only query batch (the serving layer's shared
  /// directory lookups): rounds inside are recorded exactly like update
  /// rounds but settle into Metrics::query_aggregate(), so the read
  /// path never counts against the Table-1 update accounting.
  void begin_query_batch() { metrics_.begin_query_batch(); }
  UpdateRecord end_query_batch(std::uint64_t queries) {
    return metrics_.end_query_batch(queries);
  }

  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  Metrics& metrics() { return metrics_; }

  /// Highest memory high-water mark across machines (model compliance
  /// checks in tests).
  [[nodiscard]] WordCount max_memory_high_water() const;

 private:
  void check_machine(MachineId m, const char* what) const;
  /// Consults the installed injector at a round barrier (no-op without
  /// one, or inside a query batch).
  void maybe_inject_round_fault();

  WordCount capacity_;
  std::vector<MemoryMeter> memories_;
  RoundBuffer buffer_;
  Metrics metrics_;
  std::shared_ptr<RoundExecutor> executor_;
  std::shared_ptr<FaultInjector> faults_;
  std::shared_ptr<Tracer> tracer_;
};

}  // namespace dmpc
