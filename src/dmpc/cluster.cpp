#include "dmpc/cluster.hpp"

#include <algorithm>
#include <utility>

namespace dmpc {

Cluster::Cluster(std::size_t num_machines, WordCount words_per_machine)
    : capacity_(words_per_machine),
      memories_(num_machines, MemoryMeter(words_per_machine)),
      buffer_(num_machines),
      metrics_(num_machines),
      executor_(std::make_shared<SerialExecutor>()) {}

void Cluster::set_executor(std::shared_ptr<RoundExecutor> executor) {
  executor_ = executor ? std::move(executor)
                       : std::make_shared<SerialExecutor>();
}

void Cluster::set_fault_injector(std::shared_ptr<FaultInjector> faults) {
  faults_ = std::move(faults);
}

void Cluster::set_tracer(std::shared_ptr<Tracer> tracer) {
  tracer_ = std::move(tracer);
}

void Cluster::for_each_machine(const std::function<void(MachineId)>& work) {
  // Task windows go into per-machine tracer slots (one writer per slot)
  // and are flushed at the barrier in machine order, so the trace's
  // event sequence is identical under every executor.
  Tracer* tracer = tracer_ && tracer_->enabled() ? tracer_.get() : nullptr;
  const std::size_t mu = memories_.size();
  if (tracer != nullptr) tracer->begin_dispatch(mu);
  // Each dispatch outside a query batch is one injection point; the
  // ordinal is drawn before the tasks fan out so the decision inside
  // maybe_fail_task is a pure read, identical under every executor.
  FaultInjector* faults =
      faults_ && !metrics_.in_query_batch() ? faults_.get() : nullptr;
  const std::uint64_t call = faults != nullptr ? faults->next_task_call() : 0;
  const auto task = [&](std::size_t m) {
    if (faults != nullptr) {
      faults->maybe_fail_task(call, static_cast<MachineId>(m), mu);
    }
    const std::uint64_t begin = tracer != nullptr ? tracer->now_ns() : 0;
    work(static_cast<MachineId>(m));
    if (tracer != nullptr) tracer->record_task(m, begin, tracer->now_ns());
  };
  // One captured reference keeps the std::function inline (no allocation).
  executor_->run(mu, [&task](std::size_t m) { task(m); });
  if (tracer != nullptr) tracer->flush_dispatch();
}

void Cluster::maybe_inject_round_fault() {
  if (faults_ && !metrics_.in_query_batch()) faults_->on_round_boundary();
}

void Cluster::check_machine(MachineId m, const char* what) const {
  if (m >= memories_.size()) {
    throw std::out_of_range(std::string(what) + ": machine id " +
                            std::to_string(m) + " out of range (cluster has " +
                            std::to_string(memories_.size()) + " machines)");
  }
}

RoundRecord Cluster::finish_round() {
  maybe_inject_round_fault();
  const RoundRecord rec = buffer_.deliver(capacity_, metrics_);
  metrics_.record_round(rec);
  if (tracer_ && tracer_->enabled()) {
    tracer_->record_round(TraceRoundKind::kReal, rec);
  }
  return rec;
}

MemoryMeter& Cluster::memory(MachineId m) {
  check_machine(m, "memory");
  return memories_[m];
}

const MemoryMeter& Cluster::memory(MachineId m) const {
  check_machine(m, "memory");
  return memories_[m];
}

WordCount Cluster::max_memory_high_water() const {
  WordCount hw = 0;
  for (const auto& mem : memories_) hw = std::max(hw, mem.high_water());
  return hw;
}

}  // namespace dmpc
