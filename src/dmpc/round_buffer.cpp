#include "dmpc/round_buffer.hpp"

#include <algorithm>
#include <string>

#include "dmpc/cluster.hpp"

namespace dmpc {

void RoundBuffer::reset() {
  // clear() keeps capacity: the high-water reuse.
  for (std::vector<StagedRec>& shard : staged_) shard.clear();
}

RoundRecord RoundBuffer::deliver(WordCount capacity, Metrics& metrics) {
  const std::size_t mu = staged_.size();
  std::fill(sent_.begin(), sent_.end(), 0);
  std::fill(received_.begin(), received_.end(), 0);
  std::fill(active_.begin(), active_.end(), 0);

  // Accounting in sender order, per-sender FIFO: the determinism anchor.
  // The same staged multiset yields the same record regardless of which
  // threads staged it.
  RoundRecord rec;
  for (MachineId from = 0; from < mu; ++from) {
    const std::vector<StagedRec>& shard = staged_[from];
    if (shard.empty()) continue;
    WordCount sent = 0;
    for (const StagedRec& sr : shard) {
      sent += sr.words;
      received_[sr.to] += sr.words;
      active_[sr.to] = 1;
      metrics.record_pair_traffic(from, sr.to, sr.words);
    }
    sent_[from] = sent;
    active_[from] = 1;
    rec.comm_words += sent;
    rec.messages += shard.size();
  }
  reset();

  for (MachineId m = 0; m < mu; ++m) {
    if (sent_[m] > capacity) {
      throw CommOverflowError("machine " + std::to_string(m) + " sent " +
                              std::to_string(sent_[m]) +
                              " words in one round (cap " +
                              std::to_string(capacity) + ")");
    }
    if (received_[m] > capacity) {
      throw CommOverflowError("machine " + std::to_string(m) + " received " +
                              std::to_string(received_[m]) +
                              " words in one round (cap " +
                              std::to_string(capacity) + ")");
    }
    if (active_[m] != 0) ++rec.active_machines;
  }
  return rec;
}

}  // namespace dmpc
