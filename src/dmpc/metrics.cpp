#include "dmpc/metrics.hpp"

#include <cmath>

namespace dmpc {

std::map<std::pair<MachineId, MachineId>, WordCount> Metrics::pair_traffic()
    const {
  std::map<std::pair<MachineId, MachineId>, WordCount> out;
  for (const auto& [key, words] : pair_traffic_) {
    out[{static_cast<MachineId>(key >> 32),
         static_cast<MachineId>(key & 0xffffffffu)}] = words;
  }
  return out;
}

double Metrics::pair_entropy_bits() const {
  WordCount total = 0;
  for (const auto& [pair, words] : pair_traffic_) total += words;
  if (total == 0) return 0.0;
  double h = 0.0;
  for (const auto& [pair, words] : pair_traffic_) {
    if (words == 0) continue;
    const double p =
        static_cast<double>(words) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

void Metrics::reset() {
  current_ = UpdateRecord{};
  last_update_ = UpdateRecord{};
  in_update_ = false;
  in_query_ = false;
  aggregate_ = UpdateAggregate{};
  query_agg_ = QueryAggregate{};
  abort_agg_ = AbortAggregate{};
  pair_traffic_.clear();
}

}  // namespace dmpc
