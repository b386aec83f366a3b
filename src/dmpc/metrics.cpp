#include "dmpc/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace dmpc {

void Metrics::grow_pairs(std::size_t dim) {
  std::vector<WordCount> grown(dim * dim, 0);
  for (std::size_t from = 0; from < pair_dim_; ++from) {
    std::copy_n(pair_words_.begin() + static_cast<std::ptrdiff_t>(
                                          from * pair_dim_),
                pair_dim_,
                grown.begin() + static_cast<std::ptrdiff_t>(from * dim));
  }
  pair_dim_ = dim;
  pair_words_ = std::move(grown);
}

std::map<std::pair<MachineId, MachineId>, WordCount> Metrics::pair_traffic()
    const {
  std::map<std::pair<MachineId, MachineId>, WordCount> out;
  for (std::size_t i = 0; i < pair_words_.size(); ++i) {
    if (pair_words_[i] == 0) continue;
    out.emplace_hint(out.end(),
                     std::pair{static_cast<MachineId>(i / pair_dim_),
                               static_cast<MachineId>(i % pair_dim_)},
                     pair_words_[i]);
  }
  return out;
}

double Metrics::pair_entropy_bits() const {
  WordCount total = 0;
  for (const WordCount words : pair_words_) total += words;
  if (total == 0) return 0.0;
  double h = 0.0;
  for (const WordCount words : pair_words_) {
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
  std::fill(pair_words_.begin(), pair_words_.end(), 0);
}

}  // namespace dmpc
