#include "core/cs_matching.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/graph.hpp"

namespace core {

CsMatching::CsMatching(const CsMatchingConfig& config)
    : config_(config), rng_(config.seed) {
  const double n = static_cast<double>(std::max<std::size_t>(config_.n, 4));
  levels_ = std::max(
      1, static_cast<int>(std::ceil(std::log(n) / std::log(config_.gamma))));
  const double log2n = std::log2(n);
  delta_ = config_.delta > 0
               ? config_.delta
               : static_cast<std::size_t>(std::ceil(4.0 * log2n * log2n));
  const std::size_t mu = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::ceil(std::sqrt(4.0 * n))));
  const dmpc::WordCount S = static_cast<dmpc::WordCount>(
      kMemorySlack * std::sqrt(4.0 * n) + 512.0);
  cluster_ = std::make_unique<dmpc::Cluster>(mu, S);
  adj_.resize(config_.n);
  lvl_.assign(config_.n, -1);
  mate_.assign(config_.n, dmpc::kNoVertex);
  queues_.resize(static_cast<std::size_t>(levels_) + 1);
}

std::size_t CsMatching::phi(VertexId v, int l) const {
  std::size_t count = 0;
  for (VertexId nb : adj_[static_cast<std::size_t>(v)]) {
    if (lvl_[static_cast<std::size_t>(nb)] < l) ++count;
  }
  return count;
}

std::size_t CsMatching::pending_work() const {
  std::size_t total = active_.size();
  for (const auto& q : queues_) total += q.size();
  return total;
}

void CsMatching::set_level(VertexId v, int l) {
  // The set-level procedure: the level change itself plus the In/Out
  // re-orientation of v's incident edges, executed as one batch.  Every
  // incident neighbour's home machine is touched (their In/Out lists and
  // Phi counters change).
  lvl_[static_cast<std::size_t>(v)] = l;
  note_touched(v);
  for (VertexId nb : adj_[static_cast<std::size_t>(v)]) {
    note_touched(nb);
    if (ops_budget_ > 0) --ops_budget_;
  }
}

void CsMatching::unmatch_edge(VertexId a, VertexId b) {
  mate_[static_cast<std::size_t>(a)] = dmpc::kNoVertex;
  mate_[static_cast<std::size_t>(b)] = dmpc::kNoVertex;
  support_.erase(graph::EdgeKey(a, b));
  note_touched(a);
  note_touched(b);
}

void CsMatching::handle_free(VertexId v) {
  if (mate_[static_cast<std::size_t>(v)] != dmpc::kNoVertex) return;
  note_touched(v);
  // Highest level l with Phi_v(l) >= gamma^l.
  int best_level = -1;
  double glev = 1.0;
  for (int l = 0; l <= levels_; ++l) {
    if (l > 0) glev *= config_.gamma;
    if (static_cast<double>(phi(v, l)) >= glev) best_level = l;
  }
  if (best_level < 0) {
    // Degenerate sampling space: match with any free non-active
    // neighbour (this is what keeps the matching almost-maximal at the
    // bottom level).
    for (VertexId nb : adj_[static_cast<std::size_t>(v)]) {
      if (ops_budget_ > 0) --ops_budget_;
      if (mate_[static_cast<std::size_t>(nb)] == dmpc::kNoVertex &&
          active_.count(nb) == 0) {
        mate_[static_cast<std::size_t>(v)] = nb;
        mate_[static_cast<std::size_t>(nb)] = v;
        support_[graph::EdgeKey(v, nb)] = 1;
        set_level(v, 0);
        set_level(nb, 0);
        return;
      }
    }
    set_level(v, -1);
    return;
  }
  // S(v): non-active neighbours strictly below best_level.
  std::vector<VertexId> sample_space;
  for (VertexId nb : adj_[static_cast<std::size_t>(v)]) {
    if (ops_budget_ > 0) --ops_budget_;
    if (lvl_[static_cast<std::size_t>(nb)] < best_level &&
        active_.count(nb) == 0) {
      sample_space.push_back(nb);
    }
  }
  if (sample_space.empty()) {
    set_level(v, -1);
    return;
  }
  std::uniform_int_distribution<std::size_t> pick(0,
                                                  sample_space.size() - 1);
  const VertexId w = sample_space[pick(rng_)];
  const VertexId old_mate = mate_[static_cast<std::size_t>(w)];
  if (old_mate != dmpc::kNoVertex) {
    unmatch_edge(w, old_mate);
  }
  mate_[static_cast<std::size_t>(v)] = w;
  mate_[static_cast<std::size_t>(w)] = v;
  support_[graph::EdgeKey(v, w)] = sample_space.size();
  set_level(v, best_level);
  set_level(w, best_level);
  if (old_mate != dmpc::kNoVertex) {
    // The ex-mate becomes temporarily free; it is queued for the
    // free-scheduler of its former level (the recursion of handle-free,
    // spread across update cycles).
    const int l = std::max(lvl_[static_cast<std::size_t>(old_mate)], 0);
    set_level(old_mate, -1);
    queues_[static_cast<std::size_t>(l)].push_back(old_mate);
    active_.insert(old_mate);
  }
}

void CsMatching::run_free_schedule() {
  // One subscheduler per level, each draining its queue within the batch
  // budget, highest level first (the paper's order inside a cycle).
  for (int l = levels_; l >= 0 && ops_budget_ > 0; --l) {
    auto& q = queues_[static_cast<std::size_t>(l)];
    while (!q.empty() && ops_budget_ > 0) {
      const VertexId v = q.front();
      q.pop_front();
      active_.erase(v);
      handle_free(v);
    }
  }
}

void CsMatching::run_unmatch_schedule() {
  // Invariant (e): every level-l matched edge keeps support at least
  // (1 - eps) * gamma^l.  Each level's subscheduler removes its worst
  // violating edge; the choices are arbitrated at one machine (the
  // "deleting unmatched edges" conflict rule), so no two subschedulers
  // ever pick the same edge.
  if (ops_budget_ == 0) return;
  std::vector<graph::EdgeKey> picks;
  for (const auto& [e, support] : support_) {
    const int l = lvl_[static_cast<std::size_t>(e.u)];
    if (l <= 0) continue;
    const double target =
        (1.0 - config_.eps) * std::pow(config_.gamma, l);
    if (static_cast<double>(support) < target) picks.push_back(e);
    if (ops_budget_ > 0) --ops_budget_;
  }
  for (const auto& e : picks) {
    if (active_.count(e.u) > 0 || active_.count(e.v) > 0) continue;
    unmatch_edge(e.u, e.v);
    const int l = std::max(lvl_[static_cast<std::size_t>(e.u)], 0);
    set_level(e.u, -1);
    set_level(e.v, -1);
    queues_[static_cast<std::size_t>(l)].push_back(e.u);
    queues_[static_cast<std::size_t>(l)].push_back(e.v);
    active_.insert(e.u);
    active_.insert(e.v);
    break;  // one edge per cycle per the batch discipline
  }
}

void CsMatching::run_shuffle_schedule() {
  // Resamples a uniformly random matched edge (per cycle, across all
  // levels whose batches still have budget): the proactive mechanism
  // that keeps the adversary from learning the matching.
  if (support_.empty() || ops_budget_ == 0) return;
  std::uniform_int_distribution<std::size_t> pick(0, support_.size() - 1);
  auto it = support_.begin();
  std::advance(it, pick(rng_));
  const graph::EdgeKey e = it->first;
  const int l = lvl_[static_cast<std::size_t>(e.u)];
  // Only levels whose total work gamma^l exceeds one batch are shuffled
  // (the paper runs shuffle-schedule only where gamma^l / Delta' > 1).
  if (std::pow(config_.gamma, l) <= static_cast<double>(delta_)) return;
  if (active_.count(e.u) > 0 || active_.count(e.v) > 0) return;
  unmatch_edge(e.u, e.v);
  set_level(e.u, -1);
  set_level(e.v, -1);
  queues_[static_cast<std::size_t>(std::max(l, 0))].push_back(e.u);
  queues_[static_cast<std::size_t>(std::max(l, 0))].push_back(e.v);
  active_.insert(e.u);
  active_.insert(e.v);
}

void CsMatching::run_rise_schedule() {
  // Invariant (f): Phi_v(l) <= gamma^l * O(log^2 n) for all l > lvl(v).
  // Each cycle samples a few vertices and raises the worst violator
  // (full CS maintains per-level heaps; sampling preserves the measured
  // profile while exercising the same rise path).
  if (config_.n == 0 || ops_budget_ == 0) return;
  const double log2n =
      std::log2(static_cast<double>(std::max<std::size_t>(config_.n, 4)));
  std::uniform_int_distribution<VertexId> pick(
      0, static_cast<VertexId>(config_.n) - 1);
  for (int trial = 0; trial < 4; ++trial) {
    const VertexId v = pick(rng_);
    if (active_.count(v) > 0) continue;
    for (int l = levels_; l > lvl_[static_cast<std::size_t>(v)]; --l) {
      const double bound = std::pow(config_.gamma, l) * log2n * log2n;
      if (static_cast<double>(phi(v, l)) <= bound) continue;
      // Raise v to level l: unmatch it first if needed, then requeue.
      const VertexId m = mate_[static_cast<std::size_t>(v)];
      if (m != dmpc::kNoVertex) {
        unmatch_edge(v, m);
        set_level(m, -1);
        queues_[0].push_back(m);
        active_.insert(m);
      }
      set_level(v, l);
      queues_[static_cast<std::size_t>(l)].push_back(v);
      active_.insert(v);
      return;
    }
  }
}

void CsMatching::charge_cycle_rounds() {
  // Round 1: the update reaches the coordinator and the two endpoint
  // homes.  Round 2: the coordinator dispatches the O(log n)
  // subschedulers.  Round 3: batches fan out to the touched homes.
  // Round 4: replies + authentication-process bookkeeping over the
  // active list.
  const std::uint64_t subschedulers =
      4 * (static_cast<std::uint64_t>(levels_) + 1);
  dmpc::RoundRecord r1{3, 6, 2};
  cluster_->charge_round(r1);
  dmpc::RoundRecord r2{1 + subschedulers, 2 * subschedulers, subschedulers};
  cluster_->charge_round(r2);
  const std::uint64_t fan = touched_.size() + 1;
  dmpc::RoundRecord r3{fan, 4 * fan, fan};
  cluster_->charge_round(r3);
  dmpc::RoundRecord r4{fan, 2 * fan + 2 * active_.size(), fan};
  cluster_->charge_round(r4);
  // Per-pair traffic for the Section 8 entropy metric: the coordinator
  // fans out to the subscheduler representatives and the touched homes,
  // which reply.
  for (std::uint64_t s = 0; s < subschedulers && s + 1 < cluster_->size();
       ++s) {
    cluster_->metrics().record_pair_traffic(
        0, static_cast<MachineId>(1 + s), 2);
  }
  for (MachineId m : touched_) {
    cluster_->metrics().record_pair_traffic(0, m, 4);
    cluster_->metrics().record_pair_traffic(m, 0, 2);
  }
}

void CsMatching::run_schedulers() {
  ops_budget_ = delta_;
  run_free_schedule();
  run_unmatch_schedule();
  run_shuffle_schedule();
  run_rise_schedule();
  charge_cycle_rounds();
}

void CsMatching::insert(VertexId u, VertexId v) {
  graph::require_edge_endpoints(u, v, config_.n, "CsMatching");
  cluster_->begin_update();
  touched_.clear();
  if (!adj_[static_cast<std::size_t>(u)].insert(v).second) {
    throw std::logic_error("insert of a present edge");
  }
  adj_[static_cast<std::size_t>(v)].insert(u);
  note_touched(u);
  note_touched(v);
  // The paper's insertion rule: if both endpoints are free, match them at
  // level 0; everything else is left to the schedulers.
  if (mate_[static_cast<std::size_t>(u)] == dmpc::kNoVertex &&
      mate_[static_cast<std::size_t>(v)] == dmpc::kNoVertex &&
      active_.count(u) == 0 && active_.count(v) == 0) {
    mate_[static_cast<std::size_t>(u)] = v;
    mate_[static_cast<std::size_t>(v)] = u;
    support_[graph::EdgeKey(u, v)] = 1;
    lvl_[static_cast<std::size_t>(u)] = 0;
    lvl_[static_cast<std::size_t>(v)] = 0;
  }
  run_schedulers();
  cluster_->end_update();
}

void CsMatching::erase(VertexId u, VertexId v) {
  graph::require_edge_endpoints(u, v, config_.n, "CsMatching");
  cluster_->begin_update();
  touched_.clear();
  if (adj_[static_cast<std::size_t>(u)].erase(v) == 0) {
    throw std::logic_error("erase of an absent edge");
  }
  adj_[static_cast<std::size_t>(v)].erase(u);
  note_touched(u);
  note_touched(v);
  // Support of matched edges shrinks as incident edges disappear.
  for (VertexId z : {u, v}) {
    const VertexId m = mate_[static_cast<std::size_t>(z)];
    if (m == dmpc::kNoVertex) continue;
    auto it = support_.find(graph::EdgeKey(z, m));
    if (it != support_.end() && it->second > 1) --it->second;
  }
  if (mate_[static_cast<std::size_t>(u)] == v) {
    const int l = std::max(lvl_[static_cast<std::size_t>(u)], 0);
    unmatch_edge(u, v);
    set_level(u, -1);
    set_level(v, -1);
    queues_[static_cast<std::size_t>(l)].push_back(u);
    queues_[static_cast<std::size_t>(l)].push_back(v);
    active_.insert(u);
    active_.insert(v);
  }
  run_schedulers();
  cluster_->end_update();
}

void CsMatching::idle_cycles(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    cluster_->begin_update();
    touched_.clear();
    run_schedulers();
    cluster_->end_update();
  }
}

bool CsMatching::validate(std::string* why) const {
  auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  for (VertexId v = 0; v < static_cast<VertexId>(config_.n); ++v) {
    const VertexId m = mate_[static_cast<std::size_t>(v)];
    const int l = lvl_[static_cast<std::size_t>(v)];
    if (m != dmpc::kNoVertex) {
      if (mate_[static_cast<std::size_t>(m)] != v) {
        return fail("asymmetric mates");
      }
      if (adj_[static_cast<std::size_t>(v)].count(m) == 0) {
        return fail("matched over a non-edge");
      }
      if (l < 0) return fail("matched vertex at level -1 (invariant (a))");
      if (l != lvl_[static_cast<std::size_t>(m)]) {
        return fail("matched edge not level-homogeneous (invariant (b))");
      }
      if (support_.count(graph::EdgeKey(v, m)) == 0) {
        return fail("matched edge without support record");
      }
    } else if (l != -1 && active_.count(v) == 0) {
      return fail("settled free vertex not at level -1 (invariant (c))");
    }
  }
  return true;
}

}  // namespace core
