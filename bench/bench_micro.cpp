// Wall-clock microbenchmarks, dependency-free (plain main over
// bench_common.hpp — no google-benchmark).  Not a paper artifact (the
// paper reports no wall-clock numbers); this guards the simulator's own
// performance:
//
//   * the forest's whole-state passes at n = 2^18: preprocess of
//     gnm(n, n) and one validate() of the result under the serial
//     executor — wall time of each, and the growth of the process's
//     peak RSS (ru_maxrss) across validate().  It runs first, so the
//     peak it starts from is preprocess's.  `--check` requires the
//     verdict true and the pinned tree-record count (kPassesTreeEdges);
//   * executor round-dispatch overhead: one round of `count` near-empty
//     machine tasks under SerialExecutor vs ThreadPoolExecutor — the
//     wake/join cost every DynamicForest round pays;
//   * the pooled batched-update path at n = 2^17: the same weighted
//     adversarial delete/re-insert stream applied through apply_batch
//     under the serial executor, a 1-thread pool and a pool sized to the
//     machine (std::thread::hardware_concurrency()).  The
//     1-vs-max-thread ratio is the wall-clock speedup row; rounds,
//     communication, scheduler counters and the forest weight must be
//     byte-identical across all three executors (that is the determinism
//     contract of the pooled folds), and `--check` makes a mismatch
//     fatal;
//   * the read path: 200-query answer_queries batches on a weighted
//     gnm(n, n) forest at n = 2^14 and 2^16, connectivity-only and with
//     every 10th query a path weight — wall time, rounds and words per
//     batch.  `--check` fails when a batch's rounds differ from its
//     protocol's count (2 connectivity-only, 5 with a path query);
//   * the k-way commit pass at n = 2^18: single-update tree deletes and
//     re-inserts on the giant component of gnm(n, n) under the serial
//     executor, so every write stage moves that whole component on every
//     machine (through the pending log) — wall time per write stage,
//     rounds and words.  `--check` requires validate() afterwards and the
//     pinned rounds and words (kCommitRounds / kCommitWords; the protocol
//     is deterministic, so any other count is a protocol change);
//   * k-way batches at n = 2^16, 2^18 and 2^20: random churn in batches
//     of 16 on gnm(n, n) under the serial executor, where conflicts on
//     the giant component split a batch into several rewriting stages,
//     whose maps stay in the pending log across batches until a
//     compaction — wall time per batch and per update, rewriting stages
//     and compactions per batch, and the records cascade round A read
//     per cascade (through the record index once a machine built one).
//     `--check` requires, per row, validate(), the pending log within
//     its bound after every batch, a compaction where the row expects
//     one, and the pinned rounds and words (kBatchRows); and across the
//     rows, records read per cascade at 2^20 within
//     kMaxRecordsPerCascadeGrowth times those at 2^16;
//   * the compiled stage map on a 2^20-entry tour with 8 cuts and 8
//     links: its compile time, and ns per index (in random order, as a
//     shard scan meets them) through the map against the per-index
//     KWaySplit / KWayJoinPlan calls.  `--check` requires both to give
//     every index the same fragment, removed flag and final index.
//
// `--json BENCH_micro.json` writes the rows for the CI bench-trend gate,
// including the detected core count: the gate skips wall-clock
// comparisons between runs whose core counts differ (a runner-hardware
// change is not a regression).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/dyn_forest.hpp"
#include "dmpc/executor.hpp"
#include "etour/tour_builder.hpp"
#include "etour/transforms.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"

namespace {

constexpr std::size_t kPassesN = std::size_t{1} << 18;
constexpr std::uint64_t kPassesTreeEdges = 219798;
constexpr std::size_t kForestN = std::size_t{1} << 17;
constexpr std::size_t kForestUpdates = 512;
constexpr std::size_t kForestBatch = 16;
constexpr int kExecIters = 4096;
constexpr std::size_t kReadBatch = 200;
constexpr std::size_t kReadBatches = 40;
constexpr std::size_t kCommitN = std::size_t{1} << 18;
constexpr std::size_t kCommitPairs = 32;
constexpr std::uint64_t kCommitRounds = 267;
constexpr std::uint64_t kCommitWords = 657973;
constexpr std::size_t kBatchUpdates = 512;
constexpr std::size_t kBatchSize = 16;
/// One k-way batch row: its size, pinned rounds and words, and whether
/// its stream outgrows the pending log's bound (S grows with n, so the
/// 2^20 row never compacts).
struct BatchRow {
  std::size_t n;
  std::uint64_t rounds;
  std::uint64_t words;
  bool compacts;
};
constexpr BatchRow kBatchRows[] = {
    {std::size_t{1} << 16, 705, 1099900, true},
    {std::size_t{1} << 18, 727, 2177550, true},
    {std::size_t{1} << 20, 765, 4584528, false},
};
/// Cascade round A's records read per cascade may grow at most this much
/// from the smallest to the largest k-way batch row.
constexpr double kMaxRecordsPerCascadeGrowth = 2.0;
/// Each cascade is three rounds (A, B, C).
constexpr std::uint64_t kCascadeRounds = 3;
constexpr std::size_t kStageMapVertices = (std::size_t{1} << 18) + 1;
constexpr std::size_t kStageMapCuts = 8;
constexpr int kStageMapCompiles = 200;

/// Seconds for `iters` executor rounds of `count` near-empty tasks.
double executor_round_seconds(dmpc::RoundExecutor& exec, std::size_t count,
                              int iters) {
  std::vector<std::uint64_t> sink(count, 0);
  return bench::timed_seconds([&] {
    for (int it = 0; it < iters; ++it) {
      exec.run(count, [&](std::size_t i) { sink[i] += i; });
    }
  });
}

/// The forest every timed run uses: the weighted (MST) variant, whose
/// updates cannot be net-op compressed, so the adversary's
/// delete/re-insert pairs all reach the protocol rounds (the unweighted
/// variant elides every pair and runs 0 rounds).
core::DynamicForest make_forest() {
  return core::DynamicForest(
      {.n = kForestN, .m_cap = 4 * kForestN, .weighted = true});
}

/// One full pooled-forest run: preprocess a unit-weight cycle, then
/// apply the adversarial tail of the stream in batches under `exec`.
struct ForestRun {
  double preprocess_seconds = 0;
  double update_seconds = 0;
  std::uint64_t total_rounds = 0;
  std::uint64_t total_comm_words = 0;
  dmpc::BatchScheduleStats sched;
  graph::Weight weight = 0;
};

ForestRun run_forest(const std::shared_ptr<dmpc::RoundExecutor>& exec,
                     const graph::UpdateStream& stream,
                     bool with_disabled_tracer = false) {
  ForestRun out;
  core::DynamicForest forest = make_forest();
  forest.cluster().set_executor(exec);
  // Installed-but-disabled: the per-barrier cost every traced build pays
  // even when no one is tracing — the off-path overhead contract.
  if (with_disabled_tracer) {
    forest.cluster().set_tracer(std::make_shared<dmpc::Tracer>());
  }
  out.preprocess_seconds =
      bench::timed_seconds([&] { forest.preprocess(graph::cycle(kForestN)); });
  // Separate the update phase from preprocessing in the aggregate.
  forest.cluster().metrics().reset();
  const std::size_t start = stream.size() - kForestUpdates;
  out.update_seconds = bench::timed_seconds([&] {
    for (std::size_t i = 0; i < kForestUpdates; i += kForestBatch) {
      forest.apply_batch(std::span<const graph::Update>(
          stream.data() + start + i, kForestBatch));
    }
  });
  const dmpc::UpdateAggregate& agg = forest.cluster().metrics().aggregate();
  out.total_rounds = agg.total_rounds;
  out.total_comm_words = agg.total_comm_words;
  out.sched = forest.batch_stats();
  out.weight = forest.forest_weight();
  return out;
}

/// One interleaved tracing A/B pass: per-mode wall-clock sums over
/// alternating batches of ONE forest run (see the call site for the
/// design).
struct TraceAB {
  double on_seconds = 0;
  double off_seconds = 0;
};

TraceAB paired_trace_overhead(const graph::UpdateStream& stream,
                              bool traced_even_batches) {
  TraceAB ab;
  // ONE forest, alternating the installed-but-disabled tracer per
  // batch: comparing two forest instances instead picks up their
  // allocation-layout difference (measured at ±5% — bigger than the
  // budget), while here everything but the tracer install is shared.
  core::DynamicForest forest = make_forest();
  forest.cluster().set_executor(std::make_shared<dmpc::SerialExecutor>());
  const auto tracer = std::make_shared<dmpc::Tracer>();
  forest.preprocess(graph::cycle(kForestN));
  const std::size_t start = stream.size() - kForestUpdates;
  for (std::size_t i = 0; i < kForestUpdates; i += kForestBatch) {
    const std::span<const graph::Update> batch(stream.data() + start + i,
                                               kForestBatch);
    const bool traced =
        ((i / kForestBatch) % 2 == 0) == traced_even_batches;
    forest.cluster().set_tracer(traced ? tracer : nullptr);
    const double s =
        bench::timed_seconds([&] { forest.apply_batch(batch); });
    (traced ? ab.on_seconds : ab.off_seconds) += s;
  }
  forest.cluster().set_tracer(nullptr);
  return ab;
}

/// The determinism contract: every counter the simulator reports must be
/// identical no matter which executor ran the rounds.
bool matches_serial(const ForestRun& run, const ForestRun& serial) {
  return run.total_rounds == serial.total_rounds &&
         run.total_comm_words == serial.total_comm_words &&
         run.weight == serial.weight &&
         run.sched.batches == serial.sched.batches &&
         run.sched.grouped_updates == serial.sched.grouped_updates &&
         run.sched.reordered_updates == serial.sched.reordered_updates &&
         run.sched.batched_tree_deletes == serial.sched.batched_tree_deletes &&
         run.sched.max_group == serial.sched.max_group &&
         run.sched.path_max_grouped == serial.sched.path_max_grouped &&
         run.sched.deferred_updates == serial.sched.deferred_updates &&
         run.sched.stages == serial.sched.stages &&
         run.sched.kway_splits == serial.sched.kway_splits &&
         run.sched.kway_joins == serial.sched.kway_joins &&
         run.sched.cascade_rounds == serial.sched.cascade_rounds &&
         run.sched.cascade_links == serial.sched.cascade_links;
}

void forest_json_row(bench::JsonReport& json, const std::string& name,
                     const ForestRun& run) {
  json.row(name)
      .num("wall_seconds", run.update_seconds)
      .num("preprocess_seconds", run.preprocess_seconds)
      .u64("updates", kForestUpdates)
      .num("rounds_per_update", static_cast<double>(run.total_rounds) /
                                    static_cast<double>(kForestUpdates))
      .u64("total_rounds", run.total_rounds)
      .u64("total_comm_words", run.total_comm_words)
      .u64("grouped_updates", run.sched.grouped_updates);
}

/// One read-path row: kReadBatches answer_queries batches of kReadBatch
/// random distinct-endpoint queries, every `path_every`-th query a path
/// weight (0: connectivity only).  With `blocks` == 0 the forest is a
/// weighted gnm(n, n), whose giant component every path probe shares.
/// Otherwise it is `blocks` weighted paths of n / blocks vertices (the
/// shape of e2e serve's preprocessed graph), and each query's endpoints
/// lie in one random block, so a batch probes a few of many components.
struct ReadRun {
  double seconds = 0;
  dmpc::QueryAggregate agg;
};

ReadRun run_reads(std::size_t n, std::size_t path_every, std::size_t blocks) {
  core::DynamicForest forest({.n = n, .m_cap = 2 * n, .weighted = true});
  graph::EdgeList edges;
  if (blocks == 0) {
    edges = graph::gnm(n, n, 3);
  } else {
    for (graph::VertexId v = 0; v + 1 < static_cast<graph::VertexId>(n);
         ++v) {
      if ((v + 1) % static_cast<graph::VertexId>(n / blocks) != 0) {
        edges.emplace_back(v, v + 1);
      }
    }
  }
  forest.preprocess(graph::with_random_weights(edges, 1000, 4));
  std::mt19937_64 rng(5);
  const std::size_t span = blocks == 0 ? n : n / blocks;
  std::vector<std::vector<core::ReadQuery>> batches(kReadBatches);
  for (auto& batch : batches) {
    for (std::size_t i = 0; i < kReadBatch; ++i) {
      const auto base = static_cast<dmpc::VertexId>(
          blocks == 0 ? 0 : rng() % blocks * span);
      const auto u = static_cast<dmpc::VertexId>(rng() % span);
      auto v = static_cast<dmpc::VertexId>(rng() % (span - 1));
      if (v >= u) ++v;
      const bool path = path_every != 0 && i % path_every == 0;
      batch.push_back({path ? core::QueryKind::kPathWeight
                            : core::QueryKind::kConnected,
                       base + u, base + v});
    }
  }
  forest.answer_queries(batches.front());  // warm-up, not measured
  forest.cluster().metrics().reset();
  ReadRun out;
  out.seconds = bench::timed_seconds([&] {
    for (const auto& batch : batches) forest.answer_queries(batch);
  });
  out.agg = forest.cluster().metrics().query_aggregate();
  return out;
}

/// The whole-state passes row: preprocess of gnm(kPassesN, kPassesN)
/// and one validate() of the result.
struct PassesRun {
  double preprocess_seconds = 0;
  double validate_seconds = 0;
  double validate_rss_growth_mb = 0;  // ru_maxrss growth across validate()
  std::uint64_t tree_edges = 0;
  bool valid = false;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

PassesRun run_passes() {
  const graph::EdgeList edges = graph::gnm(kPassesN, kPassesN, 11);
  core::DynamicForest forest({.n = kPassesN, .m_cap = 2 * kPassesN});
  forest.cluster().set_executor(std::make_shared<dmpc::SerialExecutor>());
  PassesRun out;
  out.preprocess_seconds =
      bench::timed_seconds([&] { forest.preprocess(edges); });
  const double before = peak_rss_mb();
  out.validate_seconds =
      bench::timed_seconds([&] { out.valid = forest.validate(); });
  out.validate_rss_growth_mb = peak_rss_mb() - before;
  out.tree_edges = forest.tree_edges().size();
  return out;
}

/// The commit-pass row: kCommitPairs distinct giant-component tree
/// edges of gnm(kCommitN, kCommitN), each deleted and re-inserted as
/// one-update batches.  A write stage is one that ran a k-way split or
/// join of the whole giant component.
struct CommitRun {
  double seconds = 0;
  std::uint64_t write_stages = 0;
  std::uint64_t updates = 0;
  dmpc::UpdateAggregate agg;
  bool valid = false;
};

CommitRun run_commit_pass() {
  core::DynamicForest forest({.n = kCommitN, .m_cap = 2 * kCommitN});
  forest.cluster().set_executor(std::make_shared<dmpc::SerialExecutor>());
  forest.preprocess(graph::gnm(kCommitN, kCommitN, 11));
  const std::vector<dmpc::VertexId> comp = forest.component_snapshot();
  // Labels are vertex ids (each component's smallest member).
  std::vector<std::size_t> sizes(kCommitN, 0);
  for (const dmpc::VertexId c : comp) ++sizes[static_cast<std::size_t>(c)];
  const auto giant = static_cast<dmpc::VertexId>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<std::pair<dmpc::VertexId, dmpc::VertexId>> edges;
  for (const auto& e : forest.tree_edges()) {
    if (comp[static_cast<std::size_t>(e.first)] == giant) edges.push_back(e);
  }
  std::sort(edges.begin(), edges.end());
  std::shuffle(edges.begin(), edges.end(), std::mt19937_64(13));
  edges.resize(std::min(edges.size(), kCommitPairs));
  std::vector<graph::Update> updates;
  for (const auto& [u, v] : edges) {
    updates.push_back({graph::UpdateKind::kDelete, u, v});
    updates.push_back({graph::UpdateKind::kInsert, u, v});
  }
  forest.cluster().metrics().reset();
  CommitRun out;
  out.updates = updates.size();
  for (const graph::Update& up : updates) {
    const dmpc::BatchScheduleStats before = forest.batch_stats();
    out.seconds += bench::timed_seconds(
        [&] { forest.apply_batch(std::span<const graph::Update>(&up, 1)); });
    const dmpc::BatchScheduleStats& after = forest.batch_stats();
    if (after.kway_splits + after.kway_joins !=
        before.kway_splits + before.kway_joins) {
      ++out.write_stages;
    }
  }
  out.agg = forest.cluster().metrics().aggregate();
  out.valid = forest.validate();
  return out;
}

/// A k-way batch row: kBatchUpdates updates of random_stream churn on
/// gnm(n, n), applied in batches of kBatchSize.
struct BatchRun {
  double seconds = 0;
  std::uint64_t batches = 0;
  std::uint64_t rewriting_stages = 0;
  std::uint64_t compactions = 0;
  std::uint64_t cascades = 0;
  std::uint64_t records_read = 0;  ///< by cascade round A
  std::uint64_t index_builds = 0;
  std::uint64_t log_words_peak = 0;
  std::size_t log_bound = 0;
  bool log_within_bound = true;  ///< after every batch
  dmpc::UpdateAggregate agg;
  bool valid = false;
};

BatchRun run_kway_batches(std::size_t n) {
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.cluster().set_executor(std::make_shared<dmpc::SerialExecutor>());
  forest.preprocess(graph::gnm(n, n, 11));
  graph::UpdateStream stream = graph::random_stream(n, kBatchUpdates, 0.6, 12);
  for (graph::Update& up : stream) up.w = 1;  // unweighted: insert's default
  forest.cluster().metrics().reset();
  BatchRun out;
  for (std::size_t b = 0; b < stream.size(); b += kBatchSize) {
    const std::span<const graph::Update> batch(
        stream.data() + b, std::min(kBatchSize, stream.size() - b));
    const dmpc::BatchScheduleStats before = forest.batch_stats();
    out.seconds += bench::timed_seconds([&] { forest.apply_batch(batch); });
    const dmpc::BatchScheduleStats& after = forest.batch_stats();
    out.rewriting_stages += after.rewriting_stages - before.rewriting_stages;
    out.compactions += after.compactions - before.compactions;
    out.log_within_bound = out.log_within_bound &&
                           after.log_words_peak <= forest.pending_log_bound();
    ++out.batches;
  }
  out.log_words_peak = forest.batch_stats().log_words_peak;
  out.cascades = forest.batch_stats().cascade_rounds / kCascadeRounds;
  out.records_read = forest.batch_stats().cascade_records_read;
  out.index_builds = forest.batch_stats().record_index_builds;
  out.log_bound = forest.pending_log_bound();
  out.agg = forest.cluster().metrics().aggregate();
  out.valid = forest.validate();
  return out;
}

/// The stage-map row: one random recursive tree of kStageMapVertices
/// vertices (a 2^20-entry tour), kStageMapCuts random tree edges cut, and
/// the fragments linked back into one tree at random appearances.
struct StageMapRun {
  std::size_t pieces = 0;
  double compile_us = 0;
  double map_ns = 0;      ///< per index, through the compiled map
  double algebra_ns = 0;  ///< per index, through the per-index calls
  bool identical = false;
};

StageMapRun run_stage_map() {
  std::mt19937_64 rng(17);
  const std::size_t n = kStageMapVertices;
  std::vector<std::vector<dmpc::VertexId>> adj(n);
  for (std::size_t v = 1; v < n; ++v) {
    const std::size_t p = rng() % v;
    adj[p].push_back(static_cast<dmpc::VertexId>(v));
    adj[v].push_back(static_cast<dmpc::VertexId>(p));
  }
  const std::vector<dmpc::VertexId> tour = etour::build_tour(adj, 0);
  const auto elen = static_cast<etour::Word>(tour.size());
  // A non-root vertex's first and last appearances bound the subtree its
  // parent edge's cut splits off.
  std::vector<etour::Word> first(n, 0), last(n, 0);
  for (std::size_t i = 0; i < tour.size(); ++i) {
    const auto v = static_cast<std::size_t>(tour[i]);
    if (first[v] == 0) first[v] = static_cast<etour::Word>(i + 1);
    last[v] = static_cast<etour::Word>(i + 1);
  }
  std::vector<etour::KWaySplit::Cut> cuts;
  std::vector<std::size_t> children;
  while (cuts.size() < kStageMapCuts) {
    const std::size_t c = 1 + rng() % (n - 1);
    if (std::find(children.begin(), children.end(), c) != children.end()) {
      continue;
    }
    children.push_back(c);
    cuts.push_back({first[c], last[c]});
  }
  const etour::KWaySplit split(elen, cuts);
  std::vector<etour::Word> elens;
  for (std::size_t f = 0; f < split.fragments(); ++f) {
    elens.push_back(split.fragment_elength(f));
  }
  etour::KWayJoinPlan plan(elens);
  while (plan.num_links() + 1 < elens.size()) {
    const std::size_t a = rng() % elens.size();
    const std::size_t b = rng() % elens.size();
    if (plan.same_tree(a, b)) continue;
    const auto at = [&](std::size_t f) {
      return elens[f] == 0 ? etour::kNoIndex
                           : static_cast<etour::Word>(
                                 1 + rng() % static_cast<std::uint64_t>(
                                                 elens[f]));
    };
    const etour::Word ia = at(a);
    plan.link(a, ia, b, at(b));
  }

  StageMapRun out;
  std::size_t pieces = 0;
  out.compile_us = bench::timed_seconds([&] {
                     for (int r = 0; r < kStageMapCompiles; ++r) {
                       pieces += etour::StageMap(elen, &split, plan, 0)
                                     .pieces();
                     }
                   }) *
                   1e6 / kStageMapCompiles;
  const etour::StageMap map(elen, &split, plan, 0);
  out.pieces = map.pieces();

  // Every old index, in random order; each maps to (fragment, final
  // index), or (fragment, -1) for a removed entry.
  std::vector<etour::Word> order(static_cast<std::size_t>(elen) + 1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<etour::Word>(i);
  }
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<std::pair<etour::Word, etour::Word>> by_map(order.size()),
      by_calls(order.size());
  const double map_s = bench::timed_seconds([&] {
    for (std::size_t j = 0; j < order.size(); ++j) {
      const etour::Word i = order[j];
      const etour::StageMap::Piece& p = map.piece(i);
      by_map[j] = {p.frag, p.removed ? -1 : i + p.delta};
    }
  });
  const double calls_s = bench::timed_seconds([&] {
    for (std::size_t j = 0; j < order.size(); ++j) {
      const etour::Word i = order[j];
      const auto frag = static_cast<etour::Word>(split.fragment_of(i));
      by_calls[j] = {frag, split.removed(i)
                               ? -1
                               : plan.resolve(static_cast<std::size_t>(frag),
                                              split.new_index(i))};
    }
  });
  out.map_ns = map_s * 1e9 / static_cast<double>(order.size());
  out.algebra_ns = calls_s * 1e9 / static_cast<double>(order.size());
  out.identical = by_map == by_calls && pieces == out.pieces *
                                                      kStageMapCompiles;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliArgs args = bench::parse_cli(argc, argv);
  bench::JsonReport json("micro");
  bool ok = true;

  // Size the wide pool to the machine instead of a hardcoded 8: CI
  // runners and dev boxes differ, and the trend gate compares wall-clock
  // only between runs with the same core count (emitted below).
  const unsigned detected = std::thread::hardware_concurrency();
  const unsigned cores = detected == 0 ? 8 : detected;

  // --- Whole-state passes: preprocess and validate() at n = 2^18 -------
  {
    const PassesRun r = run_passes();
    const bool pinned = r.tree_edges == kPassesTreeEdges;
    std::printf("\n=== whole-state passes: gnm(n, n), n=%zu, serial ===\n",
                kPassesN);
    std::printf("preprocess %.3f s, validate %.3f s, peak RSS +%.1f MiB "
                "across validate, %llu tree records, valid %s\n",
                r.preprocess_seconds, r.validate_seconds,
                r.validate_rss_growth_mb,
                static_cast<unsigned long long>(r.tree_edges),
                r.valid ? "yes" : "NO");
    if (!r.valid || !pinned) {
      std::fprintf(stderr, "WHOLE-STATE PASS VIOLATION: %s\n",
                   r.valid ? "tree-record count differs from the pinned one"
                           : "validate() failed");
      ok = false;
    }
    json.row("preprocess_validate_n262144")
        .u64("cores", cores)
        .num("wall_seconds", r.preprocess_seconds + r.validate_seconds)
        .num("preprocess_s", r.preprocess_seconds)
        .num("validate_s", r.validate_seconds)
        .num("validate_rss_growth_mb", r.validate_rss_growth_mb)
        .u64("tree_records", r.tree_edges)
        .flag("within_budget", r.valid && pinned);
  }

  // --- Executor round dispatch ------------------------------------------
  std::printf("\n=== executor round dispatch (ns/round) ===\n");
  std::printf("%-10s %14s %14s\n", "count", "serial", "pool(4)");
  dmpc::SerialExecutor serial_exec;
  dmpc::ThreadPoolExecutor pool_exec(4);
  for (std::size_t count : {std::size_t{8}, std::size_t{64},
                            std::size_t{512}}) {
    const double s =
        executor_round_seconds(serial_exec, count, kExecIters) / kExecIters;
    const double p =
        executor_round_seconds(pool_exec, count, kExecIters) / kExecIters;
    std::printf("%-10zu %14.0f %14.0f\n", count, s * 1e9, p * 1e9);
    json.row("executor_round_serial_c" + std::to_string(count))
        .num("ns_per_round", s * 1e9);
    json.row("executor_round_pool4_c" + std::to_string(count))
        .num("ns_per_round", p * 1e9);
  }

  // --- Pooled batched-update path at n = 2^17 ---------------------------
  // The adversarial tail deletes spanning-tree edges and re-inserts them
  // with random weights in [1, 1000] over the unit-weight cycle, so every
  // batch drives replacement-edge and path-max scans across all
  // ~sqrt(5n) machines — the per-round work the pool parallelizes.
  const auto stream = graph::clean_stream(
      kForestN,
      graph::bridge_adversary_stream(kForestN,
                                     (kForestN - 1) + kForestUpdates + 1, 0,
                                     1, /*weighted=*/true, 1000));

  const ForestRun serial = run_forest(
      std::make_shared<dmpc::SerialExecutor>(), stream);
  const ForestRun pool1 = run_forest(
      std::make_shared<dmpc::ThreadPoolExecutor>(1), stream);
  const ForestRun poolmax = run_forest(
      std::make_shared<dmpc::ThreadPoolExecutor>(cores), stream);

  const bool pool1_ok = matches_serial(pool1, serial);
  const bool poolmax_ok = matches_serial(poolmax, serial);
  const double speedup = poolmax.update_seconds > 0
                             ? pool1.update_seconds / poolmax.update_seconds
                             : 0.0;

  std::printf("\n=== pooled batched updates, n=%zu (%zu updates, "
              "batch=%zu, %u cores) ===\n",
              kForestN, kForestUpdates, kForestBatch, cores);
  std::printf("%-18s %12s %12s %14s %8s\n", "executor", "updates(s)",
              "rnds/upd", "comm words", "match");
  const auto print_run = [&](const std::string& name, const ForestRun& r,
                             bool m) {
    std::printf("%-18s %12.3f %12.2f %14llu %8s\n", name.c_str(),
                r.update_seconds,
                static_cast<double>(r.total_rounds) / kForestUpdates,
                static_cast<unsigned long long>(r.total_comm_words),
                m ? "yes" : "NO");
  };
  print_run("serial", serial, true);
  print_run("pool(1)", pool1, pool1_ok);
  print_run("pool(" + std::to_string(cores) + ")", poolmax, poolmax_ok);
  std::printf("speedup pool(%u) vs pool(1): %.2fx\n", cores, speedup);
  if (!pool1_ok || !poolmax_ok) {
    std::fprintf(stderr, "DETERMINISM VIOLATION: pooled run diverged from "
                         "the serial executor\n");
    ok = false;
  }

  // Stable row names (the thread count is a field, not part of the
  // name) so the trend gate keeps matching rows across machines.
  forest_json_row(json, "dynforest_batched_serial_n131072_weighted", serial);
  json.u64("cores", cores);
  forest_json_row(json, "dynforest_batched_pool1_n131072_weighted", pool1);
  json.u64("cores", cores).flag("matches_serial", pool1_ok);
  forest_json_row(json, "dynforest_batched_poolmax_n131072_weighted",
                  poolmax);
  json.u64("cores", cores)
      .flag("matches_serial", poolmax_ok)
      .num("speedup_vs_1thread", speedup);
  json.row("dynforest_pool_speedup_maxv1_weighted")
      .u64("cores", cores)
      .num("speedup", speedup)
      .flag("within_budget", pool1_ok && poolmax_ok);

  // --- Tracing-disabled overhead on the pooled-forest row ---------------
  // The observability contract (docs/OBSERVABILITY.md): an
  // installed-but-disabled tracer costs one pointer/flag check per
  // barrier and per dispatch.  A 1% budget is far below the run-to-run
  // wall-clock swing of a shared runner, so the A/B alternates the
  // tracer install per BATCH within one forest run: every batch of the
  // same instance is timed separately with the disabled tracer
  // installed on odd or even batches, so any drift slower than one
  // ~100 ms batch hits both modes equally and cancels, and there is no
  // second forest instance to contribute a layout bias.  Two passes
  // with the parity crossed (odd-traced, then even-traced), per-mode
  // sums over both — a systematically heavier parity class lands on
  // each mode once.  Serial executor (pool wake/join jitter would
  // drown the signal); bench_trend.py gates trace_overhead_pct < 1%
  // absolute with a seconds noise floor.
  const TraceAB ab_a =
      paired_trace_overhead(stream, /*traced_even_batches=*/true);
  const TraceAB ab_b =
      paired_trace_overhead(stream, /*traced_even_batches=*/false);
  const double trace_on = ab_a.on_seconds + ab_b.on_seconds;
  const double trace_off = ab_a.off_seconds + ab_b.off_seconds;
  const double trace_pct =
      trace_off > 0.0 ? (trace_on / trace_off - 1.0) * 100.0 : 0.0;
  std::printf("\ntracing-disabled overhead: %.2f%% (tracer installed "
              "%.3fs / none %.3fs, serial executor)\n",
              trace_pct, trace_on, trace_off);
  json.row("dynforest_trace_overhead_n131072_weighted")
      .u64("cores", cores)
      .num("trace_overhead_pct", trace_pct)
      .num("trace_on_seconds", trace_on)
      .num("trace_off_seconds", trace_off);

  // --- Read path: answer_queries batches -------------------------------
  std::printf("\n=== read path: %zu-query answer_queries batches, weighted "
              "gnm(n, n), or 64 paths (blocks) ===\n",
              kReadBatch);
  std::printf("%-8s %-12s %10s %14s %12s\n", "n", "mix", "ms/batch",
              "rounds/batch", "words/batch");
  struct ReadRow {
    std::size_t n, path_every, blocks;
  };
  for (const ReadRow row : {ReadRow{std::size_t{1} << 14, 0, 0},
                            ReadRow{std::size_t{1} << 14, 10, 0},
                            ReadRow{std::size_t{1} << 14, 10, 64},
                            ReadRow{std::size_t{1} << 16, 0, 0},
                            ReadRow{std::size_t{1} << 16, 10, 0}}) {
    const std::size_t n = row.n;
    const std::size_t path_every = row.path_every;
    const ReadRun r = run_reads(n, path_every, row.blocks);
    const auto batches = static_cast<double>(r.agg.batches);
    const double ms = r.seconds * 1e3 / batches;
    const double rounds = static_cast<double>(r.agg.total_rounds) / batches;
    const double words =
        static_cast<double>(r.agg.total_comm_words) / batches;
    const std::string mix =
        std::string(path_every == 0 ? "conn" : "10% path") +
        (row.blocks == 0 ? "" : " blk");
    std::printf("%-8zu %-12s %10.3f %14.2f %12.1f\n", n, mix.c_str(), ms,
                rounds, words);
    // Every batch is one chunk, so each must take exactly its
    // protocol's rounds.
    const std::uint64_t want = path_every == 0 ? 2 : 5;
    const bool exact = r.agg.batches == kReadBatches &&
                       r.agg.worst_rounds == want &&
                       r.agg.total_rounds == want * kReadBatches;
    if (!exact) {
      std::fprintf(stderr, "READ PATH VIOLATION: n=%zu %s batches took "
                           "%.2f rounds, not %llu\n",
                   n, mix.c_str(), rounds,
                   static_cast<unsigned long long>(want));
      ok = false;
    }
    json.row(std::string("read_batch_") +
             (path_every == 0 ? "conn" : "path10") +
             (row.blocks == 0 ? "" : "_blocks") + "_n" + std::to_string(n))
        .u64("cores", cores)
        .u64("queries_per_batch", kReadBatch)
        .u64("batches", r.agg.batches)
        .num("wall_seconds", r.seconds)
        .num("ms_per_batch", ms)
        .num("query_rounds_per_batch", rounds)
        .num("words_per_batch", words)
        .flag("within_budget", exact);
  }

  // --- One-update write stages on a 2^18-vertex giant component -------
  {
    const CommitRun r = run_commit_pass();
    const double ms_per_stage =
        r.write_stages == 0 ? 0.0
                            : r.seconds * 1e3 /
                                  static_cast<double>(r.write_stages);
    const bool pinned = r.agg.total_rounds == kCommitRounds &&
                        r.agg.total_comm_words == kCommitWords;
    std::printf("\n=== k-way commit pass: gnm(n, n) giant component, "
                "n=%zu, serial ===\n",
                kCommitN);
    std::printf("%zu one-update batches, %llu write stages: %.3f "
                "ms/write stage, %llu rounds, %llu words, valid %s\n",
                static_cast<std::size_t>(r.updates),
                static_cast<unsigned long long>(r.write_stages), ms_per_stage,
                static_cast<unsigned long long>(r.agg.total_rounds),
                static_cast<unsigned long long>(r.agg.total_comm_words),
                r.valid ? "yes" : "NO");
    if (!r.valid || !pinned) {
      std::fprintf(stderr, "COMMIT PASS VIOLATION: %s\n",
                   r.valid ? "rounds/words differ from the pinned counts"
                           : "validate() failed");
      ok = false;
    }
    json.row("kway_commit_n262144")
        .u64("cores", cores)
        .u64("updates", r.updates)
        .u64("write_stages", r.write_stages)
        .num("wall_seconds", r.seconds)
        .num("ms_per_write_stage", ms_per_stage)
        .num("rounds_per_update", static_cast<double>(r.agg.total_rounds) /
                                      static_cast<double>(r.updates))
        .u64("total_rounds", r.agg.total_rounds)
        .u64("total_comm_words", r.agg.total_comm_words)
        .flag("within_budget", r.valid && pinned);
  }

  // --- K-way batches: rewriting stages pending across batches ---------
  {
    std::vector<double> per_cascade;
    for (const BatchRow& row : kBatchRows) {
      const BatchRun r = run_kway_batches(row.n);
      const auto batches = static_cast<double>(r.batches);
      const double ms = r.seconds * 1e3 / batches;
      const double ms_update =
          r.seconds * 1e3 / static_cast<double>(kBatchUpdates);
      const double stages = static_cast<double>(r.rewriting_stages) / batches;
      const double compactions = static_cast<double>(r.compactions) / batches;
      const double read =
          r.cascades == 0 ? 0.0
                          : static_cast<double>(r.records_read) /
                                static_cast<double>(r.cascades);
      per_cascade.push_back(read);
      const bool pinned = r.agg.total_rounds == row.rounds &&
                          r.agg.total_comm_words == row.words;
      const bool log_ok =
          r.log_within_bound && (!row.compacts || r.compactions >= 1);
      std::printf("\n=== k-way batches: random churn on gnm(n, n), n=%zu, "
                  "batch=%zu, serial ===\n",
                  row.n, kBatchSize);
      std::printf("%llu batches: %.3f ms/batch, %.4f ms/update, %.2f "
                  "rewriting stages/batch, %.3f compactions/batch, log peak "
                  "%llu of %zu words, %llu cascades reading %.0f records "
                  "each, %llu index builds, %llu rounds, %llu words, valid "
                  "%s\n",
                  static_cast<unsigned long long>(r.batches), ms, ms_update,
                  stages, compactions,
                  static_cast<unsigned long long>(r.log_words_peak),
                  r.log_bound, static_cast<unsigned long long>(r.cascades),
                  read, static_cast<unsigned long long>(r.index_builds),
                  static_cast<unsigned long long>(r.agg.total_rounds),
                  static_cast<unsigned long long>(r.agg.total_comm_words),
                  r.valid ? "yes" : "NO");
      if (!r.valid || !pinned || !log_ok) {
        std::fprintf(stderr, "K-WAY BATCH VIOLATION (n=%zu): %s\n", row.n,
                     !r.valid ? "validate() failed"
                     : !r.log_within_bound
                         ? "the pending log passed its bound after a batch"
                     : !log_ok ? "the pending log never compacted"
                               : "rounds/words differ from the pinned counts");
        ok = false;
      }
      json.row("kway_batch_n" + std::to_string(row.n))
          .u64("cores", cores)
          .u64("batches", r.batches)
          .num("wall_seconds", r.seconds)
          .num("ms_per_batch", ms)
          .num("ms_per_update", ms_update)
          .num("rewriting_stages_per_batch", stages)
          .num("compactions_per_batch", compactions)
          .u64("log_words_peak", r.log_words_peak)
          .u64("log_bound_words", r.log_bound)
          .u64("cascades", r.cascades)
          .u64("cascade_records_read", r.records_read)
          .num("records_read_per_cascade", read)
          .u64("record_index_builds", r.index_builds)
          .u64("total_rounds", r.agg.total_rounds)
          .u64("total_comm_words", r.agg.total_comm_words)
          .flag("within_budget", r.valid && pinned && log_ok);
    }
    // The smaller-side search: round A's reads per cascade stay near
    // flat in n, where a whole-shard scan grows with it.
    const double growth = per_cascade.back() / per_cascade.front();
    std::printf("records read per cascade: %.2fx from n=%zu to n=%zu "
                "(budget %.1fx)\n",
                growth, kBatchRows[0].n, std::end(kBatchRows)[-1].n,
                kMaxRecordsPerCascadeGrowth);
    if (growth > kMaxRecordsPerCascadeGrowth) {
      std::fprintf(stderr, "K-WAY BATCH VIOLATION: records read per cascade "
                           "grew %.2fx (budget %.1fx)\n",
                   growth, kMaxRecordsPerCascadeGrowth);
      ok = false;
    }
  }

  // --- The compiled stage map against the per-index algebra -----------
  {
    const StageMapRun r = run_stage_map();
    std::printf("\n=== compiled stage map: %zu-entry tour, %zu cuts, %zu "
                "links ===\n",
                4 * (kStageMapVertices - 1), kStageMapCuts, kStageMapCuts);
    std::printf("%zu pieces, compiled in %.1f us; per index (random order): "
                "map %.2f ns, per-index calls %.2f ns (%.1fx); identical "
                "%s\n",
                r.pieces, r.compile_us, r.map_ns, r.algebra_ns,
                r.map_ns > 0 ? r.algebra_ns / r.map_ns : 0.0,
                r.identical ? "yes" : "NO");
    if (!r.identical) {
      std::fprintf(stderr, "STAGE MAP VIOLATION: the compiled map and the "
                           "per-index calls disagree\n");
      ok = false;
    }
    json.row("stage_map_n1048576")
        .u64("cores", cores)
        .u64("pieces", r.pieces)
        .num("compile_us", r.compile_us)
        .num("ns_per_index_map", r.map_ns)
        .num("ns_per_index_calls", r.algebra_ns)
        .flag("within_budget", r.identical);
  }

  if (!args.json_path.empty() && !json.write(args.json_path, ok)) {
    std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
    return 1;
  }
  if (args.check && !ok) return 1;
  return 0;
}
