// Wall-clock microbenchmarks, dependency-free (plain main over
// bench_common.hpp — no google-benchmark).  Not a paper artifact (the
// paper reports no wall-clock numbers); this guards the simulator's own
// performance:
//
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
//     fatal.
//
// `--json BENCH_micro.json` writes the rows for the CI bench-trend gate,
// including the detected core count: the gate skips wall-clock
// comparisons between runs whose core counts differ (a runner-hardware
// change is not a regression).
#include <cstdio>
#include <memory>
#include <span>
#include <thread>

#include "bench_common.hpp"
#include "core/dyn_forest.hpp"
#include "dmpc/executor.hpp"
#include "graph/update_stream.hpp"

namespace {

constexpr std::size_t kForestN = std::size_t{1} << 17;
constexpr std::size_t kForestUpdates = 512;
constexpr std::size_t kForestBatch = 16;
constexpr int kExecIters = 4096;

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
         run.sched.serial_updates == serial.sched.serial_updates &&
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
      .u64("serial_updates", run.sched.serial_updates)
      .u64("grouped_updates", run.sched.grouped_updates);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliArgs args = bench::parse_cli(argc, argv);
  bench::JsonReport json("micro");
  bool ok = true;

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

  // Size the wide pool to the machine instead of a hardcoded 8: CI
  // runners and dev boxes differ, and the trend gate compares wall-clock
  // only between runs with the same core count (emitted below).
  const unsigned detected = std::thread::hardware_concurrency();
  const unsigned cores = detected == 0 ? 8 : detected;

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

  if (!args.json_path.empty() && !json.write(args.json_path, ok)) {
    std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
    return 1;
  }
  if (args.check && !ok) return 1;
  return 0;
}
