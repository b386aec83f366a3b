// Reproduces Table 1 of the paper: the worst-case per-update complexity
// (rounds, active machines per round, communication per round) of every
// dynamic DMPC algorithm, measured on adversarial update streams, plus
// the three rows obtained through the Section 7 reduction and a batched
// section comparing apply_batch against serial application.
//
// Expected shapes (N = n + m):
//   maximal matching      O(1) rounds, O(1) machines, O(sqrt N) comm
//   3/2-approx matching   O(1) rounds, O(n/sqrt N) machines, O(sqrt N)
//   (2+eps)-approx        O(1) rounds, O~(1) machines, O~(1) comm
//   connected components  O(1) rounds, O(sqrt N) machines, O(sqrt N) comm
//   (1+eps)-MST           O(1) rounds, O(sqrt N) machines, O(sqrt N) comm
//   reduction rows        rounds = seq update time, O(1) machines/comm
//
// Every workload runs through the harness Driver: it drops the stream
// prefixes that duplicate preprocessed edges, and its per-algorithm
// aggregate contains only per-update rounds, so no manual metrics reset
// after preprocess() is needed.
//
// CI integration: `--json BENCH_table1.json` writes every row as a
// machine-readable artifact; `--check` exits non-zero when a
// rounds-per-update metric exceeds its budget (harness/table1_budgets.hpp,
// shared with tests/test_table1_budgets.cpp).
#include <cstdio>

#include "bench_common.hpp"
#include "core/cs_matching.hpp"
#include "core/dyn_forest.hpp"
#include "core/maximal_matching.hpp"
#include "core/reduction.hpp"
#include "core/three_halves_matching.hpp"
#include "graph/update_stream.hpp"
#include "harness/driver.hpp"
#include "harness/table1_budgets.hpp"
#include "seq/hdt.hpp"
#include "seq/ns_matching.hpp"

namespace {

constexpr std::size_t kN = 1024;
constexpr std::size_t kMCap = 4 * kN;
constexpr std::size_t kStream = 400;  // updates beyond the build phase

// Checkpoints (validate() sweeps) only at the end of the run.
const harness::DriverConfig kBenchConfig{.checkpoint_every = 0};

bool g_within_budget = true;

/// Prints a Table-1 row, records it in the JSON report, and checks the
/// n-independent rounds budget.
void table1_row(bench::JsonReport& json, const harness::DriverReport& report,
                const std::string& name, const char* paper_bound,
                const harness::budgets::Table1Budget& budget,
                double wall_seconds) {
  bench::print_row(report, name, paper_bound);
  const harness::AlgorithmStats* stats = report.find(name);
  if (stats == nullptr) return;
  const bool ok = stats->agg.worst_rounds <= budget.rounds;
  g_within_budget = g_within_budget && ok;
  if (!ok) {
    std::fprintf(stderr,
                 "BUDGET VIOLATION: %s worst rounds/update %llu > budget "
                 "%llu\n",
                 name.c_str(),
                 static_cast<unsigned long long>(stats->agg.worst_rounds),
                 static_cast<unsigned long long>(budget.rounds));
  }
  json.row(name)
      .u64("updates", stats->agg.updates)
      .u64("worst_rounds", stats->agg.worst_rounds)
      .num("mean_rounds", stats->agg.mean_rounds())
      .u64("worst_machines", stats->agg.worst_active_machines)
      .u64("worst_comm_words", stats->agg.worst_comm_words)
      .u64("total_comm_words", stats->agg.total_comm_words)
      .num("wall_seconds", wall_seconds)
      .u64("budget_rounds", budget.rounds)
      .flag("within_budget", ok);
}

/// bench::batched_json_row with the verdict folded into the bench-wide
/// within-budget flag.
void gate_batched_row(bench::JsonReport& json,
                      const harness::DriverReport& report,
                      const std::string& name, const std::string& row_name,
                      double budget_rpu, double wall_seconds) {
  g_within_budget =
      bench::batched_json_row(json, report, name, row_name, budget_rpu,
                              wall_seconds) &&
      g_within_budget;
}

/// The O(1)-protocol rows additionally promise ZERO serial-fallback
/// updates on their streams (the batch-dynamic acceptance criterion):
/// every update must flow through a shared constant-round stage.
void gate_zero_serial(const harness::DriverReport& report,
                      const std::string& name, const char* row_name) {
  const harness::AlgorithmStats* stats = report.find(name);
  if (stats == nullptr || !stats->scheduled) return;
  if (stats->sched.serial_updates != 0) {
    g_within_budget = false;
    std::fprintf(
        stderr, "BUDGET VIOLATION: %s serial-fallback updates %llu != 0\n",
        row_name,
        static_cast<unsigned long long>(stats->sched.serial_updates));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliArgs cli = bench::parse_cli(argc, argv);
  bench::JsonReport json("table1");

  std::printf("DMPC Table 1 reproduction  (n=%zu, m_cap=%zu, N=%zu, "
              "sqrt(N)=%.0f)\n",
              kN, kMCap, kN + kMCap,
              std::sqrt(static_cast<double>(kN + kMCap)));
  bench::print_header("worst-case per-update complexity");

  {  // Maximal matching: matched-edge adversary.
    core::MaximalMatching mm({.n = kN, .m_cap = kMCap});
    mm.preprocess({});
    harness::Driver driver(kN, kBenchConfig);
    driver.add("maximal matching", mm);
    const double wall = bench::timed_seconds([&] {
      driver.run(graph::matched_edge_adversary_stream(kN, kN + kStream, 1));
    });
    table1_row(json, driver.report(), "maximal matching",
               "O(1) | O(1) | O(sqrtN)", harness::budgets::kMaximalMatching,
               wall);
  }
  {  // 3/2-approximate matching.
    core::ThreeHalvesMatching th({.n = kN, .m_cap = kMCap});
    th.preprocess_empty();
    harness::Driver driver(kN, kBenchConfig);
    driver.add("3/2-approx matching", th);
    const double wall = bench::timed_seconds([&] {
      driver.run(graph::matched_edge_adversary_stream(kN, kN + kStream, 2));
    });
    table1_row(json, driver.report(), "3/2-approx matching",
               "O(1) | O(n/sqrtN) | O(sqrtN)",
               harness::budgets::kThreeHalvesMatching, wall);
  }
  {  // (2+eps)-approximate matching.
    core::CsMatching cs({.n = kN, .eps = 0.2, .seed = 3});
    harness::Driver driver(kN, kBenchConfig);
    driver.add("(2+eps)-approx matching", cs);
    const double wall = bench::timed_seconds(
        [&] { driver.run(graph::random_stream(kN, kStream, 0.6, 3)); });
    table1_row(json, driver.report(), "(2+eps)-approx matching",
               "O(1) | O~(1) | O~(1)", harness::budgets::kCsMatching, wall);
  }
  {  // Connected components: bridge adversary forces splits+replacements.
    core::DynamicForest forest({.n = kN, .m_cap = kMCap});
    forest.preprocess(graph::cycle(kN));
    harness::Driver driver(kN, kBenchConfig);
    driver.add("connected components", forest);
    driver.seed(graph::cycle(kN));
    const double wall = bench::timed_seconds([&] {
      driver.run(
          graph::bridge_adversary_stream(kN, 2 * kN + kStream, kN / 4, 4));
    });
    table1_row(json, driver.report(), "connected components",
               "O(1) | O(sqrtN) | O(sqrtN)",
               harness::budgets::kConnectedComponents, wall);
  }
  {  // (1+eps)-MST.
    const auto initial =
        graph::with_random_weights(graph::cycle(kN), 100000, 5);
    core::DynamicForest mst(
        {.n = kN, .m_cap = kMCap, .weighted = true, .eps = 0.1});
    mst.preprocess(initial);
    harness::DriverConfig config = kBenchConfig;
    config.weighted = true;
    harness::Driver driver(kN, config);
    driver.add("(1+eps)-MST", mst);
    driver.seed(initial);
    const double wall = bench::timed_seconds([&] {
      driver.run(graph::bridge_adversary_stream(kN, 2 * kN + kStream, kN / 4,
                                                5, /*weighted=*/true));
    });
    table1_row(json, driver.report(), "(1+eps)-MST",
               "O(1) | O(sqrtN) | O(sqrtN)", harness::budgets::kApproximateMst,
               wall);
  }

  bench::print_header("Section 7 reduction rows (amortized)");
  {
    core::DmpcSimulation<seq::NsMatching> sim(kN + kMCap, kN, kMCap);
    harness::Driver driver(kN, kBenchConfig);
    driver.add("maximal matching (red.)", sim);
    driver.run(graph::random_stream(kN, kStream, 0.6, 6));
    bench::print_row(driver.report(), "maximal matching (red.)",
                     "O(1) amort. | O(1) | O(1)");
  }
  {
    core::DmpcSimulation<seq::HdtConnectivity> sim(kN + kMCap, kN);
    harness::Driver driver(kN, kBenchConfig);
    driver.add("connectivity/MST (red.)", sim);
    driver.run(graph::random_stream(kN, kStream, 0.6, 7));
    bench::print_row(driver.report(), "connectivity/MST (red.)",
                     "O~(1) amort. | O(1) | O(1)");
  }

  // Batched + parallel execution: the same connectivity workloads driven
  // per update (the serial baseline) and through the batch-dynamic
  // protocol — plus the protocol on a thread-pool executor (identical
  // rounds; the executor changes wall-clock, never accounting).  The
  // delete-heavy interleaved stream is the adversarial case for batching:
  // every burst is a set of tree-edge deletions inside a few components.
  bench::print_batch_header(
      "batched connectivity (a whole batch shares O(1)-round stages)");
  // --trace: every batched row below runs instrumented and lands on one
  // shared trace (the per-update Table-1 rows above stay untraced).  CI
  // never passes --trace here, so the timed rows that feed the trend
  // gates are only perturbed on manual captures.
  std::shared_ptr<dmpc::Tracer> tracer;
  if (!cli.trace_path.empty()) tracer = std::make_shared<dmpc::Tracer>();
  const auto install_tracer = [&](core::DynamicForest& forest,
                                  harness::Driver& driver) {
    if (tracer == nullptr) return;
    forest.cluster().set_tracer(tracer);
    driver.set_tracer(tracer);
    tracer->set_enabled(true);
  };
  auto run_connectivity = [&](std::size_t batch_size,
                              harness::ExecutorKind executor,
                              const graph::UpdateStream& stream,
                              double* wall_seconds) {
    core::DynamicForest forest({.n = kN, .m_cap = kMCap});
    forest.preprocess(graph::EdgeList{});
    harness::DriverConfig config{.batch_size = batch_size,
                                 .checkpoint_every = 0};
    config.executor = executor;
    harness::Driver driver(kN, config);
    driver.add("connectivity", forest);
    install_tracer(forest, driver);
    *wall_seconds = bench::timed_seconds([&] { driver.run(stream); });
    return driver.report();
  };
  using harness::ExecutorKind;
  const auto random_stream = graph::random_stream(kN, 2000, 0.75, 8);
  const auto delete_stream =
      graph::interleaved_delete_stream(kN, 2000, 8, 2, 9);
  double wall = 0;
  {
    const auto& r =
        run_connectivity(1, ExecutorKind::kSerial, random_stream, &wall);
    bench::print_batch_row(r, "connectivity", "random, serial baseline");
    gate_batched_row(json, r, "connectivity", "connectivity random serial",
                     0.0, wall);
  }
  {
    const auto& r =
        run_connectivity(16, ExecutorKind::kSerial, random_stream, &wall);
    bench::print_batch_row(r, "connectivity", "random, batch=16 batch-dyn");
    gate_batched_row(json, r, "connectivity", "connectivity random bdyn16",
                     harness::budgets::kBatchedConnectivityRoundsPerUpdate,
                     wall);
  }
  {
    const auto& r =
        run_connectivity(16, ExecutorKind::kThreadPool, random_stream, &wall);
    bench::print_batch_row(r, "connectivity",
                           "random, batch=16 batch-dyn + thread pool");
    gate_batched_row(json, r, "connectivity",
                     "connectivity random bdyn16 pool", 0.0, wall);
  }
  {
    const auto& r =
        run_connectivity(1, ExecutorKind::kSerial, delete_stream, &wall);
    bench::print_batch_row(r, "connectivity", "delete-heavy, serial baseline");
    gate_batched_row(json, r, "connectivity",
                     "connectivity delete-heavy serial", 0.0, wall);
  }
  {
    const auto& r =
        run_connectivity(16, ExecutorKind::kSerial, delete_stream, &wall);
    bench::print_batch_row(r, "connectivity",
                           "delete-heavy, batch=16 batch-dyn");
    gate_batched_row(
        json, r, "connectivity", "connectivity delete-heavy bdyn16",
        harness::budgets::kBatchDynamicDeleteHeavyRoundsPerUpdate, wall);
    gate_zero_serial(r, "connectivity", "connectivity delete-heavy bdyn16");
  }

  // Weighted (MST) batched section: every burst of the weighted
  // delete-heavy adversary is a set of independent tree-edge deletions
  // followed by a set of independent cycle-rule swap inserts, which share
  // one path-max round per stage; each committing swap is one more cut
  // of the stage's k-way split.
  bench::print_batch_header(
      "batched (1+eps)-MST (cycle-rule swaps join the k-way split)");
  auto run_mst = [&](std::size_t batch_size,
                     const graph::UpdateStream& stream, double* wall_seconds) {
    core::DynamicForest mst({.n = kN, .m_cap = kMCap, .weighted = true});
    mst.preprocess(graph::WeightedEdgeList{});
    harness::DriverConfig config{.batch_size = batch_size,
                                 .checkpoint_every = 0,
                                 .weighted = true};
    harness::Driver driver(kN, config);
    driver.add("mst", mst);
    install_tracer(mst, driver);
    *wall_seconds = bench::timed_seconds([&] { driver.run(stream); });
    return driver.report();
  };
  const auto weighted_stream =
      graph::weighted_interleaved_delete_stream(kN, 2000, 8, 3, 10);
  {
    const auto& r = run_mst(1, weighted_stream, &wall);
    bench::print_batch_row(r, "mst", "weighted delete-heavy, serial");
    gate_batched_row(json, r, "mst", "mst delete-heavy serial", 0.0, wall);
  }
  {
    const auto& r = run_mst(16, weighted_stream, &wall);
    bench::print_batch_row(r, "mst", "weighted, batch=16 batch-dyn");
    gate_batched_row(
        json, r, "mst", "mst delete-heavy bdyn16",
        harness::budgets::kBatchDynamicWeightedDeleteHeavyRoundsPerUpdate,
        wall);
    gate_zero_serial(r, "mst", "mst delete-heavy bdyn16");
  }

  // The WIDE delete-heavy adversaries (paths = 2x batch): each batch
  // spreads its deletions over twice as many paths, so stages carry more
  // independent components than on the narrow streams above.
  bench::print_batch_header("wide delete-heavy batches (paths = 2x batch)");
  const auto wide_stream =
      graph::interleaved_delete_stream(kN, 4000, 32, 2, 11);
  const auto wide_weighted_stream =
      graph::weighted_interleaved_delete_stream(kN, 4000, 32, 2, 12);
  {
    const auto& r =
        run_connectivity(16, ExecutorKind::kSerial, wide_stream, &wall);
    bench::print_batch_row(r, "connectivity",
                           "wide delete-heavy, batch=16 batch-dyn");
    gate_batched_row(json, r, "connectivity",
                     "connectivity delete-heavy wide bdyn16",
                     harness::budgets::kWideDeleteHeavyRoundsPerUpdate, wall);
    gate_zero_serial(r, "connectivity",
                     "connectivity delete-heavy wide bdyn16");
  }
  {
    const auto& r = run_mst(16, wide_weighted_stream, &wall);
    bench::print_batch_row(r, "mst",
                           "wide weighted delete-heavy, batch=16 batch-dyn");
    gate_batched_row(
        json, r, "mst", "mst delete-heavy wide bdyn16",
        harness::budgets::kWeightedWideDeleteHeavyRoundsPerUpdate, wall);
    gate_zero_serial(r, "mst", "mst delete-heavy wide bdyn16");
  }

  std::printf(
      "\nNotes: machines(wc)/comm(wc) are per-round worst cases; the\n"
      "reduction rows show rounds = sequential memory accesses with O(1)\n"
      "machines and O(1) words per round, as Lemma 7.1 predicts.  In the\n"
      "batched section, rounds/upd dropping below the serial baseline is\n"
      "the paper's sqrt(N)-updates-share-rounds observation made\n"
      "measurable; the delete-heavy rows show whole batches of tree-edge\n"
      "deletions sharing one k-way split, cascade and join per stage.\n");

  if (tracer != nullptr) bench::write_trace(*tracer, cli.trace_path);

  if (!cli.json_path.empty() &&
      !json.write(cli.json_path, g_within_budget)) {
    std::fprintf(stderr, "failed to write %s\n", cli.json_path.c_str());
    return 2;
  }
  if (cli.check && !g_within_budget) {
    std::fprintf(stderr, "bench_table1: rounds/update budget check FAILED\n");
    return 1;
  }
  return 0;
}
