// Scaling "figures": how each Table 1 column behaves as N grows.  The
// paper proves asymptotic shapes; this harness prints the measured series
// so the shapes are visible:
//   * rounds per update: flat for every dynamic algorithm;
//   * active machines per round: ~sqrt(N) for connectivity/MST,
//     ~n/sqrt(N) for 3/2-matching, flat for the coordinator-based maximal
//     matching, polylog for (2+eps);
//   * communication per round: ~sqrt(N) except (2+eps)'s polylog.
//
// CI integration: `--json BENCH_scaling.json` writes the series as a
// machine-readable artifact; `--check` exits non-zero when any point's
// worst rounds/update exceeds the shared budget
// (harness/table1_budgets.hpp) — rounds are O(1), so the same budget
// applies at every n in the sweep.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/cs_matching.hpp"
#include "core/dyn_forest.hpp"
#include "core/maximal_matching.hpp"
#include "core/three_halves_matching.hpp"
#include "graph/update_stream.hpp"
#include "harness/driver.hpp"
#include "harness/table1_budgets.hpp"

namespace {

constexpr std::size_t kStream = 250;

bool g_within_budget = true;
bench::JsonReport g_json("scaling");

/// Runs the stream through the harness Driver and returns the driver's
/// per-update aggregate (free of preprocessing rounds by construction).
template <typename Alg>
dmpc::UpdateAggregate drive(Alg& alg, std::size_t n,
                            const graph::UpdateStream& stream,
                            const graph::EdgeList& preprocessed = {},
                            bool weighted = false) {
  harness::Driver driver(
      n, harness::DriverConfig{.checkpoint_every = 0, .weighted = weighted});
  driver.add("alg", alg);
  driver.seed(preprocessed);
  return driver.run(stream).find("alg")->agg;
}

void print_series(const char* name, std::size_t n,
                  const dmpc::UpdateAggregate& agg,
                  const harness::budgets::Table1Budget& budget,
                  double wall_seconds) {
  const double sqrt_n = std::sqrt(static_cast<double>(5 * n));
  std::printf("%-24s n=%6zu sqrtN=%7.1f | rounds(wc)=%4llu "
              "machines(wc)=%6llu comm(wc)=%8llu comm/sqrtN=%6.2f\n",
              name, n, sqrt_n,
              static_cast<unsigned long long>(agg.worst_rounds),
              static_cast<unsigned long long>(agg.worst_active_machines),
              static_cast<unsigned long long>(agg.worst_comm_words),
              static_cast<double>(agg.worst_comm_words) / sqrt_n);
  const bool ok = agg.worst_rounds <= budget.rounds;
  g_within_budget = g_within_budget && ok;
  if (!ok) {
    std::fprintf(stderr,
                 "BUDGET VIOLATION: %s (n=%zu) worst rounds/update %llu > "
                 "budget %llu\n",
                 name, n, static_cast<unsigned long long>(agg.worst_rounds),
                 static_cast<unsigned long long>(budget.rounds));
  }
  g_json.row(name)
      .u64("n", n)
      .u64("updates", agg.updates)
      .u64("worst_rounds", agg.worst_rounds)
      .num("mean_rounds", agg.mean_rounds())
      .u64("worst_machines", agg.worst_active_machines)
      .u64("worst_comm_words", agg.worst_comm_words)
      .u64("total_comm_words", agg.total_comm_words)
      .num("wall_seconds", wall_seconds)
      .u64("budget_rounds", budget.rounds)
      .flag("within_budget", ok);
}

/// Batched connectivity on a thread-pool executor: the out-of-order
/// scheduler shares protocol rounds between independent updates (tree
/// deletions included), so rounds/update drops below a batch of one's
/// constant as N grows while the state stays byte-identical to the
/// serial-executor run.
void run_batched_connectivity(
    std::size_t n, const std::shared_ptr<dmpc::Tracer>& tracer = nullptr) {
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{});
  harness::DriverConfig config{.batch_size = 16, .checkpoint_every = 0};
  config.executor = harness::ExecutorKind::kThreadPool;
  harness::Driver driver(n, config);
  driver.add("alg", forest);
  if (tracer != nullptr) {
    forest.cluster().set_tracer(tracer);
    driver.set_tracer(tracer);
    tracer->set_enabled(true);
  }
  const double wall = bench::timed_seconds([&] {
    driver.run(graph::random_stream(n, 4 * kStream, 0.75, 16));
  });
  if (tracer != nullptr) tracer->set_enabled(false);
  const auto& report = driver.report();
  const auto& agg = report.find("alg")->batch_agg;
  const double rpu = bench::rounds_per_update(report, "alg");
  const auto& sched = report.find("alg")->sched;
  std::printf("%-24s n=%7zu batches=%4zu | rounds/update=%6.2f "
              "(vs ~3.5 unbatched) comm(tot)=%8llu reord=%llu sdel=%llu\n",
              "connectivity (batch=16)", n, report.batches, rpu,
              static_cast<unsigned long long>(agg.total_comm_words),
              static_cast<unsigned long long>(sched.reordered_updates),
              static_cast<unsigned long long>(sched.batched_tree_deletes));
  g_within_budget =
      bench::batched_json_row(
          g_json, report, "alg",
          "connectivity batch=16 n=" + std::to_string(n),
          harness::budgets::kBatchedConnectivityRoundsPerUpdate, wall) &&
      g_within_budget;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliArgs cli = bench::parse_cli(argc, argv);
  std::printf("Scaling sweep (m_cap = 4n, adversarial streams, %zu updates "
              "per point)\n",
              kStream);
  for (const std::size_t n : {256u, 1024u, 4096u, 16384u}) {
    const std::size_t m_cap = 4 * n;
    {
      core::DynamicForest forest({.n = n, .m_cap = m_cap});
      forest.preprocess(graph::cycle(n));
      dmpc::UpdateAggregate agg;
      const double wall = bench::timed_seconds([&] {
        agg = drive(forest, n,
                    graph::bridge_adversary_stream(n, 2 * n + kStream,
                                                   n / 4, 11),
                    graph::cycle(n));
      });
      print_series("connectivity", n, agg,
                   harness::budgets::kConnectedComponents, wall);
    }
    {
      core::DynamicForest mst(
          {.n = n, .m_cap = m_cap, .weighted = true, .eps = 0.1});
      mst.preprocess(
          graph::with_random_weights(graph::cycle(n), 100000, 12));
      dmpc::UpdateAggregate agg;
      const double wall = bench::timed_seconds([&] {
        agg = drive(mst, n,
                    graph::bridge_adversary_stream(n, 2 * n + kStream,
                                                   n / 4, 12, true),
                    graph::cycle(n), /*weighted=*/true);
      });
      print_series("(1+eps)-MST", n, agg, harness::budgets::kApproximateMst,
                   wall);
    }
    {
      core::MaximalMatching mm({.n = n, .m_cap = m_cap});
      mm.preprocess({});
      dmpc::UpdateAggregate agg;
      const double wall = bench::timed_seconds([&] {
        agg = drive(mm, n,
                    graph::matched_edge_adversary_stream(n, n + kStream, 13));
      });
      print_series("maximal matching", n, agg,
                   harness::budgets::kMaximalMatching, wall);
    }
    {
      core::ThreeHalvesMatching th({.n = n, .m_cap = m_cap});
      th.preprocess_empty();
      dmpc::UpdateAggregate agg;
      const double wall = bench::timed_seconds([&] {
        agg = drive(th, n,
                    graph::matched_edge_adversary_stream(n, n + kStream, 14));
      });
      print_series("3/2-approx matching", n, agg,
                   harness::budgets::kThreeHalvesMatching, wall);
    }
    {
      core::CsMatching cs({.n = n, .eps = 0.2, .seed = 15});
      dmpc::UpdateAggregate agg;
      const double wall = bench::timed_seconds([&] {
        agg = drive(cs, n, graph::random_stream(n, kStream, 0.6, 15));
      });
      print_series("(2+eps)-approx", n, agg, harness::budgets::kCsMatching,
                   wall);
    }
    run_batched_connectivity(n);
    std::printf("\n");
  }
  // Large-n extension of the batched series only: the per-update
  // algorithms above would dominate the job's wall clock at these sizes,
  // and the batched path is the one whose wall-clock story matters
  // (pooled folds + SoA scans), so it alone is swept toward n = 10^6.
  std::printf("Batched connectivity, large n:\n");
  // `--trace` answers the ROADMAP's "profile whatever still dominates
  // per-round at n=10^6" follow-up: only the n=2^20 point is traced, so
  // the smaller timed rows stay unperturbed.
  const auto tracer = cli.trace_path.empty()
                          ? nullptr
                          : std::make_shared<dmpc::Tracer>();
  for (const std::size_t n : {65536u, 262144u, 1048576u}) {
    run_batched_connectivity(n, n == 1048576u ? tracer : nullptr);
  }
  if (tracer != nullptr) bench::write_trace(*tracer, cli.trace_path);
  std::printf("\n");
  std::printf("Shapes to read off: rounds flat everywhere; comm/sqrtN\n"
              "roughly constant for the sqrt(N) algorithms; (2+eps) and the\n"
              "maximal-matching machine counts do not grow with sqrt(N).\n");
  if (!cli.json_path.empty() && !g_json.write(cli.json_path,
                                              g_within_budget)) {
    std::fprintf(stderr, "failed to write %s\n", cli.json_path.c_str());
    return 2;
  }
  if (cli.check && !g_within_budget) {
    std::fprintf(stderr, "bench_scaling: rounds/update budget check FAILED\n");
    return 1;
  }
  return 0;
}
