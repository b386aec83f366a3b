// Connectivity-as-a-service under a read-dominated mixed workload: a
// serve::QueryBroker over DynamicForest drinking a Zipfian/bursty
// query-update stream (millions of ops, >= 90% queries, skewed hot
// components).  Reports sustained throughput and p50/p99 query latency,
// plus the query-path round accounting the model cares about: query
// batches are O(1) rounds each (worst <= 6), answered purely from reads
// — zero serial update-protocol fallbacks.
//
// CI contract (--check): fails if the query share drops below 90%, any
// query batch exceeds 6 rounds, a query triggers the update protocol
// (serial_updates != 0), or the broker sheds/rejects on this sized
// workload.  BENCH_serving.json feeds scripts/bench_trend.py, which
// gates query_rounds_per_batch tightly (deterministic) and p99 latency
// against the cached baseline (noise-floored).
//
// Two extra phases back the robustness contract (docs/ROBUSTNESS.md):
//   * an update-only journal-overhead measurement — the same batched
//     stream applied with atomic_updates on and off — whose
//     journal_overhead_pct lands in the main JSON row for
//     bench_trend.py's <5% absolute gate;
//   * with --faults <seed>, a fault-injected serving phase: a seeded
//     Bernoulli schedule aborts update protocols mid-flight while the
//     broker degrades gracefully.  --check then additionally gates
//     100% availability of admitted queries and zero abandoned updates.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/dyn_forest.hpp"
#include "dmpc/fault.hpp"
#include "graph/update_stream.hpp"
#include "harness/driver.hpp"
#include "serve/query_broker.hpp"

namespace {

struct LatencyProfile {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

LatencyProfile percentiles(std::vector<double>& latencies) {
  LatencyProfile p;
  if (latencies.empty()) return p;
  const auto at = [&](double q) {
    const std::size_t k = std::min(
        latencies.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(latencies.size())));
    std::nth_element(latencies.begin(),
                     latencies.begin() + static_cast<std::ptrdiff_t>(k),
                     latencies.end());
    return latencies[k];
  };
  p.p50_us = at(0.50);
  p.p99_us = at(0.99);
  return p;
}

struct ServingRun {
  std::size_t ops = 0;
  std::size_t queries_submitted = 0;
  LatencyProfile latency;
  double wall_seconds = 0.0;
  serve::ServingStats stats;
};

/// Standalone serving loop: client sessions submit against the broker;
/// every `service_interval` ops the pump thread commits the queued
/// updates as one batch and answers the whole query backlog in shared
/// O(1)-round lookups (the bubble between update batches).
ServingRun run_standalone(core::DynamicForest& forest,
                          const graph::MixedStream& stream,
                          std::size_t service_interval) {
  serve::QueryBroker broker(forest, {.max_query_batch = 256,
                                     .max_pending_queries = 1 << 16,
                                     .max_pending_updates = 1 << 14});
  serve::ClientSession client = broker.session();
  ServingRun run;
  run.ops = stream.size();
  std::vector<serve::QueryId> outstanding;
  outstanding.reserve(service_interval + 1);
  std::vector<double> latencies;
  latencies.reserve(stream.size());
  const auto drain = [&] {
    broker.pump();
    for (const serve::QueryId id : outstanding) {
      if (const auto answer = client.poll(id)) {
        latencies.push_back(answer->latency_us);
      }
    }
    outstanding.clear();
  };
  run.wall_seconds = bench::timed_seconds([&] {
    std::size_t since_service = 0;
    for (const graph::MixedOp& op : stream) {
      switch (op.kind) {
        case graph::MixedKind::kUpdate:
          while (!broker.submit_update(op.as_update())) drain();
          break;
        case graph::MixedKind::kConnected:
          ++run.queries_submitted;
          if (const auto id = client.connected(op.u, op.v)) {
            outstanding.push_back(*id);
          }
          break;
        case graph::MixedKind::kPathWeight:
          ++run.queries_submitted;
          if (const auto id = client.path_weight(op.u, op.v)) {
            outstanding.push_back(*id);
          }
          break;
      }
      if (++since_service >= service_interval) {
        since_service = 0;
        drain();
      }
    }
    drain();
  });
  run.latency = percentiles(latencies);
  run.stats = broker.stats();
  return run;
}

struct JournalOverhead {
  double on_seconds = 0.0;
  double off_seconds = 0.0;
  double pct = 0.0;
};

/// Fault-free cost of the undo journal, measured where it actually
/// runs: an update-only batched stream applied twice, with the journal
/// armed and disarmed.  The mixed serving stream would dilute the
/// effect under 95% reads, so this measures the update path alone.
/// Best-of-two per mode damps scheduler noise; the trend gate
/// additionally noise-floors tiny measurements.
JournalOverhead measure_journal_overhead(std::size_t n) {
  const graph::UpdateStream stream =
      graph::interleaved_delete_stream(n, 120'000, 32, 4, 41);
  graph::DynamicGraph shadow(n);
  std::vector<std::vector<graph::Update>> batches(1);
  for (const graph::Update& up : stream) {
    if (!graph::apply_update(shadow, up)) continue;
    batches.back().push_back(up);
    if (batches.back().size() == 256) batches.emplace_back();
  }
  if (batches.back().empty()) batches.pop_back();

  const auto one_run = [&](bool atomic) {
    core::DynamicForest forest(
        {.n = n, .m_cap = std::size_t{1} << 16, .atomic_updates = atomic});
    forest.preprocess(graph::EdgeList{});
    return bench::timed_seconds([&] {
      for (const auto& batch : batches) {
        forest.apply_batch(std::span<const graph::Update>(batch));
      }
    });
  };
  JournalOverhead o;
  o.off_seconds = std::min(one_run(false), one_run(false));
  o.on_seconds = std::min(one_run(true), one_run(true));
  o.pct = o.off_seconds > 0.0
              ? (o.on_seconds / o.off_seconds - 1.0) * 100.0
              : 0.0;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliArgs args = bench::parse_cli(argc, argv);
  bool ok = true;

  graph::ZipfianServingConfig traffic;
  traffic.n = std::size_t{1} << 14;
  traffic.length = 1'500'000;
  traffic.blocks = 64;
  traffic.zipf_s = 1.1;
  traffic.query_fraction = 0.95;
  traffic.path_query_fraction = 0.03;
  traffic.seed = 7;
  const graph::MixedStream stream = graph::zipfian_serving_stream(traffic);

  core::DynamicForest forest(
      {.n = traffic.n, .m_cap = std::size_t{1} << 16});
  forest.preprocess(graph::EdgeList{});
  forest.cluster().metrics().reset();

  std::printf("Connectivity-as-a-service: Zipfian mixed stream "
              "(n=%zu, ops=%zu, target query share %.0f%%)\n\n",
              traffic.n, stream.size(), 100.0 * traffic.query_fraction);

  const ServingRun run = run_standalone(forest, stream, 256);
  const dmpc::QueryAggregate& qa =
      forest.cluster().metrics().query_aggregate();
  const dmpc::BatchScheduleStats& sched = forest.batch_stats();

  const double query_share = static_cast<double>(run.queries_submitted) /
                             static_cast<double>(run.ops);
  const double throughput_mops =
      run.wall_seconds > 0.0
          ? static_cast<double>(run.ops) / run.wall_seconds / 1e6
          : 0.0;

  std::printf("ops                %zu (%.1f%% queries)\n", run.ops,
              100.0 * query_share);
  std::printf("throughput         %.2f Mops/s (%.2f s wall)\n",
              throughput_mops, run.wall_seconds);
  std::printf("query latency      p50 %.1f us   p99 %.1f us\n",
              run.latency.p50_us, run.latency.p99_us);
  std::printf("query batches      %llu (%.2f rounds/batch, worst %llu)\n",
              static_cast<unsigned long long>(qa.batches),
              qa.mean_rounds_per_batch(),
              static_cast<unsigned long long>(qa.worst_rounds));
  std::printf("update batches     %llu (%llu updates, %llu serial)\n",
              static_cast<unsigned long long>(run.stats.update_batches),
              static_cast<unsigned long long>(run.stats.updates_applied),
              static_cast<unsigned long long>(sched.serial_updates));
  std::printf("admission          %llu shed queries, %llu rejected updates\n",
              static_cast<unsigned long long>(run.stats.queries_shed),
              static_cast<unsigned long long>(run.stats.updates_rejected));

  // The acceptance gates: read-dominated at scale, O(1)-round query
  // batches, zero update-protocol participation from the read path.
  const auto gate = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "SERVING VIOLATION: %s\n", what);
      ok = false;
    }
  };
  gate(run.ops >= 1'000'000, "stream shorter than 1M ops");
  gate(query_share >= 0.90, "query share below 90%");
  gate(run.stats.queries_answered == run.queries_submitted,
       "not every admitted query was answered");
  gate(qa.worst_rounds <= 6, "a query batch exceeded 6 rounds");
  gate(sched.serial_updates == 0,
       "the read path triggered serial update-protocol rounds");
  gate(run.stats.queries_shed == 0, "queries shed at this workload size");
  gate(run.stats.updates_rejected == 0,
       "updates rejected at this workload size");

  // Phase 2: the undo journal's fault-free overhead on the update path.
  // Not gated here — bench_trend.py applies the <5% absolute gate with
  // a noise floor — but printed and exported for the row.
  const JournalOverhead journal = measure_journal_overhead(traffic.n);
  std::printf("\njournal overhead   %.2f%% (journal on %.2fs / off %.2fs, "
              "update-only stream)\n",
              journal.pct, journal.on_seconds, journal.off_seconds);

  // Phase 3 (--faults <seed>): the same serving loop under a seeded
  // Bernoulli fault schedule, update-heavier so the update protocol —
  // the faultable surface — sees real traffic.  The broker's degraded
  // mode must keep answering every admitted query from the last
  // committed epoch and recover every failed batch without abandoning
  // an update.
  ServingRun faulted;
  serve::ServingStats fstats;
  if (args.faults) {
    graph::ZipfianServingConfig ftraffic = traffic;
    ftraffic.length = 300'000;
    ftraffic.query_fraction = 0.70;
    const graph::MixedStream fstream = graph::zipfian_serving_stream(ftraffic);
    core::DynamicForest ff({.n = ftraffic.n, .m_cap = std::size_t{1} << 16});
    ff.preprocess(graph::EdgeList{});
    ff.cluster().set_fault_injector(std::make_shared<dmpc::FaultInjector>(
        args.faults_seed, /*rate=*/0.002));
    faulted = run_standalone(ff, fstream, 256);
    fstats = faulted.stats;
    std::printf("\n--- fault-injected phase (seed %llu, rate 0.002) ---\n",
                static_cast<unsigned long long>(args.faults_seed));
    std::printf("aborts             %llu (%llu retries, %llu bisections, "
                "%llu abandoned)\n",
                static_cast<unsigned long long>(fstats.update_aborts),
                static_cast<unsigned long long>(fstats.update_retries),
                static_cast<unsigned long long>(fstats.update_bisections),
                static_cast<unsigned long long>(fstats.updates_abandoned));
    std::printf("degraded           %llu intervals, %.0f us total, "
                "worst recovery %.0f us\n",
                static_cast<unsigned long long>(fstats.degraded_intervals),
                fstats.degraded_time_us, fstats.worst_recovery_us);
    std::printf("availability       %llu/%zu admitted queries answered\n",
                static_cast<unsigned long long>(fstats.queries_answered),
                faulted.queries_submitted);
    gate(fstats.update_aborts > 0,
         "the fault schedule never fired — the phase tested nothing");
    gate(fstats.updates_abandoned == 0,
         "an update was abandoned under the fault schedule");
    gate(fstats.queries_answered == faulted.queries_submitted,
         "an admitted query went unanswered during degraded serving");
    gate(fstats.queries_shed == 0, "queries shed during the fault phase");
  }

  // Phase 4 (--trace <path>): a dedicated short serving run with the
  // tracer enabled — fresh forest, same Zipfian shape, 200k ops — so
  // the timed phases above (whose rows feed the latency trend gates)
  // never run instrumented.  The broker's epoch spans and the forest's
  // protocol/query phases land on the same trace.
  if (!args.trace_path.empty()) {
    graph::ZipfianServingConfig ttraffic = traffic;
    ttraffic.length = 200'000;
    const graph::MixedStream tstream = graph::zipfian_serving_stream(ttraffic);
    core::DynamicForest tf({.n = ttraffic.n, .m_cap = std::size_t{1} << 16});
    tf.preprocess(graph::EdgeList{});
    const auto tracer = std::make_shared<dmpc::Tracer>();
    tf.cluster().set_tracer(tracer);
    tracer->set_enabled(true);
    (void)run_standalone(tf, tstream, 256);
    tracer->set_enabled(false);
    bench::write_trace(*tracer, args.trace_path);
  }

  if (!args.json_path.empty()) {
    // Latency and wall-clock measured on different hardware say nothing
    // about the code, so stamp the core count for the trend gate's skip.
    const unsigned detected = std::thread::hardware_concurrency();
    bench::JsonReport json("serving");
    json.row("serving/zipfian-mixed")
        .u64("cores", detected == 0 ? 8 : detected)
        .u64("ops", run.ops)
        .num("query_share", query_share)
        .u64("queries", run.stats.queries_answered)
        .u64("query_batches", qa.batches)
        .num("query_rounds_per_batch", qa.mean_rounds_per_batch())
        .u64("worst_query_rounds", qa.worst_rounds)
        .u64("query_comm_words", qa.total_comm_words)
        .u64("update_batches", run.stats.update_batches)
        .u64("updates_applied", run.stats.updates_applied)
        .u64("serial_updates", sched.serial_updates)
        .u64("queries_shed", run.stats.queries_shed)
        .u64("updates_rejected", run.stats.updates_rejected)
        .num("p50_us", run.latency.p50_us)
        .num("p99_us", run.latency.p99_us)
        .num("throughput_mops", throughput_mops)
        .num("wall_seconds", run.wall_seconds)
        .num("journal_overhead_pct", journal.pct)
        .num("journal_on_seconds", journal.on_seconds)
        .num("journal_off_seconds", journal.off_seconds)
        .flag("within_budget", ok);
    if (args.faults) {
      json.row("serving/faulted")
          .u64("faults_seed", args.faults_seed)
          .u64("ops", faulted.ops)
          .u64("queries_submitted", faulted.queries_submitted)
          .u64("queries_answered", fstats.queries_answered)
          .u64("update_aborts", fstats.update_aborts)
          .u64("update_retries", fstats.update_retries)
          .u64("update_bisections", fstats.update_bisections)
          .u64("updates_abandoned", fstats.updates_abandoned)
          .u64("degraded_intervals", fstats.degraded_intervals)
          .num("degraded_time_us", fstats.degraded_time_us)
          .num("worst_recovery_us", fstats.worst_recovery_us)
          .u64("updates_applied", fstats.updates_applied)
          .num("wall_seconds_faulted", faulted.wall_seconds)
          .flag("within_budget", ok);
    }
    if (!json.write(args.json_path, ok)) {
      std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
      return 2;
    }
    std::printf("\nwrote %s\n", args.json_path.c_str());
  }
  if (args.check && !ok) return 1;
  std::printf("\nverdict: %s\n", ok ? "WITHIN SERVING BUDGETS" : "VIOLATIONS");
  return 0;
}
