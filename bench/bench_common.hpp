// Shared helpers for the benchmark harness: pretty-printing the measured
// DMPC complexity triples next to the paper's Table 1 bounds, plus the
// machinery behind the CI benchmark-regression gate — a `--json <path>`
// artifact emitter and a `--check` budget verdict (budgets shared with
// tests/test_table1_budgets.cpp via harness/table1_budgets.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "dmpc/metrics.hpp"
#include "dmpc/trace.hpp"
#include "harness/driver.hpp"

namespace bench {

/// The CLI surface every bench main shares: `--json <path>` writes the
/// machine-readable report, `--check` makes budget violations fatal
/// (exit 1) for the CI bench job, `--faults <seed>` adds a
/// fault-injected phase to benches that support one (bench_serving):
/// a seeded dmpc::FaultInjector Bernoulli schedule fails update
/// protocols mid-flight while the recovery stack keeps serving, and
/// `--trace <path>` writes a dmpc::Tracer Chrome-trace JSON of a traced
/// section (benches pick a representative one so the timed CI rows stay
/// unperturbed; see docs/OBSERVABILITY.md).
struct CliArgs {
  std::string json_path;
  std::string trace_path;
  bool check = false;
  bool faults = false;
  std::uint64_t faults_seed = 0;
};

inline CliArgs parse_cli(int argc, char** argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (a == "--trace" && i + 1 < argc) {
      args.trace_path = argv[++i];
    } else if (a == "--check") {
      args.check = true;
    } else if (a == "--faults" && i + 1 < argc) {
      args.faults = true;
      args.faults_seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      // Fail loudly: a typo in the CI invocation must not silently run
      // the bench with the budget gate disabled.
      std::fprintf(stderr,
                   "%s: unrecognized argument '%s'\nusage: %s "
                   "[--json <path>] [--check] [--faults <seed>] "
                   "[--trace <path>]\n",
                   argv[0], a.c_str(), argv[0]);
      std::exit(2);
    }
  }
  return args;
}

/// Writes a tracer's Chrome-trace JSON to `path` and prints a one-look
/// attribution summary (per-phase wall share and the dominant per-round
/// phase — the full table is `scripts/trace_report.py <path>`).
inline void write_trace(const dmpc::Tracer& tracer, const std::string& path) {
  tracer.write_chrome_json(path);
  std::uint64_t sum_wall = 0;
  for (const dmpc::PhaseTotals& t : tracer.phase_totals()) {
    sum_wall += t.wall_ns;
  }
  std::printf("\ntrace written to %s (%zu events", path.c_str(),
              tracer.events().size());
  if (tracer.dropped_events() > 0) {
    std::printf(", %llu dropped",
                static_cast<unsigned long long>(tracer.dropped_events()));
  }
  std::printf(")\n");
  for (std::size_t p = 0; p < dmpc::kTracePhaseCount; ++p) {
    const dmpc::PhaseTotals& t = tracer.phase_totals()[p];
    if (t.spans == 0 && t.rounds + t.charged_rounds == 0) continue;
    std::printf("  %-18s spans=%-6llu rounds=%-8llu wall=%8.3f ms (%.1f%%)\n",
                dmpc::trace_phase_name(static_cast<dmpc::TracePhase>(p)),
                static_cast<unsigned long long>(t.spans),
                static_cast<unsigned long long>(t.rounds + t.charged_rounds),
                static_cast<double>(t.wall_ns) / 1e6,
                sum_wall == 0 ? 0.0
                              : 100.0 * static_cast<double>(t.wall_ns) /
                                    static_cast<double>(sum_wall));
  }
  std::printf("  dominant per-round phase: %s\n",
              dmpc::trace_phase_name(tracer.dominant_phase()));
}

/// Seconds elapsed while running `fn` (wall clock, for the JSON rows).
template <typename Fn>
double timed_seconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// CPU seconds the calling thread spent running `fn`: unlike wall time,
/// it leaves out the time the host ran other work, so it suits an A/B of
/// single-threaded code (the serial executor) on a shared machine.
template <typename Fn>
double thread_cpu_seconds(Fn&& fn) {
  const auto now = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  const double t0 = now();
  fn();
  return now() - t0;
}

/// Minimal JSON emitter for the CI benchmark artifacts
/// (BENCH_table1.json / BENCH_scaling.json): a flat list of per-workload
/// metric objects plus a top-level within_budget verdict.  No external
/// dependencies; rows are built row()-then-num()/u64()/flag() in order.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  JsonReport& row(const std::string& name) {
    rows_.push_back("    {\"name\": \"" + name + "\"");
    return *this;
  }
  JsonReport& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    rows_.back() += std::string(", \"") + key + "\": " + buf;
    return *this;
  }
  JsonReport& u64(const char* key, std::uint64_t v) {
    rows_.back() += std::string(", \"") + key + "\": " + std::to_string(v);
    return *this;
  }
  JsonReport& flag(const char* key, bool v) {
    rows_.back() += std::string(", \"") + key + "\": " + (v ? "true" : "false");
    return *this;
  }

  /// Writes {"bench", "within_budget", "workloads": [...]}; returns
  /// false if the file cannot be written.
  [[nodiscard]] bool write(const std::string& path,
                           bool within_budget) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"within_budget\": %s,\n"
                 "  \"workloads\": [\n",
                 bench_.c_str(), within_budget ? "true" : "false");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s}%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::string bench_;
  std::vector<std::string> rows_;
};

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
  std::printf("%-28s %12s %12s %14s %10s   %s\n", "algorithm / workload",
              "rounds(wc)", "machines(wc)", "comm/rnd(wc)", "mean rnds",
              "paper bound");
}

inline void print_row(const std::string& name,
                      const dmpc::UpdateAggregate& agg,
                      const char* paper_bound) {
  std::printf("%-28s %12llu %12llu %14llu %10.2f   %s\n", name.c_str(),
              static_cast<unsigned long long>(agg.worst_rounds),
              static_cast<unsigned long long>(agg.worst_active_machines),
              static_cast<unsigned long long>(agg.worst_comm_words),
              agg.mean_rounds(), paper_bound);
}

/// Prints the row of an algorithm registered with a harness::Driver,
/// using the driver's per-update aggregate (which, unlike the cluster's
/// own aggregate, never includes preprocessing rounds).
inline void print_row(const harness::DriverReport& report,
                      const std::string& name, const char* paper_bound) {
  const harness::AlgorithmStats* stats = report.find(name);
  if (stats == nullptr) {
    std::printf("%-28s (not registered with the driver)\n", name.c_str());
    return;
  }
  print_row(name, stats->agg, paper_bound);
}

/// Rounds per applied update of a (batched or serial) driver run — the
/// metric the batched sections print and the CI bench gate bounds.
inline double rounds_per_update(const harness::DriverReport& report,
                                const std::string& name) {
  const harness::AlgorithmStats* stats = report.find(name);
  if (stats == nullptr || report.applied == 0) return 0.0;
  const dmpc::UpdateAggregate& agg =
      stats->batched ? stats->batch_agg : stats->agg;
  return static_cast<double>(agg.total_rounds) /
         static_cast<double>(report.applied);
}

/// Prints a batched algorithm's row from the driver's per-batch
/// aggregate: total and per-update rounds (the round-sharing win), the
/// total communication, and — for algorithms with a batch scheduler —
/// how the batches were partitioned (out-of-order executions, grouped
/// tree deletions, cycle-rule inserts) plus the batch-dynamic protocol's
/// stages, k-way transforms, replacement-cascade volume, and
/// net-op-compression elisions.
inline void print_batch_row(const harness::DriverReport& report,
                            const std::string& name, const char* note) {
  const harness::AlgorithmStats* stats = report.find(name);
  if (stats == nullptr || report.applied == 0) {
    std::printf("%-28s (no batched data)\n", name.c_str());
    return;
  }
  const dmpc::UpdateAggregate& agg =
      stats->batched ? stats->batch_agg : stats->agg;
  std::string full_note = note;
  if (stats->scheduled) {
    char sched[256];
    std::snprintf(
        sched, sizeof sched,
        " | reord=%llu sdel=%llu pmax=%llu "
        "stg=%llu kway=%llu/%llu casc=%llu/%llu elide=%llu",
        static_cast<unsigned long long>(stats->sched.reordered_updates),
        static_cast<unsigned long long>(stats->sched.batched_tree_deletes),
        static_cast<unsigned long long>(stats->sched.path_max_grouped),
        static_cast<unsigned long long>(stats->sched.stages),
        static_cast<unsigned long long>(stats->sched.kway_splits),
        static_cast<unsigned long long>(stats->sched.kway_joins),
        static_cast<unsigned long long>(stats->sched.cascade_rounds),
        static_cast<unsigned long long>(stats->sched.cascade_links),
        static_cast<unsigned long long>(stats->sched.elided_updates));
    full_note += sched;
  }
  std::printf("%-28s %12llu %12.2f %14llu %10zu   %s\n", name.c_str(),
              static_cast<unsigned long long>(agg.total_rounds),
              rounds_per_update(report, name),
              static_cast<unsigned long long>(agg.total_comm_words),
              report.batches, full_note.c_str());
}

/// Records a batched (or serial-baseline) driver run in the JSON report
/// — rounds/update, per-batch totals, and the scheduler's partitioning
/// when available — and checks its rounds-per-update budget.  A budget
/// of 0 marks an informational row (no gate).  Returns whether the row
/// is within budget; callers fold that into their bench-wide verdict.
inline bool batched_json_row(JsonReport& json,
                             const harness::DriverReport& report,
                             const std::string& name,
                             const std::string& row_name, double budget_rpu,
                             double wall_seconds) {
  const double rpu = rounds_per_update(report, name);
  const bool ok = budget_rpu == 0.0 || rpu <= budget_rpu;
  if (!ok) {
    std::fprintf(stderr,
                 "BUDGET VIOLATION: %s rounds/update %.2f > budget %.2f\n",
                 row_name.c_str(), rpu, budget_rpu);
  }
  json.row(row_name)
      .u64("updates", report.applied)
      .u64("batches", report.batches)
      .num("rounds_per_update", rpu)
      .num("wall_seconds", wall_seconds);
  const harness::AlgorithmStats* stats = report.find(name);
  if (stats != nullptr) {
    const dmpc::UpdateAggregate& agg =
        stats->batched ? stats->batch_agg : stats->agg;
    json.u64("total_rounds", agg.total_rounds)
        .u64("total_comm_words", agg.total_comm_words);
    if (stats->scheduled) {
      json.u64("reordered_updates", stats->sched.reordered_updates)
          .u64("batched_tree_deletes", stats->sched.batched_tree_deletes)
          .u64("path_max_grouped", stats->sched.path_max_grouped)
          .u64("deferred_updates", stats->sched.deferred_updates)
          .u64("stages", stats->sched.stages)
          .u64("kway_splits", stats->sched.kway_splits)
          .u64("kway_joins", stats->sched.kway_joins)
          .u64("cascade_rounds", stats->sched.cascade_rounds)
          .u64("cascade_links", stats->sched.cascade_links)
          .u64("elided_updates", stats->sched.elided_updates);
    }
  }
  if (budget_rpu != 0.0) {
    json.num("budget_rounds_per_update", budget_rpu)
        .flag("within_budget", ok);
  }
  return ok;
}

inline void print_batch_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
  std::printf("%-28s %12s %12s %14s %10s   %s\n", "algorithm / mode",
              "rounds(tot)", "rounds/upd", "comm(tot)", "batches", "note");
}

}  // namespace bench
