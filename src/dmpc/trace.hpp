// Round-level tracing and phase attribution for the DMPC simulator.
//
// A Tracer installed on a Cluster (Cluster::set_tracer) records one span
// per round barrier — round kind, comm words, active machines, wall ns —
// and nests those spans under protocol-phase annotations pushed by the
// algorithm layers (DynamicForest's scatter/classify, k-way split,
// replacement cascade, k-way join, directory, path-max, and query-batch
// phases; harness::Driver's batch/recovery spans;
// serve::QueryBroker's epochs).  Two exports:
//
//   * Chrome trace-event JSON (write_chrome_json), loadable in Perfetto:
//     one "protocol" track carrying phase and round spans plus one track
//     per machine carrying its per-dispatch task windows.
//   * A per-phase attribution table (phase_totals) — share of rounds,
//     comm words, and wall-clock per phase — rendered by
//     scripts/trace_report.py from the "dmpc" section of the JSON.
//
// Cost contract: off by default, and the off path is one pointer/flag
// check per barrier and per dispatch (gated in bench_micro as
// trace_overhead_pct, budget <1%).  When enabled, the event buffer is
// preallocated once at max_events capacity and NEVER grows: past the cap
// events are dropped and counted (dropped_events), while the per-phase
// totals keep counting every round, so the attribution table stays exact
// even when the event log truncates.
//
// Threading: everything here is called from the single driving thread —
// between dispatches and at barriers — except record_task, which worker
// threads call concurrently for DISTINCT machines (one writer per slot,
// per the RoundExecutor contract), and now_ns (const).  Events are only
// appended from the driving thread (task slots are flushed at the
// barrier in machine order), so the event sequence is byte-identical
// under SerialExecutor and ThreadPoolExecutor up to timestamps.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dmpc/metrics.hpp"
#include "dmpc/types.hpp"

namespace dmpc {

/// Protocol-phase taxonomy.  The first block is DynamicForest's protocol
/// phases, the second is the driver/serving layer; kNone attributes
/// rounds recorded outside any annotation.
enum class TracePhase : std::uint8_t {
  kNone = 0,         ///< no open phase ("unattributed")
  kScatterClassify,  ///< batch ingress scatter + update classification
  kKWaySplit,        ///< k-way Euler-tour split construction
  kCascade,          ///< replacement-edge cascade rounds
  kKWayJoin,         ///< fragment universe + k-way join + commit round
  kDirectory,        ///< directory replies + endpoint/cut/probe broadcasts
  kPathMax,          ///< path-max proposals + swap cut broadcasts
  /// No longer emitted (cycle-rule inserts run inside the k-way stage);
  /// kept for bench/e2e, never emitted, so it reads 0 ("wave-commit").
  kGroupCommit,
  kQueryBatch,       ///< read-only connectivity query batch
  kBatch,            ///< one driver-applied update batch
  /// No longer emitted (the cross-batch lookahead is gone); kept so the
  /// frozen end-to-end bench (bench/e2e) still compiles and reads 0.
  kPipeline,
  kRecovery,         ///< driver fault-recovery (retry/bisect)
  kEpoch,            ///< one serving-layer epoch (broker pump)
  kCompact,          ///< pending-log compaction (no rounds)
  kPhaseCount,       ///< sentinel, not a phase
  /// The pre-rename spelling of kGroupCommit, kept for bench/e2e.
  kWaveCommit = kGroupCommit,
};

inline constexpr std::size_t kTracePhaseCount =
    static_cast<std::size_t>(TracePhase::kPhaseCount);

/// Stable snake-case phase name (used in the JSON export and docs).
const char* trace_phase_name(TracePhase phase);

enum class TraceEventKind : std::uint8_t {
  kPhase,  ///< one closed phase span (emitted when the phase ends)
  kRound,  ///< one round barrier
  kTask,   ///< one machine's task window in one for_each_machine dispatch
};

enum class TraceRoundKind : std::uint8_t {
  kReal,        ///< finish_round
  /// No library code records this kind any more (overlapped rounds went
  /// with the wave pipelining); kept in the schema, which bench/e2e
  /// reads.
  kOverlapped,
  kCharged,     ///< charge_round (synthetic O(1)-round primitive)
};

/// One trace event.  Timestamps are steady-clock ns since the tracer's
/// construction.  For kPhase, `aborted` marks a span closed by stack
/// unwinding (an injected fault or cap trip mid-protocol).
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kRound;
  TracePhase phase = TracePhase::kNone;
  TraceRoundKind round_kind = TraceRoundKind::kReal;
  bool aborted = false;
  std::uint32_t machine = 0;  ///< kTask only
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t comm_words = 0;       ///< kRound only
  std::uint64_t active_machines = 0;  ///< kRound only
};

/// Always-exact per-phase aggregate.  Rounds are attributed to the
/// innermost open phase at their barrier; wall_ns charges every
/// boundary-to-boundary interval (a round's barrier, a phase edge) to
/// the phase that was innermost during it, so the wall_ns column is an
/// exact partition of the traced timeline — nested spans never
/// double-count, and compute behind the last barrier of a phase (the
/// batch-dynamic shard transform) still shows up under that phase.
struct PhaseTotals {
  std::uint64_t spans = 0;
  std::uint64_t aborted_spans = 0;
  std::uint64_t rounds = 0;             ///< finish_round barriers
  std::uint64_t overlapped_rounds = 0;  ///< always 0 (kept for bench/e2e)
  std::uint64_t charged_rounds = 0;     ///< charge_round
  std::uint64_t comm_words = 0;
  std::uint64_t wall_ns = 0;  ///< attributed share of the traced timeline
};

class Tracer {
 public:
  /// Default event capacity: enough for every round and phase of a long
  /// bench run; per-machine task windows of very large runs will
  /// truncate into dropped_events (the attribution table never does).
  static constexpr std::size_t kDefaultMaxEvents = std::size_t{1} << 18;

  explicit Tracer(std::size_t max_events = kDefaultMaxEvents);

  /// Tracing is off until enabled; the off path records nothing and
  /// allocates nothing.  Toggle only between protocol sections (open
  /// PhaseScopes capture the enabled state at construction).  Enabling
  /// moves the protocol-track boundary to now, so the time the tracer
  /// was off is charged to no phase.
  void set_enabled(bool on) {
    if (on && !enabled_) last_boundary_ns_ = now_ns();
    enabled_ = on;
  }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // ---- Phase annotations (driving thread only) --------------------------

  void begin_phase(TracePhase phase);
  void end_phase(bool aborted = false);
  [[nodiscard]] TracePhase current_phase() const {
    return depth_ == 0 ? TracePhase::kNone
                       : stack_[std::min<std::size_t>(depth_, kMaxDepth) - 1];
  }
  /// Number of phases currently open (0 in any quiescent trace).
  [[nodiscard]] std::size_t open_depth() const { return depth_; }

  // ---- Cluster-side hooks (driving thread, except record_task) ----------

  /// Records one round barrier, attributed to the innermost open phase.
  /// The span runs from the previous protocol-track boundary (last
  /// barrier or phase edge) to now, so round spans tile the protocol
  /// track and nest inside their phase.
  void record_round(TraceRoundKind kind, const RoundRecord& rec);

  /// Brackets one for_each_machine dispatch: begin resets per-machine
  /// slots, tasks stamp their own slot (concurrently, one writer per
  /// machine), flush appends one kTask event per machine in machine
  /// order at the barrier.
  void begin_dispatch(std::size_t num_machines);
  void record_task(std::size_t machine, std::uint64_t begin_ns,
                   std::uint64_t end_ns) {
    slots_[machine] = {begin_ns, end_ns};
  }
  void flush_dispatch();

  /// Steady-clock ns since this tracer's construction.
  [[nodiscard]] std::uint64_t now_ns() const;

  // ---- Results ----------------------------------------------------------

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_; }
  [[nodiscard]] const std::array<PhaseTotals, kTracePhaseCount>&
  phase_totals() const {
    return totals_;
  }
  /// Phase with the largest attributed round wall-clock (kNone when the
  /// trace saw no rounds) — the answer to "what dominates per-round".
  [[nodiscard]] TracePhase dominant_phase() const;

  /// Chrome trace-event JSON (object form): {"traceEvents": [...],
  /// "dmpc": {"phases": [...], "dropped_events": N, "open_spans": D}}.
  /// Track 0 is the protocol track; track 1+m is machine m.
  [[nodiscard]] std::string chrome_json() const;
  /// Writes chrome_json() to `path`; throws std::runtime_error on I/O
  /// failure.
  void write_chrome_json(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxDepth = 16;

  void push(const TraceEvent& ev);

  bool enabled_ = false;
  std::vector<TraceEvent> events_;  ///< reserved once, never grows
  std::size_t max_events_;
  std::uint64_t dropped_ = 0;
  // Phase stack.  depth_ may exceed kMaxDepth (deeper begins are counted
  // but attributed to the kMaxDepth-th entry) so begin/end stay paired.
  std::array<TracePhase, kMaxDepth> stack_{};
  std::array<std::uint64_t, kMaxDepth> stack_begin_ns_{};
  std::size_t depth_ = 0;
  /// Last protocol-track boundary: barrier, phase begin, or phase end.
  std::uint64_t last_boundary_ns_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> slots_;
  std::size_t dispatch_machines_ = 0;
  std::array<PhaseTotals, kTracePhaseCount> totals_{};
  std::uint64_t epoch_ns_;  ///< steady-clock origin
};

/// RAII phase annotation.  Null or disabled tracers cost one branch.
/// The destructor marks the span aborted when it closes during stack
/// unwinding (std::uncaught_exceptions grew since construction), so
/// faulted batches leave an explicit aborted span rather than a dangling
/// open one.  next() switches phases linearly — close the current span,
/// open the next — for protocol code whose phases are not
/// block-structured (run_stage_kway).
class PhaseScope {
 public:
  PhaseScope(Tracer* tracer, TracePhase phase);
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope();

  void next(TracePhase phase);
  /// Ends the span now (idempotent); the destructor becomes a no-op.
  void close();

 private:
  Tracer* tracer_;  ///< null when absent or disabled at construction
  int exceptions_at_entry_;
};

}  // namespace dmpc
