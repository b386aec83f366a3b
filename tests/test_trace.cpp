// Tests for the round-level tracing facility (dmpc::Tracer, see
// docs/OBSERVABILITY.md):
//
//  * tracer unit behavior: phase stack discipline, PhaseScope next()/
//    close()/unwind semantics, round attribution to the innermost open
//    phase, and the exact wall-clock partition of the phase totals;
//  * the off-by-default overhead contract: a disabled (or absent)
//    tracer records nothing and performs ZERO allocations on the hooks
//    the protocol hot path calls, and an enabled tracer's event buffer
//    never grows past its preallocated capacity (drops are counted);
//  * executor independence: the event sequence of a traced batched run
//    is identical under SerialExecutor and ThreadPoolExecutor modulo
//    timestamps — same kinds, phases, machines, comm words, order;
//  * aborted batches (fault injection): every span an unwinding
//    exception closes is marked aborted and no span stays open;
//  * the Chrome trace-event JSON export: syntactically valid JSON,
//    phase spans properly nested, every span closed in a quiescent
//    trace.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dyn_forest.hpp"
#include "dmpc/cluster.hpp"
#include "dmpc/executor.hpp"
#include "dmpc/fault.hpp"
#include "dmpc/trace.hpp"
#include "graph/graph.hpp"
#include "graph/update_stream.hpp"
#include "harness/driver.hpp"

namespace {

using core::DynamicForest;
using dmpc::PhaseScope;
using dmpc::PhaseTotals;
using dmpc::RoundRecord;
using dmpc::TraceEvent;
using dmpc::TraceEventKind;
using dmpc::TracePhase;
using dmpc::Tracer;
using dmpc::TraceRoundKind;
using graph::Update;

// Global allocation counter for the zero-allocation contract.  The
// replacement operators serve the whole test binary (pool workers
// included, hence atomic); tests sample the counter immediately around
// the calls under scrutiny.
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's buffer comes from one), so
// every block this binary's deletes free() came from malloc().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

// Kept out of line: inlined at a delete site, their free() would meet a
// pointer GCC knows came from operator new and warn
// (-Wmismatched-new-delete), though this new hands out malloc() memory.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

RoundRecord make_round(std::uint64_t machines, std::uint64_t words) {
  RoundRecord rec;
  rec.active_machines = machines;
  rec.comm_words = words;
  return rec;
}

// ---------------------------------------------------------------------------
// Tracer unit behavior
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledByDefaultAndRecordsNothing) {
  Tracer tracer(64);
  EXPECT_FALSE(tracer.enabled());
  tracer.begin_phase(TracePhase::kBatch);
  tracer.record_round(TraceRoundKind::kReal, make_round(4, 100));
  tracer.end_phase();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.open_depth(), 0u);
  EXPECT_EQ(tracer.dominant_phase(), TracePhase::kNone);
}

TEST(Tracer, RoundsAttributeToInnermostPhase) {
  Tracer tracer(64);
  tracer.set_enabled(true);
  tracer.begin_phase(TracePhase::kBatch);
  tracer.record_round(TraceRoundKind::kReal, make_round(2, 10));
  tracer.begin_phase(TracePhase::kCascade);
  tracer.record_round(TraceRoundKind::kReal, make_round(8, 300));
  tracer.record_round(TraceRoundKind::kOverlapped, make_round(8, 40));
  tracer.end_phase();
  tracer.record_round(TraceRoundKind::kCharged, make_round(1, 5));
  tracer.end_phase();
  EXPECT_EQ(tracer.open_depth(), 0u);

  const auto& totals = tracer.phase_totals();
  const PhaseTotals& batch =
      totals[static_cast<std::size_t>(TracePhase::kBatch)];
  const PhaseTotals& cascade =
      totals[static_cast<std::size_t>(TracePhase::kCascade)];
  EXPECT_EQ(batch.spans, 1u);
  EXPECT_EQ(batch.rounds, 1u);
  EXPECT_EQ(batch.charged_rounds, 1u);
  EXPECT_EQ(batch.comm_words, 15u);
  EXPECT_EQ(cascade.spans, 1u);
  EXPECT_EQ(cascade.rounds, 1u);
  EXPECT_EQ(cascade.overlapped_rounds, 1u);
  EXPECT_EQ(cascade.comm_words, 340u);
  // Cascade saw the most comm and at least as much wall as any other
  // phase with rounds; with real timestamps the dominant phase must be
  // one of the two phases that actually carried rounds.
  const TracePhase dom = tracer.dominant_phase();
  EXPECT_TRUE(dom == TracePhase::kCascade || dom == TracePhase::kBatch);
}

TEST(Tracer, WallNsPartitionsTheTimeline) {
  Tracer tracer(64);
  tracer.set_enabled(true);
  tracer.begin_phase(TracePhase::kBatch);
  tracer.record_round(TraceRoundKind::kReal, make_round(1, 1));
  tracer.begin_phase(TracePhase::kKWaySplit);
  tracer.record_round(TraceRoundKind::kReal, make_round(1, 1));
  tracer.end_phase();
  tracer.end_phase();
  const std::uint64_t end = tracer.now_ns();

  std::uint64_t attributed = 0;
  for (const PhaseTotals& t : tracer.phase_totals()) attributed += t.wall_ns;
  // Every boundary-to-boundary interval is charged to exactly one
  // phase, so the sum of the attributed wall time can never exceed the
  // tracer's lifetime so far.
  EXPECT_LE(attributed, end);
  EXPECT_GT(attributed, 0u);
}

TEST(Tracer, DisabledGapIsChargedToNoPhase) {
  Tracer tracer(64);
  tracer.set_enabled(true);
  tracer.begin_phase(TracePhase::kBatch);
  tracer.end_phase();
  tracer.set_enabled(false);
  // Work the tracer does not see (set-up, an untraced read slice).
  constexpr std::uint64_t kSpinNs = 20'000'000;
  const std::uint64_t spin_from = tracer.now_ns();
  while (tracer.now_ns() - spin_from < kSpinNs) {
  }
  tracer.set_enabled(true);
  tracer.begin_phase(TracePhase::kBatch);
  tracer.end_phase();
  const PhaseTotals& unattributed =
      tracer.phase_totals()[static_cast<std::size_t>(TracePhase::kNone)];
  EXPECT_LT(unattributed.wall_ns, kSpinNs);
}

TEST(Tracer, PhaseScopeNextSwitchesLinearly) {
  Tracer tracer(64);
  tracer.set_enabled(true);
  {
    PhaseScope scope(&tracer, TracePhase::kScatterClassify);
    EXPECT_EQ(tracer.current_phase(), TracePhase::kScatterClassify);
    scope.next(TracePhase::kKWaySplit);
    EXPECT_EQ(tracer.current_phase(), TracePhase::kKWaySplit);
    scope.next(TracePhase::kKWayJoin);
    EXPECT_EQ(tracer.current_phase(), TracePhase::kKWayJoin);
  }
  EXPECT_EQ(tracer.open_depth(), 0u);
  std::size_t phase_spans = 0;
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.kind == TraceEventKind::kPhase) ++phase_spans;
  }
  EXPECT_EQ(phase_spans, 3u);
}

TEST(Tracer, PhaseScopeCloseIsIdempotent) {
  Tracer tracer(64);
  tracer.set_enabled(true);
  {
    PhaseScope scope(&tracer, TracePhase::kEpoch);
    scope.close();
    EXPECT_EQ(tracer.open_depth(), 0u);
    scope.close();  // second close is a no-op
  }                  // destructor is a no-op too
  EXPECT_EQ(tracer.open_depth(), 0u);
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_FALSE(tracer.events()[0].aborted);
}

TEST(Tracer, PhaseScopeMarksUnwoundSpansAborted) {
  Tracer tracer(64);
  tracer.set_enabled(true);
  try {
    PhaseScope outer(&tracer, TracePhase::kBatch);
    PhaseScope inner(&tracer, TracePhase::kCascade);
    throw std::runtime_error("mid-protocol fault");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(tracer.open_depth(), 0u);
  ASSERT_EQ(tracer.events().size(), 2u);
  // Inner closes first (stack order); both closed by unwinding.
  EXPECT_EQ(tracer.events()[0].phase, TracePhase::kCascade);
  EXPECT_TRUE(tracer.events()[0].aborted);
  EXPECT_EQ(tracer.events()[1].phase, TracePhase::kBatch);
  EXPECT_TRUE(tracer.events()[1].aborted);
  const auto& totals = tracer.phase_totals();
  EXPECT_EQ(
      totals[static_cast<std::size_t>(TracePhase::kBatch)].aborted_spans, 1u);
  EXPECT_EQ(
      totals[static_cast<std::size_t>(TracePhase::kCascade)].aborted_spans,
      1u);
}

// ---------------------------------------------------------------------------
// The overhead contract: zero allocations off, bounded allocations on
// ---------------------------------------------------------------------------

TEST(TracerOverhead, DisabledHooksAllocateNothing) {
  Tracer tracer;  // construction reserves the event buffer once
  ASSERT_FALSE(tracer.enabled());
  const RoundRecord rec = make_round(16, 512);
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 10000; ++i) {
    tracer.begin_phase(TracePhase::kBatch);
    tracer.record_round(TraceRoundKind::kReal, rec);
    tracer.end_phase();
    PhaseScope scope(&tracer, TracePhase::kCascade);
    scope.next(TracePhase::kKWayJoin);
  }
  EXPECT_EQ(g_allocations.load(), before);
  // The null-tracer path PhaseScope takes in uninstrumented code.
  {
    const std::size_t null_before = g_allocations.load();
    PhaseScope scope(nullptr, TracePhase::kBatch);
    EXPECT_EQ(g_allocations.load(), null_before);
  }
}

TEST(TracerOverhead, EnabledBufferNeverGrowsPastCapacity) {
  constexpr std::size_t kCap = 32;
  Tracer tracer(kCap);
  tracer.set_enabled(true);
  const std::size_t reserved = tracer.events().capacity();
  const RoundRecord rec = make_round(4, 64);
  tracer.begin_phase(TracePhase::kBatch);
  for (std::size_t i = 0; i < 4 * kCap; ++i) {
    tracer.record_round(TraceRoundKind::kReal, rec);
  }
  tracer.end_phase();
  EXPECT_EQ(tracer.events().capacity(), reserved);
  EXPECT_EQ(tracer.events().size(), kCap);
  EXPECT_EQ(tracer.dropped_events(), 4 * kCap + 1 - kCap);
  // The attribution table keeps exact counts through the truncation.
  EXPECT_EQ(tracer.phase_totals()[static_cast<std::size_t>(TracePhase::kBatch)]
                .rounds,
            4 * kCap);
}

TEST(TracerOverhead, TracedBatchPathAllocatesNothingWhenDisabled) {
  // The end-to-end version of the contract: a forest with a tracer
  // INSTALLED but disabled must take the exact zero-extra-work path.
  // Allocation-freedom of the whole steady-state update path is the
  // round-buffer arena's contract, not this test's; here we assert the
  // tracer adds no allocations to whatever the protocol itself does.
  constexpr std::size_t kN = 256;
  const auto stream = graph::interleaved_delete_stream(kN, 256, 8, 2, 5);
  graph::DynamicGraph shadow(kN);
  std::vector<Update> warmup;
  std::vector<Update> measured;
  for (const Update& up : stream) {
    if (!graph::apply_update(shadow, up)) continue;
    if (warmup.size() < 16) {
      warmup.push_back(up);
    } else if (measured.size() < 16) {
      measured.push_back(up);
    }
  }

  const auto run_once = [&](bool install) {
    DynamicForest forest({.n = kN, .m_cap = 4 * kN});
    if (install) {
      forest.cluster().set_tracer(std::make_shared<Tracer>(64));
    }
    forest.preprocess(graph::EdgeList{});
    forest.apply_batch(std::span<const Update>(warmup));
    const std::size_t before = g_allocations.load();
    forest.apply_batch(std::span<const Update>(measured));
    return g_allocations.load() - before;
  };
  const std::size_t without = run_once(false);
  const std::size_t with = run_once(true);
  EXPECT_EQ(with, without);
}

// ---------------------------------------------------------------------------
// Executor independence and end-to-end span structure
// ---------------------------------------------------------------------------

struct TracedRun {
  std::vector<TraceEvent> events;
  std::array<PhaseTotals, dmpc::kTracePhaseCount> totals;
  std::uint64_t dropped = 0;
  std::string json;
};

TracedRun traced_run(const std::shared_ptr<dmpc::RoundExecutor>& exec) {
  constexpr std::size_t kN = 512;
  TracedRun out;
  DynamicForest forest({.n = kN, .m_cap = 4 * kN});
  forest.cluster().set_executor(exec);
  forest.preprocess(graph::cycle(kN));
  const auto tracer = std::make_shared<Tracer>();
  forest.cluster().set_tracer(tracer);
  tracer->set_enabled(true);

  const auto stream =
      graph::bridge_adversary_stream(kN, 2 * kN + 128, kN / 4, 7);
  graph::DynamicGraph shadow(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    graph::apply_update(shadow,
                        {graph::UpdateKind::kInsert,
                         static_cast<graph::VertexId>(i),
                         static_cast<graph::VertexId>((i + 1) % kN)});
  }
  std::vector<Update> batch;
  for (const Update& up : stream) {
    if (!graph::apply_update(shadow, up)) continue;
    batch.push_back(up);
    if (batch.size() == 16) {
      forest.apply_batch(std::span<const Update>(batch));
      batch.clear();
    }
  }
  // The adversary's bridges are all non-tree against the preprocessed
  // cycle, so force the k-way sections explicitly: one batch of spaced
  // tree-edge deletes (k-way split + replacement cascade + join) and one
  // batch re-inserting them (merges or non-tree records, either way a
  // k-way stage).
  std::vector<Update> dels, reins;
  for (std::size_t k = 0; k < 16; ++k) {
    const auto u = static_cast<graph::VertexId>(k * 32);
    const auto v = static_cast<graph::VertexId>(k * 32 + 1);
    const Update d{graph::UpdateKind::kDelete, u, v};
    if (!graph::apply_update(shadow, d)) continue;
    dels.push_back(d);
    reins.push_back({graph::UpdateKind::kInsert, u, v});
  }
  forest.apply_batch(std::span<const Update>(dels));
  for (const Update& up : reins) graph::apply_update(shadow, up);
  forest.apply_batch(std::span<const Update>(reins));

  // A read-only query batch rides the same trace.
  const core::ReadQuery q{core::QueryKind::kConnected, 0, kN / 2};
  forest.answer_queries(std::span<const core::ReadQuery>(&q, 1));

  tracer->set_enabled(false);
  out.events = tracer->events();
  out.totals = tracer->phase_totals();
  out.dropped = tracer->dropped_events();
  out.json = tracer->chrome_json();
  return out;
}

// Everything about an event except its timestamps.
bool same_shape(const TraceEvent& a, const TraceEvent& b) {
  return a.kind == b.kind && a.phase == b.phase &&
         a.round_kind == b.round_kind && a.aborted == b.aborted &&
         a.machine == b.machine && a.comm_words == b.comm_words &&
         a.active_machines == b.active_machines;
}

TEST(TracerExecutors, SpanStructureIdenticalSerialVsPool) {
  const TracedRun serial =
      traced_run(std::make_shared<dmpc::SerialExecutor>());
  const TracedRun pooled =
      traced_run(std::make_shared<dmpc::ThreadPoolExecutor>(4));
  ASSERT_EQ(serial.events.size(), pooled.events.size());
  for (std::size_t i = 0; i < serial.events.size(); ++i) {
    ASSERT_TRUE(same_shape(serial.events[i], pooled.events[i]))
        << "event " << i << " diverged under the pool";
  }
  EXPECT_EQ(serial.dropped, pooled.dropped);
  for (std::size_t p = 0; p < dmpc::kTracePhaseCount; ++p) {
    EXPECT_EQ(serial.totals[p].spans, pooled.totals[p].spans);
    EXPECT_EQ(serial.totals[p].aborted_spans, pooled.totals[p].aborted_spans);
    EXPECT_EQ(serial.totals[p].rounds, pooled.totals[p].rounds);
    EXPECT_EQ(serial.totals[p].charged_rounds,
              pooled.totals[p].charged_rounds);
    EXPECT_EQ(serial.totals[p].comm_words, pooled.totals[p].comm_words);
    EXPECT_EQ(serial.totals[p].overlapped_rounds, 0u);
  }
}

TEST(TracerExecutors, BatchDynamicRunCoversTheProtocolPhases) {
  const TracedRun run = traced_run(std::make_shared<dmpc::SerialExecutor>());
  const auto spans_of = [&](TracePhase p) {
    return run.totals[static_cast<std::size_t>(p)].spans;
  };
  // The delete-heavy adversary forces every protocol section: classify,
  // k-way split, replacement cascade, k-way join, and the query batch.
  EXPECT_GT(spans_of(TracePhase::kScatterClassify), 0u);
  EXPECT_GT(spans_of(TracePhase::kKWaySplit), 0u);
  EXPECT_GT(spans_of(TracePhase::kCascade), 0u);
  EXPECT_GT(spans_of(TracePhase::kKWayJoin), 0u);
  EXPECT_GT(spans_of(TracePhase::kQueryBatch), 0u);
  // No phase is left open, and rounds were attributed (not all
  // unattributed).
  std::uint64_t attributed_rounds = 0;
  for (std::size_t p = 1; p < dmpc::kTracePhaseCount; ++p) {
    attributed_rounds += run.totals[p].rounds + run.totals[p].charged_rounds;
  }
  EXPECT_GT(attributed_rounds, 0u);
}

// A batch_size = 1 Driver applies every update through insert/erase, a
// one-update k-way stage, so each of its rounds lands in a named
// protocol phase: the driver's `batch` span and the unattributed bucket
// own none, on the connectivity and the MST variant alike.
TEST(TracerPhases, OneUpdateBatchesAttributeEveryRound) {
  constexpr std::size_t kN = 64;
  for (const bool weighted : {false, true}) {
    DynamicForest forest({.n = kN, .m_cap = 4 * kN, .weighted = weighted});
    forest.preprocess(graph::WeightedEdgeList{});
    const auto tracer = std::make_shared<Tracer>();
    forest.cluster().set_tracer(tracer);
    harness::Driver driver(
        kN, {.batch_size = 1, .checkpoint_every = 0, .weighted = weighted});
    driver.add("forest", forest);
    driver.set_tracer(tracer);
    tracer->set_enabled(true);
    driver.run(weighted
                   ? graph::weighted_interleaved_delete_stream(kN, 400, 6,
                                                               2, 98)
                   : graph::interleaved_delete_stream(kN, 400, 6, 2, 98));
    tracer->set_enabled(false);

    const auto& totals = tracer->phase_totals();
    const auto rounds_of = [&](TracePhase p) {
      const PhaseTotals& t = totals[static_cast<std::size_t>(p)];
      return t.rounds + t.overlapped_rounds + t.charged_rounds;
    };
    std::uint64_t all_rounds = 0;
    for (std::size_t p = 0; p < dmpc::kTracePhaseCount; ++p) {
      all_rounds += rounds_of(static_cast<TracePhase>(p));
    }
    EXPECT_EQ(all_rounds, forest.cluster().metrics().aggregate().total_rounds)
        << "weighted " << weighted;
    EXPECT_GT(rounds_of(TracePhase::kCascade), 0u) << "weighted " << weighted;
    EXPECT_EQ(rounds_of(TracePhase::kBatch), 0u) << "weighted " << weighted;
    EXPECT_EQ(rounds_of(TracePhase::kNone), 0u) << "weighted " << weighted;
    EXPECT_EQ(tracer->open_depth(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Aborted batches close their spans
// ---------------------------------------------------------------------------

TEST(TracerFaults, InjectedFaultClosesSpansAsAborted) {
  constexpr std::size_t kN = 256;
  DynamicForest forest({.n = kN, .m_cap = 4 * kN});
  forest.preprocess(graph::cycle(kN));
  const auto tracer = std::make_shared<Tracer>();
  forest.cluster().set_tracer(tracer);
  const auto faults = std::make_shared<dmpc::FaultInjector>();
  forest.cluster().set_fault_injector(faults);

  // A batch that deletes tree edges (forcing the full protocol), with a
  // fault armed at its second round barrier.
  std::vector<Update> batch;
  for (graph::VertexId v = 0; v < 8; ++v) {
    batch.push_back({graph::UpdateKind::kDelete, v, v + 1});
  }
  tracer->set_enabled(true);
  faults->fail_at_round(1, dmpc::FaultKind::kComm);
  EXPECT_THROW(forest.apply_batch(std::span<const Update>(batch)),
               dmpc::CommOverflowError);
  tracer->set_enabled(false);

  EXPECT_EQ(tracer->open_depth(), 0u) << "a span was left open by the abort";
  std::uint64_t aborted = 0;
  for (const TraceEvent& ev : tracer->events()) {
    if (ev.kind == TraceEventKind::kPhase && ev.aborted) ++aborted;
  }
  EXPECT_GT(aborted, 0u);
  // The retried batch (journal rolled the forest back) completes and
  // closes its spans cleanly on the same trace.
  faults->disarm();
  tracer->set_enabled(true);
  forest.apply_batch(std::span<const Update>(batch));
  tracer->set_enabled(false);
  EXPECT_EQ(tracer->open_depth(), 0u);
}

TEST(TracerFaults, DriverRecoverySpansCloseAndMarkAborts) {
  constexpr std::size_t kN = 256;
  DynamicForest forest({.n = kN, .m_cap = 4 * kN});
  forest.preprocess(graph::EdgeList{});
  const auto tracer = std::make_shared<Tracer>();
  forest.cluster().set_tracer(tracer);
  const auto faults = std::make_shared<dmpc::FaultInjector>();
  forest.cluster().set_fault_injector(faults);

  harness::Driver driver(kN, {.batch_size = 16, .checkpoint_every = 0});
  driver.add("forest", forest);
  driver.set_tracer(tracer);
  tracer->set_enabled(true);
  faults->fail_at_round(40, dmpc::FaultKind::kComm);
  driver.run(graph::interleaved_delete_stream(kN, 400, 8, 2, 9));
  tracer->set_enabled(false);

  EXPECT_EQ(tracer->open_depth(), 0u);
  const auto& totals = tracer->phase_totals();
  // The driver retried the failed batch: a recovery span exists and
  // closed cleanly, while the protocol phase the fault unwound through
  // carries the aborted mark.
  EXPECT_GT(totals[static_cast<std::size_t>(TracePhase::kRecovery)].spans,
            0u);
  EXPECT_GT(totals[static_cast<std::size_t>(TracePhase::kBatch)].spans, 0u);
  std::uint64_t aborted = 0;
  for (const PhaseTotals& t : totals) aborted += t.aborted_spans;
  EXPECT_GT(aborted, 0u);
  EXPECT_GT(driver.report().find("forest")->recovery.aborts, 0u);
}

// ---------------------------------------------------------------------------
// Chrome JSON export: valid syntax, proper nesting
// ---------------------------------------------------------------------------

// Minimal JSON syntax walk: brackets balanced outside strings, strings
// closed, no trailing garbage.  (Full parsing and the dmpc-section
// semantics are covered by scripts/test_trace_report.py; this guards
// the hand-rolled emitter at the C++ level.)
bool json_syntax_ok(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty() && !s.empty() && s.front() == '{' &&
         s.back() == '}';
}

TEST(TracerJson, ExportIsValidAndSpansNest) {
  const TracedRun run = traced_run(std::make_shared<dmpc::SerialExecutor>());
  EXPECT_TRUE(json_syntax_ok(run.json));
  EXPECT_NE(run.json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(run.json.find("\"dmpc\""), std::string::npos);
  EXPECT_NE(run.json.find("\"open_spans\":0"), std::string::npos);

  // Phase spans on the protocol track obey stack discipline: any two
  // either nest or are disjoint (never partially overlap).
  std::vector<const TraceEvent*> phases;
  for (const TraceEvent& ev : run.events) {
    if (ev.kind == TraceEventKind::kPhase) phases.push_back(&ev);
  }
  ASSERT_FALSE(phases.empty());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    for (std::size_t j = i + 1; j < phases.size(); ++j) {
      const TraceEvent& a = *phases[i];
      const TraceEvent& b = *phases[j];
      const bool disjoint = a.end_ns <= b.begin_ns || b.end_ns <= a.begin_ns;
      const bool a_in_b = b.begin_ns <= a.begin_ns && a.end_ns <= b.end_ns;
      const bool b_in_a = a.begin_ns <= b.begin_ns && b.end_ns <= a.end_ns;
      ASSERT_TRUE(disjoint || a_in_b || b_in_a)
          << "phase spans " << i << " and " << j << " partially overlap";
    }
  }
  // Every round event nests inside the phase that owns it — rounds tile
  // the protocol track between phase boundaries, so their timestamps
  // stay within the enclosing span's.
  for (const TraceEvent& ev : run.events) {
    if (ev.kind != TraceEventKind::kRound ||
        ev.phase == TracePhase::kNone) {
      continue;
    }
    bool contained = false;
    for (const TraceEvent* ph : phases) {
      if (ph->phase == ev.phase && ph->begin_ns <= ev.begin_ns &&
          ev.end_ns <= ph->end_ns) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "a round escaped its phase span";
  }
}

TEST(TracerJson, WriteChromeJsonRoundTrips) {
  Tracer tracer(64);
  tracer.set_enabled(true);
  {
    PhaseScope scope(&tracer, TracePhase::kEpoch);
    tracer.record_round(TraceRoundKind::kReal, make_round(3, 30));
  }
  const std::string path =
      ::testing::TempDir() + "/trace_roundtrip.json";
  tracer.write_chrome_json(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string read_back;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    read_back.append(buf, got);
  }
  std::fclose(f);
  EXPECT_EQ(read_back, tracer.chrome_json());
  EXPECT_THROW(tracer.write_chrome_json("/nonexistent-dir/x/trace.json"),
               std::runtime_error);
}

}  // namespace
