#include "dmpc/trace.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>

namespace dmpc {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* round_kind_name(TraceRoundKind kind) {
  switch (kind) {
    case TraceRoundKind::kReal: return "round";
    case TraceRoundKind::kOverlapped: return "round(overlapped)";
    case TraceRoundKind::kCharged: return "round(charged)";
  }
  return "round";
}

void append_us(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

const char* trace_phase_name(TracePhase phase) {
  switch (phase) {
    case TracePhase::kNone: return "unattributed";
    case TracePhase::kScatterClassify: return "scatter-classify";
    case TracePhase::kKWaySplit: return "kway-split";
    case TracePhase::kCascade: return "cascade";
    case TracePhase::kKWayJoin: return "kway-join";
    case TracePhase::kDirectory: return "directory";
    case TracePhase::kPathMax: return "path-max";
    case TracePhase::kGroupCommit: return "wave-commit";
    case TracePhase::kQueryBatch: return "query-batch";
    case TracePhase::kBatch: return "batch";
    case TracePhase::kPipeline: return "pipeline";
    case TracePhase::kRecovery: return "recovery";
    case TracePhase::kEpoch: return "epoch";
    case TracePhase::kPhaseCount: break;
  }
  return "unattributed";
}

Tracer::Tracer(std::size_t max_events)
    : max_events_(max_events), epoch_ns_(steady_ns()) {
  events_.reserve(max_events_);
}

std::uint64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

void Tracer::push(const TraceEvent& ev) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(ev);
}

void Tracer::begin_phase(TracePhase phase) {
  if (!enabled_) return;
  const std::uint64_t now = now_ns();
  // Compute since the last boundary ran under the enclosing phase (or
  // unattributed); charging it here makes wall_ns an exact partition of
  // the traced timeline even for work done between barriers.
  totals_[static_cast<std::size_t>(current_phase())].wall_ns +=
      now - last_boundary_ns_;
  if (depth_ < kMaxDepth) {
    stack_[depth_] = phase;
    stack_begin_ns_[depth_] = now;
  }
  ++depth_;
  last_boundary_ns_ = now;
}

void Tracer::end_phase(bool aborted) {
  if (!enabled_ || depth_ == 0) return;
  // Tail compute after the phase's last barrier belongs to it (the
  // batch-dynamic shard transform runs behind the commit barrier, so
  // without this it would vanish from the attribution table).
  totals_[static_cast<std::size_t>(current_phase())].wall_ns +=
      now_ns() - last_boundary_ns_;
  --depth_;
  const std::uint64_t now = now_ns();
  last_boundary_ns_ = now;
  if (depth_ >= kMaxDepth) return;  // deeper-than-stack begins: counted only
  const TracePhase phase = stack_[depth_];
  PhaseTotals& t = totals_[static_cast<std::size_t>(phase)];
  ++t.spans;
  if (aborted) ++t.aborted_spans;
  TraceEvent ev;
  ev.kind = TraceEventKind::kPhase;
  ev.phase = phase;
  ev.aborted = aborted;
  ev.begin_ns = stack_begin_ns_[depth_];
  ev.end_ns = now;
  push(ev);
}

void Tracer::record_round(TraceRoundKind kind, const RoundRecord& rec) {
  if (!enabled_) return;
  const std::uint64_t now = now_ns();
  TraceEvent ev;
  ev.kind = TraceEventKind::kRound;
  ev.phase = current_phase();
  ev.round_kind = kind;
  // Charged rounds are synthetic (their wall time belongs to the real
  // round that surrounds them): zero-width, and they do not advance the
  // boundary.  Real rounds run from the last protocol-track boundary, so
  // they tile the track and stay nested inside the phase that owns them.
  if (kind == TraceRoundKind::kCharged) {
    ev.begin_ns = now;
  } else {
    ev.begin_ns = last_boundary_ns_;
    last_boundary_ns_ = now;
  }
  ev.end_ns = now;
  ev.comm_words = rec.comm_words;
  ev.active_machines = rec.active_machines;
  push(ev);
  PhaseTotals& t = totals_[static_cast<std::size_t>(ev.phase)];
  switch (kind) {
    case TraceRoundKind::kReal: ++t.rounds; break;
    case TraceRoundKind::kOverlapped: ++t.overlapped_rounds; break;
    case TraceRoundKind::kCharged: ++t.charged_rounds; break;
  }
  t.comm_words += rec.comm_words;
  t.wall_ns += ev.end_ns - ev.begin_ns;
}

void Tracer::begin_dispatch(std::size_t num_machines) {
  if (slots_.size() < num_machines) slots_.resize(num_machines);
  for (std::size_t m = 0; m < num_machines; ++m) slots_[m] = {0, 0};
  dispatch_machines_ = num_machines;
}

void Tracer::flush_dispatch() {
  const TracePhase phase = current_phase();
  for (std::size_t m = 0; m < dispatch_machines_; ++m) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kTask;
    ev.phase = phase;
    ev.machine = static_cast<std::uint32_t>(m);
    ev.begin_ns = slots_[m].first;
    ev.end_ns = slots_[m].second;
    push(ev);
  }
  dispatch_machines_ = 0;
}

TracePhase Tracer::dominant_phase() const {
  TracePhase best = TracePhase::kNone;
  std::uint64_t best_wall = 0;
  bool any = false;
  for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
    const PhaseTotals& t = totals_[p];
    if (t.rounds + t.overlapped_rounds + t.charged_rounds == 0) continue;
    if (!any || t.wall_ns > best_wall) {
      any = true;
      best_wall = t.wall_ns;
      best = static_cast<TracePhase>(p);
    }
  }
  return best;
}

std::string Tracer::chrome_json() const {
  std::string out;
  out.reserve(events_.size() * 96 + 4096);
  out += "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ',';
    first = false;
  };
  // Track names: the protocol track plus every machine track that
  // actually carries an event.
  comma();
  out += "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"protocol\"}}";
  std::uint32_t max_machine = 0;
  bool any_task = false;
  for (const TraceEvent& ev : events_) {
    if (ev.kind != TraceEventKind::kTask) continue;
    any_task = true;
    max_machine = std::max(max_machine, ev.machine);
  }
  if (any_task) {
    for (std::uint32_t m = 0; m <= max_machine; ++m) {
      comma();
      out += "{\"ph\":\"M\",\"pid\":0,\"tid\":";
      append_u64(out, m + 1);
      out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"machine ";
      append_u64(out, m);
      out += "\"}}";
    }
  }
  for (const TraceEvent& ev : events_) {
    comma();
    out += "{\"ph\":\"X\",\"pid\":0,\"tid\":";
    append_u64(out,
               ev.kind == TraceEventKind::kTask ? ev.machine + 1 : 0);
    out += ",\"ts\":";
    append_us(out, ev.begin_ns);
    out += ",\"dur\":";
    append_us(out, ev.end_ns - ev.begin_ns);
    out += ",\"name\":\"";
    switch (ev.kind) {
      case TraceEventKind::kPhase:
        out += trace_phase_name(ev.phase);
        break;
      case TraceEventKind::kRound:
        out += round_kind_name(ev.round_kind);
        break;
      case TraceEventKind::kTask:
        out += "task";
        break;
    }
    out += "\",\"args\":{\"phase\":\"";
    out += trace_phase_name(ev.phase);
    out += '"';
    if (ev.kind == TraceEventKind::kRound) {
      out += ",\"comm_words\":";
      append_u64(out, ev.comm_words);
      out += ",\"active_machines\":";
      append_u64(out, ev.active_machines);
    }
    if (ev.kind == TraceEventKind::kPhase && ev.aborted) {
      out += ",\"aborted\":true";
    }
    out += "}}";
  }
  out += "],\"dmpc\":{\"phases\":[";
  first = true;
  for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
    const PhaseTotals& t = totals_[p];
    if (t.spans == 0 &&
        t.rounds + t.overlapped_rounds + t.charged_rounds == 0) {
      continue;
    }
    comma();
    out += "{\"phase\":\"";
    out += trace_phase_name(static_cast<TracePhase>(p));
    out += "\",\"spans\":";
    append_u64(out, t.spans);
    out += ",\"aborted_spans\":";
    append_u64(out, t.aborted_spans);
    out += ",\"rounds\":";
    append_u64(out, t.rounds);
    out += ",\"overlapped_rounds\":";
    append_u64(out, t.overlapped_rounds);
    out += ",\"charged_rounds\":";
    append_u64(out, t.charged_rounds);
    out += ",\"comm_words\":";
    append_u64(out, t.comm_words);
    out += ",\"wall_ns\":";
    append_u64(out, t.wall_ns);
    out += '}';
  }
  out += "],\"dropped_events\":";
  append_u64(out, dropped_);
  out += ",\"open_spans\":";
  append_u64(out, depth_);
  out += "}}";
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::string json = chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("Tracer: cannot open trace file " + path);
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok) {
    throw std::runtime_error("Tracer: short write to trace file " + path);
  }
}

PhaseScope::PhaseScope(Tracer* tracer, TracePhase phase)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      exceptions_at_entry_(std::uncaught_exceptions()) {
  if (tracer_ != nullptr) tracer_->begin_phase(phase);
}

void PhaseScope::next(TracePhase phase) {
  if (tracer_ == nullptr) return;
  tracer_->end_phase(false);
  tracer_->begin_phase(phase);
}

void PhaseScope::close() {
  if (tracer_ == nullptr) return;
  tracer_->end_phase(false);
  tracer_ = nullptr;
}

PhaseScope::~PhaseScope() {
  if (tracer_ != nullptr) {
    tracer_->end_phase(std::uncaught_exceptions() > exceptions_at_entry_);
  }
}

}  // namespace dmpc
