#!/usr/bin/env python3
"""Phase-attribution report for dmpc::Tracer Chrome-trace JSON.

The tracer (src/dmpc/trace.hpp) writes Chrome trace-event JSON with a
repo-specific "dmpc" section carrying the always-exact per-phase
attribution table:

  {"traceEvents": [...],
   "dmpc": {"phases": [{"phase": "cascade", "spans": N,
                        "aborted_spans": N, "rounds": N,
                        "overlapped_rounds": N, "charged_rounds": N,
                        "comm_words": N, "wall_ns": N}, ...],
            "dropped_events": N, "open_spans": D}}

Default mode renders that table — one row per phase, sorted by
attributed wall-clock, with each phase's share of rounds, comm words,
and wall time — and names the dominant per-round phase (largest wall_ns
among phases that recorded rounds), answering "what dominates
per-round" with numbers.

--check mode validates a captured trace for CI (the bench job runs it
over the bench_serving and bench_table1 --trace artifacts): the file
must be valid JSON with a "dmpc" section, every span must be closed
(open_spans == 0), the phase table must be non-empty, and the catch-all
phases — the driver's "batch" span and "unattributed" — may own at most
1% of the trace's rounds, so every round is charged to a named protocol
phase.  Exit 1 with a reason on failure.

Usage:
  trace_report.py TRACE.json            # print the attribution table
  trace_report.py --check TRACE.json    # CI validation, exit code only
"""

import argparse
import json
import sys

# Driver/serving phases annotate whole batches and never own a round
# barrier directly, so they are excluded from the dominant-PER-ROUND
# phase (mirrors Tracer::dominant_phase, which only considers phases
# with recorded rounds).
COLUMNS = ("spans", "aborted_spans", "rounds", "overlapped_rounds",
           "charged_rounds", "comm_words", "wall_ns")

# Phases that name no protocol step: rounds charged there are
# unexplained, so --check caps their share of a trace's rounds.
CATCH_ALL_PHASES = ("batch", "unattributed")
MAX_CATCH_ALL_SHARE = 0.01


class TraceError(Exception):
    """A trace file failed validation."""


def load_trace(path):
    """Parses `path` and returns its "dmpc" section.

    Raises TraceError when the file is unreadable, not valid JSON, or
    missing the dmpc section.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise TraceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dmpc" not in doc:
        raise TraceError(f"{path} has no \"dmpc\" section "
                         "(not a dmpc::Tracer export?)")
    dmpc = doc["dmpc"]
    if not isinstance(dmpc.get("phases"), list):
        raise TraceError(f"{path}: \"dmpc\" section has no phase table")
    for row in dmpc["phases"]:
        if not isinstance(row, dict) or "phase" not in row:
            raise TraceError(f"{path}: malformed phase row: {row!r}")
        for col in COLUMNS:
            if not isinstance(row.get(col, 0), int):
                raise TraceError(
                    f"{path}: phase {row.get('phase')!r} has a "
                    f"non-integer {col!r}")
    return dmpc


def check(dmpc, path):
    """CI validation; raises TraceError on any failure."""
    if dmpc.get("open_spans", 0) != 0:
        raise TraceError(
            f"{path}: {dmpc['open_spans']} span(s) left open — the "
            "traced run did not unwind cleanly")
    if not dmpc["phases"]:
        raise TraceError(f"{path}: phase table is empty — nothing was "
                         "traced (tracer never enabled?)")
    rounds = sum(total_rounds(r) for r in dmpc["phases"])
    catch_all = sum(total_rounds(r) for r in dmpc["phases"]
                    if r["phase"] in CATCH_ALL_PHASES)
    if rounds and catch_all > MAX_CATCH_ALL_SHARE * rounds:
        raise TraceError(
            f"{path}: {100.0 * catch_all / rounds:.1f}% of rounds are "
            f"charged to {'/'.join(CATCH_ALL_PHASES)} (limit "
            f"{100.0 * MAX_CATCH_ALL_SHARE:g}%) — open a named phase "
            "around the protocol that runs them")


def total_rounds(row):
    return (row.get("rounds", 0) + row.get("overlapped_rounds", 0) +
            row.get("charged_rounds", 0))


def dominant_phase(phases):
    """Phase name with the largest wall_ns among round-owning phases.

    Returns None for a trace with no rounds (mirrors
    Tracer::dominant_phase returning kNone).
    """
    best = None
    best_wall = -1
    for row in phases:
        if total_rounds(row) == 0:
            continue
        if row.get("wall_ns", 0) > best_wall:
            best_wall = row.get("wall_ns", 0)
            best = row["phase"]
    return best


def render_table(dmpc, out=sys.stdout):
    """Prints the per-phase attribution table."""
    phases = sorted(dmpc["phases"], key=lambda r: r.get("wall_ns", 0),
                    reverse=True)
    sum_rounds = sum(total_rounds(r) for r in phases)
    sum_comm = sum(r.get("comm_words", 0) for r in phases)
    sum_wall = sum(r.get("wall_ns", 0) for r in phases)

    def pct(part, whole):
        return f"{100.0 * part / whole:5.1f}%" if whole else "    -"

    header = (f"{'phase':<18} {'spans':>7} {'abort':>6} {'rounds':>8} "
              f"{'r%':>6} {'comm_words':>12} {'comm%':>6} "
              f"{'wall_ms':>10} {'wall%':>6}")
    print(header, file=out)
    print("-" * len(header), file=out)
    for row in phases:
        rounds = total_rounds(row)
        wall_ns = row.get("wall_ns", 0)
        comm = row.get("comm_words", 0)
        print(f"{row['phase']:<18} {row.get('spans', 0):>7} "
              f"{row.get('aborted_spans', 0):>6} {rounds:>8} "
              f"{pct(rounds, sum_rounds):>6} {comm:>12} "
              f"{pct(comm, sum_comm):>6} {wall_ns / 1e6:>10.3f} "
              f"{pct(wall_ns, sum_wall):>6}", file=out)
    print("-" * len(header), file=out)
    print(f"{'total':<18} {'':>7} {'':>6} {sum_rounds:>8} {'':>6} "
          f"{sum_comm:>12} {'':>6} {sum_wall / 1e6:>10.3f}", file=out)
    dom = dominant_phase(phases)
    if dom is not None:
        print(f"dominant per-round phase: {dom}", file=out)
    else:
        print("dominant per-round phase: (no rounds traced)", file=out)
    dropped = dmpc.get("dropped_events", 0)
    if dropped:
        print(f"note: {dropped} event(s) dropped past the buffer cap "
              "(the table above is still exact)", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Phase-attribution report for dmpc Tracer JSON")
    parser.add_argument("trace", help="trace JSON written by --trace")
    parser.add_argument("--check", action="store_true",
                        help="CI validation: valid JSON, all spans "
                             "closed, phase table non-empty, at most 1%% "
                             "of rounds in batch/unattributed")
    args = parser.parse_args(argv)

    try:
        dmpc = load_trace(args.trace)
        if args.check:
            check(dmpc, args.trace)
            print(f"TRACE OK: {args.trace} — {len(dmpc['phases'])} "
                  "phase(s), all spans closed")
            return 0
    except TraceError as exc:
        print(f"trace_report: FAILED: {exc}", file=sys.stderr)
        return 1
    render_table(dmpc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
