#!/usr/bin/env python3
"""Trend gate for the CI bench job: wall-clock, rounds/update, and
scheduler-counter trends.

Compares the current BENCH_*.json artifacts (written by
`bench_table1 --json` / `bench_scaling --json`) against the previous
run's copies restored from the actions/cache baseline (keyed on main)
and fails when any workload regressed:

  * wall-clock grew by more than --max-regress (sub-floor rows are
    ignored: CI runners are noisy and a 25% swing on a 20 ms row is
    weather, not a regression — unless the row grew PAST the floor;
    rows whose "cores" field differs between baseline and current are
    skipped entirely: a runner-hardware change is not a regression);
  * rounds_per_update grew by more than --max-rounds-regress (rounds
    are deterministic, so this bound is tight);
  * deferred_updates grew by more than --max-deferred-growth (plus a
    small absolute slack for tiny counts);
  * replacement-cascade rounds per batch (cascade_rounds / batches, the
    batch-dynamic protocol's reconnection cost) grew by more than
    --max-cascade-regress plus a small absolute slack;
  * serving query rounds per batch (query_rounds_per_batch from
    bench_serving — the read path is O(1) rounds by construction, so
    like rounds/update this is deterministic) grew by more than
    --max-query-rounds-regress;
  * serving p99 query latency (p99_us) grew by more than
    --max-p99-regress — latency is as noisy as wall-clock, so it gets
    the same treatment: sub-floor rows (both sides under --min-p99-us)
    are ignored unless the row grew PAST the floor, and rows whose
    "cores" field changed are skipped;
  * the fault-free undo-journal overhead (journal_overhead_pct from
    bench_serving's atomic-on vs atomic-off A/B timing) exceeds
    --max-journal-overhead percent.  This gate is ABSOLUTE — it binds
    every current row that carries the metric even on the first run,
    with no baseline to diff against — because the atomicity tax is a
    standing budget, not a trend.  Rows whose atomic-off reference run
    (journal_off_seconds) is under --min-journal-seconds are skipped
    with a notice: a percentage of a near-zero wall time is weather;
  * the tracing-disabled overhead (trace_overhead_pct from bench_micro's
    installed-but-disabled tracer vs no-tracer A/B timing) exceeds
    --max-trace-overhead percent.  Same ABSOLUTE treatment as the
    journal gate — the observability layer's off-path cost is a
    standing budget (docs/OBSERVABILITY.md) — with the same noise
    floor: rows whose no-tracer reference run (trace_off_seconds) is
    under --min-trace-seconds are skipped with a notice.

Rows are matched by (bench, name[, n]).  A missing baseline (first run,
expired cache) passes with a notice — the save step repopulates it.  A
BASELINE_SHA file in the baseline directory (stamped by the CI job when
it stages a baseline) is logged so the comparison target is visible.

With --summary PATH a markdown comparison table is appended there
(pointed at $GITHUB_STEP_SUMMARY by CI), so regressions are readable
from the job page without downloading artifacts.

Usage:
  bench_trend.py --baseline DIR --current DIR \
      [--max-regress 0.25] [--min-seconds 0.25] \
      [--max-rounds-regress 0.05] [--max-deferred-growth 0.25] \
      [--max-query-rounds-regress 0.05] [--max-p99-regress 0.50] \
      [--min-p99-us 200] [--max-journal-overhead 5.0] \
      [--min-journal-seconds 0.5] [--max-trace-overhead 1.0] \
      [--min-trace-seconds 0.5] [--summary PATH]
"""

import argparse
import json
import os
import sys


def load_rows(path):
    """{(name, n): row-dict} for one BENCH_*.json report."""
    with open(path) as f:
        report = json.load(f)
    rows = {}
    for row in report.get("workloads", []):
        rows[(row.get("name"), row.get("n"))] = row
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="directory with the previous run's BENCH_*.json")
    ap.add_argument("--current", required=True,
                    help="directory with this run's BENCH_*.json")
    ap.add_argument("--max-regress", type=float, default=0.25,
                    help="fail when wall-clock grows by more than this "
                         "fraction (default 0.25)")
    ap.add_argument("--min-seconds", type=float, default=0.25,
                    help="ignore wall-clock rows below this floor "
                         "(default 0.25)")
    ap.add_argument("--max-rounds-regress", type=float, default=0.05,
                    help="fail when rounds_per_update grows by more than "
                         "this fraction (default 0.05)")
    ap.add_argument("--max-deferred-growth", type=float, default=0.25,
                    help="fail when deferred_updates grows by more than "
                         "this fraction plus a slack of 8 (default 0.25)")
    ap.add_argument("--max-cascade-regress", type=float, default=0.05,
                    help="fail when replacement-cascade rounds per batch "
                         "grow by more than this fraction plus a slack of "
                         "0.25 rounds/batch (default 0.05)")
    ap.add_argument("--max-query-rounds-regress", type=float, default=0.05,
                    help="fail when serving query rounds per batch grow "
                         "by more than this fraction (default 0.05)")
    ap.add_argument("--max-p99-regress", type=float, default=0.50,
                    help="fail when serving p99 query latency grows by "
                         "more than this fraction (default 0.50)")
    ap.add_argument("--min-p99-us", type=float, default=200.0,
                    help="ignore p99 rows below this floor in "
                         "microseconds (default 200)")
    ap.add_argument("--max-journal-overhead", type=float, default=5.0,
                    help="fail when the fault-free undo-journal overhead "
                         "(journal_overhead_pct, absolute — gated even "
                         "without a baseline) exceeds this percent "
                         "(default 5.0)")
    ap.add_argument("--min-journal-seconds", type=float, default=0.5,
                    help="skip the journal-overhead gate when the "
                         "atomic-off reference run is shorter than this "
                         "(default 0.5)")
    ap.add_argument("--max-trace-overhead", type=float, default=1.0,
                    help="fail when the tracing-disabled overhead "
                         "(trace_overhead_pct, absolute — gated even "
                         "without a baseline) exceeds this percent "
                         "(default 1.0)")
    ap.add_argument("--min-trace-seconds", type=float, default=0.5,
                    help="skip the trace-overhead gate when the "
                         "no-tracer reference run is shorter than this "
                         "(default 0.5)")
    ap.add_argument("--summary", default=None,
                    help="append a markdown comparison table to this file "
                         "(e.g. $GITHUB_STEP_SUMMARY)")
    args = ap.parse_args(argv)

    names = [n for n in sorted(os.listdir(args.current))
             if n.startswith("BENCH_") and n.endswith(".json")]
    if not names:
        print(f"bench_trend: no BENCH_*.json in {args.current}",
              file=sys.stderr)
        return 2

    sha_path = os.path.join(args.baseline, "BASELINE_SHA")
    baseline_sha = None
    if os.path.exists(sha_path):
        with open(sha_path) as f:
            baseline_sha = f.read().strip()
        print(f"bench_trend: comparing against baseline from {baseline_sha}")

    regressions = []  # (bench, label, metric, detail)
    table = []        # markdown rows
    compared = 0
    for name in names:
        cur = load_rows(os.path.join(args.current, name))

        # Absolute undo-journal overhead budget: unlike every trend
        # above, this binds the CURRENT run on its own (the atomicity
        # tax must stay under budget even on the first run, when there
        # is no baseline to diff against).
        for key, crow in sorted(cur.items(), key=lambda kv: str(kv[0])):
            pct = crow.get("journal_overhead_pct")
            if pct is None:
                continue
            label = key[0] if key[1] is None else f"{key[0]} (n={key[1]})"
            off = crow.get("journal_off_seconds")
            if off is not None and off < args.min_journal_seconds:
                print(f"bench_trend: {name}: {label}: journal overhead "
                      f"{pct:.2f}% not gated — atomic-off reference run "
                      f"{off:.2f}s is under the {args.min_journal_seconds}s "
                      "floor")
                continue
            print(f"{name}: {label}: journal overhead {pct:.2f}% "
                  f"(budget {args.max_journal_overhead:.1f}%)")
            if pct > args.max_journal_overhead:
                regressions.append(
                    (name, label, "journal overhead",
                     f"{pct:.2f}% > {args.max_journal_overhead:.1f}% "
                     "budget"))

        # Absolute tracing-disabled overhead budget (bench_micro's
        # tracer-installed vs no-tracer A/B): the observability layer's
        # off path must stay under --max-trace-overhead percent, first
        # run included.
        for key, crow in sorted(cur.items(), key=lambda kv: str(kv[0])):
            pct = crow.get("trace_overhead_pct")
            if pct is None:
                continue
            label = key[0] if key[1] is None else f"{key[0]} (n={key[1]})"
            off = crow.get("trace_off_seconds")
            if off is not None and off < args.min_trace_seconds:
                print(f"bench_trend: {name}: {label}: trace overhead "
                      f"{pct:.2f}% not gated — no-tracer reference run "
                      f"{off:.2f}s is under the {args.min_trace_seconds}s "
                      "floor")
                continue
            print(f"{name}: {label}: trace overhead {pct:.2f}% "
                  f"(budget {args.max_trace_overhead:.1f}%)")
            if pct > args.max_trace_overhead:
                regressions.append(
                    (name, label, "trace overhead",
                     f"{pct:.2f}% > {args.max_trace_overhead:.1f}% "
                     "budget"))

        base_path = os.path.join(args.baseline, name)
        if not os.path.exists(base_path):
            print(f"bench_trend: no baseline for {name} "
                  "(first run or expired cache) — skipping")
            continue
        base = load_rows(base_path)
        for key, brow in sorted(base.items(), key=lambda kv: str(kv[0])):
            if key not in cur:
                # A renamed/removed workload silently losing coverage is
                # worth a visible notice, not a failure.
                print(f"bench_trend: {name}: baseline row {key[0]!r} "
                      "missing from current run — not compared")
                continue
            crow = cur[key]
            label = key[0] if key[1] is None else f"{key[0]} (n={key[1]})"
            compared += 1
            row_bad = []

            # A metric the baseline has but the current run lost (a
            # renamed key, dropped sched counters) silently disables its
            # gate — make that loss visible, like the missing-row notice.
            for metric in ("wall_seconds", "rounds_per_update",
                           "deferred_updates",
                           "cascade_rounds", "query_rounds_per_batch",
                           "p99_us", "journal_overhead_pct",
                           "trace_overhead_pct"):
                if brow.get(metric) is not None and \
                        crow.get(metric) is None:
                    print(f"bench_trend: {name}: {label}: baseline has "
                          f"{metric!r} but the current run lost it — "
                          "that gate is not applied")

            # Wall-clock (noise floor: skip only when BOTH sides are
            # tiny, so a row that grew from sub-floor to large is still
            # gated).  Rows that carry a core count are only compared
            # when it matches: wall-clock measured on different hardware
            # says nothing about the code.
            bw, cw = brow.get("wall_seconds"), crow.get("wall_seconds")
            bcores, ccores = brow.get("cores"), crow.get("cores")
            wall_note = "-"
            if (bcores is not None and ccores is not None and
                    bcores != ccores):
                wall_note = (f"skipped (cores {bcores} -> {ccores})")
                print(f"bench_trend: {name}: {label}: core count changed "
                      f"({bcores} -> {ccores}) — wall-clock not compared")
            elif bw is not None and cw is not None:
                if bw >= args.min_seconds or cw >= args.min_seconds:
                    ratio = cw / bw if bw > 0 else float("inf")
                    wall_note = f"{bw:.2f}s -> {cw:.2f}s"
                    if ratio > 1.0 + args.max_regress:
                        row_bad.append("wall-clock")
                        regressions.append(
                            (name, label, "wall-clock",
                             f"{bw:.3f}s -> {cw:.3f}s"))
                else:
                    wall_note = f"{bw:.2f}s -> {cw:.2f}s (sub-floor)"

            # Rounds per update: deterministic, so gated tightly.
            br, cr = (brow.get("rounds_per_update"),
                      crow.get("rounds_per_update"))
            rounds_note = "-"
            if br is not None and cr is not None:
                rounds_note = f"{br:.2f} -> {cr:.2f}"
                if br > 0 and cr > br * (1.0 + args.max_rounds_regress):
                    row_bad.append("rounds/update")
                    regressions.append(
                        (name, label, "rounds/update",
                         f"{br:.3f} -> {cr:.3f}"))

            # Deferred updates: growth means the scheduler is bouncing
            # more work back to the pending set.
            bd, cd = (brow.get("deferred_updates"),
                      crow.get("deferred_updates"))
            deferred_note = "-"
            if bd is not None and cd is not None:
                deferred_note = f"{bd} -> {cd}"
                if cd > bd * (1.0 + args.max_deferred_growth) + 8:
                    row_bad.append("deferred updates")
                    regressions.append(
                        (name, label, "deferred updates", f"{bd} -> {cd}"))

            # Replacement-cascade rounds per batch: the batch-dynamic
            # protocol's cost of reconnecting split fragments.  Rounds
            # are deterministic, so growth past the tolerance (plus a
            # small absolute slack for near-zero baselines) means the
            # cascade got deeper, not noisier.
            cascade_note = "-"
            bcasc, ccasc = (brow.get("cascade_rounds"),
                            crow.get("cascade_rounds"))
            bbatches, cbatches = brow.get("batches"), crow.get("batches")
            if (bcasc is not None and ccasc is not None and
                    bbatches and cbatches):
                bpb = bcasc / bbatches
                cpb = ccasc / cbatches
                cascade_note = f"{bpb:.2f} -> {cpb:.2f}"
                if cpb > bpb * (1.0 + args.max_cascade_regress) + 0.25:
                    row_bad.append("cascade rounds/batch")
                    regressions.append(
                        (name, label, "cascade rounds/batch",
                         f"{bpb:.3f} -> {cpb:.3f}"))

            # Serving query rounds per batch: the read path is O(1)
            # rounds by construction, so this is as deterministic as
            # rounds/update and gated just as tightly.
            bq, cq = (brow.get("query_rounds_per_batch"),
                      crow.get("query_rounds_per_batch"))
            qrounds_note = "-"
            if bq is not None and cq is not None:
                qrounds_note = f"{bq:.2f} -> {cq:.2f}"
                if bq > 0 and \
                        cq > bq * (1.0 + args.max_query_rounds_regress):
                    row_bad.append("query rounds/batch")
                    regressions.append(
                        (name, label, "query rounds/batch",
                         f"{bq:.3f} -> {cq:.3f}"))

            # Serving p99 query latency: noisy like wall-clock, so it
            # gets the same noise floor (sub-floor rows ignored unless
            # they grew past the floor) and the same cores-changed skip.
            bp, cp = brow.get("p99_us"), crow.get("p99_us")
            p99_note = "-"
            if bp is not None and cp is not None:
                if (bcores is not None and ccores is not None and
                        bcores != ccores):
                    p99_note = f"skipped (cores {bcores} -> {ccores})"
                    print(f"bench_trend: {name}: {label}: core count "
                          f"changed ({bcores} -> {ccores}) — p99 not "
                          "compared")
                elif bp >= args.min_p99_us or cp >= args.min_p99_us:
                    p99_note = f"{bp:.0f}us -> {cp:.0f}us"
                    if bp > 0 and cp > bp * (1.0 + args.max_p99_regress):
                        row_bad.append("p99 latency")
                        regressions.append(
                            (name, label, "p99 latency",
                             f"{bp:.1f}us -> {cp:.1f}us"))
                else:
                    p99_note = f"{bp:.0f}us -> {cp:.0f}us (sub-floor)"

            verdict = "REGRESSION: " + ", ".join(row_bad) if row_bad \
                else "ok"
            marker = "  <-- REGRESSION" if row_bad else ""
            print(f"{name}: {label}: wall {wall_note}, r/u {rounds_note}, "
                  f"deferred {deferred_note}, "
                  f"cascade {cascade_note}, q-rounds {qrounds_note}, "
                  f"p99 {p99_note}{marker}")
            table.append((name.removeprefix("BENCH_").removesuffix(".json"),
                          label, wall_note, rounds_note,
                          deferred_note, cascade_note, qrounds_note,
                          p99_note, verdict))

    if args.summary:
        with open(args.summary, "a") as f:
            f.write("## Bench trend vs baseline")
            if baseline_sha:
                f.write(f" (`{baseline_sha[:12]}`)")
            f.write("\n\n")
            if not table:
                f.write("_No baseline rows to compare (first run or "
                        "expired cache)._\n\n")
            else:
                f.write("| bench | workload | wall | rounds/upd | "
                        "deferred | cascade/batch | "
                        "q-rounds/batch | p99 | verdict |\n")
                f.write("|---|---|---|---|---|---|---|---|---|\n")
                for row in table:
                    cells = " | ".join(str(c) for c in row)
                    f.write(f"| {cells} |\n")
                f.write("\n")

    if regressions:
        print(f"\nbench_trend: {len(regressions)} regression(s):",
              file=sys.stderr)
        for name, label, metric, detail in regressions:
            print(f"  {name} {label}: {metric} {detail}", file=sys.stderr)
        return 1
    print(f"bench_trend: {compared} row(s) within bounds "
          f"(wall {args.max_regress:.0%}, rounds "
          f"{args.max_rounds_regress:.0%}, deferred growth "
          f"{args.max_deferred_growth:.0%}, cascade growth "
          f"{args.max_cascade_regress:.0%}, query rounds "
          f"{args.max_query_rounds_regress:.0%}, p99 growth "
          f"{args.max_p99_regress:.0%}, journal overhead budget "
          f"{args.max_journal_overhead:.1f}%, trace overhead budget "
          f"{args.max_trace_overhead:.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
