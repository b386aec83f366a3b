#!/usr/bin/env python3
"""Unit tests for scripts/bench_trend.py — the CI bench trend gate.

Run directly (python3 scripts/test_bench_trend.py) or via ctest
(registered as bench_trend_py, label tier1).  Each case stages a
synthetic baseline/current BENCH_*.json pair in a temp directory and
asserts the gate's exit code and, for the summary, its markdown output.
"""

import importlib.util
import json
import os
import sys
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "bench_trend", os.path.join(_HERE, "bench_trend.py"))
bench_trend = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trend)


def make_row(name, wall=1.0, rounds=None, deferred=None, n=None,
             cascade=None, batches=None, cores=None, qrounds=None, p99=None,
             journal_pct=None, journal_off=None, trace_pct=None,
             trace_off=None):
    row = {"name": name, "wall_seconds": wall}
    if n is not None:
        row["n"] = n
    if rounds is not None:
        row["rounds_per_update"] = rounds
    if deferred is not None:
        row["deferred_updates"] = deferred
    if cascade is not None:
        row["cascade_rounds"] = cascade
        row["batches"] = batches if batches is not None else 100
    if cores is not None:
        row["cores"] = cores
    if qrounds is not None:
        row["query_rounds_per_batch"] = qrounds
    if p99 is not None:
        row["p99_us"] = p99
    if journal_pct is not None:
        row["journal_overhead_pct"] = journal_pct
        row["journal_off_seconds"] = \
            journal_off if journal_off is not None else 3.0
    if trace_pct is not None:
        row["trace_overhead_pct"] = trace_pct
        row["trace_off_seconds"] = \
            trace_off if trace_off is not None else 3.0
    return row


class BenchTrendTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = os.path.join(self.tmp.name, "baseline")
        self.current = os.path.join(self.tmp.name, "current")
        os.makedirs(self.baseline)
        os.makedirs(self.current)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, directory, rows, bench="table1"):
        path = os.path.join(directory, f"BENCH_{bench}.json")
        with open(path, "w") as f:
            json.dump({"bench": bench, "within_budget": True,
                       "workloads": rows}, f)

    def gate(self, *extra):
        return bench_trend.main(["--baseline", self.baseline,
                                 "--current", self.current, *extra])

    def test_identical_runs_pass(self):
        rows = [make_row("w", wall=2.0, rounds=3.0, deferred=10)]
        self.write(self.baseline, rows)
        self.write(self.current, rows)
        self.assertEqual(self.gate(), 0)

    def test_missing_baseline_passes_with_notice(self):
        self.write(self.current, [make_row("w")])
        self.assertEqual(self.gate(), 0)

    def test_wall_clock_regression_fails(self):
        self.write(self.baseline, [make_row("w", wall=1.0)])
        self.write(self.current, [make_row("w", wall=1.6)])
        self.assertEqual(self.gate(), 1)

    def test_sub_floor_wall_noise_is_ignored(self):
        self.write(self.baseline, [make_row("w", wall=0.01)])
        self.write(self.current, [make_row("w", wall=0.02)])
        self.assertEqual(self.gate(), 0)

    def test_sub_floor_row_growing_past_floor_is_gated(self):
        self.write(self.baseline, [make_row("w", wall=0.01)])
        self.write(self.current, [make_row("w", wall=1.0)])
        self.assertEqual(self.gate(), 1)

    def test_rounds_per_update_regression_fails(self):
        # The ISSUE acceptance case: a synthetic rounds/update regression
        # must fail the job even with identical wall-clock.
        self.write(self.baseline, [make_row("w", wall=1.0, rounds=3.0)])
        self.write(self.current, [make_row("w", wall=1.0, rounds=3.4)])
        self.assertEqual(self.gate(), 1)

    def test_rounds_within_tolerance_passes(self):
        self.write(self.baseline, [make_row("w", rounds=3.0)])
        self.write(self.current, [make_row("w", rounds=3.1)])
        self.assertEqual(self.gate(), 0)

    def test_deferred_updates_growth_fails(self):
        self.write(self.baseline, [make_row("w", deferred=20)])
        self.write(self.current, [make_row("w", deferred=120)])
        self.assertEqual(self.gate(), 1)

    def test_cascade_rounds_per_batch_regression_fails(self):
        # 2.0 -> 2.5 cascade rounds/batch is past the 5% + 0.25 slack.
        self.write(self.baseline, [make_row("w", cascade=200, batches=100)])
        self.write(self.current, [make_row("w", cascade=250, batches=100)])
        self.assertEqual(self.gate(), 1)

    def test_cascade_within_tolerance_passes(self):
        self.write(self.baseline, [make_row("w", cascade=200, batches=100)])
        self.write(self.current, [make_row("w", cascade=205, batches=100)])
        self.assertEqual(self.gate(), 0)

    def test_cascade_normalized_by_batches(self):
        # Twice the cascade rounds over twice the batches is flat.
        self.write(self.baseline, [make_row("w", cascade=200, batches=100)])
        self.write(self.current, [make_row("w", cascade=400, batches=200)])
        self.assertEqual(self.gate(), 0)

    def test_cascade_zero_baseline_gets_absolute_slack(self):
        # A cascade-free baseline tolerates a trickle, not a flood.
        self.write(self.baseline, [make_row("w", cascade=0, batches=100)])
        self.write(self.current, [make_row("w", cascade=20, batches=100)])
        self.assertEqual(self.gate(), 0)
        self.write(self.current, [make_row("w", cascade=100, batches=100)])
        self.assertEqual(self.gate(), 1)

    def test_query_rounds_per_batch_regression_fails(self):
        # The serving read path is O(1) rounds by construction, so this
        # is deterministic and gated as tightly as rounds/update.
        self.write(self.baseline,
                   [make_row("serving/zipfian-mixed", qrounds=6.0)],
                   bench="serving")
        self.write(self.current,
                   [make_row("serving/zipfian-mixed", qrounds=6.5)],
                   bench="serving")
        self.assertEqual(self.gate(), 1)

    def test_query_rounds_within_tolerance_passes(self):
        self.write(self.baseline,
                   [make_row("serving/zipfian-mixed", qrounds=6.0)],
                   bench="serving")
        self.write(self.current,
                   [make_row("serving/zipfian-mixed", qrounds=6.2)],
                   bench="serving")
        self.assertEqual(self.gate(), 0)

    def test_p99_latency_regression_fails(self):
        self.write(self.baseline,
                   [make_row("serving/zipfian-mixed", p99=1000.0)],
                   bench="serving")
        self.write(self.current,
                   [make_row("serving/zipfian-mixed", p99=2000.0)],
                   bench="serving")
        self.assertEqual(self.gate(), 1)

    def test_p99_within_noise_tolerance_passes(self):
        # 30% latency growth is inside the 50% noise allowance.
        self.write(self.baseline,
                   [make_row("serving/zipfian-mixed", p99=1000.0)],
                   bench="serving")
        self.write(self.current,
                   [make_row("serving/zipfian-mixed", p99=1300.0)],
                   bench="serving")
        self.assertEqual(self.gate(), 0)

    def test_sub_floor_p99_noise_is_ignored(self):
        # A 2x swing on a sub-200us row is scheduler weather, but a row
        # that grows PAST the floor is still gated.
        self.write(self.baseline,
                   [make_row("serving/zipfian-mixed", p99=50.0)],
                   bench="serving")
        self.write(self.current,
                   [make_row("serving/zipfian-mixed", p99=100.0)],
                   bench="serving")
        self.assertEqual(self.gate(), 0)
        self.write(self.current,
                   [make_row("serving/zipfian-mixed", p99=900.0)],
                   bench="serving")
        self.assertEqual(self.gate(), 1)

    def test_p99_skipped_when_core_counts_differ(self):
        # Latency measured on different hardware says nothing about the
        # code — but the deterministic query-rounds gate still applies.
        self.write(self.baseline,
                   [make_row("serving/zipfian-mixed", p99=1000.0,
                             qrounds=6.0, cores=4)],
                   bench="serving")
        self.write(self.current,
                   [make_row("serving/zipfian-mixed", p99=4000.0,
                             qrounds=6.0, cores=16)],
                   bench="serving")
        self.assertEqual(self.gate(), 0)

    def test_wall_clock_skipped_when_core_counts_differ(self):
        # A 4-core baseline vs a 16-core runner: the 2x wall-clock swing
        # is hardware, not code — the rounds gate still applies.
        self.write(self.baseline,
                   [make_row("w", wall=1.0, rounds=3.0, cores=4)])
        self.write(self.current,
                   [make_row("w", wall=2.0, rounds=3.0, cores=16)])
        self.assertEqual(self.gate(), 0)

    def test_wall_clock_gated_when_core_counts_match(self):
        self.write(self.baseline, [make_row("w", wall=1.0, cores=4)])
        self.write(self.current, [make_row("w", wall=2.0, cores=4)])
        self.assertEqual(self.gate(), 1)

    def test_deferred_small_count_slack(self):
        # Tiny counts get an absolute slack: 0 -> 5 is not a regression.
        self.write(self.baseline, [make_row("w", deferred=0)])
        self.write(self.current, [make_row("w", deferred=5)])
        self.assertEqual(self.gate(), 0)

    def test_rows_matched_by_name_and_n(self):
        self.write(self.baseline, [make_row("w", rounds=3.0, n=256),
                                   make_row("w", rounds=1.0, n=1024)])
        self.write(self.current, [make_row("w", rounds=3.0, n=256),
                                  make_row("w", rounds=2.0, n=1024)])
        self.assertEqual(self.gate(), 1)

    def test_summary_table_written(self):
        self.write(self.baseline, [make_row("w", wall=1.0, rounds=3.0)])
        self.write(self.current, [make_row("w", wall=1.0, rounds=3.4)])
        with open(os.path.join(self.baseline, "BASELINE_SHA"), "w") as f:
            f.write("0123456789abcdef\n")
        summary = os.path.join(self.tmp.name, "summary.md")
        self.assertEqual(self.gate("--summary", summary), 1)
        with open(summary) as f:
            text = f.read()
        self.assertIn("## Bench trend vs baseline", text)
        self.assertIn("0123456789ab", text)  # stamped baseline SHA
        self.assertIn("| table1 | w |", text)
        self.assertIn("REGRESSION: rounds/update", text)

    def test_summary_on_first_run_names_the_missing_baseline(self):
        self.write(self.current, [make_row("w")])
        summary = os.path.join(self.tmp.name, "summary.md")
        self.assertEqual(self.gate("--summary", summary), 0)
        with open(summary) as f:
            self.assertIn("No baseline rows", f.read())

    def test_lost_metric_prints_a_notice(self):
        # Dropping a gated metric from the current JSON must not fail,
        # but the disabled gate has to be called out.
        import contextlib
        import io
        self.write(self.baseline, [make_row("w", rounds=3.0)])
        self.write(self.current, [{"name": "w", "wall_seconds": 1.0}])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(self.gate(), 0)
        self.assertIn("lost it", out.getvalue())
        self.assertIn("rounds_per_update", out.getvalue())

    def test_empty_current_dir_errors(self):
        self.assertEqual(self.gate(), 2)

    def test_journal_overhead_over_budget_fails(self):
        # The undo-journal atomicity tax has an absolute 5% budget.
        self.write(self.baseline,
                   [make_row("serving/zipfian-mixed", journal_pct=1.0)],
                   bench="serving")
        self.write(self.current,
                   [make_row("serving/zipfian-mixed", journal_pct=7.5)],
                   bench="serving")
        self.assertEqual(self.gate(), 1)

    def test_journal_overhead_within_budget_passes(self):
        self.write(self.baseline,
                   [make_row("serving/zipfian-mixed", journal_pct=1.0)],
                   bench="serving")
        self.write(self.current,
                   [make_row("serving/zipfian-mixed", journal_pct=4.9)],
                   bench="serving")
        self.assertEqual(self.gate(), 0)

    def test_journal_overhead_gated_without_baseline(self):
        # The budget is absolute: the very first run (no baseline at
        # all) must already hold the journal under 5%.
        self.write(self.current,
                   [make_row("serving/zipfian-mixed", journal_pct=9.0)],
                   bench="serving")
        self.assertEqual(self.gate(), 1)

    def test_journal_overhead_skipped_below_seconds_floor(self):
        # A percentage of a 0.05s reference run is weather, not a tax —
        # skipped with a notice instead of gated.
        import contextlib
        import io
        self.write(self.current,
                   [make_row("serving/zipfian-mixed", journal_pct=40.0,
                             journal_off=0.05)],
                   bench="serving")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(self.gate(), 0)
        self.assertIn("not gated", out.getvalue())

    def test_trace_overhead_over_budget_fails(self):
        # The tracing-disabled off path has an absolute 1% budget.
        self.write(self.current,
                   [make_row("dynforest_trace_overhead_n131072_weighted",
                             trace_pct=1.8)],
                   bench="micro")
        self.assertEqual(self.gate(), 1)

    def test_trace_overhead_within_budget_passes(self):
        self.write(self.current,
                   [make_row("dynforest_trace_overhead_n131072_weighted",
                             trace_pct=0.4)],
                   bench="micro")
        self.assertEqual(self.gate(), 0)

    def test_trace_overhead_skipped_below_seconds_floor(self):
        # A percentage of a 0.1s reference run is weather — skipped
        # with a notice instead of gated.
        import contextlib
        import io
        self.write(self.current,
                   [make_row("dynforest_trace_overhead_n131072_weighted",
                             trace_pct=25.0, trace_off=0.1)],
                   bench="micro")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(self.gate(), 0)
        self.assertIn("not gated", out.getvalue())

    def test_trace_overhead_budget_flag_raises_ceiling(self):
        self.write(self.current,
                   [make_row("dynforest_trace_overhead_n131072_weighted",
                             trace_pct=1.8)],
                   bench="micro")
        self.assertEqual(self.gate("--max-trace-overhead", "2.5"), 0)

    def test_lost_trace_metric_prints_a_notice(self):
        import contextlib
        import io
        self.write(self.baseline,
                   [make_row("dynforest_trace_overhead_n131072_weighted",
                             trace_pct=0.3)],
                   bench="micro")
        self.write(self.current,
                   [make_row("dynforest_trace_overhead_n131072_weighted")],
                   bench="micro")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(self.gate(), 0)
        self.assertIn("lost it", out.getvalue())
        self.assertIn("trace_overhead_pct", out.getvalue())

    def test_lost_journal_metric_prints_a_notice(self):
        import contextlib
        import io
        self.write(self.baseline,
                   [make_row("serving/zipfian-mixed", journal_pct=1.0)],
                   bench="serving")
        self.write(self.current,
                   [make_row("serving/zipfian-mixed")], bench="serving")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(self.gate(), 0)
        self.assertIn("lost it", out.getvalue())
        self.assertIn("journal_overhead_pct", out.getvalue())


if __name__ == "__main__":
    unittest.main()
