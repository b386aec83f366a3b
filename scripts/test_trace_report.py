#!/usr/bin/env python3
"""Unit tests for scripts/trace_report.py — the trace-check CI step.

Run directly (python3 scripts/test_trace_report.py) or via ctest
(registered as trace_report_py, label tier1).  Each case stages a
synthetic Tracer JSON export in a temp directory and asserts the
report/check behaviour against it.
"""

import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "trace_report", os.path.join(_HERE, "trace_report.py"))
trace_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_report)


def phase_row(name, spans=1, aborted=0, rounds=0, overlapped=0, charged=0,
              comm=0, wall=0):
    return {"phase": name, "spans": spans, "aborted_spans": aborted,
            "rounds": rounds, "overlapped_rounds": overlapped,
            "charged_rounds": charged, "comm_words": comm,
            "wall_ns": wall}


def trace_doc(phases, dropped=0, open_spans=0):
    return {"traceEvents": [], "dmpc": {"phases": phases,
                                        "dropped_events": dropped,
                                        "open_spans": open_spans}}


class TempTrace:
    """Context manager staging a trace file (text or JSON doc)."""

    def __init__(self, doc):
        self.doc = doc
        self.dir = None

    def __enter__(self):
        self.dir = tempfile.TemporaryDirectory()
        path = os.path.join(self.dir.name, "trace.json")
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(self.doc, str):
                f.write(self.doc)
            else:
                json.dump(self.doc, f)
        return path

    def __exit__(self, *exc):
        self.dir.cleanup()
        return False


class LoadTraceTest(unittest.TestCase):
    def test_valid_trace_loads(self):
        doc = trace_doc([phase_row("cascade", rounds=3, wall=100)])
        with TempTrace(doc) as path:
            dmpc = trace_report.load_trace(path)
        self.assertEqual(len(dmpc["phases"]), 1)
        self.assertEqual(dmpc["phases"][0]["phase"], "cascade")

    def test_invalid_json_raises(self):
        with TempTrace("{\"traceEvents\": [") as path:
            with self.assertRaises(trace_report.TraceError):
                trace_report.load_trace(path)

    def test_missing_file_raises(self):
        with self.assertRaises(trace_report.TraceError):
            trace_report.load_trace("/nonexistent/trace.json")

    def test_missing_dmpc_section_raises(self):
        with TempTrace({"traceEvents": []}) as path:
            with self.assertRaises(trace_report.TraceError):
                trace_report.load_trace(path)

    def test_malformed_phase_row_raises(self):
        doc = trace_doc([{"spans": 1}])  # no "phase" key
        with TempTrace(doc) as path:
            with self.assertRaises(trace_report.TraceError):
                trace_report.load_trace(path)

    def test_non_integer_column_raises(self):
        doc = trace_doc([phase_row("cascade")])
        doc["dmpc"]["phases"][0]["wall_ns"] = "fast"
        with TempTrace(doc) as path:
            with self.assertRaises(trace_report.TraceError):
                trace_report.load_trace(path)


class CheckTest(unittest.TestCase):
    def test_clean_trace_passes(self):
        doc = trace_doc([phase_row("cascade", rounds=1)])
        with TempTrace(doc) as path:
            dmpc = trace_report.load_trace(path)
            trace_report.check(dmpc, path)  # must not raise

    def test_catch_all_rounds_over_one_percent_fail(self):
        for phase in ("batch", "unattributed"):
            doc = trace_doc([phase_row(phase, rounds=2),
                             phase_row("cascade", rounds=98)])
            with TempTrace(doc) as path:
                dmpc = trace_report.load_trace(path)
                with self.assertRaisesRegex(trace_report.TraceError,
                                            "2.0% of rounds"):
                    trace_report.check(dmpc, path)

    def test_catch_all_share_sums_both_phases(self):
        doc = trace_doc([phase_row("batch", charged=1),
                         phase_row("unattributed", overlapped=1),
                         phase_row("kway-join", rounds=98)])
        with TempTrace(doc) as path:
            dmpc = trace_report.load_trace(path)
            with self.assertRaises(trace_report.TraceError):
                trace_report.check(dmpc, path)

    def test_catch_all_at_one_percent_passes(self):
        doc = trace_doc([phase_row("batch", rounds=1),
                         phase_row("cascade", rounds=99)])
        with TempTrace(doc) as path:
            dmpc = trace_report.load_trace(path)
            trace_report.check(dmpc, path)  # must not raise

    def test_batch_spans_without_rounds_pass(self):
        # The driver's batch span annotates whole batches; it only fails
        # the check when rounds land in it directly.
        doc = trace_doc([phase_row("batch", spans=50, wall=10**9),
                         phase_row("cascade", rounds=3)])
        with TempTrace(doc) as path:
            dmpc = trace_report.load_trace(path)
            trace_report.check(dmpc, path)  # must not raise

    def test_open_spans_fail(self):
        doc = trace_doc([phase_row("batch", rounds=1)], open_spans=2)
        with TempTrace(doc) as path:
            dmpc = trace_report.load_trace(path)
            with self.assertRaisesRegex(trace_report.TraceError,
                                        "left open"):
                trace_report.check(dmpc, path)

    def test_empty_phase_table_fails(self):
        doc = trace_doc([])
        with TempTrace(doc) as path:
            dmpc = trace_report.load_trace(path)
            with self.assertRaisesRegex(trace_report.TraceError, "empty"):
                trace_report.check(dmpc, path)


class DominantPhaseTest(unittest.TestCase):
    def test_largest_wall_among_round_owners_wins(self):
        phases = [
            phase_row("batch", wall=10**9),  # no rounds: annotation only
            phase_row("cascade", rounds=5, wall=400),
            phase_row("kway-split", rounds=2, wall=900),
        ]
        self.assertEqual(trace_report.dominant_phase(phases), "kway-split")

    def test_charged_rounds_qualify(self):
        phases = [phase_row("directory", charged=3, wall=50)]
        self.assertEqual(trace_report.dominant_phase(phases), "directory")

    def test_no_rounds_returns_none(self):
        self.assertIsNone(trace_report.dominant_phase(
            [phase_row("batch", wall=100)]))


class RenderTableTest(unittest.TestCase):
    def render(self, doc):
        out = io.StringIO()
        trace_report.render_table(doc["dmpc"], out=out)
        return out.getvalue()

    def test_table_names_dominant_phase_and_shares(self):
        doc = trace_doc([
            phase_row("cascade", rounds=3, comm=600, wall=3 * 10**6),
            phase_row("kway-join", rounds=1, comm=200, wall=10**6),
        ])
        text = self.render(doc)
        self.assertIn("dominant per-round phase: cascade", text)
        self.assertIn("75.0%", text)  # cascade's comm and wall share
        self.assertIn("cascade", text)
        self.assertIn("kway-join", text)

    def test_dropped_events_are_noted(self):
        doc = trace_doc([phase_row("cascade", rounds=1, wall=10)],
                        dropped=7)
        self.assertIn("7 event(s) dropped", self.render(doc))

    def test_no_rounds_no_dominant(self):
        doc = trace_doc([phase_row("batch", wall=10)])
        self.assertIn("(no rounds traced)", self.render(doc))


class MainTest(unittest.TestCase):
    def test_check_ok_exit_zero(self):
        doc = trace_doc([phase_row("cascade", rounds=1, wall=10)])
        with TempTrace(doc) as path:
            self.assertEqual(trace_report.main([path, "--check"]), 0)

    def test_check_open_spans_exit_one(self):
        doc = trace_doc([phase_row("cascade", rounds=1)], open_spans=1)
        with TempTrace(doc) as path:
            self.assertEqual(trace_report.main([path, "--check"]), 1)

    def test_check_catch_all_rounds_exit_one(self):
        doc = trace_doc([phase_row("batch", rounds=84),
                         phase_row("kway-join", rounds=16)])
        with TempTrace(doc) as path:
            self.assertEqual(trace_report.main([path, "--check"]), 1)

    def test_report_mode_exit_zero(self):
        doc = trace_doc([phase_row("cascade", rounds=1, wall=10)])
        with TempTrace(doc) as path:
            self.assertEqual(trace_report.main([path]), 0)

    def test_bad_json_exit_one(self):
        with TempTrace("not json") as path:
            self.assertEqual(trace_report.main([path]), 1)


if __name__ == "__main__":
    unittest.main()
