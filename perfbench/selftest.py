"""Fast checks of the benchmark's own arithmetic and output format.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
The name keeps it out of the repository's pytest collection, which
picks up ``test_*.py`` everywhere.
"""

import json
import sys
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from tracer import (  # noqa: E402
    PROBES,
    Span,
    Tracer,
    _resolve,
    chrome_trace,
    install,
    self_seconds,
    span_counts,
)
from workloads import Phase, layer_breakdown  # noqa: E402

S = 1_000_000_000  # ns per second


def span(span_id, name, start, end, parent=None, thread=1):
    return Span(span_id, name, start * S, end * S, parent, thread, 1)


class SelfSeconds(unittest.TestCase):
    def test_nested_children_are_subtracted(self):
        spans = [
            span("r", "phase", 0, 100),
            span("a", "quasistatic.ftqs", 10, 40, "r"),
            span("b", "scheduling.ftss", 20, 30, "a"),
            span("c", "faults.sample", 50, 90, "r"),
        ]
        got = self_seconds(spans, "r")
        self.assertEqual(
            got,
            {
                "phase": 30.0,
                "quasistatic.ftqs": 20.0,
                "scheduling.ftss": 10.0,
                "faults.sample": 40.0,
            },
        )
        self.assertAlmostEqual(sum(got.values()), 100.0)

    def test_overlapping_threads_split_the_time(self):
        spans = [
            span("r", "threads.evaluate", 0, 100),
            span("x", "kernel.run", 10, 60, "r", thread=2),
            span("y", "kernel.run", 20, 70, "r", thread=3),
        ]
        got = self_seconds(spans, "r")
        self.assertEqual(got, {"threads.evaluate": 40.0, "kernel.run": 60.0})

    def test_children_are_clipped_to_their_parent(self):
        spans = [
            span("r", "service.client", 0, 10),
            span("s", "service.dispatch", 2, 15, "r"),
        ]
        got = self_seconds(spans, "r")
        self.assertEqual(got, {"service.client": 2.0, "service.dispatch": 8.0})

    def test_spans_outside_the_root_are_ignored(self):
        spans = [
            span("r", "phase", 0, 10),
            span("a", "engine.pack", 1, 3, "r"),
            span("z", "engine.pack", 20, 30),
        ]
        self.assertEqual(span_counts(spans, "r"), {"phase": 1, "engine.pack": 1})

    def test_layer_breakdown_is_per_unit(self):
        spans = [
            span("r1", "phase", 0, 10),
            span("a", "faults.sample", 0, 6, "r1"),
            span("r2", "phase", 20, 30),
            span("b", "faults.sample", 20, 24, "r2"),
        ]
        phase = Phase(
            unit_walls=[10.0, 10.0],
            phase_wall=20.0,
            roots=["r1", "r2"],
            spans=spans,
            counts={"faults.scenarios": 8},
        )
        seconds, other = layer_breakdown(phase)
        self.assertEqual(seconds, {"phase_s": 5.0, "faults.sample_s": 5.0})
        self.assertEqual(other["faults.sample_n"], 1.0)
        self.assertEqual(other["faults.scenarios_n"], 4.0)


class Recording(unittest.TestCase):
    def test_parents_follow_nesting_and_carry_across_threads(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            carried = tracer.carry(self._in_thread)
            worker = threading.Thread(target=carried, args=(tracer,))
            worker.start()
            worker.join(timeout=10)
            self.assertFalse(worker.is_alive())
        by_name = {s.name: s for s in tracer.spans}
        self.assertEqual(by_name["inner"].parent, outer)
        self.assertEqual(by_name["shard"].parent, outer)
        self.assertIsNone(by_name["outer"].parent)
        self.assertNotEqual(by_name["shard"].thread, by_name["outer"].thread)
        self.assertEqual(inner, by_name["inner"].id)

    @staticmethod
    def _in_thread(tracer):
        with tracer.span("shard"):
            pass

    def test_install_wraps_and_restores_every_probe(self):
        before = [_resolve(p)[2] for p in PROBES]
        tracer = Tracer()
        with install(tracer):
            during = [_resolve(p)[2] for p in PROBES]
            from repro.workloads.cruise import cruise_controller
            from repro.pipeline import runner

            self.assertIsNotNone(runner.ftss(cruise_controller()))
        after = [_resolve(p)[2] for p in PROBES]
        self.assertTrue(all(a is not b for a, b in zip(before, during)))
        self.assertTrue(all(a is b for a, b in zip(before, after)))
        self.assertEqual([s.name for s in tracer.spans], ["scheduling.ftss"])
        self.assertEqual(tracer.counts["scheduling.admitted"], 1)


class Output(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            list(run.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            list(run.PER_LAYER),
        )
        self.assertEqual(
            sorted(w["name"] for w in spec["workloads"]),
            sorted(run.EXPECTED_SPLIT),
        )

    def test_result_line_has_exactly_the_contract_keys(self):
        line = run.result_line(
            {"wall_s": 1.5, "setup_s": 0.25}, {"wall_s": "s", "setup_s": "s"}, 3, 1
        )
        result = json.loads(line)
        self.assertEqual(
            sorted(result), ["attempted", "correct", "failed", "metrics"]
        )
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"]["wall_s"], {"value": 1.5, "unit": "s"})

    def test_chrome_trace_uses_complete_events_in_microseconds(self):
        trace = chrome_trace([span("r", "phase", 1, 3), span("a", "kernel.cc", 2, 3, "r")])
        first, second = trace["traceEvents"]
        self.assertEqual(first["ph"], "X")
        self.assertEqual((first["ts"], first["dur"]), (0.0, 2e6))
        self.assertEqual(second["cat"], "kernel")
        self.assertEqual(second["args"], {"id": "a", "parent": "r"})


if __name__ == "__main__":
    unittest.main()
