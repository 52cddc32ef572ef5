"""Tests of the benchmark's own code: oracles, span arithmetic, output
checks and the agreement of BENCHMARK.json with the code.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, calls, self_times_ns, top_level_ns  # noqa: E402


class OracleTest(unittest.TestCase):
    def test_f_vectors(self):
        self.assertEqual(oracles.f_vector(3), [1])
        self.assertEqual(oracles.f_vector(4), [1, 3])
        self.assertEqual(oracles.f_vector(5), [1, 10, 15])
        self.assertEqual(oracles.f_vector(6), [1, 25, 105, 105])

    def test_totals_are_schroeders_fourth_problem(self):
        self.assertEqual(
            [oracles.total_cells(n) for n in range(3, 10)],
            [1, 4, 26, 236, 2752, 39208, 660032],
        )

    def test_maximal_cells(self):
        self.assertEqual(
            [oracles.count_maximal(n) for n in range(3, 9)], [1, 3, 15, 105, 945, 10395]
        )
        for n in range(3, 12):
            self.assertEqual(oracles.f_vector(n)[-1], oracles.count_maximal(n))

    def test_rays(self):
        for n in range(4, 12):
            self.assertEqual(oracles.f_vector(n)[1], oracles.count_rays(n))

    def test_aut_order(self):
        self.assertEqual(oracles.aut_order(4), 6)
        self.assertEqual(oracles.aut_order(5), 120)
        self.assertEqual(oracles.aut_order(7), 5040)

    def test_rejects_small_n(self):
        for fn in (oracles.f_vector, oracles.count_maximal):
            with self.assertRaises(ValueError):
                fn(2)
        with self.assertRaises(ValueError):
            oracles.aut_order(3)


class SpanTest(unittest.TestCase):
    # a [0, 100) holds b [10, 40) and c [50, 70); c holds b [55, 60);
    # d [100, 130) is a second top-level span
    SPANS = [
        Span("a", 0, 100, None),
        Span("b", 10, 40, 0),
        Span("c", 50, 70, 0),
        Span("b", 55, 60, 2),
        Span("d", 100, 130, None),
    ]

    def test_self_times(self):
        self.assertEqual(
            self_times_ns(self.SPANS), {"a": 50, "b": 35, "c": 15, "d": 30}
        )

    def test_self_times_add_up_to_top_level(self):
        self.assertEqual(sum(self_times_ns(self.SPANS).values()), top_level_ns(self.SPANS))
        self.assertEqual(top_level_ns(self.SPANS), 130)

    def test_calls(self):
        self.assertEqual(calls(self.SPANS), {"a": 1, "b": 2, "c": 1, "d": 1})

    def test_tracer_records_parents(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
            with tr.span("inner"):
                pass
        with tr.span("next"):
            pass
        self.assertEqual(
            [(s.name, s.parent) for s in tr.spans],
            [("outer", None), ("inner", 0), ("inner", 0), ("next", None)],
        )
        for s in tr.spans:
            self.assertLessEqual(s.start_ns, s.end_ns)
        outer, first, second, _ = tr.spans
        self.assertLessEqual(outer.start_ns, first.start_ns)
        self.assertLessEqual(first.end_ns, second.start_ns)
        self.assertLessEqual(second.end_ns, outer.end_ns)

    def test_tracer_closes_span_on_error(self):
        tr = Tracer()
        with self.assertRaises(KeyError):
            with tr.span("outer"):
                raise KeyError("x")
        with tr.span("after"):
            pass
        self.assertEqual([s.parent for s in tr.spans], [None, None])


class CheckTest(unittest.TestCase):
    @staticmethod
    def _aut_output(code=0, verdict="PASS", **payload):
        body = {
            "order": 5040,
            "expected": 5040,
            "rays": [[1, 2]] * 56,
            "reconstruction_ok": True,
            "sigma_of_generator": [[2, 1, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7, 1]],
            **payload,
        }
        return code, json.dumps({"verdict": verdict, "payload": body})

    def test_aut_check_accepts_correct_output(self):
        self.assertEqual(workloads.check_aut(self._aut_output()), [])

    def test_aut_check_flags_each_defect(self):
        for bad in (
            self._aut_output(code=1),
            self._aut_output(verdict="FAIL"),
            self._aut_output(order=2520),
            self._aut_output(expected=5041),
            self._aut_output(rays=[[1, 2]] * 55),
            self._aut_output(reconstruction_ok=False),
            self._aut_output(sigma_of_generator=[None]),
            self._aut_output(sigma_of_generator=[[1, 1, 3, 4, 5, 6, 7]]),
        ):
            self.assertNotEqual(workloads.check_aut(bad), [], bad)

    def test_dedup_terms_match_leaf_insertion_counts(self):
        # each (stratum, one-edge expansion) pair is one (child, new edge)
        # pair, so dimension m generates (m+1) T(n, m+1) children
        for n in (4, 5, 6):
            fv = oracles.f_vector(n)
            kept = sum(fv[1:])
            generated = sum(m * count for m, count in enumerate(fv))
            catalog = workloads.enumerate_strata(n)
            self.assertEqual(workloads._dedup_terms(catalog), (kept, generated))

    def test_tail_percentile(self):
        self.assertIsNone(run.tail_percentile([1.0] * 19))
        self.assertEqual(run.tail_percentile([float(i) for i in range(100)]), {"p": 90.0, "value": 89.0})
        self.assertEqual(run.tail_percentile([float(i) for i in range(1000)])["p"], 99.0)


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_workloads_match_code(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))

    def test_per_layer_metrics_match_code(self):
        r = workloads.Replay(Tracer())
        emitted = workloads.layer_metrics(r, 1.0)
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, {k: unit for k, (_, unit) in emitted.items()})

    def test_end_to_end_metrics(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"})


if __name__ == "__main__":
    unittest.main()
