#!/usr/bin/env python3
"""Tests of run.py and of the metric list against BENCHMARK.json.

    python3 perfbench/test_perfbench.py

The C++ helpers have their own tests (perfbench_tests; see README.md).
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def header_metrics(array):
    """(name, unit) pairs of one array in src/metric_names.h."""
    text = (HERE / "src" / "metric_names.h").read_text()
    body = text[text.index(array):]
    body = body[:body.index("};")]
    return re.findall(r'\{"([^"]+)", "([^"]+)"\}', body)


class MetricNames(unittest.TestCase):
    def test_end_to_end_names_and_units_match(self):
        self.assertEqual(
            sorted(header_metrics("kEndToEnd")),
            sorted((m["name"], m["unit"]) for m in SPEC["end_to_end"]))

    def test_per_layer_names_and_units_match(self):
        printed = header_metrics("kPerLayer") + [(run.OVERHEAD, "%")]
        self.assertEqual(
            sorted(printed),
            sorted((m["name"], m["unit"]) for m in SPEC["per_layer"]))

    def test_workloads_match(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(run.WORKLOADS))


class BenchmarkJson(unittest.TestCase):
    def test_contract(self):
        self.assertEqual(sorted(SPEC), sorted(
            ["command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"]))
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        for w in SPEC["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in SPEC["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertRegex(m["unit"], UNIT)
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
            self.assertRegex(m["unit"], UNIT)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class CheckResult(unittest.TestCase):
    def result(self, **metrics):
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {k: {"value": v, "unit": "s"}
                            for k, v in metrics.items()}}

    def test_accepts_the_expected_metrics(self):
        self.assertEqual(run.check_result(self.result(a=1.0, b=2.5),
                                          {"a": "s", "b": "s"}, False), [])

    def test_flags_missing_extra_zero_and_unit(self):
        problems = run.check_result(self.result(a=0.0, c=1.0),
                                    {"a": "s", "b": "ms"}, False)
        self.assertTrue(any("missing ['b']" in p for p in problems))
        self.assertTrue(any("extra ['c']" in p for p in problems))
        self.assertTrue(any("a is 0" in p for p in problems))
        problems = run.check_result(self.result(b=1.0), {"b": "ms"}, False)
        self.assertTrue(any("unit" in p for p in problems))

    def test_traced_metrics_may_be_zero(self):
        self.assertEqual(run.check_result(self.result(a=0.0), {"a": "s"},
                                          True), [])

    def test_flags_nothing_attempted_and_extra_keys(self):
        result = self.result(a=1.0)
        result["attempted"] = 0
        result["extra"] = 1
        problems = run.check_result(result, {"a": "s"}, False)
        self.assertTrue(any("attempted" in p for p in problems))
        self.assertTrue(any("keys" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
