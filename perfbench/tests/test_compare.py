"""Unit tests of the A/B helper (compare.py)."""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "lat", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "qps", "unit": "req/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [],
}


def result(lat, qps, setup=1.0):
    return {"workload": "w", "traced": False,
            "end_to_end": {"setup_s": {"value": setup, "unit": "s"},
                           "lat": {"value": lat, "unit": "us"},
                           "qps": {"value": qps, "unit": "req/s"}},
            "reported": {"fail_ratio": {"value": 0.0, "unit": "ratio"}}}


class SummarizeTest(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        med, q1, q3, spread = compare.summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(spread, 1.0)


class VerdictTest(unittest.TestCase):
    def run_compare(self, a, b):
        out = io.StringIO()
        ok = compare.compare(SPEC, a, b, per_layer=False, out=out)
        return ok, out.getvalue()

    def test_same_code_agrees(self):
        a = [result(100 + i % 3, 1000 - i % 3) for i in range(10)]
        b = [result(101 + i % 3, 1001 - i % 3) for i in range(10)]
        ok, text = self.run_compare(a, b)
        self.assertTrue(ok, text)
        self.assertIn("fail_ratio", text)

    def test_worse_in_either_direction(self):
        a = [result(100, 1000) for _ in range(10)]
        ok, text = self.run_compare(a, [result(120, 1000) for _ in range(10)])
        self.assertFalse(ok)
        self.assertIn("WORSE", text)
        ok, _ = self.run_compare(a, [result(100, 850) for _ in range(10)])
        self.assertFalse(ok)
        ok, _ = self.run_compare(a, [result(50, 2000) for _ in range(10)])
        self.assertTrue(ok)  # better by any amount agrees.

    def test_noisy_side_is_not_a_pass(self):
        a = [result(100, 1000) for _ in range(10)]
        b = [result(v, 1000) for v in (50, 60, 70, 100, 100, 100, 130, 140,
                                       150, 160)]
        ok, text = self.run_compare(a, b)
        self.assertFalse(ok)
        self.assertIn("noisy", text)

    def test_noisy_setup_is_not_a_pass(self):
        a = [result(100, 1000, setup=s) for s in (1, 1, 1, 2, 2, 2, 3, 3, 1, 2)]
        ok, text = self.run_compare(a, a)
        self.assertFalse(ok)
        self.assertIn("noisy", text)

    def test_loads_directories(self):
        with tempfile.TemporaryDirectory() as d:
            for i in range(3):
                with open(os.path.join(d, "r%d.json" % i), "w") as f:
                    json.dump(result(100, 1000), f)
            with open(os.path.join(d, "x.trace.json"), "w") as f:
                f.write("{}")
            self.assertEqual(len(compare.load_results(d)), 3)


if __name__ == "__main__":
    unittest.main()
