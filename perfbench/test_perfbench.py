"""The benchmark's own tests: python3 perfbench/test_perfbench.py"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import run  # noqa: E402
import tapes  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


class Tapes(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in run.WORKLOADS:
            self.assertEqual(tapes.dumps(tapes.tape(w, 7, 20)),
                             tapes.dumps(tapes.tape(w, 7, 20)), w)

    def test_seed_changes_order_not_work(self):
        for w in ("serve-warm", "serve-cold"):
            a, b = tapes.tape(w, 1, 20), tapes.tape(w, 2, 20)
            self.assertNotEqual(a, b, w)
            self.assertEqual(sorted(map(tapes.dumps, ([x] for x in a))),
                             sorted(map(tapes.dumps, ([x] for x in b))), w)

    def test_fixed_op_count(self):
        for w in run.WORKLOADS:
            self.assertEqual(len({len(tapes.tape(w, s, 20)) for s in range(5)}), 1, w)

    def test_serve_warm_reads_only_the_fill(self):
        fill = {tapes.dumps([op]) for op in tapes.warm_fill()}
        ops = tapes.tape("serve-warm", 3, 20)
        stats = [op for op in ops if op["op"] == "stats"]
        self.assertEqual(len(stats), (len(ops) - len(stats)) // tapes.STATS_EVERY)
        self.assertGreaterEqual(len(ops), 100)
        for op in ops:
            if op["op"] != "stats":
                self.assertIn(tapes.dumps([op]), fill)

    def test_serve_cold_distinct_and_disjoint_from_warmup(self):
        ops = [tapes.dumps([op]) for op in tapes.tape("serve-cold", 3, 20)]
        warm = {tapes.dumps([op]) for op in tapes.cold_warmup()}
        self.assertEqual(len(ops), len(set(ops)))
        self.assertFalse(warm & set(ops))
        self.assertGreaterEqual(len(ops), 100)

    def test_sets_come_from_the_pool(self):
        pool = {(k, n) for k, n in tapes.POOL}
        self.assertEqual({(op["params"]["workload"], op["params"]["sizes"]["n"])
                          for op in tapes.warm_fill() + tapes.runs()}, pool)
        self.assertTrue(set(tapes.CLI_RUNS) <= pool)
        for op in tapes.tape("serve-cold", 3, 20):
            self.assertIn(op["params"]["workload"], {k for k, _ in pool})


class Quantiles(unittest.TestCase):
    def test_sample_count(self):
        self.assertEqual(measure.quantile([3.0, 1.0, 2.0], 0.5), (2.0, 3))
        v, n = measure.quantile([float(x) for x in range(1, 101)], 0.9)
        self.assertEqual(n, 100)
        self.assertAlmostEqual(v, 90.1)
        self.assertEqual(measure.beyond([float(x) for x in range(1, 101)], 0.9), 10)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            measure.quantile([], 0.5)


class Spec(unittest.TestCase):
    def test_names(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        for n in names:
            self.assertRegex(n, NAME)
            self.assertLessEqual(len(n), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_say_why(self):
        s = spec()
        self.assertEqual([w["name"] for w in s["workloads"]], list(run.WORKLOADS))
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"], w)

    def test_metrics(self):
        s = spec()
        e2e = {m["name"]: m for m in s["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(max(m["bound"] for m in e2e.values()), e2e["setup_s"]["bound"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], r"[A-Za-z0-9_/%.-]{1,16}\Z")
            self.assertIn(m["better"], ("lower", "higher"))


if __name__ == "__main__":
    unittest.main()
