#!/usr/bin/env python3
"""Self-tests of the benchmark program.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; builds like run.py, then runs single units
of every workload (about two minutes on a 4-core host). Checks that:
  * the same seed gives bit-identical simulated results, another seed other inputs;
  * kv_ycsb_a gives the same results with one and two replay threads;
  * no two schemes produce identical simulated results on any workload;
  * the traced replay reproduces System::run (the program reports it);
  * the metric names the program emits are the ones BENCHMARK.json declares.
"""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEED = 7
LABELS = ("WB-GC", "ASIT", "STAR", "Steins-GC", "WB-SC", "Steins-SC")
BINARY = None
_results = {}


def setUpModule():
    global BINARY
    BINARY = run.build()


def result(workload, seed=SEED, trace=0, units=1, extra=(), fresh=False):
    key = (workload, seed, trace, units, tuple(extra))
    if fresh or key not in _results:
        _results[key] = run.run_binary(BINARY, workload, seed, 1, trace,
                                       ["--units", str(units), *extra])
    return _results[key]


def per_scheme(sim):
    """{label: {metric: value}} for the scheme-suffixed simulated values."""
    out = {}
    for name, value in sim.items():
        metric, _, label = name.rpartition(".")
        if label in LABELS:
            out.setdefault(label, {})[metric] = value
    return out


class PerfbenchTest(unittest.TestCase):
    def assertClean(self, res):
        self.assertEqual(res["failed"], 0, res["errors"])
        self.assertTrue(res["consistent"], res["errors"])

    def test_same_seed_is_bit_identical(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a = result(w)
                b = result(w, fresh=True)
                self.assertClean(a)
                self.assertClean(b)
                self.assertEqual(a["sim"], b["sim"])
                self.assertNotEqual(a["sim"], result(w, seed=SEED + 1)["sim"])

    def test_units_repeat_the_same_simulation(self):
        # A second unit must reproduce the first; the program flags it otherwise.
        self.assertClean(result("crash_recover", units=2))

    def test_kv_jobs_do_not_change_results(self):
        one = result("kv_ycsb_a")  # one replay thread is the default
        two = result("kv_ycsb_a", extra=("--kv-jobs", "2"))
        self.assertClean(two)
        self.assertEqual(one["sim"], two["sim"])

    def test_no_two_schemes_are_identical(self):
        for w in run.WORKLOADS:
            schemes = per_scheme(result(w)["sim"])
            self.assertGreaterEqual(len(schemes), 4, w)
            labels = sorted(schemes)
            for i, a in enumerate(labels):
                for b in labels[i + 1:]:
                    with self.subTest(workload=w, pair=(a, b)):
                        self.assertNotEqual(schemes[a], schemes[b])

    def test_traced_replay_matches_system_run(self):
        for w in ("spec_mcf", "persist_hash", "crash_recover"):
            with self.subTest(workload=w):
                res = result(w, trace=1, units=2)
                self.assertClean(res)
                self.assertIn("bench.trace_overhead_frac", res["per_layer"])

    def test_metric_names_match_benchmark_json(self):
        e2e, layer = run.declared_metrics()
        emitted_layer = set()
        for w in run.WORKLOADS:
            res = result(w, trace=0 if w == "kv_ycsb_a" else 1,
                         units=1 if w == "kv_ycsb_a" else 2)
            self.assertEqual(set(res["end_to_end"]), set(e2e), w)
            self.assertTrue(all(v != 0 for v in res["end_to_end"].values()), w)
            emitted_layer |= set(res["per_layer"])
        self.assertEqual(emitted_layer, set(layer))


if __name__ == "__main__":
    unittest.main()
