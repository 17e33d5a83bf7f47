"""Tests of the benchmark's arithmetic and of its input generator.

    python3 -m unittest perfbench/test_perfbench.py

Run from the root of the repository: the generator test builds
perfbench/echo_bench.exe with dune first.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 95), 95)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(stats.percentile([7.0], 95), 7.0)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 1), 1)

    def test_percentile_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)

    def test_median(self):
        self.assertEqual(stats.median([5, 1, 3]), 3)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_beyond_counts_the_tail(self):
        self.assertEqual(stats.beyond(200, 95), 10)
        self.assertEqual(stats.beyond(199, 95), 9)
        self.assertEqual(stats.beyond(5, 95), 0)

    def test_min_jobs_leave_ten_beyond_the_p95(self):
        self.assertGreaterEqual(stats.beyond(run.SERVE_MIN_JOBS, 95), 10)

    def test_cal_scale_turns_seconds_into_reference_seconds(self):
        self.assertEqual(run.cal_scale([run.CAL_REF_S] * 3), 1.0)
        # a host running the unit at half speed halves every time
        self.assertEqual(run.cal_scale([2 * run.CAL_REF_S, 2 * run.CAL_REF_S, 9.0]), 0.5)

    def test_ratio(self):
        self.assertEqual(stats.ratio(3, 4), 0.75)
        self.assertEqual(stats.ratio(0, 0), 0.0)


def served_job(i, kind="edit", dedup=False, latency=0.2, queue=0.05,
               stages=None, ok=True):
    return {
        "id": "s0-%d" % i, "kind": kind, "ok": ok, "dedup": dedup,
        "latency_s": latency, "queue_s": queue,
        "stages": {"parse": 0.03, "impact": 0.05, "prove": 0.04} if stages is None else stages,
        "vcs": 100, "carried": 90, "cache_hits": 8, "cache_misses": 2,
        "reproved": 2, "prover_attempts": 3,
    }


# the host ran the calibration unit at half the reference speed
HALF_SPEED = [2 * run.CAL_REF_S] * 3

SERVE_OUT = {"setup_s": [2.0, 3.0, 2.5], "cpu_s": 4.0, "active_s": 10.0,
             "cal_unit_s": HALF_SPEED, "peak_rss_kb": 2048, "retries": 0,
             "worker_crashes": 0}


def declared(kind):
    with open(os.path.join(os.path.dirname(run.__file__), "..", "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


class MetricsTest(unittest.TestCase):
    def test_serve_metrics(self):
        jobs = [served_job(i) for i in range(8)] + [
            served_job(8, kind="resubmit", dedup=True, latency=0.01, queue=None, stages={}),
            served_job(9, ok=False)]
        m = run.serve_metrics(SERVE_OUT, jobs)
        self.assertEqual(set(m), declared("end_to_end"))
        # every time is halved into reference seconds, the rate doubled
        self.assertEqual(m["setup_s"], 1.25)
        self.assertEqual(m["latency_p50_s"], 0.1)
        self.assertEqual(m["verdict_s"], 0.1)
        self.assertEqual(m["jobs_per_s"], 2.0)
        self.assertEqual(m["cpu_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["ok_ratio"], 0.9)

    def test_serve_layers_and_closure(self):
        jobs = [served_job(0), served_job(1, kind="fresh", stages={"parse": 0.03, "prove": 0.04}),
                served_job(2, kind="resubmit", dedup=True, latency=0.01, queue=None, stages={})]
        layers, problems = run.serve_layers(SERVE_OUT, jobs)
        self.assertEqual(problems, [])
        self.assertLessEqual(set(layers), declared("per_layer"))
        self.assertAlmostEqual(layers["serve.overhead_s"], (0.03 + 0.08) / 2)
        self.assertAlmostEqual(layers["serve.dedup_ratio"], 1 / 3)
        self.assertAlmostEqual(layers["carry.ratio"], 0.9)
        self.assertAlmostEqual(layers["cache.hit_ratio"], 0.8)
        self.assertEqual(layers["serve.impact_s"], 0.05)
        self.assertEqual(layers["kind.resubmit.p50_s"], 0.01)
        late = served_job(3, latency=0.1, queue=0.05)
        _, problems = run.serve_layers(SERVE_OUT, [late])
        self.assertEqual(len(problems), 1)

    def test_aes_metrics(self):
        runs = [{"verdict_s": v, "wall": v + 0.1, "cpu": 2 * v, "vm_hwm_kb": 1024,
                 "setup": 0.01, "correct": True} for v in (7.0, 8.0, 9.0)]
        m = run.aes_metrics(runs, [0.01, 0.02, 0.03, 0.04], HALF_SPEED)
        self.assertEqual(set(m), declared("end_to_end"))
        self.assertEqual(m["verdict_s"], 4.0)
        self.assertEqual(m["cpu_s"], 8.0)
        self.assertEqual(m["latency_p95_s"], 4.05)
        self.assertAlmostEqual(m["jobs_per_s"], 1 / 4.05)
        self.assertEqual(m["setup_s"], 0.0125)
        self.assertEqual(m["ok_ratio"], 1.0)

    def test_aes_layers_close(self):
        traced = {
            "wall_s": 10.0, "jobs": 2,
            "spans": {"refactor": {"s": 5.0, "alloc_mw": 1.0},
                      "certify-gate": {"s": 0.1, "alloc_mw": 0.0},
                      "annotate": {"s": 0.1, "alloc_mw": 0.0},
                      "vcgen": {"s": 0.1, "alloc_mw": 0.0},
                      "prove": {"s": 2.0, "alloc_mw": 1.0},
                      "extract": {"s": 0.1, "alloc_mw": 0.0},
                      "implication": {"s": 2.5, "alloc_mw": 1.0}},
            "counts": {"refactor.steps": 59},
            "certify.vc_s": 0.5, "certify.oracle_s": 3.0,
            "prover.busy_s": 3.0, "prover.tail_s": 0.5, "cache.save_s": 0.01,
        }
        layers = run.aes_layers(traced)
        self.assertAlmostEqual(layers["refactor.s"], 1.5)
        self.assertAlmostEqual(layers["certify.s"], 3.6)
        self.assertAlmostEqual(layers["other.s"], 0.1)
        self.assertAlmostEqual(layers["farm.efficiency"], 0.75)
        self.assertEqual(run.aes_closure(traced, layers), [])
        traced["wall_s"] = 20.0
        self.assertNotEqual(run.aes_closure(traced, run.aes_layers(traced)), [])


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def gen(self, seed):
        return subprocess.run([run.EXE, "gen", "--seed", str(seed), "--sessions", "3",
                               "--steps", "40"], check=True, capture_output=True).stdout

    def test_same_seed_same_stream(self):
        a, b = self.gen(5), self.gen(5)
        self.assertEqual(a, b)
        self.assertIn(b"share edit ", a)
        self.assertNotEqual(a, self.gen(6))
