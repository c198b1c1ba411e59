#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/test_run.py

The fingerprint and failure-accounting tests build and run the
benchmark's binaries (as run.py does); the rest are pure Python.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def built():
    error = run.build()
    if error:
        raise unittest.SkipTest("benchmark build failed: " + error[:200])


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            a = run.workload_inputs(workload, 7, 12, True)
            b = run.workload_inputs(workload, 7, 12, True)
            c = run.workload_inputs(workload, 8, 12, True)
            self.assertEqual(a, b, workload)
            self.assertNotEqual(a, c, workload)
            self.assertEqual(a["probes"], c["probes"], workload)

    def test_serve_hot_pool_fits_the_caches(self):
        pool = run.hot_pool(run.workload_rng("serve_hot", 1, "pool"))
        self.assertEqual(len(pool), 256)
        shapes = {(r["op"], r["model"], r["batch"], r.get("past"),
                   r.get("dtype")) for r in pool}
        self.assertLessEqual(len(shapes), 128)  # graph cache per shard

    def test_serve_unique_never_repeats_a_fingerprint(self):
        inputs = run.workload_inputs("serve_unique", 3, 30, True)
        requests = (inputs["warm"] + [r for _, r in inputs["open"]] +
                    inputs["saturation"] + inputs["saturation_traced"] +
                    inputs["probes"])
        built()
        path = os.path.join(run.BUILD, "test-unique.requests")
        run.write_requests(path, requests)
        out = subprocess.run([run.CLIENT, "fingerprints", "--requests",
                              path], capture_output=True, text=True,
                             check=True).stdout.split("\n")[:-1]
        os.remove(path)
        self.assertEqual(len(out), len(requests))
        self.assertEqual(len(set(out)), len(out))


class ScheduleTest(unittest.TestCase):
    def test_open_loop_schedule(self):
        rate, seconds = 500.0, 20.0
        a = run.open_loop_schedule(run.workload_rng("w", 1, "a"), rate,
                                   seconds)
        b = run.open_loop_schedule(run.workload_rng("w", 1, "a"), rate,
                                   seconds)
        self.assertEqual(a, b)
        self.assertEqual(a, sorted(a))
        self.assertGreater(a[0], 0)
        self.assertLess(a[-1], seconds * 1e6)
        expected = rate * seconds
        self.assertLess(abs(len(a) - expected), 5 * expected ** 0.5)
        gaps = [y - x for x, y in zip(a, a[1:])]
        self.assertAlmostEqual(sum(gaps) / len(gaps) / 1e6, 1 / rate,
                               delta=0.05 / rate)
        with self.assertRaises(ValueError):
            run.open_loop_schedule(run.workload_rng("w", 1, "a"), 0, 1)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile(values, 0.5), 1)
        self.assertEqual(run.percentile([7.5], 99), 7.5)
        self.assertEqual(run.percentile([1, 2, 3, 4], 50), 2)
        for bad in ([], ):
            with self.assertRaises(ValueError):
                run.percentile(bad, 50)
        with self.assertRaises(ValueError):
            run.percentile([1], 0)

    def test_windows(self):
        done = [100e3, 200e3, 600e3, 1100e3, 1900e3, 2500e3]
        self.assertEqual(run.window_rate(done, 2.0, 1.0), [3.0, 2.0])
        lat = [1, 2, 3, 10, 20, 30]
        due = [0, 1e5, 2e5, 1.1e6, 1.2e6, 2.2e6]
        self.assertEqual(run.window_percentiles(lat, due, 2.0, 1.0, 50),
                         [2, 10])
        self.assertEqual(run.window_percentiles(lat, due, 4.0, 1.0, 50),
                         [2, 10, 30, None])

    def test_quiet_windows(self):
        limit = run.STEAL_LIMIT
        values = [1, 2, 3, 4, 5, 6]
        steals = [0, limit, 0, 0.5, None, 0.3]
        self.assertEqual(run.quiet(values, steals), [1, 2, 3])
        # Too few quiet windows: the least-stolen third (at least three).
        self.assertEqual(run.quiet(values, [0.5, 0.4, 0.3, 0.6, 0.5, 0]),
                         [2, 3, 6])
        self.assertEqual(run.quiet(values, [0.5] * 5 + [None]), [1, 2, 3])
        self.assertEqual(run.quiet([1, 2], [0.5, 0.5]), [1, 2])
        self.assertEqual(run.quiet([None, 1, 2, 3], [0, 0, 0, 0]),
                         [1, 2, 3])


class FailureAccountingTest(unittest.TestCase):
    def test_killed_server_counts_failures(self):
        built()
        real_drive = run.drive

        def drive_and_kill(server, rundir, name, *args, **kwargs):
            """SIGKILL the server one second into the saturation phase."""
            if name != "saturation":
                return real_drive(server, rundir, name, *args, **kwargs)
            killer = threading.Timer(1.0, server.kill)
            killer.start()
            try:
                return real_drive(server, rundir, name, *args, **kwargs)
            finally:
                killer.cancel()
                killer.join()

        out = io.StringIO()
        with mock.patch.object(run, "drive", drive_and_kill), \
                contextlib.redirect_stdout(out):
            code = run.main(["--workload", "plan", "--seed", "3",
                             "--seconds", "4"])
        lines = out.getvalue().strip().split("\n")
        result = json.loads(lines[-1])
        ledger = json.loads(lines[-2][len("ledger: "):])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])
        self.assertEqual(set(result["metrics"]),
                         {name for name, _ in run.END_TO_END})
        self.assertIn("failed_frac", ledger["metrics"])
        self.assertGreater(ledger["metrics"]["failed_frac"]["value"], 0)
        self.assertTrue(any("SIGKILL" in d["how"]
                            for d in ledger["deaths"]), ledger["deaths"])
        self.assertEqual(run.Server.live, [])


if __name__ == "__main__":
    unittest.main()
