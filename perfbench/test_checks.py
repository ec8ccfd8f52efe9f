#!/usr/bin/env python3
"""The benchmark's own tests: every correctness check must reject bad
outputs.

    python3 perfbench/test_checks.py

The value, model and account checks live in the driver (they run on
every reply); `perfbench_driver selftest` feeds them a corrupted value,
a stale value, a missing key, a resurrected key and an unbalanced
account array.  The acknowledgement check, the write-amplification
formula and the median-slice reduction live in run.py and are tested
here directly.  The driver is built into .bench_build/ first.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class AckTotals(unittest.TestCase):
    BEFORE = {"server.puts": 100, "server.dels": 10, "mtm.commits": 500}

    def after(self, puts, dels, commits):
        return {"server.puts": 100 + puts, "server.dels": 10 + dels,
                "mtm.commits": 500 + commits}

    def test_matching_totals_pass(self):
        self.assertEqual(
            run.check_ack_totals(90, self.BEFORE, self.after(80, 10, 95)), "")

    def test_client_acked_fewer_than_server_served(self):
        self.assertIn("!=", run.check_ack_totals(
            89, self.BEFORE, self.after(80, 10, 95)))

    def test_client_acked_more_than_server_served(self):
        self.assertIn("!=", run.check_ack_totals(
            91, self.BEFORE, self.after(80, 10, 95)))

    def test_more_acks_than_commits(self):
        self.assertIn("mtm.commits", run.check_ack_totals(
            90, self.BEFORE, self.after(80, 10, 89)))

    def test_missing_server_counters(self):
        self.assertNotEqual(run.check_ack_totals(90, {}, {}), "")


class WriteAmp(unittest.TestCase):
    def test_counts_streamed_bytes_and_flushed_lines(self):
        before = {"scm.bytes_streamed": 1000, "scm.flushes": 10}
        after = {"scm.bytes_streamed": 1640, "scm.flushes": 20}
        # (640 streamed + 10 lines * 64 B) / 320 B acknowledged
        self.assertEqual(run.write_amp(before, after, 320, "scm."), 4.0)


class Sliced(unittest.TestCase):
    def test_minority_stall_does_not_move_the_median_slice(self):
        quiet = {"ops": 100, "p": 500.0}
        stall = {"ops": 40, "p": 3000.0}
        slices = [quiet] * 6 + [stall] * 4
        s = {"seconds": 0.5, "ops": [x["ops"] for x in slices]}
        for k in ("write_p50_us", "write_p95_us", "write_p99_us",
                  "read_p50_us", "read_p95_us", "read_p99_us"):
            s[k] = [x["p"] for x in slices]
        m = run.sliced(s)
        self.assertEqual(m["ops_per_s"], 200.0)
        self.assertEqual(m["write_p95_us"], 500.0)
        self.assertEqual(m["client.write_p99_us"], 500.0)
        self.assertEqual(m["read_p50_us"], 500.0)


class DriverChecks(unittest.TestCase):
    def test_selftest(self):
        run.build()
        r = subprocess.run([run.DRIVER, "selftest"], capture_output=True,
                           text=True)
        sys.stdout.write(r.stdout)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        for case in ("value byte flipped", "stale value", "missing key",
                     "resurrected key", "unbalanced accounts"):
            self.assertIn(case, r.stdout)


if __name__ == "__main__":
    unittest.main()
