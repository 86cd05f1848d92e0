#!/usr/bin/env python3
"""Self-tests of the fleet benchmark: its arithmetic against golden values,
its output checks, and the determinism of the input generator.

    python3 perfbench/test_benchlib.py
"""

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(benchlib.percentile(values, 0.5), 50)
        self.assertEqual(benchlib.percentile(values, 0.9), 90)
        self.assertEqual(benchlib.percentile(values, 1.0), 100)
        self.assertEqual(benchlib.percentile([3.0, 1.0, 2.0], 0.5), 2.0)
        self.assertEqual(benchlib.percentile([7.0], 0.9), 7.0)

    def test_p90_leaves_ten_samples_beyond_it_at_100_jobs(self):
        values = list(range(1, 101))
        p90 = benchlib.percentile(values, 0.9)
        self.assertEqual(sum(1 for v in values if v > p90), 10)


class SelfTimes(unittest.TestCase):
    # support::profile::fold rows: [stack, total_s, self_s, count]
    ROWS = [
        ["driver", 10.0, 1.0, 1],
        ["driver;device", 9.0, 0.5, 2],
        ["driver;device;phase.fields", 4.0, 1.5, 2],
        ["driver;device;phase.fields;valueflow.solve", 2.0, 2.0, 3],
        ["driver;device;phase.fields;lint.extra", 0.5, 0.5, 1],
        ["driver;device;phase.pinpoint", 2.0, 1.0, 1],
        ["driver;device;phase.pinpoint;valueflow.solve", 1.0, 1.0, 1],
        ["driver;device;report.emit", 1.5, 1.5, 2],
        ["driver;device;stray", 1.0, 1.0, 1],
    ]
    NAMES = {"phase.fields": "callgraph.build_s",
             "valueflow.solve": "valueflow.solve_s",
             "phase.pinpoint": "pinpoint.busy_s",
             "report.emit": "report.emit_s"}

    def test_by_leaf_golden(self):
        leaf = benchlib.by_leaf(self.ROWS)
        self.assertEqual(leaf["valueflow.solve"],
                         {"total_s": 3.0, "self_s": 3.0, "count": 4})
        self.assertEqual(leaf["device"]["total_s"], 9.0)

    def test_attribution_golden(self):
        groups = benchlib.attribute_self(self.ROWS, self.NAMES)
        self.assertAlmostEqual(groups["valueflow.solve_s"], 3.0)
        # an unnamed span counts toward its nearest named ancestor ...
        self.assertAlmostEqual(groups["callgraph.build_s"], 2.0)
        self.assertAlmostEqual(groups["report.emit_s"], 1.5)
        self.assertAlmostEqual(groups["pinpoint.busy_s"], 1.0)
        # ... and to the glue without one
        self.assertAlmostEqual(groups[None], 1.0 + 0.5 + 1.0)  # driver, device, stray

    def test_self_times_sum_to_root_total(self):
        groups = benchlib.attribute_self(self.ROWS, self.NAMES)
        self.assertAlmostEqual(sum(groups.values()), 10.0)


class OpenLoop(unittest.TestCase):
    def test_wait_counts_from_due_time_and_lateness_is_reported(self):
        jobs = [
            # sent 50 ms late: the wait the stall imposed still counts
            {"due": 0.000, "sent": 0.050, "accepted": 0.051, "done": 0.071},
            # arrives while job 1 is served: waits in the FIFO queue
            {"due": 0.060, "sent": 0.060, "accepted": 0.061, "done": 0.090},
        ]
        t = benchlib.job_timings(jobs)
        self.assertAlmostEqual(t[0]["late_ms"], 50.0)
        self.assertAlmostEqual(t[0]["queue_wait_ms"], 51.0)
        self.assertAlmostEqual(t[0]["service_ms"], 20.0)
        self.assertAlmostEqual(t[1]["late_ms"], 0.0)
        self.assertAlmostEqual(t[1]["queue_wait_ms"], 11.0)
        self.assertAlmostEqual(t[1]["service_ms"], 19.0)

    def test_backlog(self):
        jobs = [{"sent": 0.0, "done": 0.5}, {"sent": 0.1, "done": 0.6},
                {"sent": 0.2, "done": 0.3}]
        self.assertEqual(benchlib.backlog_max(jobs), 3)
        drained = [{"sent": float(i), "done": i + 0.5} for i in range(20)]
        self.assertEqual(benchlib.backlog_max(drained), 1)

    def test_schedule_is_seeded_and_open_loop(self):
        a = benchlib.schedule(5, 5, rate=20.0, jobs=4)
        self.assertEqual(a, benchlib.schedule(5, 5, rate=20.0, jobs=4))
        self.assertNotEqual(benchlib.schedule(5, 1000),
                            benchlib.schedule(6, 1000))
        self.assertEqual([off for off, _img in a], [0.0, 0.05, 0.1, 0.15])
        start = a[0][1]
        self.assertEqual([img for _off, img in a],
                         [(start + k) % 5 for k in range(4)])


class FakeInputs:
    def __init__(self, truth):
        self._truth = truth

    def truth(self, entry):
        return self._truth[entry["key"]]


REPORT = {
    "format": "firmres-report",
    "device_id": 3,
    "device_cloud_executable": "/usr/bin/cloudd",
    "messages": [{"endpoint_path": "/api/bind", "fields": []}],
    "mft_decisions": [{"delivery_address": "0x10", "kept": True},
                      {"delivery_address": "0x20", "kept": False}],
    "timings": {"total_s": 0.01},
}
TRUTH = {"device_cloud_executable": "/usr/bin/cloudd",
         "messages": [{"delivery_address": 16}, {"delivery_address": 32}]}
ENTRY = {"key": "std-03-v00", "device_id": 3}


class OutputChecks(unittest.TestCase):
    def check(self, report):
        tally = run.Tally()
        expected = {ENTRY["key"]: benchlib.digest(REPORT)}
        problems, _ = run.check_reports([report], [ENTRY],
                                        FakeInputs({ENTRY["key"]: TRUTH}),
                                        expected)
        run.record(tally, [ENTRY], problems)
        return tally

    def test_correct_report_passes(self):
        tally = self.check(json.loads(json.dumps(REPORT)))
        self.assertEqual((tally.attempted, tally.failed), (1, 0))

    def test_digest_ignores_timings(self):
        other = dict(REPORT, timings={"total_s": 9.0})
        self.assertEqual(benchlib.digest(other), benchlib.digest(REPORT))

    def test_corrupted_report_is_counted_as_failed(self):
        bad = json.loads(json.dumps(REPORT))
        bad["messages"][0]["endpoint_path"] = "/api/bind2"
        tally = self.check(bad)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("digest", tally.problems[0])

    def test_ground_truth_mismatch_is_counted_as_failed(self):
        bad = json.loads(json.dumps(REPORT))
        bad["mft_decisions"].pop()
        tally = self.check(bad)
        self.assertEqual(tally.failed, 1)
        self.assertIn("0 decisions for truth callsite 0x20", tally.problems[0])
        bad = dict(REPORT, device_cloud_executable="")
        self.assertEqual(self.check(bad).failed, 1)

    def test_missing_report_and_failed_run(self):
        self.assertEqual(self.check(None).failed, 1)
        tally = run.Tally()
        run.record(tally, [ENTRY, ENTRY], {}, ["analyze exited 1"])
        self.assertEqual((tally.attempted, tally.failed), (2, 2))

    def test_cpu_beyond_jobs_is_flagged(self):
        self.assertEqual(run.check_cpu(3.9, 1.0, "x"), [])
        self.assertEqual(len(run.check_cpu(7.8, 1.0, "x")), 1)

    def test_batch_order(self):
        self.assertEqual(benchlib.batch_order([3, 1, 3, 2]), [1, 3, 0, 2])


class Generator(unittest.TestCase):
    """Builds the generator (incrementally) and runs it twice per seed."""

    def test_deterministic_per_seed(self):
        run.build()
        tmp = Path(tempfile.mkdtemp(dir=run.WORK.parent))
        try:
            for workload in ("fleet-cold", "fleet-update"):
                digests = []
                for k, seed in enumerate((3, 3, 4)):
                    out = tmp / ("%s-%d" % (workload, k))
                    run.generate(workload, seed, out)
                    digests.append(run.tree_digest(out))
                self.assertEqual(digests[0], digests[1], workload)
                self.assertNotEqual(digests[0], digests[2], workload)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
