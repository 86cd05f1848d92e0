"""Arithmetic and output checks of the fleet benchmark (perfbench/README.md).

Everything here is a pure function of its arguments, so test_benchlib.py can
pin it with golden values.
"""

import hashlib
import json
import math
import random

# The open-loop serve session of fleet-cold's traced run: jobs per second
# and job count. At 40 jobs/s the single serve worker is about half busy, so
# queueing shows beside service time.
SERVE_RATE = 40.0
SERVE_JOBS = 200


def schedule(seed, pool_size, rate=SERVE_RATE, jobs=SERVE_JOBS):
    """Evenly spaced arrivals: a list of (offset_s, image index).

    Firmware drops arrive on the schedule regardless of replies (open loop).
    Jobs walk the pool, which fleetgen writes copy-major, from a seeded
    start, so the profiles are drawn in equal shares and seeds differ in the
    variants they draw, not in the mix.
    """
    start = random.Random(seed * 1000003 + 17).randrange(pool_size)
    return [(k / rate, (start + k) % pool_size) for k in range(jobs)]


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def by_leaf(rows):
    """Per span name: total_s, self_s and count summed over every stack
    that ends in it. `rows` are support::profile::fold entries as
    [stack, total_s, self_s, count], the stack's names joined by ';'."""
    out = {}
    for stack, total, self_s, count in rows:
        agg = out.setdefault(stack.split(";")[-1],
                             {"total_s": 0.0, "self_s": 0.0, "count": 0})
        agg["total_s"] += total
        agg["self_s"] += self_s
        agg["count"] += count
    return out


def attribute_self(rows, names):
    """Self time per group: each row's self time goes to the group that
    `names` (span name -> group) gives its stack's innermost named span,
    and to the group None when no span of the stack is named."""
    out = {}
    for stack, _total, self_s, _count in rows:
        group = next((names[n] for n in reversed(stack.split(";"))
                      if n in names), None)
        out[group] = out.get(group, 0.0) + self_s
    return out


# ---------------------------------------------------------------------------
# Open-loop accounting
# ---------------------------------------------------------------------------

def job_timings(jobs):
    """Per job: queue wait (from the job's due time) and service time in
    ms, and the lateness of the sender.

    `jobs` lists dicts with `due`, `sent`, `accepted` and `done` times in
    seconds, in submission order. The serve worker drains jobs FIFO one at a
    time, so job k starts when it was accepted or when job k-1 finished,
    whichever is later.
    """
    out = []
    prev_done = -math.inf
    for j in jobs:
        start = max(j["accepted"], prev_done)
        out.append({
            "queue_wait_ms": (start - j["due"]) * 1e3,
            "service_ms": (j["done"] - start) * 1e3,
            "late_ms": (j["sent"] - j["due"]) * 1e3,
        })
        prev_done = j["done"]
    return out


def backlog_max(jobs):
    """Most jobs sent but not yet done at any instant."""
    events = [(j["sent"], 1) for j in jobs] + [(j["done"], -1) for j in jobs]
    events.sort(key=lambda e: (e[0], e[1]))
    depth = best = 0
    for _t, d in events:
        depth += d
        best = max(best, depth)
    return best


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def digest(report):
    """Digest of a report with its timings block removed."""
    doc = {k: v for k, v in report.items() if k != "timings"}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def truth_problems(report, truth):
    """Ground-truth mismatches of one report against its manifest's truth:
    the device-cloud executable, and exactly one MFT decision per truth
    delivery callsite."""
    problems = []
    if report.get("device_cloud_executable") != truth["device_cloud_executable"]:
        problems.append("device_cloud_executable %r != truth %r" % (
            report.get("device_cloud_executable"),
            truth["device_cloud_executable"]))
    seen = {}
    for d in report.get("mft_decisions", []):
        addr = int(d["delivery_address"], 16)
        seen[addr] = seen.get(addr, 0) + 1
    for m in truth["messages"]:
        n = seen.get(m["delivery_address"], 0)
        if n != 1:
            problems.append("%d decisions for truth callsite 0x%x" % (
                n, m["delivery_address"]))
    return problems


def batch_order(device_ids):
    """Image index of each report of a multi-image `firmres analyze --json`:
    reports come in ascending device id, ties in argument order."""
    return sorted(range(len(device_ids)), key=lambda i: device_ids[i])


def check_report(report, expected_digest, truth, device_id):
    """Every problem with one report; an empty list means it is correct."""
    problems = []
    if report.get("device_id") != device_id:
        problems.append("device_id %r != %r" % (report.get("device_id"),
                                                device_id))
    problems += truth_problems(report, truth)
    got = digest(report)
    if expected_digest is None:
        problems.append("no recorded digest")
    elif got != expected_digest:
        problems.append("digest %s != recorded %s" % (got, expected_digest))
    return problems
