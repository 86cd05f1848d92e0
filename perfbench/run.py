#!/usr/bin/env python3
"""Fleet benchmark of the firmres CLI (perfbench/README.md).

    python3 perfbench/run.py --workload fleet-cold --seed 1 --seconds 30 --trace 0

Builds firmres and the benchmark's two helpers from source under
.bench_build/, generates the workload's inputs from the seed, drives the real
`firmres` binary (--trace 0: end-to-end metrics) or the traced in-process
driver (--trace 1: per-layer metrics), checks every output, and prints one
line per metric followed by a JSON result line. Exits non-zero when an
output check fails.

    python3 perfbench/run.py --record-golden    re-record golden_digests.json
    python3 perfbench/run.py --self-test        run test_benchlib.py
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
FIRMRES = BUILD / "firmres" / "tools" / "firmres"
FLEETGEN = BUILD / "fleetgen"
FLEETTRACE = BUILD / "fleettrace"
GOLDEN = HERE / "golden_digests.json"

JOBS = 4
# Batch runs repeat for --seconds, at least MIN_REPS and at most MAX_REPS
# times; set-up repeats SETUP_REPS times per workload.
MIN_REPS, MAX_REPS = 5, 40
SETUP_REPS = {"fleet-cold": 9, "fleet-update": 3}
STEP_TIMEOUT_S = 60.0

# workload -> the image list its batch runs analyze
WORKLOADS = {"fleet-cold": "fleet", "fleet-update": "version_b"}
# fleetgen writes fleets copy-major: the first 22 Table I and 3
# memory-staging images are one copy of every profile.
PROFILES_PER_COPY = 25

# Per-layer self times of the traced pass: metric -> the spans whose self
# time it sums. The spans are the program's own (core/pipeline.cc and the
# layers it calls) plus fleettrace's firmware.load and report.emit. The
# pipeline's phase.fields span has no child around its call-graph build, so
# its self time (call graph, MftBuilder set-up, delivery-site enumeration)
# stands for callgraph.build_s. Any other span counts toward its nearest
# named ancestor, and toward the glue when it has none.
LAYER_SELF = {
    "firmware.load_s": ("firmware.load",),
    "pinpoint.busy_s": ("phase.pinpoint", "identify.program"),
    "pointsto.solve_s": ("pointsto.solve",),
    "valueflow.solve_s": ("valueflow.solve",),
    "callgraph.build_s": ("phase.fields",),
    "taint.build_s": ("taint.build_mft",),
    "reconstruct.busy_s": ("phase.reconstruct",),
    "check.busy_s": ("phase.check",),
    "report.emit_s": ("report.emit",),
}
# Reconciliation of the traced run against the wall the driver's clock
# measured around the traced pass (no span): the layer self times may exceed
# it by at most OVERLAP_TOLERANCE, which would mean spans of concurrent work
# landed in the pass, and the glue (the wall less the layer self times) may
# take at most GLUE_SHARE of it. Tracing overhead is reported, not gated: on
# a shared host two passes of the same work differ by up to 25%.
OVERLAP_TOLERANCE = 0.01
GLUE_SHARE = 0.05


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: the repository sources are not next to perfbench/")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "build.log", "w") as logf:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "firmres",
                      "fleetgen", "fleettrace", "-j", str(JOBS)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode:
                sys.exit("perfbench: build failed, see .bench_build/build.log")


# ---------------------------------------------------------------------------
# Inputs and checks
# ---------------------------------------------------------------------------

def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def generate(workload, seed, out):
    """Run the generator into a fresh directory."""
    if out.exists():
        shutil.rmtree(out)
    r = subprocess.run([str(FLEETGEN), workload, str(seed), str(out)],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if r.returncode:
        sys.exit("perfbench: fleetgen failed: " +
                 r.stderr.decode(errors="replace"))


class Inputs:
    """A generated workload directory and its workload.json."""

    def __init__(self, root, spec=None):
        self.root = root
        self.spec = spec or json.loads((root / "workload.json").read_text())
        self._truth = {}

    def dirs(self, name):
        return [str(self.root / e["dir"]) for e in self.spec[name]]

    def truth(self, entry):
        key = entry["key"]
        if key not in self._truth:
            manifest = self.root / entry["dir"] / "manifest.json"
            self._truth[key] = json.loads(manifest.read_text())["truth"]
        return self._truth[key]


class Tally:
    """Images attempted and failed across every checked run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, failed, problems):
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def check_cpu(cpu, wall, what):
    """cpu / wall above the worker count is physically impossible: a broken
    clock or a mis-attributed measurement."""
    if cpu > JOBS * wall + 0.01:
        return ["%s: cpu %.3fs / wall %.3fs exceeds %d jobs" % (
            what, cpu, wall, JOBS)]
    return []


def check_reports(reports, entries, inputs, expected):
    """Problems per image key, and each image's digest. `reports[i]` is the
    report of `entries[i]` (None when missing); `expected` maps a key to its
    recorded digest, or is None to accept any digest (recording)."""
    problems, digests = {}, {}
    for report, e in zip(reports, entries):
        key = e["key"]
        if report is None:
            problems.setdefault(key, []).append("no report")
            continue
        digests[key] = benchlib.digest(report)
        want = digests[key] if expected is None else expected.get(key)
        found = benchlib.check_report(report, want, inputs.truth(e),
                                      e["device_id"])
        if found:
            problems.setdefault(key, []).extend(found)
    return problems, digests


def record(tally, entries, problems, run_problems=()):
    """Add one run's outcome: every image fails when the run itself did."""
    flat = ["%s: %s" % (k, p) for k, ps in sorted(problems.items()) for p in ps]
    failed = len(entries) if run_problems else len(problems)
    tally.add(len(entries), failed, list(run_problems) + flat)


# ---------------------------------------------------------------------------
# The batch CLI
# ---------------------------------------------------------------------------

def run_cli(args):
    """Run firmres to completion; returns (exit code, wall_s, cpu_s,
    peak_rss_mb, stdout bytes). Dirty pages are flushed first so that no
    earlier write-back lands in the timed run."""
    os.sync()
    with open(WORK / "cli.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(FIRMRES)] + args, stdout=subprocess.PIPE,
                                stderr=err)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0, out)


def batch(inputs, name, flags, expected, tally):
    """One checked `firmres analyze <dirs> --json --jobs 4` run."""
    entries = inputs.spec[name]
    code, wall, cpu, rss, out = run_cli(
        ["analyze"] + inputs.dirs(name) + ["--json", "--jobs", str(JOBS)] +
        flags)
    run_problems = check_cpu(cpu, wall, "analyze " + name)
    reports = [None] * len(entries)
    if code != 0:
        run_problems.append("analyze %s exited %d" % (name, code))
    else:
        try:
            docs = json.loads(out)
        except ValueError as e:
            docs = []
            run_problems.append("analyze %s: unreadable output (%s)" % (name, e))
        if isinstance(docs, dict):  # one image: one report, not an array
            docs = [docs]
        if len(docs) == len(entries):
            order = benchlib.batch_order([e["device_id"] for e in entries])
            for report, i in zip(docs, order):
                reports[i] = report
    problems, digests = check_reports(reports, entries, inputs, expected)
    record(tally, entries, problems, run_problems)
    return {"wall": wall, "cpu": cpu, "rss": rss, "digests": digests}


# ---------------------------------------------------------------------------
# Serve
# ---------------------------------------------------------------------------

class Serve:
    """A `firmres serve --jobs 4` process whose reader thread timestamps each
    protocol line as it arrives."""

    def __init__(self, err_path, cwd):
        self.cv = threading.Condition()
        self.accepted, self.done, self.job_failures = {}, {}, {}
        self.report_lines, self.errors = [], []
        self.ready = None
        self.err = open(err_path, "wb")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(FIRMRES), "serve", "--jobs", str(JOBS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err,
            cwd=cwd)
        self.reader = threading.Thread(target=self._read)
        self.reader.start()

    def _read(self):
        for raw in iter(self.proc.stdout.readline, b""):
            t = time.perf_counter()
            with self.cv:
                if raw.startswith(b'{"event":"report"'):
                    self.report_lines.append(raw)  # parsed after the run
                    continue
                doc = json.loads(raw)
                event = doc.get("event")
                if event == "accepted":
                    self.accepted[doc["job"]] = t
                elif event == "done":
                    self.done[doc["job"]] = t
                    self.job_failures[doc["job"]] = doc["failures"]
                elif event == "ready":
                    self.ready = t
                elif event in ("device_error", "error"):
                    self.errors.append(doc)
                self.cv.notify_all()

    def send(self, line):
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def wait(self, pred):
        with self.cv:
            return self.cv.wait_for(pred, STEP_TIMEOUT_S)

    def close(self):
        """Quit and reap; returns (exit code, cpu_s, wall_s)."""
        try:
            self.send("quit")
            self.proc.stdin.close()
        except OSError:
            pass
        deadline = time.perf_counter() + STEP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        wall = time.perf_counter() - self.t_spawn
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.reader.join()
        self.proc.stdout.close()
        self.err.close()
        return self.proc.returncode, usage.ru_utime + usage.ru_stime, wall


def serve_run(inputs, pool_name, expected, tally, workdir, seed):
    """Drive one open-loop `firmres serve` session (benchlib.SERVE_RATE)
    and check every report it streams; returns the jobs with their due,
    sent, accepted and done times."""
    entries = inputs.spec[pool_name]
    dirs = inputs.dirs(pool_name)
    serve = Serve(workdir / "serve.err", inputs.root)
    jobs = []
    try:
        if not serve.wait(lambda: serve.ready is not None):
            raise RuntimeError("serve never became ready")
        start = time.perf_counter() + 0.01
        for offset, image in benchlib.schedule(seed, len(entries)):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            serve.send("analyze " + dirs[image])
            jobs.append({"job": len(jobs) + 1, "due": due, "sent": sent,
                         "image": image})
        if not serve.wait(lambda: len(jobs) in serve.done):
            raise RuntimeError("serve session timed out")
        with serve.cv:
            for j in jobs:
                j["accepted"] = serve.accepted[j["job"]]
                j["done"] = serve.done[j["job"]]
    finally:
        code, cpu, wall = serve.close()

    run_problems = check_cpu(cpu, wall, "serve")
    if code != 0:
        run_problems.append("serve exited %d" % code)
    by_job = {}
    for raw in serve.report_lines:
        doc = json.loads(raw)
        by_job.setdefault(doc["job"], []).append(doc["report"])
    problems = {}
    for j in jobs:
        e = entries[j["image"]]
        got = by_job.get(j["job"], [])
        found = []
        if len(got) != 1 or serve.job_failures.get(j["job"]):
            found.append("%d reports, %s failures" % (
                len(got), serve.job_failures.get(j["job"])))
        else:
            found = benchlib.check_report(got[0], expected.get(e["key"]),
                                          inputs.truth(e), e["device_id"])
        if found:
            problems["job %d (%s)" % (j["job"], e["key"])] = found
    for doc in serve.errors:
        run_problems.append("serve: %s" % json.dumps(doc)[:200])
    record(tally, jobs, problems, run_problems)
    return jobs


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.batch_name = WORKLOADS[workload]
        self.reference = {}  # fleet-update: digests of uncached version B
        self.work = WORK / ("%s-%d" % (workload, seed))
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.expected = json.loads(GOLDEN.read_text())
        self.tally = Tally()
        self.template = None  # fleet-update: the cache filled by version A

    def generate(self, copies):
        """Generate `copies` times, keep the first, and check they match."""
        generate(self.workload, self.seed, self.work / "inputs")
        first = tree_digest(self.work / "inputs")
        for _ in range(copies - 1):
            other = self.work / "again"
            generate(self.workload, self.seed, other)
            if tree_digest(other) != first:
                self.tally.add(0, 1, ["generator output differs for one seed"])
            shutil.rmtree(other)
        self.inputs = Inputs(self.work / "inputs")

    def cache_flags(self):
        """A fresh copy of the version-A cache for one run."""
        if self.template is None:
            return []
        copy = self.work / "cache"
        if copy.exists():
            shutil.rmtree(copy)
        shutil.copytree(self.template, copy)
        return ["--cache-dir", str(copy)]

    def setup(self, reps):
        """Set-up samples. fleet-cold: firmres start-up, a `firmres analyze`
        of the fleet's first copy of each profile. fleet-update: cold cache
        fills over version A."""
        self.generate(2)
        if self.workload == "fleet-cold":
            first = Inputs(self.inputs.root, {
                "first": self.inputs.spec["fleet"][:PROFILES_PER_COPY]})
            return [batch(first, "first", [], self.expected,
                          self.tally)["wall"] for _ in range(reps)]
        fills = []
        for k in range(reps):
            cache = self.work / ("cacheA%d" % k)
            fills.append(batch(self.inputs, "version_a",
                               ["--cache-dir", str(cache)], self.expected,
                               self.tally)["wall"])
            if k == 0:
                self.template = cache
            else:
                shutil.rmtree(cache)
        self.reference = batch(self.inputs, self.batch_name, [], self.expected,
                               self.tally)["digests"]
        return fills

    def batch(self):
        r = batch(self.inputs, self.batch_name, self.cache_flags(),
                  self.expected, self.tally)
        if self.template is not None:
            # Warm reports must equal an uncached analysis of version B.
            for key, d in r["digests"].items():
                if self.reference.get(key) != d:
                    self.tally.add(0, 1, ["%s: warm report differs from "
                                          "uncached" % key])
        return r

    def measure(self):
        """--trace 0: the end-to-end metrics."""
        setup = self.setup(SETUP_REPS[self.workload])
        runs = []
        t0 = time.perf_counter()
        while len(runs) < MAX_REPS and (
                len(runs) < MIN_REPS or
                time.perf_counter() - t0 < self.seconds):
            runs.append(self.batch())
        for r in runs:
            print("batch wall %.4f s  cpu %.4f s  cpu/wall %.2f  rss %.1f MB" % (
                r["wall"], r["cpu"], r["cpu"] / r["wall"], r["rss"]))
        med = statistics.median
        return {
            "wall_s": (med([r["wall"] for r in runs]), "s", len(runs)),
            "cpu_s": (med([r["cpu"] for r in runs]), "s", len(runs)),
            "peak_rss_mb": (med([r["rss"] for r in runs]), "MB", len(runs)),
            "setup_s": (med(setup), "s", len(setup)),
        }

    def traced(self):
        """--trace 1: the per-layer metrics from the traced driver."""
        self.setup(1)
        cli = self.batch()
        tdir = self.work / "trace"
        tdir.mkdir()
        args = [str(FLEETTRACE), str(tdir)] + self.cache_flags()
        if "registry" in self.inputs.spec:
            args += ["--registry",
                     str(self.inputs.root / self.inputs.spec["registry"])]
        args += self.inputs.dirs(self.batch_name)
        with open(self.work / "trace.err", "wb") as err:
            code = subprocess.run(args, stdout=err, stderr=err,
                                  cwd=self.inputs.root).returncode
        if code != 0:
            sys.exit("perfbench: fleettrace exited %d" % code)
        trace = json.loads((tdir / "trace.json").read_text())
        entries = self.inputs.spec[self.batch_name]
        reports = [json.loads(line) for line in
                   (tdir / "reports.jsonl").read_text().splitlines()]
        # The traced reports must hash to the CLI's.
        problems = {}
        for report, e in zip(reports, entries):
            if benchlib.digest(report) != cli["digests"].get(e["key"]):
                problems[e["key"]] = ["traced report differs from the CLI's"]
        run_problems = []
        if len(reports) != len(entries):
            run_problems.append("fleettrace wrote %d reports for %d images" % (
                len(reports), len(entries)))
        if trace["corpus"]["failures"]:
            run_problems.append("corpus runner failures in the traced driver")
        if trace.get("cache", {}).get("report_mismatches"):
            run_problems.append("cached reports differ in the traced driver")
        jobs = []
        if self.workload == "fleet-cold":
            jobs = serve_run(self.inputs, self.batch_name, self.expected,
                             self.tally, self.work, self.seed)
        metrics, checks = layer_metrics(trace, reports, jobs)
        run_problems += checks
        record(self.tally, entries, problems, run_problems)
        return metrics

    def result(self, metrics):
        for name, (value, unit, n) in metrics.items():
            print("%-32s %14.6f %-6s (n=%s)" % (name, value, unit, n))
        t = self.tally
        print("failed_ratio %.6f (%d of %d images)" % (
            t.failed / max(t.attempted, 1), t.failed, t.attempted))
        for p in t.problems[:20]:
            print("FAILED " + p)
        return {
            "correct": t.failed == 0,
            "attempted": max(t.attempted, 1),
            "failed": t.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _n) in metrics.items()},
        }


def layer_metrics(trace, reports, serve_jobs):
    """Per-layer metrics of one traced run, and failed reconciliation
    checks."""
    profile = trace["profile"]
    names = {span: metric for metric, spans in LAYER_SELF.items()
             for span in spans}
    layer = benchlib.attribute_self(profile["traced"], names)
    layer.pop(None, None)
    wall = trace["traced_wall_s"]
    layers_s = sum(layer.values())
    glue = wall - layers_s
    untraced = min(trace["untraced_walls_s"])
    checks = []
    if layers_s > (1 + OVERLAP_TOLERANCE) * wall:
        checks.append("layer self times %.4fs exceed the traced wall %.4fs" % (
            layers_s, wall))
    if glue > GLUE_SHARE * wall:
        checks.append("glue %.4fs exceeds %.0f%% of the traced wall %.4fs" % (
            glue, 100 * GLUE_SHARE, wall))
    c = trace["counters"]
    corpus = trace["corpus"]
    cache = trace.get("cache", {})
    cc = cache.get("counters", {})

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(tier):
        hits = cc.get("cache.%s_hits" % tier, 0)
        return ratio(hits, hits + cc.get("cache.%s_misses" % tier, 0))

    def span(segment, name, field):
        return benchlib.by_leaf(profile.get(segment, [])).get(
            name, {}).get(field, 0.0)

    input_mb = trace["input_bytes"] / 1e6
    decisions = [d for r in reports for d in r["mft_decisions"]]
    busy = span("corpus1", "corpus.device", "total_s")
    run_s = span("corpus4", "corpus.run", "total_s")
    t = benchlib.job_timings(serve_jobs)

    def pct(field, q):
        return benchlib.percentile([x[field] for x in t], q) if t else 0.0

    m = {metric: (layer.get(metric, 0.0), "s") for metric in LAYER_SELF}
    m.update({
        "firmware.input_mb": (input_mb, "MB"),
        "firmware.load_mb_per_s": (ratio(input_mb, m["firmware.load_s"][0]),
                                   "MB/s"),
        "pinpoint.executables": (c["identify.programs_analyzed"], "count"),
        "pinpoint.device_cloud_ratio": (ratio(
            c["identify.device_cloud_verdicts"],
            c["identify.programs_analyzed"]), "ratio"),
        "components.match_s": (span("components", "phase.components",
                                    "self_s"), "s"),
        "components.substituted_solves": (
            trace.get("components", {}).get("counters", {}).get(
                "valueflow.substituted_functions", 0), "count"),
        "pointsto.solves": (c["pointsto.solves"], "count"),
        "pointsto.load_resolve_ratio": (ratio(
            c["pointsto.loads_resolved"], c["pointsto.loads_total"]), "ratio"),
        "valueflow.solves": (c["valueflow.solves"], "count"),
        "valueflow.rounds": (c["valueflow.rounds"], "count"),
        "taint.mfts": (c["taint.mfts_built"], "count"),
        "taint.steps": (c["taint.steps"], "count"),
        "reconstruct.messages": (sum(len(r["messages"]) for r in reports),
                                 "count"),
        "reconstruct.kept_ratio": (ratio(sum(d["kept"] for d in decisions),
                                         len(decisions)), "ratio"),
        "report.mb": (trace["report_bytes"] / 1e6, "MB"),
        "cache.analyze_s": (span("cache", "pipeline.analyze", "total_s"), "s"),
        "cache.ident_hit_ratio": (hit_ratio("ident"), "ratio"),
        "cache.program_hit_ratio": (hit_ratio("program"), "ratio"),
        "cache.fn_hit_ratio": (hit_ratio("fn"), "ratio"),
        "cache.stores": (cc.get("cache.stores", 0), "count"),
        "cache.evictions": (cc.get("cache.evictions", 0), "count"),
        "cache.load_errors": (cc.get("cache.load_errors", 0), "count"),
        "cache.entries": (cache.get("entries", 0), "count"),
        "cache.disk_mb": (cache.get("disk_bytes", 0) / 1e6, "MB"),
        "corpus.busy_s": (busy, "s"),
        "corpus.run_s": (run_s, "s"),
        "corpus.parallel_efficiency": (ratio(busy, run_s * corpus["jobs"]),
                                       "ratio"),
        "pool.tasks_executed": (corpus["counters"]["pool.tasks_executed"],
                                "count"),
        "serve.queue_wait_p50_ms": (pct("queue_wait_ms", 0.5), "ms"),
        "serve.queue_wait_p90_ms": (pct("queue_wait_ms", 0.9), "ms"),
        "serve.service_p50_ms": (pct("service_ms", 0.5), "ms"),
        "serve.service_p90_ms": (pct("service_ms", 0.9), "ms"),
        "serve.backlog_max": (benchlib.backlog_max(serve_jobs), "count"),
        "serve.generator_late_max_ms": (max([x["late_ms"] for x in t] or [0.0]),
                                        "ms"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - untraced, "s"),
        "trace.glue_s": (glue, "s"),
    })
    return {k: (v, u, "1 traced run") for k, (v, u) in m.items()}, checks


# ---------------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------------

def record_golden():
    """Analyze every image fleetgen can emit and record its report digest;
    ground truth must hold for each."""
    build()
    out = WORK / "golden"
    if out.exists():
        shutil.rmtree(out)
    subprocess.run([str(FLEETGEN), "golden", str(out)], check=True,
                   stdout=subprocess.DEVNULL)
    entries = json.loads((out / "golden.json").read_text())["images"]
    tally = Tally()
    golden = {}
    for k in range(0, len(entries), 100):
        inputs = Inputs(out, {"chunk": entries[k:k + 100]})
        golden.update(batch(inputs, "chunk", [], None, tally)["digests"])
    if tally.failed:
        for p in tally.problems[:20]:
            print("FAILED " + p)
        sys.exit("perfbench: ground truth failed; nothing recorded")
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    shutil.rmtree(out)
    print("recorded %d digests in %s" % (len(golden), GOLDEN.relative_to(ROOT)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return subprocess.run([sys.executable, str(HERE / "test_benchlib.py")]
                              ).returncode
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not GOLDEN.is_file():
        sys.exit("perfbench: %s is missing" % GOLDEN.name)
    build()
    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics = run.traced() if args.trace else run.measure()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    result = run.result(metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
