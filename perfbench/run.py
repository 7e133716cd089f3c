#!/usr/bin/env python3
"""The repository benchmark: the Table 3 and Table 4 (LBIC) matrices timed
end to end on the host and, in a traced run, per crate, with a sharded
Table 3 campaign measuring the supervisor.

    python3 perfbench/run.py --workload table3|table4_lbic \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds `perfbench/harness` (a Cargo
package of its own) into `$CARGO_TARGET_DIR` (default `.bench_build`),
repeats the workload until `--seconds` have passed, checks every simulated
report against `perfbench/expected.json`, and prints one JSON object as its
last stdout line. See `perfbench/README.md` for the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
EXPECTED = os.path.join(HERE, "expected.json")

SCALE = "small"
# The host has two cores: in-process runs use two worker threads, the
# campaign two shard processes with one worker each.
THREADS = 2
SHARDS = 2
# Journal polling period of the campaign observer.
POLL_S = 0.005
# Repetitions a run makes at least, however short `--seconds` is.
MIN_REPS = 3
# A repetition or campaign that runs longer than this is stopped and the
# run fails: one repetition takes about 2.5 s, a campaign about 25 s.
REP_TIMEOUT_S = 60
CAMPAIGN_TIMEOUT_S = 100

# `campaign`: the traced run also runs the table's cells as a cold
# two-shard campaign, for the supervisor layer.
WORKLOADS = {
    "table3": {"table": "3", "campaign": True},
    "table4_lbic": {"table": "4", "campaign": False},
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_insts_per_cpu_s", "1/s"),
    ("sim_cycles_per_cpu_s", "1/s"),
    ("cell_s_p50", "s"),
    ("cell_s_tail", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cells_ok_frac", "ratio"),
    ("paper_err_pp", "pp"),
]

FAMILIES = ["ideal", "repl", "bank", "lbic"]

PER_LAYER = (
    [
        ("workloads.build_s", "s"),
        ("workloads.static_insts", "count"),
        ("cpu.capture.ns_per_record", "ns"),
        ("cpu.capture.records", "count"),
        ("cpu.trace.bytes_per_record", "B"),
        ("cpu.trace.decode_ns_per_record", "ns"),
        ("cpu.trace.step_ns_per_record", "ns"),
        ("cpu.sim.init_ns", "ns"),
        ("cpu.sim.ns_per_cycle", "ns"),
        ("cpu.sim.ns_per_inst", "ns"),
    ]
    + [("cpu.sim.ns_per_cycle." + f, "ns") for f in FAMILIES]
    + [
        ("cpu.sim.skipped_frac", "ratio"),
        ("cpu.sim.span_drained_frac", "ratio"),
    ]
    + [("core.arb_ns_per_offered." + f, "ns") for f in FAMILIES]
    + [
        ("core.offered_per_round", "count"),
        ("core.grant_frac", "ratio"),
        ("core.bank_conflicts_per_kinst", "1/kinst"),
        ("core.combined_frac", "ratio"),
        ("core.store_serial_frac", "ratio"),
        ("mem.ns_per_access", "ns"),
        ("mem.rejected_frac", "ratio"),
        ("mem.l1_miss_rate", "ratio"),
        ("mem.l2_miss_rate", "ratio"),
        ("mem.forward_frac", "ratio"),
        ("bench.runner.idle_frac", "ratio"),
        ("bench.supervise.campaign_wall_s", "s"),
        ("bench.supervise.overhead_frac", "ratio"),
        ("bench.supervise.cell_s_p50", "s"),
        ("bench.supervise.wait_s", "s"),
        ("bench.supervise.attempts_per_cell", "count"),
        ("bench.supervise.workers_spawned", "count"),
        ("bench.supervise.journal_bytes", "B"),
        ("self_s.workloads", "s"),
        ("self_s.cpu.capture", "s"),
        ("self_s.cpu.sim", "s"),
        ("self_s.bench.runner", "s"),
        ("self_s.bench.supervise", "s"),
        ("trace_overhead_frac", "ratio"),
    ]
)


class BenchError(Exception):
    """A failure that ends the run without a result line."""


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------


def median(values):
    """Lower-middle median: always one real sample, never an average of
    two (the `throughput` binary's `median_idx` rule)."""
    if not values:
        raise ValueError("median of no values")
    return sorted(values)[(len(values) - 1) // 2]


def tail(values):
    """The highest whole percentile with at least ten samples beyond it,
    by nearest rank. Returns `(percentile, value)`."""
    n = len(values)
    if n <= 10:
        raise ValueError("a tail percentile needs more than ten samples")
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)  # ceil(pct * n / 100), 1-based
    return pct, sorted(values)[rank - 1]


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------


def child_env():
    """The caller's environment minus every simulator knob (`HBDC_*`), so
    no profiler, arbitration pin or chaos seam leaks into a timed run."""
    return {k: v for k, v in os.environ.items() if not k.startswith("HBDC_")}


class Child:
    """A started process, reaped with `wait4` for its resource usage. Runs
    in its own process group so its workers can be stopped with it."""

    def __init__(self, cmd, stdout, stderr):
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=stdout,
            stderr=stderr,
            start_new_session=True,
        )
        self.status = None
        self.rusage = None
        self.ended = None
        self.killed = False

    def poll(self, block=False):
        if self.status is None:
            pid, status, rusage = os.wait4(self.proc.pid, 0 if block else os.WNOHANG)
            if pid:
                self.ended = time.perf_counter()
                self.status = os.waitstatus_to_exitcode(status)
                self.rusage = rusage
                self.proc.returncode = self.status
        return self.status

    def wait(self, timeout):
        """Blocks until the process ends; stops it and fails the run if
        it is still running after `timeout` seconds."""
        timer = threading.Timer(timeout, self.expire)
        timer.start()
        try:
            self.poll(block=True)
        finally:
            timer.cancel()
        if self.killed:
            raise BenchError(f"{self.proc.args[1]} ran longer than {timeout}s and was stopped")
        return self.status

    def expire(self):
        self.killed = True
        self.kill_group()

    def kill_group(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def stop(self):
        """Kills the process and any worker it left in its group, and reaps
        it."""
        self.kill_group()
        self.poll(block=True)

    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    def rss_mb(self):
        # ru_maxrss is in KiB on Linux; wait4 reports the largest resident
        # set of the process and the descendants it reaped.
        return self.rusage.ru_maxrss / 1024.0


def last_json(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def build(log):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    env = child_env()
    env["CARGO_TARGET_DIR"] = target
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                         stdout=log, stderr=log, timeout=840)
    if res.returncode != 0:
        raise BenchError("building the harness failed (see the log above)")
    exe = os.path.join(target, "release", "hbdc-perfbench")
    if not os.path.isfile(exe):
        raise BenchError("the harness binary is missing after the build")
    return exe, time.perf_counter() - t0


# ---------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------


def fingerprint(exe):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                               timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        revision = rev.stdout.strip() if rev.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        revision = ""
    if not revision:
        revision = "source-sha256:" + source_digest()
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc,
        "profile": "release (lto=thin, codegen-units=1)",
        "revision": revision,
        "harness": os.path.relpath(exe, ROOT),
    }


def source_digest():
    """Stand-in for the git revision in a checkout that is not a git
    repository: a digest of every source file the harness builds from."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), os.path.join(HERE, "harness", "src")]
    files = [os.path.join(ROOT, "Cargo.toml"), MANIFEST]
    for r in roots:
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for p in files:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------


def load_expected():
    with open(EXPECTED, encoding="utf-8") as f:
        return json.load(f)


def check(result, want, where):
    """Number of cells whose report differs from the stored digests (all
    of them when the process gave no result), plus notes for the log."""
    cells = len(want["cell_digests"])
    if result is None:
        return cells, [f"{where}: no result"]
    got = result.get("cell_digests", [])
    bad = sum(1 for i, d in enumerate(want["cell_digests"]) if i >= len(got) or got[i] != d)
    notes = []
    if result.get("digest") != want["digest"]:
        notes.append(f"{where}: report digest {result.get('digest')} != {want['digest']}")
        bad = max(bad, 1)
    if result.get("table_digest") != want["table_digest"]:
        notes.append(f"{where}: table differs from the stored table3/table4 table")
        bad = max(bad, 1)
    return bad, notes


# ---------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------


class Run:
    """Scratch directory and the processes of one benchmark run."""

    def __init__(self, exe, workload, seed):
        self.exe = exe
        self.workload = workload
        self.seed = seed
        self.table = WORKLOADS[workload]["table"]
        self.dir = os.path.join(ROOT, ".bench_run", f"{workload}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.children = []
        self.count = 0

    def close(self):
        for c in self.children:
            c.stop()
        shutil.rmtree(self.dir, ignore_errors=True)

    def path(self, name):
        self.count += 1
        return os.path.join(self.dir, f"{self.count:04d}-{name}")

    def start(self, args, tag):
        out, err = self.path(tag + ".out"), self.path(tag + ".err")
        with open(out, "wb") as o, open(err, "wb") as e:
            c = Child([self.exe] + args, o, e)
        self.children.append(c)
        return c, out, err

    def order_seed(self, rep):
        return self.seed * 1000 + rep + 1

    def matrix_rep(self, rep, traced=False, layers=False, spans=None):
        """One in-process run of the table: through the library runner, or
        (`traced`) driven by the harness with spans."""
        mode = "traced" if traced else "matrix"
        args = [mode, "--table", self.table, "--scale", SCALE,
                "--threads", str(THREADS), "--order-seed", str(self.order_seed(rep))]
        if layers:
            args.append("--layers")
        if spans:
            args += ["--spans", spans]
        t0 = time.perf_counter()
        child, out, err = self.start(args, mode)
        status = child.wait(REP_TIMEOUT_S)
        result = last_json(out) if status == 0 else None
        if result is None:
            sys.stderr.write(tail_of(err))
        return {
            "wall": child.ended - t0,
            "cpu": child.cpu_s(),
            "rss": child.rss_mb(),
            "result": result,
        }

    def campaign_rep(self, rep):
        """One cold campaign over the table's cells: fresh journal and trace
        cache, SHARDS shard processes of one worker each, started a seeded
        stagger apart and observed by polling the journal."""
        cdir = self.path("campaign")
        os.makedirs(cdir)
        journal = os.path.join(cdir, "journal")
        args = ["shard", "--table", self.table, "--scale", SCALE, "--threads", "1",
                "--shard", "--journal", journal, "--trace-cache", os.path.join(cdir, "traces")]
        stagger = random.Random(self.order_seed(rep)).uniform(0.0, 0.2)
        obs = JournalObserver(journal)
        t0 = time.perf_counter()
        shards = []
        for k in range(SHARDS):
            if k:
                until = time.perf_counter() + stagger
                while time.perf_counter() < until:
                    obs.poll(t0)
                    time.sleep(POLL_S)
            shards.append(self.start(args, f"shard{k}"))
        while any(c.poll() is None for c, _, _ in shards):
            if time.perf_counter() - t0 > CAMPAIGN_TIMEOUT_S:
                raise BenchError(f"the campaign ran longer than {CAMPAIGN_TIMEOUT_S}s")
            obs.poll(t0)
            time.sleep(POLL_S)
        wall = max(c.ended for c, _, _ in shards) - t0
        obs.poll(t0, force=True)
        results = []
        for c, out, err in shards:
            r = last_json(out) if c.status == 0 else None
            if r is None:
                sys.stderr.write(tail_of(err))
            results.append(r)
        return {
            "wall": wall,
            "cpu": sum(c.cpu_s() for c, _, _ in shards),
            "results": results,
            "cell_s": obs.cell_latencies(),
            "attempts": sum(obs.attempts.values()),
            "cells_done": len(obs.attempts),
            "journal_bytes": obs.size,
            "supervise_idle": obs.idle_by_owner(wall),
            "stagger": stagger,
        }


def tail_of(path, n=2000):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()[-n:]
    except OSError:
        return ""


class JournalObserver:
    """Watches a campaign from outside: when each cell was first leased
    (by which shard) and when its result landed."""

    def __init__(self, journal):
        self.journal = journal
        self.stamp = None
        self.size = 0
        self.leased = {}
        self.owner = {}
        self.done = {}
        self.attempts = {}

    def poll(self, t0, force=False):
        now = time.perf_counter() - t0
        try:
            st = os.stat(self.journal)
        except FileNotFoundError:
            return
        stamp = (st.st_ino, st.st_mtime_ns, st.st_size)
        if stamp == self.stamp and not force:
            return
        self.stamp = stamp
        try:
            with open(self.journal, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except FileNotFoundError:
            return
        self.size = len(text.encode())
        for line in text.splitlines():
            parts = line.split(" ", 4)
            if len(parts) < 3 or not parts[1].isdigit():
                continue
            idx = int(parts[1])
            if parts[0] == "lease":
                self.leased.setdefault(idx, now)
                self.owner.setdefault(idx, parts[2])
            elif parts[0] in ("ok", "quar") and idx not in self.done:
                self.done[idx] = now
                self.attempts[idx] = int(parts[2])

    def cell_latencies(self):
        """Lease-to-result seconds of every cell whose lease was seen."""
        return [self.done[i] - self.leased[i] for i in sorted(self.done) if i in self.leased]

    def idle_by_owner(self, wall):
        """Seconds each shard had no cell in flight, summed over shards."""
        idle = 0.0
        for owner in set(self.owner.values()):
            spans = sorted((self.leased[i], self.done[i]) for i, o in self.owner.items()
                           if o == owner and i in self.done)
            covered, cur = 0.0, None
            for a, b in spans:
                if cur and a <= cur[1]:
                    cur = (cur[0], max(cur[1], b))
                else:
                    if cur:
                        covered += cur[1] - cur[0]
                    cur = (a, b)
            if cur:
                covered += cur[1] - cur[0]
            idle += max(0.0, wall - covered)
        return idle

# ---------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------


def repeat(seconds, min_reps, fn):
    """Calls `fn(rep)` until `seconds` have passed and at least `min_reps`
    repetitions are done."""
    deadline = time.perf_counter() + seconds
    out = []
    while len(out) < min_reps or time.perf_counter() < deadline:
        out.append(fn(len(out)))
    return out


def end_to_end(reps, want):
    """End-to-end metrics, failed cells, notes and details of the untraced
    repetitions."""
    failed, notes, p50s, tails, insts, cycles = 0, [], [], [], [], []
    pct = None
    for i, rep in enumerate(reps):
        r = rep["result"]
        bad, why = check(r, want, f"rep {i}")
        failed += bad
        notes += why
        if r is None:
            continue
        cell = [v for v in r["cell_wall_s"] if v is not None]
        if len(cell) > 10:
            p50s.append(median(cell))
            pct, t = tail(cell)
            tails.append(t)
        insts.append(r["totals"]["committed"] / rep["cpu"])
        cycles.append(r["totals"]["cycles"] / rep["cpu"])
        rep["idle"] = 1.0 - sum(cell) / (rep["wall"] * THREADS)
    ok = [rep for rep in reps if rep["result"] is not None]
    if not ok or not p50s:
        raise BenchError("no repetition produced a result")
    errs = {rep["result"]["paper_err_pp"] for rep in ok}
    if len(errs) != 1:
        notes.append(f"paper_err_pp differs between repetitions: {sorted(errs)}")
        failed += len(want["cell_digests"])
    metrics = {
        "wall_s": median([r["wall"] for r in ok]),
        "setup_s": median([r["result"]["capture_s"] for r in ok]),
        "sim_insts_per_cpu_s": median(insts),
        "sim_cycles_per_cpu_s": median(cycles),
        "cell_s_p50": median(p50s),
        "cell_s_tail": median(tails),
        "cpu_s": median([r["cpu"] for r in ok]),
        "peak_rss_mb": median([r["rss"] for r in ok]),
        "paper_err_pp": ok[0]["result"]["paper_err_pp"],
    }
    # Per-repetition times show contention from other tenants: CPU seconds
    # for the same work rise and vary when the cores are shared.
    info = {"reps": len(reps), "tail_percentile": pct, "cells_per_rep": len(want["cell_digests"]),
            "rep_wall_s": [round(r["wall"], 4) for r in reps],
            "rep_cpu_s": [round(r["cpu"], 3) for r in reps]}
    return metrics, failed, notes, info


def layer_metrics(traced, untraced, overhead, campaign):
    """Per-layer metrics from the first traced result, the untraced
    repetitions, the probe overhead and the campaign (or None)."""
    t = traced["totals"]
    fam = traced["families"]
    lay = traced["layers"]
    run_ns = sum(f["run_ns"] for f in fam.values())
    m = {
        "workloads.build_s": traced["build_s"],
        "workloads.static_insts": traced["static_insts"],
        "cpu.capture.ns_per_record": ratio(traced["capture_ns"], traced["capture_records"]),
        "cpu.capture.records": traced["capture_records"],
        "cpu.trace.bytes_per_record": lay["trace_bytes_per_record"],
        "cpu.trace.decode_ns_per_record": lay["trace_decode_ns_per_record"],
        "cpu.trace.step_ns_per_record": lay["trace_step_ns_per_record"],
        "cpu.sim.init_ns": ratio(traced["init_ns"], traced["cells"]),
        "cpu.sim.ns_per_cycle": ratio(run_ns, t["cycles"]),
        "cpu.sim.ns_per_inst": ratio(run_ns, t["committed"]),
        "cpu.sim.skipped_frac": ratio(t["skipped_cycles"], t["cycles"]),
        "cpu.sim.span_drained_frac": ratio(traced["span_drained_cycles"], t["cycles"]),
        "core.offered_per_round": ratio(t["arb_offered"], t["arb_rounds"]),
        "core.grant_frac": ratio(t["arb_granted"], t["arb_offered"]),
        "core.bank_conflicts_per_kinst": ratio(t["bank_conflicts"] * 1000, t["committed"]),
        "core.combined_frac": ratio(t["combined"], t["arb_granted"]),
        "core.store_serial_frac": ratio(t["store_serializations"], t["cycles"]),
        "mem.ns_per_access": lay["mem_ns_per_access"],
        "mem.rejected_frac": lay["mem_rejected_frac"],
        "mem.l1_miss_rate": ratio(t["l1_misses"], t["l1_accesses"]),
        "mem.l2_miss_rate": ratio(t["l2_misses"], t["l2_accesses"]),
        "mem.forward_frac": ratio(t["forwards"], t["loads"]),
        "bench.runner.idle_frac": median([r["idle"] for r in untraced]),
        "trace_overhead_frac": overhead,
    }
    for f in FAMILIES:
        m["cpu.sim.ns_per_cycle." + f] = ratio(fam[f]["run_ns"], fam[f]["cycles"])
        m["core.arb_ns_per_offered." + f] = lay["arb_ns_per_offered"][f]
    for layer in ["workloads", "cpu.capture", "cpu.sim", "bench.runner"]:
        m["self_s." + layer] = traced["self_s"].get(layer, 0.0)
    # The supervisor exists only in the campaign; in-process it is 0.
    c = campaign or {"wall": 0.0, "cpu": 0.0, "cell_s": [0.0], "attempts": 0,
                     "cells_done": 0, "journal_bytes": 0, "supervise_idle": 0.0}
    in_process = median([r["wall"] for r in untraced])
    m.update({
        "bench.supervise.campaign_wall_s": c["wall"],
        "bench.supervise.overhead_frac": ratio(c["wall"], in_process) - 1.0 if campaign else 0.0,
        "bench.supervise.cell_s_p50": median(c["cell_s"] or [0.0]),
        "bench.supervise.wait_s": c["wall"] - c["cpu"] / SHARDS,
        "bench.supervise.attempts_per_cell": ratio(c["attempts"], c["cells_done"]),
        "bench.supervise.workers_spawned": c["attempts"],
        "bench.supervise.journal_bytes": c["journal_bytes"],
        "self_s.bench.supervise": c["supervise_idle"],
    })
    return m


def run_traced(run, seconds, want):
    """Alternates untraced and traced repetitions until `seconds` have
    passed, at least twice each; the first traced repetition also runs the
    per-crate drivers and writes its spans out. A workload with a campaign
    then runs one. Returns per-layer metrics, failed and attempted cells,
    notes and details."""
    cells = len(want["cell_digests"])
    untraced, traced = [], []
    spans = os.path.join(ROOT, ".bench_run", f"{run.workload}-seed{run.seed}.spans.jsonl")

    def pair(rep):
        untraced.append(run.matrix_rep(rep))
        traced.append(run.matrix_rep(rep, traced=True, layers=(rep == 0),
                                     spans=spans if rep == 0 else None))

    repeat(seconds, 2, pair)
    _, failed, notes, _ = end_to_end(untraced, want)
    for i, t in enumerate(traced):
        bad, why = check(t["result"], want, f"traced rep {i}")
        failed += bad
        notes += why
    if traced[0]["result"] is None:
        raise BenchError("the traced run produced no result")
    attempted = cells * (len(untraced) + len(traced))
    overhead = ratio(
        median([t["result"]["wall_s_internal"] for t in traced if t["result"]]),
        median([u["result"]["wall_s_internal"] for u in untraced if u["result"]])) - 1.0
    campaign = None
    if WORKLOADS[run.workload]["campaign"]:
        campaign = run.campaign_rep(0)
        attempted += cells
        bad_shards = []
        for k, r in enumerate(campaign["results"]):
            bad, why = check(r, want, f"campaign shard {k}")
            bad_shards.append(bad)
            notes += why
        missing = cells - campaign["cells_done"]
        if missing:
            notes.append(f"campaign: {missing} of {cells} cells unfinished")
        failed += max(bad_shards + [missing])
    metrics = layer_metrics(traced[0]["result"], untraced, overhead, campaign)
    info = {"untraced_reps": len(untraced), "traced_reps": len(traced),
            "spans": os.path.relpath(spans, ROOT)}
    if campaign:
        info["campaign_stagger_s"] = round(campaign["stagger"], 4)
    return metrics, failed, attempted, notes, info


# ---------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------


def print_table(title, rows):
    print(title)
    for name, unit, value in rows:
        print(f"  {name:<36} {value:>16.6g} {unit}")


def write_expected(exe):
    """Stores the digests of one in-process run of each table."""
    expected = {}
    for workload in WORKLOADS:
        run = Run(exe, workload, 0)
        try:
            r = run.matrix_rep(0)["result"]
        finally:
            run.close()
        if r is None or r["failed"]:
            raise BenchError(f"{workload}: the run failed; nothing written")
        expected[workload] = {k: r[k] for k in ("digest", "table_digest", "cell_digests")}
    with open(EXPECTED, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(EXPECTED, ROOT)}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="rerun both tables once and store their digests (for a change "
                         "that intends to move simulated results)")
    args = ap.parse_args(argv)
    if args.write_expected:
        return write_expected(build(sys.stderr)[0])
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    exe, build_s = build(sys.stderr)
    want = load_expected()[args.workload]
    host = fingerprint(exe)
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}  scale: {SCALE}  harness build: {build_s:.1f}s")
    sys.stdout.flush()

    run = Run(exe, args.workload, args.seed)
    try:
        if args.trace == 0:
            reps = repeat(args.seconds, MIN_REPS, run.matrix_rep)
            metrics, failed, notes, info = end_to_end(reps, want)
            attempted = info["cells_per_rep"] * len(reps)
            metrics["cells_ok_frac"] = 1.0 - ratio(failed, attempted)
            names = END_TO_END
            print_table(f"end-to-end ({info['reps']} repetitions; cell_s_tail = "
                        f"p{info['tail_percentile']} of {info['cells_per_rep']} cells, "
                        f"median over repetitions; failed_frac = "
                        f"{ratio(failed, attempted):.4g}):",
                        [(n, u, metrics[n]) for n, u in names])
        else:
            metrics, failed, attempted, notes, info = run_traced(run, args.seconds, want)
            names = PER_LAYER
            print_table(f"per-layer ({info['untraced_reps']} untraced + {info['traced_reps']} "
                        f"traced repetitions; trace_overhead_frac = "
                        f"{metrics['trace_overhead_frac']:+.4f}):",
                        [(n, u, metrics[n]) for n, u in names])
    finally:
        run.close()
    for n in notes:
        print("check: " + n)
    print("result: " + json.dumps({"host": host, "seed": args.seed, "info": info,
                                    "workload": args.workload}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: timed out: {e}", file=sys.stderr)
        sys.exit(1)
