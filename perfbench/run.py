#!/usr/bin/env python3
"""EaseIO repository benchmark: four workloads against the unmodified tools.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the tools under test (easechk, easelint, easeiod, easectl) and the layer
driver from the checkout's sources into .bench_build/, runs one workload for S
seconds, checks every output against the committed digests in expected.json, and
prints one JSON result as the last line of standard output. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics (see README.md).

Other modes:
    --smoke             tiny sizes, one pass (used by selftest.py)
    --expected PATH     read digests from PATH instead of expected.json
    --regen-expected    recompute expected.json from the current tools
"""

import argparse
import collections
import hashlib
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TMP_ROOT = ROOT / ".bench_build" / "tmp"
OUT_DIR = ROOT / ".bench_build" / "out"
EXPECTED = HERE / "expected.json"
BUILD_TYPE = "RelWithDebInfo"
TARGETS = ["easechk-cli", "easelint-cli", "easeiod-cli", "easectl-cli", "perfbench_layers"]
TOOLS = BUILD_DIR / "easeio" / "tools"
LAYERS = BUILD_DIR / "perfbench_layers"

# Worker threads for the CLI workloads. One of the four cores stays free: at
# --jobs=4 the dma --exhaust=2 cell spread 15-25% run to run, at --jobs=3 about 2%.
JOBS = 3
DAEMON_WORKERS = 2
# Fixed-cost invocations per chk run, spread over the run; setup_s is their median.
SETUP_SAMPLES = 100

WORKLOADS = ["exhaust-lea", "budget-weather", "lint-certify"]

# Inputs. Each run derives its device / lint seed from --seed through these pools,
# so that every input a run can see has a committed digest.
LEA_SEEDS = [1, 2, 3]
WEATHER_SEEDS = [1, 2, 3, 4, 5]
WEATHER_BUDGET = 300_000
LINT_SEEDS = [1, 2]
TOP_PROGRAMS = ["examples/programs/sample_loop.ec", "examples/programs/unsafe_branch.ec",
                "examples/programs/weather.ec"]

# Smoke sizes: seconds-long, same code paths.
SMOKE = {"chk_app": "branch", "weather_budget": 2000, "lint_programs": 3, "certify": 1}

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("schedules_per_s", "1/s"),
    ("cold_job_p50_ms", "ms"), ("cold_job_p90_ms", "ms"), ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("chk.trials_executed", "count"), ("chk.states_deduped", "count"),
    ("chk.pages_copied", "count"), ("chk.pool_hits", "count"),
    ("chk.snapshot_resumes", "count"), ("chk.candidate_instants", "count"),
    ("chk.trace_events", "count"), ("chk.reduction_ratio", "ratio"),
    ("chk.executed_trials_per_s", "1/s"),
    ("chk.phase.enumerate_s", "s"), ("chk.phase.snapshot_capture_s", "s"),
    ("chk.phase.resume_s", "s"), ("chk.phase.replay_s", "s"), ("chk.phase.judge_s", "s"),
    ("chk.trial_us_p50", "us"), ("chk.trial_us_p99", "us"),
    ("exec.golden_run_ms", "ms"), ("exec.resume_ns", "ns"),
    ("probe.golden_overhead_ms", "ms"), ("probe.events_per_trial", "count"),
    ("snapshot.capture_ns", "ns"), ("snapshot.restore_ns", "ns"),
    ("snapshot.pages_per_trial", "count"),
    ("enum.candidate_instants_ns", "ns"), ("enum.gap_classes_ns", "ns"),
    ("dedup.fingerprint_ns", "ns"), ("dedup.lookup_ns", "ns"), ("dedup.insert_ns", "ns"),
    ("dedup.hit_ratio", "ratio"), ("dedup.probe_collisions", "count"),
    ("dedup.canonical_bytes", "bytes"),
    ("judge.scan_ns", "ns"), ("judge.finalize_ns", "ns"),
    ("easec.compile_ms", "ms"), ("lint.run_ms", "ms"), ("certify.ms", "ms"),
    ("certify.trials", "count"), ("lint.fixpoint_iterations", "count"),
    ("daemon.queue_wait_ms", "ms"), ("daemon.exec_ms", "ms"),
    ("daemon.cache_hit_ratio", "ratio"), ("daemon.parse_us", "us"),
    ("daemon.key_hash_us", "us"), ("daemon.cache_get_us", "us"),
    ("daemon.cache_put_us", "us"), ("daemon.artifact_kb", "KiB"),
    ("sweep.run_us", "us"), ("obs.capture_ms", "ms"), ("obs.render_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
]
# Self time per layer of the driver's spans (span time minus child spans).
SELF_LAYERS = ["exec", "snapshot", "enum", "dedup", "judge", "chk", "easec", "lint",
               "certify", "daemon", "job", "report", "obs"]
PER_LAYER += [(f"self.{layer}_ms", "ms") for layer in SELF_LAYERS]

TIMING_RE = re.compile(rb',"timing":\{[^}]*\}')


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]); the median for q = 0.5."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Build

def build():
    """Configures and builds the tools and the layer driver; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: repository sources (src/) not found next to perfbench/")
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR.parent / "build.log"
    with open(build_log, "ab") as out:
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            rc = subprocess.call(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                                  f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                                 stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                log(f"perfbench: cmake configure failed (see {build_log})")
                return False
        rc = subprocess.call(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
                              "--target", *TARGETS], stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        log(f"perfbench: build failed (see {build_log})")
        return False
    return True


# ---------------------------------------------------------------------------
# Processes

class Proc:
    def __init__(self, rc, wall, cpu, rss_mb):
        self.rc, self.wall, self.cpu, self.rss_mb = rc, wall, cpu, rss_mb


def run_tool(argv, err_path):
    """Runs one tool to completion; wall from our clock, CPU and RSS from wait4."""
    with open(err_path, "ab") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([str(a) for a in argv], cwd=ROOT, stdout=subprocess.DEVNULL,
                             stderr=err)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def reap(proc, timeout):
    """Waits for `proc` (killing it after `timeout` seconds); returns its rusage."""
    limit = time.perf_counter() + timeout
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return ru
        if time.perf_counter() > limit:
            proc.kill()
            limit = float("inf")
        time.sleep(0.001)


def read_json(path):
    with open(path, "rb") as f:
        return json.loads(f.read())


def strip_timing(data):
    return TIMING_RE.sub(b"", data)


# ---------------------------------------------------------------------------
# Metrics registries (easeio-metrics/1 JSON written by --metrics)

def registry(path):
    return read_json(path)["metrics"]


def reg_sum(metrics, name, **labels):
    total = 0
    for m in metrics:
        if m["name"] == name and all(m["labels"].get(k) == v for k, v in labels.items()):
            total += m.get("value", 0)
    return total


def hist_quantile(metrics, name, q):
    """Quantile from a fixed-bucket histogram, interpolated inside the bucket."""
    buckets = None
    for m in metrics:
        if m["name"] == name and m["type"] == "histogram":
            buckets = m["buckets"]
    if not buckets:
        return 0.0
    total = buckets[-1]["count"]
    if total == 0:
        return 0.0
    target = q * total
    prev_le, prev_count = 0.0, 0
    for b in buckets:
        le = b["le"]
        if b["count"] >= target:
            if le in ("+Inf", None) or not isinstance(le, (int, float)):
                return float(prev_le)
            span = b["count"] - prev_count
            frac = (target - prev_count) / span if span else 1.0
            return prev_le + (le - prev_le) * frac
        if isinstance(le, (int, float)):
            prev_le = le
        prev_count = b["count"]
    return float(prev_le)


# ---------------------------------------------------------------------------
# Expected digests

class Gate:
    """Counts attempted and failed operations and checks outputs against digests."""

    def __init__(self, expected, regen=False):
        self.expected = expected
        self.regen = regen
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, section, key, got):
        if self.regen:
            self.expected.setdefault(section, {})[key] = got
            return True
        want = self.expected.get(section, {}).get(key)
        if want != got:
            self.problems.append(f"{section}/{key}: expected {want}, got {got}")
            return False
        return True

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what:
                self.problems.append(what)
        return ok


# ---------------------------------------------------------------------------
# Workload inputs

def lea_cell(seed, smoke):
    app = SMOKE["chk_app"] if smoke else "lea"
    dev_seed = LEA_SEEDS[seed % len(LEA_SEEDS)]
    return {"app": app, "runtime": "easeio", "seed": dev_seed, "mode": "exhaust2",
            "args": ["--exhaust=2"], "key": f"{app}-easeio-exhaust2-seed{dev_seed}"}


def weather_cell(seed, smoke):
    budget = SMOKE["weather_budget"] if smoke else WEATHER_BUDGET
    dev_seed = WEATHER_SEEDS[seed % len(WEATHER_SEEDS)]
    return {"app": "weather", "runtime": "easeio", "seed": dev_seed, "mode": "budget",
            "budget": budget, "args": ["--depth=2", f"--budget={budget}"],
            "key": f"weather-easeio-budget{budget}-seed{dev_seed}"}


def ref_cell(smoke):
    """The chk cell traced for workloads without one of their own: dma/easeio
    --exhaust=1, whose certificate counts are exact and which the fidelity check
    pins (or the smoke app)."""
    app = SMOKE["chk_app"] if smoke else "dma"
    return {"app": app, "runtime": "easeio", "seed": 1, "mode": "exhaust1",
            "args": ["--exhaust=1"], "key": f"{app}-easeio-exhaust1-seed1"}


def lint_programs(smoke):
    progs = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "examples" / "programs").glob("**/*.ec"))
    return progs[:SMOKE["lint_programs"]] if smoke else progs


def chk_cells(workload, seed, smoke):
    """Every device seed of the workload's pool, in a seeded order: each run measures
    the whole pool, so a run's figures do not hinge on which seed it drew."""
    fn, pool = (lea_cell, LEA_SEEDS) if workload == "exhaust-lea" else (weather_cell, WEATHER_SEEDS)
    order = list(range(len(pool)))
    random.Random(f"{workload}-{seed}").shuffle(order)
    return [fn(i, smoke) for i in order]


def lint_plan(seed, smoke):
    """One pass: every program under every lint seed, in a seeded order."""
    plan = [(p, ls) for p in lint_programs(smoke) for ls in LINT_SEEDS]
    random.Random(f"lint-{seed}").shuffle(plan)
    return plan


def plan_programs(plan):
    """The plan's programs, each once, in plan order."""
    return list(dict.fromkeys(prog for prog, _ in plan))


def spec_key(spec):
    return sha256(json.dumps(spec, sort_keys=True).encode())[:24]


def easectl_lint_flags(spec):
    flags = ["--kind=lint", f"--source={spec['source_name']}",
             f"--source-name={spec['source_name']}"]
    return flags + (["--witness"] if spec["witness"] else [])


def own_sequence(specs):
    """Each request once, cold, then once more, which must hit the cache."""
    return [("cold", i) for i in range(len(specs))] + [("warm", i) for i in range(len(specs))]


# ---------------------------------------------------------------------------
# CLI workloads

class Ctx:
    def __init__(self, args, tmp, gate):
        self.args, self.tmp, self.gate = args, tmp, gate
        self.err = tmp / "tools.err"
        self.smoke = args.smoke


def easechk_argv(cell, out_json, extra=()):
    return [TOOLS / "easechk", f"--app={cell['app']}", f"--runtime={cell['runtime']}",
            f"--seed={cell['seed']}", f"--jobs={JOBS}", *cell["args"], f"--json={out_json}",
            *extra]


def chk_op(ctx, cell, section, metrics_path=None):
    """One full easechk invocation, gated on its timing-stripped JSON digest."""
    out = ctx.tmp / "chk.json"
    extra = [f"--metrics={metrics_path}"] if metrics_path else []
    p = run_tool(easechk_argv(cell, out, extra), ctx.err)
    ok = p.rc == 0 and out.is_file()
    doc = None
    if ok:
        data = out.read_bytes()
        ok = ctx.gate.check(section, cell["key"], sha256(strip_timing(data)))
        doc = json.loads(data)["explorations"][0]
    ctx.gate.op(ok, f"easechk {cell['key']} rc={p.rc}")
    return p, doc


def covered(doc):
    """Covered schedules: the certificate's count in exhaust mode, else `schedules`."""
    return doc["certificate"]["schedules_covered"] if "certificate" in doc else doc["schedules"]


def executed(doc):
    """Executed trials: the certificate's count, else schedules minus pruned ones."""
    if "certificate" in doc:
        return doc["certificate"]["trials_executed"]
    return doc["schedules"] - doc["timing"]["trials_pruned"]


def chk_setup(ctx, cell, section, samples):
    walls = []
    for _ in range(samples):
        out = ctx.tmp / "setup.json"
        # The same invocation cut to its fixed cost.
        p = run_tool(easechk_argv(dict(cell, args=["--depth=1", "--budget=1"]), out), ctx.err)
        ok = p.rc == 0 and out.is_file() and ctx.gate.check(
            section, cell["key"] + "-setup", sha256(strip_timing(out.read_bytes())))
        ctx.gate.op(ok, f"easechk setup {cell['key']} rc={p.rc}")
        walls.append(p.wall)
    return walls


def per_cell_mean(ops, value):
    """Mean over cells of each cell's median, so every pool seed weighs the same."""
    by_cell = {}
    for key, p, doc in ops:
        by_cell.setdefault(key, []).append(value(p, doc))
    return statistics.fmean(median(v) for v in by_cell.values())


def measure_chk(ctx, workload, cells):
    """Cycles over the cells: per cell, a batch of fixed-cost (setup) invocations,
    then one full invocation. Setup samples are spread over the whole run."""
    section = workload + ("-smoke" if ctx.smoke else "")
    per_cell_setups = 2 if ctx.smoke else -(-SETUP_SAMPLES // len(cells))
    setups, ops = [], []
    t0 = time.perf_counter()
    last = 0.0
    while not ops or (not ctx.smoke and time.perf_counter() - t0 + last <= ctx.args.seconds):
        c0 = time.perf_counter()
        for cell in cells:
            setups += chk_setup(ctx, cell, section, per_cell_setups)
            p, doc = chk_op(ctx, cell, section)
            ops.append((cell["key"], p, doc))
        last = time.perf_counter() - c0
        per_cell_setups = 0 if len(setups) >= SETUP_SAMPLES else per_cell_setups
    walls = [p.wall for _, p, _ in ops]
    return {
        "setup_s": median(setups),
        "wall_s": per_cell_mean(ops, lambda p, d: p.wall),
        "cpu_s": per_cell_mean(ops, lambda p, d: p.cpu),
        "schedules_per_s": per_cell_mean(ops, lambda p, d: covered(d) / p.wall if d else 0.0),
        "cold_job_p50_ms": quantile(walls, 0.5) * 1e3,
        "cold_job_p90_ms": quantile(walls, 0.9) * 1e3,
        "peak_rss_mb": median([p.rss_mb for _, p, _ in ops]),
    }, {"cells": [c["key"] for c in cells], "setup_samples": len(setups),
        "cold_samples": len(walls)}


def lint_argv(prog, lint_seed, smoke, out_json, out_cert, extra=()):
    certify = SMOKE["certify"] if smoke else 2
    return [TOOLS / "easelint", "--lint-v2", "--witness", f"--certify={certify}",
            f"--jobs={JOBS}", f"--seed={lint_seed}", f"--json={out_json}",
            f"--certify-out={out_cert}", *extra, prog]


def lint_key(prog, lint_seed, smoke):
    return f"{prog}|seed{lint_seed}|certify{SMOKE['certify'] if smoke else 2}"


def lint_op(ctx, prog, lint_seed, section, metrics_path=None):
    out, cert = ctx.tmp / "lint.json", ctx.tmp / "certify.json"
    for f in (out, cert):
        f.unlink(missing_ok=True)
    extra = [f"--metrics={metrics_path}"] if metrics_path else []
    p = run_tool(lint_argv(prog, lint_seed, ctx.smoke, out, cert, extra), ctx.err)
    ok = p.rc in (0, 1) and out.is_file() and cert.is_file()
    trials = 0
    if ok:
        digest = f"rc{p.rc}:{sha256(out.read_bytes())}:{sha256(cert.read_bytes())}"
        ok = ctx.gate.check(section, lint_key(prog, lint_seed, ctx.smoke), digest)
        trials = read_json(cert)["coverage"]["trials"]
    ctx.gate.op(ok, f"easelint {prog} rc={p.rc}")
    return p, trials


def lint_setup_op(ctx, prog, section):
    out = ctx.tmp / "lint-setup.json"
    out.unlink(missing_ok=True)
    p = run_tool([TOOLS / "easelint", "--lint-v2", f"--json={out}", prog], ctx.err)
    ok = p.rc in (0, 1) and out.is_file() and ctx.gate.check(
        section, f"{prog}|setup", f"rc{p.rc}:{sha256(out.read_bytes())}")
    ctx.gate.op(ok, f"easelint setup {prog} rc={p.rc}")
    return p


def lint_pass(ctx, plan, section, metrics_dir=None):
    t0 = time.perf_counter()
    procs, trials = [], 0
    for i, (prog, lint_seed) in enumerate(plan):
        mpath = metrics_dir / f"lint-{i}.json" if metrics_dir else None
        p, t = lint_op(ctx, prog, lint_seed, section, mpath)
        procs.append(p)
        trials += t
    return time.perf_counter() - t0, procs, trials


def measure_lint(ctx):
    """Passes over every (program, lint seed) pair; a plain-lint (setup) pass over
    the programs before every second measured pass spreads the setup samples over
    the run."""
    section = "lint-certify" + ("-smoke" if ctx.smoke else "")
    plan = lint_plan(ctx.args.seed, ctx.smoke)
    programs = plan_programs(plan)
    setup_walls, passes = [], []
    t0 = time.perf_counter()
    while not passes or (not ctx.smoke and time.perf_counter() - t0 < ctx.args.seconds):
        if len(passes) % 2 == 0:
            s0 = time.perf_counter()
            for prog in programs:
                lint_setup_op(ctx, prog, section)
            setup_walls.append(time.perf_counter() - s0)
        passes.append(lint_pass(ctx, plan, section))
    walls = [w for w, _, _ in passes]
    cold = [p.wall for _, procs, _ in passes for p in procs]
    return {
        "setup_s": median(setup_walls),
        "wall_s": median(walls),
        "cpu_s": median([sum(p.cpu for p in procs) for _, procs, _ in passes]),
        "schedules_per_s": median([t / w for w, _, t in passes]),
        "cold_job_p50_ms": quantile(cold, 0.5) * 1e3,
        "cold_job_p90_ms": quantile(cold, 0.9) * 1e3,
        "peak_rss_mb": median([max(p.rss_mb for p in procs) for _, procs, _ in passes]),
    }, {"passes": len(passes), "setup_samples": len(setup_walls), "cold_samples": len(cold)}


# ---------------------------------------------------------------------------
# The daemon client: easeiod over one watching connection

class Conn:
    """One NDJSON connection to easeiod that also watches job events, noting the
    time each event was read."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(str(path))
        self.buf = b""
        self.events = {}  # job id -> {state: time read}
        self.replies = collections.deque()

    def _pump(self, deadline):
        self.sock.settimeout(max(0.001, deadline - time.perf_counter()))
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        *lines, self.buf = (self.buf + chunk).split(b"\n")
        now = time.perf_counter()
        for line in filter(bytes.strip, lines):
            msg = json.loads(line)
            if "event" not in msg:
                self.replies.append(msg)
                continue
            ev = msg["event"]
            self.events.setdefault(ev["id"], {})[ev["state"]] = now
            if ev["state"] == "failed":
                raise ValueError(f"daemon job {ev['id']} failed: {ev.get('error')}")

    def request(self, obj, deadline):
        self.sock.sendall((json.dumps(obj, separators=(",", ":")) + "\n").encode())
        while not self.replies:
            self._pump(deadline)
        return self.replies.popleft()

    def wait_done(self, job_id, deadline):
        while "done" not in self.events.get(job_id, {}):
            self._pump(deadline)


def daemon_round(ctx, specs, section, metrics_path=None):
    """Spawns easeiod on a fresh cache, submits each request cold and then once
    more (which must hit the cache), checks every artifact against its digest,
    drains the daemon and reaps it."""
    gate = ctx.gate
    d = ctx.tmp / "daemon"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    sock = d / "d.sock"
    argv = [TOOLS / "easeiod", f"--socket={sock}", f"--cache-dir={d / 'cache'}",
            f"--workers={DAEMON_WORKERS}"]
    if metrics_path:
        argv.append(f"--metrics={metrics_path}")
    deadline = time.perf_counter() + 120
    result = {"ok": False, "queue_ms": [], "exec_ms": []}
    with open(d / "easeiod.log", "wb") as err:
        proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, stdout=err, stderr=err)
        conn = None
        try:
            while conn is None:
                try:
                    conn = Conn(sock)
                except OSError:
                    if proc.poll() is not None or time.perf_counter() > deadline:
                        raise RuntimeError("easeiod did not start")
                    time.sleep(0.001)
            conn.request({"op": "watch"}, deadline)
            for kind, idx in own_sequence(specs):
                t0 = time.perf_counter()
                reply = conn.request({"op": "submit", "job": specs[idx]}, deadline)
                if not reply.get("ok"):
                    raise ValueError(f"submit refused: {reply.get('error')}")
                if not reply["cached"]:
                    conn.wait_done(reply["id"], deadline)
                    ev = conn.events[reply["id"]]
                    running = ev.get("running", ev["done"])
                    result["queue_ms"].append((running - t0) * 1e3)
                    result["exec_ms"].append((ev["done"] - running) * 1e3)
                art = conn.request({"op": "results", "id": reply["id"]}, deadline).get("artifact")
                ok = (art is not None and reply["cached"] == (kind == "warm") and
                      gate.check(section, spec_key(specs[idx]), sha256(art.encode())))
                gate.op(ok, f"daemon {kind} request #{idx} cached={reply['cached']}")
            if metrics_path:
                result["cache_stats"] = conn.request({"op": "cache-stats"}, deadline)["cache"]
            conn.request({"op": "shutdown"}, deadline)
            result["ok"] = True
        except (OSError, RuntimeError, ValueError, KeyError) as e:
            gate.op(False, f"daemon: {e}")
        finally:
            if conn is not None:
                conn.sock.close()
            if not result["ok"]:
                proc.kill()
            reap(proc, 30)
    if result["ok"] and proc.returncode != 0:
        gate.op(False, f"easeiod exited with {proc.returncode}")
        result["ok"] = False
    return result


# ---------------------------------------------------------------------------
# The traced run: tool registries, layer driver, tracing overhead

def chk_counts(doc, wall):
    t = doc["timing"]
    execd = executed(doc)
    return {
        "chk.trials_executed": execd,
        "chk.states_deduped": t["dedup_hits"],
        "chk.pages_copied": t["pages_copied"],
        "chk.pool_hits": t["pool_hits"],
        "chk.snapshot_resumes": t["snapshot_resumes"],
        "chk.candidate_instants": doc["candidate_instants"],
        "chk.trace_events": doc["trace_events"],
        "chk.reduction_ratio": covered(doc) / execd if execd else 0.0,
        "chk.executed_trials_per_s": execd / wall,
    }


def chk_registry(metrics_path):
    reg = registry(metrics_path)
    phases = {"enumerate": "enumerate", "snapshot_capture": "snapshot-capture",
              "resume": "resume", "replay": "replay", "judge": "judge"}
    out = {f"chk.phase.{k}_s": reg_sum(reg, "easechk_phase_ns", phase=v) / 1e9
           for k, v in phases.items()}
    out["chk.trial_us_p50"] = hist_quantile(reg, "easechk_trial_us", 0.5)
    out["chk.trial_us_p99"] = hist_quantile(reg, "easechk_trial_us", 0.99)
    return out


def fidelity_check(ctx, cell, fid):
    """The driver's depth-1 totals must equal the tool's --exhaust=1 certificate."""
    out = ctx.tmp / "fidelity.json"
    c1 = dict(cell, args=["--exhaust=1"])
    p = run_tool(easechk_argv(c1, out), ctx.err)
    ok = p.rc == 0 and out.is_file()
    if ok:
        doc = read_json(out)["explorations"][0]
        cert, timing = doc["certificate"], doc["timing"]
        for k in ("schedules_covered", "d1_classes", "d1_members_collapsed", "states_deduped",
                  "trials_executed"):
            if fid[k] != cert[k]:
                ok = False
                ctx.gate.problems.append(f"fidelity {cell['key']} {k}: driver {fid[k]} tool {cert[k]}")
        if (fid["pages_copied"], fid["snapshot_resumes"]) != (timing["pages_copied"],
                                                              timing["snapshot_resumes"]):
            ok = False
            ctx.gate.problems.append(
                f"fidelity {cell['key']} pages/trial: driver {fid['pages_copied']}/"
                f"{fid['snapshot_resumes']} tool {timing['pages_copied']}/{timing['snapshot_resumes']}")
    ctx.gate.op(ok, f"fidelity {cell['key']}")
    return ok


def lint_registry(paths):
    trials = iters = 0
    for p in paths:
        reg = registry(p)
        trials += reg_sum(reg, "easelint_certify_trials")
        iters += reg_sum(reg, "easelint_fixpoint_iterations")
    return {"certify.trials": trials, "lint.fixpoint_iterations": iters}


def workload_specs(workload, cell, programs):
    """Daemon requests equivalent to a CLI workload's own operation."""
    if workload == "lint-certify":
        return [{"kind": "lint", "source": (ROOT / prog).read_text(), "source_name": prog,
                 "witness": True} for prog in programs]
    spec = {"kind": "explore", "apps": [cell["app"]], "runtimes": [cell["runtime"]],
            "seed": cell["seed"], "jobs": JOBS}
    if cell["mode"] == "exhaust2":
        spec["exhaust"] = 2
    else:
        spec.update(depth=2, budget=cell["budget"])
    return [spec]


def traced(ctx, workload):
    gate, args, tmp = ctx.gate, ctx.args, ctx.tmp
    m = {}
    mdir = tmp / "metrics"
    mdir.mkdir(exist_ok=True)
    sfx = "-smoke" if ctx.smoke else ""
    section = workload + sfx

    def more(plain):
        return len(plain) < 2 or (not ctx.smoke and time.perf_counter() - t0 < args.seconds)

    # Untraced and traced (--metrics attached) operations alternate; the traced
    # ones' outputs and registries give the tool-side counts.
    plain, withm = [], []
    t0 = time.perf_counter()
    if workload == "lint-certify":
        plan = lint_plan(args.seed, ctx.smoke)
        programs = plan_programs(plan)
        while more(plain):
            plain.append(lint_pass(ctx, plan, section)[0])
            withm.append(lint_pass(ctx, plan, section, mdir)[0])
        m.update(lint_registry([mdir / f"lint-{i}.json" for i in range(len(plan))]))
        # No chk cell of its own: the reference cell stands in for the chk layers.
        cell = ref_cell(ctx.smoke)
        p, doc = chk_op(ctx, cell, "ref" + sfx, mdir / "chk.json")
    else:
        cell = chk_cells(workload, args.seed, ctx.smoke)[0]
        programs = TOP_PROGRAMS
        while more(plain):
            plain.append(chk_op(ctx, cell, section)[0].wall)
            p, doc = chk_op(ctx, cell, section, mdir / "chk.json")
            withm.append(p.wall)
        paths = [mdir / f"lintref-{i}.json" for i in range(len(programs))]
        for prog, path in zip(programs, paths):
            lint_op(ctx, prog, LINT_SEEDS[0], "ref" + sfx, path)
        m.update(lint_registry(paths))
    m["trace.overhead_frac"] = median(withm) / median(plain) - 1.0
    if doc is not None:
        m.update(chk_counts(doc, p.wall))
        m.update(chk_registry(mdir / "chk.json"))

    # The daemon layers: the workload's own requests, each submitted cold, then again.
    specs = workload_specs(workload, cell, programs)
    r = daemon_round(ctx, specs, section + "-daemon", mdir / "easeiod.json")
    if r["ok"]:
        m["daemon.queue_wait_ms"] = median(r["queue_ms"])
        m["daemon.exec_ms"] = median(r["exec_ms"])
        st = r["cache_stats"]
        m["daemon.cache_hit_ratio"] = st["hits"] / max(1, st["hits"] + st["misses"])
    frames = [{"op": "submit", "job": specs[idx]} for _, idx in own_sequence(specs)]
    report_app = cell["app"]

    # The layer driver, on the same cell, programs and requests.
    frames_path = tmp / "frames.ndjson"
    frames_path.write_text("".join(json.dumps(f) + "\n" for f in frames))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{args.seed}.ndjson"
    argv = [LAYERS, f"--app={cell['app']}", f"--runtime={cell['runtime']}",
            f"--seed={cell['seed']}", f"--mode={cell['mode']}",
            f"--budget={cell.get('budget', 1500)}", f"--groups={4 if ctx.smoke else 48}",
            f"--sample-seed={args.seed}", f"--programs={','.join(programs)}",
            f"--frames={frames_path}", f"--cache-dir={tmp / 'driver-cache'}",
            f"--report-app={report_app}", f"--report-runs={5 if ctx.smoke else 40}",
            f"--spans={spans}"]
    out = tmp / "layers.json"
    with open(out, "wb") as f, open(ctx.err, "ab") as err:
        rc = subprocess.call([str(a) for a in argv], cwd=ROOT, stdout=f, stderr=err)
    gate.op(rc == 0, f"layer driver rc={rc}")
    info = {"spans": str(spans.relative_to(ROOT)), "driver_cell": cell["key"]}
    if rc == 0:
        layers = read_json(out)
        fidelity_check(ctx, cell, layers.pop("fidelity"))
        for layer in SELF_LAYERS:
            m[f"self.{layer}_ms"] = layers["self_ms"].get(layer, 0.0)
        names = {name for name, _ in PER_LAYER}
        m.update({k: v for k, v in layers.items() if k in names})
        # Sample sizes and other driver facts go to the run record.
        info["driver"] = {k: v for k, v in layers.items() if k not in names and k != "self_ms"}
    return m, info


# ---------------------------------------------------------------------------
# Regeneration of expected.json

def regen(args):
    """Recomputes every committed digest from the tools as built from this checkout."""
    expected = {}
    gate = Gate(expected, regen=True)
    tmp = TMP_ROOT / f"regen-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    requests = {}  # section -> daemon requests whose artifacts were just digested
    for smoke in (False, True):
        ctx = Ctx(argparse.Namespace(seed=0, seconds=0, smoke=smoke, trace=0), tmp, gate)
        sfx = "-smoke" if smoke else ""
        for wl, fn, pool in (("exhaust-lea", lea_cell, LEA_SEEDS),
                             ("budget-weather", weather_cell, WEATHER_SEEDS)):
            for i in range(len(pool)):
                cell = fn(i, smoke)
                chk_op(ctx, cell, wl + sfx)
                chk_setup(ctx, cell, wl + sfx, 1)
                # The explore request a traced run submits must return the CLI's bytes.
                spec = workload_specs(wl, cell, [])[0]
                gate.check(wl + sfx + "-daemon", spec_key(spec), expected[wl + sfx][cell["key"]])
                requests.setdefault(wl + sfx + "-daemon", []).append(spec)
        out = tmp / "easectl.out"
        for prog in lint_programs(smoke):
            for ls in LINT_SEEDS:
                lint_op(ctx, prog, ls, "lint-certify" + sfx)
            lint_setup_op(ctx, prog, "lint-certify" + sfx)
            # Lint requests: `easectl run` (the daemon's code path, no daemon) is the reference.
            spec = workload_specs("lint-certify", None, [prog])[0]
            out.unlink(missing_ok=True)
            if run_tool([TOOLS / "easectl", "run", *easectl_lint_flags(spec), f"--out={out}"],
                        ctx.err).rc != 0:
                sys.exit(f"easectl run failed for {prog}")
            gate.check("lint-certify" + sfx + "-daemon", spec_key(spec), sha256(out.read_bytes()))
            requests.setdefault("lint-certify" + sfx + "-daemon", []).append(spec)
        chk_op(ctx, ref_cell(smoke), "ref" + sfx)
        for prog in TOP_PROGRAMS:
            lint_op(ctx, prog, LINT_SEEDS[0], "ref" + sfx)
    if gate.failed:
        sys.exit("regen: a tool failed:\n" + "\n".join(gate.problems[:10]))
    # Cross-check: the daemon must serve exactly those bytes, cold and from its cache.
    check = Gate(expected)
    ctx = Ctx(argparse.Namespace(seed=0, seconds=0, smoke=False, trace=0), tmp, check)
    for section, specs in requests.items():
        daemon_round(ctx, specs, section)
    if check.failed:
        sys.exit("regen: daemon artifacts differ:\n" + "\n".join(check.problems[:10]))
    shutil.rmtree(tmp, ignore_errors=True)
    with open(args.expected, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {args.expected}")


# ---------------------------------------------------------------------------
# Main

def loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--expected", type=Path, default=EXPECTED)
    ap.add_argument("--regen-expected", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not args.regen_expected and args.workload is None:
        ap.error("--workload is required")

    if not build():
        return 1
    if args.regen_expected:
        regen(args)
        return 0
    try:
        expected = read_json(args.expected)
    except (OSError, ValueError) as e:
        log(f"perfbench: cannot read expected digests: {e}")
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
              "loadavg_before": loadavg(), "build_type": BUILD_TYPE, "chk_jobs": JOBS,
              "lint_jobs": JOBS, "daemon_workers": DAEMON_WORKERS}
    tmp = TMP_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    gate = Gate(expected)
    ctx = Ctx(args, tmp, gate)
    names = PER_LAYER if args.trace else END_TO_END
    metrics, info = {}, {}
    try:
        if args.trace:
            metrics, info = traced(ctx, args.workload)
        else:
            if args.workload in ("exhaust-lea", "budget-weather"):
                metrics, info = measure_chk(ctx, args.workload,
                                            chk_cells(args.workload, args.seed, args.smoke))
            else:
                metrics, info = measure_lint(ctx)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError,
            statistics.StatisticsError) as e:
        gate.op(False, f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record.update(info)
    record["loadavg_after"] = loadavg()
    record["problems"] = gate.problems[:20]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    log("run record: " + json.dumps(record))
    for p in gate.problems[:20]:
        log("perfbench: CHECK FAILED: " + p)

    result = {
        "correct": gate.failed == 0,
        "attempted": max(1, gate.attempted),
        "failed": gate.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in names},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
