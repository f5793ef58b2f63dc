#!/usr/bin/env python3
"""trinomax benchmark: closed-loop workloads against the library's public API.

    python3 perfbench/run.py --workload solve-mixed --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the benchmark imports ``src/trinomax``
from there and nothing else).  ``--trace 0`` measures the end-to-end metrics
with tracing off: the op loop runs for ``--seconds`` of timed op time, each
op timed on its own with ``perf_counter`` after warm-up, and ``setup_s`` is
the median over fresh interpreters of the time to the first timed op.
``--trace 1`` runs a fixed number of ops (proportional to ``--seconds``)
once untraced and once with spans recorded around the calls into each
module's public functions, and reports the per-layer metrics; the spans
are written to ``.perfbench/``.  ``--trace 1 --op N`` traces op N alone
and prints its per-layer call tree.

Every op's output is checked outside the timed section; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` and the exit code is nonzero when any op failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

SETUP_PROBES = 7
CLI_PROBES = 3
PROBE_TIMEOUT_S = 120
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SEGMENTS = 5
TRACE_CHUNKS = 30
MIN_BEYOND = 10
BRANCHES = ("interior_unique", "symmetric_pair", "at_boundary", "degenerate4", "at_zero")
PROBE_CALIBRATION = 5  # calibration units a setup probe times after its READY line
SAMPLE_CAP = 20000
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ANALYZE_ARGS = ("analyze", "-l", "-3", "1", "4", "-r", "0.7", "1.9", "1.2", "-p", "0.4", "2.1", "5.0", "--json")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--op", type=int, default=None, help="with --trace 1: trace this op index alone")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.op is not None and (args.trace != 1 or args.op < 0):
        p.error("--op needs --trace 1 and a nonnegative index")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def timed_child(cmd, *, until_line: str | None = None) -> tuple[float, str]:
    """Wall time of a child process, to its exit or to the first line equal
    to ``until_line``; returns (seconds, output).  Raises on failure."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    ) as proc:
        killer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            first = proc.stdout.readline() if until_line is not None else ""
            t_line = time.perf_counter()
            out = first + proc.stdout.read()
            proc.wait()
            t_exit = time.perf_counter()
        finally:
            killer.cancel()
    if proc.returncode != 0 or (until_line is not None and first.strip() != until_line):
        raise RuntimeError(f"child {cmd[1:]} failed ({proc.returncode}): {out.strip()[-400:]}")
    return (t_line if until_line is not None else t_exit) - t0, out


@dataclass
class LoopResult:
    attempted: int = 0
    raw_s: float = 0.0  # summed op wall time
    by_interval: Counter = field(default_factory=Counter)  # calibration interval -> op wall time
    # a uniform sample of at most SAMPLE_CAP ops: latency and calibration interval
    sample_dt: array = field(default_factory=lambda: array("d"))
    sample_k: array = field(default_factory=lambda: array("q"))
    sample_i: array = field(default_factory=lambda: array("q"))  # op position in the run
    failures: list = field(default_factory=list)  # (op index, message)
    disagreements: Counter = field(default_factory=Counter)  # broken oracle rule -> distinct inputs
    branches: Counter = field(default_factory=Counter)
    raised: Counter = field(default_factory=Counter)  # exception type -> count

    @property
    def failed(self) -> int:
        return len({i for i, _ in self.failures})


def run_loop(wl, pool, *, seconds=None, stop=None, start=0, out=None, recorder=None, speed=None) -> LoopResult:
    """Closed loop over the pool (cycled): time each op alone, then check it.

    Runs ops ``start``, ``start + 1``, ... until the summed op time reaches
    ``seconds``, or up to op ``stop``, adding to ``out`` when one is given.
    With a ``speed`` log, a calibration unit runs between ops whenever one
    is due, and op time is accumulated per calibration interval so that it
    can be scaled afterwards.  Latencies are kept in a fixed-size uniform
    sample (reservoir sampling), so the process's memory does not grow with
    the number of ops.

    The first result for each pool input gets the workload's full check; a
    repeat of that input must return a result that pickles to the same
    bytes (the library is deterministic), which keeps the checks cheaper
    than the ops and the memory independent of the result size.
    """
    out = LoopResult() if out is None else out
    verified = {}
    reservoir = random.Random(0)
    i = start
    while (out.raw_s < seconds) if stop is None else (i < stop):
        j = i % len(pool)
        inp = pool[j]
        error = None
        if speed is not None:
            speed.sample_if_due()
        if recorder is not None:
            recorder.op = i
            recorder.active = True
        t0 = time.perf_counter()
        try:
            res = recorder.call("op", wl.op, inp) if recorder is not None else wl.op(inp)
        except Exception as exc:  # any raise is a failed op, recorded and reported
            error = exc
        dt = time.perf_counter() - t0
        if recorder is not None:
            recorder.active = False
        k = speed.interval if speed is not None else 0
        out.attempted += 1
        out.raw_s += dt
        out.by_interval[k] += dt
        if len(out.sample_dt) < SAMPLE_CAP:
            out.sample_dt.append(dt)
            out.sample_k.append(k)
            out.sample_i.append(i)
        else:
            slot = reservoir.randrange(i + 1)
            if slot < SAMPLE_CAP:
                out.sample_dt[slot], out.sample_k[slot], out.sample_i[slot] = dt, k, i
        if error is not None:
            out.raised[type(error).__name__] += 1
            problems = [f"raised {type(error).__name__}: {error}"]
        elif j in verified:
            same = verified[j] == hashlib.sha1(pickle.dumps(res)).digest()
            problems = [] if same else [f"repeat: result differs from the checked result for input {j}"]
        else:
            try:
                problems = wl.check(inp, res)
                if wl.disagreements is not None:
                    out.disagreements.update(wl.disagreements(inp, res))
            except Exception as exc:  # a check that cannot run fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if not problems:
                verified[j] = hashlib.sha1(pickle.dumps(res)).digest()
        if error is None and wl.branches is not None:
            out.branches.update(wl.branches(res))
        out.failures.extend((i, msg) for msg in problems)
        i += 1
    return out


def nearest_rank(sorted_values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail(values, index, n: int, pct: float) -> tuple[float, float, int, int]:
    """The workload's tail percentile as the median over up to SEGMENTS
    consecutive stretches of the run, so one burst of machine noise moves
    at most one stretch.

    ``index`` gives each sampled op's position among the ``n`` ops run.
    There are as many stretches as leave ten samples beyond the percentile
    in each; with too few samples for one, the percentile steps down the
    ladder.  Returns (value, percentile, fewest samples beyond, stretches).
    """
    for p in (pct,) + tuple(q for q in TAIL_LADDER if q < pct):
        k = min(SEGMENTS, len(values) // (math.ceil(MIN_BEYOND / (1.0 - p / 100.0)) + 1))
        if k or p == TAIL_LADDER[-1]:
            break
    k = max(k, 1)
    stretches = [[] for _ in range(k)]
    for v, i in zip(values, index):
        stretches[i * k // n].append(v)
    ranks = [nearest_rank(sorted(st), p) for st in stretches]
    return statistics.median(v for v, _ in ranks), p, min(b for _, b in ranks), k


def environment(workload: str, seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "trinomax").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git directly (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def report_failures(res: LoopResult, label: str) -> None:
    for i, msg in res.failures[:10]:
        print(f"FAIL {label} op {i}: {msg}", file=sys.stderr)


def describe(wl, pool, used: int) -> None:
    for line in wl.describe(pool[: max(1, min(used, len(pool)))]):
        print(f"  input  {line}")


def print_branches(res: LoopResult) -> None:
    total = sum(res.branches.values())
    if total:
        mix = ", ".join(f"{b} {100.0 * res.branches[b] / total:.1f}%" for b in BRANCHES)
        print(f"  branch {mix}")


def print_disagreements(wl, res: LoopResult) -> None:
    if wl.disagreements is not None:
        kinds = ", ".join(f"{k} {res.disagreements[k]}" for k in ("count", "value", "argmax"))
        print(f"  oracle disagreements at verify's tolerances (distinct inputs): {kinds}")


def setup_probe(wl, args) -> tuple[float, float]:
    """(raw, scaled) seconds from a fresh interpreter to the first timed op.

    The probe process prints READY when its warm-up is done and then times
    calibration units; their median sets the scale, so the speed is read in
    the same process, a moment after the set-up it scales.
    """
    from speed import REFERENCE_S

    seconds, out = timed_child(
        [sys.executable, str(HERE / "run.py"), "--workload", wl.name, "--seed", str(args.seed), "--setup-probe"],
        until_line="READY",
    )
    return seconds, seconds * REFERENCE_S / float(out.split()[1])


def end_to_end(wl, args, pool) -> int:
    from speed import REFERENCE_S, SpeedLog

    setups = [setup_probe(wl, args) for _ in range(SETUP_PROBES)]
    speed = SpeedLog()
    for inp in pool[: wl.warmup]:
        wl.op(inp)
    res = run_loop(wl, pool, seconds=args.seconds, speed=speed)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report_failures(res, wl.name)

    n, completed = res.attempted, res.attempted - res.failed
    scaled_s = sum(t * speed.factor(k) for k, t in res.by_interval.items())
    latencies = [dt * speed.factor(k) for dt, k in zip(res.sample_dt, res.sample_k)]
    tail_value, tail_pct, beyond, stretches = tail(latencies, res.sample_i, n, wl.tail_pct)
    metrics = {
        "ops_per_s": {"value": completed / scaled_s, "unit": "1/s"},
        "op_p50_us": {"value": nearest_rank(sorted(latencies), 50.0)[0] * 1e6, "unit": "us"},
        "op_tail_us": {"value": tail_value * 1e6, "unit": "us"},
        "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }
    print(
        f"workload {wl.name}  seed {args.seed}  {n} ops in {res.raw_s:.3f} s timed;"
        f" calibration unit median {statistics.median(speed.units) * 1e6:.1f} us"
        f" over {len(speed.units)} samples (reference {REFERENCE_S * 1e6:.1f} us)"
    )
    describe(wl, pool, n)
    print_branches(res)
    raw = {"ops_per_s": completed / res.raw_s, "setup_s": statistics.median(r for r, _ in setups)}
    for name, m in metrics.items():
        extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
        if name == "op_tail_us":
            extra = (
                f"  (p{tail_pct:g}, median over {stretches} stretches of the run,"
                f" at least {beyond} of {len(latencies)} sampled ops beyond in each)"
            )
        elif name == "setup_s":
            extra += f"  (median of {SETUP_PROBES} fresh interpreters)"
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'failed_ratio':<14} {res.failed / n:.6g}  ({res.failed} of {n})")
    print_disagreements(wl, res)
    print("# env " + json.dumps(environment(wl.name, args.seed)))
    return emit(res.failed == 0, n, res.failed, metrics)


def traced(wl, args, pool) -> int:
    import workloads
    from spans import Recorder, count_under, installed, layer_totals, render_tree

    if args.op is not None:
        ops, n = [pool[args.op % len(pool)]], 1
    else:
        ops, n = pool, max(1, round(args.seconds * wl.trace_ops_per_s))
    for inp in pool[: wl.warmup]:
        wl.op(inp)
    # the same ops run untraced and traced, alternating in chunks, so that
    # drifts in machine speed fall on both sides of trace.overhead_ratio
    plain, res, rec = LoopResult(), LoopResult(), Recorder()
    chunks = min(TRACE_CHUNKS, n)
    for c in range(chunks):
        lo, hi = n * c // chunks, n * (c + 1) // chunks
        for with_trace in (False, True) if c % 2 == 0 else (True, False):
            if with_trace:
                with installed(rec, workloads.trace_bindings()):
                    run_loop(wl, ops, start=lo, stop=hi, out=res, recorder=rec)
            else:
                run_loop(wl, ops, start=lo, stop=hi, out=plain)
    report_failures(plain, wl.name + " untraced")
    report_failures(res, wl.name + " traced")

    totals = layer_totals(rec.spans)
    op_wall, plain_wall = res.raw_s, plain.raw_s

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_per_op(name, scale):
        return totals.get(name, (0, 0.0))[1] / n * scale

    searches = calls("oracle.brute_sidon") + calls("oracle.brute_multiplier_norm")
    rows = rec.counters["phasecurves.rows"]
    branch_total = sum(res.branches.values())
    layer_self = sum(t for name, (_, t) in totals.items() if name != "op")
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer in ("spectrum.canonical_reduction", "maxmod.find_max_reduced", "maxmod.max_points_global"):
        put(f"{layer}.calls", calls(layer), "count")
        put(f"{layer}.self_us_per_op", self_per_op(layer, 1e6), "us")
    for b in BRANCHES:
        put(f"maxmod.branch.{b}", res.branches[b] / branch_total if branch_total else 0.0, "ratio")
    put("maxmod.errors", res.raised["BracketFailure"], "count")
    put("oracle.brute_max.calls", calls("oracle.brute_max"), "count")
    put("oracle.brute_max.self_us_per_op", self_per_op("oracle.brute_max", 1e6), "us")
    put(
        "oracle.brute_max.evaluations_per_call",
        rec.counters["oracle.brute_max.evaluations"] / calls("oracle.brute_max") if calls("oracle.brute_max") else 0.0,
        "count",
    )
    put("oracle.brute_max.calls_per_search", calls("oracle.brute_max") / searches if searches else 0.0, "count")
    put("oracle.brute_sidon.self_ms_per_op", self_per_op("oracle.brute_sidon", 1e3), "ms")
    put("oracle.brute_multiplier_norm.self_ms_per_op", self_per_op("oracle.brute_multiplier_norm", 1e3), "ms")
    for kind in ("count", "value", "argmax"):
        put(f"oracle.disagreements.{kind}", res.disagreements[kind], "count")
    put("phasecurves.sweep_rows.self_us_per_op", self_per_op("phasecurves.sweep_rows", 1e6), "us")
    put(
        "phasecurves.kernel_calls_per_row",
        count_under(rec.spans, "maxmod.find_max_reduced", "phasecurves.sweep_rows") / rows if rows else 0.0,
        "ratio",
    )
    put("constants.sidon_constant.self_us_per_op", self_per_op("constants.sidon_constant", 1e6), "us")
    put("constants.multiplier_norm.self_us_per_op", self_per_op("constants.multiplier_norm", 1e6), "us")
    put("extremal.classify_unit_ball_point.self_ms_per_op", self_per_op("extremal.classify_unit_ball_point", 1e3), "ms")
    put("geometry.hypotrochoid_sample.self_ms_per_op", self_per_op("geometry.hypotrochoid_sample", 1e3), "ms")
    put("geometry.farthest_points.self_ms_per_op", self_per_op("geometry.farthest_points", 1e3), "ms")
    if args.op is None:
        put("cli.import_s", median_child([sys.executable, "-c", "import trinomax"]), "s")
        put("cli.analyze_cold_s", median_child([sys.executable, "-m", "trinomax.cli", *ANALYZE_ARGS], check=check_analyze), "s")
    put("trace.ops", n, "count")
    put("trace.overhead_ratio", op_wall / plain_wall, "ratio")
    put("trace.accounted_ratio", layer_self / plain_wall, "ratio")

    print(f"workload {wl.name}  seed {args.seed}  traced {n} ops: {op_wall:.3f} s traced, {plain_wall:.3f} s untraced")
    describe(wl, ops, n)
    print_branches(res)
    if args.op is not None:
        for line in render_tree(rec.spans):
            print("  tree   " + line)
    print(
        f"  layer self time {layer_self / n * 1e6:.1f} us/op of {op_wall / n * 1e6:.1f} us/op traced,"
        f" {plain_wall / n * 1e6:.1f} us/op untraced"
    )
    for name, v in m.items():
        print(f"  {name:<48} {v['value']:.6g} {v['unit']}")
    SPAN_DIR.mkdir(exist_ok=True)
    suffix = f"-op{args.op}" if args.op is not None else ""
    with open(SPAN_DIR / f"spans-{wl.name}-seed{args.seed}{suffix}.json", "w") as fh:
        json.dump(
            {"fields": ["sid", "name", "start", "end", "parent", "op"],
             "spans": [[s.sid, s.name, s.start, s.end, s.parent, s.op] for s in rec.spans]},
            fh,
        )
    print("# env " + json.dumps(environment(wl.name, args.seed)))
    failed = plain.failed + res.failed
    return emit(failed == 0, plain.attempted + res.attempted, failed, m)


def check_analyze(stdout: str) -> None:
    from trinomax import Trinomial, max_points_global

    got = json.loads(stdout)["results"]["max"]["points"][0]["value"]
    tri = Trinomial(-3, 1, 4, 0.7, 1.9, 1.2, 0.4, 2.1, 5.0)
    want = max_points_global(tri).value
    if abs(got - want) > 1e-12 * want:
        raise RuntimeError(f"analyze --json reports {got!r}, library {want!r}")


def median_child(cmd, check=None) -> float:
    times = []
    for _ in range(CLI_PROBES):
        seconds, out = timed_child(cmd)
        if check is not None:
            check(out)
        times.append(seconds)
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trinomax" / "__init__.py").is_file():
        print(f"error: no trinomax sources at {SRC / 'trinomax'}", file=sys.stderr)
        return 2
    # one caller, no threads: keep numpy's BLAS single-threaded (set before numpy loads)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import trinomax
    import workloads

    if Path(trinomax.__file__).resolve().parent != SRC / "trinomax":
        print(f"error: imported trinomax from {trinomax.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    gen = wl.generate(random.Random(f"{wl.name}:{args.seed}"))
    if args.setup_probe:
        for inp in islice(gen, wl.warmup):
            wl.op(inp)
        print("READY", flush=True)
        from speed import unit_seconds

        print(statistics.median(unit_seconds() for _ in range(PROBE_CALIBRATION)))
        return 0
    pool = list(islice(gen, wl.pool))
    try:
        return traced(wl, args, pool) if args.trace else end_to_end(wl, args, pool)
    except RuntimeError as exc:  # a probe process failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
