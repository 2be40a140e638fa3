"""privcache benchmark: single-process, single-thread, closed-loop.

One client calls ``privcache.cli.main(argv)`` in-process with stdout
captured, so every op is a command a user runs and every output is checked.
Run from the repository root:

    python3 perfbench/run.py --workload sim-signed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced

``--trace 0`` times whole ops and reports the end-to-end metrics; ``--trace
1`` replays block 0 alternately untraced and traced and reports the
per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object (correct, attempted, failed, metrics).

Times are reported at a reference machine speed.  Before and after every
op the harness times a fixed calibration loop of its own; each op time is
scaled by CALIBRATION_REF_S over the mean of the two samples around it.  On
a shared host the speed of the same code drifts by tens of per cent within
minutes and jitters from one op to the next, while the ratio of an op to the
calibration loops beside it stays within a few per cent, so scaled times
compare across runs and commits.  The raw times are printed next to the
scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BASELINE_PATH = os.path.join(HERE, "baseline.json")
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 0
SETUP_ROUNDS = 3
TAIL_SAMPLES = 100  # ops of a kind needed before its .p90 is reported
HARD_CAP_S = 150.0  # measuring stops here whatever else holds, to exit within 180 s
SLOT_NAMES = ("op1", "op2")
CALIBRATION_REF_S = 0.004  # the calibration loop's time at the reference speed


# ---------------------------------------------------------------------------
# percentiles and machine speed
# ---------------------------------------------------------------------------


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def tail_percentile(n: int) -> int | None:
    """p90 with at least 100 samples, otherwise the highest percentile that
    leaves at least 10 samples beyond it; None when not even p50 does."""
    if n >= TAIL_SAMPLES:
        return 90
    for p in range(89, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work of the kinds privcache
    does (modular row operations, Fraction sums, dict updates), with the
    garbage collector off so that the program's heap does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        q = 257
        rows = [[(i * 31 + j * 17) % q for j in range(32)] for i in range(32)]
        for r in range(32):
            pivot = rows[r]
            for i in range(32):
                if i != r:
                    f = rows[i][r] or 1
                    rows[i] = [(a - f * b) % q for a, b in zip(rows[i], pivot)]
        acc = Fraction(0)
        for k in range(1, 120):
            acc += Fraction(k, k + 7)
        table: dict[tuple[int, int, int], int] = {}
        for i in range(600):
            key = (i % 7, i % 11, i)
            table[key] = table.get(key, 0) + i
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def call(main, argv: list[str]) -> tuple[int, str, float]:
    """One CLI op through ``main``: exit code, captured stdout, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(argv)
        except Exception:  # a crash is a failed op; the run goes on
            rc = -1
            err.write(traceback.format_exc())
        dt = perf_counter() - t0
    if rc != 0:
        sys.stderr.write(f"op {' '.join(argv)} exited {rc}: {err.getvalue()[-2000:]}\n")
    return rc, out.getvalue(), dt


class Runner:
    """Runs units of ops, checks them, and keeps op times, calibration samples and counts."""

    def __init__(self, cli, calibrate=calibrate):
        self.cli = cli  # main is looked up per op, so a traced wrapper is seen
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        # kind, seconds, failed, index of the calibration sample taken just before the op
        self.ops: list[tuple[str, float, bool, int]] = []
        self.calibrations: list[float] = []

    def run_units(self, units, digest=None, trace=None, stop=None):
        """Run units in order, until ``stop()`` says so."""
        for unit in units:
            results, times, before = [], [], []
            for kind, argv in unit.ops:
                if not self.calibrations:
                    self.calibrations.append(self.calibrate())
                before.append(len(self.calibrations) - 1)
                if trace is not None:
                    trace.begin_op(kind)
                rc, out, dt = call(self.cli.main, argv)
                self.calibrations.append(self.calibrate())
                results.append((rc, out))
                times.append(dt)
                if digest is not None:
                    digest.update(out.encode())
                    digest.update(b"\0")
            try:
                failed = unit.check(results)
            except Exception:
                traceback.print_exc()
                failed = [True] * len(results)
            for (kind, _), dt, bad, index in zip(unit.ops, times, failed, before):
                self.attempted += 1
                self.failed += bool(bad)
                self.ops.append((kind, dt, bool(bad), index))
            if stop is not None and stop():
                return

    def times(self, kind: str | None = None, scaled: bool = True, ops=None) -> list[float]:
        """Seconds of the passing ops of one kind, or of every op when kind is None;
        scaled by the reference time over the mean of the samples before and after."""
        cal = self.calibrations
        return [dt * (2 * CALIBRATION_REF_S / (cal[c] + cal[c + 1]) if scaled else 1.0)
                for k, dt, bad, c in (self.ops if ops is None else ops)
                if kind is None or (k == kind and not bad)]

    def clear(self):
        self.ops.clear()
        self.calibrations.clear()


def load_baseline() -> dict:
    try:
        with open(BASELINE_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def import_privcache():
    """Import privcache from ./src of the current directory (the repository root)."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "privcache", "__init__.py")):
        sys.exit("perfbench: run from the repository root; ./src/privcache is missing")
    sys.path.insert(0, src)
    t0 = perf_counter()
    import privcache.cli
    import privcache.tradeoff
    elapsed = perf_counter() - t0
    if not os.path.abspath(privcache.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported privcache from {privcache.__file__}, not from {src}")
    return privcache, elapsed


def setup(workload, runner: Runner, seed: int, import_s: float):
    """Input generation plus one warm-up op of each kind, several times.

    Returns (scaled set-up seconds, raw set-up seconds, warm-up digest,
    block 0).  The warm-up ops have fixed arguments, so their digest is the
    same for every seed.
    """
    rounds, digests = [], set()
    for _ in range(SETUP_ROUNDS):
        calibrations = len(runner.calibrations)
        t0 = perf_counter()
        block0 = workload.block(seed, 0)
        digest = hashlib.sha256()
        runner.run_units(workload.warmup(), digest=digest)
        rounds.append(perf_counter() - t0 - sum(runner.calibrations[calibrations:]))
        digests.add(digest.hexdigest())
    if len(digests) != 1:
        runner.failed += 1
        print(f"  FAIL warm-up outputs differ between set-ups: {sorted(digests)}")
    raw = import_s + statistics.median(rounds)
    scaled = raw * CALIBRATION_REF_S / statistics.median(runner.calibrations)
    runner.clear()
    return scaled, raw, digests.pop(), block0


def check_digest(label: str, got: str, want: str | None, runner: Runner):
    if want is None:
        print(f"  {label} digest sha256:{got} (no recorded value)")
    elif got == want:
        print(f"  {label} digest sha256:{got} (matches the recorded value)")
    else:
        runner.failed += 1
        print(f"  FAIL {label} digest sha256:{got} differs from the recorded sha256:{want}")


def calibration_line(samples: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return (f"  calibration loop: median {med * 1e3:.3f} ms (quartiles {q1 * 1e3:.3f}..{q3 * 1e3:.3f}, "
            f"n={len(samples)}); reference {CALIBRATION_REF_S * 1e3:.3f} ms")


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def measure(workload, pc, seed: int, seconds: float, import_s: float, t_process: float) -> dict:
    runner = Runner(pc.cli)
    workload.prepare(pc.tradeoff)
    setup_s, setup_raw, warm_digest, block0 = setup(workload, runner, seed, import_s)
    warm_failed = runner.failed

    t0 = perf_counter()

    def over_cap() -> bool:
        return perf_counter() - t_process > HARD_CAP_S

    # Whole blocks only, so every run holds the same mix of inputs.
    digest = hashlib.sha256()
    runner.run_units(block0, digest=digest, stop=over_cap)
    index = 1
    while not over_cap():
        enough = all(len(runner.times(k, scaled=False)) >= TAIL_SAMPLES for k in workload.slots)
        if enough and perf_counter() - t0 >= seconds:
            break
        runner.run_units(workload.block(seed, index), stop=over_cap)
        index += 1
    wall = perf_counter() - t0

    base = load_baseline().get(workload.name, {})
    print(f"workload {workload.name} seed {seed}: {len(runner.ops)} timed ops in {index} blocks, "
          f"{wall:.1f} s, {runner.failed - warm_failed} failed")
    check_digest("warm-up", warm_digest, base.get("warmup_digest"), runner)
    block_want = base.get("block0_digest") if seed == base.get("seed") else None
    check_digest(f"block-0 (seed {seed})", digest.hexdigest(), block_want, runner)
    print(calibration_line(runner.calibrations))

    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(runner.ops) / sum(runner.times()), "ops/s"),
        "ok_ratio": (1 - runner.failed / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {"setup_s": setup_raw, "ops_per_s": len(runner.ops) / sum(runner.times(scaled=False))}
    for slot, kind in zip(SLOT_NAMES, workload.slots):
        values, raw_values = runner.times(kind), runner.times(kind, scaled=False)
        if len(values) < TAIL_SAMPLES:
            print(f"  FAIL {kind}: {len(values)} samples, {TAIL_SAMPLES} needed for p90")
            runner.failed += 1
            values = raw_values = values or [math.nan]
        metrics[f"{slot}_ms.p50"] = (statistics.median(values) * 1e3, "ms")
        metrics[f"{slot}_ms.p90"] = (percentile(values, 90) * 1e3, "ms")
        raw[f"{slot}_ms.p50"] = statistics.median(raw_values) * 1e3
        raw[f"{slot}_ms.p90"] = percentile(raw_values, 90) * 1e3
    for name, (value, unit) in metrics.items():
        extra = f"   (raw {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:<16} {value:12.4f} {unit}{extra}")
    slot_of = dict(zip(workload.slots, SLOT_NAMES))
    for kind in workload.kinds:
        values = runner.times(kind)
        if not values:
            continue
        line = f"  {kind}_ms.p50 {statistics.median(values) * 1e3:.3f} ms"
        tail = tail_percentile(len(values))
        if tail is not None:
            line += f", {kind}_ms.p{tail} {percentile(values, tail) * 1e3:.3f} ms"
        alias = f"   [{slot_of[kind]}_ms]" if kind in slot_of else ""
        print(f"{line}  (n={len(values)}){alias}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

# Stats reported per traced function; counts are exact per block 0.
LAYER_STATS = {
    "gf.solve_any": ("calls", "self_s", "useful_ratio"),
    "gf.rref": ("calls", "self_s", "cells", "rank"),
    "gf.determined_unknowns": ("calls", "self_s"),
    "ucc.decode_linear": ("calls", "self_s", "failures"),
    "ucc.decode_structural": ("calls", "self_s", "failures"),
    "ucc.encode": ("calls", "self_s", "segments", "symbols"),
    "scheme.run_simulation": ("calls", "self_s"),
    "scheme.place_caches": ("calls", "self_s"),
    "scheme.deliver": ("calls", "self_s"),
    "scheme.decode_user": ("calls", "self_s"),
    "audit.masked_demand_law": ("calls", "self_s", "support"),
    "audit.verify_law_invariance": ("calls", "self_s"),
    "audit.exact_mutual_information": ("calls", "self_s"),
    "tradeoff.verify_envelope_dominance": ("calls", "self_s", "checked_points"),
    "tradeoff.gap_certificate": ("calls", "self_s"),
    "tradeoff.converse_line": ("calls", "self_s"),
    "exact.Envelope.value_at": ("calls", "self_s"),
    "exact.lower_convex_envelope": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
UNITS = {"self_s": "s", "useful_ratio": "ratio"}


def block_counts(trace) -> dict[str, int]:
    """Exact work counts of one traced block, keyed by metric name."""
    counts = {}
    for i, name in enumerate(tracer.NAMES):
        counts[f"{name}.calls"] = trace.calls[i]
        counts[f"{name}.failures"] = trace.failures[i]
        for key, value in trace.tallies[i].items():
            counts[f"{name}.{key}"] = value
    return counts


def measure_traced(workload, pc, seed: int, seconds: float, import_s: float, t_process: float) -> dict:
    runner = Runner(pc.cli)
    workload.prepare(pc.tradeoff)
    _, _, warm_digest, block0 = setup(workload, runner, seed, import_s)

    def replay(trace=None) -> tuple[float, float, str]:
        """Block 0 once: scaled op seconds, the block's speed factor, output digest."""
        first_op, first_cal = len(runner.ops), len(runner.calibrations)
        digest = hashlib.sha256()
        runner.run_units(block0, digest=digest, trace=trace)
        factor = CALIBRATION_REF_S / statistics.median(runner.calibrations[first_cal:])
        return sum(runner.times(ops=runner.ops[first_op:])), factor, digest.hexdigest()

    plain_walls, traced_walls, self_times = [], [], []
    first = None
    digests = set()
    t0 = perf_counter()
    while True:
        wall, _, digest = replay()
        plain_walls.append(wall)
        digests.add(digest)
        with tracer.traced() as trace:
            wall, factor, digest = replay(trace)
        traced_walls.append(wall)
        digests.add(digest)
        self_times.append([s * factor for s in trace.self_times()])
        counts = block_counts(trace)
        if first is None:
            first, counts0 = trace, counts
        elif counts != counts0:
            runner.failed += 1
            diff = sorted(k for k in counts if counts[k] != counts0[k])
            print(f"  FAIL structural counts differ between replays of block 0: {diff}")
        now = perf_counter()
        if now - t0 >= seconds or now - t_process > HARD_CAP_S / 2:
            break

    print(f"workload {workload.name} seed {seed}: block 0 replayed {len(traced_walls)}x untraced and traced")
    recorded = load_baseline().get(workload.name, {})
    check_digest("warm-up", warm_digest, recorded.get("warmup_digest"), runner)
    if len(digests) != 1:
        runner.failed += 1
        print(f"  FAIL block-0 outputs differ between replays: {sorted(digests)}")
    else:
        block_want = recorded.get("block0_digest") if seed == recorded.get("seed") else None
        check_digest(f"block-0 (seed {seed})", digests.pop(), block_want, runner)
    print(calibration_line(runner.calibrations))

    ops_per_kind = defaultdict(int)
    for kind in first.op_kinds:
        ops_per_kind[kind] += 1
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls)
    metrics = {}
    for i, name in enumerate(tracer.NAMES):
        for stat in LAYER_STATS[name]:
            if stat == "self_s":
                value = statistics.median(st[i] for st in self_times)
            elif stat == "useful_ratio":
                calls = counts0[f"{name}.calls"]
                value = counts0[f"{name}.useful"] / calls if calls else 0.0
            else:
                value = counts0[f"{name}.{stat}"]
            metrics[f"{name}.{stat}"] = (value, UNITS.get(stat, "count"))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    print(f"  tracing overhead: traced block {statistics.median(traced_walls):.3f} s vs untraced "
          f"{statistics.median(plain_walls):.3f} s (x{overhead:.3f}, scaled times)")
    structural = structural_counts(counts0, ops_per_kind)
    print("  structural counts per block 0: " + ", ".join(f"{k}={v}" for k, v in structural.items()))
    if seed == recorded.get("seed") and recorded.get("structural_counts"):
        same = recorded["structural_counts"] == structural
        print(f"  structural counts {'match' if same else 'DIFFER from'} the recorded default-seed counts")
    print_attribution(first)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<50} {value:14.6f} {unit}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.tsv.gz")
    first.write_spans(path)
    print(f"  spans of the first traced block: {os.path.relpath(path)} ({len(first.starts)} spans)")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def structural_counts(counts: dict[str, int], ops_per_kind: dict[str, int]) -> dict[str, int | float]:
    laws = ops_per_kind.get("law", 0)
    return {
        "ops": sum(ops_per_kind.values()),
        "segments": counts["ucc.encode.segments"],
        "symbols": counts["ucc.encode.symbols"],
        "rref_cells": counts["gf.rref.cells"],
        "rref_rank": counts["gf.rref.rank"],
        "solve_any_calls": counts["gf.solve_any.calls"],
        "law_calls_per_law_op": counts["audit.masked_demand_law.calls"] / laws if laws else 0,
        "value_at_calls": counts["exact.Envelope.value_at.calls"],
        "checked_points": counts["tradeoff.verify_envelope_dominance.checked_points"],
    }


def print_attribution(trace):
    """Share of each op kind's traced time spent inside the heaviest layers."""
    inclusive = trace.inclusive_by_kind()
    main_id = tracer.NAMES.index("cli.main")
    for kind, per_name in sorted(inclusive.items()):
        total = per_name[main_id]
        ranked = sorted(((t, n) for n, t in zip(tracer.NAMES, per_name) if n != "cli.main"), reverse=True)
        shares = ", ".join(f"{n} {t / total:.1%}" for t, n in ranked[:4] if t > 0)
        print(f"  {kind}: {total:.3f} s traced (raw); inclusive shares: {shares}")


# ---------------------------------------------------------------------------
# --all: every workload, untraced and traced, in child processes
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: int) -> int:
    status = 0
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except ValueError:
                print(f"{name} --trace {trace}: no result (exit {proc.returncode})")
                status = 1
                continue
            if proc.returncode or not result["correct"]:
                status = 1
            if trace == 0:
                summary[name] = result["metrics"]
            print(f"{name} --trace {trace}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}\n")
    print("end-to-end metrics (op1/op2 are each workload's first and second op kinds):")
    for name, metrics in summary.items():
        print(f"  {name} [op1={WORKLOADS[name].slots[0]}, op2={WORKLOADS[name].slots[1]}]")
        for metric, m in metrics.items():
            print(f"    {metric:<16} {m['value']:12.4f} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    t_process = perf_counter()
    pc, import_s = import_privcache()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("pass --workload or --all")
    run = measure_traced if args.trace else measure
    result = run(WORKLOADS[args.workload], pc, args.seed, args.seconds, import_s, t_process)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
