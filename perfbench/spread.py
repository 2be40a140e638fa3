"""Run-to-run spread of the end-to-end metrics, against the bounds in BENCHMARK.json.

Runs the benchmark once per seed on each workload (each run its own process)
and prints, per metric, the median, the quartiles and the interquartile
distance as a share of the median, marked against a third of the metric's
bound.  Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workload sim-plain ...] [--first-seed 100]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(config: dict, workload: str, seed: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if proc.returncode or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, result {result}")
    return result["metrics"]


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        config = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--out", default=None, help="write the per-run values and summary as JSON")
    args = parser.parse_args()
    report = {}
    for workload in args.workload or [w["name"] for w in config["workloads"]]:
        runs = [run_once(config, workload, args.first_seed + i) for i in range(args.runs)]
        report[workload] = {}
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for metric in config["end_to_end"]:
            name = metric["name"]
            values = [r[name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            mark = "ok" if spread < metric["bound"] / 3 else ("WIDE" if spread > metric["bound"] else "wide")
            if name == "setup_s":
                mark += " (not gated)"
            print(f"  {name:<14} median {med:12.4f} {metric['unit']:<6} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"spread {spread:7.2%} bound {metric['bound']:.0%}  {mark}")
            report[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
