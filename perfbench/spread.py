#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload segment-rff --seeds 1-10 --seconds 25

Runs ``perfbench/run.py`` once per seed, one run at a time, from the
repository root, and prints per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as a
share of the median.  The raw results are appended to
``perfbench/_out/spread-<workload>.jsonl``.  The uncorrected wall-clock
figures each run prints are listed as ``wall.<name>``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    log = out_dir / f"spread-{args.workload}.jsonl"
    results = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        for line in lines:
            if line.startswith("nhd:"):
                result["nhd"] = line
            # "wall clock: frames_per_s 5321.4, setup_s 0.61"
            if line.startswith("wall clock:"):
                for item in line.split(":", 1)[1].split(","):
                    name, value = item.split()
                    result["metrics"][f"wall.{name}"] = {"value": float(value)}
        results.append(result)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
