#!/usr/bin/env python3
"""Write a before/after benchmark report from two checkouts' perfbench logs.

    python3 tools/bench_report.py --parent ../parent --change . \\
        --parent-sha <sha> --change-sha <sha> --out BENCH_<n>.json

Each of ``--parent`` and ``--change`` is the root of a checkout in which
``perfbench/spread.py`` was run, one seed per call, with parent and
change alternated.  Its ``perfbench/_out/spread-<workload>.jsonl`` holds
one result per run; ``--trace 0`` runs carry the end-to-end metrics and
``--trace 1`` runs the per-layer ones.  The report gives, per workload,
each bounded metric's median and quartiles on both sides and how many
same-seed pairs the change won; the medians of the traced layer metrics;
the BLAS thread counts that the traced runs read back; and the machine.

A traced layer's time is wall seconds, so it tracks the machine's load
as well as the code.  Each timed layer is therefore also given in
reference-seconds (``*_ref``): every traced run's figure is divided by
that run's ``frames_per_ref_s / frames_per_s``, the wall seconds of one
reference-second, read from its ``trace-<workload>-seed<n>.json`` dump.
"""

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

LAYERS = ("hsmm.emission_s", "hsmm.backward_s", "hsmm.forward_s",
          "blr.emission_table_s", "exact_gp.emission_table_s", "blr.refresh_s",
          "blr.stats_s", "features.phi_calls", "trainer.sweep_s", "data.load_s")


def read_runs(root: Path, workload: str) -> tuple[dict, dict]:
    """Untraced and traced results of one workload, each keyed by seed."""
    untraced, traced = {}, {}
    log = root / "perfbench" / "_out" / f"spread-{workload}.jsonl"
    for line in log.read_text(encoding="utf-8").splitlines():
        result = json.loads(line)
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{log}: seed {result['seed']} is not a correct run")
        side = traced if "hsmm.forward_s" in result["metrics"] else untraced
        side[result["seed"]] = result["metrics"]
    return untraced, traced


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": len(values)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-sha", required=True)
    parser.add_argument("--change-sha", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {
        "parent_commit": args.parent_sha,
        "change_commit": args.change_sha,
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "machine": {"cpu": cpu_model(), "cores": os.cpu_count(),
                    "arch": platform.machine(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "blas_threads": {},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        parent, parent_traced = read_runs(args.parent, workload)
        change, change_traced = read_runs(args.change, workload)
        seeds = sorted(set(parent) & set(change))
        out = {"seeds": seeds, "end_to_end": {}, "layers": {}}
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            before = [parent[s][name]["value"] for s in seeds]
            after = [change[s][name]["value"] for s in seeds]
            wins = sum((a > b) if higher else (a < b) for a, b in zip(after, before))
            p, c = spread(before), spread(after)
            out["end_to_end"][name] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "parent": p, "change": c,
                "change_over_parent": c["median"] / p["median"],
                "change_wins": f"{wins}/{len(seeds)}",
                "median_gap_exceeds_parent_iqr":
                    abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
            }
        traced_seeds = sorted(set(parent_traced) & set(change_traced))
        out["traced_seeds"] = traced_seeds
        # wall seconds of one reference-second, per side and traced seed
        ref_second = {}
        for side, root in (("parent", args.parent), ("change", args.change)):
            for seed in traced_seeds:
                dump = json.loads((root / "perfbench" / "_out" /
                                   f"trace-{workload}-seed{seed}.json").read_text(encoding="utf-8"))
                report["blas_threads"][f"{side} {workload} seed {seed}"] = dump["blas_threads"]
                ref_second[side, seed] = dump["frames_per_ref_s"] / dump["frames_per_s"]
        for name in LAYERS:
            unit = parent_traced[traced_seeds[0]][name]["unit"]
            entry = out["layers"][name] = {"unit": unit}
            for side, runs in (("parent", parent_traced), ("change", change_traced)):
                entry[side] = statistics.median(runs[s][name]["value"] for s in traced_seeds)
                if unit.startswith("s"):
                    entry[f"{side}_ref"] = statistics.median(
                        runs[s][name]["value"] / ref_second[side, s] for s in traced_seeds)
            if unit.startswith("s"):
                entry["ref_unit"] = "ref_" + unit
        report["workloads"][workload] = out
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
