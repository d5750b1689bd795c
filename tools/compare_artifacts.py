#!/usr/bin/env python3
"""Run every CLI verb from two checkouts and compare the files they write.

    python3 tools/compare_artifacts.py --parent ../parent --change .

Each side runs the same ``synth``, ``train``, ``segment``, ``eval`` and
``bench`` commands (``STEPS``) in a fresh temporary directory, with
``PYTHONPATH=<checkout>/src`` and one BLAS thread.  Paths in the commands
are relative to that directory, and any absolute mention of it is
masked, so the run's paths match.  So do the fields that change from one
run to the next: the build id, the timings, the environment, trial and
mean seconds, phase means and speed-up ratios.  Each file that still
differs is printed, a JSON file with the keys that differ, and the exit
status is 1 if any does (2 if a command fails).  A differing number, or
line of comma-separated numbers, is shown with its relative gap: relative
to the larger magnitude, or to 1 below it, so that round-off against an
exact zero does not read as a gap of 1.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the criterion-6 corpus and training settings
C6 = "c6/synthetic-*.txt"
C6_FLAGS = ["--label-column", "2", "--classes", "3", "--kmin", "10", "--kmax", "30",
            "--mean-length", "20", "--iterations", "5", "--seed", "0"]
BASE = "base/synthetic-*.txt"

STEPS = [
    ["synth", "--out", "c6", "--seed", "42", "--sequences", "5", "--frames", "120"],
    ["synth", "--out", "quickstart"],
    ["synth", "--out", "base", "--preset", "bench-base", "--seed", "20"],
    ["synth", "--out", "heldout", "--preset", "bench-base", "--seed", "21",
     "--sequences", "4", "--frames", "164"],
    *[step for backend in ("rff", "exact-gp") for step in (
        ["train", "--data", C6, "--out", f"train-{backend}", "--backend", backend,
         *C6_FLAGS, "--restarts", "2"],
        ["segment", "--model", f"train-{backend}/model.json", "--data", C6,
         "--label-column", "2", "--seed", "1", "--out", f"segment-{backend}"],
        ["eval", "--labels", f"train-{backend}/labels.txt", "--truth", "c6/truth.txt",
         "--out", f"eval-{backend}.json"],
        ["eval", "--labels", f"segment-{backend}/labels.txt", "--truth", "c6/truth.txt",
         "--out", f"eval-segment-{backend}.json"],
    )],
    # bench-base passed twice, then four held-out sequences
    ["train", "--data", BASE, BASE, "--label-column", "8", "--iterations", "3",
     "--out", "train-base"],
    ["segment", "--model", "train-base/model.json", "--data", "heldout/synthetic-*.txt",
     "--label-column", "8", "--out", "segment-heldout"],
    ["bench", "--data", BASE, "--label-column", "8", "--duplications", "2,1",
     "--trials", "2", "--max-gp-frames", "700", "--out", "bench"],
]

MASKED = {"build", "timings", "environment", "trial_seconds", "mean_seconds",
          "phase_means", "ratio"}

META = "# meta: "

SHOWN = 5  # differences listed per file


def run_steps(checkout: Path, work: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"),
               RFFSEG_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for step in STEPS:
        argv = [a for token in step
                for a in (sorted(glob.glob(token, root_dir=work)) if "*" in token
                          else [token])]
        proc = subprocess.run([sys.executable, "-m", "rffseg.cli", *argv], cwd=work,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{checkout}: rffseg {' '.join(argv)} exited with "
                  f"{proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            sys.exit(2)


def mask(obj):
    if isinstance(obj, dict):
        return {k: "<masked>" if k in MASKED else mask(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [mask(v) for v in obj]
    return obj


def normalized(path: Path, work: Path):
    """The file's content with the run's own paths and timings masked."""
    text = path.read_text(encoding="utf-8").replace(str(work), "<run>")
    if path.suffix == ".json":
        return mask(json.loads(text))
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(META):
            lines[i] = META + json.dumps(mask(json.loads(line[len(META):])),
                                         sort_keys=True)
        elif path.name == "bench.csv" and i > 0:
            lines[i] = line.rsplit(",", 1)[0] + ",<masked>"
        elif path.name == "bench.dat" and not line.startswith("#"):
            frames, _, backend = line.split(" ")
            lines[i] = f"{frames} <masked> {backend}"
    return lines


def differences(parent, change, where: str = ""):
    """Where two normalized contents differ: JSON keys, or line numbers."""
    if isinstance(parent, dict) and isinstance(change, dict):
        for key in sorted(set(parent) | set(change)):
            at = f"{where}.{key}" if where else key
            if key not in change:
                yield f"{at}: only in parent"
            elif key not in parent:
                yield f"{at}: only in change"
            else:
                yield from differences(parent[key], change[key], at)
    elif (isinstance(parent, list) and isinstance(change, list)
          and len(parent) == len(change)):
        # a top-level list is a text file's lines
        for i, (a, b) in enumerate(zip(parent, change)):
            yield from differences(a, b, f"{where}[{i}]" if where else f"line {i + 1}")
    elif parent != change:
        gap = relative_gap(parent, change)
        yield f"{where or 'content'}: differs" + (
            "" if gap is None else f" (relative {gap:.1e})")


def relative_gap(parent, change):
    """Largest relative gap of two numbers or two comma-separated lines of
    numbers, field by field, each relative to the larger magnitude or to 1
    below it; ``None`` when either is anything else."""
    def numbers(value):
        cells = value.split(",") if isinstance(value, str) else [value]
        return [float(v) for v in cells]
    try:
        pairs = list(zip(numbers(parent), numbers(change), strict=True))
    except (TypeError, ValueError):
        return None
    return max(abs(a - b) / max(abs(a), abs(b), 1.0) for a, b in pairs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout root")
    parser.add_argument("--change", type=Path, required=True, help="checkout root")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as tmp:
        works = {side: Path(tmp) / side for side in ("parent", "change")}
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            works[side].mkdir()
            run_steps(checkout, works[side])
        files = {side: {p.relative_to(w) for p in w.rglob("*") if p.is_file()}
                 for side, w in works.items()}
        differing = 0
        for name in sorted(files["parent"] | files["change"], key=str):
            if name not in files["change"] or name not in files["parent"]:
                side = "parent" if name in files["parent"] else "change"
                found = [f"only in {side}"]
            else:
                found = list(differences(
                    *(normalized(works[s] / name, works[s]) for s in works)))
            if found:
                differing += 1
                more = f"; {len(found) - SHOWN} more" if len(found) > SHOWN else ""
                print(f"{name}: " + "; ".join(found[:SHOWN]) + more)
        total = len(files["parent"] | files["change"])
    print(f"{total - differing} of {total} files equal")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
