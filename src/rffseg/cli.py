"""Command-line surface: train, segment, eval, bench, and synth verbs.

Every artifact embeds the run configuration and a build identifier so
results stay attributable; label files and model snapshots contain no
timestamps and are bit-reproducible for a fixed (data, config, seed).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .data import (
    DataFormatError,
    LoadSchema,
    PreprocessRecord,
    SequenceStore,
    bench_base_spec,
    evaluate_nhd,
    generate_synthetic,
    load_sequences,
    parse_label,
    preprocess,
    quickstart_spec,
)
from .hsmm import (InfeasibleSequenceError, backward_sample, forward_filter, json_object,
                   lattice_kernel, tileable)
from .trainer import (
    BACKENDS,
    ConfigError,
    TrainerConfig,
    emissions_from_snapshot,
    hsmm_from_snapshot,
    labels_from_spans,
    snapshot_dict,
    train,
    train_with_restarts,
)

SNAPSHOT_VERSION = 4

THREADS_ENV = "RFFSEG_THREADS"

# the settings that shape a ``segment`` run; the model's come from its snapshot
SEGMENT_FIELDS = ("data", "columns", "label_column", "delimiter", "seed", "threads", "out")

# The OpenBLAS copies bundled in numpy's and scipy's wheels: the package
# whose site directory holds the library, a glob for the library there,
# and the suffix of its exported thread-count functions.
OPENBLAS_LIBRARIES = (
    (np, "numpy.libs/libscipy_openblas64_*.so", "64_"),
    (scipy, "scipy.libs/libscipy_openblas*.so", ""),
)


@dataclass
class RunConfig(TrainerConfig):
    """Echo of everything that shaped a run, written into every artifact.

    The model and sampler settings, and their defaults, are
    ``TrainerConfig``'s; the CLI's own default is ``n_classes=11``.  The
    fields added here are the run's input, output and thread settings.
    """

    n_classes: int = 11
    downsample: int = 1
    normalize: bool = True
    columns: list | None = None
    label_column: int | None = None
    delimiter: str | None = None
    threads: int | None = None
    data: list = field(default_factory=list)
    out: str | None = None

    def schema(self) -> LoadSchema:
        return LoadSchema(delimiter=self.delimiter, columns=self.columns,
                          label_column=self.label_column)


def build_info() -> dict:
    info = {"package": "rffseg", "version": __version__, "lattice": lattice_kernel()}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent, timeout=5)
        info["git"] = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        info["git"] = None
    return info


def capture_environment(threads: int | None) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu or platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "lattice": lattice_kernel(),
        "threads": threads,
    }


def _openblas_thread_functions() -> list:
    """``(set, get)`` thread-count functions of each bundled OpenBLAS found."""
    found = []
    for package, pattern, suffix in OPENBLAS_LIBRARIES:
        site = Path(package.__file__).resolve().parent.parent
        libs = sorted(site.glob(pattern))
        if not libs:
            continue
        lib = ctypes.CDLL(str(libs[0]))
        try:
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        except AttributeError:
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        getter.argtypes = []
        getter.restype = ctypes.c_int
        found.append((setter, getter))
    return found


def limit_threads(threads: int | None) -> int | None:
    """Cap the BLAS thread pools; returns the count in force afterwards.

    numpy and scipy have loaded their OpenBLAS before any verb runs, so
    the cap is applied through each library's own setter rather than
    the environment.  The count returned is read back from the
    libraries (the largest, should they differ), also when no cap is
    asked for; it is None when no bundled OpenBLAS is found.
    """
    source = "--threads"
    if threads is None:
        env = os.environ.get(THREADS_ENV)
        if env:
            source = THREADS_ENV
            try:
                threads = int(env)
            except ValueError as exc:
                raise ConfigError(
                    f"{THREADS_ENV} must be an integer, got {env!r}") from exc
    if threads is not None and threads < 1:
        raise ConfigError(f"{source} must be >= 1, got {threads}")
    functions = _openblas_thread_functions()
    if threads is not None:
        if not functions:
            warnings.warn("no bundled OpenBLAS found; the thread cap has no effect",
                          stacklevel=2)
        for setter, _ in functions:
            setter(threads)
    counts = [getter() for _, getter in functions]
    return max(counts) if counts else None


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_labels(path: Path, labels, header: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# rffseg labels, one class id per frame\n")
        fh.write("# meta: " + json.dumps(header, sort_keys=True) + "\n")
        for arr in labels:
            for v in arr:
                fh.write(f"{int(v)}\n")


def read_labels(path) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(parse_label(line))
            except (ValueError, OverflowError) as exc:
                raise DataFormatError(f"{path}:{lineno}: bad label: {exc}") from exc
    if not values:
        raise DataFormatError(f"{path}: no labels found")
    return np.asarray(values, dtype=np.int64)


def _write_segmentation(out: Path, store: SequenceStore, labels, spans,
                        header: dict) -> None:
    """``labels.txt`` and ``spans.json`` of one labelling, both under ``header``."""
    _write_labels(out / "labels.txt", labels, header)
    _write_json(out / "spans.json", {**header, "sequences": [
        {"name": name,
         "spans": [{"start": s.start, "end": s.stop, "length": s.length,
                    "label": s.label} for s in seq_spans]}
        for name, seq_spans in zip(store.names, spans)]})


def _require_tileable(store: SequenceStore, kmin: int, kmax: int) -> None:
    """Refuse, naming each file, sequences that no segment lengths tile."""
    bad = {name: s.shape[1] for name, s in zip(store.names, store.sequences)
           if not tileable(s.shape[1], kmin, kmax)}
    if bad:
        raise DataFormatError(
            f"segment lengths in [{kmin}, {kmax}] cannot tile "
            + ", ".join(f"{name} ({frames} frames)" for name, frames in bad.items()))


def _load_and_prepare(cfg: RunConfig) -> SequenceStore:
    cfg.validate()
    store = load_sequences(cfg.data, cfg.schema())
    store = preprocess(store, downsample=cfg.downsample, normalize=cfg.normalize)
    _require_tileable(store, cfg.kmin, cfg.kmax)
    return store


def cmd_train(cfg: RunConfig) -> int:
    limit_threads(cfg.threads)
    store = _load_and_prepare(cfg)
    result = train_with_restarts(store.sequences, cfg)

    out = Path(cfg.out)
    echo = asdict(cfg)
    build = build_info()
    _write_json(out / "model.json", {
        "format_version": SNAPSHOT_VERSION,
        "config": echo,
        "build": build,
        "preprocess": store.record.to_dict(),
        "model": snapshot_dict(result.state),
    })
    _write_segmentation(out, store, result.labels, result.spans,
                        {"config": echo, "build": build})
    with open(out / "loglik.csv", "w", encoding="utf-8") as fh:
        fh.write("iteration,total_loglik\n")
        for i, v in enumerate(result.loglik_trace, start=1):
            fh.write(f"{i},{v!r}\n")
    _write_json(out / "result.json", {
        "config": echo,
        "build": build,
        "n_sequences": len(store.sequences),
        "frames": store.total_frames,
        "restart_seeds": result.restart_seeds,
        "restart_final_logliks": result.restart_logliks,
        "best_seed": result.state.config.seed,
        "final_loglik": result.final_loglik,
        "timings": result.timings,
        "artifacts": ["model.json", "labels.txt", "spans.json", "loglik.csv"],
    })
    print(f"trained {len(store.sequences)} sequences "
          f"({store.total_frames} frames); final loglik "
          f"{result.final_loglik:.3f}; artifacts in {out}")
    return 0


def cmd_segment(cfg: RunConfig, model_path: str) -> int:
    limit_threads(cfg.threads)
    try:
        with open(model_path, "r", encoding="utf-8") as fh:
            snap = json_object("snapshot", json.load(fh))
    except ValueError as exc:
        raise DataFormatError(f"{model_path}: not a JSON snapshot: {exc}") from exc
    version = snap.get("format_version")
    if version != SNAPSHOT_VERSION:
        raise DataFormatError(
            f"{model_path}: snapshot format_version {version!r} is not "
            f"supported (this build reads version {SNAPSHOT_VERSION})")
    store = load_sequences(cfg.data, cfg.schema())
    try:
        model_cfg = json_object("config", snap["config"])
        record = PreprocessRecord.from_dict(snap["preprocess"])
        store = preprocess(store, downsample=record.downsample,
                           normalize=record.normalized, record=record)
        # the chain first: its checks name a bad class count or kmax before the shapes do
        hsmm = hsmm_from_snapshot(snap["model"])
        _, emissions = emissions_from_snapshot(
            snap["model"], store.n_dims, model_cfg["beta"], model_cfg["psi"],
            model_cfg["lengthscale"])
    except ValueError as exc:
        raise DataFormatError(f"{model_path}: {exc}") from exc
    _require_tileable(store, hsmm.kmin, hsmm.kmax)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    labels, spans = [], []
    for seq in store.sequences:
        lattice = forward_filter(seq, emissions, hsmm)
        segs = backward_sample(lattice, hsmm, rng)
        spans.append(segs)
        labels.append(labels_from_spans(segs, seq.shape[1]))

    out = Path(cfg.out)
    echo = {"segment_config": {name: getattr(cfg, name) for name in SEGMENT_FIELDS},
            "model_config": model_cfg}
    _write_segmentation(out, store, labels, spans, {"config": echo, "build": build_info()})
    print(f"segmented {len(store.sequences)} sequences with {model_path}; "
          f"artifacts in {out}")
    return 0


def cmd_eval(labels_path: str, truth_path: str, out_path: str | None) -> int:
    predicted = read_labels(labels_path)
    truth = read_labels(truth_path)
    report = evaluate_nhd(predicted, truth)
    payload = {
        "config": {"labels": str(labels_path), "truth": str(truth_path)},
        "build": build_info(),
        **report.to_dict(),
    }
    if out_path:
        _write_json(Path(out_path), payload)
    print(f"nhd {report.nhd:.6f} over {predicted.size} frames "
          f"({len(report.mapping)} predicted classes)")
    return 0


def cmd_synth(preset: str, out_dir: str, seed: int, overrides: dict) -> int:
    spec = quickstart_spec() if preset == "quickstart" else bench_base_spec()
    if "n_sequences" in overrides or "seq_length" in overrides:
        spec.seq_lengths = None  # custom sizes replace preset per-sequence lengths
    for name, value in overrides.items():
        setattr(spec, name, value)
    spec.validate()
    store = generate_synthetic(spec, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, seq, lab in zip(store.names, store.sequences, store.labels):
        with open(out / f"{name}.txt", "w", encoding="utf-8") as fh:
            for t in range(seq.shape[1]):
                cells = " ".join(repr(float(v)) for v in seq[:, t])
                fh.write(f"{cells} {int(lab[t])}\n")
    _write_labels(out / "truth.txt", store.labels,
                  {"preset": preset, "seed": seed})
    _write_json(out / "synth.json", {
        "preset": preset,
        "seed": seed,
        "build": build_info(),
        "n_dims": spec.n_dims,
        "label_column": spec.n_dims,
        "sequences": store.names,
        "frames": store.total_frames,
        "n_patterns": len(spec.patterns),
    })
    print(f"wrote {len(store.sequences)} sequences ({store.total_frames} frames) "
          f"with {len(spec.patterns)} patterns to {out}")
    return 0


def cmd_bench(cfg: RunConfig, duplications: list[int], backends: list[str],
              trials: int, max_gp_frames: int | None) -> int:
    threads = limit_threads(cfg.threads)
    store = _load_and_prepare(cfg)
    base = store.sequences
    base_frames = store.total_frames
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    points = []
    for dup in duplications:
        seqs = [s for _ in range(dup) for s in base]
        frames = base_frames * dup
        for backend in backends:
            if (backend == "exact-gp" and max_gp_frames is not None
                    and frames > max_gp_frames):
                print(f"skipping exact-gp at {frames} frames "
                      f"(--max-gp-frames {max_gp_frames})")
                continue
            timings = []
            for trial in range(trials):
                result = train(seqs, replace(cfg, backend=backend, seed=cfg.seed + trial))
                timings.append(result.timings)
                print(f"bench frames={frames} backend={backend} trial={trial} "
                      f"seconds={result.timings['total']:.3f}", flush=True)
            secs = [t["total"] for t in timings]
            points.append({
                "frames": frames,
                "backend": backend,
                "trial_count": len(secs),
                "trial_seconds": secs,
                "mean_seconds": float(np.mean(secs)),
                "phase_means": {key: float(np.mean([t[key] for t in timings]))
                                for key in timings[0]},
            })

    with open(out / "bench.csv", "w", encoding="utf-8") as fh:
        fh.write("frames,backend,trial,seconds\n")
        for p in points:
            for trial, seconds in enumerate(p["trial_seconds"]):
                fh.write(f"{p['frames']},{p['backend']},{trial},{seconds!r}\n")

    # the exact-gp / rff ratio at each rung that ran both
    speedups = [{"frames": gp["frames"], "ratio": gp["mean_seconds"] / rff["mean_seconds"]}
                for rff in points if rff["backend"] == "rff"
                for gp in points
                if gp["backend"] == "exact-gp" and gp["frames"] == rff["frames"]]
    report = {
        # backend and restarts are train flags: a bench run holds their defaults
        "config": {k: v for k, v in asdict(cfg).items()
                   if k not in ("backend", "restarts")},
        "backends": backends,
        "build": build_info(),
        "environment": capture_environment(threads),
        "trials": trials,
        "duplications": duplications,
        "base_frames": base_frames,
        "points": points,
        "speedups": speedups,
    }
    _write_json(out / "bench.json", report)

    with open(out / "bench.dat", "w", encoding="utf-8") as fh:
        fh.write("# frames mean_seconds backend\n")
        for p in points:
            fh.write(f"{p['frames']} {p['mean_seconds']!r} {p['backend']}\n")
    with open(out / "bench.gnuplot", "w", encoding="utf-8") as fh:
        fh.write(
            "set xlabel 'frames'\n"
            "set ylabel 'training seconds'\n"
            "set logscale y\n"
            "plot for [b in 'rff exact-gp'] '< grep '.b.' bench.dat' "
            "using 1:2 with linespoints title b\n")
    for s in speedups:
        print(f"speed-up at {s['frames']} frames: {s['ratio']:.1f}x")
    print(f"bench artifacts in {out}")
    return 0


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--downsample", type=int, help="keep every n-th frame")
    p.add_argument("--no-normalize", action="store_false", dest="normalize")
    p.add_argument("--features", type=int, dest="n_features",
                   help="number of random features M")
    p.add_argument("--lengthscale", type=float)
    p.add_argument("--beta", type=float, help="observation noise precision")
    p.add_argument("--psi", type=float, help="weight prior precision")
    p.add_argument("--classes", type=int, dest="n_classes")
    p.add_argument("--kmin", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--mean-length", type=float,
                   help="Poisson mean segment length")
    p.add_argument("--alpha", type=float, help="transition smoothing")
    p.add_argument("--iterations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--audit", action="store_true",
                   help="cross-check incremental stats after every sweep")
    p.add_argument("--shuffle", action="store_true", dest="shuffle_sequences")
    p.add_argument("--threads", type=int,
                   help=f"BLAS thread cap (default: ${THREADS_ENV})")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", nargs="+", required=True,
                   help="delimited text files, one frame per row")
    p.add_argument("--columns", type=str,
                   help="comma-separated observation column indices")
    p.add_argument("--label-column", type=int)
    p.add_argument("--delimiter", type=str,
                   help="cell delimiter (default: any whitespace)")


def _comma_list(flag: str, text: str, convert, what: str, valid=lambda value: True,
                distinct: bool = True) -> list:
    """``text``'s comma-separated entries through ``convert``, less any that are or become ``""``;
    ``ConfigError`` naming ``flag`` unless each converts and is ``valid``, and one is left."""
    try:
        values = [v for v in (convert(entry) for entry in text.split(",") if entry) if v != ""]
    except ValueError:
        values = []
    if not values or not all(map(valid, values)) or distinct and len(set(values)) < len(values):
        raise ConfigError(f"{flag} must list {what}, got {text!r}")
    return values


def _runconfig_from_args(args) -> RunConfig:
    """The ``RunConfig`` of the flags given; the rest keep its defaults.

    The verbs that build one parse with ``argument_default=SUPPRESS``,
    so a flag left out is absent from ``args``.
    """
    names = {f.name for f in fields(RunConfig)}
    given = {k: v for k, v in vars(args).items() if k in names}
    if "columns" in given:
        text = given["columns"]
        given["columns"] = _comma_list("--columns", text, int, "column indices", distinct=False)
    label = given.get("label_column")
    if label is not None and label < 0:
        raise ConfigError(f"--label-column must be >= 0, got {label}")
    if label is not None and label in given.get("columns", ()):
        raise ConfigError(f"--label-column {label} is also listed in --columns {text!r}")
    return RunConfig(**given)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rffseg",
        description="Unsupervised time-series segmentation with "
                    "random-feature GP emissions")
    sub = parser.add_subparsers(dest="command", required=True)

    # RunConfig holds the defaults of the verbs that build one
    p_train = sub.add_parser("train", help="train a segmentation model",
                             argument_default=argparse.SUPPRESS)
    _add_data_flags(p_train)
    _add_train_flags(p_train)
    p_train.add_argument("--backend", choices=BACKENDS)
    p_train.add_argument("--restarts", type=int)
    p_train.add_argument("--out", required=True, help="output directory")

    p_seg = sub.add_parser("segment", help="label new data with a snapshot",
                           argument_default=argparse.SUPPRESS)
    p_seg.add_argument("--model", required=True, help="model.json path")
    _add_data_flags(p_seg)
    p_seg.add_argument("--seed", type=int)
    p_seg.add_argument("--threads", type=int)
    p_seg.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="score labels against ground truth")
    p_eval.add_argument("--labels", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--out", default=None, help="report JSON path")

    # no abbreviations: --backend would otherwise be read as --backends
    p_bench = sub.add_parser("bench", help="duplication-ladder timing harness",
                             argument_default=argparse.SUPPRESS, allow_abbrev=False)
    _add_data_flags(p_bench)
    _add_train_flags(p_bench)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--duplications", type=str, default="1",
                         help="comma-separated duplication factors")
    p_bench.add_argument("--backends", type=str, default=",".join(BACKENDS))
    p_bench.add_argument("--trials", type=int, default=5,
                         help="timed runs per (frames, backend) point")
    p_bench.add_argument("--max-gp-frames", type=int, default=None,
                         help="skip the exact-gp backend above this size")

    # the sizes left out keep the preset's
    p_synth = sub.add_parser("synth", help="generate a synthetic corpus",
                             argument_default=argparse.SUPPRESS)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--preset", choices=["quickstart", "bench-base"],
                         default="quickstart")
    p_synth.add_argument("--seed", type=int, default=42)
    p_synth.add_argument("--sequences", type=int, dest="n_sequences")
    p_synth.add_argument("--frames", type=int, dest="seq_length")
    p_synth.add_argument("--dims", type=int, dest="n_dims")
    p_synth.add_argument("--block-min", type=int)
    p_synth.add_argument("--block-max", type=int)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # before any verb draws from it
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "train":
            return cmd_train(_runconfig_from_args(args))
        if args.command == "segment":
            return cmd_segment(_runconfig_from_args(args), args.model)
        if args.command == "eval":
            return cmd_eval(args.labels, args.truth, args.out)
        if args.command == "bench":
            cfg = _runconfig_from_args(args)
            dups = _comma_list("--duplications", args.duplications, int,
                               "distinct positive integers", lambda d: d >= 1)
            if args.trials < 1:
                raise ConfigError(f"--trials must be >= 1, got {args.trials}")
            backends = _comma_list("--backends", args.backends, str.strip,
                                   f"distinct backends of {BACKENDS}", BACKENDS.__contains__)
            return cmd_bench(cfg, dups, backends, args.trials, args.max_gp_frames)
        if args.command == "synth":
            overrides = {k: v for k, v in vars(args).items()
                         if k not in ("command", "preset", "out", "seed")}
            return cmd_synth(args.preset, args.out, args.seed, overrides)
        parser.error(f"unknown command {args.command}")
    except (ConfigError, DataFormatError, InfeasibleSequenceError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
