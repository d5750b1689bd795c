#!/usr/bin/env python3
"""Benchmark of rffseg, driven from outside the program.

    python3 perfbench/run.py --workload train-rff --seed 1 --seconds 25 --trace 0

Run from the repository root.  It imports ``rffseg`` from ``src/``
only through its public functions, with BLAS pinned to one thread, and
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer ones, and the spans go to
``perfbench/_out/``.  See ``perfbench/README.md``.
"""

import os

# Both OpenBLAS copies (numpy's and scipy's) read these when they load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401  (loads scipy's OpenBLAS)

import oracle  # noqa: E402
from refkernel import SLICES_PER_REF_SECOND, ReferenceKernel  # noqa: E402
from spans import Patches, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

N_CLASSES = 11
LABEL_COLUMN = 8  # bench-base has D=8 observation columns, then the label
HELDOUT_SEQUENCES = 240
HELDOUT_FRAMES = 164
LOGLIK_SAMPLE = 8  # held-out sequences re-scored by the independent recursion
TOLERANCE = 1e-8
# Observations are normalised into [-1, 1]; a predictive mean near zero
# is compared relative to that range rather than to its own size.
DATA_SCALE = 1.0
# The median labelling of a run must beat a uniformly random frame
# labelling by this share of its NHD; random labelling scores about 0.89.
NHD_SHARE = 0.8

# Each set-up of a training workload makes one chain on its own corpus:
# 3 bench-base sequences (about 490 frames) repeated ``copies`` times.
# Each timed round is one Gibbs sweep of the next chain, so a run
# averages over corpora and chain seeds.  segment-rff repeats the
# set-up of one frozen model, trained on 10 copies.
WORKLOADS = {
    "train-rff": {"backend": "rff", "copies": 80, "setups": 6},  # 39,200 frames
    "train-exact-gp": {"backend": "exact-gp", "copies": 5, "setups": 24},  # 2,450
    "segment-rff": {"backend": "rff", "copies": 10, "setups": 7},
}

# setup_s is in reference-seconds: wall seconds at the machine speed at
# which the reference kernel runs 1,000 slices a second.
END_TO_END_UNITS = {"frames_per_ref_s": "1/ref_s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def blas_thread_counts() -> dict:
    """Thread counts read back from numpy's and scipy's OpenBLAS."""
    found = {}
    for label, module, pattern, symbol in (
            ("numpy", np, "numpy.libs/libscipy_openblas64_*.so",
             "scipy_openblas_get_num_threads64_"),
            ("scipy", scipy, "scipy.libs/libscipy_openblas*.so",
             "scipy_openblas_get_num_threads")):
        site = Path(module.__file__).resolve().parent.parent
        libs = sorted(glob.glob(str(site / pattern)))
        if not libs:
            raise BenchError(f"no OpenBLAS library matching {site / pattern}")
        getter = getattr(ctypes.CDLL(libs[0]), symbol)
        getter.argtypes = []
        getter.restype = ctypes.c_int
        found[label] = int(getter())
    return found


def run_in_child(*argv) -> None:
    """Run one rffseg CLI verb in a child process and wait for it.

    Used for ``train``, so that its memory stays out of ``peak_rss_mb``.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "rffseg.cli", *map(str, argv)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise BenchError(f"rffseg {argv[0]} failed: {proc.stderr.strip()}")


CORPUS, TRAINER, HELDOUT = range(3)


def derive_seed(seed: int, purpose: int, index: int = 0) -> int:
    """An input seed for one purpose, drawn from the run's ``--seed``."""
    state = np.random.SeedSequence([seed, purpose, index]).generate_state(1)
    return int(state[0] % 2**31)


def read_raw(paths):
    """Observation arrays ``(D, T)`` and label vectors, parsed by numpy."""
    tables = [np.loadtxt(p, ndmin=2) for p in paths]
    return ([t[:, :LABEL_COLUMN].T for t in tables],
            [t[:, LABEL_COLUMN].astype(np.int64) for t in tables])


def minmax(raw, lo, hi):
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    return [np.where((span > 0)[:, None], 2.0 * (x - lo[:, None]) / safe[:, None] - 1.0, 0.0)
            for x in raw]


def corpus_minmax(raw):
    stacked = np.hstack(raw)
    return stacked.min(axis=1), stacked.max(axis=1)


class Run:
    """One measured run of one workload."""

    def __init__(self, rffseg, workload: str, seed: int, seconds: float,
                 tracer: Tracer | None, work: Path):
        self.m = rffseg
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work = work
        self.patches = Patches()
        self.ref = ReferenceKernel()
        self.errors = []
        self.nhd = []  # (where, model NHD, random labelling's NHD)
        self.setup_times = []  # (wall seconds, mean reference slice beside it)
        self.snapshot_bytes = 0

    # -- tracing ---------------------------------------------------------

    def span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def install_tracing(self) -> None:
        m, t = self.m, self.tracer

        def lattice(tr, args):
            seq, _, params = args
            n_frames = seq.shape[1]
            n_k = min(params.kmax, n_frames) - params.kmin + 1
            tr.count("hsmm.lattice_cells", n_frames * n_k * params.n_classes)

        def gram(tr, args):
            tr.count("exact_gp.gram_rows", args[0].shape[0])

        wrap = self.patches.wrap
        wrap(m.data, "load_sequences", t.traced("data.load"))
        wrap(m.data, "preprocess", t.traced("data.preprocess"))
        wrap(m.trainer, "initialize", t.traced("trainer.init"))
        wrap(m.trainer, "gibbs_sweep", t.traced("trainer.sweep"))
        for owner in (m.hsmm, m.trainer):
            wrap(owner, "forward_filter", t.traced("hsmm.forward", lattice))
            wrap(owner, "backward_sample", t.traced("hsmm.backward"))
        wrap(m.hsmm, "build_log_emission_tables", t.traced("hsmm.emission"))
        wrap(m.blr.ClassModel, "log_emission_table", t.traced("blr.emission_table"))
        wrap(m.blr.ClassModel, "refresh", t.traced("blr.refresh"))
        wrap(m.blr.ClassModel, "add_segment", t.traced("blr.add"))
        wrap(m.blr.ClassModel, "remove_segment", t.traced("blr.remove"))
        wrap(m.blr, "cho_factor", t.traced("blr.cho_factor"))
        wrap(m.features.FeatureBank, "phi", t.traced("features.phi"))
        wrap(m.exact_gp.GpClassData, "log_emission_table",
             t.traced("exact_gp.emission_table"))
        wrap(m.exact_gp.GpClassData, "refresh", t.traced("exact_gp.refresh"))
        wrap(m.exact_gp, "cho_factor", t.traced("exact_gp.cho_factor", gram))
        wrap(self.ref, "run_slice", t.traced("bench.ref"))

    def interleave_reference(self) -> None:
        """Run one reference slice before every sequence visit of training."""
        def make(original):
            def visit(*args, **kwargs):
                self.ref.run_slice()
                return original(*args, **kwargs)
            return visit
        self.patches.wrap(self.m.trainer, "forward_filter", make)

    # -- workloads -------------------------------------------------------

    def synth(self, out: Path, seed: int, *extra) -> list:
        """Write a bench-base corpus with the program's ``synth`` verb."""
        argv = ["synth", "--preset", "bench-base", "--seed", seed, "--out", out, *extra]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.m.cli.main([str(a) for a in argv])
        if code != 0:
            raise BenchError(f"rffseg synth exited with {code}")
        return sorted(out.glob("synthetic-*.txt"))

    def config(self, seed: int):
        return self.m.trainer.TrainerConfig(n_classes=N_CLASSES,
                                            backend=self.spec["backend"], seed=seed)

    def run(self) -> dict:
        if self.tracer is not None:
            self.install_tracing()
        try:
            if self.workload.startswith("train"):
                result = self.run_train()
            else:
                result = self.run_segment()
        finally:
            self.patches.restore()
        self.check_nhd()
        return result

    def run_train(self) -> dict:
        m = self.m
        copies = self.spec["copies"]
        schema = m.data.LoadSchema(label_column=LABEL_COLUMN)
        bases = [self.synth(self.work / f"corpus-{i}", derive_seed(self.seed, CORPUS, i))
                 for i in range(self.spec["setups"])]
        chains = []
        for i, base in enumerate(bases):
            config = self.config(derive_seed(self.seed, TRAINER, i))
            before = self.ref.sample()
            start = time.perf_counter()
            store = m.data.preprocess(m.data.load_sequences(base * copies, schema))
            chains.append(m.trainer.initialize(store.sequences, config))
            self.setup_times.append((time.perf_counter() - start,
                                     (before + self.ref.sample()) / 2))

        self.interleave_reference()
        sweeps = visits = frames = 0
        first_slice = len(self.ref.durations)
        start = time.perf_counter()
        while True:
            state = chains[sweeps % len(chains)]
            m.trainer.gibbs_sweep(state)
            sweeps += 1
            visits += len(state.sequences)
            frames += sum(seq.shape[1] for seq in state.sequences)
            if self.spec["backend"] == "exact-gp":
                # A user trains one chain; let go of this one's Gram inverses
                # so that peak memory does not grow with the number of chains.
                for data in state.emissions.class_models:
                    data.set_points(data.taus, data.values)
            if time.perf_counter() - start >= self.seconds:
                break
        wall = time.perf_counter() - start
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.patches.restore()

        for i, (base, state) in enumerate(zip(bases, chains[:sweeps])):
            raw, truth = read_raw(base)
            sequences = minmax(raw, *corpus_minmax(raw))
            self.check_train(state, sequences * copies, truth * copies, f"chain {i}")
        return {"visits": visits, "frames": frames, "start": start, "wall": wall,
                "slices": self.ref.durations[first_slice:], "peak_rss_mb": peak_rss}

    def run_segment(self) -> dict:
        m = self.m
        train_paths = self.synth(self.work / "train", derive_seed(self.seed, CORPUS))
        train_paths = train_paths * self.spec["copies"]
        model_dir = self.work / "model"
        # the best of 3 restarts, so that one poor chain does not make a poor model
        run_in_child("train", "--data", *train_paths, "--label-column", LABEL_COLUMN,
                     "--classes", N_CLASSES, "--restarts", 3,
                     "--seed", derive_seed(self.seed, TRAINER), "--out", model_dir)
        paths = self.synth(self.work / "heldout", derive_seed(self.seed, HELDOUT),
                           "--sequences", HELDOUT_SEQUENCES, "--frames", HELDOUT_FRAMES)
        model_path = model_dir / "model.json"
        self.snapshot_bytes = model_path.stat().st_size
        schema = m.data.LoadSchema(label_column=LABEL_COLUMN)
        for _ in range(self.spec["setups"]):  # the last set-up is used
            before = self.ref.sample()
            start = time.perf_counter()
            store = m.data.load_sequences(paths, schema)
            with self.span("cli.snapshot_load"):
                with open(model_path, "r", encoding="utf-8") as fh:
                    snap = json.load(fh)
                record = m.data.PreprocessRecord.from_dict(snap["preprocess"])
                cfg = snap["config"]
                _, emissions = m.trainer.emissions_from_snapshot(
                    snap["model"], store.n_dims, cfg["beta"], cfg["psi"],
                    cfg["lengthscale"])
                params = m.trainer.hsmm_from_snapshot(snap["model"])
            store = m.data.preprocess(store, downsample=record.downsample,
                                      normalize=record.normalized, record=record)
            self.setup_times.append((time.perf_counter() - start,
                                     (before + self.ref.sample()) / 2))

        emitters = emissions.emitters()
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        sequences = store.sequences
        outputs = []
        visits = frames = 0
        first_slice = len(self.ref.durations)
        start = time.perf_counter()
        while True:
            seq = sequences[visits % len(sequences)]
            self.ref.run_slice()
            lattice = m.hsmm.forward_filter(seq, emitters, params)
            outputs.append((lattice.total_loglik,
                            m.hsmm.backward_sample(lattice, params, rng)))
            visits += 1
            frames += seq.shape[1]
            if time.perf_counter() - start >= self.seconds:
                break
        wall = time.perf_counter() - start
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.patches.restore()

        self.check_segment(snap, emissions, params, train_paths, model_dir,
                           paths, outputs)
        return {"visits": visits, "frames": frames, "start": start, "wall": wall,
                "slices": self.ref.durations[first_slice:], "peak_rss_mb": peak_rss}

    # -- checks, never timed ---------------------------------------------

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def check_spans(self, spans, n_frames, kmin, kmax, where) -> None:
        for err in oracle.span_errors(spans, n_frames, kmin, kmax, N_CLASSES):
            self.fail(f"{where}: {err}")

    def check_counts(self, assignments, params, where) -> None:
        trans, counts = oracle.recount(assignments, N_CLASSES)
        if not np.array_equal(trans, params.transition_counts):
            self.fail(f"{where}: transition counts differ from a recount of the spans")
        if not np.array_equal(counts, params.class_counts):
            self.fail(f"{where}: class counts differ from a recount of the spans")

    def check_close(self, got, want, what, floor=DATA_SCALE) -> None:
        err = oracle.relative_error(got, want, floor)
        if not err <= TOLERANCE:
            self.fail(f"{what}: relative error {err:.3e} exceeds {TOLERANCE:g}")

    def record_nhd(self, predicted, truth, where) -> None:
        predicted = np.concatenate(predicted)
        truth = np.concatenate(truth)
        rng = np.random.default_rng(self.seed)
        random_nhd = oracle.nhd(rng.integers(0, N_CLASSES, size=truth.size), truth)
        self.nhd.append((where, oracle.nhd(predicted, truth), random_nhd))

    def check_nhd(self) -> None:
        """The run's median labelling must beat random labelling clearly.

        One Gibbs sweep from a random start can leave a single chain
        poor; the median over the run's chains tells a working sampler
        from a broken one without failing on that chance.
        """
        model = statistics.median(m for _, m, _ in self.nhd)
        random = statistics.median(r for _, _, r in self.nhd)
        if not model < NHD_SHARE * random:
            self.fail(f"median NHD {model:.3f} of {len(self.nhd)} labellings is not "
                      f"clearly below random labelling's {random:.3f}")

    def class_segments(self, sequences, assignments):
        per_class = [[] for _ in range(N_CLASSES)]
        for seq, segs in zip(sequences, assignments):
            for seg in segs:
                per_class[seg.label].append(seq[:, seg.start:seg.stop])
        return per_class

    def check_predictive(self, emissions, bank, config, sequences, assignments,
                         where) -> None:
        kmax = config["kmax"]
        taus = np.arange(1, kmax + 1, dtype=np.float64)
        for c, segs in enumerate(self.class_segments(sequences, assignments)):
            counts, sums = oracle.position_sums(segs, kmax, sequences[0].shape[0])
            if emissions.backend_name == "rff":
                want_mean, want_var = oracle.blr_predictive(
                    bank.omegas, bank.phases, config["beta"], config["psi"],
                    counts, sums, taus)
                got_mean, got_var = emissions.class_models[c].predictive(bank, taus)
                want_var = np.broadcast_to(want_var[:, None], got_var.shape)
            else:
                want_mean, want_var = oracle.gp_predictive(
                    config["lengthscale"], config["beta"], counts, sums, taus)
                pairs = [emissions.class_models[c].gp_predictive(t) for t in taus]
                got_mean = np.array([p[0] for p in pairs])
                got_var = np.array([p[1] for p in pairs])
            self.check_close(got_mean, want_mean, f"{where}: class {c} predictive mean")
            self.check_close(got_var, want_var, f"{where}: class {c} predictive variance")

    def check_train(self, state, sequences, truth, where) -> None:
        config = state.config
        for i, (seq, segs) in enumerate(zip(sequences, state.assignments)):
            self.check_spans(segs, seq.shape[1], config.kmin, config.kmax,
                             f"{where}, sequence {i}")
        self.check_counts(state.assignments, state.hsmm, where)
        state.emissions.refresh()
        self.check_predictive(state.emissions, state.bank, vars(config), sequences,
                              state.assignments, where)
        labels = [np.concatenate([np.full(s.stop - s.start, s.label) for s in segs])
                  for segs in state.assignments]
        self.record_nhd(labels, truth, where)

    def check_segment(self, snap, emissions, params, train_paths, model_dir,
                      paths, outputs) -> None:
        m = self.m
        config = snap["config"]
        with open(model_dir / "spans.json", "r", encoding="utf-8") as fh:
            trained = [[m.hsmm.Segment(s["start"], s["end"], s["label"])
                        for s in entry["spans"]]
                       for entry in json.load(fh)["sequences"]]
        train_raw, _ = read_raw(train_paths)
        lo, hi = corpus_minmax(train_raw)
        train_seqs = minmax(train_raw, lo, hi)
        self.check_counts(trained, params, "snapshot")
        bank = m.features.FeatureBank.from_dict(snap["model"]["bank"])
        self.check_predictive(emissions, bank, config, train_seqs, trained, "snapshot")

        raw, truth = read_raw(paths)
        sequences = minmax(raw, lo, hi)
        last = {}
        for visit, (loglik, segs) in enumerate(outputs):
            i = visit % len(sequences)
            self.check_spans(segs, sequences[i].shape[1], params.kmin, params.kmax,
                             f"held-out sequence {i}")
            last[i] = segs
        labels = [np.concatenate([np.full(s.stop - s.start, s.label) for s in last[i]])
                  for i in sorted(last)]
        self.record_nhd(labels, [truth[i] for i in sorted(last)], "held-out")

        # posterior tables of the independent model, then the plain recursion
        kmax = config["kmax"]
        taus = np.arange(1, kmax + 1, dtype=np.float64)
        per_class = self.class_segments(train_seqs, trained)
        posteriors = [oracle.blr_predictive(bank.omegas, bank.phases, config["beta"],
                                            config["psi"],
                                            *oracle.position_sums(segs, kmax, lo.size),
                                            taus)
                      for segs in per_class]
        log_trans = oracle.log_transition(params.transition_counts, params.alpha)
        step = max(1, min(len(outputs), len(sequences)) // LOGLIK_SAMPLE)
        for visit in range(0, min(len(outputs), len(sequences)), step):
            seq = sequences[visit]
            n_k = min(kmax, seq.shape[1])
            table = np.stack([oracle.emission_table(mean[:n_k], var[:n_k], seq)
                              for mean, var in posteriors])
            want = oracle.hsmm_loglik(table, params.kmin, params.kmax,
                                      params.mean_length, log_trans)
            self.check_close(outputs[visit][0], want,
                             f"held-out sequence {visit}: total_loglik")


def end_to_end(run: Run, result: dict) -> tuple[dict, dict]:
    """The bounded metrics, and the wall-clock figures beside them.

    The work time is the timed section's wall time less its reference
    slices.  ``frames_per_ref_s`` divides it by the mean of those slices;
    ``setup_s`` divides each set-up's wall time by the slices taken just
    before and after it.  Both are then in reference-seconds.
    """
    slices = result["slices"]
    if not slices:
        raise BenchError("no reference slice ran in the timed section")
    work = result["wall"] - sum(slices)
    ref_second = statistics.fmean(slices) * SLICES_PER_REF_SECOND
    values = {
        "frames_per_ref_s": result["frames"] * ref_second / work,
        "setup_s": statistics.median(t / (r * SLICES_PER_REF_SECOND)
                                     for t, r in run.setup_times),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    wall = {"frames_per_s": result["frames"] / work,
            "setup_s": statistics.median(t for t, _ in run.setup_times)}
    return ({name: {"value": v, "unit": END_TO_END_UNITS[name]}
             for name, v in values.items()}, wall)


PER_VISIT = [
    # (metric, span name, field, unit): field "self", "net" or "calls"
    ("hsmm.forward_s", "hsmm.forward", "self", "s/visit"),
    ("hsmm.forward_calls", "hsmm.forward", "calls", "1/visit"),
    ("hsmm.backward_s", "hsmm.backward", "net", "s/visit"),
    ("hsmm.emission_s", "hsmm.emission", "net", "s/visit"),
    ("blr.emission_table_s", "blr.emission_table", "net", "s/visit"),
    ("exact_gp.emission_table_s", "exact_gp.emission_table", "net", "s/visit"),
    ("blr.refresh_s", "blr.refresh", "net", "s/visit"),
    ("blr.cholesky_calls", "blr.cho_factor", "calls", "1/visit"),
    ("blr.add_calls", "blr.add", "calls", "1/visit"),
    ("blr.remove_calls", "blr.remove", "calls", "1/visit"),
    ("features.phi_calls", "features.phi", "calls", "1/visit"),
    ("features.phi_s", "features.phi", "net", "s/visit"),
    ("exact_gp.refresh_s", "exact_gp.refresh", "net", "s/visit"),
    ("exact_gp.rebuilds", "exact_gp.cho_factor", "calls", "1/visit"),
    ("trainer.sweep_s", "trainer.sweep", "net", "s/visit"),
    ("trainer.self_s", "trainer.sweep", "self", "s/visit"),
]
PER_SETUP = [
    ("trainer.init_s", "trainer.init"),
    ("data.load_s", "data.load"),
    ("data.preprocess_s", "data.preprocess"),
    ("cli.snapshot_load_s", "cli.snapshot_load"),
]


def per_layer(run: Run, result: dict) -> dict:
    """Per-visit figures of the timed section; medians of the set-ups."""
    timed = result["start"]
    spans = run.tracer.summary(timed, timed + result["wall"])
    setup = run.tracer.summary(float("-inf"), timed)
    visits = result["visits"]
    out = {}

    def total(name, field):
        entry = spans.get(name)
        if entry is None:
            return 0.0
        return {"calls": entry["calls"], "self": entry["self_s"],
                "net": sum(entry["net"])}[field]

    for metric, name, field, unit in PER_VISIT:
        out[metric] = (total(name, field) / visits, unit)
    out["hsmm.lattice_cells"] = (run.tracer.counts.get("hsmm.lattice_cells", 0) / visits,
                                 "1/visit")
    out["blr.stats_s"] = ((total("blr.add", "net") + total("blr.remove", "net")) / visits,
                          "s/visit")
    out["exact_gp.gram_rows"] = (run.tracer.counts.get("exact_gp.gram_rows", 0) / visits,
                                 "1/visit")
    for metric, name in PER_SETUP:
        entry = setup.get(name)
        out[metric] = (statistics.median(entry["net"]) if entry else 0.0, "s")
    out["cli.snapshot_bytes"] = (run.snapshot_bytes, "bytes")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in sorted(out.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rffseg" / "__init__.py").is_file():
        print(f"error: no rffseg package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rffseg.blr
    import rffseg.cli
    import rffseg.data
    import rffseg.exact_gp
    import rffseg.features
    import rffseg.hsmm
    import rffseg.trainer

    threads = blas_thread_counts()
    print(f"blas threads: numpy {threads['numpy']}, scipy {threads['scipy']}")
    if set(threads.values()) != {1}:
        print(f"error: BLAS is not pinned to one thread: {threads}", file=sys.stderr)
        return 1

    work_root = BENCH_DIR / "_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        run = Run(rffseg, args.workload, args.seed, args.seconds, tracer, work)
        result = run.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    measured, wall = end_to_end(run, result)
    print(f"wall clock: frames_per_s {wall['frames_per_s']:.6g}, "
          f"setup_s {wall['setup_s']:.6g}")
    if tracer is None:
        metrics = measured
    else:
        metrics = per_layer(run, result)
        out_dir = BENCH_DIR / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "blas_threads": threads,
            "frames_per_s": wall["frames_per_s"],
            "frames_per_ref_s": measured["frames_per_ref_s"]["value"],
            "visits": result["visits"], "per_layer": metrics,
        })
    worst = max(run.nhd, key=lambda item: item[1] / item[2])
    print(f"nhd: median {statistics.median(m for _, m, _ in run.nhd):.4f} over "
          f"{len(run.nhd)} labellings, worst {worst[1]:.4f} ({worst[0]}); "
          f"random labelling {worst[2]:.4f}")
    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": not run.errors, "attempted": result["visits"],
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
