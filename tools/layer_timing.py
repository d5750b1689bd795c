#!/usr/bin/env python3
"""Time and check two checkouts' lattice layers, rff posterior, initialize and loader.

    python3 tools/layer_timing.py --parent ../parent --change .

Each checkout's ``src/rffseg`` is imported as a package of its own.  The
tool first runs ``forward_from_table`` (then ``backward_sample`` on its
lattice) and ``gaussian_log_table`` from both sides on random inputs of
assorted shapes, C=1 included, and compares the results byte for byte:
``log_alpha``, ``log_norm``, the sampled spans, the frame tables, and
the error of an untileable table.  Any difference is printed and the
exit status is 1.

Then it times the three layers at the benchmark's shape (C=11 classes,
D=8 dimensions, lengths K in [15, 30], T=164 frames).  Each round times
``CALLS`` calls of one side and then of the other, alternating which side
goes first, so load on the machine falls on both alike.  The report
gives each side's median microseconds per call, the median of the
rounds' change/parent ratios, and the rounds the change was faster in.
Run it with one BLAS thread (``OPENBLAS_NUM_THREADS=1``), as the
benchmark does.

Next come the rff statistics and posterior.  Both sides' ``RffEmissions``
(M=20 features) absorb the same segments; each call removes one visit's
sequence, a segment of each of the ``DIRTY`` classes, adds it back, then
runs ``refresh()`` and ``log_emission_tables`` at kmax=30.  This layer's
arithmetic may change, so the two sides' tables are compared against
``REL_BOUND``, relative to each entry's magnitude (or to 1 below it), and
a gap beyond it sets the exit status to 1.  It is timed in the same
interleaved rounds.

Then comes ``initialize`` at each ``INIT_SHAPES`` shape, a backend and a
copy count: that of ``train-rff`` (rff, 80 copies: 240 sequences, 39,200
frames) and that of ``train-exact-gp`` (exact-gp, 5 copies: 15
sequences, 2,450 frames).  The change's ``synth`` verb writes the
bench-base corpus of seed 20, whose 3 files are passed that many times
to the change's ``load_sequences`` and ``preprocess``, and both sides'
``initialize`` build a chain of that backend from it with the same seed.
Their assignments and class and transition counts must be equal, and
their emission tables of the first sequence must agree within
``REL_BOUND``, as the posterior's do; otherwise the exit status is 1.
Each shape is timed in ``INIT_ROUNDS`` interleaved rounds of one call
per side, and the report gives each side's minimum over the rounds.

Last comes the loader.  The change's ``synth`` verb writes the
benchmark's held-out shape (``--preset bench-base --sequences 240
--frames 164``) to a temporary directory, and both sides'
``load_sequences`` read it with the label column attached.  Their
sequences and labels are compared byte for byte, with shape, dtype and
strides; a difference sets the exit status to 1.  Then ``LOAD_ROUNDS``
interleaved rounds each time one load of all 240 files per side, and the
report gives the same medians, ratio and wins as for the layers.
"""

import argparse
import contextlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

C, D, KMIN, KMAX, T = 11, 8, 15, 30, 164
ROUNDS = 60
CALLS = 20
CHECKS = 400  # random shapes compared bit for bit
HELDOUT = ("--preset", "bench-base", "--sequences", "240", "--frames", "164")
LOAD_ROUNDS = 10
M = 20
DIRTY = (0, 1, 2, 4, 5, 7, 8, 10)  # 8 of 11 classes, as in a train-rff visit
REL_BOUND = 1e-10
TRAIN_CORPUS = ("--preset", "bench-base", "--seed", "20")
INIT_SHAPES = (("rff", 80), ("exact-gp", 5))  # (backend, copies of TRAIN_CORPUS)
INIT_ROUNDS = 20


def load_package(checkout: Path, name: str):
    """``<checkout>/src/rffseg`` imported as package ``name``."""
    init = checkout.resolve() / "src" / "rffseg" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def make_params(hsmm, rng, n_classes, kmin, kmax):
    return hsmm.HsmmParams(
        n_classes=n_classes, kmin=kmin, kmax=kmax,
        mean_length=float(rng.uniform(kmin, kmax)), alpha=float(rng.uniform(0.3, 2.0)),
        transition_counts=rng.integers(0, 6, size=(n_classes, n_classes)))


def lattice_outcome(hsmm, table, params_seed, kmin, kmax, draw_seed):
    """Everything a forward pass and three backward draws give, as bytes."""
    rng = np.random.default_rng(params_seed)
    params = make_params(hsmm, rng, table.shape[0], kmin, kmax)
    try:
        lattice = hsmm.forward_from_table(table, params)
    except hsmm.InfeasibleSequenceError as exc:
        return ("infeasible", str(exc))
    draws = np.random.default_rng(draw_seed)
    spans = [[(s.start, s.stop, s.label) for s in hsmm.backward_sample(lattice, params, draws)]
             for _ in range(3)]
    return (lattice.log_alpha.shape, lattice.log_alpha.tobytes(),
            lattice.log_norm.tobytes(), spans)


def check_bits(parent, change) -> int:
    """Compare both sides on ``CHECKS`` random inputs; return the differences."""
    rng = np.random.default_rng(2024)
    differing = feasible = 0
    for case in range(CHECKS):
        n_classes = 1 if case % 8 == 0 else int(rng.integers(1, 14))
        kmin = int(rng.integers(1, 18))
        kmax = int(rng.integers(kmin, 34))
        n_frames = int(rng.integers(kmin, 220))
        scale = (1.0, 4.0, 30.0)[case % 3]
        table = rng.normal(-1.0, scale, size=(n_classes, min(kmax, n_frames), n_frames))
        seeds = rng.integers(2**32, size=2)
        want = lattice_outcome(parent, table, seeds[0], kmin, kmax, seeds[1])
        got = lattice_outcome(change, table, seeds[0], kmin, kmax, seeds[1])
        feasible += want[0] != "infeasible"
        if got != want:
            differing += 1
            print(f"forward/backward differ: C={n_classes} kmin={kmin} kmax={kmax} "
                  f"T={n_frames} scale={scale}")
        means = rng.normal(size=(n_classes, min(kmax, n_frames), D))
        variances = rng.uniform(0.05, 0.5, size=means.shape[:2])
        seq = rng.normal(size=(D, n_frames))
        if (parent.gaussian_log_table(means, variances, seq).tobytes()
                != change.gaussian_log_table(means, variances, seq).tobytes()):
            differing += 1
            print(f"gaussian_log_table differs: C={n_classes} kmax={kmax} T={n_frames}")
    print(f"bits: {CHECKS - differing} of {CHECKS} random inputs equal "
          f"({feasible} feasible lattices, {CHECKS - feasible} untileable)")
    return differing


def layer_calls(hsmm):
    """The three layers at the benchmark shape, each as a no-argument call."""
    rng = np.random.default_rng(7)
    means = rng.normal(size=(C, KMAX, D))
    variances = rng.uniform(0.05, 0.5, size=(C, KMAX))
    seq = rng.normal(size=(D, T))
    params = make_params(hsmm, rng, C, KMIN, KMAX)
    table = hsmm.gaussian_log_table(means, variances, seq)
    lattice = hsmm.forward_from_table(table, params)
    draws = np.random.default_rng(8)
    return {
        "forward_from_table": lambda: hsmm.forward_from_table(table, params),
        "backward_sample": lambda: hsmm.backward_sample(lattice, params, draws),
        "gaussian_log_table": lambda: hsmm.gaussian_log_table(means, variances, seq),
    }


def per_call_us(call) -> float:
    start = time.perf_counter()
    for _ in range(CALLS):
        call()
    return (time.perf_counter() - start) / CALLS * 1e6


def compare_times(name, measure, rounds, unit, summary=statistics.median) -> None:
    """Alternate ``measure(side)`` over ``rounds`` rounds and print the comparison.

    Each side's times are reported by ``summary``, the median by default.
    """
    times = {"parent": [], "change": []}
    for r in range(rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            times[side].append(measure(side))
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    wins = sum(r < 1.0 for r in ratios)
    label = "" if summary is statistics.median else f" ({summary.__name__})"
    print(f"{name}{label}: parent {summary(times['parent']):.1f} {unit}, "
          f"change {summary(times['change']):.1f} {unit}, "
          f"change/parent {statistics.median(ratios):.3f} "
          f"(change faster in {wins}/{rounds} rounds)")


def time_layers(parent, change) -> None:
    sides = {"parent": layer_calls(parent), "change": layer_calls(change)}
    for name in sides["parent"]:
        for calls in sides.values():
            calls[name]()  # warm caches
        compare_times(name, lambda side: per_call_us(sides[side][name]), ROUNDS, "us")


def as_sequence(segment_type, pieces):
    """The ``(label, frames)`` ``pieces`` end to end, and their segments."""
    ends = np.cumsum([frames.shape[1] for _, frames in pieces]).tolist()
    segments = [segment_type(end - frames.shape[1], end, label)
                for (label, frames), end in zip(pieces, ends)]
    return np.hstack([frames for _, frames in pieces]), segments


def rff_emissions(package):
    """An ``RffEmissions`` holding 40 random segments per class, one visit's
    sequence and segments (the last segment of each ``DIRTY`` class), and a
    sequence to score."""
    rng = np.random.default_rng(11)
    bank = package.features.sample_feature_bank(M, 1.0, seed=5)
    emissions = package.trainer.RffEmissions(bank, C, D, KMAX, beta=10.0, psi=1.0)
    last = []
    for c in range(C):
        pieces = [(c, rng.normal(size=(D, int(rng.integers(KMIN, KMAX + 1)))))
                  for _ in range(40)]
        emissions.add(c, *as_sequence(package.hsmm.Segment, pieces))
        last.append(pieces[-1])
    visit = as_sequence(package.hsmm.Segment, [last[c] for c in DIRTY])
    return emissions, visit, rng.normal(size=(D, T))


def posterior_call(emissions, visit, seq):
    """Remove and re-add the visit's segments, refresh, and build the tables:
    one visit's statistics and posterior."""
    def call():
        emissions.remove("visit", *visit)
        emissions.add("visit", *visit)
        emissions.refresh()
        return emissions.log_emission_tables(seq, KMAX)
    return call


def table_gap(want, got) -> float:
    """Largest gap of two tables, relative to each entry's magnitude or to 1 below it."""
    return float(np.max(np.abs(got - want) / np.maximum(np.maximum(abs(want), abs(got)), 1.0)))


def time_posterior(parent, change) -> int:
    """Compare and time both sides' rff posterior; return the differences."""
    sides = {"parent": posterior_call(*rff_emissions(parent)),
             "change": posterior_call(*rff_emissions(change))}
    want, got = sides["parent"](), sides["change"]()
    gap = table_gap(want, got)
    print(f"rff posterior: tables {want.shape}, largest relative gap {gap:.1e} "
          f"(bound {REL_BOUND:.0e}), {len(DIRTY)} of {C} classes dirty per call, M={M}")
    compare_times("remove + add + refresh + log_emission_tables",
                  lambda side: per_call_us(sides[side]), ROUNDS, "us")
    return int(not gap <= REL_BOUND)


def chain_outcome(state):
    """A chain's assignments and counts, comparable across checkouts."""
    return ([[(s.start, s.stop, s.label) for s in segs] for segs in state.assignments],
            state.hsmm.class_counts.tolist(), state.hsmm.transition_counts.tolist())


def time_initialize(parent, change) -> int:
    """Compare and time both sides' ``initialize`` at each of ``INIT_SHAPES``;
    return the differences."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = change.cli.main(["synth", *TRAIN_CORPUS, "--out", tmp])
        if code != 0:
            raise SystemExit(f"synth exited with {code}")
        paths = sorted(Path(tmp).glob("synthetic-*.txt"))
        schema = change.data.LoadSchema(label_column=change.data.bench_base_spec().n_dims)
        corpus = change.data.preprocess(change.data.load_sequences(paths, schema)).sequences
    sides = {"parent": parent.trainer, "change": change.trainer}
    differing = 0
    for backend, copies in INIT_SHAPES:
        sequences = corpus * copies

        def build(side):
            trainer = sides[side]
            return trainer.initialize(sequences, trainer.TrainerConfig(
                n_classes=C, backend=backend, seed=20))

        want, got = build("parent"), build("change")
        equal = chain_outcome(want) == chain_outcome(got)
        gap = table_gap(want.emissions.log_emission_tables(sequences[0], KMAX),
                        got.emissions.log_emission_tables(sequences[0], KMAX))
        print(f"initialize {backend}: {len(sequences)} sequences, "
              f"{sum(s.shape[1] for s in sequences)} frames, assignments and counts "
              f"{'equal' if equal else 'DIFFER'}, largest relative table gap {gap:.1e} "
              f"(bound {REL_BOUND:.0e})")

        def init_ms(side):
            start = time.perf_counter()
            build(side)
            return (time.perf_counter() - start) * 1e3

        compare_times(f"initialize {backend}", init_ms, INIT_ROUNDS, "ms", summary=min)
        differing += int(not equal) + int(not gap <= REL_BOUND)
    return differing


def loaded_bytes(data, paths, label_column):
    """Every array ``load_sequences`` returns, with its layout, as bytes."""
    store = data.load_sequences(paths, data.LoadSchema(label_column=label_column))
    return [(a.shape, a.dtype.str, a.strides, a.tobytes())
            for a in store.sequences + store.labels]


def time_loader(parent, change) -> int:
    """Compare and time both sides' ``load_sequences``; return the differences."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = change.cli.main(["synth", *HELDOUT, "--out", tmp])
        if code != 0:
            raise SystemExit(f"synth exited with {code}")
        paths = sorted(Path(tmp).glob("synthetic-*.txt"))
        label_column = change.data.bench_base_spec().n_dims
        want = loaded_bytes(parent.data, paths, label_column)
        got = loaded_bytes(change.data, paths, label_column)
        differing = sum(w != g for w, g in zip(want, got)) + abs(len(want) - len(got))
        print(f"loader: {len(paths)} files, {len(want) - differing} of {len(want)} "
              f"arrays equal")
        sides = {"parent": parent.data, "change": change.data}

        def load_ms(side):
            data = sides[side]
            start = time.perf_counter()
            data.load_sequences(paths, data.LoadSchema(label_column=label_column))
            return (time.perf_counter() - start) * 1e3

        compare_times("load_sequences", load_ms, LOAD_ROUNDS, "ms")
    return differing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout root")
    parser.add_argument("--change", type=Path, required=True, help="checkout root")
    args = parser.parse_args()
    parent = load_package(args.parent, "parent_rffseg")
    change = load_package(args.change, "change_rffseg")
    for package in (parent, change):
        for module in ("hsmm", "data", "cli", "features", "trainer"):
            importlib.import_module(f"{package.__name__}.{module}")
    differing = check_bits(parent.hsmm, change.hsmm)
    print(f"shape: C={C} D={D} K=[{KMIN}, {KMAX}] T={T}, {ROUNDS} rounds of {CALLS} calls")
    time_layers(parent.hsmm, change.hsmm)
    differing += time_posterior(parent, change)
    differing += time_initialize(parent, change)
    differing += time_loader(parent, change)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
