"""Blocked Gibbs sampler orchestrating segmentation training.

One sweep removes a sequence's segments from the shared class models,
resamples its segmentation by forward filtering / backward sampling
against all other sequences' assignments, and absorbs the new segments
back.  Emission models are pluggable: the random-feature regression
backend ("rff") or the exact Gaussian-process baseline ("exact-gp").
Both keep each class's frames as one store of counts and sums at each
within-segment position, which is all either posterior depends on.

Each visit's ``posterior`` phase is the backend's ``refresh``: each
class the visit changed is solved into its predictive at positions
``1..kmax``, for "rff" by one factorization and one triangular solve,
for "exact-gp" by a Gram rebuild on one stand-in point per frame.  The
``emission`` phase reads every table from those predictives.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .blr import ClassModel, grid_statistics, posterior_predictive
from .exact_gp import GpClassData
from .features import FeatureBank, sample_feature_bank
from .hsmm import (
    HsmmParams,
    InfeasibleSequenceError,
    Segment,
    backward_sample,
    check_positive_finite,
    forward_filter,
    gaussian_log_table,
    json_object,
    number_array,
    tileable,
)

__all__ = [
    "ConfigError",
    "AuditError",
    "TrainerConfig",
    "TrainerState",
    "SegmentationResult",
    "initialize",
    "gibbs_sweep",
    "train",
    "train_with_restarts",
]

BACKENDS = ("rff", "exact-gp")

PHASES = ("emission", "dp", "stats", "posterior")

# the largest |sums| gap the audit allows between running and batch sums
AUDIT_BOUND = 1e-6


class ConfigError(ValueError):
    """A run configuration field (or pair of fields) is invalid."""


class AuditError(RuntimeError):
    """Incremental statistics diverged from batch recomputation."""


@dataclass
class TrainerConfig:
    """Model and sampler settings for one training run."""

    n_classes: int
    backend: str = "rff"
    n_features: int = 20
    lengthscale: float = 1.0
    beta: float = 10.0
    psi: float = 1.0
    kmin: int = 15
    kmax: int = 30
    mean_length: float = 20.0
    alpha: float = 1.0
    iterations: int = 5
    restarts: int = 1
    seed: int = 0
    audit: bool = False
    shuffle_sequences: bool = False

    def validate(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.n_classes < 1:
            raise ConfigError(f"n_classes must be >= 1, got {self.n_classes}")
        if self.n_features < 1:
            raise ConfigError(f"n_features must be >= 1, got {self.n_features}")
        for name in ("lengthscale", "beta", "psi", "mean_length", "alpha"):
            check_positive_finite(name, getattr(self, name), ConfigError)
        if self.kmin < 1:
            raise ConfigError(f"kmin must be >= 1, got {self.kmin}")
        if self.kmin > self.kmax:
            raise ConfigError(
                f"kmin must not exceed kmax, got kmin={self.kmin} kmax={self.kmax}")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class PhaseTimer:
    """Wall-clock accumulator for the training phases."""

    def __init__(self):
        self.totals = {name: 0.0 for name in PHASES}

    def phase(self, name: str) -> "_Phase":
        """Context manager adding its block's duration to ``totals[name]``."""
        return _Phase(self.totals, name)


class _Phase:
    # a plain class rather than a generator context manager: the time
    # spent entering and leaving a phase is time no phase accounts for
    __slots__ = ("totals", "name", "start")

    def __init__(self, totals: dict, name: str):
        self.totals = totals
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.totals[self.name] += time.perf_counter() - self.start
        return False


def position_statistics(sequences, assignments, n_classes: int, kmax: int):
    """Every class's frame ``counts`` ``(C, kmax)`` and ``sums`` ``(C, kmax, D)`` at each
    within-segment position under ``assignments``, in whole-array passes.

    ``bincount`` over each assigned frame's (class, position) cell gives
    the counts of the backends' ``add`` and ``remove``, and weighted by each
    dimension's frames their sums up to round-off, which the audit checks.
    """
    n_dims = sequences[0].shape[0]
    offsets = np.cumsum([0] + [seq.shape[1] for seq in sequences])
    spans = np.array([(offset + seg.start, seg.stop - seg.start, seg.label)
                      for offset, segs in zip(offsets, assignments) for seg in segs],
                     dtype=np.int64).reshape(-1, 3)
    starts, lengths, labels = spans.T
    if lengths.max(initial=1) > kmax:
        raise ValueError(f"a segment of {lengths.max()} frames: lengths must be <= {kmax}")
    ends = np.cumsum(lengths)
    # each assigned frame's 0-based position in its segment, its frame
    # in the concatenated corpus and its (class, position) cell, built
    # in place: each corpus-long temporary raised the peak memory
    positions = np.arange(ends[-1] if ends.size else 0)
    positions -= np.repeat(ends - lengths, lengths)
    frames = np.repeat(starts, lengths)
    frames += positions
    cells = np.repeat(labels * kmax, lengths)
    cells += positions
    del positions
    counts = np.bincount(cells, minlength=n_classes * kmax).reshape(n_classes, kmax)
    sums = np.empty((n_classes * kmax, n_dims))
    row = np.empty(offsets[-1])
    for d in range(n_dims):
        # one dimension of the corpus at a time: no copy of the whole of it
        np.concatenate([seq[d] for seq in sequences], out=row)
        sums[:, d] = np.bincount(cells, weights=row[frames], minlength=n_classes * kmax)
    return counts, sums.reshape(n_classes, kmax, n_dims)


def label_counts(assignments, n_classes: int):
    """The chain's ``transition_counts`` ``(C, C)`` and ``class_counts`` ``(C,)``
    under ``assignments``: what :meth:`HsmmParams.absorb_labels` counts, sequence
    by sequence, in whole-array passes."""
    labels = np.array([seg.label for segs in assignments for seg in segs], dtype=np.int64)
    # neighbouring segments are a transition unless the second opens a sequence
    opens = np.cumsum([len(segs) for segs in assignments])[:-1]
    pairs = np.delete(labels[:-1] * n_classes + labels[1:], opens - 1)
    transitions = np.bincount(pairs, minlength=n_classes * n_classes)
    return (transitions.reshape(n_classes, n_classes),
            np.bincount(labels, minlength=n_classes))


class PositionPredictives:
    """Every class's frame ``counts`` ``(C, kmax)`` and ``sums`` ``(C, kmax, D)`` at
    each within-segment position, all either backend's posterior depends on, and
    its Gaussian predictive at positions ``1..kmax``.

    :meth:`add`, :meth:`remove` and :meth:`rebuild` mark the classes they change
    ``dirty``; :meth:`refresh` has the backend's ``_solve`` write just those into
    the ``(C, kmax, D)`` means and ``(C, kmax)`` variances, and each table
    refreshes first, then reads a prefix of them.
    """

    def __init__(self, n_classes: int, n_dims: int, kmax: int):
        self.dirty = np.ones(n_classes, dtype=bool)
        self.counts = np.zeros((n_classes, kmax), dtype=np.int64)
        self.sums = np.zeros((n_classes, kmax, n_dims))
        self.means = np.empty((n_classes, kmax, n_dims))
        self.variances = np.empty((n_classes, kmax))

    def add(self, key, seq: np.ndarray, segments) -> None:
        for seg in segments:  # key is unused: the grid keeps no sequence apart
            k = seg.stop - seg.start
            # sums first: a segment longer than kmax raises
            self.sums[seg.label, :k] += seq[:, seg.start:seg.stop].T
            self.counts[seg.label, :k] += 1
            self.dirty[seg.label] = True

    def remove(self, key, seq: np.ndarray, segments) -> None:
        for seg in segments:
            # counts never increase with position, so the last one bounds them all
            k = seg.stop - seg.start
            if self.counts[seg.label, k - 1] < 1:
                raise ValueError(f"class {seg.label}: removing a {k}-frame segment from a class "
                                 f"with no frame at position {k} (caller bookkeeping bug)")
            self.counts[seg.label, :k] -= 1
            self.sums[seg.label, :k] -= seq[:, seg.start:seg.stop].T
            self.dirty[seg.label] = True

    def rebuild(self, sequences, assignments) -> None:
        """Set every class's counts and sums from ``assignments`` (:func:`position_statistics`)."""
        self.counts[...], self.sums[...] = position_statistics(sequences, assignments,
                                                               *self.counts.shape)
        self.dirty[...] = True

    def audit_deviation(self, sequences, assignments) -> float:
        """Largest ``|sums|`` gap from :func:`position_statistics`; counts must be equal."""
        counts, sums = position_statistics(sequences, assignments, *self.counts.shape)
        if not np.array_equal(self.counts, counts):
            c = int(np.argmax((self.counts != counts).any(axis=1)))
            raise AuditError(
                f"class {c}: counts {self.counts[c].tolist()} != batch counts "
                f"{counts[c].tolist()}")
        return float(np.max(np.abs(self.sums - sums), initial=0.0))

    def refresh(self) -> None:
        """Solve each dirty class's predictive once."""
        dirty = np.flatnonzero(self.dirty)
        if dirty.size:
            self._solve(dirty)
            self.dirty[dirty] = False

    def emitters(self):
        """The ``emitters`` argument of ``forward_filter``: this object."""
        return self

    def log_emission_tables(self, seq: np.ndarray, kmax: int) -> np.ndarray:
        """``(C, kmax, T)`` frame log densities of every class."""
        if kmax > self.means.shape[1]:
            raise ValueError(
                f"tables of {kmax} positions asked of a model of {self.means.shape[1]}")
        self.refresh()
        return gaussian_log_table(self.means[:, :kmax], self.variances[:, :kmax], seq)


def segments_ending(counts: np.ndarray) -> np.ndarray:
    """How many of each class's segments have each length ``1..kmax``."""
    return counts - np.pad(counts[:, 1:], ((0, 0), (0, 1)))


class RffEmissions(PositionPredictives):
    """Random-feature regression models of every class, on the position grid."""

    backend_name = "rff"

    def __init__(self, bank: FeatureBank, n_classes: int, n_dims: int, kmax: int,
                 beta: float, psi: float):
        super().__init__(n_classes, n_dims, kmax)
        self.bank = bank
        self.beta = beta
        self.psi = psi

    def _solve(self, classes: np.ndarray) -> None:
        """Build the ``classes``' statistics from their grid and solve them together."""
        phi = self.bank.position_features(self.counts.shape[1])
        precision, proj = grid_statistics(self.counts[classes], self.sums[classes], phi,
                                          self.beta, self.psi)
        self.means[classes], self.variances[classes] = posterior_predictive(
            precision, proj, phi, self.beta)

    @property
    def class_models(self) -> list[ClassModel]:
        """A standalone :class:`ClassModel` per class, built anew from the grid
        on every read: writes to it do not reach this backend."""
        n_classes, kmax, n_dims = self.sums.shape
        precision, proj = grid_statistics(self.counts, self.sums,
                                          self.bank.position_features(kmax), self.beta, self.psi)
        models = [ClassModel(c, n_dims, self.bank.n_features, self.beta, self.psi)
                  for c in range(n_classes)]
        for c, (model, n_points) in enumerate(zip(models, self.counts.sum(axis=1).tolist())):
            for st, row in zip(model.stats, proj[c]):
                st.precision[...] = precision[c]
                st.proj[...] = row
                st.n_points = n_points
        return models


class ExactGpEmissions(PositionPredictives):
    """Pooled-point Gaussian-process models, one :class:`GpClassData` per class.

    A class pools one stand-in point per frame: ``counts[c, k-1] - counts[c, k]``
    segments of each length ``k``, framed by the position means ``sums / counts``.
    Frames sharing a position enter a pooled GP only through their count and sum,
    so this is the real frames' posterior, on as many points and Gram rows.
    """

    backend_name = "exact-gp"

    def __init__(self, n_classes: int, n_dims: int, kmax: int, beta: float,
                 lengthscale: float):
        super().__init__(n_classes, n_dims, kmax)
        self.class_models = [
            GpClassData(n_dims, beta=beta, lengthscale=lengthscale)
            for _ in range(n_classes)
        ]

    def _solve(self, classes: np.ndarray) -> None:
        """Give each of the ``classes`` its stand-in points and predict it, Gram
        rebuilt, before the next class."""
        kmax = self.counts.shape[1]
        ending = segments_ending(self.counts[classes])
        positions = np.arange(1, kmax + 1, dtype=np.float64)
        for c, per_length in zip(classes.tolist(), ending):
            lengths = np.repeat(np.arange(1, kmax + 1), per_length)
            # each point's 0-based position in its segment
            index = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
            means = self.sums[c] / np.maximum(self.counts[c], 1)[:, None]
            self.class_models[c].set_points(positions[index], means[index])
            self.means[c], self.variances[c] = self.class_models[c]._predict(positions)


@dataclass
class TrainerState:
    """Everything a sweep needs: data, models, counts, and randomness."""

    config: TrainerConfig
    sequences: list
    bank: FeatureBank
    hsmm: HsmmParams
    emissions: object
    assignments: list
    loglik_trace: list = field(default_factory=list)
    rng: np.random.Generator = None
    timer: PhaseTimer = field(default_factory=PhaseTimer)

    def audit(self) -> None:
        """Cross-check incremental state against batch recomputation."""
        deviation = self.emissions.audit_deviation(self.sequences, self.assignments)
        if deviation > AUDIT_BOUND:
            raise AuditError(
                f"sufficient statistics drifted {deviation:.3e} from batch rebuild")
        trans, counts = label_counts(self.assignments, self.hsmm.n_classes)
        if not np.array_equal(trans, self.hsmm.transition_counts):
            raise AuditError("transition counts diverge from assignments")
        if not np.array_equal(counts, self.hsmm.class_counts):
            raise AuditError("class counts diverge from assignments")


@dataclass
class SegmentationResult:
    """Final labels plus everything needed to reproduce and inspect a run."""

    labels: list
    spans: list
    loglik_trace: list
    timings: dict
    state: TrainerState = field(repr=False, default=None)
    restart_logliks: list = None
    restart_seeds: list = None

    @property
    def final_loglik(self) -> float:
        return self.loglik_trace[-1] if self.loglik_trace else float("-inf")


@functools.lru_cache(maxsize=4096)
def _admissible_lengths(remaining: int, kmin: int, kmax: int) -> tuple[int, ...]:
    """The lengths in [kmin, kmax] that leave ``remaining`` frames tileable."""
    return tuple(k for k in range(kmin, min(kmax, remaining) + 1)
                 if tileable(remaining - k, kmin, kmax))


def _random_spans(n_frames: int, kmin: int, kmax: int,
                  rng: np.random.Generator) -> list[tuple[int, int]]:
    """Cut [0, n_frames) into uniform-random lengths within [kmin, kmax].

    Each draw is uniform over the lengths that keep the remainder
    tileable, so no repair pass is needed afterwards.  It is one
    ``rng.integers(0, n)`` over the ``n`` admissible lengths, which is
    the draw ``rng.choice`` makes on them.
    """
    spans = []
    pos = 0
    remaining = n_frames
    while remaining > 0:
        choices = _admissible_lengths(remaining, kmin, kmax)
        k = choices[int(rng.integers(0, len(choices)))]
        spans.append((pos, pos + k))
        pos += k
        remaining -= k
    return spans


def initialize(sequences, config: TrainerConfig) -> TrainerState:
    """Randomly segment all sequences and build the initial statistics.

    Each sequence is cut into uniform-random admissible lengths with
    uniform-random labels; :func:`label_counts` then counts the chain's
    labels and the backend's ``rebuild`` builds every class's statistics
    from the assignments at once.
    """
    # everything that builds the chain's starting state, checks too, is timed as stats
    timer = PhaseTimer()
    with timer.phase("stats"):
        config.validate()
        sequences = [np.asarray(s, dtype=np.float64) for s in sequences]
        if not sequences:
            raise ConfigError("at least one sequence is required")
        n_dims = sequences[0].shape[0]
        for i, s in enumerate(sequences):
            if s.ndim != 2 or s.shape[0] != n_dims:
                raise ConfigError(
                    f"sequence {i} must be (n_dims, T) with n_dims={n_dims}, "
                    f"got shape {s.shape}")
        bad = [i for i, s in enumerate(sequences)
               if not tileable(s.shape[1], config.kmin, config.kmax)]
        if bad:
            raise InfeasibleSequenceError(
                f"sequences {bad} cannot be tiled with lengths in "
                f"[{config.kmin}, {config.kmax}]")
        ss = np.random.SeedSequence(config.seed)
        bank_ss, gibbs_ss = ss.spawn(2)
        bank_seed = int(bank_ss.generate_state(1, dtype=np.uint64)[0])
        bank = sample_feature_bank(config.n_features, config.lengthscale, bank_seed)
        rng = np.random.default_rng(gibbs_ss)

        assignments = []
        for seq in sequences:
            spans = _random_spans(seq.shape[1], config.kmin, config.kmax, rng)
            labels = rng.integers(0, config.n_classes, size=len(spans))
            assignments.append([Segment(start=a, stop=b, label=int(c))
                                for (a, b), c in zip(spans, labels)])
        transitions, counts = label_counts(assignments, config.n_classes)
        hsmm = HsmmParams(n_classes=config.n_classes, kmin=config.kmin,
                          kmax=config.kmax, mean_length=config.mean_length,
                          alpha=config.alpha, transition_counts=transitions,
                          class_counts=counts)
        if config.backend == "rff":
            emissions = RffEmissions(bank, config.n_classes, n_dims, config.kmax,
                                     config.beta, config.psi)
        else:
            emissions = ExactGpEmissions(config.n_classes, n_dims, config.kmax,
                                         config.beta, config.lengthscale)
        emissions.rebuild(sequences, assignments)
    return TrainerState(config=config, sequences=sequences, bank=bank, hsmm=hsmm,
                        emissions=emissions, assignments=assignments, rng=rng, timer=timer)


def gibbs_sweep(state: TrainerState) -> TrainerState:
    """Resample every sequence's segmentation once, in place."""
    config = state.config
    order = np.arange(len(state.sequences))
    if config.shuffle_sequences:
        state.rng.shuffle(order)
    sweep_loglik = 0.0
    # each visit's bookkeeping sits inside a phase, so that the phases
    # account for the whole visit however fast the DP gets
    for seq_idx in order:
        with state.timer.phase("stats"):
            seq_idx = int(seq_idx)
            seq = state.sequences[seq_idx]
            old = state.assignments[seq_idx]
            state.emissions.remove(seq_idx, seq, old)
            state.hsmm.release_labels([seg.label for seg in old])
        with state.timer.phase("posterior"):
            state.emissions.refresh()
        lattice = forward_filter(seq, state.emissions, state.hsmm, timer=state.timer)
        with state.timer.phase("dp"):
            new = backward_sample(lattice, state.hsmm, state.rng)
            sweep_loglik += lattice.total_loglik
        with state.timer.phase("stats"):
            state.emissions.add(seq_idx, seq, new)
            state.hsmm.absorb_labels([seg.label for seg in new])
            state.assignments[seq_idx] = new
    state.loglik_trace.append(sweep_loglik)
    if config.audit:
        state.audit()
    return state


def labels_from_spans(spans, n_frames: int) -> np.ndarray:
    """Expand a span list into one class label per frame."""
    labels = np.empty(n_frames, dtype=np.int64)
    for seg in spans:
        labels[seg.start:seg.stop] = seg.label
    return labels


def train(sequences, config: TrainerConfig) -> SegmentationResult:
    """Run ``config.iterations`` sweeps and package the outcome."""
    t_start = time.perf_counter()
    state = initialize(sequences, config)
    for _ in range(config.iterations):
        gibbs_sweep(state)
    total = time.perf_counter() - t_start
    timings = dict(state.timer.totals)
    timings["total"] = total
    timings["other"] = total - sum(state.timer.totals.values())
    labels = [labels_from_spans(segs, seq.shape[1])
              for segs, seq in zip(state.assignments, state.sequences)]
    return SegmentationResult(labels=labels, spans=state.assignments,
                              loglik_trace=list(state.loglik_trace),
                              timings=timings, state=state)


def train_with_restarts(sequences, config: TrainerConfig) -> SegmentationResult:
    """Rerun training from ``config.restarts`` seeds, keep the best.

    Restart ``r`` uses seed ``config.seed + r``; the winner is the run
    with the highest final total log-likelihood.
    """
    best = None
    finals = []
    seeds = [config.seed + r for r in range(config.restarts)]
    for restart_seed in seeds:
        result = train(sequences, replace(config, seed=restart_seed))
        finals.append(result.final_loglik)
        if best is None or result.final_loglik > best.final_loglik:
            best = result
    best.restart_logliks = finals
    best.restart_seeds = seeds
    return best


def snapshot_dict(state: TrainerState) -> dict:
    """Serializable model state: feature bank, chain counts, class statistics.

    Either backend stores its running frame ``counts`` ``(C, kmax)`` and
    ``sums`` ``(C, kmax, D)`` at each within-segment position, all that
    its posterior depends on.
    """
    hsmm, emissions = state.hsmm, state.emissions
    return {
        "backend": emissions.backend_name,
        "bank": state.bank.to_dict(),
        "hsmm": {
            "n_classes": hsmm.n_classes,
            "kmin": hsmm.kmin,
            "kmax": hsmm.kmax,
            "mean_length": hsmm.mean_length,
            "alpha": hsmm.alpha,
            "transition_counts": hsmm.transition_counts.tolist(),
            "class_counts": hsmm.class_counts.tolist(),
        },
        "counts": emissions.counts.tolist(),
        "sums": emissions.sums.tolist(),
    }


def emissions_from_snapshot(snap: dict, n_dims: int, beta: float, psi: float,
                            lengthscale: float):
    """Rebuild an emission backend (and bank) from a snapshot dict.

    Either backend loads the stored ``counts`` and ``sums``, the statistics
    it trained on, so its tables are the trained ones bit for bit.
    ``ValueError`` names a missing key or a section that is not a JSON
    object, numbers that are not what :func:`~rffseg.hsmm.number_array`
    asks, counts that are negative or increase along position, a ``|sums|``
    above ``AUDIT_BOUND`` at a cell whose count is 0 (its class and
    position), an unknown backend, sums of other than ``n_dims``
    dimensions, or a ``beta``, ``psi`` or ``lengthscale`` that is not
    finite and positive.
    """
    snap = json_object("snapshot model", snap)
    if snap["backend"] not in BACKENDS:
        raise ValueError(
            f"snapshot backend {snap['backend']!r} is not one of {BACKENDS}")
    for name, value in (("beta", beta), ("psi", psi), ("lengthscale", lengthscale)):
        check_positive_finite(name, value)
    bank = FeatureBank.from_dict(snap["bank"])
    h = json_object("hsmm", snap["hsmm"])
    n_classes, kmax = (int(number_array(f"hsmm.{name}", h[name], (), np.int64))
                       for name in ("n_classes", "kmax"))
    counts = number_array("model.counts", snap["counts"], (n_classes, kmax), np.int64)
    sums = number_array("model.sums", snap["sums"], (n_classes, kmax, None))
    if sums.shape[2] != n_dims:
        raise ValueError(
            f"snapshot was trained on {sums.shape[2]} dimensions, data has {n_dims}")
    ending = segments_ending(counts)
    if (ending < 0).any():
        c = int(np.argmax((ending < 0).any(axis=1)))
        raise ValueError(f"model.counts must not be negative or increase along position, "
                         f"got class {c}: {counts[c].tolist()}")
    # a trained chain leaves only round-off where a class holds no frame
    stray = (counts == 0) & (np.abs(sums) > AUDIT_BOUND).any(axis=2)
    if stray.any():
        c, k = np.argwhere(stray)[0].tolist()
        raise ValueError(f"model.sums must be 0 where model.counts is 0, got "
                         f"{sums[c, k].tolist()} at class {c}, position {k + 1}")
    emissions = (RffEmissions(bank, n_classes, n_dims, kmax, beta, psi) if snap["backend"] == "rff"
                 else ExactGpEmissions(n_classes, n_dims, kmax, beta, lengthscale))
    emissions.counts[...], emissions.sums[...] = counts, sums
    return bank, emissions


def hsmm_from_snapshot(snap: dict) -> HsmmParams:
    """The chain's counts and settings from a snapshot dict (see :func:`number_array`)."""
    h = json_object("hsmm", json_object("snapshot model", snap)["hsmm"])
    n_classes, kmin, kmax = (int(number_array(f"hsmm.{name}", h[name], (), np.int64))
                             for name in ("n_classes", "kmin", "kmax"))
    counts = {name: number_array(f"hsmm.{name}", h[name], dtype=np.int64)
              for name in ("transition_counts", "class_counts")}
    rates = {name: check_positive_finite(f"hsmm.{name}", h[name])
             for name in ("mean_length", "alpha")}
    return HsmmParams(n_classes=n_classes, kmin=kmin, kmax=kmax, **rates, **counts)
