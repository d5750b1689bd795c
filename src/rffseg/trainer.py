"""Blocked Gibbs sampler orchestrating segmentation training.

One sweep removes a sequence's segments from the shared class models,
resamples its segmentation by forward filtering / backward sampling
against all other sequences' assignments, and absorbs the new segments
back.  Emission models are pluggable: the random-feature regression
backend ("rff") or the exact Gaussian-process baseline ("exact-gp").

Each visit's ``posterior`` phase is the backend's ``refresh``: each
class the visit changed is solved into its predictive at positions
``1..kmax``, for "rff" by one factorization and one triangular solve,
for "exact-gp" by a Gram rebuild.  The ``emission`` phase reads every
table from those predictives.
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
    integer_array,
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


class PositionPredictives:
    """Every class's Gaussian predictive at within-segment positions ``1..kmax``.

    A backend marks a class ``dirty`` when its statistics change;
    :meth:`refresh` has the backend's ``_solve`` write just those classes
    into the ``(C, kmax, D)`` means and ``(C, kmax)`` variances, and each
    table refreshes first, then reads a prefix of them.
    """

    def __init__(self, n_classes: int, n_dims: int, kmax: int):
        self.dirty = np.ones(n_classes, dtype=bool)
        self.means = np.empty((n_classes, kmax, n_dims))
        self.variances = np.empty((n_classes, kmax))

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


class RffEmissions(PositionPredictives):
    """Random-feature regression models of every class, on the position grid.

    A class's regression depends only on its ``counts`` ``(C, kmax)`` and
    ``sums`` ``(C, kmax, D)`` of frames at each within-segment position,
    which :meth:`add` and :meth:`remove` update a sequence at a time and
    :meth:`rebuild` sets at once.
    """

    backend_name = "rff"

    def __init__(self, bank: FeatureBank, n_classes: int, n_dims: int, kmax: int,
                 beta: float, psi: float):
        super().__init__(n_classes, n_dims, kmax)
        self.bank = bank
        self.beta = beta
        self.psi = psi
        self.counts = np.zeros((n_classes, kmax), dtype=np.int64)
        self.sums = np.zeros((n_classes, kmax, n_dims))

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

    def rebuild(self, sequences, assignments) -> None:
        """Set every class's counts and sums from ``assignments`` in whole-array passes.

        ``bincount`` over each assigned frame's (class, position) cell gives
        the counts of :meth:`add` and :meth:`remove`, and weighted by each
        dimension's frames their sums up to round-off, which the audit checks.
        """
        n_classes, k, n_dims = self.sums.shape
        offsets = np.cumsum([0] + [seq.shape[1] for seq in sequences])
        spans = np.array([(offset + seg.start, seg.stop - seg.start, seg.label)
                          for offset, segs in zip(offsets, assignments) for seg in segs],
                         dtype=np.int64).reshape(-1, 3)
        starts, lengths, labels = spans.T
        if lengths.max(initial=1) > k:
            raise ValueError(f"a segment of {lengths.max()} frames: lengths must be <= {k}")
        ends = np.cumsum(lengths)
        # each assigned frame's 0-based position in its segment, its frame
        # in the concatenated corpus and its (class, position) cell, built
        # in place: each corpus-long temporary raised the peak memory
        positions = np.arange(ends[-1] if ends.size else 0)
        positions -= np.repeat(ends - lengths, lengths)
        frames = np.repeat(starts, lengths)
        frames += positions
        cells = np.repeat(labels * k, lengths)
        cells += positions
        del positions
        self.counts[...] = np.bincount(cells, minlength=n_classes * k).reshape(n_classes, k)
        sums = self.sums.reshape(n_classes * k, n_dims)
        row = np.empty(offsets[-1])
        for d in range(n_dims):
            # one dimension of the corpus at a time: no copy of the whole of it
            np.concatenate([seq[d] for seq in sequences], out=row)
            sums[:, d] = np.bincount(cells, weights=row[frames], minlength=n_classes * k)
        self.dirty[...] = True

    def audit_deviation(self, sequences, assignments) -> float:
        """Largest ``|sums|`` gap from a batch :meth:`rebuild`; counts must be equal."""
        n_classes, kmax, n_dims = self.sums.shape
        fresh = RffEmissions(self.bank, n_classes, n_dims, kmax, self.beta, self.psi)
        fresh.rebuild(sequences, assignments)
        if not np.array_equal(self.counts, fresh.counts):
            c = int(np.argmax((self.counts != fresh.counts).any(axis=1)))
            raise AuditError(
                f"class {c}: counts {self.counts[c].tolist()} != batch counts "
                f"{fresh.counts[c].tolist()}")
        return float(np.max(np.abs(self.sums - fresh.sums), initial=0.0))


class ExactGpEmissions(PositionPredictives):
    """Pooled-point Gaussian-process models, one per class.

    ``assigned`` maps each sequence's key to its frames and segments, held
    by reference in the order added.  A refresh pools each changed class's
    segments in that order and rebuilds its Gram in full.
    """

    backend_name = "exact-gp"

    def __init__(self, n_classes: int, n_dims: int, kmax: int, beta: float,
                 lengthscale: float):
        super().__init__(n_classes, n_dims, kmax)
        self.class_models = [
            GpClassData(n_dims, beta=beta, lengthscale=lengthscale)
            for _ in range(n_classes)
        ]
        self.assigned = {}

    def add(self, key, seq: np.ndarray, segments) -> None:
        if key in self.assigned:
            raise ValueError(f"sequence {key!r} is already assigned")
        self.assigned[key] = (seq, segments)
        self.dirty[[seg.label for seg in segments]] = True

    def remove(self, key, seq: np.ndarray, segments) -> None:
        if key not in self.assigned or self.assigned[key][1] != segments:
            raise ValueError(f"sequence {key!r}: removing segments it is not assigned "
                             f"(caller bookkeeping bug)")
        del self.assigned[key]
        self.dirty[[seg.label for seg in segments]] = True

    def _solve(self, classes: np.ndarray) -> None:
        """Pool the ``classes``' segments in one pass, then give each its points and
        predict it, Gram rebuilt, before the next class."""
        _, kmax, n_dims = self.means.shape
        pooled = {c: ([np.zeros(0)], [np.zeros((0, n_dims))]) for c in classes.tolist()}
        for seq, segments in self.assigned.values():
            for seg in segments:
                if seg.label in pooled:
                    taus, values = pooled[seg.label]
                    taus.append(np.arange(1, seg.stop - seg.start + 1, dtype=np.float64))
                    values.append(seq[:, seg.start:seg.stop].T)
        positions = np.arange(1, kmax + 1, dtype=np.float64)
        for c, (taus, values) in pooled.items():
            self.class_models[c].set_points(np.concatenate(taus), np.vstack(values))
            self.means[c], self.variances[c] = self.class_models[c]._predict(positions)

    def rebuild(self, sequences, assignments) -> None:
        """Assign each sequence, keyed by its index, the segments ``assignments`` give it."""
        self.assigned = dict(enumerate(zip(sequences, assignments)))
        self.dirty[...] = True

    def audit_deviation(self, sequences, assignments) -> float:
        """0.0; ``AuditError`` names the first sequence stored otherwise than given."""
        if len(self.assigned) != len(sequences):
            raise AuditError(f"{len(self.assigned)} sequences tracked, {len(sequences)} given")
        for i, (seq, segs) in enumerate(zip(sequences, assignments)):
            frames, stored = self.assigned.get(i, (None, None))
            if stored != segs:
                raise AuditError(f"sequence {i}: tracked segments diverge from assignments")
            if not np.array_equal(frames, seq):
                raise AuditError(f"sequence {i}: tracked frames diverge from the sequence")
        return 0.0


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
        if deviation > 1e-6:
            raise AuditError(
                f"sufficient statistics drifted {deviation:.3e} from batch rebuild")
        trans = np.zeros_like(self.hsmm.transition_counts)
        counts = np.zeros_like(self.hsmm.class_counts)
        for segs in self.assignments:
            for seg in segs:
                counts[seg.label] += 1
            for prev, cur in zip(segs[:-1], segs[1:]):
                trans[prev.label, cur.label] += 1
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
    uniform-random labels; the backend's ``rebuild`` then builds every
    class's statistics from the assignments at once.
    """
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

    # everything that builds the chain's starting state is timed as stats
    timer = PhaseTimer()
    with timer.phase("stats"):
        ss = np.random.SeedSequence(config.seed)
        bank_ss, gibbs_ss = ss.spawn(2)
        bank_seed = int(bank_ss.generate_state(1, dtype=np.uint64)[0])
        bank = sample_feature_bank(config.n_features, config.lengthscale, bank_seed)
        rng = np.random.default_rng(gibbs_ss)

        hsmm = HsmmParams(n_classes=config.n_classes, kmin=config.kmin,
                          kmax=config.kmax, mean_length=config.mean_length,
                          alpha=config.alpha)
        if config.backend == "rff":
            emissions = RffEmissions(bank, config.n_classes, n_dims, config.kmax,
                                     config.beta, config.psi)
        else:
            emissions = ExactGpEmissions(config.n_classes, n_dims, config.kmax,
                                         config.beta, config.lengthscale)

        state = TrainerState(config=config, sequences=sequences, bank=bank,
                             hsmm=hsmm, emissions=emissions, assignments=[],
                             rng=rng, timer=timer)
        for seq in sequences:
            spans = _random_spans(seq.shape[1], config.kmin, config.kmax, rng)
            labels = rng.integers(0, config.n_classes, size=len(spans))
            segs = [Segment(start=a, stop=b, label=int(c))
                    for (a, b), c in zip(spans, labels)]
            state.assignments.append(segs)
            hsmm.absorb_labels([seg.label for seg in segs])
        emissions.rebuild(sequences, state.assignments)
    return state


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
    """Serializable model state: feature bank, class stats, chain counts.

    An rff class is stored as its frame counts and sums at each
    within-segment position, which do not depend on the feature bank.
    """
    hsmm = state.hsmm
    out = {
        "backend": state.emissions.backend_name,
        "n_dims": state.sequences[0].shape[0],
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
    }
    if state.emissions.backend_name == "rff":
        out["classes"] = [
            {"class_id": c, "counts": counts, "sums": sums}
            for c, (counts, sums) in enumerate(zip(state.emissions.counts.tolist(),
                                                   state.emissions.sums.tolist()))
        ]
    else:
        state.emissions.refresh()
        out["classes"] = [
            {"class_id": c, "taus": data.taus.tolist(), "values": data.values.tolist()}
            for c, data in enumerate(state.emissions.class_models)
        ]
    return out


def emissions_from_snapshot(snap: dict, n_dims: int, beta: float, psi: float,
                            lengthscale: float):
    """Rebuild an emission backend (and bank) from a snapshot dict.

    An exact-gp class is added as one sequence, its stored values, whose
    segments start wherever a run of positions restarts at 1.  Raises
    ``ValueError`` for a backend not in ``BACKENDS``, when the snapshot was
    trained on a different number of dimensions than ``n_dims``, when
    ``beta``, ``psi`` or ``lengthscale`` is not finite and positive, when
    an rff class's counts are not ``hsmm.kmax`` non-negative integers or
    its sums not ``(kmax, n_dims)`` finite numbers, or when an exact-gp
    class's values are not one row of ``n_dims`` finite numbers per
    position or its positions are not such runs.
    """
    if snap["backend"] not in BACKENDS:
        raise ValueError(
            f"snapshot backend {snap['backend']!r} is not one of {BACKENDS}")
    if int(integer_array("n_dims", snap["n_dims"], ())) != n_dims:
        raise ValueError(
            f"snapshot was trained on {snap['n_dims']} dimensions, data has {n_dims}")
    for name, value in (("beta", beta), ("psi", psi), ("lengthscale", lengthscale)):
        check_positive_finite(name, value)
    bank = FeatureBank.from_dict(snap["bank"])
    kmax = int(integer_array("hsmm.kmax", snap["hsmm"]["kmax"], ()))
    classes = snap["classes"]
    if snap["backend"] == "rff":
        counts = [integer_array(f"class {c} counts", e["counts"]) for c, e in enumerate(classes)]
        sums = [np.asarray(e["sums"], dtype=np.float64) for e in classes]
        for c, (n, x) in enumerate(zip(counts, sums)):
            if n.shape != (kmax,) or x.shape != (kmax, n_dims):
                raise ValueError(
                    f"snapshot class {c}: counts and sums must have shapes ({kmax},) "
                    f"and ({kmax}, {n_dims}), got {n.shape} and {x.shape}")
            if (n < 0).any():
                raise ValueError(f"snapshot class {c}: counts must not be negative, got {n.min()}")
            if not np.isfinite(x).all():
                raise ValueError(f"snapshot class {c}: sums must be finite")
        # allocated once the shapes are known to be the data's
        emissions = RffEmissions(bank, len(classes), n_dims, kmax, beta, psi)
        emissions.counts[...] = np.reshape(counts, emissions.counts.shape)
        emissions.sums[...] = np.reshape(sums, emissions.sums.shape)
    else:
        emissions = ExactGpEmissions(len(classes), n_dims, kmax, beta, lengthscale)
        stored = [np.asarray(e["taus"], dtype=np.float64) for e in classes]
        for c, (entry, taus) in enumerate(zip(classes, stored)):
            values = np.asarray(entry["values"], dtype=np.float64)
            if values.size == 0:  # an unused class stores its values as []
                values = values.reshape(0, n_dims)
            if values.shape != (taus.size, n_dims):
                raise ValueError(f"snapshot class {c}: values must have shape "
                                 f"({taus.size}, {n_dims}), got {values.shape}")
            if not np.isfinite(values).all():
                raise ValueError(f"snapshot class {c}: values must be finite")
            starts = np.flatnonzero(taus == 1.0).tolist()
            emissions.add(c, values.T, [Segment(a, b, c) for a, b in
                                        zip(starts, starts[1:] + [taus.size])])
        emissions.refresh()
        for c, (data, taus) in enumerate(zip(emissions.class_models, stored)):
            if not np.array_equal(data.taus, taus):
                raise ValueError(
                    f"snapshot class {c}: taus are not runs of positions 1..length")
    return bank, emissions


def hsmm_from_snapshot(snap: dict) -> HsmmParams:
    """The chain's counts and settings from a snapshot dict (see :func:`integer_array`)."""
    h = snap["hsmm"]
    n_classes, kmin, kmax = (int(integer_array(f"hsmm.{name}", h[name], ()))
                             for name in ("n_classes", "kmin", "kmax"))
    counts = {name: integer_array(f"hsmm.{name}", h[name])
              for name in ("transition_counts", "class_counts")}
    rates = {name: check_positive_finite(f"hsmm.{name}", h[name])
             for name in ("mean_length", "alpha")}
    return HsmmParams(n_classes=n_classes, kmin=kmin, kmax=kmax, **rates, **counts)
