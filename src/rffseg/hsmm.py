"""Semi-Markov forward filtering and backward sampling over segments.

Conventions used throughout (0-based frame indices):

* a segment of length ``k`` ending at frame ``t`` covers frames
  ``t - k + 1 .. t``; frame ``t - k + tau`` carries within-segment
  position ``tau`` in ``1..k``, which is the regression input;
* segment lengths are restricted to ``[kmin, kmax]`` and weighted by the
  raw (untruncated, unrenormalized) Poisson pmf;
* the first segment of a sequence draws its class uniformly; there is
  no separate initial-state distribution;
* the lattice is stored in the log domain with per-frame shift
  normalization, and the cumulative normalizers are stored so the total
  data log-likelihood is the final entry;
* the forward recursion (Yu, "Hidden semi-Markov models", Artificial
  Intelligence 2010) advances ``kmin`` frames per numpy step, since no
  segment ending inside such a block can start after its first frame;
  the mass carried across a segment boundary goes through the
  transition matrix in the linear domain, on normalized slices;
* the segment sums are built position-major, ``(kmax, C, T + 1)``, with
  a ``-inf`` column ending every class row, so each position's running
  sum is one contiguous add; no block reads another block's cells, so
  the lattice is normalized once, after the last block.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "InfeasibleSequenceError",
    "HsmmParams",
    "Segment",
    "ForwardLattice",
    "forward_filter",
    "forward_from_table",
    "backward_sample",
    "gaussian_log_table",
]


LOG_2PI = math.log(2.0 * math.pi)


class InfeasibleSequenceError(RuntimeError):
    """No segmentation with lengths in [kmin, kmax] tiles the sequence."""


@dataclass(frozen=True)
class Segment:
    """Half-open span [start, stop) carrying one class label."""

    start: int
    stop: int
    label: int

    @property
    def length(self) -> int:
        return self.stop - self.start


def check_positive_finite(name: str, value: float, error=ValueError) -> float:
    """``value`` as a float; ``error`` naming ``name`` unless it is a finite number > 0
    (an int or a float: not a boolean, a string or a list)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")
    if value <= 0:
        raise error(f"{name} must be > 0, got {value}")
    return value


def number_array(name: str, values, shape=None, dtype=np.float64) -> np.ndarray:
    """``values``, a number or nested lists of them, as a ``dtype`` array; ``ValueError``
    names ``name`` and the first bad value unless the lists are rectangular, each entry
    is a finite int or float (for an integer ``dtype``, an integer it holds, which JSON
    may write as ``2.0``) and the array has ``shape``, if given (``None``: any length)."""
    dims, level = [], [values.tolist() if isinstance(values, np.ndarray) else values]
    while level and type(level[0]) is list:
        for row in level:
            if type(row) is not list or len(row) != len(level[0]):
                raise ValueError(f"{name} must be a rectangular array, got row {row!r}")
        dims.append(len(level[0]))
        level = [value for row in level for value in row]
    integer = np.issubdtype(dtype, np.integer)
    info = np.iinfo(dtype) if integer else np.finfo(dtype)
    low, high = int(info.min), int(info.max)
    # entries that are all floats are checked in one pass, after conversion
    for value in level if integer or set(map(type, level)) - {float} else ():
        if not (type(value) in (int, float) and low <= value <= high
                and (not integer or float(value).is_integer())):
            kind = f"hold integers within {info.dtype}" if integer else "be finite numbers"
            raise ValueError(f"{name} must {kind}, got {value!r}")
    array = np.array(level, dtype=dtype)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite numbers, got {array[~np.isfinite(array)][0]}")
    if shape is not None and (len(shape) != len(dims) or any(
            want not in (None, got) for want, got in zip(shape, dims))):
        raise ValueError(f"{name} must have shape {shape}, got {tuple(dims)}")
    return array.reshape(dims)


class _JsonObject(dict):
    """A JSON object whose missing keys raise ``ValueError`` naming it, ``name``."""

    def __missing__(self, key):
        raise ValueError(f"{self.name} has no key {key!r}")


def json_object(name: str, value) -> dict:
    """A copy of ``value`` whose missing keys raise ``ValueError`` naming ``name``;
    ``ValueError`` naming ``name`` unless it is a dict (a JSON object)."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    section = _JsonObject(value)
    section.name = name
    return section


@functools.lru_cache(maxsize=64)
def _log_durations(kmin: int, kmax: int, lam: float) -> np.ndarray:
    log_dur = np.array([k * math.log(lam) - lam - math.lgamma(k + 1)
                        for k in range(kmin, kmax + 1)])
    log_dur.flags.writeable = False
    return log_dur


@dataclass
class HsmmParams:
    """Duration and transition state of the semi-Markov chain.

    ``transition_counts[c_prev, c]`` are realized segment transitions,
    ``class_counts[c]`` the number of segments currently assigned to
    each class (terminal segments included, hence row sums can fall
    short of the class count).
    """

    n_classes: int
    kmin: int
    kmax: int
    mean_length: float
    alpha: float = 1.0
    transition_counts: np.ndarray = None
    class_counts: np.ndarray = None

    def __post_init__(self):
        c = self.n_classes
        if c < 1:
            raise ValueError(f"n_classes must be >= 1, got {c}")
        if self.kmin < 1 or self.kmax < self.kmin:
            raise ValueError(
                f"need 1 <= kmin <= kmax, got kmin={self.kmin} kmax={self.kmax}")
        for name in ("mean_length", "alpha"):
            check_positive_finite(name, getattr(self, name))
        if not (self.kmin <= self.mean_length <= self.kmax):
            warnings.warn(
                f"mean segment length {self.mean_length} lies outside "
                f"[kmin, kmax] = [{self.kmin}, {self.kmax}]",
                stacklevel=2)
        if self.transition_counts is None:
            self.transition_counts = np.zeros((c, c))
        if self.class_counts is None:
            self.class_counts = np.zeros(c)
        for name, shape in (("transition_counts", (c, c)), ("class_counts", (c,))):
            counts = np.asarray(getattr(self, name), dtype=np.int64)
            setattr(self, name, counts)
            if counts.shape != shape:
                raise ValueError(f"{name} must have shape {shape} for {c} classes, "
                                 f"got {counts.shape}")
            if (counts < 0).any():
                raise ValueError(f"{name} must not be negative, got {counts.min()}")

    def log_durations(self, kmax: int) -> np.ndarray:
        """The raw Poisson log pmf of each length ``kmin..kmax``, as a read-only array.

        The DP only evaluates lengths inside [kmin, kmax] and never
        renormalizes the truncated weights.

        Cached by the values of ``(kmin, kmax, mean_length)``, so every
        call with the same window and mean shares one array.
        """
        return _log_durations(self.kmin, kmax, self.mean_length)

    def log_transition_matrix(self) -> np.ndarray:
        """(C, C) log transition probabilities, rows = source class.

        Dirichlet-multinomial form ``(n_{c'c} + alpha) / (sum_c n_{c'c}
        + C alpha)``; rows normalize to one.
        """
        counts = self.transition_counts.astype(np.float64)
        row_tot = counts.sum(axis=1, keepdims=True) + self.n_classes * self.alpha
        return np.log(counts + self.alpha) - np.log(row_tot)

    def absorb_labels(self, labels) -> None:
        """Count one sequence's segment labels into the chain state."""
        labels = list(labels)
        for c in labels:
            self.class_counts[c] += 1
        for c_prev, c in zip(labels[:-1], labels[1:]):
            self.transition_counts[c_prev, c] += 1

    def release_labels(self, labels) -> None:
        """Inverse of :meth:`absorb_labels`."""
        labels = list(labels)
        for c in labels:
            self.class_counts[c] -= 1
        for c_prev, c in zip(labels[:-1], labels[1:]):
            self.transition_counts[c_prev, c] -= 1
        if (self.class_counts < 0).any() or (self.transition_counts < 0).any():
            raise ValueError("segment counts went negative (caller bookkeeping bug)")


@dataclass
class ForwardLattice:
    """Normalized forward log probabilities plus their normalizers.

    ``log_alpha[t, k - kmin, c]`` is the forward probability of a
    segment of length ``k`` with class ``c`` ending at frame ``t``,
    shifted so every reachable frame's slice log-sums to zero.
    ``log_norm[t]`` is the cumulative normalizer; its final entry is the
    total data log-likelihood.
    """

    log_alpha: np.ndarray
    log_norm: np.ndarray
    kmin: int
    kmax: int

    @property
    def n_frames(self) -> int:
        return self.log_alpha.shape[0]

    @property
    def total_loglik(self) -> float:
        return float(self.log_norm[-1])


def tileable(length: int, kmin: int, kmax: int) -> bool:
    """Whether some number of segments in [kmin, kmax] sums to length."""
    if length == 0:
        return True
    if length < kmin:
        return False
    n = -(-length // kmax)  # smallest segment count that can reach length
    return n * kmin <= length


def gaussian_log_table(means: np.ndarray, variances: np.ndarray,
                       seq: np.ndarray) -> np.ndarray:
    """Gaussian frame log densities at every within-segment position.

    ``means`` is ``(..., kmax, D)``, ``variances`` ``(..., kmax)`` (one per
    position, shared by every dimension, as both backends predict it)
    and ``seq`` ``(D, T)``; any leading axes are classes.  Entry
    ``[..., j, t]`` of the ``(..., kmax, T)`` result is the log density of
    frame ``t`` under position ``j``'s Gaussian, summed over dimensions.

    The residual is expanded as ``(sum_d x_d^2 - 2 m.x + |m|^2) / v`` so
    the whole table is one ``(n, D+1) @ (D+1, T)`` product.  Frames and
    means are first centred on the sequence's per-dimension mean, so an
    offset shared by both does not cancel catastrophically.
    """
    seq = np.asarray(seq, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    prec = 1.0 / variances
    centre = seq.mean(axis=1)
    x = seq - centre[:, np.newaxis]
    m = np.asarray(means, dtype=np.float64) - centre
    coef = np.concatenate([prec[..., None], -2.0 * m * prec[..., None]], axis=-1)
    powers = np.vstack([np.sum(x * x, axis=0), x])  # (D+1, T)
    const = m.shape[-1] * (LOG_2PI + np.log(variances)) + np.sum(m * m, axis=-1) * prec
    table = coef.reshape(-1, coef.shape[-1]) @ powers
    table += const.reshape(-1, 1)
    table *= -0.5
    return table.reshape(*prec.shape, -1)


def build_log_emission_tables(seq: np.ndarray, emitters, kmax: int) -> np.ndarray:
    """Every class's frame-density table as one (C, kmax, T) array.

    ``emitters`` is either an emission backend, which builds all classes'
    tables at once through ``log_emission_tables(seq, kmax)``, or a
    sequence of per-class evaluators exposing ``log_emission_table(seq,
    kmax) -> (kmax, T)``, whose tables are stacked.
    """
    if hasattr(emitters, "log_emission_tables"):
        return emitters.log_emission_tables(seq, kmax)
    return np.stack([em.log_emission_table(seq, kmax) for em in emitters])


def forward_filter(seq: np.ndarray, emitters, params: HsmmParams,
                   timer=None) -> ForwardLattice:
    """Build the table of ``emitters`` for ``seq`` (``"emission"``, see
    :func:`build_log_emission_tables`), then :func:`forward_from_table` (``"dp"``)."""
    kmax = min(params.kmax, seq.shape[1])
    with timer.phase("emission") if timer is not None else nullcontext():
        emis = build_log_emission_tables(seq, emitters, kmax)
    with timer.phase("dp") if timer is not None else nullcontext():
        return forward_from_table(emis, params)


def forward_from_table(emis: np.ndarray, params: HsmmParams) -> ForwardLattice:
    """Run the forward pass of the segment lattice on a frame table.

    ``emis[c, j, t]`` is the log density of frame ``t`` at within-segment
    position ``j + 1`` under class ``c``; its shape ``(C, kmax, T)`` must
    have ``C == params.n_classes`` and ``kmax == min(params.kmax, T)``.

    The recursion advances ``kmin`` frames per step.  A segment ending
    in a block of frames ``t0 .. t0+kmin-1`` is at least ``kmin`` long,
    so it starts at or before ``t0`` and its predecessor boundary lies
    before the block: one numpy step scores every (frame, length,
    class) cell of the block from boundary mass already known.  Each
    frame's slice is shift-normalized in the log domain; the mass
    entering each class after a boundary at that frame is the
    normalized slice, summed over lengths, times the transition matrix
    in the linear domain.  That product is safe from underflow: every
    normalized slice sums to one and every transition probability is at
    least ``alpha / (n + C alpha)``.

    The segment scores are the end-indexed running sums ``sums[j, c, t] =
    sums[j - 1, c, t - 1] + emis[c, j, t]``, held position-major in a
    ``(kmax, C, T + 1)`` buffer whose last column is ``-inf``: flattened
    per position, the step to ``(j, t)`` is a shift by one, so each
    position is one contiguous add.  The duration term is added straight
    into ``log_alpha``; each block then adds its entry mass, read through
    a strided window over ``entry``, and takes its peak, normalizer and
    outgoing mass from those unnormalized cells.  No block reads another
    block's cells, so each frame's normalizer is subtracted once, after
    the last block.  ``emis`` is only read, in any memory layout, and
    every call returns new arrays.
    """
    n_classes, kmax, n_frames = emis.shape
    if n_classes != params.n_classes:
        raise ValueError(f"table has {n_classes} classes, the chain has {params.n_classes}")
    if n_frames < params.kmin:
        raise InfeasibleSequenceError(
            f"sequence of {n_frames} frames is shorter than kmin={params.kmin}")
    if kmax != min(params.kmax, n_frames):
        raise ValueError(f"table has {kmax} positions, not min(kmax, T) = "
                         f"{min(params.kmax, n_frames)}")
    kmin = params.kmin
    n_k = kmax - kmin + 1

    # sums[j, c, t]: summed log density of the length-(j + 1) segment of
    # class c ending at frame t; -inf where it would start before frame 0.
    # Column T of every class row is -inf, so in a position's flat row
    # the step (j - 1, t - 1) -> (j, t) is a shift by one, and a class's
    # frame 0 reads the -inf that ends the class before it
    sums = np.empty((kmax, n_classes, n_frames + 1))
    sums[:, :, :n_frames] = emis.transpose(1, 0, 2)
    sums[:, :, n_frames] = -np.inf
    flat = sums.reshape(kmax, -1)
    for j in range(1, kmax):
        flat[j, 0] = -np.inf
        np.add(flat[j - 1, :-1], flat[j, 1:], out=flat[j, 1:])
    trans = np.exp(params.log_transition_matrix())

    # log_alpha starts as the segment scores: duration plus emissions of
    # the length-k segment of class c ending at frame t
    log_alpha = np.empty((n_frames, n_k, n_classes))
    np.add(sums[kmin - 1:, :, :n_frames].transpose(2, 0, 1),
           params.log_durations(kmax)[:, None], out=log_alpha)
    cells = log_alpha.reshape(n_frames, -1)
    log_norm = np.full(n_frames, -np.inf)
    # entry[kmax + s, c]: unnormalized log mass entering class c by a
    # segment starting at frame s (cumulative normalizer folded in);
    # rows for s < 0 stay -inf, the row for s = T is never read
    entry = np.full((kmax + n_frames + 1, n_classes), -np.inf)
    entry[kmax] = -math.log(n_classes)
    # entering[t + 1, k - kmin]: entry's row for the start frame of the
    # length-k segment ending at frame t, a view that sees later writes
    step, col = entry.strides
    entering = as_strided(entry[kmax - kmin:], shape=(n_frames + 1, n_k, n_classes),
                          strides=(step, -step, col), writeable=False)

    with np.errstate(divide="ignore"):
        for t0 in range(kmin - 1, n_frames, kmin):
            t1 = min(t0 + kmin, n_frames)
            rows = log_alpha[t0:t1]  # (b, n_k, C)
            rows += entering[t0 + 1:t1 + 1]
            peak = cells[t0:t1].max(axis=1)
            shift = np.where(np.isfinite(peak), peak, 0.0)
            mass = np.exp(rows - shift[:, None, None])
            ending = mass.sum(axis=1)  # (b, C) mass per ending class
            total = ending.sum(axis=1)
            reached = total > 0  # False on frames that no tiling reaches
            norm = shift + np.log(total)
            # products then a sum over the source class, in its order: a
            # BLAS product would fuse them, and relabelling two classes
            # would then change the lattice in its last bit
            into = np.einsum("bi,ij->bj",
                             ending / np.where(reached, total, 1.0)[:, None], trans)
            entry[kmax + t0 + 1: kmax + t1 + 1] = norm[:, None] + np.log(into)
            log_norm[t0:t1] = norm
    # no block reads another block's cells, so each frame is normalized
    # once the last block is done; unreached frames keep their -inf
    log_alpha -= np.where(np.isfinite(log_norm), log_norm, 0.0)[:, None, None]

    if not np.isfinite(log_norm[-1]):
        raise InfeasibleSequenceError(
            f"no segmentation of {n_frames} frames into lengths within "
            f"[{params.kmin}, {params.kmax}] exists")
    return ForwardLattice(log_alpha=log_alpha, log_norm=log_norm,
                          kmin=kmin, kmax=kmax)


def backward_sample(lattice: ForwardLattice, params: HsmmParams,
                    rng: np.random.Generator) -> list[Segment]:
    """Sample one segmentation from the lattice, in reverse time order.

    At the sequence end the (length, class) cell is drawn from the
    normalized lattice slice; at interior boundaries each candidate
    class c is additionally weighted by the transition probability from
    c to the previously sampled (later-in-time) class.  Returns the
    spans in forward order; they tile [0, T) exactly.
    """
    n_frames = lattice.n_frames
    n_classes = params.n_classes
    log_trans = params.log_transition_matrix()
    segments: list[Segment] = []
    t = n_frames - 1
    next_label = None
    while t >= 0:
        weights = lattice.log_alpha[t]
        if next_label is not None:
            weights = weights + log_trans[:, next_label]
        w_max = weights.max()
        if w_max == -np.inf:
            raise InfeasibleSequenceError(
                f"backward sampling reached an unreachable frame {t}")
        probs = np.exp(weights.ravel() - w_max)
        probs /= probs.sum()
        # the draw of rng.choice(p=probs), without its per-call overhead:
        # the same cumulative table and the same single uniform
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        idx = int(cdf.searchsorted(rng.random(), side="right"))
        k = lattice.kmin + idx // n_classes
        label = idx % n_classes
        start = t - k + 1
        segments.append(Segment(start=start, stop=t + 1, label=int(label)))
        next_label = int(label)
        t = start - 1
    segments.reverse()
    return segments
