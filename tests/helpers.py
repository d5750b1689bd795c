"""Shared test fixtures: fixed-table emitters and brute-force oracles."""

import itertools
import math

import numpy as np

from rffseg.hsmm import ForwardLattice, InfeasibleSequenceError, Segment, tileable


class TableEmitter:
    """Emitter backed by a fixed (kmax, T) log-density table."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)
        self.calls = 0

    def log_emission_table(self, seq, kmax):
        self.calls += 1
        return self.table[:kmax, : seq.shape[1]]


def add_frames(emissions, key, label, frames):
    """Add ``frames`` ``(n_dims, k)`` to an emission backend's class ``label``,
    as a sequence of one segment stored under ``key``."""
    emissions.add(key, frames, [Segment(0, frames.shape[1], label)])


def poisson_logpmf(k, mean_length):
    """The raw Poisson log pmf of a segment length, in the arithmetic of the DP's durations."""
    return k * math.log(mean_length) - mean_length - math.lgamma(k + 1)


def direct_log_table(means, variances, seq):
    """Per-dimension residual form of ``rffseg.hsmm.gaussian_log_table``."""
    means = np.asarray(means, dtype=np.float64)
    variances = np.broadcast_to(
        np.asarray(variances, dtype=np.float64).reshape(len(means), -1), means.shape)
    table = np.zeros((means.shape[0], seq.shape[1]))
    for d in range(seq.shape[0]):
        resid = seq[d][np.newaxis, :] - means[:, d][:, np.newaxis]
        var = variances[:, d][:, np.newaxis]
        table += -0.5 * (math.log(2.0 * math.pi) + np.log(var) + resid * resid / var)
    return table


def gaussian_logpdf(x, means, variances):
    """Log density of one frame ``x`` under independent per-dimension Gaussians.

    ``means`` has one entry per dimension; ``variances`` likewise, or
    one value shared by every dimension.  The scalar oracle for the
    emission tables: the per-dimension terms are summed in order.
    """
    means = np.asarray(means, dtype=np.float64)
    variances = np.broadcast_to(np.asarray(variances, dtype=np.float64), means.shape)
    total = 0.0
    for x_d, m_d, v_d in zip(np.asarray(x, dtype=np.float64), means, variances):
        resid = x_d - m_d
        total += -0.5 * (math.log(2.0 * math.pi) + math.log(v_d) + resid * resid / v_d)
    return total


def transition_logprob(params, c_prev, c):
    """Scalar oracle for ``HsmmParams.log_transition_matrix()[c_prev, c]``.

    Dirichlet-multinomial form ``(n_{c'c} + alpha) / (sum_c n_{c'c}
    + C alpha)``.
    """
    row = params.transition_counts[c_prev]
    return math.log(row[c] + params.alpha) - math.log(
        row.sum() + params.n_classes * params.alpha)


def compositions(total, kmin, kmax):
    """All orderings of lengths in [kmin, kmax] that sum to total."""
    if total == 0:
        yield ()
        return
    for k in range(kmin, min(kmax, total) + 1):
        for rest in compositions(total - k, kmin, kmax):
            yield (k,) + rest


def enumerate_posterior(tables, params, n_frames):
    """Exact log weight of every (lengths, labels) segmentation.

    ``tables[c][j][t]`` is the log density of frame ``t`` at
    within-segment position ``j + 1`` under class ``c``.  Returns a dict
    keyed by (lengths, labels) plus the log marginal.
    """
    n_classes = params.n_classes
    outcomes = {}
    for lengths in compositions(n_frames, params.kmin, params.kmax):
        for labels in itertools.product(range(n_classes), repeat=len(lengths)):
            lw = 0.0
            start = 0
            prev = None
            for k, c in zip(lengths, labels):
                lw += poisson_logpmf(k, params.mean_length)
                for j in range(k):
                    lw += tables[c][j][start + j]
                if prev is None:
                    lw += -math.log(n_classes)
                else:
                    lw += transition_logprob(params, prev, c)
                prev = c
                start += k
            outcomes[(lengths, labels)] = lw
    peak = max(outcomes.values())
    log_marginal = peak + math.log(
        sum(math.exp(v - peak) for v in outcomes.values()))
    return outcomes, log_marginal


def segmentation_key(segments):
    return (tuple(s.length for s in segments),
            tuple(s.label for s in segments))


def logsumexp(a, axis=None):
    """Shift-stable log-sum-exp that maps all-(-inf) slices to -inf."""
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis))
    if axis is None:
        return float(out + shift.ravel()[0])
    return out + np.squeeze(shift, axis=axis)


def reference_forward(emis, params):
    """Frame-by-frame forward recursion, all in the log domain.

    Same contract as ``rffseg.hsmm.forward_from_table``: ``emis`` is the
    ``(C, kmax, T)`` frame table.  One step per frame, each a log-sum-exp
    over (length, class) cells and one over predecessor classes; each
    segment's score is summed here along the table's diagonal.
    """
    emis = np.asarray(emis, dtype=np.float64)
    n_classes, kmax, n_frames = emis.shape
    if n_frames < params.kmin:
        raise InfeasibleSequenceError(
            f"sequence of {n_frames} frames is shorter than kmin={params.kmin}")
    kmin = params.kmin
    n_k = kmax - kmin + 1

    log_dur = np.array([poisson_logpmf(k, params.mean_length) for k in range(kmin, kmax + 1)])
    log_trans = params.log_transition_matrix()
    log_init = -math.log(n_classes)

    log_alpha = np.full((n_frames, n_k, n_classes), -np.inf)
    log_norm = np.full(n_frames, -np.inf)
    # trans_in[t, c]: unnormalized log mass entering class c after a
    # segment boundary at frame t (cumulative normalizer folded in)
    trans_in = np.full((n_frames, n_classes), -np.inf)

    for t in range(n_frames):
        hi = min(kmax, t + 1)
        if hi < kmin:
            continue
        ks = np.arange(kmin, hi + 1)
        starts = t - ks + 1
        # (n_ks, C): frame t-k+1+j at position j, summed over the segment
        seg_scores = np.array([emis[:, np.arange(k), s + np.arange(k)].sum(axis=1)
                               for k, s in zip(ks, starts)])
        prev = np.where((starts == 0)[:, None], log_init,
                        trans_in[np.maximum(starts - 1, 0)])
        row = seg_scores + log_dur[ks - kmin][:, None] + prev
        row_max = row.max()
        if row_max == -np.inf:
            continue
        log_norm[t] = row_max + math.log(np.sum(np.exp(row - row_max)))
        log_alpha[t, ks - kmin, :] = row - log_norm[t]
        ending = logsumexp(log_alpha[t], axis=0)  # (C,) mass per ending class
        trans_in[t] = log_norm[t] + logsumexp(log_trans + ending[:, None], axis=0)

    if not np.isfinite(log_norm[-1]):
        raise InfeasibleSequenceError(
            f"no segmentation of {n_frames} frames into lengths within "
            f"[{params.kmin}, {params.kmax}] exists")
    return ForwardLattice(log_alpha=log_alpha, log_norm=log_norm,
                          kmin=kmin, kmax=kmax)


def reference_random_spans(n_frames, kmin, kmax, rng):
    """The draw order of ``rffseg.trainer._random_spans``, written plainly.

    At each remainder, list the admissible lengths and let
    ``rng.choice`` pick one.
    """
    spans = []
    pos = 0
    remaining = n_frames
    while remaining > 0:
        choices = [k for k in range(kmin, min(kmax, remaining) + 1)
                   if tileable(remaining - k, kmin, kmax)]
        k = int(rng.choice(choices))
        spans.append((pos, pos + k))
        pos += k
        remaining -= k
    return spans
