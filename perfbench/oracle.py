"""Reference computations that check rffseg's outputs; never timed.

Everything here is written apart from the program: its own cosine
feature map built from a bank's omegas and phases, its own Bayesian
linear regression and exact GP posteriors, a plain forward recursion
for the semi-Markov model and its own normalised Hamming distance.
The posteriors use per-position sufficient statistics: within-segment
inputs are the integers 1..kmax, so a class is summed up by the number
of segment points at each position and their summed values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

LOG_2PI = math.log(2.0 * math.pi)


def relative_error(got, want, floor: float) -> float:
    """Largest absolute difference as a share of the reference's scale.

    The scale is the reference's largest magnitude, but not below
    ``floor``: an empty class predicts a mean of exactly zero, which the
    incremental statistics reach only up to rounding.
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(float(np.max(np.abs(want))), floor)
    return float(np.max(np.abs(got - want))) / scale


def cosine_features(omegas, phases, taus) -> np.ndarray:
    """``sqrt(2/M) cos(omega tau + phase)``, shape ``(len(taus), M)``."""
    omegas = np.asarray(omegas, dtype=np.float64)
    taus = np.asarray(taus, dtype=np.float64)
    return math.sqrt(2.0 / omegas.size) * np.cos(taus[:, None] * omegas[None, :]
                                                 + np.asarray(phases)[None, :])


def position_sums(segments, kmax: int, n_dims: int):
    """Point count and summed values per within-segment position.

    ``segments`` holds ``(n_dims, k)`` arrays; returns ``(kmax,)`` counts
    and ``(kmax, n_dims)`` sums, position ``j + 1`` at row ``j``.
    """
    counts = np.zeros(kmax)
    sums = np.zeros((kmax, n_dims))
    for seg in segments:
        k = seg.shape[1]
        counts[:k] += 1.0
        sums[:k] += seg.T
    return counts, sums


def blr_predictive(omegas, phases, beta: float, psi: float, counts, sums, taus):
    """Predictive means ``(len(taus), D)`` and variances ``(len(taus),)``.

    Bayesian linear regression over the cosine features with weight
    prior precision ``psi`` and noise precision ``beta``; the precision
    is shared by every dimension.
    """
    grid = cosine_features(omegas, phases, np.arange(1, counts.size + 1))
    precision = psi * np.eye(grid.shape[1]) + beta * (grid.T * counts) @ grid
    proj = beta * sums.T @ grid  # (D, M)
    chol = np.linalg.cholesky(precision)
    cov = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(grid.shape[1])))
    mean = proj @ cov  # (D, M); cov is symmetric
    phi = cosine_features(omegas, phases, taus)
    variances = 1.0 / beta + np.einsum("ti,ij,tj->t", phi, cov, phi)
    return phi @ mean.T, variances


def gp_predictive(lengthscale: float, beta: float, counts, sums, taus):
    """Exact GP predictive means ``(len(taus), D)`` and variances.

    Repeated observations at one input with noise ``1/beta`` carry the
    same information as their mean with noise ``1/(beta n)``, so the
    pooled posterior is one solve over the occupied positions.
    """
    taus = np.asarray(taus, dtype=np.float64)
    occupied = np.flatnonzero(counts)
    n_dims = sums.shape[1]
    if occupied.size == 0:
        return np.zeros((taus.size, n_dims)), np.full(taus.size, 1.0 + 1.0 / beta)
    u = occupied + 1.0
    n = counts[occupied]
    ybar = sums[occupied] / n[:, None]

    def rbf(a, b):
        return np.exp(-0.5 * ((a[:, None] - b[None, :]) / lengthscale) ** 2)

    gram = rbf(u, u) + np.diag(1.0 / (beta * n))
    chol = np.linalg.cholesky(gram)
    cross = rbf(u, taus)  # (U, len(taus))
    half = np.linalg.solve(chol, cross)
    means = cross.T @ np.linalg.solve(chol.T, np.linalg.solve(chol, ybar))
    variances = 1.0 + 1.0 / beta - np.sum(half * half, axis=0)
    return means, variances


def emission_table(means, variances, seq) -> np.ndarray:
    """Frame log densities ``(kmax, T)`` of a ``(D, T)`` sequence.

    ``means`` is ``(kmax, D)``, ``variances`` ``(kmax,)``; dimensions are
    independent Gaussians summed.
    """
    resid = seq[None, :, :] - means[:, :, None]  # (kmax, D, T)
    var = variances[:, None, None]
    return np.sum(-0.5 * (LOG_2PI + np.log(var) + resid * resid / var), axis=1)


def log_transition(transition_counts, alpha: float) -> np.ndarray:
    counts = np.asarray(transition_counts, dtype=np.float64)
    n_classes = counts.shape[0]
    return np.log(counts + alpha) - np.log(
        counts.sum(axis=1, keepdims=True) + n_classes * alpha)


def duration_logpmf(k: int, mean_length: float) -> float:
    """Raw Poisson log pmf; the model never renormalises it on [kmin, kmax]."""
    return k * math.log(mean_length) - mean_length - math.lgamma(k + 1)


def _logsumexp(a, axis=None):
    a = np.asarray(a, dtype=np.float64)
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True)) + peak
    return out.squeeze(axis) if axis is not None else float(out.ravel()[0])


def hsmm_loglik(table, kmin: int, kmax: int, mean_length: float,
                log_trans) -> float:
    """Total log-likelihood of one sequence by the plain forward recursion.

    ``table[c, j, t]`` scores frame ``t`` at within-segment position
    ``j + 1`` under class ``c``.  ``ends[t, c]`` is the log mass of every
    segmentation of frames ``0..t`` whose last segment has class ``c``
    and ends at ``t``; the first segment draws its class uniformly.
    Returns ``-inf`` when no segmentation exists.
    """
    n_classes, _, n_frames = table.shape
    kmax = min(kmax, n_frames)
    ends = np.full((n_frames, n_classes), -np.inf)
    entering = np.full((n_frames, n_classes), -np.inf)  # after a boundary at t
    first = np.full(n_classes, -math.log(n_classes))
    for t in range(n_frames):
        terms = []
        for k in range(kmin, min(kmax, t + 1) + 1):
            start = t - k + 1
            pos = np.arange(k)
            seg = table[:, pos, start + pos].sum(axis=1)
            prev = first if start == 0 else entering[start - 1]
            terms.append(seg + duration_logpmf(k, mean_length) + prev)
        if terms:
            ends[t] = _logsumexp(np.array(terms), axis=0)
            entering[t] = _logsumexp(ends[t][:, None] + log_trans, axis=0)
    return _logsumexp(ends[n_frames - 1])


def span_errors(segments, n_frames: int, kmin: int, kmax: int,
                n_classes: int) -> list[str]:
    """Reasons why a span list fails to tile ``[0, n_frames)`` legally."""
    errors = []
    pos = 0
    for seg in segments:
        if seg.start != pos:
            errors.append(f"span starts at {seg.start}, expected {pos}")
        if not kmin <= seg.stop - seg.start <= kmax:
            errors.append(f"span length {seg.stop - seg.start} outside [{kmin}, {kmax}]")
        if not 0 <= seg.label < n_classes:
            errors.append(f"label {seg.label} outside [0, {n_classes})")
        pos = seg.stop
    if pos != n_frames:
        errors.append(f"spans end at {pos}, sequence has {n_frames} frames")
    return errors


def recount(assignments, n_classes: int):
    """Transition and class counts recounted from per-sequence spans."""
    trans = np.zeros((n_classes, n_classes), dtype=np.int64)
    counts = np.zeros(n_classes, dtype=np.int64)
    for segs in assignments:
        for seg in segs:
            counts[seg.label] += 1
        for prev, cur in zip(segs[:-1], segs[1:]):
            trans[prev.label, cur.label] += 1
    return trans, counts


def nhd(predicted, truth) -> float:
    """Frame mismatch rate under the best one-to-one class alignment."""
    predicted = np.asarray(predicted).ravel()
    truth = np.asarray(truth).ravel()
    _, p_idx = np.unique(predicted, return_inverse=True)
    _, t_idx = np.unique(truth, return_inverse=True)
    side = max(p_idx.max(), t_idx.max()) + 1
    table = np.zeros((side, side), dtype=np.int64)
    np.add.at(table, (p_idx, t_idx), 1)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return 1.0 - table[rows, cols].sum() / predicted.size
