"""Per-class Bayesian linear regression over random Fourier features.

Each segment class keeps one set of regression sufficient statistics per
output dimension, stored as views of one precision stack and one
projection stack.  Segments can be absorbed and released incrementally
(rank-k updates), and the Gaussian posterior predictive is recovered on
demand by factorizing the accumulated precision matrix.  That precision
does not depend on the dimension, so it is factorized once per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .features import FeatureBank
from .hsmm import gaussian_log_table

__all__ = ["RegressionStats", "ClassModel"]


@dataclass
class RegressionStats:
    """Sufficient statistics of one dimension's regression.

    ``precision`` is the posterior precision ``psi*I + beta * sum phi phi^T``;
    ``proj`` is the observation projection ``beta * sum x * phi``.  In a
    :class:`ClassModel` both are views of the class's stacks, so they are
    written in place, never rebound.
    """

    precision: np.ndarray
    proj: np.ndarray
    n_points: int = 0


class ClassModel:
    """Emission model of one segment class, independent per dimension.

    Every dimension shares one precision ``psi*I + beta * sum phi phi^T``,
    so the posterior is one factorization per class.  ``stats[d]``'s
    ``precision`` and ``proj`` are views of a ``(D, M, M)`` precision
    stack and a ``(D, M)`` projection stack, so one in-place operation
    updates every dimension.  The posterior and the predictive at
    positions 1..kmax are refreshed lazily: statistics updates are cheap
    rank-k operations, the O(M^3) factorization runs once per refresh.
    Single writer; reads are safe once refreshed.
    """

    def __init__(self, class_id: int, n_dims: int, n_features: int,
                 beta: float = 10.0, psi: float = 1.0):
        if beta <= 0 or psi <= 0:
            raise ValueError("beta and psi must be positive")
        self.class_id = class_id
        self.n_dims = n_dims
        self.n_features = n_features
        self.beta = beta
        self.psi = psi
        self._precision = np.tile(psi * np.eye(n_features), (n_dims, 1, 1))
        self._proj = np.zeros((n_dims, n_features))
        self.stats = [RegressionStats(p, q) for p, q in zip(self._precision, self._proj)]
        self.dirty = True
        self._post_mean = np.zeros((n_dims, n_features))
        self._post_cov = np.eye(n_features) / psi
        # (bank, kmax, means, variances) of position_predictive; a
        # refresh that recomputes the posterior drops it
        self._predictive_cache = None

    @property
    def n_points(self) -> int:
        return self.stats[0].n_points

    def add_segment(self, bank: FeatureBank, segment: np.ndarray) -> None:
        """Absorb one (n_dims, k) segment into the statistics."""
        self._accumulate(bank, self._checked(segment), 1)

    def remove_segment(self, bank: FeatureBank, segment: np.ndarray) -> None:
        """Release a previously absorbed segment (exact inverse of add)."""
        segment = self._checked(segment)
        k = segment.shape[1]
        if self.n_points < k:
            raise ValueError(
                f"class {self.class_id}: removing {k} points from a model "
                f"holding {self.n_points} (caller bookkeeping bug)")
        self._accumulate(bank, segment, -1)

    def _checked(self, segment) -> np.ndarray:
        segment = np.asarray(segment, dtype=np.float64)
        if segment.ndim != 2 or segment.shape[0] != self.n_dims:
            raise ValueError(
                f"segment must have shape ({self.n_dims}, k), got {segment.shape}")
        return segment

    def _accumulate(self, bank: FeatureBank, segment: np.ndarray, sign: int) -> None:
        """Add ``sign`` times the segment's statistics to every dimension.

        Within-segment times are 1-based, so the segment's features and
        Gram are the bank's first k rows and its k-th prefix Gram.  The
        Gram goes into the whole precision stack and the projections into
        the projection stack, one in-place add each.
        """
        k = segment.shape[1]
        scale = sign * self.beta
        self._precision += scale * bank.prefix_gram(k)
        self._proj += scale * (segment @ bank.position_features(k))  # (n_dims, n_features)
        for st in self.stats:
            st.n_points += sign * k
        self.dirty = True

    def shared_precision(self) -> np.ndarray:
        """The precision matrix, which every dimension's statistics share.

        Raises ``ValueError`` if the per-dimension copies are not
        bit-identical, which only a write to ``stats`` from outside the
        class can cause: every update here applies the same increment to
        each copy.
        """
        precision = self.stats[0].precision
        reference = precision.tobytes()
        for d, st in enumerate(self.stats[1:], start=1):
            if st.precision.tobytes() != reference:
                raise ValueError(
                    f"class {self.class_id}: the precision of dimension {d} "
                    f"differs from that of dimension 0; every dimension must "
                    f"share one precision")
        return precision

    def refresh(self) -> None:
        """Recompute the posterior from the statistics.

        One Cholesky factorization of the shared precision (``cho_factor``);
        LAPACK's ``dpotrs`` then solves on that factor for the means of all
        dimensions, from the projection stack, and for the explicit
        inverse, which is kept only for the phi^T Sigma phi predictive
        quadratic form.
        """
        if not self.dirty:
            return
        factor, _ = cho_factor(self.shared_precision(), lower=True, check_finite=False)
        self._post_mean = dpotrs(factor, self._proj.T, lower=1)[0].T
        self._post_cov = dpotrs(factor, np.eye(self.n_features), lower=1)[0]
        self._predictive_cache = None
        self.dirty = False

    def _predict(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # means (..., D) and the variance (...,) shared by every dimension
        means = phi @ self._post_mean.T
        variances = 1.0 / self.beta + np.sum((phi @ self._post_cov) * phi, axis=-1)
        return means, variances

    def predictive(self, bank: FeatureBank, tau) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and variances at within-segment time ``tau``.

        Returns arrays of shape ``(..., n_dims)`` for scalar or vector
        ``tau``; variances include the beta^-1 observation noise and are
        equal across dimensions.
        """
        self.refresh()
        means, variances = self._predict(bank.phi(tau))
        return means, np.repeat(variances[..., np.newaxis], self.n_dims, axis=-1)

    def position_predictive(self, bank: FeatureBank,
                            kmax: int) -> tuple[np.ndarray, np.ndarray]:
        """Predictive ``(kmax, D)`` means and ``(kmax,)`` shared variances.

        At within-segment positions 1..kmax, read from the bank's cached
        position features.  Kept until the posterior next changes.
        """
        self.refresh()
        cached = self._predictive_cache
        if cached is None or cached[0] is not bank or cached[1] != kmax:
            cached = (bank, kmax, *self._predict(bank.position_features(kmax)))
            self._predictive_cache = cached
        return cached[2], cached[3]

    def log_emission_table(self, bank: FeatureBank, seq: np.ndarray,
                           kmax: int) -> np.ndarray:
        """Frame log densities for every within-segment position.

        Entry ``[j, t]`` is the log density of frame ``t`` of ``seq``
        (shape ``(n_dims, T)``) when placed at within-segment position
        ``j + 1``.  Shape ``(kmax, T)``.
        """
        return gaussian_log_table(*self.position_predictive(bank, kmax), seq)
