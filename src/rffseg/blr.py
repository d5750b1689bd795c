"""Per-class Bayesian linear regression over random Fourier features.

Each segment class keeps one set of regression sufficient statistics per
output dimension.  Segments can be absorbed and released incrementally
(rank-k updates), and the Gaussian posterior predictive is recovered on
demand by factorizing the accumulated precision matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .features import FeatureBank
from .hsmm import LOG_2PI, gaussian_log_table

__all__ = ["RegressionStats", "ClassModel"]


@dataclass
class RegressionStats:
    """Sufficient statistics of one dimension's regression.

    ``precision`` is the posterior precision ``psi*I + beta * sum phi phi^T``;
    ``proj`` is the observation projection ``beta * sum x * phi``.
    """

    precision: np.ndarray
    proj: np.ndarray
    n_points: int = 0

    @classmethod
    def empty(cls, n_features: int, psi: float) -> "RegressionStats":
        return cls(
            precision=psi * np.eye(n_features),
            proj=np.zeros(n_features),
            n_points=0,
        )


class ClassModel:
    """Emission model of one segment class, independent per dimension.

    The posterior mean/covariance cache is refreshed lazily: statistics
    updates are cheap rank-k operations, the O(M^3) factorization runs
    once per refresh.  Single writer; reads are safe once refreshed.
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
        self.stats = [RegressionStats.empty(n_features, psi) for _ in range(n_dims)]
        self.dirty = True
        self._post_mean = np.zeros((n_dims, n_features))
        self._post_cov = np.broadcast_to(np.eye(n_features) / psi,
                                         (n_dims, n_features, n_features)).copy()

    @property
    def n_points(self) -> int:
        return self.stats[0].n_points

    def _phi_block(self, bank: FeatureBank, length: int) -> np.ndarray:
        # within-segment times are 1-based
        return bank.phi(np.arange(1, length + 1, dtype=np.float64))

    def add_segment(self, bank: FeatureBank, segment: np.ndarray) -> None:
        """Absorb one (n_dims, k) segment into the statistics."""
        segment = np.asarray(segment, dtype=np.float64)
        if segment.ndim != 2 or segment.shape[0] != self.n_dims:
            raise ValueError(
                f"segment must have shape ({self.n_dims}, k), got {segment.shape}")
        k = segment.shape[1]
        phi = self._phi_block(bank, k)
        gram = self.beta * (phi.T @ phi)
        proj = self.beta * (segment @ phi)  # (n_dims, n_features)
        for d, st in enumerate(self.stats):
            st.precision += gram
            st.proj += proj[d]
            st.n_points += k
        self.dirty = True

    def remove_segment(self, bank: FeatureBank, segment: np.ndarray) -> None:
        """Release a previously absorbed segment (exact inverse of add)."""
        segment = np.asarray(segment, dtype=np.float64)
        if segment.ndim != 2 or segment.shape[0] != self.n_dims:
            raise ValueError(
                f"segment must have shape ({self.n_dims}, k), got {segment.shape}")
        k = segment.shape[1]
        if self.n_points < k:
            raise ValueError(
                f"class {self.class_id}: removing {k} points from a model "
                f"holding {self.n_points} (caller bookkeeping bug)")
        phi = self._phi_block(bank, k)
        gram = self.beta * (phi.T @ phi)
        proj = self.beta * (segment @ phi)
        for d, st in enumerate(self.stats):
            st.precision -= gram
            st.proj -= proj[d]
            st.n_points -= k
        self.dirty = True

    def refresh(self) -> None:
        """Recompute the per-dimension posterior from the statistics.

        The mean comes from a Cholesky solve; the explicit inverse is
        kept only for the phi^T Sigma phi predictive quadratic form.
        """
        if not self.dirty:
            return
        eye = np.eye(self.n_features)
        for d, st in enumerate(self.stats):
            cf = cho_factor(st.precision, lower=True, check_finite=False)
            self._post_mean[d] = cho_solve(cf, st.proj, check_finite=False)
            self._post_cov[d] = cho_solve(cf, eye, check_finite=False)
        self.dirty = False

    def predictive(self, bank: FeatureBank, tau) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and variances at within-segment time ``tau``.

        Returns arrays of shape ``(..., n_dims)`` for scalar or vector
        ``tau``; variances include the beta^-1 observation noise.
        """
        self.refresh()
        phi = bank.phi(tau)  # (..., M)
        means = phi @ self._post_mean.T  # (..., D)
        quad = np.einsum("...i,dij,...j->...d", phi, self._post_cov, phi)
        variances = 1.0 / self.beta + quad
        return means, variances

    def predictive_logpdf(self, bank: FeatureBank, tau: int, x) -> float:
        """Log density of observation ``x`` (length n_dims) at time ``tau``.

        Dimensions are independent; the result is the per-dimension
        Gaussian log densities summed in dimension order.
        """
        x = np.asarray(x, dtype=np.float64)
        means, variances = self.predictive(bank, float(tau))
        total = 0.0
        for d in range(self.n_dims):
            resid = x[d] - means[d]
            total += -0.5 * (LOG_2PI + np.log(variances[d])
                             + resid * resid / variances[d])
        return float(total)

    def log_emission_table(self, bank: FeatureBank, seq: np.ndarray,
                           kmax: int) -> np.ndarray:
        """Frame log densities for every within-segment position.

        Entry ``[j, t]`` is the log density of frame ``t`` of ``seq``
        (shape ``(n_dims, T)``) when placed at within-segment position
        ``j + 1``.  Shape ``(kmax, T)``.
        """
        self.refresh()
        taus = np.arange(1, kmax + 1, dtype=np.float64)
        phi = bank.phi(taus)  # (kmax, M)
        means = phi @ self._post_mean.T  # (kmax, D)
        quad = np.einsum("dtj,tj->td", phi @ self._post_cov, phi)
        variances = 1.0 / self.beta + quad  # (kmax, D)
        return gaussian_log_table(means, variances, seq)
