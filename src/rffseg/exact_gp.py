"""Exact Gaussian-process emission model (baseline and correctness oracle).

Pools N (within-segment time, observation) points of one class, in training
one per frame at its position's mean, and conditions on all of them at once.
The cache policy is a deliberate full recompute of the inverse Gram matrix on
any point-set change: paying the O(N^3) cost is the point of the baseline.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .hsmm import gaussian_log_table

__all__ = ["rbf_kernel", "GpClassData"]


def rbf_kernel(a, b, lengthscale: float = 1.0):
    """Pairwise RBF kernel ``exp(-(a_i - b_j)^2 / (2 l^2))``.

    Returns the (len(a), len(b)) matrix for array inputs, a scalar for
    scalar inputs.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = np.subtract.outer(a, b)
    return np.exp(-0.5 * (diff / lengthscale) ** 2)


class GpClassData:
    """Pooled training points and Gram-inverse cache for one class.

    ``kernel`` may be any callable ``(a_vec, b_vec) -> matrix``; the
    default is the RBF kernel with the given lengthscale.  Both queries
    run one predictive formula, a mean per dimension and one shared
    variance, which is the prior when the class is empty.  Single
    writer; read-only queries are safe once the cache is fresh.
    """

    def __init__(self, n_dims: int, beta: float = 10.0,
                 lengthscale: float = 1.0, kernel=None):
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.n_dims = n_dims
        self.beta = beta
        self.kernel = kernel if kernel is not None else (
            lambda a, b: rbf_kernel(a, b, lengthscale))
        self.taus = np.zeros(0)
        self.values = np.zeros((0, n_dims))
        self._kinv = None
        self._kinv_x = None

    @property
    def n_points(self) -> int:
        return self.taus.shape[0]

    def set_points(self, taus, values) -> None:
        """Replace the pooled point set; invalidates the cache."""
        taus = np.asarray(taus, dtype=np.float64).ravel()
        values = np.asarray(values, dtype=np.float64).reshape(taus.shape[0], self.n_dims)
        self.taus = taus
        self.values = values
        self._kinv = None
        self._kinv_x = None

    def refresh(self) -> None:
        """Rebuild K, its explicit inverse, and K^-1 X from scratch."""
        if self._kinv is not None:
            return
        n = self.n_points
        if n == 0:
            self._kinv = np.zeros((0, 0))
            self._kinv_x = np.zeros((0, self.n_dims))
            return
        gram = self.kernel(self.taus, self.taus) + np.eye(n) / self.beta
        try:
            cf = cho_factor(gram, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"Gram matrix with noise ridge 1/beta={1.0 / self.beta:g} is "
                f"not positive definite ({n} points): {exc}") from exc
        self._kinv = cho_solve(cf, np.eye(n), check_finite=False)
        self._kinv_x = self._kinv @ self.values

    def _predict(self, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # means (n, D) and the variance (n,) shared by every dimension
        self.refresh()
        kq = self.kernel(self.taus, taus)  # (N, n)
        prior = np.diag(self.kernel(taus, taus))
        means = kq.T @ self._kinv_x
        variances = prior + 1.0 / self.beta - np.sum(kq * (self._kinv @ kq), axis=0)
        return means, variances

    def gp_predictive(self, tau) -> tuple[np.ndarray, float]:
        """Predictive mean vector and (dimension-shared) variance at ``tau``.

        The variance includes the beta^-1 observation noise so that the
        density is of the observation, not the latent function.
        """
        means, variances = self._predict(np.array([float(tau)]))
        return means[0], float(variances[0])

    def log_emission_table(self, seq: np.ndarray, kmax: int) -> np.ndarray:
        """Frame log densities for within-segment positions 1..kmax.

        Same contract as ``ClassModel.log_emission_table``: entry
        ``[j, t]`` scores frame ``t`` of the (n_dims, T) sequence at
        position ``j + 1``.
        """
        taus = np.arange(1, kmax + 1, dtype=np.float64)
        return gaussian_log_table(*self._predict(taus), seq)
