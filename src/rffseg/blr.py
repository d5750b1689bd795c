"""Per-class Bayesian linear regression over random Fourier features.

A class's regression depends only on its frame counts and sums at the
within-segment positions ``1..K`` (:func:`grid_statistics`).  Its
precision does not depend on the output dimension, so its Gaussian
posterior predictive is one Cholesky factorization and one triangular
solve against the projections and the features together
(:func:`posterior_predictive`); no inverse is formed.  A standalone
:class:`ClassModel` absorbs and releases segments one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor  # noqa: F401  perfbench's tracing wraps it by name
from scipy.linalg.lapack import dpotrf, dtrtrs

from .features import FeatureBank
from .hsmm import gaussian_log_table

__all__ = ["RegressionStats", "ClassModel", "grid_statistics", "posterior_predictive"]


def grid_statistics(counts: np.ndarray, sums: np.ndarray, phi: np.ndarray,
                    beta: float, psi: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, M, M)`` precisions ``psi*I + beta * Phi^T diag(n_c) Phi`` and
    ``(n, D, M)`` projections ``beta * S_c^T Phi`` of ``n`` classes, from
    their ``(n, K)`` frame counts and ``(n, K, D)`` frame sums at positions
    ``1..K``, whose features are the rows of ``phi`` ``(K, M)``."""
    gram = (counts[:, :, np.newaxis] * phi).transpose(0, 2, 1) @ phi
    precision = psi * np.eye(phi.shape[1]) + beta * gram
    return precision, sums.transpose(0, 2, 1) @ (beta * phi)


def posterior_predictive(precision: np.ndarray, proj: np.ndarray, phi: np.ndarray,
                         beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and variances of ``n`` classes at the feature rows ``phi``.

    ``precision`` is ``(n, M, M)``, each class's shared precision ``P``;
    ``proj`` is ``(n, D, M)`` and ``phi`` ``(K, M)``.  With ``P = L L^T``
    (LAPACK's ``dpotrf``), one triangular solve (``dtrtrs``) of
    ``L [B | A] = [proj^T | phi^T]`` gives both terms: the means are
    ``A^T B`` and the variances ``1/beta + |A[:, k]|^2``.  Returns
    ``(n, K, D)`` means and ``(n, K)`` variances, one per row of ``phi``
    and shared by every dimension.
    """
    n, n_dims, n_features = proj.shape
    # a class's (D + K, M) rows, transposed, are the Fortran-ordered
    # right-hand side that dtrtrs overwrites in place
    work = np.empty((n, n_dims + phi.shape[0], n_features))
    work[:, :n_dims] = proj
    work[:, n_dims:] = phi
    for i in range(n):
        factor, info = dpotrf(precision[i], lower=1, clean=0)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"precision {i} is not positive definite (dpotrf info {info})")
        dtrtrs(factor, work[i].T, lower=1, overwrite_b=1)
    whitened = work[:, n_dims:]
    means = whitened @ work[:, :n_dims].transpose(0, 2, 1)
    variances = 1.0 / beta + np.einsum("nkm,nkm->nk", whitened, whitened)
    return means, variances


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
    ``precision`` and ``proj`` are views of the model's ``(D, M, M)``
    precision stack and ``(D, M)`` projection stack, so one in-place
    operation updates every dimension.

    No posterior is cached: :meth:`predictive` and
    :meth:`log_emission_table` solve on every call, so they read any
    write to ``stats`` made from outside.
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

        Within-segment times are 1-based, so the segment's features are
        the bank's first k rows.  Their Gram goes into the whole precision
        stack and the projections into the projection stack, one in-place
        add each.
        """
        k = segment.shape[1]
        phi = bank.position_features(k)
        scale = sign * self.beta
        self._precision += scale * (phi.T @ phi)
        self._proj += scale * (segment @ phi)  # (n_dims, n_features)
        for st in self.stats:
            st.n_points += sign * k

    def shared_precision(self) -> np.ndarray:
        """The precision matrix, which every dimension's statistics share.

        Raises ``ValueError`` naming the first dimension whose copy is not
        bit-identical to dimension 0's, which only a write to ``stats``
        from outside can cause: every update here applies the same
        increment to each copy.
        """
        flat = self._precision.reshape(self.n_dims, -1)
        # each dimension against the one before it: contiguous rows, no broadcast
        same = (flat[1:] == flat[:-1]).all(axis=1)
        if not same.all():
            raise ValueError(
                f"class {self.class_id}: the precision of dimension "
                f"{int(np.argmin(same)) + 1} differs from that of dimension 0; "
                f"every dimension must share one precision")
        return self._precision[0]

    def refresh(self) -> None:
        """Check that the statistics can be solved: one shared precision.

        Nothing is cached to recompute; this raises the ``ValueError`` of
        :meth:`shared_precision` early.
        """
        self.shared_precision()

    def _predict(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (K, D) means and the (K,) variances shared by every dimension
        means, variances = posterior_predictive(
            self.shared_precision()[np.newaxis], self._proj[np.newaxis], phi, self.beta)
        return means[0], variances[0]

    def predictive(self, bank: FeatureBank, tau) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and variances at within-segment time ``tau``.

        Returns arrays of shape ``(..., n_dims)`` for scalar or vector
        ``tau``; variances include the beta^-1 observation noise and are
        equal across dimensions.
        """
        phi = bank.phi(tau)
        means, variances = self._predict(phi.reshape(-1, self.n_features))
        shape = phi.shape[:-1]
        return (means.reshape(*shape, self.n_dims),
                np.repeat(variances.reshape(*shape, 1), self.n_dims, axis=-1))

    def log_emission_table(self, bank: FeatureBank, seq: np.ndarray,
                           kmax: int) -> np.ndarray:
        """Frame log densities for every within-segment position.

        Entry ``[j, t]`` is the log density of frame ``t`` of ``seq``
        (shape ``(n_dims, T)``) when placed at within-segment position
        ``j + 1``.  Shape ``(kmax, T)``.
        """
        return gaussian_log_table(*self._predict(bank.position_features(kmax)), seq)
