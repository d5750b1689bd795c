"""Random Fourier feature map for the unit-amplitude RBF kernel.

A feature bank holds Monte Carlo samples from the kernel's spectral
density.  Inner products of the resulting cosine features approximate
``exp(-(tp - tq)^2 / (2 * lengthscale^2))``, which lets Bayesian linear
regression over the features stand in for Gaussian process regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hsmm import check_positive_finite, json_object, number_array

__all__ = ["FeatureBank", "sample_feature_bank"]


@dataclass(frozen=True)
class FeatureBank:
    """Sampled spectral frequencies and phases defining the feature map.

    The sampled values are immutable after construction and
    :meth:`phi` is pure.  The features at within-segment positions are
    memoised on the bank, once for every class and dimension that shares
    it; the cached array is read-only.
    """

    n_features: int
    lengthscale: float
    seed: int
    omegas: np.ndarray
    phases: np.ndarray
    _positions: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        object.__setattr__(self, "lengthscale",
                           check_positive_finite("bank.lengthscale", self.lengthscale))
        for name in ("omegas", "phases"):
            object.__setattr__(self, name, number_array(
                f"bank.{name}", getattr(self, name), (self.n_features,)))

    def phi(self, t) -> np.ndarray:
        """Feature vector ``sqrt(2/M) * cos(omega * t + phase)``.

        Accepts a scalar or an array of times; the feature axis is last,
        so an input of shape ``(...,)`` yields ``(..., n_features)``.
        Times are raw within-segment indices; scaling is the job of the
        lengthscale baked into the frequencies.
        """
        t = np.asarray(t, dtype=np.float64)
        proj = np.multiply.outer(t, self.omegas) + self.phases
        return np.sqrt(2.0 / self.n_features) * np.cos(proj)

    def position_features(self, length: int) -> np.ndarray:
        """``phi(1..length)``, the features at within-segment positions.

        Shape ``(length, n_features)``.  The cache grows by appending
        rows, so a row never changes once computed.
        """
        cached = self._positions
        if cached is None or cached.shape[0] < length:
            start = 0 if cached is None else cached.shape[0]
            rows = self.phi(np.arange(start + 1, length + 1, dtype=np.float64))
            cached = rows if cached is None else np.vstack([cached, rows])
            cached.setflags(write=False)
            object.__setattr__(self, "_positions", cached)
        return cached[:length]

    def to_dict(self) -> dict:
        return {
            "n_features": self.n_features,
            "lengthscale": self.lengthscale,
            "seed": self.seed,
            "omegas": self.omegas.tolist(),
            "phases": self.phases.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureBank":
        """The bank ``to_dict`` wrote; ``ValueError`` names a field that is not what
        :func:`~rffseg.hsmm.number_array`, or for ``lengthscale`` its own check, asks."""
        d = json_object("bank", d)
        return cls(
            n_features=int(number_array("bank.n_features", d["n_features"], (), np.int64)),
            lengthscale=d["lengthscale"],
            seed=int(number_array("bank.seed", d["seed"], (), np.uint64)),
            omegas=d["omegas"],
            phases=d["phases"],
        )


def sample_feature_bank(n_features: int, lengthscale: float = 1.0, seed: int = 0) -> FeatureBank:
    """Draw a feature bank from the RBF kernel's spectral density.

    Frequencies come first (``Normal(0, 1/lengthscale^2)``, i.i.d.), then
    phases (``Uniform[0, 2pi)``, i.i.d.), in one fixed pass over the
    generator, so a given ``(n_features, lengthscale, seed)`` triple
    always reproduces the same bank bit-exactly.
    """
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    lengthscale = check_positive_finite("lengthscale", lengthscale)
    rng = np.random.default_rng(seed)
    omegas = rng.normal(0.0, 1.0 / lengthscale, size=n_features)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_features)
    return FeatureBank(
        n_features=n_features,
        lengthscale=lengthscale,
        seed=int(seed),
        omegas=omegas,
        phases=phases,
    )
