"""Unsupervised time-series segmentation with random-feature GP emissions."""

from .features import FeatureBank, sample_feature_bank
from .blr import ClassModel, RegressionStats
from .exact_gp import GpClassData, rbf_kernel
from .hsmm import (
    ForwardLattice,
    HsmmParams,
    InfeasibleSequenceError,
    Segment,
    backward_sample,
    forward_filter,
    forward_from_table,
)

__version__ = "0.1.0"

__all__ = [
    "FeatureBank",
    "sample_feature_bank",
    "ClassModel",
    "RegressionStats",
    "GpClassData",
    "rbf_kernel",
    "HsmmParams",
    "ForwardLattice",
    "InfeasibleSequenceError",
    "Segment",
    "forward_filter",
    "forward_from_table",
    "backward_sample",
    "__version__",
]
