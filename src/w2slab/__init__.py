"""Numerical verification lab for weak-to-strong generalization bounds."""

# every command draws from numpy.random, which numpy loads only on first use;
# loading it here keeps that cost in the import
import numpy.random  # noqa: F401

from .bregman import (
    BregmanGeometry,
    DomainError,
    Mahalanobis,
    NegativeEntropy,
    SampleSet,
    SquaredNorm,
    clamp_simplex,
    mean_minimizer,
)
from .losses import ProbVector

__all__ = [
    "BregmanGeometry",
    "SquaredNorm",
    "Mahalanobis",
    "NegativeEntropy",
    "SampleSet",
    "mean_minimizer",
    "clamp_simplex",
    "DomainError",
    "ProbVector",
    "__version__",
]

__version__ = "0.1.0"
