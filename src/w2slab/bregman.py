"""Bregman divergence geometries with dual coordinates.

Three generators are implemented: the squared Euclidean norm, the squared
Mahalanobis norm for a symmetric positive-definite matrix, and negative
entropy restricted to the relative interior of the probability simplex.
Each geometry exposes the divergence D(x, y) = phi(x) - phi(y) - <grad
phi(y), x - y>, the dual (mirror) map and its inverse, the generalized law
of cosines, and the forward/reverse bias-variance decompositions of an
expected divergence over a finite weighted sample.

On the simplex the gradient of the restricted generator is only defined up
to constant shifts along the all-ones direction.  We fix the representative
``log x`` and invert it with a softmax, which makes the dual mean of a
sample the weight-normalized geometric mean of its points.  Residual and
dual-difference vectors are reduced to the simplex tangent space (centered)
so that Cauchy-Schwarz residuals vanish exactly for dual-mean predictors.

The negative-entropy generator and its divergence (KL) share one numpy
kernel, ``_xlogy``: x log y, taken as 0 where x = 0, the convention of
``scipy.special.xlogy``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SIMPLEX_EPS",
    "DomainError",
    "clamp_simplex",
    "SampleSet",
    "mean_minimizer",
    "BregmanGeometry",
    "SquaredNorm",
    "Mahalanobis",
    "NegativeEntropy",
]

SIMPLEX_EPS = 1e-12


class DomainError(ValueError):
    """Input lies outside the geometry's domain."""


def clamp_simplex(p, eps: float = SIMPLEX_EPS) -> np.ndarray:
    """Pull a probability vector into the simplex interior.

    Coordinates are clipped to [eps, 1 - eps], renormalized, and clipped
    once more so one-hot labels become representable without infinities.
    The second clip perturbs the sum by at most K * eps.
    """
    p = np.asarray(p, dtype=float)
    q = np.clip(p, eps, 1.0 - eps)
    q = q / q.sum(axis=-1, keepdims=True)
    return np.clip(q, eps, 1.0 - eps)


@dataclass(frozen=True)
class SampleSet:
    """Finite weighted collection of points standing in for a random vector.

    Weights must be nonnegative and sum to one within 1e-12; every
    expectation over the set is then exact, with no sampling error.
    """

    points: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("SampleSet requires at least one point")
        if self.weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.asarray(self.weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must be one per point")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1 within 1e-12")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.points.shape[0]


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise x log y, with 0 where x == 0.

    When every y is positive the product needs no mask.  Otherwise zeros of
    x are masked to 0 and the other entries give x log y quietly: NaN for a
    negative or NaN y, as ``scipy.special.xlogy`` does.
    """
    # the ufunc reductions here and in the callers skip the Python wrappers
    # of ndarray.min and np.sum, which on a few coordinates cost a sizable
    # share of a whole KL.  The minimum is over y and 1, so that an empty y
    # takes the product; NaN fails the test
    if np.minimum.reduce(y, axis=None, initial=1.0) > 0:
        return x * np.log(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def mean_minimizer(sample: SampleSet) -> np.ndarray:
    """Weighted arithmetic mean: the minimizer of E[D(X, y)] over y."""
    return sample.weights @ sample.points


class BregmanGeometry:
    """Base geometry.  Subclasses provide the generator and its maps.

    All array arguments broadcast over leading axes; the geometry's
    dimension is the size of the trailing axis.

    Public methods check each array argument once with ``check_point``.
    ``grad``, ``_divergence`` and ``from_dual`` do not check: callers that
    have already checked their arrays compute with these directly.
    """

    kind: str = "abstract"

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)

    # -- generator ---------------------------------------------------------

    def potential(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Gradient of the generator (the dual representative)."""
        raise NotImplementedError

    # -- domain ------------------------------------------------------------

    def contains(self, x: np.ndarray, interior: bool = False) -> bool:
        raise NotImplementedError

    def check_point(self, x, interior: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise DomainError(
                f"expected trailing dimension {self.dimension}, got {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise DomainError("point has non-finite coordinates")
        if not self.contains(x, interior=interior):
            where = "interior" if interior else "domain"
            raise DomainError(f"point outside the {where} of {self.kind}")
        return x

    def tangent_project(self, v: np.ndarray) -> np.ndarray:
        """Project a difference vector onto the feasible directions."""
        return v

    # -- divergence and duals ----------------------------------------------

    def divergence(self, x, y) -> np.ndarray:
        x = self.check_point(x)
        y = self.check_point(y, interior=True)
        return self._divergence(x, y)

    def _divergence(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dual(self, x) -> np.ndarray:
        return self.grad(self.check_point(x, interior=True))

    def from_dual(self, s) -> np.ndarray:
        raise NotImplementedError

    # -- identities over points and samples ---------------------------------

    def law_of_cosines_residual(self, x, y, z) -> np.ndarray:
        """D(x,z) - D(x,y) - D(y,z) + <z* - y*, x - y>; zero identically."""
        x = self.check_point(x)
        y = self.check_point(y, interior=True)
        z = self.check_point(z, interior=True)
        corr = np.sum((self.grad(z) - self.grad(y)) * (x - y), axis=-1)
        return (self._divergence(x, z) - self._divergence(x, y)
                - self._divergence(y, z) + corr)

    def dual_mean(self, sample: SampleSet) -> np.ndarray:
        """(E[X*])*: the minimizer of E[D(y, X)] over y."""
        pts = self.check_point(sample.points, interior=True)
        return self.from_dual(sample.weights @ self.grad(pts))

    def forward_decomposition(self, sample: SampleSet, y) -> tuple[float, float]:
        """Split E[D(X, y)] into (variance E[D(X, EX)], bias D(EX, y))."""
        y = self.check_point(y, interior=True)
        pts = self.check_point(sample.points)
        m = mean_minimizer(sample)
        variance = float(sample.weights @ self._divergence(pts, m))
        bias = float(self._divergence(m, y))
        return variance, bias

    def reverse_decomposition(self, y, sample: SampleSet) -> tuple[float, float]:
        """Split E[D(y, X)] into (bias D(y, m*), dual variance E[D(m*, X)])."""
        y = self.check_point(y)
        pts = self.check_point(sample.points, interior=True)
        dm = self.from_dual(sample.weights @ self.grad(pts))
        bias = float(self._divergence(y, dm))
        dual_variance = float(sample.weights @ self._divergence(dm, pts))
        return bias, dual_variance


class SquaredNorm(BregmanGeometry):
    """phi(x) = ||x||^2 on all of R^d.  Self-dual up to the factor 2."""

    kind = "squared-norm"

    def potential(self, x):
        return np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)

    def grad(self, x):
        return 2.0 * np.asarray(x, dtype=float)

    def contains(self, x, interior=False):
        return True

    def _divergence(self, x, y):
        return np.sum((x - y) ** 2, axis=-1)

    def from_dual(self, s):
        return np.asarray(s, dtype=float) / 2.0


class Mahalanobis(BregmanGeometry):
    """phi(x) = x^T M x for symmetric positive-definite M."""

    kind = "mahalanobis"

    def __init__(self, matrix) -> None:
        M = np.asarray(matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("M must be a square matrix")
        if not np.allclose(M, M.T, rtol=1e-10, atol=1e-12):
            raise ValueError("M must be symmetric")
        eigvals = np.linalg.eigvalsh(M)
        if eigvals.min() <= 1e-12 * max(1.0, eigvals.max()):
            raise ValueError("M must have strictly positive eigenvalues")
        super().__init__(M.shape[0])
        self.matrix = M
        self._inv = np.linalg.inv(M)

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,ij,...j->...", x, self.matrix, x)

    def grad(self, x):
        return 2.0 * np.asarray(x, dtype=float) @ self.matrix

    def contains(self, x, interior=False):
        return True

    def _divergence(self, x, y):
        d = x - y
        return np.einsum("...i,ij,...j->...", d, self.matrix, d)

    def from_dual(self, s):
        return np.asarray(s, dtype=float) @ self._inv / 2.0


class NegativeEntropy(BregmanGeometry):
    """phi(x) = sum_i x_i log x_i on the probability simplex.

    The divergence is the KL divergence between simplex points.  The dual
    map uses the representative log(x); constants along the all-ones
    direction are immaterial for divergences and law-of-cosines inner
    products (simplex differences sum to zero) and are fixed by the softmax
    inverse, under which the dual mean is the normalized geometric mean.
    """

    kind = "negative-entropy"

    # first argument of the divergence may touch the simplex boundary;
    # gradients require strictly positive coordinates
    def potential(self, x):
        x = np.asarray(x, dtype=float)
        return np.add.reduce(_xlogy(x, x), axis=-1)

    def grad(self, x):
        return np.log(np.asarray(x, dtype=float))

    def contains(self, x, interior=False):
        ok_sum = np.all(np.abs(np.sum(x, axis=-1) - 1.0) <= 1e-9)
        if interior:
            return bool(ok_sum and np.all(x > 0))
        return bool(ok_sum and np.all(x >= 0))

    def _divergence(self, x, y):
        # points summing to 1 only up to rounding can give KL ~ -1e-17;
        # the divergence is nonnegative, so round those up to zero.
        # y is interior, so x / y is 0 exactly where x is
        return np.maximum(np.add.reduce(_xlogy(x, x / y), axis=-1), 0.0)

    def from_dual(self, s):
        s = np.asarray(s, dtype=float)
        z = np.exp(s - s.max(axis=-1, keepdims=True))
        return z / z.sum(axis=-1, keepdims=True)

    def tangent_project(self, v):
        v = np.asarray(v, dtype=float)
        return v - v.mean(axis=-1, keepdims=True)
