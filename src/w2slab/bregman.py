"""Bregman divergence geometries with dual coordinates.

Two generators are implemented: the squared Euclidean norm and negative
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

A ``SampleSet`` may also be a block of samples padded to one size by
:func:`stack_samples`; the minimizers and decompositions then return one
value per sample.  Every weighted sum adds its terms in index order
(``_sum``), and padding (``_pad``) only appends exact zeros, so a sample's
values in a block are bit for bit those of its lone call.  The scenarios of
``harness`` share ``_sum``, ``_pad`` and the weight check ``_check_weights``.

``dual_mean`` is the one dual mean, and ``NegativeEntropy``'s
``reverse_decomposition`` the split-ensemble estimator.  Its generator and
its divergence, the one KL (``losses.kl``), share one numpy kernel,
``_xlogy``: x log y, taken as 0 where x = 0, as ``scipy.special.xlogy`` does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SIMPLEX_EPS",
    "DomainError",
    "clamp_simplex",
    "SampleSet",
    "stack_samples",
    "mean_minimizer",
    "BregmanGeometry",
    "SquaredNorm",
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


def _sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum over one axis, adding its entries in index order.

    Padding appends exact zeros, which leave a running sum as it is, so a
    sample's or a scenario's sums do not depend on its block-mates;
    ``np.sum``, ``einsum`` and ``@`` may group or fuse the same terms
    differently at another shape.
    """
    order = list(range(a.ndim))
    order.insert(0, order.pop(axis))  # np.moveaxis, without its overhead
    return functools.reduce(np.add, a.transpose(order))


def _scalar(value):
    """A one-sample or one-scenario measurement as a float; a block's stays an array."""
    return float(value) if np.ndim(value) == 0 else value


def _pad(tables, fill=0.0) -> np.ndarray:
    """Same-rank tables stacked into one block padded up to the largest
    shape with ``fill``, which broadcasts against a table's trailing axes."""
    shape = np.max([np.shape(t) for t in tables], axis=0)
    block = np.empty((len(tables), *shape))
    block[...] = fill
    for row, table in enumerate(tables):
        block[(row, *map(slice, np.shape(table)))] = table
    return block


def _check_weights(name: str, table: np.ndarray, axes: int, item: str) -> None:
    """Raise ValueError unless ``table`` is nonnegative and sums to 1 within
    1e-12 over its last ``axes`` axes; a block's error names its first
    failing ``item`` (sample or scenario)."""
    sums = rows = table.reshape((-1,) + table.shape[table.ndim - axes:])
    for _ in range(axes):
        sums = _sum(sums, -1)
    negative = (rows < 0).reshape(len(rows), -1).any(axis=-1)
    bad = negative | ~(abs(sums - 1.0) <= 1e-12)  # NaN fails too
    if bad.any():
        row = int(np.argmax(bad))
        where = f" of block {item} {row}" if table.ndim > axes else ""
        if negative[row]:
            raise ValueError(f"{name}{where} must be nonnegative")
        raise ValueError(
            f"{name}{where} must sum to 1 within 1e-12, got {float(sums[row])!r}")


@dataclass(frozen=True)
class SampleSet:
    """Finite weighted collection of points standing in for a random vector.

    ``points`` is ``(n, K)`` for one sample, or ``(b, n, K)`` for a block
    of b samples (see :func:`stack_samples`), with ``weights`` ``([b,] n)``;
    no weights means equal ones.  Each sample's weights must be nonnegative
    and sum to one within 1e-12, so every expectation over it is exact,
    with no sampling error.  In a block, a failed check names its sample.
    """

    points: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim > 3:
            raise ValueError(
                f"points have {pts.ndim} axes, expected 2 (one sample) or 3 (a block)")
        if pts.size == 0:
            raise ValueError("SampleSet requires at least one point")
        if self.weights is None:
            w = np.full(pts.shape[:-1], 1.0 / pts.shape[-2])
        else:
            w = np.asarray(self.weights, dtype=float)
        if w.shape != pts.shape[:-1]:
            raise ValueError("weights must be one per point")
        _check_weights("weights", w, 1, "sample")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)


def stack_samples(samples, geometry: BregmanGeometry) -> SampleSet:
    """One block of same-dimension samples, padded to the largest size.

    ``samples`` holds ``(points, weights)`` pairs, checked once as a block.
    A padded point has zero weight and sits at the domain point of dual
    coordinate zero: the simplex centre under negative entropy, the origin
    under the squared norm.  It enters every weighted sum as an exact zero
    after the sample's own terms, so each sample of the block measures
    what it measures alone.
    """
    k = geometry.dimension
    pairs = [(np.asarray(p, dtype=float), np.asarray(w, dtype=float)) for p, w in samples]
    if not pairs or any(p.ndim != 2 or p.shape[-1] != k or w.shape != p.shape[:-1]
                        for p, w in pairs):
        raise ValueError(f"stack_samples takes one or more (points, weights) pairs of "
                         f"single samples of dimension {k}")
    points, weights = zip(*pairs)
    return SampleSet(_pad(points, geometry.from_dual(np.zeros(k))), _pad(weights))


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


def _weighted_mean(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_i weights[..., i] values[..., i, :], added in index order."""
    return _sum(weights[..., None] * values, -2)


def mean_minimizer(sample: SampleSet) -> np.ndarray:
    """Weighted arithmetic mean: the minimizer of E[D(X, y)] over y.

    ``(K,)`` for one sample, ``(b, K)`` for a block.
    """
    return _weighted_mean(sample.weights, sample.points)


class BregmanGeometry:
    """Base geometry.  Subclasses provide the generator and its maps.

    All array arguments broadcast over leading axes; the geometry's
    dimension is the size of the trailing axis.

    Public methods check each array argument once with ``check_point``.
    ``grad``, ``_divergence`` and ``from_dual`` do not check: callers that
    have already checked their arrays compute with these directly.

    ``dual_mean`` and the decompositions take one :class:`SampleSet` or a
    block of them.  A block's target ``y`` is ``(b, K)``, one per sample,
    and each result holds one value per sample; a lone sample gives floats.
    A block is checked once, and a point outside the domain is reported
    with the sample it lies in.
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

    def _check_rows(self, x, block: bool, interior: bool = False) -> np.ndarray:
        """``check_point`` on a block's points or targets at once; on a
        failure each sample is checked alone, and the error names the
        first one that fails."""
        try:
            return self.check_point(x, interior=interior)
        except DomainError as err:
            if not block:
                raise
            for row, part in enumerate(np.asarray(x, dtype=float)):
                try:
                    self.check_point(part, interior=interior)
                except DomainError as row_err:
                    raise DomainError(f"block sample {row}: {row_err}") from err
            raise

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
        """(E[X*])*: the minimizer of E[D(y, X)] over y; ``([b,] K)``."""
        pts = self._check_rows(sample.points, sample.points.ndim == 3, interior=True)
        return self.from_dual(_weighted_mean(sample.weights, self.grad(pts)))

    def forward_decomposition(self, sample: SampleSet, y) -> tuple:
        """Split E[D(X, y)] into (variance E[D(X, EX)], bias D(EX, y))."""
        block = sample.points.ndim == 3
        y = self._check_rows(y, block and np.ndim(y) == 2, interior=True)
        pts = self._check_rows(sample.points, block)
        m = mean_minimizer(sample)
        variance = _sum(sample.weights * self._divergence(pts, m[..., None, :]), -1)
        return _scalar(variance), _scalar(self._divergence(m, y))

    def reverse_decomposition(self, y, sample: SampleSet) -> tuple:
        """Split E[D(y, X)] into (bias D(y, m*), dual variance E[D(m*, X)])."""
        block = sample.points.ndim == 3
        y = self._check_rows(y, block and np.ndim(y) == 2)
        pts = self._check_rows(sample.points, block, interior=True)
        dm = self.from_dual(_weighted_mean(sample.weights, self.grad(pts)))
        dual_variance = _sum(sample.weights * self._divergence(dm[..., None, :], pts), -1)
        return _scalar(self._divergence(y, dm)), _scalar(dual_variance)


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
