"""Entropy-family losses on the probability simplex.

Implements forward/reverse cross-entropy, forward/reverse KL and Shannon
entropy over K classes, proportional label smoothing, and the batch loss
table the trainer uses.  ``loss_table`` is the one definition of every
training loss in ``LOSS_NAMES``: for ``(n, 2)`` rows it gives each loss's
per-row values and its analytic gradient along the first coordinate, with
the second tied as its complement, in one call, and on a ``(fits, n, 2)``
block each fit's batch gets its lone result.  The composite losses (the
confidence-adaptive CE/RCE switch, the symmetric cross-entropy and the
confidence-regularized loss with hardened self-targets) are reached only
through it.  Their settings are fixed, except for the two a fit supplies:
the adaptive loss's confidence cut ``cut``, which the trainer derives from
each fit's own labels (``confidence_threshold``), and the regularized
loss's weight ``beta``, which follows the step (``aux_beta``).
``loss_values`` and ``loss_grads`` are its two halves (``loss_grads``
computes no loss value) and ``numeric_loss_grads`` is its central-difference
oracle.  ``kl`` is the divergence of ``bregman.NegativeEntropy``.

Probability rows are plain arrays whose trailing axis indexes classes;
:class:`ProbVector` is a checked, clamped single point that every function
here also accepts.  Arrays are assumed to already lie in the clamped
simplex, and loss values broadcast over leading axes.  ``smooth_labels``
is the one smoothing function: it maps ``(..., 2)`` rows to clamped
``(..., 2)`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bregman import NegativeEntropy, clamp_simplex

__all__ = [
    "ProbVector",
    "BinaryOnlyError",
    "ce",
    "rce",
    "kl",
    "rkl",
    "entropy",
    "check_alpha",
    "smooth_labels",
    "confidence",
    "confidence_threshold",
    "harden_threshold",
    "harden",
    "aux_beta",
    "LOSS_NAMES",
    "loss_table",
    "loss_values",
    "loss_grads",
    "numeric_loss_grads",
]

LOSS_NAMES = ("ce", "rce", "kl", "rkl", "cace", "sl", "aux")


class BinaryOnlyError(ValueError):
    """Raised when a binary-only operation receives K != 2 inputs."""


@dataclass(frozen=True)
class ProbVector:
    """Point on the probability simplex, clamped away from the boundary.

    Construction clips coordinates to [1e-12, 1 - 1e-12] and renormalizes,
    so one-hot labels are representable with finite log-probabilities.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.shape[0] < 2:
            raise ValueError("ProbVector needs a 1-D vector with K >= 2 entries")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < -1e-12):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-6:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
        object.__setattr__(self, "probs", clamp_simplex(p))

    @classmethod
    def one_hot(cls, index: int, k: int = 2) -> "ProbVector":
        p = np.zeros(k)
        p[index] = 1.0
        return cls(p)

    @classmethod
    def uniform(cls, k: int = 2) -> "ProbVector":
        return cls(np.full(k, 1.0 / k))

    @property
    def k(self) -> int:
        return self.probs.shape[0]

    def __len__(self) -> int:
        return self.k


def _p(x) -> np.ndarray:
    if isinstance(x, ProbVector):
        return x.probs
    return np.asarray(x, dtype=float)


def _rows(batch) -> np.ndarray:
    """(n, K) array from an array or a sequence of (ProbVector) rows."""
    if not isinstance(batch, np.ndarray):
        batch = [_p(p) for p in batch]
    return np.atleast_2d(np.asarray(batch, dtype=float))


def _pair(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    y, yhat = _p(y), _p(yhat)
    if y.shape[-1] != yhat.shape[-1]:
        raise ValueError(f"length mismatch: {y.shape[-1]} vs {yhat.shape[-1]}")
    return y, yhat



# --- losses ----------------------------------------------------------------


def ce(y, yhat):
    """Cross-entropy -sum_i y_i log(yhat_i)."""
    y, yhat = _pair(y, yhat)
    return -np.sum(y * np.log(yhat), axis=-1)


def rce(y, yhat):
    """Reverse cross-entropy -sum_i yhat_i log(y_i)."""
    y, yhat = _pair(y, yhat)
    return -np.sum(yhat * np.log(y), axis=-1)


def kl(y, yhat):
    """KL divergence sum_i y_i log(y_i / yhat_i), never below 0."""
    y, yhat = _pair(y, yhat)
    return NegativeEntropy(y.shape[-1])._divergence(y, yhat)


def rkl(y, yhat):
    """Reverse KL divergence KL(yhat || y)."""
    return kl(yhat, y)


def entropy(y):
    """Shannon entropy -sum_i y_i log(y_i)."""
    y = _p(y)
    return -np.sum(y * np.log(y), axis=-1)


# --- label smoothing ---------------------------------------------------------


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless the smoothing level ``alpha`` lies in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")


def smooth_labels(y, alpha: float) -> np.ndarray:
    """Shrink binary label rows toward uniform: y_j -> 1/2 + alpha (y_j - 1/2).

    Takes a ``ProbVector`` or a ``(..., 2)`` array and returns the clamped
    rows.  Preserves the argmax for every alpha > 0; alpha = 0 yields the
    uniform rows and alpha = 1 the (clamped) identity.
    """
    check_alpha(alpha)
    y = _p(y)
    if y.shape[-1] != 2:
        raise BinaryOnlyError("label smoothing is defined for K = 2 only")
    return clamp_simplex(0.5 + alpha * (y - 0.5))


# --- composite losses ---------------------------------------------------------


def confidence(y) -> np.ndarray:
    """Binary label confidence |y_1 - 1/2|."""
    y = _p(y)
    if y.shape[-1] != 2:
        raise BinaryOnlyError("confidence is defined for K = 2 only")
    return np.abs(y[..., 0] - 0.5)


def confidence_threshold(pseudo_labels) -> float:
    """The adaptive loss's confidence cut: the 20% quantile of the labels'
    confidence, so about a fifth of them fall below it."""
    return float(np.quantile(confidence(_rows(pseudo_labels)), 0.2))


def harden_threshold(batch_predictions):
    """Confidence cut t such that exactly half the batch scores exceed it.

    The score of a prediction is its maximum class probability; t is the
    (n//2 + 1)-th largest score, so strictly more confident predictions are
    hardened.  Ties at the cut are left soft.  A ``(..., n, 2)`` block gives
    one cut per batch, an array of its leading shape.
    """
    batch = _rows(batch_predictions)
    if batch.size == 0:
        raise ValueError("empty prediction batch")
    scores = np.sort(batch.max(axis=-1), axis=-1)[..., ::-1]
    return scores[..., scores.shape[-1] // 2]


def harden(yhat, threshold) -> np.ndarray:
    """Per row, the one-hot (clamped) argmax of yhat when its score exceeds
    the cut, which broadcasts against the rows' scores, and yhat itself
    otherwise; argmax ties go to the first class."""
    p = _p(yhat)
    hard = clamp_simplex(np.eye(p.shape[-1]))[np.argmax(p, axis=-1)]
    return np.where((p.max(axis=-1) > threshold)[..., None], hard, p)


def aux_beta(step: int, total_steps: int) -> float:
    """The aux weight beta at ``step``: a linear warm-up from 0 to 0.5 over
    the first 20% of the steps."""
    warmup = max(1.0, 0.2 * total_steps)
    return 0.5 * min(1.0, step / warmup)


# --- batch loss table ----------------------------------------------------------
# y and p are (..., n, 2) blocks of rows.  Each gradient is taken along p_1
# with p_2 = 1 - p_1, so the kernels read the first coordinates only.


def _d_ce(y1, p1):
    """Tied derivative of ce(y, p) at first coordinates; linear in y1."""
    return -y1 / p1 + (1.0 - y1) / (1.0 - p1)


def _d_rce(y1, p1):
    """Tied derivative of rce(y, p) at first coordinates; constant in p1."""
    return np.log((1.0 - y1) / y1) * np.ones_like(p1)


def _entry(name: str, y, p, cut, beta: float):
    """``loss_table``'s gradients of a batch, and a function that computes
    its values only when called."""
    y, p = _pair(y, p)
    if y.shape[-1] != 2:
        raise BinaryOnlyError("the loss table is defined for K = 2 only")
    y1, p1 = y[..., 0], p[..., 0]
    if name == "ce":
        return _d_ce(y1, p1), lambda: ce(y, p)
    if name == "rce":
        return _d_rce(y1, p1), lambda: rce(y, p)
    if name == "kl":
        # the entropy of y is constant in p
        return _d_ce(y1, p1), lambda: kl(y, p)
    if name == "rkl":
        # rkl(y, p) = rce(y, p) - entropy(p), and d(-entropy(p)) = -_d_rce(p, p)
        return _d_rce(y1, p1) - _d_rce(p1, p1), lambda: rkl(y, p)
    if name == "cace":
        low = confidence(y) < cut
        return (np.where(low, _d_rce(y1, p1), _d_ce(y1, p1)),
                lambda: np.where(low, rce(y, p), ce(y, p)))
    if name == "sl":
        return _d_rce(y1, p1) + _d_ce(y1, p1), lambda: rce(y, p) + ce(y, p)
    if name == "aux":
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {beta!r}")
        t = harden(p, harden_threshold(p)[..., None])
        return (beta * _d_ce(y1, p1) + (1.0 - beta) * _d_ce(t[..., 0], p1),
                lambda: beta * ce(y, p) + (1.0 - beta) * ce(t, p))
    raise ValueError(f"unknown loss {name!r}")


def loss_table(name: str, y, p, cut=0.0, beta: float = 0.0):
    """Per-row loss values and d(loss)/d(p_1) of a batch, as one pair.

    ``y`` and ``p`` are an ``(n, 2)`` batch or a ``(fits, n, 2)`` block of
    batches.  cace is RCE on rows whose label confidence is below ``cut``
    and CE elsewhere (so CE at the default cut 0); on a block ``cut`` may be
    a ``(fits, 1)`` column, one cut per batch.  sl is the symmetric
    cross-entropy with unit weights, ``RCE + CE``; aux is ``beta * CE(y, p)
    + (1 - beta) * CE(t, p)``, whose target ``t`` is ``p`` hardened at the
    half-batch cut of its own batch of ``p`` and is a constant under
    differentiation.  The other entries read neither ``cut`` nor ``beta``.
    Rows with K != 2 classes raise ``BinaryOnlyError``.
    """
    grads, values = _entry(name, y, p, cut, beta)
    return values(), grads


def loss_values(name: str, y, p, cut: float = 0.0, beta: float = 0.0):
    """Per-row loss values for a batch: the first half of ``loss_table``."""
    return _entry(name, y, p, cut, beta)[1]()


def loss_grads(name: str, y, p, cut: float = 0.0, beta: float = 0.0):
    """Per-row d(loss)/d(p_1) for a batch: the second half of ``loss_table``,
    computed without any loss value."""
    return _entry(name, y, p, cut, beta)[0]


def numeric_loss_grads(
    name: str, y, p, cut: float = 0.0, beta: float = 0.0, step: float = 1e-6
) -> np.ndarray:
    """Central-difference d(loss)/d(p_1) with aux targets frozen.

    CE is linear in its label, so aux with its target t frozen is the ce
    entry against the label ``beta * y + (1 - beta) * t``.
    """
    if name == "aux":
        name, y = "ce", beta * y + (1.0 - beta) * harden(p, harden_threshold(p))

    def shifted(delta: float) -> np.ndarray:
        q1 = p[:, 0] + delta
        return loss_values(name, y, np.stack([q1, 1.0 - q1], axis=-1), cut, beta)

    return (shifted(step) - shifted(-step)) / (2 * step)
