"""Entropy-family losses on the probability simplex.

Implements forward/reverse cross-entropy, forward/reverse KL, Shannon
entropy, their analytic binary gradients in the tied-coordinate
parameterization (the second coordinate moves as 1 - yhat_1), proportional
label smoothing, and the composite training losses: the confidence-adaptive
CE/RCE switch, the weighted symmetric cross-entropy, and the
confidence-regularized loss with hardened self-targets.  ``loss_values`` and
``loss_grads`` are the batch loss table the trainer uses, over ``(n, 2)``
rows; ``numeric_loss_grads`` is its central-difference oracle.

All loss functions accept :class:`ProbVector` instances or plain arrays
whose trailing axis indexes classes; arrays are assumed to already lie in
the clamped simplex.  Loss values broadcast over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bregman import clamp_simplex

__all__ = [
    "ProbVector",
    "BinaryOnlyError",
    "CompositeLossConfig",
    "ce",
    "rce",
    "kl",
    "rkl",
    "entropy",
    "grad_ce",
    "grad_rce",
    "grad_kl",
    "grad_rkl",
    "smooth_labels",
    "confidence",
    "confidence_threshold",
    "cace",
    "sl",
    "harden_threshold",
    "harden",
    "aux",
    "aux_beta",
    "rce_ordering_gap",
    "LOSS_NAMES",
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


def _binary_pair(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    y, yhat = _pair(y, yhat)
    if y.shape[-1] != 2:
        raise BinaryOnlyError("analytic gradients are defined for K = 2 only")
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
    """KL divergence sum_i y_i log(y_i / yhat_i)."""
    y, yhat = _pair(y, yhat)
    return np.sum(y * (np.log(y) - np.log(yhat)), axis=-1)


def rkl(y, yhat):
    """Reverse KL divergence KL(yhat || y)."""
    return kl(yhat, y)


def entropy(y):
    """Shannon entropy -sum_i y_i log(y_i)."""
    y = _p(y)
    return -np.sum(y * np.log(y), axis=-1)


# --- analytic binary gradients ----------------------------------------------
# Derivatives with respect to yhat_j with the other coordinate tied as
# 1 - yhat_j.  Returned per coordinate, so the j = 0 entry is the usual
# derivative along the first coordinate.


def grad_ce(y, yhat):
    y, yhat = _binary_pair(y, yhat)
    return -y / yhat + (1.0 - y) / (1.0 - yhat)


def grad_rce(y, yhat):
    y, yhat = _binary_pair(y, yhat)
    return np.log((1.0 - y) / y) * np.ones_like(yhat)


def grad_kl(y, yhat):
    # entropy of y is constant in yhat, so the KL gradient equals the CE one
    return grad_ce(y, yhat)


def grad_rkl(y, yhat):
    y, yhat = _binary_pair(y, yhat)
    return np.log((1.0 - y) / y) - np.log((1.0 - yhat) / yhat)


# --- label smoothing ---------------------------------------------------------


def smooth_labels(y, alpha: float) -> ProbVector:
    """Shrink a binary label toward uniform: y_j -> 1/2 + alpha (y_j - 1/2).

    Preserves the argmax for every alpha > 0; alpha = 0 yields the uniform
    vector and alpha = 1 the identity.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    y = _p(y)
    if y.shape[-1] != 2:
        raise BinaryOnlyError("label smoothing is defined for K = 2 only")
    return ProbVector(0.5 + alpha * (y - 0.5))


def smooth_labels_array(y: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized smoothing for (n, 2) label arrays."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    y = np.asarray(y, dtype=float)
    return clamp_simplex(0.5 + alpha * (y - 0.5))


# --- composite losses ---------------------------------------------------------


@dataclass(frozen=True)
class CompositeLossConfig:
    """Knobs for the composite losses.

    ``cace_threshold`` is the confidence cut c below which the adaptive loss
    switches to reverse cross-entropy; it is derived once from the full
    pseudo-label set at the ``cace_quantile_pct`` quantile, not per batch.
    ``sl_weights`` are the (reverse, forward) weights of the symmetric loss.
    The warm-up fraction schedules the hardening weight beta linearly from 0
    to ``aux_beta_max`` over that share of training.
    """

    cace_threshold: float = 0.0
    cace_quantile_pct: int = 20
    sl_weights: tuple[float, float] = (1.0, 1.0)
    aux_beta_max: float = 0.5
    aux_warmup_fraction: float = 0.2
    aux_hardening: str = "half-batch"

    def __post_init__(self) -> None:
        l1, l2 = self.sl_weights
        if l1 < 0 or l2 < 0 or l1 + l2 <= 0:
            raise ValueError("sl_weights must be nonnegative with a positive sum")
        if not 0.0 <= self.aux_beta_max <= 1.0:
            raise ValueError("aux_beta_max must lie in [0, 1]")
        if not 0.0 < self.aux_warmup_fraction <= 1.0:
            raise ValueError("aux_warmup_fraction must lie in (0, 1]")
        if self.cace_quantile_pct not in (5, 10, 20, 30):
            raise ValueError("cace_quantile_pct must be one of {5, 10, 20, 30}")
        if self.aux_hardening != "half-batch":
            raise ValueError("only the half-batch hardening rule is implemented")
        if self.cace_threshold < 0:
            raise ValueError("cace_threshold must be nonnegative")

    def with_threshold_from(self, pseudo_labels) -> "CompositeLossConfig":
        """Return a copy with c set from the pseudo-label confidence quantile."""
        c = confidence_threshold(pseudo_labels, self.cace_quantile_pct)
        return replace(self, cace_threshold=c)


def confidence(y) -> np.ndarray:
    """Binary label confidence |y_1 - 1/2|."""
    y = _p(y)
    if y.shape[-1] != 2:
        raise BinaryOnlyError("confidence is defined for K = 2 only")
    return np.abs(y[..., 0] - 0.5)


def confidence_threshold(pseudo_labels, quantile_pct: int) -> float:
    """Confidence cut such that ~quantile_pct percent of labels fall below it."""
    return float(np.quantile(confidence(_rows(pseudo_labels)), quantile_pct / 100.0))


def cace(y, yhat, cfg: CompositeLossConfig):
    """Confidence-adaptive loss: RCE below the confidence cut, CE above."""
    return np.where(
        confidence(y) < cfg.cace_threshold, rce(y, yhat), ce(y, yhat)
    )[()]


def sl(y, yhat, cfg: CompositeLossConfig):
    """Symmetric loss lambda_1 * RCE + lambda_2 * CE."""
    l1, l2 = cfg.sl_weights
    return l1 * rce(y, yhat) + l2 * ce(y, yhat)


def harden_threshold(batch_predictions) -> float:
    """Confidence cut t such that exactly half the batch scores exceed it.

    The score of a prediction is its maximum class probability; t is the
    (n//2 + 1)-th largest score, so strictly more confident predictions are
    hardened.  Ties at the cut are left soft.
    """
    batch = _rows(batch_predictions)
    if batch.size == 0:
        raise ValueError("empty prediction batch")
    scores = np.sort(batch.max(axis=-1))[::-1]
    return float(scores[len(scores) // 2])


def harden(yhat, threshold: float) -> np.ndarray:
    """Per row, the one-hot (clamped) argmax of yhat when its score exceeds
    the cut, and yhat itself otherwise; argmax ties go to the first class."""
    p = _p(yhat)
    hard = clamp_simplex(np.eye(p.shape[-1]))[np.argmax(p, axis=-1)]
    return np.where((p.max(axis=-1) > threshold)[..., None], hard, p)


def aux(y_weak, yhat, beta: float, batch_predictions):
    """Confidence-regularized loss with a hardened self-target.

    beta * CE(y_weak, yhat) + (1 - beta) * CE(target, yhat) where the target
    is the clamped one-hot argmax of yhat whenever yhat clears the
    half-batch hardening cut, and yhat itself otherwise.  The target is
    treated as a constant when differentiating.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta!r}")
    t = harden_threshold(batch_predictions)
    target = harden(yhat, t)
    return beta * ce(y_weak, yhat) + (1.0 - beta) * ce(target, yhat)


def aux_beta(step: int, total_steps: int, cfg: CompositeLossConfig) -> float:
    """Linear warm-up of beta from 0 to beta_max over the warm-up window."""
    warmup = max(1.0, cfg.aux_warmup_fraction * total_steps)
    return cfg.aux_beta_max * min(1.0, step / warmup)


def rce_ordering_gap(f_risks, fstar_risks) -> tuple[float, float, float]:
    """Ordering triple for smoothed-risk minimizers.

    Inputs are (smoothed RCE risk, plain RCE risk) for a candidate f and
    for the smoothed-risk minimizer f*.  Returns (0, smoothed gap, plain
    gap); the smoothed gap is sandwiched between the other two.
    """
    f_alpha, f_plain = f_risks
    fstar_alpha, fstar_plain = fstar_risks
    return 0.0, float(f_alpha - fstar_alpha), float(f_plain - fstar_plain)


# --- batch loss table ----------------------------------------------------------
# y and p are (n, 2) rows; gradients are taken along the first coordinate
# with the second tied as its complement.


def loss_values(name: str, y, p, cfg: CompositeLossConfig, beta: float = 0.0):
    """Per-row loss values for a batch; ``p`` doubles as the aux batch."""
    if name == "ce":
        return ce(y, p)
    if name == "rce":
        return rce(y, p)
    if name == "kl":
        return kl(y, p)
    if name == "rkl":
        return rkl(y, p)
    if name == "cace":
        return cace(y, p, cfg)
    if name == "sl":
        return sl(y, p, cfg)
    if name == "aux":
        return aux(y, p, beta, p)
    raise ValueError(f"unknown loss {name!r}")


def loss_grads(name: str, y, p, cfg: CompositeLossConfig, beta: float = 0.0):
    """Per-row d(loss)/d(p_1) for a batch in the tied parameterization."""
    if name in ("ce", "kl"):
        return grad_ce(y, p)[:, 0]
    if name == "rce":
        return grad_rce(y, p)[:, 0]
    if name == "rkl":
        return grad_rkl(y, p)[:, 0]
    if name == "cace":
        low = confidence(y) < cfg.cace_threshold
        return np.where(low, grad_rce(y, p)[:, 0], grad_ce(y, p)[:, 0])
    if name == "sl":
        l1, l2 = cfg.sl_weights
        return l1 * grad_rce(y, p)[:, 0] + l2 * grad_ce(y, p)[:, 0]
    if name == "aux":
        # hardened targets are constants under differentiation
        target = harden(p, harden_threshold(p))
        return beta * grad_ce(y, p)[:, 0] + (1 - beta) * grad_ce(target, p)[:, 0]
    raise ValueError(f"unknown loss {name!r}")


def numeric_loss_grads(
    name: str, y, p, cfg: CompositeLossConfig, beta: float = 0.0, step: float = 1e-6
) -> np.ndarray:
    """Central-difference d(loss)/d(p_1) with aux targets frozen."""
    target = harden(p, harden_threshold(p))

    def shifted(delta: float) -> np.ndarray:
        q1 = p[:, 0] + delta
        q = np.stack([q1, 1.0 - q1], axis=-1)
        if name == "aux":
            return beta * ce(y, q) + (1 - beta) * ce(target, q)
        return loss_values(name, y, q, cfg, beta)

    return (shifted(step) - shifted(-step)) / (2 * step)
