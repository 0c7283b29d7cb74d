"""Desk-scale weak-to-strong training on synthetic Gaussian tasks.

A weak linear-probe teacher is trained on a small ground-truth split, its
soft predictions pseudo-label a larger split, the labels are proportionally
smoothed toward uniform, and a wider random-feature student is trained on
them under a pluggable loss.  Mini-batch gradient descent with a fixed step
size keeps optimizer choice out of loss comparisons; everything is
deterministic given the seeds.

Losses and their analytic per-sample gradients in the tied binary
parameterization come from the batch loss table in :mod:`w2slab.losses`
(``LOSS_NAMES``, ``loss_values``, ``loss_grads``), which also holds their
central-difference oracle ``numeric_loss_grads``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bregman import clamp_simplex
from .losses import (
    LOSS_NAMES,
    CompositeLossConfig,
    aux_beta,
    loss_grads,
    loss_values,
    rce,
    smooth_labels_array,
)

__all__ = [
    "SyntheticTask",
    "TaskData",
    "ProbeConfig",
    "LinearProbeModel",
    "TrainData",
    "TrainReport",
    "TrainingDiverged",
    "LOSS_NAMES",
    "train",
    "w2s_pipeline",
    "gdv",
    "param_distance",
    "alpha_sweep",
    "loss_values",
    "loss_grads",
]


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the offending step index."""

    def __init__(self, step: int, loss: float) -> None:
        super().__init__(f"training diverged at step {step} (loss={loss!r})")
        self.step = step


# --- task -------------------------------------------------------------------


@dataclass(frozen=True)
class TaskData:
    """Materialized splits of one task draw.  Labels are in {-1, +1}."""

    train_x: np.ndarray
    train_y: np.ndarray
    pseudo_x: np.ndarray
    pseudo_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


@dataclass(frozen=True)
class SyntheticTask:
    """Two-class Gaussian mixture with exactly balanced classes.

    Class y in {-1, +1} draws x ~ N(y * m, noise^2 I) for a fixed unit
    direction m scaled by ``separation``, so the optimal accuracy is
    Phi(separation / noise).  The three splits are drawn disjointly from
    the same mixture.

    The defaults put the task in a weak-signal, high-dimensional regime
    (optimal accuracy about 0.79, a 64-sample teacher around 0.63) where
    direction consistency of the training updates decides how much of the
    signal survives; that is the regime where loss choice matters.
    """

    dim: int = 200
    separation: float = 2.4
    noise: float = 3.0
    n_train: int = 64
    n_pseudo: int = 4096
    n_test: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_train", "n_pseudo", "n_test"):
            n = getattr(self, name)
            if n < 10 or n % 2:
                raise ValueError(f"{name} must be an even count of at least 10")
        if self.dim < 1 or self.noise <= 0 or self.separation <= 0:
            raise ValueError("dim, noise, and separation must be positive")

    def sample(self) -> TaskData:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xDA7A]))
        direction = rng.normal(size=self.dim)
        mean = self.separation * direction / np.linalg.norm(direction)

        def split(n: int) -> tuple[np.ndarray, np.ndarray]:
            y = np.repeat([1.0, -1.0], n // 2)
            x = y[:, None] * mean + self.noise * rng.normal(size=(n, self.dim))
            perm = rng.permutation(n)
            return x[perm], y[perm]

        return TaskData(*split(self.n_train), *split(self.n_pseudo), *split(self.n_test))

    def bayes_accuracy(self) -> float:
        return float(0.5 * (1.0 + math.erf(self.separation / self.noise / math.sqrt(2))))


def _sigmoid(u: np.ndarray) -> np.ndarray:
    # exp(-u) overflows to inf for u below about -709, giving exactly 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-u))


def labels_to_soft(y: np.ndarray) -> np.ndarray:
    """Clamped one-hot (p_pos, p_neg) rows from {-1, +1} class labels."""
    pos = (np.asarray(y) > 0).astype(float)
    return clamp_simplex(np.stack([pos, 1.0 - pos], axis=-1))


# --- model -------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeConfig:
    """Linear probe settings: feature map, width, and optimizer knobs."""

    feature: str = "identity"  # or "projection"
    width: int = 0  # number of random features when feature == "projection"
    init_scale: float = 0.0
    learning_rate: float = 0.1
    steps: int = 500
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.feature not in ("identity", "projection"):
            raise ValueError("feature must be 'identity' or 'projection'")
        if self.feature == "projection" and self.width < 1:
            raise ValueError("projection probes need a positive width")
        if self.learning_rate <= 0 or self.steps < 0 or self.batch_size < 1:
            raise ValueError("bad optimizer settings")


class LinearProbeModel:
    """Sigmoid probe over a frozen feature map.

    The teacher reads inputs directly; the student sees a fixed random
    projection to ``width`` features with entry variance 1/dim.  Only the
    weight vector and bias train.
    """

    def __init__(self, dim: int, cfg: ProbeConfig, rng: np.random.Generator) -> None:
        self.cfg = cfg
        if cfg.feature == "projection":
            self.projection = rng.normal(0.0, np.sqrt(1.0 / dim), size=(cfg.width, dim))
            n_features = cfg.width
        else:
            self.projection = None
            n_features = dim
        self.weights = cfg.init_scale * rng.normal(size=n_features)
        self.bias = cfg.init_scale * rng.normal()
        self._theta0 = self.theta.copy()

    def features(self, x: np.ndarray) -> np.ndarray:
        if self.projection is None:
            return np.asarray(x, dtype=float)
        return np.asarray(x, dtype=float) @ self.projection.T

    def predict_pos(self, x: np.ndarray) -> np.ndarray:
        """P(class +1) per row."""
        return _sigmoid(self.features(x) @ self.weights + self.bias)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """(n, 2) clamped probability rows."""
        p = self.predict_pos(x)
        return clamp_simplex(np.stack([p, 1.0 - p], axis=-1))

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean((self.predict_pos(x) > 0.5) == (np.asarray(y) > 0)))

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.weights, [self.bias]])

    @property
    def theta0(self) -> np.ndarray:
        return self._theta0

    def distance_from_init(self) -> float:
        return param_distance(self.theta, self._theta0)


# --- training ------------------------------------------------------------------


@dataclass(frozen=True)
class TrainData:
    """Inputs and soft labels for training plus a held-out evaluation split."""

    x: np.ndarray
    labels: np.ndarray  # (n, 2) soft rows
    test_x: np.ndarray
    test_y: np.ndarray  # {-1, +1}


@dataclass(frozen=True)
class TrainReport:
    """Outcome of one gradient-descent run.

    ``test_rce_risk`` is the reverse cross-entropy against the clamped
    one-hot ground truth on the held-out split, the risk functional whose
    minimizer proportional label smoothing leaves unchanged.
    """

    accuracy: float
    param_distance: float
    grad_norms: tuple[float, ...]  # per epoch
    gdv_trace: tuple[float, ...]  # per epoch, nan when undefined
    loss_name: str
    alpha: float
    final_loss: float
    mean_prediction: float
    test_rce_risk: float

    @property
    def mean_gdv(self) -> float:
        finite = [g for g in self.gdv_trace if not math.isnan(g)]
        return float(np.mean(finite)) if finite else float("nan")


def gdv(gradient_batches) -> float:
    """Average pairwise (1 - cosine similarity) of a gradient collection.

    Zero-norm gradients have no direction and are dropped with a warning;
    at least two usable gradients are required.  The value lies in [0, 2]
    and does not depend on the ordering of the inputs.
    """
    grads = [np.asarray(g, dtype=float).ravel() for g in gradient_batches]
    norms = [np.linalg.norm(g) for g in grads]
    kept = [g / n for g, n in zip(grads, norms) if n > 0.0]
    dropped = len(grads) - len(kept)
    if dropped:
        warnings.warn(f"gdv: dropped {dropped} zero-norm gradient(s)", stacklevel=2)
    m = len(kept)
    if m < 2:
        raise ValueError("gdv needs at least two nonzero gradients")
    unit = np.stack(kept)
    cosines = unit @ unit.T
    total = cosines.sum() - np.trace(cosines)
    return float(1.0 - total / (m * (m - 1)))


def param_distance(theta: np.ndarray, theta0: np.ndarray) -> float:
    """Euclidean distance between two parameter snapshots."""
    theta = np.asarray(theta, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    if theta.shape != theta0.shape:
        raise ValueError(f"shape mismatch: {theta.shape} vs {theta0.shape}")
    return float(np.linalg.norm(theta - theta0))


def _safe_gdv(grads: list[np.ndarray]) -> float:
    kept = [g for g in grads if np.linalg.norm(g) > 0.0]
    if len(kept) < 2:
        return float("nan")
    return gdv(kept)


def train(
    model: LinearProbeModel,
    data: TrainData,
    loss_name: str,
    steps: int | None = None,
    learning_rate: float | None = None,
    batch_size: int | None = None,
    seed: int = 0,
    loss_cfg: CompositeLossConfig | None = None,
    alpha: float = 1.0,
) -> TrainReport:
    """Run mini-batch gradient descent and report the outcome.

    The confidence cut for the adaptive loss is fixed from the full label
    set before the first step.  An epoch is one pass over the data;
    gradient direction variance is computed per epoch from that epoch's
    mini-batch gradients.
    """
    if loss_name not in LOSS_NAMES:
        raise ValueError(f"loss must be one of {LOSS_NAMES}, got {loss_name!r}")
    cfg = model.cfg
    steps = cfg.steps if steps is None else steps
    lr = cfg.learning_rate if learning_rate is None else learning_rate
    batch = cfg.batch_size if batch_size is None else batch_size
    if steps < 0 or lr <= 0 or batch < 1:
        raise ValueError("steps, learning_rate, and batch_size must be positive")
    loss_cfg = loss_cfg or CompositeLossConfig()
    if loss_name == "cace" and loss_cfg.cace_threshold == 0.0:
        # fix the confidence cut from the full label set before training
        loss_cfg = loss_cfg.with_threshold_from(data.labels)

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7247]))
    z = model.features(data.x)
    n = z.shape[0]
    steps_per_epoch = max(1, math.ceil(n / batch))

    grad_norms: list[float] = []
    gdv_trace: list[float] = []
    epoch_grads: list[np.ndarray] = []
    epoch_norms: list[float] = []
    order = rng.permutation(n)
    cursor = 0
    final_loss = float("nan")

    for step in range(steps):
        if cursor + batch > n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor : cursor + batch]
        cursor += batch

        zb, yb = z[idx], data.labels[idx]
        u = zb @ model.weights + model.bias
        # clamp into the simplex interior so saturated sigmoids keep the
        # loss and the tied-coordinate gradients finite
        p1 = np.clip(_sigmoid(u), 1e-12, 1.0 - 1e-12)
        pb = np.stack([p1, 1.0 - p1], axis=-1)
        beta = aux_beta(step, steps, loss_cfg) if loss_name == "aux" else 0.0
        vals = loss_values(loss_name, yb, pb, loss_cfg, beta)
        final_loss = float(vals.mean())
        if not np.isfinite(final_loss):
            raise TrainingDiverged(step, final_loss)
        dldp = loss_grads(loss_name, yb, pb, loss_cfg, beta)
        dldu = dldp * p1 * (1.0 - p1)
        grad_w = zb.T @ dldu / len(idx)
        grad_b = float(dldu.mean())
        model.weights = model.weights - lr * grad_w
        model.bias = model.bias - lr * grad_b

        g = np.concatenate([grad_w, [grad_b]])
        epoch_grads.append(g)
        epoch_norms.append(float(np.linalg.norm(g)))
        if len(epoch_grads) == steps_per_epoch or step == steps - 1:
            grad_norms.append(float(np.mean(epoch_norms)))
            gdv_trace.append(_safe_gdv(epoch_grads))
            epoch_grads, epoch_norms = [], []

    test_truth = labels_to_soft(data.test_y)
    test_rce = float(np.mean(rce(test_truth, model.predict_proba(data.test_x))))
    return TrainReport(
        accuracy=model.accuracy(data.test_x, data.test_y),
        param_distance=model.distance_from_init(),
        grad_norms=tuple(grad_norms),
        gdv_trace=tuple(gdv_trace),
        loss_name=loss_name,
        alpha=alpha,
        final_loss=final_loss,
        mean_prediction=float(model.predict_pos(data.x).mean()),
        test_rce_risk=test_rce,
    )


# --- pipeline -------------------------------------------------------------------


DEFAULT_TEACHER = ProbeConfig(feature="identity")
DEFAULT_STUDENT = ProbeConfig(feature="projection", width=1600)


def default_student_config(task: SyntheticTask) -> ProbeConfig:
    """Student default: 8x the teacher's input dimension in random features."""
    return replace(DEFAULT_STUDENT, width=8 * task.dim)


def w2s_pipeline(
    task: SyntheticTask,
    teacher_cfg: ProbeConfig | None = None,
    student_cfg: ProbeConfig | None = None,
    loss_name: str = "ce",
    alpha: float = 1.0,
    seed: int = 0,
    loss_cfg: CompositeLossConfig | None = None,
) -> tuple[TrainReport, TrainReport]:
    """Teacher on ground truth, smoothed pseudo-labels, student under ``loss_name``."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    teacher_cfg = teacher_cfg or DEFAULT_TEACHER
    student_cfg = student_cfg or default_student_config(task)
    data = task.sample()
    seq = np.random.SeedSequence([task.seed, seed, 0x5EED])
    t_seed, s_seed = [int(s.generate_state(1)[0]) for s in seq.spawn(2)]

    teacher = LinearProbeModel(task.dim, teacher_cfg, np.random.default_rng(t_seed))
    teacher_report = train(
        teacher,
        TrainData(data.train_x, labels_to_soft(data.train_y), data.test_x, data.test_y),
        "ce",
        seed=t_seed,
        alpha=alpha,
    )

    pseudo = teacher.predict_proba(data.pseudo_x)
    smoothed = smooth_labels_array(pseudo, alpha)
    student = LinearProbeModel(task.dim, student_cfg, np.random.default_rng(s_seed))
    student_report = train(
        student,
        TrainData(data.pseudo_x, smoothed, data.test_x, data.test_y),
        loss_name,
        seed=s_seed,
        loss_cfg=loss_cfg,
        alpha=alpha,
    )
    return teacher_report, student_report


def summarize_sweep(rows: list[dict]) -> list[dict]:
    """Mean and standard deviation of accuracy and parameter distance per
    (loss, alpha) cell of a sweep."""
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        cells.setdefault((row["loss"], row["alpha"]), []).append(row)
    summary = []
    for (loss_name, alpha), group in sorted(cells.items()):
        accs = np.array([r["student_acc"] for r in group])
        dists = np.array([r["param_distance"] for r in group])
        summary.append({
            "loss": loss_name,
            "alpha": alpha,
            "repeats": len(group),
            "student_acc_mean": float(accs.mean()),
            "student_acc_std": float(accs.std(ddof=1)) if len(group) > 1 else 0.0,
            "param_distance_mean": float(dists.mean()),
            "param_distance_std": float(dists.std(ddof=1)) if len(group) > 1 else 0.0,
        })
    return summary


def alpha_sweep(
    task: SyntheticTask,
    losses: list[str],
    alphas: list[float],
    repeats: int,
    teacher_cfg: ProbeConfig | None = None,
    student_cfg: ProbeConfig | None = None,
    loss_cfg: CompositeLossConfig | None = None,
) -> list[dict]:
    """Cross product of losses and smoothing levels, repeated with fresh seeds.

    The task redraws per repeat (shared across cells of that repeat, so
    loss comparisons are paired); one row per (loss, alpha, repeat).
    """
    if not alphas:
        raise ValueError("alphas must be nonempty")
    if not losses:
        raise ValueError("losses must be nonempty")
    rows: list[dict] = []
    for repeat in range(repeats):
        repeat_task = replace(task, seed=int(
            np.random.SeedSequence([task.seed, repeat]).generate_state(1)[0]
        ))
        for loss_name in losses:
            for alpha in alphas:
                t_rep, s_rep = w2s_pipeline(
                    repeat_task,
                    teacher_cfg,
                    student_cfg,
                    loss_name=loss_name,
                    alpha=alpha,
                    seed=repeat,
                    loss_cfg=loss_cfg,
                )
                rows.append(
                    {
                        "loss": loss_name,
                        "alpha": alpha,
                        "repeat": repeat,
                        "teacher_acc": t_rep.accuracy,
                        "student_acc": s_rep.accuracy,
                        "param_distance": s_rep.param_distance,
                        "mean_gdv": s_rep.mean_gdv,
                    }
                )
    return rows
