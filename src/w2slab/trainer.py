"""The synthetic task, the linear probe and its training.

``SyntheticTask`` is a two-class Gaussian mixture whose train, pseudo and
test splits a weak-to-strong experiment draws.  ``LinearProbeModel`` is a
sigmoid probe over the raw inputs (a weak teacher) or over a fixed random
projection (a wider student).  Training is mini-batch gradient descent with
a fixed step size, which keeps optimizer choice out of loss comparisons;
everything is deterministic given the seeds.  The experiments that use
them, ``classify``'s label-smoothing sweep and ``bias-variance``'s split
ensembles, are commands in :mod:`w2slab.cli`.

Losses and their analytic per-sample gradients in the tied binary
parameterization come from the batch loss table in :mod:`w2slab.losses`
(``LOSS_NAMES`` and its two faces ``loss_grads`` and ``loss_values``);
``tests/test_losses.py`` holds their central-difference oracle.  A fit is
a ``(rows, labels, loss_name, seed)`` tuple; the step loop derives the two
settings a fit supplies to the table, the adaptive loss's confidence cut
from the fit's labels and the aux weight from the step.  ``train_fits``
trains a list of models in place, one fit each, on rows of one input
array, every row when ``rows`` is None; ``train`` is its one-fit case.
``fit_probes`` builds the untrained probes of a fit list, one per seed,
and trains a copy for each fit; both trained commands build their probes
through it.  Training returns nothing: the caller reads what it needs off
the trained models.  The step loop gathers every fit's batch in one call,
forms each product as one stacked ``np.matmul`` over the fits, whose
slices are the products a lone fit makes, and makes one ``loss_grads``
call per loss name (loss values are computed only to report
``TrainingDiverged``), so its count of numpy calls does not grow with the
number of fits and its arithmetic is a lone fit's.
``SyntheticTask.splits`` draws a task's splits lazily, one at a time.

Every probe trains in input space.  A projection probe's features
``z = x P^T`` are linear in ``x``, so its logit ``z w + b`` is ``x v + b``
with ``v = P^T w``, and a gradient step ``w -= lr P g`` on the weights, with
``g = x_b^T dl/du / B`` the input-space gradient of a batch, is the step
``v -= lr M g`` with ``M = P^T P``.  The step loop keeps ``v`` and forms
``M`` once per fit, or once for fits that share a projection, never an
``n x width`` feature matrix; the weights are ``w0 - lr P sum(g)`` at the
end.  An identity probe has ``P = I``: ``v`` is ``w`` and ``M g`` is ``g``
itself.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bregman import SIMPLEX_EPS, clamp_simplex
from .losses import (
    LOSS_NAMES,
    aux_beta,
    confidence_threshold,
    loss_grads,
    loss_values,
)

__all__ = [
    "SyntheticTask",
    "TaskData",
    "ProbeConfig",
    "LinearProbeModel",
    "TrainData",
    "TrainingDiverged",
    "LOSS_NAMES",
    "train",
    "train_fits",
    "fit_probes",
    "gdv",
    "loss_values",
    "loss_grads",
]


class TrainingDiverged(RuntimeError):
    """A step's gradient became non-finite; carries the step index and the
    step's first non-finite mean loss (NaN if none)."""

    def __init__(self, step: int, loss: float) -> None:
        super().__init__(f"training diverged at step {step} (loss={loss!r})")
        self.step = step
        self.loss = loss


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
        if self.dim < 1 or not 0 < self.noise < np.inf or not 0 < self.separation < np.inf:
            raise ValueError("dim, noise, and separation must be positive and finite")

    def splits(self):
        """Yield ``sample``'s train, pseudo and test splits bit for bit, as
        ``(x, y)`` pairs, each drawn only when asked for; between yields
        the generator holds no split."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xDA7A]))
        direction = rng.normal(size=self.dim)
        mean = self.separation * direction / np.linalg.norm(direction)
        for n in (self.n_train, self.n_pseudo, self.n_test):
            yield _draw_split(rng, mean, self.noise, n)

    def sample(self) -> TaskData:
        train, pseudo, test = self.splits()
        return TaskData(*train, *pseudo, *test)

    def bayes_accuracy(self) -> float:
        return float(0.5 * (1.0 + math.erf(self.separation / self.noise / math.sqrt(2))))


def _draw_split(rng, mean, noise, n):
    """``n`` shuffled balanced mixture rows around ``mean``, with labels."""
    y = np.repeat([1.0, -1.0], n // 2)
    x = y[:, None] * mean + noise * rng.normal(size=(n, len(mean)))
    perm = rng.permutation(n)
    return x[perm], y[perm]


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
        if (not 0 < self.learning_rate < np.inf or not np.isfinite(self.init_scale)
                or self.steps < 0 or self.batch_size < 1):
            raise ValueError("bad optimizer settings")


class LinearProbeModel:
    """Sigmoid probe over a frozen feature map.

    The teacher reads inputs directly; the student sees a fixed random
    projection to ``width`` features with entry variance 1/dim.  Only the
    weight vector and bias train; predictions go through ``input_weights``.
    """

    def __init__(self, dim: int, cfg: ProbeConfig, rng: np.random.Generator) -> None:
        self.cfg = cfg
        self.dim = dim
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

    @property
    def input_weights(self) -> np.ndarray:
        """``v = P^T w``: the weights of the probe as a linear model of its
        inputs, ``w`` itself for an identity probe."""
        if self.projection is None:
            return self.weights
        return self.projection.T @ self.weights

    def predict_pos(self, x: np.ndarray) -> np.ndarray:
        """P(class +1) per row, through ``input_weights``."""
        return _sigmoid(np.asarray(x, dtype=float) @ self.input_weights + self.bias)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """(n, 2) clamped probability rows."""
        p = self.predict_pos(x)
        return clamp_simplex(np.stack([p, 1.0 - p], axis=-1))

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean((self.predict_pos(x) > 0.5) == (np.asarray(y) > 0)))

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.weights, [self.bias]])

    def distance_from_init(self) -> float:
        """Euclidean distance of ``theta`` from its value at construction."""
        return float(np.linalg.norm(self.theta - self._theta0))


# --- training ------------------------------------------------------------------


@dataclass(frozen=True)
class TrainData:
    """Training inputs and their soft labels."""

    x: np.ndarray
    labels: np.ndarray  # (n, 2) soft rows


def gdv(gradient_batches) -> float:
    """Average pairwise (1 - cosine similarity) of a gradient collection.

    Zero-norm gradients have no direction and are dropped with a warning;
    at least two usable gradients are required.  The value lies in [0, 2]
    and does not depend on the ordering of the inputs.
    """
    grads = [np.asarray(g, dtype=float).ravel() for g in gradient_batches]
    units = np.array([g / norm for g in grads if (norm := math.sqrt(g @ g)) > 0.0])
    dropped = len(grads) - len(units)
    if dropped:
        warnings.warn(f"gdv: dropped {dropped} zero-norm gradient(s)", stacklevel=2)
    m = len(units)
    if m < 2:
        raise ValueError("gdv needs at least two nonzero gradients")
    cos = units @ units.T
    # the mean of 1 - cos over the m (m - 1) ordered pairs of distinct gradients
    return float(1.0 - (cos.sum() - np.trace(cos)) / (m * (m - 1)))


def train(
    model: LinearProbeModel,
    data: TrainData,
    loss_name: str,
    seed: int = 0,
) -> None:
    """Run mini-batch gradient descent on ``model`` in place.

    Steps, learning rate and batch size are the probe's ``ProbeConfig``
    settings, validated when that config was built; a batch never holds
    more rows than ``data.x``.  Each pass over the data draws a batch order
    from ``seed`` and takes ``n // batch_size`` batches (at least one), so
    a last partial batch is dropped; an epoch is one such pass.  The
    confidence cut for the adaptive loss is fixed from the full label set
    before the first step.

    The one-fit case of ``train_fits``.
    """
    train_fits([model], data.x, [(None, data.labels, loss_name, seed)])


def train_fits(models, x, fits) -> None:
    """Train each ``models[j]`` in place under ``fits[j]``, in lockstep.

    A fit is a ``(rows, labels, loss_name, seed)`` tuple: ``rows`` are its
    training inputs' row indices into ``x``, one per ``(n, 2)`` soft label
    row, or None for every row of ``x``; ``loss_name`` is a ``LOSS_NAMES``
    entry, and ``seed`` draws the fit's batch order.  The fits are
    independent: each model ends bit for bit as ``train(models[j],
    TrainData(x[rows], labels), loss_name, seed=seed)`` leaves it, yet each
    step gathers the batches of all fits from ``x`` at once.

    ``x`` may be any array-like of floats.  Before any step it raises
    ``ValueError`` unless there is one fit per model and at least one,
    either every fit gives rows or none does, every row index lies in
    ``[0, len(x))``, every fit has ``n >= 1`` rows for the same ``n``, the
    models share one ``ProbeConfig`` and input dimension ``d``, and ``x``
    holds ``d``-column rows.
    """
    x = np.asanyarray(x, dtype=float)
    fits = list(fits)
    if not fits or len(models) != len(fits):
        raise ValueError(f"lockstep training needs one fit per model and at least one, "
                         f"got {len(models)} models and {len(fits)} fits")
    if len({fit[0] is None for fit in fits}) > 1:
        raise ValueError("fits must all give rows or all give None for every row of x")
    rows, labels = [], []
    for j, (fit_rows, fit_labels, loss_name, _) in enumerate(fits):
        if loss_name not in LOSS_NAMES:
            raise ValueError(f"loss must be one of {LOSS_NAMES}, got {loss_name!r}")
        labels.append(np.asarray(fit_labels, dtype=float))
        if labels[j].ndim != 2 or labels[j].shape[1] != 2:
            raise ValueError(f"labels must be (n, 2) rows, got shape {labels[j].shape}")
        if fit_rows is not None:
            rows.append(np.asarray(fit_rows))
            # a negative index would wrap around to a row from the end of x
            if (rows[j].ndim != 1 or rows[j].dtype.kind not in "iu"
                    or len(rows[j]) != len(labels[j])
                    or (rows[j].size and not 0 <= rows[j].min() <= rows[j].max() < len(x))):
                raise ValueError(f"fit {j} needs one row index in [0, {len(x)}) per label row")
    cfg, d = models[0].cfg, models[0].dim
    n = len(rows[0]) if rows else len(x)
    if any(m.cfg != cfg or m.dim != d for m in models) or any(len(y) != n for y in labels):
        raise ValueError("fits trained in lockstep must share one ProbeConfig, "
                         "input dimension and row count")
    if n == 0:
        raise ValueError("lockstep training needs at least one training row")
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"inputs must be rows of {d} columns, the models' input "
                         f"dimension, got an array of shape {x.shape}")
    _descend(models, x, rows or None, [fit[2] for fit in fits], labels,
             [fit[3] for fit in fits])


def fit_probes(cfg: ProbeConfig, dim: int, x, fits) -> list[LinearProbeModel]:
    """Build and train one probe per fit of ``train_fits(models, x, fits)``.

    Each distinct fit seed draws one untrained ``LinearProbeModel`` over
    ``dim`` inputs from ``default_rng(seed)``, and each fit trains a
    ``copy.copy`` of its seed's probe, so the fits of one seed start from
    one projection and one set of weights, and ``train_fits`` forms one
    ``M = P^T P`` for them.  Returns the trained models, one per fit.
    """
    fits = list(fits)
    untrained = {seed: LinearProbeModel(dim, cfg, np.random.default_rng(seed))
                 for seed in dict.fromkeys(fit[3] for fit in fits)}
    # the copies share their probe's start arrays; training rebinds, never
    # writes, them, and each is freed once the last fit reading it rebinds
    models = [copy.copy(untrained[fit[3]]) for fit in fits]
    del untrained
    train_fits(models, x, fits)
    return models


def _descend(models, x, rows, names, labels, seeds) -> None:
    """The step loop of ``train_fits`` on its checked fits: trains each
    ``models[j]`` in place under the loss ``names[j]`` on the ``(n, 2)``
    soft labels ``labels[j]``, from ``seeds[j]``, on the rows ``rows[j]``
    of ``x`` (on ``x`` itself when ``rows`` is None).

    Each step makes one gather of every fit's batch, one stacked
    ``np.matmul`` per product (``x_b v``, ``x_b^T dl/du`` and ``M g``) over
    ``(fits, ...)`` arrays and one ``loss_grads`` call per loss name over
    its fits' ``(fits, batch, 2)`` block, so its number of numpy calls does
    not grow with the fits.  Each slice of a stacked product is the
    matrix-vector product a lone fit makes, and each batch of a block gets
    its lone table result, so each fit's arithmetic is that of ``train``.
    A step raises ``TrainingDiverged`` if a gradient ``g`` is not finite;
    only then does it compute loss values, for the exception.
    Fits with one seed share one batch order; when they also read the same
    rows, the step gathers one batch and every fit reads it through a
    broadcast view, as it does a shared ``M``.  Otherwise the step gathers
    every fit's own batch into one ``(fits, rows, d)`` buffer kept across
    steps."""
    cfg, d = models[0].cfg, models[0].dim
    n = len(x) if rows is None else len(rows[0])
    k = len(models)
    # one table call per step for each loss name, over its fits' block:
    # (fits, loss, labels, offset, cut).  The block's labels are flattened to
    # (fits * n, 2) and read at its fits' batch positions plus ``offset``; a
    # run of adjacent fits is a slice.  The adaptive loss's cut is fixed
    # from each fit's full label set, one (fits, 1) column
    calls = []
    for name in dict.fromkeys(names):
        fits = [j for j, other in enumerate(names) if other == name]
        adjacent = fits[-1] - fits[0] == len(fits) - 1
        cut = (np.array([[confidence_threshold(labels[j])] for j in fits])
               if name == "cace" else 0.0)
        calls.append((slice(fits[0], fits[-1] + 1) if adjacent else np.array(fits),
                      name, np.concatenate([labels[j] for j in fits]),
                      n * np.arange(len(fits))[:, None], cut))

    steps, lr, batch = cfg.steps, cfg.learning_rate, cfg.batch_size
    batch_rows = min(batch, n)

    # one batch-order stream per seed
    streams: dict[int, int] = {}
    group_of = np.array([streams.setdefault(seed, len(streams)) for seed in seeds])
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, 0x7247])) for seed in streams]
    if len(rngs) == 1 and (rows is None or all(r is rows[0] for r in rows)):
        def new_order():
            """Each fit's batch positions in ``range(n)`` for the next pass,
            one row per fit, here one order for all of them."""
            return np.broadcast_to(rngs[0].permutation(n), (k, n))

        def gather(idx):
            """One ``(rows, d)`` batch that every fit reads."""
            return x[idx[0] if rows is None else rows[0][idx[0]]]
    else:
        fit_rows = np.broadcast_to(np.arange(n), (k, n)) if rows is None else np.stack(rows)
        fit_index = np.arange(k)[:, None]
        batches = np.empty((k, batch_rows, d), dtype=x.dtype)

        def new_order():
            order = np.stack([rng.permutation(n) for rng in rngs])
            return order if len(rngs) == k else order[group_of]

        def gather(idx):
            """The ``(fits, rows, d)`` batches, each fit's from its own rows,
            into one buffer kept across steps.  Every index is in range
            (``train_fits`` checks the rows), so ``"clip"`` clips nothing;
            it keeps ``np.take`` from allocating a copy of ``out``."""
            return np.take(x, fit_rows[fit_index, idx], axis=0, out=batches, mode="clip")

    weights = np.stack([m.input_weights for m in models])  # v, one row per fit
    bias = np.array([[m.bias] for m in models], dtype=float)
    u = np.empty((k, batch_rows))
    dldp, e = np.empty_like(u), np.empty_like(u)
    pb = np.empty((k, batch_rows, 2))  # the (p1, 1 - p1) batch, refilled in place each step
    p1, p0 = pb[..., 0], pb[..., 1]
    grads = np.empty((k, d + 1))  # input-space gradient g, then the bias gradient
    grad_w, grad_b = grads[:, :d], grads[:, d:]
    # the step (M g, g_b); g itself for identity probes
    projected = cfg.feature == "projection"
    if projected:
        first = models[0].projection
        if all(m.projection is first for m in models):
            metric = first.T @ first  # broadcast over the fits
        else:
            metric = np.empty((k, d, d))
            for m, out in zip(models, metric):
                np.matmul(m.projection.T, m.projection, out=out)
        moves = np.empty_like(grads)
        grad_sum = np.zeros((k, d))
    else:
        moves = grads
    move_w, move_b = moves[:, :d], moves[:, d:]
    order = new_order()
    cursor = 0

    for step in range(steps):
        if cursor + batch > n:
            order = new_order()
            cursor = 0
        idx = order[:, cursor : cursor + batch]  # each fit's batch positions
        xb = gather(idx)  # one gather for all fits
        cursor += batch

        np.matmul(xb, weights[..., None], out=u[..., None])
        u += bias
        # _sigmoid, then a clamp into the simplex interior so saturated
        # sigmoids keep the loss and the tied-coordinate gradients finite;
        # each op in place on the step's buffers, with _sigmoid's arithmetic
        np.negative(u, out=e)
        with np.errstate(over="ignore"):
            np.exp(e, out=e)
        e += 1.0
        np.divide(1.0, e, out=e)
        # np.clip, not np.maximum and np.minimum: their loops are code the
        # run otherwise never touches, about 0.2 MB more peak RSS in classify
        np.clip(e, SIMPLEX_EPS, 1.0 - SIMPLEX_EPS, out=p1)
        np.subtract(1.0, p1, out=p0)
        for fits, name, y, offset, cut in calls:
            beta = aux_beta(step, steps) if name == "aux" else 0.0
            dldp[fits] = loss_grads(name, y[offset + idx[fits]], pb[fits], cut, beta)
        dldu = dldp * p1 * p0
        np.matmul(xb.swapaxes(-1, -2), dldu[..., None], out=grad_w[..., None])
        del xb  # a fresh batch is freed before the next gather, not during it
        grad_b[:, 0] = np.add.reduce(dldu, axis=1)
        grads /= batch_rows
        if not np.isfinite(grads).all():
            raise TrainingDiverged(step, _first_nonfinite_loss(calls, idx, pb, step, steps))
        if projected:
            np.matmul(metric, grad_w[..., None], out=move_w[..., None])
            move_b[:] = grad_b
            grad_sum += grad_w
        weights -= lr * move_w
        bias -= lr * move_b

    for j, model in enumerate(models):
        if projected:
            model.weights = model.weights - lr * (model.projection @ grad_sum[j])
        else:
            model.weights = weights[j].copy()
        model.bias = float(bias[j, 0])


def _first_nonfinite_loss(calls, idx, pb, step, steps) -> float:
    """The step's first non-finite mean loss in fit order, else NaN."""
    loss = np.empty(len(pb))
    for fits, name, y, offset, cut in calls:
        beta = aux_beta(step, steps) if name == "aux" else 0.0
        # np.mean's arithmetic: a sum, then a division by the count
        loss[fits] = np.add.reduce(
            loss_values(name, y[offset + idx[fits]], pb[fits], cut, beta), axis=1) / idx.shape[1]
    bad = loss[~np.isfinite(loss)]
    return float(bad[0]) if bad.size else math.nan
