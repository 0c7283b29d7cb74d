"""Teacher-student ridge regression and its asymptotic misfit bound.

A random linear teacher labels Gaussian inputs; a random-feature student of
capacity ratio gamma = d_s / d_w fits the pseudo-labels by ridge regression
with scaled penalty eta = (n / d_w) * eta0.  The expected squared misfit
between the trained student and the teacher is bounded, almost surely in
the proportional limit, by B * h(eta0, gamma) with

    h(eta0, gamma) = [eta0 (gamma+1) + (gamma-1)^2]
                     / (2 sqrt(gamma^2 - 2 (1-eta0) gamma + (eta0+1)^2))
                     - (gamma-1)/2,

which also equals the Marchenko-Pastur integral of 1/(1 + (gamma/eta0) t)^2;
both routes are implemented so each can check the other.

A trial is solved in d_w space, never in d_s space: with A = W1^T W1 and
G = X X^T, the push-through identity gives the student's map as
W1^T w2 = (A G + eta I)^-1 A G W, so its residual against the teacher is
-eta (A G + eta I)^-1 W, one d_w x d_w solve.  The draw and A G do not
depend on eta0, so ``sweep_misfit`` makes one job per (gamma, trial), and
the eta0 cells of that job share one draw.  The jobs run on a thread pool
(the normal fill and the products release the GIL) of ``sweep_workers``
threads: one per core when BLAS is pinned to one thread, one alone when
BLAS takes every core.  Each worker draws into its own reused d_w x n and
d_s x d_w float64 buffers (about 7.7 MB at the CLI defaults).

The quadrature route is a nested Gauss-Chebyshev rule in numpy; scipy is
needed only for ``scipy.special`` (in ``bregman``).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "RidgeConfig",
    "MisfitEstimate",
    "TrialResult",
    "QuadratureError",
    "ridge_solve",
    "h_closed_form",
    "mp_density",
    "mp_integral",
    "mp_density_mass",
    "run_trial",
    "sweep_cells",
    "sweep_workers",
    "sweep_misfit",
    "simulate_misfit",
    "verify_monotonicity",
    "MonotonicityReport",
]


class QuadratureError(RuntimeError):
    """The quadrature rule did not settle to the requested accuracy."""


def _check_range(eta0: float, gamma: float) -> None:
    if not eta0 > 0:
        raise ValueError(f"eta0 must be positive, got {eta0!r}")
    if not gamma > 1:
        raise ValueError(f"gamma must exceed 1, got {gamma!r}")


def h_closed_form(eta0: float, gamma: float) -> float:
    """Closed form of the normalized asymptotic misfit bound, in (0, 1)."""
    _check_range(eta0, gamma)
    num = eta0 * (gamma + 1.0) + (gamma - 1.0) ** 2
    den = 2.0 * np.sqrt(gamma**2 - 2.0 * (1.0 - eta0) * gamma + (eta0 + 1.0) ** 2)
    return float(num / den - (gamma - 1.0) / 2.0)


def mp_density(lam, gamma: float):
    """Marchenko-Pastur eigenvalue density for aspect ratio 1/gamma < 1."""
    if not gamma > 1:
        raise ValueError(f"gamma must exceed 1, got {gamma!r}")
    lam = np.asarray(lam, dtype=float)
    lo = (1.0 - np.sqrt(1.0 / gamma)) ** 2
    hi = (1.0 + np.sqrt(1.0 / gamma)) ** 2
    inside = (lam >= lo) & (lam <= hi)
    dens = np.zeros_like(lam)
    lam_in = lam[inside]
    dens[inside] = (
        gamma * np.sqrt((hi - lam_in) * (lam_in - lo)) / (2.0 * np.pi * lam_in)
    )
    return dens


# the largest rule _mp_quad tries has 2**16 - 1 nodes
_MAX_INTERVALS = 2**16


def _mp_quad(gamma: float, f, tol: float) -> float:
    """Integrate f(lam) against the MP density.

    With lam = c + r x the density is sqrt(1 - x^2) times the smooth factor
    gamma r^2 / (2 pi lam), so a Gauss-Chebyshev rule of the second kind
    (m nodes cos(k pi / (m + 1)), weights pi / (m + 1) sin^2) takes the
    square-root edges exactly.  The rules for m = 2^j - 1 are nested; m
    doubles to 2m + 1 until two successive values differ by at most
    tol / 10.  The difference is floored at the rounding of the sum,
    50 eps sum |w f| as in QUADPACK, so a tolerance below it is never met:
    QuadratureError is raised past 2^16 - 1 nodes.  f must accept an
    array of lam.
    """
    lo = (1.0 - np.sqrt(1.0 / gamma)) ** 2
    hi = (1.0 + np.sqrt(1.0 / gamma)) ** 2
    c, r = (hi + lo) / 2.0, (hi - lo) / 2.0

    def rule(intervals: int) -> tuple[float, float]:
        """The rule's value and its rounding floor."""
        theta = np.arange(1, intervals) * (np.pi / intervals)
        lam = c + r * np.cos(theta)
        terms = np.pi / intervals * np.sin(theta) ** 2 * (
            gamma * r * r * f(lam) / (2.0 * np.pi * lam))
        return float(terms.sum()), 50.0 * np.finfo(float).eps * float(np.abs(terms).sum())

    intervals = 8
    value, _ = rule(intervals)
    while intervals < _MAX_INTERVALS:
        intervals *= 2
        previous = value
        value, floor = rule(intervals)
        change = max(abs(value - previous), floor)
        if change <= tol / 10.0:
            return value
    raise QuadratureError(
        f"Gauss-Chebyshev error estimate {change:.3e} at {intervals - 1} nodes "
        f"exceeds tolerance / 10 = {tol / 10.0:.3e}"
    )


def mp_integral(eta0: float, gamma: float, tol: float = 1e-9) -> float:
    """Quadrature route to h(eta0, gamma): E_MP[(1 + (gamma/eta0) lam)^-2]."""
    _check_range(eta0, gamma)
    scale = gamma / eta0
    return _mp_quad(gamma, lambda lam: 1.0 / (1.0 + scale * lam) ** 2, tol)


def mp_density_mass(gamma: float, tol: float = 1e-9) -> float:
    """Total mass of the bare MP density; equals 1 for every gamma > 1."""
    return _mp_quad(gamma, np.ones_like, tol)


def ridge_solve(features: np.ndarray, targets: np.ndarray, eta: float) -> np.ndarray:
    """Minimize ||features^T w - targets||^2 + eta ||w||^2.

    ``features`` has one column per sample (d_s x n).  A strictly positive
    eta keeps the d_s x d_s system well posed.
    """
    if not eta > 0:
        raise ValueError("eta must be strictly positive")
    A = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if A.ndim != 2 or y.shape != (A.shape[1],):
        raise ValueError("features must be d_s x n with one target per sample")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(y))):
        raise ValueError("inputs must be finite")
    K = A @ A.T + eta * np.eye(A.shape[0])
    return np.linalg.solve(K, A @ y)


@dataclass(frozen=True)
class RidgeConfig:
    """Simulation parameters.

    gamma sets the student width d_s = round(gamma * d_w); n = n_ratio * d_w
    pseudo-labeled samples are drawn per trial.  Teacher weights carry
    entry variance B / d_w, so E||W||^2 equals the bound constant B exactly.
    """

    d_w: int = 200
    gamma: float = 2.0
    n_ratio: float = 20.0
    eta0: float = 1.0
    B: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_w < 2:
            raise ValueError("d_w must be at least 2")
        if not 1 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and exceed 1, got {self.gamma!r}")
        if not 0 < self.eta0 < np.inf:
            raise ValueError(f"eta0 must be finite and positive, got {self.eta0!r}")
        if not 1 <= self.n_ratio < np.inf:
            raise ValueError(f"n_ratio must be finite and at least 1, got {self.n_ratio!r}")
        if not 0 < self.B < np.inf:
            raise ValueError(f"B must be finite and positive, got {self.B!r}")

    @property
    def teacher_scale(self) -> float:
        """Teacher entry variance B / d_w."""
        return self.B / self.d_w

    @property
    def d_s(self) -> int:
        return int(round(self.gamma * self.d_w))

    @property
    def n(self) -> int:
        return int(round(self.n_ratio * self.d_w))

    @property
    def eta(self) -> float:
        return self.n_ratio * self.eta0


@dataclass(frozen=True)
class TrialResult:
    """One trial's misfit and the residual map it was computed from."""

    misfit: float
    residual_direction: np.ndarray  # W1'^T w2 - W, a d_w vector


@dataclass(frozen=True)
class MisfitEstimate:
    """Monte Carlo estimate of the expected misfit against its bound."""

    empirical_misfit: float
    bound: float
    trials: int
    std_error: float
    per_trial: np.ndarray
    retries: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def _trial_rng(cfg: RidgeConfig, trial: int, attempt: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, trial, attempt]))


# per thread: the last draw, as (key, draw), and the buffers of _normal_into
_per_thread = threading.local()


def _normal_into(name: str, rng: np.random.Generator, scale: float, shape) -> np.ndarray:
    """``rng.normal(0, scale, shape)``, written into this thread's buffer ``name``.

    Bit for bit the fresh draw (normal is 0 + scale z).  The buffer grows
    to the largest shape asked for and is reused, so a thread's draws
    neither allocate nor free their big arrays: freeing them raised
    malloc's mmap threshold and left the sweep's peak memory to the
    fragmentation of the workers' heaps.  The view returned is overwritten
    by the thread's next draw, and the buffer lives as long as its thread.
    """
    size = int(np.prod(shape))
    buffer = getattr(_per_thread, name, None)
    if buffer is None or buffer.size < size:
        buffer = np.empty(size)
        setattr(_per_thread, name, buffer)
    out = buffer[:size].reshape(shape)
    rng.standard_normal(out=out)
    out *= scale
    return out


def _draw(cfg: RidgeConfig, trial: int, attempt: int) -> tuple[np.ndarray, np.ndarray]:
    """The eta0-free part of a trial: the teacher W and the d_w x d_w product A G.

    ``run_trial`` passes ``cfg`` with eta0 fixed, so consecutive cells on
    one thread that differ only in eta0 share a draw.  The cache holds one
    draw per thread, so the workers of ``sweep_misfit`` never evict each
    other's draws.  The arrays are read-only.  W1 and X are drawn into the
    thread's reused buffers (``_normal_into``).
    """
    key = (cfg, trial, attempt)
    last = getattr(_per_thread, "last_draw", None)
    if last is not None and last[0] == key:
        return last[1]
    rng = _trial_rng(cfg, trial, attempt)
    d_w = cfg.d_w
    W = rng.normal(0.0, np.sqrt(cfg.teacher_scale), size=d_w)
    W1 = _normal_into("W1", rng, np.sqrt(1.0 / d_w), (cfg.d_s, d_w))
    X = _normal_into("X", rng, np.sqrt(1.0 / d_w), (d_w, cfg.n))
    AG = (W1.T @ W1) @ (X @ X.T)
    W.flags.writeable = AG.flags.writeable = False
    _per_thread.last_draw = (key, (W, AG))
    return W, AG


def run_trial(cfg: RidgeConfig, trial: int, attempt: int = 0) -> TrialResult:
    """Draw one teacher/student instance and compute its exact input-averaged misfit.

    The draw (teacher W, student features W1, inputs X) does not depend on
    eta0, so it is shared with the previous call on the same thread when
    that call differed only in eta0.  The ridge student's map W1^T w2 equals
    (A G + eta I)^-1 A G W (push-through identity, A = W1^T W1, G = X X^T),
    so its residual W1^T w2 - W is -eta (A G + eta I)^-1 W: a d_w x d_w
    solve with no cancellation against W.  Inputs have covariance I / d_w,
    so the expectation over test inputs reduces the misfit to
    ||W1^T w2 - W||^2 / d_w with no sampling error.
    """
    # eta0 does not enter the draw; fixing it makes the cache key eta0-free
    W, AG = _draw(replace(cfg, eta0=1.0), trial, attempt)
    K = AG + cfg.eta * np.eye(cfg.d_w)
    x = np.linalg.solve(K, W)
    rel_residual = np.linalg.norm(K @ x - W) / max(np.linalg.norm(W), 1e-300)
    if not np.isfinite(rel_residual) or rel_residual > 1e-8:
        raise np.linalg.LinAlgError(
            f"ridge solve left relative residual {rel_residual:.3e}"
        )
    direction = -cfg.eta * x
    return TrialResult(float(direction @ direction / cfg.d_w), direction)


def sweep_cells(base: RidgeConfig, gammas, eta0s, trials: int) -> dict:
    """Check a sweep grid and return its cell configs keyed (eta0, gamma).

    Every cell takes d_w, n_ratio, B and seed from ``base``; the keys come
    in (eta0, gamma) order.  Raises ValueError for trials < 1, an empty or
    repeated grid value, and any value ``RidgeConfig`` rejects.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    for name, grid in (("gammas", gammas), ("eta0s", eta0s)):
        if len(grid) == 0:
            raise ValueError(f"{name} must be nonempty")
        if len(set(grid)) != len(grid):
            raise ValueError(f"{name} has repeated values: {list(grid)}")
    return {(e, g): replace(base, gamma=g, eta0=e) for e in eta0s for g in gammas}


# what sets the BLAS thread count, in the order OpenBLAS and MKL read it
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def sweep_workers(draws: int) -> int:
    """Threads ``sweep_misfit`` runs ``draws`` (gamma, trial) jobs on.

    Every worker's products run on the BLAS thread count: the first
    positive integer among ``_BLAS_THREAD_VARIABLES``, else (as OpenBLAS
    and MKL default) every core.  Workers times BLAS threads stays within
    the cores this process may run on, since threads beyond them contend
    (two workers of two-thread BLAS on two cores are slower than one
    worker), and there is no more than one worker per job.  So an unpinned
    BLAS runs the sweep on one worker, and a BLAS pinned to one thread on
    one worker per core.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    blas = cores
    for name in _BLAS_THREAD_VARIABLES:
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, min(cores // blas, draws))


def _draw_cells(cfgs, trial: int) -> tuple[list[float], list[int]]:
    """Misfits and retry counts of the eta0 cells ``cfgs`` of one (gamma, trial).

    A numerically singular solve is retried at the next attempt, which
    draws afresh, for its own cell only.
    """
    misfits, retries = [], []
    for cfg in cfgs:
        for attempt in range(10):
            try:
                misfits.append(run_trial(cfg, trial, attempt).misfit)
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise np.linalg.LinAlgError(
                f"trial {trial} of cell eta0={cfg.eta0}, gamma={cfg.gamma} "
                "failed after 10 attempts"
            )
        retries.append(attempt)
    return misfits, retries


def sweep_misfit(base: RidgeConfig, gammas, eta0s, trials: int) -> dict:
    """Estimate the misfit of every (eta0, gamma) cell, keyed as ``sweep_cells``.

    One job per (gamma, trial) draws once and runs its eta0 cells through
    ``run_trial``; the jobs run on ``sweep_workers`` threads.  Each cell
    still calls ``run_trial`` once per trial and is reproducible from
    (seed, trial) alone, so the result does not depend on the schedule.
    Retries are counted per cell.  A cell that fails 10 attempts raises
    LinAlgError and cancels the jobs not yet started.
    """
    # imported here: only this sweep needs it
    from concurrent.futures import ThreadPoolExecutor

    cells = sweep_cells(base, gammas, eta0s, trials)
    values = {key: np.empty(trials) for key in cells}
    retries = dict.fromkeys(cells, 0)
    draws = [(gamma, t) for gamma in gammas for t in range(trials)]
    pool = ThreadPoolExecutor(sweep_workers(len(draws)))
    try:
        jobs = [pool.submit(_draw_cells, [cells[e, gamma] for e in eta0s], t)
                for gamma, t in draws]
        for (gamma, t), job in zip(draws, jobs):
            for eta0, misfit, retried in zip(eta0s, *job.result()):
                values[eta0, gamma][t] = misfit
                retries[eta0, gamma] += retried
    finally:
        pool.shutdown(cancel_futures=True)
    estimates = {}
    for key, cfg in cells.items():
        v = values[key]
        estimates[key] = MisfitEstimate(
            empirical_misfit=float(v.mean()),
            bound=cfg.B * h_closed_form(cfg.eta0, cfg.gamma),
            trials=trials,
            std_error=float(v.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
            per_trial=v,
            retries=retries[key],
        )
    return estimates


def simulate_misfit(cfg: RidgeConfig, trials: int) -> MisfitEstimate:
    """Average the per-trial misfit over independently seeded trials.

    The one-cell case of ``sweep_misfit``: trials are reproducible from
    (seed, trial index) alone, and a numerically singular solve is
    retried with a fresh derived seed and counted.
    """
    return sweep_misfit(cfg, [cfg.gamma], [cfg.eta0], trials)[(cfg.eta0, cfg.gamma)]


@dataclass(frozen=True)
class MonotonicityReport:
    """Sweep of h over (eta0, gamma) grids with violation bookkeeping."""

    eta0_grid: tuple[float, ...]
    gamma_grid: tuple[float, ...]
    values: np.ndarray  # shape (len(eta0_grid), len(gamma_grid))
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_monotonicity(eta0_grid, gamma_grid) -> MonotonicityReport:
    """Check h is strictly decreasing along gamma and stays inside (0, 1)."""
    eta0s = tuple(float(e) for e in eta0_grid)
    gammas = tuple(sorted(float(g) for g in gamma_grid))
    values = np.array([[h_closed_form(e, g) for g in gammas] for e in eta0s])
    violations: list[str] = []
    for i, e in enumerate(eta0s):
        row = values[i]
        if np.any(np.diff(row) >= 0):
            violations.append(f"h not strictly decreasing in gamma at eta0={e}")
        if np.any((row <= 0) | (row >= 1)):
            violations.append(f"h left (0, 1) at eta0={e}")
    return MonotonicityReport(eta0s, gammas, values, tuple(violations))
