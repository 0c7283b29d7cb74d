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
depend on eta0, so ``sweep_misfit`` runs the grid gamma by gamma and trial
by trial, and the eta0 cells of one (gamma, trial) share one draw.
"""

from __future__ import annotations

import functools
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
    "sweep_misfit",
    "simulate_misfit",
    "verify_monotonicity",
    "MonotonicityReport",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""


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


def _mp_quad(gamma: float, f, tol: float) -> float:
    """Integrate f(lam) against the MP density.

    The substitution lam = c + r sin(theta) absorbs the square-root edge
    factor, leaving a smooth integrand for the adaptive rule.
    """
    # imported here: only the quadrature needs it, and it is slow to import
    from scipy import integrate

    lo = (1.0 - np.sqrt(1.0 / gamma)) ** 2
    hi = (1.0 + np.sqrt(1.0 / gamma)) ** 2
    c, r = (hi + lo) / 2.0, (hi - lo) / 2.0

    def integrand(theta: float) -> float:
        lam = c + r * np.sin(theta)
        jacobian = r * np.cos(theta)
        edge = r * np.cos(theta)  # sqrt((hi - lam)(lam - lo))
        return gamma * edge * jacobian * f(lam) / (2.0 * np.pi * lam)

    value, abserr = integrate.quad(
        integrand, -np.pi / 2.0, np.pi / 2.0, epsabs=tol / 10.0, epsrel=tol / 10.0
    )
    if abserr > tol:
        raise QuadratureError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance {tol:.3e}"
        )
    return float(value)


def mp_integral(eta0: float, gamma: float, tol: float = 1e-9) -> float:
    """Quadrature route to h(eta0, gamma): E_MP[(1 + (gamma/eta0) lam)^-2]."""
    _check_range(eta0, gamma)
    scale = gamma / eta0
    return _mp_quad(gamma, lambda lam: 1.0 / (1.0 + scale * lam) ** 2, tol)


def mp_density_mass(gamma: float, tol: float = 1e-9) -> float:
    """Total mass of the bare MP density; equals 1 for every gamma > 1."""
    return _mp_quad(gamma, lambda lam: 1.0, tol)


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


@functools.lru_cache(maxsize=1)
def _draw(cfg: RidgeConfig, trial: int, attempt: int) -> tuple[np.ndarray, np.ndarray]:
    """The eta0-free part of a trial: the teacher W and the d_w x d_w product A G.

    ``run_trial`` passes ``cfg`` with eta0 fixed, so consecutive cells that
    differ only in eta0 hit this one-entry cache; the arrays are read-only.
    """
    rng = _trial_rng(cfg, trial, attempt)
    d_w = cfg.d_w
    W = rng.normal(0.0, np.sqrt(cfg.teacher_scale), size=d_w)
    W1 = rng.normal(0.0, np.sqrt(1.0 / d_w), size=(cfg.d_s, d_w))
    X = rng.normal(0.0, np.sqrt(1.0 / d_w), size=(d_w, cfg.n))
    AG = (W1.T @ W1) @ (X @ X.T)
    W.flags.writeable = AG.flags.writeable = False
    return W, AG


def run_trial(cfg: RidgeConfig, trial: int, attempt: int = 0) -> TrialResult:
    """Draw one teacher/student instance and compute its exact input-averaged misfit.

    The draw (teacher W, student features W1, inputs X) does not depend on
    eta0, so it is shared with the previous call when that call differed
    only in eta0.  The ridge student's map W1^T w2 equals
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


def sweep_misfit(base: RidgeConfig, gammas, eta0s, trials: int) -> dict:
    """Estimate the misfit of every (eta0, gamma) cell, keyed as ``sweep_cells``.

    The loop runs gamma, then trial, then eta0, so the eta0 cells of one
    (gamma, trial) reuse one draw.  Each cell still calls ``run_trial``
    once per trial and is reproducible from (seed, trial) alone.  A
    numerically singular solve is retried at the next attempt, which
    draws afresh, and counted against its own cell.
    """
    cells = sweep_cells(base, gammas, eta0s, trials)
    values = {key: np.empty(trials) for key in cells}
    retries = dict.fromkeys(cells, 0)
    for gamma in gammas:
        for t in range(trials):
            for eta0 in eta0s:
                key = (eta0, gamma)
                for attempt in range(10):
                    try:
                        values[key][t] = run_trial(cells[key], t, attempt).misfit
                        break
                    except np.linalg.LinAlgError:
                        retries[key] += 1
                else:
                    raise np.linalg.LinAlgError(
                        f"trial {t} of cell eta0={eta0}, gamma={gamma} "
                        "failed after 10 attempts"
                    )
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
