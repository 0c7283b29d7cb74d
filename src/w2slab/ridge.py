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
-eta (A G + eta I)^-1 W, one d_w x d_w solve.

A trial's random stream depends on (seed, trial, attempt) only, not on gamma
or eta0: the teacher W is its first d_w normals, and after them W1 (d_s x d_w)
and X (d_w x n) are consecutive windows of one prefix.  So ``sweep_misfit``
makes one job per trial, which draws W and the prefix once, sized for the
widest gamma, forms each gamma's A G once, and hands that draw to
``run_trial`` for each eta0 cell; ``run_trial`` called alone draws its own.
Each gamma's X starts d_s d_w into the prefix, so the X of gammas whose
offsets differ by whole rows of n are row ranges of one taller matrix Z,
and one span Gram Z Z^T holds each of their G = X X^T as a diagonal block
(``_gram_spans``).  At the CLI defaults (d_w 200, n 4000, gamma 1.5, 2
and 4, offsets of 15, 20 and 40 rows) a job forms one 225-row Gram in
place of three 200-row ones; a grid whose offsets disagree mod n (n_ratio
7, say) forms one X X^T per gamma, the product ``run_trial`` alone forms,
bit for bit.  BLAS tiles the taller product differently, so a cell's last
bits depend on which gammas share its grid, though never on their order,
the worker count or the schedule.
The jobs run on a thread pool (the normal fill and the products release
the GIL) of ``sweep_workers`` threads: one per core when BLAS is pinned to
one thread, one alone when BLAS takes every core, and never more than
there are trials, so a sweep of fewer trials than cores leaves cores idle
(the CLI defaults, 50 trials on 2 workers, lose nothing).  Each worker
reuses one float64 buffer that holds the prefix, d_w (max d_s + n) scaled
normals, the largest span Gram and the current A G (about 8.4 MB at the
CLI defaults, of which the 225 x 225 span is 405 KB).

The quadrature route is a nested Gauss-Chebyshev rule in numpy.
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
    "h_complement",
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
    """Raise ValueError unless 0 < eta0 < inf and 1 < gamma < inf, the domain of h."""
    if not 0 < eta0 < np.inf:
        raise ValueError(f"eta0 must be finite and positive, got {eta0!r}")
    if not 1 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and exceed 1, got {gamma!r}")


def _h_terms(eta0: float, gamma: float) -> tuple[float, float]:
    """The bracket ``num`` and the square root ``s`` of the module's formula for h.

    ``s^2`` is formed as ``(gamma-1)^2 + 2 eta0 (gamma+1) + eta0^2``, the
    module's radicand regrouped into positive terms: the written form
    cancels when gamma is near 1 and eta0 is small.
    """
    _check_range(eta0, gamma)
    num = eta0 * (gamma + 1.0) + (gamma - 1.0) ** 2
    s = np.sqrt((gamma - 1.0) ** 2 + 2.0 * eta0 * (gamma + 1.0) + eta0**2)
    return num, s


def h_closed_form(eta0: float, gamma: float) -> float:
    """Closed form of the normalized asymptotic misfit bound, in (0, 1).

    With ``num`` and ``s`` the bracket and the square root of the module's
    formula, ``h = (num - (gamma-1) s) / (2 s)``.  The two terms agree to
    all but a few digits at small eta0, so ``h`` is formed as
    ``2 gamma eta0^2 / (s (num + (gamma-1) s))``, the same value with the
    difference of squares ``num^2 - (gamma-1)^2 s^2 = 4 gamma eta0^2``
    taken exactly: nothing cancels.  Below eta0 of about 1e-160 it leaves
    the normal range, and it underflows to 0 where eta0^2 does.  From
    eta0 of about 1e154 its squares overflow.
    """
    num, s = _h_terms(eta0, gamma)
    return float(2.0 * gamma * eta0**2 / (s * (num + (gamma - 1.0) * s)))


def h_complement(eta0: float, gamma: float) -> float:
    """``1 - h(eta0, gamma)`` without cancellation, in (0, 1).

    h tends to 1 as eta0 grows: from eta0 of about 1e16 the float h can no
    longer tell gammas apart, and from about 1.8e16 it rounds to 1.0.
    ``1 - h = ((gamma+1) s - num) / (2 s)``, and the difference of squares
    ``(gamma+1)^2 s^2 - num^2 = 4 gamma (2 eta0 (gamma+1) + (gamma-1)^2)``
    is again exact, so this returns
    ``2 gamma (2 eta0 (gamma+1) + (gamma-1)^2) / (s ((gamma+1) s + num))``.
    """
    num, s = _h_terms(eta0, gamma)
    return float(2.0 * gamma * (2.0 * eta0 * (gamma + 1.0) + (gamma - 1.0) ** 2)
                 / (s * ((gamma + 1.0) * s + num)))


def mp_density(lam, gamma: float):
    """Marchenko-Pastur eigenvalue density for aspect ratio 1/gamma < 1."""
    _check_range(1.0, gamma)  # the density has no eta0
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
    tol / 10 of the latest value, a relative test, so an integral of any
    scale gets the same number of correct digits.  The difference is
    floored at the rounding of the sum, 50 eps sum |w f| as in QUADPACK,
    so a tolerance below it is never met: QuadratureError is raised past
    2^16 - 1 nodes.  f must accept an array of lam.
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
        if change <= tol / 10.0 * abs(value):
            return value
    raise QuadratureError(
        f"Gauss-Chebyshev error estimate {change:.3e} at {intervals - 1} nodes "
        f"exceeds tolerance / 10 = {tol / 10.0:.3e} of the value {value:.3e}"
    )


def mp_integral(eta0: float, gamma: float, tol: float = 1e-9) -> float:
    """Quadrature route to h(eta0, gamma): E_MP[(1 + (gamma/eta0) lam)^-2].

    ``tol`` is relative: h is about gamma eta0^2 / (gamma - 1)^3 at small
    eta0, far below any fixed absolute tolerance.
    """
    _check_range(eta0, gamma)
    scale = gamma / eta0
    return _mp_quad(gamma, lambda lam: 1.0 / (1.0 + scale * lam) ** 2, tol)


def mp_density_mass(gamma: float, tol: float = 1e-9) -> float:
    """Total mass of the bare MP density; equals 1 for every gamma > 1."""
    _check_range(1.0, gamma)
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
        _check_range(self.eta0, self.gamma)
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


# one float64 buffer per thread, reused by every sweep job the thread runs
_per_thread = threading.local()


def _normals(cfg: RidgeConfig, trial: int, attempt: int, out: np.ndarray) -> np.ndarray:
    """Return a trial's teacher W and fill ``out`` with the normals after it.

    Bit for bit ``rng.normal`` draws from ``_trial_rng`` (normal is 0 +
    scale z): W is the first d_w normals at scale sqrt(B / d_w), and ``out``
    holds the next ``out.size`` at scale sqrt(1 / d_w).  The stream does not
    depend on gamma, eta0 or n, and standard_normal is prefix-consistent,
    so W1 and X of every cell of the trial are windows of one prefix z
    (see ``_gram_product`` and ``_gram_spans``).
    """
    rng = _trial_rng(cfg, trial, attempt)
    W = np.sqrt(cfg.teacher_scale) * rng.standard_normal(cfg.d_w)
    rng.standard_normal(out=out)
    out *= np.sqrt(1.0 / cfg.d_w)
    return W


def _span_gram(z: np.ndarray, lo: int, rows: int, n: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """Z Z^T for Z = z[lo : lo + rows n] as rows x n, the syrk numpy picks for X @ X.T."""
    Z = z[lo:lo + rows * n].reshape(rows, n)
    return np.matmul(Z, Z.T, out=out)


def _gram_product(cfg: RidgeConfig, z: np.ndarray, S: np.ndarray, row: int = 0,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The d_w x d_w product A G = (W1^T W1)(X X^T) of cell ``cfg``.

    W1 = z[:d_s d_w] as d_s x d_w, read from a prefix z that ``_normals``
    drew, and G is the d_w x d_w block of the span Gram S (``_span_gram``)
    whose diagonal starts at ``row``.
    """
    d_w = cfg.d_w
    W1 = z[:cfg.d_s * d_w].reshape(cfg.d_s, d_w)
    return np.matmul(W1.T @ W1, S[row:row + d_w, row:row + d_w], out=out)


def _gram_spans(cfgs) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """Group the X windows of ``cfgs``, one cell per gamma, into span Grams.

    Cell i's X is the d_w x n window at offset o_i = d_s d_w of the prefix.
    Windows whose offsets agree mod n are row ranges of one matrix
    Z = z[lo : lo + rows n] as rows x n, so Z Z^T holds each of their
    G = X X^T as the d_w x d_w diagonal block at row (o_i - lo) / n.  A
    group of m windows shares one span only when rows^2 <= m d_w^2, so the
    span never costs more multiply-adds than the m products it replaces;
    otherwise each window is a span of its own d_w rows, whose Gram is
    X X^T itself.  Returns (lo, rows, [(i, row), ...]) per span.
    """
    d_w, n = cfgs[0].d_w, cfgs[0].n
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, cfg in enumerate(cfgs):
        offset = cfg.d_s * d_w
        groups.setdefault(offset % n, []).append((i, offset))
    spans = []
    for members in groups.values():
        lo = min(offset for _, offset in members)
        rows = (max(offset for _, offset in members) - lo) // n + d_w
        if rows**2 <= len(members) * d_w**2:
            spans.append((lo, rows, [(i, (offset - lo) // n) for i, offset in members]))
        else:
            spans.extend((offset, d_w, [(i, 0)]) for i, offset in members)
    return spans


def run_trial(cfg: RidgeConfig, trial: int, attempt: int = 0,
              draw: tuple[np.ndarray, np.ndarray] | None = None) -> TrialResult:
    """Solve one teacher/student instance and compute its exact input-averaged misfit.

    ``draw`` is the cell's (W, A G) for (trial, attempt), which
    ``sweep_misfit``'s jobs draw once per trial and form once per gamma
    from a span Gram; it is only read.  Without it, the cell draws its own
    W, W1 and X from the (seed, trial, attempt) stream and forms X X^T
    alone.  The ridge student's map
    W1^T w2 equals (A G + eta I)^-1 A G W (push-through identity,
    A = W1^T W1, G = X X^T), so its residual W1^T w2 - W is
    -eta (A G + eta I)^-1 W: a d_w x d_w solve with no cancellation
    against W.  Inputs have covariance I / d_w, so the expectation over
    test inputs reduces the misfit to ||W1^T w2 - W||^2 / d_w with no
    sampling error.
    """
    if draw is None:
        z = np.empty(cfg.d_w * (cfg.d_s + cfg.n))
        W = _normals(cfg, trial, attempt, z)
        draw = W, _gram_product(cfg, z, _span_gram(z, cfg.d_s * cfg.d_w, cfg.d_w, cfg.n))
    W, AG = draw
    # the same bits as AG + eta * np.eye(d_w): off the diagonal that adds 0.0
    K = AG.copy()
    K.flat[::cfg.d_w + 1] += cfg.eta
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
    repeated grid value, any value ``RidgeConfig`` rejects, a cell whose
    bound ``B h`` underflows to 0, against which no misfit can be judged,
    and a cell whose h or 1 - h overflows (eta0 or gamma of about 1e154).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    for name, grid in (("gammas", gammas), ("eta0s", eta0s)):
        if len(grid) == 0:
            raise ValueError(f"{name} must be nonempty")
        if len(set(grid)) != len(grid):
            raise ValueError(f"{name} has repeated values: {list(grid)}")
    cells = {(e, g): replace(base, gamma=g, eta0=e) for e in eta0s for g in gammas}
    for (e, g), cell in cells.items():
        try:
            with np.errstate(over="raise", invalid="raise"):
                bound = cell.B * h_closed_form(e, g)
                h_complement(e, g)  # verify_monotonicity reads it too
        except (OverflowError, FloatingPointError) as err:
            raise ValueError(f"h overflows at eta0={e!r}, gamma={g!r}") from err
        if bound == 0.0:
            raise ValueError(f"the bound B h underflows to 0 at eta0={e!r}, gamma={g!r}")
    return cells


# what sets the BLAS thread count, in the order OpenBLAS and MKL read it
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def sweep_workers(trials: int) -> int:
    """Threads ``sweep_misfit`` runs its ``trials`` jobs, one per trial, on.

    Every worker's products run on the BLAS thread count: the first
    positive integer among ``_BLAS_THREAD_VARIABLES``, else (as OpenBLAS
    and MKL default) every core.  Workers times BLAS threads stays within
    the cores this process may run on, since threads beyond them contend
    (two workers of two-thread BLAS on two cores are slower than one
    worker), and there is no more than one worker per trial.  So an
    unpinned BLAS runs the sweep on one worker, and a BLAS pinned to one
    thread on one worker per core, or per trial when there are fewer
    trials than cores.
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
    return max(1, min(cores // blas, trials))


def _trial_cells(groups, trial: int) -> tuple[list[float], list[int]]:
    """Misfits and retry counts of one trial's cells, in order.

    ``groups`` holds one list of cells per gamma.  The job draws W and the
    prefix of scaled normals once, sized for the widest gamma, into its
    thread's buffer.  For each span of ``_gram_spans`` it forms one span
    Gram in the buffer, then each of the span's gammas' A G once from its
    diagonal block into the buffer's d_w x d_w tail, and hands (W, A G) to
    ``run_trial`` for each eta0 cell.  Reusing the buffer keeps the span
    Gram and A G from being freed and faulted back in at every job.  A
    numerically singular solve is retried at the next attempt, which draws
    afresh, for its own cell only; the next cell goes back to the job's
    draw.
    """
    first = groups[0][0]
    d_w, n = first.d_w, first.n
    spans = _gram_spans([group[0] for group in groups])
    size = d_w * (max(group[0].d_s for group in groups) + n)
    span_size = max(rows for _, rows, _ in spans) ** 2
    buffer = getattr(_per_thread, "buffer", None)
    if buffer is None or buffer.size < size + span_size + d_w * d_w:
        buffer = _per_thread.buffer = np.empty(size + span_size + d_w * d_w)
    z, AG = buffer[:size], buffer[-d_w * d_w:].reshape(d_w, d_w)
    W = _normals(first, trial, 0, z)
    misfits: list[list[float]] = [[] for _ in groups]
    retries: list[list[int]] = [[] for _ in groups]
    for lo, rows, members in spans:
        S = _span_gram(z, lo, rows, n, out=buffer[size:size + rows * rows].reshape(rows, rows))
        for i, row in members:
            _gram_product(groups[i][0], z, S, row, out=AG)
            for cfg in groups[i]:
                for attempt in range(10):
                    try:
                        misfits[i].append(run_trial(cfg, trial, attempt,
                                                    (W, AG) if attempt == 0 else None).misfit)
                        break
                    except np.linalg.LinAlgError:
                        continue
                else:
                    raise np.linalg.LinAlgError(
                        f"trial {trial} of cell eta0={cfg.eta0}, gamma={cfg.gamma} "
                        "failed after 10 attempts"
                    )
                retries[i].append(attempt)
    return ([m for group in misfits for m in group],
            [r for group in retries for r in group])


def sweep_misfit(base: RidgeConfig, gammas, eta0s, trials: int) -> dict:
    """Estimate the misfit of every (eta0, gamma) cell, keyed as ``sweep_cells``.

    One job per trial (``_trial_cells``) runs every cell of that trial: it
    draws the trial's normals once, forms one span Gram per group of gammas
    whose X windows are row ranges of one matrix (``_gram_spans``; one for
    all gammas at the CLI defaults), A G once per gamma from its block, and
    calls ``run_trial`` once per cell with that draw.  The jobs run on
    ``sweep_workers(trials)`` threads, so a sweep of fewer trials than
    cores runs on fewer workers than cores.  Each cell is reproducible from
    (seed, trial) and the gamma grid alone, so the result does not depend
    on the schedule or on the order of ``gammas``; a cell of a shared span
    may differ from ``run_trial`` alone in its last bits.
    Retries are counted per cell.  A cell that fails 10 attempts raises
    LinAlgError and cancels the jobs not yet started.
    """
    # imported here: only this sweep needs it
    from concurrent.futures import ThreadPoolExecutor

    cells = sweep_cells(base, gammas, eta0s, trials)
    values = {key: np.empty(trials) for key in cells}
    retries = dict.fromkeys(cells, 0)
    order = [(e, g) for g in gammas for e in eta0s]
    groups = [[cells[e, g] for e in eta0s] for g in gammas]
    pool = ThreadPoolExecutor(sweep_workers(trials))
    try:
        jobs = [pool.submit(_trial_cells, groups, t) for t in range(trials)]
        for t, job in enumerate(jobs):
            for key, misfit, retried in zip(order, *job.result()):
                values[key][t] = misfit
                retries[key] += retried
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
    """Check h is strictly decreasing along gamma and stays inside (0, 1).

    Each of h and ``h_complement`` = 1 - h is accurate to rounding, but
    neither resolves every step: near h = 1 the float h does not (at
    eta0 = 1e16, h(1.5) and h(2) are one float; at 1e17, h(1.5) rounds
    below h(2) = 1.0, and h can round one ulp above 1), and at small eta0,
    where h is tiny, 1 - h rounds to 1.0.  So each step along gamma must
    strictly decrease h or strictly increase 1 - h, and inside (0, 1) means
    h > 0 and 1 - h > 0.
    """
    eta0s = tuple(float(e) for e in eta0_grid)
    gammas = tuple(sorted(float(g) for g in gamma_grid))
    values = np.array([[h_closed_form(e, g) for g in gammas] for e in eta0s])
    complements = np.array([[h_complement(e, g) for g in gammas] for e in eta0s])
    violations: list[str] = []
    for e, row, rest in zip(eta0s, values, complements):
        steps, rises = np.diff(row), np.diff(rest)
        # written so that a NaN h or 1 - h counts as a violation
        if not np.all(((steps < 0) | (rises > 0)) & np.isfinite(steps + rises)):
            violations.append(f"h not strictly decreasing in gamma at eta0={e}")
        if not np.all((row > 0) & (rest > 0)):
            violations.append(f"h left (0, 1) at eta0={e}")
    return MonotonicityReport(eta0s, gammas, values, tuple(violations))
