"""Exact verification of misfit-based weak-to-strong inequalities.

Scenarios are finite tables: a finite input marginal, a ground-truth label
per input, finite teacher and student model families, and a joint
probability table over (teacher, student) indices.  Every expectation,
posterior, misfit, and residual is then a finite sum, so inequality and
equality claims are measured with zero sampling error.

Measured statements, each by independent enumeration of both sides (the
verifiers return what they measure; the ``verify`` suite judges it):

* the risk-gap inequality driven by the expected misfit, with the
  Cauchy-Schwarz residual and the exact pre-Cauchy-Schwarz inner product;
* its product-distribution variant for arbitrary model pairs, which is the
  same enumeration run on the outer product of the two marginals;
* the equality forms attained by posterior-mean and posterior-dual-mean
  students, including the CE/RCE specializations and their entropy gap;
* the misfit = residual + conditional-variance split under squared loss;
* the cross-entropy bias-variance identity behind the ensemble estimator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .bregman import BregmanGeometry, NegativeEntropy, SquaredNorm, clamp_simplex
from .losses import _p, _rows, ce, entropy, kl, rce

__all__ = [
    "FiniteScenario",
    "TheoremReport",
    "IdealGainsReport",
    "PreconditionError",
    "random_scenario",
    "with_posterior_mean_students",
    "verify_risk_gap",
    "verify_risk_gap_product",
    "verify_posterior_mean_equality",
    "cross_entropy_form_report",
    "misfit_variance_split",
    "verify_ideal_student_gains",
    "ensemble_dual_mean",
    "bias_variance_estimate",
]


class PreconditionError(ValueError):
    """A verification routine was handed a scenario it does not cover."""


@dataclass(frozen=True)
class FiniteScenario:
    """Exactly enumerable joint teacher-student-input world.

    ``teacher_preds[i, x]`` and ``student_preds[j, x]`` are the label-space
    predictions of teacher i and student j on input x; ``joint[i, j]`` is
    P(W = i, W' = j).  Marginals and the teacher posterior given a student
    are derived from the joint table.
    """

    input_probs: np.ndarray  # (nx,)
    truth: np.ndarray  # (nx, K)
    teacher_preds: np.ndarray  # (nt, nx, K)
    student_preds: np.ndarray  # (ns, nx, K)
    joint: np.ndarray  # (nt, ns)
    seed: int = -1

    def __post_init__(self) -> None:
        mu = np.asarray(self.input_probs, dtype=float)
        g = np.asarray(self.truth, dtype=float)
        T = np.asarray(self.teacher_preds, dtype=float)
        S = np.asarray(self.student_preds, dtype=float)
        J = np.asarray(self.joint, dtype=float)
        nx = mu.shape[0]
        if g.shape[0] != nx or T.shape[1] != nx or S.shape[1] != nx:
            raise ValueError("inputs, truth, and predictions disagree on n_inputs")
        k = g.shape[1]
        if T.shape[2] != k or S.shape[2] != k:
            raise ValueError("prediction dimension must match the truth dimension")
        if J.shape != (T.shape[0], S.shape[0]):
            raise ValueError("joint table must be n_teachers x n_students")
        for name, table in (("input_probs", mu), ("joint", J)):
            if np.any(table < 0):
                raise ValueError(f"{name} has negative entries")
            if not abs(table.sum() - 1.0) <= 1e-12:  # NaN fails too
                raise ValueError(f"{name} sums to {table.sum()!r}, expected 1")
        for name, arr in (("input_probs", mu), ("truth", g), ("teacher_preds", T),
                          ("student_preds", S), ("joint", J)):
            object.__setattr__(self, name, arr)

    @property
    def n_teachers(self) -> int:
        return self.teacher_preds.shape[0]

    @property
    def n_students(self) -> int:
        return self.student_preds.shape[0]

    @property
    def teacher_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    @property
    def student_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    def posterior(self) -> np.ndarray:
        """P(W = i | W' = j) as an (nt, ns) table; zero columns stay zero."""
        marg = self.student_marginal
        post = np.zeros_like(self.joint)
        live = marg > 0
        post[:, live] = self.joint[:, live] / marg[live]
        return post


@dataclass(frozen=True)
class TheoremReport:
    """Two sides of one verified (in)equality plus its residual bookkeeping.

    ``slack`` is rhs - lhs and must be nonnegative (within tolerance) for
    inequality statements; ``exact_inner`` is the enumerated inner-product
    remainder that the Cauchy-Schwarz ``epsilon`` dominates.
    """

    lhs: float
    rhs: float
    misfit: float
    epsilon: float
    slack: float
    teacher_risk: float
    exact_inner: float


def _domain_check(geometry: BregmanGeometry, sc: FiniteScenario) -> None:
    # each public verifier checks its scenario once, before any arithmetic;
    # the helpers below and the geometry primitives they use never check
    geometry.check_point(sc.truth)
    geometry.check_point(sc.teacher_preds, interior=True)
    geometry.check_point(sc.student_preds, interior=True)


def _posterior_dual_means(
    sc: FiniteScenario, geometry: BregmanGeometry
) -> np.ndarray:
    """E*[f_W | W' = j] per (student, input): dual mean under the posterior."""
    post = sc.posterior()  # (nt, ns)
    dual_T = geometry.grad(sc.teacher_preds)  # (nt, nx, K)
    return geometry.from_dual(np.einsum("ij,ixk->jxk", post, dual_T))


def _posterior_means(sc: FiniteScenario) -> np.ndarray:
    """E[f_W | W' = j] per (student, input): arithmetic posterior mean."""
    return np.einsum("ij,ixk->jxk", sc.posterior(), sc.teacher_preds)


def _sqnorm(v: np.ndarray) -> np.ndarray:
    return np.sum(v * v, axis=-1)


def verify_risk_gap(
    sc: FiniteScenario, geometry: BregmanGeometry, direction: str = "forward"
) -> TheoremReport:
    """Enumerate the misfit inequality for the joint teacher-student law.

    Forward: student risk <= teacher risk - reverse misfit + eps1, where
    eps1 pairs the dual residual to the conditional dual mean with the
    primal gap to the truth.  Reverse swaps divergence arguments, uses the
    forward misfit, and pairs primal residual with dual gap.  The report
    also carries the exact inner-product remainder, for which the equality
    lhs = teacher risk - misfit + exact_inner holds identically.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")
    forward = direction == "forward"
    _domain_check(geometry, sc)
    mu = sc.input_probs
    T, S, G = sc.teacher_preds, sc.student_preds, sc.truth
    p_t, p_s = sc.teacher_marginal, sc.student_marginal

    def div(a, b):
        # forward risks are D(truth, model); reverse ones swap the arguments
        return geometry._divergence(a, b) if forward else geometry._divergence(b, a)

    lhs = float(np.einsum("j,jx,x->", p_s, div(G, S), mu))
    teacher_risk = float(np.einsum("i,ix,x->", p_t, div(G, T), mu))
    # joint-law misfit: D(student, teacher) forward, D(teacher, student) reverse
    misfit = float(np.einsum("ij,ijx,x->", sc.joint, div(S[None], T[:, None]), mu))
    if forward:
        # dual residual to the conditional dual mean, primal gap to the truth
        m_dual = _posterior_dual_means(sc, geometry)  # (ns, nx, K)
        resid = geometry.tangent_project(geometry.grad(S) - geometry.grad(m_dual))
        gap = G[None, :, :] - S
    else:
        # primal residual to the conditional mean, dual gap to the truth
        resid = S - _posterior_means(sc)
        gap = geometry.tangent_project(geometry.grad(G)[None, :, :] - geometry.grad(S))
    a2 = float(np.einsum("j,jx,x->", p_s, _sqnorm(resid), mu))
    b2 = float(np.einsum("j,jx,x->", p_s, _sqnorm(gap), mu))
    exact_inner = float(np.einsum("j,jx,x->", p_s, np.sum(-resid * gap, axis=-1), mu))

    epsilon = float(np.sqrt(a2) * np.sqrt(b2))
    rhs = teacher_risk - misfit + epsilon
    return TheoremReport(lhs, rhs, misfit, epsilon, rhs - lhs, teacher_risk, exact_inner)


def verify_risk_gap_product(
    sc: FiniteScenario, geometry: BregmanGeometry, direction: str = "forward"
) -> TheoremReport:
    """Product-distribution variant: misfit and residual under P_W x P_W'.

    This is :func:`verify_risk_gap` on the scenario whose joint table is the
    outer product of its marginals.  Under that coupling the teacher
    posterior given any student is the teacher marginal, so residual means
    are unconditional.  Applies to arbitrary model pairs; the misfit stays
    strictly positive for an independent copy of a non-degenerate teacher.
    """
    product = np.outer(sc.teacher_marginal, sc.student_marginal)
    # a joint summing to 1 + d has a product summing to about 1 + 2d, which
    # the scenario's 1e-12 sum check could reject, so renormalize
    return verify_risk_gap(replace(sc, joint=product / product.sum()), geometry, direction)


def with_posterior_mean_students(
    sc: FiniteScenario, geometry: BregmanGeometry, dual: bool
) -> FiniteScenario:
    """Replace student predictions by their posterior (dual) mean teacher.

    The joint table and everything else stay untouched; only the
    predictions move, which is all the equality statements condition on.
    """
    _domain_check(geometry, sc)
    preds = _posterior_dual_means(sc, geometry) if dual else _posterior_means(sc)
    return replace(sc, student_preds=preds)


def verify_posterior_mean_equality(
    sc: FiniteScenario, geometry: BregmanGeometry, direction: str = "forward"
) -> TheoremReport:
    """Equality form for posterior-(dual)-mean students.

    Requires the scenario's students to already equal the posterior dual
    mean (forward) or posterior mean (reverse) within 1e-10; then the
    student risk equals teacher risk minus the misfit evaluated at the
    posterior mean, and the Cauchy-Schwarz residual degenerates to zero.
    Returns the report whose ``lhs - (teacher_risk - misfit)`` is the
    equality's gap.
    """
    # verify_risk_gap checks the scenario before any arithmetic here
    report = verify_risk_gap(sc, geometry, direction)
    dual = direction == "forward"
    expected = (
        _posterior_dual_means(sc, geometry) if dual else _posterior_means(sc)
    )
    live = sc.student_marginal > 0
    gap = np.max(np.abs(sc.student_preds[live] - expected[live]), initial=0.0)
    if gap > 1e-10:
        raise PreconditionError(
            f"students deviate from the posterior {'dual ' if dual else ''}mean "
            f"by {gap:.3e} (> 1e-10)"
        )
    return report


def cross_entropy_form_report(sc: FiniteScenario, direction: str = "forward") -> TheoremReport:
    """Cross-entropy form of the misfit inequality on the simplex.

    Forward: CE student risk <= CE teacher risk - RCE misfit + student
    entropy + eps1.  Reverse: RCE risks with a CE misfit.  The slack equals
    the KL-form slack identically, which is what tests assert.
    """
    # verify_risk_gap checks the scenario before any arithmetic here
    base = verify_risk_gap(sc, NegativeEntropy(sc.truth.shape[1]), direction)
    mu = sc.input_probs
    T, S, G = sc.teacher_preds, sc.student_preds, sc.truth
    p_t, p_s = sc.teacher_marginal, sc.student_marginal
    student_entropy = float(np.einsum("j,jx,x->", p_s, entropy(S), mu))

    if direction == "forward":
        lhs = float(np.einsum("j,jx,x->", p_s, ce(G[None, :, :], S), mu))
        teacher_risk = float(np.einsum("i,ix,x->", p_t, ce(G[None, :, :], T), mu))
        pair = rce(T[:, None, :, :], S[None, :, :, :])
    else:
        lhs = float(np.einsum("j,jx,x->", p_s, rce(G[None, :, :], S), mu))
        teacher_risk = float(np.einsum("i,ix,x->", p_t, rce(G[None, :, :], T), mu))
        pair = ce(T[:, None, :, :], S[None, :, :, :])
    misfit = float(np.einsum("ij,ijx,x->", sc.joint, pair, mu))
    rhs = teacher_risk - misfit + student_entropy + base.epsilon
    return TheoremReport(
        lhs, rhs, misfit, base.epsilon, rhs - lhs, teacher_risk, base.exact_inner
    )


def misfit_variance_split(
    sc: FiniteScenario,
) -> tuple[float, float, float, float]:
    """Split the squared misfit into residual and conditional variance.

    For every input x, enumerated independently,

        E||s - E[t|W']||^2 = E||s - t||^2 - E||t - E[t|W']||^2.

    Returns the input-averaged (lhs, misfit, conditional variance) and the
    worst per-input |lhs - (misfit - conditional variance)|.  Since the
    conditional variance is nonnegative, the misfit dominates the lhs, the
    term that drives the Cauchy-Schwarz residual.
    """
    geometry = SquaredNorm(sc.truth.shape[1])
    _domain_check(geometry, sc)
    mu = sc.input_probs
    T, S = sc.teacher_preds, sc.student_preds
    p_s = sc.student_marginal
    m = _posterior_means(sc)  # (ns, nx, K)

    lhs_x = np.einsum("j,jx->x", p_s, _sqnorm(S - m))
    misfit_x = np.einsum("ij,ijx->x", sc.joint, _sqnorm(S[None] - T[:, None]))
    cond_var_x = np.einsum("ij,ijx->x", sc.joint, _sqnorm(T[:, None] - m[None]))

    worst = float(np.max(np.abs(lhs_x - (misfit_x - cond_var_x))))
    return float(mu @ lhs_x), float(mu @ misfit_x), float(mu @ cond_var_x), worst


@dataclass(frozen=True)
class IdealGainsReport:
    """Gains of posterior-mean students under CE and RCE risks.

    The CE gain of the dual-mean student equals the KL misfit at the dual
    mean; the RCE gain of the mean student falls short of the KL misfit at
    the mean by exactly the Jensen entropy gap, which is nonnegative.
    """

    ce_gain: float
    ce_misfit: float
    rce_gain: float
    rce_misfit: float
    entropy_gap: float


def verify_ideal_student_gains(sc: FiniteScenario) -> IdealGainsReport:
    """Measure both ideal-student gain identities on the simplex."""
    geometry = NegativeEntropy(sc.truth.shape[1])
    _domain_check(geometry, sc)
    mu = sc.input_probs
    T, G = sc.teacher_preds, sc.truth
    p_t, p_s = sc.teacher_marginal, sc.student_marginal
    teacher_ce = float(np.einsum("i,ix,x->", p_t, ce(G[None], T), mu))
    teacher_rce = float(np.einsum("i,ix,x->", p_t, rce(G[None], T), mu))

    S_dual = _posterior_dual_means(sc, geometry)
    student_ce = float(np.einsum("j,jx,x->", p_s, ce(G[None], S_dual), mu))
    ce_gain = teacher_ce - student_ce
    ce_misfit = float(
        np.einsum("ij,ijx,x->", sc.joint, kl(S_dual[None], T[:, None]), mu)
    )

    S_mean = _posterior_means(sc)
    student_rce = float(np.einsum("j,jx,x->", p_s, rce(G[None], S_mean), mu))
    rce_gain = teacher_rce - student_rce
    rce_misfit = float(
        np.einsum("ij,ijx,x->", sc.joint, kl(T[:, None], S_mean[None]), mu)
    )
    entropy_gap = float(
        np.einsum("j,jx,x->", p_s, entropy(S_mean), mu)
        - np.einsum("i,ix,x->", p_t, entropy(T), mu)
    )
    return IdealGainsReport(ce_gain, ce_misfit, rce_gain, rce_misfit, entropy_gap)


def ensemble_dual_mean(predictions) -> np.ndarray:
    """Dual mean of equally weighted stacked predictions: the normalized
    geometric mean over the first axis, row by row."""
    log_mean = np.log(np.stack(predictions)).mean(axis=0)
    return NegativeEntropy(log_mean.shape[-1]).from_dual(log_mean)


def bias_variance_estimate(runs, truth) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Split the mean one-hot CE risk of repeated runs into bias and variance.

    ``runs`` is an ``(r, ..., K)`` array of run predictions (or a sequence of
    ``r`` rows) and ``truth`` one run's shape, ``(..., K)``: a ``K`` row
    against ``(r, K)`` runs, or one row per point against ``(r, P, K)``
    runs; any other truth shape raises ``ValueError``.  The whole block is
    checked once: at least two runs, and every run and truth value in the
    simplex interior, so a one-hot truth must be clamped first.  Per point,
    bias = KL(truth, pi_hat) against the clamped dual-mean ensemble
    prediction pi_hat, and variance = mean KL(pi_hat, run); for one-hot
    (clamped) truth their sum reconstructs the mean cross-entropy of the
    runs.  Both come back shaped like ``truth`` without its last axis, as
    two floats for a single row.
    """
    runs = _rows(runs)
    if len(runs) < 2:
        raise ValueError("need at least two runs")
    truth = _p(truth)
    if truth.shape != runs.shape[1:]:
        raise ValueError(f"truth has shape {truth.shape}, one run has {runs.shape[1:]}")
    geometry = NegativeEntropy(runs.shape[-1])
    geometry.check_point(runs, interior=True)
    geometry.check_point(truth, interior=True)
    pi_hat = clamp_simplex(ensemble_dual_mean(runs))
    # the variance adds the runs in order: numpy sums eight or more values
    # along a lone axis pairwise, so np.mean would give a point other last
    # bits alone than beside other points
    variance = functools.reduce(np.add, kl(pi_hat, runs)) / len(runs)
    bias = kl(truth, pi_hat)
    if truth.ndim == 1:
        return float(bias), float(variance)
    return bias, variance


def random_scenario(
    geometry: BregmanGeometry,
    rng: np.random.Generator,
    n_teachers: int | None = None,
    n_students: int | None = None,
    n_inputs: int | None = None,
    seed: int = -1,
) -> FiniteScenario:
    """Draw a scenario with a flat-Dirichlet joint table.

    Sizes default to uniform draws over teachers in [1, 5], students in
    [1, 4], inputs in [2, 6].  Predictions are uniform over the domain:
    Dirichlet(1) points clamped into the simplex interior, or coordinates
    uniform on [-1, 1] for unconstrained geometries.
    """
    nt = int(n_teachers if n_teachers is not None else rng.integers(1, 6))
    ns = int(n_students if n_students is not None else rng.integers(1, 5))
    nx = int(n_inputs if n_inputs is not None else rng.integers(2, 7))
    k = geometry.dimension

    def draw(shape: tuple[int, ...]) -> np.ndarray:
        if geometry.kind == "negative-entropy":
            flat = rng.dirichlet(np.ones(k), size=int(np.prod(shape)))
            return clamp_simplex(flat).reshape(*shape, k)
        return rng.uniform(-1.0, 1.0, size=(*shape, k))

    joint = rng.dirichlet(np.ones(nt * ns)).reshape(nt, ns)
    return FiniteScenario(
        input_probs=rng.dirichlet(np.ones(nx)),
        truth=draw((nx,)),
        teacher_preds=draw((nt, nx)),
        student_preds=draw((ns, nx)),
        joint=joint,
        seed=seed,
    )
