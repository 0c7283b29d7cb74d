"""Exact verification of misfit-based weak-to-strong inequalities.

Scenarios are finite tables: a finite input marginal, a ground-truth label
per input, finite teacher and student model families, and a joint
probability table over (teacher, student) indices.  Every expectation,
posterior, misfit, and residual is then a finite sum, so inequality and
equality claims are measured with zero sampling error.

Every scenario verifier also takes a block of scenarios, padded to common
sizes by :func:`stack_scenarios`, checks the whole block once and returns
one value per scenario.  Each sum adds its terms in index order
(``bregman._sum``), which padding only extends by exact zeros, so a
scenario's values in a block are bit for bit those of its lone call.

Measured statements, each by independent enumeration of both sides (the
verifiers return what they measure; the ``verify`` suite judges it):

* the risk-gap inequality driven by the expected misfit, with the
  Cauchy-Schwarz residual and the exact pre-Cauchy-Schwarz inner product;
* its product-distribution variant for arbitrary model pairs, which is the
  same enumeration run on the outer product of the two marginals;
* the equality forms attained by posterior-mean and posterior-dual-mean
  students, including the CE/RCE specializations and their entropy gap;
* the misfit = residual + conditional-variance split under squared loss.

:func:`bias_variance_estimate` checks runs and hands them to
``NegativeEntropy.reverse_decomposition``, the split-ensemble estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bregman import (BregmanGeometry, NegativeEntropy, SampleSet, SquaredNorm,
                      _check_weights, _pad, _scalar, _sum, clamp_simplex)
from .losses import _p, _rows, ce, entropy, rce

__all__ = [
    "FiniteScenario",
    "stack_scenarios",
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
    "bias_variance_estimate",
]


class PreconditionError(ValueError):
    """A verification routine was handed a scenario it does not cover."""


# each table's axes for one scenario; a block puts one scenario axis in front
_RANKS = {"input_probs": 1, "truth": 2, "teacher_preds": 3, "student_preds": 3, "joint": 2}


@dataclass(frozen=True)
class FiniteScenario:
    """Exactly enumerable joint teacher-student-input world.

    ``teacher_preds[i, x]`` and ``student_preds[j, x]`` are the label-space
    predictions of teacher i and student j on input x; ``joint[i, j]`` is
    P(W = i, W' = j).  Marginals and the teacher posterior given a student
    are derived from the joint table.

    A block of scenarios carries one more leading axis on all five arrays
    (see :func:`stack_scenarios`); every verifier then measures each
    scenario of the block and returns one value per scenario.
    """

    input_probs: np.ndarray  # ([b,] nx)
    truth: np.ndarray  # ([b,] nx, K)
    teacher_preds: np.ndarray  # ([b,] nt, nx, K)
    student_preds: np.ndarray  # ([b,] ns, nx, K)
    joint: np.ndarray  # ([b,] nt, ns)
    seed: int | tuple[int, ...] = -1

    def __post_init__(self) -> None:
        arrays = {name: np.asarray(getattr(self, name), dtype=float) for name in _RANKS}
        block = arrays["input_probs"].ndim - 1
        if block not in (0, 1):
            raise ValueError(
                f"input_probs has {block + 1} axes, expected 1 (one scenario) or 2 (a block)")
        for name, rank in _RANKS.items():
            if arrays[name].ndim != rank + block:
                raise ValueError(
                    f"{name} has {arrays[name].ndim} axes, expected {rank + block}")
        mu, g, T, S, J = arrays.values()
        if block and len({a.shape[0] for a in arrays.values()}) != 1:
            raise ValueError("block arrays disagree on the number of scenarios")
        nx = mu.shape[-1]
        if g.shape[-2] != nx or T.shape[-2] != nx or S.shape[-2] != nx:
            raise ValueError("inputs, truth, and predictions disagree on n_inputs")
        k = g.shape[-1]
        if T.shape[-1] != k or S.shape[-1] != k:
            raise ValueError("prediction dimension must match the truth dimension")
        if J.shape[-2:] != (T.shape[-3], S.shape[-3]):
            raise ValueError("joint table must be n_teachers x n_students")
        if 0 in (nx, *J.shape[-2:]):
            raise ValueError("a scenario needs at least one input, teacher and student")
        _check_weights("input_probs", mu, 1, "scenario")
        _check_weights("joint", J, 2, "scenario")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def n_teachers(self) -> int:
        return self.teacher_preds.shape[-3]

    @property
    def n_students(self) -> int:
        return self.student_preds.shape[-3]

    @property
    def n_inputs(self) -> int:
        return self.input_probs.shape[-1]

    @property
    def teacher_marginal(self) -> np.ndarray:
        return _sum(self.joint, -1)

    @property
    def student_marginal(self) -> np.ndarray:
        return _sum(self.joint, -2)

    def posterior(self) -> np.ndarray:
        """P(W = i | W' = j) as a ([b,] nt, ns) table; zero columns stay zero."""
        marg = self.student_marginal[..., None, :]
        return np.divide(self.joint, marg, out=np.zeros_like(self.joint), where=marg > 0)


def stack_scenarios(scenarios, geometry: BregmanGeometry) -> FiniteScenario:
    """One block of same-geometry scenarios, padded to common sizes.

    Each scenario is padded up to the block's largest teacher, student and
    input counts.  Padded teachers, students and inputs get zero joint mass
    and zero input probability, and predict (and are labelled with) the
    domain point of dual coordinate zero: the simplex centre under negative
    entropy, the origin under the squared norm.  A padded term enters every
    sum as an exact zero after the scenario's own terms, and a student with
    no mass keeps its own prediction as its posterior mean, so each
    scenario of the block measures what it measures alone.  The block's
    ``seed`` is the tuple of its scenarios' seeds.
    """
    k = geometry.dimension
    if not scenarios or any(sc.input_probs.ndim != 1 or sc.truth.shape[-1] != k
                            for sc in scenarios):
        raise ValueError(f"stack_scenarios takes one or more single scenarios of dimension {k}")
    fill = geometry.from_dual(np.zeros(k))
    mu, G, T, S, J = (_pad([getattr(sc, name) for sc in scenarios],
                           0.0 if name in ("input_probs", "joint") else fill)
                      for name in _RANKS)
    return FiniteScenario(mu, G, T, S, J, seed=tuple(sc.seed for sc in scenarios))


def _expect(weights: np.ndarray, values: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """sum over models and inputs of weights * values * input probability.

    ``values`` is ``([b,] m, nx)`` against ``([b,] m)`` model weights, or
    ``([b,] nt, ns, nx)`` against the joint table.  Inputs are summed
    first, then the last model axis, then the first.
    """
    n_model_axes = values.ndim - mu.ndim
    mu = mu.reshape(mu.shape[:-1] + (1,) * n_model_axes + mu.shape[-1:])
    total = weights[..., None] * values * mu
    for _ in range(n_model_axes + 1):
        total = _sum(total, -1)
    return total


@dataclass(frozen=True)
class TheoremReport:
    """Two sides of one verified (in)equality plus its residual bookkeeping.

    ``slack`` is rhs - lhs and must be nonnegative (within tolerance) for
    inequality statements; ``exact_inner`` is the enumerated inner-product
    remainder that the Cauchy-Schwarz ``epsilon`` dominates.  Each field is
    a float for one scenario and an array of one value per scenario for a
    block.
    """

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    misfit: float | np.ndarray
    epsilon: float | np.ndarray
    slack: float | np.ndarray
    teacher_risk: float | np.ndarray
    exact_inner: float | np.ndarray


def _domain_check(geometry: BregmanGeometry, sc: FiniteScenario) -> None:
    # each public verifier checks its scenario or block once, before any
    # arithmetic; the helpers below and the geometry primitives they use
    # never check.  A block's error names its first failing scenario
    block = sc.input_probs.ndim == 2
    geometry._check_rows(sc.truth, block, item="scenario")
    geometry._check_rows(sc.teacher_preds, block, interior=True, item="scenario")
    geometry._check_rows(sc.student_preds, block, interior=True, item="scenario")


def _posterior_average(sc: FiniteScenario, per_teacher: np.ndarray) -> np.ndarray:
    """Posterior average of ``([b,] nt, nx, K)`` teacher values per student.

    A student with no mass has a zero posterior column and averages to zero.
    """
    post = sc.posterior()[..., :, :, None, None]  # ([b,] nt, ns, 1, 1)
    return _sum(post * per_teacher[..., :, None, :, :], -4)


def _keep_massless(sc: FiniteScenario, means: np.ndarray) -> np.ndarray:
    # a student with no mass has no posterior mean and enters no
    # expectation, so it keeps its own prediction, a domain point; padded
    # students are such students
    live = (sc.student_marginal > 0)[..., :, None, None]
    return np.where(live, means, sc.student_preds)


def _posterior_dual_means(
    sc: FiniteScenario, geometry: BregmanGeometry
) -> np.ndarray:
    """E*[f_W | W' = j] per (student, input): dual mean under the posterior."""
    dual = _posterior_average(sc, geometry.grad(sc.teacher_preds))
    return _keep_massless(sc, geometry.from_dual(dual))


def _posterior_means(sc: FiniteScenario) -> np.ndarray:
    """E[f_W | W' = j] per (student, input): arithmetic posterior mean."""
    return _keep_massless(sc, _posterior_average(sc, sc.teacher_preds))


def _sqnorm(v: np.ndarray) -> np.ndarray:
    return np.sum(v * v, axis=-1)


def _pairs(T: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Teacher and student tables broadcast to ``([b,] nt, ns, nx, K)``."""
    return T[..., :, None, :, :], S[..., None, :, :, :]


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
    T, S = sc.teacher_preds, sc.student_preds
    G = sc.truth[..., None, :, :]  # one truth row set against every model
    p_t, p_s = sc.teacher_marginal, sc.student_marginal

    def div(a, b):
        # forward risks are D(truth, model); reverse ones swap the arguments
        return geometry._divergence(a, b) if forward else geometry._divergence(b, a)

    lhs = _expect(p_s, div(G, S), mu)
    teacher_risk = _expect(p_t, div(G, T), mu)
    # joint-law misfit: D(student, teacher) forward, D(teacher, student) reverse
    T_pair, S_pair = _pairs(T, S)
    misfit = _expect(sc.joint, div(S_pair, T_pair), mu)
    if forward:
        # dual residual to the conditional dual mean, primal gap to the truth
        m_dual = _posterior_dual_means(sc, geometry)  # ([b,] ns, nx, K)
        resid = geometry.tangent_project(geometry.grad(S) - geometry.grad(m_dual))
        gap = G - S
    else:
        # primal residual to the conditional mean, dual gap to the truth
        resid = S - _posterior_means(sc)
        gap = geometry.tangent_project(geometry.grad(G) - geometry.grad(S))
    a2 = _expect(p_s, _sqnorm(resid), mu)
    b2 = _expect(p_s, _sqnorm(gap), mu)
    exact_inner = _expect(p_s, np.sum(-resid * gap, axis=-1), mu)

    epsilon = np.sqrt(a2) * np.sqrt(b2)
    rhs = teacher_risk - misfit + epsilon
    return TheoremReport(*map(_scalar, (
        lhs, rhs, misfit, epsilon, rhs - lhs, teacher_risk, exact_inner)))


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
    product = sc.teacher_marginal[..., :, None] * sc.student_marginal[..., None, :]
    # a joint summing to 1 + d has a product summing to about 1 + 2d, which
    # the scenario's 1e-12 sum check could reject, so renormalize each one
    total = _sum(_sum(product, -1), -1)[..., None, None]
    return verify_risk_gap(replace(sc, joint=product / total), geometry, direction)


def with_posterior_mean_students(
    sc: FiniteScenario, geometry: BregmanGeometry, dual: bool
) -> FiniteScenario:
    """Replace student predictions by their posterior (dual) mean teacher.

    The joint table and everything else stay untouched; only the
    predictions move, which is all the equality statements condition on.
    A student with no mass keeps its own prediction.
    """
    _domain_check(geometry, sc)
    preds = _posterior_dual_means(sc, geometry) if dual else _posterior_means(sc)
    return replace(sc, student_preds=preds)


def verify_posterior_mean_equality(
    sc: FiniteScenario, geometry: BregmanGeometry, direction: str = "forward"
) -> TheoremReport:
    """Equality form for posterior-(dual)-mean students.

    Requires the scenario's students with mass to already equal the
    posterior dual mean (forward) or posterior mean (reverse) within 1e-10;
    then the student risk equals teacher risk minus the misfit evaluated at
    the posterior mean, and the Cauchy-Schwarz residual degenerates to
    zero.  Returns the report whose ``lhs - (teacher_risk - misfit)`` is
    the equality's gap.
    """
    # verify_risk_gap checks the scenario before any arithmetic here
    report = verify_risk_gap(sc, geometry, direction)
    dual = direction == "forward"
    expected = (
        _posterior_dual_means(sc, geometry) if dual else _posterior_means(sc)
    )
    # a student with no mass is its own expected prediction, so only the
    # students with mass can deviate
    gap = np.max(np.abs(sc.student_preds - expected))
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
    the KL-form slack identically, which is what tests assert.  The
    residual ``epsilon`` and ``exact_inner`` come from its own
    :func:`verify_risk_gap` call under ``NegativeEntropy(K)``.
    """
    # verify_risk_gap checks the scenario before any arithmetic here
    base = verify_risk_gap(sc, NegativeEntropy(sc.truth.shape[-1]), direction)
    mu = sc.input_probs
    T, S = sc.teacher_preds, sc.student_preds
    G = sc.truth[..., None, :, :]
    p_t, p_s = sc.teacher_marginal, sc.student_marginal
    student_entropy = _expect(p_s, entropy(S), mu)

    if direction == "forward":
        risk, pair_loss = ce, rce
    else:
        risk, pair_loss = rce, ce
    lhs = _expect(p_s, risk(G, S), mu)
    teacher_risk = _expect(p_t, risk(G, T), mu)
    misfit = _expect(sc.joint, pair_loss(*_pairs(T, S)), mu)
    rhs = teacher_risk - misfit + student_entropy + base.epsilon
    return TheoremReport(*map(_scalar, (
        lhs, rhs, misfit, base.epsilon, rhs - lhs, teacher_risk, base.exact_inner)))


def misfit_variance_split(sc: FiniteScenario) -> tuple:
    """Split the squared misfit into residual and conditional variance.

    For every input x, enumerated independently,

        E||s - E[t|W']||^2 = E||s - t||^2 - E||t - E[t|W']||^2.

    Returns the input-averaged (lhs, misfit, conditional variance) and the
    worst per-input |lhs - (misfit - conditional variance)|, as floats for
    one scenario and one value per scenario for a block.  Since the
    conditional variance is nonnegative, the misfit dominates the lhs, the
    term that drives the Cauchy-Schwarz residual.
    """
    geometry = SquaredNorm(sc.truth.shape[-1])
    _domain_check(geometry, sc)
    mu = sc.input_probs
    T, S = sc.teacher_preds, sc.student_preds
    m = _posterior_means(sc)  # ([b,] ns, nx, K)
    T_pair, S_pair = _pairs(T, S)
    weights = sc.joint[..., None]

    # per input: students, then teachers
    lhs_x = _sum(sc.student_marginal[..., None] * _sqnorm(S - m), -2)
    misfit_x = _sum(_sum(weights * _sqnorm(S_pair - T_pair), -2), -2)
    cond_var_x = _sum(_sum(weights * _sqnorm(T_pair - m[..., None, :, :, :]), -2), -2)

    worst = np.max(np.abs(lhs_x - (misfit_x - cond_var_x)), axis=-1)
    return tuple(_scalar(v) for v in (
        _sum(mu * lhs_x, -1), _sum(mu * misfit_x, -1), _sum(mu * cond_var_x, -1), worst))


@dataclass(frozen=True)
class IdealGainsReport:
    """Gains of posterior-mean students under CE and RCE risks.

    The CE gain of the dual-mean student equals the KL misfit at the dual
    mean; the RCE gain of the mean student falls short of the KL misfit at
    the mean by exactly the Jensen entropy gap, which is nonnegative.  Each
    field is a float for one scenario and an array for a block.
    """

    ce_gain: float | np.ndarray
    ce_misfit: float | np.ndarray
    rce_gain: float | np.ndarray
    rce_misfit: float | np.ndarray
    entropy_gap: float | np.ndarray


def verify_ideal_student_gains(sc: FiniteScenario) -> IdealGainsReport:
    """Measure both ideal-student gain identities on the simplex."""
    geometry = NegativeEntropy(sc.truth.shape[-1])
    _domain_check(geometry, sc)
    mu = sc.input_probs
    T, G = sc.teacher_preds, sc.truth[..., None, :, :]
    p_t, p_s = sc.teacher_marginal, sc.student_marginal
    teacher_ce = _expect(p_t, ce(G, T), mu)
    teacher_rce = _expect(p_t, rce(G, T), mu)

    S_dual = _posterior_dual_means(sc, geometry)
    ce_gain = teacher_ce - _expect(p_s, ce(G, S_dual), mu)
    T_pair, S_pair = _pairs(T, S_dual)
    ce_misfit = _expect(sc.joint, geometry._divergence(S_pair, T_pair), mu)

    S_mean = _posterior_means(sc)
    rce_gain = teacher_rce - _expect(p_s, rce(G, S_mean), mu)
    T_pair, S_pair = _pairs(T, S_mean)
    rce_misfit = _expect(sc.joint, geometry._divergence(T_pair, S_pair), mu)
    entropy_gap = _expect(p_s, entropy(S_mean), mu) - _expect(p_t, entropy(T), mu)
    return IdealGainsReport(*map(_scalar, (
        ce_gain, ce_misfit, rce_gain, rce_misfit, entropy_gap)))


def bias_variance_estimate(runs, truth) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Split the mean one-hot CE risk of repeated runs into bias and variance.

    ``runs`` is ``(r, K)`` or ``(r, P, K)`` (or a sequence of ``r`` rows),
    at least two runs, and ``truth`` one run's shape in the simplex
    interior, so a one-hot truth must be clamped first; another truth shape
    raises ``ValueError``.  Per point, the reverse decomposition of
    ``NegativeEntropy(K)`` over the equally weighted runs gives bias =
    KL(truth, pi_hat) against their dual mean pi_hat and variance = mean
    KL(pi_hat, run), so bias + variance + H(truth) is the runs' mean CE.
    Both are shaped like ``truth`` without its last axis: floats for a row.
    """
    runs = _rows(runs)
    if len(runs) < 2:
        raise ValueError("need at least two runs")
    truth = _p(truth)
    if truth.shape != runs.shape[1:]:
        raise ValueError(f"truth has shape {truth.shape}, one run has {runs.shape[1:]}")
    geometry = NegativeEntropy(runs.shape[-1])
    geometry.check_point(truth, interior=True)
    return geometry.reverse_decomposition(truth, SampleSet(np.moveaxis(runs, 0, -2)))


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
