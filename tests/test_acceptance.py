"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
inline) and asserts the criterion, including its runtime budget.
"""

import time

import numpy as np
import pytest

from w2slab import harness, losses, ridge, trainer
from w2slab.bregman import (
    Mahalanobis,
    NegativeEntropy,
    SampleSet,
    SquaredNorm,
    clamp_simplex,
    mean_minimizer,
)
from w2slab.cli import SCHEMAS, run_bias_variance


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def all_geometries():
    rng = np.random.default_rng(77)
    A = rng.normal(size=(3, 3))
    return [SquaredNorm(3), Mahalanobis(A @ A.T + 3 * np.eye(3)), NegativeEntropy(3)]


def draw_points(geometry, n, rng):
    if geometry.kind == "negative-entropy":
        return clamp_simplex(rng.dirichlet(np.ones(geometry.dimension), size=n))
    return rng.uniform(-2.0, 2.0, size=(n, geometry.dimension))


def test_criterion_1_bregman_identity_suite():
    start = time.time()
    rng = np.random.default_rng(101)
    worst_triple = 0.0
    worst_decomp = 0.0
    for geometry in all_geometries():
        for _ in range(1000):
            x, y, z = draw_points(geometry, 3, rng)
            worst_triple = max(worst_triple, abs(geometry.law_of_cosines_residual(x, y, z)))
        for _ in range(100):
            n = int(rng.integers(1, 6))
            sample = SampleSet(draw_points(geometry, n, rng), rng.dirichlet(np.ones(n)))
            target = draw_points(geometry, 1, rng)[0]
            variance, bias = geometry.forward_decomposition(sample, target)
            total = float(sample.weights @ geometry.divergence(sample.points, target))
            worst_decomp = max(worst_decomp, abs(variance + bias - total))
            rbias, rvar = geometry.reverse_decomposition(target, sample)
            rtotal = float(sample.weights @ geometry.divergence(target, sample.points))
            worst_decomp = max(worst_decomp, abs(rbias + rvar - rtotal))

    # expectation-minimizer grid oracle, binary simplex, step 1e-3
    geometry = NegativeEntropy(2)
    step = 1e-3
    grid1 = np.arange(step, 1.0, step)
    grid = np.stack([grid1, 1.0 - grid1], axis=-1)
    worst_grid = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 6))
        sample = SampleSet(
            clamp_simplex(rng.dirichlet(np.ones(2), size=n)), rng.dirichlet(np.ones(n)))
        fwd = np.array([sample.weights @ geometry.divergence(sample.points, g) for g in grid])
        worst_grid = max(worst_grid, abs(grid1[np.argmin(fwd)] - mean_minimizer(sample)[0]))
        rev = np.array([sample.weights @ geometry.divergence(g, sample.points) for g in grid])
        worst_grid = max(worst_grid, abs(grid1[np.argmin(rev)] - geometry.dual_mean(sample)[0]))

    elapsed = time.time() - start
    ok = worst_triple <= 1e-9 and worst_decomp <= 1e-10 and worst_grid <= step
    ok = ok and elapsed < 10.0
    report(1, "Bregman identity suite", ok,
           f"law-of-cosines {worst_triple:.2e} (<=1e-9), decompositions "
           f"{worst_decomp:.2e} (<=1e-10), grid offset {worst_grid:.2e} "
           f"(<= {step}), {elapsed:.1f}s (<10s)")


def test_criterion_2_risk_gap_inequality_suite():
    start = time.time()
    rng = np.random.default_rng(202)
    min_slack = float("inf")
    min_domination = float("inf")
    count = 0
    for index in range(100):
        for geometry in (SquaredNorm(int(rng.integers(1, 5))),
                         NegativeEntropy(int(rng.integers(2, 9)))):
            scenario = harness.random_scenario(geometry, rng, seed=index)
            for direction in ("forward", "reverse"):
                for verifier in (harness.verify_risk_gap, harness.verify_risk_gap_product):
                    rep = verifier(scenario, geometry, direction)
                    min_slack = min(min_slack, rep.slack)
                    min_domination = min(
                        min_domination, rep.epsilon - abs(rep.exact_inner))
                    count += 1
    elapsed = time.time() - start
    ok = min_slack >= -1e-9 and min_domination >= -1e-12 and elapsed < 30.0
    report(2, "risk-gap inequality suite", ok,
           f"{count} checks, min slack {min_slack:.2e} (>=-1e-9), min residual "
           f"domination {min_domination:.2e}, {elapsed:.1f}s (<30s)")


def test_criterion_3_ideal_student_equalities():
    start = time.time()
    rng = np.random.default_rng(303)
    worst_equality = 0.0
    worst_gain_identity = 0.0
    min_gap = float("inf")
    for index in range(50):
        for geometry in (SquaredNorm(int(rng.integers(1, 5))),
                         NegativeEntropy(int(rng.integers(2, 9)))):
            scenario = harness.random_scenario(geometry, rng, seed=index)
            for direction, dual in (("forward", True), ("reverse", False)):
                ideal = harness.with_posterior_mean_students(scenario, geometry, dual)
                rep = harness.verify_posterior_mean_equality(ideal, geometry, direction)
                worst_equality = max(
                    worst_equality, abs(rep.lhs - (rep.teacher_risk - rep.misfit)))
            if geometry.kind == "negative-entropy":
                prop = harness.verify_ideal_student_gains(scenario)
                worst_gain_identity = max(
                    worst_gain_identity,
                    abs(prop.rce_misfit - prop.rce_gain - prop.entropy_gap),
                    abs(prop.ce_gain - prop.ce_misfit),
                )
                min_gap = min(min_gap, prop.entropy_gap)
    elapsed = time.time() - start
    ok = worst_equality <= 1e-9 and worst_gain_identity <= 1e-9 and min_gap >= -1e-12
    ok = ok and elapsed < 10.0
    report(3, "ideal-student equalities", ok,
           f"posterior-mean equality gap {worst_equality:.2e} (<=1e-9), "
           f"entropy-gap reconstruction {worst_gain_identity:.2e} (<=1e-9), "
           f"min gap {min_gap:.2e} (>=0), {elapsed:.1f}s (<10s)")


def test_criterion_4_capacity_bound_quantitative():
    start = time.time()
    worst_ratio = 0.0
    worst_mp = abs(ridge.mp_integral(1.0, 2.0) - (1 / np.sqrt(2) - 0.5))
    inversion_ok = True
    gammas, eta0s = (1.5, 2.0, 4.0), (0.5, 1.0)
    base = ridge.RidgeConfig(d_w=200, n_ratio=20.0, B=1.0, seed=0)
    estimates = ridge.sweep_misfit(base, gammas, eta0s, 50)
    for eta0 in eta0s:
        means = []
        for gamma in gammas:
            est = estimates[(eta0, gamma)]
            h = ridge.h_closed_form(eta0, gamma)
            worst_mp = max(worst_mp, abs(ridge.mp_integral(eta0, gamma) - h))
            worst_ratio = max(worst_ratio, est.empirical_misfit / (base.B * h))
            means.append(est.empirical_misfit)
        inversions = sum(b > a for a, b in zip(means, means[1:]))
        inversion_ok &= inversions <= 1
    elapsed = time.time() - start
    ok = worst_ratio <= 1.1 and worst_mp <= 1e-6 and inversion_ok and elapsed < 300.0
    report(4, "capacity-ratio misfit bound", ok,
           f"max misfit/(B h) {worst_ratio:.4f} (<=1.1), quadrature gap "
           f"{worst_mp:.2e} (<=1e-6), monotone in capacity: {inversion_ok}, "
           f"{elapsed:.1f}s (<300s)")


def test_criterion_5_loss_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(505)

    # the loss table's analytic gradients vs central differences of the
    # K-class values along yhat_1, yhat_2 = 1 - yhat_1, at 1e3 points
    def tied_difference(loss, y, yhat, step=1e-6):
        shift = np.array([step, -step])
        return (loss(y, yhat + shift) - loss(y, yhat - shift)) / (2 * step)

    grads_ok = True
    cfg = losses.CompositeLossConfig()
    pairs = [("ce", losses.ce), ("rce", losses.rce), ("kl", losses.kl), ("rkl", losses.rkl)]
    for _ in range(1000):
        y1, p1 = rng.uniform(1e-3, 1 - 1e-3, size=2)
        y = np.array([y1, 1 - y1])
        yhat = np.array([p1, 1 - p1])
        for name, loss in pairs:
            a = losses.loss_grads(name, y[None], yhat[None], cfg)[0]
            n = tied_difference(loss, y, yhat)
            grads_ok &= bool(np.all(np.abs(a - n) <= 1e-5 * np.abs(n) + 1e-9))

    # uniform-label reverse cross-entropy is the constant log K
    worst_const = 0.0
    for k in (2, 3, 5, 8):
        uniform = losses.ProbVector.uniform(k)
        for _ in range(250):
            yhat = clamp_simplex(rng.dirichlet(np.ones(k)))
            worst_const = max(worst_const, abs(float(losses.rce(uniform, yhat)) - np.log(k)))

    # smoothed-risk ordering over random tasks and candidates
    grid1 = np.linspace(1e-9, 1 - 1e-9, 1001)
    grid = np.stack([grid1, 1 - grid1], axis=-1)
    ordering_ok = True
    for _ in range(100):
        n_inputs = int(rng.integers(2, 7))
        probs = rng.dirichlet(np.ones(n_inputs))
        y1 = rng.uniform(0.01, 0.99, size=n_inputs)
        labels = np.stack([y1, 1 - y1], axis=-1)
        alpha = float(rng.uniform(0.05, 1.0))
        smoothed = losses.smooth_labels(labels, alpha)
        fstar = np.stack([grid[np.argmin(losses.rce(smoothed[i], grid))]
                          for i in range(n_inputs)])

        def risk(model, lab):
            return float(np.sum(probs * losses.rce(lab, model)))

        fstar_risks = (risk(fstar, smoothed), risk(fstar, labels))
        for _ in range(20):
            m1 = rng.uniform(1e-3, 1 - 1e-3, size=n_inputs)
            model = np.stack([m1, 1 - m1], axis=-1)
            f_risks = (risk(model, smoothed), risk(model, labels))
            _, mid, rhs = losses.rce_ordering_gap(f_risks, fstar_risks)
            ordering_ok &= (mid >= -1e-9) and (mid <= rhs + 1e-9)

    elapsed = time.time() - start
    ok = grads_ok and worst_const <= 1e-12 and ordering_ok and elapsed < 30.0
    report(5, "loss and gradient suite", ok,
           f"gradients match: {grads_ok}, uniform-rce constancy "
           f"{worst_const:.2e} (<=1e-12), ordering holds: {ordering_ok}, "
           f"{elapsed:.1f}s (<30s)")


def test_criterion_6_smoothing_trend():
    start = time.time()
    task = trainer.SyntheticTask(seed=11)
    alphas = [0.0, 0.001, 0.01, 0.1, 1.0]
    rows = trainer.alpha_sweep(task, ["ce", "rce"], alphas, repeats=3)

    def cell(loss, alpha):
        return float(np.mean(
            [r["student_acc"] for r in rows
             if r["loss"] == loss and r["alpha"] == alpha]))

    rce_accs = [cell("rce", a) for a in alphas if a >= 0.001]
    rce_spread = max(rce_accs) - min(rce_accs)
    ce_gap = cell("ce", 1.0) - cell("ce", 0.01)
    votes = 0
    for rep in range(3):
        dist = {r["loss"]: r["param_distance"] for r in rows
                if r["alpha"] == 1.0 and r["repeat"] == rep}
        votes += dist["rce"] >= dist["ce"]
    elapsed = time.time() - start
    ok = rce_spread <= 0.05 and ce_gap >= 0.05 and votes >= 2 and elapsed < 300.0
    report(6, "label-smoothing robustness trend", ok,
           f"rce spread {rce_spread:.3f} (<=0.05), ce drop {ce_gap:.3f} "
           f"(>=0.05), rce farther in {votes}/3 repeats, {elapsed:.1f}s (<300s)")


def test_criterion_7_bias_variance_estimator():
    start = time.time()
    cfg = {key: default for key, (_, default) in SCHEMAS["bias-variance"].items()}
    rows, verdicts, _ = run_bias_variance(cfg)
    identity = [v for v in verdicts if v["name"] == "bias_variance_identity"][0]
    ensemble = [v for v in verdicts if v["name"] == "ensemble_reduces_variance"][0]
    worst = max(abs(r["bias"] + r["variance"] - r["mean_ce"]) for r in rows)
    elapsed = time.time() - start
    ok = identity["passed"] and ensemble["passed"] and worst <= 1e-9
    ok = ok and elapsed < 300.0
    report(7, "bias-variance estimator", ok,
           f"identity gap {worst:.2e} (<=1e-9), {ensemble['detail']}, "
           f"{elapsed:.1f}s (<300s)")
