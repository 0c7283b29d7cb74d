"""Ridge lab tests: closed form vs quadrature, solver optimality, the
misfit bound at finite size, internal consistency of the exact
input-average against a fresh Monte Carlo estimate, the d_w-space
trial solve and shared-draw sweep against the d_s-space Gram solve, each
trial's one normal stream against fresh draws, and the threaded sweep
against a serial loop."""

import os
import sys
import threading
import time
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from w2slab import cli, ridge
from w2slab.ridge import (
    MisfitEstimate,
    QuadratureError,
    RidgeConfig,
    h_closed_form,
    mp_density,
    mp_density_mass,
    mp_integral,
    ridge_solve,
    run_trial,
    simulate_misfit,
    sweep_misfit,
    verify_monotonicity,
)


class TestClosedForm:
    def test_spot_value(self):
        assert h_closed_form(1.0, 2.0) == pytest.approx(1 / np.sqrt(2) - 0.5, abs=1e-12)

    def test_vanishes_with_regularization(self):
        assert h_closed_form(1e-9, 2.0) <= 1e-8

    def test_limit_at_unit_capacity_ratio(self):
        # substituting gamma -> 1 gives 2 eta0 / (2 sqrt(eta0^2 + 4 eta0))
        val = h_closed_form(1.0, 1.0 + 1e-9)
        assert val == pytest.approx(1 / np.sqrt(5), abs=1e-6)

    def test_matches_decimal_oracle(self):
        """Within 1e-13 relative of the module's formula in 60-digit
        ``decimal`` arithmetic, down to eta0 = 1e-12, where that formula
        in floats cancels to exactly 0."""
        def oracle(eta0, gamma):
            e, g = Decimal(eta0), Decimal(gamma)
            num = e * (g + 1) + (g - 1) ** 2
            return num / (2 * (g * g - 2 * (1 - e) * g + (e + 1) ** 2).sqrt()) - (g - 1) / 2

        with localcontext() as ctx:
            ctx.prec = 60
            for eta0 in np.logspace(-12, 3, 31).tolist():
                for gamma in (1.1, 1.5, 2.0, 4.0, 16.0, 64.0):
                    exact = oracle(eta0, gamma)
                    error = abs(Decimal(h_closed_form(eta0, gamma)) - exact) / exact
                    assert error <= Decimal("1e-13"), (eta0, gamma)

    def test_complement_matches_decimal_oracle(self):
        """1 - h within 1e-15 relative of 60-digit ``decimal`` arithmetic, up to
        eta0 = 1e20, where the float h has long rounded to 1.0."""
        with localcontext() as ctx:
            ctx.prec = 60
            for eta0 in np.logspace(-3, 20, 47).tolist():
                for gamma in (1.5, 2.0, 4.0, 16.0, 64.0):
                    e, g = Decimal(eta0), Decimal(gamma)
                    num = e * (g + 1) + (g - 1) ** 2
                    s = (g * g - 2 * (1 - e) * g + (e + 1) ** 2).sqrt()
                    exact = (g + 1) / 2 - num / (2 * s)
                    error = abs(Decimal(ridge.h_complement(eta0, gamma)) - exact) / exact
                    assert error <= Decimal("1e-15"), (eta0, gamma)
        assert h_closed_form(1e17, 2.0) == 1.0
        assert ridge.h_complement(1e17, 2.0) == pytest.approx(4e-17, rel=1e-9)

    def test_both_routes_match_decimal_oracle_near_unit_capacity_ratio(self):
        """h and 1 - h within 1e-15 relative of 60-digit ``decimal``
        arithmetic where gamma is near 1 and eta0 is small, where the
        radicand written as ``gamma^2 - 2 (1 - eta0) gamma + (eta0 + 1)^2``
        cancels."""
        with localcontext() as ctx:
            ctx.prec = 60
            for eta0 in (1e-6, 1e-3):
                for gamma in (1.001, 1.01):
                    e, g = Decimal(eta0), Decimal(gamma)
                    num = e * (g + 1) + (g - 1) ** 2
                    s = (g * g - 2 * (1 - e) * g + (e + 1) ** 2).sqrt()
                    h = num / (2 * s) - (g - 1) / 2
                    for value, exact in ((h_closed_form(eta0, gamma), h),
                                         (ridge.h_complement(eta0, gamma), 1 - h)):
                        error = abs(Decimal(value) - exact) / exact
                        assert error <= Decimal("1e-15"), (eta0, gamma)

    def test_monotone_in_capacity(self):
        assert h_closed_form(1.0, 2.0) > h_closed_form(1.0, 4.0) > h_closed_form(1.0, 8.0)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            eta0 = float(rng.uniform(1e-3, 50.0))
            gamma = float(rng.uniform(1.0 + 1e-6, 50.0))
            assert 0.0 < h_closed_form(eta0, gamma) < 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            h_closed_form(0.0, 2.0)
        with pytest.raises(ValueError):
            h_closed_form(1.0, 1.0)
        with pytest.raises(ValueError):
            h_closed_form(1.0, 0.5)

    @pytest.mark.parametrize("eta0,gamma", [(1.0, np.inf), (np.inf, 2.0)])
    def test_rejects_non_finite(self, eta0, gamma):
        # every route to h, the density and the config share one domain check
        for call in (lambda: h_closed_form(eta0, gamma), lambda: mp_integral(eta0, gamma),
                     lambda: verify_monotonicity([eta0], [2.0, gamma]),
                     lambda: RidgeConfig(eta0=eta0, gamma=gamma)):
            with pytest.raises(ValueError, match="must be finite"):
                call()
        if gamma != 2.0:
            with pytest.raises(ValueError, match="must be finite"):
                mp_density([1.0], gamma)
            with pytest.raises(ValueError, match="must be finite"):
                mp_density_mass(gamma)


class TestQuadrature:
    def test_density_mass_is_one(self):
        for gamma in (1.5, 2.0, 4.0):
            assert mp_density_mass(gamma) == pytest.approx(1.0, abs=1e-6)

    def test_density_vanishes_outside_support(self):
        dens = mp_density([1e-6, 100.0], 2.0)
        np.testing.assert_allclose(dens, 0.0)

    def test_agrees_with_closed_form_on_grid(self):
        for gamma in (1.5, 2.0, 4.0):
            for eta0 in (0.5, 1.0, 2.0):
                assert abs(mp_integral(eta0, gamma) - h_closed_form(eta0, gamma)) <= 1e-6

    def test_spot_value(self):
        assert mp_integral(1.0, 2.0) == pytest.approx(0.2071067811, abs=1e-6)

    def test_monotone_increasing_in_eta0(self):
        vals = [mp_integral(e, 2.0) for e in (1.0, 10.0, 100.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_large_eta0_approaches_one(self):
        assert mp_integral(1e6, 2.0) == pytest.approx(1.0, abs=1e-2)

    # gamma = 1.01 puts the MP lower edge at 2.5e-5, next to the 1/lam pole
    HARD_GAMMAS = (1.01, 1.1, 1.5, 2.0, 4.0, 16.0, 100.0, 1e3)
    HARD_ETA0S = (1e-3, 1e-2, 0.1, 0.5, 1.0, 10.0, 1e3, 1e6)

    def test_agrees_with_closed_form_on_hard_grid(self):
        gaps = [abs(mp_integral(e, g) - h_closed_form(e, g))
                for g in self.HARD_GAMMAS for e in self.HARD_ETA0S]
        assert max(gaps) <= 1e-12

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("eta0", [1e-12, 1e-8, 1e-4])
    def test_small_eta0_agrees_to_relative_rounding(self, eta0, gamma):
        # h is about gamma eta0^2 / (gamma - 1)^3 here, far below an absolute
        # tolerance, so only a relative stop gets its digits right
        h = h_closed_form(eta0, gamma)
        assert abs(mp_integral(eta0, gamma) - h) / h <= 1e-13

    def test_density_mass_is_one_to_rounding(self):
        for gamma in self.HARD_GAMMAS:
            assert abs(mp_density_mass(gamma) - 1.0) <= 1e-12

    def test_unreachable_tolerance_raises(self):
        # below the rounding of the sum, no rule can certify the value
        with pytest.raises(QuadratureError, match="exceeds tolerance"):
            mp_integral(1.0, 2.0, tol=1e-30)
        with pytest.raises(QuadratureError):
            mp_density_mass(1.01, tol=1e-30)


class TestRidgeSolve:
    def test_scalar_closed_form(self):
        # one feature and one sample: w = a y / (a^2 + eta)
        a, y, eta = 1.7, 0.4, 0.9
        got = ridge_solve(np.array([[a]]), np.array([y]), eta)
        assert got[0] == pytest.approx(a * y / (a**2 + eta), abs=1e-14)

    def test_huge_penalty_shrinks_solution(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(10, 50))
        y = rng.normal(size=50)
        assert np.linalg.norm(ridge_solve(A, y, 1e12)) <= 1e-6

    def test_first_order_optimality(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            A = rng.normal(size=(30, 80))
            y = rng.normal(size=80)
            eta = float(rng.uniform(0.1, 5.0))
            w = ridge_solve(A, y, eta)
            grad = 2.0 * (A @ (A.T @ w - y) + eta * w)
            scale = max(np.linalg.norm(2.0 * A @ y), 1e-30)
            assert np.linalg.norm(grad) / scale <= 1e-8

    def test_zero_penalty_rejected(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), np.ones(2), 0.0)


class TestConfig:
    def test_derived_quantities(self):
        cfg = RidgeConfig(d_w=100, gamma=2.0, n_ratio=20.0, eta0=0.5)
        assert cfg.d_s == 200
        assert cfg.n == 2000
        assert cfg.eta == pytest.approx(10.0)
        assert cfg.teacher_scale == pytest.approx(cfg.B / cfg.d_w)

    def test_validation(self):
        with pytest.raises(ValueError):
            RidgeConfig(gamma=0.5)
        with pytest.raises(ValueError):
            RidgeConfig(eta0=-1.0)
        with pytest.raises(ValueError):
            RidgeConfig(d_w=1)
        with pytest.raises(ValueError):
            RidgeConfig(n_ratio=0.5)

    def test_teacher_scale_is_derived_not_set(self):
        # the teacher entry variance is B / d_w by construction
        for scale in (1.0, np.nan, -1.0):
            with pytest.raises(TypeError):
                RidgeConfig(teacher_scale=scale)
        with pytest.raises(AttributeError):
            RidgeConfig().teacher_scale = 1.0

    def test_teacher_norm_matches_bound_constant(self):
        cfg = RidgeConfig(d_w=400, gamma=1.5, seed=3)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, 0]))
        draws = rng.normal(0.0, np.sqrt(cfg.teacher_scale), size=(200, cfg.d_w))
        assert np.mean(np.sum(draws**2, axis=1)) == pytest.approx(cfg.B, rel=0.05)


class TestSimulation:
    def test_estimate_fields(self):
        cfg = RidgeConfig(d_w=40, gamma=2.0, n_ratio=5.0, eta0=1.0, seed=0)
        est = simulate_misfit(cfg, 8)
        assert est.trials == 8
        assert est.per_trial.shape == (8,)
        assert est.std_error >= 0.0
        assert est.bound == pytest.approx(h_closed_form(1.0, 2.0))
        assert est.retries == 0

    def test_deterministic_given_seed(self):
        cfg = RidgeConfig(d_w=40, gamma=2.0, n_ratio=5.0, eta0=1.0, seed=5)
        a = simulate_misfit(cfg, 4)
        b = simulate_misfit(cfg, 4)
        np.testing.assert_array_equal(a.per_trial, b.per_trial)

    def test_tiny_regularization_kills_misfit(self):
        cfg = RidgeConfig(d_w=60, gamma=2.0, n_ratio=50.0, eta0=1e-6, seed=1)
        est = simulate_misfit(cfg, 5)
        assert est.empirical_misfit / cfg.B <= 0.01

    def test_large_capacity_below_moderate_bound(self):
        cfg = RidgeConfig(d_w=40, gamma=16.0, n_ratio=10.0, eta0=0.5, seed=2)
        est = simulate_misfit(cfg, 5)
        assert est.empirical_misfit / cfg.B < h_closed_form(0.5, 2.0)

    def test_bound_satisfied_at_acceptance_cell(self):
        cfg = RidgeConfig(d_w=200, gamma=2.0, n_ratio=20.0, eta0=1.0, seed=7)
        est = simulate_misfit(cfg, 50)
        assert est.empirical_misfit / cfg.B <= 1.1 * h_closed_form(1.0, 2.0)

    def test_monte_carlo_cross_check(self):
        """The exact input-average matches fresh test draws within 3 SE."""
        cfg = RidgeConfig(d_w=80, gamma=2.0, n_ratio=10.0, eta0=1.0, seed=4)
        for t in range(3):
            res = run_trial(cfg, t)
            rng = np.random.default_rng(999 + t)
            x = rng.normal(0.0, np.sqrt(1.0 / cfg.d_w), size=(10_000, cfg.d_w))
            vals = (x @ res.residual_direction) ** 2
            se = vals.std(ddof=1) / np.sqrt(len(vals))
            assert abs(vals.mean() - res.misfit) <= 3.0 * se

    def test_misfit_decreases_with_capacity(self):
        means = []
        for gamma in (1.5, 2.0, 4.0):
            cfg = RidgeConfig(d_w=100, gamma=gamma, n_ratio=10.0, eta0=1.0, seed=6)
            means.append(simulate_misfit(cfg, 10).empirical_misfit)
        inversions = sum(b > a for a, b in zip(means, means[1:]))
        assert inversions <= 1


def draw(cfg, trial, attempt=0):
    """The teacher, student features and inputs of one trial, as run_trial draws them."""
    rng = ridge._trial_rng(cfg, trial, attempt)
    W = rng.normal(0.0, np.sqrt(cfg.teacher_scale), size=cfg.d_w)
    W1 = rng.normal(0.0, np.sqrt(1.0 / cfg.d_w), size=(cfg.d_s, cfg.d_w))
    X = rng.normal(0.0, np.sqrt(1.0 / cfg.d_w), size=(cfg.d_w, cfg.n))
    return W, W1, X


def gram_oracle(cfg, trial):
    """Residual W1^T w2 - W from the d_s-space Gram system, in extended precision.

    Solves (W1 G W1^T + eta I) w2 = W1 G W with G = X X^T.  The float64 LU
    solve is refined against the system held in long double, so the
    subtraction W1^T w2 - W, which loses about |W| / |residual| in relative
    accuracy at small eta0, still leaves a reference good to ~1e-15.
    """
    W, W1, X = (a.astype(np.longdouble) for a in draw(cfg, trial))
    G = X @ X.T
    K = W1 @ G @ W1.T + np.longdouble(cfg.eta) * np.eye(cfg.d_s, dtype=np.longdouble)
    b = W1 @ (G @ W)
    K64 = K.astype(float)
    w2 = np.zeros(cfg.d_s, dtype=np.longdouble)
    for _ in range(4):
        w2 += np.linalg.solve(K64, (b - K @ w2).astype(float))
    return (W1.T @ w2 - W).astype(float)


ORACLE_GRID = [(g, e) for g in (1.1, 1.5, 4.0, 16.0) for e in (1e-3, 0.5, 10.0)]


class TestTrialSolve:
    @pytest.mark.parametrize("gamma,eta0", ORACLE_GRID)
    def test_matches_gram_solve_in_d_s_space(self, gamma, eta0):
        cfg = RidgeConfig(d_w=40, gamma=gamma, n_ratio=5.0, eta0=eta0, seed=3)
        for t in range(2):
            res = run_trial(cfg, t)
            direction = gram_oracle(cfg, t)
            misfit = float(direction @ direction / cfg.d_w)
            assert abs(res.misfit - misfit) <= 1e-12 * misfit
            np.testing.assert_allclose(res.residual_direction, direction,
                                       rtol=0, atol=1e-12 * np.linalg.norm(direction))

    @pytest.mark.parametrize("gamma,eta0", ORACLE_GRID)
    def test_matches_ridge_solve_on_the_same_draw(self, gamma, eta0):
        """The float64 route on A = W1 X forms W1^T w2 - W by subtracting
        two vectors of norm ~|W|, so its error scales with |W|: compare the
        residual directions on that scale.  At eta0 = 1e-3 its misfit is
        up to ~5e-12 relative off the extended-precision Gram solve, which
        run_trial matches to 1e-12 (test above)."""
        cfg = RidgeConfig(d_w=40, gamma=gamma, n_ratio=5.0, eta0=eta0, seed=3)
        for t in range(2):
            W, W1, X = draw(cfg, t)
            direct = W1.T @ ridge_solve(W1 @ X, X.T @ W, cfg.eta) - W
            np.testing.assert_allclose(run_trial(cfg, t).residual_direction, direct,
                                       rtol=0, atol=1e-12 * np.linalg.norm(W))
            if eta0 >= 0.5:
                misfit = float(direct @ direct / cfg.d_w)
                assert abs(run_trial(cfg, t).misfit - misfit) <= 1e-12 * misfit


def force_workers(monkeypatch, cores):
    """Make ``sweep_workers`` see ``cores`` cores and a one-thread BLAS."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


class TestSweep:
    BASE = RidgeConfig(d_w=30, n_ratio=5.0, seed=12)
    GAMMAS = (1.5, 4.0, 2.0)
    ETA0S = (1.0, 0.25)

    def test_matches_separate_cells(self):
        est = sweep_misfit(self.BASE, self.GAMMAS, self.ETA0S, 4)
        assert list(est) == [(e, g) for e in self.ETA0S for g in self.GAMMAS]
        for (eta0, gamma), got in est.items():
            alone = simulate_misfit(replace(self.BASE, gamma=gamma, eta0=eta0), 4)
            np.testing.assert_allclose(got.per_trial, alone.per_trial, rtol=1e-12, atol=0)
            assert got.bound == alone.bound
            assert got.retries == alone.retries == 0

    def test_failed_solve_retries_only_its_cell(self, monkeypatch):
        clean = sweep_misfit(self.BASE, self.GAMMAS, self.ETA0S, 3)
        original = ridge.run_trial

        def flaky(cfg, trial, attempt=0, draw=None):
            if (cfg.eta0, cfg.gamma, trial, attempt) == (0.25, 4.0, 1, 0):
                raise np.linalg.LinAlgError("singular")
            return original(cfg, trial, attempt, draw)

        monkeypatch.setattr(ridge, "run_trial", flaky)
        est = sweep_misfit(self.BASE, self.GAMMAS, self.ETA0S, 3)
        for key, got in est.items():
            if key == (0.25, 4.0):
                assert got.retries == 1
                cfg = replace(self.BASE, gamma=4.0, eta0=0.25)
                assert got.per_trial[1] == original(cfg, 1, 1).misfit
                np.testing.assert_array_equal(got.per_trial[[0, 2]],
                                              clean[key].per_trial[[0, 2]])
            else:
                assert got.retries == 0
                np.testing.assert_array_equal(got.per_trial, clean[key].per_trial)

    def test_one_stream_per_trial(self, tmp_path, monkeypatch):
        calls = []
        original = ridge._trial_rng

        def counting(cfg, trial, attempt=0):
            calls.append((trial, attempt))
            return original(cfg, trial, attempt)

        monkeypatch.setattr(ridge, "_trial_rng", counting)
        code = cli.main([
            "ridge", "--set", "d_w=12", "--set", "n_ratio=3", "--set", "trials=3",
            "--set", "gammas=1.5,3", "--set", "eta0s=0.5,1,2", "--set", "seed=424242",
            "--out", str(tmp_path),
        ])
        assert code in (0, 1)
        # one stream per trial; one per (gamma, trial) would be 6, per cell 18
        assert sorted(calls) == [(t, 0) for t in range(3)]
        assert len((tmp_path / "ridge.csv").read_text().splitlines()) == 1 + 18

    def test_one_prefix_of_normals_per_trial(self, monkeypatch):
        original_rng, original_trial = ridge._trial_rng, ridge.run_trial
        d_w, n = self.BASE.d_w, self.BASE.n
        widest = max(replace(self.BASE, gamma=g).d_s for g in self.GAMMAS)
        # a sweep with no retry, then one whose cell (eta0=1, gamma=2) fails at
        # trial 1, attempt 0
        for retried in (None, (1.0, 2.0, 1)):
            drawn = {}

            class Counting:
                """A trial's generator that counts the normals drawn from it."""

                def __init__(self, rng, stream):
                    self.rng, self.stream = rng, stream
                    drawn.setdefault(stream, 0)

                def standard_normal(self, size=None, out=None):
                    drawn[self.stream] += out.size if out is not None else int(np.prod(size))
                    return self.rng.standard_normal(size, out=out)

            def flaky(cfg, trial, attempt=0, draw=None):
                if retried and (cfg.eta0, cfg.gamma, trial, attempt) == (*retried, 0):
                    raise np.linalg.LinAlgError("singular")
                return original_trial(cfg, trial, attempt, draw)

            monkeypatch.setattr(ridge, "_trial_rng", lambda cfg, trial, attempt=0:
                                Counting(original_rng(cfg, trial, attempt), (trial, attempt)))
            monkeypatch.setattr(ridge, "run_trial", flaky)
            sweep_misfit(self.BASE, self.GAMMAS, self.ETA0S, 3)
            # W, then the widest cell's W1 and X; every other cell reads a window
            # of them, the cells after a retried one included
            expected = {(t, 0): d_w + d_w * (widest + n) for t in range(3)}
            if retried is not None:
                # the retry draws its own cell's W, W1 and X only
                eta0, gamma, trial = retried
                expected[trial, 1] = d_w + d_w * (replace(self.BASE, gamma=gamma).d_s + n)
            assert drawn == expected

    def test_pool_matches_serial_oracle(self, monkeypatch):
        original = ridge.run_trial

        def failing(cfg, trial, attempt=0, draw=None):
            # the first attempt at every odd trial fails, in every cell
            if trial % 2 == 1 and attempt == 0:
                raise np.linalg.LinAlgError("singular")
            return original(cfg, trial, attempt, draw)

        # the oracle: the same sweep on one worker
        force_workers(monkeypatch, 1)
        monkeypatch.setattr(ridge, "run_trial", failing)
        serial = sweep_misfit(self.BASE, self.GAMMAS, self.ETA0S, 4)
        # more workers than cores, switching threads as often as it can
        force_workers(monkeypatch, 8)
        assert ridge.sweep_workers(4) == 4
        # the first two jobs wait for each other: one worker alone would break
        # the barrier, so passing shows two trials ran at once
        barrier = threading.Barrier(2, timeout=30)

        def meeting(cfg, trial, attempt=0, draw=None):
            if (cfg.gamma, cfg.eta0, trial, attempt) in ((1.5, 1.0, 0, 0), (1.5, 1.0, 1, 0)):
                barrier.wait()
            return failing(cfg, trial, attempt, draw)

        monkeypatch.setattr(ridge, "run_trial", meeting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            est = sweep_misfit(self.BASE, self.GAMMAS, self.ETA0S, 4)
        finally:
            sys.setswitchinterval(interval)
        for key, got in est.items():
            np.testing.assert_array_equal(got.per_trial, serial[key].per_trial)
            assert got.retries == serial[key].retries == 2
            # a retry draws its own cell, as run_trial alone does, bit for bit;
            # a first attempt reads its G from the trial's span Gram, whose
            # taller product may round differently from X X^T alone
            cfg = replace(self.BASE, gamma=key[1], eta0=key[0])
            alone = [original(cfg, t, t % 2).misfit for t in range(4)]
            assert got.per_trial[1::2].tolist() == alone[1::2]
            np.testing.assert_allclose(got.per_trial[::2], alone[::2], rtol=1e-13, atol=0)

    def test_worker_failure_raises_and_cancels_pending_draws(self, monkeypatch):
        force_workers(monkeypatch, 4)
        calls = []
        original = ridge.run_trial

        def failing(cfg, trial, attempt=0, draw=None):
            calls.append((cfg.gamma, trial))
            if (cfg.eta0, cfg.gamma, trial) == (0.25, 1.5, 0):
                raise np.linalg.LinAlgError("singular")
            time.sleep(0.002)
            return original(cfg, trial, attempt, draw)

        monkeypatch.setattr(ridge, "run_trial", failing)
        with pytest.raises(np.linalg.LinAlgError,
                           match="trial 0 of cell eta0=0.25, gamma=1.5 failed after 10"):
            sweep_misfit(self.BASE, self.GAMMAS, self.ETA0S, 20)
        # the failing cell ends the first of 20 jobs (one per trial, of 3 gammas
        # each); cancelling stops the rest
        assert len({(g, t) for g, t in calls}) < 30

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        for name in ridge._BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        # an unpinned BLAS takes every core for itself
        assert ridge.sweep_workers(100) == 1
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert ridge.sweep_workers(100) == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert ridge.sweep_workers(100) == 4
        assert ridge.sweep_workers(3) == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert ridge.sweep_workers(100) == 3

    def test_one_gram_product_per_trial_on_an_aligned_grid(self, monkeypatch):
        """The gammas' X windows start 9, 24 and 12 rows of n into the prefix,
        so one 45-row span Gram holds all three G; a grid whose offsets
        disagree mod n forms one X X^T per gamma."""
        calls = []
        original = ridge._span_gram

        def counting(z, lo, rows, n, out=None):
            calls.append(rows)
            return original(z, lo, rows, n, out)

        monkeypatch.setattr(ridge, "_span_gram", counting)
        sweep_misfit(self.BASE, self.GAMMAS, self.ETA0S, 3)
        assert calls == [45] * 3
        calls.clear()
        misaligned = replace(self.BASE, n_ratio=7.0)
        sweep_misfit(misaligned, self.GAMMAS, self.ETA0S, 3)
        assert calls == [30] * 9

    def test_one_gram_product_per_trial_at_the_default_grid_shape(self, monkeypatch):
        # d_w 200 and n 4000 put gamma 1.5, 2 and 4 at 15, 20 and 40 rows:
        # one 225-row Gram replaces three 200-row ones
        cells = [[RidgeConfig(gamma=g)] for g in (1.5, 2.0, 4.0)]
        assert ridge._gram_spans([group[0] for group in cells]) == [
            (15 * 4000, 225, [(0, 0), (1, 5), (2, 25)])]
        calls = []
        original = ridge._span_gram

        def counting(z, lo, rows, n, out=None):
            calls.append(rows)
            return original(z, lo, rows, n, out)

        monkeypatch.setattr(ridge, "_span_gram", counting)
        ridge._trial_cells(cells, 0)
        assert calls == [225]

    def test_span_only_when_it_saves_work(self):
        def spans(d_w, n_ratio, gammas):
            return [(rows, [i for i, _ in members]) for _, rows, members in ridge._gram_spans(
                [RidgeConfig(d_w=d_w, n_ratio=n_ratio, gamma=g) for g in gammas])]

        # 18 rows for two 12-row windows: 324 > 2 * 144 multiply-adds per column
        assert spans(12, 3.0, (1.5, 3.0)) == [(12, [0]), (12, [1])]
        # 45 rows for three 30-row windows: 2025 <= 3 * 900
        assert spans(30, 5.0, (1.5, 4.0, 2.0)) == [(45, [0, 1, 2])]
        # offsets 1350, 1800, 3600 mod n = 210: 90, 120, 30
        assert spans(30, 7.0, (1.5, 2.0, 4.0)) == [(30, [0]), (30, [1]), (30, [2])]
        # two windows that agree mod n share a span; the third has its own
        # d_s 45 and 52 put two windows one row apart; d_s 60 is alone
        assert spans(30, 7.0, (1.5, 1.74, 2.0)) == [(31, [0, 1]), (30, [2])]

    def test_rejects_bad_grid(self):
        for gammas, eta0s, trials in (((), (1.0,), 2), ((2.0, 2.0), (1.0,), 2),
                                      ((2.0,), (1.0, 1.0), 2), ((2.0,), (1.0,), 0),
                                      ((1.0,), (1.0,), 2), ((2.0,), (0.0,), 2),
                                      ((2.0,), (1e200,), 2), ((2.0,), (1.3e154,), 2),
                                      ((1e200,), (1.0,), 2),
                                      # h is finite here, but 1 - h overflows
                                      ((1.5,), (7e153,), 2)):
            with pytest.raises(ValueError):
                sweep_misfit(self.BASE, gammas, eta0s, trials)


def fresh_misfit(cfg, trial, attempt=0):
    """run_trial's arithmetic on a fresh rng.normal draw of W, W1 and X."""
    W, W1, X = draw(cfg, trial, attempt)
    K = (W1.T @ W1) @ (X @ X.T) + cfg.eta * np.eye(cfg.d_w)
    direction = -cfg.eta * np.linalg.solve(K, W)
    return float(direction @ direction / cfg.d_w)


class TestTrialStream:
    """Cells read W, W1 and X from their trial's one stream, bit for bit fresh draws."""

    BASE = RidgeConfig(d_w=30, n_ratio=5.0, seed=21)
    ETA0S = (1.0, 0.25)
    # the job sizes its one prefix for the widest gamma, and its span Gram for
    # the gammas' rows, wherever each comes: every order of the three gammas
    ORDERS = {"ascending": (1.5, 2.0, 4.0), "descending": (4.0, 2.0, 1.5),
              "mixed": (2.0, 4.0, 1.5), "widest_first": (4.0, 1.5, 2.0),
              "narrowest_first": (1.5, 4.0, 2.0), "middle_first": (2.0, 1.5, 4.0)}

    def failing_once(self, monkeypatch, gamma, trial):
        """Fail the first attempt-0 solve of (gamma, trial) after solving it."""
        original, failed = ridge.run_trial, []

        def flaky(cfg, t, attempt=0, draw=None):
            solved = original(cfg, t, attempt, draw)
            if (cfg.gamma, t, attempt) == (gamma, trial, 0) and not failed:
                failed.append(t)
                raise np.linalg.LinAlgError("singular")
            return solved

        monkeypatch.setattr(ridge, "run_trial", flaky)
        return failed

    def recording_windows(self, monkeypatch):
        """Record, per A G formed, its cell, W1 window and the rows of its span's Z."""
        spans, reads = [], []
        span_gram, gram_product = ridge._span_gram, ridge._gram_product

        def span(z, lo, rows, n, out=None):
            S = span_gram(z, lo, rows, n, out)
            spans.append((S, z[lo:lo + rows * n].reshape(rows, n).copy()))
            return S

        def product(cfg, z, S, row=0, out=None):
            W1 = z[:cfg.d_s * cfg.d_w].reshape(cfg.d_s, cfg.d_w).copy()
            # the rows of the Z whose Gram S is: a retry forms its own S
            Z = next(Z for formed, Z in reversed(spans) if formed is S)
            reads.append((cfg, W1, Z[row:row + cfg.d_w]))
            return gram_product(cfg, z, S, row, out)

        monkeypatch.setattr(ridge, "_span_gram", span)
        monkeypatch.setattr(ridge, "_gram_product", product)
        return reads

    @pytest.mark.parametrize("order", ORDERS)
    def test_cells_equal_fresh_draws(self, order, monkeypatch):
        """Every W1 and X window a cell reads is bit for bit a fresh draw, and
        so is every retried cell's misfit.  A first attempt reads its G from
        the span Gram, whose taller product may round differently from the
        fresh X X^T, so its misfit is compared within 1e-13."""
        gammas = self.ORDERS[order]
        # the first cell of the middle width fails once at trial 1: its attempt-1
        # stream must not reuse attempt 0's prefix, and the next cell must get
        # attempt 0's stream back
        middle = sorted(gammas)[1]
        groups = [[replace(self.BASE, gamma=g, eta0=e) for e in self.ETA0S] for g in gammas]
        cfgs = [cfg for group in groups for cfg in group]
        failed = self.failing_once(monkeypatch, middle, 1)
        reads = self.recording_windows(monkeypatch)
        for t in range(3):
            reads.clear()
            misfits, retries = ridge._trial_cells(groups, t)
            assert retries == [int((c.gamma, c.eta0, t) == (middle, self.ETA0S[0], 1))
                               for c in cfgs]
            # one A G per gamma of the job's draw, and one more for the retry
            assert sorted(cfg.gamma for cfg, _, _ in reads) == sorted(
                gammas + ((middle,) if t == 1 else ()))
            # the job reads each gamma's windows first, at attempt 0; the retry
            # then reads its own cell's, at attempt 1
            attempts = {}
            for cfg, W1, X in reads:
                attempts[cfg.gamma] = attempts.get(cfg.gamma, -1) + 1
                _, fresh_W1, fresh_X = draw(cfg, t, attempts[cfg.gamma])
                np.testing.assert_array_equal(W1, fresh_W1)
                np.testing.assert_array_equal(X, fresh_X)
            for c, r, got in zip(cfgs, retries, misfits):
                if r:
                    assert got == fresh_misfit(c, t, r)
                else:
                    assert got == pytest.approx(fresh_misfit(c, t), rel=1e-13, abs=0)
        assert failed == [1]
        failed = self.failing_once(monkeypatch, middle, 1)
        est = sweep_misfit(self.BASE, gammas, self.ETA0S, 3)
        assert failed == [1]
        for (eta0, gamma), got in est.items():
            cfg = replace(self.BASE, gamma=gamma, eta0=eta0)
            retried = (gamma, eta0) == (middle, self.ETA0S[0])
            assert got.retries == int(retried)
            for t, value in enumerate(got.per_trial.tolist()):
                if retried and t == 1:
                    assert value == fresh_misfit(cfg, t, 1)
                else:
                    assert value == pytest.approx(fresh_misfit(cfg, t), rel=1e-13, abs=0)

    def test_order_of_gammas_moves_no_cell(self):
        first, *rest = (sweep_misfit(self.BASE, gammas, self.ETA0S, 3)
                        for gammas in self.ORDERS.values())
        for est in rest:
            for key, got in est.items():
                np.testing.assert_array_equal(got.per_trial, first[key].per_trial)

    def test_misaligned_grid_cells_equal_fresh_draws(self):
        # offsets 1350, 1800 and 3600 disagree mod n = 210: one X X^T per gamma,
        # the product a fresh draw forms
        base = replace(self.BASE, n_ratio=7.0)
        gammas = self.ORDERS["mixed"]
        assert [rows for _, rows, _ in ridge._gram_spans(
            [replace(base, gamma=g) for g in gammas])] == [30, 30, 30]
        for (eta0, gamma), got in sweep_misfit(base, gammas, self.ETA0S, 3).items():
            cfg = replace(base, gamma=gamma, eta0=eta0)
            assert got.per_trial.tolist() == [fresh_misfit(cfg, t) for t in range(3)]

    def test_cells_of_other_seeds_widths_and_n_equal_fresh_draws(self):
        # one thread, consecutive cells of one trial whose streams differ or agree
        for cfg in (self.BASE, replace(self.BASE, n_ratio=8.0), replace(self.BASE, d_w=20),
                    replace(self.BASE, seed=22), replace(self.BASE, n_ratio=3.0),
                    replace(self.BASE, gamma=4.0)):
            assert run_trial(cfg, 0).misfit == fresh_misfit(cfg, 0)


class TestMonotonicityReport:
    def test_no_violations_on_acceptance_grid(self):
        rep = verify_monotonicity([0.1, 0.5, 1.0, 2.0], [1.1, 1.5, 2.0, 4.0, 8.0, 16.0])
        assert rep.ok
        assert rep.values.shape == (4, 6)
        assert np.all((rep.values > 0) & (rep.values < 1))

    def test_nan_value_is_a_violation(self, monkeypatch):
        original = ridge.h_closed_form
        monkeypatch.setattr(ridge, "h_closed_form", lambda eta0, gamma:
                            np.nan if gamma == 4.0 else original(eta0, gamma))
        rep = verify_monotonicity([1.0], [1.5, 2.0, 4.0])
        assert not rep.ok
        assert rep.violations == ("h not strictly decreasing in gamma at eta0=1.0",
                                  "h left (0, 1) at eta0=1.0")

    @pytest.mark.parametrize("eta0", [1e-12, 1e-8, 1e16, 1e17, 2.2925302703872296e16,
                                      1e20, 1e150])
    def test_no_violations_where_one_route_rounds_off(self, eta0):
        # at 1e-12 and 1e-8 every 1 - h rounds to within a few ulps of 1.0, in
        # no order, while h strictly decreases; from 1e16 the float h ties,
        # misorders or rounds one ulp above 1 (gamma 1.5 at 2.29e16), while
        # 1 - h strictly increases
        rep = verify_monotonicity([eta0], [1.5, 2.0, 4.0])
        assert rep.ok, rep.violations

    @pytest.mark.parametrize("eta0", [1e-12, 1.0, 1e16, 1e150])
    def test_non_monotone_h_is_a_violation(self, monkeypatch, eta0):
        # a wrong h that rises from gamma 2 to 4: both routes read it there at
        # ten times the eta0, where h is larger and 1 - h smaller
        for name in ("h_closed_form", "h_complement"):
            monkeypatch.setattr(ridge, name, lambda e, g, route=getattr(ridge, name):
                                route(10 * e if g == 4.0 else e, g))
        assert verify_monotonicity([eta0], [1.5, 2.0, 4.0]).violations == (
            f"h not strictly decreasing in gamma at eta0={eta0}",)

    def test_each_route_is_read_where_it_resolves(self, monkeypatch):
        # at 1e16 the float h ties at gamma 1.5 and 2, so 1 - h decides: a
        # 1 - h that stalls there fails
        complement = ridge.h_complement
        monkeypatch.setattr(ridge, "h_complement", lambda e, g:
                            complement(e, 1.5 if g == 2.0 else g))
        assert verify_monotonicity([1e16], [1.5, 2.0, 4.0]).violations == (
            "h not strictly decreasing in gamma at eta0=1e+16",)
        # at 1e-12, 1 - h rounds to 1.0 at gamma 1.5 and 2, so h decides: an h
        # that stalls there fails
        monkeypatch.undo()
        assert ridge.h_complement(1e-12, 1.5) == ridge.h_complement(1e-12, 2.0) == 1.0
        original = ridge.h_closed_form
        monkeypatch.setattr(ridge, "h_closed_form", lambda e, g:
                            original(e, 1.5 if g == 2.0 else g))
        assert verify_monotonicity([1e-12], [1.5, 2.0, 4.0]).violations == (
            "h not strictly decreasing in gamma at eta0=1e-12",)

    def test_values_sorted_by_gamma(self):
        rep = verify_monotonicity([1.0], [4.0, 2.0, 1.5])
        assert rep.gamma_grid == (1.5, 2.0, 4.0)
        assert np.all(np.diff(rep.values[0]) < 0)
