"""Finite-scenario verification suites.

Full enumeration is its own oracle: every claim is recomputed from the
scenario tables along an independent route (pre-Cauchy-Schwarz identity,
per-term summation, cross-entropy re-expression) before being compared.
"""

import dataclasses

import numpy as np
import pytest

from w2slab.bregman import NegativeEntropy, SquaredNorm, clamp_simplex
from w2slab.harness import (
    FiniteScenario,
    PreconditionError,
    bias_variance_estimate,
    cross_entropy_form_report,
    ensemble_dual_mean_prediction,
    misfit_variance_split,
    random_scenario,
    verify_posterior_mean_equality,
    verify_ideal_student_gains,
    verify_risk_gap,
    verify_risk_gap_product,
    with_posterior_mean_students,
)
from w2slab.losses import ProbVector


def make_geometry(kind, rng):
    if kind == "negative-entropy":
        return NegativeEntropy(int(rng.integers(2, 9)))
    return SquaredNorm(int(rng.integers(1, 5)))


class TestScenarioTables:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FiniteScenario(
                input_probs=np.array([0.6, 0.5]),
                truth=np.zeros((2, 2)),
                teacher_preds=np.zeros((1, 2, 2)),
                student_preds=np.zeros((1, 2, 2)),
                joint=np.array([[1.0]]),
            )
        with pytest.raises(ValueError):
            FiniteScenario(
                input_probs=np.array([1.0]),
                truth=np.zeros((1, 2)),
                teacher_preds=np.zeros((2, 1, 2)),
                student_preds=np.zeros((1, 1, 2)),
                joint=np.array([[0.7], [0.7]]),
            )

    def test_marginals_and_posterior(self):
        rng = np.random.default_rng(0)
        sc = random_scenario(NegativeEntropy(3), rng, n_teachers=3, n_students=2)
        np.testing.assert_allclose(sc.teacher_marginal.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(sc.student_marginal.sum(), 1.0, atol=1e-12)
        post = sc.posterior()
        np.testing.assert_allclose(post.sum(axis=0), 1.0, atol=1e-9)


class TestRiskGapJoint:
    @pytest.mark.parametrize("kind", ["squared-norm", "negative-entropy"])
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_inequality_on_random_scenarios(self, kind, direction):
        rng = np.random.default_rng(42)
        for s in range(100):
            g = make_geometry(kind, rng)
            sc = random_scenario(g, rng, seed=s)
            rep = verify_risk_gap(sc, g, direction)
            assert rep.slack >= -1e-9

    @pytest.mark.parametrize("kind", ["squared-norm", "negative-entropy"])
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_exact_identity_and_residual_domination(self, kind, direction):
        """lhs = teacher risk - misfit + exact inner product, and the
        Cauchy-Schwarz epsilon dominates that inner product."""
        rng = np.random.default_rng(43)
        for s in range(100):
            g = make_geometry(kind, rng)
            sc = random_scenario(g, rng, seed=s)
            rep = verify_risk_gap(sc, g, direction)
            lhs_again = rep.teacher_risk - rep.misfit + rep.exact_inner
            assert rep.lhs == pytest.approx(lhs_again, abs=1e-10)
            assert rep.epsilon >= abs(rep.exact_inner) - 1e-12

    def test_single_teacher_dirac_posterior(self):
        rng = np.random.default_rng(1)
        g = SquaredNorm(2)
        sc = random_scenario(g, rng, n_teachers=1)
        for direction in ("forward", "reverse"):
            rep = verify_risk_gap(sc, g, direction)
            assert rep.slack >= -1e-9

    def test_perfect_student_trivially_satisfied(self):
        rng = np.random.default_rng(2)
        g = SquaredNorm(3)
        sc = random_scenario(g, rng, n_students=2, n_inputs=4)
        sc = FiniteScenario(
            input_probs=sc.input_probs,
            truth=sc.truth,
            teacher_preds=sc.teacher_preds,
            student_preds=np.broadcast_to(
                sc.truth, sc.student_preds.shape
            ).copy(),
            joint=sc.joint,
        )
        for direction in ("forward", "reverse"):
            rep = verify_risk_gap(sc, g, direction)
            assert rep.lhs == pytest.approx(0.0, abs=1e-12)
            assert rep.slack >= -1e-9


class TestRiskGapProduct:
    @pytest.mark.parametrize("kind", ["squared-norm", "negative-entropy"])
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_inequality_product_law(self, kind, direction):
        rng = np.random.default_rng(44)
        for s in range(100):
            g = make_geometry(kind, rng)
            sc = random_scenario(g, rng, seed=s)
            rep = verify_risk_gap_product(sc, g, direction)
            assert rep.slack >= -1e-9
            assert rep.epsilon >= abs(rep.exact_inner) - 1e-12

    def test_product_posterior_is_teacher_marginal(self):
        """Under P_W x P_W' the teacher posterior given any student is P_W,
        so the conditional enumeration run on the product joint is the
        product variant."""
        rng = np.random.default_rng(3)
        for s in range(50):
            sc = random_scenario(make_geometry("negative-entropy", rng), rng, seed=s)
            product = dataclasses.replace(
                sc, joint=np.outer(sc.teacher_marginal, sc.student_marginal))
            post = product.posterior()
            for j in range(sc.n_students):
                np.testing.assert_allclose(post[:, j], sc.teacher_marginal, rtol=0, atol=1e-14)

    def test_joint_at_sum_tolerance_accepted(self):
        # 9e-13 off is within the scenario's 1e-12 check; its product is not
        sc = FiniteScenario(
            input_probs=np.array([0.5, 0.5]),
            truth=np.zeros((2, 2)),
            teacher_preds=np.zeros((2, 2, 2)),
            student_preds=np.ones((2, 2, 2)),
            joint=np.array([[0.3, 0.2], [0.1, 0.4 + 9e-13]]),
        )
        rep = verify_risk_gap_product(sc, SquaredNorm(2), "forward")
        assert rep.slack >= -1e-9

    def test_independent_copy_keeps_misfit_positive(self):
        rng = np.random.default_rng(4)
        g = SquaredNorm(2)
        base = random_scenario(g, rng, n_teachers=3, n_students=3)
        pw = base.teacher_marginal
        sc = FiniteScenario(
            input_probs=base.input_probs,
            truth=base.truth,
            teacher_preds=base.teacher_preds,
            student_preds=base.teacher_preds,  # independent copy of the teacher
            joint=np.outer(pw, pw),
        )
        rep = verify_risk_gap_product(sc, g, "forward")
        assert rep.misfit > 1e-6

    def test_single_pair_variants_coincide(self):
        rng = np.random.default_rng(5)
        g = NegativeEntropy(3)
        sc = random_scenario(g, rng, n_teachers=1, n_students=1)
        for direction in ("forward", "reverse"):
            a = verify_risk_gap(sc, g, direction)
            b = verify_risk_gap_product(sc, g, direction)
            assert a.lhs == pytest.approx(b.lhs, abs=1e-12)
            assert a.rhs == pytest.approx(b.rhs, abs=1e-12)


class TestPosteriorMeanEquality:
    @pytest.mark.parametrize("kind", ["squared-norm", "negative-entropy"])
    @pytest.mark.parametrize("direction,dual", [("forward", True), ("reverse", False)])
    def test_equality_for_posterior_mean_students(self, kind, direction, dual):
        rng = np.random.default_rng(45)
        for s in range(50):
            g = make_geometry(kind, rng)
            sc = with_posterior_mean_students(random_scenario(g, rng, seed=s), g, dual)
            rep = verify_posterior_mean_equality(sc, g, direction)
            assert abs(rep.lhs - (rep.teacher_risk - rep.misfit)) <= 1e-9
            assert rep.epsilon <= 1e-9

    def test_dirac_posterior_gain_vanishes(self):
        rng = np.random.default_rng(6)
        g = NegativeEntropy(2)
        sc = random_scenario(g, rng, n_teachers=1)
        sc = with_posterior_mean_students(sc, g, dual=True)
        rep = verify_posterior_mean_equality(sc, g, "forward")
        assert rep.misfit == pytest.approx(0.0, abs=1e-12)
        assert rep.lhs == pytest.approx(rep.teacher_risk, abs=1e-10)

    def test_two_teacher_squared_mean_gain_is_variance(self):
        g = SquaredNorm(1)
        p1, p2 = np.array([[0.2]]), np.array([[0.9]])
        sc = FiniteScenario(
            input_probs=np.array([1.0]),
            truth=np.array([[0.0]]),
            teacher_preds=np.stack([p1, p2]),
            student_preds=np.array([[[0.55]]]),
            joint=np.array([[0.5], [0.5]]),
        )
        rep = verify_posterior_mean_equality(sc, g, "reverse")
        variance = 0.5 * ((0.2 - 0.55) ** 2 + (0.9 - 0.55) ** 2)
        assert rep.misfit == pytest.approx(variance, abs=1e-12)

    def test_geometric_mean_student_forward_equality(self):
        g = NegativeEntropy(2)
        t1, t2 = clamp_simplex([0.8, 0.2]), clamp_simplex([0.2, 0.8])
        geo = np.sqrt(t1 * t2)
        student = geo / geo.sum()
        sc = FiniteScenario(
            input_probs=np.array([1.0]),
            truth=np.array(clamp_simplex([0.6, 0.4]))[None, :],
            teacher_preds=np.stack([t1[None, :], t2[None, :]]),
            student_preds=student[None, None, :],
            joint=np.array([[0.5], [0.5]]),
        )
        rep = verify_posterior_mean_equality(sc, g, "forward")
        assert abs(rep.lhs - (rep.teacher_risk - rep.misfit)) <= 1e-9

    def test_mismatched_students_rejected(self):
        rng = np.random.default_rng(7)
        g = NegativeEntropy(3)
        sc = random_scenario(g, rng, n_teachers=3)
        with pytest.raises(PreconditionError):
            verify_posterior_mean_equality(sc, g, "forward")


class TestCrossEntropyForm:
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_ce_form_reproduces_kl_slack(self, direction):
        rng = np.random.default_rng(46)
        for s in range(50):
            g = NegativeEntropy(int(rng.integers(2, 9)))
            sc = random_scenario(g, rng, seed=s)
            ce_form = cross_entropy_form_report(sc, direction)
            kl_form = verify_risk_gap(sc, g, direction)
            assert ce_form.slack == pytest.approx(kl_form.slack, abs=1e-9)
            assert ce_form.slack >= -1e-9


class TestMisfitVarianceSplit:
    def test_three_term_identity_random(self):
        rng = np.random.default_rng(47)
        for s in range(50):
            g = SquaredNorm(int(rng.integers(1, 5)))
            sc = random_scenario(g, rng, seed=s)
            lhs, misfit, cond_var = misfit_variance_split(sc)
            assert lhs == pytest.approx(misfit - cond_var, abs=1e-10)
            assert lhs <= misfit + 1e-12

    def test_dirac_posterior_no_conditional_variance(self):
        rng = np.random.default_rng(8)
        g = SquaredNorm(2)
        sc = random_scenario(g, rng, n_teachers=1)
        lhs, misfit, cond_var = misfit_variance_split(sc)
        assert cond_var == pytest.approx(0.0, abs=1e-12)
        assert lhs == pytest.approx(misfit, abs=1e-12)

    def test_posterior_mean_student_all_variance(self):
        rng = np.random.default_rng(9)
        g = SquaredNorm(3)
        sc = with_posterior_mean_students(
            random_scenario(g, rng, n_teachers=4, n_students=2), g, dual=False
        )
        lhs, misfit, cond_var = misfit_variance_split(sc)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert misfit == pytest.approx(cond_var, abs=1e-10)

    def test_rejects_simplex_geometry_scenarios(self):
        rng = np.random.default_rng(10)
        g = NegativeEntropy(3)
        sc = random_scenario(g, rng)
        # simplex predictions are legal squared-norm points, so this runs;
        # the operation is defined for the squared geometry only and the
        # identity still holds on those points
        lhs, misfit, cond_var = misfit_variance_split(sc)
        assert lhs == pytest.approx(misfit - cond_var, abs=1e-10)


class TestIdealStudentGains:
    def test_random_constructions(self):
        rng = np.random.default_rng(48)
        for s in range(50):
            g = NegativeEntropy(int(rng.integers(2, 9)))
            sc = random_scenario(g, rng, seed=s)
            rep = verify_ideal_student_gains(sc)
            assert rep.entropy_gap >= -1e-12
            assert rep.ce_gain == pytest.approx(rep.ce_misfit, abs=1e-9)
            assert rep.rce_misfit == pytest.approx(
                rep.rce_gain + rep.entropy_gap, abs=1e-9
            )

    def test_identical_teachers_no_gaps(self):
        g = NegativeEntropy(2)
        pred = clamp_simplex([0.7, 0.3])
        sc = FiniteScenario(
            input_probs=np.array([1.0]),
            truth=np.array(clamp_simplex([0.9, 0.1]))[None, :],
            teacher_preds=np.stack([pred[None, :], pred[None, :]]),
            student_preds=pred[None, None, :],
            joint=np.array([[0.5], [0.5]]),
        )
        rep = verify_ideal_student_gains(sc)
        assert rep.ce_gain == pytest.approx(0.0, abs=1e-12)
        assert rep.rce_gain == pytest.approx(0.0, abs=1e-12)
        assert rep.entropy_gap == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_two_teacher_entropy_gap(self):
        """Uniform posterior over mirrored teachers: the gap equals
        log 2 - H((0.9, 0.1)), evaluated directly."""
        g = NegativeEntropy(2)
        t1, t2 = clamp_simplex([0.9, 0.1]), clamp_simplex([0.1, 0.9])
        sc = FiniteScenario(
            input_probs=np.array([1.0]),
            truth=np.array(clamp_simplex([0.8, 0.2]))[None, :],
            teacher_preds=np.stack([t1[None, :], t2[None, :]]),
            student_preds=np.array([[[0.5, 0.5]]]),
            joint=np.array([[0.5], [0.5]]),
        )
        rep = verify_ideal_student_gains(sc)
        h_teacher = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))
        assert rep.entropy_gap == pytest.approx(np.log(2) - h_teacher, abs=1e-9)
        assert rep.entropy_gap == pytest.approx(0.368064, abs=1e-5)


class TestEnsembleAndBiasVariance:
    def test_identical_predictions_fixed_point(self):
        p = ProbVector([0.3, 0.7])
        np.testing.assert_allclose(
            ensemble_dual_mean_prediction([p, p, p]).probs, p.probs, atol=1e-12
        )

    def test_mirrored_pair_gives_uniform(self):
        got = ensemble_dual_mean_prediction([[0.8, 0.2], [0.2, 0.8]])
        np.testing.assert_allclose(got.probs, [0.5, 0.5], atol=1e-12)

    def test_matches_geometry_dual_mean(self):
        from w2slab.bregman import SampleSet

        g = NegativeEntropy(3)
        preds = [
            ProbVector.one_hot(0, 3).probs,
            np.array([1 / 3, 1 / 3, 1 / 3]),
            clamp_simplex([0.2, 0.5, 0.3]),
        ]
        got = ensemble_dual_mean_prediction(preds).probs
        want = g.dual_mean(SampleSet(np.stack(preds)))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_bias_variance_identity(self):
        runs = [ProbVector([0.8, 0.2]), ProbVector([0.6, 0.4])]
        truth = ProbVector.one_hot(0, 2)
        bias, variance = bias_variance_estimate(runs, truth)
        mean_ce = (-np.log(0.8) - np.log(0.6)) / 2
        assert bias + variance == pytest.approx(mean_ce, abs=1e-9)

    def test_identity_on_random_runs(self):
        from w2slab.losses import ce as ce_loss

        rng = np.random.default_rng(11)
        for k in (2, 4, 8):
            truth = ProbVector.one_hot(int(rng.integers(k)), k)
            runs = [
                ProbVector(clamp_simplex(rng.dirichlet(np.ones(k))))
                for _ in range(int(rng.integers(2, 7)))
            ]
            bias, variance = bias_variance_estimate(runs, truth)
            mean_ce = float(np.mean([ce_loss(truth, r) for r in runs]))
            assert bias + variance == pytest.approx(mean_ce, abs=1e-9)

    def test_degenerate_runs(self):
        p = ProbVector([0.7, 0.3])
        bias, variance = bias_variance_estimate([p, p], p)
        assert variance == pytest.approx(0.0, abs=1e-12)
        assert bias == pytest.approx(0.0, abs=1e-12)

    def test_one_run_rejected(self):
        with pytest.raises(ValueError):
            bias_variance_estimate([ProbVector([0.6, 0.4])], ProbVector([1.0, 0.0]))
