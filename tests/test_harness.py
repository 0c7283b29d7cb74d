"""Finite-scenario verification suites.

Full enumeration is its own oracle: every claim is recomputed from the
scenario tables along an independent route (pre-Cauchy-Schwarz identity,
per-term summation, cross-entropy re-expression) before being compared.
"""

import dataclasses

import numpy as np
import pytest

from w2slab.bregman import (
    BregmanGeometry,
    DomainError,
    NegativeEntropy,
    SampleSet,
    SquaredNorm,
    clamp_simplex,
)
from w2slab.harness import (
    FiniteScenario,
    PreconditionError,
    bias_variance_estimate,
    cross_entropy_form_report,
    ensemble_dual_mean,
    misfit_variance_split,
    random_scenario,
    stack_scenarios,
    verify_posterior_mean_equality,
    verify_ideal_student_gains,
    verify_risk_gap,
    verify_risk_gap_product,
    with_posterior_mean_students,
)
from w2slab.losses import ProbVector


DIRECTIONS = ("forward", "reverse")


def make_geometry(kind, rng):
    if kind == "negative-entropy":
        return NegativeEntropy(int(rng.integers(2, 9)))
    return SquaredNorm(int(rng.integers(1, 5)))


def one_scenario_arrays():
    return dict(
        input_probs=np.array([0.5, 0.5]),
        truth=np.zeros((2, 2)),
        teacher_preds=np.zeros((1, 2, 2)),
        student_preds=np.zeros((1, 2, 2)),
        joint=np.array([[1.0]]),
    )


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

    def test_nan_input_probs_rejected(self):
        # abs(nan - 1) > tol is False, so the sum check must be written to fail on NaN
        with pytest.raises(ValueError, match="input_probs"):
            FiniteScenario(
                input_probs=np.array([np.nan, 0.5]),
                truth=np.zeros((2, 2)),
                teacher_preds=np.zeros((1, 2, 2)),
                student_preds=np.zeros((1, 2, 2)),
                joint=np.array([[1.0]]),
            )

    def test_nan_joint_rejected(self):
        with pytest.raises(ValueError, match="joint"):
            FiniteScenario(
                input_probs=np.array([1.0]),
                truth=np.zeros((1, 2)),
                teacher_preds=np.zeros((2, 1, 2)),
                student_preds=np.zeros((1, 1, 2)),
                joint=np.array([[np.nan], [0.5]]),
            )

    @pytest.mark.parametrize("name, shape", [
        ("input_probs", ()), ("input_probs", (1, 1, 2)), ("truth", (2,)),
        ("teacher_preds", (2, 2)), ("student_preds", (1, 1, 1, 2, 2)), ("joint", (1,))])
    def test_malformed_rank_names_the_array(self, name, shape):
        arrays = one_scenario_arrays()
        arrays[name] = np.zeros(shape)
        with pytest.raises(ValueError, match=name):
            FiniteScenario(**arrays)

    @pytest.mark.parametrize("name", ["truth", "teacher_preds", "student_preds", "joint"])
    def test_block_arrays_must_all_carry_the_block_axis(self, name):
        arrays = {key: value[None] for key, value in one_scenario_arrays().items()}
        arrays[name] = arrays[name][0]
        with pytest.raises(ValueError, match=name):
            FiniteScenario(**arrays)

    def test_block_arrays_must_agree_on_scenarios(self):
        arrays = {key: value[None] for key, value in one_scenario_arrays().items()}
        arrays["joint"] = np.ones((2, 1, 1))
        with pytest.raises(ValueError, match="number of scenarios"):
            FiniteScenario(**arrays)

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

    @pytest.mark.parametrize("geometry", [SquaredNorm(3), NegativeEntropy(3)],
                             ids=["squared-norm", "negative-entropy"])
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_massless_student_keeps_its_prediction(self, geometry, direction):
        # student 1 has no joint mass, hence no posterior: its mean would be
        # the zero row, which is no simplex point
        sc = random_scenario(geometry, np.random.default_rng(3),
                             n_teachers=2, n_students=2, n_inputs=3)
        joint = sc.joint.copy()
        joint[:, 1] = 0.0
        sc = dataclasses.replace(sc, joint=joint / joint.sum())
        ideal = with_posterior_mean_students(sc, geometry, dual=direction == "forward")
        np.testing.assert_array_equal(ideal.student_preds[1], sc.student_preds[1])
        rep = verify_posterior_mean_equality(ideal, geometry, direction)
        assert abs(rep.lhs - (rep.teacher_risk - rep.misfit)) <= 1e-12
        if geometry.kind == "negative-entropy":
            gains = verify_ideal_student_gains(sc)
            assert np.all(np.isfinite(dataclasses.astuple(gains)))
            assert gains.ce_gain == pytest.approx(gains.ce_misfit, abs=1e-12)


class TestCheckedOnce:
    @pytest.mark.parametrize("kind", ["squared-norm", "negative-entropy"])
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_risk_gap_checks_each_prediction_array_once(self, kind, direction,
                                                         monkeypatch):
        rng = np.random.default_rng(50)
        g = make_geometry(kind, rng)
        sc = random_scenario(g, rng, n_teachers=3, n_students=2)
        checked = []
        check_point = BregmanGeometry.check_point

        def counting_check(self, x, interior=False):
            checked.append(x)
            return check_point(self, x, interior)

        monkeypatch.setattr(BregmanGeometry, "check_point", counting_check)
        verify_risk_gap(sc, g, direction)
        expected = (sc.truth, sc.teacher_preds, sc.student_preds)
        assert len(checked) == 3
        assert all(a is b for a, b in zip(checked, expected))

        block = stack_scenarios([random_scenario(g, rng) for _ in range(5)], g)
        checked.clear()
        verify_risk_gap(block, g, direction)
        expected = (block.truth, block.teacher_preds, block.student_preds)
        assert len(checked) == 3
        assert all(a is b for a, b in zip(checked, expected))

    @pytest.mark.parametrize("verifier", [
        lambda sc, g: verify_risk_gap(sc, g, "forward"),
        lambda sc, g: verify_risk_gap(sc, g, "reverse"),
        lambda sc, g: verify_risk_gap_product(sc, g, "forward"),
        lambda sc, g: verify_risk_gap_product(sc, g, "reverse"),
        lambda sc, g: with_posterior_mean_students(sc, g, dual=True),
        lambda sc, g: with_posterior_mean_students(sc, g, dual=False),
        lambda sc, g: verify_posterior_mean_equality(sc, g, "forward"),
        lambda sc, g: verify_posterior_mean_equality(sc, g, "reverse"),
        lambda sc, g: cross_entropy_form_report(sc, "forward"),
        lambda sc, g: cross_entropy_form_report(sc, "reverse"),
        lambda sc, g: verify_ideal_student_gains(sc),
    ], ids=["risk_gap_fwd", "risk_gap_rev", "product_fwd", "product_rev",
            "ideal_dual", "ideal_mean", "equality_fwd", "equality_rev",
            "ce_form_fwd", "ce_form_rev", "ideal_gains"])
    def test_off_simplex_teacher_raises_domain_error(self, verifier):
        # the row sums to one but has negative coordinates, so a log taken
        # before the check would warn (an error under the test settings);
        # misfit_variance_split is left out: its squared geometry accepts it
        g = NegativeEntropy(3)
        sc = random_scenario(g, np.random.default_rng(51), n_teachers=2, n_students=2)
        T = sc.teacher_preds.copy()
        T[0, 0] = [1.5, -0.25, -0.25]
        with pytest.raises(DomainError):
            verifier(dataclasses.replace(sc, teacher_preds=T), g)


# every scenario verifier, as one list of measurements for a scenario or block
BLOCK_VERIFIERS = {
    "risk_gap": lambda sc, g: [verify_risk_gap(sc, g, d) for d in DIRECTIONS],
    "product": lambda sc, g: [verify_risk_gap_product(sc, g, d) for d in DIRECTIONS],
    "posterior_mean_students": lambda sc, g: [
        with_posterior_mean_students(sc, g, dual).student_preds for dual in (True, False)],
    "equality": lambda sc, g: [
        verify_posterior_mean_equality(with_posterior_mean_students(sc, g, d == "forward"),
                                       g, d) for d in DIRECTIONS],
    "ce_form": lambda sc, g: [cross_entropy_form_report(sc, d) for d in DIRECTIONS],
    "split": lambda sc, g: [misfit_variance_split(sc)],
    "ideal_gains": lambda sc, g: [verify_ideal_student_gains(sc)],
}
SIMPLEX_ONLY = {"ce_form", "ideal_gains"}


def scenario_row(result, row, sc):
    """One scenario's measurement out of a block result, as bytes."""
    if isinstance(result, np.ndarray):  # student predictions, unpadded
        return result[row, :sc.n_students, :sc.n_inputs].tobytes()
    values = dataclasses.astuple(result) if dataclasses.is_dataclass(result) else result
    return np.array([v[row] for v in values]).tobytes()


def lone(result):
    """A one-scenario measurement, as bytes."""
    if isinstance(result, np.ndarray):
        return result.tobytes()
    values = dataclasses.astuple(result) if dataclasses.is_dataclass(result) else result
    assert all(type(v) is float for v in values)
    return np.array(values).tobytes()


class TestScenarioBlocks:
    # (teachers, students, inputs): mixed, so every scenario but the largest
    # is padded on some axis
    SIZES = [(1, 1, 2), (5, 4, 6), (3, 2, 4), (2, 4, 3), (4, 1, 5)]

    @staticmethod
    def draw(g, sizes, seed):
        rng = np.random.default_rng(seed)
        return [random_scenario(g, rng, *size, seed=i) for i, size in enumerate(sizes)]

    @pytest.mark.parametrize("g, verifier", [
        (g, verifier)
        for g in (SquaredNorm(1), SquaredNorm(3), NegativeEntropy(2), NegativeEntropy(5),
                  NegativeEntropy(8))
        for verifier in sorted(BLOCK_VERIFIERS)
        if g.kind == "negative-entropy" or verifier not in SIMPLEX_ONLY],
        ids=lambda value: f"{value.kind}-{value.dimension}" if hasattr(value, "kind") else value)
    def test_block_equals_one_scenario_calls(self, g, verifier):
        measure = BLOCK_VERIFIERS[verifier]
        scenarios = self.draw(g, self.SIZES, g.dimension)
        block = stack_scenarios(scenarios, g)
        assert block.seed == tuple(range(len(self.SIZES)))
        for result, lone_results in zip(measure(block, g),
                                        zip(*(measure(sc, g) for sc in scenarios))):
            for row, (sc, one) in enumerate(zip(scenarios, lone_results)):
                assert scenario_row(result, row, sc) == lone(one)

    @pytest.mark.parametrize("g", [SquaredNorm(3), NegativeEntropy(4)],
                             ids=["squared-norm", "negative-entropy"])
    def test_padding_does_not_change_results(self, g):
        target, small, large = self.draw(g, [(3, 2, 4), (1, 1, 2), (5, 4, 6)], 9)
        for verifier, measure in BLOCK_VERIFIERS.items():
            if verifier in SIMPLEX_ONLY and g.kind != "negative-entropy":
                continue
            want = [lone(one) for one in measure(target, g)]
            for mates, row in (([target, small], 0), ([small, target], 1),
                               ([target, large], 0), ([large, small, target], 2)):
                got = measure(stack_scenarios(mates, g), g)
                assert [scenario_row(r, row, target) for r in got] == want, verifier

    @pytest.mark.parametrize("verifier", sorted(BLOCK_VERIFIERS.keys() - {"split"}))
    def test_non_simplex_row_in_last_scenario_raises(self, verifier):
        g = NegativeEntropy(3)
        block = stack_scenarios(self.draw(g, self.SIZES, 51), g)
        T = block.teacher_preds.copy()
        T[-1, 0, 0] = [1.5, -0.25, -0.25]
        with pytest.raises(DomainError):
            BLOCK_VERIFIERS[verifier](dataclasses.replace(block, teacher_preds=T), g)

    def test_joint_off_one_in_second_scenario_rejected(self):
        g = SquaredNorm(2)
        block = stack_scenarios(self.draw(g, self.SIZES, 52), g)
        joint = block.joint.copy()
        joint[1] *= 1.01
        with pytest.raises(ValueError, match="joint of block scenario 1 sums to 1.01"):
            dataclasses.replace(block, joint=joint)

    @pytest.mark.parametrize("g", [SquaredNorm(3), NegativeEntropy(3)],
                             ids=["squared-norm", "negative-entropy"])
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_mismatched_student_in_one_member_rejected(self, g, direction):
        block = stack_scenarios(self.draw(g, self.SIZES, 53), g)
        ideal = with_posterior_mean_students(block, g, dual=direction == "forward")
        verify_posterior_mean_equality(ideal, g, direction)
        S = ideal.student_preds.copy()
        S[2, 0, 0] = S[2, 0, 0, ::-1]  # another point of the domain
        with pytest.raises(PreconditionError):
            verify_posterior_mean_equality(dataclasses.replace(ideal, student_preds=S),
                                           g, direction)

    def test_stack_rejects_other_dimensions_and_blocks(self):
        g = NegativeEntropy(3)
        scenarios = self.draw(g, self.SIZES[:2], 54)
        with pytest.raises(ValueError, match="dimension 4"):
            stack_scenarios(scenarios, NegativeEntropy(4))
        with pytest.raises(ValueError):
            stack_scenarios([stack_scenarios(scenarios, g)], g)
        with pytest.raises(ValueError):
            stack_scenarios([], g)


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
            lhs, misfit, cond_var, worst = misfit_variance_split(sc)
            assert worst <= 1e-10
            assert lhs == pytest.approx(misfit - cond_var, abs=1e-10)
            assert lhs <= misfit + 1e-12

    def test_dirac_posterior_no_conditional_variance(self):
        rng = np.random.default_rng(8)
        g = SquaredNorm(2)
        sc = random_scenario(g, rng, n_teachers=1)
        lhs, misfit, cond_var, worst = misfit_variance_split(sc)
        assert worst <= 1e-10
        assert cond_var == pytest.approx(0.0, abs=1e-12)
        assert lhs == pytest.approx(misfit, abs=1e-12)

    def test_posterior_mean_student_all_variance(self):
        rng = np.random.default_rng(9)
        g = SquaredNorm(3)
        sc = with_posterior_mean_students(
            random_scenario(g, rng, n_teachers=4, n_students=2), g, dual=False
        )
        lhs, misfit, cond_var, worst = misfit_variance_split(sc)
        assert worst <= 1e-10
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert misfit == pytest.approx(cond_var, abs=1e-10)

    def test_rejects_simplex_geometry_scenarios(self):
        rng = np.random.default_rng(10)
        g = NegativeEntropy(3)
        sc = random_scenario(g, rng)
        # simplex predictions are legal squared-norm points, so this runs;
        # the operation is defined for the squared geometry only and the
        # identity still holds on those points
        lhs, misfit, cond_var, worst = misfit_variance_split(sc)
        assert worst <= 1e-10
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
        p = np.array([0.3, 0.7])
        np.testing.assert_allclose(ensemble_dual_mean([p, p, p]), p, atol=1e-12)

    def test_mirrored_pair_gives_uniform(self):
        got = ensemble_dual_mean(np.array([[0.8, 0.2], [0.2, 0.8]]))
        np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-12)

    def test_matches_geometry_dual_mean(self):
        g = NegativeEntropy(3)
        preds = [
            clamp_simplex([1.0, 0.0, 0.0]),
            np.array([1 / 3, 1 / 3, 1 / 3]),
            clamp_simplex([0.2, 0.5, 0.3]),
        ]
        got = ensemble_dual_mean(preds)
        want = g.dual_mean(SampleSet(np.stack(preds)))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_row_wise_dual_mean_matches_per_row_prediction(self):
        rng = np.random.default_rng(3)
        stack = [clamp_simplex(rng.dirichlet(np.ones(2), size=50)) for _ in range(4)]
        got = ensemble_dual_mean(stack)
        assert got.shape == (50, 2)
        g = NegativeEntropy(2)
        for i in range(50):
            want = g.dual_mean(SampleSet(np.stack([run[i] for run in stack])))
            np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-15)

    def test_bias_variance_identity(self):
        runs = np.array([[0.8, 0.2], [0.6, 0.4]])
        bias, variance = bias_variance_estimate(runs, clamp_simplex([1.0, 0.0]))
        mean_ce = (-np.log(0.8) - np.log(0.6)) / 2
        assert bias + variance == pytest.approx(mean_ce, abs=1e-9)

    def test_probvector_rows_give_the_array_result(self):
        rows = np.array([[0.8, 0.2], [0.6, 0.4], [0.3, 0.7]])
        truth = ProbVector.one_hot(0, 2)
        want = bias_variance_estimate(rows, truth.probs)
        assert [type(value) for value in want] == [float, float]
        assert bias_variance_estimate([ProbVector(r) for r in rows], truth) == want
        assert bias_variance_estimate(list(rows), truth) == want

    def test_identity_on_random_runs(self):
        from w2slab.losses import ce as ce_loss

        rng = np.random.default_rng(11)
        for k in (2, 4, 8):
            truth = clamp_simplex(np.eye(k)[int(rng.integers(k))])
            runs = clamp_simplex(rng.dirichlet(np.ones(k), size=int(rng.integers(2, 7))))
            bias, variance = bias_variance_estimate(runs, truth)
            mean_ce = float(np.mean(ce_loss(truth, runs)))
            assert bias + variance == pytest.approx(mean_ce, abs=1e-9)

    def test_degenerate_runs(self):
        p = np.array([0.7, 0.3])
        bias, variance = bias_variance_estimate([p, p], p)
        assert variance == pytest.approx(0.0, abs=1e-12)
        assert bias == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def block(rng, r, points, k):
        """(r, points, k) interior runs and (points, k) clamped one-hot truth."""
        runs = clamp_simplex(rng.dirichlet(np.ones(k), size=(r, points)))
        return runs, clamp_simplex(np.eye(k)[rng.integers(k, size=points)])

    @pytest.mark.parametrize("points", [1, 7])
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("r", [2, 6, 9])
    def test_batched_equals_one_point_calls(self, r, k, points):
        # bit for bit, also at r >= 8, where numpy's lone-axis mean would
        # sum pairwise
        runs, truth = self.block(np.random.default_rng([r, k, points]), r, points, k)
        bias, variance = bias_variance_estimate(runs, truth)
        assert bias.shape == variance.shape == (points,)
        for point in range(points):
            one = bias_variance_estimate(runs[:, point], truth[point])
            assert (bias[point], variance[point]) == one

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("r", [2, 6, 9])
    def test_batched_matches_direct_formula(self, r, k):
        rng = np.random.default_rng([r, k])
        runs, _ = self.block(rng, r, 7, k)
        for truth in (self.block(rng, r, 7, k)[1],
                      clamp_simplex(rng.dirichlet(np.ones(k), size=7))):
            geometric = np.exp(np.log(runs).mean(axis=0))
            pi_hat = clamp_simplex(geometric / geometric.sum(axis=-1, keepdims=True))
            bias, variance = bias_variance_estimate(runs, truth)
            np.testing.assert_allclose(
                bias, np.sum(truth * np.log(truth / pi_hat), axis=-1), rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                variance, np.sum(pi_hat * np.log(pi_hat / runs), axis=-1).mean(axis=0),
                rtol=0, atol=1e-12)

    @pytest.mark.parametrize("entry", [[np.nan, 0.5, 0.5], [0.0, 0.5, 0.5],
                                       [0.51, 0.3, 0.2]], ids=["nan", "zero", "sum-1.01"])
    @pytest.mark.parametrize("where", ["runs", "truth"])
    def test_bad_entry_at_last_point_rejected(self, where, entry):
        runs, truth = self.block(np.random.default_rng(5), 6, 7, 3)
        (runs[-1] if where == "runs" else truth)[-1] = entry
        with pytest.raises(DomainError):
            bias_variance_estimate(runs, truth)

    @pytest.mark.parametrize("runs_shape, truth_shape", [
        ((6, 2), (1, 2)), ((6, 2), (2, 2)), ((6, 7, 2), (2,)), ((6, 7, 2), (1, 2)),
        ((6, 7, 2), (7, 3))])
    def test_truth_shape_must_be_one_runs_shape(self, runs_shape, truth_shape):
        runs = np.full(runs_shape, 1 / runs_shape[-1])
        with pytest.raises(ValueError, match="shape"):
            bias_variance_estimate(runs, np.full(truth_shape, 1 / truth_shape[-1]))

    def test_one_run_rejected(self):
        with pytest.raises(ValueError):
            bias_variance_estimate(np.array([[0.6, 0.4]]), clamp_simplex([1.0, 0.0]))
        runs, truth = self.block(np.random.default_rng(2), 1, 7, 2)
        with pytest.raises(ValueError, match="two runs"):
            bias_variance_estimate(runs, truth)

    def test_nan_run_rejected(self):
        runs = np.array([[0.6, 0.4], [np.nan, 0.5]])
        with pytest.raises(DomainError):
            bias_variance_estimate(runs, clamp_simplex([1.0, 0.0]))

    def test_unclamped_truth_rejected(self):
        # a raw one-hot row has a zero coordinate, outside the simplex interior
        with pytest.raises(DomainError):
            bias_variance_estimate(np.array([[0.6, 0.4], [0.3, 0.7]]), np.array([1.0, 0.0]))
