"""Loss identities, analytic gradients vs finite differences, the batch
loss table, smoothing, composite losses, and the smoothed-risk ordering
inequality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w2slab import losses as L
from w2slab.bregman import NegativeEntropy, clamp_simplex
from w2slab.losses import ProbVector


def random_binary(rng, n, margin=1e-3):
    p1 = rng.uniform(margin, 1.0 - margin, size=n)
    return np.stack([p1, 1.0 - p1], axis=-1)


class TestProbVector:
    def test_one_hot_is_clamped(self):
        v = ProbVector.one_hot(0, 2)
        assert v.probs[0] == pytest.approx(1.0, abs=1e-11)
        assert v.probs[1] >= 1e-12
        assert v.probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_entries_stay_inside_clamp(self):
        for k in (2, 3, 8):
            v = ProbVector.one_hot(0, k)
            assert np.all(v.probs >= 1e-12)
            assert np.all(v.probs <= 1.0 - 1e-12)
            assert abs(v.probs.sum() - 1.0) <= 1e-10

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ProbVector([0.7])
        with pytest.raises(ValueError):
            ProbVector([0.9, 0.3])
        with pytest.raises(ValueError):
            ProbVector([1.2, -0.2])


class TestLossValues:
    def test_ce_one_hot_vs_uniform(self):
        y = ProbVector.one_hot(0, 2)
        assert L.ce(y, ProbVector.uniform(2)) == pytest.approx(np.log(2), abs=1e-10)

    def test_rce_uniform_label_is_constant(self):
        rng = np.random.default_rng(0)
        for k in (2, 3, 5):
            y = ProbVector.uniform(k)
            for _ in range(1000):
                yhat = clamp_simplex(rng.dirichlet(np.ones(k)))
                assert abs(L.rce(y, yhat) - np.log(k)) <= 1e-12

    def test_kl_of_self_is_zero(self):
        y = ProbVector([0.3, 0.7])
        assert L.kl(y, y) == pytest.approx(0.0, abs=1e-14)
        assert L.ce(y, y) - L.entropy(y) == pytest.approx(0.0, abs=1e-14)

    def test_ce_equals_kl_plus_entropy(self):
        rng = np.random.default_rng(1)
        y = clamp_simplex(rng.dirichlet(np.ones(4), size=10_000))
        yhat = clamp_simplex(rng.dirichlet(np.ones(4), size=10_000))
        np.testing.assert_allclose(
            L.ce(y, yhat), L.kl(y, yhat) + L.entropy(y), atol=1e-10
        )

    def test_rkl_is_swapped_kl(self):
        y, yhat = ProbVector([0.2, 0.8]), ProbVector([0.6, 0.4])
        assert L.rkl(y, yhat) == pytest.approx(float(L.kl(yhat, y)))

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_kl_is_the_negative_entropy_divergence(self, k):
        rng = np.random.default_rng(k)
        y = clamp_simplex(rng.dirichlet(np.ones(k), size=500))
        yhat = clamp_simplex(rng.dirichlet(np.ones(k), size=500))
        g = NegativeEntropy(k)
        np.testing.assert_array_equal(L.kl(y, yhat), g.divergence(y, yhat))
        np.testing.assert_array_equal(L.rkl(y, yhat), g.divergence(yhat, y))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            L.ce(ProbVector([0.5, 0.5]), ProbVector([0.2, 0.3, 0.5]))


def numeric_gradient(loss, y, yhat, step=1e-6):
    """Central difference of a K-class loss along yhat_1, yhat_2 = 1 - yhat_1."""
    shift = np.array([step, -step])
    return (loss(y, yhat + shift) - loss(y, yhat - shift)) / (2 * step)


def table_grad(name, y, yhat):
    """The loss table's tied gradient at one (label, prediction) row."""
    return L.loss_grads(name, y[None], yhat[None])[0]


class TestGradients:
    """The table's gradients of the row-wise losses against central
    differences of the K-class values."""

    PAIRS = [("ce", L.ce), ("rce", L.rce), ("kl", L.kl), ("rkl", L.rkl)]

    @pytest.mark.parametrize("name,loss", PAIRS, ids=[f"grad_{n}-{n}" for n, _ in PAIRS])
    def test_matches_central_differences(self, name, loss):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            y = random_binary(rng, 1)[0]
            yhat = random_binary(rng, 1)[0]
            np.testing.assert_allclose(
                table_grad(name, y, yhat), numeric_gradient(loss, y, yhat),
                rtol=1e-5, atol=1e-9,
            )

    def test_grad_ce_zero_at_uniform_match(self):
        u = np.array([0.5, 0.5])
        np.testing.assert_allclose(table_grad("ce", u, u), 0.0, atol=1e-12)

    def test_grad_rkl_zero_at_match(self):
        y = np.array([0.3, 0.7])
        np.testing.assert_allclose(table_grad("rkl", y, y), 0.0, atol=1e-12)

    def test_grad_rce_example(self):
        y = np.array([0.9, 0.1])
        g = table_grad("rce", y, np.array([0.5, 0.5]))
        assert g == pytest.approx(np.log(1 / 9), abs=1e-9)
        fd = numeric_gradient(L.rce, y, np.array([0.5, 0.5]))
        np.testing.assert_allclose(g, fd, rtol=1e-5)

    def test_rce_gradient_nonvanishing_at_match(self):
        # forward CE/KL and reverse KL flatten out at yhat = y; reverse CE
        # keeps pushing whenever the label is not uniform
        rng = np.random.default_rng(3)
        for _ in range(200):
            y = random_binary(rng, 1)[0]
            if abs(y[0] - 0.5) < 1e-3:
                continue
            expected = abs(np.log((1 - y[0]) / y[0]))
            assert np.abs(table_grad("rce", y, y)) >= expected - 1e-12
            assert expected > 0

    def test_multiclass_rejected(self):
        y = ProbVector([0.2, 0.3, 0.5])
        with pytest.raises(L.BinaryOnlyError):
            L.loss_grads("ce", y, y)


class TestGradientEngine:
    """The batch loss table over (n, 2) rows, checked against its
    central-difference oracle and against the per-row losses."""

    @pytest.mark.parametrize("name", L.LOSS_NAMES)
    def test_analytic_matches_numeric(self, name):
        """100 random (batch, parameter) points per loss, 1e-4 relative."""
        rng = np.random.default_rng(3)
        cut = 0.2
        for _ in range(100):
            n = int(rng.integers(2, 12))
            y1 = rng.uniform(1e-3, 1 - 1e-3, size=n)
            p1 = rng.uniform(1e-3, 1 - 1e-3, size=n)
            y = np.stack([y1, 1 - y1], axis=-1)
            p = np.stack([p1, 1 - p1], axis=-1)
            beta = float(rng.uniform(0, 1))
            a = L.loss_grads(name, y, p, cut, beta)
            num = L.numeric_loss_grads(name, y, p, cut, beta)
            np.testing.assert_allclose(a, num, rtol=1e-4, atol=1e-7)

    def test_values_match_scalar_losses(self):
        rng = np.random.default_rng(4)
        cut = 0.25
        y1 = rng.uniform(0.05, 0.95, size=6)
        p1 = rng.uniform(0.05, 0.95, size=6)
        y = np.stack([y1, 1 - y1], axis=-1)
        p = np.stack([p1, 1 - p1], axis=-1)
        np.testing.assert_allclose(L.loss_values("ce", y, p, cut), L.ce(y, p))
        np.testing.assert_allclose(L.loss_values("rce", y, p, cut), L.rce(y, p))
        np.testing.assert_allclose(L.loss_values("kl", y, p, cut), L.kl(y, p))
        np.testing.assert_allclose(L.loss_values("rkl", y, p, cut), L.rkl(y, p))
        np.testing.assert_allclose(
            L.loss_values("cace", y, p, cut),
            [L.rce(yy, pp) if abs(yy[0] - 0.5) < cut else L.ce(yy, pp)
             for yy, pp in zip(y, p)],
        )
        np.testing.assert_allclose(
            L.loss_values("sl", y, p, cut),
            [L.rce(yy, pp) + L.ce(yy, pp) for yy, pp in zip(y, p)],
        )
        targets = L.harden(p, L.harden_threshold(p))
        np.testing.assert_allclose(
            L.loss_values("aux", y, p, cut, 0.4),
            [0.4 * L.ce(yy, pp) + 0.6 * L.ce(tt, pp) for yy, pp, tt in zip(y, p, targets)],
        )

    def test_aux_hardens_once_per_table_call(self, monkeypatch):
        rng = np.random.default_rng(6)
        y, p = random_binary(rng, 8), random_binary(rng, 8)
        cuts = []
        threshold = L.harden_threshold

        def counted(batch):
            cuts.append(batch)
            return threshold(batch)

        monkeypatch.setattr(L, "harden_threshold", counted)
        values, grads = L.loss_table("aux", y, p, beta=0.3)
        assert len(cuts) == 1
        target = L.harden(p, threshold(p))
        np.testing.assert_array_equal(values, 0.3 * L.ce(y, p) + (1.0 - 0.3) * L.ce(target, p))
        np.testing.assert_array_equal(grads, L.loss_grads("aux", y, p, beta=0.3))
        with pytest.raises(ValueError, match="beta"):
            L.loss_table("aux", y, p, beta=1.5)

    @pytest.mark.parametrize("name", L.LOSS_NAMES)
    def test_row_losses_on_a_block_equal_each_batch(self, name):
        # the trainer makes one table call per loss over the (fits, batch, 2)
        # block of its fits; each fit must get exactly its lone result, cace
        # at its own cut (all rce, a mix, all ce) and aux hardened at its own
        # batch's half-batch cut
        rng = np.random.default_rng(7)
        y = np.stack([random_binary(rng, 6) for _ in range(3)])
        p = np.stack([random_binary(rng, 6) for _ in range(3)])
        p[1] = 0.5 + 0.1 * (p[1] - 0.5)  # one batch far less confident than the others
        cut, beta = np.array([[0.5], [0.25], [0.0]]), 0.3
        values, grads = L.loss_table(name, y, p, cut, beta)
        for j in range(3):
            lone_values, lone_grads = L.loss_table(name, y[j], p[j], cut[j, 0], beta)
            np.testing.assert_array_equal(values[j], lone_values)
            np.testing.assert_array_equal(grads[j], lone_grads)
            np.testing.assert_array_equal(
                lone_values, L.loss_values(name, y[j], p[j], cut[j, 0], beta))
            np.testing.assert_array_equal(
                lone_grads, L.loss_grads(name, y[j], p[j], cut[j, 0], beta))
        # the halves on the block, loss_grads without computing a value
        np.testing.assert_array_equal(L.loss_values(name, y, p, cut, beta), values)
        np.testing.assert_array_equal(L.loss_grads(name, y, p, cut, beta), grads)

    @pytest.mark.parametrize("name", L.LOSS_NAMES)
    def test_multiclass_rows_rejected(self, name):
        y = p = np.full((4, 3), 1 / 3)
        with pytest.raises(L.BinaryOnlyError):
            L.loss_table(name, y, p, beta=0.5)

    def test_unknown_loss_rejected(self):
        y = p = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            L.loss_table("mse", y, p)
        with pytest.raises(ValueError):
            L.loss_values("mse", y, p)
        with pytest.raises(ValueError):
            L.loss_grads("mse", y, p)


class TestSmoothing:
    def test_identity_at_alpha_one(self):
        y = np.array([[0.9, 0.1], [0.2, 0.8]])
        np.testing.assert_allclose(L.smooth_labels(y, 1.0), y)

    def test_uniform_at_alpha_zero(self):
        y = np.array([[0.9, 0.1], [0.2, 0.8]])
        np.testing.assert_allclose(L.smooth_labels(y, 0.0), np.full((2, 2), 0.5))

    def test_halfway(self):
        got = L.smooth_labels(np.array([0.9, 0.1]), 0.5)
        np.testing.assert_allclose(got, [0.7, 0.3], atol=1e-12)

    def test_probvector_input_gives_the_array_result(self):
        got = L.smooth_labels(ProbVector([0.9, 0.1]), 0.5)
        assert isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got, L.smooth_labels(np.array([0.9, 0.1]), 0.5))

    def test_rows_are_clamped(self):
        got = L.smooth_labels(np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)
        np.testing.assert_array_equal(got, clamp_simplex(np.eye(2)))

    def test_alpha_out_of_range(self):
        y = np.array([0.9, 0.1])
        for alpha in (-0.1, 1.5, np.nan):
            with pytest.raises(ValueError):
                L.smooth_labels(y, alpha)

    def test_non_binary_rows_rejected(self):
        with pytest.raises(L.BinaryOnlyError):
            L.smooth_labels(np.full((4, 3), 1 / 3), 0.5)

    def test_argmax_preserved_exhaustively(self):
        grid = np.arange(1e-3, 1.0, 1e-3)
        labels = np.stack([grid, 1.0 - grid], axis=-1)
        for alpha in (1e-3, 0.1, 0.5, 1.0):
            smoothed = L.smooth_labels(labels, alpha)
            off_diag = np.abs(grid - 0.5) > 1e-12
            assert np.all(
                np.sign(smoothed[off_diag, 0] - 0.5)
                == np.sign(grid[off_diag] - 0.5)
            )


class TestCompositeLosses:
    def test_cace_branch_selection(self):
        yhat = ProbVector([0.6, 0.4])
        confident = ProbVector([0.99, 0.01])
        uncertain = ProbVector([0.52, 0.48])
        assert float(L.loss_values("cace", confident, yhat, cut=0.3)) == pytest.approx(
            float(L.ce(confident, yhat)))
        assert float(L.loss_values("cace", uncertain, yhat, cut=0.3)) == pytest.approx(
            float(L.rce(uncertain, yhat)))

    def test_cace_zero_threshold_is_ce(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            y, yhat = random_binary(rng, 2)
            assert float(L.loss_values("cace", y, yhat, cut=0.0)) == pytest.approx(
                float(L.ce(y, yhat)))

    def test_confidence_threshold_quantile(self):
        rng = np.random.default_rng(5)
        labels = random_binary(rng, 1000)
        c = L.confidence_threshold(labels)
        share = np.mean(L.confidence(labels) < c)
        assert share == pytest.approx(0.2, abs=0.02)

    def test_sl_uniform_label_offset(self):
        y = ProbVector.uniform(2)
        yhat = ProbVector([0.7, 0.3])
        assert float(L.loss_values("sl", y, yhat)) == pytest.approx(
            float(L.ce(y, yhat)) + np.log(2), abs=1e-12
        )


class TestAux:
    def test_half_batch_hardening(self):
        batch = np.array([[0.9, 0.1], [0.8, 0.2], [0.6, 0.4], [0.4, 0.6]])
        t = L.harden_threshold(batch)
        hardened = [L.harden(p, t) for p in batch]
        flags = [h[0] != p[0] or h.max() > 0.99 for h, p in zip(hardened, batch)]
        # exactly the two most confident rows are replaced by one-hots
        assert np.allclose(hardened[0], clamp_simplex([1.0, 0.0]))
        assert np.allclose(hardened[1], clamp_simplex([1.0, 0.0]))
        np.testing.assert_allclose(hardened[2], batch[2])
        np.testing.assert_allclose(hardened[3], batch[3])

    def test_row_harden_matches_per_row(self):
        batch = np.array([[0.9, 0.1], [0.3, 0.7], [0.7, 0.3],
                          [0.7, 0.3], [0.5, 0.5], [0.2, 0.8]])
        t = L.harden_threshold(batch)
        assert t == 0.7  # three rows tie at the half-batch cut and stay soft
        for threshold in (t, 0.0):  # at 0 every row hardens, the p0 == p1 row to class 0
            rows = L.harden(batch, threshold)
            np.testing.assert_array_equal(rows, [L.harden(p, threshold) for p in batch])
        np.testing.assert_array_equal(L.harden(batch, 0.0)[4], clamp_simplex([1.0, 0.0]))
        np.testing.assert_array_equal(L.harden(batch, t)[2:5], batch[2:5])

    # the aux entry hardens against its own prediction batch: row 0 of each
    # batch below is the prediction under test, row 1 a uniform one

    def test_beta_one_reduces_to_ce(self):
        y_weak = ProbVector([0.7, 0.3])
        yhat = ProbVector([0.6, 0.4])
        y, batch = np.array([y_weak.probs, [0.5, 0.5]]), np.array([yhat.probs, [0.5, 0.5]])
        assert L.loss_values("aux", y, batch, beta=1.0)[0] == pytest.approx(
            float(L.ce(y_weak, yhat))
        )

    def test_beta_zero_with_confident_prediction(self):
        yhat = ProbVector([1.0, 0.0])  # clamps to (1 - eps, eps)
        y, batch = np.array([[0.6, 0.4], [0.5, 0.5]]), np.array([yhat.probs, [0.5, 0.5]])
        val = L.loss_values("aux", y, batch, beta=0.0)[0]
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_empty_batch_rejected(self):
        empty = np.empty((0, 2))
        with pytest.raises(ValueError, match="empty"):
            L.loss_values("aux", empty, empty, beta=0.5)

    def test_beta_schedule(self):
        # a linear warm-up to 0.5 over the first 20% of the steps
        assert L.aux_beta(0, 100) == pytest.approx(0.0)
        assert L.aux_beta(10, 100) == pytest.approx(0.25)
        assert L.aux_beta(20, 100) == pytest.approx(0.5)
        assert L.aux_beta(100, 100) == pytest.approx(0.5)


def enumerate_rce_risk(input_probs, labels, model, alpha):
    """Direct-summation RCE risk of per-input predictions under smoothing."""
    smoothed = L.smooth_labels(labels, alpha)
    return float(np.sum(input_probs * L.rce(smoothed, model)))


def grid_optimal_model(input_probs, labels, alpha, grid):
    """Per-input grid argmin; exact because the risk is linear per input."""
    smoothed = L.smooth_labels(labels, alpha)
    best = np.empty_like(labels)
    for i in range(labels.shape[0]):
        vals = L.rce(smoothed[i], grid)
        best[i] = grid[np.argmin(vals)]
    return best


class TestOrderingInequality:
    def test_alpha_one_collapses_mid_to_rhs(self):
        rng = np.random.default_rng(6)
        probs = rng.dirichlet(np.ones(4))
        labels = random_binary(rng, 4, margin=0.01)
        model = random_binary(rng, 4)
        grid1 = np.linspace(1e-9, 1.0 - 1e-9, 1001)
        grid = np.stack([grid1, 1.0 - grid1], axis=-1)
        fstar = grid_optimal_model(probs, labels, 1.0, grid)
        f_risks = (
            enumerate_rce_risk(probs, labels, model, 1.0),
            enumerate_rce_risk(probs, labels, model, 1.0),
        )
        fstar_risks = (
            enumerate_rce_risk(probs, labels, fstar, 1.0),
            enumerate_rce_risk(probs, labels, fstar, 1.0),
        )
        mid, rhs = (f - fstar for f, fstar in zip(f_risks, fstar_risks))
        assert mid == pytest.approx(rhs, abs=1e-12)

    def test_ordering_on_random_tasks(self):
        """0 <= smoothed gap <= plain gap over random tasks and candidates."""
        rng = np.random.default_rng(7)
        grid1 = np.linspace(1e-9, 1.0 - 1e-9, 1001)
        grid = np.stack([grid1, 1.0 - grid1], axis=-1)
        for _ in range(100):
            n_inputs = int(rng.integers(2, 7))
            probs = rng.dirichlet(np.ones(n_inputs))
            labels = random_binary(rng, n_inputs, margin=0.01)
            alpha = float(rng.uniform(0.05, 1.0))
            fstar = grid_optimal_model(probs, labels, alpha, grid)
            fstar_risks = (
                enumerate_rce_risk(probs, labels, fstar, alpha),
                enumerate_rce_risk(probs, labels, fstar, 1.0),
            )
            for _ in range(20):
                model = random_binary(rng, n_inputs)
                f_risks = (
                    enumerate_rce_risk(probs, labels, model, alpha),
                    enumerate_rce_risk(probs, labels, model, 1.0),
                )
                # the smoothed and the plain excess risk over f*
                mid, rhs = (f - fstar for f, fstar in zip(f_risks, fstar_risks))
                assert mid >= -1e-9
                assert mid <= rhs + 1e-9


@given(st.floats(min_value=1e-3, max_value=1 - 1e-3),
       st.floats(min_value=1e-3, max_value=1 - 1e-3))
@settings(max_examples=300, deadline=None)
def test_ce_kl_entropy_identity_hypothesis(a, b):
    y = ProbVector([a, 1 - a])
    yhat = ProbVector([b, 1 - b])
    assert float(L.ce(y, yhat)) == pytest.approx(
        float(L.kl(y, yhat)) + float(L.entropy(y)), abs=1e-10
    )
