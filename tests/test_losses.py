"""Loss identities, analytic gradients vs finite differences, the batch
loss table, smoothing, composite losses, and the smoothed-risk ordering
inequality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w2slab import losses as L
from w2slab.bregman import clamp_simplex
from w2slab.losses import CompositeLossConfig, ProbVector


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

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            L.ce(ProbVector([0.5, 0.5]), ProbVector([0.2, 0.3, 0.5]))


def numeric_gradient(loss, y, yhat, step=1e-6):
    """Central difference along the tied coordinate, per coordinate j."""
    out = np.empty(2)
    for j in range(2):
        plus, minus = yhat.copy(), yhat.copy()
        plus[j] += step
        plus[1 - j] -= step
        minus[j] -= step
        minus[1 - j] += step
        out[j] = (loss(y, plus) - loss(y, minus)) / (2 * step)
    return out


class TestGradients:
    PAIRS = [(L.grad_ce, L.ce), (L.grad_rce, L.rce), (L.grad_kl, L.kl),
             (L.grad_rkl, L.rkl)]

    @pytest.mark.parametrize("grad,loss", PAIRS, ids=lambda f: f.__name__)
    def test_matches_central_differences(self, grad, loss):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            y = random_binary(rng, 1)[0]
            yhat = random_binary(rng, 1)[0]
            np.testing.assert_allclose(
                grad(y, yhat), numeric_gradient(loss, y, yhat),
                rtol=1e-5, atol=1e-9,
            )

    def test_grad_ce_zero_at_uniform_match(self):
        u = np.array([0.5, 0.5])
        np.testing.assert_allclose(L.grad_ce(u, u), 0.0, atol=1e-12)

    def test_grad_rkl_zero_at_match(self):
        y = np.array([0.3, 0.7])
        np.testing.assert_allclose(L.grad_rkl(y, y), 0.0, atol=1e-12)

    def test_grad_rce_example(self):
        y = np.array([0.9, 0.1])
        g = L.grad_rce(y, np.array([0.5, 0.5]))
        assert g[0] == pytest.approx(np.log(1 / 9), abs=1e-9)
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
            assert np.abs(L.grad_rce(y, y)[0]) >= expected - 1e-12
            assert expected > 0

    def test_multiclass_rejected(self):
        y = ProbVector([0.2, 0.3, 0.5])
        with pytest.raises(L.BinaryOnlyError):
            L.grad_ce(y, y)


class TestGradientEngine:
    """The batch loss table over (n, 2) rows, checked against its
    central-difference oracle and against the per-row losses."""

    @pytest.mark.parametrize("name", L.LOSS_NAMES)
    def test_analytic_matches_numeric(self, name):
        """100 random (batch, parameter) points per loss, 1e-4 relative."""
        rng = np.random.default_rng(3)
        cfg = CompositeLossConfig(cace_threshold=0.2, sl_weights=(0.7, 0.3))
        for _ in range(100):
            n = int(rng.integers(2, 12))
            y1 = rng.uniform(1e-3, 1 - 1e-3, size=n)
            p1 = rng.uniform(1e-3, 1 - 1e-3, size=n)
            y = np.stack([y1, 1 - y1], axis=-1)
            p = np.stack([p1, 1 - p1], axis=-1)
            beta = float(rng.uniform(0, 1))
            a = L.loss_grads(name, y, p, cfg, beta)
            num = L.numeric_loss_grads(name, y, p, cfg, beta)
            np.testing.assert_allclose(a, num, rtol=1e-4, atol=1e-7)

    def test_values_match_scalar_losses(self):
        rng = np.random.default_rng(4)
        cfg = CompositeLossConfig(cace_threshold=0.25)
        y1 = rng.uniform(0.05, 0.95, size=6)
        p1 = rng.uniform(0.05, 0.95, size=6)
        y = np.stack([y1, 1 - y1], axis=-1)
        p = np.stack([p1, 1 - p1], axis=-1)
        np.testing.assert_allclose(L.loss_values("ce", y, p, cfg), L.ce(y, p))
        np.testing.assert_allclose(L.loss_values("rce", y, p, cfg), L.rce(y, p))
        np.testing.assert_allclose(L.loss_values("kl", y, p, cfg), L.kl(y, p))
        np.testing.assert_allclose(L.loss_values("rkl", y, p, cfg), L.rkl(y, p))
        np.testing.assert_allclose(
            L.loss_values("cace", y, p, cfg), [L.cace(yy, pp, cfg) for yy, pp in zip(y, p)]
        )
        np.testing.assert_allclose(
            L.loss_values("sl", y, p, cfg), [L.sl(yy, pp, cfg) for yy, pp in zip(y, p)]
        )
        np.testing.assert_allclose(
            L.loss_values("aux", y, p, cfg, 0.4),
            [L.aux(yy, pp, 0.4, p) for yy, pp in zip(y, p)],
        )

    def test_unknown_loss_rejected(self):
        y = p = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            L.loss_values("mse", y, p, CompositeLossConfig())
        with pytest.raises(ValueError):
            L.loss_grads("mse", y, p, CompositeLossConfig())


class TestSmoothing:
    def test_identity_at_alpha_one(self):
        y = ProbVector([0.9, 0.1])
        np.testing.assert_allclose(L.smooth_labels(y, 1.0).probs, y.probs)

    def test_uniform_at_alpha_zero(self):
        y = ProbVector([0.9, 0.1])
        np.testing.assert_allclose(L.smooth_labels(y, 0.0).probs, [0.5, 0.5])

    def test_halfway(self):
        got = L.smooth_labels(ProbVector([0.9, 0.1]), 0.5).probs
        np.testing.assert_allclose(got, [0.7, 0.3], atol=1e-12)

    def test_alpha_out_of_range(self):
        y = ProbVector([0.9, 0.1])
        with pytest.raises(ValueError):
            L.smooth_labels(y, -0.1)
        with pytest.raises(ValueError):
            L.smooth_labels(y, 1.5)

    def test_argmax_preserved_exhaustively(self):
        grid = np.arange(1e-3, 1.0, 1e-3)
        labels = np.stack([grid, 1.0 - grid], axis=-1)
        for alpha in (1e-3, 0.1, 0.5, 1.0):
            smoothed = L.smooth_labels_array(labels, alpha)
            off_diag = np.abs(grid - 0.5) > 1e-12
            assert np.all(
                np.sign(smoothed[off_diag, 0] - 0.5)
                == np.sign(grid[off_diag] - 0.5)
            )


class TestCompositeLosses:
    def test_cace_branch_selection(self):
        cfg = CompositeLossConfig(cace_threshold=0.3)
        yhat = ProbVector([0.6, 0.4])
        confident = ProbVector([0.99, 0.01])
        uncertain = ProbVector([0.52, 0.48])
        assert L.cace(confident, yhat, cfg) == pytest.approx(float(L.ce(confident, yhat)))
        assert L.cace(uncertain, yhat, cfg) == pytest.approx(float(L.rce(uncertain, yhat)))

    def test_cace_zero_threshold_is_ce(self):
        cfg = CompositeLossConfig(cace_threshold=0.0)
        rng = np.random.default_rng(4)
        for _ in range(50):
            y, yhat = random_binary(rng, 2)
            assert L.cace(y, yhat, cfg) == pytest.approx(float(L.ce(y, yhat)))

    def test_confidence_threshold_quantile(self):
        rng = np.random.default_rng(5)
        labels = random_binary(rng, 1000)
        c = L.confidence_threshold(labels, 20)
        share = np.mean(L.confidence(labels) < c)
        assert share == pytest.approx(0.2, abs=0.02)

    def test_sl_degenerate_weights(self):
        y, yhat = ProbVector([0.8, 0.2]), ProbVector([0.55, 0.45])
        ce_only = CompositeLossConfig(sl_weights=(0.0, 1.0))
        rce_only = CompositeLossConfig(sl_weights=(1.0, 0.0))
        assert L.sl(y, yhat, ce_only) == pytest.approx(float(L.ce(y, yhat)))
        assert L.sl(y, yhat, rce_only) == pytest.approx(float(L.rce(y, yhat)))

    def test_sl_uniform_label_offset(self):
        cfg = CompositeLossConfig(sl_weights=(1.0, 1.0))
        y = ProbVector.uniform(2)
        yhat = ProbVector([0.7, 0.3])
        assert L.sl(y, yhat, cfg) == pytest.approx(
            float(L.ce(y, yhat)) + np.log(2), abs=1e-12
        )

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            CompositeLossConfig(sl_weights=(0.0, 0.0))
        with pytest.raises(ValueError):
            CompositeLossConfig(aux_beta_max=1.5)
        with pytest.raises(ValueError):
            CompositeLossConfig(aux_warmup_fraction=0.0)
        with pytest.raises(ValueError):
            CompositeLossConfig(cace_quantile_pct=15)


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

    def test_beta_one_reduces_to_ce(self):
        y_weak = ProbVector([0.7, 0.3])
        yhat = ProbVector([0.6, 0.4])
        batch = [yhat.probs, [0.5, 0.5]]
        assert L.aux(y_weak, yhat, 1.0, batch) == pytest.approx(
            float(L.ce(y_weak, yhat))
        )

    def test_beta_zero_with_confident_prediction(self):
        yhat = ProbVector([1.0, 0.0])  # clamps to (1 - eps, eps)
        batch = [yhat.probs, [0.5, 0.5]]
        val = L.aux(ProbVector([0.6, 0.4]), yhat, 0.0, batch)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            L.aux(ProbVector([0.6, 0.4]), ProbVector([0.6, 0.4]), 0.5, [])

    def test_beta_schedule(self):
        cfg = CompositeLossConfig(aux_beta_max=0.8, aux_warmup_fraction=0.5)
        assert L.aux_beta(0, 100, cfg) == pytest.approx(0.0)
        assert L.aux_beta(25, 100, cfg) == pytest.approx(0.4)
        assert L.aux_beta(50, 100, cfg) == pytest.approx(0.8)
        assert L.aux_beta(100, 100, cfg) == pytest.approx(0.8)


def enumerate_rce_risk(input_probs, labels, model, alpha):
    """Direct-summation RCE risk of per-input predictions under smoothing."""
    smoothed = L.smooth_labels_array(labels, alpha)
    return float(np.sum(input_probs * L.rce(smoothed, model)))


def grid_optimal_model(input_probs, labels, alpha, grid):
    """Per-input grid argmin; exact because the risk is linear per input."""
    smoothed = L.smooth_labels_array(labels, alpha)
    best = np.empty_like(labels)
    for i in range(labels.shape[0]):
        vals = L.rce(smoothed[i], grid)
        best[i] = grid[np.argmin(vals)]
    return best


class TestOrderingInequality:
    def test_identical_models_give_zero_triple(self):
        triple = L.rce_ordering_gap((1.3, 2.0), (1.3, 2.0))
        assert triple == (0.0, 0.0, 0.0)

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
        _, mid, rhs = L.rce_ordering_gap(f_risks, fstar_risks)
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
                lo, mid, rhs = L.rce_ordering_gap(f_risks, fstar_risks)
                assert lo == 0.0
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
