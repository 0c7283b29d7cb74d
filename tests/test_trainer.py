"""Trainer tests: determinism, saturated predictions, direction-variance
bookkeeping, and the weak-to-strong pipeline behaviors.  The loss table the
trainer uses is tested in test_losses.py."""

import dataclasses
import warnings

import numpy as np
import pytest

from w2slab.trainer import (
    LOSS_NAMES,
    LinearProbeModel,
    ProbeConfig,
    SyntheticTask,
    TrainData,
    gdv,
    labels_to_soft,
    param_distance,
    train,
    w2s_pipeline,
)


def small_task(**kw):
    defaults = dict(dim=20, separation=2.0, noise=1.0, n_train=64,
                    n_pseudo=256, n_test=200, seed=1)
    defaults.update(kw)
    return SyntheticTask(**defaults)


def make_model(dim=20, width=0, feature="identity", seed=0, **kw):
    cfg = ProbeConfig(feature=feature, width=width, **kw)
    return LinearProbeModel(dim, cfg, np.random.default_rng(seed))


class TestTask:
    def test_balanced_and_sized(self):
        data = small_task().sample()
        assert data.train_y.sum() == 0.0
        assert data.pseudo_y.sum() == 0.0
        assert data.test_x.shape == (200, 20)

    def test_bayes_accuracy(self):
        assert small_task().bayes_accuracy() == pytest.approx(0.9772, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_task(n_train=9)
        with pytest.raises(ValueError):
            small_task(n_test=15)  # odd
        with pytest.raises(ValueError):
            small_task(noise=0.0)

    def test_deterministic_sampling(self):
        a, b = small_task().sample(), small_task().sample()
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.test_y, b.test_y)


class TestPrediction:
    def test_saturated_logits_stay_finite_without_warning(self):
        model = make_model(dim=2)
        model.weights = np.array([1.0, 0.0])
        x = np.array([[1e3, 0.0], [-1e3, 0.0], [0.0, 5.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = model.predict_pos(x)
        assert np.all(np.isfinite(p))
        assert np.all((p >= 0.0) & (p <= 1.0))
        np.testing.assert_array_equal(p, [1.0, 0.0, 0.5])


class TestGdv:
    def test_identical_gradients(self):
        g = np.array([1.0, 2.0])
        assert gdv([g, g, g]) == pytest.approx(0.0, abs=1e-12)

    def test_opposite_pair(self):
        g = np.array([1.0, -1.0])
        assert gdv([g, -g]) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_pair(self):
        assert gdv([np.array([1.0, 0.0]), np.array([0.0, 1.0])]) == pytest.approx(1.0)

    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(5)
        grads = [rng.normal(size=7) for _ in range(6)]
        val = gdv(grads)
        assert 0.0 <= val <= 2.0
        perm = [grads[i] for i in rng.permutation(6)]
        assert gdv(perm) == pytest.approx(val, abs=1e-12)

    def test_zero_gradient_excluded_with_warning(self):
        g = np.array([1.0, 0.0])
        with pytest.warns(UserWarning):
            val = gdv([g, g, np.zeros(2)])
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_nonzero_rejected(self):
        with pytest.raises(ValueError), pytest.warns(UserWarning):
            gdv([np.zeros(2), np.ones(2)])


class TestParamDistance:
    def test_zero_for_same(self):
        t = np.arange(4.0)
        assert param_distance(t, t) == 0.0

    def test_unit_offset(self):
        t = np.zeros(3)
        u = t.copy()
        u[0] = 1.0
        assert param_distance(u, t) == pytest.approx(1.0)

    def test_pythagorean(self):
        assert param_distance(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(5.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            param_distance(np.zeros(2), np.zeros(3))


def gt_train_data(task):
    data = task.sample()
    return TrainData(data.train_x, labels_to_soft(data.train_y),
                     data.test_x, data.test_y)


class TestTrain:
    def test_zero_steps_is_identity(self):
        task = small_task()
        model = make_model()
        before = model.accuracy(task.sample().test_x, task.sample().test_y)
        rep = train(model, gt_train_data(task), "ce", steps=0)
        assert rep.param_distance == 0.0
        assert rep.accuracy == pytest.approx(before)

    def test_separable_task_reaches_bayes_level(self):
        # margin of two noise units: optimal accuracy is at least 0.977
        task = small_task(separation=2.0, noise=1.0, n_train=400)
        assert task.bayes_accuracy() >= 0.97
        model = make_model(seed=2)
        rep = train(model, gt_train_data(task), "ce", steps=500, seed=2)
        assert rep.accuracy >= 0.95

    def test_rce_uniform_labels_is_frozen(self):
        task = small_task()
        data = task.sample()
        uniform = np.full((task.n_train, 2), 0.5)
        model = make_model(seed=3)
        rep = train(
            model,
            TrainData(data.train_x, uniform, data.test_x, data.test_y),
            "rce",
            steps=100,
            seed=3,
        )
        assert rep.param_distance == 0.0
        assert all(np.isnan(g) for g in rep.gdv_trace)

    def test_determinism_bit_identical(self):
        task = small_task()
        reports = []
        for _ in range(2):
            model = make_model(seed=4)
            reports.append(train(model, gt_train_data(task), "sl", steps=60, seed=4))
        a, b = reports
        assert a == b

    def test_divergence_reported_with_step(self):
        # an unbounded step forces non-finite parameters immediately
        from w2slab.trainer import TrainingDiverged

        task = small_task()
        model = make_model(seed=5)
        with pytest.raises(TrainingDiverged) as err, np.errstate(
            over="ignore", invalid="ignore"
        ):
            train(model, gt_train_data(task), "ce", steps=50,
                  learning_rate=float("inf"), seed=5)
        assert err.value.step >= 0

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            train(make_model(), gt_train_data(small_task()), "mse")

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_every_loss_trains(self, name):
        task = small_task()
        model = make_model(seed=6)
        rep = train(model, gt_train_data(task), name, steps=40, seed=6)
        assert np.isfinite(rep.final_loss)
        assert rep.accuracy >= 0.0


class TestPipeline:
    def test_baseline_wiring(self):
        task = small_task()
        t_rep, s_rep = w2s_pipeline(task, loss_name="ce", alpha=1.0, seed=0)
        assert 0.5 <= t_rep.accuracy <= 1.0
        assert s_rep.loss_name == "ce"
        assert s_rep.alpha == 1.0

    def test_uniform_targets_drive_predictions_to_half(self):
        task = small_task()
        _, s_rep = w2s_pipeline(task, loss_name="ce", alpha=0.0, seed=0)
        assert 0.45 <= s_rep.mean_prediction <= 0.55

    def test_rce_beats_ce_at_low_alpha(self):
        task = SyntheticTask(seed=11)
        accs = {}
        for loss in ("ce", "rce"):
            vals = [
                w2s_pipeline(task, loss_name=loss, alpha=0.01, seed=rep)[1].accuracy
                for rep in range(2)
            ]
            accs[loss] = np.mean(vals)
        assert accs["rce"] > accs["ce"]

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            w2s_pipeline(small_task(), loss_name="ce", alpha=1.2)

    def test_sweep_summary_cells(self):
        from w2slab.trainer import alpha_sweep, summarize_sweep

        task = small_task()
        rows = alpha_sweep(task, ["ce"], [1.0, 0.5], repeats=2,
                           student_cfg=ProbeConfig(feature="projection", width=40))
        summary = summarize_sweep(rows)
        assert len(summary) == 2
        cell = summary[0]
        assert cell["repeats"] == 2
        group = [r["student_acc"] for r in rows if r["alpha"] == cell["alpha"]]
        assert cell["student_acc_mean"] == pytest.approx(np.mean(group))
        assert cell["student_acc_std"] == pytest.approx(np.std(group, ddof=1))

    def test_smoothing_invariance_of_rce_risk(self):
        """Final reverse risks at alpha 0.3 and 1.0 agree within two
        standard deviations over five repeats."""
        task = SyntheticTask(seed=9)
        risks = {0.3: [], 1.0: []}
        for rep in range(5):
            t = dataclasses.replace(
                task,
                seed=int(np.random.SeedSequence([task.seed, rep]).generate_state(1)[0]),
            )
            for a in (0.3, 1.0):
                _, srep = w2s_pipeline(t, loss_name="rce", alpha=a, seed=rep)
                risks[a].append(srep.test_rce_risk)
        r3, r1 = np.array(risks[0.3]), np.array(risks[1.0])
        spread = 2.0 * np.sqrt(r3.std(ddof=1) ** 2 + r1.std(ddof=1) ** 2)
        assert abs(r3.mean() - r1.mean()) <= spread
