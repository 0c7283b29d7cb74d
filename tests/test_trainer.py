"""Trainer tests: determinism, saturated predictions, direction-variance
bookkeeping, and the weak-to-strong pipeline behaviors.  The loss table the
trainer uses is tested in test_losses.py."""

import copy
import dataclasses
import warnings

import numpy as np
import pytest

from w2slab.losses import CompositeLossConfig, loss_table, smooth_labels
from w2slab.trainer import (
    LOSS_NAMES,
    DirectionStream,
    LinearProbeModel,
    ProbeConfig,
    SyntheticTask,
    TrainData,
    gdv,
    labels_to_soft,
    param_distance,
    train,
    train_fits,
    train_many,
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


def pairwise_gdv(grads):
    """Oracle: mean of 1 - cos over ordered pairs of nonzero gradients."""
    kept = [np.asarray(g, dtype=float) for g in grads if np.linalg.norm(g) > 0.0]
    m = len(kept)
    if m < 2:
        return float("nan")
    total = 0.0
    for i in range(m):
        for j in range(m):
            if i != j:
                cos = kept[i] @ kept[j] / (np.linalg.norm(kept[i]) * np.linalg.norm(kept[j]))
                total += 1.0 - cos
    return total / (m * (m - 1))


class TestDirectionStream:
    def test_matches_pairwise_oracle_per_fit(self):
        rng = np.random.default_rng(11)
        fits, dim, steps = 3, 6, 9
        blocks = rng.normal(size=(steps, fits, dim))
        blocks[2, 0] = 0.0  # a zero gradient drops out of fit 0 only
        blocks[5, 0] = 0.0
        blocks[:, 2] = 0.0  # fit 2 keeps one gradient: nan
        blocks[4, 2] = rng.normal(size=dim)
        blocks[:, 1] *= rng.uniform(0.1, 10.0, size=(steps, 1))
        stream = DirectionStream(fits, dim)
        for block in blocks:
            stream.add(block, np.linalg.norm(block, axis=1))
        values = stream.close()
        expected = [pairwise_gdv(blocks[:, j]) for j in range(fits)]
        # nan matches nan: fit 2 has too few gradients for a pair
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)
        assert np.isnan(values[2])
        assert stream.kept[0] == 0  # close starts over
        assert np.isnan(stream.close()).all()

    def test_gdv_is_the_streamed_value(self):
        rng = np.random.default_rng(12)
        grads = [rng.normal(size=5) for _ in range(7)]
        assert gdv(grads) == pytest.approx(pairwise_gdv(grads), abs=1e-12)


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
        model = make_model(steps=0)
        before = model.accuracy(task.sample().test_x, task.sample().test_y)
        rep = train(model, gt_train_data(task), "ce")
        assert rep.param_distance == 0.0
        assert rep.accuracy == pytest.approx(before)

    def test_separable_task_reaches_bayes_level(self):
        # margin of two noise units: optimal accuracy is at least 0.977
        task = small_task(separation=2.0, noise=1.0, n_train=400)
        assert task.bayes_accuracy() >= 0.97
        model = make_model(seed=2, steps=500)
        rep = train(model, gt_train_data(task), "ce", seed=2)
        assert rep.accuracy >= 0.95

    def test_rce_uniform_labels_is_frozen(self):
        task = small_task()
        data = task.sample()
        uniform = np.full((task.n_train, 2), 0.5)
        model = make_model(seed=3, steps=100)
        rep = train(
            model,
            TrainData(data.train_x, uniform, data.test_x, data.test_y),
            "rce",
            seed=3,
            track_gdv=True,
        )
        assert rep.param_distance == 0.0
        assert rep.gdv_trace and all(np.isnan(g) for g in rep.gdv_trace)

    def test_determinism_bit_identical(self):
        task = small_task()
        reports = []
        for _ in range(2):
            model = make_model(seed=4, steps=60)
            reports.append(train(model, gt_train_data(task), "sl", seed=4))
        a, b = reports
        assert a == b

    def test_divergence_reported_with_step(self):
        # ProbeConfig rejects a non-finite step, so start from non-finite
        # parameters: the first step's loss is already non-finite
        from w2slab.trainer import TrainingDiverged

        task = small_task()
        model = make_model(seed=5, steps=50)
        model.weights[:] = np.nan
        with pytest.raises(TrainingDiverged) as err, np.errstate(
            over="ignore", invalid="ignore"
        ):
            train(model, gt_train_data(task), "ce", seed=5)
        assert err.value.step >= 0

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            train(make_model(), gt_train_data(small_task()), "mse")

    @pytest.mark.parametrize("bad", [{"steps": -1}, {"learning_rate": 0.0},
                                     {"batch_size": 0}, {"learning_rate": np.nan},
                                     {"learning_rate": np.inf}, {"init_scale": np.nan},
                                     {"init_scale": np.inf}])
    def test_probe_config_rejects_bad_optimizer_settings(self, bad):
        # train reads these settings from the probe's config, the one check
        with pytest.raises(ValueError):
            make_model(**bad)

    @pytest.mark.parametrize("feature,width", [("identity", 0), ("projection", 40)])
    def test_mean_prediction_is_final_prediction_on_training_inputs(
            self, feature, width):
        task = small_task()
        data = task.sample()
        train_data = TrainData(data.pseudo_x, labels_to_soft(data.pseudo_y),
                               data.test_x, data.test_y)
        model = make_model(feature=feature, width=width, init_scale=0.1, seed=7, steps=40)
        rep = train(model, train_data, "ce", seed=7)
        assert rep.mean_prediction == model.predict_pos(data.pseudo_x).mean()

    def test_head_on_features_repeats_raw_training(self):
        task = small_task()
        data = task.sample()
        model = make_model(feature="projection", width=40, init_scale=0.1, seed=8, steps=40)
        head = model.head()
        raw = train(model, TrainData(data.pseudo_x, labels_to_soft(data.pseudo_y),
                                     data.test_x, data.test_y), "rce", seed=8)
        projected = TrainData(model.features(data.pseudo_x),
                              labels_to_soft(data.pseudo_y),
                              model.features(data.test_x), data.test_y)
        assert train(head, projected, "rce", seed=8) == raw

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_every_loss_trains(self, name):
        task = small_task()
        model = make_model(seed=6, steps=40)
        rep = train(model, gt_train_data(task), name, seed=6)
        assert np.isfinite(rep.final_loss)
        assert rep.accuracy >= 0.0


def every_loss_cells(labels):
    cfg = CompositeLossConfig(sl_weights=(0.7, 0.3))
    cells = [(name, smooth_labels(labels, 0.3), cfg, 0.3) for name in LOSS_NAMES]
    cells.append(("ce", labels, None, 1.0))
    # uniform labels give rce an exactly zero gradient at every step
    cells.append(("rce", smooth_labels(labels, 0.0), None, 0.0))
    return cells


class TestTrainMany:
    @pytest.mark.parametrize("rows,batch", [(64, 16), (40, 32), (12, 32)])
    def test_lockstep_equals_lone_fits(self, rows, batch):
        data = small_task().sample()
        # soft labels of mixed confidence, so the adaptive loss uses both sides
        p1 = np.random.default_rng(rows).uniform(0.05, 0.95, size=rows)
        train_data = TrainData(data.pseudo_x[:rows], np.stack([p1, 1.0 - p1], axis=-1),
                               data.test_x, data.test_y)
        model = make_model(feature="projection", width=30, init_scale=0.1, seed=9,
                           steps=25, batch_size=batch)
        start = model.theta.copy()
        cells = every_loss_cells(train_data.labels)
        reports = train_many(model, train_data, cells, seed=9, track_gdv=True)
        np.testing.assert_array_equal(model.theta, start)  # the start is shared, not moved
        for (name, labels, cfg, alpha), rep in zip(cells, reports):
            lone = make_model(feature="projection", width=30, init_scale=0.1, seed=9,
                              steps=25, batch_size=batch)
            expected = train(lone, dataclasses.replace(train_data, labels=labels), name,
                             seed=9, loss_cfg=cfg, alpha=alpha, track_gdv=True)
            np.testing.assert_equal(dataclasses.asdict(rep), dataclasses.asdict(expected))
            assert len(rep.gdv_trace) == len(rep.grad_norms) > 0
        frozen = reports[-1]
        assert frozen.param_distance == 0.0
        assert all(np.isnan(g) for g in frozen.gdv_trace)
        # an epoch of one step has no pair of gradients to compare
        assert np.isnan(reports[0].mean_gdv) == (rows // batch < 2)

    def test_gdv_trace_matches_pairwise_oracle(self, monkeypatch):
        from w2slab import trainer

        epochs, current = [], []

        class Recording(DirectionStream):
            def add(self, grads, norms):
                current.append(grads.copy())
                super().add(grads, norms)

            def close(self):
                epochs.append(np.array(current))
                current.clear()
                return super().close()

        monkeypatch.setattr(trainer, "DirectionStream", Recording)
        data = small_task().sample()
        train_data = TrainData(data.train_x, labels_to_soft(data.train_y),
                               data.test_x, data.test_y)
        model = make_model(seed=10, steps=23, batch_size=20)
        cells = every_loss_cells(train_data.labels)
        reports = train_many(model, train_data, cells, seed=10, track_gdv=True)
        # 64 rows in batches of 20: three full batches per epoch, the last
        # epoch cut short
        assert [len(e) for e in epochs] == [3] * 7 + [2]
        for j, rep in enumerate(reports):
            expected = [pairwise_gdv(epoch[:, j]) for epoch in epochs]
            np.testing.assert_allclose(rep.gdv_trace, expected, rtol=0, atol=1e-12)
        assert all(np.isnan(reports[-1].gdv_trace))

    def test_epoch_is_one_pass_of_full_batches(self):
        """100 rows in batches of 32: each pass takes three batches and drops
        the last four rows, so 12 steps are four epochs, and each epoch's
        GDV is that of its pass's three gradients, replayed here."""
        data = small_task(n_pseudo=100).sample()
        train_data = TrainData(data.pseudo_x, labels_to_soft(data.pseudo_y),
                               data.test_x, data.test_y)
        model = make_model(seed=11, steps=12, init_scale=0.1)
        w, b = model.weights.copy(), model.bias
        rep = train(model, train_data, "ce", seed=11, track_gdv=True)
        rng = np.random.default_rng(np.random.SeedSequence([11, 0x7247]))
        expected = []
        for _ in range(4):
            order, grads = rng.permutation(100), []
            for s in range(3):
                idx = order[32 * s: 32 * (s + 1)]
                p1 = np.clip(1.0 / (1.0 + np.exp(-(train_data.x[idx] @ w + b))),
                             1e-12, 1.0 - 1e-12)
                _, dldp = loss_table("ce", train_data.labels[idx],
                                     np.stack([p1, 1.0 - p1], axis=-1),
                                     CompositeLossConfig())
                dldu = dldp * p1 * (1.0 - p1)
                grad = np.append(train_data.x[idx].T @ dldu / 32, dldu.mean())
                w, b = w - 0.1 * grad[:-1], b - 0.1 * grad[-1]
                grads.append(grad)
            expected.append(pairwise_gdv(grads))
        assert len(rep.grad_norms) == 4
        np.testing.assert_allclose(rep.gdv_trace, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.weights, w, rtol=0, atol=1e-12)

    def test_gdv_off_by_default(self):
        rep = train(make_model(seed=1, steps=10), gt_train_data(small_task()), "ce", seed=1)
        assert rep.gdv_trace == () and np.isnan(rep.mean_gdv)
        assert len(rep.grad_norms) == 5  # 64 rows in batches of 32, 10 steps

    def test_bad_cells_rejected(self):
        data = gt_train_data(small_task())
        with pytest.raises(ValueError, match="cell"):
            train_many(make_model(), data, [])
        with pytest.raises(ValueError, match="loss"):
            train_many(make_model(), data, [("ce", data.labels, None, 1.0),
                                            ("mse", data.labels, None, 1.0)])

    def test_only_reported_fits_track_gdv(self, monkeypatch):
        """Teacher fits and the bias-variance fits skip the GDV; the
        classify students, whose mean_gdv is written out, keep it."""
        from w2slab import cli, trainer

        streams, gdv_calls = [], []

        class Counting(DirectionStream):
            def add(self, grads, norms):
                streams.append(grads.shape[0])
                super().add(grads, norms)

        def counted_gdv(*args, **kwargs):
            gdv_calls.append(args)
            return gdv(*args, **kwargs)

        monkeypatch.setattr(trainer, "DirectionStream", Counting)
        monkeypatch.setattr(trainer, "gdv", counted_gdv)
        cfg = {key: default for key, (_, default) in cli.SCHEMAS["bias-variance"].items()}
        # split_train below the batch size: the teachers train on short batches
        cfg.update(task_seeds=1, dim=5, n_test=20, split_train=16, split_pseudo=64)
        rows, _, _ = cli.run_bias_variance(cfg)
        assert len(rows) == 3 * 20
        assert streams == [] and gdv_calls == []

        student = ProbeConfig(feature="projection", width=40, steps=30)
        _, s_rep = w2s_pipeline(small_task(), student_cfg=student,
                                teacher_cfg=ProbeConfig(steps=30), loss_name="ce")
        # one stream step per student step, none for the teacher
        assert streams == [1] * 30 and gdv_calls == []
        assert len(s_rep.gdv_trace) > 0


class TestTrainFits:
    @staticmethod
    def independent_fits(rows, batch, feature="projection", width=30):
        """Three fits with their own inputs, labels, start weights and seeds."""
        data = small_task(n_pseudo=256).sample()
        fits = []
        for j in range(3):
            x = data.pseudo_x[j * 64: j * 64 + rows]
            p1 = np.random.default_rng([rows, j]).uniform(0.05, 0.95, size=rows)
            model = make_model(feature=feature, width=width, init_scale=0.1,
                               seed=20 + j, steps=25, batch_size=batch)
            fits.append((model, TrainData(x, np.stack([p1, 1.0 - p1], axis=-1),
                                          data.test_x, data.test_y), 30 + j))
        return fits

    @pytest.mark.parametrize("feature,width", [("identity", 0), ("projection", 30)])
    @pytest.mark.parametrize("rows,batch", [(64, 16), (40, 32), (12, 32)])
    def test_lockstep_equals_lone_fits(self, rows, batch, feature, width):
        fits = self.independent_fits(rows, batch, feature, width)
        lone = self.independent_fits(rows, batch, feature, width)
        models, datas, seeds = zip(*fits)
        reports = train_fits(models, datas, seeds)
        for (model, data, seed), rep, (l_model, l_data, l_seed) in zip(fits, reports, lone):
            expected = train(l_model, l_data, "ce", seed=l_seed)
            np.testing.assert_equal(dataclasses.asdict(rep), dataclasses.asdict(expected))
            np.testing.assert_array_equal(model.weights, l_model.weights)
            assert model.bias == l_model.bias
        # the fits differ, so none trained another's weights
        assert len({rep.param_distance for rep in reports}) == 3

    def test_shared_inputs_and_seed_share_one_gather(self, monkeypatch):
        from w2slab import trainer

        gathers = []
        features = trainer.LinearProbeModel.features

        class Counted(np.ndarray):
            def __getitem__(self, item):
                if isinstance(item, np.ndarray) and item.dtype.kind == "i":
                    gathers.append(item)  # a batch gather, not a view
                return np.asarray(self)[item]

        def counted_features(self, x):
            return features(self, x).view(Counted)

        monkeypatch.setattr(trainer.LinearProbeModel, "features", counted_features)
        (model, data, _), (other, other_data, _), _ = self.independent_fits(64, 16)
        # two fits on one input array, one feature map and one seed, and one
        # fit on other inputs: two gathers per step
        twin = copy.copy(model)
        reports = train_fits([model, twin, other], [data, data, other_data], [5, 5, 6])
        assert len(gathers) == 2 * 25
        assert reports[0] == reports[1]
        gathers.clear()
        train_many(model, data, [("ce", data.labels, None, 1.0)] * 3, seed=5)
        assert len(gathers) == 25

    def test_mismatched_fits_rejected_before_any_step(self, monkeypatch):
        from w2slab import trainer

        def no_features(self, x):
            raise AssertionError("features computed before the fits were checked")

        monkeypatch.setattr(trainer.LinearProbeModel, "features", no_features)
        (model, data, seed), (other, other_data, other_seed), _ = self.independent_fits(64, 16)
        longer = make_model(feature="projection", width=30, seed=2, steps=26, batch_size=16)
        short = dataclasses.replace(other_data, x=other_data.x[:60],
                                    labels=other_data.labels[:60])
        # one config, but identity probes over 20 and 19 inputs
        wide, narrow = (make_model(dim=dim, seed=2, steps=25, batch_size=16)
                        for dim in (20, 19))
        for models, datas in (([model, longer], [data, other_data]),
                              ([model, other], [data, short]),
                              ([wide, narrow], [data, other_data])):
            with pytest.raises(ValueError, match="ProbeConfig"):
                train_fits(models, datas, [seed, other_seed])
        with pytest.raises(ValueError, match="ProbeConfig"):
            train_many(model, data, [("ce", data.labels[:60], None, 1.0)])
        # one data set and one seed per model
        for datas, seeds in (([data], [seed, other_seed]), ([data, other_data], [seed])):
            with pytest.raises(ValueError, match="one seed per model"):
                train_fits([model, other], datas, seeds)


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

    def test_sweep_rows_equal_per_cell_pipelines(self):
        from w2slab.trainer import alpha_sweep

        task = small_task()
        losses, alphas = ["ce", "rce", "cace", "aux"], [0.01, 1.0]
        student = ProbeConfig(feature="projection", width=40, init_scale=0.1)
        rows = alpha_sweep(task, losses, alphas, repeats=2, student_cfg=student)
        expected = []
        for repeat in range(2):
            repeat_task = dataclasses.replace(task, seed=int(
                np.random.SeedSequence([task.seed, repeat]).generate_state(1)[0]))
            for loss in losses:
                for alpha in alphas:
                    t_rep, s_rep = w2s_pipeline(
                        repeat_task, student_cfg=student, loss_name=loss,
                        alpha=alpha, seed=repeat)
                    expected.append({
                        "loss": loss, "alpha": alpha, "repeat": repeat,
                        "teacher_acc": t_rep.accuracy,
                        "student_acc": s_rep.accuracy,
                        "param_distance": s_rep.param_distance,
                        "mean_gdv": s_rep.mean_gdv,
                    })
        assert rows == expected
        # the cells differ, so no cell's training leaked into another's start
        assert len({r["param_distance"] for r in rows}) == len(rows)

    def test_sweep_draws_and_fits_once_per_repeat(self, monkeypatch):
        from w2slab import trainer

        draws, teacher_fits = [], []
        sample, fit = trainer.SyntheticTask.sample, trainer.train

        def counted_sample(self):
            draws.append(self.seed)
            return sample(self)

        def counted_train(model, data, loss_name, **kw):
            if model.cfg.feature == "identity":
                teacher_fits.append(kw.get("seed"))
            return fit(model, data, loss_name, **kw)

        monkeypatch.setattr(trainer.SyntheticTask, "sample", counted_sample)
        monkeypatch.setattr(trainer, "train", counted_train)
        rows = trainer.alpha_sweep(
            small_task(), ["ce", "rce"], [0.1, 1.0], repeats=2,
            student_cfg=ProbeConfig(feature="projection", width=40))
        assert len(rows) == 8
        assert len(draws) == 2 and len(set(draws)) == 2
        assert len(teacher_fits) == 2 and len(set(teacher_fits)) == 2

    def test_sweep_checks_every_alpha_before_training(self, monkeypatch):
        from w2slab import trainer

        def no_sample(self):
            raise AssertionError("task drawn before the alphas were checked")

        monkeypatch.setattr(trainer.SyntheticTask, "sample", no_sample)
        with pytest.raises(ValueError, match="alpha"):
            trainer.alpha_sweep(small_task(), ["ce"], [0.1, 1.0, 1.5], repeats=1)
        with pytest.raises(ValueError, match="losses"):
            trainer.alpha_sweep(small_task(), ["ce", "mse"], [0.1], repeats=1)
        with pytest.raises(ValueError, match="repeats"):
            trainer.alpha_sweep(small_task(), ["ce"], [0.1], repeats=0)

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
