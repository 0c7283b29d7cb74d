"""Trainer tests: determinism, saturated predictions, the gradient direction
variance, and the weak-to-strong pipeline behaviors.  The loss table the
trainer uses is tested in test_losses.py."""

import copy
import dataclasses
import warnings

import numpy as np
import pytest

from w2slab.losses import aux_beta, confidence_threshold, loss_grads, rce, smooth_labels
from w2slab.trainer import (
    LOSS_NAMES,
    LinearProbeModel,
    ProbeConfig,
    SyntheticTask,
    TrainData,
    fit_probes,
    gdv,
    labels_to_soft,
    train,
    train_fits,
)


def small_task(**kw):
    defaults = dict(dim=20, separation=2.0, noise=1.0, n_train=64,
                    n_pseudo=256, n_test=200, seed=1)
    defaults.update(kw)
    return SyntheticTask(**defaults)


def make_model(dim=20, width=0, feature="identity", seed=0, **kw):
    cfg = ProbeConfig(feature=feature, width=width, **kw)
    return LinearProbeModel(dim, cfg, np.random.default_rng(seed))


def w2s_pipeline(task, teacher_cfg=None, student_cfg=None, loss_name="ce", alpha=1.0,
                 seed=0):
    """Oracle: one ``(loss_name, alpha)`` cell of the ``classify`` command's
    repeat ``seed`` on ``task``, every fit alone.  The teacher trains on
    ground truth, its pseudo-label probabilities are smoothed by ``alpha``
    (which ``smooth_labels`` checks), and the student, by default over
    ``8 * task.dim`` random features, trains on them under ``loss_name``,
    each in its own ``train`` call from the command's seeds.  Returns the
    trained teacher and student, to be read on ``task.sample()``'s
    splits."""
    data = task.sample()
    seq = np.random.SeedSequence([task.seed, seed, 0x5EED])
    t_seed, s_seed = [int(s.generate_state(1)[0]) for s in seq.spawn(2)]
    teacher = LinearProbeModel(task.dim, teacher_cfg or ProbeConfig(),
                               np.random.default_rng(t_seed))
    train(teacher, TrainData(data.train_x, labels_to_soft(data.train_y)), "ce", seed=t_seed)
    student_cfg = student_cfg or ProbeConfig(feature="projection", width=8 * task.dim)
    student = LinearProbeModel(task.dim, student_cfg, np.random.default_rng(s_seed))
    labels = smooth_labels(teacher.predict_proba(data.pseudo_x), alpha)
    train(student, TrainData(data.pseudo_x, labels), loss_name, seed=s_seed)
    return teacher, student


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

    def test_splits_yield_sample_arrays(self):
        task = small_task()
        data = task.sample()
        drawn = [array for split in task.splits() for array in split]
        expected = [data.train_x, data.train_y, data.pseudo_x, data.pseudo_y,
                    data.test_x, data.test_y]
        assert len(drawn) == len(expected)
        for array, want in zip(drawn, expected):
            np.testing.assert_array_equal(array, want)

    def test_interleaved_splits_equal_lone_draws(self):
        # each task draws from its own stream, so the order in which the
        # generators of several tasks advance changes none of their arrays
        tasks = [small_task(seed=seed) for seed in (1, 2, 3)]
        draws = [task.splits() for task in tasks]
        got = [[] for _ in tasks]
        for j in (2, 0, 0, 1, 2, 1, 0, 2, 1):
            got[j].append(next(draws[j]))
        for task, splits in zip(tasks, got):
            for (x, y), (want_x, want_y) in zip(splits, task.splits()):
                np.testing.assert_array_equal(x, want_x)
                np.testing.assert_array_equal(y, want_y)


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

    def test_matches_pairwise_cosine_oracle(self):
        rng = np.random.default_rng(12)
        grads = [rng.normal(size=5) for _ in range(7)]
        assert gdv(grads) == pytest.approx(pairwise_gdv(grads), abs=1e-12)


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


class TestParamDistance:
    """``distance_from_init``, the ``param_distance`` column of ``classify``."""

    def test_zero_for_same(self):
        assert make_model(dim=4, init_scale=0.5).distance_from_init() == 0.0

    def test_pythagorean(self):
        model = make_model(dim=1)  # init_scale 0: theta starts at (0, 0)
        model.weights, model.bias = np.array([3.0]), 4.0
        assert model.distance_from_init() == 5.0


def replay_in_weight_space(model, data, cell, seed):
    """Oracle: mini-batch gradient descent on ``(w, b)`` over the features
    ``z = model.features(x)``, one step at a time, each pass over the rows
    drawing its batch order from ``seed`` and taking ``n // batch_size``
    full batches, for ``n`` of at least one batch.  Returns the final
    weights and bias and the ``(w, b)`` gradients of each epoch."""
    name, labels = cell
    cut = confidence_threshold(labels) if name == "cace" else 0.0
    steps, lr, batch = model.cfg.steps, model.cfg.learning_rate, model.cfg.batch_size
    z = model.features(data.x)
    w, b = model.weights.copy(), model.bias
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7247]))
    epochs, done = [], 0
    while done < steps:
        order, grads = rng.permutation(len(z)), []
        for s in range(min(len(z) // batch, steps - done)):
            idx = order[batch * s: batch * (s + 1)]
            p1 = np.clip(1.0 / (1.0 + np.exp(-(z[idx] @ w + b))), 1e-12, 1.0 - 1e-12)
            beta = aux_beta(done + s, steps) if name == "aux" else 0.0
            dldp = loss_grads(name, labels[idx], np.stack([p1, 1.0 - p1], axis=-1),
                              cut, beta)
            dldu = dldp * p1 * (1.0 - p1)
            grad = np.append(z[idx].T @ dldu / batch, dldu.mean())
            w, b = w - lr * grad[:-1], b - lr * grad[-1]
            grads.append(grad)
        epochs.append(grads)
        done += len(grads)
    return w, b, epochs


def assert_replayed(model, expected, tol):
    """The trained ``model`` agrees with a weight-space replay
    (``replay_in_weight_space``) to ``tol``."""
    w, b, _ = expected
    np.testing.assert_allclose(model.weights, w, rtol=0, atol=tol)
    assert abs(model.bias - b) <= tol


# identity probes repeat the replay's arithmetic; projection probes train
# v = P^T w in input space, which moves the last bits.  The settings below
# are stable (lr / 4 times the top eigenvalue of z^T z / n, a bound on the
# ce step's curvature, is about 0.2 against 2), so the two stay within
# rounding of each other
PROBES = [pytest.param("identity", 0, 1e-12, id="identity"),
          pytest.param("projection", 30, 1e-10, id="projection")]


def gt_train_data(task):
    data = task.sample()
    return TrainData(data.train_x, labels_to_soft(data.train_y))


class TestTrain:
    def test_zero_steps_is_identity(self):
        data = small_task().sample()
        model = make_model(steps=0)
        before = model.accuracy(data.test_x, data.test_y)
        assert train(model, gt_train_data(small_task()), "ce") is None
        assert model.distance_from_init() == 0.0
        assert model.accuracy(data.test_x, data.test_y) == before

    def test_separable_task_reaches_bayes_level(self):
        # margin of two noise units: optimal accuracy is at least 0.977
        task = small_task(separation=2.0, noise=1.0, n_train=400)
        assert task.bayes_accuracy() >= 0.97
        model = make_model(seed=2, steps=500)
        train(model, gt_train_data(task), "ce", seed=2)
        data = task.sample()
        assert model.accuracy(data.test_x, data.test_y) >= 0.95

    def test_rce_uniform_labels_is_frozen(self):
        task = small_task()
        data = task.sample()
        uniform = np.full((task.n_train, 2), 0.5)
        model = make_model(seed=3, steps=100)
        train(model, TrainData(data.train_x, uniform), "rce", seed=3)
        assert model.distance_from_init() == 0.0

    def test_determinism_bit_identical(self):
        task = small_task()
        models = []
        for _ in range(2):
            models.append(make_model(seed=4, steps=60))
            train(models[-1], gt_train_data(task), "sl", seed=4)
        a, b = models
        assert a.distance_from_init() > 0.0
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_training_calls_no_prediction(self, monkeypatch):
        """``train``, ``train_fits`` and ``fit_probes`` step the models and
        make no prediction: the caller reads what it needs off them."""
        calls = []
        predict_pos = LinearProbeModel.predict_pos

        def counted(self, x):
            calls.append(len(x))
            return predict_pos(self, x)

        monkeypatch.setattr(LinearProbeModel, "predict_pos", counted)
        data = gt_train_data(small_task())
        labels = data.labels
        for feature, width in (("identity", 0), ("projection", 30)):
            def make(seed):
                return make_model(feature=feature, width=width, seed=seed, steps=10)

            train(make(1), data, "ce", seed=1)
            train_fits([make(2), make(3)], data.x,
                       [(None, labels, "ce", 2), (None, labels, "rce", 2)])
            rows = np.arange(len(labels))
            train_fits([make(4), make(5)], data.x,
                       [(rows, labels, "ce", 4), (rows[::-1], labels, "aux", 5)])
            fit_probes(make(6).cfg, 20, data.x,
                       [(rows, labels, "ce", 6), (rows[::-1], labels, "cace", 6)])
        assert calls == []

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

    def test_divergence_at_first_nonfinite_gradient_step(self):
        """A NaN input row makes the gradient of the first step whose batch
        holds it non-finite; training raises at that step and leaves the
        model as it was."""
        from w2slab.trainer import TrainingDiverged

        data = gt_train_data(small_task())
        seed, batch = 5, 8
        # the batch order of the first pass: n // batch steps of batch rows
        order = np.random.default_rng(np.random.SeedSequence([seed, 0x7247])).permutation(64)
        x = data.x.copy()
        x[order[5 * batch + 3]] = np.nan
        model = make_model(seed=5, steps=50, batch_size=batch)
        before = model.theta
        with pytest.raises(TrainingDiverged) as err:
            train(model, TrainData(x, data.labels), "ce", seed=seed)
        assert err.value.step == 5
        assert np.isnan(err.value.loss)
        np.testing.assert_array_equal(model.theta, before)

    def test_finite_steps_compute_no_loss_value(self, monkeypatch):
        """A step asks the loss table for gradients only: training every
        loss calls none of the entropy-family losses."""
        from w2slab import losses

        def refuse(*args, **kwargs):
            raise AssertionError("a training step computed a loss value")

        for name in ("ce", "rce", "kl", "rkl"):
            monkeypatch.setattr(losses, name, refuse)
        data = gt_train_data(small_task())
        cells = every_loss_cells(data.labels)
        models = [make_model(seed=7, steps=20) for _ in cells]
        train_fits(models, data.x, shared_rows(cells, seed=7))
        assert all(np.isfinite(m.theta).all() for m in models)

    def test_kl_trains_on_zero_label_coordinate(self):
        # kl's value at a label coordinate of exactly 0 is NaN (0 log 0),
        # yet its gradient, ce's, is finite: it trains as ce does.  Every
        # command clamps its labels into the simplex interior first
        data = small_task().sample()
        pos = (data.train_y > 0).astype(float)
        labels = np.stack([pos, 1.0 - pos], axis=-1)
        kl_model, ce_model = make_model(seed=8, steps=30), make_model(seed=8, steps=30)
        train(kl_model, TrainData(data.train_x, labels), "kl", seed=8)
        train(ce_model, TrainData(data.train_x, labels), "ce", seed=8)
        assert kl_model.distance_from_init() > 0.0
        np.testing.assert_array_equal(kl_model.weights, ce_model.weights)
        assert kl_model.bias == ce_model.bias

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

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_every_loss_trains(self, name):
        task = small_task()
        model = make_model(seed=6, steps=40)
        # a step whose gradient is not finite raises TrainingDiverged
        train(model, gt_train_data(task), name, seed=6)
        assert np.isfinite(model.theta).all()


def shared_rows(cells, seed=0):
    """``train_fits`` fits on every row of the inputs, one per
    ``(loss_name, labels)`` cell, all from ``seed``."""
    return [(None, labels, name, seed) for name, labels in cells]


def every_loss_cells(labels):
    cells = [(name, smooth_labels(labels, 0.3)) for name in LOSS_NAMES]
    # a second cace and aux fit, at its own confidence cut and its own
    # batch's hardening cut, beside the first in one table call
    cells += [("cace", labels), ("aux", labels)]
    cells.append(("ce", labels))
    # uniform labels give rce an exactly zero gradient at every step
    cells.append(("rce", smooth_labels(labels, 0.0)))
    return cells


class TestTrainMany:
    """``train_fits`` on shared rows: every fit reads every row of ``x``."""

    @pytest.mark.parametrize("rows,batch", [(64, 16), (40, 32), (12, 32)])
    def test_lockstep_equals_lone_fits(self, rows, batch):
        """Copies of one model, which share its start arrays and projection
        (a classify repeat), then models of their own seeds, each train bit
        for bit as a lone ``train`` of that model on its cell."""
        data = small_task().sample()
        # soft labels of mixed confidence, so the adaptive loss uses both sides
        p1 = np.random.default_rng(rows).uniform(0.05, 0.95, size=rows)
        train_data = TrainData(data.pseudo_x[:rows], np.stack([p1, 1.0 - p1], axis=-1))
        cells = every_loss_cells(train_data.labels)
        for shared in (True, False):
            def make(j):
                return make_model(feature="projection", width=30, init_scale=0.1,
                                  seed=9 if shared else 9 + j, steps=25, batch_size=batch)

            model = make(0)
            start = model.theta.copy()
            models = ([copy.copy(model) for _ in cells] if shared
                      else [make(j) for j in range(len(cells))])
            assert train_fits(models, train_data.x, shared_rows(cells, seed=9)) is None
            # training rebinds the copies' arrays and never writes the shared start
            np.testing.assert_array_equal(model.theta, start)
            for j, ((name, labels), trained) in enumerate(zip(cells, models)):
                lone = make(j)
                train(lone, dataclasses.replace(train_data, labels=labels), name, seed=9)
                np.testing.assert_array_equal(trained.weights, lone.weights)
                assert trained.bias == lone.bias
        assert models[-1].distance_from_init() == 0.0  # the rce fit on uniform labels

    @pytest.mark.parametrize("feature,width,tol", PROBES)
    def test_every_loss_matches_weight_space_replay(self, feature, width, tol):
        """Every loss's fit, trained beside the others in one call, ends at
        the weights and bias of its weight-space replay."""
        train_data = gt_train_data(small_task())
        model = make_model(feature=feature, width=width, seed=10, steps=23, batch_size=20)
        cells = every_loss_cells(train_data.labels)
        models = [copy.copy(model) for _ in cells]
        train_fits(models, train_data.x, shared_rows(cells, seed=10))
        for (name, labels), trained in zip(cells, models):
            expected = replay_in_weight_space(model, dataclasses.replace(
                train_data, labels=labels), (name, labels), seed=10)
            # 64 rows in batches of 20: three full batches per epoch, the
            # last epoch cut short
            assert [len(e) for e in expected[2]] == [3] * 7 + [2]
            assert_replayed(trained, expected, tol)

    @pytest.mark.parametrize("feature,width,tol", PROBES)
    def test_epoch_is_one_pass_of_full_batches(self, feature, width, tol):
        """100 rows in batches of 32: each pass takes three batches and drops
        the last four rows, so 12 steps are four epochs, replayed here in
        weight space."""
        data = small_task(n_pseudo=100).sample()
        train_data = TrainData(data.pseudo_x, labels_to_soft(data.pseudo_y))
        model = make_model(feature=feature, width=width, seed=11, steps=12, init_scale=0.1)
        expected = replay_in_weight_space(
            model, train_data, ("ce", train_data.labels), seed=11)
        assert [len(e) for e in expected[2]] == [3] * 4
        train(model, train_data, "ce", seed=11)
        assert_replayed(model, expected, tol)

    def test_bad_cells_rejected(self):
        data = gt_train_data(small_task())
        for models, cells in (([], []), ([make_model()], []),
                              ([make_model()], [("ce", data.labels)] * 2)):
            with pytest.raises(ValueError, match="one fit per model"):
                train_fits(models, data.x, shared_rows(cells))
        with pytest.raises(ValueError, match="loss"):
            train_fits([make_model(), make_model()], data.x,
                       shared_rows([("ce", data.labels), ("mse", data.labels)]))


class TestTrainFits:
    @staticmethod
    def independent_fits(rows, batch, feature="projection", width=30):
        """The task data and three fits with their own models, rows of the
        pseudo inputs, labels and seeds."""
        data = small_task(n_pseudo=256).sample()
        models, fits = [], []
        for j in range(3):
            p1 = np.random.default_rng([rows, j]).uniform(0.05, 0.95, size=rows)
            models.append(make_model(feature=feature, width=width, init_scale=0.1,
                                     seed=20 + j, steps=25, batch_size=batch))
            fits.append((np.arange(j * 64, j * 64 + rows),
                         np.stack([p1, 1.0 - p1], axis=-1), "ce", 30 + j))
        return data, models, fits

    @staticmethod
    def assert_lone_fits(data, make, fits):
        """``train_fits`` on the fits' rows of ``data.pseudo_x``, one model
        ``make(j)`` per fit, leaves each model's final weights and bias bit
        for bit those of a lone ``train`` on the gathered copy of its rows.
        Returns the trained models."""
        x = data.pseudo_x
        models = [make(j) for j in range(len(fits))]
        assert train_fits(models, x, fits) is None
        for j, (model, (rows, labels, loss_name, seed)) in enumerate(zip(models, fits)):
            lone = make(j)
            train(lone, TrainData(x[rows], labels), loss_name, seed=seed)
            np.testing.assert_array_equal(model.weights, lone.weights)
            assert model.bias == lone.bias
        return models

    @pytest.mark.parametrize("feature,width", [("identity", 0), ("projection", 30)])
    @pytest.mark.parametrize("rows,batch", [(64, 16), (40, 32), (12, 32)])
    def test_lockstep_equals_lone_fits(self, rows, batch, feature, width):
        data, _, fits = self.independent_fits(rows, batch, feature, width)

        def make(j):
            return make_model(feature=feature, width=width, init_scale=0.1, seed=20 + j,
                              steps=25, batch_size=batch)

        models = self.assert_lone_fits(data, make, fits)
        # the fits differ, so none trained another's weights
        assert len({model.distance_from_init() for model in models}) == 3
        # overlapping rows of one array: the first two fits read the same
        # rows from two seeds, the third other rows from the first seed, and
        # the fourth reads the first's rows array from its seed; four fits
        # from two seeds
        (_, other_labels, *_), (first, labels, *_) = fits[:2]
        shifted = first + rows // 2
        overlapping = [(first, labels, "ce", 40), (first, other_labels, "ce", 41),
                       (shifted, other_labels, "ce", 40), (first, labels, "ce", 40)]
        self.assert_lone_fits(data, make, overlapping)
        # one seed: other rows, then the same rows, which share one gather
        self.assert_lone_fits(data, make, [overlapping[0], overlapping[2]])
        self.assert_lone_fits(data, make, [overlapping[0], overlapping[3]])

    @pytest.mark.parametrize("feature,width", [("identity", 0), ("projection", 30)])
    def test_mixed_losses_on_own_rows_equal_lone_fits(self, feature, width):
        """Fits of the ce, rce, cace and aux losses on rows of their own each
        end bit for bit as a lone ``train`` on their gathered rows: from
        seeds of their own, from one seed, and from one seed on one rows
        array, which share one gather."""
        data = small_task(n_pseudo=256).sample()
        fits = []
        for j, name in enumerate(("ce", "rce", "cace", "aux")):
            p1 = np.random.default_rng([7, j]).uniform(0.05, 0.95, size=48)
            fits.append((np.arange(j * 64, j * 64 + 48), np.stack([p1, 1.0 - p1], axis=-1),
                         name, 50 + j))

        def make(j):
            return make_model(feature=feature, width=width, init_scale=0.1, seed=20 + j,
                              steps=25, batch_size=16)

        models = self.assert_lone_fits(data, make, fits)
        assert len({model.distance_from_init() for model in models}) == 4
        self.assert_lone_fits(data, make, [(rows, labels, name, 60)
                                           for rows, labels, name, _ in fits])
        first = fits[0][0]
        self.assert_lone_fits(data, make, [(first, labels, name, 60)
                                           for _, labels, name, _ in fits])

    @staticmethod
    def counting_gathers(x, gathers):
        """``x`` as inputs that record each row gather in ``gathers``, by
        indexing or by ``np.take``."""

        class Counted(np.ndarray):
            def __getitem__(self, item):
                if isinstance(item, np.ndarray) and item.dtype.kind == "i":
                    gathers.append(item)  # a row gather, not a view
                return np.asarray(self)[item]

            def take(self, indices, *args, **kwargs):
                gathers.append(indices)
                return np.asarray(self).take(indices, *args, **kwargs)

        return x.view(Counted)

    def test_shared_inputs_and_seed_share_one_gather(self):
        gathers = []
        data, (model, other, third), fits = self.independent_fits(64, 16)
        x = self.counting_gathers(data.pseudo_x, gathers)
        # one gather per step for all fits, whatever the number of seeds and
        # rows, and none after the last step
        train_fits([model, other, third], x, fits)
        assert len(gathers) == 25
        # two fits of one model on one row array and one seed, and one fit
        # on other rows from another seed
        gathers.clear()
        fresh = make_model(feature="projection", width=30, init_scale=0.1, seed=20,
                           steps=25, batch_size=16)
        twin = copy.copy(fresh)
        train_fits([fresh, twin, other], x, [fits[0], fits[0], fits[1]])
        assert len(gathers) == 25
        np.testing.assert_array_equal(fresh.weights, twin.weights)
        assert fresh.bias == twin.bias
        gathers.clear()
        labels = labels_to_soft(data.pseudo_y)
        train_fits([copy.copy(model) for _ in range(3)], x, [(None, labels, "ce", 5)] * 3)
        assert len(gathers) == 25

    def test_list_inputs_train_as_their_array(self):
        data, _, fits = self.independent_fits(40, 16)

        def make(j):
            return make_model(feature="projection", width=30, init_scale=0.1,
                              seed=20 + j, steps=25, batch_size=16)

        from_array = [make(j) for j in range(len(fits))]
        from_list = [make(j) for j in range(len(fits))]
        train_fits(from_array, data.pseudo_x, fits)
        train_fits(from_list, data.pseudo_x.tolist(), fits)
        for a, b in zip(from_array, from_list):
            np.testing.assert_array_equal(a.weights, b.weights)
            assert a.bias == b.bias

    def test_mismatched_fits_rejected_before_any_step(self):
        gathers = []
        data, (model, other, _), (fit, other_fit, _) = self.independent_fits(64, 16)
        x = self.counting_gathers(data.pseudo_x, gathers)
        longer = make_model(feature="projection", width=30, seed=2, steps=26, batch_size=16)
        rows, labels, _, seed = other_fit
        short = (rows[:60], labels[:60], "ce", seed)
        # one config, but identity probes over 20 and 19 inputs, and
        # projection probes of one width over 20 and 19 inputs
        wide, narrow = (make_model(dim=dim, seed=2, steps=25, batch_size=16)
                        for dim in (20, 19))
        wide_p, narrow_p = (make_model(dim=dim, feature="projection", width=30, seed=2,
                                       steps=25, batch_size=16) for dim in (20, 19))
        for models, fits in (([model, longer], [fit, other_fit]),
                             ([model, other], [fit, short]),
                             ([wide, narrow], [fit, other_fit]),
                             ([wide_p, narrow_p], [fit, other_fit])):
            with pytest.raises(ValueError, match="ProbeConfig"):
                train_fits(models, x, fits)
        with pytest.raises(ValueError, match="ProbeConfig"):
            train_fits([model], data.pseudo_x, [(None, labels[:60], "ce", 0)])
        # one fit per model
        for fits in ([fit], [fit, other_fit, fit]):
            with pytest.raises(ValueError, match="one fit per model"):
                train_fits([model, other], x, fits)
        # row indices: a negative one (which numpy would wrap around to a
        # row from the end), one past the last row, one fewer or one more
        # than the labels, and indices that are not integers
        for bad in (np.r_[-1, rows[1:]], np.r_[rows[:-1], len(x)],
                    rows[:-1], np.r_[rows, 0], rows.astype(float), rows > 0):
            with pytest.raises(ValueError, match="row index"):
                train_fits([model, other], x, [fit, (bad, labels, "ce", seed)])
        # inputs of one column fewer or more than the probes' input dimension
        counted = TrainData(x, labels_to_soft(data.pseudo_y))
        for feature, width in (("identity", 0), ("projection", 30)):
            for dim in (19, 21):
                probes = [make_model(dim=dim, feature=feature, width=width, seed=2,
                                     steps=25, batch_size=16) for _ in range(2)]
                sizes = rf"rows of {dim} columns.*shape \(256, 20\)"
                with pytest.raises(ValueError, match=sizes):
                    train(probes[0], counted, "ce")
                with pytest.raises(ValueError, match=sizes):
                    train_fits(probes, x, [(None, counted.labels, "ce", 0)] * 2)
                with pytest.raises(ValueError, match=sizes):
                    train_fits(probes, x, [fit, other_fit])
        assert gathers == []  # no batch was gathered

    def test_empty_fits_and_bad_labels_rejected_before_any_step(self):
        """A fit of zero rows, or labels that are not ``(n, 2)`` rows beside
        a cell whose labels are, raise ``ValueError`` before any batch is
        gathered, through ``train`` and ``train_fits`` on shared or own rows."""
        gathers = []
        data, (model, other, _), (fit, (rows, _, _, seed), _) = self.independent_fits(64, 16)
        x = self.counting_gathers(data.pseudo_x, gathers)
        no_rows, no_labels = np.arange(0), np.empty((0, 2))
        with pytest.raises(ValueError, match="at least one training row"):
            train_fits([model, other], x,
                       [(no_rows, no_labels, "ce", 1), (no_rows, no_labels, "ce", 2)])
        empty = TrainData(self.counting_gathers(data.pseudo_x[:0], gathers), no_labels)
        with pytest.raises(ValueError, match="at least one training row"):
            train(model, empty, "ce")
        three = np.full((len(rows), 3), 1 / 3)
        with pytest.raises(ValueError, match=r"labels must be \(n, 2\) rows"):
            train_fits([model, other], x, [fit, (rows, three, "ce", seed)])
        labels = labels_to_soft(data.pseudo_y)
        with pytest.raises(ValueError, match=r"labels must be \(n, 2\) rows"):
            train_fits([model, other], x, shared_rows(
                [("ce", labels), ("rce", np.full((len(x), 3), 1 / 3))]))
        assert gathers == []


    def test_mixed_none_and_index_rows_rejected_before_any_step(self):
        gathers = []
        data, (model, other, _), (fit, (_, _, _, seed), _) = self.independent_fits(64, 16)
        x = self.counting_gathers(data.pseudo_x, gathers)
        every_row = (None, labels_to_soft(data.pseudo_y), "ce", seed)
        start = model.theta.copy()
        for fits in ([fit, every_row], [every_row, fit]):
            with pytest.raises(ValueError, match="all give rows or all give None"):
                train_fits([model, other], x, fits)
        assert gathers == []
        np.testing.assert_array_equal(model.theta, start)


class TestFitProbes:
    def test_one_probe_per_seed(self, monkeypatch):
        """Fits of one seed train copies of one probe, which share its
        projection; a fit of another seed gets a probe of its own.  Each
        model ends bit for bit as a probe drawn from its fit's seed and
        trained alone."""
        data = gt_train_data(small_task())
        cfg = ProbeConfig(feature="projection", width=30, init_scale=0.1, steps=25,
                          batch_size=16)
        rows = np.arange(len(data.x))
        for fits in ([(rows, data.labels, "ce", 3), (rows[::-1], data.labels, "rce", 3),
                      (rows, data.labels, "ce", 4)],
                     [(None, data.labels, "ce", 3), (None, data.labels, "sl", 3),
                      (None, data.labels, "aux", 4)]):
            inits = []
            init = LinearProbeModel.__init__

            def counted(model, *args, init=init):
                inits.append(args)
                init(model, *args)

            with monkeypatch.context() as patch:
                patch.setattr(LinearProbeModel, "__init__", counted)
                models = fit_probes(cfg, 20, data.x, fits)
            assert len(inits) == 2  # one probe per distinct seed
            first, same_seed, other_seed = models
            assert same_seed.projection is first.projection
            assert other_seed.projection is not first.projection
            for model, (fit_rows, labels, name, seed) in zip(models, fits):
                lone = LinearProbeModel(20, cfg, np.random.default_rng(seed))
                x = data.x if fit_rows is None else data.x[fit_rows]
                train(lone, TrainData(x, labels), name, seed=seed)
                np.testing.assert_array_equal(model.projection, lone.projection)
                np.testing.assert_array_equal(model.weights, lone.weights)
                assert model.bias == lone.bias
                assert model.distance_from_init() == lone.distance_from_init()


class TestPipeline:
    def test_baseline_wiring(self):
        task = small_task()
        data = task.sample()
        teacher, _ = w2s_pipeline(task, loss_name="ce", alpha=1.0, seed=0)
        assert 0.5 <= teacher.accuracy(data.test_x, data.test_y) <= 1.0

    def test_uniform_targets_drive_predictions_to_half(self):
        task = small_task()
        _, student = w2s_pipeline(task, loss_name="ce", alpha=0.0, seed=0)
        mean_prediction = float(student.predict_pos(task.sample().pseudo_x).mean())
        assert 0.45 <= mean_prediction <= 0.55

    def test_rce_beats_ce_at_low_alpha(self):
        task = SyntheticTask(seed=11)
        data = task.sample()
        accs = {}
        for loss in ("ce", "rce"):
            vals = [
                w2s_pipeline(task, loss_name=loss, alpha=0.01, seed=rep)[1].accuracy(
                    data.test_x, data.test_y)
                for rep in range(2)
            ]
            accs[loss] = np.mean(vals)
        assert accs["rce"] > accs["ce"]

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            w2s_pipeline(small_task(), loss_name="ce", alpha=1.2)

    def test_sweep_rows_equal_per_cell_pipelines(self):
        """The ``classify`` sweep's rows are those of ``w2s_pipeline`` run
        alone per (repeat, loss, alpha) cell on the repeat's task draw."""
        from w2slab.cli import SCHEMAS, run_classify

        task = small_task()
        losses, alphas = ["ce", "rce", "cace", "aux"], [0.01, 1.0]
        cfg = {key: default for key, (_, default) in SCHEMAS["classify"].items()}
        cfg.update(losses=losses, alphas=alphas, repeats=2, student_width=40,
                   **{key: getattr(task, key) for key in (
                       "dim", "separation", "noise", "n_train", "n_pseudo", "n_test",
                       "seed")})
        rows = run_classify(cfg)[0]
        student = ProbeConfig(feature="projection", width=40)
        expected = []
        for repeat in range(2):
            repeat_task = dataclasses.replace(task, seed=int(
                np.random.SeedSequence([task.seed, repeat]).generate_state(1)[0]))
            test_x, test_y = repeat_task.sample().test_x, repeat_task.sample().test_y
            for loss in losses:
                for alpha in alphas:
                    teacher, trained = w2s_pipeline(
                        repeat_task, student_cfg=student, loss_name=loss,
                        alpha=alpha, seed=repeat)
                    expected.append({
                        "loss": loss, "alpha": alpha, "repeat": repeat,
                        "teacher_acc": teacher.accuracy(test_x, test_y),
                        "student_acc": trained.accuracy(test_x, test_y),
                        "param_distance": trained.distance_from_init(),
                    })
        assert rows == expected
        # the cells differ, so no cell's training leaked into another's start
        assert len({r["param_distance"] for r in rows}) == len(rows)

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
            data = t.sample()
            truth = labels_to_soft(data.test_y)
            for a in (0.3, 1.0):
                _, student = w2s_pipeline(t, loss_name="rce", alpha=a, seed=rep)
                risks[a].append(float(np.mean(rce(truth, student.predict_proba(data.test_x)))))
        r3, r1 = np.array(risks[0.3]), np.array(risks[1.0])
        spread = 2.0 * np.sqrt(r3.std(ddof=1) ** 2 + r1.std(ddof=1) ** 2)
        assert abs(r3.mean() - r1.mean()) <= spread
