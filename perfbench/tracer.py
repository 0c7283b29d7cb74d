"""Layer tracer for w2slab, applied from outside the package.

``Tracer`` replaces functions and methods with timing wrappers in place and
puts the originals back on ``restore``.  Each wrapped call is a span: its
inclusive time, its self time (inclusive minus the time of traced calls made
inside it) and a call count are accumulated per key.  A key is
``<layer>.<name>``; several functions may share one key.  Spans are kept as
running sums, not as a list, so memory stays flat over 10^5 calls.

``install`` wraps the public entry points of ``bregman``, ``losses``,
``ridge``, ``harness``, ``trainer`` and ``cli``, and ``layer_metrics`` turns
what was recorded into the per-layer metrics the benchmark reports.  No file
of the package is changed: names imported elsewhere with ``from .x import y``
are patched under every module attribute that holds the same object.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import statistics
import time
from collections import defaultdict


class Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []


class Tracer:
    """Timing wrappers with self time, per-layer outermost time and observers."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        # inclusive time of the outermost span of each layer, so nested calls
        # within one layer are not counted twice
        self.layer_total: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.seen: dict[str, set] = defaultdict(set)
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def wrapper(self, original, key: str, observe=None, durations: bool = False):
        layer = key.split(".", 1)[0]
        stat = self.stats[key]
        stack, depth, layer_total = self._stack, self._depth, self.layer_total
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[layer] -= 1
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if durations:
                    stat.durations.append(elapsed)
                if stack:
                    stack[-1][0] += elapsed
                if depth[layer] == 0:
                    layer_total[layer] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", key)
        return traced

    def patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def wrap_function(self, modules, module, name: str, key: str, **kw) -> None:
        """Wrap ``module.name`` and every alias of it in ``modules``."""
        original = getattr(module, name)
        traced = self.wrapper(original, key, **kw)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, traced)

    def wrap_method(self, cls, name: str, key: str, **kw) -> None:
        """Wrap ``cls.name`` and every override of it in a subclass."""
        for klass in (cls, *_subclasses(cls)):
            if name in vars(klass):
                self.patch(klass, name, self.wrapper(vars(klass)[name], key, **kw))

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def calls(self, key: str) -> int:
        return self.stats[key].calls


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def trial_flop(d_w: int, d_s: int, n: int) -> int:
    """Nominal floating-point operations of one ``ridge.run_trial``.

    Computed from the shapes of its dense products and its LU solve
    (2mnk per product, 2/3 d_s^3 for the factorization), not counted.
    """
    return (2 * d_w * d_w * n          # G = X X^T
            + 2 * d_s * d_w * d_w      # W1 G
            + 2 * d_s * d_s * d_w      # (W1 G) W1^T
            + 2 * d_w * d_w + 2 * d_s * d_w    # b = W1 (G W)
            + (2 * d_s ** 3) // 3 + 2 * d_s * d_s  # LU factor and solve
            + 2 * d_s * d_s + 2 * d_s * d_w)   # residual K w2 and W1^T w2


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def install(tracer: Tracer, package) -> None:
    """Wrap the layers of the imported ``package`` (``w2slab``) in place."""
    from importlib import import_module

    bregman, losses, ridge, harness, trainer, cli = (
        import_module(f"{package.__name__}.{m}")
        for m in ("bregman", "losses", "ridge", "harness", "trainer", "cli"))
    modules = (package, bregman, losses, ridge, harness, trainer, cli)

    def fn(module, name, key, **kw):
        tracer.wrap_function(modules, module, name, key, **kw)

    geometry = bregman.BregmanGeometry
    for name, key in (("check_point", "check_point"), ("divergence", "divergence"),
                      ("law_of_cosines_residual", "law_of_cosines"),
                      ("forward_decomposition", "decomposition"),
                      ("reverse_decomposition", "decomposition"),
                      ("to_dual", "dual_map"), ("dual_mean", "dual_map")):
        tracer.wrap_method(geometry, name, f"bregman.{key}")

    tracer.wrap_method(losses.ProbVector, "__post_init__", "losses.probvector")
    for name in ("ce", "rce", "kl", "rkl", "entropy"):
        fn(losses, name, "losses.entropy_family")

    def count_flop(args, kwargs, result):
        cfg = args[0] if args else kwargs["cfg"]
        tracer.counters["ridge.flop"] += trial_flop(cfg.d_w, cfg.d_s, cfg.n)

    def count_retries(args, kwargs, result):
        tracer.counters["ridge.trial.retries"] += result.retries

    fn(ridge, "run_trial", "ridge.trial", observe=count_flop, durations=True)
    fn(ridge, "simulate_misfit", "ridge.simulate", observe=count_retries)
    fn(ridge, "mp_integral", "ridge.quadrature")

    fn(harness, "random_scenario", "harness.scenario")
    for name in ("verify_risk_gap", "verify_risk_gap_product"):
        fn(harness, name, "harness.risk_gap")
    for name in ("with_posterior_mean_students", "verify_posterior_mean_equality",
                 "cross_entropy_form_report", "misfit_variance_split",
                 "verify_ideal_student_gains"):
        fn(harness, name, "harness.equality")
    fn(harness, "bias_variance_estimate", "harness.bias_variance")

    train_signature = inspect.signature(trainer.train)

    def observe_train(args, kwargs, result):
        bound = train_signature.bind(*args, **kwargs).arguments
        model, data = bound["model"], bound["data"]
        steps = bound.get("steps")
        tracer.counters["trainer.steps"] += model.cfg.steps if steps is None else steps
        if model.cfg.feature == "identity":
            tracer.counters["trainer.teacher_fit"] += 1
            tracer.seen["trainer.teacher_fit"].add(
                (bound.get("seed", 0), model.cfg, _digest(data.x, data.labels)))

    def observe_sample(args, kwargs, result):
        tracer.seen["trainer.sample"].add(args[0])

    fn(trainer, "train", "trainer.train", observe=observe_train)
    fn(trainer, "gdv", "trainer.gdv")
    for name in ("loss_values", "loss_grads"):
        fn(trainer, name, "trainer.loss_table")
    tracer.wrap_method(trainer.SyntheticTask, "sample", "trainer.sample",
                       observe=observe_sample)
    tracer.wrap_method(trainer.LinearProbeModel, "__init__", "trainer.model_init")
    tracer.wrap_method(trainer.LinearProbeModel, "features", "trainer.features")
    # predict_proba and accuracy both go through predict_pos
    tracer.wrap_method(trainer.LinearProbeModel, "predict_pos", "trainer.predict")

    fn(cli, "main", "cli.main")
    fn(cli, "write_outputs", "cli.write_outputs")


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer was never called."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    ``<key>.calls`` counts calls, ``<key>.self_s`` is self time and
    ``<key>.s`` inclusive time.  ``harness.per_scenario_ms`` is the time in
    outermost harness calls per ``random_scenario`` call, ``trainer.step_us``
    the inclusive ``train`` time per step.  The ``useful_ratio`` metrics are
    distinct inputs over calls: distinct tasks per ``SyntheticTask.sample``
    and distinct (seed, config, data) per identity-feature (teacher) fit.
    ``ridge.flop`` comes from ``trial_flop``.  A metric of a layer the run
    never called reads 0.
    """
    st = tracer.stats
    out: dict[str, tuple[float, str]] = {}

    def calls_self(key):
        out[f"{key}.calls"] = (tracer.calls(key), "count")
        out[f"{key}.self_s"] = (st[key].self_time, "s")

    def calls_incl(key):
        out[f"{key}.calls"] = (tracer.calls(key), "count")
        out[f"{key}.s"] = (st[key].total, "s")

    for key in ("check_point", "divergence", "law_of_cosines", "decomposition", "dual_map"):
        calls_self(f"bregman.{key}")

    scenarios = tracer.calls("harness.scenario")
    out["harness.scenarios"] = (scenarios, "count")
    calls_self("harness.risk_gap")
    calls_self("harness.equality")
    out["harness.per_scenario_ms"] = (
        1e3 * _ratio(tracer.layer_total["harness"], scenarios), "ms")
    calls_incl("harness.bias_variance")

    calls_self("losses.probvector")
    calls_self("losses.entropy_family")

    trials = st["ridge.trial"]
    out["ridge.trial.calls"] = (trials.calls, "count")
    durations = sorted(trials.durations) or [0.0]
    out["ridge.trial.median_ms"] = (1e3 * statistics.median(durations), "ms")
    # nearest-rank 90th percentile
    out["ridge.trial.p90_ms"] = (1e3 * durations[math.ceil(0.9 * len(durations)) - 1], "ms")
    out["ridge.trial.retries"] = (tracer.counters["ridge.trial.retries"], "count")
    flop = tracer.counters["ridge.flop"]
    out["ridge.flop"] = (flop, "flop")
    out["ridge.gflops_per_s"] = (_ratio(flop, trials.total) / 1e9, "GFLOP/s")
    out["ridge.quadrature_s"] = (st["ridge.quadrature"].total, "s")

    calls_self("trainer.train")
    steps = tracer.counters["trainer.steps"]
    out["trainer.steps"] = (steps, "count")
    out["trainer.step_us"] = (1e6 * _ratio(st["trainer.train"].total, steps), "us")
    calls_incl("trainer.model_init")
    calls_incl("trainer.features")
    calls_incl("trainer.sample")
    out["trainer.sample.useful_ratio"] = (
        _ratio(len(tracer.seen["trainer.sample"]), tracer.calls("trainer.sample")), "1")
    out["trainer.teacher_fit.useful_ratio"] = (
        _ratio(len(tracer.seen["trainer.teacher_fit"]),
               tracer.counters["trainer.teacher_fit"]), "1")
    calls_incl("trainer.gdv")
    calls_incl("trainer.loss_table")
    calls_incl("trainer.predict")

    out["cli.self_s"] = (st["cli.main"].self_time, "s")
    out["cli.write_outputs_s"] = (st["cli.write_outputs"].total, "s")
    return out
