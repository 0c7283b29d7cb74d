"""The benchmark's layer tracer (``perfbench/tracer.py``) finds every name it
wraps in the package and puts each one back on ``restore``.

A function or method renamed in the package fails here, rather than only
under the benchmark's ``--trace 1``.
"""

import importlib.util
from pathlib import Path

import w2slab
from w2slab import bregman, cli, harness, losses, ridge, trainer

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# every span key ``install`` opens; a wrapped method that no longer exists
# would be skipped silently and its key left out
KEYS = {
    "bregman.check_point", "bregman.divergence", "bregman.law_of_cosines",
    "bregman.decomposition", "bregman.dual_map",
    "losses.probvector", "losses.entropy_family",
    "ridge.trial", "ridge.simulate", "ridge.quadrature",
    "harness.scenario", "harness.risk_gap", "harness.equality", "harness.bias_variance",
    "trainer.train", "trainer.gdv", "trainer.loss_table", "trainer.sample",
    "trainer.model_init", "trainer.features", "trainer.predict",
    "cli.main", "cli.write_outputs",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("w2slab_layer_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """The package's modules and every class defined in them."""
    modules = [w2slab, bregman, losses, ridge, harness, trainer, cli]
    classes = {v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("w2slab.")}
    return [*modules, *classes]


def assert_restored(before, created=frozenset()):
    """Every name of ``before``'s namespaces is bound as it was, and no
    name was added but those in ``created``."""
    for ns, attrs in before:
        now = dict(vars(ns))
        assert attrs.keys() <= now.keys() and now.keys() - attrs.keys() <= created, ns
        assert [k for k in attrs if now[k] is not attrs[k]] == [], ns


def test_install_wraps_every_layer_and_restore_puts_it_back():
    tracing = load_tracer()
    before = [(ns, dict(vars(ns))) for ns in namespaces()]
    main = cli.main
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, w2slab)
        assert cli.main is not main and cli.main.__wrapped__ is main
        assert KEYS <= set(tracer.stats)
    finally:
        tracer.restore()
    assert_restored(before)


def test_observers_run_on_tiny_commands_and_restore(tmp_path):
    """``install``'s observers run on in-process ``classify`` and
    ``bias-variance`` runs: each completes with an exit status (an observer
    that raised would propagate out of ``main``), ``trainer.train`` counts
    one teacher fit per classify repeat, ``harness.bias_variance`` counts
    one estimate per bias-variance model, and ``restore`` puts every name
    back."""
    tracing = load_tracer()
    before = [(ns, dict(vars(ns))) for ns in namespaces()]
    repeats = 2
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, w2slab)
        classify = ["classify", "--out", str(tmp_path), "--set", "losses=ce,cace,aux",
                    "--set", "alphas=0.01,1", "--set", f"repeats={repeats}",
                    "--set", "dim=20", "--set", "n_pseudo=256", "--set", "n_test=100"]
        assert cli.main(classify) in (0, 1)
        assert tracer.calls("trainer.train") == repeats
        bias_variance = ["bias-variance", "--out", str(tmp_path), "--set", "task_seeds=1",
                         "--set", "k=1", "--set", "n_splits=2", "--set", "n_test=20",
                         "--set", "split_pseudo=128", "--set", "dim=20"]
        assert cli.main(bias_variance) in (0, 1)
        # one estimate per model (teacher, student, ens_student) and task seed
        assert tracer.calls("harness.bias_variance") == 3
        metrics = tracing.layer_metrics(tracer)
    finally:
        tracer.restore()
    assert metrics["trainer.train.calls"] == (repeats, "count")
    assert metrics["trainer.steps"][0] > 0
    assert tracer.calls("cli.main") == 2
    # copy.copy caches the slot names of a class it copies
    assert_restored(before, created={"__slotnames__"})
