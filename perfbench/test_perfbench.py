"""Self-tests of the benchmark on tiny configs.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They drive ``run.py``, ``child.py`` and ``tracer.py`` end to end on
configs that finish in about a second per invocation, so the benchmark code
is tested without the workloads' full runtime.  The repository's own test
suite does not collect them (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "verify": ["scenarios=3", "pairs=100", "triples=10", "grid_step=0.01"],
    "ridge": ["d_w=20", "trials=3"],
    "classify": ["repeats=1", "dim=10", "n_pseudo=200", "n_test=100",
                 "alphas=0.1,1.0", "accuracy_band=1.0"],
    "bias-variance": ["task_seeds=1", "dim=5", "n_test=20",
                      "split_train=16", "split_pseudo=64"],
}
# one count per workload that only that workload's layer produces
LAYER_COUNT = {
    "verify": ("bregman.check_point.calls", None),
    "ridge": ("ridge.trial.calls", 2 * 3 * 3),
    "classify": ("trainer.sample.calls", 2 * 2 * 1),
    "bias-variance": ("harness.bias_variance.calls", 3 * 20),
}


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def spec_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run.run_workload(workload, 3, 0, False, TINY[workload])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert units(result["metrics"]) == spec_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_runs_repeat_exact_counts(workload):
    first, second = (run.run_workload(workload, 1, 0, True, TINY[workload]) for _ in range(2))
    for result in (first, second):
        # one untraced and one traced invocation whose CSV digests must agree
        assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
        assert units(result["metrics"]) == spec_units("per_layer")
    exact = [name for name, unit in spec_units("per_layer").items()
             if unit in ("count", "flop", "bytes", "1")]
    assert {n: first["metrics"][n]["value"] for n in exact} == {
        n: second["metrics"][n]["value"] for n in exact}
    name, expected = LAYER_COUNT[workload]
    value = first["metrics"][name]["value"]
    assert value > 0 and expected in (None, value)


def test_tracer_patches_imported_aliases_and_restores_originals():
    sys.path.insert(0, str(run.SRC))
    import w2slab
    from w2slab import bregman, cli, harness, losses, ridge, trainer

    modules = (w2slab, bregman, cli, harness, losses, ridge, trainer)
    classes = [c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__.startswith("w2slab")]
    before = [dict(vars(x)) for x in (*modules, *classes)]
    original_ce = losses.ce

    t = tracer.Tracer()
    tracer.install(t, w2slab)
    try:
        assert harness.ce is losses.ce is not original_ce
        runs = [losses.ProbVector([0.3, 0.7]), losses.ProbVector([0.6, 0.4])]
        harness.bias_variance_estimate(runs, losses.ProbVector.one_hot(0))
    finally:
        t.restore()
    # kl inside the harness function goes through the alias harness imported
    assert t.calls("losses.entropy_family") == 3
    assert t.calls("losses.probvector") == 4
    assert t.calls("harness.bias_variance") == 1
    after = [dict(vars(x)) for x in (*modules, *classes)]
    assert all(a[k] is b[k] for a, b in zip(after, before) for k in b)


def test_ridge_recheck_compares_misfits_with_a_direct_solve():
    sys.path.insert(0, str(run.SRC))
    from w2slab import ridge

    cfg = {"seed": 4, "d_w": 20, "n_ratio": 20.0, "B": 1.0, "mp_tolerance": 1e-6}
    misfit = ridge.run_trial(ridge.RidgeConfig(d_w=20, gamma=2.0, eta0=0.5, seed=4), 0).misfit
    h = ridge.h_closed_form(0.5, 2.0)
    row = {"eta0": "0.5", "gamma": "2.0", "trial": "0", "misfit": repr(misfit),
           "h": repr(h), "mp_integral": repr(h)}
    cfg.update(eta0s=[0.5], gammas=[2.0])
    assert run.recheck_ridge([row], cfg) == ([], {"misfit_decreases_with_capacity": True})
    row["misfit"] = repr(misfit * (1 + 1e-6))
    assert len(run.recheck_ridge([row], cfg)[0]) == 1


def test_failed_verdict_counts_as_failed_invocation():
    overrides = TINY["verify"] + ["tol_identity=-1"]
    result = run.run_workload("verify", 0, 0, False, overrides)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_trend_verdict_fail_is_an_outcome_not_a_failure(capsys):
    overrides = TINY["classify"][:-1] + ["accuracy_band=-1"]
    result = run.run_workload("classify", 0, 0, False, overrides)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert "trend FAIL: rce_accuracy_stable" in capsys.readouterr().out


def test_trend_verdict_must_match_its_rows(tmp_path):
    sys.path.insert(0, str(run.SRC))
    from w2slab import cli

    overrides = TINY["classify"] + ["seed=2"]
    argv = ["classify", "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    inv = {"exit_code": cli.main(argv)}
    assert inv["exit_code"] == 0
    assert run.check_outputs("classify", 2, tmp_path, dict(inv)) == []
    report_path = tmp_path / "classify.json"
    report = json.loads(report_path.read_text())
    for verdict in report["verdicts"]:
        verdict["passed"] = verdict["name"] != "rce_accuracy_stable"
    report_path.write_text(json.dumps(report))
    problems = run.check_outputs("classify", 2, tmp_path, {"exit_code": 1})
    assert problems == ["verdict rce_accuracy_stable reads False, its rows give True"]
    # exit 0 beside a FAIL verdict is wrong too
    assert len(run.check_outputs("classify", 2, tmp_path, dict(inv))) == 2


def test_inherited_seed_variable_is_scrubbed(monkeypatch):
    monkeypatch.setenv("W2SLAB_SEED", "5")
    assert "W2SLAB_SEED" not in run.child_env()
    assert run.child_env()["OPENBLAS_NUM_THREADS"] == str(run.BLAS_THREADS)
    result = run.run_workload("verify", 0, 0, False, TINY["verify"])
    assert result["correct"]


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "verify", "--seed", "0", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
