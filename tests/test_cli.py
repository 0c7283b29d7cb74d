"""Command-line behaviors: config parsing, exit codes, output artifacts,
and byte-level determinism of the CSVs."""

import concurrent.futures
import dataclasses
import json
import operator
import os

import numpy as np
import pytest

from w2slab.bregman import clamp_simplex
from w2slab.cli import SCHEMAS, ConfigError, load_config, main
from w2slab.losses import entropy

# a config per command small enough for a unit test
TINY = {
    "verify": ["scenarios=3", "pairs=100", "triples=20"],
    "ridge": ["gammas=1.5,2", "eta0s=1,1e-12", "trials=2", "d_w=40", "n_ratio=5"],
    "classify": ["losses=ce,rce", "alphas=0.01,1", "repeats=2", "dim=20",
                 "n_pseudo=256", "n_test=100"],
    "bias-variance": ["task_seeds=1", "k=1", "n_splits=2", "n_test=20",
                      "split_pseudo=128", "dim=20"],
}
OPS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


def run(args):
    return main(args)


def run_tiny(command, out):
    args = [command, "--out", str(out)]
    for item in TINY[command]:
        args += ["--set", item]
    return run(args)


def strict_json(path):
    """Parse a report, rejecting the NaN and Infinity extensions of JSON."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestConfigParsing:
    def test_defaults_without_file(self):
        cfg = load_config("ridge", None, [])
        assert cfg["d_w"] == 200
        assert cfg["gammas"] == [1.5, 2.0, 4.0]

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "ridge.cfg"
        path.write_text("d_w = 80\ntrials = 5  # comment\n\n# full line comment\n")
        cfg = load_config("ridge", str(path), ["trials=7"])
        assert cfg["d_w"] == 80
        assert cfg["trials"] == 7  # --set wins over the file

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError):
            load_config("ridge", str(path), [])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            load_config("ridge", None, ["trials=soon"])

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a sentence\n")
        with pytest.raises(ConfigError):
            load_config("ridge", str(path), [])

    @pytest.mark.parametrize("value", ["99", "soon"])
    def test_inherited_env_seed_changes_nothing(self, monkeypatch, value):
        # no environment variable reaches the config, W2SLAB_SEED included
        monkeypatch.setenv("W2SLAB_SEED", value)
        assert load_config("ridge", None, ["seed=3"])["seed"] == 3
        assert load_config("ridge", None, [])["seed"] == SCHEMAS["ridge"]["seed"][1]

    def test_list_parsing(self):
        cfg = load_config("classify", None, ["alphas=0, 0.5 ,1", "losses=ce rce"])
        assert cfg["alphas"] == [0.0, 0.5, 1.0]
        assert cfg["losses"] == ["ce", "rce"]


class TestExitCodes:
    def test_invalid_gamma_is_config_error(self, tmp_path):
        code = run(["ridge", "--set", "gammas=0.5", "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_key_is_config_error(self, tmp_path):
        code = run(["ridge", "--set", "bogus=1", "--out", str(tmp_path)])
        assert code == 2

    def test_empty_alphas_rejected(self, tmp_path):
        code = run(["classify", "--set", "alphas=", "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_loss_rejected(self, tmp_path):
        code = run(["classify", "--set", "losses=mse", "--out", str(tmp_path)])
        assert code == 2

    def test_zero_repeats_is_config_error(self, tmp_path, capsys):
        code = run(["classify", "--set", "repeats=0", "--out", str(tmp_path)])
        assert code == 2
        assert "repeats" in capsys.readouterr().err
        assert not (tmp_path / "classify.csv").exists()

    def test_degenerate_split_count_rejected(self, tmp_path):
        code = run([
            "bias-variance", "--set", "k=1", "--set", "n_splits=1",
            "--out", str(tmp_path),
        ])
        assert code == 2

    @pytest.mark.parametrize("override", [
        "gammas=", "eta0s=", "gammas=2,2", "eta0s=0.5,0.5", "gammas=1,2",
        "gammas=0.5", "eta0s=0,1", "eta0s=-1", "trials=0", "seed=-1",
        "gammas=inf", "eta0s=inf", "n_ratio=nan", "B=inf", "eta0s=1,1e-200",
        "eta0s=1e200", "eta0s=1.2e154", "gammas=1e200",
    ])
    def test_bad_ridge_grid_rejected_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                      override):
        from w2slab import ridge

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before the config was checked")

        monkeypatch.setattr(ridge, "run_trial", no_trial)
        code = run(["ridge", "--set", override, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "ridge.csv").exists()

    def test_bad_ridge_grid_raises_config_error(self):
        from w2slab.cli import run_ridge

        cfg = load_config("ridge", None, ["gammas=2,2"])
        with pytest.raises(ConfigError, match="gammas"):
            run_ridge(cfg)

    @pytest.mark.parametrize("override", [
        "scenarios=0", "scenarios=-1", "pairs=0", "triples=0",
        "grid_step=0", "grid_step=-0.1", "grid_step=1", "grid_step=1.5", "grid_step=nan",
        "seed=-1",
    ])
    def test_bad_verify_config_rejected(self, tmp_path, capsys, override):
        code = run(["verify", "--set", override, "--out", str(tmp_path)])
        assert code == 2
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "verify.csv").exists()

    @pytest.mark.parametrize("command,overrides", [
        ("classify", "losses="),
        ("classify", "alphas=1.5"),
        ("classify", "student_width=-5"),
        ("classify", "seed=-1"),
        ("classify", "separation=inf"),
        ("classify", "noise=nan"),
        ("classify", "alphas=0.01,0.01,1 losses=ce,rce,ce"),
        ("classify", "losses=ce,rce,ce"),
        ("classify", "alphas=1,0.01,1"),
        ("classify", "alphas="),
        ("classify", "losses=ce,mse"),
        ("classify", "repeats=0"),
        ("classify", "alphas=0.1,1,1.5"),
        ("bias-variance", "task_seeds=0"),
        ("bias-variance", "k=-1 n_splits=-2"),
        ("bias-variance", "split_train=5"),
        ("bias-variance", "seed=-1"),
        ("bias-variance", "noise=nan"),
        ("ridge", "seed=-1"),
        ("verify", "seed=-1"),
    ])
    def test_bad_config_rejected_before_any_fit(self, tmp_path, capsys, monkeypatch,
                                                command, overrides):
        from w2slab import trainer

        def no_work(*args, **kwargs):
            raise AssertionError("a task was drawn or a model trained before the config "
                                 "was checked")

        for entry in ("train", "train_fits"):
            monkeypatch.setattr(trainer, entry, no_work)
        for entry in ("sample", "splits"):
            monkeypatch.setattr(trainer.SyntheticTask, entry, no_work)
        args = [command, "--out", str(tmp_path)]
        for item in overrides.split():
            args += ["--set", item]
        assert run(args) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / f"{command.replace('-', '_')}.csv").exists()

    def test_program_error_propagates(self, tmp_path, monkeypatch):
        from w2slab import harness

        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(harness, "bias_variance_estimate", broken)
        with pytest.raises(ValueError, match="internal failure"):
            run([
                "bias-variance", "--set", "task_seeds=1", "--set", "k=1",
                "--set", "n_splits=2", "--set", "n_test=20",
                "--set", "split_pseudo=128", "--set", "dim=20",
                "--out", str(tmp_path),
            ])

    def test_violated_gain_identity_is_a_fail_verdict(self, tmp_path, capsys,
                                                      monkeypatch):
        from w2slab import harness

        entropy = harness.entropy
        monkeypatch.setattr(harness, "entropy", lambda p: entropy(p) * (1.0 + 1e-6))
        code = run([
            "verify", "--set", "scenarios=3", "--set", "pairs=100",
            "--set", "triples=20", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "[FAIL] ideal_student_gains" in capsys.readouterr().out
        assert (tmp_path / "verify.csv").exists()
        report = json.loads((tmp_path / "verify.json").read_text())
        gains = [v for v in report["verdicts"] if v["name"] == "ideal_student_gains"]
        assert len(gains) == 1 and not gains[0]["passed"]

    def test_forced_failure_names_invariant(self, tmp_path, capsys):
        code = run([
            "verify", "--set", "tol_identity=1e-30", "--set", "scenarios=2",
            "--set", "pairs=100", "--set", "triples=20", "--out", str(tmp_path),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] law_of_cosines" in out


class TestVerdicts:
    @pytest.mark.parametrize("command", sorted(TINY))
    def test_every_verdict_is_measured_op_bound(self, tmp_path, command):
        code = run_tiny(command, tmp_path)
        report = strict_json(tmp_path / f"{command.replace('-', '_')}.json")
        assert report["verdicts"]
        for v in report["verdicts"]:
            assert set(v) == {"name", "measured", "op", "bound", "passed", "detail"}
            assert v["passed"] == OPS[v["op"]](v["measured"], v["bound"])
        assert code == (0 if all(v["passed"] for v in report["verdicts"]) else 1)

    @pytest.mark.parametrize("command", ["verify", "bias-variance"])
    def test_bias_variance_identity_measures_the_identity(self, tmp_path, command):
        # bias + variance = mean CE - H(truth) exactly; a gap that left out the
        # entropy of the clamped one-hot truth would read about 2.9e-11 at K = 2
        run_tiny(command, tmp_path)
        report = strict_json(tmp_path / f"{command.replace('-', '_')}.json")
        [verdict] = [v for v in report["verdicts"] if v["name"] == "bias_variance_identity"]
        assert verdict["measured"] <= 1e-13

    def test_verify_emits_fourteen_verdicts(self, tmp_path):
        assert run_tiny("verify", tmp_path) == 0
        names = [v["name"] for v in strict_json(tmp_path / "verify.json")["verdicts"]]
        assert len(names) == len(set(names)) == 14
        assert {"ideal_student_gains", "entropy_gap_nonnegative",
                "risk_gap_identity"} <= set(names)

    def test_risk_gap_identity_can_fail(self, tmp_path, capsys, monkeypatch):
        from w2slab import harness

        verify_risk_gap = harness.verify_risk_gap
        shapes = []

        # the product variant runs verify_risk_gap too, so both are shifted
        def shifted_inner(scenario, geometry, direction):
            rep = verify_risk_gap(scenario, geometry, direction)
            shapes.append(np.shape(rep.exact_inner))
            return dataclasses.replace(rep, exact_inner=rep.exact_inner + 1e-6)

        monkeypatch.setattr(harness, "verify_risk_gap", shifted_inner)
        assert run_tiny("verify", tmp_path) == 1
        # every call is on a block, whose report holds one value per scenario
        assert shapes and all(len(shape) == 1 for shape in shapes)
        assert "[FAIL] risk_gap_identity" in capsys.readouterr().out
        assert (tmp_path / "verify.csv").exists()
        report = strict_json(tmp_path / "verify.json")
        failed = [v for v in report["verdicts"] if not v["passed"]]
        assert [v["name"] for v in failed] == ["risk_gap_identity"]
        assert failed[0]["measured"] == pytest.approx(1e-6)

    def test_nan_measurement_fails_its_verdict(self, tmp_path, capsys, monkeypatch):
        from w2slab import harness

        split = harness.misfit_variance_split
        calls = []

        def nan_in_one_scenario(block):
            calls.append(block)
            *sides, gap = split(block)
            if len(calls) == 1:
                gap = gap.copy()
                gap[-1] = np.nan
            return (*sides, gap)

        monkeypatch.setattr(harness, "misfit_variance_split", nan_in_one_scenario)
        code = run_tiny("verify", tmp_path)
        # one call per squared-norm block; together they hold the 3 scenarios
        assert sum(len(block.input_probs) for block in calls) == 3 and code == 1
        assert "[FAIL] misfit_variance_split" in capsys.readouterr().out
        assert (tmp_path / "verify.csv").exists()
        report = strict_json(tmp_path / "verify.json")
        failed = [v for v in report["verdicts"] if not v["passed"]]
        assert [v["name"] for v in failed] == ["misfit_variance_split"]
        assert failed[0]["measured"] == "nan"

    def test_decomposition_reconstruction_can_fail(self, tmp_path, capsys, monkeypatch):
        from w2slab.bregman import BregmanGeometry

        forward = BregmanGeometry.forward_decomposition
        shapes = []

        def shifted_bias(self, sample, y):
            variance, bias = forward(self, sample, y)
            shapes.append(np.shape(bias))
            bias = bias.copy()
            bias[-1] += 1e-6  # the block's last sample alone
            return variance, bias

        monkeypatch.setattr(BregmanGeometry, "forward_decomposition", shifted_bias)
        assert run_tiny("verify", tmp_path) == 1
        # one call per geometry family, on its block of 200 samples
        assert shapes == [(200,), (200,)]
        assert "[FAIL] decomposition_reconstruction" in capsys.readouterr().out
        assert (tmp_path / "verify.csv").exists()
        report = strict_json(tmp_path / "verify.json")
        failed = [v for v in report["verdicts"] if not v["passed"]]
        assert [v["name"] for v in failed] == ["decomposition_reconstruction"]
        assert failed[0]["measured"] == pytest.approx(1e-6)

    def test_divergence_nonnegative_can_fail(self, tmp_path, capsys, monkeypatch):
        from w2slab.bregman import SquaredNorm

        # the gradient of -||x||^2, not of the generator ||x||^2
        monkeypatch.setattr(SquaredNorm, "grad",
                            lambda self, x: -2.0 * np.asarray(x, dtype=float))
        assert run_tiny("verify", tmp_path) == 1
        assert "[FAIL] divergence_nonnegative" in capsys.readouterr().out
        report = strict_json(tmp_path / "verify.json")
        verdict = [v for v in report["verdicts"] if v["name"] == "divergence_nonnegative"]
        assert verdict[0]["measured"] < -1.0


@pytest.mark.parametrize("command", sorted(TINY))
def test_csv_byte_identical_across_runs(tmp_path, command):
    csv = f"{command.replace('-', '_')}.csv"
    run_tiny(command, tmp_path / "a")
    run_tiny(command, tmp_path / "b")
    assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()


class TestVerifyCommand:
    def test_small_run_passes_and_writes_artifacts(self, tmp_path):
        code = run([
            "verify", "--set", "scenarios=5", "--set", "pairs=200",
            "--set", "triples=50", "--out", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["command"] == "verify"
        assert all(v["passed"] for v in report["verdicts"])
        assert report["duration_seconds"] > 0
        header = (tmp_path / "verify.csv").read_text().splitlines()[0]
        assert header == "scenario,geometry,variant,direction,lhs,rhs,misfit,epsilon,slack"
        # rows alone re-establish the inequality verdict
        assert all(row["slack"] >= -1e-9 for row in report["rows"])

    def test_report_records_its_stages(self, tmp_path):
        assert run_tiny("verify", tmp_path) == 0
        report = strict_json(tmp_path / "verify.json")
        stages = report["stages"]
        assert list(stages) == ["identity_s", "draw_s", "blocks_s"]
        # fixed-width text, as in the ridge report
        assert [len(text) for text in stages.values()] == [9, 9, 9]
        seconds = [float(text) for text in stages.values()]
        assert all(s > 0 for s in seconds)
        assert sum(seconds) <= 1.001 * report["duration_seconds"]

    def test_rows_come_in_scenario_geometry_direction_variant_order(self, tmp_path,
                                                                    monkeypatch):
        from w2slab import harness

        # with 6 scenarios two share a squared-norm K (it takes 4 values), so
        # at least one block holds several scenarios
        scenarios = 6
        drawn = []
        random_scenario = harness.random_scenario

        def recording(geometry, rng, **kwargs):
            drawn.append((geometry, random_scenario(geometry, rng, **kwargs)))
            return drawn[-1][1]

        monkeypatch.setattr(harness, "random_scenario", recording)
        assert run(["verify", "--set", f"scenarios={scenarios}", "--set", "pairs=100",
                    "--set", "triples=20", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "verify.csv").read_text().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        keys = [(int(row[0]), row[1], row[3], row[2]) for row in rows]
        assert keys == [(index, kind, direction, variant)
                        for index in range(scenarios)
                        for kind in ("squared-norm", "negative-entropy")
                        for direction in ("forward", "reverse")
                        for variant in ("conditional", "product")]
        # each row holds its own scenario's report: a lone call gives its cells
        by_key = dict(zip(keys, rows))
        for geometry, scenario in drawn:
            for direction in ("forward", "reverse"):
                for variant, verifier in (("conditional", harness.verify_risk_gap),
                                          ("product", harness.verify_risk_gap_product)):
                    rep = verifier(scenario, geometry, direction)
                    row = by_key[scenario.seed, geometry.kind, direction, variant]
                    assert row[4:] == [repr(getattr(rep, name)) for name in header[4:]]

    def test_one_call_per_sample_block_and_estimator_group(self, tmp_path, monkeypatch):
        from w2slab import harness
        from w2slab.bregman import BregmanGeometry

        calls = []
        for name in ("forward_decomposition", "reverse_decomposition"):
            def counted(self, *args, original=getattr(BregmanGeometry, name)):
                calls.append(self.kind)
                return original(self, *args)
            monkeypatch.setattr(BregmanGeometry, name, counted)
        estimate = harness.bias_variance_estimate
        groups = []

        def grouped(runs, truth):
            # the estimator's own decomposition calls are counted apart
            before = len(calls)
            result = estimate(runs, truth)
            groups.append(np.shape(runs))
            assert calls[before:] == ["negative-entropy"]
            del calls[before:]
            return result

        monkeypatch.setattr(harness, "bias_variance_estimate", grouped)
        assert run_tiny("verify", tmp_path) == 0
        # a forward and a reverse split per geometry family in the identity
        # suites, and one reverse split per estimator group
        assert sorted(calls) == ["negative-entropy"] * 2 + ["squared-norm"] * 2
        # one (runs, points, K) call per distinct (K, runs), with a point per
        # simplex scenario (3 in the tiny config)
        keys = [(shape[-1], shape[0]) for shape in groups]
        assert len(keys) == len(set(keys))
        assert sum(shape[1] for shape in groups) == 3

    def test_seed_override_changes_rows_not_verdicts(self, tmp_path):
        args = ["verify", "--set", "scenarios=3", "--set", "pairs=100",
                "--set", "triples=20"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--set", "seed=5", "--out", str(tmp_path / "b")]) == 0
        rows_a = (tmp_path / "a" / "verify.csv").read_text()
        rows_b = (tmp_path / "b" / "verify.csv").read_text()
        assert rows_a != rows_b


class TestRidgeCommand:
    def test_single_cell_single_trial(self, tmp_path):
        code = run([
            "ridge", "--set", "gammas=2", "--set", "eta0s=1", "--set", "trials=1",
            "--set", "d_w=40", "--set", "n_ratio=5", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "ridge.csv").read_text().splitlines()
        assert len(lines) == 2  # header plus exactly one data row
        assert lines[0] == "d_w,gamma,n_ratio,eta0,trial,misfit,bound,h,mp_integral"

    def test_report_records_its_stages(self, tmp_path):
        assert run_tiny("ridge", tmp_path) in (0, 1)
        report = strict_json(tmp_path / "ridge.json")
        stages = report["stages"]
        assert set(stages) == {"sweep_workers", "sweep_s", "quadrature_s"}
        assert isinstance(stages["sweep_workers"], int) and stages["sweep_workers"] >= 1
        # fixed-width text: the report's size must not depend on the timings
        assert [len(stages[k]) for k in ("sweep_s", "quadrature_s")] == [9, 9]
        sweep_s, quadrature_s = float(stages["sweep_s"]), float(stages["quadrature_s"])
        assert sweep_s > 0 and quadrature_s > 0
        assert sweep_s + quadrature_s <= 1.001 * report["duration_seconds"]

    def test_stage_reports_the_workers_the_sweep_ran(self, tmp_path, monkeypatch):
        # 4 cores and a one-thread BLAS, but one trial is one job: one worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        pools = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        assert run(["ridge", "--set", "gammas=1.5,2,4", "--set", "eta0s=1",
                    "--set", "trials=1", "--set", "d_w=20", "--set", "n_ratio=3",
                    "--out", str(tmp_path)]) in (0, 1)
        assert pools == [1]
        assert strict_json(tmp_path / "ridge.json")["stages"]["sweep_workers"] == 1

    def test_quadrature_verdict_is_relative(self, tmp_path, capsys, monkeypatch):
        from w2slab import ridge

        assert run_tiny("ridge", tmp_path / "relative") in (0, 1)
        verdicts = strict_json(tmp_path / "relative" / "ridge.json")["verdicts"]
        quadrature = [v for v in verdicts if v["name"] == "quadrature_matches_closed_form"]
        assert quadrature[0]["passed"] and quadrature[0]["measured"] <= 1e-13

        # an absolute stop at 1e-9, the tolerance relative to the value h
        # being 1e-9 / h, stops early at eta0 = 1e-12 (h about 1e-23)
        integral = ridge.mp_integral
        monkeypatch.setattr(ridge, "mp_integral", lambda eta0, gamma: integral(
            eta0, gamma, tol=1e-9 / ridge.h_closed_form(eta0, gamma)))
        assert run_tiny("ridge", tmp_path / "absolute") == 1
        assert "[FAIL] quadrature_matches_closed_form" in capsys.readouterr().out
        assert (tmp_path / "absolute" / "ridge.csv").exists()
        verdicts = strict_json(tmp_path / "absolute" / "ridge.json")["verdicts"]
        quadrature = [v for v in verdicts if v["name"] == "quadrature_matches_closed_form"]
        assert quadrature[0]["measured"] > 0.1

    def test_unsettled_quadrature_is_a_nan_row_and_a_fail(self, tmp_path, capsys):
        # at gamma 1.0002 the quadrature rule does not settle within 65,535 nodes
        code = run(["ridge", "--set", "d_w=20", "--set", "trials=2", "--set", "gammas=1.0002",
                    "--out", str(tmp_path)])
        assert code == 1
        assert "[FAIL] quadrature_matches_closed_form" in capsys.readouterr().out
        lines = (tmp_path / "ridge.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2
        assert all(line.endswith(",nan") for line in lines[1:])
        verdicts = {v["name"]: v for v in strict_json(tmp_path / "ridge.json")["verdicts"]}
        assert verdicts["quadrature_matches_closed_form"]["measured"] == "nan"
        assert [v["passed"] for v in verdicts.values()] == [True, False, True, True]

    @pytest.mark.parametrize("eta0s", ["1e16", "1e17,1e150"])
    def test_h_near_one_is_still_monotone(self, tmp_path, eta0s):
        # the float h ties or misorders its last bit there; 1 - h does not
        code = run(["ridge", "--set", "d_w=20", "--set", "trials=2", "--set", f"eta0s={eta0s}",
                    "--out", str(tmp_path)])
        verdicts = {v["name"]: v for v in strict_json(tmp_path / "ridge.json")["verdicts"]}
        assert verdicts["bound_monotone_and_in_range"]["passed"]
        assert code == 0


class TestClassifyCommand:
    def test_single_baseline_cell(self, tmp_path):
        code = run([
            "classify", "--set", "losses=ce", "--set", "alphas=1",
            "--set", "repeats=1", "--set", "dim=20", "--set", "n_pseudo=256",
            "--set", "n_test=100", "--out", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "classify.json").read_text())
        assert len(report["rows"]) == 1
        assert report["verdicts"] == []  # no trend claimed for one cell

    def test_composite_losses_comparison_table(self, tmp_path):
        code = run([
            "classify", "--set", "losses=cace,sl,aux", "--set", "alphas=1",
            "--set", "repeats=1", "--set", "dim=20", "--set", "n_pseudo=256",
            "--set", "n_test=100", "--out", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "classify.json").read_text())
        assert {r["loss"] for r in report["rows"]} == {"cace", "sl", "aux"}
        assert report["verdicts"] == []

    def test_csv_columns(self, tmp_path):
        run([
            "classify", "--set", "losses=ce", "--set", "alphas=1",
            "--set", "repeats=1", "--set", "dim=20", "--set", "n_pseudo=256",
            "--set", "n_test=100", "--out", str(tmp_path),
        ])
        header = (tmp_path / "classify.csv").read_text().splitlines()[0]
        assert header == "loss,alpha,repeat,teacher_acc,student_acc,param_distance"

    # a small sweep with every per-cell feature: two repeats, a smoothing
    # level below and at 1, and the plain, reverse, adaptive and regularized
    # losses on a 40-feature student
    SWEEP = ["losses=ce,rce,cace,aux", "alphas=0.01,1", "repeats=2", "dim=20",
             "separation=2", "noise=1", "n_pseudo=256", "n_test=200", "seed=1",
             "student_width=40"]

    def run_sweep(self, out, extra=()):
        args = ["classify", "--out", str(out)]
        for item in [*self.SWEEP, *extra]:
            args += ["--set", item]
        return run(args)

    def test_rows_equal_lone_fits(self, tmp_path):
        """The lockstep fits give the ``classify.csv`` rows of a reference
        that trains every repeat's teacher and every cell's student alone
        with ``train``."""
        import csv

        from w2slab import losses, trainer

        run_tiny("classify", tmp_path)
        cfg = load_config("classify", None, TINY["classify"])
        task = trainer.SyntheticTask(
            dim=cfg["dim"], separation=cfg["separation"], noise=cfg["noise"],
            n_train=cfg["n_train"], n_pseudo=cfg["n_pseudo"], n_test=cfg["n_test"],
            seed=cfg["seed"])
        probe_student = trainer.ProbeConfig(feature="projection", width=8 * cfg["dim"])
        expected = []
        for repeat in range(cfg["repeats"]):
            repeat_task = dataclasses.replace(task, seed=int(
                np.random.SeedSequence([task.seed, repeat]).generate_state(1)[0]))
            data = repeat_task.sample()
            seq = np.random.SeedSequence([repeat_task.seed, repeat, 0x5EED])
            t_seed, s_seed = [int(s.generate_state(1)[0]) for s in seq.spawn(2)]
            teacher = trainer.LinearProbeModel(task.dim, trainer.ProbeConfig(),
                                               np.random.default_rng(t_seed))
            trainer.train(teacher, trainer.TrainData(
                data.train_x, trainer.labels_to_soft(data.train_y)), "ce", seed=t_seed)
            labels = teacher.predict_proba(data.pseudo_x)
            for loss in cfg["losses"]:
                for alpha in cfg["alphas"]:
                    student = trainer.LinearProbeModel(task.dim, probe_student,
                                                       np.random.default_rng(s_seed))
                    trainer.train(student, trainer.TrainData(
                        data.pseudo_x, losses.smooth_labels(labels, alpha)), loss, seed=s_seed)
                    expected.append([loss, alpha, repeat,
                                     teacher.accuracy(data.test_x, data.test_y),
                                     student.accuracy(data.test_x, data.test_y),
                                     student.distance_from_init()])
        with open(tmp_path / "classify.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        # each float cell is its value's repr, which reads back exactly
        assert [[loss, float(alpha), int(repeat), *map(float, rest)]
                for loss, alpha, repeat, *rest in rows] == expected

    def test_draws_and_fits_teacher_once_per_repeat(self, tmp_path, monkeypatch):
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
        assert self.run_sweep(tmp_path, ["losses=ce,rce"]) in (0, 1)
        assert len(json.loads((tmp_path / "classify.json").read_text())["rows"]) == 8
        assert len(draws) == 2 and len(set(draws)) == 2
        assert len(teacher_fits) == 2 and len(set(teacher_fits)) == 2

    def test_printed_summary_cells(self, tmp_path, capsys):
        """One printed line per (loss, alpha) cell, in sorted order, with the
        mean and sample standard deviation of the cell's rows."""
        self.run_sweep(tmp_path)
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("[")]
        rows = json.loads((tmp_path / "classify.json").read_text())["rows"]
        cells = sorted({(r["loss"], r["alpha"]) for r in rows})
        assert len(lines) == len(cells) == 8
        for line, (loss, alpha) in zip(lines, cells):
            group = [r for r in rows if (r["loss"], r["alpha"]) == (loss, alpha)]
            acc = [r["student_acc"] for r in group]
            dist = [r["param_distance"] for r in group]
            assert len(group) == 2
            assert line == (f"{loss:>5} alpha={alpha:<6g} "
                            f"acc={np.mean(acc):.3f}+-{np.std(acc, ddof=1):.3f} "
                            f"dist={np.mean(dist):.2f}+-{np.std(dist, ddof=1):.2f}")

    def test_zero_student_width_means_eight_per_input(self, tmp_path):
        self.run_sweep(tmp_path / "zero", ["student_width=0"])
        self.run_sweep(tmp_path / "eight", ["student_width=160"])  # 8 * dim
        assert (tmp_path / "zero" / "classify.csv").read_bytes() == (
            tmp_path / "eight" / "classify.csv").read_bytes()


def worst_identity_gap(report):
    """max |bias + variance + H(truth) - mean CE| over a bias-variance
    report's rows; every row's truth is a clamped one-hot row at K = 2, so
    H(truth) is one constant, about 2.9e-11."""
    h_truth = entropy(clamp_simplex([1.0, 0.0]))
    return max(abs(r["bias"] + r["variance"] + h_truth - r["mean_ce"])
               for r in report["rows"])


class TestBiasVarianceCommand:
    def test_small_run_identity_and_artifacts(self, tmp_path):
        code = run_tiny("bias-variance", tmp_path)
        report = json.loads((tmp_path / "bias_variance.json").read_text())
        identity = [v for v in report["verdicts"]
                    if v["name"] == "bias_variance_identity"][0]
        assert identity["passed"]
        # verdict recomputable from rows
        assert worst_identity_gap(report) <= 1e-13
        assert {r["model"] for r in report["rows"]} == {
            "teacher", "student", "ens_student"}

    def test_row_identity_gap_sees_a_variance_off_by_1e_12(self, tmp_path, monkeypatch):
        from w2slab import harness

        estimate = harness.bias_variance_estimate

        def shifted(runs, truth):
            bias, variance = estimate(runs, truth)
            return bias, variance + 1e-12

        monkeypatch.setattr(harness, "bias_variance_estimate", shifted)
        run_tiny("bias-variance", tmp_path)
        report = json.loads((tmp_path / "bias_variance.json").read_text())
        assert worst_identity_gap(report) > 1e-13

    def test_one_estimator_call_per_task_seed_and_model(self, tmp_path, monkeypatch):
        from w2slab import harness

        estimate = harness.bias_variance_estimate
        calls = []

        def counted(runs, truth):
            calls.append(np.shape(runs))
            return estimate(runs, truth)

        monkeypatch.setattr(harness, "bias_variance_estimate", counted)
        n_test, task_seeds = 20, 2
        assert run(["bias-variance", "--set", f"task_seeds={task_seeds}",
                    "--set", f"n_test={n_test}", "--set", "dim=5",
                    "--set", "split_train=16", "--set", "split_pseudo=64",
                    "--out", str(tmp_path)]) == 0
        # 3 models (teacher, student, ens_student); each call gets the
        # k * n_splits = 6 runs of every test point as one (runs, points, 2) array
        assert len(calls) == 3 * task_seeds
        assert set(calls) == {(6, n_test, 2)}

    def test_one_student_call_per_task_seed(self, monkeypatch):
        """The teachers of every task seed train in one ``train_fits`` call
        on the task seeds' train splits stacked in seed order, then each
        task seed's ``2 * k * n_splits`` students in one call on its own
        ``pseudo_x``."""
        from w2slab import trainer
        from w2slab.cli import SCHEMAS, run_bias_variance

        fit, splits = trainer.train_fits, trainer.SyntheticTask.splits
        calls, drawn = [], []

        def counted(models, x, fits):
            models = list(models)
            calls.append((models[0].cfg.feature, len(models), x))
            return fit(models, x, fits)

        def recorded(task):
            for split in splits(task):
                drawn.append(split)
                yield split

        monkeypatch.setattr(trainer, "train_fits", counted)
        monkeypatch.setattr(trainer.SyntheticTask, "splits", recorded)
        cfg = {key: default for key, (_, default) in SCHEMAS["bias-variance"].items()}
        cfg.update(task_seeds=2, k=3, n_splits=2, dim=5, n_test=20, split_train=16,
                   split_pseudo=64)
        run_bias_variance(cfg)
        assert [call[:2] for call in calls] == [("identity", 2 * 3 * 2),
                                                ("projection", 2 * 3 * 2),
                                                ("projection", 2 * 3 * 2)]
        # drawn in order: each seed's train split, then per seed pseudo and test
        assert len(drawn) == 2 * 3
        train, pseudo = drawn[:2], drawn[2::2]
        np.testing.assert_array_equal(calls[0][2], np.concatenate([x for x, _ in train]))
        for (_, _, x), (pseudo_x, _) in zip(calls[1:], pseudo):
            assert x is pseudo_x

    def test_pseudo_splits_drawn_one_task_seed_at_a_time(self, monkeypatch):
        """When the first student call starts, every task seed's train split
        has been drawn but only the first seed's pseudo split."""
        from w2slab import trainer
        from w2slab.cli import SCHEMAS, run_bias_variance

        fit, splits = trainer.train_fits, trainer.SyntheticTask.splits
        drawn, at_first_student = [], []

        def counted(models, x, fits):
            if models[0].cfg.feature == "projection" and not at_first_student:
                at_first_student.append(list(drawn))
            return fit(models, x, fits)

        def recorded(task):
            for name, split in zip(("train", "pseudo", "test"), splits(task)):
                drawn.append((task.seed, name))
                yield split

        monkeypatch.setattr(trainer, "train_fits", counted)
        monkeypatch.setattr(trainer.SyntheticTask, "splits", recorded)
        cfg = {key: default for key, (_, default) in SCHEMAS["bias-variance"].items()}
        cfg.update(task_seeds=3, dim=5, n_test=20, split_train=16, split_pseudo=64)
        run_bias_variance(cfg)
        seeds = list(dict.fromkeys(seed for seed, _ in drawn))
        assert len(seeds) == 3
        assert at_first_student == [[(seed, "train") for seed in seeds]
                                    + [(seeds[0], "pseudo"), (seeds[0], "test")]]

    def test_stages_time_fits_and_estimates(self, tmp_path, monkeypatch):
        """The report's stages are the fit and estimate wall times, each
        fixed-width ``"%.3e"`` text of a nonnegative float, read like the
        run's duration off ``time.perf_counter``, never the settable wall
        clock."""
        import time
        import types

        from w2slab import cli

        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=time.perf_counter))
        assert run(["bias-variance", "--set", "task_seeds=2", "--set", "n_test=20",
                    "--set", "dim=5", "--set", "split_train=16",
                    "--set", "split_pseudo=64", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bias_variance.json").read_text())
        stages = report["stages"]
        assert set(stages) == {"teacher_fit_s", "student_fit_s", "estimate_s"}
        for text in stages.values():
            assert text == f"{float(text):.3e}" and float(text) >= 0.0
        assert sum(map(float, stages.values())) <= 1.001 * report["duration_seconds"]

    def test_rows_equal_lone_fits(self):
        """The lockstep fits give the rows of a reference that trains every
        teacher and student alone with ``train``."""
        from w2slab import harness, losses, trainer
        from w2slab.bregman import NegativeEntropy, SampleSet
        from w2slab.cli import run_bias_variance

        cfg = {key: default for key, (_, default) in SCHEMAS["bias-variance"].items()}
        # 16 teacher rows, under one batch; 64 student rows, two batches
        cfg.update(task_seeds=1, dim=5, n_test=20, split_train=16, split_pseudo=64)

        def fit_probe(feature_dim, probe_cfg, x, labels, seed):
            model = trainer.LinearProbeModel(feature_dim, probe_cfg,
                                             np.random.default_rng(seed))
            trainer.train(model, trainer.TrainData(x, labels), "ce", seed=seed)
            return model

        task = trainer.SyntheticTask(
            dim=cfg["dim"], separation=cfg["separation"], noise=cfg["noise"],
            n_train=cfg["n_splits"] * cfg["split_train"],
            n_pseudo=cfg["n_splits"] * cfg["split_pseudo"], n_test=cfg["n_test"],
            seed=int(np.random.SeedSequence([cfg["seed"], 0]).generate_state(1)[0]))
        probe_student = trainer.ProbeConfig(feature="projection", width=8 * cfg["dim"])
        data = task.sample()
        teacher_runs, student_runs, ens_runs = [], [], []
        rng = np.random.default_rng(np.random.SeedSequence([task.seed, 0xB1A5]))
        for i in range(cfg["k"]):
            train_order = rng.permutation(task.n_train)
            pseudo_order = rng.permutation(task.n_pseudo)
            teachers, chunks = [], []
            for j in range(cfg["n_splits"]):
                idx = train_order[j * cfg["split_train"]: (j + 1) * cfg["split_train"]]
                pidx = pseudo_order[j * cfg["split_pseudo"]: (j + 1) * cfg["split_pseudo"]]
                seed_ij = int(np.random.SeedSequence([task.seed, i, j]).generate_state(1)[0])
                teacher = fit_probe(task.dim, trainer.ProbeConfig(), data.train_x[idx],
                                    trainer.labels_to_soft(data.train_y[idx]), seed_ij)
                teacher_runs.append(teacher.predict_proba(data.test_x))
                teachers.append(teacher)
                chunks.append((pidx, seed_ij))
            for j, (pidx, seed_ij) in enumerate(chunks):
                chunk_x = data.pseudo_x[pidx]
                student = fit_probe(task.dim, probe_student, chunk_x,
                                    teachers[j].predict_proba(chunk_x), seed_ij + 1)
                student_runs.append(student.predict_proba(data.test_x))
                ensemble_labels = NegativeEntropy(2).dual_mean(SampleSet(np.stack(
                    [t.predict_proba(chunk_x) for t in teachers], axis=-2)))
                ens_student = fit_probe(task.dim, probe_student, chunk_x,
                                        ensemble_labels, seed_ij + 2)
                ens_runs.append(ens_student.predict_proba(data.test_x))
        expected = []
        truth = trainer.labels_to_soft(data.test_y)
        for point in range(task.n_test):
            truth_vec = losses.ProbVector(truth[point])
            for label, runs in (("teacher", teacher_runs), ("student", student_runs),
                                ("ens_student", ens_runs)):
                preds = [losses.ProbVector(r[point]) for r in runs]
                bias, variance = harness.bias_variance_estimate(preds, truth_vec)
                expected.append({
                    "task_seed": 0, "point": point, "model": label, "bias": bias,
                    "variance": variance,
                    "mean_ce": float(np.mean([losses.ce(truth_vec, p) for p in preds])),
                })

        rows, _, _ = run_bias_variance(cfg)
        assert rows == expected
