"""Command-line entry point.

Four subcommands: ``verify`` runs the identity and inequality suites,
``ridge`` sweeps the capacity/regularization grid against the closed-form
bound, ``classify`` runs the label-smoothing loss comparison, and
``bias-variance`` runs the split-ensemble estimator.  Configuration is a
flat key=value text file with ``--set`` overrides; every command writes a
CSV of rows and a JSON report whose verdicts are recomputable from the
rows.  Exit status: 0 all verdicts pass, 1 a verdict failed (artifacts
written) or a program error (traceback), 2 bad config.  Each command checks
its config with the library's own checks before any work.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import harness, losses, ridge, trainer
from .bregman import NegativeEntropy, SampleSet, SquaredNorm, clamp_simplex, mean_minimizer

__all__ = ["main", "ConfigError", "load_config", "SCHEMAS"]


class ConfigError(ValueError):
    """Malformed or out-of-schema configuration."""


def _parse_float_list(text: str) -> list[float]:
    items = [t for t in text.replace(",", " ").split() if t]
    return [float(t) for t in items]


def _parse_str_list(text: str) -> list[str]:
    return [t for t in text.replace(",", " ").split() if t]


SCHEMAS: dict[str, dict[str, tuple]] = {
    "verify": {
        "seed": (int, 0),
        "scenarios": (int, 100),
        "pairs": (int, 10_000),
        "triples": (int, 1000),
        "grid_step": (float, 1e-3),
        "tol_identity": (float, 1e-9),
        "tol_decomposition": (float, 1e-10),
        "tol_slack": (float, 1e-9),
        "tol_equality": (float, 1e-9),
    },
    "ridge": {
        "seed": (int, 0),
        "d_w": (int, 200),
        "n_ratio": (float, 20.0),
        "trials": (int, 50),
        "gammas": (_parse_float_list, [1.5, 2.0, 4.0]),
        "eta0s": (_parse_float_list, [0.5, 1.0]),
        "B": (float, 1.0),
        "bound_slack": (float, 1.1),
        "mp_tolerance": (float, 1e-6),
    },
    "classify": {
        "seed": (int, 11),
        "losses": (_parse_str_list, ["ce", "rce"]),
        "alphas": (_parse_float_list, [0.0, 0.001, 0.01, 0.1, 1.0]),
        "repeats": (int, 3),
        "dim": (int, 200),
        "separation": (float, 2.4),
        "noise": (float, 3.0),
        "n_train": (int, 64),
        "n_pseudo": (int, 4096),
        "n_test": (int, 1000),
        "student_width": (int, 0),  # 0 means 8 * dim
        "accuracy_band": (float, 0.05),
    },
    "bias-variance": {
        "seed": (int, 0),
        "k": (int, 2),
        "n_splits": (int, 3),
        "task_seeds": (int, 3),
        "dim": (int, 50),
        "separation": (float, 1.5),
        "noise": (float, 1.5),
        "split_train": (int, 64),
        "split_pseudo": (int, 512),
        "n_test": (int, 200),
        "identity_tol": (float, 1e-9),
    },
}


def load_config(command: str, path: str | None, overrides: list[str]) -> dict:
    schema = SCHEMAS[command]
    values = {key: default for key, (_, default) in schema.items()}

    def apply(key: str, raw: str, where: str) -> None:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for {command!r} ({where})")
        parse = schema[key][0]
        try:
            value = parse(raw)
        except ValueError as err:
            raise ConfigError(f"bad value for {key!r} ({where}): {err}") from err
        # a nan tolerance or bound would read as a violated identity, so
        # every float, listed ones included, must be finite
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ConfigError(f"bad value for {key!r} ({where}): must be finite, got {raw!r}")
        values[key] = value

    if path is not None:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, raw = line.split("=", 1)
            apply(key.strip(), raw.strip(), f"{path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        apply(key.strip(), raw.strip(), "--set")

    env_seed = os.environ.get("W2SLAB_SEED")
    if env_seed is not None and "seed" in schema:
        try:
            values["seed"] = int(env_seed)
        except ValueError as err:
            raise ConfigError(f"W2SLAB_SEED must be an integer: {env_seed!r}") from err
    if values["seed"] < 0:
        raise ConfigError(f"seed must be nonnegative, got {values['seed']}")
    return values


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and value != value:  # keep NaN JSON-legal
        return "nan"
    return value


def write_outputs(out_dir: str, command: str, config: dict, columns: list[str],
                  rows: list[dict], verdicts: list[dict], duration: float) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = command.replace("-", "_")
    with open(out / f"{stem}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in columns])
    report = {
        "command": command,
        "config": {k: _jsonable(v) for k, v in config.items()},
        "rows": [{k: _jsonable(v) for k, v in row.items()} for row in rows],
        "verdicts": verdicts,
        "duration_seconds": duration,
    }
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _csv_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def _verdict(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _print_verdicts(verdicts: list[dict]) -> None:
    for v in verdicts:
        status = "PASS" if v["passed"] else "FAIL"
        print(f"[{status}] {v['name']}: {v['detail']}")


# --- verify ---------------------------------------------------------------


def _verify_geometries(rng):
    return [SquaredNorm(int(rng.integers(1, 5))), NegativeEntropy(int(rng.integers(2, 9)))]


def cmd_verify(cfg: dict, out_dir: str) -> int:
    start = time.time()
    for key in ("scenarios", "pairs", "triples"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")
    if not 0.0 < cfg["grid_step"] < 1.0:
        raise ConfigError(f"grid_step must lie in (0, 1), got {cfg['grid_step']}")
    rng = np.random.default_rng(cfg["seed"])
    verdicts: list[dict] = []
    rows: list[dict] = []

    def points(geometry, n):
        if geometry.kind == "negative-entropy":
            return clamp_simplex(rng.dirichlet(np.ones(geometry.dimension), size=n))
        return rng.uniform(-2.0, 2.0, size=(n, geometry.dimension))

    # identity suite per geometry family
    worst_triple = 0.0
    worst_decomp = 0.0
    worst_round = 0.0
    nonneg_ok = True
    for kind in ("squared-norm", "negative-entropy"):
        geometry = (SquaredNorm(3) if kind == "squared-norm" else NegativeEntropy(3))
        x = points(geometry, cfg["pairs"])
        y = points(geometry, cfg["pairs"])
        nonneg_ok &= bool(np.all(geometry.divergence(x, y) >= 0.0))
        # one draw of the same stream as triples draws of 3 points each
        abc = points(geometry, 3 * cfg["triples"]).reshape(-1, 3, geometry.dimension)
        residual = geometry.law_of_cosines_residual(abc[:, 0], abc[:, 1], abc[:, 2])
        worst_triple = max(worst_triple, float(np.max(np.abs(residual), initial=0.0)))
        for _ in range(200):
            n = int(rng.integers(1, 6))
            sample = SampleSet(points(geometry, n), rng.dirichlet(np.ones(n)))
            target = points(geometry, 1)[0]
            variance, bias = geometry.forward_decomposition(sample, target)
            total = float(sample.weights @ geometry.divergence(sample.points, target))
            worst_decomp = max(worst_decomp, abs(variance + bias - total))
            rbias, rvar = geometry.reverse_decomposition(target, sample)
            rtotal = float(sample.weights @ geometry.divergence(target, sample.points))
            worst_decomp = max(worst_decomp, abs(rbias + rvar - rtotal))
        pts = points(geometry, 1000)
        back = geometry.from_dual(geometry.to_dual(pts))
        worst_round = max(
            worst_round, float(np.max(np.abs(back - pts) / np.maximum(np.abs(pts), 1e-30)))
        )
    verdicts.append(_verdict(
        "law_of_cosines", worst_triple <= cfg["tol_identity"],
        f"max |residual| = {worst_triple:.3e} (tol {cfg['tol_identity']:.1e})"))
    verdicts.append(_verdict(
        "decomposition_reconstruction", worst_decomp <= cfg["tol_decomposition"],
        f"max |gap| = {worst_decomp:.3e} (tol {cfg['tol_decomposition']:.1e})"))
    verdicts.append(_verdict(
        "dual_round_trip", worst_round <= 1e-10,
        f"max relative error = {worst_round:.3e} (tol 1e-10)"))
    verdicts.append(_verdict("divergence_nonnegative", nonneg_ok, f"{cfg['pairs']} pairs per geometry"))

    # expectation-minimizer grid oracle on the binary simplex
    geometry = NegativeEntropy(2)
    step = cfg["grid_step"]
    grid1 = np.arange(step, 1.0, step)
    grid = np.stack([grid1, 1.0 - grid1], axis=-1)
    worst_grid = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 6))
        sample = SampleSet(
            clamp_simplex(rng.dirichlet(np.ones(2), size=n)), rng.dirichlet(np.ones(n))
        )
        # (grid, n) divergence tables: E[D(X, g)] and E[D(g, X)] per grid point
        fwd = geometry.divergence(sample.points, grid[:, None]) @ sample.weights
        worst_grid = max(worst_grid, abs(grid1[np.argmin(fwd)] - mean_minimizer(sample)[0]))
        rev = geometry.divergence(grid[:, None], sample.points) @ sample.weights
        worst_grid = max(worst_grid, abs(grid1[np.argmin(rev)] - geometry.dual_mean(sample)[0]))
    verdicts.append(_verdict(
        "expectation_minimizer_grid", worst_grid <= step,
        f"max |argmin offset| = {worst_grid:.2e} (grid step {step:.0e})"))

    # inequality and equality suites on random scenarios
    min_slack = float("inf")
    min_domination = float("inf")
    worst_equality = 0.0
    worst_gains = 0.0
    min_entropy_gap = float("inf")
    worst_split = 0.0
    worst_algo1 = 0.0
    worst_c3 = 0.0
    for index in range(cfg["scenarios"]):
        for geometry in _verify_geometries(rng):
            scenario = harness.random_scenario(geometry, rng, seed=index)
            for direction in ("forward", "reverse"):
                for verifier, label in ((harness.verify_risk_gap, "conditional"),
                                        (harness.verify_risk_gap_product, "product")):
                    rep = verifier(scenario, geometry, direction)
                    min_slack = min(min_slack, rep.slack)
                    min_domination = min(min_domination, rep.epsilon - abs(rep.exact_inner))
                    rows.append({
                        "scenario": index, "geometry": geometry.kind,
                        "variant": label, "direction": direction,
                        "lhs": rep.lhs, "rhs": rep.rhs, "misfit": rep.misfit,
                        "epsilon": rep.epsilon, "slack": rep.slack,
                    })
                dual = direction == "forward"
                ideal = harness.with_posterior_mean_students(scenario, geometry, dual)
                rep = harness.verify_posterior_mean_equality(ideal, geometry, direction)
                worst_equality = max(
                    worst_equality, abs(rep.lhs - (rep.teacher_risk - rep.misfit)))
            if geometry.kind == "squared-norm":
                *_, split_gap = harness.misfit_variance_split(scenario)
                worst_split = max(worst_split, split_gap)
            else:
                gains = harness.verify_ideal_student_gains(scenario)
                worst_gains = max(
                    worst_gains, abs(gains.ce_gain - gains.ce_misfit),
                    abs(gains.rce_misfit - gains.rce_gain - gains.entropy_gap))
                min_entropy_gap = min(min_entropy_gap, gains.entropy_gap)
                for direction in ("forward", "reverse"):
                    ce_form = harness.cross_entropy_form_report(scenario, direction)
                    kl_form = harness.verify_risk_gap(scenario, geometry, direction)
                    worst_c3 = max(worst_c3, abs(ce_form.slack - kl_form.slack))
                k = geometry.dimension
                runs = [losses.ProbVector(clamp_simplex(rng.dirichlet(np.ones(k))))
                        for _ in range(int(rng.integers(2, 6)))]
                truth = losses.ProbVector.one_hot(int(rng.integers(k)), k)
                bias, variance = harness.bias_variance_estimate(runs, truth)
                mean_ce = float(np.mean([losses.ce(truth, r) for r in runs]))
                worst_algo1 = max(worst_algo1, abs(bias + variance - mean_ce))

    verdicts.append(_verdict(
        "risk_gap_inequality", min_slack >= -cfg["tol_slack"],
        f"min slack = {min_slack:.3e} (tol -{cfg['tol_slack']:.1e})"))
    verdicts.append(_verdict(
        "residual_dominates_inner_product", min_domination >= -1e-12,
        f"min (epsilon - |inner|) = {min_domination:.3e}"))
    verdicts.append(_verdict(
        "posterior_mean_equality", worst_equality <= cfg["tol_equality"],
        f"max |gap| = {worst_equality:.3e} (tol {cfg['tol_equality']:.1e})"))
    verdicts.append(_verdict(
        "ideal_student_gains",
        worst_gains <= cfg["tol_equality"] and min_entropy_gap >= -1e-12,
        f"max |gain identity gap| = {worst_gains:.3e} (tol {cfg['tol_equality']:.1e}), "
        f"min entropy gap = {min_entropy_gap:.3e} (tol -1e-12)"))
    verdicts.append(_verdict(
        "misfit_variance_split", worst_split <= 1e-10,
        f"max per-input |gap| = {worst_split:.3e} (tol 1e-10)"))
    verdicts.append(_verdict(
        "cross_entropy_form_slack", worst_c3 <= cfg["tol_equality"],
        f"max |slack difference| = {worst_c3:.3e}"))
    verdicts.append(_verdict(
        "bias_variance_identity", worst_algo1 <= cfg["tol_equality"],
        f"max |bias + variance - mean CE| = {worst_algo1:.3e}"))

    _print_verdicts(verdicts)
    columns = ["scenario", "geometry", "variant", "direction",
               "lhs", "rhs", "misfit", "epsilon", "slack"]
    write_outputs(out_dir, "verify", cfg, columns, rows, verdicts, time.time() - start)
    return 0 if all(v["passed"] for v in verdicts) else 1


# --- ridge ------------------------------------------------------------------


def cmd_ridge(cfg: dict, out_dir: str) -> int:
    start = time.time()
    try:
        base = ridge.RidgeConfig(d_w=cfg["d_w"], n_ratio=cfg["n_ratio"], B=cfg["B"],
                                 seed=cfg["seed"])
        ridge.sweep_cells(base, cfg["gammas"], cfg["eta0s"], cfg["trials"])
    except ValueError as err:
        raise ConfigError(str(err)) from err
    estimates = ridge.sweep_misfit(base, cfg["gammas"], cfg["eta0s"], cfg["trials"])
    rows: list[dict] = []
    verdicts: list[dict] = []
    worst_ratio = 0.0
    worst_mp_gap = 0.0
    for (eta0, gamma), estimate in estimates.items():
        h = ridge.h_closed_form(eta0, gamma)
        mp = ridge.mp_integral(eta0, gamma)
        worst_mp_gap = max(worst_mp_gap, abs(mp - h))
        worst_ratio = max(worst_ratio, estimate.empirical_misfit / (cfg["B"] * h))
        for t, value in enumerate(estimate.per_trial):
            rows.append({
                "d_w": cfg["d_w"], "gamma": gamma, "n_ratio": cfg["n_ratio"],
                "eta0": eta0, "trial": t, "misfit": float(value),
                "bound": estimate.bound, "h": h, "mp_integral": mp,
            })
    verdicts.append(_verdict(
        "misfit_within_bound", worst_ratio <= cfg["bound_slack"],
        f"max misfit / (B h) = {worst_ratio:.4f} (allowed {cfg['bound_slack']})"))
    verdicts.append(_verdict(
        "quadrature_matches_closed_form", worst_mp_gap <= cfg["mp_tolerance"],
        f"max |integral - closed form| = {worst_mp_gap:.3e}"))

    gammas = sorted(cfg["gammas"])
    inversion_ok = True
    for eta0 in cfg["eta0s"]:
        means = [estimates[(eta0, g)].empirical_misfit for g in gammas]
        inversions = sum(b > a for a, b in zip(means, means[1:]))
        inversion_ok &= inversions <= 1
    verdicts.append(_verdict(
        "misfit_decreases_with_capacity", inversion_ok,
        "at most one inversion per eta0 sweep"))
    mono = ridge.verify_monotonicity(cfg["eta0s"], cfg["gammas"])
    verdicts.append(_verdict(
        "bound_monotone_and_in_range", mono.ok, "; ".join(mono.violations) or "clean"))

    _print_verdicts(verdicts)
    columns = ["d_w", "gamma", "n_ratio", "eta0", "trial",
               "misfit", "bound", "h", "mp_integral"]
    write_outputs(out_dir, "ridge", cfg, columns, rows, verdicts, time.time() - start)
    return 0 if all(v["passed"] for v in verdicts) else 1


# --- classify ------------------------------------------------------------------


def cmd_classify(cfg: dict, out_dir: str) -> int:
    start = time.time()
    try:
        trainer.check_sweep(cfg["losses"], cfg["alphas"], cfg["repeats"])
        task = trainer.SyntheticTask(
            dim=cfg["dim"], separation=cfg["separation"], noise=cfg["noise"],
            n_train=cfg["n_train"], n_pseudo=cfg["n_pseudo"], n_test=cfg["n_test"],
            seed=cfg["seed"],
        )
        student_cfg = None
        if cfg["student_width"] != 0:
            student_cfg = dataclasses.replace(
                trainer.DEFAULT_STUDENT, width=cfg["student_width"])
    except ValueError as err:
        raise ConfigError(str(err)) from err
    rows = trainer.alpha_sweep(
        task, cfg["losses"], cfg["alphas"], cfg["repeats"], student_cfg=student_cfg)

    verdicts: list[dict] = []
    band = cfg["accuracy_band"]

    def cell_mean(loss, alpha):
        accs = [r["student_acc"] for r in rows if r["loss"] == loss and r["alpha"] == alpha]
        return float(np.mean(accs)) if accs else float("nan")

    stable_alphas = [a for a in cfg["alphas"] if a >= 0.001]
    if "rce" in cfg["losses"] and len(stable_alphas) >= 2:
        means = [cell_mean("rce", a) for a in stable_alphas]
        spread = max(means) - min(means)
        verdicts.append(_verdict(
            "rce_accuracy_stable", spread <= band,
            f"spread {spread:.3f} over alphas >= 0.001 (band {band})"))
    if "ce" in cfg["losses"] and {0.01, 1.0} <= set(cfg["alphas"]):
        gap = cell_mean("ce", 1.0) - cell_mean("ce", 0.01)
        verdicts.append(_verdict(
            "ce_degrades_at_low_alpha", gap >= band,
            f"accuracy drop {gap:.3f} from alpha 1.0 to 0.01 (need {band})"))
    if {"ce", "rce"} <= set(cfg["losses"]) and 1.0 in cfg["alphas"]:
        votes = 0
        total = 0
        for rep in range(cfg["repeats"]):
            pair = {r["loss"]: r["param_distance"] for r in rows
                    if r["alpha"] == 1.0 and r["repeat"] == rep
                    and r["loss"] in ("ce", "rce")}
            if len(pair) == 2:
                total += 1
                votes += pair["rce"] >= pair["ce"]
        verdicts.append(_verdict(
            "rce_moves_farther", votes * 2 > total,
            f"rce distance >= ce distance in {votes}/{total} repeats at alpha 1"))

    for cell in trainer.summarize_sweep(rows):
        print(
            f"{cell['loss']:>5} alpha={cell['alpha']:<6g} "
            f"acc={cell['student_acc_mean']:.3f}+-{cell['student_acc_std']:.3f} "
            f"dist={cell['param_distance_mean']:.2f}+-{cell['param_distance_std']:.2f}"
        )
    _print_verdicts(verdicts)
    columns = ["loss", "alpha", "repeat", "teacher_acc", "student_acc",
               "param_distance", "mean_gdv"]
    write_outputs(out_dir, "classify", cfg, columns, rows, verdicts, time.time() - start)
    return 0 if all(v["passed"] for v in verdicts) else 1


# --- bias-variance ----------------------------------------------------------------


def _fit_probe(feature_dim, probe_cfg, x, labels, seed):
    # the returned report is unused; predictions are read off the model
    model = trainer.LinearProbeModel(feature_dim, probe_cfg, np.random.default_rng(seed))
    data = trainer.TrainData(x, labels, x[:2], np.array([1.0, -1.0]))
    trainer.train(model, data, "ce", seed=seed)
    return model


def _dual_mean_rows(predictions: list[np.ndarray]) -> np.ndarray:
    """Row-wise dual mean (normalized geometric mean) of (n, 2) predictions."""
    return NegativeEntropy(2).from_dual(np.mean([np.log(p) for p in predictions], axis=0))


def run_bias_variance(cfg: dict) -> tuple[list[dict], list[dict]]:
    """Split-ensemble bias/variance estimation over disjoint teacher splits.

    Each outer round re-partitions the pools into ``n_splits`` disjoint
    (teacher, pseudo) pairs; every pair trains one teacher-student chain
    plus an ensemble-supervised student whose pseudo-labels are the dual
    mean of all the round's teachers.
    """
    for key in ("k", "n_splits", "task_seeds"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")
    if cfg["k"] * cfg["n_splits"] < 2:
        raise ConfigError("k * n_splits must be at least 2")
    try:
        base_task = trainer.SyntheticTask(
            dim=cfg["dim"], separation=cfg["separation"], noise=cfg["noise"],
            n_train=cfg["n_splits"] * cfg["split_train"],
            n_pseudo=cfg["n_splits"] * cfg["split_pseudo"],
            n_test=cfg["n_test"], seed=cfg["seed"],
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    rows: list[dict] = []
    identity_gap = 0.0
    ens_wins = 0
    points_total = 0

    probe_teacher = trainer.DEFAULT_TEACHER
    probe_student = dataclasses.replace(trainer.DEFAULT_STUDENT, width=8 * cfg["dim"])
    for outer_seed in range(cfg["task_seeds"]):
        task = dataclasses.replace(base_task, seed=int(
            np.random.SeedSequence([cfg["seed"], outer_seed]).generate_state(1)[0]))
        data = task.sample()
        truth = trainer.labels_to_soft(data.test_y)
        teacher_runs, student_runs, ens_runs = [], [], []
        rng = np.random.default_rng(np.random.SeedSequence([task.seed, 0xB1A5]))
        for i in range(cfg["k"]):
            train_order = rng.permutation(task.n_train)
            pseudo_order = rng.permutation(task.n_pseudo)
            teachers, chunks = [], []
            for j in range(cfg["n_splits"]):
                idx = train_order[j * cfg["split_train"]: (j + 1) * cfg["split_train"]]
                pidx = pseudo_order[j * cfg["split_pseudo"]: (j + 1) * cfg["split_pseudo"]]
                seed_ij = int(np.random.SeedSequence(
                    [task.seed, i, j]).generate_state(1)[0])
                teacher = _fit_probe(
                    task.dim, probe_teacher, data.train_x[idx],
                    trainer.labels_to_soft(data.train_y[idx]), seed_ij)
                teacher_runs.append(teacher.predict_proba(data.test_x))
                teachers.append(teacher)
                chunks.append((pidx, seed_ij))
            for j, (pidx, seed_ij) in enumerate(chunks):
                chunk_x = data.pseudo_x[pidx]
                student = _fit_probe(
                    task.dim, probe_student, chunk_x,
                    teachers[j].predict_proba(chunk_x), seed_ij + 1)
                student_runs.append(student.predict_proba(data.test_x))
                ensemble_labels = _dual_mean_rows(
                    [t.predict_proba(chunk_x) for t in teachers])
                ens_student = _fit_probe(
                    task.dim, probe_student, chunk_x, ensemble_labels, seed_ij + 2)
                ens_runs.append(ens_student.predict_proba(data.test_x))

        for point in range(task.n_test):
            truth_vec = losses.ProbVector(truth[point])
            point_rows = {}
            for label, runs in (("teacher", teacher_runs),
                                ("student", student_runs),
                                ("ens_student", ens_runs)):
                preds = [losses.ProbVector(r[point]) for r in runs]
                bias, variance = harness.bias_variance_estimate(preds, truth_vec)
                mean_ce = float(np.mean([losses.ce(truth_vec, p) for p in preds]))
                identity_gap = max(identity_gap, abs(bias + variance - mean_ce))
                point_rows[label] = (bias, variance, mean_ce)
                rows.append({
                    "task_seed": outer_seed, "point": point, "model": label,
                    "bias": bias, "variance": variance, "mean_ce": mean_ce,
                })
            points_total += 1
            ens_wins += point_rows["ens_student"][1] < point_rows["student"][1]

    verdicts = [
        _verdict("bias_variance_identity", identity_gap <= cfg["identity_tol"],
                 f"max |bias + variance - mean CE| = {identity_gap:.3e}"),
        _verdict("ensemble_reduces_variance", ens_wins * 2 > points_total,
                 f"ensemble-supervised variance lower on {ens_wins}/{points_total} points"),
    ]
    return rows, verdicts


def cmd_bias_variance(cfg: dict, out_dir: str) -> int:
    start = time.time()
    rows, verdicts = run_bias_variance(cfg)
    _print_verdicts(verdicts)
    columns = ["task_seed", "point", "model", "bias", "variance", "mean_ce"]
    write_outputs(out_dir, "bias-variance", cfg, columns, rows, verdicts,
                  time.time() - start)
    return 0 if all(v["passed"] for v in verdicts) else 1


# --- entry point ---------------------------------------------------------------


COMMANDS = {
    "verify": cmd_verify,
    "ridge": cmd_ridge,
    "classify": cmd_classify,
    "bias-variance": cmd_bias_variance,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="w2slab",
        description="Verification lab for misfit-based weak-to-strong bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        defaults = ", ".join(
            f"{k}={v[1]}" for k, v in SCHEMAS[name].items())
        p = sub.add_parser(name, help=f"run the {name} suite",
                           description=f"Config keys and defaults: {defaults}")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", default="w2slab_out", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.command, args.config, args.overrides)
        return COMMANDS[args.command](cfg, args.out)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
