"""Command-line entry point.

Four subcommands: ``verify`` runs the identity and inequality suites,
``ridge`` sweeps the capacity/regularization grid against the closed-form
bound, ``classify`` runs the label-smoothing loss comparison, and
``bias-variance`` runs the split-ensemble estimator.  Configuration is a
flat key=value text file with ``--set`` overrides.  Each command is a
``run_<command>(cfg) -> (rows, verdicts, stages)`` function; every verdict
is a ``measured op bound`` record from ``_verdict``, and ``stages`` holds
what the run reports about its own timing (``verify``: the wall time of
its identity suites, scenario draws and block verifiers; ``ridge``: the
sweep's worker count and the wall time of its sweep and quadrature
stages; ``bias-variance``: the wall time of its teacher fits, student fits
and estimates; empty for ``classify``).  ``main`` alone prints the verdicts,
writes a CSV of the rows and a JSON report, and picks the exit status: 0
all verdicts pass, 1 a verdict failed (artifacts written) or a program
error (traceback), 2 bad config.
Each command checks its config before any work, with the library's own
checks where it has them.

``run_classify`` and ``run_bias_variance`` are the trained experiments, on
:mod:`w2slab.trainer`'s task, probe and training.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import operator
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from . import harness, losses, ridge, trainer
from .bregman import (NegativeEntropy, SampleSet, SquaredNorm, _sum, clamp_simplex,
                      mean_minimizer, stack_samples)

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

    if values["seed"] < 0:
        raise ConfigError(f"seed must be nonnegative, got {values['seed']}")
    return values


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # "nan", "inf", "-inf" keep the JSON strict
    return value


def write_outputs(out_dir: str, command: str, config: dict, columns: list[str],
                  rows: list[dict], verdicts: list[dict], duration: float,
                  stages: dict) -> None:
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
        "verdicts": [{k: _jsonable(v) for k, v in verdict.items()} for verdict in verdicts],
        "duration_seconds": duration,
    }
    if stages:
        report["stages"] = stages
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _csv_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


_OPS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


def _verdict(name: str, what: str, measured, op: str, bound) -> dict:
    """The check ``measured op bound``; a NaN measurement fails every op."""
    return {"name": name, "measured": measured, "op": op, "bound": bound,
            "passed": bool(_OPS[op](measured, bound)),
            "detail": f"{what} = {measured:.4g} (need {op} {bound:g})"}


# --- verify ---------------------------------------------------------------


def _verify_geometries(rng):
    return [SquaredNorm(int(rng.integers(1, 5))), NegativeEntropy(int(rng.integers(2, 9)))]


def _identity_suites(cfg: dict, rng, found: dict) -> None:
    """Bregman identity suites per geometry family and the
    expectation-minimizer grid oracle; their point tables are freed on
    return, before the scenarios are drawn."""

    def points(geometry, n):
        if geometry.kind == "negative-entropy":
            return clamp_simplex(rng.dirichlet(np.ones(geometry.dimension), size=n))
        return rng.uniform(-2.0, 2.0, size=(n, geometry.dimension))

    # identity suite per geometry family
    for kind in ("squared-norm", "negative-entropy"):
        geometry = (SquaredNorm(3) if kind == "squared-norm" else NegativeEntropy(3))
        x = points(geometry, cfg["pairs"])
        y = points(geometry, cfg["pairs"])
        # the generator form, which unlike a closed form or a clamped one can go negative
        found["divergence_nonnegative"].append(
            geometry.potential(x) - geometry.potential(y)
            - np.sum(geometry.grad(y) * (x - y), axis=-1))
        # one draw of the same stream as triples draws of 3 points each
        abc = points(geometry, 3 * cfg["triples"]).reshape(-1, 3, geometry.dimension)
        found["law_of_cosines"].append(
            np.abs(geometry.law_of_cosines_residual(abc[:, 0], abc[:, 1], abc[:, 2])))
        # 200 weighted samples with a target each, drawn one at a time and
        # decomposed as one padded block
        samples, targets = [], []
        for _ in range(200):
            n = int(rng.integers(1, 6))
            samples.append(SampleSet(points(geometry, n), rng.dirichlet(np.ones(n))))
            targets.append(points(geometry, 1)[0])
        block, targets = stack_samples(samples, geometry), np.array(targets)
        w, pts, y = block.weights, block.points, targets[:, None]
        variance, bias = geometry.forward_decomposition(block, targets)
        rbias, rvar = geometry.reverse_decomposition(targets, block)
        found["decomposition_reconstruction"] += [
            np.abs(variance + bias - _sum(w * geometry.divergence(pts, y), -1)),
            np.abs(rbias + rvar - _sum(w * geometry.divergence(y, pts), -1))]
        pts = points(geometry, 1000)
        back = geometry.from_dual(geometry.to_dual(pts))
        found["dual_round_trip"].append(
            np.abs(back - pts) / np.maximum(np.abs(pts), 1e-30))

    # expectation-minimizer grid oracle on the binary simplex
    geometry = NegativeEntropy(2)
    step = cfg["grid_step"]
    grid1 = np.arange(step, 1.0, step)
    grid = np.stack([grid1, 1.0 - grid1], axis=-1)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        sample = SampleSet(
            clamp_simplex(rng.dirichlet(np.ones(2), size=n)), rng.dirichlet(np.ones(n))
        )
        # (grid, n) divergence tables: E[D(X, g)] and E[D(g, X)] per grid point
        fwd = geometry.divergence(sample.points, grid[:, None]) @ sample.weights
        rev = geometry.divergence(grid[:, None], sample.points) @ sample.weights
        found["expectation_minimizer_grid"] += [
            abs(grid1[np.argmin(fwd)] - mean_minimizer(sample)[0]),
            abs(grid1[np.argmin(rev)] - geometry.dual_mean(sample)[0])]


def run_verify(cfg: dict) -> tuple[list[dict], list[dict], dict]:
    """Identity, inequality and equality suites; one row per risk-gap report.

    Its stages record the wall time in seconds of the identity and
    minimizer-grid suites (``identity_s``), of drawing the scenarios
    (``draw_s``) and of the scenario verifiers and the bias-variance
    estimator, run once per block of scenarios of one geometry kind and K
    and once per group of estimator runs of one K and run count
    (``blocks_s``), each as ``"%.3e"`` text.
    """
    for key in ("scenarios", "pairs", "triples"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")
    if not 0.0 < cfg["grid_step"] < 1.0:
        raise ConfigError(f"grid_step must lie in (0, 1), got {cfg['grid_step']}")
    start = time.perf_counter()
    rng = np.random.default_rng(cfg["seed"])
    # every measurement of each verdict, reduced once when judged
    found: dict[str, list] = defaultdict(list)
    _identity_suites(cfg, rng, found)
    identity_s = time.perf_counter() - start

    # inequality and equality suites on random scenarios.  Every scenario is
    # drawn first, in the rng order of one scenario at a time, into one
    # block per (geometry kind, K); the estimator's runs, drawn beside each
    # simplex scenario, go to one group per (K, number of runs)
    blocks: dict[tuple[str, int], tuple] = {}
    estimates: dict[tuple[int, int], list[tuple]] = {}
    for index in range(cfg["scenarios"]):
        for geometry in _verify_geometries(rng):
            scenario = harness.random_scenario(geometry, rng, seed=index)
            key = (geometry.kind, geometry.dimension)
            blocks.setdefault(key, (geometry, []))[1].append(scenario)
            if geometry.kind == "negative-entropy":
                k = geometry.dimension
                runs = np.array([rng.dirichlet(np.ones(k))
                                 for _ in range(int(rng.integers(2, 6)))])
                truth = np.eye(k)[int(rng.integers(k))]
                estimates.setdefault((k, len(runs)), []).append((runs, truth))
    draw_s = time.perf_counter() - start - identity_s

    # one estimator call per group on its clamped (runs, points, K) array
    for group in estimates.values():
        runs, truth = (clamp_simplex(np.stack(rows, axis=-2)) for rows in zip(*group))
        bias, variance = harness.bias_variance_estimate(runs, truth)
        mean_ce = _sum(losses.ce(truth, runs), 0) / len(runs)
        found["bias_variance_identity"].append(np.abs(bias + variance - mean_ce))

    # one call per block and verifier; each scenario's four rows, in
    # (direction, variant) order, wait under (scenario, kind) for the rest
    cells: dict[tuple[int, str], list[dict]] = {}
    fields = ("lhs", "rhs", "misfit", "epsilon", "slack")
    while blocks:
        # popping frees each block's scenarios once its verifiers have run
        (kind, _), (geometry, members) = blocks.popitem()
        block = harness.stack_scenarios(members, geometry)
        conditional = {}  # direction -> the conditional risk-gap report
        for direction in ("forward", "reverse"):
            for verifier, label in ((harness.verify_risk_gap, "conditional"),
                                    (harness.verify_risk_gap_product, "product")):
                rep = verifier(block, geometry, direction)
                if label == "conditional":
                    conditional[direction] = rep
                found["risk_gap_identity"].append(np.abs(
                    rep.lhs - (rep.teacher_risk - rep.misfit + rep.exact_inner)))
                found["residual_dominates_inner_product"].append(
                    rep.epsilon - np.abs(rep.exact_inner))
                columns = zip(*(getattr(rep, name).tolist() for name in fields))
                for sc, values in zip(members, columns):
                    cells.setdefault((sc.seed, kind), []).append({
                        "scenario": sc.seed, "geometry": kind, "variant": label,
                        "direction": direction, **dict(zip(fields, values))})
            dual = direction == "forward"
            ideal = harness.with_posterior_mean_students(block, geometry, dual)
            rep = harness.verify_posterior_mean_equality(ideal, geometry, direction)
            found["posterior_mean_equality"].append(
                np.abs(rep.lhs - (rep.teacher_risk - rep.misfit)))
        if kind == "squared-norm":
            *_, split_gap = harness.misfit_variance_split(block)
            found["misfit_variance_split"].append(split_gap)
        else:
            gains = harness.verify_ideal_student_gains(block)
            found["ideal_student_gains"] += [
                np.abs(gains.ce_gain - gains.ce_misfit),
                np.abs(gains.rce_misfit - gains.rce_gain - gains.entropy_gap)]
            found["entropy_gap_nonnegative"].append(gains.entropy_gap)
            for direction in ("forward", "reverse"):
                ce_form = harness.cross_entropy_form_report(block, direction)
                found["cross_entropy_form_slack"].append(
                    np.abs(ce_form.slack - conditional[direction].slack))
    rows = [row for index in range(cfg["scenarios"])
            for kind in ("squared-norm", "negative-entropy")
            for row in cells[index, kind]]
    found["risk_gap_inequality"] = [row["slack"] for row in rows]
    stages = {"identity_s": f"{identity_s:.3e}", "draw_s": f"{draw_s:.3e}",
              "blocks_s": f"{time.perf_counter() - start - identity_s - draw_s:.3e}"}

    tol_eq = cfg["tol_equality"]
    # (name, what is measured, op, bound): "<=" judges the largest
    # measurement, ">=" the smallest.  Over every conditional and product
    # risk-gap report, with S the student risk, T the teacher risk, M the
    # misfit and inner the enumerated inner-product remainder:
    # risk_gap_identity checks the exact S = T - M + inner; the inequality
    # S <= T - M + epsilon, its slack epsilon - inner; and the residual
    # domination epsilon >= |inner|.  The last two read the same value
    # whenever the report of least epsilon - |inner| has inner >= 0
    checks = [
        ("law_of_cosines", "max |residual|", "<=", cfg["tol_identity"]),
        ("decomposition_reconstruction", "max |gap|", "<=", cfg["tol_decomposition"]),
        ("dual_round_trip", "max relative error", "<=", 1e-10),
        ("divergence_nonnegative",
         f"min generator-form divergence over {cfg['pairs']} pairs per geometry",
         ">=", -cfg["tol_identity"]),
        ("expectation_minimizer_grid", "max |argmin offset|", "<=", cfg["grid_step"]),
        ("risk_gap_identity", "max |student risk - (teacher risk - misfit + inner)|",
         "<=", cfg["tol_identity"]),
        ("risk_gap_inequality", "min slack", ">=", -cfg["tol_slack"]),
        ("residual_dominates_inner_product", "min (epsilon - |inner|)", ">=", -1e-12),
        ("posterior_mean_equality", "max |gap|", "<=", tol_eq),
        ("ideal_student_gains", "max |gain identity gap|", "<=", tol_eq),
        ("entropy_gap_nonnegative", "min Jensen entropy gap", ">=", -1e-12),
        ("misfit_variance_split", "max per-input |gap|", "<=", 1e-10),
        ("cross_entropy_form_slack", "max |slack difference|", "<=", tol_eq),
        ("bias_variance_identity", "max |bias + variance - mean CE|", "<=", tol_eq),
    ]
    verdicts = [
        _verdict(name, what, (np.max if op == "<=" else np.min)(np.hstack(found[name])),
                 op, bound)
        for name, what, op, bound in checks
    ]
    return rows, verdicts, stages


# --- ridge ------------------------------------------------------------------


def run_ridge(cfg: dict) -> tuple[list[dict], list[dict], dict]:
    """Capacity/regularization grid against the closed-form bound.

    Its stages record the sweep's worker count (``sweep_workers``) and the
    wall time in seconds of the draw-and-solve sweep (``sweep_s``) and of
    the quadrature route (``quadrature_s``), each as ``"%.3e"`` text.
    """
    try:
        base = ridge.RidgeConfig(d_w=cfg["d_w"], n_ratio=cfg["n_ratio"], B=cfg["B"],
                                 seed=cfg["seed"])
        ridge.sweep_cells(base, cfg["gammas"], cfg["eta0s"], cfg["trials"])
    except ValueError as err:
        raise ConfigError(str(err)) from err
    start = time.perf_counter()
    estimates = ridge.sweep_misfit(base, cfg["gammas"], cfg["eta0s"], cfg["trials"])
    sweep_s = time.perf_counter() - start
    integrals = {}
    for key in estimates:
        # near gamma = 1 the density's lower edge meets the 1/lam pole, and the
        # rule may not settle (at gamma 1.0002 its error estimate is still 2.9e-7
        # at 65,535 nodes): a NaN row fails quadrature_matches_closed_form with
        # the artifacts written
        try:
            integrals[key] = ridge.mp_integral(*key)
        except ridge.QuadratureError:
            integrals[key] = math.nan
    quadrature_s = time.perf_counter() - start - sweep_s
    # times as fixed-width text, so the report's size does not vary run to run
    stages = {
        "sweep_workers": ridge.sweep_workers(cfg["trials"]),
        "sweep_s": f"{sweep_s:.3e}",
        "quadrature_s": f"{quadrature_s:.3e}",
    }
    rows: list[dict] = []
    ratios, mp_gaps = [], []
    for (eta0, gamma), estimate in estimates.items():
        h = ridge.h_closed_form(eta0, gamma)
        mp = integrals[eta0, gamma]
        # relative, since h shrinks like eta0^2 and an absolute gap with it
        mp_gaps.append(abs(mp - h) / h)
        ratios.append(estimate.empirical_misfit / (cfg["B"] * h))
        for t, value in enumerate(estimate.per_trial):
            rows.append({
                "d_w": cfg["d_w"], "gamma": gamma, "n_ratio": cfg["n_ratio"],
                "eta0": eta0, "trial": t, "misfit": float(value),
                "bound": estimate.bound, "h": h, "mp_integral": mp,
            })

    gammas = sorted(cfg["gammas"])
    inversions = []
    for eta0 in cfg["eta0s"]:
        means = [estimates[(eta0, g)].empirical_misfit for g in gammas]
        inversions.append(sum(b > a for a, b in zip(means, means[1:])))
    violations = ridge.verify_monotonicity(cfg["eta0s"], cfg["gammas"]).violations
    monotone = _verdict("bound_monotone_and_in_range", "violations of h",
                        len(violations), "<=", 0)
    monotone["detail"] += "".join(f"; {v}" for v in violations)
    return rows, [
        _verdict("misfit_within_bound", "max misfit / (B h)", np.max(ratios),
                 "<=", cfg["bound_slack"]),
        _verdict("quadrature_matches_closed_form",
                 "max |integral - closed form| / closed form",
                 np.max(mp_gaps), "<=", cfg["mp_tolerance"]),
        _verdict("misfit_decreases_with_capacity", "max inversions per eta0 sweep",
                 np.max(inversions), "<=", 1),
        monotone,
    ], stages


# --- classify ------------------------------------------------------------------


def _task_draw(task: trainer.SyntheticTask, i: int) -> trainer.SyntheticTask:
    """Draw ``i``'s task: ``task`` under a seed derived from its own and ``i``."""
    return dataclasses.replace(
        task, seed=int(np.random.SeedSequence([task.seed, i]).generate_state(1)[0]))


def run_classify(cfg: dict) -> tuple[list[dict], list[dict], dict]:
    """Label-smoothing sweep over losses and alphas; prints the per-cell summary.

    One row per (loss, alpha, repeat).  Each repeat draws its task
    (``_task_draw``) and does once what its cells share, which also pairs
    the loss comparisons: the task's splits, the teacher's one
    ``trainer.train`` call and its pseudo-labels, and the student's
    projection and initial weights.  Each cell smooths the labels its own
    way and trains its student on the raw pseudo split; a repeat's cells
    train in lockstep in one ``trainer.fit_probes`` call from one seed.
    Accuracies are on the repeat's test split and ``param_distance`` is
    the student's ``distance_from_init``.  A repeated loss or alpha would
    write and count a cell twice, so it is a config error.
    """
    loss_names, alphas, repeats = cfg["losses"], cfg["alphas"], cfg["repeats"]
    try:
        if not alphas:
            raise ValueError("alphas must be nonempty")
        if not loss_names:
            raise ValueError("losses must be nonempty")
        if repeats < 1:
            raise ValueError(f"repeats must be at least 1, got {repeats!r}")
        for alpha in alphas:
            losses.check_alpha(alpha)
        unknown = sorted(set(loss_names) - set(trainer.LOSS_NAMES))
        if unknown:
            raise ValueError(f"losses must be among {trainer.LOSS_NAMES}, got {unknown}")
        for name, values in (("losses", loss_names), ("alphas", alphas)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} has repeated values: {list(values)}")
        task = trainer.SyntheticTask(
            dim=cfg["dim"], separation=cfg["separation"], noise=cfg["noise"],
            n_train=cfg["n_train"], n_pseudo=cfg["n_pseudo"], n_test=cfg["n_test"],
            seed=cfg["seed"],
        )
        student_cfg = trainer.ProbeConfig(feature="projection",
                                          width=cfg["student_width"] or 8 * task.dim)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    cells = [(loss_name, alpha) for loss_name in loss_names for alpha in alphas]
    rows: list[dict] = []
    for repeat in range(repeats):
        repeat_task = _task_draw(task, repeat)
        data = repeat_task.sample()
        seq = np.random.SeedSequence([repeat_task.seed, repeat, 0x5EED])
        t_seed, s_seed = [int(s.generate_state(1)[0]) for s in seq.spawn(2)]
        teacher = trainer.LinearProbeModel(task.dim, trainer.ProbeConfig(),
                                           np.random.default_rng(t_seed))
        trainer.train(teacher, trainer.TrainData(
            data.train_x, trainer.labels_to_soft(data.train_y)), "ce", seed=t_seed)
        labels = teacher.predict_proba(data.pseudo_x)
        students = trainer.fit_probes(student_cfg, task.dim, data.pseudo_x, [
            (None, losses.smooth_labels(labels, alpha), loss_name, s_seed)
            for loss_name, alpha in cells])
        teacher_acc = teacher.accuracy(data.test_x, data.test_y)
        rows += [
            {
                "loss": loss_name,
                "alpha": alpha,
                "repeat": repeat,
                "teacher_acc": teacher_acc,
                "student_acc": student.accuracy(data.test_x, data.test_y),
                "param_distance": student.distance_from_init(),
            }
            for (loss_name, alpha), student in zip(cells, students)
        ]
        # freed before the next repeat draws its task
        del data, teacher, labels, students

    # per (loss, alpha) cell, in sorted order, the mean and standard deviation
    # over repeats of student accuracy and parameter distance
    acc_mean = {}
    for loss_name, alpha in sorted(cells):
        group = [r for r in rows if (r["loss"], r["alpha"]) == (loss_name, alpha)]
        accs = np.array([r["student_acc"] for r in group])
        dists = np.array([r["param_distance"] for r in group])
        acc_std, dist_std = ((float(accs.std(ddof=1)), float(dists.std(ddof=1)))
                             if repeats > 1 else (0.0, 0.0))
        acc_mean[loss_name, alpha] = float(accs.mean())
        print(
            f"{loss_name:>5} alpha={alpha:<6g} "
            f"acc={acc_mean[loss_name, alpha]:.3f}+-{acc_std:.3f} "
            f"dist={float(dists.mean()):.2f}+-{dist_std:.2f}"
        )

    verdicts: list[dict] = []
    band = cfg["accuracy_band"]

    stable_alphas = [a for a in cfg["alphas"] if a >= 0.001]
    if "rce" in cfg["losses"] and len(stable_alphas) >= 2:
        means = [acc_mean["rce", a] for a in stable_alphas]
        verdicts.append(_verdict(
            "rce_accuracy_stable", "rce accuracy spread over alphas >= 0.001",
            np.max(means) - np.min(means), "<=", band))
    if "ce" in cfg["losses"] and {0.01, 1.0} <= set(cfg["alphas"]):
        verdicts.append(_verdict(
            "ce_degrades_at_low_alpha", "ce accuracy drop from alpha 1.0 to 0.01",
            acc_mean["ce", 1.0] - acc_mean["ce", 0.01], ">=", band))
    if {"ce", "rce"} <= set(cfg["losses"]) and 1.0 in cfg["alphas"]:
        distance = {(r["loss"], r["repeat"]): r["param_distance"]
                    for r in rows if r["alpha"] == 1.0}
        farther = [distance["rce", rep] >= distance["ce", rep]
                   for rep in range(cfg["repeats"])]
        verdicts.append(_verdict(
            "rce_moves_farther",
            f"rce distance >= ce distance at alpha 1 in {sum(farther)}/{len(farther)} "
            f"repeats, share",
            np.mean(farther), ">", 0.5))
    return rows, verdicts, {}


# --- bias-variance ----------------------------------------------------------------


def run_bias_variance(cfg: dict) -> tuple[list[dict], list[dict], dict]:
    """Split-ensemble bias/variance estimation over disjoint teacher splits.

    Each outer round re-partitions the pools into ``n_splits`` disjoint
    (teacher, pseudo) pairs; every pair trains one teacher-student chain
    plus an ensemble-supervised student whose pseudo-labels are the dual
    mean of all the round's teachers.  Every fit is an independent ce fit
    of its own probe, drawn from the fit's seed, on row indices into the
    task's own splits.  The teachers of all task seeds are built and
    trained in one ``trainer.fit_probes`` call on the task seeds' train
    splits, stacked in seed order; then, one task seed at a time, its
    pseudo and test splits are drawn (``SyntheticTask.splits``) and all
    ``2 * k * n_splits`` students of its rounds train in one more call on
    its ``pseudo_x``.  A student is a projection probe trained in input
    space (``v = P^T w``, stepped through ``M = P^T P``), so it holds no
    chunk-by-width feature matrix, and a task seed's students are dropped
    once their test predictions are taken.

    Its stages record wall time in seconds, as ``"%.3e"`` text: of the one
    teacher call plus each task seed's teacher test predictions
    (``teacher_fit_s``), and, summed over task seeds, of the students'
    pseudo-labels, fits and test predictions (``student_fit_s``) and of the
    estimates (``estimate_s``).  A task seed makes one
    ``harness.bias_variance_estimate`` call per model, on its
    ``(k * n_splits, n_test, 2)`` stack of test predictions against the
    ``(n_test, 2)`` truth rows, and its rows are read off the returned
    columns point by point.
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

    probe_student = trainer.ProbeConfig(feature="projection", width=8 * base_task.dim)
    n_splits = cfg["n_splits"]
    elapsed = dict.fromkeys(("teacher_fit_s", "student_fit_s", "estimate_s"), 0.0)

    def teacher_labels(teachers, chunk_x):
        # each teacher's labels for one pseudo chunk, whose copy is freed on return
        return [t.predict_proba(chunk_x) for t in teachers]

    # per task seed: its task, its split draws and its pairs
    seeds, train_blocks, teacher_fits = [], [], []
    for outer_seed in range(cfg["task_seeds"]):
        task = _task_draw(base_task, outer_seed)
        draws = task.splits()
        train_x, train_y = next(draws)
        rng = np.random.default_rng(np.random.SeedSequence([task.seed, 0xB1A5]))
        # (round, split) pairs in order: teacher rows, pseudo rows and seed
        pairs = []
        for i in range(cfg["k"]):
            train_order = rng.permutation(task.n_train)
            pseudo_order = rng.permutation(task.n_pseudo)
            for j in range(n_splits):
                pairs.append((
                    train_order[j * cfg["split_train"]: (j + 1) * cfg["split_train"]],
                    pseudo_order[j * cfg["split_pseudo"]: (j + 1) * cfg["split_pseudo"]],
                    int(np.random.SeedSequence([task.seed, i, j]).generate_state(1)[0]),
                ))
        teacher_fits += [(outer_seed * task.n_train + idx,
                          trainer.labels_to_soft(train_y[idx]), "ce", seed_ij)
                         for idx, _, seed_ij in pairs]
        train_blocks.append(train_x)
        seeds.append((task, draws, pairs))
    start = time.perf_counter()
    all_teachers = trainer.fit_probes(trainer.ProbeConfig(), task.dim,
                                      np.concatenate(train_blocks), teacher_fits)
    elapsed["teacher_fit_s"] += time.perf_counter() - start
    del train_blocks, teacher_fits, train_x, train_y, draws, pairs

    seeds.reverse()
    for outer_seed in range(cfg["task_seeds"]):
        # popped, so that no later pass holds this seed's draws, pairs or fits
        task, draws, pairs = seeds.pop()
        (pseudo_x, _), (test_x, test_y) = draws
        truth = trainer.labels_to_soft(test_y)
        teachers = all_teachers[outer_seed * len(pairs): (outer_seed + 1) * len(pairs)]
        start = time.perf_counter()
        teacher_runs = [t.predict_proba(test_x) for t in teachers]
        split = time.perf_counter()
        elapsed["teacher_fit_s"] += split - start
        # per pair, its student (its own teacher's labels) and its
        # ensemble-supervised student (the dual mean of its round's
        # teachers' labels), both on the pair's pseudo rows
        fits = []
        for first in range(0, len(pairs), n_splits):
            round_teachers = teachers[first: first + n_splits]
            for j, (_, pidx, seed_ij) in enumerate(pairs[first: first + n_splits]):
                labels = teacher_labels(round_teachers, pseudo_x[pidx])
                fits += [(pidx, labels[j], "ce", seed_ij + 1),
                         (pidx, harness.ensemble_dual_mean(labels), "ce", seed_ij + 2)]
        runs = [s.predict_proba(test_x)
                for s in trainer.fit_probes(probe_student, task.dim, pseudo_x, fits)]
        del draws, pairs, fits
        student_runs, ens_runs = runs[0::2], runs[1::2]
        estimate_start = time.perf_counter()
        elapsed["student_fit_s"] += estimate_start - split

        # per model, one estimate over its (runs, points, 2) test predictions,
        # as (bias, variance, mean_ce) columns of one float per point
        columns = {}
        for label, model_runs in (("teacher", teacher_runs), ("student", student_runs),
                                  ("ens_student", ens_runs)):
            stack = np.stack(model_runs)
            bias, variance = harness.bias_variance_estimate(stack, truth)
            mean_ce = np.mean(losses.ce(truth, stack), axis=0)
            columns[label] = bias.tolist(), variance.tolist(), mean_ce.tolist()
        for point in range(task.n_test):
            for label, (bias, variance, mean_ce) in columns.items():
                rows.append({
                    "task_seed": outer_seed, "point": point, "model": label,
                    "bias": bias[point], "variance": variance[point],
                    "mean_ce": mean_ce[point],
                })
        elapsed["estimate_s"] += time.perf_counter() - estimate_start

    gaps = [abs(r["bias"] + r["variance"] - r["mean_ce"]) for r in rows]
    # rows come in (teacher, student, ens_student) triples, one per point
    variance = np.array([r["variance"] for r in rows]).reshape(-1, 3)
    lower = variance[:, 2] < variance[:, 1]
    return rows, [
        _verdict("bias_variance_identity", "max |bias + variance - mean CE|",
                 np.max(gaps), "<=", cfg["identity_tol"]),
        _verdict("ensemble_reduces_variance",
                 f"ensemble-supervised variance lower on {lower.sum()}/{lower.size} "
                 f"points, share",
                 np.mean(lower), ">", 0.5),
    ], {key: f"{seconds:.3e}" for key, seconds in elapsed.items()}


# --- entry point ---------------------------------------------------------------


# each command's run function, returning (rows, verdicts, stages), and its CSV columns
COMMANDS = {
    "verify": (run_verify, ["scenario", "geometry", "variant", "direction",
                            "lhs", "rhs", "misfit", "epsilon", "slack"]),
    "ridge": (run_ridge, ["d_w", "gamma", "n_ratio", "eta0", "trial",
                          "misfit", "bound", "h", "mp_integral"]),
    "classify": (run_classify, ["loss", "alpha", "repeat", "teacher_acc", "student_acc",
                                "param_distance"]),
    "bias-variance": (run_bias_variance, ["task_seed", "point", "model",
                                          "bias", "variance", "mean_ce"]),
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
    run, columns = COMMANDS[args.command]
    try:
        cfg = load_config(args.command, args.config, args.overrides)
        start = time.perf_counter()
        rows, verdicts, stages = run(cfg)
        for v in verdicts:
            print(f"[{'PASS' if v['passed'] else 'FAIL'}] {v['name']}: {v['detail']}")
        write_outputs(args.out, args.command, cfg, columns, rows, verdicts,
                      time.perf_counter() - start, stages)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0 if all(v["passed"] for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
