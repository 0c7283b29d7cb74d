"""Benchmark of the w2slab CLI suites.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload verify --seed 0 --seconds 15 --trace 0

Each workload is one CLI subcommand at its default config with
``--set seed=<seed>``.  Invocations run closed loop, one at a time, each in a
fresh child interpreter (``child.py``) with the checkout's ``src`` on
``PYTHONPATH``, BLAS pinned to one thread and ``W2SLAB_SEED`` removed from
the environment.  Another invocation starts while at least half of it,
judged by the previous one, fits in ``--seconds``; at least one runs.

``--trace 0`` reports the end-to-end metrics as medians over the run's
invocations: ``wall_s`` (the ``main`` call), ``cpu_s`` (its user+sys CPU),
``setup_s`` (``import w2slab.cli`` plus config parsing) and ``peak_rss_mb``.
``--trace 1`` runs untraced invocations for half the time, then one
invocation under the layer tracer (``tracer.py``), and reports its
per-layer metrics plus ``trace_overhead_s`` (traced wall minus the untraced
median).

Every invocation is checked: no exception, the echoed config carries the
requested seed, the CSV has the row count its config implies and agrees with
a recomputation from its rows (for ``ridge``, with one trial per cell redone
in this process by a direct ridge solve), and its sha256 equals that of the
run's first invocation (the traced one included).  Each identity verdict in
``<cmd>.json`` must pass.  Each trend verdict (a statistical finding of the
experiment, which may honestly fail on some seeds: ``rce_accuracy_stable``
fails at seed 1351885202 with a spread of 0.054 against a band of 0.05) is
recomputed from the CSV rows and must equal the reported one, PASS or FAIL.
The exit status must be 0 when every verdict passed and 1 otherwise.  An
invocation failing any check counts in ``failed``; trend FAILs are printed.
The last stdout line is the result JSON; a manifest line and one line per
invocation precede it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
# every run must end within 180 s; no child may start past this budget
HARD_LIMIT_S = 165.0
EXIT_MEANING = {1: "a verdict failed", 2: "config or program error"}


# --- checks that recompute a verdict or invariant from the CSV rows -------------


def _floats(rows, column):
    return [float(r[column]) for r in rows]


# Each recheck returns (problems, trend verdicts recomputed from the rows as
# {name: passed}); the recomputations mirror the CLI's, row order included.


def recheck_verify(rows, cfg):
    problems = []
    for r in rows:
        lhs, rhs, slack = float(r["lhs"]), float(r["rhs"]), float(r["slack"])
        if abs(slack - (rhs - lhs)) > 1e-12 * max(1.0, abs(lhs), abs(rhs)):
            problems.append(f"slack != rhs - lhs in scenario {r['scenario']}")
            break
    if rows and min(_floats(rows, "slack")) < -cfg["tol_slack"]:
        problems.append("risk-gap slack below tolerance")
    return problems, {}


@functools.lru_cache(maxsize=None)
def direct_misfit(seed, d_w, n_ratio, B, eta0, gamma, trial):
    """One ridge trial's misfit, solved on A = W1 X rather than the Gram form."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from w2slab import ridge

    cfg = ridge.RidgeConfig(d_w=d_w, gamma=gamma, n_ratio=n_ratio, eta0=eta0, B=B, seed=seed)
    rng = ridge._trial_rng(cfg, trial)
    # the same draws, in the same order, as ridge.run_trial
    W = rng.normal(0.0, math.sqrt(cfg.teacher_scale), size=d_w)
    W1 = rng.normal(0.0, math.sqrt(1.0 / d_w), size=(cfg.d_s, d_w))
    X = rng.normal(0.0, math.sqrt(1.0 / d_w), size=(d_w, cfg.n))
    w2 = ridge.ridge_solve(W1 @ X, X.T @ W, cfg.eta)
    direction = W1.T @ w2 - W
    return float(direction @ direction / d_w)


def recheck_ridge(rows, cfg):
    cells: dict[tuple, dict] = {}
    for r in rows:
        cells.setdefault((float(r["eta0"]), float(r["gamma"])), r)
    problems = []
    for (eta0, gamma), first in cells.items():
        if abs(float(first["mp_integral"]) - float(first["h"])) > cfg["mp_tolerance"]:
            problems.append(f"quadrature off closed form at eta0={eta0} gamma={gamma}")
        expected = direct_misfit(cfg["seed"], cfg["d_w"], cfg["n_ratio"], cfg["B"],
                                 eta0, gamma, int(first["trial"]))
        if abs(float(first["misfit"]) - expected) > 1e-8 * expected:
            problems.append(f"trial misfit {first['misfit']} at eta0={eta0} gamma={gamma} "
                            f"is not the direct solve's {expected!r}")
    means = {cell: float(np.mean([float(r["misfit"]) for r in rows
                                  if (float(r["eta0"]), float(r["gamma"])) == cell]))
             for cell in cells}
    gammas = sorted(cfg["gammas"])
    decreasing = True
    for eta0 in cfg["eta0s"]:
        seq = [means[(eta0, g)] for g in gammas]
        decreasing &= sum(b > a for a, b in zip(seq, seq[1:])) <= 1
    return problems, {"misfit_decreases_with_capacity": decreasing}


def recheck_classify(rows, cfg):
    for r in rows:
        accs = (float(r["teacher_acc"]), float(r["student_acc"]))
        dist = float(r["param_distance"])
        if not (all(0.0 <= a <= 1.0 for a in accs) and math.isfinite(dist) and dist >= 0):
            return [f"row out of range: {r}"], {}
    band, alphas, losses = cfg["accuracy_band"], cfg["alphas"], cfg["losses"]

    def cell_mean(loss, alpha):
        return float(np.mean([float(r["student_acc"]) for r in rows
                              if r["loss"] == loss and float(r["alpha"]) == alpha]))

    trends = {}
    stable = [a for a in alphas if a >= 0.001]
    if "rce" in losses and len(stable) >= 2:
        means = [cell_mean("rce", a) for a in stable]
        trends["rce_accuracy_stable"] = max(means) - min(means) <= band
    if "ce" in losses and {0.01, 1.0} <= set(alphas):
        trends["ce_degrades_at_low_alpha"] = cell_mean("ce", 1.0) - cell_mean("ce", 0.01) >= band
    if {"ce", "rce"} <= set(losses) and 1.0 in alphas:
        votes = total = 0
        for rep in range(cfg["repeats"]):
            pair = {r["loss"]: float(r["param_distance"]) for r in rows
                    if float(r["alpha"]) == 1.0 and int(r["repeat"]) == rep
                    and r["loss"] in ("ce", "rce")}
            if len(pair) == 2:
                total += 1
                votes += pair["rce"] >= pair["ce"]
        trends["rce_moves_farther"] = votes * 2 > total
    return [], trends


def recheck_bias_variance(rows, cfg):
    variance: dict[tuple, dict] = {}
    for r in rows:
        gap = float(r["bias"]) + float(r["variance"]) - float(r["mean_ce"])
        if not abs(gap) <= cfg["identity_tol"]:
            return [f"bias + variance != mean CE at point {r['point']} ({r['model']})"], {}
        variance.setdefault((r["task_seed"], r["point"]), {})[r["model"]] = float(r["variance"])
    wins = sum(v["ens_student"] < v["student"] for v in variance.values())
    return [], {"ensemble_reduces_variance": wins * 2 > len(variance)}


# why each workload is here is recorded in BENCHMARK.json
WORKLOADS = {
    "verify": (lambda c: 8 * c["scenarios"], recheck_verify),
    "ridge": (lambda c: len(c["gammas"]) * len(c["eta0s"]) * c["trials"], recheck_ridge),
    "classify": (lambda c: len(c["losses"]) * len(c["alphas"]) * c["repeats"],
                 recheck_classify),
    "bias-variance": (lambda c: 3 * c["task_seeds"] * c["n_test"], recheck_bias_variance),
}


def check_outputs(workload: str, seed: int, out: Path, inv: dict) -> list[str]:
    """Problems with one invocation's outputs; also records digest and sizes."""
    stem = workload.replace("-", "_")
    csv_path, json_path = out / f"{stem}.csv", out / f"{stem}.json"
    code = inv.get("exit_code")
    if not (csv_path.is_file() and json_path.is_file()):
        return [f"outputs missing (exit {code})"]
    data = csv_path.read_bytes()
    inv["sha256"] = hashlib.sha256(data).hexdigest()
    inv["csv_bytes"] = len(data)
    text = json_path.read_text()
    report = json.loads(text)
    # the digits of the report's own timing vary run to run; the rest must not
    inv["json_bytes"] = len(text.encode()) - len(json.dumps(report.get("duration_seconds")))
    verdicts = inv["verdicts"] = {v["name"]: v["passed"] for v in report["verdicts"]}
    problems = []
    if code != (0 if all(verdicts.values()) else 1):
        problems.append(f"exit {code} ({EXIT_MEANING.get(code, 'raised')}) "
                        f"with {sum(not ok for ok in verdicts.values())} verdicts FAIL")
    cfg = report["config"]
    if cfg.get("seed") != seed:
        problems.append(f"ran with seed {cfg.get('seed')}, not {seed}")
    rows = list(csv.DictReader(data.decode().splitlines()))
    expected_rows, recheck = WORKLOADS[workload]
    if len(rows) != expected_rows(cfg) or len(report["rows"]) != len(rows):
        problems.append(f"{len(rows)} CSV rows, {len(report['rows'])} JSON rows, "
                        f"expected {expected_rows(cfg)}")
    recheck_problems, trends = recheck(rows, cfg)
    problems += [f"verdict {name} missing" for name in trends if name not in verdicts]
    for name, ok in verdicts.items():
        if name not in trends:
            if not ok:
                problems.append(f"verdict {name} FAIL")
        elif ok != trends[name]:
            problems.append(f"verdict {name} reads {ok}, its rows give {trends[name]}")
    inv["trend_fails"] = sorted(n for n in trends if n in verdicts and not verdicts[n])
    return problems + recheck_problems


# --- child processes ------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    # an inherited W2SLAB_SEED would override --set seed= inside load_config
    env.pop("W2SLAB_SEED", None)
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


class Runner:
    """Starts the children of one run and keeps their records."""

    def __init__(self, workload: str, seed: int, overrides=()) -> None:
        self.workload, self.seed, self.overrides = workload, seed, list(overrides)
        self.start = time.perf_counter()
        self.work = ROOT / ".perfbench_out" / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.count = 0
        self.invocations: list[dict] = []
        self.manifest: dict = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def _child(self, flags: list[str]) -> tuple[dict, Path, str]:
        self.count += 1
        out = self.work / str(self.count)
        result = self.work / f"{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--command", self.workload,
               "--seed", str(self.seed), "--out", str(out), "--result", str(result), *flags]
        for item in self.overrides:
            cmd += ["--set", item]
        timeout = HARD_LIMIT_S - self.elapsed()
        if timeout <= 0:
            return {}, out, "run out of time before the child started"
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {}, out, f"killed after {timeout:.0f} s"
        if proc.returncode != 0 or not result.is_file():
            return {}, out, f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
        return json.loads(result.read_text()), out, ""

    def invoke(self, trace: bool = False) -> dict:
        flags = ["--trace"] if trace else []
        if not self.invocations:
            flags.append("--manifest")
        rec, out, error = self._child(flags)
        self.manifest.update(rec.pop("manifest", {}))
        inv = {"trace": trace, **rec}
        problems = [error] if error else []
        if "error" in rec:
            problems.append(rec["error"].strip().splitlines()[-1])
        if rec:
            try:
                problems += check_outputs(self.workload, self.seed, out, inv)
            except (ValueError, KeyError, TypeError) as err:
                problems.append(f"malformed outputs: {err!r}")
        if "sha256" in inv and self.invocations and "sha256" in self.invocations[0]:
            if inv["sha256"] != self.invocations[0]["sha256"]:
                problems.append("CSV differs from the first invocation of this seed")
        inv["problems"] = problems
        self.invocations.append(inv)
        print(describe(self.workload, len(self.invocations), inv), flush=True)
        return inv

    def invoke_for(self, seconds: float) -> None:
        started = time.perf_counter()
        while True:
            before = time.perf_counter()
            self.invoke()
            now = time.perf_counter()
            # start another only if half of it, judged by the last, still fits:
            # keeps the count of long invocations steady as machine speed drifts
            if now - started + (now - before) / 2 >= seconds or self.elapsed() >= HARD_LIMIT_S:
                return

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def describe(workload: str, index: int, inv: dict) -> str:
    parts = [f"{workload} #{index}{' traced' if inv['trace'] else ''}"]
    for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
        if key in inv:
            parts.append(f"{key}={inv[key]:.4f}{unit}")
    parts.append(f"sha256={inv.get('sha256', '-')[:12]}")
    if inv.get("trend_fails"):
        parts.append("trend FAIL: " + ",".join(inv["trend_fails"]))
    parts.append("ok" if not inv["problems"] else "FAILED: " + "; ".join(inv["problems"]))
    return " ".join(parts)


# --- the run ------------------------------------------------------------------


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summary(name: str, values: list[float], unit: str) -> str:
    return (f"{name}: median {statistics.median(values):.4f} {unit} "
            f"(min {min(values):.4f}, max {max(values):.4f}, n={len(values)})")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 overrides=()) -> dict:
    """Run one workload and return the result object (see module docstring)."""
    runner = Runner(workload, seed, overrides)
    try:
        if trace:
            runner.invoke_for(seconds / 2)
            traced = runner.invoke(trace=True)
        else:
            runner.invoke_for(seconds)
    finally:
        runner.close()

    invs = runner.invocations
    untraced = [i for i in invs if not i["trace"] and "wall_s" in i]
    if not untraced:
        raise RuntimeError("no invocation was measured")
    failed = sum(1 for i in invs if i["problems"])
    manifest = {
        "workload": workload, "seed": seed, "overrides": list(overrides),
        "nproc": os.cpu_count(), **runner.manifest,
        "blas_threads": BLAS_THREADS, "commit": git_commit(),
        "csv_sha256": invs[0].get("sha256"), "verdicts": invs[0].get("verdicts"),
    }
    print("manifest: " + json.dumps(manifest))

    walls = [i["wall_s"] for i in untraced]
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced.get("layers", {}).items()}
        for key in ("csv_bytes", "json_bytes"):
            metrics[f"cli.{key}"] = {"value": traced.get(key, 0), "unit": "bytes"}
        overhead = traced.get("wall_s", math.nan) - statistics.median(walls)
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        series = {
            "wall_s": (walls, "s"),
            "cpu_s": ([i["cpu_s"] for i in untraced], "s"),
            "setup_s": ([i["setup_s"] for i in untraced], "s"),
            "peak_rss_mb": ([i["peak_rss_mb"] for i in untraced], "MB"),
        }
        metrics = {}
        for name, (values, unit) in series.items():
            print(summary(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    trend_fails = sum(1 for i in invs if i.get("trend_fails"))
    print(f"attempted {len(invs)} failed {failed} fail_ratio {failed / len(invs):.4f} "
          f"with trend FAIL {trend_fails}")
    return {"correct": failed == 0, "attempted": len(invs), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="w2slab CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seconds <= 60:
        parser.error("--seconds must lie in [0, 60]")
    if not (SRC / "w2slab" / "cli.py").is_file():
        print(f"error: no w2slab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
