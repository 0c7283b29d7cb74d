"""Run-to-run spread of the benchmark over several seeds.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload verify

Runs ``run.py`` once per seed 0 to 9 with ``run_seconds`` from
``BENCHMARK.json`` and prints, per end-to-end metric, the median of the
run values, their quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median beside the metric's bound.  A spread above a third
of its bound is flagged: such a metric cannot resolve a change of the size
of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0
    for workload in args.workload:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(SEEDS):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                worst = max(worst, 2)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={result['metrics'][k]['value']:.4f}" for k in bounds), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            worst = max(worst, 1 if flag else 0)
            print(f"{workload} {name}: median {statistics.median(vals):.4f} q1 {q1:.4f} "
                  f"q3 {q3:.4f} spread {spread:.4f} (bound {bounds[name]}){flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
