"""One measured ``w2slab.cli.main`` invocation in a fresh interpreter.

Run by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It times
``import w2slab.cli`` plus config parsing (set-up), then the
``main([<command>, --out, <dir>, --set, seed=<s>])`` call (wall and process
CPU time), optionally under the layer tracer.  The
measurements go to the JSON file named by ``--result``; the CLI's own
output is left on stdout for the parent to keep or drop.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--command", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="CLI output directory")
    parser.add_argument("--result", required=True, help="JSON file for the measurements")
    parser.add_argument("--set", dest="overrides", action="append", default=[])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--manifest", action="store_true", help="also record library versions")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """This interpreter's own peak resident set (Linux).

    ``getrusage``'s ``ru_maxrss`` is not used: it keeps the high-water mark
    of the image replaced by exec, which after a vfork spawn is the parent's.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def manifest() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    overrides = [f"seed={args.seed}", *args.overrides]
    result: dict = {}

    start = time.perf_counter()
    import w2slab
    import w2slab.cli as cli
    cli.load_config(args.command, None, overrides)
    result["setup_s"] = time.perf_counter() - start

    # an installed copy elsewhere must not stand in for the checkout's code
    package_dir = Path(w2slab.__file__).resolve().parent
    if package_dir.parent != SRC:
        raise SystemExit(f"imported w2slab from {package_dir}, not from {SRC}")

    tracer = None
    if args.trace:
        import tracer as tracing  # perfbench/ is sys.path[0]

        tracer = tracing.Tracer()
        tracing.install(tracer, w2slab)
    argv_cli = [args.command, "--out", args.out]
    for item in overrides:
        argv_cli += ["--set", item]
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        result["exit_code"] = cli.main(argv_cli)
    except (Exception, SystemExit):
        result["exit_code"] = None
        result["error"] = traceback.format_exc(limit=-3)
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracing.layer_metrics(tracer)

    result["peak_rss_mb"] = peak_rss_mb()
    if args.manifest:
        result["manifest"] = manifest()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
