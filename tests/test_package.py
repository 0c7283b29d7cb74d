"""Package-level behaviors: every exported name resolves, and
``python -m w2slab`` runs the command line."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import w2slab

MODULES = ["w2slab", "w2slab.bregman", "w2slab.losses", "w2slab.ridge",
           "w2slab.harness", "w2slab.trainer", "w2slab.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_python_dash_m_runs_a_tiny_verify(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "W2SLAB_SEED"}
    src = str(Path(w2slab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = [sys.executable, "-m", "w2slab", "verify", "--out", str(tmp_path),
            "--set", "scenarios=3", "--set", "pairs=100", "--set", "triples=20"]
    done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "verify.csv").is_file()
