"""Package-level behaviors: every exported name resolves, ``python -m
w2slab`` runs the command line, ``ridge`` leaves ``scipy.integrate``
unimported, and no command imports scipy at all."""

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


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "W2SLAB_SEED"}
    src = str(Path(w2slab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_runs_a_tiny_verify(tmp_path):
    args = [sys.executable, "-m", "w2slab", "verify", "--out", str(tmp_path),
            "--set", "scenarios=3", "--set", "pairs=100", "--set", "triples=20"]
    done = subprocess.run(args, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "verify.csv").is_file()


def test_ridge_never_imports_scipy_integrate(tmp_path):
    # importing it costs about 0.35 s and 25 MB in every ridge run
    script = (
        "import sys\n"
        "from w2slab import cli\n"
        f"code = cli.main(['ridge', '--out', {str(tmp_path)!r}, '--set', 'd_w=20',\n"
        "                 '--set', 'trials=2', '--set', 'n_ratio=3'])\n"
        "assert code in (0, 1), code\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "ridge.csv").is_file()


def test_no_command_imports_scipy(tmp_path):
    # scipy.special alone cost about 0.3 s and 19 MB in every command's start-up
    tiny = {
        "verify": ["scenarios=3", "pairs=100", "triples=20"],
        "ridge": ["d_w=20", "trials=2", "n_ratio=3"],
        "classify": ["losses=ce,rce", "alphas=0.01,1", "repeats=1", "dim=20",
                     "n_pseudo=256", "n_test=100"],
        "bias-variance": ["task_seeds=1", "k=1", "n_splits=2", "n_test=20",
                          "split_pseudo=128", "dim=20"],
    }
    script = (
        "import sys\n"
        "from w2slab import cli\n"
        "print('numpy.random' in sys.modules)\n"
        f"for command, items in {tiny!r}.items():\n"
        f"    args = [command, '--out', {str(tmp_path)!r}]\n"
        "    for item in items:\n"
        "        args += ['--set', item]\n"
        "    code = cli.main(args)\n"
        "    assert code in (0, 1), (command, code)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "True"  # numpy.random is loaded with the package
    assert lines[-1] == "[]"
    for name in ("verify", "ridge", "classify", "bias_variance"):
        assert (tmp_path / f"{name}.csv").is_file()
