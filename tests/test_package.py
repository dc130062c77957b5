"""Package-level checks: the public names of every module, and the runnable
scripts under ``scripts/``."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cidnsim

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(cidnsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_module_all_resolves(name):
    """A stale ``__all__`` entry breaks ``from cidnsim.<module> import *``
    and every caller that looks the exported names up one by one."""
    module = importlib.import_module(f"cidnsim.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize(
    "script,args",
    [
        ("fork_experiment.py", ["--trials", "5"]),
        ("fairness_experiment.py", ["--nodes", "5", "--rounds", "50", "--seeds", "1"]),
        ("run_scenario.py", [str(ROOT / "scenarios" / "baseline_honest.json")]),
    ],
)
def test_script_runs_to_completion(script, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
