"""Package-level checks: the public names of every module, the runnable
scripts under ``scripts/``, and what ``run`` and ``verify`` import."""

import importlib
import json
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


def test_run_and_verify_load_no_report_only_modules(tmp_path):
    """``run`` and ``verify`` import neither ``cidnsim.experiments``, which
    only ``report`` needs, nor scipy or numpy: each import is start-up time
    that every run would pay."""
    scenario = json.loads((ROOT / "scenarios" / "baseline_honest.json").read_text())
    config = tmp_path / "short.json"
    config.write_text(json.dumps({**scenario, "rounds": 5}))
    out = tmp_path / "out"
    code = "\n".join([
        "import sys",
        "from cidnsim.cli import main",
        f"assert main(['run', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0",
        f"assert main(['verify', '--chain', {str(out / 'chain.jsonl')!r},"
        f" '--config', {str(config)!r}]) == 0",
        "print([m for m in ('cidnsim.experiments', 'scipy', 'numpy') if m in sys.modules])",
    ])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
