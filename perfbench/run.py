"""cidnsim benchmark: one workload, closed loop, one operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  The workload's scenario configs are generated from ``--seed``.
An operation is ``cidnsim run`` of one of them and ``cidnsim verify`` of its
export, each in a fresh child process (cold signature cache, its own peak
RSS from ``os.wait4``); the next starts only when it has ended.  New
operations start while they are expected to finish within ``--seconds``.

Every operation is checked: the exit codes, ``cidnsim verify`` of the export
against its generated config, and the SHA-256 of chain.jsonl and
metrics.csv against the run's other operations on the same config.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, config_json, configs_for, premise_failures  # noqa: E402

CHILD = HERE / "child.py"
# A fixed string-hash seed keeps set and dict layouts, and so their cost,
# the same in every child; the exports do not depend on it.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
MIN_OPS = 4  # operations per run even when one outlasts --seconds
TAIL_BEYOND = 10  # rounds above the tail percentile in the smallest sample

SIM_COUNTS = ("simulation.chain_height", "node.blocks_proposed", "node.leaves_final")
# A simulation never imports or verifies a chain: these come from the verify
# children only, as verify.<name>.
VERIFY_ONLY = ("chain.import_s", "cli.verify_s")
# Layer metrics of the traced verify of each export, reported as verify.<name>:
# the single-replica read path, with a cold signature cache.
VERIFY_LAYERS = (
    "encoding.bytes", "encoding.self_s", "consensus.validate_calls",
    "consensus.validate_per_block", "consensus.validate_s", "chain.extended_s",
    "chain.import_s", "keys.verify_calls", "keys.verify_distinct_ratio",
    "keys.verify_s", "cli.verify_s",
)


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares as ``kind``
    (end_to_end or per_layer); a run must report exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def is_timing(name: str) -> bool:
    return name.endswith("_s")


class Child:
    """Outcome of one child process."""

    def __init__(self, exit_code: int, rss_mb: float, result: dict | None):
        self.exit_code = exit_code
        self.rss_mb = rss_mb
        self.result = result or {}

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.result.get("exit") == 0


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.configs = configs_for(workload, seed)
        # a traced run compares operations, so it repeats the first instance
        self.cycle = 1 if trace else len(self.configs)
        self.config_paths = []
        for j, config in enumerate(self.configs[: self.cycle]):
            path = work / f"config{j}.json"
            path.write_text(config_json(config), encoding="utf-8")
            self.config_paths.append(str(path))
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []  # run-level: premise, hooks, repeatability
        self.exports: dict[int, dict] = {}  # instance -> facts of its first export
        # untraced results by instance: simulations and the verifies of their exports
        self.primary: dict[int, list[Child]] = defaultdict(list)
        self.verifies: dict[int, list[dict]] = defaultdict(list)
        self.traced: list[tuple[Child, Child]] = []  # (simulation, verify)

    # -- child processes --------------------------------------------------

    def spawn(self, args: list[str], name: str) -> Child:
        result_path = self.work / f"{name}.json"
        log_path = self.work / f"{name}.log"
        spawned = time.monotonic()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), *args, "--spawned", repr(spawned),
                 "--result", str(result_path)],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=CHILD_ENV,
            )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = None
        if result_path.exists():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        return Child(proc.returncode, usage.ru_maxrss / 1024.0, result)

    def operation(self, k: int, instance: int, traced: bool) -> None:
        """``cidnsim run`` of an instance plus ``cidnsim verify`` of its
        export, each in its own child."""
        name = f"op{k}"
        self.attempted += 1
        out = self.work / name
        config = self.config_paths[instance]
        trace = ["--trace"] if traced else []
        sim = self.spawn(["sim", "--config", config, "--out", str(out)] + trace, name)
        failure = None
        if not sim.ok:
            failure = f"cidnsim run exited {sim.exit_code}/{sim.result.get('exit')}"
        else:
            chain = out / "chain.jsonl"
            digests = (sha256(chain), sha256(out / "metrics.csv"))
            if instance not in self.exports:
                self.first_export(instance, out, sim, digests)
            verify = self.spawn(["verify", "--config", config, "--chain", str(chain)] + trace,
                                name + "-verify")
            if not (verify.ok and verify.result.get("verified")):
                failure = "export fails cidnsim verify"
            elif digests != self.exports[instance]["digests"]:
                failure = "export digests differ from the instance's first operation"
        shutil.rmtree(out, ignore_errors=True)
        if failure:
            self.failures.append(f"{name}: {failure}")
        elif traced:
            for child in (sim, verify):
                if child.result["missing_hooks"]:
                    self.problems.append(
                        f"{name}: hooks never fired: {child.result['missing_hooks']}")
            self.traced.append((sim, verify))
        else:
            self.primary[instance].append(sim)
            self.verifies[instance].append(verify.result)

    def first_export(self, instance: int, out: Path, sim: Child,
                     digests: tuple[str, str]) -> None:
        rows = read_rows(out / "metrics.csv")
        last = rows[-1]
        self.exports[instance] = {
            "digests": digests,
            "counts": {
                "simulation.chain_height": int(last["chain_height"]),
                "node.blocks_proposed": sum(int(r["blocks_proposed"]) for r in rows),
                "node.leaves_final": int(last["open_forks"]),
                "invalid_blocks": int(last["invalid_blocks"]),
            },
            "shape": {
                "rows": rows,
                "mining_attempts": sim.result["mining_attempts"],
                "blocks_mined": sim.result["blocks_mined"],
            },
        }

    # -- the closed loop --------------------------------------------------

    def run(self) -> None:
        durations: dict[bool, list[float]] = {False: [], True: []}
        window_start = time.monotonic()
        k = 0
        while True:
            traced = self.trace and k % 2 == 1
            past = durations[traced] or durations[not traced] or [0.0]
            expected = statistics.median(past)
            now = time.monotonic()
            if k >= MIN_OPS and now - window_start + expected > self.seconds:
                break
            if now + 1.5 * expected > self.deadline:
                break
            self.operation(k, k % self.cycle, traced)
            durations[traced].append(time.monotonic() - now)
            k += 1
        if len(self.exports) == self.cycle:
            self.problems += premise_failures(
                self.workload, self.configs[0],
                [e["shape"] for _, e in sorted(self.exports.items())])

    # -- aggregation ------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """Pooled over every untraced operation of the run: the instances take
        turns, so each contributes an equal share (within one operation)."""
        if not self.primary:
            return {}
        children = [c for cs in self.primary.values() for c in cs]
        sims = [c.result for c in children]
        verifies = [v for vs in self.verifies.values() for v in vs]
        rounds = sorted(t for r in sims for t in r["round_s"])
        return {
            "setup_s": statistics.median(r["setup_s"] for r in sims),
            "wall_s": statistics.fmean(r["wall_s"] for r in sims),
            "sim_rounds_per_s": len(rounds) / sum(r["run_s"] for r in sims),
            "round_ms_p50": statistics.median(rounds) * 1e3,
            "round_ms_tail": percentile(rounds, self.tail_percentile()) * 1e3,
            "verify_blocks_per_s": (sum(v["blocks"] - 1 for v in verifies)
                                    / sum(v["verify_s"] for v in verifies)),
            "peak_rss_mb": statistics.fmean(c.rss_mb for c in children),
        }

    def tail_percentile(self) -> float:
        """The highest percentile with TAIL_BEYOND rounds above it in the
        smallest pool of rounds a run can have, that of MIN_OPS simulations."""
        n = self.configs[0]["rounds"] * MIN_OPS
        return 100.0 * (n - TAIL_BEYOND) / n

    def per_layer(self) -> dict[str, float]:
        if not self.traced:
            return {}
        m: dict[str, float] = {}
        runs = [{k: v for k, v in sim.result["layers"].items() if k not in VERIFY_ONLY}
                for sim, _ in self.traced]
        verifies = [{f"verify.{k}": v[k] for k in VERIFY_LAYERS}
                    for v in (verify.result["layers"] for _, verify in self.traced)]
        for layers in (runs, verifies):
            for name in layers[0]:
                values = [lay[name] for lay in layers]
                if is_timing(name):
                    m[name] = statistics.median(values)
                else:
                    if any(v != values[0] for v in values):
                        self.problems.append(
                            f"{name} differs between traced operations: {values}")
                    m[name] = values[0]
        counts = self.exports[0]["counts"] if 0 in self.exports else {}
        for name in SIM_COUNTS:
            m[name] = counts.get(name, 0)
        if self.primary.get(0):
            m["trace.overhead_ratio"] = (
                statistics.median(sim.result["wall_s"] for sim, _ in self.traced)
                / statistics.median(c.result["wall_s"] for c in self.primary[0]))
        return m

    def report(self) -> dict:
        metrics = self.per_layer() if self.trace else self.end_to_end()
        units = declared_units("per_layer" if self.trace else "end_to_end")
        if metrics and set(metrics) != set(units):
            self.problems.append(
                f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
                f"undeclared {sorted(set(metrics) - set(units))}")
        lines = [
            f"workload {self.workload} seed {self.seed} trace {int(self.trace)}: "
            f"{self.attempted} operations, {len(self.failures)} failed",
        ]
        lines += [f"  FAILED {f}" for f in self.failures]
        lines += [f"  PROBLEM {p}" for p in self.problems]
        for j, export in sorted(self.exports.items()):
            lines.append(f"  instance {j} rng_seed {self.configs[j]['rng_seed']}:")
            lines.append(f"    chain.jsonl sha256 {export['digests'][0]}")
            lines.append(f"    metrics.csv sha256 {export['digests'][1]}")
            lines += [f"    simulated {name} = {value}"
                      for name, value in export["counts"].items()]
        if self.primary:
            sims = [c.result for cs in self.primary.values() for c in cs]
            n = sum(len(r["round_s"]) for r in sims)
            lines.append(f"  round_ms_tail is p{self.tail_percentile():.1f} of {n} rounds "
                         f"from {len(sims)} simulations")
        for name, value in metrics.items():
            lines.append(f"  {name} = {value} {units.get(name, '(undeclared)')}")
        for line in lines:
            print(line)
        return {
            "correct": bool(metrics) and not self.failures and not self.problems,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items() if name in units
            },
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cidnsim" / "cli.py").is_file():
        print(f"no cidnsim sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace), work)
        runner.run()
        result = runner.report()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
