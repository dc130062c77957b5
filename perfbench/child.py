"""One benchmark operation, run in a fresh interpreter.

    python3 perfbench/child.py sim    --config C --out DIR --spawned T --result R [--trace]
    python3 perfbench/child.py verify --config C --chain F --spawned T --result R [--trace]

``sim`` is ``cidnsim run`` (simulation plus export of chain.jsonl,
metrics.csv and result.json); ``verify`` is ``cidnsim verify``.  Both go
through ``cidnsim.cli.main``.  ``--spawned`` is the parent's CLOCK_MONOTONIC
reading just before it started this process, so set-up time includes
interpreter start and imports.  The timings, and with ``--trace`` the
per-layer metrics, are written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _run_sim(cli, args: argparse.Namespace, marks: dict) -> int:
    class TimedSimulation(cli.Simulation):
        def __init__(self, config):
            super().__init__(config)
            marks["ready"] = time.monotonic()

        def run(self, *args, **kwargs):
            ends: list[float] = []
            start = time.perf_counter()
            result = super().run(
                *args, round_hook=lambda sim, rnd: ends.append(time.perf_counter()), **kwargs)
            marks["run_s"] = time.perf_counter() - start
            marks["round_s"] = [end - prev for prev, end in zip([start] + ends, ends)]
            marks["mining_attempts"] = sum(n.mining_attempts for n in self.nodes)
            marks["blocks_mined"] = sum(n.blocks_mined for n in self.nodes)
            return result

    cli.Simulation = TimedSimulation
    return cli.main(["run", "--config", args.config, "--out", args.out])


def _run_verify(cli, args: argparse.Namespace, marks: dict) -> int:
    verify_chain = cli.verify_chain

    def timed(chain_path, config):
        marks["ready"] = time.monotonic()
        start = time.perf_counter()
        ok, report = verify_chain(chain_path, config)
        marks["verify_s"] = time.perf_counter() - start
        marks["verified"] = ok
        marks["blocks"] = report.get("blocks", 0)
        return ok, report

    cli.verify_chain = timed
    return cli.main(["verify", "--chain", args.chain, "--config", args.config])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("sim", "verify"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--chain")
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from cidnsim import cli

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    marks: dict = {}
    run = _run_sim if args.mode == "sim" else _run_verify
    code = run(cli, args, marks)
    end = time.monotonic()
    out = {"exit": code}
    if "ready" in marks:
        out.update(marks, setup_s=marks["ready"] - args.spawned, wall_s=end - marks["ready"])
        del out["ready"]
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["missing_hooks"] = tracer.missing(args.mode)
    tmp = args.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    os.replace(tmp, args.result)
    return code


if __name__ == "__main__":
    sys.exit(main())
