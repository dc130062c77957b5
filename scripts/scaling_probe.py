#!/usr/bin/env python3
"""Scaling probe: the cost of a run as the node count and run length grow.

Runs the ``baseline_honest`` scenario with its node list replaced by N copies
of its first (honest) node and its ``rounds`` replaced, and prints one line:
the wall time of ``Simulation.run`` alone, the peak RSS of the whole process
(``ru_maxrss``), the block-store entries, and the leaves of the first node's
block tree.  Run each size in a fresh process, since peak RSS never falls.

Usage: python scripts/scaling_probe.py --nodes 6 --rounds 640
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from cidnsim.config import config_from_dict
from cidnsim.simulation import Simulation

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "baseline_honest.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    args = ap.parse_args()

    scenario = json.loads(SCENARIO.read_text())
    sim = Simulation(config_from_dict(
        {**scenario, "rounds": args.rounds, "nodes": [scenario["nodes"][0]] * args.nodes}
    ))
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(
        f"nodes={args.nodes} rounds={args.rounds} wall_s={wall:.3f} "
        f"peak_rss_mb={peak_mb:.1f} store={len(sim.ctx.block_store._entries)} "
        f"leaves={len(sim.nodes[0]._leaves)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
