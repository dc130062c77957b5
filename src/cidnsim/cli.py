"""Scenario runner CLI: ``run``, ``verify``, and ``report`` subcommands.

Exit codes: 0 success, 1 config error, 2 IO error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from .chain import Chain, genesis_block, hash_block, import_chain
from .config import ConfigError, SimConfig, load_config
from .consensus import validate_block
from .simulation import Simulation, membership
from . import chain as chain_mod

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VERIFY = 3

BASE_COLUMNS = [
    "round",
    "blocks_proposed",
    "chain_height",
    "open_forks",
    "invalid_blocks",
    "blacklist_precision",
    "blacklist_recall",
]


def _run_one(config: SimConfig, out_dir: str, verbose: bool) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    events_path = os.path.join(out_dir, "events.jsonl")
    sink_fh = open(events_path, "w", encoding="utf-8") if verbose else None

    def sink(event: dict) -> None:
        sink_fh.write(json.dumps(event, sort_keys=True) + "\n")

    try:
        result = Simulation(config).run(verbose=verbose, event_sink=sink)
    finally:
        if sink_fh is not None:
            sink_fh.close()

    chain_path = os.path.join(out_dir, "chain.jsonl")
    chain_mod.export_chain(result.chain, result.registry, chain_path)

    metrics_path = os.path.join(out_dir, "metrics.csv")
    extra = sorted({k for row in result.rounds for k in row} - set(BASE_COLUMNS))
    columns = BASE_COLUMNS + extra
    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        for row in result.rounds:
            writer.writerow(row)

    summary = {
        "rounds": len(result.rounds),
        "chain_height": result.chain.height,
        "leader_counts": result.leader_counts,
        "node_summaries": result.node_summaries,
        "chain_path": chain_path,
        "wall_time": result.wall_time,
        "rng_seed": config.rng_seed,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, rng_seed=args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO

    try:
        summary = _run_one(config, args.out, args.verbose)
        print(f"{summary['rounds']} rounds, chain height "
              f"{summary['chain_height']}, outputs in {args.out}")
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def verify_chain(chain_path: str, config: SimConfig) -> tuple[bool, dict]:
    """Offline replay of full validation over an exported chain, against the
    membership the config defines: its keys, and the round each joins.

    Returns (ok, report); on failure the report carries the first failing
    block index and reason code, or the error that stopped the replay.
    """
    blocks, exported = import_chain(chain_path)
    if not blocks:
        return False, {"error": "empty export"}
    _, ctx = membership(config)
    if exported.as_dict() != ctx.registry.as_dict():
        return False, {"error": "registry differs from the configured membership"}
    if blocks[0].encode() != genesis_block().encode():
        return False, {"block": 0, "reason": "bad-genesis"}

    chain = Chain.genesis()
    for i, b in enumerate(blocks[1:], start=1):
        ok, reason, weight = validate_block(b, chain, ctx)
        if not ok:
            return False, {"block": i, "reason": reason}
        chain = chain.extended(b, weight)
    return True, {
        "blocks": len(blocks),
        "tip": hash_block(blocks[-1]).hex(),
    }


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    try:
        ok, report = verify_chain(args.chain, config)
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as e:
        print(f"verification failed: malformed export ({e})")
        return EXIT_VERIFY
    if ok:
        print(f"chain valid: {report['blocks']} blocks, tip {report['tip'][:16]}…")
        return EXIT_OK
    print(f"chain INVALID: {json.dumps(report)}")
    return EXIT_VERIFY


def _report_lines(rows: list[dict], summary: dict) -> list[str]:
    lines = ["== final round =="]
    if rows:
        last = rows[-1]
        lines += [f"  {col}: {last.get(col, '')}" for col in BASE_COLUMNS]
        lines += [f"  {c}: {last[c]}" for c in sorted(last) if c.startswith("mean_cred_")]
    else:
        lines.append("  (no rounds)")

    node_summaries = summary.get("node_summaries", {})
    if node_summaries:
        blocks = [float(s["blocks_mined"]) for s in node_summaries.values()]
        scores = [float(s["mean_election_score"]) for s in node_summaries.values()]
        # imported here, so that run and verify do not load the experiments
        from .experiments import spearman_rho

        rho = spearman_rho(blocks, scores)
        lines += [
            "== leader election ==",
            f"  nodes: {len(node_summaries)}",
            f"  blocks mined total: {int(sum(blocks))}",
            f"  rank correlation (blocks vs stake x credibility x time): {rho:.3f}",
        ]

    if rows:
        forks = [int(float(r["open_forks"])) for r in rows if r.get("open_forks")]
        invalid = int(float(rows[-1].get("invalid_blocks") or 0))
        lines += [
            "== forks ==",
            f"  max open forks: {max(forks) if forks else 0}",
            f"  invalid blocks dropped: {invalid}",
        ]
    return lines


def cmd_report(args: argparse.Namespace) -> int:
    metrics_path = os.path.join(args.dir, "metrics.csv")
    result_path = os.path.join(args.dir, "result.json")
    missing = [p for p in (metrics_path, result_path) if not os.path.exists(p)]
    if missing:
        for p in missing:
            print(f"missing file: {p}", file=sys.stderr)
        return EXIT_IO
    try:
        with open(metrics_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(result_path, encoding="utf-8") as fh:
            lines = _report_lines(rows, json.load(fh))
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        print(f"malformed input in {args.dir}: {e!r}", file=sys.stderr)
        return EXIT_IO
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cidnsim",
        description="Trust-based collaborative IDS network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--verbose", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="re-validate an exported chain")
    p_verify.add_argument("--chain", required=True)
    p_verify.add_argument("--config", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="summarize a metrics directory")
    p_report.add_argument("--dir", required=True)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
