"""Scenario driver: wires nodes, network, and chain together and runs the
round loop, collecting per-round metrics.

Everything is a pure function of (config, seed): keys are derived from the
seed, and every random decision is keyed by (seed, purpose, participants,
round).
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from .chain import Chain
from .config import SimConfig
from .consensus import (
    ValidationContext,
    chain_average_credibility,
    compute_stake,
    leader_trust_values,
    time_since_last_block,
)
from .encoding import sha256
from .keys import KeyPair, KeyRegistry
from .netsim import KIND_BLOCK, Network
from .node import Node, RuntimeContext
from .trust import is_blacklisted

__all__ = ["ScenarioResult", "Simulation", "host_id_for", "membership"]


def host_id_for(index: int) -> str:
    """Synthetic IPv4 for host number ``index``."""
    return f"10.0.{index // 250}.{index % 250 + 1}"


def key_for(rng_seed: int, index: int) -> KeyPair:
    material = sha256(f"node-key:{rng_seed}:{index}".encode())
    return KeyPair.from_seed(material)


def membership(config: SimConfig) -> tuple[list[KeyPair], ValidationContext]:
    """The membership a config defines: one key per node, and the run's
    validation inputs, whose registry holds those keys and whose members at
    a round are the nodes spawned by then."""
    keys = [key_for(config.rng_seed, i) for i in range(len(config.nodes))]
    registry = KeyRegistry()
    for k in keys:
        registry.register(k.public_bytes)
    ids = [k.node_id for k in keys]
    spawn = [spec.behavior.spawn_round for spec in config.nodes]

    def members_at(rnd: int) -> list[str]:
        return [ids[i] for i in range(len(ids)) if spawn[i] <= rnd]

    return keys, ValidationContext(
        params=config.consensus,
        registry=registry,
        initial_trust=config.trust.initial_trust,
        members_at=members_at,
    )


class ScenarioResult(NamedTuple):
    """Per-round metrics plus end-of-run aggregates."""

    rounds: list[dict]
    leader_counts: dict[str, int]
    node_summaries: dict[str, dict]
    chain: Chain
    registry: KeyRegistry
    wall_time: float


class Simulation:
    def __init__(self, config: SimConfig):
        self.config = config
        self.keys, validation_context = membership(config)
        self.host_ids = [host_id_for(i) for i in range(len(config.hosts))]
        host_pmal = {
            self.host_ids[i]: config.hosts[i].p_mal for i in range(len(config.hosts))
        }
        ids = [k.node_id for k in self.keys]
        collusion_groups = {
            ids[i]: spec.behavior.group_id
            for i, spec in enumerate(config.nodes)
            if spec.behavior.kind == "collusion"
        }
        self.ctx = RuntimeContext(
            seed=config.rng_seed,
            trust_params=config.trust,
            validation_context=validation_context,
            index_of={nid: i for i, nid in enumerate(ids)},
            host_ids=self.host_ids,
            host_pmal=host_pmal,
            network=config.network,
            collusion_groups=collusion_groups,
        )
        self.network = Network(
            seed=config.rng_seed,
            drop_prob=config.network.drop_prob,
            delay_rounds=config.network.delay_rounds,
        )
        self.nodes = [
            Node(
                self.ctx,
                index=i,
                key=self.keys[i],
                behavior=spec.behavior,
                monitors=[self.host_ids[h] for h in config.monitors_for(i)],
                know_prob=spec.know_prob,
                fp=spec.fp,
                fn=spec.fn,
            )
            for i, spec in enumerate(config.nodes)
        ]
        self.honest = [n for n in self.nodes if n.behavior.kind == "honest"]
        # the replica that the metrics and the export read
        self.reference = (self.honest or self.nodes)[0]

    def run(
        self,
        verbose: bool = False,
        event_sink: Callable[[dict], None] | None = None,
        round_hook: Callable[["Simulation", int], None] | None = None,
    ) -> ScenarioResult:
        cfg = self.config
        rows = []
        started = time.monotonic()
        truth_malicious = {
            self.host_ids[i]
            for i, h in enumerate(cfg.hosts)
            if h.p_mal >= 0.5
        }
        score_sums: dict[str, float] = {n.node_id: 0.0 for n in self.nodes}
        members_at = self.ctx.validation_context.members_at

        for rnd in range(1, cfg.rounds + 1):
            deliveries = self.network.step(rnd)
            members = members_at(rnd)
            blocks_proposed = 0
            for node_id in members:
                n = self.nodes[self.ctx.index_of[node_id]]
                outgoing = n.run_round(deliveries.get(node_id, []), rnd)
                for kind, receivers, payload in outgoing:
                    if kind == KIND_BLOCK:
                        blocks_proposed += 1
                    self.network.send(kind, node_id, receivers, payload, rnd)

            self._accumulate_election_scores(rnd, members, score_sums)
            rows.append(self._metrics_row(rnd, blocks_proposed, truth_malicious))
            if verbose and event_sink is not None:
                event_sink(self._snapshot(rnd, members))
            if round_hook is not None:
                round_hook(self, rnd)

        summaries = {}
        for n in self.nodes:
            rounds_active = max(1, cfg.rounds - n.behavior.spawn_round)
            summaries[n.node_id] = {
                "index": n.index,
                "behavior": n.behavior.kind,
                "blocks_mined": n.blocks_mined,
                "mining_attempts": n.mining_attempts,
                "invalid_blocks": n.invalid_blocks,
                "invalid_reasons": dict(sorted(n.invalid_reasons.items())),
                "mean_election_score": score_sums[n.node_id] / rounds_active,
            }
        return ScenarioResult(
            rounds=rows,
            leader_counts={
                n.node_id: n.blocks_mined for n in self.nodes if n.blocks_mined
            },
            node_summaries=summaries,
            chain=self.reference.replica,
            registry=self.ctx.validation_context.registry,
            wall_time=time.monotonic() - started,
        )

    def _accumulate_election_scores(
        self, rnd: int, members: list[str], sums: dict[str, float]
    ) -> None:
        """Stake x average-credibility x elapsed-time factor of each member,
        from the view of the reference replica; feeds the fairness statistic
        in reports."""
        reference = self.reference.replica
        tau = self.config.trust.initial_trust
        cp = self.config.consensus
        for node_id in members:
            avg = chain_average_credibility(reference, node_id, members, tau)
            stake = compute_stake(leader_trust_values(reference, node_id, ()))
            t = min(time_since_last_block(reference, node_id, rnd), cp.t_cap)
            sums[node_id] += stake * avg * t

    def _metrics_row(
        self, rnd: int, blocks_proposed: int, truth_malicious: set[str]
    ) -> dict:
        tp = fp = fn_ = 0
        for n in self.honest:
            for ip in n.monitors:
                flagged = is_blacklisted(n.host_trust[ip], self.config.trust)
                bad = ip in truth_malicious
                if flagged and bad:
                    tp += 1
                elif flagged and not bad:
                    fp += 1
                elif bad and not flagged:
                    fn_ += 1
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn_) if tp + fn_ else 1.0

        by_class: dict[str, list[float]] = {}
        for n in self.honest:
            for peer, st in n.peer_trust.items():
                idx = self.ctx.index_of[peer]
                kind = self.config.nodes[idx].behavior.kind
                by_class.setdefault(kind, []).append(st.crd)
        mean_cred = {
            kind: sum(v) / len(v) for kind, v in by_class.items() if v
        }

        return {
            "round": rnd,
            "blocks_proposed": blocks_proposed,
            "chain_height": self.reference.replica.height,
            "open_forks": len(self.reference._leaves),
            "invalid_blocks": sum(n.invalid_blocks for n in self.nodes),
            "blacklist_precision": precision,
            "blacklist_recall": recall,
            **{f"mean_cred_{k}": v for k, v in sorted(mean_cred.items())},
        }

    def _snapshot(self, rnd: int, members: list[str]) -> dict:
        nodes = [self.nodes[self.ctx.index_of[node_id]] for node_id in members]
        return {
            "round": rnd,
            "nodes": {
                n.node_id: {
                    "behavior": n.behavior.kind,
                    "credibility": {p: st.crd for p, st in n.peer_trust.items()},
                    "host_trust": {ip: st.tr_ids for ip, st in n.host_trust.items()},
                    "blacklist": sorted(n.blacklist),
                }
                for n in nodes
            },
        }
