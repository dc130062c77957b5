"""Consensus-layer experiment harnesses.

Two standalone studies that exercise the election and fork-choice machinery
without the full per-node trust loop:

* ``leader_election_trial``: many rounds of the eligibility + mining lottery
  over nodes with static stake/credibility profiles, for fairness analysis;
* ``fork_contest``: a seeded construction of two competing mined forks (an
  honest branch and a low-stake coalition branch), grown and scored through
  the simulator's block store and ranked by its fork-choice order.

``spearman_rho`` is the fairness statistic of both the election trial and
``cidnsim report``.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple

from .chain import Chain, build_transaction
from .consensus import (
    ConsensusParams,
    ValidationContext,
    _mining_hash,
    check_eligibility,
    compute_target,
    mine,
    propose,
)
from .encoding import enc_int, sha256
from .keys import KeyPair, KeyRegistry
from .netsim import keyed_draws
from .node import BlockStore

__all__ = [
    "ElectionStats", "leader_election_trial", "ForkContest", "fork_contest",
    "spearman_rho",
]


def _ranks(xs: list[float]) -> list[float]:
    """1-based ranks of ``xs``; tied values share the average of their ranks."""
    order = sorted(range(len(xs)), key=xs.__getitem__)
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        for k in order[i : j + 1]:
            ranks[k] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman_rho(xs: list[float], ys: list[float]) -> float:
    """Spearman's rank correlation: Pearson's r of the average ranks; 0 when
    it is undefined (an input is constant or holds a NaN)."""
    if any(math.isnan(v) for v in xs + ys):
        return 0.0
    rx, ry = _ranks(xs), _ranks(ys)
    mean = (len(xs) + 1) / 2  # of ranks 1..n, ties included
    dx = [r - mean for r in rx]
    dy = [r - mean for r in ry]
    sxx = sum(a * a for a in dx)
    syy = sum(b * b for b in dy)
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    return sum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)


class ElectionStats(NamedTuple):
    """Per-node aggregates over an election trial."""

    blocks: list[int]
    stakes: list[float]
    avg_creds: list[float]
    mean_times: list[float]

    def fairness_inputs(self) -> tuple[list[float], list[float]]:
        """(block counts, stake x credibility x mean elapsed time) per node."""
        expected = [
            s * c * t for s, c, t in zip(self.stakes, self.avg_creds, self.mean_times)
        ]
        return [float(b) for b in self.blocks], expected


def leader_election_trial(
    n_nodes: int,
    rounds: int,
    params: ConsensusParams,
    seed: int,
) -> ElectionStats:
    """Run the hybrid lottery with static per-node profiles.

    Each node gets a fixed stake (drawn from a spread of trust-score
    sharpness) and a fixed average credibility; elapsed time evolves with
    the adopted leader sequence.  Counts every block a node manages to
    produce (forks included).  Node i's profile is the draw keyed by i, so
    adding a node changes no other node's profile.
    """
    ids = [f"node{i:03d}" for i in range(n_nodes)]
    draws = [keyed_draws(seed, "election-trial", i) for i in range(n_nodes)]
    stakes = [0.2 + 4.8 * u[0] for u in draws]
    avg_creds = [0.5 + 0.45 * u[1] for u in draws]

    blocks = [0] * n_nodes
    last_led = [0] * n_nodes
    time_sum = [0.0] * n_nodes
    prev_hash = sha256(b"election-trial-genesis")

    for rnd in range(1, rounds + 1):
        payload = enc_int(rnd) + prev_hash
        winners = []
        for i in range(n_nodes):
            t = min(max(1, rnd - last_led[i]), params.t_cap)
            time_sum[i] += t
            eligible, g = check_eligibility(
                ids[i], params.d_cred, avg_creds[i], prev_hash, payload
            )
            if not eligible:
                continue
            target = compute_target(
                params.d_stake, stakes[i], t, params.t_cap, params.r_bits
            )
            ctr, _ = mine(g, rnd, target, params.q_max, params.r_bits)
            if ctr is not None:
                blocks[i] += 1
                winners.append((i, g, ctr))
        if winners:
            # adopt the proposal with the smallest mining hash; good enough
            # as a deterministic stand-in for full fork choice here
            leader = min(winners, key=lambda w: _mining_hash(w[1], rnd, w[2]))[0]
            last_led[leader] = rnd
            prev_hash = sha256(prev_hash + enc_int(leader) + enc_int(rnd))

    mean_times = [s / rounds for s in time_sum]
    return ElectionStats(blocks, stakes, avg_creds, mean_times)


class ForkContest(NamedTuple):
    """Outcome of one seeded fork-resolution contest."""

    honest_score: float
    coalition_score: float
    honest_won: bool
    honest_len: int
    coalition_len: int

    @property
    def ratio(self) -> float:
        if self.coalition_score == 0.0:
            return float("inf")
        return self.honest_score / self.coalition_score


def fork_contest(
    seed: int,
    n_honest: int = 7,
    n_coalition: int = 3,
    fork_len: int = 3,
    params: ConsensusParams | None = None,
) -> ForkContest | None:
    """Build a bootstrapped chain and two competing mined forks, and pick
    the one the simulator's fork choice ranks first.

    Honest members publish sharp trust scores (high stake) and receive high
    credibility; coalition members publish scores near 1/2 (low stake) and
    collude on mutual top ratings.  Each published value is the draw keyed
    by its member and the peer or host it scores.  Returns None when no
    bootstrap leader passed the eligibility lottery for this seed.
    """
    params = params or ConsensusParams(
        d_cred=1.0, d_stake=0.05, r_bits=16, q_max=4096, t_cap=16
    )
    n_total = n_honest + n_coalition
    keys = [
        KeyPair.from_seed(sha256(f"fork:{seed}:{i}".encode()))
        for i in range(n_total)
    ]
    registry = KeyRegistry()
    for k in keys:
        registry.register(k.public_bytes)
    ids = [k.node_id for k in keys]
    honest = set(ids[:n_honest])
    hosts = [f"192.0.2.{i+1}" for i in range(6)]

    ctx = ValidationContext(
        params=params,
        registry=registry,
        initial_trust=0.5,
        members_at=lambda rnd: ids,
    )

    # bootstrap transactions, built before the first round: every member's
    # credibility and trust lists
    txs = []
    for i, k in enumerate(keys):
        peers = {}
        for j, other in enumerate(ids):
            if other == k.node_id:
                continue
            if ids[i] in honest:
                u = keyed_draws(seed, "fork-contest-cred", i, j)[0]
                peers[other] = 0.85 + 0.1 * u if other in honest else 0.45 + 0.1 * u
            else:
                peers[other] = 1.0 if other not in honest else 0.1
        low, width = (0.9, 0.08) if ids[i] in honest else (0.48, 0.04)
        trusts = {
            h: low + width * keyed_draws(seed, "fork-contest-trust", i, n)[0]
            for n, h in enumerate(hosts)
        }
        txs.append(build_transaction(k, 0, peers, trusts))

    store = BlockStore()
    for k in keys:
        block, _ = propose(store.genesis, k, 1, txs, ctx)
        if block is not None:
            break
    else:
        return None
    reason, base = store.admit(block, store.genesis, ctx)
    assert base is not None, reason

    def grow_fork(leader_pool: list[KeyPair]) -> tuple[Chain, int]:
        """The fork's tip chain and its length in blocks."""
        tip = base
        for step in range(fork_len):
            gen_time = 2 + step
            for k in leader_pool:
                block, _ = propose(tip, k, gen_time, [], ctx)
                if block is not None:
                    break
            else:
                return tip, step
            reason, tip = store.admit(block, tip, ctx)
            assert tip is not None, reason
        return tip, fork_len

    honest_tip, honest_len = grow_fork(keys[:n_honest])
    coalition_tip, coalition_len = grow_fork(keys[n_honest:])
    if not honest_len or not coalition_len:
        return None

    winner = min(honest_tip, coalition_tip, key=attrgetter("rank"))
    return ForkContest(
        honest_score=honest_tip.score - base.score,
        coalition_score=coalition_tip.score - base.score,
        honest_won=winner is honest_tip,
        honest_len=honest_len,
        coalition_len=coalition_len,
    )
