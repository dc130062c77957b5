"""Seeded scenario configs for the benchmark workloads, and the checks
that each generated run still has the shape its workload is meant to load.

``--seed`` only sets ``rng_seed``; everything else is fixed here, so a seed
changes which keys, lottery draws and traffic samples a run sees but not how
much work it is asked to do.  The program receives the generated JSON through
``config_from_dict`` like any user config.

The lottery makes the number of blocks, and with it the work, of a single
scenario vary from seed to seed.  A workload is therefore a set of INSTANCES
scenarios, instance j of seed s having ``rng_seed`` = INSTANCES * s + j, and
a run cycles through them so that its figures average over the set.
"""

from __future__ import annotations

import json

WORKLOADS = ("replicated_forks", "lottery_monitoring")
INSTANCES = 4

# Trust parameters of the bundled scenarios; only interval_len varies.
_TRUST = {
    "forgetting": 0.9,
    "severity": 1.0,
    "cred_threshold": 0.8,
    "initial_trust": 0.5,
    "blacklist_threshold": 0.2,
}


def _config(seed: int, rounds: int, interval_len: int, consensus: dict,
            network: dict, hosts: list, nodes: list) -> dict:
    return {
        "schema_version": 1,
        "rounds": rounds,
        "rng_seed": seed,
        "trust": dict(_TRUST, interval_len=interval_len),
        "consensus": dict(consensus, r_bits=16, t_cap=16),
        "network": network,
        "hosts": hosts,
        "nodes": nodes,
    }


def replicated_forks(seed: int) -> dict:
    """Bundled-scenario shape: 10 nodes (7 honest, a 2-node collusion
    coalition, one betrayer turning at mid-run), 3 hosts, short intervals and
    an easy lottery, so most members propose every round and every replica
    validates and extends about N blocks per round."""
    rounds = 20
    noisy = {"fp": 0.02, "fn": 0.02}
    nodes = [dict(noisy) for _ in range(7)]
    nodes += [dict(noisy, behavior={"kind": "collusion", "group_id": 0}) for _ in range(2)]
    nodes.append(dict(noisy, behavior={"kind": "betrayal", "turn_round": rounds // 2}))
    return _config(
        seed, rounds, 50,
        {"d_cred": 1.0, "d_stake": 0.05, "q_max": 4096},
        {"drop_prob": 0.0, "delay_rounds": 0, "challenge_prob": 1.0,
         "challenge_priorities": "binary"},
        [{"p_mal": 0.0}, {"p_mal": 0.9}, {"p_mal": 0.0}],
        nodes,
    )


def lottery_monitoring(seed: int) -> dict:
    """Honest nodes watching many hosts over long intervals, with a lottery
    hard enough that most eligible nodes exhaust q_max and fewer than one
    block is found per round; one round of delay and a little loss exercise
    the orphan and pending-transaction paths."""
    hosts = [{"p_mal": 0.9 if i % 6 == 0 else 0.05} for i in range(24)]
    return _config(
        seed, 24, 300,
        {"d_cred": 1.0, "d_stake": 3e-7, "q_max": 4096},
        {"drop_prob": 0.02, "delay_rounds": 1, "challenge_prob": 0.5,
         "challenge_priorities": "uniform"},
        hosts,
        [{"fp": 0.02, "fn": 0.02} for _ in range(8)],
    )


_BUILDERS = {
    "replicated_forks": replicated_forks,
    "lottery_monitoring": lottery_monitoring,
}


def configs_for(workload: str, seed: int) -> list[dict]:
    """The workload's scenario instances for a seed."""
    return [_BUILDERS[workload](INSTANCES * seed + j) for j in range(INSTANCES)]


def config_json(config: dict) -> str:
    """Byte-stable JSON text of a generated config."""
    return json.dumps(config, sort_keys=True, indent=1) + "\n"


def premise_failures(workload: str, config: dict, sims: list[dict]) -> list[str]:
    """Reasons the run does not have its workload's intended shape.

    ``config`` is one instance's config (they differ only in ``rng_seed``).
    Each of ``sims`` is what one instance's simulation produced: ``rows``
    (metrics.csv rows as dicts) and the summed ``mining_attempts`` and
    ``blocks_mined`` of all nodes; the checks apply to their totals.
    """
    rows = [r for sim in sims for r in sim["rows"]]
    n_nodes = len(config["nodes"])
    proposed = sum(int(r["blocks_proposed"]) for r in rows)
    per_round = proposed / max(1, len(rows))
    out = []
    if workload == "replicated_forks":
        # a large share of the N members propose every round (about 0.6 N
        # at HEAD: credibility, and with it eligibility, starts at 0.5)
        if per_round < 0.4 * n_nodes:
            out.append(f"blocks proposed per round {per_round:.2f} < {0.4 * n_nodes}")
    elif workload == "lottery_monitoring":
        if not 0.3 <= per_round <= 2.0:
            out.append(f"blocks proposed per round {per_round:.2f} outside [0.3, 2]")
        q_max = config["consensus"]["q_max"]
        mined = sum(s["blocks_mined"] for s in sims)
        attempts = sum(s["mining_attempts"] for s in sims)
        # every failed mine() call makes exactly q_max attempts and every
        # successful one at most q_max, so this bounds the exhausted calls
        exhausted = max(0.0, (attempts - mined * q_max) / q_max)
        share = exhausted / (exhausted + mined) if exhausted + mined else 0.0
        if share < 0.5:
            out.append(f"share of mine() calls exhausting q_max {share:.2f} < 0.5")
    return out
