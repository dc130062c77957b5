#!/usr/bin/env python3
"""Leader-election fairness experiment.

Runs repeated election trials and reports the Spearman rank correlation
between per-node block counts and the product stake * credibility * mean
inter-block time.  A high positive correlation means the election favours
exactly the nodes the protocol says it should favour.
"""

import argparse

from cidnsim.consensus import ConsensusParams
from cidnsim.experiments import leader_election_trial, spearman_rho


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=50)
    ap.add_argument("--rounds", type=int, default=2000)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()

    params = ConsensusParams(d_cred=1.0, d_stake=0.002, r_bits=16, q_max=8, t_cap=8)
    for seed in args.seeds:
        stats = leader_election_trial(args.nodes, args.rounds, params, seed)
        counts, expected = stats.fairness_inputs()
        rho = spearman_rho(counts, expected)
        print(f"seed={seed}  blocks={sum(counts)}  spearman_rho={rho:.4f}")


if __name__ == "__main__":
    main()
