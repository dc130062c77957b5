"""Acceptance gate: ten numbered criteria covering the trust arithmetic,
the consensus state machine, the attack scenarios, and end-to-end
determinism.  Each test prints exactly one PASS/FAIL line on the terminal
(bypassing capture) so the gate is readable from a plain test log."""

import copy
import dataclasses
import hashlib
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from scipy.stats import spearmanr

from cidnsim import trust
from cidnsim.chain import Chain, build_transaction, make_block, transaction_root
from cidnsim.cli import main as cli_main
from cidnsim.cli import verify_chain
from cidnsim.config import config_from_dict, load_config
from cidnsim.consensus import (
    ConsensusParams,
    Reason,
    ValidationContext,
    chain_average_credibility,
    check_eligibility,
    compute_stake,
    compute_target,
    mine,
    prefix_fraction,
    validate_block,
)
from cidnsim.experiments import fork_contest, leader_election_trial
from cidnsim.keys import KeyPair, KeyRegistry
from cidnsim.netsim import derived_rng
from cidnsim.simulation import Simulation
from cidnsim.trust import (
    HostTrustState,
    PeerTrustState,
    TrustParams,
    compute_weights,
    measure_instantaneous_trust,
    update_accumulated_trust,
    update_satisfaction,
    update_unsure,
)
from mutations import MUTATION_CLASSES, mutate_block

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

BASE_TRUST = TrustParams(
    forgetting=0.9,
    severity=1.0,
    cred_threshold=0.8,
    initial_trust=0.5,
    blacklist_threshold=0.2,
    interval_len=50,
)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------


def test_criterion_01_equation_exactness(capsys):
    """Instantaneous trust matches its rational form for every count pair up
    to 1000, and all three EWMA recurrences match tail-sum closed forms over
    a million-step random schedule."""
    started = time.perf_counter()

    worst_frac = 0.0
    for n in range(0, 1001):
        for k in range(0, n + 1):
            got = measure_instantaneous_trust(k, n)
            worst_frac = max(worst_frac, abs(got - float(Fraction(1 + k, 2 + n))))
    ok_frac = worst_frac <= 1e-12

    # one long mixed schedule of answered / Unsure / traffic events
    rng = derived_rng(2024, "ewma-schedule")
    p = BASE_TRUST
    lam = p.forgetting
    peer = PeerTrustState.fresh(p)
    host = HostTrustState.fresh(p)
    events = []  # (unsure?, satisfaction, instantaneous trust)
    for _ in range(1_000_000):
        unsure = rng.random() < 0.3
        sat = rng.random()
        tr_inst = 0.25 + 0.5 * rng.random()
        events.append((unsure, sat, tr_inst))
        peer = update_unsure(peer, p) if unsure else update_satisfaction(peer, sat, p)
        host = update_accumulated_trust(host, tr_inst, p)

    # independent closed forms: only the geometric tail matters (lam^700 ~ 1e-32)
    gamma_oracle = 0.0
    weight = 1.0 - lam
    answered_seen = 0
    for unsure, sat, _ in reversed(events):
        if unsure:
            continue
        gamma_oracle += weight * sat
        weight *= lam
        answered_seen += 1
        if answered_seen >= 800:
            break
    alpha_oracle = sum(
        (1.0 - lam) * lam**j * (1.0 if events[-1 - j][0] else 0.0)
        for j in range(800)
    )
    tr_oracle = sum((1.0 - lam) * lam**j * events[-1 - j][2] for j in range(800))

    err = max(
        abs(peer.gamma - gamma_oracle),
        abs(peer.alpha - alpha_oracle),
        abs(host.tr_ids - tr_oracle),
    )
    elapsed = time.perf_counter() - started
    ok = ok_frac and err <= 1e-9 and elapsed < 10.0
    _report(
        capsys, 1, ok,
        f"rational-form dev {worst_frac:.1e} (≤1e-12), EWMA closed-form dev "
        f"{err:.1e} (≤1e-9), {elapsed:.1f}s (<10s)",
    )


def test_criterion_02_unsure_fixed_point(capsys):
    """200 consecutive Unsure answers leave credibility within lambda^200 of
    the newcomer value."""
    state = PeerTrustState(gamma=1.0, alpha=0.0, crd=1.0)
    for _ in range(200):
        state = update_unsure(state, BASE_TRUST)
    bound = BASE_TRUST.forgetting ** (200 * BASE_TRUST.severity)
    dev = abs(state.crd - BASE_TRUST.initial_trust)
    ok = dev <= bound and bound <= 1e-9
    _report(capsys, 2, ok, f"|crd - baseline| = {dev:.2e} ≤ {bound:.2e} ≤ 1e-9")


def test_criterion_03_weight_normalization(capsys):
    """Weight maps sum to 1 within 1e-12 over 1e5 random credibility
    vectors, including vectors entirely below the threshold."""
    rng = derived_rng(2024, "weight-vectors")
    worst = 0.0
    for i in range(100_000):
        size = 1 + rng.randrange(12)
        if i % 7 == 0:
            crds = {f"p{j}": rng.random() * 0.79 for j in range(size)}
        else:
            crds = {f"p{j}": rng.random() for j in range(size)}
        weights = compute_weights("observer", crds, BASE_TRUST)
        worst = max(worst, abs(sum(weights.values()) - 1.0))
    ok = worst <= 1e-12
    _report(capsys, 3, ok, f"max |sum(weights) - 1| = {worst:.2e} over 1e5 vectors")


def test_criterion_04_consensus_duality_fuzz(capsys):
    """1e4 honestly mined blocks all validate; 1e4 deterministic single-field
    mutations all fail with the expected reason code."""
    started = time.perf_counter()
    params = ConsensusParams(d_cred=1.0, d_stake=1.0, r_bits=16, q_max=4096, t_cap=1)
    leader = KeyPair.from_seed(hashlib.sha256(b"duality-leader").digest())
    other = KeyPair.from_seed(hashlib.sha256(b"duality-other").digest())
    registry = KeyRegistry()
    registry.register(leader.public_bytes)
    ctx = ValidationContext(
        params=params,
        registry=registry,
        initial_trust=0.5,
        members_at=lambda rnd: [leader.node_id],
    )
    parent = Chain.genesis()

    # a sharp trust list gives a mining target at the clamp, so the counter
    # search succeeds on essentially every round
    trusts = {f"h{i}": 0.99 for i in range(6)}
    tx = None
    for salt in range(200):
        # built before the first round, so every block may carry it
        cand = build_transaction(
            leader, 0, {}, {h: t - salt * 1e-9 for h, t in trusts.items()}
        )
        payload = transaction_root([cand])
        eligible, g = check_eligibility(
            leader.node_id, params.d_cred, 1.0, parent.tip_hash, payload
        )
        if eligible:
            tx = cand
            break
    assert tx is not None, "setup: eligibility never satisfied"

    stake = compute_stake(tx.trust_list)
    target = compute_target(params.d_stake, stake, 1, params.t_cap, params.r_bits)

    valid_ok = 0
    mutation_ok = 0
    total = 10_000
    for i in range(total):
        gen_time = i + 1
        ctr, _ = mine(g, gen_time, target, params.q_max, params.r_bits)
        assert ctr is not None
        block = make_block(leader, gen_time, parent.tip_hash, ctr, target, [tx])
        ok, reason, _ = validate_block(block, parent, ctx)
        valid_ok += ok and reason == Reason.OK

        how, expected = MUTATION_CLASSES[i % len(MUTATION_CLASSES)]
        mutated = mutate_block(block, how, params.q_max, other_key=other)
        ok, reason, _ = validate_block(mutated, parent, ctx)
        mutation_ok += (not ok) and reason == expected

    elapsed = time.perf_counter() - started
    ok = valid_ok == total and mutation_ok == total and elapsed < 120.0
    _report(
        capsys, 4, ok,
        f"{valid_ok}/{total} honest blocks valid, {mutation_ok}/{total} "
        f"mutations rejected with the expected reason, {elapsed:.1f}s (<120s)",
    )


def test_criterion_05_mining_rate_calibration(capsys):
    """Per-attempt success rate against a 0.05 target over 1e6 uniform
    hash draws sits within 0.05 ± 0.002."""
    target, r_bits = 0.05, 16
    hits = 0
    attempts = 1_000_000
    for i in range(attempts):
        h = hashlib.sha256(b"mining-rate" + i.to_bytes(8, "big")).digest()
        hits += prefix_fraction(h, r_bits) < target
    rate = hits / attempts
    ok = abs(rate - target) <= 0.002
    _report(capsys, 5, ok, f"empirical rate {rate:.4f} vs target {target} ± 0.002")


def test_criterion_06_betrayal_containment(capsys):
    """A node turning malicious at round 40 under full challenge coverage
    loses mean credibility below the 0.8 threshold within 3 challenge rounds
    and carries zero weight in every honest weight map thereafter."""
    config = load_config(str(SCENARIOS / "betrayal.json"))
    sim = Simulation(config)
    traitor = sim.nodes[20].node_id
    turn = config.nodes[20].behavior.turn_round
    history = {}

    def hook(s, rnd):
        crds, weights = [], []
        for n in s.honest:
            if traitor not in n.peer_trust:
                continue
            crd_map = {p: st.crd for p, st in n.peer_trust.items()}
            crds.append(crd_map[traitor])
            weights.append(compute_weights(n.node_id, crd_map, config.trust)[traitor])
        history[rnd] = (sum(crds) / len(crds), max(weights))

    sim.run(round_hook=hook)
    mean_before = history[turn][0]
    mean_after = history[turn + 3][0]
    weights_after = [history[r][1] for r in range(turn + 3, config.rounds + 1)]
    ok = (
        mean_before > BASE_TRUST.cred_threshold
        and mean_after < BASE_TRUST.cred_threshold
        and all(w == 0.0 for w in weights_after)
    )
    _report(
        capsys, 6, ok,
        f"mean credibility {mean_before:.3f}@turn -> {mean_after:.3f}@turn+3 "
        f"(<0.8), max weight {max(weights_after):.0e} from turn+3 on",
    )


def test_criterion_07_sybil_neutrality(capsys):
    """Five fake identities broadcasting inverted scores never move any
    honest node's combined host trust: every value matches the fake-free
    control run within 1e-12 for the whole horizon."""
    with open(SCENARIOS / "sybil.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    attacked = config_from_dict(raw)
    control_raw = copy.deepcopy(raw)
    del control_raw["sybil"]
    control = config_from_dict(control_raw)

    def run_with_trace(config):
        sim = Simulation(config)
        honest = [n.node_id for n in sim.nodes if n.behavior.kind == "honest"]
        trace = []
        fake_crds = []

        def hook(s, rnd):
            trace.append(
                {
                    n.node_id: dict(
                        (ip, st.tr_ids) for ip, st in n.host_trust.items()
                    )
                    for n in s.nodes
                    if n.node_id in honest
                }
            )
            for n in s.honest:
                for peer, st in n.peer_trust.items():
                    if s.ctx.collusion_groups.get(peer) is None and peer not in honest:
                        fake_crds.append(st.crd)

        sim.run(round_hook=hook)
        return trace, fake_crds

    trace_a, fake_crds = run_with_trace(attacked)
    trace_c, _ = run_with_trace(control)

    worst = 0.0
    for row_a, row_c in zip(trace_a, trace_c):
        for nid, hosts in row_c.items():
            for ip, val in hosts.items():
                worst = max(worst, abs(row_a[nid][ip] - val))
    max_fake_crd = max(fake_crds) if fake_crds else 0.0
    ok = worst <= 1e-12 and max_fake_crd < BASE_TRUST.cred_threshold
    _report(
        capsys, 7, ok,
        f"max |attacked - control| = {worst:.1e} over {len(trace_c)} rounds, "
        f"max fake credibility {max_fake_crd:.3f} (<0.8)",
    )


def test_criterion_08_fork_contest(capsys):
    """With a 30% low-stake coalition, fork choice picks the honest branch
    in at least 95% of seeded contests where the honest score lead is 2x."""
    started = time.perf_counter()
    qualified = wins = 0
    for seed in range(200):
        res = fork_contest(seed)
        if res is None or res.ratio < 2.0:
            continue
        qualified += 1
        wins += res.honest_won
    elapsed = time.perf_counter() - started
    frac = wins / qualified if qualified else 0.0
    ok = qualified >= 20 and frac >= 0.95 and elapsed < 300.0
    _report(
        capsys, 8, ok,
        f"honest branch won {wins}/{qualified} qualified contests "
        f"({frac:.1%} ≥ 95%), {elapsed:.1f}s (<300s)",
    )


def test_criterion_09_leader_election_fairness(capsys):
    """Across 50 nodes and 2000 rounds, block production rank-correlates
    with stake x credibility x mean elapsed time above 0.5."""
    params = ConsensusParams(d_cred=1.0, d_stake=0.002, r_bits=16, q_max=8, t_cap=8)
    stats = leader_election_trial(50, 2000, params, seed=1)
    counts, expected = stats.fairness_inputs()
    rho = float(spearmanr(counts, expected).statistic)
    ok = rho > 0.5
    _report(capsys, 9, ok, f"Spearman rho = {rho:.3f} (> 0.5), blocks = {int(sum(counts))}")


def test_criterion_10_determinism_and_auditability(capsys, tmp_path):
    """Two runs of a bundled scenario are byte-identical, and the exported
    chain replays cleanly through offline verification."""
    config_path = str(SCENARIOS / "baseline_honest.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", config_path, "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", config_path, "--out", str(out_b)]) == 0
    chain_a = (out_a / "chain.jsonl").read_bytes()
    identical = chain_a == (out_b / "chain.jsonl").read_bytes() and (
        (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    )
    verified, report = verify_chain(str(out_a / "chain.jsonl"), load_config(config_path))
    ok = identical and verified
    _report(
        capsys, 10, ok,
        f"byte-identical exports: {identical}; offline verification: "
        f"{verified} ({report.get('blocks', '?')} blocks)",
    )
