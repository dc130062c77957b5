"""Eligibility lottery, mining, block validation, and fork choice."""

import hashlib
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import entropy as scipy_entropy

from cidnsim import consensus as consensus_module
from cidnsim.chain import Chain, build_transaction, hash_block, transaction_root
from cidnsim.config import NetParams, load_config
from cidnsim.consensus import (
    MAX_Q_MAX,
    ConsensusParams,
    Reason,
    ValidationContext,
    binary_entropy,
    chain_average_credibility,
    check_eligibility,
    compute_stake,
    compute_target,
    eligibility_hash,
    hash_to_unit,
    leader_trust_values,
    mine,
    mining_bound,
    prefix_fraction,
    propose,
    validate_block,
)
from cidnsim.consensus import _mining_hash
from cidnsim.encoding import enc_int
from cidnsim.keys import KeyPair, KeyRegistry
from cidnsim.node import Behavior, Node, RuntimeContext
from cidnsim.simulation import Simulation
from cidnsim.trust import TrustParams
from mutations import MUTATION_CLASSES, mutate_block

PARAMS = ConsensusParams(d_cred=1.0, d_stake=1.0, r_bits=16, q_max=4096, t_cap=16)


def key_of(label: str) -> KeyPair:
    return KeyPair.from_seed(hashlib.sha256(label.encode()).digest())


# -- params and hash mapping ------------------------------------------------


@pytest.mark.parametrize(
    "field,value",
    [("d_cred", 0.0), ("d_cred", 1.1), ("d_stake", 0.0), ("d_stake", math.inf),
     ("d_stake", math.nan), ("r_bits", 7), ("r_bits", 65), ("q_max", 0),
     ("q_max", MAX_Q_MAX + 1), ("t_cap", 0)],
)
def test_params_rejects_out_of_range(field, value):
    with pytest.raises(ValueError):
        PARAMS._replace(**{field: value})


def test_hash_to_unit_known_vectors():
    assert hash_to_unit(b"\x00" * 32) == 0.0
    assert hash_to_unit(b"\x80" + b"\x00" * 31) == 0.5
    assert 0.0 <= hash_to_unit(hashlib.sha256(b"x").digest()) < 1.0


def test_prefix_fraction_known_vectors():
    assert prefix_fraction(b"\xff" * 8, 8) == 255 / 256
    assert prefix_fraction(b"\x00" * 8, 16) == 0.0
    assert prefix_fraction(b"\x80" + b"\x00" * 7, 16) == 0.5


def test_eligibility_rate_tracks_threshold():
    """The lottery is a uniform draw, so the pass rate matches d_cred*avg."""
    threshold = 0.3
    hits = 0
    trials = 20_000
    prev = hashlib.sha256(b"parent").digest()
    for i in range(trials):
        ok, _ = check_eligibility("node", 1.0, threshold, prev, enc_int(i))
        hits += ok
    assert hits / trials == pytest.approx(threshold, abs=0.02)


def test_eligibility_hash_is_deterministic():
    prev = b"\x01" * 32
    a = eligibility_hash("n", prev, b"payload")
    assert a == eligibility_hash("n", prev, b"payload")
    assert a != eligibility_hash("m", prev, b"payload")


# -- stake ------------------------------------------------------------------


def test_binary_entropy_matches_independent_oracle():
    for x in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9):
        oracle = float(scipy_entropy([x, 1.0 - x], base=2))
        assert binary_entropy(x) == pytest.approx(oracle, abs=1e-12)
    assert binary_entropy(0.0) == binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_symmetry(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


def test_stake_rewards_sharp_scores():
    assert compute_stake([]) == 0.0
    assert compute_stake([0.5]) == pytest.approx(0.0)
    assert compute_stake([1.0, 0.0]) == pytest.approx(2.0)
    # additivity over lists
    assert compute_stake([0.9, 0.2]) == pytest.approx(
        compute_stake([0.9]) + compute_stake([0.2])
    )
    assert compute_stake([0.9]) == pytest.approx(1.0 - binary_entropy(0.9))


def test_target_caps_and_clamps():
    assert compute_target(0.1, 2.0, 3, 16, 16) == pytest.approx(0.6)
    # elapsed time saturates at t_cap
    assert compute_target(0.1, 2.0, 100, 4, 16) == pytest.approx(0.8)
    # never reaches 1: the prefix comparison must stay falsifiable
    assert compute_target(1.0, 50.0, 16, 16, 16) == 1.0 - 2.0**-16
    with pytest.raises(ValueError):
        compute_target(0.1, 2.0, 0, 16, 16)


# -- mining -----------------------------------------------------------------


def test_mine_respects_attempt_bound_and_predicate():
    g = hashlib.sha256(b"g").digest()
    ctr, attempts = mine(g, 5, 0.5, 4096, 16)
    assert ctr is not None and 1 <= ctr <= 4096
    assert attempts <= 4096
    assert prefix_fraction(_mining_hash(g, 5, ctr), 16) < 0.5
    # unwinnable target exhausts the budget
    none, used = mine(g, 5, 0.0, 64, 16)
    assert none is None and used == 64


def reference_mine(g_value, gen_time, target_v, q_max, r_bits):
    """The counter search written straight from the predicate."""
    attempts = 0
    for ctr in range(1, q_max + 1):
        attempts += 1
        if prefix_fraction(_mining_hash(g_value, gen_time, ctr), r_bits) < target_v:
            return ctr, attempts
    return None, attempts


@st.composite
def targets(draw, r_bits):
    """Float targets, with weight on the edges of the mining rule: zero,
    negative, NaN, subnormal, next to a grid point k/2^r, and at 1 - 2^-r."""
    scale = 2.0**r_bits
    k = draw(st.integers(0, 1 << r_bits))
    near = draw(st.sampled_from([k / scale, 1.0 - 1.0 / scale]))
    return draw(
        st.one_of(
            st.floats(),
            st.sampled_from([0.0, -0.0, -1.0, math.nan, 5e-324, 2.0**-1060, 1.0]),
            st.sampled_from(
                [near, math.nextafter(near, -math.inf), math.nextafter(near, math.inf)]
            ),
        )
    )


@given(data=st.data(), r_bits=st.integers(8, 64))
def test_mining_bound_agrees_with_prefix_fraction(data, r_bits):
    """The reference predicate is monotone in the prefix, so agreeing on
    both sides of the bound's edge, the first prefix it rejects, means
    agreeing everywhere; a random prefix is checked as well."""
    target = data.draw(targets(r_bits))
    bound = mining_bound(target, r_bits)
    shift = 64 - r_bits
    edge = int.from_bytes(bound[:8], "big") >> shift if len(bound) == 8 else 1 << r_bits
    assert len(bound) in (8, 33) and (len(bound) == 8 or bound == b"\xff" * 33)
    cases = [(edge - 1, (1 << shift) - 1), (edge, 0)]
    cases.append(
        (data.draw(st.integers(0, (1 << r_bits) - 1)),
         data.draw(st.integers(0, (1 << shift) - 1)))
    )
    tail = data.draw(st.binary(min_size=24, max_size=24))
    for prefix, low_bits in cases:
        if not 0 <= prefix < 1 << r_bits:
            continue
        h = ((prefix << shift) | low_bits).to_bytes(8, "big") + tail
        assert (h < bound) == (prefix_fraction(h, r_bits) < target)


def test_mining_bound_is_exact_where_the_prefix_rounds():
    """At r_bits = 64 the prefixes just below 2^60 convert to the float 2^60,
    so they fail the target 2^-4 although they are smaller than 2^60."""
    bound = mining_bound(2.0**-4, 64)
    assert bound == (2**60 - 64).to_bytes(8, "big")
    for prefix, wins in ((2**60 - 65, True), (2**60 - 64, False), (2**60 - 1, False)):
        h = prefix.to_bytes(8, "big") + bytes(24)
        assert (prefix_fraction(h, 64) < 2.0**-4) is wins
        assert (h < bound) is wins


@pytest.mark.parametrize("target", [math.nan, 0.0, -0.0, -0.5, -math.inf])
def test_mine_with_an_unwinnable_target_exhausts_q_max(target):
    g = hashlib.sha256(b"g").digest()
    assert mine(g, 5, target, 64, 16) == (None, 64)
    assert mining_bound(target, 16) == bytes(8)


@pytest.mark.parametrize("target", [1.0, 2.0, math.inf])
def test_mine_with_a_target_above_every_prefix_wins_at_once(target):
    g = hashlib.sha256(b"g").digest()
    assert mine(g, 5, target, 64, 16) == (1, 1)
    assert mining_bound(target, 16) > b"\xff" * 32


@given(
    g=st.binary(min_size=32, max_size=32),
    gen_time=st.integers(0, 1000),
    target=st.one_of(
        st.floats(-0.1, 0.2),
        st.sampled_from([math.nan, 0.0, 1e-9, 1.0 - 2.0**-16, 1.0, math.inf]),
    ),
    q_max=st.integers(1, 300),
    r_bits=st.integers(8, 64),
)
def test_mine_matches_the_reference_search(g, gen_time, target, q_max, r_bits):
    assert mine(g, gen_time, target, q_max, r_bits) == reference_mine(
        g, gen_time, target, q_max, r_bits
    )


def _simple_context(keys):
    registry = KeyRegistry()
    for k in keys:
        registry.register(k.public_bytes)
    return ValidationContext(
        params=PARAMS,
        registry=registry,
        initial_trust=0.5,
        members_at=lambda rnd: [k.node_id for k in keys],
    )


def _salted_block(key, ctx, chain, trusts, gen_time=1):
    # the eligibility lottery is a deterministic hash draw, so nudge the
    # payload until this leader qualifies; the transaction was built in the
    # round before the block
    for salt in range(200):
        tx = build_transaction(
            key, gen_time - 1, {}, {h: t - salt * 1e-9 for h, t in trusts.items()}
        )
        block, _ = propose(chain, key, gen_time, [tx], ctx)
        if block is not None:
            return block
    raise AssertionError("setup: no qualifying payload found")


def _honest_block(key, ctx, chain, gen_time=1):
    return _salted_block(key, ctx, chain, {f"h{i}": 0.99 for i in range(6)}, gen_time)


def test_propose_then_validate_round_trip():
    key = key_of("consensus-leader")
    ctx = _simple_context([key])
    chain = Chain.genesis()
    block = _honest_block(key, ctx, chain)
    ok, reason, _ = validate_block(block, chain, ctx)
    assert ok and reason == Reason.OK


def _one_block_parent(leader, other, ctx, trusts):
    """Genesis extended by a block of ``other`` that also commits a trust
    list of ``leader``, so a proposal without its own transaction draws its
    stake from the chain."""
    chain = Chain.genesis()
    prior = build_transaction(leader, 0, {other.node_id: 0.9}, trusts)
    for salt in range(200):
        tx = build_transaction(other, 0, {leader.node_id: 0.8 - salt * 1e-9}, {"h0": 0.99})
        block, _ = propose(chain, other, 1, [tx, prior], ctx)
        if block is not None:
            return chain.extended(block, 0.0)
    raise AssertionError("setup: no qualifying payload found")


@settings(max_examples=60, deadline=None)
@given(
    trusts=st.lists(st.floats(0.0, 1.0), max_size=6),
    gen_time=st.integers(2, 40),
    one_block_parent=st.booleans(),
    own_tx=st.booleans(),
    peer_tx=st.booleans(),
    reverse=st.booleans(),
)
def test_every_proposed_block_validates_on_its_parent(
    trusts, gen_time, one_block_parent, own_tx, peer_tx, reverse
):
    """Whatever ``propose`` returns is a block its validators accept, with
    the leader's stake times its average credibility as its weight; and the
    attempts it reports are those the counter search spent."""
    leader, other = key_of("propose-leader"), key_of("propose-other")
    ctx = _simple_context([leader, other])
    host_trusts = {f"h{i}": t for i, t in enumerate(trusts)}
    chain = (
        _one_block_parent(leader, other, ctx, host_trusts)
        if one_block_parent
        else Chain.genesis()
    )
    txs = []
    if own_tx:
        txs.append(build_transaction(leader, gen_time - 1, {other.node_id: 0.7}, host_trusts))
    if peer_tx:
        txs.append(build_transaction(other, gen_time - 1, {leader.node_id: 0.6}, {"h0": 0.2}))
    if reverse:
        txs.reverse()
    block, attempts = propose(chain, leader, gen_time, txs, ctx)
    if block is None:
        assert attempts in (0, PARAMS.q_max)
        return
    assert attempts == block.header.ctr
    ok, reason, weight = validate_block(block, chain, ctx)
    assert (ok, reason) == (True, Reason.OK)
    stake = compute_stake(leader_trust_values(chain, leader.node_id, block.transactions))
    avg = chain_average_credibility(
        chain, leader.node_id, ctx.members_at(gen_time), ctx.initial_trust
    )
    assert weight == stake * avg > 0.0


def test_a_leader_with_zero_stake_proposes_nothing_and_mines_nothing(monkeypatch):
    """An empty trust list has no stake, so the target is 0: an eligible
    leader gets (None, 0) without a single hash attempt."""
    leader, other = key_of("zero-stake-leader"), key_of("zero-stake-other")
    ctx = _simple_context([leader, other])
    chain = Chain.genesis()
    avg = chain_average_credibility(
        chain, leader.node_id, ctx.members_at(1), ctx.initial_trust
    )
    for salt in range(200):
        tx = build_transaction(leader, 1, {other.node_id: 0.5 - salt * 1e-9}, {})
        payload = transaction_root([tx])
        eligible, _ = check_eligibility(
            leader.node_id, PARAMS.d_cred, avg, chain.tip_hash, payload
        )
        if eligible:
            break
    else:
        raise AssertionError("setup: no eligible payload found")

    def no_mining(*args):
        raise AssertionError("mine called with a zero target")

    monkeypatch.setattr(consensus_module, "mine", no_mining)
    assert propose(chain, leader, 1, [tx], ctx) == (None, 0)


def test_a_registered_leader_outside_the_membership_is_unknown():
    """The registry alone does not make a leader: a block by a registered
    key that is not a member at its round is rejected."""
    key, outsider = key_of("consensus-leader"), key_of("consensus-outsider")
    insiders = _simple_context([key])
    ctx = _simple_context([key, outsider])
    chain = Chain.genesis()
    block = _honest_block(outsider, ctx, chain)
    assert validate_block(block, chain, ctx)[:2] == (True, Reason.OK)
    ctx.members_at = insiders.members_at
    assert validate_block(block, chain, ctx) == (False, Reason.UNKNOWN_LEADER, 0.0)


def test_a_transaction_signed_outside_the_membership_is_invalid():
    """The registry alone does not make a signer either: a member's block
    that carries a transaction signed by a registered key that has not yet
    joined is rejected, so those lists never reach chain state."""
    key, newcomer = key_of("consensus-leader"), key_of("consensus-newcomer")
    ctx = _simple_context([key, newcomer])
    chain = Chain.genesis()
    early = build_transaction(newcomer, 0, {}, {"h0": 0.2})
    for salt in range(200):
        own = build_transaction(key, 0, {}, {"h0": 0.99 - salt * 1e-9})
        block, _ = propose(chain, key, 1, [own, early], ctx)
        if block is not None:
            break
    else:
        raise AssertionError("setup: no qualifying payload found")
    assert validate_block(block, chain, ctx)[:2] == (True, Reason.OK)
    ctx.members_at = _simple_context([key]).members_at
    assert validate_block(block, chain, ctx) == (False, Reason.TX_INVALID, 0.0)


def test_a_transaction_replayed_on_the_honest_tip_is_invalid(monkeypatch):
    """After the ``baseline_honest`` run a member proposes, on the honest tip,
    a block whose only transaction is node 1's first committed one, which
    would put node 1's old trust lists back on chain.  The replay rule
    rejects it, and it is the only rule the block breaks."""
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "baseline_honest.json"
    sim = Simulation(load_config(str(scenario)))
    tip = sim.run().chain
    ctx = sim.ctx.validation_context
    signer = sim.keys[1].node_id
    first = next(tx for b in tip.blocks for tx in b.transactions if tx.ids_id == signer)
    assert tip.latest_tx[signer].seq > first.seq
    start = tip.tip.header.gen_time + 1
    replay = next(
        block
        for gen_time in range(start, start + 50)
        for key in sim.keys
        if (block := propose(tip, key, gen_time, [first], ctx)[0]) is not None
    )
    assert validate_block(replay, tip, ctx) == (False, Reason.TX_INVALID, 0.0)
    monkeypatch.setattr(Chain, "is_new", lambda chain, tx: True)
    assert validate_block(replay, tip, ctx)[:2] == (True, Reason.OK)


@pytest.mark.parametrize("seq", [1, 2])
def test_a_transaction_at_or_below_its_signers_last_is_invalid(seq):
    """Once a signer's transaction of seq 2 is committed, a block that
    commits its older transaction (seq 1), or another of seq 2, is
    rejected, so committed lists are never rolled back; a later one is
    accepted.  A block carries at most one transaction per signer, so each
    is checked against the parent alone."""
    key = key_of("consensus-leader")
    ctx = _simple_context([key])
    genesis = Chain.genesis()
    newer = _honest_block(key, ctx, genesis, gen_time=3)
    ok, _, weight = validate_block(newer, genesis, ctx)
    chain = genesis.extended(newer, weight)
    assert ok and newer.transactions[0].seq == 2

    stale = build_transaction(key, seq, {}, {"h0": 0.9})
    later = build_transaction(key, 3, {}, {"h0": 0.8})
    for txs, expected in (
        ([stale], (False, Reason.TX_INVALID)),
        ([later], (True, Reason.OK)),
        ([later, build_transaction(key, 4, {}, {"h0": 0.9})], (False, Reason.TX_ORDER)),
    ):
        block, _ = propose(chain, key, 4, txs, ctx)  # a lone member always wins
        assert validate_block(block, chain, ctx)[:2] == expected


@pytest.mark.parametrize("seq,expected", [
    (4, (True, Reason.OK)),
    (5, (False, Reason.TX_INVALID)),
    (6, (False, Reason.TX_INVALID)),
    (2**61, (False, Reason.TX_INVALID)),
])
def test_a_block_carries_only_transactions_built_before_its_round(seq, expected):
    """A transaction's seq is the round it was built in, so a block of round
    5 may carry one of seq 4 but none of seq 5 or later."""
    key = key_of("consensus-leader")
    ctx = _simple_context([key])
    chain = Chain.genesis()
    tx = build_transaction(key, seq, {}, {"h0": 0.9})
    block, _ = propose(chain, key, 5, [tx], ctx)  # a lone member always wins
    assert validate_block(block, chain, ctx)[:2] == expected


@pytest.mark.parametrize("mutate,expected", MUTATION_CLASSES)
def test_validation_reason_codes(mutate, expected):
    key = key_of("consensus-leader")
    other = key_of("consensus-other")
    ctx = _simple_context([key, other])
    chain = Chain.genesis()
    block = _honest_block(key, ctx, chain)
    mutated = mutate_block(block, mutate, PARAMS.q_max, other_key=other)
    ok, reason, weight = validate_block(mutated, chain, ctx)
    assert not ok
    assert reason == expected
    assert weight == 0.0


# -- fork choice ------------------------------------------------------------


def _fork_setup():
    strong = key_of("fork-strong")
    weak = key_of("fork-weak")
    ctx = _simple_context([strong, weak])
    chain = Chain.genesis()
    sharp = {f"h{i}": 0.99 for i in range(6)}
    flat = {f"h{i}": 0.55 for i in range(6)}
    strong_block = _salted_block(strong, ctx, chain, sharp)
    weak_block = _salted_block(weak, ctx, chain, flat)
    return chain, ctx, [strong_block], [weak_block]


def test_fork_choice_prefers_higher_stake_times_credibility():
    """A replica offered two competing blocks on genesis follows the one of
    higher stake x credibility, in either delivery order, in one round or
    in two."""
    chain, ctx, [strong], [weak] = _fork_setup()
    trust_params = TrustParams(
        forgetting=0.9, severity=1.0, cred_threshold=0.8, initial_trust=0.5,
        blacklist_threshold=0.2, interval_len=50,
    )
    members = ctx.members_at(1)
    for order in ([weak, strong], [strong, weak]):
        for rounds in ([order], [[b] for b in order]):
            runtime = RuntimeContext(
                seed=1,
                trust_params=trust_params,
                validation_context=ctx,
                index_of={m: i for i, m in enumerate(members)},
                host_ids=[],
                host_pmal={},
                network=NetParams(),
            )
            node = Node(runtime, 0, key_of("fork-observer"), Behavior(), [])
            for delivered in rounds:
                node._ingest_blocks(delivered)
            scores = {b: node._received[hash_block(b)].score for b in (strong, weak)}
            assert scores[strong] > scores[weak] > 0.0
            assert node.replica.tip == strong


def test_chain_average_credibility_fills_unreported_members():
    key = key_of("avg-target")
    ctx = _simple_context([key])
    # nobody has reported: every other member counts at the newcomer value
    avg = chain_average_credibility(Chain.genesis(), "x", ["x", "y", "z"], 0.5)
    assert avg == pytest.approx((1.0 + 0.5 + 0.5) / 3.0)
