"""Node behavior loop: challenges, adversarial distortion, and the full
round loop wired through the simulation driver."""

import gc
import hashlib
import random
from collections import Counter
from types import FunctionType, ModuleType, SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest, kstest

from cidnsim import chain as chain_module
from cidnsim import consensus as consensus_module
from cidnsim import node as node_module
from cidnsim.chain import (
    Chain,
    build_transaction,
    hash_block,
    make_block,
)
from cidnsim.config import NetParams, config_from_dict
from cidnsim.consensus import (
    ConsensusParams,
    Reason,
    ValidationContext,
    chain_average_credibility,
    compute_stake,
    leader_trust_values,
    propose,
)
from cidnsim.keys import KeyPair, KeyRegistry
from cidnsim.netsim import (
    KIND_BLOCK,
    KIND_CHALLENGE,
    KIND_RESPONSE,
    KIND_TRANSACTION,
    Message,
    Network,
    host_traffic,
    keyed_draws,
)
from cidnsim.node import Behavior, Node, RuntimeContext
from cidnsim.simulation import Simulation, key_for, membership
from cidnsim.trust import UNSURE, HostTrustState, PeerTrustState, TrustParams
from mutations import MUTATION_CLASSES, mutate_block
from oracles import last_seqs, replay_check

TP = TrustParams(
    forgetting=0.9,
    severity=1.0,
    cred_threshold=0.8,
    initial_trust=0.5,
    blacklist_threshold=0.2,
    interval_len=50,
)
CP = ConsensusParams(d_cred=1.0, d_stake=0.05, r_bits=16, q_max=4096, t_cap=16)


def make_node(behavior: Behavior, n_nodes: int = 2, know_prob: float = 1.0) -> Node:
    keys = [
        KeyPair.from_seed(hashlib.sha256(f"node-test-{i}".encode()).digest())
        for i in range(n_nodes)
    ]
    registry = KeyRegistry()
    for k in keys:
        registry.register(k.public_bytes)
    ids = [k.node_id for k in keys]
    groups = {ids[0]: 0} if behavior.kind == "collusion" else {}
    ctx = RuntimeContext(
        seed=1,
        trust_params=TP,
        validation_context=ValidationContext(CP, registry, TP.initial_trust, lambda rnd: ids),
        index_of={nid: i for i, nid in enumerate(ids)},
        host_ids=["10.9.0.1"],
        host_pmal={"10.9.0.1": 0.0},
        network=NetParams(challenge_prob=1.0),
        collusion_groups=groups,
    )
    monitors = [] if behavior.kind == "sybil" else ["10.9.0.1"]
    node = Node(ctx, 0, keys[0], behavior, monitors, know_prob=know_prob)
    node.other_ids = ids[1:]
    return node


def answer(node: Node, priority: float = 0.8, rnd: int = 5):
    """The node's answer to a challenge of ``priority`` from its first peer."""
    return node.answer_challenge(node.other_ids[0], priority, rnd)


# -- challenge responses ----------------------------------------------------


def test_honest_node_echoes_priority_when_knowledgeable():
    node = make_node(Behavior(kind="honest"))
    assert answer(node, 0.8, rnd=5) == 0.8


def test_ignorant_node_answers_unsure():
    node = make_node(Behavior(kind="honest"), know_prob=0.0)
    assert answer(node, rnd=5) is UNSURE


def count_keyed_draws(monkeypatch) -> Counter:
    """The nodes' keyed draws from now on, counted by purpose."""
    purposes = Counter()
    draw = node_module.keyed_draws

    def counted(seed, purpose, *key):
        purposes[purpose] += 1
        return draw(seed, purpose, *key)

    monkeypatch.setattr(node_module, "keyed_draws", counted)
    return purposes


@pytest.mark.parametrize("know_prob,draws", [(1.0, 0), (0.0, 0), (0.5, 1)])
def test_a_node_draws_a_response_stream_only_where_the_draw_decides(
    monkeypatch, know_prob, draws
):
    """A draw lies in [0, 1), so a node that always or never knows answers
    without drawing."""
    purposes = count_keyed_draws(monkeypatch)
    node = make_node(Behavior(kind="honest"), know_prob=know_prob)
    assert answer(node, 0.8, rnd=5) in (0.8, UNSURE)
    assert purposes["response"] == draws


def challenged(challenge_prob: float, n_peers: int, rounds: int) -> list[dict[str, float]]:
    """Each round's priorities of a node that may challenge ``n_peers`` peers."""
    node = make_node(Behavior(kind="honest"))
    peers = [f"peer-{k}" for k in range(n_peers)]
    node.ctx.index_of.update({peer: k + 2 for k, peer in enumerate(peers)})
    node.ctx.network = NetParams(challenge_prob=challenge_prob)
    return [node._issue_challenges([node.node_id, *peers], rnd) for rnd in range(rounds)]


def test_challenge_decisions_follow_the_challenge_probability():
    """Binomial test of 20,000 keyed (peer, round) decisions against 0.3."""
    picked = sum(map(len, challenged(0.3, 100, 200)))
    assert binomtest(picked, 20_000, 0.3).pvalue > 1e-3


def test_challenge_priorities_are_uniform():
    """Kolmogorov-Smirnov test of 20,000 keyed priorities against U(0, 1)."""
    priorities = [u for rnd in challenged(1.0, 100, 200) for u in rnd.values()]
    assert len(priorities) == 20_000
    assert kstest(priorities, "uniform").pvalue > 1e-3


def reachable_randoms(root) -> list[random.Random]:
    """Every ``random.Random`` reachable from ``root`` through containers,
    instances and closures, without entering classes or modules."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, random.Random):
            found.append(obj)
        elif isinstance(obj, FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return found


def test_no_node_or_network_holds_a_stream_per_peer_pair(monkeypatch):
    """After a lossy, delayed, noisy run in which every answer is drawn, no
    node and not the network holds a random stream."""
    config = small_config(
        rounds=15,
        network={"challenge_prob": 0.5, "drop_prob": 0.2, "delay_rounds": 2},
        nodes=[{"fp": 0.02, "fn": 0.02, "know_prob": 0.5} for _ in range(5)],
    )
    purposes = count_keyed_draws(monkeypatch)
    sim = Simulation(config)
    sim.run()
    assert reachable_randoms(sim.network) == []
    for node in sim.nodes:
        assert node.monitors
        assert reachable_randoms(node) == []
    assert purposes["challenge"] > 0 and purposes["response"] > 0
    assert purposes["traffic"] > 0


def traffic_counts(blacklisted: set[int]) -> dict[tuple[str, int], int]:
    """Node 1's normal count for each (host, round) of rounds 1-12, with all
    its hosts held blacklisted, and so not measured, in ``blacklisted``."""
    node = Simulation(small_config()).nodes[1]
    counts = {}
    for rnd in range(1, 13):
        for ip in node.monitors:
            node.host_trust[ip] = HostTrustState(tr_ids=0.1 if rnd in blacklisted else 0.5)
        node._measure_traffic(rnd)
        if rnd not in blacklisted:
            for ip in node.monitors:
                counts[(ip, rnd)] = node.evidence[ip].normal_count
    return counts


def test_a_traffic_count_is_the_draw_keyed_by_its_node_host_and_round():
    """A round without measurement shifts no later count: each count is the
    keyed draw of (node, host, round), whatever came before."""
    counts = traffic_counts(set())
    assert len(set(counts.values())) > 1
    skipped = {3, 4, 7}
    assert traffic_counts(skipped) == {
        key: k for key, k in counts.items() if key[1] not in skipped
    }
    config = small_config()
    host_ids = Simulation(config).host_ids
    for (ip, rnd), k in counts.items():
        h = host_ids.index(ip)
        u = keyed_draws(config.rng_seed, "traffic", 1, h, rnd)[0]
        assert host_traffic(config.hosts[h].p_mal, 0.02, 0.02, 50, u) == (k, 50)


def test_sybil_always_unsure():
    node = make_node(Behavior(kind="sybil", spawn_round=3))
    assert answer(node, rnd=50) is UNSURE


def test_betrayal_flips_answers_only_after_turning():
    node = make_node(Behavior(kind="betrayal", turn_round=10))
    assert answer(node, 0.8, rnd=9) == 0.8
    assert answer(node, 0.8, rnd=10) == pytest.approx(0.2)


def test_colluder_lies_on_challenges():
    node = make_node(Behavior(kind="collusion", group_id=0))
    assert answer(node, 0.1, rnd=5) == pytest.approx(0.9)


def recorded_challenges(monkeypatch) -> dict:
    """(sender, round) -> (the challenge message's payload, a copy of it), for
    every challenge message sent from now on."""
    sent = {}
    send = Network.send

    def recorded(net, kind, sender, receivers, payload, rnd):
        if kind == KIND_CHALLENGE:
            sent[sender, rnd] = (payload, dict(payload))
        send(net, kind, sender, receivers, payload, rnd)

    monkeypatch.setattr(Network, "send", recorded)
    return sent


@pytest.mark.parametrize("delay", [0, 1, 2, 3])
def test_challenges_no_response_can_answer_are_forgotten(monkeypatch, delay):
    """Under loss a node holds at most 2 max(d, 1) rounds of challenges (and,
    challenging every round, reaches that), each response arriving in round
    r is evaluated against the priority that the node's challenge message of
    round r - 2 max(d, 1) carried, and no (challenger, peer, sent round) is
    evaluated twice."""
    config = small_config(
        rounds=60,
        network={"challenge_prob": 1.0, "drop_prob": 0.1, "delay_rounds": delay},
    )
    latency = max(delay, 1)
    sent = recorded_challenges(monkeypatch)
    now = []
    run_round = Node.run_round

    def timed(node, deliveries, rnd):
        now.append(rnd)
        return run_round(node, deliveries, rnd)

    evaluate = Node._evaluate_response
    mismatched = []
    evaluated = Counter()

    def checked(node, peer, expected, answer):
        sent_round = now[-1] - 2 * latency
        if expected != sent[node.node_id, sent_round][1][peer]:
            mismatched.append((node.node_id, peer, sent_round, expected))
        evaluated[node.node_id, peer, sent_round] += 1
        evaluate(node, peer, expected, answer)

    monkeypatch.setattr(Node, "run_round", timed)
    monkeypatch.setattr(Node, "_evaluate_response", checked)
    held = []

    def check(sim, rnd):
        held.extend(len(n.outstanding) for n in sim.nodes)

    Simulation(config).run(round_hook=check)
    assert max(held) == 2 * latency
    assert mismatched == []
    assert evaluated and max(evaluated.values()) == 1


def test_a_node_holds_the_priorities_its_challenge_message_carried(monkeypatch):
    """``outstanding[r]`` is the very dict the round-r challenge message
    carried, and no one edits it after it is sent."""
    config = small_config(
        rounds=30,
        network={"challenge_prob": 0.5, "drop_prob": 0.1, "delay_rounds": 1},
    )
    sent = recorded_challenges(monkeypatch)
    held = Counter()

    def check(sim, rnd):
        for n in sim.nodes:
            for sent_round, priorities in n.outstanding.items():
                assert priorities is sent[n.node_id, sent_round][0]
                held[n.node_id] += 1
        assert all(now == then for now, then in sent.values())

    Simulation(config).run(round_hook=check)
    assert len(held) == len(config.nodes)


def test_the_peers_a_node_never_evaluated_share_one_fresh_state(monkeypatch):
    """Every peer a node has not yet evaluated, whether met at the first
    round or at a later spawn round, holds the one fresh state of the run."""
    config = small_config(
        rounds=10,
        network={"challenge_prob": 0.3, "delay_rounds": 2},
        nodes=[{"fp": 0.02, "fn": 0.02} for _ in range(4)]
        + [{"behavior": {"kind": "sybil", "spawn_round": 6}}],
    )
    evaluate = Node._evaluate_response
    evaluated = set()

    def recorded(node, peer, expected, answer):
        evaluated.add((node.node_id, peer))
        evaluate(node, peer, expected, answer)

    monkeypatch.setattr(Node, "_evaluate_response", recorded)
    sim = Simulation(config)
    sim.run()
    fresh = sim.ctx.fresh_peer
    assert fresh == PeerTrustState.fresh(config.trust)
    spawned = set()
    for n in sim.nodes:
        for peer, state in n.peer_trust.items():
            if (n.node_id, peer) not in evaluated:
                assert state is fresh
                spawned.add(config.nodes[sim.ctx.index_of[peer]].behavior.spawn_round)
    assert evaluated and spawned == {0, 6}


def test_a_round_sends_at_most_one_challenge_and_one_response_message_per_member(
    monkeypatch,
):
    config = small_config(rounds=12, network={"challenge_prob": 1.0})
    sends = Counter()
    send = Network.send

    def counted(net, kind, sender, receivers, payload, rnd):
        sends[rnd, kind, sender] += 1
        send(net, kind, sender, receivers, payload, rnd)

    monkeypatch.setattr(Network, "send", counted)
    sim = Simulation(config)
    sim.run()
    assert max(sends.values()) == 1
    # every member challenges every round, and answers from the second on
    members = [n.node_id for n in sim.nodes]
    for rnd in range(1, config.rounds + 1):
        assert [sends[rnd, KIND_CHALLENGE, m] for m in members] == [1] * len(members)
        assert [sends[rnd, KIND_RESPONSE, m] for m in members] == [rnd > 1] * len(members)


def test_broadcast_includes_sender(monkeypatch):
    """A node's transaction and block name every member at the round they are
    sent, the node itself included, as the membership grows."""
    config = small_config(
        nodes=[{"fp": 0.02, "fn": 0.02} for _ in range(4)]
        + [{"behavior": {"kind": "sybil", "spawn_round": 6}}]
    )
    sent = []
    send = Network.send

    def recorded(net, kind, sender, receivers, payload, rnd):
        sent.append((kind, sender, receivers, rnd))
        send(net, kind, sender, receivers, payload, rnd)

    monkeypatch.setattr(Network, "send", recorded)
    sim = Simulation(config)
    sim.run()
    members_at = sim.ctx.validation_context.members_at
    published = [s for s in sent if s[0] in (KIND_TRANSACTION, KIND_BLOCK)]
    assert {kind for kind, *_ in published} == {KIND_TRANSACTION, KIND_BLOCK}
    assert {len(receivers) for _, _, receivers, _ in published} == {4, 5}
    for kind, sender, receivers, rnd in published:
        assert sender in receivers
        assert receivers == tuple(members_at(rnd))


def test_behavior_schedule():
    assert not Behavior(kind="honest").is_adversarial_at(10**6)
    assert Behavior(kind="sybil").is_adversarial_at(0)
    b = Behavior(kind="betrayal", turn_round=40)
    assert not b.is_adversarial_at(39)
    assert b.is_adversarial_at(40)


# -- published list distortion ----------------------------------------------


def test_honest_lists_are_undistorted():
    node = make_node(Behavior(kind="honest"))
    assert node.distorted_lists(5) == node.current_lists()


def test_betrayal_inverts_all_published_scores():
    node = make_node(Behavior(kind="betrayal", turn_round=10))
    creds, trusts = node.current_lists()
    d_creds, d_trusts = node.distorted_lists(10)
    assert d_creds == {p: pytest.approx(1.0 - c) for p, c in creds.items()}
    assert d_trusts == {h: pytest.approx(1.0 - t) for h, t in trusts.items()}


def test_colluder_boosts_accomplices_and_inverts_the_rest():
    node = make_node(Behavior(kind="collusion", group_id=0))
    node.ctx.collusion_groups[node.other_ids[0]] = 0
    node._sync_peers(1)
    d_creds, d_trusts = node.distorted_lists(1)
    assert d_creds[node.other_ids[0]] == 1.0
    _, trusts = node.current_lists()
    assert d_trusts == {h: pytest.approx(1.0 - t) for h, t in trusts.items()}


def test_sybil_empty_strategy_publishes_no_trust_scores():
    node = make_node(Behavior(kind="sybil", strategy="empty"))
    _, trusts = node.distorted_lists(5)
    assert trusts == {}


def test_sybil_invert_strategy_flips_the_committed_mean():
    node = make_node(Behavior(kind="sybil", strategy="invert"))
    _, trusts = node.distorted_lists(5)
    # nothing committed yet: the fabricated score flips the 0.5 default
    assert trusts == {"10.9.0.1": pytest.approx(0.5)}


# -- integration through the driver ----------------------------------------


def small_config(**overrides):
    d = {
        "schema_version": 1,
        "rounds": 25,
        "rng_seed": 7,
        "trust": {
            "forgetting": 0.9,
            "severity": 1.0,
            "cred_threshold": 0.8,
            "initial_trust": 0.5,
            "blacklist_threshold": 0.2,
            "interval_len": 50,
        },
        "consensus": {"d_cred": 1.0, "d_stake": 0.05, "r_bits": 16, "q_max": 4096, "t_cap": 16},
        "network": {"challenge_prob": 0.5},
        "hosts": [{"p_mal": 0.0}, {"p_mal": 0.9}],
        "nodes": [{"fp": 0.02, "fn": 0.02} for _ in range(5)],
    }
    d.update(overrides)
    return config_from_dict(d)


@settings(max_examples=30, deadline=None)
@given(
    rounds=st.integers(1, 12),
    spawns=st.lists(st.integers(0, 12), max_size=6),
    honest_at=st.integers(0, 6),
)
def test_the_members_at_a_round_are_one_tuple_per_spawn_round(rounds, spawns, honest_at):
    """``members_at(r)`` lists the nodes spawned by round r in node order,
    and is one object for every round up to the next spawn round."""
    nodes = [{"behavior": {"kind": "sybil", "spawn_round": min(s, rounds)}} for s in spawns]
    nodes.insert(min(honest_at, len(nodes)), {"fp": 0.0, "fn": 0.0})
    config = small_config(rounds=rounds, nodes=nodes, hosts=[{"p_mal": 0.0}])
    keys, ctx = membership(config)
    spawn = [spec.behavior.spawn_round for spec in config.nodes]
    for rnd in range(-1, rounds + 2):
        members = ctx.members_at(rnd)
        assert list(members) == [k.node_id for k, s in zip(keys, spawn) if s <= rnd]
        assert (ctx.members_at(rnd + 1) is members) == (rnd + 1 not in spawn)


def test_a_mean_election_score_divides_by_the_rounds_the_node_was_scored(monkeypatch):
    """A node is scored in every round from max(spawn_round, 1) on, and its
    mean divides its summed score by the number of those rounds.  A fake that
    joins by round 2 receives every block, and so scores above 0."""
    config = small_config(
        rounds=12,
        nodes=[{"fp": 0.02, "fn": 0.02}] * 2
        + [{"behavior": {"kind": "sybil", "spawn_round": s}} for s in (1, 2, 12)],
    )
    accumulate = Simulation._accumulate_election_scores
    scored = Counter()
    sums = {}

    def counted(sim, rnd, members, score_sums):
        accumulate(sim, rnd, members, score_sums)
        scored.update(members)
        sums.update(score_sums)

    monkeypatch.setattr(Simulation, "_accumulate_election_scores", counted)
    sim = Simulation(config)
    summaries = sim.run().node_summaries
    assert [scored[n.node_id] for n in sim.nodes] == [12, 12, 12, 11, 1]
    for n in sim.nodes:
        mean = summaries[n.node_id]["mean_election_score"]
        assert mean == sums[n.node_id] / scored[n.node_id]
    assert all(sums[n.node_id] > 0 for n in sim.nodes[:4])


def test_single_node_network_still_commits_blocks():
    config = small_config(nodes=[{"fp": 0.0, "fn": 0.0}], hosts=[{"p_mal": 0.0}])
    result = Simulation(config).run()
    assert len(result.rounds) == 25
    assert result.chain.height > 4  # a lone, fully credible node mines freely
    assert replay_check(result.chain)


def test_identical_honest_observers_agree_on_benign_host():
    # with a perfect detector and symmetric challenge traffic the two
    # observers are interchangeable, so their accumulated scores coincide
    config = small_config(
        rounds=50,
        nodes=[{"fp": 0.0, "fn": 0.0}, {"fp": 0.0, "fn": 0.0}],
        hosts=[{"p_mal": 0.0}],
        network={"challenge_prob": 1.0},
    )
    sim = Simulation(config)
    sim.run()
    trails = [n.host_trust["10.0.0.1"].tr_ids for n in sim.nodes]
    assert trails[0] == pytest.approx(trails[1], abs=1e-6)
    assert trails[0] > 0.9


def test_malicious_host_gets_blacklisted_and_benign_does_not():
    sim = Simulation(small_config())
    sim.run()
    malicious = sim.host_ids[1]
    benign = sim.host_ids[0]
    for n in sim.nodes:
        assert malicious in n.blacklist
        assert benign not in n.blacklist


def test_replica_tip_matches_fork_choice_oracle():
    """The incremental fork choice inside Node must agree with a from-scratch
    recomputation over the same block tree: each leaf scores the sum, from
    genesis, of its blocks' leader stake x average credibility on their
    parent chains; the best leaf has the highest score, ties toward the
    smallest hash."""
    sim = Simulation(small_config())
    sim.run()
    node = sim.nodes[0]
    vctx = node.ctx.validation_context

    def score(chain: Chain) -> float:
        total, parent = 0.0, Chain.genesis()
        for b in chain.blocks[1:]:
            leader = b.header.leader_id
            stake = compute_stake(leader_trust_values(parent, leader, b.transactions))
            members = vctx.members_at(b.header.gen_time)
            total += stake * chain_average_credibility(parent, leader, members, vctx)
            parent = parent.extended(b, 0.0)
        return total

    leaves = [node._received[leaf] for leaf in node._leaves]
    for leaf in leaves:
        assert node._received[leaf.tip_hash].rank == (-score(leaf), leaf.tip_hash)
    best = min(leaves, key=lambda c: (-score(c), c.tip_hash))
    assert node.replica.tip_hash == best.tip_hash


class ScoredStore:
    """A block store that admits every block with a preset cumulative score."""

    def __init__(self, genesis, scores):
        self.genesis = genesis
        self.scores = scores

    def admit(self, b, parent, ctx):
        h = hash_block(b)
        return Reason.OK, SimpleNamespace(tip_hash=h, rank=(-self.scores[h], h))


@st.composite
def block_trees(draw):
    """Parent index (-1 for genesis) and cumulative score of each block, in
    creation order, and a delivery order cut into rounds."""
    n = draw(st.integers(1, 12))
    parents = [draw(st.integers(-1, i - 1)) for i in range(n)]
    scores = [draw(st.sampled_from([0.0, 1.0, 2.0, 3.0])) for _ in range(n)]
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, max(1, n - 1)), max_size=4)))
    return parents, scores, order, cuts


@settings(max_examples=40, deadline=None)
@given(tree=block_trees())
def test_incremental_fork_choice_tracks_the_best_leaf(tree):
    """After every round of deliveries, in any order and with ties, the
    replica's tip is the minimum over all leaves of (-score, hash)."""
    parents, scores, order, cuts = tree
    node = make_node(Behavior())
    genesis = node.ctx.block_store.genesis
    blocks, score_of = [], {genesis.tip_hash: 0.0}
    for i, (parent, score) in enumerate(zip(parents, scores)):
        prev = genesis.tip_hash if parent < 0 else hash_block(blocks[parent])
        b = make_block(node.key, i + 1, prev, 1, 0.5, [])
        blocks.append(b)
        score_of[hash_block(b)] = score
    node.ctx.block_store = ScoredStore(genesis, score_of)
    for lo, hi in zip([0] + cuts, cuts + [len(order)]):
        node._ingest_blocks([blocks[i] for i in order[lo:hi]])
        best = min(node._leaves, key=lambda h: (-score_of[h], h))
        assert node.replica.tip_hash == best
    assert not node._orphans


@st.composite
def committing_trees(draw):
    """A block tree whose blocks each carry one transaction of a small pool
    signed by one node, with sequence numbers that may repeat or fall, so a
    transaction sits in blocks at several heights and on several branches
    and some blocks replay or roll back; and a delivery order per replica,
    cut into rounds."""
    n = draw(st.integers(1, 8))
    seqs = draw(st.lists(st.integers(1, 3), min_size=4, max_size=4))
    parents = [draw(st.integers(-1, i - 1)) for i in range(n)]
    payloads = [draw(st.integers(0, 3)) for _ in range(n)]
    deliveries = []
    for _ in range(2):
        order = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, max(1, n - 1)), max_size=3)))
        deliveries.append((order, cuts))
    return seqs, parents, payloads, deliveries


@settings(max_examples=30, deadline=None)
@given(tree=committing_trees())
def test_the_store_commit_check_agrees_with_a_scan_of_the_replica(tree):
    """Two replicas sharing one block store receive the same tree in
    different orders.  After every round, against a scan of the blocks: a
    delivered block whose parent was admitted is admitted exactly when its
    transaction's sequence number is above the signer's last on the parent,
    the replica's state holds each signer's last transaction, and exactly
    the pending transactions at or below the replica's last number leave."""
    seqs, parents, payloads, deliveries = tree
    first = make_node(Behavior(), n_nodes=1)
    replicas = [first, Node(first.ctx, 1, first.key, Behavior(), ["10.9.0.1"])]
    store, vctx = first.ctx.block_store, first.ctx.validation_context
    pool = [
        build_transaction(first.key, seq, {}, {"10.9.0.1": 0.9 + i / 100})
        for i, seq in enumerate(seqs)
    ]
    chains, blocks = [], []
    for i, (parent, j) in enumerate(zip(parents, payloads)):
        base = store.genesis if parent < 0 else chains[parent]
        # each block's round is above every seq in the pool
        block, _ = propose(base, first.key, i + 4, [pool[j]], vctx)
        assert block is not None  # a lone member is always eligible
        blocks.append(block)
        chains.append(base.extended(block, 0.0))

    signer = first.node_id
    for node, (order, cuts) in zip(replicas, deliveries):
        for lo, hi in zip([0] + cuts, cuts + [len(order)]):
            node._ingest_blocks([blocks[i] for i in order[lo:hi]])
            for i in order[:hi]:
                parent = node._received.get(blocks[i].header.prev_hash)
                if parent is not None:
                    new = pool[payloads[i]].seq > last_seqs(parent).get(signer, 0)
                    assert (hash_block(blocks[i]) in node._received) == new
            assert replay_check(node.replica)
            last = last_seqs(node.replica).get(signer, 0)
            node.pending_txs = {str(j): tx for j, tx in enumerate(pool)}
            node._drop_committed_pending()
            assert list(node.pending_txs.values()) == [tx for tx in pool if tx.seq > last]


def test_transaction_verdict_is_computed_once_and_keyed_on_every_field(monkeypatch):
    key = key_for(1, 0)
    registry = KeyRegistry()
    registry.register(key.public_bytes)
    tx = build_transaction(key, 1, {}, {"10.0.0.1": 0.7})
    calls = []
    verify = consensus_module.verify_transaction
    monkeypatch.setattr(
        consensus_module,
        "verify_transaction",
        lambda t, r: calls.append(t) or verify(t, r),
    )
    ctx = ValidationContext(CP, registry, 0.5, lambda rnd: [key.node_id])
    assert ctx.transaction_ok(tx)
    assert ctx.transaction_ok(tx)
    assert len(calls) == 1
    # same id and signature over a different body: a fresh check, which fails
    forged = tx._replace(trust_list=(0.1,))
    assert (forged.tx_id, forged.signature) == (tx.tx_id, tx.signature)
    assert not ctx.transaction_ok(forged)
    assert ctx.transaction_ok(tx)
    assert len(calls) == 2


def test_block_validation_reuses_the_transaction_verdicts(monkeypatch):
    """A block whose transactions a replica already accepted is validated
    without checking any of them again, in every replica of the run."""
    calls = []
    verify = chain_module.verify_transaction
    for module in (chain_module, consensus_module, node_module):
        if getattr(module, "verify_transaction", None) is verify:
            monkeypatch.setattr(
                module,
                "verify_transaction",
                lambda t, r: calls.append(t.tx_id) or verify(t, r),
            )
    sim = Simulation(small_config())
    result = sim.run()
    assert result.chain.height >= 1
    assert len(calls) == len(set(calls))
    committed = {tx.tx_id for b in result.chain.blocks for tx in b.transactions}
    assert committed <= set(calls)


def test_committed_state_survives_replay():
    sim = Simulation(small_config())
    result = sim.run()
    assert replay_check(result.chain)
    assert result.chain.height <= 25


def _first_block_with_transactions(config):
    """A valid block on genesis, taken from a run of ``config``."""
    block = Simulation(config).run().chain.blocks[1]
    assert block.transactions
    return block


def test_forged_signature_copy_does_not_shadow_the_genuine_block():
    """A copy with a flipped leader signature, or with a flipped claimed block
    id, has the same hash_block as the genuine block; rejecting it first must
    not make any replica reject the genuine block afterwards, and delivered
    after the genuine block it is rejected, not skipped as a duplicate."""
    config = small_config()
    genuine = _first_block_with_transactions(config)
    rnd = genuine.header.gen_time
    for how, reason in (("signature", Reason.LEADER_SIGNATURE), ("block_id", Reason.BLOCK_ID)):
        forged = mutate_block(genuine, how, config.consensus.q_max)
        assert hash_block(forged) == hash_block(genuine)
        for order in ((forged, genuine), (genuine, forged)):
            sim = Simulation(config)
            for node in sim.nodes:
                delivered = [
                    Message(KIND_BLOCK, genuine.header.leader_id, b, rnd)
                    for b in order
                ]
                node.run_round(delivered, rnd)
                assert node.invalid_blocks == 1
                assert node.invalid_reasons == {reason: 1}
                assert node.replica.tip == genuine


def test_invalid_reason_counts_add_up_to_invalid_blocks():
    config = small_config()
    genuine = _first_block_with_transactions(config)
    other = key_for(config.rng_seed, 1)
    # a wrong prev_hash leaves the block an orphan, which is never validated
    mutated = [
        mutate_block(genuine, how, config.consensus.q_max, other_key=other)
        for how, _ in MUTATION_CLASSES
        if how != "prev_hash"
    ]
    sim = Simulation(config)
    members = tuple(n.node_id for n in sim.nodes)
    for b in mutated:
        sim.network.send(KIND_BLOCK, genuine.header.leader_id, members, b, 0)
    result = sim.run()

    expected = {reason for how, reason in MUTATION_CLASSES if how != "prev_hash"}
    for summary in result.node_summaries.values():
        reasons = summary["invalid_reasons"]
        assert sum(reasons.values()) == summary["invalid_blocks"]
        assert set(reasons) >= expected
    total = sum(s["invalid_blocks"] for s in result.node_summaries.values())
    assert total == result.rounds[-1]["invalid_blocks"] >= len(mutated) * len(sim.nodes)


def test_a_run_holds_each_encoding_and_list_map_once():
    """After a run no stored block keeps more than its 32-byte transaction
    root and id, each transaction keeps two bytes values, its encoding and
    that encoding's 32-byte digest, and every chain that commits a
    transaction holds that transaction itself as its signer's latest, so
    forks that commit the same transaction share it and its maps."""
    sim = Simulation(small_config())
    sim.run()
    chains = [c for _, c in sim.ctx.block_store._entries.values() if c is not None]

    def memos(record):
        """The values a record holds in its slots beyond its fields."""
        return [
            getattr(record, n) for n in record.__slots__
            if n not in record._fields and hasattr(record, n)
        ]

    forks_of = Counter()
    for chain in chains:
        b = chain.tip
        kept = memos(b)
        # the memoized root and id only
        assert all(v in (b.payload_bytes(), hash_block(b)) and len(v) == 32 for v in kept)
        for tx in b.transactions:
            held = [v for v in memos(tx) if isinstance(v, bytes)]
            assert len(held) == 2 and held[0] is tx.encode() and held[1] is tx.digest()
            assert tx.digest() == hashlib.sha256(tx.encode()).digest()
            assert chain.latest_tx[tx.ids_id] is tx
            forks_of[id(tx)] += 1
    assert max(forks_of.values()) >= 2, "no transaction was committed on two forks"
