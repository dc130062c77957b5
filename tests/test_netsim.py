"""Deterministic message fabric and the traffic generator."""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom, binomtest, chisquare

from cidnsim import netsim
from cidnsim.netsim import (
    KIND_BLOCK,
    KIND_CHALLENGE,
    KIND_RESPONSE,
    KIND_TRANSACTION,
    Network,
    derived_rng,
    host_traffic,
    keyed_draws,
)


def delivered_count(net: Network, rnd: int = 10**9) -> int:
    """How many messages ``step`` delivers by ``rnd`` (by default, all)."""
    return sum(map(len, net.step(rnd).values()))


def test_send_delivers_once_in_order():
    net = Network(seed=1)
    net.send(KIND_RESPONSE, "a", ("b",), "resp", rnd=1)
    net.send(KIND_CHALLENGE, "a", ("b",), "ch", rnd=1)
    net.send(KIND_TRANSACTION, "a", ("b",), "tx", rnd=1)
    net.send(KIND_BLOCK, "a", ("b",), "blk", rnd=1)
    delivered = net.step(1)
    # in the order of sending
    assert [m.payload for m in delivered["b"]] == ["resp", "ch", "tx", "blk"]
    assert net.step(2) == {}
    assert delivered_count(net) == 0


def test_delay_holds_messages():
    net = Network(seed=1, delay_rounds=2)
    net.send(KIND_TRANSACTION, "a", ("b",), "late", rnd=1)
    assert net.step(1) == {}
    assert net.step(2) == {}
    assert net.step(3)["b"][0].payload == "late"


def test_drop_probability_extremes():
    always = Network(seed=7, drop_prob=0.999999999)
    for rnd in range(100):
        always.send(KIND_TRANSACTION, "a", ("b",), rnd, rnd)
    assert delivered_count(always) == 0

    never = Network(seed=7, drop_prob=0.0)
    for rnd in range(100):
        never.send(KIND_TRANSACTION, "a", ("b",), rnd, rnd)
    assert delivered_count(never) == 100


def test_drop_rate_is_roughly_calibrated():
    net = Network(seed=3, drop_prob=0.3)
    for i in range(20_000):
        net.send(KIND_TRANSACTION, "a", ("b",), i, i)
    survived = delivered_count(net)
    assert survived / 20_000 == pytest.approx(0.7, abs=0.02)


def test_drop_streams_are_per_pair():
    """Traffic on one link never perturbs the loss pattern of another."""

    def survivors(extra_link: bool) -> list[int]:
        net = Network(seed=5, drop_prob=0.5)
        out = []
        for i in range(200):
            if extra_link:
                net.send(KIND_TRANSACTION, "a", ("c",), i, i)
            net.send(KIND_TRANSACTION, "a", ("b",), i, i)
        for m in net.step(200).get("b", []):
            out.append(m.payload)
        return out

    assert 0 < len(survivors(False)) < 200
    assert survivors(False) == survivors(True)


def test_keyed_drops_follow_the_drop_probability():
    """Binomial test of 20,000 keyed copies, over every kind, five receivers
    and 1,000 rounds, against a survival rate of 0.7."""
    net = Network(seed=3, drop_prob=0.3)
    kinds = (KIND_TRANSACTION, KIND_BLOCK, KIND_CHALLENGE, KIND_RESPONSE)
    for rnd in range(1000):
        for kind in kinds:
            net.send(kind, "a", ("a", "b", "c", "d", "e"), None, rnd)
    assert binomtest(delivered_count(net), 20_000, 0.7).pvalue > 1e-3


def test_an_extra_message_leaves_every_other_delivery_unchanged():
    """A drop is keyed by its own message, so one more message of another
    kind between one pair shifts the fate of no other copy."""

    def delivered(extra: bool) -> dict[str, list]:
        net = Network(seed=5, drop_prob=0.3)
        for rnd in range(200):
            net.send(KIND_TRANSACTION, "a", ("b", "c"), ("tx", rnd), rnd)
            if extra and rnd == 20:
                net.send(KIND_CHALLENGE, "a", ("b",), "extra", rnd)
            net.send(KIND_BLOCK, "a", ("b", "c"), ("blk", rnd), rnd)
        return {
            r: [m.payload for m in inbox if m.payload != "extra"]
            for r, inbox in net.step(10**9).items()
        }

    assert delivered(True) == delivered(False)


def test_a_lossless_network_makes_no_draw(monkeypatch):
    def no_draw(*key):
        raise AssertionError(f"drew {key}")

    monkeypatch.setattr(netsim, "keyed_draws", no_draw)
    net = Network(seed=5, drop_prob=0.0)
    for i in range(10):
        net.send(KIND_TRANSACTION, "a", ("a", "b", "c"), i, 0)
    assert delivered_count(net) == 30


def test_every_receiver_of_a_broadcast_gets_the_same_message():
    net = Network(seed=1)
    net.send(KIND_BLOCK, "a", ("a", "b", "c"), "blk", rnd=2)
    delivered = net.step(3)
    assert sorted(delivered) == ["a", "b", "c"]
    (message,) = {id(inbox[0]): inbox[0] for inbox in delivered.values()}.values()
    assert message == (KIND_BLOCK, "a", "blk", 2)


class PerCopyNetwork:
    """The fabric's rule, one copy per receiver: each copy is dropped by the
    draw keyed (sender, receiver, round, kind), a send makes one copy per
    receiver named, in that order, and ``step`` hands the due copies over in
    the order of sending."""

    def __init__(self, seed, drop_prob, delay_rounds):
        self.seed, self.drop_prob, self.delay = seed, drop_prob, delay_rounds
        self.pending = []

    def send(self, kind, sender, receivers, payload, rnd):
        for receiver in receivers:
            if self.drop_prob > 0.0:
                u = keyed_draws(self.seed, "drop", sender, receiver, rnd, kind)[0]
                if u < self.drop_prob:
                    continue
            self.pending.append((kind, sender, receiver, payload, rnd + self.delay))

    def step(self, rnd):
        due = [c for c in self.pending if c[4] <= rnd]
        self.pending = [c for c in self.pending if c[4] > rnd]
        out = {}
        for kind, sender, receiver, payload, deliver_at in due:
            out.setdefault(receiver, []).append((kind, sender, payload, deliver_at))
        return out


_NAMES = st.sampled_from(["a", "b", "c", "d"])
# "e" receives but never sends
_RECEIVERS = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), unique=True, max_size=5)
_KINDS = st.sampled_from([KIND_BLOCK, KIND_TRANSACTION, KIND_CHALLENGE, KIND_RESPONSE])
_OPS = st.one_of(
    st.tuples(st.just("send"), _KINDS, _NAMES, _RECEIVERS.map(tuple), st.integers(0, 8)),
    st.tuples(st.just("step"), st.integers(0, 10)),
)


@settings(max_examples=300, deadline=None)
@given(
    drop_prob=st.sampled_from([0.0, 0.3]),
    delay_rounds=st.sampled_from([0, 1, 2]),
    seed=st.integers(0, 2**16),
    ops=st.lists(_OPS, max_size=60),
)
# no receiver, one, several with the sender among them, and one that never sends
@example(
    drop_prob=0.3,
    delay_rounds=1,
    seed=3,
    ops=[
        ("send", KIND_CHALLENGE, "a", (), 1),
        ("send", KIND_RESPONSE, "b", ("a",), 1),
        ("send", KIND_CHALLENGE, "c", ("b", "a", "c"), 1),
        ("send", KIND_TRANSACTION, "a", ("e", "b"), 1),
        ("step", 2),
    ],
)
def test_each_receiver_gets_what_a_per_copy_fabric_delivers(
    drop_prob, delay_rounds, seed, ops
):
    net = Network(seed=seed, drop_prob=drop_prob, delay_rounds=delay_rounds)
    reference = PerCopyNetwork(seed, drop_prob, delay_rounds)
    for payload, (op, *args) in enumerate(ops + [("step", 10**9)]):
        if op == "send":
            kind, sender, receivers, rnd = args
            net.send(kind, sender, receivers, payload, rnd)
            reference.send(kind, sender, receivers, payload, rnd)
        else:
            delivered = {
                receiver: [(m.kind, m.sender, m.payload, m.deliver_at) for m in inbox]
                for receiver, inbox in net.step(*args).items()
            }
            assert delivered == reference.step(*args)


def test_derived_rng_streams_are_independent_and_reproducible():
    a1 = [derived_rng(9, "x", 1).random() for _ in range(3)]
    a2 = [derived_rng(9, "x", 1).random() for _ in range(3)]
    b = [derived_rng(9, "x", 2).random() for _ in range(3)]
    assert a1 == a2
    assert a1 != b


def test_keyed_draws_are_the_words_of_the_digest_derived_rng_seeds_from():
    digest = hashlib.sha256(repr((9, "x", 1)).encode()).digest()
    words = [int.from_bytes(digest[i:i + 8], "big") for i in range(0, 32, 8)]
    assert keyed_draws(9, "x", 1) == tuple((w >> 11) / 2**53 for w in words)
    assert derived_rng(9, "x", 1).random() == random.Random(words[0]).random()
    assert keyed_draws(9, "x", 2) != keyed_draws(9, "x", 1)


# the largest uniform that keyed_draws returns
_TOP = 1.0 - 2.0**-53


def test_host_traffic_degenerate_detectors():
    for u in (0.0, 0.5, _TOP):
        assert host_traffic(p_mal=0.0, fp=0.0, fn=0.0, interval_len=500, u=u) == (500, 500)
        assert host_traffic(p_mal=1.0, fp=0.0, fn=0.0, interval_len=500, u=u) == (0, 500)


def test_host_traffic_rate_matches_mixture_model():
    """P(labelled normal) = (1-p_mal)(1-fp) + p_mal*fn."""
    p_mal, fp, fn = 0.3, 0.02, 0.02
    expected = (1 - p_mal) * (1 - fp) + p_mal * fn
    trials = 200
    total_k = sum(
        host_traffic(p_mal, fp, fn, 500, keyed_draws(11, "traffic-oracle", i)[0])[0]
        for i in range(trials)
    )
    assert total_k / (trials * 500) == pytest.approx(expected, abs=0.015)


# Detector rates whose mixtures are about those of the benchmark's malicious
# host (q 0.116), an even host (0.5) and its benign hosts (0.932).  fp != fn in
# each, so a sampler that swaps them draws from another mixture.
_RATES = [(0.9, 0.11, 0.03), (0.25, 0.4, 0.2), (0.05, 0.03, 0.21)]


@pytest.mark.parametrize("p_mal, fp, fn", _RATES, ids=["q0.116", "q0.5", "q0.932"])
@pytest.mark.parametrize("n", [50, 300, 10_000])
def test_host_traffic_counts_follow_the_binomial(p_mal, fp, fn, n):
    """Pearson chi-square of 500 counts, each from one keyed uniform, against
    Binomial(n, q), with adjacent counts pooled until each bin expects at
    least five."""
    q = p_mal * fn + (1 - p_mal) * (1 - fp)
    samples = 500
    seen = Counter(
        host_traffic(p_mal, fp, fn, n, keyed_draws(13, "binomial", n, q, i)[0])[0]
        for i in range(samples)
    )
    observed, expected, o, e = [], [], 0, 0.0
    for k, mass in enumerate(binom.pmf(range(n + 1), n, q)):
        o, e = o + seen[k], e + mass * samples
        if e >= 5:
            observed.append(o)
            expected.append(e)
            o, e = 0, 0.0
    observed[-1] += o
    expected[-1] += e
    assert sum(observed) == samples
    assert chisquare(observed, expected).pvalue > 1e-3


@pytest.mark.parametrize("p_mal, fp, fn", _RATES, ids=["q0.116", "q0.5", "q0.932"])
def test_host_traffic_is_the_inverse_of_its_uniform(p_mal, fp, fn):
    """Each count is the inverse of one contiguous stretch of uniforms, as
    long as its mass: over 20,000 evenly spaced uniforms, every count of
    Binomial(300, q) comes up within one of 20,000 times its mass."""
    q = p_mal * fn + (1 - p_mal) * (1 - fp)
    grid = 20_000
    seen = Counter(host_traffic(p_mal, fp, fn, 300, (i + 0.5) / grid)[0] for i in range(grid))
    masses = binom.pmf(range(301), 300, q)
    assert max(abs(seen[k] - grid * mass) for k, mass in enumerate(masses)) <= 1.0 + 1e-6


@settings(max_examples=200, deadline=None)
@given(
    p_mal=st.floats(0.0, 1.0),
    fp=st.floats(0.0, 1.0),
    fn=st.floats(0.0, 1.0),
    interval_len=st.integers(0, 10**4),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
# an always-malicious host and a subnormal fn: q is subnormal
@example(p_mal=1.0, fp=0.0, fn=1e-310, interval_len=50, u=_TOP)
# the longest interval, the widest count and the last uniform, whose mass
# rounding may leave unassigned: the search still ends
@example(p_mal=0.5, fp=0.5, fn=0.5, interval_len=10**6, u=_TOP)
def test_host_traffic_is_a_pure_function_of_its_uniform(p_mal, fp, fn, interval_len, u):
    k, n = host_traffic(p_mal, fp, fn, interval_len, u)
    assert type(k) is int and n == interval_len and 0 <= k <= n
    assert host_traffic(p_mal, fp, fn, interval_len, u) == (k, n)
