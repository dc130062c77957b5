"""Deterministic message fabric and the traffic generator."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cidnsim.netsim import (
    KIND_BLOCK,
    KIND_CHALLENGE,
    KIND_RESPONSE,
    KIND_TRANSACTION,
    Network,
    derived_rng,
    host_traffic,
)


def test_send_delivers_once_in_order():
    net = Network(seed=1)
    net.add_node("a")
    net.add_node("b")
    net.send(KIND_RESPONSE, "a", "b", "resp", rnd=1)
    net.send(KIND_CHALLENGE, "a", "b", "ch", rnd=1)
    net.send(KIND_TRANSACTION, "a", "b", "tx", rnd=1)
    net.send(KIND_BLOCK, "a", "b", "blk", rnd=1)
    delivered = net.step(1)
    # per sender: blocks, then transactions, challenges, responses
    assert [m.payload for m in delivered["b"]] == ["blk", "tx", "ch", "resp"]
    assert net.step(2) == {}
    assert net.pending_count() == 0


def test_broadcast_includes_sender():
    net = Network(seed=1)
    for n in ("a", "b", "c"):
        net.add_node(n)
    net.broadcast(KIND_TRANSACTION, "a", "x", rnd=3)
    delivered = net.step(3)
    assert set(delivered) == {"a", "b", "c"}


def test_delay_holds_messages():
    net = Network(seed=1, delay_rounds=2)
    net.add_node("a")
    net.add_node("b")
    net.send(KIND_TRANSACTION, "a", "b", "late", rnd=1)
    assert net.step(1) == {}
    assert net.step(2) == {}
    assert net.step(3)["b"][0].payload == "late"


def test_drop_probability_extremes():
    always = Network(seed=7, drop_prob=0.999999999)
    always.add_node("a")
    always.add_node("b")
    for rnd in range(100):
        always.send(KIND_TRANSACTION, "a", "b", rnd, rnd)
    assert always.pending_count() == 0

    never = Network(seed=7, drop_prob=0.0)
    never.add_node("a")
    never.add_node("b")
    for rnd in range(100):
        never.send(KIND_TRANSACTION, "a", "b", rnd, rnd)
    assert never.pending_count() == 100


def test_drop_rate_is_roughly_calibrated():
    net = Network(seed=3, drop_prob=0.3)
    net.add_node("a")
    net.add_node("b")
    for i in range(20_000):
        net.send(KIND_TRANSACTION, "a", "b", i, 0)
    survived = net.pending_count()
    assert survived / 20_000 == pytest.approx(0.7, abs=0.02)


def test_drop_streams_are_per_pair():
    """Traffic on one link never perturbs the loss pattern of another."""

    def survivors(extra_link: bool) -> list[int]:
        net = Network(seed=5, drop_prob=0.5)
        for n in ("a", "b", "c"):
            net.add_node(n)
        out = []
        for i in range(200):
            if extra_link:
                net.send(KIND_TRANSACTION, "a", "c", i, 0)
            net.send(KIND_TRANSACTION, "a", "b", i, 0)
        for m in net.step(0).get("b", []):
            out.append(m.payload)
        return out

    assert survivors(False) == survivors(True)


def test_a_lossless_network_holds_no_drop_streams():
    net = Network(seed=5, drop_prob=0.0)
    for n in ("a", "b", "c"):
        net.add_node(n)
    for i in range(10):
        net.broadcast(KIND_TRANSACTION, "a", i, 0)
    assert net.pending_count() == 30
    assert net._drop_streams == {}


def test_derived_rng_streams_are_independent_and_reproducible():
    a1 = [derived_rng(9, "x", 1).random() for _ in range(3)]
    a2 = [derived_rng(9, "x", 1).random() for _ in range(3)]
    b = [derived_rng(9, "x", 2).random() for _ in range(3)]
    assert a1 == a2
    assert a1 != b


def test_host_traffic_degenerate_detectors():
    rng = random.Random(0)
    k, n = host_traffic(p_mal=0.0, fp=0.0, fn=0.0, interval_len=500, rng=rng)
    assert (k, n) == (500, 500)
    k, n = host_traffic(p_mal=1.0, fp=0.0, fn=0.0, interval_len=500, rng=rng)
    assert (k, n) == (0, 500)


def test_host_traffic_rate_matches_mixture_model():
    """P(labelled normal) = (1-p_mal)(1-fp) + p_mal*fn."""
    p_mal, fp, fn = 0.3, 0.02, 0.02
    expected = (1 - p_mal) * (1 - fp) + p_mal * fn
    rng = derived_rng(11, "traffic-oracle")
    total_k = 0
    trials = 200
    for _ in range(trials):
        k, _ = host_traffic(p_mal, fp, fn, 500, rng)
        total_k += k
    assert total_k / (trials * 500) == pytest.approx(expected, abs=0.015)


def reference_host_traffic(p_mal, fp, fn, interval_len, rng):
    """The sampler written out: per packet, draw its class, then the detector."""
    k = 0
    for _ in range(interval_len):
        malicious = rng.random() < p_mal
        if malicious:
            detected_normal = rng.random() < fn
        else:
            detected_normal = rng.random() >= fp
        if detected_normal:
            k += 1
    return k, interval_len


@given(
    p_mal=st.floats(0.0, 1.0),
    fp=st.floats(0.0, 1.0),
    fn=st.floats(0.0, 1.0),
    interval_len=st.integers(0, 300),
    seed=st.integers(0, 2**32),
)
def test_host_traffic_matches_the_reference_sampler(p_mal, fp, fn, interval_len, seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = host_traffic(p_mal, fp, fn, interval_len, rng)
    assert got == reference_host_traffic(p_mal, fp, fn, interval_len, ref_rng)
    assert type(got[0]) is int
    # same draws in the same order: both streams are left at the same point
    assert rng.random() == ref_rng.random()
