"""Deterministic round-based message fabric and the traffic model.

Every random decision is keyed by (seed, purpose, participants, round)
(``keyed_draws``): a drop, a challenge, an answer, and a monitoring
interval's traffic count, which ``host_traffic`` turns from one uniform
into a binomial count.  So adding a node, a message or a round never
perturbs another draw.  Messages scheduled and not dropped are delivered
exactly once; each receiver gets its messages in the order they were sent.

The fabric keeps no membership: every send names its receivers.  A
scheduled message is held once, with the receivers whose copy survived,
and every receiver is handed that same object.
"""

from __future__ import annotations

import math
import random
import struct
from typing import Any, NamedTuple

from .encoding import sha256

__all__ = [
    "KIND_TRANSACTION",
    "KIND_BLOCK",
    "KIND_CHALLENGE",
    "KIND_RESPONSE",
    "Message",
    "Network",
    "derived_rng",
    "host_traffic",
    "keyed_draws",
]

KIND_TRANSACTION = "transaction"
KIND_BLOCK = "block-proposal"
KIND_CHALLENGE = "challenge"
KIND_RESPONSE = "challenge-response"

_WORDS = struct.Struct(">4Q")
_ULP = 2.0**-53


def derived_rng(seed: int, *tags: object) -> random.Random:
    """Independent stream keyed by the run seed plus arbitrary tags."""
    material = repr((seed,) + tags).encode()
    return random.Random(int.from_bytes(sha256(material)[:8], "big"))


def keyed_draws(seed: int, *tags: object) -> tuple[float, float, float, float]:
    """Four uniforms in [0, 1), a pure function of the key that
    ``derived_rng`` hashes: the high 53 bits of each 64-bit word of its
    SHA-256.  A counter-based generator (Salmon et al., SC 2011): no state,
    and no other draw can shift it."""
    a, b, c, d = _WORDS.unpack(sha256(repr((seed,) + tags).encode()))
    return (a >> 11) * _ULP, (b >> 11) * _ULP, (c >> 11) * _ULP, (d >> 11) * _ULP


class Message(NamedTuple):
    """One scheduled message, shared by all of its receivers."""

    kind: str
    sender: str
    payload: Any
    deliver_at: int


class Network:
    """Point-to-point fabric with per-copy loss and fixed delay.

    A message sent in round r is due in round r + ``delay_rounds``; ``step``
    runs at the start of a round, before anything is sent in it, so the
    message arrives in round r + max(``delay_rounds``, 1).
    """

    __slots__ = ("seed", "drop_prob", "delay_rounds", "_pending")

    def __init__(self, seed: int, drop_prob: float = 0.0, delay_rounds: int = 0) -> None:
        self.seed = seed
        self.drop_prob = drop_prob
        self.delay_rounds = delay_rounds
        # each scheduled message with the receivers whose copy was not dropped
        self._pending: list[tuple[Message, tuple[str, ...]]] = []

    def send(
        self, kind: str, sender: str, receivers: tuple[str, ...], payload: Any, rnd: int
    ) -> None:
        """Schedule one message for ``receivers``, each copy dropped by the
        draw keyed (sender, receiver, ``rnd``, ``kind``).  A sender sends at
        most one message of each kind per round, so every copy has a key of
        its own and no send shifts the fate of another.  A lossless network
        draws nothing, since no draw could drop a copy."""
        if self.drop_prob > 0.0:
            receivers = tuple(
                r for r in receivers
                if keyed_draws(self.seed, "drop", sender, r, rnd, kind)[0] >= self.drop_prob
            )
        if receivers:
            self._pending.append(
                (Message(kind, sender, payload, rnd + self.delay_rounds), receivers)
            )

    def step(self, rnd: int) -> dict[str, list[Message]]:
        """Deliver everything due by ``rnd``, each receiver's messages in the
        order they were sent."""
        due, pending = [], []
        for entry in self._pending:
            (due if entry[0].deliver_at <= rnd else pending).append(entry)
        self._pending = pending
        out: dict[str, list[Message]] = {}
        for m, receivers in due:
            for r in receivers:
                out.setdefault(r, []).append(m)
        return out


def host_traffic(
    p_mal: float,
    fp: float,
    fn: float,
    interval_len: int,
    u: float,
) -> tuple[int, int]:
    """Simulate one monitoring interval of packets through a noisy detector.

    Each packet is truly malicious with probability p_mal; the detector
    mislabels benign packets with probability fp and malicious ones with
    probability fn.  Returns (detected-normal count, total packets).

    Packets are independent, so the count is Binomial(interval_len, q) with
    q = p_mal*fn + (1-p_mal)*(1-fp).  It is the inverse of the one uniform
    ``u`` in [0, 1), found by the modal search (Kemp 1986): outcomes are
    taken in the order m, m+1, m-1, m+2, ... from the mode m, each one's
    mass subtracted from ``u``, until ``u`` falls below 0.  That takes
    O(sqrt(interval_len q (1-q))) steps on average.  Once no further mass
    can change ``u``, the mass that rounding left unassigned goes to m.
    """
    n = interval_len
    q = p_mal * fn + (1.0 - p_mal) * (1.0 - fp)
    if q <= 0.0:
        return 0, n
    if q >= 1.0:
        return n, n
    m = int((n + 1) * q)
    mass = math.exp(
        math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
        + m * math.log(q) + (n - m) * math.log1p(-q)
    )
    u -= mass
    if u < 0.0:
        return m, n
    odds = q / (1.0 - q)
    up = down = mass
    for step in range(1, max(m, n - m) + 1):
        k = m + step
        if k <= n:
            up *= (n - k + 1) / k * odds
            u -= up
            if u < 0.0:
                return k, n
        else:
            up = 0.0
        k = m - step
        if k >= 0:
            down *= (k + 1) / (n - k) / odds
            u -= down
            if u < 0.0:
                return k, n
        else:
            down = 0.0
        # masses only shrink away from the mode, so none that follows can
        # change u once these two do not
        if u - up == u and u - down == u:
            break
    return m, n
