"""Deterministic round-based message fabric.

Every random decision draws from a stream derived from (seed, purpose,
participants), so adding a node never perturbs the streams of existing
ones.  Messages scheduled and not dropped are delivered exactly once; each
receiver gets its messages in the order they were sent.

The fabric keeps no membership: every send names its receivers.  A
scheduled message is held once, with the receivers whose copy survived,
and every receiver is handed that same object.
"""

from __future__ import annotations

import math
import random
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
]

KIND_TRANSACTION = "transaction"
KIND_BLOCK = "block-proposal"
KIND_CHALLENGE = "challenge"
KIND_RESPONSE = "challenge-response"

def derived_rng(seed: int, *tags: object) -> random.Random:
    """Independent stream keyed by the run seed plus arbitrary tags."""
    material = repr((seed,) + tags).encode()
    return random.Random(int.from_bytes(sha256(material)[:8], "big"))


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

    __slots__ = ("seed", "drop_prob", "delay_rounds", "_pending", "_drop_streams")

    def __init__(self, seed: int, drop_prob: float = 0.0, delay_rounds: int = 0) -> None:
        self.seed = seed
        self.drop_prob = drop_prob
        self.delay_rounds = delay_rounds
        # each scheduled message with the receivers whose copy was not dropped
        self._pending: list[tuple[Message, tuple[str, ...]]] = []
        self._drop_streams: dict[tuple, random.Random] = {}

    def _drop_rng(self, sender: str, receiver: str) -> random.Random:
        key = ("drop", sender, receiver)
        rng = self._drop_streams.get(key)
        if rng is None:
            rng = derived_rng(self.seed, *key)
            self._drop_streams[key] = rng
        return rng

    def send(
        self, kind: str, sender: str, receivers: tuple[str, ...], payload: Any, rnd: int
    ) -> None:
        """Schedule one message for ``receivers``, each copy dropped on its
        own pair's stream, drawn in receiver order.  A lossless network draws
        nothing, since no draw could drop a copy, and so makes no streams."""
        if self.drop_prob > 0.0:
            receivers = tuple(
                r for r in receivers
                if self._drop_rng(sender, r).random() >= self.drop_prob
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
    rng: random.Random,
) -> tuple[int, int]:
    """Simulate one monitoring interval of packets through a noisy detector.

    Each packet is truly malicious with probability p_mal; the detector
    mislabels benign packets with probability fp and malicious ones with
    probability fn.  Returns (detected-normal count, total packets).

    Packets are independent, so the count is Binomial(interval_len, q) with
    q = p_mal*fn + (1-p_mal)*(1-fp).  It is drawn by skipping geometric gaps
    between packets of the rarer label (Devroye 1986, ch. X): one draw per
    packet of that label, plus at most one to find that no more follow.
    """
    q = p_mal * fn + (1.0 - p_mal) * (1.0 - fp)
    p = min(q, 1.0 - q)
    rare, left = 0, interval_len if p > 0.0 else 0
    log_miss = math.log1p(-p)
    while left > 0:
        gap = math.log(1.0 - rng.random()) / log_miss
        if gap >= left:  # compared as a float: a subnormal p makes it inf
            break
        left -= int(gap) + 1
        rare += 1
    return (rare if q <= 0.5 else interval_len - rare), interval_len
