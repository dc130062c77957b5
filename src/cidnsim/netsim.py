"""Deterministic round-based message fabric.

Every random decision draws from a stream derived from (seed, purpose,
participants), so adding a node never perturbs the streams of existing
ones.  Messages scheduled and not dropped are delivered exactly once, in a
deterministic order.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Any

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

_KIND_ORDER = {
    KIND_BLOCK: 0,
    KIND_TRANSACTION: 1,
    KIND_CHALLENGE: 2,
    KIND_RESPONSE: 3,
}


def derived_rng(seed: int, *tags: object) -> random.Random:
    """Independent stream keyed by the run seed plus arbitrary tags."""
    material = repr((seed,) + tags).encode()
    return random.Random(int.from_bytes(hashlib.sha256(material).digest()[:8], "big"))


@dataclass(frozen=True)
class Message:
    kind: str
    sender: str
    receiver: str
    payload: Any
    deliver_at: int


@dataclass
class Network:
    """Broadcast fabric with per-copy loss and fixed delay."""

    seed: int
    drop_prob: float = 0.0
    delay_rounds: int = 0
    nodes: list[str] = field(default_factory=list)
    _pending: list[Message] = field(default_factory=list)

    def add_node(self, node_id: str) -> None:
        if node_id not in self.nodes:
            self.nodes.append(node_id)

    def _drop_rng(self, sender: str, receiver: str) -> random.Random:
        key = ("drop", sender, receiver)
        rng = self._drop_streams.get(key)
        if rng is None:
            rng = derived_rng(self.seed, *key)
            self._drop_streams[key] = rng
        return rng

    def __post_init__(self) -> None:
        self._drop_streams: dict[tuple, random.Random] = {}

    def send(self, kind: str, sender: str, receiver: str, payload: Any, rnd: int) -> None:
        """Schedule one copy; it may be dropped.  A lossless network draws
        nothing, since no draw could drop a copy, and so makes no streams."""
        if self.drop_prob > 0.0 and (
            self._drop_rng(sender, receiver).random() < self.drop_prob
        ):
            return
        self._pending.append(
            Message(kind, sender, receiver, payload, rnd + self.delay_rounds)
        )

    def broadcast(self, kind: str, sender: str, payload: Any, rnd: int) -> None:
        """One independently dropped copy per current member (sender included)."""
        for receiver in self.nodes:
            self.send(kind, sender, receiver, payload, rnd)

    def step(self, rnd: int) -> dict[str, list[Message]]:
        """Deliver everything due by ``rnd``, sorted by sender then kind."""
        due = [m for m in self._pending if m.deliver_at <= rnd]
        self._pending = [m for m in self._pending if m.deliver_at > rnd]
        due.sort(key=lambda m: (m.sender, _KIND_ORDER.get(m.kind, 9), m.receiver))
        out: dict[str, list[Message]] = {}
        for m in due:
            out.setdefault(m.receiver, []).append(m)
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
