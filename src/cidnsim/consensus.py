"""Hybrid PoW/PoS leader election and block validation.

A node may mine only if a hash of its identity, the parent hash, and the
transaction root falls under a credibility-scaled target (the eligibility
lottery); it then brute-forces a bounded counter against a stake-and-time
target.  The proposer and every validator derive this draw in one place
from committed chain state, so block validity is observer-independent.  The
draw also yields the block's fork-choice weight (leader stake times average
credibility), which validation returns with its verdict.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from .chain import (
    Block,
    Chain,
    Transaction,
    hash_block,
    make_block,
    transaction_root,
    verify_transaction,
)
from .encoding import enc_int, enc_str, new_sha256, sha256
from .keys import KeyPair, KeyRegistry, verify
from .records import Record
from .trust import average_credibility

__all__ = [
    "ConsensusParams",
    "ValidationContext",
    "Reason",
    "hash_to_unit",
    "prefix_fraction",
    "mining_bound",
    "eligibility_hash",
    "check_eligibility",
    "binary_entropy",
    "compute_stake",
    "compute_target",
    "mine",
    "propose",
    "validate_block",
    "chain_average_credibility",
    "leader_trust_values",
    "time_since_last_block",
]

# the most counter attempts a node may make per round: every eligible node
# may hash up to q_max preimages each round, about 1 us apiece, so 2^20
# attempts cost about a second per eligible node per round
MAX_Q_MAX = 1 << 20


class ConsensusParams(Record):
    """Targets and bounds of the election.

    d_cred: loose eligibility target scaling the average credibility.
    d_stake: mining target scale applied to stake and elapsed time.
    r_bits: hash prefix width compared against the mining target.
    q_max: bound on counter attempts per round.
    t_cap: cap on the elapsed-time factor.
    """

    __slots__ = ("d_cred", "d_stake", "r_bits", "q_max", "t_cap")

    def __init__(
        self, d_cred: float, d_stake: float, r_bits: int, q_max: int, t_cap: int
    ) -> None:
        self._set(d_cred, d_stake, r_bits, q_max, t_cap)
        if not 0.0 < self.d_cred <= 1.0:
            raise ValueError(f"d_cred must be in (0,1], got {self.d_cred}")
        if not 0.0 < self.d_stake < math.inf:
            raise ValueError(f"d_stake must be finite and > 0, got {self.d_stake}")
        if not 8 <= self.r_bits <= 64:
            raise ValueError(f"r_bits must be in [8,64], got {self.r_bits}")
        if not 1 <= self.q_max <= MAX_Q_MAX:
            raise ValueError(f"q_max must be in [1, {MAX_Q_MAX}], got {self.q_max}")
        if not self.t_cap >= 1:
            raise ValueError(f"t_cap must be positive, got {self.t_cap}")


class Reason:
    """Validation failure reason codes (counted per node in result.json)."""

    OK = "ok"
    LINKAGE = "linkage"
    GEN_TIME = "gen-time"
    BLOCK_ID = "block-id"
    UNKNOWN_LEADER = "unknown-leader"
    TX_ORDER = "tx-order"
    TX_INVALID = "tx-invalid"
    ELIGIBILITY = "eligibility"
    TARGET_MISMATCH = "target-mismatch"
    CTR_BOUND = "ctr-bound"
    MINING = "mining"
    LEADER_SIGNATURE = "leader-signature"


def hash_to_unit(h: bytes) -> float:
    """Map a hash into [0,1) via its leading 64 bits."""
    return int.from_bytes(h[:8], "big") / 2.0**64


def prefix_fraction(h: bytes, r_bits: int) -> float:
    """Leading ``r_bits`` of the hash as a fraction of 2^r_bits."""
    return (int.from_bytes(h[:8], "big") >> (64 - r_bits)) / 2.0**r_bits


def eligibility_hash(ids_id: str, prev_hash: bytes, payload: bytes) -> bytes:
    return sha256(enc_str(ids_id) + prev_hash + payload)


def check_eligibility(
    ids_id: str,
    d_cred: float,
    avg_cred: float,
    prev_hash: bytes,
    payload: bytes,
) -> tuple[bool, bytes]:
    """Credibility lottery: eligible iff the identity/parent/payload hash,
    mapped to [0,1), is below d_cred times the average credibility."""
    g = eligibility_hash(ids_id, prev_hash, payload)
    return hash_to_unit(g) < d_cred * avg_cred, g


def binary_entropy(x: float) -> float:
    """Shannon entropy of a Bernoulli(x), in bits; 0 at the endpoints."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def compute_stake(trust_values: Iterable[float]) -> float:
    """Stake is certainty, not currency: sum of 1 - H2(x) over the published
    host-trust scores.  Scores near 1/2 contribute nothing."""
    return sum(1.0 - binary_entropy(x) for x in trust_values)


def compute_target(
    d_stake: float, stake: float, time_since: int, t_cap: int, r_bits: int
) -> float:
    """Mining target: d_stake * stake * capped elapsed time, clamped just
    below 1 so the prefix comparison is never vacuous."""
    if time_since < 1:
        raise ValueError("time_since must be >= 1")
    t = min(time_since, t_cap)
    return min(d_stake * stake * t, 1.0 - 2.0 ** (-r_bits))


def _mining_hash(g_value: bytes, gen_time: int, ctr: int) -> bytes:
    return sha256(g_value + enc_int(gen_time) + enc_int(ctr))


# sorts above every 32-byte digest: a digest equal to its first 32 bytes is a
# proper prefix of it, and any other digest differs from it by a smaller byte
_ABOVE_EVERY_DIGEST = b"\xff" * 33


def mining_bound(target_v: float, r_bits: int) -> bytes:
    """The mining predicate as a byte bound: a SHA-256 digest ``h`` wins
    iff ``h < mining_bound(target_v, r_bits)``, which holds exactly when
    ``prefix_fraction(h, r_bits) < target_v``.

    The bound is the least ``r_bits`` prefix that fails, found by bisection
    on the very float expression ``prefix_fraction`` evaluates, so the two
    agree wherever the prefix rounds on conversion (above 2^53) and for
    every float target: NaN, zero and negative targets admit no digest.
    Shifted into the top of 8 big-endian bytes it compares a whole digest
    as the digest's leading 64 bits compare with it, because a digest that
    ties on those bytes is longer and so sorts above.
    """
    scale = 2.0**r_bits
    lo, hi = 0, 1 << r_bits
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / scale < target_v:
            lo = mid + 1
        else:
            hi = mid
    if lo == 1 << r_bits:
        return _ABOVE_EVERY_DIGEST
    return (lo << (64 - r_bits)).to_bytes(8, "big")


def mine(
    g_value: bytes, gen_time: int, target_v: float, q_max: int, r_bits: int
) -> tuple[int | None, int]:
    """Search the counter space; returns (winning ctr or None, attempts made).

    Never exceeds q_max hash evaluations.  Each attempt hashes the same
    preimage as ``_mining_hash`` and applies the ``mining_bound`` rule; the
    fixed prefix is fed to one hash object, which each attempt copies, as
    copying is cheaper than starting a new hash.
    """
    bound = mining_bound(target_v, r_bits)
    fresh = new_sha256(g_value + enc_int(gen_time)).copy
    pack = enc_int
    for ctr in range(1, q_max + 1):
        h = fresh()
        h.update(pack(ctr))
        if h.digest() < bound:
            return ctr, ctr
    return None, q_max


# ---------------------------------------------------------------------------
# The draw, the proposal and its validation against committed chain state.


class ValidationContext:
    """Shared inputs every validator agrees on, and the verdict on every
    distinct transaction checked under them."""

    __slots__ = ("params", "registry", "initial_trust", "members_at", "_tx_verdicts")

    def __init__(
        self, params: ConsensusParams, registry: KeyRegistry, initial_trust: float,
        members_at: Callable[[int], Sequence[str]],
    ) -> None:
        self.params = params
        self.registry = registry
        self.initial_trust = initial_trust  # newcomer credibility of unreported observers
        self.members_at = members_at  # active identities at a round
        self._tx_verdicts: dict[bytes, bool] = {}

    def transaction_ok(self, tx: Transaction) -> bool:
        """``verify_transaction`` of ``tx`` under the registry, computed once
        per distinct transaction.  The key is the memoized encoding, which the
        transaction holds anyway and which carries every field: a copy that
        keeps the id and the signature but alters the body is checked
        afresh."""
        key = tx.encode()
        ok = self._tx_verdicts.get(key)
        if ok is None:
            ok = self._tx_verdicts[key] = verify_transaction(tx, self.registry)
        return ok


def chain_average_credibility(
    chain: Chain, target: str, members: Sequence[str], initial_trust: float
) -> float:
    """Average credibility of ``target`` from committed chain state; members
    that have not yet reported about the target count at the newcomer value."""
    reported = chain.chain_state_credibility(target)
    values = {
        m: reported.get(m, initial_trust) for m in members if m != target
    }
    return average_credibility(target, values, len(members))


def leader_trust_values(
    parent: Chain, leader_id: str, transactions: Sequence
) -> list[float]:
    """The leader's trust list for stake: from its transaction in the block
    payload when present, else its latest on-chain list in the parent."""
    for tx in transactions:
        if tx.ids_id == leader_id:
            return list(tx.trust_list)
    last = parent.latest_tx.get(leader_id)
    return [] if last is None else list(last.host_trusts().values())


def time_since_last_block(parent: Chain, leader_id: str, gen_time: int) -> int:
    """Rounds since the leader's last block in the parent chain (genesis for
    first-timers), floor 1."""
    last = parent.last_led_round.get(leader_id, 0)
    return max(1, gen_time - last)


def _draw(
    parent: Chain, prev_hash: bytes, leader_id: str, gen_time: int,
    payload: bytes, transactions: Sequence[Transaction], ctx: ValidationContext,
) -> tuple[bytes, float, float] | None:
    """The proof-of-stake draw of ``leader_id`` on ``parent``, whose tip hash
    is ``prev_hash``: (eligibility hash, mining target, fork-choice weight),
    or None when the leader fails the credibility lottery.  The weight is the
    leader's stake times its average credibility.  The proposer and every
    validator derive the draw here, from committed state only."""
    p = ctx.params
    members = ctx.members_at(gen_time)
    avg_cred = chain_average_credibility(parent, leader_id, members, ctx.initial_trust)
    eligible, g = check_eligibility(leader_id, p.d_cred, avg_cred, prev_hash, payload)
    if not eligible:
        return None
    stake = compute_stake(leader_trust_values(parent, leader_id, transactions))
    time_since = time_since_last_block(parent, leader_id, gen_time)
    target = compute_target(p.d_stake, stake, time_since, p.t_cap, p.r_bits)
    return g, target, stake * avg_cred


def propose(
    parent: Chain, key: KeyPair, gen_time: int, txs: Iterable[Transaction],
    ctx: ValidationContext,
) -> tuple[Block | None, int]:
    """The block ``key`` proposes on ``parent`` at ``gen_time`` with ``txs``,
    and the hash attempts spent on it.

    The block is None when the leader is not eligible, its target is zero
    (no counter can win, so none is tried) or the counter search exhausts
    ``q_max``; staying silent is a normal outcome.
    """
    txs = sorted(txs, key=lambda t: t.ids_id)
    prev_hash = parent.tip_hash
    payload = transaction_root(txs)
    draw = _draw(parent, prev_hash, key.node_id, gen_time, payload, txs, ctx)
    if draw is None:
        return None, 0
    g, target, _ = draw
    if target <= 0.0:
        return None, 0
    ctr, attempts = mine(g, gen_time, target, ctx.params.q_max, ctx.params.r_bits)
    if ctr is None:
        return None, attempts
    return make_block(key, gen_time, prev_hash, ctr, target, txs), attempts


def validate_block(
    b: Block, parent: Chain, ctx: ValidationContext
) -> tuple[bool, str, float]:
    """Full re-derivation of eligibility, target, and mining conditions.

    Returns (ok, reason code, fork-choice weight of the block on ``parent``);
    the weight is 0.0 when the block is invalid.  Every quantity the header
    claims is checked against committed state, not taken on faith.
    """
    p = ctx.params
    h = b.header
    if h.prev_hash != parent.tip_hash:
        return False, Reason.LINKAGE, 0.0
    if h.gen_time <= parent.tip.header.gen_time:
        return False, Reason.GEN_TIME, 0.0
    if h.block_id != hash_block(b):
        return False, Reason.BLOCK_ID, 0.0
    leader_key = ctx.registry.get(h.leader_id)
    members = ctx.members_at(h.gen_time)
    if leader_key is None or h.leader_id not in members:
        return False, Reason.UNKNOWN_LEADER, 0.0
    # one transaction per signer, so each is checked against the parent alone
    ids = [tx.ids_id for tx in b.transactions]
    if ids != sorted(set(ids)):
        return False, Reason.TX_ORDER, 0.0
    # a registered key that has not yet joined signs nothing the block may
    # carry, nor a transaction built (seq is its round) after the block's
    # round, nor one its signer has already outdated on the parent
    for tx in b.transactions:
        if not (tx.ids_id in members and tx.seq < h.gen_time and parent.is_new(tx)
                and ctx.transaction_ok(tx)):
            return False, Reason.TX_INVALID, 0.0
    draw = _draw(
        parent, h.prev_hash, h.leader_id, h.gen_time, b.payload_bytes(),
        b.transactions, ctx,
    )
    if draw is None:
        return False, Reason.ELIGIBILITY, 0.0
    g, target, weight = draw
    if target != h.target_v:
        return False, Reason.TARGET_MISMATCH, 0.0
    if not 1 <= h.ctr <= p.q_max:
        return False, Reason.CTR_BOUND, 0.0
    if not _mining_hash(g, h.gen_time, h.ctr) < mining_bound(h.target_v, p.r_bits):
        return False, Reason.MINING, 0.0
    # the signed bytes leave the signature out, so they are those of the
    # unsigned block the leader signed
    if not verify(leader_key, b.leader_signature, b.signed_bytes()):
        return False, Reason.LEADER_SIGNATURE, 0.0
    return True, Reason.OK, weight
