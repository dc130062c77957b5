"""Trust-chain data model: transactions, blocks, headers, and the chain.

A transaction carries one node's current view (peer credibilities, host
trust scores, evidence); blocks bundle the transactions of a round under a
mined header.  Everything that is hashed or signed goes through the
canonical encoding in :mod:`cidnsim.encoding`.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Sequence

from .encoding import Reader, enc_bytes, enc_int, enc_list, enc_real, enc_str
from .keys import KeyPair, KeyRegistry, verify

__all__ = [
    "HASH_LEN",
    "ZERO_HASH",
    "EvidenceRecord",
    "Transaction",
    "BlockHeader",
    "Block",
    "Chain",
    "ChainError",
    "build_transaction",
    "verify_transaction",
    "hash_block",
    "block_to_dict",
    "block_from_dict",
    "export_chain",
    "import_chain",
]

HASH_LEN = 32
ZERO_HASH = b"\x00" * HASH_LEN


class ChainError(ValueError):
    """Structural violation: bad linkage or a malformed record."""


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _memo_slot(name: str) -> str:
    return f"_memo_{name}"


def _memoized(method: Callable[[Any], bytes]) -> Callable[[Any], bytes]:
    """Compute a frozen record's bytes once and keep them on the instance.

    The cache lives in the instance ``__dict__``, outside the dataclass
    fields, so equality, hashing and ``dataclasses.replace`` ignore it.
    """
    slot = _memo_slot(method.__name__)

    @functools.wraps(method)
    def cached(self):
        try:
            return self.__dict__[slot]
        except KeyError:
            value = self.__dict__[slot] = method(self)
            return value

    return cached


def _with_memo(record: Any, **computed: bytes) -> Any:
    """Keep bytes already computed for ``record`` as its memoized results of
    the methods they are named after, so the very objects that were hashed
    and signed are the ones later calls return."""
    for name, value in computed.items():
        record.__dict__[_memo_slot(name)] = value
    return record


@dataclass(frozen=True)
class EvidenceRecord:
    """Justification for one host's score: alert digests plus the interval counts."""

    host: str
    alert_digests: tuple[bytes, ...]
    normal_count: int
    packet_count: int

    def __post_init__(self) -> None:
        if self.normal_count < 0 or self.normal_count > self.packet_count:
            raise ValueError("evidence counts inconsistent")
        for d in self.alert_digests:
            if len(d) != HASH_LEN:
                raise ValueError("alert digest must be 32 bytes")

    @_memoized
    def encode(self) -> bytes:
        return (
            enc_str(self.host)
            + enc_list(self.alert_digests, lambda d: d)
            + enc_int(self.normal_count)
            + enc_int(self.packet_count)
        )

    @staticmethod
    def decode(r: Reader) -> "EvidenceRecord":
        host = r.read_str()
        digests = tuple(r.read_list(lambda rr: rr.read_fixed(HASH_LEN)))
        k = r.read_int()
        n = r.read_int()
        return EvidenceRecord(host, digests, k, n)


@dataclass(frozen=True)
class Transaction:
    tx_id: bytes
    ids_id: str
    peer_list: tuple[str, ...]
    cred_list: tuple[float, ...]
    host_list: tuple[str, ...]
    trust_list: tuple[float, ...]
    evidence_list: tuple[EvidenceRecord, ...]
    signature: bytes

    @_memoized
    def body_bytes(self) -> bytes:
        return (
            enc_str(self.ids_id)
            + enc_list(self.peer_list, enc_str)
            + enc_list(self.cred_list, enc_real)
            + enc_list(self.host_list, enc_str)
            + enc_list(self.trust_list, enc_real)
            + enc_list(self.evidence_list, EvidenceRecord.encode)
        )

    def signed_bytes(self) -> bytes:
        """The id and the body, which the signature covers; ``encode``
        keeps them, so they are not kept a second time."""
        return self.tx_id + self.body_bytes()

    @_memoized
    def encode(self) -> bytes:
        return self.signed_bytes() + enc_bytes(self.signature)

    @staticmethod
    def decode(r: Reader) -> "Transaction":
        tx_id = r.read_fixed(HASH_LEN)
        ids_id = r.read_str()
        peers = tuple(r.read_list(Reader.read_str))
        creds = tuple(r.read_list(Reader.read_real))
        hosts = tuple(r.read_list(Reader.read_str))
        trusts = tuple(r.read_list(Reader.read_real))
        evidence = tuple(r.read_list(EvidenceRecord.decode))
        sig = r.read_bytes()
        return Transaction(tx_id, ids_id, peers, creds, hosts, trusts, evidence, sig)


def build_transaction(
    key: KeyPair,
    peer_creds: dict[str, float],
    host_trusts: dict[str, float],
    evidence: dict[str, EvidenceRecord] | None = None,
) -> Transaction:
    """Assemble, hash, and sign a transaction from a node's current lists.

    Peer and host sections are ordered by identifier for determinism.
    """
    evidence = evidence or {}
    peers = tuple(sorted(peer_creds))
    hosts = tuple(sorted(host_trusts))
    ev = tuple(
        evidence.get(h, EvidenceRecord(h, (), 0, 0)) for h in hosts
    )
    unsigned = Transaction(
        tx_id=ZERO_HASH,
        ids_id=key.node_id,
        peer_list=peers,
        cred_list=tuple(peer_creds[p] for p in peers),
        host_list=hosts,
        trust_list=tuple(host_trusts[h] for h in hosts),
        evidence_list=ev,
        signature=b"",
    )
    # the body leaves out the id and the signature, so it is the signed
    # transaction's body too
    body = unsigned.body_bytes()
    tx_id = _sha256(body)
    tx = replace(unsigned, tx_id=tx_id, signature=key.sign(tx_id + body))
    return _with_memo(tx, body_bytes=body)


def verify_transaction(tx: Transaction, registry: KeyRegistry) -> bool:
    """True iff the signature holds under the registered key, the lists are
    internally consistent, and every score is in range.  Unknown signers are
    treated as unauthenticated and rejected."""
    public = registry.get(tx.ids_id)
    if public is None:
        return False
    if len(tx.peer_list) != len(tx.cred_list):
        return False
    if not (len(tx.host_list) == len(tx.trust_list) == len(tx.evidence_list)):
        return False
    if any(not 0.0 <= c <= 1.0 for c in tx.cred_list):
        return False
    if any(not 0.0 <= t <= 1.0 for t in tx.trust_list):
        return False
    if tx.tx_id != _sha256(tx.body_bytes()):
        return False
    return verify(public, tx.signature, tx.signed_bytes())


@dataclass(frozen=True)
class BlockHeader:
    block_id: bytes
    leader_id: str
    gen_time: int  # logical round number
    prev_hash: bytes
    ctr: int
    target_v: float

    @_memoized
    def encode(self) -> bytes:
        return self.block_id + self.encode_without_id()

    def encode_without_id(self) -> bytes:
        return (
            enc_str(self.leader_id)
            + enc_int(self.gen_time)
            + self.prev_hash
            + enc_int(self.ctr)
            + enc_real(self.target_v)
        )

    @staticmethod
    def decode(r: Reader) -> "BlockHeader":
        block_id = r.read_fixed(HASH_LEN)
        leader = r.read_str()
        gen_time = r.read_int()
        prev = r.read_fixed(HASH_LEN)
        ctr = r.read_int()
        target = r.read_real()
        return BlockHeader(block_id, leader, gen_time, prev, ctr, target)


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    transactions: tuple[Transaction, ...]  # ordered by ids_id ascending
    leader_signature: bytes

    @_memoized
    def payload_bytes(self) -> bytes:
        return enc_list(self.transactions, Transaction.encode)

    def signed_bytes(self) -> bytes:
        return self.header.encode() + self.payload_bytes()

    def encode(self) -> bytes:
        return self.signed_bytes() + enc_bytes(self.leader_signature)

    @staticmethod
    def decode(r: Reader) -> "Block":
        header = BlockHeader.decode(r)
        txs = tuple(r.read_list(Transaction.decode))
        sig = r.read_bytes()
        return Block(header, txs, sig)

    @staticmethod
    def decode_bytes(data: bytes) -> "Block":
        r = Reader(data)
        b = Block.decode(r)
        r.expect_end()
        return b


def compute_block_id(
    leader_id: str,
    gen_time: int,
    prev_hash: bytes,
    ctr: int,
    target_v: float,
    transactions: Sequence[Transaction],
) -> bytes:
    header = BlockHeader(ZERO_HASH, leader_id, gen_time, prev_hash, ctr, target_v)
    payload = enc_list(transactions, Transaction.encode)
    return _sha256(header.encode_without_id() + payload)


def make_block(
    key: KeyPair,
    gen_time: int,
    prev_hash: bytes,
    ctr: int,
    target_v: float,
    transactions: Iterable[Transaction],
) -> Block:
    """Assemble and sign a block (payload sorted by signer id)."""
    txs = tuple(sorted(transactions, key=lambda t: t.ids_id))
    unsigned = Block(
        BlockHeader(ZERO_HASH, key.node_id, gen_time, prev_hash, ctr, target_v), txs, b""
    )
    # the payload is encoded once: it fixes the id, is signed, and is kept
    # on the returned block
    payload = unsigned.payload_bytes()
    header = replace(
        unsigned.header,
        block_id=_sha256(unsigned.header.encode_without_id() + payload),
    )
    signature = key.sign(header.encode() + payload)
    return _with_memo(Block(header, txs, signature), payload_bytes=payload)


@_memoized
def hash_block(b: Block) -> bytes:
    """SHA-256 over the canonical encoding of header and payload (not the
    leader signature)."""
    return _sha256(b.header.encode() + b.payload_bytes())


def genesis_block() -> Block:
    block_id = compute_block_id("", 0, ZERO_HASH, 0, 0.0, ())
    header = BlockHeader(block_id, "", 0, ZERO_HASH, 0, 0.0)
    return Block(header, (), b"")


class Chain:
    """Append-only block sequence with cached latest-per-observer state.

    The derived state (each node's most recent credibility and trust lists,
    and the round of its last led block) is a pure function of the block
    sequence; ``extended`` recomputes it incrementally.
    """

    def __init__(
        self,
        blocks: list[Block],
        latest_cred: dict[str, dict[str, float]],
        latest_trust: dict[str, dict[str, float]],
        last_led_round: dict[str, int],
    ):
        self.blocks = blocks
        self.latest_cred = latest_cred
        self.latest_trust = latest_trust
        self.last_led_round = last_led_round

    @staticmethod
    def genesis() -> "Chain":
        return Chain([genesis_block()], {}, {}, {})

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def tip_hash(self) -> bytes:
        return hash_block(self.tip)

    def __len__(self) -> int:
        return len(self.blocks)

    def extended(self, b: Block) -> "Chain":
        """Return a new chain with ``b`` appended.

        Consensus-level validity is the caller's business; this only checks
        linkage.  Linkage also rules out a duplicate: a block already in the
        chain would have to link to a tip whose hash covers that block, which
        takes a SHA-256 collision.
        """
        if b.header.prev_hash != self.tip_hash:
            raise ChainError("prev_hash does not match the chain tip")
        # _apply_block replaces an observer's lists and never edits them, so
        # the per-observer dicts can be shared with the parent chain
        latest_cred = dict(self.latest_cred)
        latest_trust = dict(self.latest_trust)
        last_led = dict(self.last_led_round)
        _apply_block(b, latest_cred, latest_trust, last_led)
        return Chain(self.blocks + [b], latest_cred, latest_trust, last_led)

    def chain_state_credibility(self, target: str) -> dict[str, float]:
        """Each observer's most recent on-chain credibility of ``target``."""
        out: dict[str, float] = {}
        for observer, creds in self.latest_cred.items():
            if observer != target and target in creds:
                out[observer] = creds[target]
        return out

    def replay_check(self) -> bool:
        """Derived state equals a from-genesis brute-force replay."""
        cred: dict[str, dict[str, float]] = {}
        trust: dict[str, dict[str, float]] = {}
        led: dict[str, int] = {}
        for b in self.blocks[1:]:
            _apply_block(b, cred, trust, led)
        return (
            cred == self.latest_cred
            and trust == self.latest_trust
            and led == self.last_led_round
        )


def _apply_block(
    b: Block,
    latest_cred: dict[str, dict[str, float]],
    latest_trust: dict[str, dict[str, float]],
    last_led: dict[str, int],
) -> None:
    for tx in b.transactions:
        latest_cred[tx.ids_id] = dict(zip(tx.peer_list, tx.cred_list))
        latest_trust[tx.ids_id] = dict(zip(tx.host_list, tx.trust_list))
    if b.header.leader_id:
        last_led[b.header.leader_id] = b.header.gen_time


# ---------------------------------------------------------------------------
# JSON Lines export (hex for hashes and signatures) for external audit.

def _tx_to_dict(tx: Transaction) -> dict:
    return {
        "tx_id": tx.tx_id.hex(),
        "ids_id": tx.ids_id,
        "peer_list": list(tx.peer_list),
        "cred_list": list(tx.cred_list),
        "host_list": list(tx.host_list),
        "trust_list": list(tx.trust_list),
        "evidence_list": [
            {
                "host": e.host,
                "alert_digests": [d.hex() for d in e.alert_digests],
                "normal_count": e.normal_count,
                "packet_count": e.packet_count,
            }
            for e in tx.evidence_list
        ],
        "signature": tx.signature.hex(),
    }


_INT64 = range(-(2**63), 2**63)  # what the canonical encoding can pack

# The readers below return a field when ``json`` decoded it as the type the
# export writes (so a bool is not an int) and raise ``ChainError`` otherwise.


def _json(value: Any, kind: type, what: str) -> Any:
    if type(value) is not kind:
        raise ChainError(f"{what} has the wrong JSON type ({type(value).__name__})")
    return value


def _object(value: Any, what: str) -> dict:
    return _json(value, dict, what)


def _hex(value: Any, what: str) -> bytes:
    return bytes.fromhex(_json(value, str, what))


def _int64(value: Any, what: str) -> int:
    if _json(value, int, what) not in _INT64:
        raise ChainError(f"{what} is out of the 64-bit range")
    return value


def _array(value: Any, kind: type, what: str) -> list:
    """A JSON array whose entries all have the type ``kind``."""
    if type(value) is not list or not set(map(type, value)) <= {kind}:
        raise ChainError(f"{what} is not a JSON array of {kind.__name__}")
    return value


def _tx_from_dict(d: dict) -> Transaction:
    return Transaction(
        tx_id=_hex(d["tx_id"], "tx_id"),
        ids_id=_json(d["ids_id"], str, "ids_id"),
        peer_list=tuple(_array(d["peer_list"], str, "peer_list")),
        cred_list=tuple(_array(d["cred_list"], float, "cred_list")),
        host_list=tuple(_array(d["host_list"], str, "host_list")),
        trust_list=tuple(_array(d["trust_list"], float, "trust_list")),
        evidence_list=tuple(
            EvidenceRecord(
                _json(e["host"], str, "evidence host"),
                tuple(
                    map(bytes.fromhex, _array(e["alert_digests"], str, "alert_digests"))
                ),
                _int64(e["normal_count"], "normal_count"),
                _int64(e["packet_count"], "packet_count"),
            )
            for e in _array(d["evidence_list"], dict, "evidence_list")
        ),
        signature=_hex(d["signature"], "signature"),
    )


def block_to_dict(b: Block) -> dict:
    return {
        "header": {
            "block_id": b.header.block_id.hex(),
            "leader_id": b.header.leader_id,
            "gen_time": b.header.gen_time,
            "prev_hash": b.header.prev_hash.hex(),
            "ctr": b.header.ctr,
            "target_v": b.header.target_v,
        },
        "transactions": [_tx_to_dict(tx) for tx in b.transactions],
        "leader_signature": b.leader_signature.hex(),
    }


def block_from_dict(d: dict) -> Block:
    """The block of an export line; a field of the wrong JSON type raises
    ``ChainError``."""
    h = _object(d["header"], "header")
    header = BlockHeader(
        block_id=_hex(h["block_id"], "block_id"),
        leader_id=_json(h["leader_id"], str, "leader_id"),
        gen_time=_int64(h["gen_time"], "gen_time"),
        prev_hash=_hex(h["prev_hash"], "prev_hash"),
        ctr=_int64(h["ctr"], "ctr"),
        target_v=_json(h["target_v"], float, "target_v"),
    )
    txs = tuple(
        _tx_from_dict(t) for t in _array(d["transactions"], dict, "transactions")
    )
    return Block(header, txs, _hex(d["leader_signature"], "leader_signature"))


def export_chain(chain: Chain, registry: KeyRegistry, path: str) -> None:
    """Write the chain as JSON Lines: a registry line, then one block per line."""
    with open(path, "w", encoding="utf-8") as fh:
        reg = {nid: pub.hex() for nid, pub in sorted(registry.as_dict().items())}
        fh.write(json.dumps({"type": "registry", "keys": reg}, sort_keys=True) + "\n")
        for b in chain.blocks:
            fh.write(json.dumps(block_to_dict(b), sort_keys=True) + "\n")


def import_chain(path: str) -> tuple[list[Block], KeyRegistry]:
    """Read blocks and the key registry back from a JSON Lines export."""
    registry = KeyRegistry()
    blocks: list[Block] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d = _object(json.loads(line), "line")
            if d.get("type") == "registry":
                for pub_hex in _object(d["keys"], "registry keys").values():
                    registry.register(_hex(pub_hex, "registry key"))
            else:
                blocks.append(block_from_dict(d))
    return blocks, registry
