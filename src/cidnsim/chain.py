"""Trust-chain data model: transactions, blocks, headers, and the chain.

A transaction carries one node's current view (peer credibilities, host
trust scores, evidence); blocks bundle the transactions of a round under a
mined header.  Everything that is hashed or signed goes through the
canonical encoding in :mod:`cidnsim.encoding`.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Callable, Iterable, TypeVar

from .encoding import enc_bytes, enc_int, enc_list, enc_real, enc_str, sha256
from .keys import KeyPair, KeyRegistry, verify
from .records import Record, set_field

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
    "scored_peers",
    "verify_transaction",
    "hash_block",
    "transaction_root",
    "block_to_dict",
    "block_from_dict",
    "export_chain",
    "import_chain",
]

HASH_LEN = 32
ZERO_HASH = b"\x00" * HASH_LEN


T = TypeVar("T")


class ChainError(ValueError):
    """Structural violation: bad linkage or a malformed record."""


def _memo_slot(name: str) -> str:
    return f"_memo_{name}"


def _memoized(method: Callable[[Any], T]) -> Callable[[Any], T]:
    """Compute a record's value once and keep it on the instance.

    The cache is the record's ``_memo_<name>`` slot, outside its fields, so
    equality, hashing and ``_replace`` ignore it.
    """
    slot = _memo_slot(method.__name__)

    @functools.wraps(method)
    def cached(self):
        try:
            return getattr(self, slot)
        except AttributeError:
            value = method(self)
            set_field(self, slot, value)
            return value

    return cached


def _with_memo(record: Any, **computed: Any) -> Any:
    """Keep values already computed for ``record`` as its memoized results of
    the methods they are named after, so later calls return the objects made
    while building it rather than a second copy."""
    for name, value in computed.items():
        set_field(record, _memo_slot(name), value)
    return record


class EvidenceRecord(Record):
    """Justification for one host's score: alert digests plus the interval counts."""

    __slots__ = ("host", "alert_digests", "normal_count", "packet_count")

    def __init__(
        self, host: str, alert_digests: tuple[bytes, ...], normal_count: int,
        packet_count: int,
    ) -> None:
        if normal_count < 0 or normal_count > packet_count:
            raise ValueError("evidence counts inconsistent")
        for d in alert_digests:
            if len(d) != HASH_LEN:
                raise ValueError("alert digest must be 32 bytes")
        self._set(host, alert_digests, normal_count, packet_count)

    def encode(self) -> bytes:
        return (
            enc_str(self.host)
            + enc_list(self.alert_digests, lambda d: d)
            + enc_int(self.normal_count)
            + enc_int(self.packet_count)
        )


class Transaction(Record):
    """One node's signed lists.

    ``seq`` is the round the transaction was built in: a node builds at most
    one per round, so it rises with each transaction of a signer.
    ``cred_list`` names no peer: it scores the members at ``seq``, in the
    order of ``scored_peers``.

    The encoding and its 32-byte digest are the only bytes a transaction
    keeps: the signed bytes and the body are cut from the encoding.  The
    host lists are also kept as a map, built once, which every reader of
    chain state shares.
    """

    __slots__ = ("tx_id", "ids_id", "seq", "cred_list", "host_list",
                 "trust_list", "evidence_list", "signature",
                 "_memo_encode", "_memo_digest", "_memo_host_trusts")

    def __init__(
        self, tx_id: bytes, ids_id: str, seq: int, cred_list: tuple[float, ...],
        host_list: tuple[str, ...], trust_list: tuple[float, ...],
        evidence_list: tuple[EvidenceRecord, ...], signature: bytes,
    ) -> None:
        self._set(tx_id, ids_id, seq, cred_list, host_list, trust_list,
                  evidence_list, signature)

    def body_bytes(self) -> bytes:
        """The signed lists, which ``tx_id`` hashes: the signed bytes after
        the id."""
        return self.signed_bytes()[len(self.tx_id):]

    def signed_bytes(self) -> bytes:
        """The id and the body, which the signature covers: the encoding
        without the length-prefixed signature."""
        return self.encode()[: -4 - len(self.signature)]

    @_memoized
    def encode(self) -> bytes:
        return (
            self.tx_id
            + enc_str(self.ids_id)
            + enc_int(self.seq)
            + enc_list(self.cred_list, enc_real)
            + enc_list(self.host_list, enc_str)
            + enc_list(self.trust_list, enc_real)
            + enc_list(self.evidence_list, EvidenceRecord.encode)
            + enc_bytes(self.signature)
        )

    @_memoized
    def digest(self) -> bytes:
        """SHA-256 of the encoding: what a block's transaction root commits
        to for this transaction."""
        return sha256(self.encode())

    @_memoized
    def host_trusts(self) -> dict[str, float]:
        """Host -> trust, in list order.  Shared: never edit it."""
        return dict(zip(self.host_list, self.trust_list))


def scored_peers(members: Iterable[str], signer: str) -> list[str]:
    """The peers a transaction of ``signer`` scores, in ``cred_list`` order:
    the members at its ``seq`` other than the signer, sorted by id."""
    return sorted(m for m in members if m != signer)


def build_transaction(
    key: KeyPair,
    seq: int,
    peer_creds: dict[str, float],
    host_trusts: dict[str, float],
    evidence: dict[str, EvidenceRecord] | None = None,
) -> Transaction:
    """Assemble, hash, and sign a transaction from a node's current lists,
    built in round ``seq``.

    ``peer_creds`` holds a credibility of each member at ``seq`` other than
    the signer; the list keeps the values only, in ``scored_peers`` order.
    Host sections are ordered by identifier for determinism.
    """
    evidence = evidence or {}
    creds = tuple(peer_creds[p] for p in scored_peers(peer_creds, key.node_id))
    trusts = {h: host_trusts[h] for h in sorted(host_trusts)}
    ev = tuple(
        evidence[h] if h in evidence else EvidenceRecord(h, (), 0, 0) for h in trusts
    )
    lists = (
        key.node_id, seq, creds, tuple(trusts), tuple(trusts.values()), ev,
    )
    # the body leaves out the id and the signature, so it is the signed
    # transaction's body too; the bytes signed, with the signature, are the
    # signed transaction's encoding
    body = Transaction(b"", *lists, b"").body_bytes()
    tx_id = sha256(body)
    signed = tx_id + body
    signature = key.sign(signed)
    tx = Transaction(tx_id, *lists, signature)
    return _with_memo(
        tx, encode=signed + enc_bytes(signature), host_trusts=trusts
    )


def verify_transaction(tx: Transaction, registry: KeyRegistry) -> bool:
    """True iff the signature holds under the registered key, the host lists
    are of one length, and every score is in range.  Unknown signers are
    treated as unauthenticated and rejected."""
    public = registry.get(tx.ids_id)
    if public is None:
        return False
    if not (len(tx.host_list) == len(tx.trust_list) == len(tx.evidence_list)):
        return False
    if any(not 0.0 <= c <= 1.0 for c in tx.cred_list):
        return False
    if any(not 0.0 <= t <= 1.0 for t in tx.trust_list):
        return False
    if tx.tx_id != sha256(tx.body_bytes()):
        return False
    return verify(public, tx.signature, tx.signed_bytes())


class BlockHeader(Record):
    __slots__ = ("block_id", "leader_id", "gen_time", "prev_hash", "ctr", "target_v",
                 "_memo_encode")

    def __init__(
        self, block_id: bytes, leader_id: str, gen_time: int,  # logical round number
        prev_hash: bytes, ctr: int, target_v: float,
    ) -> None:
        self._set(block_id, leader_id, gen_time, prev_hash, ctr, target_v)

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


class Block(Record):
    __slots__ = ("header", "transactions", "leader_signature",
                 "_memo_payload_bytes", "_memo_hash_block")

    def __init__(
        self, header: BlockHeader,
        transactions: tuple[Transaction, ...],  # ordered by ids_id ascending
        leader_signature: bytes,
    ) -> None:
        self._set(header, transactions, leader_signature)

    @_memoized
    def payload_bytes(self) -> bytes:
        """The 32-byte transaction root, which the block id, the eligibility
        draw and the leader signature read in place of the transactions."""
        return transaction_root(self.transactions)

    def signed_bytes(self) -> bytes:
        return self.header.encode() + self.payload_bytes()

    def encode(self) -> bytes:
        return self.signed_bytes() + enc_bytes(self.leader_signature)


def transaction_root(txs: Iterable[Transaction]) -> bytes:
    """SHA-256 over the list of the transactions' digests: a flat list, not a
    Merkle tree, since no reader proves the inclusion of one transaction."""
    return sha256(enc_list(txs, Transaction.digest))


def _block_digest(header: BlockHeader, payload: bytes) -> bytes:
    # the header's memoized encoding, less the id it leads with
    return sha256(header.encode()[len(header.block_id):] + payload)


@_memoized
def hash_block(b: Block) -> bytes:
    """The block id: SHA-256 over the header without its id and the
    transaction root.  It covers neither the claimed id nor the leader
    signature."""
    return _block_digest(b.header, b.payload_bytes())


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
    fields = (key.node_id, gen_time, prev_hash, ctr, target_v)
    unsigned = Block(BlockHeader(ZERO_HASH, *fields), txs, b"")
    # the root is computed once: it fixes the id and is signed
    payload = unsigned.payload_bytes()
    bid = _block_digest(unsigned.header, payload)
    header = BlockHeader(bid, *fields)
    return _with_memo(
        Block(header, txs, key.sign(header.encode() + payload)),
        payload_bytes=payload, hash_block=bid,
    )


def genesis_block() -> Block:
    unsigned = Block(BlockHeader(ZERO_HASH, "", 0, ZERO_HASH, 0, 0.0), (), b"")
    return Block(unsigned.header._replace(block_id=hash_block(unsigned)), (), b"")


class Chain:
    """One node of the block tree: the block ``tip``, the ``parent`` chain it
    extends, and the state the path from genesis derives.

    The derived state (each signer's last committed transaction, the round
    of each leader's last block, and the fork-choice ``score``) is a pure
    function of that path; ``extended`` computes it from the parent's.  The
    block sequence is not held: ``blocks`` walks the parents.
    """

    __slots__ = ("tip", "parent", "height", "latest_tx", "last_led_round", "score")

    def __init__(
        self,
        tip: Block,
        parent: "Chain | None",
        latest_tx: dict[str, Transaction],
        last_led_round: dict[str, int],
        score: float,
    ):
        self.tip = tip
        self.parent = parent
        self.height = 0 if parent is None else parent.height + 1
        self.latest_tx = latest_tx
        self.last_led_round = last_led_round
        self.score = score

    @staticmethod
    def genesis() -> "Chain":
        return Chain(genesis_block(), None, {}, {}, 0.0)

    @property
    def tip_hash(self) -> bytes:
        return hash_block(self.tip)

    @property
    def rank(self) -> tuple[float, bytes]:
        """Fork-choice order, smallest first: the highest accumulated stake x
        credibility, ties toward the smallest tip hash."""
        return (-self.score, self.tip_hash)

    @property
    def blocks(self) -> list[Block]:
        """The block sequence from genesis to the tip."""
        out = []
        chain: Chain | None = self
        while chain is not None:
            out.append(chain.tip)
            chain = chain.parent
        return out[::-1]

    def is_new(self, tx: Transaction) -> bool:
        """The replay rule: a transaction may be committed on this chain only
        if its ``seq`` is above that of its signer's last committed one, so a
        signed report is committed once and never rolled back."""
        last = self.latest_tx.get(tx.ids_id)
        return last is None or tx.seq > last.seq

    def extended(self, b: Block, weight: float) -> "Chain":
        """Return the chain with ``b`` appended, scored ``weight`` above this
        one (the fork-choice weight ``validate_block`` returned for ``b``).

        Consensus-level validity is the caller's business; this only checks
        linkage.  Linkage also rules out a duplicate: a block already in the
        chain would have to link to a tip whose hash covers that block, which
        takes a SHA-256 collision.
        """
        if b.header.prev_hash != self.tip_hash:
            raise ChainError("prev_hash does not match the chain tip")
        latest_tx = dict(self.latest_tx)
        last_led = dict(self.last_led_round)
        for tx in b.transactions:
            latest_tx[tx.ids_id] = tx
        if b.header.leader_id:
            last_led[b.header.leader_id] = b.header.gen_time
        return Chain(b, self, latest_tx, last_led, self.score + weight)


# ---------------------------------------------------------------------------
# JSON Lines export (hex for hashes and signatures) for external audit.

def _to_json(value: Any) -> Any:
    """A record as the JSON object of its fields, a tuple as an array and
    bytes as hex; any other field is a JSON value already."""
    if isinstance(value, Record):
        return {name: _to_json(getattr(value, name)) for name in value._fields}
    if isinstance(value, tuple):
        # a record's tuple holds entries of one type, so its first tells
        # whether they need converting
        if value and isinstance(value[0], (Record, bytes)):
            return [_to_json(v) for v in value]
        return list(value)
    return value.hex() if isinstance(value, bytes) else value


_INT64 = range(-(2**63), 2**63)  # what the canonical encoding can pack

# The readers below return a field when ``json`` decoded it as the type the
# export writes (so a bool is not an int) and raise ``ChainError`` otherwise.
# An object's keys are the fields of the record it holds; any other key is
# refused, not ignored, since no signature covers it.
_KEYS = {cls: frozenset(cls._fields) for cls in (EvidenceRecord, Transaction, BlockHeader, Block)}


def _json(value: Any, kind: type, what: str) -> Any:
    if type(value) is not kind:
        raise ChainError(f"{what} has the wrong JSON type ({type(value).__name__})")
    return value


def _object(value: Any, what: str, keys: frozenset[str]) -> dict:
    if not _json(value, dict, what).keys() <= keys:
        raise ChainError(f"unknown fields in {what}: {sorted(value.keys() - keys)}")
    return value


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


def _evidence_from_dict(e: dict) -> EvidenceRecord:
    _object(e, "evidence entry", _KEYS[EvidenceRecord])
    return EvidenceRecord(
        _json(e["host"], str, "evidence host"),
        tuple(map(bytes.fromhex, _array(e["alert_digests"], str, "alert_digests"))),
        _int64(e["normal_count"], "normal_count"),
        _int64(e["packet_count"], "packet_count"),
    )


def _tx_from_dict(d: dict) -> Transaction:
    _object(d, "transaction", _KEYS[Transaction])
    return Transaction(
        tx_id=_hex(d["tx_id"], "tx_id"),
        ids_id=_json(d["ids_id"], str, "ids_id"),
        seq=_int64(d["seq"], "seq"),
        cred_list=tuple(_array(d["cred_list"], float, "cred_list")),
        host_list=tuple(_array(d["host_list"], str, "host_list")),
        trust_list=tuple(_array(d["trust_list"], float, "trust_list")),
        evidence_list=tuple(
            map(_evidence_from_dict, _array(d["evidence_list"], dict, "evidence_list"))
        ),
        signature=_hex(d["signature"], "signature"),
    )


def block_to_dict(b: Block) -> dict:
    return _to_json(b)


def block_from_dict(d: dict) -> Block:
    """The block of an export line; a field of the wrong JSON type, or a key
    the export does not write, raises ``ChainError``."""
    _object(d, "block", _KEYS[Block])
    h = _object(d["header"], "header", _KEYS[BlockHeader])
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
            try:
                d = _json(json.loads(line), dict, "line")
            except RecursionError as e:
                raise ChainError("line nested too deeply") from e
            if d.get("type") == "registry":
                _object(d, "registry line", frozenset(("type", "keys")))
                for pub_hex in _json(d["keys"], dict, "registry keys").values():
                    registry.register(_hex(pub_hex, "registry key"))
            else:
                blocks.append(block_from_dict(d))
    return blocks, registry
