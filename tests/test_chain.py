"""Transactions, blocks, chain state, and the JSONL export."""

import hashlib
import struct
import tracemalloc
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cidnsim import chain as chain_module
from cidnsim import keys
from cidnsim.chain import (
    ZERO_HASH,
    Block,
    BlockHeader,
    Chain,
    ChainError,
    EvidenceRecord,
    Transaction,
    block_from_dict,
    block_to_dict,
    build_transaction,
    export_chain,
    genesis_block,
    hash_block,
    import_chain,
    make_block,
    verify_transaction,
)
from oracles import replay_check
from cidnsim.consensus import ConsensusParams, ValidationContext, chain_average_credibility
from cidnsim.keys import KeyPair, KeyRegistry

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def key_of(label: str) -> KeyPair:
    return KeyPair.from_seed(hashlib.sha256(label.encode()).digest())


@pytest.fixture()
def registry_and_keys():
    keys = [key_of(f"chain-test-{i}") for i in range(3)]
    reg = KeyRegistry()
    for k in keys:
        reg.register(k.public_bytes)
    return reg, keys


# -- transactions -----------------------------------------------------------


def test_transaction_round_trip_and_verify(registry_and_keys):
    reg, keys = registry_and_keys
    ev = EvidenceRecord("10.0.0.1", (hashlib.sha256(b"alert").digest(),), 40, 50)
    tx = build_transaction(
        keys[0],
        1,
        {"peerB": 0.8, "peerA": 0.6},
        {"10.0.0.1": 0.3, "10.0.0.2": 0.9},
        {"10.0.0.1": ev},
    )
    assert verify_transaction(tx, reg)
    # sections sorted by identifier; the credibilities name no peer
    assert tx.host_list == ("10.0.0.1", "10.0.0.2")
    assert tx.cred_list == (0.6, 0.8)
    assert tx.evidence_list[0] == ev
    # a transaction is read back only from the JSON export of a block
    carrier = make_block(keys[0], 1, ZERO_HASH, 1, 0.5, [tx])
    (read_back,) = block_from_dict(block_to_dict(carrier)).transactions
    assert read_back == tx and read_back.encode() == tx.encode()


def test_transaction_unknown_signer_rejected(registry_and_keys):
    _, keys = registry_and_keys
    tx = build_transaction(keys[0], 1, {}, {"10.0.0.1": 0.5})
    assert not verify_transaction(tx, KeyRegistry())


def test_transaction_out_of_range_score_rejected(registry_and_keys):
    reg, keys = registry_and_keys
    good = build_transaction(keys[0], 1, {}, {"10.0.0.1": 0.5})
    bad = Transaction(
        tx_id=good.tx_id,
        ids_id=good.ids_id,
        seq=good.seq,
        cred_list=good.cred_list,
        host_list=good.host_list,
        trust_list=(1.5,),
        evidence_list=good.evidence_list,
        signature=good.signature,
    )
    assert not verify_transaction(bad, reg)


def _flip_bit(data, raw: bytes) -> bytes:
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    return (int.from_bytes(raw, "big") ^ (1 << bit)).to_bytes(len(raw), "big")


def _flip_real_bit(data, x: float) -> float:
    """One bit of the IEEE-754 pattern flipped (the result may be a NaN)."""
    return struct.unpack(">d", _flip_bit(data, struct.pack(">d", x)))[0]


def _change_char(data, s: str) -> str:
    i = data.draw(st.integers(0, len(s) - 1))
    c = data.draw(st.characters(exclude_categories=("Cs",)).filter(lambda c: c != s[i]))
    return s[:i] + c + s[i + 1 :]


def _change_entry(change):
    def changed(data, items: tuple) -> tuple:
        i = data.draw(st.integers(0, len(items) - 1))
        return items[:i] + (change(data, items[i]),) + items[i + 1 :]

    return changed


def _change_count(data, n: int) -> int:
    return data.draw(st.integers(-(2**63), 2**63 - 1).filter(lambda m: m != n))


def _change_evidence(data, e: EvidenceRecord) -> EvidenceRecord:
    """One field of the record changed; its own check may refuse the result
    with a ValueError."""
    name, change = data.draw(st.sampled_from(sorted(_EVIDENCE_CHANGES.items())))
    return e._replace(**{name: change(data, getattr(e, name))})


_EVIDENCE_CHANGES = {
    "host": _change_char,
    "alert_digests": _change_entry(_flip_bit),
    "normal_count": _change_count,
    "packet_count": _change_count,
}
_TRANSACTION_CHANGES = {
    "tx_id": _flip_bit,
    "ids_id": _change_char,
    "seq": _change_count,
    "cred_list": _change_entry(_flip_real_bit),
    "host_list": _change_entry(_change_char),
    "trust_list": _change_entry(_flip_real_bit),
    "evidence_list": _change_entry(_change_evidence),
    "signature": _flip_bit,
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_single_field_change_invalidates_transaction(data):
    """Every field of a transaction is covered by its id or its signature:
    one changed bit, character, count or digest anywhere is rejected."""
    key = key_of("flip-test")
    reg = KeyRegistry()
    reg.register(key.public_bytes)
    evidence = {
        h: EvidenceRecord(h, (hashlib.sha256(h.encode()).digest(),), 3, 5)
        for h in ("10.0.0.8", "10.0.0.9")
    }
    tx = build_transaction(
        key, 7, {"peerA": 0.7, "peerB": 0.2}, {"10.0.0.8": 0.9, "10.0.0.9": 0.4}, evidence
    )
    assert verify_transaction(tx, reg)
    name, change = data.draw(st.sampled_from(sorted(_TRANSACTION_CHANGES.items())))
    try:
        mutated = tx._replace(**{name: change(data, getattr(tx, name))})
    except ValueError:
        return  # an evidence record's own check refused the change
    assert mutated.encode() != tx.encode()
    assert not verify_transaction(mutated, reg)


def test_a_built_transaction_keeps_the_bytes_it_signed(registry_and_keys):
    """The bytes that were signed are held once, inside the transaction's
    memoized encoding: the transaction keeps no separate copy of them, and
    the signature memo keeps only their digest."""
    _, keys_ = registry_and_keys
    tx = build_transaction(keys_[0], 1, {"peerA": 0.6}, {"10.0.0.1": 0.3})
    signed = tx.signed_bytes()
    assert signed == tx.tx_id + tx.body_bytes()
    assert tx.tx_id == hashlib.sha256(tx.body_bytes()).digest()
    assert tx.encode().startswith(signed)
    slots = [getattr(tx, n, None) for n in tx.__slots__]
    held = [v for v in slots if isinstance(v, bytes)]
    assert signed not in held
    remembered = [d for (_, sig), d in keys._signed.items() if sig == tx.signature]
    assert remembered == [hashlib.sha256(signed).digest()]


def test_a_transaction_builds_empty_evidence_only_for_hosts_without_evidence(
    monkeypatch, registry_and_keys
):
    _, keys_ = registry_and_keys
    evidence = {h: EvidenceRecord(h, (), 3, 4) for h in ("10.0.0.1", "10.0.0.2")}
    built = []

    class CountingRecord(EvidenceRecord):
        def __init__(self, host, *rest):
            built.append(host)
            super().__init__(host, *rest)

    monkeypatch.setattr(chain_module, "EvidenceRecord", CountingRecord)
    trusts = {"10.0.0.1": 0.3, "10.0.0.2": 0.6, "10.0.0.3": 0.5}
    tx = build_transaction(keys_[0], 1, {}, trusts, evidence)
    assert built == ["10.0.0.3"]
    assert tx.evidence_list[:2] == (evidence["10.0.0.1"], evidence["10.0.0.2"])
    empty = tx.evidence_list[2]
    assert (empty.host, empty.alert_digests, empty.normal_count, empty.packet_count) == (
        "10.0.0.3", (), 0, 0
    )


# -- blocks -----------------------------------------------------------------


def test_make_block_encodes_its_payload_once(monkeypatch, registry_and_keys):
    _, keys_ = registry_and_keys
    txs = [build_transaction(k, 1, {}, {"10.0.0.1": 0.5}) for k in keys_]
    prev = genesis_block().header.block_id
    lists, hashed = [], []
    enc_list, sha256 = chain_module.enc_list, chain_module.sha256
    monkeypatch.setattr(
        chain_module, "enc_list", lambda *a: lists.append(a) or enc_list(*a)
    )
    monkeypatch.setattr(chain_module, "sha256", lambda d: hashed.append(d) or sha256(d))
    b = make_block(keys_[0], 3, prev, 7, 0.5, txs)
    # one list of digests; one hash per transaction, one for the root, one for the id
    assert (len(lists), len(hashed)) == (1, len(txs) + 2)
    # reading the id, the root and the digests again hashes nothing
    assert hash_block(b) == b.header.block_id and len(b.payload_bytes()) == 32
    assert all(len(t.digest()) == 32 for t in txs)
    assert (len(lists), len(hashed)) == (1, len(txs) + 2)
    monkeypatch.undo()
    root = hashlib.sha256(
        struct.pack(">I", len(txs))
        + b"".join(hashlib.sha256(t.encode()).digest() for t in b.transactions)
    ).digest()
    assert b.payload_bytes() == root
    expected = hashlib.sha256(b.header.encode_without_id() + root).digest()
    assert b.header.block_id == expected
    # the block keeps its fields, its memoized root and its memoized id only,
    # not the transactions' bytes
    memos = [n for n in b.__slots__ if n not in b._fields and hasattr(b, n)]
    assert [getattr(b, n) for n in memos] == [root, b.header.block_id]
    assert hash_block(b) is b.header.block_id


def test_block_round_trip(registry_and_keys):
    _, keys = registry_and_keys
    txs = [build_transaction(k, 1, {}, {"10.0.0.1": 0.5}) for k in keys]
    b = make_block(keys[0], 5, Chain.genesis().tip_hash, 3, 0.25, txs)
    copy = block_from_dict(block_to_dict(b))
    assert copy == b and copy.encode() == b.encode()
    # payload sorted by signer id regardless of input order
    assert [t.ids_id for t in b.transactions] == sorted(t.ids_id for t in txs)


def test_block_id_depends_on_every_field(registry_and_keys):
    _, keys = registry_and_keys
    tx = build_transaction(keys[0], 1, {}, {"10.0.0.1": 0.5})
    header = BlockHeader(ZERO_HASH, "leader", 7, b"\x01" * 32, 9, 0.5)
    block = Block(header, (tx,), b"")
    reference = hash_block(block)
    for change in [
        {"leader_id": "other"},
        {"gen_time": 8},
        {"prev_hash": b"\x02" * 32},
        {"ctr": 10},
        {"target_v": 0.75},
    ]:
        changed = block._replace(header=header._replace(**change))
        assert hash_block(changed) != reference
    assert hash_block(block._replace(transactions=())) != reference
    # the id covers neither itself nor the signature, so the signed block that
    # carries it has the same id
    signed = Block(header._replace(block_id=reference), (tx,), b"signature")
    assert hash_block(signed) == reference


# -- chain state ------------------------------------------------------------


def _block_on(chain, key, gen_time, txs):
    return make_block(key, gen_time, chain.tip_hash, 1, 0.5, txs)


def test_chain_linkage_and_duplicate_rejection(registry_and_keys):
    _, keys = registry_and_keys
    chain = Chain.genesis()
    b1 = _block_on(chain, keys[0], 1, [])
    chain2 = chain.extended(b1, 0.0)
    assert chain2.height == 1 and chain2.blocks == [chain.tip, b1]
    with pytest.raises(ChainError):
        chain.extended(_block_on(chain2, keys[0], 2, []), 0.0)  # wrong parent
    with pytest.raises(ChainError):
        chain2.extended(b1, 0.0)  # prev mismatch caught before duplicate


def test_latest_entry_wins(registry_and_keys):
    _, keys = registry_and_keys
    k = keys[0]
    chain = Chain.genesis()
    chain = chain.extended(
        _block_on(chain, k, 1, [build_transaction(k, 1, {"p": 0.9}, {"h": 0.1})]), 0.0
    )
    chain = chain.extended(
        _block_on(chain, k, 2, [build_transaction(k, 2, {"p": 0.2}, {"h": 0.8})]), 0.0
    )
    assert chain.latest_tx[k.node_id].cred_list == (0.2,)
    assert chain.latest_tx[k.node_id].host_trusts() == {"h": 0.8}
    assert chain.last_led_round[k.node_id] == 2
    assert replay_check(chain)


def test_average_credibility_reads_each_other_members_last_committed_score(
    registry_and_keys,
):
    """A member's average credibility counts itself at 1 and each other
    member at its last committed credibility of it, or at the newcomer
    value: the target's own scores of others never count."""
    reg, keys = registry_and_keys
    a, b, c = keys
    ids = [k.node_id for k in keys]
    ctx = ValidationContext(
        ConsensusParams(d_cred=1.0, d_stake=0.05, r_bits=16, q_max=4096, t_cap=16),
        reg, 0.5, lambda rnd: ids,
    )
    chain = Chain.genesis()
    for rnd, (key, creds) in enumerate(
        [(a, {b.node_id: 0.7, c.node_id: 0.1}), (b, {a.node_id: 0.6, c.node_id: 0.2})],
        start=1,
    ):
        tx = build_transaction(key, rnd, creds, {"h": 0.5})
        chain = chain.extended(_block_on(chain, key, rnd, [tx]), 0.0)
    assert chain_average_credibility(chain, b.node_id, ids, ctx) == (1.0 + 0.7 + 0.5) / 3
    assert chain_average_credibility(chain, a.node_id, ids, ctx) == (1.0 + 0.6 + 0.5) / 3
    assert chain_average_credibility(chain, c.node_id, ids, ctx) == (1.0 + 0.1 + 0.2) / 3


def test_a_chain_scores_its_blocks_weights_and_links_to_its_ancestors(registry_and_keys):
    _, keys = registry_and_keys
    genesis = Chain.genesis()
    a = genesis.extended(_block_on(genesis, keys[0], 1, []), 0.25)
    ab = a.extended(_block_on(a, keys[0], 2, []), 0.5)
    b = genesis.extended(_block_on(genesis, keys[1], 1, []), 0.75)
    assert (ab.height, ab.score, ab.rank) == (2, 0.75, (-0.75, ab.tip_hash))
    assert ab.parent is a and a.parent is genesis and genesis.parent is None
    assert ab.blocks == [genesis.tip, a.tip, ab.tip]
    # equal scores: the smaller tip hash ranks first
    first = min(ab, b, key=attrgetter("rank"))
    assert first.tip_hash == min(ab.tip_hash, b.tip_hash)
    assert min(a, b, key=attrgetter("rank")) is b


def test_chains_kept_at_every_height_take_memory_linear_in_the_height(registry_and_keys):
    """A chain extended n times, with every intermediate chain kept as the
    block store keeps them, retains memory linear in n: doubling n at most
    (about) doubles it."""
    _, keys = registry_and_keys
    k = keys[0]
    blocks, prev = [], Chain.genesis().tip_hash
    for rnd in range(1, 2001):
        tx = build_transaction(k, rnd, {keys[1].node_id: 0.5}, {"10.0.0.1": rnd / 4000})
        blocks.append(make_block(k, rnd, prev, 1, 0.5, [tx]))
        prev = hash_block(blocks[-1])

    def retained(n: int) -> int:
        tracemalloc.start()
        try:
            kept = [Chain.genesis()]
            for b in blocks[:n]:
                kept.append(kept[-1].extended(b, 1.0))
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert retained(2000) / retained(1000) <= 2.5


# -- export / import --------------------------------------------------------


def test_export_import_round_trip(tmp_path, registry_and_keys):
    reg, keys = registry_and_keys
    chain = Chain.genesis()
    for rnd, k in enumerate(keys, start=1):
        tx = build_transaction(k, rnd, {}, {"10.0.0.1": 0.4})
        chain = chain.extended(_block_on(chain, k, rnd, [tx]), 0.0)
    path = tmp_path / "chain.jsonl"
    export_chain(chain, reg, str(path))
    blocks, reg2 = import_chain(str(path))
    assert [b.encode() for b in blocks] == [b.encode() for b in chain.blocks]
    assert reg2.as_dict() == reg.as_dict()
    assert blocks[0].encode() == genesis_block().encode()
    assert hash_block(blocks[-1]) == chain.tip_hash
