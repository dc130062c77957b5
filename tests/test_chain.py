"""Transactions, blocks, chain state, and the JSONL export."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cidnsim import chain as chain_module
from cidnsim import keys
from cidnsim.chain import (
    Block,
    Chain,
    ChainError,
    EvidenceRecord,
    Transaction,
    build_transaction,
    compute_block_id,
    export_chain,
    genesis_block,
    hash_block,
    import_chain,
    make_block,
    verify_transaction,
)
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
        {"peerB": 0.8, "peerA": 0.6},
        {"10.0.0.1": 0.3, "10.0.0.2": 0.9},
        {"10.0.0.1": ev},
    )
    assert verify_transaction(tx, reg)
    # sections sorted by identifier
    assert tx.peer_list == ("peerA", "peerB")
    assert tx.host_list == ("10.0.0.1", "10.0.0.2")
    assert tx.cred_list == (0.6, 0.8)
    assert tx.evidence_list[0] == ev
    decoded = Transaction.decode(_reader(tx.encode()))
    assert decoded == tx


def _reader(data):
    from cidnsim.encoding import Reader

    return Reader(data)


def test_transaction_unknown_signer_rejected(registry_and_keys):
    _, keys = registry_and_keys
    tx = build_transaction(keys[0], {}, {"10.0.0.1": 0.5})
    assert not verify_transaction(tx, KeyRegistry())


def test_transaction_out_of_range_score_rejected(registry_and_keys):
    reg, keys = registry_and_keys
    good = build_transaction(keys[0], {}, {"10.0.0.1": 0.5})
    bad = Transaction(
        tx_id=good.tx_id,
        ids_id=good.ids_id,
        peer_list=good.peer_list,
        cred_list=good.cred_list,
        host_list=good.host_list,
        trust_list=(1.5,),
        evidence_list=good.evidence_list,
        signature=good.signature,
    )
    assert not verify_transaction(bad, reg)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_any_single_byte_flip_invalidates_transaction(data):
    key = key_of("flip-test")
    reg = KeyRegistry()
    reg.register(key.public_bytes)
    tx = build_transaction(key, {"p": 0.7}, {"10.0.0.9": 0.4})
    encoded = bytearray(tx.encode())
    pos = data.draw(st.integers(0, len(encoded) - 1))
    bit = data.draw(st.integers(0, 7))
    encoded[pos] ^= 1 << bit
    try:
        mutated = Transaction.decode(_reader(bytes(encoded)))
    except (ValueError, UnicodeDecodeError, MemoryError):
        return  # structural damage caught at decode time
    assert not verify_transaction(mutated, reg)


def test_a_built_transaction_keeps_the_bytes_it_signed(registry_and_keys):
    """The bytes that were signed are held once, inside the transaction's
    memoized encoding: the transaction keeps no separate copy of them, and
    the signature memo keeps only their digest."""
    _, keys_ = registry_and_keys
    tx = build_transaction(keys_[0], {"peerA": 0.6}, {"10.0.0.1": 0.3})
    signed = tx.signed_bytes()
    assert signed == tx.tx_id + tx.body_bytes()
    assert tx.tx_id == hashlib.sha256(tx.body_bytes()).digest()
    assert tx.encode().startswith(signed)
    held = [v for v in vars(tx).values() if isinstance(v, bytes)]
    assert signed not in held
    remembered = [m for (_, sig, m) in keys._verdicts if sig == tx.signature]
    assert remembered == [hashlib.sha256(signed).digest()]


# -- blocks -----------------------------------------------------------------


def test_make_block_encodes_its_payload_once(monkeypatch, registry_and_keys):
    _, keys_ = registry_and_keys
    txs = [build_transaction(k, {}, {"10.0.0.1": 0.5}) for k in keys_]
    prev = genesis_block().header.block_id
    calls = []
    enc_list = chain_module.enc_list
    monkeypatch.setattr(
        chain_module, "enc_list", lambda *a: calls.append(a) or enc_list(*a)
    )
    b = make_block(keys_[0], 3, prev, 7, 0.5, txs)
    b.payload_bytes()
    assert len(calls) == 1
    monkeypatch.undo()
    assert b.header.block_id == compute_block_id(keys_[0].node_id, 3, prev, 7, 0.5, b.transactions)


def test_block_round_trip(registry_and_keys):
    _, keys = registry_and_keys
    txs = [build_transaction(k, {}, {"10.0.0.1": 0.5}) for k in keys]
    b = make_block(keys[0], 5, Chain.genesis().tip_hash, 3, 0.25, txs)
    assert Block.decode_bytes(b.encode()) == b
    # payload sorted by signer id regardless of input order
    assert [t.ids_id for t in b.transactions] == sorted(t.ids_id for t in txs)


def test_block_id_depends_on_every_field(registry_and_keys):
    _, keys = registry_and_keys
    tx = build_transaction(keys[0], {}, {"10.0.0.1": 0.5})
    base = ("leader", 7, b"\x01" * 32, 9, 0.5, (tx,))
    reference = compute_block_id(*base)
    variants = [
        ("other", 7, b"\x01" * 32, 9, 0.5, (tx,)),
        ("leader", 8, b"\x01" * 32, 9, 0.5, (tx,)),
        ("leader", 7, b"\x02" * 32, 9, 0.5, (tx,)),
        ("leader", 7, b"\x01" * 32, 10, 0.5, (tx,)),
        ("leader", 7, b"\x01" * 32, 9, 0.75, (tx,)),
        ("leader", 7, b"\x01" * 32, 9, 0.5, ()),
    ]
    for v in variants:
        assert compute_block_id(*v) != reference


# -- chain state ------------------------------------------------------------


def _block_on(chain, key, gen_time, txs):
    return make_block(key, gen_time, chain.tip_hash, 1, 0.5, txs)


def test_chain_linkage_and_duplicate_rejection(registry_and_keys):
    _, keys = registry_and_keys
    chain = Chain.genesis()
    b1 = _block_on(chain, keys[0], 1, [])
    chain2 = chain.extended(b1)
    assert len(chain2) == 2
    with pytest.raises(ChainError):
        chain.extended(_block_on(chain2, keys[0], 2, []))  # wrong parent
    with pytest.raises(ChainError):
        chain2.extended(b1)  # prev mismatch caught before duplicate


def test_latest_entry_wins(registry_and_keys):
    _, keys = registry_and_keys
    k = keys[0]
    chain = Chain.genesis()
    chain = chain.extended(
        _block_on(chain, k, 1, [build_transaction(k, {"p": 0.9}, {"h": 0.1})])
    )
    chain = chain.extended(
        _block_on(chain, k, 2, [build_transaction(k, {"p": 0.2}, {"h": 0.8})])
    )
    assert chain.latest_cred[k.node_id] == {"p": 0.2}
    assert chain.latest_trust[k.node_id] == {"h": 0.8}
    assert chain.last_led_round[k.node_id] == 2
    assert chain.replay_check()


def test_chain_state_credibility_excludes_target_and_self(registry_and_keys):
    _, keys = registry_and_keys
    a, b = keys[0], keys[1]
    chain = Chain.genesis()
    chain = chain.extended(
        _block_on(chain, a, 1, [build_transaction(a, {b.node_id: 0.7}, {"h": 0.5})])
    )
    chain = chain.extended(
        _block_on(chain, b, 2, [build_transaction(b, {a.node_id: 0.6}, {"h": 0.5})])
    )
    assert chain.chain_state_credibility(b.node_id) == {a.node_id: 0.7}
    assert chain.chain_state_credibility(a.node_id) == {b.node_id: 0.6}


# -- export / import --------------------------------------------------------


def test_export_import_round_trip(tmp_path, registry_and_keys):
    reg, keys = registry_and_keys
    chain = Chain.genesis()
    for rnd, k in enumerate(keys, start=1):
        tx = build_transaction(k, {}, {"10.0.0.1": 0.4})
        chain = chain.extended(_block_on(chain, k, rnd, [tx]))
    path = tmp_path / "chain.jsonl"
    export_chain(chain, reg, str(path))
    blocks, reg2 = import_chain(str(path))
    assert [b.encode() for b in blocks] == [b.encode() for b in chain.blocks]
    assert reg2.as_dict() == reg.as_dict()
    assert blocks[0].encode() == genesis_block().encode()
    assert hash_block(blocks[-1]) == chain.tip_hash
