"""Identity and signature layer."""

import hashlib
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from cidnsim import keys
from cidnsim.chain import export_chain
from cidnsim.cli import verify_chain
from cidnsim.config import load_config
from cidnsim.keys import KeyPair, KeyRegistry, node_id_for, verify
from cidnsim.simulation import Simulation

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_key_derivation_is_deterministic():
    seed = hashlib.sha256(b"determinism").digest()
    a = KeyPair.from_seed(seed)
    b = KeyPair.from_seed(seed)
    assert a.public_bytes == b.public_bytes
    assert a.node_id == b.node_id == node_id_for(a.public_bytes)


def test_sign_and_verify():
    key = KeyPair.from_seed(hashlib.sha256(b"signer").digest())
    msg = b"round 17 payload"
    sig = key.sign(msg)
    assert verify(key.public_bytes, sig, msg)
    assert not verify(key.public_bytes, sig, msg + b"!")
    assert not verify(key.public_bytes, sig[:-1] + bytes([sig[-1] ^ 1]), msg)


def test_registry_lookup():
    reg = KeyRegistry()
    keys = [KeyPair.from_seed(hashlib.sha256(bytes([i])).digest()) for i in range(3)]
    for k in keys:
        assert reg.register(k.public_bytes) == k.node_id
    assert reg.as_dict() == {k.node_id: k.public_bytes for k in keys}
    assert reg.get(keys[1].node_id) == keys[1].public_bytes
    assert reg.get("unknown") is None


def test_a_signature_just_made_still_fails_on_any_other_triple():
    key = KeyPair.from_seed(hashlib.sha256(b"memo signer").digest())
    other = KeyPair.from_seed(hashlib.sha256(b"memo other").digest())
    msg = b"round 18 payload"
    sig = key.sign(msg)
    assert verify(key.public_bytes, sig, msg)
    assert not verify(key.public_bytes, bytes([sig[0] ^ 1]) + sig[1:], msg)
    assert not verify(key.public_bytes, sig, b"round 19 payload")
    assert not verify(other.public_bytes, sig, msg)


@pytest.fixture()
def verdict_spy(monkeypatch):
    """Every real Ed25519 verification made through ``keys.verify``, as its
    (public key, signature, message) triple."""
    calls = []

    class SpyPublicKey:
        @staticmethod
        def from_public_bytes(public_bytes):
            real = Ed25519PublicKey.from_public_bytes(public_bytes)

            class Spy:
                def verify(self, signature, message):
                    calls.append((public_bytes, signature, message))
                    real.verify(signature, message)

            return Spy()

    monkeypatch.setattr(keys, "Ed25519PublicKey", SpyPublicKey)
    return calls


def test_a_run_verifies_no_signature_it_made_and_an_audit_checks_each_once(
    verdict_spy, tmp_path
):
    config = load_config(str(SCENARIOS / "baseline_honest.json"))
    result = Simulation(config).run()
    assert verdict_spy == []
    path = str(tmp_path / "chain.jsonl")
    export_chain(result.chain, result.registry, path)

    keys._signed.clear()  # an audit in a fresh process starts with no memo
    ok, _ = verify_chain(path, config)
    assert ok
    expected = set()
    for b in result.chain.blocks[1:]:
        leader = result.registry.get(b.header.leader_id)
        expected.add((leader, b.leader_signature, b.signed_bytes()))
        for tx in b.transactions:
            expected.add((result.registry.get(tx.ids_id), tx.signature, tx.signed_bytes()))
    assert len(verdict_spy) == len(expected)
    assert set(verdict_spy) == expected


def test_the_verdict_memo_holds_at_most_2_to_the_16_entries():
    class EchoKey:
        """A private key whose signature is the message itself: no curve work."""

        def sign(self, message):
            return message

    key = KeyPair.from_seed(hashlib.sha256(b"memo bound").digest())
    key._private = EchoKey()
    keys._signed.clear()
    try:
        bound = 1 << 16
        messages = [i.to_bytes(4, "big") for i in range(bound + 3)]
        for message in messages:
            key.sign(message)
        assert len(keys._signed) == bound

        def remembered(i):
            message = messages[i]
            return keys._signed.get((key.public_bytes, message)) == (
                hashlib.sha256(message).digest()
            )

        # the oldest three were dropped first; the memo holds digests only
        assert not remembered(0) and not remembered(2)
        assert remembered(3) and remembered(-1)
        assert {len(d) for d in keys._signed.values()} == {32}
        # a remembered signature is accepted without Ed25519, a dropped one is
        # checked again (and an echo is no valid Ed25519 signature)
        assert verify(key.public_bytes, messages[-1], messages[-1])
        assert not verify(key.public_bytes, messages[0], messages[0])
    finally:
        keys._signed.clear()


def test_verifying_a_foreign_signature_hashes_no_message(monkeypatch):
    """A process that signed nothing, as ``cidnsim verify``, feeds no bytes
    to SHA-256 when it checks a valid signature."""
    private = Ed25519PrivateKey.from_private_bytes(hashlib.sha256(b"foreign").digest())
    public = private.public_key().public_bytes_raw()
    message = b"a transaction read from an export"
    signature = private.sign(message)
    hashed = []

    def spy(data):
        hashed.append(bytes(data))
        return hashlib.sha256(data).digest()

    monkeypatch.setattr(keys, "sha256", spy)
    assert verify(public, signature, message)
    assert not verify(public, signature, message + b"!")
    assert hashed == []
