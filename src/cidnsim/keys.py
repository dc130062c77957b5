"""Ed25519 identities and signature helpers.

A node's identifier is the SHA-256 fingerprint (hex) of its raw public key.

A signature this process made is known valid when it is made (Ed25519
signing is deterministic and a correct signature verifies under its own
key, RFC 8032), and every peer checks the same broadcast objects.  So
``KeyPair.sign`` records its (public key, signature) pair with the SHA-256
of the message it signed, and ``verify`` accepts a recorded pair whose
message has that digest without any curve work.  The memo keeps the 32-byte
digest rather than the message, so it holds no second copy of any signed
record.  Every other verification (forged, altered, presented under another
key, or read from an export) runs ``Ed25519PublicKey.verify`` and records
nothing: a process that signs nothing, such as ``cidnsim verify``, hashes no
message only to look it up.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .encoding import sha256

__all__ = ["KeyPair", "node_id_for", "verify", "KeyRegistry"]

# Bound on remembered signatures; the oldest is dropped first, and a dropped
# signature is simply checked by Ed25519 again.
_SIGNED_MAX = 1 << 16
_signed: dict[tuple[bytes, bytes], bytes] = {}  # (public key, signature) -> digest


def node_id_for(public_bytes: bytes) -> str:
    return sha256(public_bytes).hex()


class KeyPair:
    """Signing identity; deterministic when built from a 32-byte seed."""

    def __init__(self, private: Ed25519PrivateKey):
        self._private = private
        self.public_bytes = private.public_key().public_bytes_raw()
        self.node_id = node_id_for(self.public_bytes)

    @staticmethod
    def from_seed(seed: bytes) -> "KeyPair":
        if len(seed) != 32:
            raise ValueError("seed must be 32 bytes")
        return KeyPair(Ed25519PrivateKey.from_private_bytes(seed))

    def sign(self, message: bytes) -> bytes:
        """Sign ``message`` and record the signature as made here."""
        signature = self._private.sign(message)
        if len(_signed) >= _SIGNED_MAX:
            del _signed[next(iter(_signed))]
        _signed[self.public_bytes, signature] = sha256(message)
        return signature


def verify(public_bytes: bytes, signature: bytes, message: bytes) -> bool:
    signature = bytes(signature)
    digest = _signed.get((public_bytes, signature))
    if digest is not None and digest == sha256(message):
        return True
    try:
        Ed25519PublicKey.from_public_bytes(public_bytes).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


class KeyRegistry:
    """node_id -> raw public key; shared ground truth for verification."""

    def __init__(self) -> None:
        self._keys: dict[str, bytes] = {}

    def register(self, public_bytes: bytes) -> str:
        nid = node_id_for(public_bytes)
        self._keys[nid] = public_bytes
        return nid

    def get(self, node_id: str) -> bytes | None:
        return self._keys.get(node_id)

    def as_dict(self) -> dict[str, bytes]:
        return dict(self._keys)
