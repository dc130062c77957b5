"""Ed25519 identities and signature helpers.

A node's identifier is the SHA-256 fingerprint (hex) of its raw public key.

Verdicts are memoized per (public key, signature, SHA-256 of the message)
triple: every peer checks the same broadcast objects, and the predicate is
pure.  The memo keeps the 32-byte digest rather than the message, so it
holds no second copy of any signed record.  A signature this process made
is known valid when it is made (Ed25519 signing is deterministic and a
correct signature verifies under its own key, RFC 8032), so
``KeyPair.sign`` records its triple as verified.  Every other triple
(forged, altered, presented under another key, or read from an export) is
checked once by ``Ed25519PublicKey.verify``.  A fresh process, such as
``cidnsim verify``, therefore checks every distinct signature.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .encoding import sha256

__all__ = ["KeyPair", "node_id_for", "verify", "KeyRegistry"]

# Bound on remembered verdicts; the oldest is dropped first, and a dropped
# triple is simply checked again.
_VERDICTS_MAX = 1 << 16
_verdicts: dict[tuple[bytes, bytes, bytes], bool] = {}


def _triple(
    public_bytes: bytes, signature: bytes, message: bytes
) -> tuple[bytes, bytes, bytes]:
    """The memo key of a verification: the message enters as its digest."""
    return public_bytes, bytes(signature), sha256(message)


def _remember(triple: tuple[bytes, bytes, bytes], ok: bool) -> None:
    if len(_verdicts) >= _VERDICTS_MAX:
        del _verdicts[next(iter(_verdicts))]
    _verdicts[triple] = ok


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
        """Sign ``message`` and record the triple as verified."""
        signature = self._private.sign(message)
        _remember(_triple(self.public_bytes, signature, message), True)
        return signature


def verify(public_bytes: bytes, signature: bytes, message: bytes) -> bool:
    triple = _triple(public_bytes, signature, message)
    ok = _verdicts.get(triple)
    if ok is None:
        try:
            Ed25519PublicKey.from_public_bytes(public_bytes).verify(triple[1], message)
            ok = True
        except (InvalidSignature, ValueError):
            ok = False
        _remember(triple, ok)
    return ok


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
