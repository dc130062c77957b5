"""Canonical byte encoding used for hashing and signing, and the one SHA-256
every module hashes with.

Write-only: nothing decodes these bytes; the JSON Lines export has its own
checked reader in :mod:`cidnsim.chain`.

Layout rules: fixed field order, 4-byte big-endian length prefixes for
variable-size data, 8-byte big-endian two's-complement integers, reals as
IEEE-754 binary64 big-endian.  Bit-exact across platforms.

SHA-256 comes from the interpreter's built-in module rather than
``hashlib``: importing ``hashlib`` maps a second OpenSSL into the process
(``cryptography`` ships its own), and the built-in hash is also faster on
the short preimages of the counter search.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, TypeVar

try:  # CPython >= 3.12
    from _sha2 import sha256 as new_sha256
except ImportError:
    try:  # CPython 3.10 and 3.11
        from _sha256 import sha256 as new_sha256
    except ImportError:  # a build without the built-in hash modules
        from hashlib import sha256 as new_sha256

T = TypeVar("T")


def sha256(data: bytes) -> bytes:
    """The SHA-256 digest of ``data``.  ``new_sha256(data)`` is the hash
    object itself, for callers that copy a fed prefix."""
    return new_sha256(data).digest()


def enc_bytes(b: bytes) -> bytes:
    return struct.pack(">I", len(b)) + b


def enc_str(s: str) -> bytes:
    return enc_bytes(s.encode("utf-8"))


# 8-byte big-endian two's complement; struct.error outside the int64 range
enc_int: Callable[[int], bytes] = struct.Struct(">q").pack


def enc_real(x: float) -> bytes:
    return struct.pack(">d", x)


def enc_list(items: Iterable[T], enc: Callable[[T], bytes]) -> bytes:
    encoded = [enc(i) for i in items]
    return struct.pack(">I", len(encoded)) + b"".join(encoded)
