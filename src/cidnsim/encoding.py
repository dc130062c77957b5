"""Canonical byte encoding used for hashing and signing.

Write-only: nothing decodes these bytes; the JSON Lines export has its own
checked reader in :mod:`cidnsim.chain`.

Layout rules: fixed field order, 4-byte big-endian length prefixes for
variable-size data, 8-byte big-endian two's-complement integers, reals as
IEEE-754 binary64 big-endian.  Bit-exact across platforms.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


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
