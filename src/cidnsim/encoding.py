"""Canonical byte encoding used for hashing and signing.

Layout rules: fixed field order, 4-byte big-endian length prefixes for
variable-size data, 8-byte big-endian two's-complement integers, reals as
IEEE-754 binary64 big-endian.  Bit-exact across platforms.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, Sequence, TypeVar

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


class Reader:
    """Sequential decoder over a canonical encoding."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ValueError("truncated encoding")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def read_fixed(self, n: int) -> bytes:
        return self._take(n)

    def read_bytes(self) -> bytes:
        (n,) = struct.unpack(">I", self._take(4))
        return self._take(n)

    def read_str(self) -> str:
        return self.read_bytes().decode("utf-8")

    def read_int(self) -> int:
        (v,) = struct.unpack(">q", self._take(8))
        return v

    def read_real(self) -> float:
        (x,) = struct.unpack(">d", self._take(8))
        return x

    def read_list(self, dec: Callable[["Reader"], T]) -> list[T]:
        (n,) = struct.unpack(">I", self._take(4))
        return [dec(self) for _ in range(n)]

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise ValueError("trailing bytes in encoding")
