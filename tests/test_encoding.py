"""Layout and injectivity properties of the write-only canonical encoding.

Nothing in the package decodes the encoding, so each property reads the
bytes back by the layout rules themselves."""

import hashlib
import math
import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from cidnsim.encoding import (
    enc_bytes,
    enc_int,
    enc_list,
    enc_real,
    enc_str,
    new_sha256,
    sha256,
)


@given(st.binary(max_size=256))
def test_bytes_round_trip(data):
    encoded = enc_bytes(data)
    assert int.from_bytes(encoded[:4], "big") == len(data)
    assert encoded[4:] == data


@given(st.text(max_size=64))
def test_str_round_trip(s):
    encoded = enc_str(s)
    assert int.from_bytes(encoded[:4], "big") == len(encoded) - 4
    assert encoded[4:].decode("utf-8") == s


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_int_round_trip(v):
    assert len(enc_int(v)) == 8
    assert int.from_bytes(enc_int(v), "big", signed=True) == v


@given(st.floats(allow_nan=False))
def test_real_round_trip_is_bit_exact(x):
    encoded = enc_real(x)
    assert len(encoded) == 8
    (got,) = struct.unpack(">d", encoded)
    assert got == x and math.copysign(1.0, got) == math.copysign(1.0, x)


@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=20))
def test_list_round_trip(values):
    data = enc_list(values, enc_int)
    assert int.from_bytes(data[:4], "big") == len(values)
    items = [data[4 + 8 * i : 12 + 8 * i] for i in range(len(values))]
    assert [int.from_bytes(b, "big", signed=True) for b in items] == values
    assert len(data) == 4 + 8 * len(values)


@st.composite
def _record_of(draw, text: str):
    """A record of a string and two lists of strings whose strings
    concatenate to ``text``, so that only the length prefixes and the list
    counts tell two such records apart."""
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=4)))
    bounds = [0, *cuts, len(text)]
    pieces = [text[i:j] for i, j in zip(bounds, bounds[1:])]
    m = draw(st.integers(1, len(pieces)))
    return pieces[0], pieces[1:m], pieces[m:]


def _encode(record) -> bytes:
    head, first, second = record
    return enc_str(head) + enc_list(first, enc_str) + enc_list(second, enc_str)


@settings(max_examples=300)
@given(st.text(alphabet="ab", max_size=4), st.data())
def test_different_field_sequences_encode_to_different_bytes(text, data):
    """The encoding is injective over a fixed field layout, so the bytes a
    signature covers name exactly one record.  Fixed-width fields (integers
    and reals) need no prefix; variable-size ones are the risk."""
    a = data.draw(_record_of(text))
    b = data.draw(_record_of(text))
    assert (_encode(a) == _encode(b)) == (a == b)


def test_length_prefix_is_big_endian_four_bytes():
    assert enc_bytes(b"hi")[:4] == b"\x00\x00\x00\x02"
    assert enc_int(1) == b"\x00\x00\x00\x00\x00\x00\x00\x01"


def test_sha256_equals_hashlib_and_a_copied_prefix_equals_one_shot_hashing():
    """The helper agrees with ``hashlib`` on the empty input, around the
    padding boundaries (55 bytes fit one block with the length, 56 do not)
    and on 1 MB; a copy of a fed prefix, updated, hashes as the whole
    preimage does, which is how ``consensus.mine`` hashes each counter."""
    rng = random.Random(0)
    for size in (0, 55, 56, 64, 1 << 20):
        data = rng.randbytes(size)
        assert sha256(data) == hashlib.sha256(data).digest()
    prefix = rng.randbytes(40)
    fed = new_sha256(prefix)
    for ctr in range(1, 100):
        h = fed.copy()
        h.update(enc_int(ctr))
        assert h.digest() == hashlib.sha256(prefix + enc_int(ctr)).digest()
    assert fed.digest() == hashlib.sha256(prefix).digest()
