"""Digest checks against reference vectors from an independent implementation.

The frozen hex digests below were produced by murmurhash3js (x64.hash128)
and independently reproduced by this implementation; the final test runs
the SMHasher verification procedure, whose published expected value for
MurmurHash3 x64-128 is 0x6384BA69.
"""

import pytest

from lodprobe.murmur3 import murmur3_x64_128

REFERENCE_DIGESTS = [
    (b"", 0, "00000000000000000000000000000000"),
    (b"", 42, "f02aa77dfa1b8523d1016610da11cbb9"),
    (b"a", 0, "85555565f6597889e6b53a48510e895a"),
    (b"ab", 0, "938b11ea16ed1b2ee65ea7019b52d4ad"),
    (b"abc", 0, "b4963f3f3fad78673ba2744126ca2d52"),
    (b"abcd", 0, "b87bb7d64656cd4ff2003e886073e875"),
    (b"hello", 0, "cbd8a7b341bd9b025b1e906a48ae1d19"),
    (b"hello", 123, "29de5fd20a9dc50b0e7a2261af65ed82"),
    (b"The quick brown fox jumps over the lazy dog", 0,
     "e34bbc7bbc071b6c7a433ca9c49a9347"),
    (b"12345678", 0, "3b4a640638b1419c913b0e676bd42557"),
    (b"123456789", 0, "3c84645edb66cca499f8fac73a1ea105"),
    (b"0123456789abcdef", 0, "4be06d94cf4ad1a787c35b5c63a708da"),
    (b"0123456789abcdef0", 0, "eb24ae8785a5c07573fb68b3313128ca"),
    (b"<http://example.org/resource/1> <http://example.org/p> .", 0,
     "7f5247bc28d6bb4a04967b1bb4b0e4a6"),
    (bytes([0, 1, 2, 3]), 0, "e1c594ae0ddfaf10d3d605bd13c2fde2"),
]


@pytest.mark.parametrize("data,seed,expected", REFERENCE_DIGESTS)
def test_reference_digests(data, seed, expected):
    h1, h2 = murmur3_x64_128(data, seed)
    assert f"{h1:016x}{h2:016x}" == expected


def test_empty_input_digest_is_zero():
    assert murmur3_x64_128(b"") == (0, 0)


def test_determinism():
    data = b"some repeated input"
    assert murmur3_x64_128(data) == murmur3_x64_128(data)


def test_all_tail_lengths_distinct():
    # Every tail branch (1..15 residual bytes) plus block boundaries.
    digests = {murmur3_x64_128(bytes(range(n))) for n in range(64)}
    assert len(digests) == 64


def test_smhasher_verification_value():
    def digest(data: bytes, seed: int) -> bytes:
        # 16-byte little-endian digest, the reference C output layout
        h1, h2 = murmur3_x64_128(data, seed)
        return h1.to_bytes(8, "little") + h2.to_bytes(8, "little")

    blob = b"".join(digest(bytes(range(i)), 256 - i) for i in range(256))
    verification = int.from_bytes(digest(blob, 0)[:4], "little")
    assert verification == 0x6384BA69
