"""Pure-Python MurmurHash3 x64-128 (Austin Appleby's public-domain design).

The duplicate filter addresses its sub-filters with indexes derived from one
128-bit digest per item, so this is the only hash the sketches need. The
implementation is the canonical x64 variant: two 64-bit lanes over 16-byte
blocks, little-endian tail, and the fmix64 finalizer. Verified against
reference digests produced by an independent implementation (see tests).
"""

from __future__ import annotations

import struct

_MASK64 = 0xFFFFFFFFFFFFFFFF
_C1 = 0x87C37B91114253D5
_C2 = 0x4CF5AD432745937F

_unpack_block = struct.Struct("<QQ").unpack_from
_iter_blocks = struct.Struct("<QQ").iter_unpack


def _fmix64(k: int) -> int:
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _MASK64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _MASK64
    return k ^ (k >> 33)


def murmur3_x64_128(data: bytes, seed: int = 0) -> tuple[int, int]:
    """128-bit digest of `data` as the two 64-bit halves (h1, h2)."""
    length = len(data)
    nblocks = length // 16
    h1 = h2 = seed & _MASK64

    for k1, k2 in _iter_blocks(memoryview(data)[: nblocks * 16]):
        k1 = (k1 * _C1) & _MASK64
        k1 = ((k1 << 31) | (k1 >> 33)) & _MASK64
        h1 ^= (k1 * _C2) & _MASK64
        h1 = ((h1 << 27) | (h1 >> 37)) & _MASK64
        h1 = (h1 + h2) & _MASK64
        h1 = (h1 * 5 + 0x52DCE729) & _MASK64

        k2 = (k2 * _C2) & _MASK64
        k2 = ((k2 << 33) | (k2 >> 31)) & _MASK64
        h2 ^= (k2 * _C1) & _MASK64
        h2 = ((h2 << 31) | (h2 >> 33)) & _MASK64
        h2 = (h2 + h1) & _MASK64
        h2 = (h2 * 5 + 0x38495AB5) & _MASK64

    tail = data[nblocks * 16 :]
    if tail:
        pad = tail + b"\x00" * (16 - len(tail))
        k1, k2 = _unpack_block(pad, 0)
        if len(tail) > 8:
            k2 = (k2 * _C2) & _MASK64
            k2 = ((k2 << 33) | (k2 >> 31)) & _MASK64
            h2 ^= (k2 * _C1) & _MASK64
        k1 = (k1 * _C1) & _MASK64
        k1 = ((k1 << 31) | (k1 >> 33)) & _MASK64
        h1 ^= (k1 * _C2) & _MASK64

    h1 ^= length
    h2 ^= length
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    h1 = _fmix64(h1)
    h2 = _fmix64(h2)
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    return h1, h2
