"""Stream sketches: the distinct-item sample and the stable duplicate filter.

Both are single-owner mutable structures fixed by a seed, so a run is
reproducible from it. The sample keeps the k distinct items of smallest
seeded hash (bottom-k). The duplicate filter splits its bit budget across
several sub-filters, addresses each with one index derived from a single
128-bit BLAKE2b digest, and probabilistically clears bits as it fills up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heapreplace

# The C BLAKE2 module itself: `hashlib` would load OpenSSL as well, which
# adds about 3 MiB to the peak RSS of every run.
from _blake2 import blake2b

# murmur3_x64_128 is unused here; it stays bound because perfbench/tracer.py patches it.
from .murmur3 import murmur3_x64_128
from .rng import SeededRng

_MASK64 = (1 << 64) - 1


def hash128(data: bytes) -> int:
    """Unkeyed 128-bit BLAKE2b digest of `data`, read little-endian."""
    return int.from_bytes(blake2b(data, digest_size=16).digest(), "little")


@dataclass(frozen=True, slots=True)
class AddOutcome:
    """What happened to an offered element.

    `added` means a fill-phase append, `replaced` an eviction of the
    highest-ranked held item; both false means discarded.
    """

    added: bool
    replaced: bool


_ADDED = AddOutcome(True, False)
_REPLACED = AddOutcome(False, True)
_DISCARDED = AddOutcome(False, False)


def check_capacity(capacity: int) -> int:
    """`capacity` when a bottom-k sample can hold it, else ValueError."""
    if capacity < 2:  # (k-1)/U_(k) needs k >= 2
        raise ValueError("capacity must be >= 2")
    return capacity


class ReservoirSampler:
    """Bottom-k sample of the distinct items of a stream of unknown length.

    An item's rank is its 64-bit BLAKE2b keyed by the seed, and the sample
    is the `capacity` items of smallest rank, whatever their order or
    repeats. A held item is discarded without hashing, and so is one that
    was turned away, refused or evicted: the k-th rank only falls, so it
    stays turned away. Those are remembered as the keys of a dict of at
    most `capacity` items, cleared when full, so at most 2k items are held.

    `held` holds the sampled items in admission order, as the keys of a
    dict whose values are all None.
    """

    def __init__(self, capacity: int, seed: int):
        self.capacity = check_capacity(capacity)
        self._hasher = blake2b(digest_size=8, key=(seed % 2**64).to_bytes(8, "little"))
        self.held: dict[str, None] = {}
        # A max-heap of (-rank, item), built at the first overflow: a sample
        # that never binds computes no rank.
        self._heap: list | None = None
        self._turned_away: dict[str, None] = {}  # items refused or evicted, as keys

    def _rank(self, item: str) -> int:
        h = self._hasher.copy()
        h.update(item.encode("utf-8"))
        return int.from_bytes(h.digest(), "little")

    def add(self, item: str) -> AddOutcome:
        held, turned_away = self.held, self._turned_away
        if item in held or item in turned_away:
            return _DISCARDED
        if len(held) < self.capacity:
            held[item] = None
            return _ADDED
        heap = self._heap
        if heap is None:
            heap = self._heap = [(-self._rank(x), x) for x in held]
            heapify(heap)
        rank = self._rank(item)
        if len(turned_away) >= self.capacity:
            turned_away.clear()
        if rank >= -heap[0][0]:
            turned_away[item] = None
            return _DISCARDED
        evicted = heapreplace(heap, (-rank, item))[1]
        turned_away[evicted] = None
        del held[evicted]
        held[item] = None
        return _REPLACED

    def distinct(self) -> float:
        """Distinct items offered: exact until one was turned away, then the
        bottom-k estimate (k-1)/U_(k), U_(k) the k-th rank scaled to [0, 1)."""
        if self._heap is None:
            return len(self.held)
        return (self.capacity - 1) * 2.0**64 / -self._heap[0][0]

    def contents(self) -> list[str]:
        """The sampled items; |result| = min(distinct offered, capacity)."""
        return list(self.held)


def derive_num_filters(fpr_threshold: float) -> int:
    """Sub-filter count for a target false-positive rate.

    Uses the classical optimal-k relation ceil(log2(1/t)): a looser
    threshold buys fewer hash evaluations per element, hence speed.
    """
    if not 0.0 < fpr_threshold < 1.0:
        raise ValueError("fpr_threshold must be in (0, 1)")
    return max(1, math.ceil(math.log2(1.0 / fpr_threshold)))


def filter_shape(total_bits: int, fpr_threshold: float) -> tuple[int, int]:
    """(sub-filters, bits per sub-filter) of a filter with these settings;
    ValueError for a threshold outside (0, 1) or a budget that leaves a
    sub-filter fewer than 8 bits."""
    num_filters = derive_num_filters(fpr_threshold)
    bits_per_filter = total_bits // num_filters
    if bits_per_filter < 8:
        raise ValueError("total_bits too small for the derived filter count")
    return num_filters, bits_per_filter


class StableBloomFilter:
    """Duplicate detector over an unbounded stream with a fixed bit budget.

    `total_bits` is split evenly over the derived number of sub-filters;
    an element is a duplicate when its bit in every sub-filter is already
    set. Before each insertion the filter may clear one set bit from the
    currently most-loaded sub-filter; the clearing probability is the
    ratio of the instantaneous false-positive rate (product of sub-filter
    load factors) to `fpr_threshold`, so resets stay dormant while the
    filter is comfortably below its target rate and throttle the load once
    the target is reached.
    """

    def __init__(self, total_bits: int, fpr_threshold: float, rng: SeededRng):
        self.fpr_threshold = fpr_threshold
        self.num_filters, self.bits_per_filter = filter_shape(total_bits, fpr_threshold)
        self.total_bits = self.bits_per_filter * self.num_filters
        self.rng = rng
        self.resets = 0
        self._arrays = [bytearray(-(-self.bits_per_filter // 8)) for _ in range(self.num_filters)]
        self._set_counts = [0] * self.num_filters

    def check_and_add(self, item: bytes) -> bool:
        """True when `item` looks like a duplicate; otherwise inserts it.

        Sub-filter i probes bit (h1 + i*h2) mod m, the two halves of the
        item's hash128 reduced mod m first, so every step is a small int.
        """
        h = hash128(item)
        bpf = self.bits_per_filter
        h1, h2 = (h & _MASK64) % bpf, (h >> 64) % bpf
        pos = h1
        for array in self._arrays:
            if not array[pos >> 3] & (1 << (pos & 7)):
                break
            pos = (pos + h2) % bpf
        else:
            return True
        self._maybe_reset()
        # The reset may have cleared a bit already probed, so walk again.
        counts = self._set_counts
        pos = h1
        for i, array in enumerate(self._arrays):
            byte, mask = pos >> 3, 1 << (pos & 7)
            if not array[byte] & mask:
                array[byte] |= mask
                counts[i] += 1
            pos = (pos + h2) % bpf
        return False

    def current_fpr(self) -> float:
        """Instantaneous false-positive probability: product of load factors."""
        fpr = 1.0
        for count in self._set_counts:
            fpr *= count / self.bits_per_filter
        return fpr

    def _maybe_reset(self):
        p = self.current_fpr() / self.fpr_threshold
        if p <= 0.0:
            return
        if p < 1.0 and self.rng.next_float() >= p:
            return
        # Clear one uniformly chosen set bit in the most-loaded sub-filter,
        # the lowest-indexed one on a tie.
        counts = self._set_counts
        target = counts.index(max(counts))
        array = self._arrays[target]
        bpf = self.bits_per_filter
        pos = -1
        for _ in range(64):
            cand = self.rng.uniform_below(bpf)
            if array[cand >> 3] & (1 << (cand & 7)):
                pos = cand
                break
        if pos < 0:
            # Load too sparse for probing; scan forward from a random start.
            start = self.rng.uniform_below(bpf)
            for off in range(bpf):
                cand = (start + off) % bpf
                if array[cand >> 3] & (1 << (cand & 7)):
                    pos = cand
                    break
        array[pos >> 3] &= ~(1 << (pos & 7))
        counts[target] -= 1
        self.resets += 1

    def set_bit_counts(self) -> list[int]:
        """Per-sub-filter set-bit counts (diagnostics)."""
        return list(self._set_counts)
