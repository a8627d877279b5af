"""Stream sketches: the reservoir sampler and the stable duplicate filter.

Both are single-owner mutable structures driven entirely by a SeededRng,
so a run is reproducible from its seed. The reservoir implements the
classic fill-then-replace scheme in which the n-th offered element lands
in the sample with probability capacity/n, over distinct elements. The
duplicate filter splits its bit budget across several sub-filters,
addresses each with one index derived from a single 128-bit Murmur3
digest, and keeps itself useful on unbounded streams by probabilistically
clearing bits as it fills up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generic, TypeVar

from .murmur3 import murmur3_x64_128
from .rng import SeededRng

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class AddOutcome:
    """What happened to an offered element.

    `added` means a fill-phase append, `replaced` an eviction of `evicted`;
    both false means discarded.
    """

    added: bool
    replaced: bool
    evicted: Any = None


_ADDED = AddOutcome(True, False)
_DISCARDED = AddOutcome(False, False)


class ReservoirSampler(Generic[T]):
    """Fixed-capacity uniform sample of the distinct items of a stream of
    unknown length: offering a held item discards it without counting it."""

    def __init__(self, capacity: int, rng: SeededRng):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.rng = rng
        self.seen = 0
        self._items: list[T] = []
        self._held: set[T] = set()

    def add(self, item: T) -> AddOutcome:
        if item in self._held:
            return _DISCARDED
        self.seen += 1
        items = self._items
        if len(items) < self.capacity:
            items.append(item)
            self._held.add(item)
            return _ADDED
        pos = self.rng.uniform_below(self.seen)
        if pos < self.capacity:
            evicted = items[pos]
            items[pos] = item
            self._held.discard(evicted)
            self._held.add(item)
            return AddOutcome(False, True, evicted)
        return _DISCARDED

    def contents(self) -> list[T]:
        """Current sample in position order; |result| = min(seen, capacity)."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


def derive_num_filters(fpr_threshold: float) -> int:
    """Sub-filter count for a target false-positive rate.

    Uses the classical optimal-k relation ceil(log2(1/t)): a looser
    threshold buys fewer hash evaluations per element, hence speed.
    """
    if not 0.0 < fpr_threshold < 1.0:
        raise ValueError("fpr_threshold must be in (0, 1)")
    return max(1, math.ceil(math.log2(1.0 / fpr_threshold)))


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

    `enable_resets=False` freezes the bit arrays for oracle runs in which
    false negatives must be impossible; `log_resets=True` records every
    cleared (filter, bit) pair for instrumentation.
    """

    def __init__(
        self,
        total_bits: int,
        fpr_threshold: float,
        rng: SeededRng,
        num_filters: int | None = None,
        enable_resets: bool = True,
        log_resets: bool = False,
    ):
        if not 0.0 < fpr_threshold < 1.0:
            raise ValueError("fpr_threshold must be in (0, 1)")
        self.fpr_threshold = fpr_threshold
        self.num_filters = num_filters if num_filters is not None else derive_num_filters(fpr_threshold)
        if self.num_filters < 1:
            raise ValueError("num_filters must be >= 1")
        self.bits_per_filter = total_bits // self.num_filters
        if self.bits_per_filter < 8:
            raise ValueError("total_bits too small for the derived filter count")
        self.total_bits = self.bits_per_filter * self.num_filters
        self.rng = rng
        self.enable_resets = enable_resets
        self.resets = 0
        self.reset_log: list[tuple[int, int]] | None = [] if log_resets else None
        self._arrays = [bytearray(-(-self.bits_per_filter // 8)) for _ in range(self.num_filters)]
        self._set_counts = [0] * self.num_filters

    def _positions(self, item: bytes) -> list[int]:
        h1, h2 = murmur3_x64_128(item)
        bpf = self.bits_per_filter
        return [(h1 + i * h2) % bpf for i in range(self.num_filters)]

    def check_and_add(self, item: bytes) -> bool:
        """True when `item` looks like a duplicate; otherwise inserts it."""
        positions = self._positions(item)
        arrays = self._arrays
        is_dup = True
        for i, pos in enumerate(positions):
            if not arrays[i][pos >> 3] & (1 << (pos & 7)):
                is_dup = False
                break
        if is_dup:
            return True
        if self.enable_resets:
            self._maybe_reset()
        counts = self._set_counts
        for i, pos in enumerate(positions):
            byte, mask = pos >> 3, 1 << (pos & 7)
            if not arrays[i][byte] & mask:
                arrays[i][byte] |= mask
                counts[i] += 1
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
        # Clear one uniformly chosen set bit in the most-loaded sub-filter.
        target = max(range(self.num_filters), key=lambda i: (self._set_counts[i], -i))
        if self._set_counts[target] == 0:
            return
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
        self._set_counts[target] -= 1
        self.resets += 1
        if self.reset_log is not None:
            self.reset_log.append((target, pos))

    def set_bit_counts(self) -> list[int]:
        """Per-sub-filter set-bit counts (diagnostics)."""
        return list(self._set_counts)
