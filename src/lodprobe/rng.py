"""Deterministic seeded randomness shared by all sketches and walkers.

Every probabilistic component in this package draws from :class:`SeededRng`,
a SplitMix64 generator (Steele, Lea & Flood; the reference recurrence
published at http://prng.di.unimi.it/splitmix64.c). SplitMix64 is fully
specified by its constants, so the same seed produces the same stream on
every platform and Python version, which is what makes assessment runs
reproducible from their reports.
"""

from __future__ import annotations

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15


class SeededRng:
    """SplitMix64 stream with uniform integer / float helpers.

    Instances are cheap; each sketch or walker owns its own so that
    interleaving consumers never perturb each other's sequences.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        """Next raw 64-bit output of the SplitMix64 recurrence."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform_below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection sampling."""
        if n <= 0:
            raise ValueError("uniform_below requires n >= 1")
        # Reject draws from the incomplete final span of [0, 2^64).
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit child seed for a named purpose.

    Children with distinct labels get unrelated sequences, so multiple
    metric processors can share one run seed without lock-step draws.
    """
    h = seed & _MASK64
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h
