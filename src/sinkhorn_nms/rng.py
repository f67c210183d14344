"""Portable deterministic pseudo-random generator.

All randomness in this repository (synthetic scenes, k-means seeding, the
verification harnesses) flows through SplitMix64 so that a given seed
produces bit-identical streams on every platform and is easy to reimplement
in other languages.  The state update adds the 64-bit golden-ratio constant
and the output is a bijective xor-multiply scramble of the new state.
"""

from __future__ import annotations

from ._checks import check_int

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4B5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream seeded with an arbitrary integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = check_int("seed", seed) & _MASK64  # a numpy int64 would overflow the &

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit output word."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform double in [low, high) built from the top 53 bits."""
        u = self.next_u64() >> 11
        return low + (high - low) * (u * 2.0**-53)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection (no modulo bias)."""
        n = check_int("n", n, 1)
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n
