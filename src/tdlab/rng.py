"""Deterministic 64-bit pseudo-randomness for the generators and fuzzing.

The generator is SplitMix64 (Steele, Lea, Flood 2014): state advances by the
64-bit golden-ratio constant and each output is the mix64 finalizer of the
new state.  Pure integer arithmetic, so streams are byte-identical across
platforms and Python versions.

Per-trial splitting: trial i of a run seeded with `root` uses the i-th
output of the root stream as its own seed, i.e. mix64(root + (i+1)*GOLDEN).
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased by rejection."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.randrange(hi - lo + 1)


def trial_seed(root: int, index: int) -> int:
    """Seed for trial `index` of a run: the index-th root-stream output."""
    return mix64((root + (index + 1) * GOLDEN) & MASK64)
