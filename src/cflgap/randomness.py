"""Seeded exact-rational randomness.

Every random decision in this package reduces to uniform integer draws from
a 64-bit-seeded PCG64 stream: probability branches compare an integer draw
against the numerator of an exact rational, never a float.  A seed therefore
fully determines every sample.  Batch commands split their draws into
fixed-size blocks, each on its own stream derived from the seed and the block
index, so how the blocks are spread over processes never changes a draw.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

from .instance import over_common_denominator

__all__ = ["ExactRng", "cumulative_thresholds", "derive_block_seed"]

_MIX = 0x9E3779B97F4A7C15  # 64-bit odd constant for block-stream derivation


def derive_block_seed(seed: int, block: int) -> int:
    """Deterministic seed of draw block ``block``, independent of scheduling."""
    x = (seed ^ ((block + 1) * _MIX)) & 0xFFFFFFFFFFFFFFFF
    # splitmix64 finalizer
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def cumulative_thresholds(probs: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """Common denominator and cumulative integer numerators of exact probabilities.

    ``probs`` must sum to exactly 1, so the last threshold equals the
    denominator; index ``i`` is drawn when a uniform integer below the
    denominator falls in ``[thresholds[i-1], thresholds[i])``.
    """
    total = sum(probs, Fraction(0))
    if total != 1 or any(p < 0 for p in probs):
        raise ValueError(f"probabilities must be nonnegative and sum to 1, got {total}")
    numerators, denom = over_common_denominator(probs)
    return denom, tuple(accumulate(numerators))


class ExactRng:
    """Uniform integer draws plus exact-rational branching on one stream."""

    def __init__(self, seed: int):
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def integer_below(self, n: int) -> int:
        """Uniform integer in [0, n). Exact for arbitrarily large n."""
        if n <= 0:
            raise ValueError(f"integer_below needs n >= 1, got {n}")
        if n == 1:
            return 0
        if n <= 2**63:
            return int(self._gen.integers(n))
        bits = n.bit_length()
        words = (bits + 31) // 32
        while True:
            r = 0
            for w in self._gen.integers(0, 1 << 32, size=words, dtype=np.uint64):
                r = (r << 32) | int(w)
            r >>= words * 32 - bits
            if r < n:
                return r

    def bernoulli(self, p: Fraction) -> bool:
        """True with probability exactly p (0 <= p <= 1)."""
        if p < 0 or p > 1:
            raise ValueError(f"probability out of range: {p}")
        if p.denominator == 1:
            return p.numerator == 1
        return self.integer_below(p.denominator) < p.numerator

    def weighted_index(self, probs: Sequence[Fraction]) -> int:
        """Index drawn with the given exact probabilities (must sum to 1)."""
        denom, thresholds = cumulative_thresholds(probs)
        return bisect_right(thresholds, self.integer_below(denom))

    def permuted(self, items: np.ndarray) -> np.ndarray:
        """Uniformly random permutation of a 1-d integer array."""
        return self._gen.permutation(items)

    def permuted_rows(self, items: np.ndarray, count: int) -> np.ndarray:
        """``count`` uniformly random permutations of a 1-d array, one per row.

        Consumes the stream exactly as ``count`` successive :meth:`permuted`
        calls do, so batching draws this way never changes them.
        """
        return self._gen.permuted(np.broadcast_to(items, (count, len(items))), axis=1)

    def chosen_positions(self, n: int, r: int) -> np.ndarray:
        """r distinct positions chosen uniformly from range(n)."""
        if not 0 <= r <= n:
            raise ValueError(f"cannot choose {r} of {n}")
        return self._gen.permutation(n)[:r]
