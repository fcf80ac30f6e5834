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
    numerators, denom = over_common_denominator(probs)
    if sum(numerators) != denom or min(numerators, default=0) < 0:
        total = sum(probs, Fraction(0))
        raise ValueError(f"probabilities must be nonnegative and sum to 1, got {total}")
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

    def integers_below(self, ns: np.ndarray) -> np.ndarray:
        """A uniform integer in [0, n) for each n of a 1-d array. Exact for any n >= 1.

        ``ns`` holds machine ints, or Python ints in an object array.  Every
        n up to 2**63 is drawn in one Generator call, and each larger n then
        takes :meth:`integer_below`'s exact draw, in array order.  The result
        is int64, or an object array of Python ints when ``ns`` is one.
        """
        if ns.size and ns.min() < 1:
            raise ValueError(f"integers_below needs every n >= 1, got {ns.min()}")
        if ns.dtype != object:
            return self._gen.integers(0, ns)
        wide = ns > 2**63
        out = np.empty(len(ns), dtype=object)
        narrow = ~wide
        out[narrow] = self._gen.integers(
            0, ns[narrow].astype(np.uint64), dtype=np.uint64
        ).tolist()
        for i in np.flatnonzero(wide).tolist():
            out[i] = self.integer_below(ns[i])
        return out

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

    def shuffle_rows(self, rows: np.ndarray) -> None:
        """Permute each row of a 2-d array (a view is fine) in place, uniformly."""
        self._gen.permuted(rows, axis=1, out=rows)

    def chosen_positions(self, n: int, r: int) -> list[int]:
        """r distinct positions chosen uniformly from range(n), in uniform order."""
        if not 0 <= r <= n:
            raise ValueError(f"cannot choose {r} of {n}")
        ids: dict = {}
        while len(ids) < r:  # a repeat is drawn again: expected O(r) draws for r <= n/2
            ids.setdefault(self.integer_below(n))
        return list(ids)
