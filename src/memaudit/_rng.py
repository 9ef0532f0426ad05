"""Deterministic 64-bit pseudo-random generator.

The harness must reproduce its ground truth from a seed alone, on any
host, library version or reimplementation, so it cannot depend on numpy's
generators. This module implements the splitmix64 sequence:

    output(n) = mix64((seed + (n + 1) * 0x9E3779B97F4A7C15) mod 2**64)

    mix64(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
              z ^= z >> 27; z *= 0x94D049BB133111EB
              z ^= z >> 31

Derived values:
  * uniform in [0, 1):  (output >> 11) * 2**-53
  * uniform in (0, 1]:  ((output >> 11) + 1) * 2**-53
  * standard normal:    Box-Muller on consecutive (open, half-open) pairs
  * integer below n:    min(n - 1, floor(uniform * n))

Every step of the raw outputs, the uniforms and the integers is exact, so
`next_u64`, `uniform`, `below` and `sample_without_replacement` give the
same bits on any host. Normals do not: Box-Muller's log, cos and sin are
not correctly rounded, and their last bits depend on numpy's SIMD
dispatch and on the C library (numpy's AVX-512 log loop differs from its
AVX2 one). They repeat exactly on one host.

Because output(n) depends only on (seed, n), any contiguous run of draws
can be produced in one vectorized call. mix64 has one implementation,
`_mix64_array`, on uint64 arrays; `mix64(value)` runs it on a one-element
array, which is exact because uint64 arithmetic wraps mod 2**64.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO_NEG53 = 2.0**-53


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 of every element of a uint64 array, in place; returns z."""
    shifted = np.empty_like(z)
    for shift, multiplier in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        if multiplier is not None:
            z *= np.uint64(multiplier)
    return z


def mix64(value: int) -> int:
    """The splitmix64 finalizer on one integer (mod 2**64).

    Used to spread externally chosen seeds before deriving per-item
    streams: raw seeds s and s+1 differ in one bit, mixed seeds differ
    in about half of them.
    """
    return int(_mix64_array(np.array([value & _MASK], dtype=np.uint64))[0])


class SplitMix64:
    """Counter-based splitmix64 stream starting at a 64-bit seed."""

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK
        self._count = 0

    def next_u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        if n < 0:
            raise ValueError("n must be non-negative")
        state = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        state *= np.uint64(_GAMMA)
        state += np.uint64(self._seed)
        return _mix64_array(state)

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles uniform in [0, 1)."""
        return (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * _TWO_NEG53

    def gaussian(self, n: int) -> np.ndarray:
        """``n`` standard normals (Box-Muller, pairs of consecutive draws)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        pairs = (n + 1) // 2
        raw = self.next_u64(2 * pairs)
        raw >>= np.uint64(11)
        # Every step runs in place on contiguous arrays, so each value goes
        # through the same ufunc loops, and gets the same bits, as it would
        # on fresh arrays.
        u1, u2 = np.empty((2, pairs))
        u1[...] = raw[0::2]
        u2[...] = raw[1::2]
        # u1 in (0, 1] so log(u1) is finite; u2 in [0, 1).
        u1 += 1.0
        u1 *= _TWO_NEG53
        u2 *= _TWO_NEG53
        radius = np.log(u1, out=u1)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        theta = u2
        theta *= 2.0 * np.pi
        out = np.empty(2 * pairs, dtype=np.float64)
        term = np.empty(pairs)
        np.cos(theta, out=term)
        term *= radius
        out[0::2] = term
        np.sin(theta, out=term)
        term *= radius
        out[1::2] = term
        return out[:n]

    def below(self, bound: int) -> int:
        """One integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        u = float(self.uniform(1)[0])
        return min(bound - 1, int(u * bound))

    def sample_without_replacement(self, population: int, k: int) -> list[int]:
        """First ``k`` entries of a Fisher-Yates shuffle of range(population).

        Swap i uses index i + below(population - i); draw order defines the
        sample order, so the result is reproducible from the seed alone.
        """
        if k < 0 or k > population:
            raise ValueError("k must be in [0, population]")
        pool = list(range(population))
        for i in range(k):
            j = i + self.below(population - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
