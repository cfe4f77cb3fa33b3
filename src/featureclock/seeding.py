"""The draws of ``numpy.random.default_rng(seed)`` that k-means++ makes, in Python ints.

``Stream(seed)`` hands out the same numbers as ``default_rng(seed)`` for
``integers(n)`` and ``choice(len(p), p=p)``, in any interleaving, so a seed
gives the same start as before without importing ``numpy.random`` (which
brings ``hashlib``, ``secrets`` and the Cython runtime, about 6 MB).

The seed goes through numpy's ``SeedSequence`` (a hash of its 32-bit words
into a pool of four) to the 128-bit state and increment of PCG64, an LCG
whose output permutation is XSL-RR (O'Neill 2014, "PCG: A family of simple
fast space-efficient statistically good algorithms for random number
generation"). Bounded integers use Lemire's multiply-and-reject method
(Lemire 2019, ACM TOMACS, "Fast random integer generation in an interval")
on 32-bit draws below 2**32 and on 64-bit draws above, as numpy does.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints."""
    entropy = [seed & _MASK32]  # 32-bit words, lowest first; 0 is one word
    while seed > _MASK32:
        seed >>= 32
        entropy.append(seed & _MASK32)

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = ((value ^ hash_const) * hash_const * _MULT_A) & _MASK32
        hash_const = (hash_const * _MULT_A) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class Stream:
    """The ``integers`` and ``choice`` draws of ``numpy.random.default_rng(seed)``, seed >= 0."""

    def __init__(self, seed: int):
        s_high, s_low, i_high, i_low = _seed_words(seed)
        # pcg64_srandom_r: step from state 0, add the seed, step again
        self._inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s_high << 64 | s_low)) * _PCG_MULT + self._inc) & _MASK128
        self._half = None  # the high half of a 64-bit draw, kept for the next 32-bit one

    def _next64(self) -> int:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = self._state >> 122
        x = ((self._state >> 64) ^ self._state) & _MASK64
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def integers(self, n: int) -> int:
        """``Generator.integers(n)`` for 1 <= n <= 2**63: uniform on [0, n)."""
        if n == 1:
            return 0
        if n == 2**32:
            return self._next32()
        draw, bits = (self._next32, 32) if n < 2**32 else (self._next64, 64)
        mask = (1 << bits) - 1
        m = draw() * n
        if m & mask < n:
            # reject the low parts below 2**bits mod n, so every value has
            # the same number of draws
            threshold = ((1 << bits) - n) % n
            while m & mask < threshold:
                m = draw() * n
        return m >> bits

    def choice(self, p: np.ndarray) -> int:
        """``Generator.choice(len(p), p=p)``: index i with probability ``p[i]``.

        ``p`` must be finite, non-negative and sum to about 1; it is not checked.
        """
        cdf = p.cumsum()
        cdf /= cdf[-1]
        uniform = (self._next64() >> 11) * 2.0**-53
        return int(cdf.searchsorted(uniform, side="right"))
