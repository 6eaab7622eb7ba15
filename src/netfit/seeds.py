"""Deterministic seed derivation and the scalar draw stream of the generators.

Two seed patterns: ``xor_index`` for replicate batches (master XOR
replicate index) and ``derive`` for mixing string context (graph names,
model names) into a master seed so results never depend on job
scheduling. :class:`Draws` gives the raw words of numpy's scalar
``random()``, its ``integers(n)`` results and its
``choice(d, size=k, replace=False)`` samples without numpy's per-call
cost, and :func:`coin_limit` is the raw-word bound that a coin of
probability p compares against.
"""

from __future__ import annotations

import hashlib
import math
from itertools import chain, repeat

import numpy as np

_MASK = (1 << 63) - 1


def xor_index(master, index):
    """Seed for the index-th job of a batch: master XOR index."""
    return (int(master) ^ int(index)) & _MASK


def derive(master, *parts):
    """Stable 63-bit seed from a master seed and string/int context parts."""
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:8], "big") & _MASK


def coin_limit(p):
    """The raw-word bound of a coin that falls with probability p.

    numpy's ``random()`` is the top 53 bits of a raw word times 2**-53,
    so ``random() < p`` holds exactly when those bits are below
    p * 2**53, that is when ``word < coin_limit(p)``. The limit is a
    multiple of 2**11 in [0, 2**64].
    """
    return math.ceil(p * 2.0**53) << 11


_DRAWS_BLOCK = 256  # raw words read from the bit generator at a time
_LOW32 = (1 << 32) - 1
_CHOICE_MAX = 10_000  # above this population numpy may sample by a partial shuffle


class Draws:
    """Pure-Python stream of numpy's scalar draws for ``default_rng(seed)``.

    ``word()`` takes the raw word of one ``Generator.random()`` call, and
    ``integers(n)`` returns, call for call, the same value as
    ``Generator.integers(n)`` on ``numpy.random.default_rng(seed)``, for
    any interleaving of the two. A coin with probability p is
    ``word() < coin_limit(p)``.
    The raw 64-bit words are one endless stream, read in blocks from the
    PCG64 bit generator, which a Draws owns: it reads ahead of what it
    has returned, so no other code may draw from that bit generator.

    ``integers`` follows numpy's 32-bit path: one 32-bit word per try,
    the low half of a raw word first and its high half kept for the next
    try (PCG64's ``next_uint32``), then Lemire's multiply-and-reject.
    ``word()`` takes a whole raw word and leaves a kept half in place.
    ``choice(d, k)`` is built on ``integers`` alone.
    """

    __slots__ = ("word", "_half")

    def __init__(self, seed):
        bitgen = np.random.PCG64(seed)  # the bit generator of default_rng(seed)
        # the raw 64-bit word of one ``random()``: that value is ``(word >> 11) * 2**-53``
        self.word = chain.from_iterable(
            bitgen.random_raw(_DRAWS_BLOCK).tolist() for _ in repeat(None)).__next__
        self._half = None  # the high half of the last word split for integers

    def _uint32(self):
        """numpy's next 32-bit word: a kept high half, else the low half of a new word."""
        u32 = self._half
        if u32 is not None:
            self._half = None
            return u32
        word = self.word()
        self._half = word >> 32
        return word & _LOW32

    def integers(self, n):
        """Uniform int in range(n) for 1 <= n <= 2**32; n == 1 draws nothing."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers(n) needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        u32 = self._half  # self._uint32(), inlined on this hot path
        if u32 is None:
            word = self.word()
            self._half = word >> 32
            u32 = word & _LOW32
        else:
            self._half = None
        if n == 1 << 32:
            return u32
        m = u32 * n
        if m & _LOW32 < n:
            threshold = (1 << 32) % n  # numpy's (UINT32_MAX - (n-1)) % n
            while m & _LOW32 < threshold:
                m = self._uint32() * n
        return m >> 32

    def choice(self, d, k):
        """k distinct ints from range(d), as ``Generator.choice(d, size=k, replace=False)``.

        numpy's algorithm for d <= 10 000: Floyd's sampling, one
        ``integers(j + 1)`` for each j in d-k..d-1 that keeps its draw
        unless already taken and j otherwise, then a Fisher-Yates pass
        over the k picks with one ``integers(i + 1)`` for i = k-1..1.
        """
        if not 0 <= k <= d <= _CHOICE_MAX:
            raise ValueError(f"choice(d, k) needs 0 <= k <= d <= {_CHOICE_MAX}, got {d}, {k}")
        out = []
        for j in range(d - k, d):
            v = self.integers(j + 1)
            out.append(j if v in out else v)
        for i in range(k - 1, 0, -1):
            j = self.integers(i + 1)
            out[i], out[j] = out[j], out[i]
        return out
