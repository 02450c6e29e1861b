"""Deterministic RNG derivation from named key paths.

Every random decision in the harness draws from a generator derived from the
master seed plus a stable string key, so adding or removing one stage never
perturbs the draws of another.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(*parts) -> int:
    """Hash the key path to a 64-bit seed, stable across runs and platforms."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(*parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))


class HalfWords:
    """numpy's bounded `integers(k)` draws on a PCG64 generator, replayed
    from the generator's raw 64-bit words.

    For 1 < k < 2**32, `rng.integers(k)` takes one 32-bit half-word per try:
    the bit generator's buffered half-word when it holds one, else the low
    half of a fresh word, whose high half it buffers for the next try. A try
    keeps `half * k >> 32` unless Lemire's rule rejects it (Lemire, "Fast
    Random Integer Generation in an Interval", ACM TOMACS 2019), which it
    never does for k == 2: a coin flip is the half-word's top bit. Whole-word
    draws (`random_raw`, `standard_normal`, `uniform`) leave the buffer
    alone, so they may run between these draws.

    `draw` gives the next raw word: `bitgen.random_raw` by default, or a
    source that reads ahead, after which the caller moves the generator on by
    the `fresh` words taken here. `hold(bitgen)` then leaves the generator
    holding the buffered half-word, as numpy would.
    """

    __slots__ = ("buffered", "half", "draw", "fresh")

    def __init__(self, bitgen, draw=None):
        state = bitgen.state
        self.buffered, self.half = state["has_uint32"], state["uinteger"]
        self.draw = bitgen.random_raw if draw is None else draw
        self.fresh = 0

    def integers(self, k: int) -> int:
        """`rng.integers(k)` for 1 < k < 2**32."""
        while True:
            if self.buffered:
                half, self.buffered = self.half, 0
            else:
                word = self.draw()
                self.fresh += 1
                half, self.half, self.buffered = word & 0xFFFFFFFF, word >> 32, 1
            scaled = half * k
            if scaled & 0xFFFFFFFF >= k or scaled & 0xFFFFFFFF >= (0x100000000 - k) % k:
                return scaled >> 32

    def hold(self, bitgen) -> None:
        """Leave `bitgen` holding the half-word these draws buffered, if any."""
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = self.buffered, self.half
        bitgen.state = state
