"""Portable seeded pseudorandom generator used for every stochastic choice.

Seeds are part of the reproducibility contract (they are serialized with
models and study records), so sampling must be bit-stable across platforms
and language runtimes. Library-default generators are therefore not used
anywhere in search, batching, or weight initialization; everything goes
through the fixed-constant generators below.

Generators:
  - splitmix64: seeding / stream derivation (finalizer constants
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB).
  - xorshift64* (shifts 12, 25, 27; multiplier 0x2545F4914F6CDD1D) for the
    actual random stream.

Jump table: the xorshift state update is linear over GF(2) (Vigna,
arXiv:1402.6246), so the state j + 1 steps after s is the XOR, over the set
bits i of s, of the state j + 1 steps after the single bit i. `uniforms` reads
those states, for draws of _TABLE_MIN_DRAWS or more, from a table of
64 x 128 `uint64` (64 KiB): entry [i, j] is the state j + 1 steps after bit i.
One table pass yields up to 128 successive states; longer draws chain passes
from the last state. The table is built on the first such draw, never at
import, and is the same for every stream.
All of its arithmetic uses explicit `np.uint64` operands, so numpy's integer
promotion rules (which changed in numpy 2) cannot change a bit.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Sequence, TypeVar

import numpy as np

MASK64 = (1 << 64) - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB
_XORSHIFT_MUL = 0x2545F4914F6CDD1D

_JUMP_STEPS = 128  # successive states per jump-table pass
# Fewer draws than this take the scalar chain: one table pass costs about as
# much as 20 `uniform` calls (measured with CPython 3.11 and numpy 2).
_TABLE_MIN_DRAWS = 20
_UNIT_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)

#: Stride for deriving per-repeat training seeds: seed_k = base_seed * SEED_STRIDE + k.
SEED_STRIDE = 10007

T = TypeVar("T")


def splitmix64(x: int) -> int:
    """One splitmix64 step: maps any 64-bit value to a well-mixed 64-bit value."""
    x = (x + _SPLITMIX_GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _SPLITMIX_MUL1) & MASK64
    x = ((x ^ (x >> 27)) * _SPLITMIX_MUL2) & MASK64
    return x ^ (x >> 31)


def derive_seed(base: int, index: int) -> int:
    """Child seed for stream `index` of `base`; streams are mutually independent."""
    return splitmix64((base & MASK64) ^ splitmix64(index & MASK64))


def repeat_seed(base_seed: int, repeat: int) -> int:
    """Training seed for evaluation repeat `repeat` (documented linear rule)."""
    return base_seed * SEED_STRIDE + repeat


@cache
def _jump_table() -> np.ndarray:
    """(64, _JUMP_STEPS) uint64: entry [i, j] is the state j + 1 xorshift steps
    after the state with only bit i set."""
    table, x = np.empty((64, _JUMP_STEPS), dtype=np.uint64), _UNIT_BITS
    for j in range(_JUMP_STEPS):
        x = x ^ (x >> np.uint64(12))
        x = x ^ (x << np.uint64(25))  # a uint64 shift drops the carried-out bits
        x = x ^ (x >> np.uint64(27))
        table[:, j] = x
    table.flags.writeable = False  # one table serves every stream
    return table


class PortableRng:
    """xorshift64* stream. State is never zero; seeding goes through splitmix64."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = splitmix64(seed & MASK64)
        if self._state == 0:
            self._state = _SPLITMIX_GAMMA

    def next_uint64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XORSHIFT_MUL) & MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def log_uniform(self, low: float, high: float) -> float:
        if low <= 0 or high < low:
            raise ValueError(f"log_uniform requires 0 < low <= high, got [{low}, {high}]")
        return math.exp(self.uniform(math.log(low), math.log(high)))

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via top-bits rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        k = (n - 1).bit_length()
        while True:
            r = self.next_uint64() >> (64 - k) if k else 0
            if r < n:
                return r

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], both ends inclusive."""
        if high < low:
            raise ValueError(f"empty integer range [{low}, {high}]")
        return low + self.randbelow(high - low + 1)

    def choice(self, options: Sequence[T]) -> T:
        if len(options) == 0:
            raise ValueError("cannot choose from an empty sequence")
        return options[self.randbelow(len(options))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def uniforms(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n successive `uniform(low, high)` draws as a float64 array, bit for bit,
        with the stream left where n `uniform` calls leave it. Below
        _TABLE_MIN_DRAWS they are those calls; from there the states come from
        the jump table (module docstring), up to _JUMP_STEPS per pass."""
        if n < _TABLE_MIN_DRAWS:
            return np.array([self.uniform(low, high) for _ in range(n)], dtype=np.float64)
        table, states, x = _jump_table(), np.empty(n, dtype=np.uint64), self._state
        for start in range(0, n, _JUMP_STEPS):
            block = states[start:start + _JUMP_STEPS]
            # the table rows of x's set bits: compress keeps rows whose mask entry is nonzero
            rows = table.compress(np.uint64(x) & _UNIT_BITS, axis=0)
            np.bitwise_xor.reduce(rows[:, :len(block)], axis=0, out=block)
            x = int(block[-1])
        self._state = x
        units = ((states * np.uint64(_XORSHIFT_MUL)) >> np.uint64(11)).astype(np.float64)
        units *= 2.0**-53
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf, nan
            return low + (high - low) * units
