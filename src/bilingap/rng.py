"""Seeded 64-bit stream used by every randomized routine in this package.

The stream identity is part of the external reproducibility contract, so it
is pinned here rather than delegated to platform RNGs.  It is the standard
splitmix64 construction; output k (0-based) of seed s is

    z <- (s + (k + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z <- ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z xor (z >> 31)

Because the state after k steps is a closed form, any block of outputs is one
array expression (`draws`).  This module is also the only place where an
output becomes a value: `bits` (the low bit), `signs` (low bit 0 -> +1) and
`units` (top 53 bits -> [0, 1)).  Consumers draw blocks in the documented
order (lexicographic edge order for instance generators, ascending vertex
order for subset sampling), so any implementation of splitmix64 reproduces
every instance and every search trajectory bit for bit.
"""

from __future__ import annotations

import numpy as np

from .graph import _int_arg

# uint64 operands only: mixing in Python ints changes the result type across
# numpy versions, and scalar uint64 overflow warns where array overflow wraps.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ONE, _S11, _S27, _S30, _S31 = (np.uint64(k) for k in (1, 11, 27, 30, 31))


def draws(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start .. start+count-1 (0-based, >= 0, sum <= 2^64) of seed mod 2^64's stream."""
    seed = _int_arg(seed, "seed")
    start = _int_arg(start, "start", 0, 2**64)
    count = _int_arg(count, "count", 0, 2**64 - start)
    z = np.arange(count, dtype=np.uint64) + np.uint64((start + 1) % 2**64)  # k + 1 mod 2^64
    z *= _GAMMA
    z += np.uint64(seed % 2**64)
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def bits(u: np.ndarray) -> np.ndarray:
    """Low bit of each output as a float64 0.0 / 1.0."""
    return (u & _ONE).astype(np.float64)


def signs(u: np.ndarray) -> np.ndarray:
    """+1.0 where the low bit is 0, -1.0 where it is 1."""
    return 1.0 - 2.0 * bits(u)


def units(u: np.ndarray) -> np.ndarray:
    """Float64 in [0, 1) from the top 53 bits of each output."""
    return (u >> _S11) * 2.0**-53


def shifted(u: np.ndarray) -> np.ndarray:
    """Outputs moved down one bit, so `bits`/`signs` read bit 1."""
    return u >> _ONE
