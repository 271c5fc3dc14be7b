"""Deterministic random streams for sampling.

The generator is fixed, self-contained, and documented bit-exactly so that
a given seed reproduces the same stream on every platform and for any
partitioning of the work across blocks or workers.

Core generator (splitmix64):

    GAMMA = 0x9E3779B97F4A7C15
    mix64(z): z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9   (mod 2**64)
              z ^= z >> 27;  z *= 0x94D049BB133111EB   (mod 2**64)
              z ^= z >> 31;  return z

    value(key, i) = mix64((key + (i + 1) * GAMMA) mod 2**64)

``value(key, .)`` is the splitmix64 output sequence for ``key``. Because it
is a pure function of (key, i), any slice of a stream can be produced
independently. Substreams are derived the same way:

    block_key(seed, b) = value(seed, b)

so block b of a computation draws from ``value(block_key(seed, b), .)``
without touching any other block's stream.

Floating-point outputs:

    uniform: u = ((raw >> 11) + 0.5) * 2**-53, strictly inside (0, 1)
    normal pair (Box-Muller): r = sqrt(-2 ln u1)
                              z0 = r cos(2 pi u2), z1 = r sin(2 pi u2)
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "GAMMA",
    "MASK64",
    "raw_stream",
    "uniform_stream",
    "block_key",
    "box_muller",
]

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def raw_stream(key: int, start: int, count: int) -> np.ndarray:
    """uint64 outputs value(key, start) .. value(key, start + count - 1)."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(key & MASK64) + idx * np.uint64(GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def uniform_stream(key: int, start: int, count: int) -> np.ndarray:
    """float64 uniforms in the open interval (0, 1)."""
    raw = raw_stream(key, start, count)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def block_key(seed: int, block: int) -> int:
    """Key of the independent substream assigned to one block: value(seed, block)."""
    return int(raw_stream(seed, block, 1)[0])


def box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two standard-normal arrays from two uniform-(0,1) arrays."""
    r = np.sqrt(-2.0 * np.log(u1))
    t = 2.0 * np.pi * u2
    return r * np.cos(t), r * np.sin(t)
