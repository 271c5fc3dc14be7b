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
independently. Substreams are derived the same way: block b of a
computation is keyed by value(seed, b), entry b of ``raw_stream(seed, 0, n)``,
and draws from ``value(value(seed, b), .)`` without touching any other
block's stream.

Floating-point outputs:

    uniform: u = ((raw >> 11) + 0.5) * 2**-53, strictly inside (0, 1)
    normal pair (Box-Muller): z0 + i z1 = r exp(i 2 pi u2), r = sqrt(-2 ln u1); cos and sin come
                              from one complex exponential, glibc's cexp: libm's, bit for bit
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "GAMMA",
    "MASK64",
    "raw_stream",
    "uniform_stream",
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


def _box_muller_complex(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """z0 + i z1 = r exp(i 2 pi u2) of each Box-Muller pair, one complex array of u2's shape."""
    # log of a contiguous copy of the strided u1 of a Monte-Carlo chunk: 14-19 us, not 25-27 (2-core host)
    r = np.sqrt(-2.0 * np.log(np.ascontiguousarray(u1)))
    z = np.zeros(u2.shape, dtype=complex)
    np.multiply(2.0 * np.pi, u2, out=z.imag)
    return np.multiply(np.exp(z, out=z), r, out=z)


def box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two standard-normal arrays from two uniform-(0,1) arrays: z0 and z1 of _box_muller_complex."""
    z = _box_muller_complex(u1, u2)
    return z.real, z.imag
