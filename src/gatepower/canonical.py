"""Weyl-chamber geometry and the canonical two-qubit gate.

Every two-qubit gate is locally equivalent to a canonical gate labelled by
a point (c1, c2, c3) of the Weyl chamber

    c1 >= c2 >= c3 >= 0,   c1 + c2 <= pi

with all coordinates in radians. The chamber is a tetrahedron; its named
vertices are O = (0,0,0) (identity class), A1 = (pi,0,0) (also the identity
class), A2 = (pi/2,pi/2,0) and A3 = (pi/2,pi/2,pi/2) (SWAP class), and the
midpoint L = (pi/2,0,0) of O-A1 is the CNOT class. The polyhedron of
perfect entanglers sits between the planes c1 + c2 = pi/2, c1 - c2 = pi/2
and c2 + c3 = pi/2; its vertices Q = (pi/4,pi/4,0), P = (pi/4,pi/4,pi/4),
M = (3pi/4,pi/4,0) and N = (3pi/4,pi/4,pi/4), with L and A2, end the six
named edges of EdgeId, whose ends one table holds for edge_point and edge_tags.

canonical_gate_array builds the canonical gates of whole coordinate arrays
as one (..., 4, 4) stack, or of one point's three floats as one 4x4 matrix
with the bits of that point's entry in a stack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng

__all__ = [
    "CHAMBER_TOL",
    "EdgeId",
    "WeylPoint",
    "canonical_gate_array",
    "chamber_lattice",
    "chamber_mask",
    "edge_point",
    "edge_tags",
    "in_weyl_chamber",
    "random_chamber_coords",
]

# slack applied to every chamber inequality, sized so that every point printed with %.12g (scan, the
# text view) is accepted back. That rounding is monotone, so it keeps c1 >= c2 >= c3 >= 0, but it can
# push c1 + c2 past pi. On or inside that face, c1 >= pi/2 > 1 prints to a multiple of 1e-11, within
# 5e-12, and c2 to a multiple of 1e-12 (of 1e-11 from 1 on), within 5e-13 (5e-12). pi =
# 3141592653589.793e-12 lies 0.207e-12 below a multiple of 1e-12 and of 1e-11, so the printed sum
# exceeds pi by at most 5.207e-12 (0.207e-12 where c2 >= 1). Parsing each coordinate, the float sum and
# pi + CHAMBER_TOL round by at most 2.2e-16 each, half an ulp at pi, so 1e-11 holds with 4.7e-12 to
# spare. It changes the chamber-point count of no lattice, grids 2 to 256.
CHAMBER_TOL = 1e-11
_EDGE_TAG_TOL = 1e-9  # slack on each coordinate of a point's offset from a named edge; see edge_tags
# _lattice_axes keeps each axis index in a uint8, which holds grid_n <= 256; at 256 (2812544 chamber
# points) verify theorems, 65536 points at a time, peaked at 94 MB ru_maxrss, 35 MB of it its 204644
# report lines, and scan --chamber --out, 2048 rows at a time, at 43 MB, both in a fresh process on a
# 2-core host
_GRID_MAX = 256
# attempts per _chamber_coord_passes pass: 0.75 MB of coordinates. verify routes --n 1000000 --seed 3 in
# alternating fresh-process rounds on a 2-core host, same output at every value: at 2^13 517k minor
# faults and a 2.23 s median wall time (6 rounds); at 2^14 381k, 2.19-2.33 s and 35 MB ru_maxrss; at 2^15
# 381k, 2.16-2.29 s and 40 MB; at 2^16 392k, 2.29-2.44 s and 48 MB (medians of a 6- and a 10-round set).
# sweep's verify routes draws at most 4200 attempts, one pass at any of these values
_PASS_MAX = 1 << 15

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class WeylPoint:
    """Chamber coordinates (c1, c2, c3), radians."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for v in (self.c1, self.c2, self.c3):
            if not math.isfinite(v):
                raise ValueError(f"coordinates must be finite, got {v!r}")

    def __iter__(self):
        yield self.c1
        yield self.c2
        yield self.c3


def chamber_mask(c1, c2, c3) -> np.ndarray:
    """Elementwise c1 >= c2 >= c3 >= 0 and c1 + c2 <= pi, each up to CHAMBER_TOL."""
    return (c1 >= c2 - CHAMBER_TOL) & (c2 >= c3 - CHAMBER_TOL) & (c3 >= -CHAMBER_TOL) & (c1 + c2 <= math.pi + CHAMBER_TOL)


def in_weyl_chamber(p: WeylPoint) -> bool:
    """True when c1 >= c2 >= c3 >= 0 and c1 + c2 <= pi, each up to CHAMBER_TOL."""
    return bool(chamber_mask(p.c1, p.c2, p.c3))


def _lattice_axes(grid_n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The axes of chamber_lattice(grid_n) and the axis indices of its points.

    Returns the axis of each coordinate, (c1s, c2s, c2s) with grid_n values on [0, pi] and on
    [0, pi/2], and a (3, n) uint8 array whose columns (i, j, k) give each chamber point
    (c1s[i], c2s[j], c2s[k]), in chamber_lattice's row order. Raises ValueError as chamber_lattice does.
    """
    if not 2 <= grid_n <= _GRID_MAX:
        raise ValueError(f"grid size must lie in [2, {_GRID_MAX}], got {grid_n}")
    c1s = np.linspace(0.0, math.pi, grid_n)
    c2s = np.linspace(0.0, _HALF_PI, grid_n)
    # chamber_mask at (c1, c2, 0) holds the inequalities without c3 and at (c2, c2, c3) those with it, so
    # (i, j, k) is a chamber point when (i, j) passes the first plane and (j, k) the second; the k that
    # pass for a j are a prefix, so each pair (i, j) expands to k = 0 .. counts - 1
    i, j = np.nonzero(chamber_mask(c1s[:, None], c2s, 0.0))
    counts = chamber_mask(c2s[:, None], c2s[:, None], c2s).sum(axis=1)[j]
    # an index is below grid_n <= 256, so uint8 holds it, and k, a point's position less its pair's first
    # position, can be taken mod 256: minus the first position, then plus the position, in uint8
    ijk = np.repeat(np.array([i, j, counts - np.cumsum(counts)], dtype=np.uint8), counts, axis=1)
    ijk[2] += np.resize(np.arange(256, dtype=np.uint8), ijk.shape[1])
    return (c1s, c2s, c2s), ijk


def chamber_lattice(grid_n: int) -> np.ndarray:
    """Chamber points of the grid_n^3 lattice on [0, pi] x [0, pi/2]^2, c3 varying fastest.

    grid_n must lie in [2, 256]; anything else raises ValueError before any allocation.
    """
    axes, ijk = _lattice_axes(grid_n)
    return np.column_stack([axis[i] for axis, i in zip(axes, ijk)])


def _sort_desc(a, b, c, lower=np.minimum, upper=np.maximum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise (a, b, c) sorted descending by a min/max network; each output is one input, bit for bit.

    lower and upper are the network's min and max: builtin min and max on floats that are not nan.
    """
    lo, hi = lower(a, b), upper(a, b)
    mid, top = lower(hi, c), upper(hi, c)
    return top, upper(lo, mid), lower(lo, mid)


def _fill_canonical(u, em, cm, sm, cp, sp):
    """Write the canonical gates' nonzero entries into the zeroed (..., 4, 4) u and return it.

    em is e^{-ic3/2}, and cm, sm, cp, sp are c-, s-, c+, s+ (see canonical_gate_array):
    elementwise arrays, or one complex and four floats, whose products have the same bits.
    """
    ep = em.conjugate()
    u[..., 0, 0] = u[..., 3, 3] = em * cm
    u[..., 0, 3] = u[..., 3, 0] = -1j * em * sm
    u[..., 1, 1] = u[..., 2, 2] = ep * cp
    u[..., 1, 2] = u[..., 2, 1] = -1j * ep * sp
    return u


def canonical_gate_array(c1, c2, c3) -> np.ndarray:
    """Canonical gates over broadcastable coordinate arrays, as a (..., 4, 4) stack.

    Each matrix equals exp(-i/2 (c1 XX + c2 YY + c3 ZZ)) in the
    computational basis |00>, |01>, |10>, |11>:

        [ e^{-ic3/2} c-   0               0              -i e^{-ic3/2} s- ]
        [ 0               e^{ic3/2} c+   -i e^{ic3/2} s+  0               ]
        [ 0              -i e^{ic3/2} s+  e^{ic3/2} c+    0               ]
        [-i e^{-ic3/2} s- 0               0               e^{-ic3/2} c-   ]

    with c± = cos((c1 ± c2)/2) and s± = sin((c1 ± c2)/2).
    """
    c1, c2, c3 = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (c1, c2, c3)))
    em = np.empty(c3.shape, dtype=complex)
    em.real = np.cos(c3 / 2)
    em.imag = -np.sin(c3 / 2)
    return _fill_canonical(
        np.zeros(c3.shape + (4, 4), dtype=complex),
        em, np.cos((c1 - c2) / 2), np.sin((c1 - c2) / 2), np.cos((c1 + c2) / 2), np.sin((c1 + c2) / 2),
    )


class EdgeId(Enum):
    """Named straight segments of the chamber with constant or simple |g1|."""

    QP = "QP"
    MN = "MN"
    PN = "PN"
    LQ = "LQ"
    LN = "LN"
    A2P = "A2P"


# the vertices that end the named edges, in units of pi/4
_Q, _P, _M, _N, _L, _A2 = math.pi / 4 * np.array([[1, 1, 0], [1, 1, 1], [3, 1, 0], [3, 1, 1], [2, 0, 0], [2, 2, 0]])
# (start, end) vertices of each named edge
_EDGE_ENDPOINTS = {
    EdgeId.QP: (_Q, _P), EdgeId.MN: (_M, _N), EdgeId.PN: (_P, _N),
    EdgeId.LQ: (_L, _Q), EdgeId.LN: (_L, _N), EdgeId.A2P: (_A2, _P),
}
# edge_tags' row of each named edge, in Python floats: tag, start, end - start and k, the first moving coordinate
_EDGE_ROWS = [
    (f"EDGE_{edge.value}", start.tolist(), (end - start).tolist(), int(np.flatnonzero(end - start)[0]))
    for edge, (start, end) in _EDGE_ENDPOINTS.items()
]


def _edge_coords(edge: EdgeId, t) -> np.ndarray:
    """(..., 3) chamber coordinates at parameters t along a named edge; t is not range-checked."""
    start, end = _EDGE_ENDPOINTS[edge]
    return start + np.asarray(t, dtype=float)[..., None] * (end - start)


def edge_point(edge: EdgeId, t: float) -> WeylPoint:
    """Point at parameter t in [0, 1] along a named segment.

    QP, MN and PN run along the faces where |g1| = 1/4 (entangling power
    exactly 1/6); LQ, LN and A2P cross the perfect-entangler boundary with
    |g1| = (1/4) sin^2(pi t / 2).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"edge parameter must lie in [0, 1], got {t}")
    if not isinstance(edge, EdgeId):
        raise ValueError(f"unknown edge {edge!r}")
    return WeylPoint(*_edge_coords(edge, t).tolist())


def edge_tags(p: WeylPoint) -> set[str]:
    """EDGE_* labels for every named segment passing through p: each coordinate of p lies within 1e-9
    of start + t (end - start) at t = (p_k - start_k) / (end_k - start_k) clamped to [0, 1]."""
    c = c1, c2, c3 = tuple(p)
    tol = _EDGE_TAG_TOL
    tags = set()
    for tag, start, step, k in _EDGE_ROWS:
        t = (c[k] - start[k]) / step[k]
        # written out, not min/max and a generator over the coordinates, which made a call 5 times slower
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
        (s1, s2, s3), (d1, d2, d3) = start, step
        if abs(c1 - (s1 + t * d1)) <= tol and abs(c2 - (s2 + t * d2)) <= tol and abs(c3 - (s3 + t * d3)) <= tol:
            tags.add(tag)
    return tags


def _chamber_coord_passes(seed: int, count: int):
    """The first count points of random_chamber_coords, yielded pass by pass as (k, 3) arrays, k >= 1."""
    scale = np.array([math.pi, _HALF_PI, _HALF_PI])
    start = 0
    while count > 0:
        # the chamber fills 1/6 of the box, so 7 attempts per point still needed keep nearly every
        # sample to one pass; the points are a prefix of one stream, so the pass size changes only
        # how many passes there are
        attempts = min(7 * count, _PASS_MAX)
        c = scale * rng.uniform_stream(seed, start, 3 * attempts).reshape(attempts, 3)
        start += 3 * attempts
        kept = c[chamber_mask(*c.T)][:count]
        count -= len(kept)
        if len(kept):
            yield kept


def random_chamber_coords(seed: int, count: int) -> np.ndarray:
    """Deterministic uniform sample of chamber points as a (count, 3) array.

    Draws (c1, c2, c3) uniformly from [0, pi] x [0, pi/2] x [0, pi/2]
    using the documented stream for ``seed`` (three uniforms per attempt,
    consumed in index order) and keeps points inside the chamber. A negative count raises ValueError.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return np.concatenate([np.empty((0, 3)), *_chamber_coord_passes(seed, count)])
