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
named edges of EdgeId.

canonical_gate_array builds the canonical gates of whole coordinate arrays
as one (..., 4, 4) stack; canonical_gate is the same formula on one point.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng

__all__ = [
    "CHAMBER_TOL",
    "EdgeId",
    "WeylPoint",
    "canonical_gate",
    "canonical_gate_array",
    "chamber_lattice",
    "chamber_mask",
    "edge_point",
    "edge_tags",
    "in_weyl_chamber",
    "mirror_coords",
    "random_chamber_coords",
    "random_chamber_points",
]

# slack applied to every chamber inequality
CHAMBER_TOL = 1e-12
_EDGE_TAG_TOL = 1e-9  # slack on each constraint that puts a point on a named edge
# chamber_lattice builds a grid_n^3 mask and its evaluation keeps about 350 bytes per
# chamber point, so 256 caps a sweep near 1 GB
_GRID_MAX = 256

_HALF_PI = math.pi / 2
_QUARTER_PI = math.pi / 4


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


def chamber_lattice(grid_n: int) -> np.ndarray:
    """Chamber points of the grid_n^3 lattice on [0, pi] x [0, pi/2]^2, c3 varying fastest.

    grid_n must lie in [2, 256]; anything else raises ValueError before any allocation.
    """
    if not 2 <= grid_n <= _GRID_MAX:
        raise ValueError(f"grid size must lie in [2, {_GRID_MAX}], got {grid_n}")
    c1s = np.linspace(0.0, math.pi, grid_n)
    c2s = np.linspace(0.0, _HALF_PI, grid_n)
    i, j, k = np.nonzero(chamber_mask(c1s[:, None, None], c2s[:, None], c2s))
    return np.column_stack((c1s[i], c2s[j], c2s[k]))


def _sort_desc(a, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise (a, b, c) sorted descending by a min/max network; each output is one input, bit for bit."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    mid, top = np.minimum(hi, c), np.maximum(hi, c)
    return top, np.maximum(lo, mid), np.minimum(lo, mid)


def mirror_coords(c1, c2, c3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise mirror: (pi - c1, c2, c3) re-sorted descending."""
    return _sort_desc(math.pi - c1, c2, c3)


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
    cm = np.cos((c1 - c2) / 2)
    sm = np.sin((c1 - c2) / 2)
    cp = np.cos((c1 + c2) / 2)
    sp = np.sin((c1 + c2) / 2)
    em = np.empty(c3.shape, dtype=complex)
    em.real = np.cos(c3 / 2)
    em.imag = -np.sin(c3 / 2)
    ep = em.conj()
    u = np.zeros(c3.shape + (4, 4), dtype=complex)
    u[..., 0, 0] = u[..., 3, 3] = em * cm
    u[..., 0, 3] = u[..., 3, 0] = -1j * em * sm
    u[..., 1, 1] = u[..., 2, 2] = ep * cp
    u[..., 1, 2] = u[..., 2, 1] = -1j * ep * sp
    return u


def canonical_gate(p: WeylPoint | Sequence[float]) -> np.ndarray:
    """Canonical 4x4 unitary of the local-equivalence class at p; see canonical_gate_array."""
    return canonical_gate_array(*p)


class EdgeId(Enum):
    """Named straight segments of the chamber with constant or simple |g1|."""

    QP = "QP"
    MN = "MN"
    PN = "PN"
    LQ = "LQ"
    LN = "LN"
    A2P = "A2P"


# the vertices that end the named edges, in units of pi/4
_Q, _P, _M, _N, _L, _A2 = _QUARTER_PI * np.array([[1, 1, 0], [1, 1, 1], [3, 1, 0], [3, 1, 1], [2, 0, 0], [2, 2, 0]])
# (start, end) vertices of each named edge
_EDGE_ENDPOINTS = {
    EdgeId.QP: (_Q, _P), EdgeId.MN: (_M, _N), EdgeId.PN: (_P, _N),
    EdgeId.LQ: (_L, _Q), EdgeId.LN: (_L, _N), EdgeId.A2P: (_A2, _P),
}


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
    """EDGE_* labels for every named segment passing through p, each constraint up to 1e-9."""
    c1, c2, c3 = p
    tol = _EDGE_TAG_TOL
    tags = set()
    if abs(c1 - _QUARTER_PI) <= tol and abs(c2 - _QUARTER_PI) <= tol and -tol <= c3 <= _QUARTER_PI + tol:
        tags.add("EDGE_QP")
    if abs(c1 - 3 * _QUARTER_PI) <= tol and abs(c2 - _QUARTER_PI) <= tol and -tol <= c3 <= _QUARTER_PI + tol:
        tags.add("EDGE_MN")
    if abs(c2 - _QUARTER_PI) <= tol and abs(c3 - _QUARTER_PI) <= tol and _QUARTER_PI - tol <= c1 <= 3 * _QUARTER_PI + tol:
        tags.add("EDGE_PN")
    if abs(c3) <= tol and abs(c1 + c2 - _HALF_PI) <= tol and _QUARTER_PI - tol <= c1 <= _HALF_PI + tol:
        tags.add("EDGE_LQ")
    if abs(c2 - c3) <= tol and abs(c1 - _HALF_PI - c2) <= tol and -tol <= c2 <= _QUARTER_PI + tol:
        tags.add("EDGE_LN")
    if abs(c1 - c2) <= tol and abs(c1 + c3 - _HALF_PI) <= tol and -tol <= c3 <= _QUARTER_PI + tol:
        tags.add("EDGE_A2P")
    return tags


def random_chamber_coords(seed: int, count: int) -> np.ndarray:
    """Deterministic uniform sample of chamber points as a (count, 3) array.

    Draws (c1, c2, c3) uniformly from [0, pi] x [0, pi/2] x [0, pi/2]
    using the documented stream for ``seed`` (three uniforms per attempt,
    consumed in index order) and keeps points inside the chamber.
    """
    scale = np.array([math.pi, _HALF_PI, _HALF_PI])
    kept = [np.empty((0, 3))]
    start = 0
    while sum(map(len, kept)) < count:
        c = scale * rng.uniform_stream(seed, start, 3 * 128).reshape(128, 3)
        start += 3 * 128
        kept.append(c[chamber_mask(*c.T)])
    return np.concatenate(kept)[:count]


def random_chamber_points(seed: int, count: int) -> list[WeylPoint]:
    """``random_chamber_coords`` as a list of points."""
    return [WeylPoint(*row) for row in random_chamber_coords(seed, count).tolist()]
