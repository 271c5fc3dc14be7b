"""Perfect-entangler classification and exhaustive consistency checks.

A two-qubit gate is a perfect entangler when it can produce a maximally
entangled state from some product state. Two tests are implemented:

  * geometric: after folding the chamber point into the half-chamber
    c1 <= pi/2 (mirror), require c1 + c2 >= pi/2 and c2 + c3 <= pi/2;
  * invariant-only: require |g1| <= 1/4 and -1 <= g2 <= 1.

The geometric test is exact. The invariant box is necessary but not
sufficient: it also admits non-perfect entanglers just inside its
|g1| = 1/4 face, 58 of the 2769 chamber points at grid 25 (2.1%) and 290
of 11060 at grid 40 (2.6%), a share that rises with the lattice
resolution. ``verify_theorems`` sweeps a chamber lattice,
checks the entangling-power window [1/6, 2/9] of perfect entanglers and
reports every off-boundary point where the two tests disagree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import (
    WeylPoint,
    _lattice_axes,
    _sort_desc,
    canonical_gate,
    edge_tags,
    in_weyl_chamber,
)
from .epower import EP_MAX, ep_closed_array, ep_from_g1_abs
from .errors import TheoremViolationError
from .invariants import (
    LocalInvariants,
    _invariants,
    g1_abs_array,
    g2_array,
    invariants_at_point,
)
from .linalg import require_unitary

__all__ = [
    "PE_EP_MIN",
    "PE_TOL",
    "GateRecord",
    "PeVerdict",
    "TheoremReport",
    "classify_gate",
    "geometric_margins",
    "invariant_margins",
    "is_pe_geometric",
    "is_pe_invariant",
    "pe_mask",
    "verify_theorems",
]

# slack on every perfect-entangler inequality; margins within this of zero
# mark a boundary case
PE_TOL = 1e-9

PE_EP_MIN = 1.0 / 6.0

_HALF_PI = math.pi / 2


def geometric_margins(c1, c2, c3) -> dict[str, np.ndarray]:
    """Elementwise signed slacks of the geometric test (>= 0 inside).

    Points are first folded into the half-chamber c1 <= pi/2: (min(c1, pi - c1), c2, c3)
    re-sorted is the point itself there and its mirror image where c1 > pi/2.
    """
    q1, q2, q3 = _sort_desc(np.minimum(c1, math.pi - c1), c2, c3)
    return {
        "c1_plus_c2": q1 + q2 - _HALF_PI,
        "c2_plus_c3": _HALF_PI - (q2 + q3),
    }


def invariant_margins(g1_abs, g2) -> dict:
    """Elementwise signed slacks of the invariant-box test (>= 0 inside)."""
    return {"g1_abs": 0.25 - g1_abs, "g2_low": g2 + 1.0, "g2_high": 1.0 - g2}


def pe_mask(margins: dict) -> np.ndarray:
    """True where every margin clears -PE_TOL."""
    return np.logical_and.reduce([m >= -PE_TOL for m in margins.values()])


def _boundary_mask(margins: dict) -> np.ndarray:
    """True where some margin lies within PE_TOL of zero."""
    return np.logical_or.reduce([np.abs(m) <= PE_TOL for m in margins.values()])


def _evaluate(c1, c2, c3) -> dict:
    """Every chamber-point column that scan, verify_theorems and classify_gate read.

    Over broadcastable coordinate arrays: g1_abs, g2 and ep; the signed margins of both
    tests and their verdicts; and boundary, where some margin lies within PE_TOL of zero.
    """
    # ep before the margins: its temporaries then share memory with three columns, not eight
    g1a, g2, ep = g1_abs_array(c1, c2, c3), g2_array(c1, c2, c3), ep_closed_array(c1, c2, c3)
    geo, inv = geometric_margins(c1, c2, c3), invariant_margins(g1a, g2)
    return {
        "g1_abs": g1a, "g2": g2, "ep": ep,
        "geo_margins": geo, "inv_margins": inv,
        "pe_geometric": pe_mask(geo), "pe_invariant": pe_mask(inv),
        "boundary": _boundary_mask(geo) | _boundary_mask(inv),
    }


@dataclass(frozen=True)
class PeVerdict:
    """Outcome of one perfect-entangler test.

    margins holds the signed slack of each inequality (>= 0 inside);
    the verdict is true when every margin clears -PE_TOL.
    """

    is_pe: bool
    route: str
    margins: dict[str, float]

    @property
    def on_boundary(self) -> bool:
        return bool(_boundary_mask(self.margins))


def _verdict(route: str, margins: dict) -> PeVerdict:
    margins = {k: float(v) for k, v in margins.items()}
    return PeVerdict(is_pe=bool(pe_mask(margins)), route=route, margins=margins)


def is_pe_geometric(p: WeylPoint) -> PeVerdict:
    """Geometric perfect-entangler test at a chamber point."""
    if not in_weyl_chamber(p):
        raise ValueError(f"point outside the Weyl chamber: {p}")
    return _verdict("geometric", geometric_margins(p.c1, p.c2, p.c3))


def is_pe_invariant(inv: LocalInvariants) -> PeVerdict:
    """Invariant-only perfect-entangler test."""
    return _verdict("invariant", invariant_margins(abs(inv.g1), inv.g2))


@dataclass(frozen=True)
class GateRecord:
    """Full characterization of one gate or local class."""

    name: str | None
    matrix: np.ndarray
    point: WeylPoint | None
    invariants: LocalInvariants
    ep: float
    pe_verdict: bool
    tags: frozenset[str]
    geometric: PeVerdict | None
    invariant: PeVerdict


def _value_tags(inv: LocalInvariants) -> set[str]:
    tags = set()
    if abs(inv.g1) < 1e-9:
        tags.add("SPE")
    if abs(1.0 - abs(inv.g1)) < 1e-9:
        tags.add("ZERO_EP")
    return tags


def classify_gate(target, name: str | None = None) -> GateRecord:
    """Classify a chamber point or an explicit 4x4 unitary.

    For a WeylPoint the invariants and entangling power come from the
    closed forms and the perfect-entangler verdict is computed by both
    routes; a disagreement away from the boundary raises
    TheoremViolationError. For a matrix only the invariant route applies,
    and ep is the |g1| route; the matrix is checked for unitarity once, here.
    """
    if isinstance(target, WeylPoint):
        point = target
        if not in_weyl_chamber(point):
            raise ValueError(f"point outside the Weyl chamber: {point}")
        cols = _evaluate(*point)
        geo = _verdict("geometric", cols["geo_margins"])
        ivd = _verdict("invariant", cols["inv_margins"])
        if geo.is_pe != ivd.is_pe and not cols["boundary"]:
            raise TheoremViolationError(point, geo.margins, ivd.margins)
        matrix, inv, ep = canonical_gate(point), invariants_at_point(point), float(cols["ep"])
        tags = _value_tags(inv) | edge_tags(point)
    else:
        matrix, point, geo = require_unitary(target), None, None
        inv = _invariants(matrix)
        ivd, ep, tags = is_pe_invariant(inv), ep_from_g1_abs(abs(inv.g1)), _value_tags(inv)
    return GateRecord(
        name=name,
        matrix=matrix,
        point=point,
        invariants=inv,
        ep=ep,
        pe_verdict=(ivd if geo is None else geo).is_pe,
        tags=frozenset(tags),
        geometric=geo,
        invariant=ivd,
    )


@dataclass(frozen=True)
class TheoremReport:
    """Result of the lattice sweep over the chamber.

    Violation lists are expected to stay empty; lattice points with any
    classification margin within PE_TOL of zero are exempted from the
    equality checks and counted in n_boundary_exempt instead.
    """

    grid_n: int
    n_lattice: int
    n_chamber: int
    n_pe: int
    n_boundary_exempt: int
    g2_bound_violations: list[str]
    g2_converse_violations: list[str]
    equivalence_violations: list[str]
    ep_range_violations: list[str]

    @property
    def n_violations(self) -> int:
        return (
            len(self.g2_bound_violations)
            + len(self.g2_converse_violations)
            + len(self.equivalence_violations)
            + len(self.ep_range_violations)
        )

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def verify_theorems(grid_n: int) -> TheoremReport:
    """Sweep a grid_n^3 lattice over the chamber and check both criteria.

    The lattice covers c1 in [0, pi], c2 and c3 in [0, pi/2]; points
    outside the chamber are skipped. At every chamber point four checks
    run: perfect entanglers satisfy -1 <= g2 <= 1; non-perfect entanglers
    with |g1| <= 1/4 have g2 strictly outside (-1, 1); the geometric and
    invariant verdicts coincide; and perfect entanglers have entangling
    power inside [1/6, 2/9]. All comparisons carry the PE_TOL slack.
    grid_n must lie in [2, 256], as for chamber_lattice.
    """
    axes, ijk = _lattice_axes(grid_n)
    cols = _evaluate(*(axis[i] for axis, i in zip(axes, ijk)))
    g1a, g2, ep, boundary = cols["g1_abs"], cols["g2"], cols["ep"], cols["boundary"]
    geo, inv = cols["pe_geometric"], cols["pe_invariant"]
    del cols  # frees the margins and the coordinates: the report reads only the six columns above
    g2_inside = (-1.0 + PE_TOL <= g2) & (g2 <= 1.0 - PE_TOL)
    # repr runs once per axis value; a reported point's WeylPoint repr is put together from its indices
    reprs = [np.array([repr(x) for x in axis.tolist()], dtype=object) for axis in axes]

    def report(template: str, where: np.ndarray, *values: np.ndarray) -> list[str]:
        """template % (*values, c1, c2, c3) at each point where is true, the coordinates as their reprs."""
        rows = np.flatnonzero(where)
        args = [v[rows].tolist() for v in values] + [r[i[rows]].tolist() for r, i in zip(reprs, ijk)]
        return list(map(template.__mod__, zip(*args)))

    at = " at WeylPoint(c1=%s, c2=%s, c3=%s)"
    return TheoremReport(
        grid_n=grid_n,
        n_lattice=grid_n**3,
        n_chamber=ijk.shape[1],
        n_pe=int(np.count_nonzero(geo)),
        n_boundary_exempt=int(np.count_nonzero(boundary)),
        g2_bound_violations=report(
            "perfect entangler with g2 = %r" + at, geo & ((g2 < -1.0 - PE_TOL) | (g2 > 1.0 + PE_TOL)), g2
        ),
        g2_converse_violations=report(
            "non-perfect entangler with g2 = %r" + at, ~boundary & ~geo & (g1a <= 0.25 + PE_TOL) & g2_inside, g2
        ),
        equivalence_violations=report("geometric %s vs invariant %s" + at, ~boundary & (geo != inv), geo, inv),
        ep_range_violations=report(
            "perfect entangler with e_p = %r" + at, geo & ((ep < PE_EP_MIN - PE_TOL) | (ep > EP_MAX + PE_TOL)), ep
        ),
    )
