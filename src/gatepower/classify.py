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
``verify_route_agreement`` compares the independent e_p and g2 routes on
random chamber points.

One evaluator, ``_evaluate``, gives the values every point-set reader
shares: |g1|, g2 and e_p from the closed forms, written there and
nowhere else, over per-coordinate trig values (|g1| from cos c_i and
sin c_i, g2 and e_p from one shared cos 2c_i), and both tests' margins,
from which each reader forms the verdicts it reads. ``scan --edge`` and
verify_route_agreement compute the trig from the coordinate arrays.
classify_gate computes it as Python floats, one numpy call per trig
function over the point's three coordinates (``_point_columns``, which
also forms the complex g1 from the same trig and sin 2c_i), so the
closed forms and both tests' margins are float arithmetic. The closed
forms and the margins are the same operations on floats and on arrays,
so a point's columns have the values of that point in any array; the
invariants and entangling power of one point are
classify_gate(p).invariants and .ep.
``_lattice_blocks``, which ``verify_theorems`` and ``scan --chamber``
read, evaluates a lattice in blocks of chamber points, each gathering by
axis index the cos c, sin c and cos 2c computed once per lattice axis
value.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .canonical import (
    WeylPoint,
    _HALF_PI,
    _chamber_coord_passes,
    _lattice_axes,
    _sort_desc,
    canonical_gate,
    canonical_gate_array,
    edge_tags,
    in_weyl_chamber,
)
from .epower import EP_MAX, _ep_operator, ep_from_g1_abs
from .invariants import LocalInvariants, _invariants, g2_product_array
from .linalg import require_unitary

__all__ = [
    "PE_EP_MIN",
    "PE_TOL",
    "GateRecord",
    "PeVerdict",
    "RouteAgreementReport",
    "TheoremReport",
    "classify_gate",
    "geometric_margins",
    "invariant_margins",
    "is_pe_geometric",
    "is_pe_invariant",
    "pe_mask",
    "verify_route_agreement",
    "verify_theorems",
]

# slack on every perfect-entangler inequality; margins within this of zero
# mark a boundary case
PE_TOL = 1e-9

PE_EP_MIN = 1.0 / 6.0

# chamber points verify_theorems evaluates at a time: one block up to grid 72 (62196 points)
_THEOREM_BLOCK = 1 << 16
# verify_route_agreement holds one sampler pass at a time, so its memory does not grow with n_points;
# the cap bounds run time: verify routes --n 1000000 took 4.8-4.9 s and peaked at 54 MB ru_maxrss in a
# fresh process on a 2-core host
_ROUTE_POINTS_MAX = 1_000_000


def geometric_margins(c1, c2, c3) -> dict[str, np.ndarray]:
    """Elementwise signed slacks of the geometric test (>= 0 inside); floats on three floats.

    Points are first folded into the half-chamber c1 <= pi/2: (min(c1, pi - c1), c2, c3)
    re-sorted is the point itself there and its mirror image where c1 > pi/2.
    """
    # on floats, builtin min and max run the network in a fifth of numpy's time for one point; where they
    # select the other zero of a +-0 tie the margins absorb its sign, but they drop a nan numpy would keep
    floats = type(c1) is type(c2) is type(c3) is float and not math.isnan(c1 + c2 + c3)
    lower, upper = (min, max) if floats else (np.minimum, np.maximum)
    q1, q2, q3 = _sort_desc(lower(c1, math.pi - c1), c2, c3, lower, upper)
    return {
        "c1_plus_c2": q1 + q2 - _HALF_PI,
        "c2_plus_c3": _HALF_PI - (q2 + q3),
    }


def invariant_margins(g1_abs, g2) -> dict:
    """Elementwise signed slacks of the invariant-box test (>= 0 inside)."""
    return {"g1_abs": 0.25 - g1_abs, "g2_low": g2 + 1.0, "g2_high": 1.0 - g2}


def pe_mask(margins: dict) -> np.ndarray:
    """True where every margin clears -PE_TOL; a bool on float margins."""
    return functools.reduce(operator.and_, [m >= -PE_TOL for m in margins.values()])


def _boundary_mask(margins: dict) -> np.ndarray:
    """True where some margin lies within PE_TOL of zero; a bool on float margins."""
    return functools.reduce(operator.or_, [abs(m) <= PE_TOL for m in margins.values()])


def _cos2(c):
    """cos 2c elementwise, the per-coordinate value g2 and the closed-form e_p are written in."""
    return np.cos(2 * c)


def _sin2(c):
    """sin 2c elementwise, the per-coordinate value of the imaginary part of g1."""
    return np.sin(2 * c)


def _squared_product(t) -> np.ndarray:
    """(t1 t2 t3)^2 elementwise, for t an iterable of three arrays: with the cosines, then the
    sines of c1, c2, c3, the two terms of |g1| and of the real part of g1."""
    t1, t2, t3 = t
    p = t1 * t2 * t3
    # p * p, not p ** 2: the product is correctly rounded on floats, numpy scalars and arrays alike,
    # where ** 2 is libm pow on the first two, which rounds about 1 square in 1000 the other way
    return p * p


def _evaluate(coords, trig=None) -> dict:
    """The chamber-point values that scan, verify_theorems, verify_route_agreement and classify_gate share.

    coords is the broadcastable coordinate arrays c1, c2, c3, or three floats. trig(f) returns f(c1),
    f(c2), f(c3) for f = np.cos, np.sin and _cos2; by default it applies f to coords. Columns: g1_abs,
    g2 and ep, and the signed margins of both tests; each reader forms the verdicts it reads from
    those margins with pe_mask and _boundary_mask.
    """
    # trig is a callback, not nine arrays, so the cosines are freed before the sines are computed, and both
    # before the margins are built; passing them eagerly raised the sweep workload's peak RSS by 1.1-1.3 MB
    # on a 2-core host
    if trig is None:
        def trig(f):
            return [f(c) for c in coords]
    x1, x2, x3 = trig(_cos2)  # g2 and ep share one cos 2c per coordinate
    # |g1| = cos^2 c1 cos^2 c2 cos^2 c3 + sin^2 c1 sin^2 c2 sin^2 c3, g2 = x1 + x2 + x3 and
    # e_p = (1/18)[3 - (x1 x2 + x2 x3 + x3 x1)], with x_i = cos 2c_i
    g1a = _squared_product(trig(np.cos)) + _squared_product(trig(np.sin))
    g2, ep = x1 + x2 + x3, (3.0 - (x1 * x2 + x2 * x3 + x3 * x1)) / 18.0
    return {
        "g1_abs": g1a, "g2": g2, "ep": ep,
        "geo_margins": geometric_margins(*coords), "inv_margins": invariant_margins(g1a, g2),
    }


def _point_columns(p: WeylPoint) -> tuple[dict, complex]:
    """_evaluate at one point, and its complex g1, from the point's trig as Python floats: the values
    at the three coordinates, from one numpy call each for cos, sin, cos 2c and sin 2c.

    g1 = cos^2 c1 cos^2 c2 cos^2 c3 - sin^2 c1 sin^2 c2 sin^2 c3 - (i/4) sin 2c1 sin 2c2 sin 2c3,
    which matches the magic-basis matrix route on canonical gates; its modulus is |g1|.
    """
    coords = tuple(p)
    c = np.array(coords)
    trig = {f: f(c).tolist() for f in (np.cos, np.sin, _cos2, _sin2)}
    s1, s2, s3 = trig[_sin2]
    g1 = complex(_squared_product(trig[np.cos]) - _squared_product(trig[np.sin]), -0.25 * s1 * s2 * s3)
    return _evaluate(coords, trig.__getitem__), g1


def _lattice_blocks(grid_n: int, rows: int):
    """The axes of the grid_n lattice (see _lattice_axes), checked here, and a generator of its blocks.

    Each block is at most rows chamber points, in lattice order: it yields their (3, k) axis
    indices and _evaluate's columns there, from trig tables computed once per axis value.
    """
    axes, ijk = _lattice_axes(grid_n)
    tables = [{f: f(axis) for f in (np.cos, np.sin, _cos2)} for axis in axes]

    def blocks():
        for lo in range(0, ijk.shape[1], rows):
            b = ijk[:, lo:lo + rows]
            coords = [axis.take(i) for axis, i in zip(axes, b)]
            yield b, _evaluate(coords, lambda f: [t[f].take(i) for t, i in zip(tables, b)])

    return axes, blocks()


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
    """The PeVerdict of margins, as floats."""
    margins = {k: float(v) for k, v in margins.items()}
    return PeVerdict(is_pe=pe_mask(margins), route=route, margins=margins)


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
    """SPE where |g1| is within 1e-9 of 0 (a special perfect entangler), ZERO_EP where it is within 1e-9 of 1."""
    g1_abs = abs(inv.g1)
    return {tag for tag, value in (("SPE", 0.0), ("ZERO_EP", 1.0)) if abs(g1_abs - value) < 1e-9}


def classify_gate(target, name: str | None = None) -> GateRecord:
    """Classify a chamber point or an explicit 4x4 unitary.

    For a WeylPoint the invariants and entangling power come from the
    closed forms, both perfect-entangler routes are recorded and the verdict
    is the exact geometric one; in a thin sliver off the boundary the
    invariant box over-admits, and there invariant.is_pe reads True while
    pe_verdict is False. For a matrix only the invariant route applies,
    and ep is the |g1| route; the matrix is checked for unitarity once, here.
    """
    if isinstance(target, WeylPoint):
        point = target
        if not in_weyl_chamber(point):
            raise ValueError(f"point outside the Weyl chamber: {point}")
        cols, g1 = _point_columns(point)
        geo, ivd = _verdict("geometric", cols["geo_margins"]), _verdict("invariant", cols["inv_margins"])
        inv = LocalInvariants(g1, cols["g2"])
        matrix, ep = canonical_gate(point), cols["ep"]
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

    violations maps each claim's label, in print order, to its violation lines, which are
    expected to stay empty; lattice points with any classification margin within PE_TOL of
    zero are exempted from the equality checks and counted in n_boundary_exempt instead.
    """

    grid_n: int
    n_lattice: int
    n_chamber: int
    n_pe: int
    n_boundary_exempt: int
    violations: dict[str, list[str]]

    @property
    def n_violations(self) -> int:
        return sum(map(len, self.violations.values()))

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def verify_theorems(grid_n: int) -> TheoremReport:
    """Sweep a grid_n^3 lattice over the chamber and check both criteria.

    The lattice covers c1 in [0, pi], c2 and c3 in [0, pi/2]; points
    outside the chamber are skipped. At every chamber point four checks
    run, reported in this order: perfect entanglers satisfy -1 <= g2 <= 1
    ("g2 bound"); non-perfect entanglers with |g1| <= 1/4 have g2 strictly
    outside (-1, 1) ("g2 converse"); the geometric and invariant verdicts
    coincide ("equivalence"); and perfect entanglers have entangling power
    inside [1/6, 2/9] ("ep range"). All comparisons carry the PE_TOL slack.
    The points are those of chamber_lattice(grid_n), in its order, read as the axis indices of
    _lattice_axes, so grid_n must lie in [2, 256]. They are evaluated _THEOREM_BLOCK at a time.
    """
    axes, blocks = _lattice_blocks(grid_n, _THEOREM_BLOCK)
    # repr runs once per axis value; a reported point's WeylPoint repr is put together from its indices
    reprs = [np.array([repr(x) for x in axis.tolist()], dtype=object) for axis in axes]
    at = " at WeylPoint(c1=%s, c2=%s, c3=%s)"

    def report(template: str, where: np.ndarray, *values: np.ndarray) -> list[str]:
        """template % (*values, c1, c2, c3) at each point of block ijk where is true, coordinates as reprs."""
        rows = np.flatnonzero(where)
        args = [v[rows].tolist() for v in values] + [r[i[rows]].tolist() for r, i in zip(reprs, ijk)]
        return list(map(template.__mod__, zip(*args)))

    n_chamber = n_pe = n_boundary_exempt = 0
    violations: dict[str, list[str]] = {}
    for ijk, cols in blocks:
        g1a, g2, ep = cols["g1_abs"], cols["g2"], cols["ep"]
        geo_m, inv_m = cols["geo_margins"], cols["inv_margins"]
        geo, inv, boundary = pe_mask(geo_m), pe_mask(inv_m), _boundary_mask(geo_m) | _boundary_mask(inv_m)
        g2_inside = (-1.0 + PE_TOL <= g2) & (g2 <= 1.0 - PE_TOL)
        n_chamber += ijk.shape[1]
        n_pe += int(np.count_nonzero(geo))
        n_boundary_exempt += int(np.count_nonzero(boundary))
        for label, lines in {
            "g2 bound": report(
                "perfect entangler with g2 = %r" + at, geo & ((g2 < -1.0 - PE_TOL) | (g2 > 1.0 + PE_TOL)), g2
            ),
            "g2 converse": report(
                "non-perfect entangler with g2 = %r" + at, ~boundary & ~geo & (g1a <= 0.25 + PE_TOL) & g2_inside, g2
            ),
            "equivalence": report("geometric %s vs invariant %s" + at, ~boundary & (geo != inv), geo, inv),
            "ep range": report(
                "perfect entangler with e_p = %r" + at, geo & ((ep < PE_EP_MIN - PE_TOL) | (ep > EP_MAX + PE_TOL)), ep
            ),
        }.items():
            violations.setdefault(label, []).extend(lines)
    return TheoremReport(grid_n, grid_n**3, n_chamber, n_pe, n_boundary_exempt, violations)


@dataclass(frozen=True)
class RouteAgreementReport:
    """Largest discrepancies between independent e_p and g2 routes."""

    n_points: int
    seed: int
    max_closed_vs_g1: float
    max_closed_vs_operator: float
    max_g2_forms: float
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_route_agreement(n_points: int, seed: int) -> RouteAgreementReport:
    """Compare all e_p routes and both g2 forms on n_points random chamber points, 1 to 1_000_000."""
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if n_points > _ROUTE_POINTS_MAX:
        raise ValueError(f"n_points must be at most {_ROUTE_POINTS_MAX}, got {n_points}")
    maxima = [0.0, 0.0, 0.0]
    violations = []
    # one sampler pass at a time, so peak memory holds one pass's gate stack; maxima and point order are unchanged
    for pts in _chamber_coord_passes(seed, n_points):
        c = pts.T
        cols = _evaluate(c)  # the closed form, |g1| and g2, as every other point path reads them
        d_g1 = np.abs(cols["ep"] - ep_from_g1_abs(cols["g1_abs"]))
        d_op = np.abs(cols["ep"] - _ep_operator(canonical_gate_array(*c)))
        d_g2 = np.abs(cols["g2"] - g2_product_array(*c))
        checks = [("closed vs |g1| route", d_g1, 1e-12), ("closed vs operator route", d_op, 1e-10), ("g2 forms", d_g2, 1e-12)]
        maxima = [max(m, float(diffs.max())) for m, (_, diffs, _) in zip(maxima, checks)]
        bad = np.logical_or.reduce([diffs > tol for _, diffs, tol in checks])
        violations += [
            f"{label}: {diffs[i]:.3e} at {WeylPoint(*pts[i].tolist())}"
            for i in np.flatnonzero(bad) for label, diffs, tol in checks if diffs[i] > tol
        ]
    return RouteAgreementReport(n_points, seed, *maxima, tuple(violations))
