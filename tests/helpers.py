"""Shared test utilities."""
from __future__ import annotations

import numpy as np

from gatepower.canonical import WeylPoint, chamber_lattice
from gatepower.classify import (
    PE_TOL, geometric_margins, invariant_margins, is_pe_geometric, is_pe_invariant, pe_mask,
)
from gatepower.invariants import LocalInvariants

# the labels of verify_theorems' claims, in print order
THEOREM_CLAIMS = ("g2 bound", "g2 converse", "equivalence", "ep range")


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def dress(u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sandwich a two-qubit gate between random single-qubit unitaries."""
    before = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    after = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    return after @ u @ before


def boundary_exempt_count(grid_n: int) -> int:
    """Chamber-lattice points on a classification boundary, counted one point at a time
    through the scalar API: what verify_theorems reports as n_boundary_exempt."""
    count = 0
    for row in chamber_lattice(grid_n).tolist():
        p = WeylPoint(*row)
        count += is_pe_geometric(p).on_boundary or is_pe_invariant(invariants_closed(p)).on_boundary
    return count


# The closed forms at chamber coordinates, written out here from the formulas over broadcastable
# arrays or floats: the reference for every path of the library that evaluates them. Each square is
# np.square, the correctly rounded product, on arrays and on floats alike.


def g1_closed(c1, c2, c3) -> np.ndarray:
    """Complex g1: real part cos^2 c1 cos^2 c2 cos^2 c3 - sin^2 c1 sin^2 c2 sin^2 c3, imaginary
    part -(1/4) sin 2c1 sin 2c2 sin 2c3."""
    re = np.square(np.cos(c1) * np.cos(c2) * np.cos(c3)) - np.square(np.sin(c1) * np.sin(c2) * np.sin(c3))
    g1 = np.empty(np.shape(re), dtype=complex)
    # set the parts directly: adding 1j * imag would turn an imaginary -0.0 into 0.0
    g1.real, g1.imag = re, -0.25 * np.sin(2 * c1) * np.sin(2 * c2) * np.sin(2 * c3)
    return g1


def g1_abs_closed(c1, c2, c3) -> np.ndarray:
    """|g1| = cos^2 c1 cos^2 c2 cos^2 c3 + sin^2 c1 sin^2 c2 sin^2 c3."""
    return np.square(np.cos(c1) * np.cos(c2) * np.cos(c3)) + np.square(np.sin(c1) * np.sin(c2) * np.sin(c3))


def g2_closed(c1, c2, c3) -> np.ndarray:
    """g2 = cos 2c1 + cos 2c2 + cos 2c3."""
    return np.cos(2 * c1) + np.cos(2 * c2) + np.cos(2 * c3)


def ep_closed(c1, c2, c3) -> np.ndarray:
    """e_p = (1/18)[3 - (cos 2c1 cos 2c2 + cos 2c2 cos 2c3 + cos 2c3 cos 2c1)]."""
    x1, x2, x3 = np.cos(2 * c1), np.cos(2 * c2), np.cos(2 * c3)
    return (3.0 - (x1 * x2 + x2 * x3 + x3 * x1)) / 18.0


def invariants_closed(p) -> LocalInvariants:
    """LocalInvariants of the chamber point p from g1_closed and g2_closed."""
    return LocalInvariants(complex(g1_closed(*p)), float(g2_closed(*p)))


def point_columns(c1, c2, c3) -> dict:
    """The chamber-point columns scan and verify_theorems read, composed from the closed forms
    above on the coordinates themselves: the reference for the lattice path."""
    g1a, g2, ep = g1_abs_closed(c1, c2, c3), g2_closed(c1, c2, c3), ep_closed(c1, c2, c3)
    geo, inv = geometric_margins(c1, c2, c3), invariant_margins(g1a, g2)
    near = [np.abs(m) <= PE_TOL for m in (*geo.values(), *inv.values())]
    return {
        "g1_abs": g1a, "g2": g2, "ep": ep,
        "geo_margins": geo, "inv_margins": inv,
        "pe_geometric": pe_mask(geo), "pe_invariant": pe_mask(inv),
        "boundary": np.logical_or.reduce(near),
    }
