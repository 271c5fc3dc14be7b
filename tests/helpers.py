"""Shared test utilities."""
from __future__ import annotations

import numpy as np

from gatepower.canonical import WeylPoint, chamber_lattice
from gatepower.classify import (
    PE_TOL, geometric_margins, invariant_margins, is_pe_geometric, is_pe_invariant, pe_mask,
)
from gatepower.epower import ep_closed_array
from gatepower.invariants import g1_abs_array, g2_array, invariants_at_point

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
        count += is_pe_geometric(p).on_boundary or is_pe_invariant(invariants_at_point(p)).on_boundary
    return count


def point_columns(c1, c2, c3) -> dict:
    """The chamber-point columns scan and verify_theorems read, composed from the public
    coordinate forms on the coordinates themselves: the reference for the lattice path."""
    g1a, g2, ep = g1_abs_array(c1, c2, c3), g2_array(c1, c2, c3), ep_closed_array(c1, c2, c3)
    geo, inv = geometric_margins(c1, c2, c3), invariant_margins(g1a, g2)
    near = [np.abs(m) <= PE_TOL for m in (*geo.values(), *inv.values())]
    return {
        "g1_abs": g1a, "g2": g2, "ep": ep,
        "geo_margins": geo, "inv_margins": inv,
        "pe_geometric": pe_mask(geo), "pe_invariant": pe_mask(inv),
        "boundary": np.logical_or.reduce(near),
    }
