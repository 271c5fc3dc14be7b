"""Shared test utilities."""
from __future__ import annotations

import numpy as np

from gatepower.canonical import WeylPoint, chamber_lattice
from gatepower.classify import is_pe_geometric, is_pe_invariant
from gatepower.invariants import invariants_at_point


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
