"""Local invariants (g1, g2) of two-qubit gates.

A pair of gates is equivalent up to single-qubit operations exactly when
their invariants match. The closed forms in chamber coordinates and the
direct matrix route agree on canonical gates.

Closed forms at a chamber point (c1, c2, c3):

    |g1| = cos^2 c1 cos^2 c2 cos^2 c3 + sin^2 c1 sin^2 c2 sin^2 c3
    g2   = cos 2c1 + cos 2c2 + cos 2c3

classify evaluates them, with the closed-form entangling power, in its
one chamber-point evaluator; a point's invariants are
classify_gate(p).invariants. This module keeps two routes independent of
that evaluator: g2_product_array, the product form of g2 that
verify_route_agreement checks the sum against, and the matrix route.

The matrix route conjugates the gate into the magic (Bell) basis, where
local gates become real orthogonal: with u_m = Q† u Q and m = u_mᵀ u_m,

    g1 = tr^2(m) / (16 det u)
    g2 = (tr^2(m) - tr(m^2)) / (4 det u)

require_unitary's INGEST_UNITARY_TOL is the only precision check on a matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import require_unitary

__all__ = [
    "MAGIC_BASIS",
    "LocalInvariants",
    "g2_product_array",
    "invariants_from_matrix",
]

_RANGE_TOL = 1e-9

#: Columns are the magic-basis (Bell-like) states expressed in the
#: computational basis.
MAGIC_BASIS = (1.0 / math.sqrt(2)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)
_MAGIC_BASIS_H = MAGIC_BASIS.conj().T


@dataclass(frozen=True)
class LocalInvariants:
    """Invariant pair of a local-equivalence class.

    g1 is complex with |g1| <= 1; g2 is real in [-3, 3].
    """

    g1: complex
    g2: float

    def __post_init__(self):
        if not (math.isfinite(self.g1.real) and math.isfinite(self.g1.imag)):
            raise ValueError(f"g1 must be finite, got {self.g1!r}")
        if not math.isfinite(self.g2):
            raise ValueError(f"g2 must be finite, got {self.g2!r}")
        if abs(self.g1) > 1.0 + _RANGE_TOL:
            raise ValueError(f"|g1| = {abs(self.g1)!r} exceeds 1")
        if abs(self.g2) > 3.0 + _RANGE_TOL:
            raise ValueError(f"g2 = {self.g2!r} lies outside [-3, 3]")


def g2_product_array(c1, c2, c3) -> np.ndarray:
    """Elementwise g2 via the algebraically equivalent product form.

    4 cos^2 c1 cos^2 c2 cos^2 c3 - 4 sin^2 c1 sin^2 c2 sin^2 c3
    - cos 2c1 cos 2c2 cos 2c3. Kept separate so tests can compare the
    two expressions rather than assume the identity; it shares no helper
    with classify's evaluator.
    """
    a, b = (f(c1) * f(c2) * f(c3) for f in (np.cos, np.sin))
    return 4 * (a * a) - 4 * (b * b) - np.cos(2 * c1) * np.cos(2 * c2) * np.cos(2 * c3)


def _invariants(m4: np.ndarray) -> LocalInvariants:
    """Invariants of a 4x4 unitary the caller has already checked."""
    um = _MAGIC_BASIS_H @ m4 @ MAGIC_BASIS
    m = um.T @ um
    det = complex(np.linalg.det(um))
    tr = complex(m.trace())
    g1 = tr * tr / (16.0 * det)
    g2 = (tr * tr - complex((m @ m).trace())) / (4.0 * det)
    return LocalInvariants(g1, g2.real)  # g2 is real on a unitary: Im g2 is at most about 3x the defect


def invariants_from_matrix(u) -> LocalInvariants:
    """Invariants computed directly from a 4x4 unitary.

    Normalizing by the determinant makes the result insensitive to global
    phase, so inputs need not have unit determinant.
    """
    return _invariants(require_unitary(u))
