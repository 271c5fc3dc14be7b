"""Local invariants (g1, g2) of two-qubit gates.

A pair of gates is equivalent up to single-qubit operations exactly when
their invariants match. Both a closed form in chamber coordinates and a
direct matrix route are provided; they agree on canonical gates.

Closed forms at a chamber point (c1, c2, c3):

    |g1| = cos^2 c1 cos^2 c2 cos^2 c3 + sin^2 c1 sin^2 c2 sin^2 c3
    g2   = cos 2c1 + cos 2c2 + cos 2c3

Each closed form is written once over per-coordinate trig values: |g1|
from cos c_i and sin c_i, g2 (like the closed-form entangling power in
epower) from x_i = cos 2c_i. They are the same arithmetic on Python
floats, numpy scalars and arrays, so a point's values have the same bits
however it is evaluated. classify evaluates them, at a point through
classify_gate(p).invariants and over arrays and lattices through its one
evaluator; g2_product_array is the independent product form of g2 that
verify_route_agreement checks the sum against.

The matrix route conjugates the gate into the magic (Bell) basis, where
local gates become real orthogonal: with u_m = Q† u Q and m = u_mᵀ u_m,

    g1 = tr^2(m) / (16 det u)
    g2 = (tr^2(m) - tr(m^2)) / (4 det u)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .linalg import require_unitary

__all__ = [
    "G2_IMAG_TOL",
    "MAGIC_BASIS",
    "LocalInvariants",
    "g2_product_array",
    "invariants_from_matrix",
]

# Imaginary residue on g2 below this is attributed to floating point;
# above it the input is flagged as inconsistent instead of truncated.
G2_IMAG_TOL = 1e-9

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


def _cos2(c):
    """cos 2c elementwise, the per-coordinate value g2 and the closed-form e_p are written in."""
    return np.cos(2 * c)


def _sin2(c):
    """sin 2c elementwise, the per-coordinate value of the imaginary part of g1."""
    return np.sin(2 * c)


def _squared_product(t) -> np.ndarray:
    """(t1 t2 t3)^2 elementwise, for t an iterable of three arrays: with the cosines, then the
    sines of c1, c2, c3, the two terms of |g1|."""
    t1, t2, t3 = t
    p = t1 * t2 * t3
    # p * p, not p ** 2: the product is correctly rounded on floats, numpy scalars and arrays alike,
    # where ** 2 is libm pow on the first two, which rounds about 1 square in 1000 the other way
    return p * p


def _g1_abs_trig(cos, sin) -> np.ndarray:
    """|g1| from the cosines and from the sines of c1, c2, c3."""
    return _squared_product(cos) + _squared_product(sin)


def _g2_trig(x) -> np.ndarray:
    """g2 from the iterable x of cos 2c1, cos 2c2, cos 2c3."""
    x1, x2, x3 = x
    return x1 + x2 + x3


def _g1_parts_trig(cos, sin, sin2) -> tuple:
    """The real and imaginary parts of g1 from the cosines, the sines and the sin 2c of c1, c2, c3.

    The real part is cos^2 c1 cos^2 c2 cos^2 c3 - sin^2 c1 sin^2 c2 sin^2 c3
    and the imaginary part -(1/4) sin 2c1 sin 2c2 sin 2c3, matching the
    magic-basis matrix route on canonical gates; the modulus is |g1|.
    """
    s1, s2, s3 = sin2
    return _squared_product(cos) - _squared_product(sin), -0.25 * s1 * s2 * s3


def g2_product_array(c1, c2, c3) -> np.ndarray:
    """Elementwise g2 via the algebraically equivalent product form.

    4 cos^2 c1 cos^2 c2 cos^2 c3 - 4 sin^2 c1 sin^2 c2 sin^2 c3
    - cos 2c1 cos 2c2 cos 2c3. Kept separate so tests can compare the
    two expressions rather than assume the identity.
    """
    c = (c1, c2, c3)
    a, b = _squared_product(map(np.cos, c)), _squared_product(map(np.sin, c))
    return 4 * a - 4 * b - np.cos(2 * c1) * np.cos(2 * c2) * np.cos(2 * c3)


def _invariants(m4: np.ndarray) -> LocalInvariants:
    """Invariants of a 4x4 unitary the caller has already checked."""
    um = _MAGIC_BASIS_H @ m4 @ MAGIC_BASIS
    m = um.T @ um
    det = complex(np.linalg.det(um))
    tr = complex(np.trace(m))
    g1 = tr * tr / (16.0 * det)
    g2 = (tr * tr - complex(np.trace(m @ m))) / (4.0 * det)
    if abs(g2.imag) >= G2_IMAG_TOL:
        raise ConsistencyError(
            f"g2 should be real, got imaginary residue {g2.imag:.3e} (>= {G2_IMAG_TOL:.1e})"
        )
    return LocalInvariants(g1, g2.real)


def invariants_from_matrix(u) -> LocalInvariants:
    """Invariants computed directly from a 4x4 unitary.

    Normalizing by the determinant makes the result insensitive to global
    phase, so inputs need not have unit determinant.
    """
    return _invariants(require_unitary(u))
