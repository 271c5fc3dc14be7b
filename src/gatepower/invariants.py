"""Local invariants (g1, g2) of two-qubit gates.

A pair of gates is equivalent up to single-qubit operations exactly when
their invariants match. Both a closed form in chamber coordinates and a
direct matrix route are provided; they agree on canonical gates.

Closed forms at a chamber point (c1, c2, c3):

    |g1| = cos^2 c1 cos^2 c2 cos^2 c3 + sin^2 c1 sin^2 c2 sin^2 c3
    g2   = cos 2c1 + cos 2c2 + cos 2c3

Each closed form is written once over per-coordinate trig values: |g1|
from cos c_i and sin c_i, g2 (like the closed-form entangling power in
epower) from x_i = cos 2c_i. The coordinate forms g1_abs_array,
g1_complex_array, g2_array and g2_product_array compute that trig from
the coordinates they are given; a chamber lattice, which has grid_n values
per axis, gathers it from per-axis tables instead (see classify).

The matrix route conjugates the gate into the magic (Bell) basis, where
local gates become real orthogonal: with u_m = Q† u Q and m = u_mᵀ u_m,

    g1 = tr^2(m) / (16 det u)
    g2 = (tr^2(m) - tr(m^2)) / (4 det u)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import WeylPoint
from .errors import ConsistencyError
from .linalg import require_unitary

__all__ = [
    "G2_IMAG_TOL",
    "MAGIC_BASIS",
    "LocalInvariants",
    "g1_abs_array",
    "g1_complex_array",
    "g2_array",
    "g2_product_array",
    "invariants_at_point",
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
    # ** 2, not p * p: on floats and numpy scalars it is libm pow, which rounds about 1 square in 1000
    # to the other neighbour, and that changed the analyze --point --json bytes of 24 in 23768 points
    return (t1 * t2 * t3) ** 2


def _g1_abs_trig(cos, sin) -> np.ndarray:
    """|g1| from the cosines and from the sines of c1, c2, c3."""
    return _squared_product(cos) + _squared_product(sin)


def _g2_trig(x) -> np.ndarray:
    """g2 from the iterable x of cos 2c1, cos 2c2, cos 2c3."""
    x1, x2, x3 = x
    return x1 + x2 + x3


def g1_abs_array(c1, c2, c3) -> np.ndarray:
    """Elementwise |g1| over broadcastable coordinate arrays."""
    c = (c1, c2, c3)
    return _g1_abs_trig(map(np.cos, c), map(np.sin, c))


def _g1_parts_trig(cos, sin, sin2) -> tuple:
    """The real and imaginary parts of g1 from the cosines, the sines and the sin 2c of c1, c2, c3."""
    s1, s2, s3 = sin2
    return _squared_product(cos) - _squared_product(sin), -0.25 * s1 * s2 * s3


def g1_complex_array(c1, c2, c3) -> np.ndarray:
    """Elementwise complex g1 over broadcastable coordinate arrays.

    The real part is cos^2 c1 cos^2 c2 cos^2 c3 - sin^2 c1 sin^2 c2 sin^2 c3
    and the imaginary part -(1/4) sin 2c1 sin 2c2 sin 2c3, matching the
    magic-basis matrix route on canonical gates; its modulus is |g1|.
    """
    c = (c1, c2, c3)
    re, im = _g1_parts_trig(map(np.cos, c), map(np.sin, c), map(_sin2, c))
    g1 = np.empty(np.shape(re), dtype=complex)
    # set the parts directly: adding 1j * imag would turn an imaginary -0.0 into 0.0
    g1.real, g1.imag = re, im
    return g1


def g2_array(c1, c2, c3) -> np.ndarray:
    """Elementwise g2 over broadcastable coordinate arrays, as a sum of cosines."""
    return _g2_trig(map(_cos2, (c1, c2, c3)))


def g2_product_array(c1, c2, c3) -> np.ndarray:
    """Elementwise g2 via the algebraically equivalent product form.

    4 cos^2 c1 cos^2 c2 cos^2 c3 - 4 sin^2 c1 sin^2 c2 sin^2 c3
    - cos 2c1 cos 2c2 cos 2c3. Kept separate so tests can compare the
    two expressions rather than assume the identity.
    """
    c = (c1, c2, c3)
    a, b = _squared_product(map(np.cos, c)), _squared_product(map(np.sin, c))
    return 4 * a - 4 * b - np.cos(2 * c1) * np.cos(2 * c2) * np.cos(2 * c3)


def invariants_at_point(p: WeylPoint) -> LocalInvariants:
    """Invariants of the local class at a chamber point, via closed forms."""
    return LocalInvariants(complex(g1_complex_array(*p)), float(g2_array(*p)))


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
