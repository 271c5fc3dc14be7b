"""SWAP and 4x4 unitarity checks for two-qubit gates.

All matrices are plain numpy ``complex128`` arrays.
"""
from __future__ import annotations

import numpy as np

from .errors import NonUnitaryError

__all__ = [
    "INGEST_UNITARY_TOL",
    "SWAP",
    "unitarity_defect",
    "require_unitary",
]

# Matrices ingested from files may carry rounded decimals.
INGEST_UNITARY_TOL = 1e-8

SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def unitarity_defect(u) -> float:
    """Max-norm of u†u - I: nan or inf, without a warning, when an entry is not finite or overflows."""
    m = np.asarray(u, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(all="ignore"):
        d = m.conj().T @ m
        # u†u - I in place: the product is C-contiguous, so ravel is a view and every (n+1)-th entry is diagonal
        d.ravel()[:: m.shape[0] + 1] -= 1.0
        return float(np.abs(d).max())


def require_unitary(u) -> np.ndarray:
    """Return the 4x4 matrix u as complex128, raising NonUnitaryError unless its defect is within INGEST_UNITARY_TOL."""
    m = np.asarray(u, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    defect = unitarity_defect(m)
    if not defect <= INGEST_UNITARY_TOL:  # a nan defect fails too
        raise NonUnitaryError(defect, INGEST_UNITARY_TOL)
    return m
