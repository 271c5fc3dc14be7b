"""SWAP, the one-qubit partial trace and unitarity checks for two-qubit gates.

All matrices and state vectors are plain numpy ``complex128`` arrays:
2x2 and 4x4 for single- and two-qubit operators, length 2/4 for states.
"""
from __future__ import annotations

from typing import Literal

import numpy as np

from .errors import NonUnitaryError

__all__ = [
    "INGEST_UNITARY_TOL",
    "SWAP",
    "partial_trace",
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


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def partial_trace(psi, subsystem: Literal["A", "B"]) -> np.ndarray:
    """Reduced density matrix of one qubit of a two-qubit pure state.

    Args:
        psi: length-4 state vector, basis index = 2*i_A + i_B.
        subsystem: "A" keeps the first qubit, "B" the second.
    """
    v = _as_complex(psi).reshape(4)
    m = v.reshape(2, 2)
    if subsystem == "A":
        return m @ m.conj().T
    if subsystem == "B":
        return m.T @ m.conj()
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def unitarity_defect(u) -> float:
    """Max-norm of u†u - I."""
    m = _as_complex(u)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def require_unitary(u, tol: float = INGEST_UNITARY_TOL) -> np.ndarray:
    """Return u as complex128, raising NonUnitaryError beyond tol."""
    m = _as_complex(u)
    defect = unitarity_defect(m)
    if defect > tol:
        raise NonUnitaryError(defect, tol)
    return m

