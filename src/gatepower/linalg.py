"""Dense complex linear algebra at the fixed sizes used for two-qubit gates.

All matrices and state vectors are plain numpy ``complex128`` arrays:
2x2 and 4x4 for single- and two-qubit operators, 16x16 for two-copy
operators, length 2/4 for states.
"""
from __future__ import annotations

from typing import Literal

import numpy as np

from .errors import NonUnitaryError

__all__ = [
    "INGEST_UNITARY_TOL",
    "SWAP",
    "hs_inner",
    "kron",
    "partial_trace",
    "transposition_13",
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


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor on the high-order index bits."""
    return np.kron(_as_complex(a), _as_complex(b))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(a† b)."""
    return complex(np.vdot(_as_complex(a), _as_complex(b)))


def transposition_13() -> np.ndarray:
    """Permutation on four qubits exchanging qubits 1 and 3.

    Basis states are indexed a*8 + b*4 + c*2 + d for qubits (a, b, c, d);
    the operator maps |a,b,c,d> to |c,b,a,d>. It is real, symmetric and
    an involution.
    """
    t = np.zeros((16, 16), dtype=complex)
    for idx in range(16):
        a = (idx >> 3) & 1
        b = (idx >> 2) & 1
        c = (idx >> 1) & 1
        d = idx & 1
        t[(c << 3) | (b << 2) | (a << 1) | d, idx] = 1.0
    return t


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

