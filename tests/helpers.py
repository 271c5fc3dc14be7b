"""Shared test utilities."""
from __future__ import annotations

import numpy as np


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
