import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gatepower.errors import NonUnitaryError
from gatepower.linalg import (
    SWAP,
    partial_trace,
    require_unitary,
    unitarity_defect,
)
from helpers import random_state

KET = np.eye(4, dtype=complex)


def test_swap_permutes_basis():
    assert_allclose(SWAP @ KET[1], KET[2])
    assert_allclose(SWAP @ KET[2], KET[1])
    assert_allclose(SWAP @ KET[0], KET[0])
    assert_allclose(SWAP @ KET[3], KET[3])


def test_partial_trace_product_state():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    zero = np.array([1, 0], dtype=complex)
    psi = np.kron(plus, zero)
    assert_allclose(partial_trace(psi, "A"), np.outer(plus, plus.conj()), atol=1e-15)
    assert_allclose(partial_trace(psi, "B"), np.outer(zero, zero.conj()), atol=1e-15)


def test_partial_trace_schmidt_weights():
    psi = np.array([np.sqrt(1 / 3), 0, 0, np.sqrt(2 / 3)], dtype=complex)
    assert_allclose(partial_trace(psi, "A"), np.diag([1 / 3, 2 / 3]), atol=1e-15)
    assert_allclose(partial_trace(psi, "B"), np.diag([1 / 3, 2 / 3]), atol=1e-15)


def test_partial_trace_bell_state():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    for side in ("A", "B"):
        assert_allclose(partial_trace(bell, side), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_rejects_bad_subsystem():
    with pytest.raises(ValueError):
        partial_trace(np.array([1, 0, 0, 0]), "C")


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_partial_trace_is_density_matrix(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(4, rng)
    for side in ("A", "B"):
        rho = partial_trace(psi, side)
        assert_allclose(rho, rho.conj().T, atol=1e-14)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.all(np.linalg.eigvalsh(rho) > -1e-12)
    # both reductions share the same spectrum for a pure state
    ev_a = np.sort(np.linalg.eigvalsh(partial_trace(psi, "A")))
    ev_b = np.sort(np.linalg.eigvalsh(partial_trace(psi, "B")))
    assert_allclose(ev_a, ev_b, atol=1e-12)


def test_unitarity_defect_and_require():
    assert unitarity_defect(np.eye(4)) == 0
    near = np.diag([1.0, 1.0, 1.0, 1.0 + 3e-9])
    # defect approx 6e-9, inside the ingestion tolerance
    assert require_unitary(near) is not None
    bad = np.diag([1.0, 1.0, 1.0, 1.0 + 1e-4])
    with pytest.raises(NonUnitaryError) as err:
        require_unitary(bad)
    assert err.value.defect == pytest.approx(2e-4, rel=1e-3)
    assert err.value.tol == 1e-8
