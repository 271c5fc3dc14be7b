import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gatepower.errors import NonUnitaryError
from gatepower.linalg import (
    SWAP,
    hs_inner,
    kron,
    partial_trace,
    require_unitary,
    transposition_13,
    unitarity_defect,
)
from helpers import haar_unitary, random_state

KET = np.eye(4, dtype=complex)


def test_swap_permutes_basis():
    assert_allclose(SWAP @ KET[1], KET[2])
    assert_allclose(SWAP @ KET[2], KET[1])
    assert_allclose(SWAP @ KET[0], KET[0])
    assert_allclose(SWAP @ KET[3], KET[3])


def test_kron_block_structure():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    k = kron(np.eye(2), x)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 1
    assert_allclose(k, expected)


def test_kron_mixed_product_property():
    # (A1 A2) (x) (B1 B2) = (A1 (x) B1)(A2 (x) B2)
    rng = np.random.default_rng(11)
    for dim in (2, 4):
        for _ in range(50):
            a1, a2 = haar_unitary(dim, rng), haar_unitary(dim, rng)
            b1, b2 = haar_unitary(dim, rng), haar_unitary(dim, rng)
            lhs = kron(a1 @ a2, b1 @ b2)
            rhs = kron(a1, b1) @ kron(a2, b2)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_hs_inner_values():
    assert hs_inner(np.eye(4), SWAP) == 2
    a = np.array([[1, 1j], [0, 2]], dtype=complex)
    assert abs(hs_inner(a, a) - 6.0) < 1e-15


def test_hs_inner_is_positive_on_diagonal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v = hs_inner(a, a)
        assert abs(v.imag) < 1e-12
        assert v.real >= 0


def test_transposition_13_action():
    t = transposition_13()
    e = np.eye(16, dtype=complex)
    # |1000> (index 8) -> |0010> (index 2)
    assert_allclose(t @ e[8], e[2])
    # |1011> has equal first and third bits, so it is a fixed point
    assert_allclose(t @ e[11], e[11])
    # |0100> and |0001> only touch qubits 2 and 4, stay fixed
    assert_allclose(t @ e[4], e[4])
    assert_allclose(t @ e[1], e[1])


def test_transposition_13_is_symmetric_involution():
    t = transposition_13()
    assert_allclose(t @ t, np.eye(16))
    assert_allclose(t, t.T)


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
