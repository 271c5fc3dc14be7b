"""Tests for the local invariants (g1, g2)."""
import math

import numpy as np
import pytest

from gatepower import classify
from gatepower.canonical import (
    WeylPoint,
    _sort_desc,
    canonical_gate,
    random_chamber_coords,
)
from gatepower.classify import classify_gate
from gatepower.errors import ConsistencyError, NonUnitaryError
from gatepower.invariants import (
    MAGIC_BASIS,
    LocalInvariants,
    _invariants,
    g2_product_array,
    invariants_from_matrix,
)
from gatepower.linalg import SWAP

from helpers import dress, haar_unitary

PI = math.pi

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
DCNOT = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex
)
ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)


# ---------------------------------------------------------------- closed forms


def _point_invariants(c1, c2, c3):
    """The closed-form invariants at a chamber point, as classify_gate records them."""
    return classify_gate(WeylPoint(c1, c2, c3)).invariants


def test_g1_abs_identity_point():
    assert abs(_point_invariants(0, 0, 0).g1) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("eta", [0.0, 0.3, PI / 4])
def test_g1_abs_quarter_edge(eta):
    # constant 1/4 along c1 = c2 = pi/4, any c3
    assert abs(_point_invariants(PI / 4, PI / 4, eta).g1) == pytest.approx(0.25, abs=1e-13)


@pytest.mark.parametrize("phi", [0.0, 0.3, PI / 2])
def test_g1_abs_vanishing_line(phi):
    assert abs(_point_invariants(PI / 2, phi, 0).g1) <= 1e-13


def test_g1_complex_examples():
    assert _point_invariants(0, 0, 0).g1 == pytest.approx(1 + 0j, abs=1e-13)
    assert _point_invariants(PI / 2, PI / 2, PI / 2).g1 == pytest.approx(-1 + 0j, abs=1e-13)
    assert _point_invariants(PI / 2, 0, 0).g1 == pytest.approx(0j, abs=1e-13)


def test_g1_modulus_identity():
    """The modulus of the complex g1 equals the direct |g1| expression.

    Writing a = prod cos^2, b = prod sin^2, the identity
    (a - b)^2 + (1/4 sin 2c1 sin 2c2 sin 2c3)^2 = (a + b)^2 holds because
    the cross term (1/2 sin 2c)^3-squared equals 4ab.
    """
    c = random_chamber_coords(7, 200)
    g1 = np.array([_point_invariants(*p).g1 for p in c.tolist()])
    np.testing.assert_allclose(
        np.abs(g1), classify._evaluate(c.T)["g1_abs"], rtol=0, atol=1e-13
    )


def test_g2_examples():
    assert _point_invariants(0, 0, 0).g2 == pytest.approx(3.0, abs=1e-15)
    assert _point_invariants(PI / 2, PI / 2, PI / 2).g2 == pytest.approx(-3.0, abs=1e-13)
    assert _point_invariants(PI / 2, PI / 2, 0).g2 == pytest.approx(-1.0, abs=1e-13)
    # cos(pi) + cos(pi/2) + cos(0) = -1 + 0 + 1
    assert _point_invariants(PI / 2, PI / 4, 0).g2 == pytest.approx(0.0, abs=1e-13)


def test_mirror_preserves_invariant_values():
    c = random_chamber_coords(53, 100).T
    m = _sort_desc(PI - c[0], c[1], c[2])
    at_m, at_c = classify._evaluate(m), classify._evaluate(c)
    for name in ("g1_abs", "g2", "ep"):
        np.testing.assert_allclose(at_m[name], at_c[name], rtol=0, atol=1e-12)


def test_g2_two_forms_agree_on_grid():
    """The cosine-sum and product forms agree on a 50^3 lattice."""
    c1, c2, c3 = np.meshgrid(
        np.linspace(0.0, PI, 50), np.linspace(0.0, PI / 2, 50), np.linspace(0.0, PI / 2, 50)
    )
    worst = np.max(np.abs(classify._evaluate((c1, c2, c3))["g2"] - g2_product_array(c1, c2, c3)))
    assert worst <= 1e-12


# ---------------------------------------------------------------- matrix route


def test_matrix_route_identity():
    inv = invariants_from_matrix(np.eye(4))
    assert inv.g1 == pytest.approx(1 + 0j, abs=1e-14)
    assert inv.g2 == pytest.approx(3.0, abs=1e-14)


def test_matrix_route_swap():
    inv = invariants_from_matrix(SWAP)
    assert inv.g1 == pytest.approx(-1 + 0j, abs=1e-14)
    assert inv.g2 == pytest.approx(-3.0, abs=1e-14)


@pytest.mark.parametrize(
    "u,g1,g2",
    [
        (CNOT, 0j, 1.0),
        (DCNOT, 0j, -1.0),
        (ISWAP, 0j, -1.0),
    ],
    ids=["cnot", "dcnot", "iswap"],
)
def test_matrix_route_standard_gates(u, g1, g2):
    inv = invariants_from_matrix(u)
    assert inv.g1 == pytest.approx(g1, abs=1e-12)
    assert inv.g2 == pytest.approx(g2, abs=1e-12)


def test_matrix_route_half_cnot_class_point():
    inv = invariants_from_matrix(canonical_gate(WeylPoint(PI / 2, PI / 4, 0)))
    assert abs(inv.g1) <= 1e-12
    assert inv.g2 == pytest.approx(0.0, abs=1e-12)


def test_routes_agree_on_random_points():
    """Matrix and closed-form routes match on 1000 sampled chamber points."""
    for p in random_chamber_coords(2024, 1000).tolist():
        inv = invariants_from_matrix(canonical_gate(p))
        closed = _point_invariants(*p)
        assert abs(inv.g1) == pytest.approx(float(classify._evaluate(p)["g1_abs"]), abs=1e-10)
        assert inv.g1 == pytest.approx(closed.g1, abs=1e-10)
        assert inv.g2 == pytest.approx(closed.g2, abs=1e-10)


def test_global_phase_invariance():
    u = canonical_gate(WeylPoint(1.2, 0.8, 0.3))
    base = invariants_from_matrix(u)
    shifted = invariants_from_matrix(np.exp(0.7j) * u)
    assert shifted.g1 == pytest.approx(base.g1, abs=1e-12)
    assert shifted.g2 == pytest.approx(base.g2, abs=1e-12)


def test_local_dressing_invariance():
    rng = np.random.default_rng(99)
    for p in random_chamber_coords(15, 25).tolist():
        u = canonical_gate(p)
        base = invariants_from_matrix(u)
        dressed = invariants_from_matrix(dress(u, rng))
        assert dressed.g1 == pytest.approx(base.g1, abs=1e-9)
        assert dressed.g2 == pytest.approx(base.g2, abs=1e-9)


# --------------------------------------------------------- conjugation property


def _assert_inverse_conjugates_g1(u):
    """g1 of the inverse gate is the complex conjugate of g1(u)."""
    g_fwd = invariants_from_matrix(u).g1
    g_inv = invariants_from_matrix(u.conj().T).g1
    assert abs(g_inv - g_fwd.conjugate()) <= 1e-9


def test_conjugate_check_swap():
    _assert_inverse_conjugates_g1(SWAP)


def test_conjugate_check_half_swap_class():
    _assert_inverse_conjugates_g1(canonical_gate(WeylPoint(PI / 4, PI / 4, PI / 4)))


def test_conjugate_check_fuzz():
    rng = np.random.default_rng(4242)
    for p in random_chamber_coords(31, 100).tolist():
        _assert_inverse_conjugates_g1(dress(canonical_gate(p), rng))


# -------------------------------------------------------------------- guards


def test_invariants_reject_out_of_range_g1():
    with pytest.raises(ValueError, match="g1"):
        LocalInvariants(1.5 + 0j, 0.0)


def test_invariants_reject_out_of_range_g2():
    with pytest.raises(ValueError, match="g2"):
        LocalInvariants(0j, 3.5)


def test_invariants_range_tolerance():
    # x past |g1| <= 1, g2 <= 3 and g2 >= -3: half the 1e-9 slack is accepted, twice it is refused
    for past in (lambda x: (complex(1.0 + x), 0.0), lambda x: (0j, 3.0 + x), lambda x: (0j, -3.0 - x)):
        LocalInvariants(*past(0.5e-9))
        with pytest.raises(ValueError):
            LocalInvariants(*past(2e-9))


def test_invariants_reject_non_finite():
    with pytest.raises(ValueError):
        LocalInvariants(complex(math.nan, 0), 0.0)
    with pytest.raises(ValueError):
        LocalInvariants(0j, math.inf)


def test_non_unitary_rejected_with_defect():
    with pytest.raises(NonUnitaryError) as err:
        invariants_from_matrix(2.0 * np.eye(4))
    assert err.value.defect == pytest.approx(3.0)


def test_non_finite_matrix_rejected():
    u = np.eye(4, dtype=complex)
    u[3, 3] = math.nan
    with pytest.raises(NonUnitaryError):
        invariants_from_matrix(u)


def test_wrong_shape_rejected():
    with pytest.raises(ValueError, match="4x4"):
        invariants_from_matrix(np.eye(2))


def test_g2_imaginary_residue_guard():
    """A near-unitary within the ingest gate but with complex g2 is flagged."""
    rng = np.random.default_rng(0)
    u = haar_unitary(4, rng)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    bad = u + 1e-9 * g
    # perturbation passes the 1e-8 unitarity gate yet leaves |Im g2| > 1e-9
    with pytest.raises(ConsistencyError, match="g2"):
        invariants_from_matrix(bad)


def _g2_imag_residue(u) -> float:
    """|Im g2| of a 4x4 matrix, from the magic-basis formula written out here."""
    um = MAGIC_BASIS.conj().T @ u @ MAGIC_BASIS
    m = um.T @ um
    tr = np.trace(m)
    return abs(((tr * tr - np.trace(m @ m)) / (4.0 * np.linalg.det(um))).imag)


def test_g2_imag_tolerance_at_half_and_twice():
    """u (I + eps H), H Hermitian, leaves an imaginary residue on g2 that grows linearly in eps:
    a residue of half the 1e-9 tolerance is accepted, twice it raises."""
    rng = np.random.default_rng(0)
    u = haar_unitary(4, rng)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (g + g.conj().T) / 2
    per_eps = _g2_imag_residue(u @ (np.eye(4) + 1e-6 * h)) / 1e-6
    for residue, raises in ((0.5e-9, False), (2e-9, True)):
        v = u @ (np.eye(4) + (residue / per_eps) * h)
        assert _g2_imag_residue(v) == pytest.approx(residue, rel=1e-2)
        if raises:
            with pytest.raises(ConsistencyError, match="g2"):
                _invariants(v)
        else:
            _invariants(v)
