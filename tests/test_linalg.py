import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gatepower.canonical import canonical_gate_array, random_chamber_coords
from gatepower.errors import NonUnitaryError
from gatepower.linalg import INGEST_UNITARY_TOL, SWAP, require_unitary, unitarity_defect
from helpers import dress

KET = np.eye(4, dtype=complex)


def test_swap_permutes_basis():
    assert_allclose(SWAP @ KET[1], KET[2])
    assert_allclose(SWAP @ KET[2], KET[1])
    assert_allclose(SWAP @ KET[0], KET[0])
    assert_allclose(SWAP @ KET[3], KET[3])


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


@pytest.mark.parametrize("shape", [(4, 3), (4,), (2, 2, 2)])
def test_unitarity_defect_rejects_non_square(shape):
    with pytest.raises(ValueError, match=rf"^expected a square matrix, got shape {re.escape(str(shape))}$"):
        unitarity_defect(np.ones(shape))


@pytest.mark.parametrize("shape", [(2, 2), (4, 3), (16, 16), (4,)])
def test_require_unitary_rejects_non_4x4_before_defect(shape):
    # the shape check comes first, so a unitary of the wrong size is a ValueError
    # naming the shape, not a NonUnitaryError
    m = np.eye(*shape) if len(shape) == 2 else np.ones(shape)
    with pytest.raises(ValueError, match="4x4") as err:
        require_unitary(m)
    assert not isinstance(err.value, NonUnitaryError)


# a nan defect compares False against any tolerance; 1e300 is finite, but its square overflows
@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, complex(0, math.nan), 1e300, complex(0, -math.inf), complex(math.inf, math.inf), -1e300j],
)
def test_require_unitary_rejects_non_finite_entries_without_warning(value):
    # on the diagonal, where the identity is subtracted in place, and off it
    for where in ((0, 0), (1, 2)):
        m = np.eye(4, dtype=complex)
        m[where] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonUnitaryError, match="not unitary") as err:
                require_unitary(m)
        assert not err.value.defect <= err.value.tol


@pytest.mark.parametrize("defect", [0.5e-8, 2e-8])
def test_require_unitary_tolerance_at_half_and_twice(defect):
    """A dressed gate whose defect is half the ingest tolerance of 1e-8 passes; one at twice it raises."""
    rng = np.random.default_rng(3)
    # (u D)†(u D) - I = D u†u D - I, and diag(1, 1, 1, 1 + d) squared less I is 2d + d^2 = defect at the last entry
    d = math.sqrt(1.0 + defect) - 1.0
    m = dress(canonical_gate_array(1.1, 0.6, 0.3), rng) @ np.diag([1.0, 1.0, 1.0, 1.0 + d])
    assert unitarity_defect(m) == pytest.approx(defect, rel=1e-6)
    if defect < 1e-8:
        assert require_unitary(m) is not None
    else:
        with pytest.raises(NonUnitaryError) as err:
            require_unitary(m)
        assert err.value.defect == pytest.approx(defect, rel=1e-6)
        assert err.value.tol == INGEST_UNITARY_TOL


def _reference_unitarity_defect(u) -> float:
    """unitarity_defect with u†u - I formed against np.eye, kept as the reference."""
    m = np.asarray(u, dtype=complex)
    with np.errstate(all="ignore"):
        return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def test_unitarity_defect_matches_eye_reference_bit_for_bit():
    rng = np.random.default_rng(17)
    mats = []
    for row in random_chamber_coords(31, 300).tolist():
        u = dress(canonical_gate_array(*row), rng) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        mats += [u, np.round(u, 8), np.round(u, 4), u + 1e-6 * rng.normal(size=(4, 4))]
    for value in (math.nan, math.inf, -math.inf, complex(0, math.nan), complex(0, -math.inf), 1e300, -1e300j):
        for where in ((0, 0), (1, 2), (3, 3)):
            m = np.eye(4, dtype=complex)
            m[where] = value
            mats.append(m)
    mats += [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in (1, 2, 3, 16)]
    for m in mats:
        assert unitarity_defect(m).hex() == _reference_unitarity_defect(m).hex()
