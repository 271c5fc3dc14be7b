import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gatepower.errors import NonUnitaryError
from gatepower.linalg import SWAP, require_unitary, unitarity_defect

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
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.nan), 1e300])
def test_require_unitary_rejects_non_finite_entries_without_warning(value):
    m = np.eye(4, dtype=complex)
    m[0, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonUnitaryError, match="not unitary") as err:
            require_unitary(m)
    assert not err.value.defect <= err.value.tol
