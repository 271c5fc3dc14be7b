"""Exception types shared across the package."""
from __future__ import annotations

import math


class NonUnitaryError(ValueError):
    """Input matrix fails the unitarity check.

    Attributes:
        defect: max-norm of U†U - I for the offending matrix.
        tol: tolerance the defect was measured against.
    """

    def __init__(self, defect: float, tol: float):
        self.defect = float(defect)
        self.tol = float(tol)
        if math.isnan(self.defect):  # u†u met a nan, inf * 0 or inf - inf
            reason = "an entry is not finite or too large"
        else:
            reason = f"defect {self.defect:.3e} exceeds tolerance {self.tol:.1e}"
        super().__init__(f"matrix is not unitary: {reason}")


class ConsistencyError(RuntimeError):
    """A quantity that is real by construction came out with a large imaginary residue.

    Raised by the matrix route to the local invariants when g2's imaginary
    residue reaches invariants.G2_IMAG_TOL. Indicates an inconsistent input
    rather than ordinary floating-point noise.
    """


class CatalogError(ValueError):
    """Unknown or malformed gate name passed to the catalog."""
