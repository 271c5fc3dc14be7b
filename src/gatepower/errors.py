"""Exception types shared across the package.

NonUnitaryError, raised at the ingest tolerance, is the only precision check on a matrix."""
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


class CatalogError(ValueError):
    """Unknown or malformed gate name passed to the catalog."""
