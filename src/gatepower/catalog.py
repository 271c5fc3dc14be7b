"""Named two-qubit gate classes and their chamber points."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .canonical import WeylPoint
from .classify import GateRecord, classify_gate
from .epower import ep_monte_carlo_many
from .errors import CatalogError

__all__ = [
    "FIXED_GATES",
    "MonteCarloReport",
    "catalog_records",
    "named_gate",
    "parse_gate_name",
    "verify_monte_carlo",
]

_PI = math.pi

# fixed (parameter-free) classes
FIXED_GATES: dict[str, WeylPoint] = {
    "IDENTITY": WeylPoint(0.0, 0.0, 0.0),
    "SWAP": WeylPoint(_PI / 2, _PI / 2, _PI / 2),
    "CNOT_CLASS": WeylPoint(_PI / 2, 0.0, 0.0),
    "DCNOT": WeylPoint(_PI / 2, _PI / 2, 0.0),
    "ISWAP_CLASS": WeylPoint(_PI / 2, _PI / 2, 0.0),
    "SQRT_SWAP": WeylPoint(_PI / 4, _PI / 4, _PI / 4),
    "B_GATE": WeylPoint(_PI / 2, _PI / 4, 0.0),
}

# a parameter up to this far outside its range is accepted and clamped onto the range,
# so the point it builds passes the much tighter chamber check
_PARAM_TOL = 1e-9


def _spe_point(phi: float) -> WeylPoint:
    # special perfect entanglers [pi/2, phi, 0]; ep = 2/9 across the family
    if not -_PARAM_TOL <= phi <= _PI / 2 + _PARAM_TOL:
        raise CatalogError(f"SPE parameter must lie in [0, pi/2], got {phi!r}")
    return WeylPoint(_PI / 2, min(max(float(phi), 0.0), _PI / 2), 0.0)


def _swap_alpha_point(alpha: float) -> WeylPoint:
    # fractional SWAP powers; alpha=1 is the SWAP class, alpha=1/2 SQRT_SWAP
    if not -_PARAM_TOL <= alpha <= 1.0 + _PARAM_TOL:
        raise CatalogError(f"SWAP_ALPHA parameter must lie in [0, 1], got {alpha!r}")
    c = min(max(float(alpha), 0.0), 1.0) * _PI / 2
    return WeylPoint(c, c, c)


_PARAMETRIC = {
    "SPE": _spe_point,
    "SWAP_ALPHA": _swap_alpha_point,
}


def parse_gate_name(text: str) -> tuple[str, float | None]:
    """Split 'NAME' or 'NAME:param' into a canonical name and parameter."""
    head, sep, tail = text.strip().partition(":")
    name = head.strip().upper()
    if name not in FIXED_GATES and name not in _PARAMETRIC:
        known = ", ".join(sorted(FIXED_GATES) + sorted(_PARAMETRIC))
        raise CatalogError(f"unknown gate {text!r}; known names: {known}")
    if not sep:
        if name in _PARAMETRIC:
            raise CatalogError(f"{name} requires a parameter, e.g. {name}:0.5")
        return name, None
    if name in FIXED_GATES:
        raise CatalogError(f"{name} does not take a parameter")
    try:
        value = float(tail)
    except ValueError:
        raise CatalogError(f"bad parameter {tail!r} for {name}") from None
    if not math.isfinite(value):
        raise CatalogError(f"parameter must be finite, got {tail!r}")
    return name, value


def named_gate(name: str) -> GateRecord:
    """Record for a catalog entry, e.g. 'SWAP', 'spe:0.7854', 'SWAP_ALPHA:0.5'."""
    key, param = parse_gate_name(name)
    if param is None:
        point = FIXED_GATES[key]
        display = key
    else:
        point = _PARAMETRIC[key](param)
        display = f"{key}:{param:.10g}"
    return classify_gate(point, name=display)


def catalog_records() -> list[GateRecord]:
    """Every fixed class plus one representative of each parametric family."""
    records = [named_gate(name) for name in FIXED_GATES]
    records.append(named_gate(f"SPE:{_PI / 4!r}"))
    records.append(named_gate("SWAP_ALPHA:0.5"))
    return records


@dataclass(frozen=True)
class MonteCarloReport:
    """Sampled vs analytic entangling power for the catalog."""

    n_samples: int
    seed: int
    rows: tuple[tuple[str, float, float, float], ...]  # name, mean, std_err, analytic
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_monte_carlo(n_samples: int, seed: int) -> MonteCarloReport:
    """Check every catalog gate's sampled e_p against the closed form.

    All gates share each block's sampled product states. A gate fails when
    |mean - analytic| exceeds max(3 std_err, 5e-3).
    """
    records = catalog_records()
    estimates = ep_monte_carlo_many([rec.matrix for rec in records], n_samples, seed)
    rows = []
    violations = []
    for rec, est in zip(records, estimates):
        rows.append((rec.name, est.mean, est.std_err, rec.ep))
        bound = max(3.0 * est.std_err, 5e-3)
        if abs(est.mean - rec.ep) > bound:
            violations.append(
                f"{rec.name}: |{est.mean!r} - {rec.ep!r}| > {bound!r}"
            )
    return MonteCarloReport(
        n_samples=n_samples,
        seed=seed,
        rows=tuple(rows),
        violations=tuple(violations),
    )
