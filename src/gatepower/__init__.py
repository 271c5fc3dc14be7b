"""Nonlocal characterization of two-qubit gates.

Local invariants, entangling power by independent routes, and
perfect-entangler classification over the Weyl chamber.
"""
from .canonical import (
    EdgeId,
    WeylPoint,
    canonical_gate,
    canonical_gate_array,
    edge_point,
    in_weyl_chamber,
)
from .catalog import catalog_records, named_gate, verify_monte_carlo
from .classify import (
    GateRecord,
    PeVerdict,
    TheoremReport,
    classify_gate,
    is_pe_geometric,
    is_pe_invariant,
    verify_route_agreement,
    verify_theorems,
)
from .epower import (
    EpEstimate,
    ep_from_g1_abs,
    ep_monte_carlo,
    ep_monte_carlo_many,
    ep_operator_exact,
)
from .errors import CatalogError, ConsistencyError, NonUnitaryError
from .invariants import (
    LocalInvariants,
    invariants_from_matrix,
)
from .linalg import SWAP

__version__ = "0.1.0"

__all__ = [
    "CatalogError",
    "ConsistencyError",
    "EdgeId",
    "EpEstimate",
    "GateRecord",
    "LocalInvariants",
    "NonUnitaryError",
    "PeVerdict",
    "SWAP",
    "TheoremReport",
    "WeylPoint",
    "canonical_gate",
    "canonical_gate_array",
    "catalog_records",
    "classify_gate",
    "edge_point",
    "ep_from_g1_abs",
    "ep_monte_carlo",
    "ep_monte_carlo_many",
    "ep_operator_exact",
    "in_weyl_chamber",
    "invariants_from_matrix",
    "is_pe_geometric",
    "is_pe_invariant",
    "named_gate",
    "verify_monte_carlo",
    "verify_route_agreement",
    "verify_theorems",
]
