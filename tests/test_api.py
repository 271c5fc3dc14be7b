"""The public API surface: every exported name resolves, once, and the exports are pinned."""
import importlib

import gatepower

LAYERS = ("linalg", "rng", "canonical", "invariants", "epower", "classify", "catalog", "cli")

# names the benchmark harness looks up by module and name
BENCHMARK_NAMES = {
    "canonical": ("in_weyl_chamber", "WeylPoint"),
    "classify": ("is_pe_geometric", "is_pe_invariant", "verify_theorems", "classify_gate"),
    "epower": ("ep_operator_exact", "ep_monte_carlo"),
    "invariants": ("invariants_from_matrix",),
    "linalg": ("require_unitary",),
    "rng": ("uniform_stream",),
    "cli": ("main",),
}


def test_all_names_resolve_once_and_benchmark_names_are_exported():
    modules = {"gatepower": gatepower}
    modules.update({layer: importlib.import_module(f"gatepower.{layer}") for layer in LAYERS})
    for label, mod in modules.items():
        names = mod.__all__
        assert len(names) == len(set(names)), f"{label}.__all__ repeats a name"
        missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, f"{label}.__all__ names missing attributes: {missing}"
    for layer, names in BENCHMARK_NAMES.items():
        exported = set(modules[layer].__all__)
        assert set(names) <= exported, f"{layer} no longer exports {set(names) - exported}"


# the sorted __all__ of the package and of each layer; removing or adding a public name edits this
# table in the same change
PUBLIC_NAMES = {
    "gatepower": (
        "CatalogError", "EdgeId", "EpEstimate", "GateRecord", "LocalInvariants",
        "NonUnitaryError", "PeVerdict", "SWAP", "TheoremReport", "WeylPoint",
        "canonical_gate_array", "catalog_records", "classify_gate", "edge_point",
        "ep_from_g1_abs", "ep_monte_carlo", "ep_monte_carlo_many", "ep_operator_exact",
        "in_weyl_chamber", "invariants_from_matrix", "is_pe_geometric",
        "is_pe_invariant", "named_gate", "verify_monte_carlo", "verify_route_agreement", "verify_theorems",
    ),
    "linalg": ("INGEST_UNITARY_TOL", "SWAP", "require_unitary", "unitarity_defect"),
    "rng": ("GAMMA", "MASK64", "box_muller", "raw_stream", "uniform_stream"),
    "canonical": (
        "CHAMBER_TOL", "EdgeId", "WeylPoint", "canonical_gate_array", "chamber_lattice",
        "chamber_mask", "edge_point", "edge_tags", "in_weyl_chamber", "random_chamber_coords",
    ),
    "invariants": ("LocalInvariants", "MAGIC_BASIS", "g2_product_array", "invariants_from_matrix"),
    "epower": (
        "EP_MAX", "EpEstimate", "ep_from_g1_abs", "ep_monte_carlo", "ep_monte_carlo_many", "ep_operator_exact",
    ),
    "classify": (
        "GateRecord", "PE_EP_MIN", "PE_TOL", "PeVerdict", "RouteAgreementReport", "TheoremReport",
        "classify_gate", "geometric_margins", "invariant_margins", "is_pe_geometric", "is_pe_invariant",
        "pe_mask", "verify_route_agreement", "verify_theorems",
    ),
    "catalog": ("FIXED_GATES", "MonteCarloReport", "catalog_records", "named_gate", "parse_gate_name", "verify_monte_carlo"),
    "cli": ("entry", "load_matrix_file", "main", "matrix_to_json"),
}


def test_public_names_are_pinned():
    assert set(PUBLIC_NAMES) == {"gatepower", *LAYERS}
    for label, names in PUBLIC_NAMES.items():
        mod = importlib.import_module(label if label == "gatepower" else f"gatepower.{label}")
        assert tuple(sorted(mod.__all__)) == names, label
