"""The public API surface: every exported name resolves, once."""
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
    modules.update({layer: getattr(gatepower, layer) for layer in LAYERS})
    for label, mod in modules.items():
        names = mod.__all__
        assert len(names) == len(set(names)), f"{label}.__all__ repeats a name"
        missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, f"{label}.__all__ names missing attributes: {missing}"
    for layer, names in BENCHMARK_NAMES.items():
        exported = set(modules[layer].__all__)
        assert set(names) <= exported, f"{layer} no longer exports {set(names) - exported}"
