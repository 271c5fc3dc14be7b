"""Tests for the named gate catalog."""
import math
import re

import pytest

from gatepower import catalog
from gatepower.canonical import WeylPoint
from gatepower.catalog import (
    FIXED_GATES,
    catalog_records,
    named_gate,
    parse_gate_name,
    verify_monte_carlo,
)
from gatepower.epower import EpEstimate, ep_operator_exact
from gatepower.errors import CatalogError
from gatepower.invariants import invariants_from_matrix

PI = math.pi


# name -> (|g1|, g2, ep, is_pe), all from the closed forms by hand
FIXED_EXPECTED = {
    "IDENTITY": (1.0, 3.0, 0.0, False),
    "SWAP": (1.0, -3.0, 0.0, False),
    "CNOT_CLASS": (0.0, 1.0, 2 / 9, True),
    "DCNOT": (0.0, -1.0, 2 / 9, True),
    "ISWAP_CLASS": (0.0, -1.0, 2 / 9, True),
    "SQRT_SWAP": (0.25, 0.0, 1 / 6, True),
    "B_GATE": (0.0, 0.0, 2 / 9, True),
}


@pytest.mark.parametrize("name", sorted(FIXED_GATES))
def test_fixed_gate_values(name):
    g1_abs, g2, ep, is_pe = FIXED_EXPECTED[name]
    rec = named_gate(name)
    assert rec.name == name
    assert abs(rec.invariants.g1) == pytest.approx(g1_abs, abs=1e-12)
    assert rec.invariants.g2 == pytest.approx(g2, abs=1e-12)
    assert rec.ep == pytest.approx(ep, abs=1e-12)
    assert rec.pe_verdict == is_pe


def test_swap_point():
    rec = named_gate("SWAP")
    assert rec.point == WeylPoint(PI / 2, PI / 2, PI / 2)


def test_iswap_shares_dcnot_class():
    assert named_gate("ISWAP_CLASS").point == named_gate("DCNOT").point


# ----------------------------------------------------------------- name parsing


def test_parse_fixed_name_case_insensitive():
    assert parse_gate_name("swap") == ("SWAP", None)
    assert parse_gate_name("  Sqrt_Swap ") == ("SQRT_SWAP", None)


def test_parse_parametric_name():
    assert parse_gate_name("SPE:0.25") == ("SPE", 0.25)
    assert parse_gate_name("swap_alpha:1e-1") == ("SWAP_ALPHA", 0.1)


def test_parse_unknown_name_lists_catalog():
    with pytest.raises(CatalogError, match="SWAP"):
        parse_gate_name("TOFFOLI")


def test_parse_missing_parameter():
    with pytest.raises(CatalogError, match="requires a parameter"):
        parse_gate_name("SPE")


def test_parse_unexpected_parameter():
    with pytest.raises(CatalogError, match="does not take"):
        parse_gate_name("SWAP:1")


def test_parse_bad_parameter():
    with pytest.raises(CatalogError):
        parse_gate_name("SPE:abc")
    with pytest.raises(CatalogError):
        parse_gate_name("SPE:nan")


@pytest.mark.parametrize(
    "name, message",
    [
        ("SPE:2.0", "SPE parameter must lie in [0, pi/2], got 2.0"),
        ("SWAP_ALPHA:1.5", "SWAP_ALPHA parameter must lie in [0, 1], got 1.5"),
        ("SWAP_ALPHA:-0.2", "SWAP_ALPHA parameter must lie in [0, 1], got -0.2"),
        ("SPE:-2e-9", "SPE parameter must lie in [0, pi/2], got -2e-09"),
        ("SWAP_ALPHA:1.000000002", "SWAP_ALPHA parameter must lie in [0, 1], got 1.000000002"),
    ],
)
def test_parameter_range_refusal_text(name, message):
    with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
        named_gate(name)


def test_parameter_range_checks():
    # within 1e-9 of the range: clamped onto it, so the chamber check accepts the point;
    # the name still shows the parameter as given
    spe = named_gate("SPE:-5e-10")
    assert (spe.name, spe.point) == ("SPE:-5e-10", WeylPoint(1.5707963267948966, 0.0, 0.0))
    swap = named_gate("SWAP_ALPHA:1.0000000005")
    assert (swap.name, swap.point) == ("SWAP_ALPHA:1.000000001", WeylPoint(*[1.5707963267948966] * 3))
    assert named_gate("SPE:1.5707963272").point == WeylPoint(PI / 2, PI / 2, 0.0)
    assert named_gate("SWAP_ALPHA:-5e-10").point == FIXED_GATES["IDENTITY"]
    # 2e-9 past either end is still refused (the other two ends are in the refusal-text test)
    for name in (f"SPE:{PI / 2 + 2e-9!r}", "SWAP_ALPHA:-2e-9"):
        with pytest.raises(CatalogError, match="parameter must lie in"):
            named_gate(name)


# ------------------------------------------------------------------ parametrics


@pytest.mark.parametrize("phi", [0.0, PI / 8, PI / 4, PI / 2])
def test_spe_family_is_maximal(phi):
    rec = named_gate(f"SPE:{phi!r}")
    assert rec.point == WeylPoint(PI / 2, phi, 0.0)
    assert rec.ep == pytest.approx(2 / 9, abs=1e-12)
    assert rec.pe_verdict
    assert "SPE" in rec.tags


def test_swap_alpha_endpoints():
    assert named_gate("SWAP_ALPHA:0").point == FIXED_GATES["IDENTITY"]
    assert named_gate("SWAP_ALPHA:1").point == FIXED_GATES["SWAP"]
    assert named_gate("SWAP_ALPHA:0.5").point == FIXED_GATES["SQRT_SWAP"]


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_swap_alpha_inverse_conjugacy(alpha):
    """Forward and inverse fractional SWAPs share e_p with conjugate g1."""
    rec = named_gate(f"SWAP_ALPHA:{alpha}")
    adj = rec.matrix.conj().T
    inv_adj = invariants_from_matrix(adj)
    assert inv_adj.g1 == pytest.approx(rec.invariants.g1.conjugate(), abs=1e-10)
    assert inv_adj.g2 == pytest.approx(rec.invariants.g2, abs=1e-10)
    assert ep_operator_exact(adj) == pytest.approx(rec.ep, abs=1e-10)


# --------------------------------------------------------------------- catalog


def test_catalog_records_coherent():
    records = catalog_records()
    assert len(records) == 9
    names = [r.name for r in records]
    assert len(set(names)) == 9
    for rec in records:
        inv = invariants_from_matrix(rec.matrix)
        assert inv.g1 == pytest.approx(rec.invariants.g1, abs=1e-9)
        assert inv.g2 == pytest.approx(rec.invariants.g2, abs=1e-9)
        assert ep_operator_exact(rec.matrix) == pytest.approx(rec.ep, abs=1e-10)


def test_verify_monte_carlo_small_run():
    rep = verify_monte_carlo(2000, seed=5)
    assert rep.passed
    assert rep.violations == ()
    assert rep.n_samples == 2000
    assert rep.seed == 5
    assert len(rep.rows) == 9
    by_name = {row[0]: row for row in rep.rows}
    # product-preserving gates sample to exactly zero
    assert by_name["IDENTITY"][1] == 0.0
    assert by_name["SWAP"][1] == 0.0


@pytest.mark.parametrize("std_err, bound", [(0.01, 0.03), (1e-4, 5e-3)], ids=["3 std_err", "5e-3"])
def test_verify_monte_carlo_pass_rule_at_half_and_twice(monkeypatch, std_err, bound):
    # a gate passes when |mean - analytic| <= max(3 std_err, 5e-3); each branch of the max at half and
    # twice its bound, above and below the analytic value in turn
    eps = [rec.ep for rec in catalog_records()]
    for factor, fails in ((0.5, False), (2.0, True)):
        def sampled(us, n_samples, seed):
            return [EpEstimate(ep + (-1) ** i * factor * bound, std_err, n_samples, seed) for i, ep in enumerate(eps)]

        monkeypatch.setattr(catalog, "ep_monte_carlo_many", sampled)
        rep = verify_monte_carlo(1000, seed=3)
        assert len(rep.violations) == (len(eps) if fails else 0)


def test_verify_monte_carlo_deterministic():
    a = verify_monte_carlo(500, seed=8)
    b = verify_monte_carlo(500, seed=8)
    assert a.rows == b.rows
