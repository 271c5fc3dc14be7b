"""Acceptance suite.

One test per acceptance criterion, each enforcing the stated tolerance
and printing a single PASS line (visible with -rA/-s; pytest -v shows
one line per criterion regardless).
"""
import json
import math

import numpy as np
import pytest

from gatepower.canonical import (
    EdgeId,
    WeylPoint,
    canonical_gate,
    edge_point,
    random_chamber_coords,
)
from gatepower.catalog import named_gate
from gatepower.classify import classify_gate, verify_route_agreement, verify_theorems
from gatepower.cli import main
from gatepower.epower import (
    ep_from_g1_abs,
    ep_monte_carlo,
    ep_operator_exact,
)
from gatepower.invariants import invariants_from_matrix

from helpers import boundary_exempt_count, dress

PI = math.pi
T11 = np.linspace(0.0, 1.0, 11)


def _done(k: int, detail: str) -> None:
    print(f"ACCEPTANCE {k}: PASS - {detail}")


def test_criterion_01_extremal_entangling_power():
    cases = [(WeylPoint(0, 0, 0), 0.0), (WeylPoint(PI / 2, PI / 2, PI / 2), 0.0)]
    cases += [(WeylPoint(PI / 2, phi, 0), 2 / 9) for phi in (0.0, PI / 8, PI / 4, PI / 2)]
    worst_closed = worst_op = 0.0
    for p, expected in cases:
        rec = classify_gate(p)
        worst_closed = max(
            worst_closed,
            abs(rec.ep - expected),
            abs(ep_from_g1_abs(abs(rec.invariants.g1)) - expected),
        )
        worst_op = max(worst_op, abs(ep_operator_exact(canonical_gate(p)) - expected))
    assert worst_closed <= 1e-12
    assert worst_op <= 1e-10
    _done(1, f"extremal ep via 3 routes, max err {worst_closed:.1e}/{worst_op:.1e}")


def test_criterion_02_quarter_g1_edges():
    worst_closed = worst_op = 0.0
    for edge in (EdgeId.QP, EdgeId.MN, EdgeId.PN):
        for t in T11:
            p = edge_point(edge, float(t))
            rec = classify_gate(p)
            worst_closed = max(
                worst_closed,
                abs(rec.ep - 1 / 6),
                abs(abs(rec.invariants.g1) - 0.25),
            )
            worst_op = max(worst_op, abs(ep_operator_exact(canonical_gate(p)) - 1 / 6))
    assert worst_closed <= 1e-12
    assert worst_op <= 1e-10
    _done(2, f"ep=1/6, |g1|=1/4 on QP/MN/PN, max err {worst_closed:.1e}/{worst_op:.1e}")


def _g2(p: WeylPoint) -> float:
    return classify_gate(p).invariants.g2


def test_criterion_03_g2_extremes():
    worst = max(
        abs(_g2(WeylPoint(0, 0, 0)) - 3.0),
        abs(_g2(WeylPoint(PI / 2, PI / 2, PI / 2)) + 3.0),
        abs(_g2(WeylPoint(PI / 2, PI / 2, 0)) + 1.0),
    )
    for t in T11:
        worst = max(worst, abs(_g2(edge_point(EdgeId.LQ, float(t))) - 1.0))
    assert worst <= 1e-12
    _done(3, f"g2 extremes 3/-3/-1 and LQ=1, max err {worst:.1e}")


def test_criterion_04_route_identity():
    rep = verify_route_agreement(500, seed=20258)
    assert rep.passed
    assert rep.max_closed_vs_g1 < 1e-12
    assert rep.max_closed_vs_operator < 1e-10
    assert rep.max_g2_forms < 1e-12
    _done(
        4,
        "500-point route agreement, max "
        f"{rep.max_closed_vs_g1:.1e}/{rep.max_closed_vs_operator:.1e}/{rep.max_g2_forms:.1e}",
    )


def test_criterion_05_matrix_route_consistency():
    worst = 0.0
    for p in random_chamber_coords(777, 500).tolist():
        inv = invariants_from_matrix(canonical_gate(p))
        closed = classify_gate(WeylPoint(*p)).invariants
        worst = max(
            worst,
            abs(abs(inv.g1) - abs(closed.g1)),
            abs(inv.g2 - closed.g2),
        )
    assert worst <= 1e-10
    _done(5, f"matrix vs closed invariants on 500 points, max err {worst:.1e}")


def test_criterion_06_local_and_inverse_invariance():
    rng = np.random.default_rng(123)
    worst_dress = worst_inv = 0.0
    for p in random_chamber_coords(88, 100).tolist():
        u = canonical_gate(p)
        base = invariants_from_matrix(u)
        base_ep = ep_operator_exact(u)
        d = dress(u, rng)
        dinv = invariants_from_matrix(d)
        worst_dress = max(
            worst_dress,
            abs(dinv.g1 - base.g1),
            abs(dinv.g2 - base.g2),
            abs(ep_operator_exact(d) - base_ep),
        )
        adj = d.conj().T
        worst_inv = max(
            worst_inv,
            abs(invariants_from_matrix(adj).g1 - dinv.g1.conjugate()),
            abs(ep_operator_exact(adj) - base_ep),
        )
    assert worst_dress < 1e-9
    assert worst_inv < 1e-9
    _done(6, f"100 dressings/inverses, max err {worst_dress:.1e}/{worst_inv:.1e}")


@pytest.mark.parametrize("grid_n", [25, 40])
def test_criterion_07_theorem_sweep(grid_n):
    rep = verify_theorems(grid_n)
    assert rep.n_boundary_exempt == boundary_exempt_count(grid_n)
    assert rep.n_boundary_exempt / rep.n_lattice < 0.05
    counts = (
        f"g2-bound {len(rep.violations['g2 bound'])}, "
        f"g2-converse {len(rep.violations['g2 converse'])}, "
        f"equivalence {len(rep.violations['equivalence'])}, "
        f"ep-range {len(rep.violations['ep range'])}"
    )
    status = "PASS" if rep.passed else "FAIL"
    print(
        f"ACCEPTANCE 7: {status} - grid {grid_n}: {counts} on {rep.n_chamber} chamber"
        f" points, {rep.n_boundary_exempt} boundary-exempt"
        f" ({rep.n_boundary_exempt / rep.n_lattice:.2%} of lattice)"
    )
    # Known failure at fine grids: the converse and equivalence checks
    # require the pair (|g1|, g2) to reproduce the geometric verdict
    # everywhere, but gates exist that share (|g1|, g2) while only one
    # is a perfect entangler (the pair fixes two of the three symmetric
    # functions of cos 2ci). A sliver of real disagreements sits just
    # inside |g1| = 1/4; grid 10 misses it, grids 25/40 do not. See the
    # README section on the classification discrepancy.
    assert rep.passed, counts


def test_criterion_08_monte_carlo_agreement():
    gates = {
        name: named_gate(name)
        for name in ("IDENTITY", "SWAP", "DCNOT", "SQRT_SWAP")
    }
    gates["SPE:pi/4"] = named_gate(f"SPE:{PI / 4!r}")
    p = random_chamber_coords(5150, 1).tolist()[0]
    random_rec = None
    for label, rec in gates.items():
        est = ep_monte_carlo(rec.matrix, 200_000, seed=42)
        assert abs(est.mean - rec.ep) <= max(3 * est.std_err, 5e-3), label
        if label == "IDENTITY":
            assert est.mean == 0.0
    est = ep_monte_carlo(canonical_gate(p), 200_000, seed=42)
    assert abs(est.mean - classify_gate(WeylPoint(*p)).ep) <= max(3 * est.std_err, 5e-3)
    _done(8, "monte carlo within max(3 std_err, 5e-3) on 6 gates, identity exact 0")


def test_criterion_09_edge_family_identity():
    worst = 0.0
    for t in T11:
        expected = 0.25 * math.sin(PI * t / 2) ** 2
        values = [
            abs(classify_gate(edge_point(edge, float(t))).invariants.g1)
            for edge in (EdgeId.LQ, EdgeId.LN, EdgeId.A2P)
        ]
        for v in values:
            worst = max(worst, abs(v - expected))
        worst = max(worst, max(values) - min(values))
    assert worst <= 1e-12
    _done(9, f"LQ/LN/A2P share |g1|=(1/4)sin^2(pi t/2), max err {worst:.1e}")


def test_criterion_10_cli_determinism(capsys, tmp_path):
    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    code1, scan1 = run("scan", "--chamber", "8")
    code2, scan2 = run("scan", "--chamber", "8")
    assert code1 == code2 == 0
    assert scan1 == scan2

    code3, ver1 = run("verify", "routes", "--n", "120", "--seed", "9")
    code4, ver2 = run("verify", "routes", "--n", "120", "--seed", "9")
    assert code3 == code4 == 0
    assert ver1 == ver2

    code5, _ = run("verify", "theorems", "--grid", "10")
    assert code5 == 0

    bad_code, _ = run("analyze", "--point", "not,a,point")
    capsys.readouterr()
    assert bad_code == 2

    io_code, _ = run("scan", "--edge", "QP", "--out", str(tmp_path / "no" / "x.csv"))
    capsys.readouterr()
    assert io_code == 3
    _done(10, "byte-identical scan/verify reruns; exit codes 0/2/3")
