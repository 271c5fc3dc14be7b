"""Tests for perfect-entangler classification and the lattice sweeps."""
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gatepower import classify, linalg
from gatepower.canonical import (
    EdgeId,
    WeylPoint,
    _chamber_coord_passes,
    _edge_coords,
    canonical_gate,
    chamber_lattice,
    edge_tags,
    random_chamber_coords,
)
from gatepower.catalog import catalog_records
from gatepower.classify import (
    PE_EP_MIN,
    PE_TOL,
    GateRecord,
    PeVerdict,
    TheoremReport,
    _lattice_blocks,
    _value_tags,
    classify_gate,
    geometric_margins,
    is_pe_geometric,
    is_pe_invariant,
    pe_mask,
    verify_theorems,
)
from gatepower.epower import EP_MAX, ep_from_g1_abs
from gatepower.errors import ConsistencyError, NonUnitaryError
from gatepower.invariants import LocalInvariants, _invariants
from gatepower.linalg import SWAP, require_unitary
from helpers import (
    THEOREM_CLAIMS, boundary_exempt_count, dress, ep_closed, invariants_closed, point_columns, point_verdicts,
)

PI = math.pi


# ------------------------------------------------------------- geometric test


def test_geometric_qp_endpoint_is_pe():
    v = is_pe_geometric(WeylPoint(PI / 4, PI / 4, 0))
    assert v.is_pe
    assert v.route == "geometric"
    assert v.margins["c1_plus_c2"] == pytest.approx(0.0, abs=1e-12)
    assert v.margins["c2_plus_c3"] == pytest.approx(PI / 4, abs=1e-12)
    assert v.on_boundary


def test_geometric_identity_is_not_pe():
    v = is_pe_geometric(WeylPoint(0, 0, 0))
    assert not v.is_pe
    assert v.margins["c1_plus_c2"] == pytest.approx(-PI / 2, abs=1e-12)


def test_geometric_swap_is_not_pe():
    # folds to itself; c2 + c3 = pi overshoots pi/2
    v = is_pe_geometric(WeylPoint(PI / 2, PI / 2, PI / 2))
    assert not v.is_pe
    assert v.margins["c2_plus_c3"] == pytest.approx(-PI / 2, abs=1e-12)


def test_geometric_folds_upper_half():
    # [3pi/4, pi/4, pi/8] folds to [pi/4, pi/4, pi/8]
    v = is_pe_geometric(WeylPoint(3 * PI / 4, PI / 4, PI / 8))
    assert v.is_pe
    assert v.margins["c1_plus_c2"] == pytest.approx(0.0, abs=1e-12)
    assert v.margins["c2_plus_c3"] == pytest.approx(PI / 8, abs=1e-12)


def _where_fold_margins(c1, c2, c3) -> dict:
    """Geometric margins with the mirror applied through a fold mask, kept as the bit-exact reference."""
    lo, hi = np.minimum(PI - c1, c2), np.maximum(PI - c1, c2)
    mid, top = np.minimum(hi, c3), np.maximum(hi, c3)
    fold = c1 > PI / 2
    q1 = np.where(fold, top, c1)
    q2 = np.where(fold, np.maximum(lo, mid), c2)
    q3 = np.where(fold, np.minimum(lo, mid), c3)
    return {"c1_plus_c2": q1 + q2 - PI / 2, "c2_plus_c3": PI / 2 - (q2 + q3)}


def _assert_same_margin_bits(c1, c2, c3):
    got, ref = geometric_margins(c1, c2, c3), _where_fold_margins(c1, c2, c3)
    assert list(got) == list(ref)
    for key in ref:
        assert np.array_equal(np.asarray(got[key], dtype=float).view(np.int64), ref[key].view(np.int64))


def test_geometric_margins_are_bit_identical_to_where_fold_reference():
    for grid_n in range(2, 61):
        _assert_same_margin_bits(*chamber_lattice(grid_n).T)
    _assert_same_margin_bits(*random_chamber_coords(2003, 50_000).T)
    # the fold threshold c1 = pi/2 and its two float neighbours, on and off the c2 + c3 face
    c1 = np.repeat([np.nextafter(PI / 2, 0.0), PI / 2, np.nextafter(PI / 2, 4.0)], 4)
    c2 = np.tile([0.0, PI / 4, 1.2, PI / 2], 3)
    c3 = np.tile([0.0, PI / 4, 0.3, PI / 2], 3)
    _assert_same_margin_bits(c1, c2, c3)
    for c in zip(c1.tolist(), c2.tolist(), c3.tolist()):
        _assert_same_margin_bits(*c)


# points where two inputs of the sort network tie, as (c1, c2, c3): the fold threshold c1 = pi/2,
# c1 = c2, its mirror pi - c1 = c2, c2 = c3 and c3 = 0, each with zeros of both signs
_MARGIN_TIE_POINTS = [
    (PI / 2, 0.0, 0.0), (PI / 2, PI / 4, 0.0), (PI / 2, 1.2, 0.3), (PI / 2, PI / 2, PI / 2), (PI / 2, -0.0, -0.0),
    (1.0, 1.0, 0.3), (0.5, 0.5, 0.5), (PI / 4, PI / 4, 0.0), (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, 0.0),
    (2.0, PI - 2.0, 0.4), (2.5, PI - 2.5, PI - 2.5), (PI, 0.0, 0.0), (PI, -0.0, 0.0),
    (2.0, 0.5, 0.5), (1.0, 0.3, 0.3), (2.5, 0.0, 0.0), (2.5, 0.0, -0.0),
    (1.0, 0.5, 0.0), (2.5, 0.5, 0.0), (1.0, 0.5, -0.0), (2.0, 1.0, -0.0),
]


def test_geometric_margins_on_floats_equal_the_array_margins():
    pts = np.concatenate([random_chamber_coords(36, 2500), chamber_lattice(40), _MARGIN_TIE_POINTS])
    arrays = geometric_margins(*pts.T)
    for row, c in enumerate(pts.tolist()):
        floats = geometric_margins(*c)
        assert list(floats) == list(arrays)
        for key, value in floats.items():
            assert type(value) is float
            assert value.hex() == arrays[key][row].item().hex(), (c, key)


@pytest.mark.parametrize("point", [(math.nan, 0.5, 0.2), (1.0, math.nan, 0.2), (1.0, 0.5, math.nan)])
def test_geometric_margins_keep_a_nan_coordinate_on_floats(point):
    assert all(math.isnan(m) for m in geometric_margins(*point).values())


def test_geometric_rejects_outside_chamber():
    with pytest.raises(ValueError):
        is_pe_geometric(WeylPoint(0.1, 0.5, 0.2))


def test_geometric_cnot_class_interior_pe():
    v = is_pe_geometric(WeylPoint(PI / 2, 0.3, 0.1))
    assert v.is_pe
    assert not v.on_boundary


# ------------------------------------------------------------- invariant test


def test_invariant_lq_boundary_is_pe():
    v = is_pe_invariant(LocalInvariants(0j, 1.0))
    assert v.is_pe
    assert v.route == "invariant"
    assert v.on_boundary
    assert v.margins["g2_high"] == pytest.approx(0.0, abs=1e-12)


def test_invariant_local_gate_is_not_pe():
    v = is_pe_invariant(LocalInvariants(1 + 0j, 3.0))
    assert not v.is_pe
    assert v.margins["g1_abs"] == pytest.approx(-0.75, abs=1e-12)
    assert v.margins["g2_high"] == pytest.approx(-2.0, abs=1e-12)


def test_invariant_dcnot_is_pe():
    v = is_pe_invariant(LocalInvariants(0j, -1.0))
    assert v.is_pe
    assert v.margins["g2_low"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("scale", [-2.0, -0.5, 0.5, 2.0])
def test_verdict_and_boundary_flag_at_half_and_twice_pe_tol(scale):
    """A margin at half and at twice the documented PE_TOL of 1e-9 from zero, on either side of its
    face: the verdict needs the margin to clear -1e-9, the boundary flag puts it within 1e-9 of zero."""
    assert PE_TOL == 1e-9
    d = scale * 1e-9
    verdicts = {
        "c1_plus_c2": is_pe_geometric(WeylPoint(PI / 4 + d / 2, PI / 4 + d / 2, 0.1)),
        "c2_plus_c3": is_pe_geometric(WeylPoint(1.2, PI / 4 - d / 2, PI / 4 - d / 2)),
        "g1_abs": is_pe_invariant(LocalInvariants(complex(0.25 - d), 0.0)),
        "g2_low": is_pe_invariant(LocalInvariants(0.1j, -1.0 + d)),
        "g2_high": is_pe_invariant(LocalInvariants(0.1j, 1.0 - d)),
    }
    for margin, v in verdicts.items():
        assert v.margins[margin] == pytest.approx(d, abs=1e-15), margin
        assert v.is_pe == (scale > -1.0), margin
        assert v.on_boundary == (abs(scale) < 1.0), margin


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_value_tags_at_half_and_twice_their_slack(scale):
    """SPE marks |g1| below 1e-9 and ZERO_EP |g1| within 1e-9 of 1."""
    d = scale * 1e-9
    assert _value_tags(LocalInvariants(complex(d), 3.0)) == ({"SPE"} if scale < 1.0 else set())
    assert _value_tags(LocalInvariants(complex(1.0 - d), 3.0)) == ({"ZERO_EP"} if scale < 1.0 else set())


def test_invariant_depends_only_on_g1_modulus():
    for mod in (0.1, 0.2, 0.3):
        base = is_pe_invariant(LocalInvariants(complex(mod), 0.5)).is_pe
        for phase in np.linspace(0.0, 2 * PI, 9):
            g1 = mod * complex(math.cos(phase), math.sin(phase))
            assert is_pe_invariant(LocalInvariants(g1, 0.5)).is_pe == base


# ------------------------------------------------------------- classification


def test_classify_spe_point():
    rec = classify_gate(WeylPoint(PI / 2, PI / 4, 0), name="spe")
    assert rec.pe_verdict
    assert rec.ep == pytest.approx(2 / 9, abs=1e-12)
    assert "SPE" in rec.tags
    assert rec.name == "spe"
    assert rec.point == WeylPoint(PI / 2, PI / 4, 0)
    assert rec.geometric is not None and rec.geometric.is_pe
    assert rec.invariant.is_pe


def test_classify_swap_matrix():
    rec = classify_gate(SWAP)
    assert not rec.pe_verdict
    assert rec.ep == pytest.approx(0.0, abs=1e-12)
    assert abs(rec.invariants.g1) == pytest.approx(1.0, abs=1e-12)
    assert "ZERO_EP" in rec.tags
    assert rec.point is None
    assert rec.geometric is None


def test_classify_mn_edge_matrix_is_pe():
    rec = classify_gate(canonical_gate(WeylPoint(3 * PI / 4, PI / 4, PI / 8)))
    assert rec.pe_verdict
    assert abs(rec.invariants.g1) == pytest.approx(0.25, abs=1e-10)


def test_classify_edge_point_carries_edge_tag():
    rec = classify_gate(WeylPoint(PI / 4, PI / 4, 0.1))
    assert "EDGE_QP" in rec.tags
    assert rec.ep == pytest.approx(1 / 6, abs=1e-12)


def test_classify_min_ep_edge_point():
    rec = classify_gate(WeylPoint(PI / 4, PI / 4, PI / 4))
    assert rec.pe_verdict
    assert rec.geometric.is_pe and rec.invariant.is_pe
    assert rec.ep == pytest.approx(1 / 6, abs=1e-12)


@pytest.mark.parametrize(
    "point,expect_pe",
    [(WeylPoint(2.0, 1.0, 0.5), True), (WeylPoint(0.3, 0.2, 0.1), False)],
    ids=["interior-pe", "interior-non-pe"],
)
def test_classify_point_and_matrix_paths_agree(point, expect_pe):
    by_point = classify_gate(point)
    by_matrix = classify_gate(canonical_gate(point))
    assert by_point.pe_verdict == by_matrix.pe_verdict == expect_pe
    assert by_matrix.invariants.g1 == pytest.approx(by_point.invariants.g1, abs=1e-10)
    assert by_matrix.invariants.g2 == pytest.approx(by_point.invariants.g2, abs=1e-10)
    assert by_matrix.ep == pytest.approx(by_point.ep, abs=1e-10)
    assert by_matrix.ep == ep_from_g1_abs(abs(by_matrix.invariants.g1))  # a matrix record's ep is the |g1| route


def test_classify_matrix_checks_unitarity_once(monkeypatch):
    calls = []
    defect = linalg.unitarity_defect
    monkeypatch.setattr(linalg, "unitarity_defect", lambda u: calls.append(1) or defect(u))
    rec = classify_gate(canonical_gate(WeylPoint(2.0, 1.0, 0.5)))
    assert rec.pe_verdict
    assert len(calls) == 1


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_classify_rejects_non_finite_matrix(value):
    u = canonical_gate(WeylPoint(2.0, 1.0, 0.5))
    u[1, 2] = value
    with pytest.raises(NonUnitaryError):
        classify_gate(u)


def test_classify_rejects_point_outside_chamber():
    with pytest.raises(ValueError):
        classify_gate(WeylPoint(0.1, 0.5, 0.2))


def test_classify_sliver_point_gets_geometric_verdict():
    # off-boundary point where the box test over-admits: the record keeps both
    # routes and its verdict is the exact geometric one
    rec = classify_gate(WeylPoint(17 * PI / 24, 7 * PI / 24, 11 * PI / 48))
    assert rec.pe_verdict is False
    assert rec.geometric.is_pe is False
    assert rec.invariant.is_pe is True
    assert not rec.geometric.on_boundary
    assert not rec.invariant.on_boundary


def _reference_point_record(p: WeylPoint) -> GateRecord:
    """classify_gate(point) composed from the scalar helpers and the closed forms, kept as the reference for the point path."""
    geo = is_pe_geometric(p)
    inv = invariants_closed(p)
    ivd = is_pe_invariant(inv)
    return GateRecord(
        name=None,
        matrix=canonical_gate(p),
        point=p,
        invariants=inv,
        ep=float(ep_closed(*p)),
        pe_verdict=geo.is_pe,
        tags=frozenset(_value_tags(inv) | edge_tags(p)),
        geometric=geo,
        invariant=ivd,
    )


# the invariant g1_abs margin reads |g1| from its closed form, the reference from abs(g1):
# the two agree to a few ulps of 1/4
G1_ABS_MARGIN_TOL = 4.5e-16


def _assert_same_invariant_margins(got: dict, ref: dict):
    assert list(got) == list(ref)
    assert abs(got["g1_abs"] - ref["g1_abs"]) <= G1_ABS_MARGIN_TOL
    assert (got["g2_low"], got["g2_high"]) == (ref["g2_low"], ref["g2_high"])


def test_point_records_match_scalar_reference():
    coords = [
        np.array([tuple(rec.point) for rec in catalog_records()]),
        random_chamber_coords(9, 5000),
        chamber_lattice(25),
        chamber_lattice(16),  # holds split verdicts where only the invariant test is on its boundary
        *(_edge_coords(edge, np.linspace(0.0, 1.0, 101)) for edge in EdgeId),
    ]
    n_split = 0
    for p in (WeylPoint(*row) for row in np.concatenate(coords).tolist()):
        got, ref = classify_gate(p), _reference_point_record(p)
        n_split += ref.geometric.is_pe != ref.invariant.is_pe and not (
            ref.geometric.on_boundary or ref.invariant.on_boundary
        )
        for f in dataclasses.fields(GateRecord):
            if f.name not in ("matrix", "invariant"):
                assert getattr(got, f.name) == getattr(ref, f.name), f.name
        # bit for bit: the record's g1 comes from the trig of its point evaluation, the reference's from helpers.g1_closed
        assert [x.hex() for x in (got.invariants.g1.real, got.invariants.g1.imag, got.invariants.g2)] == [
            x.hex() for x in (ref.invariants.g1.real, ref.invariants.g1.imag, ref.invariants.g2)
        ]
        assert np.array_equal(got.matrix, ref.matrix)
        assert (got.invariant.is_pe, got.invariant.route) == (ref.invariant.is_pe, ref.invariant.route)
        assert got.invariant.on_boundary == ref.invariant.on_boundary
        _assert_same_invariant_margins(got.invariant.margins, ref.invariant.margins)
    assert n_split > 0  # the sample covers the sliver


def _reference_pe_mask(margins: dict) -> np.ndarray:
    """pe_mask as np.logical_and.reduce, kept as the reference."""
    return np.logical_and.reduce([m >= -PE_TOL for m in margins.values()])


def _reference_boundary_mask(margins: dict) -> np.ndarray:
    """_boundary_mask as np.logical_or.reduce, kept as the reference."""
    return np.logical_or.reduce([np.abs(m) <= PE_TOL for m in margins.values()])


_MASK_MARGINS = [0.0, -0.0, 0.5 * PE_TOL, -0.5 * PE_TOL, PE_TOL, -PE_TOL, 2 * PE_TOL, -2 * PE_TOL]


@pytest.mark.parametrize("n_margins", [2, 3])  # the geometric and the invariant test
def test_masks_match_logical_reduce_on_floats_and_arrays(n_margins):
    """pe_mask and _boundary_mask fold with & and |: a bool on float margins, a bool array on arrays."""
    combos = list(itertools.product(_MASK_MARGINS, repeat=n_margins))
    masks = [(pe_mask, _reference_pe_mask), (classify._boundary_mask, _reference_boundary_mask)]
    for combo in combos:
        margins = dict(zip("abc", combo))
        for fn, ref in masks:
            got = fn(margins)
            assert type(got) is bool and got == bool(ref(margins)), (fn.__name__, combo)
    columns = dict(zip("abc", np.array(combos).T))
    for fn, ref in masks:
        got, want = fn(columns), ref(columns)
        assert got.dtype == bool and np.array_equal(got, want), fn.__name__


def _verdicts(cols: dict) -> dict:
    """The verdicts scan and verify_theorems form from an evaluation's margins with pe_mask and _boundary_mask."""
    geo, inv = cols["geo_margins"], cols["inv_margins"]
    boundary = classify._boundary_mask(geo) | classify._boundary_mask(inv)
    return {"pe_geometric": pe_mask(geo), "pe_invariant": pe_mask(inv), "boundary": boundary}


def _column_rows(evaluations) -> tuple[np.ndarray, np.ndarray]:
    """The float columns of _evaluate results on one point each, as int64 bits, and the verdicts formed
    from their margins, one row per point."""
    floats, bools = [], []
    for cols in evaluations:
        floats.append([cols["g1_abs"], cols["g2"], cols["ep"], *cols["geo_margins"].values(), *cols["inv_margins"].values()])
        bools.append(list(_verdicts(cols).values()))
    n = len(floats)
    return np.array(floats, dtype=np.float64).reshape(n, -1).view(np.int64), np.array(bools, dtype=bool).reshape(n, -1)


def test_point_float_evaluation_matches_scalar_and_array_paths():
    """classify_gate evaluates a point as three Python floats (_point_columns).

    Every column has the bits of _evaluate on the coordinates as numpy scalars, the path it
    replaced, and of _evaluate on the same points as one array: the closed forms square with a
    product, which rounds the same on floats, numpy scalars and arrays.
    """
    coords = np.concatenate([
        np.array([tuple(rec.point) for rec in catalog_records()]),
        random_chamber_coords(9, 50000),
        chamber_lattice(16),
        chamber_lattice(25),
        *(_edge_coords(edge, np.linspace(0.0, 1.0, 101)) for edge in EdgeId),
    ])
    rows = coords.tolist()
    got_f, got_b = _column_rows(classify._point_columns(WeylPoint(*row))[0] for row in rows)
    ref_f, ref_b = _column_rows(classify._evaluate(tuple(row)) for row in rows)
    # one evaluation over every point, turned to one row per point: an array evaluates each element
    # on its own, so its rows are those of 1-element arrays, as the first 3000 points check
    arr_f, arr_b = (c.reshape(-1, len(coords)).T for c in _column_rows([classify._evaluate(coords.T)]))
    one_f, one_b = _column_rows(classify._evaluate(row[:, None]) for row in coords[:3000])
    assert np.array_equal(one_f, arr_f[:3000]) and np.array_equal(one_b, arr_b[:3000])
    for f, b in ((ref_f, ref_b), (arr_f, arr_b)):
        assert np.array_equal(got_f, f) and np.array_equal(got_b, b)


def _reference_matrix_record(u: np.ndarray, name: str | None = None) -> GateRecord:
    """classify_gate(matrix) as its own branch, kept as the reference for the matrix path."""
    u = require_unitary(u)
    inv = _invariants(u)
    ivd = is_pe_invariant(inv)
    return GateRecord(
        name=name,
        matrix=u,
        point=None,
        invariants=inv,
        ep=ep_from_g1_abs(abs(inv.g1)),
        pe_verdict=ivd.is_pe,
        tags=frozenset(_value_tags(inv)),
        geometric=None,
        invariant=ivd,
    )


def _matrix_outcome(fn, u, name):
    try:
        return fn(u, name=name)
    except (ValueError, ConsistencyError) as exc:
        return exc


def test_matrix_records_match_branch_reference():
    rng = np.random.default_rng(12)
    coords = np.concatenate([
        np.array([tuple(rec.point) for rec in catalog_records()]),
        random_chamber_coords(13, 2000 - len(catalog_records())),
    ])
    n_raised = 0
    for i, row in enumerate(coords.tolist()):
        u = dress(canonical_gate(WeylPoint(*row)), rng) * np.exp(1j * rng.uniform(0.0, 2.0 * PI))
        if rng.random() < 0.3:
            u = np.round(u, 8)
        name = f"g{i}" if i % 2 else None
        got, ref = _matrix_outcome(classify_gate, u, name), _matrix_outcome(_reference_matrix_record, u, name)
        assert type(got) is type(ref)
        if isinstance(ref, Exception):
            n_raised += 1
            assert str(got) == str(ref)
            continue
        for f in dataclasses.fields(GateRecord):
            if f.name != "matrix":
                assert getattr(got, f.name) == getattr(ref, f.name), f.name
        assert np.array_equal(got.matrix, ref.matrix)
    assert n_raised > 0


# ------------------------------------------------------------- lattice sweeps


def test_verify_theorems_small_grid():
    rep = verify_theorems(10)
    assert rep.passed
    assert rep.n_violations == 0
    assert rep.violations == {label: [] for label in THEOREM_CLAIMS}
    assert rep.n_lattice == 1000
    assert rep.n_chamber == 190
    assert rep.n_pe > 0
    assert rep.n_boundary_exempt == 26
    # exempt points stay a small fraction of the lattice
    assert rep.n_boundary_exempt / rep.n_lattice < 0.05


def test_verify_theorems_grid25_detects_invariant_box_sliver():
    """The invariant-pair test over-admits a thin region near |g1| = 1/4.

    (|g1|, g2) fix only two of the three symmetric functions of cos 2ci,
    so distinct local classes share the pair; just inside |g1| = 1/4 some
    of those classes are not perfect entanglers although the pair passes
    the box test. The sweep must surface every such lattice point in the
    converse and equivalence buckets while the one-directional checks
    (g2 bound and ep range for true perfect entanglers) stay clean.
    """
    rep = verify_theorems(25)
    assert len(rep.violations["g2 converse"]) == 58
    assert len(rep.violations["equivalence"]) == 58
    assert rep.violations["g2 bound"] == []
    assert rep.violations["ep range"] == []
    # every flagged point is truly non-PE geometrically yet passes the box
    assert all("invariant True" in line for line in rep.violations["equivalence"])


@pytest.mark.parametrize("grid_n", [2, 10, 25])
def test_verify_theorems_reports_each_claim_once_in_print_order(grid_n):
    rep = verify_theorems(grid_n)
    assert list(rep.violations) == list(THEOREM_CLAIMS)
    assert rep.n_violations == sum(len(lines) for lines in rep.violations.values())


def test_invariant_box_counterexample_pair():
    """Two gates with identical (|g1|, g2); only one is a perfect entangler.

    With xi = cos 2ci, |g1| = (1 + e2)/4 and g2 = e1 depend only on the
    first two symmetric functions of (x1, x2, x3). Holding them fixed and
    moving the third gives a different local class with the same pair.
    """
    p_no = WeylPoint(17 * PI / 24, 7 * PI / 24, 11 * PI / 48)
    closed_no = classify_gate(p_no).invariants
    e1 = closed_no.g2
    e2 = 4 * abs(closed_no.g1) - 1.0
    # companion on the same (e1, e2) level set with x2 = 0 (c2 = pi/4)
    disc = math.sqrt(e1 * e1 - 4 * e2)
    xs = ((e1 + disc) / 2, 0.0, (e1 - disc) / 2)
    cs = sorted((math.acos(x) / 2 for x in xs), reverse=True)
    p_yes = WeylPoint(*cs)

    closed_yes = classify_gate(p_yes).invariants
    assert abs(closed_yes.g1) == pytest.approx(abs(closed_no.g1), abs=1e-12)
    assert closed_yes.g2 == pytest.approx(closed_no.g2, abs=1e-12)
    assert not is_pe_geometric(p_no).is_pe
    assert is_pe_geometric(p_yes).is_pe
    # the box test cannot tell them apart
    inv_no = classify_gate(canonical_gate(p_no)).invariants
    assert is_pe_invariant(inv_no).is_pe


def test_verify_theorems_rejects_tiny_grid():
    with pytest.raises(ValueError):
        verify_theorems(1)


@pytest.mark.parametrize("grid_n, exempt", [(10, 26), (25, 187), (40, 422)])
def test_verify_theorems_boundary_count_matches_scalar_api(grid_n, exempt):
    assert verify_theorems(grid_n).n_boundary_exempt == boundary_exempt_count(grid_n) == exempt


def test_theorem_report_is_frozen():
    rep = verify_theorems(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.n_boundary_exempt = 0


def _reference_verify_theorems(grid_n: int) -> TheoremReport:
    """verify_theorems with one WeylPoint and its repr per reported index, kept as the reference."""
    pts = chamber_lattice(grid_n)
    cols = point_columns(*pts.T)
    g1a, g2, ep = cols["g1_abs"], cols["g2"], cols["ep"]
    verdicts = point_verdicts(cols)
    geo, inv, boundary = verdicts["pe_geometric"], verdicts["pe_invariant"], verdicts["boundary"]
    g2_inside = (-1.0 + PE_TOL <= g2) & (g2 <= 1.0 - PE_TOL)

    def at(i) -> WeylPoint:
        return WeylPoint(*pts[i].tolist())

    return TheoremReport(
        grid_n=grid_n,
        n_lattice=grid_n**3,
        n_chamber=len(pts),
        n_pe=int(np.count_nonzero(geo)),
        n_boundary_exempt=int(np.count_nonzero(boundary)),
        violations={
            "g2 bound": [
                f"perfect entangler with g2 = {float(g2[i])!r} at {at(i)}"
                for i in np.flatnonzero(geo & ((g2 < -1.0 - PE_TOL) | (g2 > 1.0 + PE_TOL)))
            ],
            "g2 converse": [
                f"non-perfect entangler with g2 = {float(g2[i])!r} at {at(i)}"
                for i in np.flatnonzero(~boundary & ~geo & (g1a <= 0.25 + PE_TOL) & g2_inside)
            ],
            "equivalence": [
                f"geometric {bool(geo[i])} vs invariant {bool(inv[i])} at {at(i)}"
                for i in np.flatnonzero(~boundary & (geo != inv))
            ],
            "ep range": [
                f"perfect entangler with e_p = {float(ep[i])!r} at {at(i)}"
                for i in np.flatnonzero(geo & ((ep < PE_EP_MIN - PE_TOL) | (ep > EP_MAX + PE_TOL)))
            ],
        },
    )


def test_verify_theorems_matches_per_index_reference():
    for grid_n in [*range(2, 65), 128]:
        rep = verify_theorems(grid_n)
        assert rep == _reference_verify_theorems(grid_n), grid_n


_EVALUATE_COLUMNS = ["g1_abs", "g2", "ep", "geo_margins", "inv_margins"]


def _flat(cols: dict, verdicts=_verdicts) -> dict:
    """Every column of an evaluation by name, each margin as its own column named after its set,
    then the verdicts formed from its margins."""
    flat = {k: v for k, v in cols.items() if not k.endswith("_margins")}
    for key in ("geo_margins", "inv_margins"):
        flat.update({f"{key}.{name}": m for name, m in cols[key].items()})
    return {**flat, **verdicts(cols)}


def test_lattice_columns_match_the_coordinate_forms_bit_for_bit():
    """The per-axis trig tables give every point the bits of the coordinate forms on its coordinates."""
    for grid_n in [*range(2, 65), 128, 255]:
        axes, blocks = _lattice_blocks(grid_n, 1 << 22)
        (ijk, cols), = blocks
        pts = chamber_lattice(grid_n)
        assert np.array_equal(np.column_stack([axis[i] for axis, i in zip(axes, ijk)]), pts)
        assert list(cols) == _EVALUATE_COLUMNS
        got = _flat(cols)
        assert len(got) == 11
        for lo in range(0, len(pts), 1 << 18):  # the reference in slices bounds the peak at grid 255
            ref = _flat(point_columns(*pts[lo:lo + (1 << 18)].T), point_verdicts)
            for name, want in ref.items():
                have = got[name][lo:lo + len(want)]
                if want.dtype == bool:
                    assert np.array_equal(have, want), (grid_n, name)
                else:
                    assert np.array_equal(have.view(np.int64), want.view(np.int64)), (grid_n, name)


@pytest.mark.parametrize("seed", [0, 3, 2025, -1])
def test_sampled_columns_match_the_coordinate_forms_bit_for_bit(seed):
    """verify_route_agreement evaluates each sampler pass of random_chamber_coords as a (3, k) view."""
    for n in (1, 7, 600, 30_000):
        passes = list(_chamber_coord_passes(seed, n))
        assert np.array_equal(np.concatenate(passes), random_chamber_coords(seed, n))
        assert len(passes) >= 3 or n < 30_000  # about 180000 attempts, 65536 per pass
        for pts in passes:
            cols = classify._evaluate(pts.T)
            assert list(cols) == _EVALUATE_COLUMNS
            got, ref = _flat(cols), _flat(point_columns(*pts.T), point_verdicts)
            assert list(got) == list(ref)
            for name, want in ref.items():
                have = got[name]
                assert (have.dtype, have.tobytes()) == (want.dtype, want.tobytes()), (seed, n, name)


def test_lattice_columns_do_not_depend_on_the_blocks():
    _, (whole,) = _lattice_blocks(48, 1 << 22)
    _, blocks = _lattice_blocks(48, 1024)
    blocks = list(blocks)
    assert len(blocks) == 19
    assert [ijk.shape[1] for ijk, _ in blocks[:-1]] == [1024] * 18
    assert np.concatenate([ijk for ijk, _ in blocks], axis=1).tobytes() == whole[0].tobytes()
    for name, col in _flat(whole[1]).items():
        assert np.concatenate([_flat(c)[name] for _, c in blocks]).tobytes() == col.tobytes(), name


@pytest.mark.parametrize("rows", [1000, 4096])
def test_verify_theorems_does_not_depend_on_the_block_size(monkeypatch, rows):
    """Each grid is one block unpatched. With 1000 rows the sliver's 58 and 290 equivalence lines
    at grids 25 and 40 span several blocks; with 4096, those of grids 40 and 48 do."""
    whole = {grid_n: verify_theorems(grid_n) for grid_n in (25, 40, 48)}
    assert max(rep.n_chamber for rep in whole.values()) <= classify._THEOREM_BLOCK
    monkeypatch.setattr(classify, "_THEOREM_BLOCK", rows)
    for grid_n, rep in whole.items():
        assert verify_theorems(grid_n) == rep, grid_n
    assert len(whole[25].violations["equivalence"]) == 58
    assert len(whole[40].violations["equivalence"]) == 290


def test_verify_theorems_holds_one_block_beyond_its_report():
    """Peak traced memory less what the returned report holds, at grid 200 (1.3M chamber points).

    Evaluating the whole lattice at once traces about 90 MB over the report, one block of
    _THEOREM_BLOCK points about 16 MB; the bound lies between the two.
    """
    tracemalloc.start()
    try:
        rep = verify_theorems(200)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.n_chamber > 20 * classify._THEOREM_BLOCK
    assert peak - held < 32 * 2**20
