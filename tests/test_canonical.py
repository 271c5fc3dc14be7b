import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from gatepower import rng
from gatepower.canonical import (
    EdgeId,
    WeylPoint,
    _edge_coords,
    _lattice_axes,
    _sort_desc,
    canonical_gate,
    canonical_gate_array,
    chamber_mask,
    edge_point,
    edge_tags,
    in_weyl_chamber,
    random_chamber_coords,
)
from gatepower.catalog import catalog_records
from gatepower.linalg import SWAP, unitarity_defect

PI = math.pi


def test_weyl_point_unpacks():
    p = WeylPoint(0.3, 0.2, 0.1)
    c1, c2, c3 = p
    assert (c1, c2, c3) == (0.3, 0.2, 0.1)
    assert tuple(p) == (0.3, 0.2, 0.1)


def test_weyl_point_requires_finite():
    with pytest.raises(ValueError):
        WeylPoint(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        WeylPoint(0.0, float("inf"), 0.0)


def test_canonical_gate_identity():
    assert_allclose(canonical_gate(WeylPoint(0, 0, 0)), np.eye(4), atol=1e-15)


def test_canonical_gate_swap_class():
    # the SWAP-class vertex gives SWAP times the phase e^{-i pi/4}
    u = canonical_gate(WeylPoint(PI / 2, PI / 2, PI / 2))
    assert_allclose(u, np.exp(-1j * PI / 4) * SWAP, atol=1e-15)


def test_canonical_gate_cnot_class_structure():
    u = canonical_gate(WeylPoint(PI / 2, 0, 0))
    s = 1 / math.sqrt(2)
    expected = np.array(
        [
            [s, 0, 0, -1j * s],
            [0, s, -1j * s, 0],
            [0, -1j * s, s, 0],
            [-1j * s, 0, 0, s],
        ]
    )
    assert_allclose(u, expected, atol=1e-15)


def test_apply_cnot_class_to_00():
    u = canonical_gate(WeylPoint(PI / 2, 0, 0))
    out = u @ np.array([1, 0, 0, 0], dtype=complex)
    expected = np.array([1, 0, 0, -1j]) / math.sqrt(2)
    assert_allclose(out, expected, atol=1e-15)


def test_canonical_gate_is_unitary_everywhere():
    for p in random_chamber_coords(2024, 1000).tolist():
        assert unitarity_defect(canonical_gate(p)) < 1e-12


def test_canonical_gate_matches_exponential_form():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    xx, yy, zz = np.kron(x, x), np.kron(y, y), np.kron(z, z)
    for p in random_chamber_coords(5, 50).tolist():
        c1, c2, c3 = p
        ref = expm(-0.5j * (c1 * xx + c2 * yy + c3 * zz))
        assert np.max(np.abs(canonical_gate(p) - ref)) < 1e-12


def test_canonical_gate_array_matches_exponential_form():
    # an independent reference; canonical_gate has the bits of canonical_gate_array (test below)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    xx, yy, zz = np.kron(x, x), np.kron(y, y), np.kron(z, z)
    pts = random_chamber_coords(11, 2000)
    stack = canonical_gate_array(*pts.T)
    ref = np.stack([expm(-0.5j * (c1 * xx + c2 * yy + c3 * zz)) for c1, c2, c3 in pts.tolist()])
    assert np.max(np.abs(stack - ref)) < 1e-14


def test_canonical_gate_matches_canonical_gate_array_bit_for_bit():
    """canonical_gate forms one point's entries as Python complex numbers, with the bits of
    canonical_gate_array on that point, alone and in a stack: the path it replaced."""
    pts = np.concatenate([
        np.array([tuple(rec.point) for rec in catalog_records()]),
        random_chamber_coords(9, 20000),
        *(_edge_coords(edge, np.linspace(0.0, 1.0, 41)) for edge in EdgeId),
        [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.5, 0.5, -0.0], [PI, 0.0, 0.0], [PI / 2, PI / 2, PI / 2], [3.0, 0.1, 0.1]],
    ])
    stack = canonical_gate_array(*pts.T)
    for row, want in zip(pts.tolist(), stack):
        got = canonical_gate(WeylPoint(*row))
        assert got.dtype == complex and got.shape == (4, 4)
        assert got.tobytes() == canonical_gate_array(*row).tobytes() == want.tobytes(), row


def test_canonical_gate_array_shapes():
    assert canonical_gate_array(0.3, 0.2, 0.1).shape == (4, 4)
    c = random_chamber_coords(3, 7)
    assert canonical_gate_array(*c.T).shape == (7, 4, 4)
    c1 = np.linspace(1.0, 2.0, 5)[:, None]
    c2 = np.linspace(0.0, 0.5, 3)
    grid = canonical_gate_array(c1, c2, 0.25)
    assert grid.shape == (5, 3, 4, 4)
    assert np.array_equal(grid[4, 2], canonical_gate(WeylPoint(2.0, 0.5, 0.25)))


@pytest.mark.parametrize(
    "point,inside",
    [
        ((0, 0, 0), True),
        ((PI, 0, 0), True),
        ((PI / 2, PI / 2, PI / 2), True),
        ((PI / 2, PI / 4, PI / 4), True),
        ((PI / 4, PI / 2, 0), False),  # c2 > c1
        ((PI / 2, PI / 4, PI / 3), False),  # c3 > c2
        ((0.9 * PI, 0.2 * PI, 0), False),  # c1 + c2 > pi
        ((0.3, 0.2, -0.05), False),
    ],
)
def test_in_weyl_chamber(point, inside):
    assert in_weyl_chamber(WeylPoint(*point)) is inside


def test_in_weyl_chamber_tolerance():
    # violations below the slack are accepted
    assert in_weyl_chamber(WeylPoint(0.5, 0.5 + 1e-13, 0.0))
    assert in_weyl_chamber(WeylPoint(0.5, 0.4, -1e-13))
    # d past each of c1 >= c2, c2 >= c3, c3 >= 0 and c1 + c2 <= pi: half the 1e-12 slack is
    # accepted, twice it is refused
    faces = (
        lambda d: (0.5, 0.5 + d, 0.4),
        lambda d: (0.5, 0.4, 0.4 + d),
        lambda d: (0.5, 0.4, -d),
        lambda d: (PI - 1.0 + d, 1.0, 0.5),
    )
    for past in faces:
        assert in_weyl_chamber(WeylPoint(*past(0.5e-12)))
        assert not in_weyl_chamber(WeylPoint(*past(2e-12)))


def test_mirror_example():
    m = _sort_desc(PI - 0.9 * PI, 0.4 * PI, 0.0)
    assert_allclose(m, (0.4 * PI, 0.1 * PI, 0.0), atol=1e-15)


def test_mirror_fixes_half_chamber_boundary():
    p = (PI / 2, 0.3, 0.1)
    assert_allclose(_sort_desc(PI - p[0], p[1], p[2]), p, atol=1e-15)


def test_mirror_is_involution_and_stays_in_chamber():
    c = random_chamber_coords(77, 200).T
    m = _sort_desc(PI - c[0], c[1], c[2])
    assert np.all(chamber_mask(*m))
    assert_allclose(_sort_desc(PI - m[0], m[1], m[2]), c, atol=1e-12)


EDGE_ENDPOINTS = {
    EdgeId.QP: ((PI / 4, PI / 4, 0), (PI / 4, PI / 4, PI / 4)),
    EdgeId.MN: ((3 * PI / 4, PI / 4, 0), (3 * PI / 4, PI / 4, PI / 4)),
    EdgeId.PN: ((PI / 4, PI / 4, PI / 4), (3 * PI / 4, PI / 4, PI / 4)),
    EdgeId.LQ: ((PI / 2, 0, 0), (PI / 4, PI / 4, 0)),
    EdgeId.LN: ((PI / 2, 0, 0), (3 * PI / 4, PI / 4, PI / 4)),
    EdgeId.A2P: ((PI / 2, PI / 2, 0), (PI / 4, PI / 4, PI / 4)),
}


@pytest.mark.parametrize("edge", list(EdgeId))
def test_edge_endpoints(edge):
    start, end = EDGE_ENDPOINTS[edge]
    assert_allclose(tuple(edge_point(edge, 0.0)), start, atol=1e-15)
    assert_allclose(tuple(edge_point(edge, 1.0)), end, atol=1e-15)


@pytest.mark.parametrize("edge", list(EdgeId))
def test_edges_stay_in_chamber(edge):
    for t in np.linspace(0, 1, 41):
        assert in_weyl_chamber(edge_point(edge, float(t)))


@pytest.mark.parametrize("scale", [0.5, 2.0])
@pytest.mark.parametrize("edge", list(EdgeId))
def test_edge_tag_holds_within_its_slack(edge, scale):
    # moving c2 off an edge's midpoint moves the point that far off the edge; the slack is 1e-9
    c1, c2, c3 = edge_point(edge, 0.5)
    for d in (scale * 1e-9, -scale * 1e-9):
        tags = edge_tags(WeylPoint(c1, c2 + d, c3))
        assert (f"EDGE_{edge.value}" in tags) == (scale < 1.0), d


def test_edge_point_rejects_out_of_range():
    with pytest.raises(ValueError):
        edge_point(EdgeId.QP, -0.01)
    with pytest.raises(ValueError):
        edge_point(EdgeId.QP, 1.01)


def test_edge_point_rejects_edge_names_given_as_strings():
    with pytest.raises(ValueError):
        edge_point("QP", 0.5)


def _six_branch_edge_point(edge: EdgeId, t: float) -> tuple[float, float, float]:
    """The hand-written per-edge formulas, kept as the bit-exact reference for edge_point."""
    quarter, half = PI / 4, PI / 2
    th = t * quarter
    return {
        EdgeId.QP: (quarter, quarter, th),
        EdgeId.MN: (3 * quarter, quarter, th),
        EdgeId.PN: (quarter + t * half, quarter, quarter),
        EdgeId.LQ: (half - th, th, 0.0),
        EdgeId.LN: (half + th, th, th),
        EdgeId.A2P: (half - th, half - th, th),
    }[edge]


# seeded random parameters, the ends of [0, 1], its midpoint, the last float below 1,
# the smallest subnormal and the linspace grids scan --edge uses
EDGE_PARAMS = np.concatenate(
    [
        np.random.default_rng(20031).random(20_000),
        [0.0, 1.0, 0.5, np.nextafter(1.0, 0.0), 5e-324],
        *(np.linspace(0.0, 1.0, n) for n in (2, 11, 101, 257, 1001, 4096)),
    ]
)


@pytest.mark.parametrize("edge", list(EdgeId))
def test_edge_point_is_bit_identical_to_six_branch_reference(edge):
    got = np.array([tuple(edge_point(edge, t)) for t in EDGE_PARAMS.tolist()])
    ref = np.array([_six_branch_edge_point(edge, t) for t in EDGE_PARAMS.tolist()])
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    # the array form scan --edge evaluates block by block
    assert np.array_equal(_edge_coords(edge, EDGE_PARAMS).view(np.int64), ref.view(np.int64))


def test_edge_tags():
    assert edge_tags(edge_point(EdgeId.QP, 0.5)) == {"EDGE_QP"}
    assert edge_tags(edge_point(EdgeId.MN, 0.25)) == {"EDGE_MN"}
    # P vertex joins QP, PN and A2P
    p_vertex = WeylPoint(PI / 4, PI / 4, PI / 4)
    assert edge_tags(p_vertex) == {"EDGE_QP", "EDGE_PN", "EDGE_A2P"}
    # L vertex starts both LQ and LN
    l_vertex = WeylPoint(PI / 2, 0, 0)
    assert {"EDGE_LQ", "EDGE_LN"} <= edge_tags(l_vertex)
    assert edge_tags(WeylPoint(1.1, 0.6, 0.2)) == set()


def _six_branch_edge_tags(p: WeylPoint) -> set[str]:
    """The hand-written per-edge equations, each up to 1e-9, kept as the reference for edge_tags."""
    c1, c2, c3 = p
    quarter, half, tol = PI / 4, PI / 2, 1e-9
    tags = set()
    if abs(c1 - quarter) <= tol and abs(c2 - quarter) <= tol and -tol <= c3 <= quarter + tol:
        tags.add("EDGE_QP")
    if abs(c1 - 3 * quarter) <= tol and abs(c2 - quarter) <= tol and -tol <= c3 <= quarter + tol:
        tags.add("EDGE_MN")
    if abs(c2 - quarter) <= tol and abs(c3 - quarter) <= tol and quarter - tol <= c1 <= 3 * quarter + tol:
        tags.add("EDGE_PN")
    if abs(c3) <= tol and abs(c1 + c2 - half) <= tol and quarter - tol <= c1 <= half + tol:
        tags.add("EDGE_LQ")
    if abs(c2 - c3) <= tol and abs(c1 - half - c2) <= tol and -tol <= c2 <= quarter + tol:
        tags.add("EDGE_LN")
    if abs(c1 - c2) <= tol and abs(c1 + c3 - half) <= tol and -tol <= c3 <= quarter + tol:
        tags.add("EDGE_A2P")
    return tags


def _edge_probe_points() -> list[WeylPoint]:
    """Each edge at t in {0, 1/4, 1/3, 1/2, 1}, as is and with each coordinate in turn moved by
    +-{0.5, 0.99, 1.01, 2} x 1e-9 (750 points), then the catalog points and 20000 random chamber points."""
    points = []
    for edge in EdgeId:
        for t in (0.0, 0.25, 1 / 3, 0.5, 1.0):
            c = tuple(edge_point(edge, t))
            points.append(WeylPoint(*c))
            for i in range(3):
                for d in (0.5e-9, 0.99e-9, 1.01e-9, 2e-9, -0.5e-9, -0.99e-9, -1.01e-9, -2e-9):
                    points.append(WeylPoint(*(x + d * (j == i) for j, x in enumerate(c))))
    points += [rec.point for rec in catalog_records()]
    points += [WeylPoint(*c) for c in random_chamber_coords(3, 20_000).tolist()]
    return points


def test_edge_tags_match_the_six_branch_reference():
    points = _edge_probe_points()
    assert len(points) == 20_759
    mismatched = [p for p in points if edge_tags(p) != _six_branch_edge_tags(p)]
    assert not mismatched, mismatched[:5]


def _reference_lattice_indices(grid_n: int) -> np.ndarray:
    """_lattice_axes's indices as np.nonzero of the whole grid_n^3 chamber mask, kept as the reference."""
    c1s = np.linspace(0.0, PI, grid_n)
    c2s = np.linspace(0.0, PI / 2, grid_n)
    return np.array(np.nonzero(chamber_mask(c1s[:, None, None], c2s[:, None], c2s)), dtype=np.uint8)


def test_lattice_axes_indices_match_the_whole_mask_reference():
    for grid_n in [*range(2, 65), 128, 255, 256]:
        _, ijk = _lattice_axes(grid_n)
        want = _reference_lattice_indices(grid_n)
        assert ijk.dtype == want.dtype and ijk.shape == want.shape, grid_n
        assert ijk.tobytes() == want.tobytes(), grid_n


def test_random_chamber_coords_deterministic():
    a = random_chamber_coords(123, 40)
    b = random_chamber_coords(123, 40)
    c = random_chamber_coords(124, 40)
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, c)
    assert a.shape == (40, 3)
    assert all(in_weyl_chamber(WeylPoint(*p)) for p in a.tolist())
    # covers both halves of the chamber
    assert np.any(a[:, 0] > PI / 2)
    assert np.any(a[:, 0] < PI / 2)


def _fixed_pass_chamber_coords(seed: int, count: int) -> np.ndarray:
    """random_chamber_coords as it was with a fixed 128 attempts per pass, kept as the reference."""
    scale = np.array([math.pi, math.pi / 2, math.pi / 2])
    kept = [np.empty((0, 3))]
    start = 0
    while sum(map(len, kept)) < count:
        c = scale * rng.uniform_stream(seed, start, 3 * 128).reshape(128, 3)
        start += 3 * 128
        kept.append(c[chamber_mask(*c.T)])
    return np.concatenate(kept)[:count]


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, -1, 2**64 + 1])
def test_random_chamber_coords_is_bit_identical_to_fixed_pass_reference(seed):
    # the points are a prefix of one fixed stream, so the pass size must not change them
    counts = [0, 1, 2, 21, 127, 128, 129, 1000, 4097] + ([100_000] if seed in (0, -1) else [])
    for count in counts:
        got = random_chamber_coords(seed, count)
        assert got.shape == (count, 3)
        assert got.tobytes() == _fixed_pass_chamber_coords(seed, count).tobytes()


def test_random_chamber_coords_rejects_a_negative_count():
    with pytest.raises(ValueError, match="count must be non-negative, got -1"):
        random_chamber_coords(0, -1)


@pytest.fixture
def uniform_stream_calls(monkeypatch) -> list:
    """The argument tuples of every rng.uniform_stream call made while the test runs."""
    calls = []
    uniform_stream = rng.uniform_stream
    monkeypatch.setattr(rng, "uniform_stream", lambda *args: calls.append(args) or uniform_stream(*args))
    return calls


def test_random_chamber_coords_draws_in_few_passes(uniform_stream_calls):
    assert len(random_chamber_coords(3, 100_000)) == 100_000
    assert len(uniform_stream_calls) <= 20


@pytest.mark.parametrize("count", [200, 400, 600])
def test_random_chamber_coords_draws_small_samples_in_one_pass(uniform_stream_calls, count):
    # sweep-sized samples: 7 attempts per point keep each of seeds 0-99 to one uniform_stream call
    for seed in range(100):
        assert len(random_chamber_coords(seed, count)) == count
    assert len(uniform_stream_calls) == 100
