"""Tests for the entangling power routes."""
import functools
import math

import numpy as np
import pytest

from gatepower import epower
from gatepower.canonical import WeylPoint, canonical_gate_array, random_chamber_coords
from gatepower.catalog import catalog_records, verify_monte_carlo
from gatepower.classify import classify_gate, verify_route_agreement
from gatepower.epower import (
    EP_MAX,
    EpEstimate,
    ep_from_g1_abs,
    ep_monte_carlo,
    ep_monte_carlo_many,
    ep_operator_exact,
)
from gatepower.errors import NonUnitaryError
from gatepower.invariants import _RANGE_TOL
from gatepower.linalg import INGEST_UNITARY_TOL, SWAP, unitarity_defect
from gatepower.rng import _box_muller_complex, raw_stream, uniform_stream

from helpers import dress, haar_unitary

PI = math.pi

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


# ---------------------------------------------------------------- closed forms


def test_ep_from_g1_abs_extremes():
    assert ep_from_g1_abs(1.0) == pytest.approx(0.0, abs=1e-15)
    assert ep_from_g1_abs(0.0) == pytest.approx(2 / 9, abs=1e-15)
    assert ep_from_g1_abs(0.25) == pytest.approx(1 / 6, abs=1e-15)


def test_ep_from_g1_abs_domain():
    with pytest.raises(ValueError):
        ep_from_g1_abs(-0.1)
    with pytest.raises(ValueError):
        ep_from_g1_abs(1.1)
    # tolerance slack at the boundaries: half the 1e-9 slack is accepted, twice it is refused
    ep_from_g1_abs(-1e-10)
    ep_from_g1_abs(1.0 + 1e-10)
    for past in (lambda x: -x, lambda x: 1.0 + x):
        ep_from_g1_abs(past(0.5e-9))
        with pytest.raises(ValueError):
            ep_from_g1_abs(past(2e-9))


@pytest.mark.parametrize("value", [-0.1, 1.1, -2 * _RANGE_TOL, 1.0 + 2 * _RANGE_TOL, math.nan, math.inf, -math.inf])
def test_ep_from_g1_abs_refuses_the_same_values_on_floats_and_arrays(value):
    for g1_abs in (value, np.float64(value), np.array(value), np.array([0.5, value])):
        with pytest.raises(ValueError) as exc:
            ep_from_g1_abs(g1_abs)
        assert str(exc.value) == f"|g1| must lie in [0, 1], got {g1_abs!r}"


@pytest.mark.parametrize("value", [-_RANGE_TOL, 0.0, 0.25, 1.0, 1.0 + _RANGE_TOL])
def test_ep_from_g1_abs_accepts_the_same_values_on_floats_and_arrays(value):
    ep = ep_from_g1_abs(value)
    assert type(ep) is float
    assert ep == ep_from_g1_abs(np.float64(value)) == ep_from_g1_abs(np.array([value]))[0]


def test_ep_closed_form_extremes():
    assert classify_gate(WeylPoint(0, 0, 0)).ep == pytest.approx(0.0, abs=1e-15)
    assert classify_gate(WeylPoint(PI / 2, PI / 2, PI / 2)).ep == pytest.approx(0.0, abs=1e-13)
    assert classify_gate(WeylPoint(PI / 2, 0, 0)).ep == pytest.approx(2 / 9, abs=1e-13)


@pytest.mark.parametrize("eta", np.linspace(0.0, PI / 2, 6))
def test_ep_closed_form_constant_on_pn_segment(eta):
    assert classify_gate(WeylPoint(PI / 4 + eta, PI / 4, PI / 4)).ep == pytest.approx(
        1 / 6, abs=1e-13
    )


# --------------------------------------------------------------- operator route


def test_operator_route_identity():
    assert ep_operator_exact(np.eye(4)) == pytest.approx(0.0, abs=1e-12)


def test_operator_route_swap():
    assert ep_operator_exact(SWAP) == pytest.approx(0.0, abs=1e-12)


def test_operator_route_cnot():
    value = ep_operator_exact(CNOT)
    assert type(value) is float
    assert value == pytest.approx(2 / 9, abs=1e-12)


def test_operator_route_entanglement_of_fixed_gates():
    assert epower._operator_entanglement(np.eye(4, dtype=complex)) == pytest.approx(0.0, abs=1e-15)
    assert epower._operator_entanglement(CNOT) == pytest.approx(0.5, abs=1e-15)
    assert epower._operator_entanglement(SWAP) == pytest.approx(0.75, abs=1e-15)


def test_operator_route_canonical_examples():
    assert ep_operator_exact(canonical_gate_array(PI / 2, 0, 0)) == pytest.approx(
        2 / 9, abs=1e-12
    )
    assert ep_operator_exact(canonical_gate_array(PI / 4, PI / 4, PI / 4)) == pytest.approx(
        1 / 6, abs=1e-12
    )


def test_three_routes_agree():
    for p in random_chamber_coords(11, 50).tolist():
        rec = classify_gate(WeylPoint(*p))
        closed = rec.ep
        assert closed == pytest.approx(ep_from_g1_abs(abs(rec.invariants.g1)), abs=1e-12)
        assert closed == pytest.approx(ep_operator_exact(canonical_gate_array(*p)), abs=1e-10)
        assert -1e-9 <= closed <= EP_MAX + 1e-9


def test_operator_route_local_dressing_invariance():
    rng = np.random.default_rng(77)
    for p in random_chamber_coords(21, 20).tolist():
        u = canonical_gate_array(*p)
        assert ep_operator_exact(dress(u, rng)) == pytest.approx(
            ep_operator_exact(u), abs=1e-9
        )


def test_operator_route_rounded_dressed_gates():
    # gates as read from a file: locally dressed, globally phase-shifted and
    # rounded to 8 decimals; those still within the ingest tolerance must
    # stay on the closed form
    rng = np.random.default_rng(5)
    checked = 0
    for p in random_chamber_coords(29, 200).tolist():
        phase = np.exp(1j * rng.uniform(0, 2 * PI))
        u = np.round(phase * dress(canonical_gate_array(*p), rng), 8)
        if unitarity_defect(u) > INGEST_UNITARY_TOL:
            continue
        assert ep_operator_exact(u) == pytest.approx(classify_gate(WeylPoint(*p)).ep, abs=1e-6)
        checked += 1
    assert checked >= 50


def test_operator_route_inverse_invariance():
    for p in random_chamber_coords(37, 25).tolist():
        u = canonical_gate_array(*p)
        assert ep_operator_exact(u.conj().T) == pytest.approx(
            ep_operator_exact(u), abs=1e-10
        )


def test_operator_route_rejects_non_unitary():
    with pytest.raises(ValueError):
        ep_operator_exact(np.ones((4, 4)))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_operator_and_monte_carlo_routes_reject_non_finite_matrix(value):
    # a nan defect must fail the unitarity check, or both routes return nan
    u = np.eye(4, dtype=complex)
    u[0, 0] = value
    with pytest.raises(NonUnitaryError):
        ep_operator_exact(u)
    with pytest.raises(NonUnitaryError):
        ep_monte_carlo(u, 200, 1)


def test_operator_route_rejects_stack():
    with pytest.raises(ValueError, match="4x4"):
        ep_operator_exact(np.stack([np.eye(4)] * 3))


def test_stacked_operator_route_equals_scalar_calls():
    rng = np.random.default_rng(13)
    us = np.stack([dress(canonical_gate_array(*p), rng) for p in random_chamber_coords(17, 300).tolist()])
    stacked = epower._ep_operator(us)
    assert stacked.shape == (300,)
    assert stacked.tolist() == [ep_operator_exact(u) for u in us]
    assert epower._ep_operator(us.reshape(30, 10, 4, 4)).tolist() == stacked.reshape(30, 10).tolist()


def _reference_ep_operator(m: np.ndarray) -> np.ndarray:
    """_ep_operator with u·SWAP formed as a matrix product, kept as the reference."""
    E = epower._operator_entanglement
    return (4.0 / 9.0) * (E(m) + E(m @ SWAP) - E(SWAP))


def test_operator_route_column_swap_is_bit_identical_to_swap_product():
    rng = np.random.default_rng(21)
    stacks = [
        canonical_gate_array(*random_chamber_coords(23, 11000).T),
        np.stack([haar_unitary(4, rng) for _ in range(2000)]),
    ]
    for us in stacks:
        assert epower._ep_operator(us).tolist() == _reference_ep_operator(us).tolist()


def test_operator_route_matches_reference_on_one_gate_and_non_contiguous_stacks():
    """Each realignment is one take of the flattened matrices, whatever the stack's shape and strides."""
    rng = np.random.default_rng(8)
    us = np.stack([haar_unitary(4, rng) for _ in range(300)])
    cases = [
        us[0],
        canonical_gate_array(1.1, 0.6, 0.3),
        us[::3],  # every third gate
        us.swapaxes(-1, -2),  # every gate transposed
        us.reshape(30, 10, 4, 4)[:, ::2],
    ]
    for m in cases:
        got, want = np.asarray(epower._ep_operator(m)), np.asarray(_reference_ep_operator(m))
        assert got.shape == m.shape[:-2]
        assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()]


def _reference_operator_entanglement(m: np.ndarray, realign: np.ndarray = epower._REALIGN) -> np.ndarray:
    """_operator_entanglement summed with .sum over the last two axes, kept as the reference."""
    r = m.reshape(m.shape[:-2] + (16,)).take(realign, axis=-1)
    rr = r @ r.conj().swapaxes(-1, -2)
    return 1.0 - (rr.real**2 + rr.imag**2).sum(axis=(-2, -1)) / 16.0


def test_operator_entanglement_sum_is_bit_identical_to_two_axis_reference():
    """One reduction over a 16-wide axis sums pairwise in the order of .sum(axis=(-2, -1))."""
    rng = np.random.default_rng(37)
    canonical_stack = canonical_gate_array(*random_chamber_coords(41, 3000).T)
    dressed_stack = np.stack([dress(u, rng) for u in canonical_stack])
    for realign in (epower._REALIGN, epower._REALIGN_SWAPPED):
        for us in (canonical_stack, dressed_stack, dressed_stack.reshape(30, 100, 4, 4)):
            got, want = epower._operator_entanglement(us, realign), _reference_operator_entanglement(us, realign)
            assert got.shape == us.shape[:-2]
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for u in [*canonical_stack[:500], *dressed_stack[:500], SWAP, np.eye(4, dtype=complex)]:
            got, want = epower._operator_entanglement(u, realign), _reference_operator_entanglement(u, realign)
            assert np.ndim(got) == 0 and float(got).hex() == float(want).hex()


def _dressed_stack(n: int, seed: int) -> np.ndarray:
    """n canonical gates at random chamber points, each between Haar-random local unitaries, as one stack."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, n, 2, 2)) + 1j * rng.normal(size=(4, n, 2, 2))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    a = q * (d / np.abs(d))[..., None, :]  # four Haar-random single-qubit stacks
    before, after = (np.einsum("nij,nkl->nikjl", x, y).reshape(n, 4, 4) for x, y in ((a[0], a[1]), (a[2], a[3])))
    return after @ canonical_gate_array(*random_chamber_coords(seed, n).T) @ before


def _two_takes(m: np.ndarray) -> np.ndarray:
    """_ep_operator with one take and matmul per realignment, kept as the reference."""
    E = _reference_operator_entanglement
    return (4.0 / 9.0) * (E(m) + E(m, epower._REALIGN_SWAPPED) - float(E(SWAP)))


def test_single_gate_operator_route_is_bit_identical_to_stack_and_two_takes():
    """One gate takes both realignments in one (2, 4, 4) gather; each value has the bits of its entry in
    the stacked route and of the two takes, on the stack and on the gate alone."""
    us = np.concatenate([
        _dressed_stack(20_000, 43),
        np.stack([rec.matrix for rec in catalog_records()]),
        [np.eye(4, dtype=complex), SWAP],
    ])
    single = np.array([epower._ep_operator(u) for u in us])
    for want in (epower._ep_operator(us), _two_takes(us), np.array([_two_takes(u) for u in us])):
        assert np.array_equal(single.view(np.int64), want.view(np.int64))


# ------------------------------------------------------------------ monte carlo


def test_mc_identity_is_exactly_zero():
    est = ep_monte_carlo(np.eye(4), 500, seed=9)
    assert est.mean == 0.0
    assert est.std_err == 0.0
    assert est.n_samples == 500
    assert est.seed == 9


def test_mc_swap_is_exactly_zero():
    # SWAP maps product states to product states
    est = ep_monte_carlo(SWAP, 1000, seed=3)
    assert est.mean == 0.0


def test_mc_deterministic():
    a = ep_monte_carlo(CNOT, 3000, seed=123)
    b = ep_monte_carlo(CNOT, 3000, seed=123)
    assert a == b


def test_mc_seed_sensitivity():
    a = ep_monte_carlo(CNOT, 3000, seed=1)
    b = ep_monte_carlo(CNOT, 3000, seed=2)
    assert a.mean != b.mean


def test_mc_small_n_rejected():
    with pytest.raises(ValueError):
        ep_monte_carlo(CNOT, 99, seed=1)
    ep_monte_carlo(CNOT, 100, seed=1)


def test_mc_matches_analytic_cnot():
    est = ep_monte_carlo(CNOT, 20000, seed=42)
    assert abs(est.mean - 2 / 9) <= max(3 * est.std_err, 5e-3)
    assert -3 * est.std_err <= est.mean <= EP_MAX + 3 * est.std_err


def test_snap_flushes_below_half_of_1e_12():
    # rounding to 12 decimals: half of 1e-12 snaps to zero, without a sign, and twice it is kept
    for x in (0.5e-12, -0.5e-12):
        assert math.copysign(1.0, epower._snap(x)) == 1.0 and epower._snap(x) == 0.0
    assert epower._snap(2e-12) == 2e-12
    assert epower._snap(-2e-12) == -2e-12
    assert epower._snap(0.25 + 0.5e-12) == 0.25


def test_mc_matches_analytic_generic_point():
    p = WeylPoint(2.0, 1.0, 0.5)
    est = ep_monte_carlo(canonical_gate_array(*p), 20000, seed=7)
    assert abs(est.mean - classify_gate(p).ep) <= max(3 * est.std_err, 5e-3)


def _u3(theta, phi, lam):
    return np.array([
        [math.cos(theta / 2), -np.exp(1j * lam) * math.sin(theta / 2)],
        [np.exp(1j * phi) * math.sin(theta / 2), np.exp(1j * (phi + lam)) * math.cos(theta / 2)],
    ])


def _dressed(point, angles):
    a, b, c, d = (_u3(*x) for x in angles)
    return np.kron(a, b) @ canonical_gate_array(*point) @ np.kron(c, d)


# canonical gates sandwiched between fixed single-qubit rotations, with
# estimates recorded from the reference implementation
DRESSED_MC_GOLDEN = [
    ((1.1, 0.6, 0.2), [(0.3, 1.2, -0.7), (2.1, -0.4, 0.9), (1.7, 0.5, 0.25), (0.8, -1.3, 2.2)],
     3000, 11, EpEstimate(0.189984780003, 0.002316049749, 3000, 11)),
    ((2.0, 1.0, 0.5), [(1.9, 0.1, 0.6), (0.45, 2.7, -1.1), (2.6, -0.9, 1.4), (1.2, 0.3, -0.2)],
     10000, 7, EpEstimate(0.184959447959, 0.001334038812, 10000, 7)),
    ((PI / 2, PI / 4, 0.0), [(0.6, -2.0, 0.35), (1.35, 0.8, -2.4), (0.2, 1.6, 0.7), (2.9, -0.6, 1.05)],
     20000, 42, EpEstimate(0.221014851812, 0.000930654632, 20000, 42)),
]


@pytest.mark.parametrize(("point", "angles", "n", "seed", "expected"), DRESSED_MC_GOLDEN)
def test_mc_dressed_gates_match_golden(point, angles, n, seed, expected):
    assert ep_monte_carlo(_dressed(point, angles), n, seed) == expected


def test_mc_block_order_independence():
    """The estimate is a pure function of (u, n, seed), not block order."""
    u_t = CNOT.T.copy()
    n = 2500
    keys = raw_stream(17, 0, 3).tolist()
    full, _ = epower._entropy_sums(epower._block_states(keys[:2], 1024), u_t, 2)
    tail, _ = epower._entropy_sums(epower._block_states(keys[2:], 452), u_t, 1)
    pieces = dict(enumerate(full.tolist() + tail.tolist()))
    for order in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
        total = math.fsum(pieces[b] for b in order)
        assert total / n == pytest.approx(ep_monte_carlo(CNOT, n, seed=17).mean, abs=1e-12)


def test_mc_entropy_sums_match_reduced_density_matrix_form():
    """Elementwise purity agrees with tr(rho_A^2) from the batched 2x2 product, block by block."""
    keys = raw_stream(3, 0, 6).tolist()
    for u in [CNOT, _dressed(*DRESSED_MC_GOLDEN[1][:2])]:
        for blocks, count in [((0, 1), 1024), ((5,), 300)]:
            psi = epower._block_states([keys[b] for b in blocks], count)
            m = (psi @ u.T).reshape(-1, 2, 2)
            rho = m @ m.conj().swapaxes(1, 2)
            e = 1.0 - np.sum(np.abs(rho) ** 2, axis=(1, 2)).reshape(len(blocks), count)
            s, s2 = epower._entropy_sums(psi, u.T.copy(), len(blocks))
            # a few ulps per sample, summed over at most 1024 samples
            assert s == pytest.approx(np.sum(e, axis=1), abs=1e-12)
            assert s2 == pytest.approx(np.sum(e * e, axis=1), abs=1e-12)


def _reference_block_states(key: int, count: int) -> np.ndarray:
    """The states of one block, drawn one block per call as _block_states once did; the reference."""
    us = uniform_stream(key, 0, 8 * count).reshape(count, 2, 2, 2)
    z = _box_muller_complex(us[..., 0], us[..., 1])
    q = z.real + 1j * z.imag
    q /= np.linalg.norm(q, axis=2, keepdims=True)
    return np.einsum("ni,nj->nij", q[:, 0], q[:, 1]).reshape(count, 4)


def _reference_entropy_sums(psi: np.ndarray, u_t: np.ndarray) -> tuple[float, float]:
    """Sum and sum of squares of one block's output entropies, as _entropy_sums once scored one block."""
    out = psi @ u_t
    a, b, c, d = out.T
    p = out.real**2 + out.imag**2
    r00 = p[:, 0] + p[:, 1]
    r11 = p[:, 2] + p[:, 3]
    r01 = a * c.conj() + b * d.conj()
    e = 1.0 - (r00 * r00 + r11 * r11 + 2.0 * (r01.real**2 + r01.imag**2))
    return float(np.sum(e)), float(np.sum(e * e))


@functools.cache
def _catalog_and_dressed() -> tuple:
    """The catalog's canonical gates and the dressed golden gates, built on first use, not at collection."""
    return tuple(canonical_gate_array(*r.point) for r in catalog_records()) + tuple(
        _dressed(point, angles) for point, angles, *_ in DRESSED_MC_GOLDEN
    )


@pytest.mark.parametrize("count", [1024, 452])
@pytest.mark.parametrize("seed", [0, 17, -7, 2**64 + 3])
def test_mc_chunked_block_sums_are_bit_identical_to_one_block_reference(seed, count):
    # chunks of 16 and 64 blocks hold temporaries of 256 KiB or more, which numpy may reuse in place
    keys = raw_stream(seed, 0, 64).tolist()
    u_ts = [u.T.copy() for u in _catalog_and_dressed()]
    ref_psi = [_reference_block_states(key, count) for key in keys]
    want = np.array([[_reference_entropy_sums(psi, u_t) for psi in ref_psi] for u_t in u_ts])
    for width in (1, 2, 3, 16, 64):
        psi = epower._block_states(keys[:width], count)
        assert psi.shape == (width * count, 4)
        # the states themselves, not only the sums scored on them
        np.testing.assert_array_equal(psi.view(np.int64), np.concatenate(ref_psi[:width]).view(np.int64))
        for u_t, ref in zip(u_ts, want):
            got = np.stack(epower._entropy_sums(psi, u_t, width), axis=1)
            np.testing.assert_array_equal(got.view(np.int64), ref[:width].view(np.int64))


@pytest.mark.parametrize("chunk", [1, 3, 16])
def test_mc_estimates_do_not_depend_on_chunk_width(monkeypatch, chunk):
    gates = _catalog_and_dressed()
    ns = (100, 1023, 1025, 20000, 50000, 100001)
    default = {n: ep_monte_carlo_many(gates, n, 5) for n in ns}
    monkeypatch.setattr(epower, "_CHUNK", chunk)
    for n in ns:
        assert ep_monte_carlo_many(gates, n, 5) == default[n]


def _mc_gates():
    rng = np.random.default_rng(31)
    gates = [CNOT, np.eye(4), SWAP, canonical_gate_array(PI / 4, PI / 4, PI / 4)]
    gates += [dress(canonical_gate_array(*p), rng) for p in random_chamber_coords(3, 3).tolist()]
    return gates


@pytest.mark.parametrize(("n", "seed"), [(100, 0), (1500, 4), (2048, 9), (5000, 123)])
def test_mc_many_equals_single_gate_calls(n, seed):
    gates = _mc_gates()
    assert ep_monte_carlo_many(gates, n, seed) == [ep_monte_carlo(u, n, seed) for u in gates]


def test_mc_many_independent_of_other_gates_and_order():
    gates = _mc_gates()
    full = ep_monte_carlo_many(gates, 3000, 8)
    order = [4, 0, 6, 2, 5, 1, 3]
    permuted = ep_monte_carlo_many([gates[i] for i in order], 3000, 8)
    assert permuted == [full[i] for i in order]
    assert ep_monte_carlo_many(gates[4:6], 3000, 8) == full[4:6]
    assert ep_monte_carlo_many([gates[0], gates[0]], 3000, 8) == [full[0], full[0]]


def _count_scorings(monkeypatch) -> list:
    """Record the gate matrix of every _entropy_sums call made from here on."""
    scored = []
    score = epower._entropy_sums

    def counted(psi, u_t, blocks):
        scored.append(u_t)
        return score(psi, u_t, blocks)

    monkeypatch.setattr(epower, "_entropy_sums", counted)
    return scored


def test_verify_monte_carlo_scores_six_distinct_catalog_gates(monkeypatch):
    # 2500 samples are two spans: blocks 0-1 together, then the 452-sample block
    unscored = verify_monte_carlo(2500, 1)
    scored = _count_scorings(monkeypatch)
    report = verify_monte_carlo(2500, 1)
    assert len(report.rows) == 9
    assert len(scored) == 6 * 2
    assert report == unscored


def test_mc_many_scores_each_distinct_matrix_once_per_span(monkeypatch):
    u, v = _mc_gates()[4:6]
    want = [ep_monte_carlo(x, 3000, 8) for x in (u, v, u, u)]
    scored = _count_scorings(monkeypatch)
    assert ep_monte_carlo_many([u, v, u, u], 3000, 8) == want
    assert len(scored) == 2 * 2


def test_mc_many_dedupes_on_the_checked_matrix(monkeypatch):
    # a real array, a nested list and a Fortran-ordered complex copy are one complex128 matrix
    u = _mc_gates()[4]
    idents = [np.eye(4), np.eye(4, dtype=int).tolist(), np.asfortranarray(np.eye(4, dtype=complex))]
    copies = [u, u.tolist(), np.asfortranarray(u)]
    want = [ep_monte_carlo(np.eye(4), 3000, 8)] * 3 + [ep_monte_carlo(u, 3000, 8)] * 3
    scored = _count_scorings(monkeypatch)
    assert ep_monte_carlo_many(idents + copies, 3000, 8) == want
    assert len(scored) == 2 * 2


def test_mc_many_scores_matrices_a_last_bit_apart_separately(monkeypatch):
    u = _mc_gates()[4]
    v = u.copy()
    v[1, 2] = complex(np.nextafter(v[1, 2].real, np.inf), v[1, 2].imag)
    assert u.tobytes() != v.tobytes()
    want = [ep_monte_carlo(u, 3000, 8), ep_monte_carlo(v, 3000, 8)]
    scored = _count_scorings(monkeypatch)
    assert ep_monte_carlo_many([u, v], 3000, 8) == want
    assert len(scored) == 2 * 2


def test_mc_many_rejects_bad_input():
    with pytest.raises(ValueError):
        ep_monte_carlo_many([CNOT, np.ones((4, 4))], 500, seed=1)
    with pytest.raises(ValueError):
        ep_monte_carlo_many([np.eye(2)], 500, seed=1)
    with pytest.raises(ValueError):
        ep_monte_carlo_many([CNOT, SWAP], 99, seed=1)
    with pytest.raises(ValueError, match="at most 100000000, got 100000001"):
        ep_monte_carlo_many([], 100_000_001, seed=1)
    with pytest.raises(ValueError):
        ep_monte_carlo(np.eye(2), 500, seed=1)
    assert ep_monte_carlo_many([], 100, seed=1) == []


def test_mc_many_product_preserving_gates_are_exactly_zero():
    ident, swap = ep_monte_carlo_many([np.eye(4), SWAP], 2500, seed=6)
    assert ident == EpEstimate(0.0, 0.0, 2500, 6)
    assert swap.mean == 0.0
    assert swap.std_err == 0.0


def test_mc_estimate_is_frozen_dataclass():
    est = EpEstimate(0.1, 0.01, 100, 1)
    with pytest.raises(AttributeError):
        est.mean = 0.2


# -------------------------------------------------------------- route agreement


def test_verify_route_agreement_report():
    rep = verify_route_agreement(200, seed=2025)
    assert rep.passed
    assert rep.violations == ()
    assert rep.n_points == 200
    assert rep.max_closed_vs_g1 <= 1e-12
    assert rep.max_closed_vs_operator <= 1e-10
    assert rep.max_g2_forms <= 1e-12
