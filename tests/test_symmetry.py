"""Symmetry oracle: exact gate actions as test inputs for every route.

Each test dresses canonical gates with random local unitaries and a random
global phase, applies an exact group action and checks each route against
the value the action predicts at the source chamber point. SWAP·u·SWAP and
the transpose keep the point; the complex conjugate and the adjoint send it
to its mirror, which conjugates g1. u·SWAP sends it to the chamber fold
of c + (pi/2, pi/2, pi/2), found here by brute force. Entangling power and
the perfect-entangler verdict are the same for all of them.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatepower.canonical import WeylPoint, _sort_desc, canonical_gate_array, chamber_mask, random_chamber_coords
from gatepower.classify import classify_gate, is_pe_geometric, is_pe_invariant
from gatepower.epower import ep_monte_carlo, ep_operator_exact
from gatepower.invariants import invariants_from_matrix
from gatepower.linalg import SWAP

from helpers import dress, g1_closed, g2_closed

TOL = 1e-12
# how closely a fold candidate's closed-form g1 and g2 must match the matrix route of u·SWAP
FOLD_MATCH_TOL = 1e-9

# (name, action, whether the action sends the point to its mirror)
ACTIONS = [
    ("identity", lambda u: u, False),
    ("SWAP u SWAP", lambda u: SWAP @ u @ SWAP, False),
    ("transpose", lambda u: u.T, False),
    ("conjugate", lambda u: u.conj(), True),
    ("adjoint", lambda u: u.conj().T, True),
]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_exact_actions_match_the_closed_forms_at_the_source_point(seed):
    gen = np.random.default_rng(seed)
    for p in random_chamber_coords(seed, 20).tolist():
        u = np.exp(2j * math.pi * gen.uniform()) * dress(canonical_gate_array(*p), gen)
        source = classify_gate(WeylPoint(*p))
        kept = source.invariants
        mirrored = classify_gate(WeylPoint(*map(float, _sort_desc(math.pi - p[0], p[1], p[2])))).invariants
        assert abs(mirrored.g1 - kept.g1.conjugate()) <= TOL
        ep = source.ep
        verdicts = set()
        for name, action, mirrors in ACTIONS:
            v = action(u)
            want = mirrored if mirrors else kept
            got = invariants_from_matrix(v)
            assert abs(got.g1 - want.g1) <= TOL, (name, p)
            assert abs(got.g2 - want.g2) <= TOL, (name, p)
            assert abs(ep_operator_exact(v) - ep) <= TOL, (name, p)
            verdicts.add(classify_gate(v).pe_verdict)
        assert len(verdicts) == 1, p


# every image of a point under the Weyl group: the 6 coordinate permutations, the 4 pair sign
# flips (none or two coordinates negated) and a shift of each coordinate by a multiple of pi in
# {-2, ..., 2}; each changes the canonical gate only by local unitaries and a global phase
_PERMUTATIONS = np.array(list(itertools.permutations(range(3))))
_PAIR_FLIPS = np.array([[1, 1, 1], [-1, -1, 1], [-1, 1, -1], [1, -1, -1]])
_PI_SHIFTS = math.pi * np.array(list(itertools.product(range(-2, 3), repeat=3)))


def u_swap_fold(c, v) -> list[np.ndarray]:
    """The chamber points of u·SWAP, for a gate u at the chamber point c and v = u·SWAP.

    Searches the Weyl-group images of c + (pi/2, pi/2, pi/2) for chamber points whose
    closed-form complex g1 and g2 match invariants_from_matrix(v) within FOLD_MATCH_TOL;
    candidates that agree to 9 decimals count once. The points are returned unrounded.
    """
    d = np.asarray(c) + math.pi / 2
    flipped = (d[_PERMUTATIONS][:, None, :] * _PAIR_FLIPS).reshape(-1, 3)
    cand = (flipped[:, None, :] + _PI_SHIFTS).reshape(-1, 3)
    cand = cand[chamber_mask(*cand.T)]
    inv = invariants_from_matrix(v)
    match = (np.abs(g1_closed(*cand.T) - inv.g1) <= FOLD_MATCH_TOL) & (
        np.abs(g2_closed(*cand.T) - inv.g2) <= FOLD_MATCH_TOL
    )
    seen: dict[tuple, np.ndarray] = {}
    for q in cand[match]:
        seen.setdefault(tuple(np.round(q, 9).tolist()), q)
    return list(seen.values())


def _dressed_gates(seed: int, count: int):
    """count chamber points drawn from seed, each with a dressed, phase-shifted canonical gate."""
    gen = np.random.default_rng(seed)
    for p in random_chamber_coords(seed, count).tolist():
        yield p, np.exp(2j * math.pi * gen.uniform()) * dress(canonical_gate_array(*p), gen)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_u_swap_folds_to_one_chamber_point_with_the_same_ep_and_verdicts(seed):
    for p, u in _dressed_gates(seed, 20):
        v = u @ SWAP
        folds = u_swap_fold(p, v)
        assert len(folds) == 1, (p, folds)
        q = WeylPoint(*folds[0].tolist())
        at_q = classify_gate(q)
        got = invariants_from_matrix(v)
        assert abs(got.g1 - at_q.invariants.g1) <= TOL, p
        assert abs(got.g2 - at_q.invariants.g2) <= TOL, p
        ep = classify_gate(WeylPoint(*p)).ep
        assert abs(at_q.ep - ep) <= TOL, p
        assert abs(ep_operator_exact(v) - ep) <= TOL, p
        source = is_pe_geometric(WeylPoint(*p))
        if all(abs(m) > 1e-6 for m in source.margins.values()):
            assert is_pe_geometric(q).is_pe == source.is_pe, p
        assert classify_gate(v).routes["invariant"].is_pe == is_pe_invariant(at_q.invariants).is_pe, p


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_u_swap_monte_carlo_estimate_matches_the_source_closed_form(seed):
    """A statistical check: the draws for u·SWAP do not map onto those for u."""
    n = 20_000
    for p, u in _dressed_gates(seed, 3):
        est = ep_monte_carlo(u @ SWAP, n, seed)
        ep = classify_gate(WeylPoint(*p)).ep
        assert abs(est.mean - ep) <= max(3 * est.std_err, 5e-3), (p, est)
