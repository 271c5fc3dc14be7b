"""Symmetry oracle: exact gate actions as test inputs for every route.

Each test dresses canonical gates with random local unitaries and a random
global phase, applies an exact group action and checks each route against
the value the action predicts at the source chamber point. SWAP·u·SWAP and
the transpose keep the point; the complex conjugate and the adjoint send it
to its mirror, which conjugates g1. Entangling power and the
perfect-entangler verdict are the same for all of them.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gatepower.canonical import WeylPoint, canonical_gate, mirror_coords, random_chamber_coords
from gatepower.classify import classify_gate
from gatepower.epower import ep_closed_form, ep_operator_exact
from gatepower.invariants import invariants_at_point, invariants_from_matrix
from gatepower.linalg import SWAP

from helpers import dress

TOL = 1e-12

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
        u = np.exp(2j * math.pi * gen.uniform()) * dress(canonical_gate(p), gen)
        kept = invariants_at_point(WeylPoint(*p))
        mirrored = invariants_at_point(WeylPoint(*map(float, mirror_coords(*p))))
        assert abs(mirrored.g1 - kept.g1.conjugate()) <= TOL
        ep = ep_closed_form(WeylPoint(*p))
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
