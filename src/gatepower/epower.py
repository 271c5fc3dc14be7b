"""Entangling power of two-qubit gates.

The entangling power of a gate u is the average linear entropy that u
generates when applied to uniformly random product states. Four
independent routes are provided:

  * closed form in chamber coordinates,
  * the affine map from |g1|:  e_p = (2/9)(1 - |g1|),
  * the operator entanglement of u and u·SWAP, from the 4x4 matrix alone,
  * a reproducible Monte-Carlo average over Haar-random product states.

The exact routes return values in [0, 2/9]; the maximum 2/9 is attained
exactly by the special perfect entanglers (|g1| = 0), and gates in the
identity or SWAP class give 0, which the Monte-Carlo estimate also
reports exactly.

The operator route is written once over (..., 4, 4) stacks of matrices.
ep_operator_exact checks one 4x4 input and evaluates it there;
verify_route_agreement evaluates its whole sample of canonical gates as
one stack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .canonical import WeylPoint, canonical_gate_array, random_chamber_coords
from .invariants import g1_abs_array, g2_array, g2_product_array
from .linalg import SWAP, require_unitary

__all__ = [
    "EP_MAX",
    "EpEstimate",
    "RouteAgreementReport",
    "ep_closed_array",
    "ep_closed_form",
    "ep_from_g1_abs",
    "ep_monte_carlo",
    "ep_monte_carlo_many",
    "ep_operator_exact",
    "verify_route_agreement",
]

EP_MAX = 2.0 / 9.0

_RANGE_TOL = 1e-9

# samples per block; each block draws from its own substream so results do
# not depend on how blocks are assigned to workers
_BLOCK = 1024

# mean and standard error are snapped at 1e-12 to flush accumulated float
# noise, so non-entangling gates report exactly 0
_SNAP_DECIMALS = 12

# verify_route_agreement keeps about 1.4 KB per point (a 4x4 complex stack and its
# products), so this caps a run near 1.4 GB
_ROUTE_POINTS_MAX = 1_000_000


def ep_from_g1_abs(g1_abs: float | np.ndarray) -> float | np.ndarray:
    """Entangling power from the invariant modulus: (2/9)(1 - |g1|), elementwise on arrays."""
    if not np.all((-_RANGE_TOL <= g1_abs) & (g1_abs <= 1.0 + _RANGE_TOL)):
        raise ValueError(f"|g1| must lie in [0, 1], got {g1_abs!r}")
    return EP_MAX * (1.0 - g1_abs)


def ep_closed_array(c1, c2, c3) -> np.ndarray:
    """Elementwise closed-form entangling power over broadcastable coordinate arrays.

    (1/18)[3 - (cos 2c1 cos 2c2 + cos 2c2 cos 2c3 + cos 2c3 cos 2c1)]
    """
    x1 = np.cos(2 * c1)
    x2 = np.cos(2 * c2)
    x3 = np.cos(2 * c3)
    return (3.0 - (x1 * x2 + x2 * x3 + x3 * x1)) / 18.0


def ep_closed_form(p: WeylPoint) -> float:
    """Entangling power of the canonical gate at a chamber point; see ep_closed_array."""
    return float(ep_closed_array(*p))


def _operator_entanglement(m: np.ndarray) -> np.ndarray:
    """Operator entanglement 1 - ||R R†||_F^2 / 16 of each 4x4 unitary in a (..., 4, 4) stack.

    R is the realignment of m, <i k|R|j l> = <i j|m|k l>: it groups the two
    indices of qubit 1 into rows and those of qubit 2 into columns, so
    ||R R†||_F^2 is the operator purity of m across the qubit cut. The
    value is 0 for local gates and 3/4 for SWAP.
    """
    lead = m.shape[:-2]
    r = m.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(lead + (4, 4))
    rr = r @ r.conj().swapaxes(-1, -2)
    return 1.0 - np.sum(rr.real**2 + rr.imag**2, axis=(-2, -1)) / 16.0


_E_SWAP = float(_operator_entanglement(SWAP))


def _ep_operator(m: np.ndarray) -> np.ndarray:
    """Operator-route entangling power of each gate in a (..., 4, 4) stack, unchecked.

    The caller guarantees unitarity: ep_operator_exact validates user
    input, and the library's own canonical gates are unitary by construction.
    """
    return (4.0 / 9.0) * (_operator_entanglement(m) + _operator_entanglement(m @ SWAP) - _E_SWAP)


def ep_operator_exact(u) -> float:
    """Entangling power from the operator entanglement E of u and u·SWAP.

        e_p = (4/9) [E(u) + E(u SWAP) - E(SWAP)]

    (Zanardi, PRA 63, 040304 (2001)). It uses only the 4x4 matrix, not
    its chamber point, so it is independent of the closed form.
    """
    return float(_ep_operator(require_unitary(u)))


@dataclass(frozen=True)
class EpEstimate:
    """Monte-Carlo estimate of entangling power."""

    mean: float
    std_err: float
    n_samples: int
    seed: int


def _block_states(key: int, count: int) -> np.ndarray:
    """The (count, 4) Haar-random product states of one sample block.

    Sample s of block b consumes uniforms 8*(s mod BLOCK) .. +7 of the
    substream keyed by key = block_key(seed, b): four Box-Muller pairs
    giving the two complex amplitudes of each qubit's Haar-random state.
    """
    us = rng.uniform_stream(key, 0, 8 * count).reshape(count, 8)
    za0, za1 = rng.box_muller(us[:, 0], us[:, 1])
    za2, za3 = rng.box_muller(us[:, 2], us[:, 3])
    zb0, zb1 = rng.box_muller(us[:, 4], us[:, 5])
    zb2, zb3 = rng.box_muller(us[:, 6], us[:, 7])
    a = np.stack([za0 + 1j * za1, za2 + 1j * za3], axis=1)
    b = np.stack([zb0 + 1j * zb1, zb2 + 1j * zb3], axis=1)
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    return np.einsum("ni,nj->nij", a, b).reshape(count, 4)


def _entropy_sums(psi: np.ndarray, u_t: np.ndarray) -> tuple[float, float]:
    """Sum and sum of squares of the output linear entropies of one block.

    With output amplitudes (a, b, c, d), the first qubit's reduced state has
    r00 = |a|^2 + |b|^2, r11 = |c|^2 + |d|^2 and r01 = a c* + b d*, so its
    purity is r00^2 + r11^2 + 2|r01|^2, computed elementwise.
    """
    out = psi @ u_t
    a, b, c, d = out.T
    p = out.real**2 + out.imag**2
    r00 = p[:, 0] + p[:, 1]
    r11 = p[:, 2] + p[:, 3]
    r01 = a * c.conj() + b * d.conj()
    e = 1.0 - (r00 * r00 + r11 * r11 + 2.0 * (r01.real**2 + r01.imag**2))
    return float(np.sum(e)), float(np.sum(e * e))


def _snap(x: float) -> float:
    return float(np.round(x, _SNAP_DECIMALS) + 0.0)


def ep_monte_carlo_many(us, n_samples: int, seed: int) -> list[EpEstimate]:
    """ep_monte_carlo for several gates, drawing each block's states once.

    Every gate is applied to the same product states, so the result for a
    gate equals ep_monte_carlo(u, n_samples, seed) and does not depend on
    which other gates are in the list or on their order.
    """
    u_ts = [require_unitary(u).T.copy() for u in us]
    if n_samples < 100:
        raise ValueError(f"n_samples must be at least 100, got {n_samples}")
    if not u_ts:
        return []
    block_sums: list[list[tuple[float, float]]] = [[] for _ in u_ts]
    starts = range(0, n_samples, _BLOCK)
    # block_key(seed, b) of every block b, from one call
    for key, start in zip(rng.raw_stream(seed, 0, len(starts)).tolist(), starts):
        psi = _block_states(key, min(_BLOCK, n_samples - start))
        for sums, u_t in zip(block_sums, u_ts):
            sums.append(_entropy_sums(psi, u_t))
    estimates = []
    for sums in block_sums:
        total, total2 = (math.fsum(col) for col in zip(*sums))
        mean = total / n_samples
        var = max(0.0, total2 - n_samples * mean * mean) / (n_samples - 1)
        std_err = math.sqrt(var / n_samples)
        estimates.append(EpEstimate(_snap(mean), _snap(std_err), n_samples, seed))
    return estimates


def ep_monte_carlo(u, n_samples: int, seed: int) -> EpEstimate:
    """Estimate entangling power by sampling random product states.

    Applies u to products of independent Haar-random single-qubit states
    and averages the linear entropy of the output, with the purity written
    elementwise in the output amplitudes. The sample index space is split
    into fixed blocks of 1024; block b draws from the substream
    block_key(seed, b) (see the rng module), so the estimate is a pure
    function of (u, n_samples, seed) regardless of evaluation order.
    Per-block sums use numpy pairwise summation and are combined with
    exact (fsum) accumulation. This is ep_monte_carlo_many([u], ...)[0];
    pass several gates there to share each block's draw between them.
    """
    return ep_monte_carlo_many([u], n_samples, seed)[0]


@dataclass(frozen=True)
class RouteAgreementReport:
    """Largest discrepancies between independent e_p and g2 routes."""

    n_points: int
    seed: int
    max_closed_vs_g1: float
    max_closed_vs_operator: float
    max_g2_forms: float
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_route_agreement(n_points: int, seed: int) -> RouteAgreementReport:
    """Compare all e_p routes and both g2 forms on n_points random chamber points, 1 to 1_000_000."""
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if n_points > _ROUTE_POINTS_MAX:
        raise ValueError(f"n_points must be at most {_ROUTE_POINTS_MAX}, got {n_points}")
    pts = random_chamber_coords(seed, n_points)
    c = pts.T
    closed = ep_closed_array(*c)
    via_op = _ep_operator(canonical_gate_array(*c))
    d_g1 = np.abs(closed - ep_from_g1_abs(g1_abs_array(*c)))
    d_op = np.abs(closed - via_op)
    d_g2 = np.abs(g2_array(*c) - g2_product_array(*c))
    violations: list[str] = []
    for i in np.flatnonzero((d_g1 > 1e-12) | (d_op > 1e-10) | (d_g2 > 1e-12)):
        p = WeylPoint(*pts[i].tolist())
        if d_g1[i] > 1e-12:
            violations.append(f"closed vs |g1| route: {d_g1[i]:.3e} at {p}")
        if d_op[i] > 1e-10:
            violations.append(f"closed vs operator route: {d_op[i]:.3e} at {p}")
        if d_g2[i] > 1e-12:
            violations.append(f"g2 forms: {d_g2[i]:.3e} at {p}")
    return RouteAgreementReport(
        n_points=n_points,
        seed=seed,
        max_closed_vs_g1=float(d_g1.max(initial=0.0)),
        max_closed_vs_operator=float(d_op.max(initial=0.0)),
        max_g2_forms=float(d_g2.max(initial=0.0)),
        violations=tuple(violations),
    )
