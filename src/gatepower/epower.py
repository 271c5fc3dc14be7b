"""Entangling power of two-qubit gates.

The entangling power of a gate u is the average linear entropy that u
generates when applied to uniformly random product states. Four
independent routes are provided:

  * closed form in chamber coordinates, written once over x_i = cos 2c_i
    (_ep_trig) as g2 is in invariants,
  * the affine map from |g1|:  e_p = (2/9)(1 - |g1|),
  * the operator entanglement of u and u·SWAP, from the 4x4 matrix alone,
  * a reproducible Monte-Carlo average over Haar-random product states.

The exact routes return values in [0, 2/9]; the maximum 2/9 is attained
exactly by the special perfect entanglers (|g1| = 0), and gates in the
identity or SWAP class give 0, which the Monte-Carlo estimate also
reports exactly.

The operator route is written once over (..., 4, 4) stacks of matrices;
ep_operator_exact checks one 4x4 input and evaluates it there, and
classify.verify_route_agreement evaluates stacks of canonical gates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .canonical import WeylPoint
from .invariants import _RANGE_TOL, _cos2
from .linalg import SWAP, require_unitary

__all__ = [
    "EP_MAX",
    "EpEstimate",
    "ep_closed_array",
    "ep_closed_form",
    "ep_from_g1_abs",
    "ep_monte_carlo",
    "ep_monte_carlo_many",
    "ep_operator_exact",
]

EP_MAX = 2.0 / 9.0

# samples per block; each block draws from its own substream so results do
# not depend on how blocks are assigned to workers
_BLOCK = 1024

# mean and standard error are snapped at 1e-12 to flush accumulated float
# noise, so non-entangling gates report exactly 0
_SNAP_DECIMALS = 12

# ep_monte_carlo_many keeps a block key and per-gate block sums for every 1024 samples; at n = 10**7
# tracemalloc read 100 bytes per block for one gate and 230 for the nine catalog gates (15 s on a
# 2-core host), so this caps that bookkeeping near 25 MB and verify montecarlo near 3 minutes
_MC_SAMPLES_MAX = 100_000_000


def ep_from_g1_abs(g1_abs: float | np.ndarray) -> float | np.ndarray:
    """Entangling power from the invariant modulus: (2/9)(1 - |g1|), elementwise on arrays."""
    if not np.all((-_RANGE_TOL <= g1_abs) & (g1_abs <= 1.0 + _RANGE_TOL)):
        raise ValueError(f"|g1| must lie in [0, 1], got {g1_abs!r}")
    return EP_MAX * (1.0 - g1_abs)


def _ep_trig(x) -> np.ndarray:
    """Closed-form entangling power from the iterable x of cos 2c1, cos 2c2, cos 2c3.

    (1/18)[3 - (x1 x2 + x2 x3 + x3 x1)]
    """
    x1, x2, x3 = x
    return (3.0 - (x1 * x2 + x2 * x3 + x3 * x1)) / 18.0


def ep_closed_array(c1, c2, c3) -> np.ndarray:
    """Elementwise closed-form entangling power over broadcastable coordinate arrays.

    (1/18)[3 - (cos 2c1 cos 2c2 + cos 2c2 cos 2c3 + cos 2c3 cos 2c1)]
    """
    return _ep_trig(map(_cos2, (c1, c2, c3)))


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
    # m @ SWAP is m with columns 1 and 2 swapped, up to the sign of zero entries, which E does not
    # see; indexing swaps them without the matrix product
    return (4.0 / 9.0) * (_operator_entanglement(m) + _operator_entanglement(m[..., [0, 2, 1, 3]]) - _E_SWAP)


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
    # axes: sample, qubit, amplitude, (u1, u2) of the amplitude's Box-Muller pair
    us = rng.uniform_stream(key, 0, 8 * count).reshape(count, 2, 2, 2)
    z_re, z_im = rng.box_muller(us[..., 0], us[..., 1])
    q = z_re + 1j * z_im
    q /= np.linalg.norm(q, axis=2, keepdims=True)
    return np.einsum("ni,nj->nij", q[:, 0], q[:, 1]).reshape(count, 4)


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
    if n_samples > _MC_SAMPLES_MAX:
        raise ValueError(f"n_samples must be at most {_MC_SAMPLES_MAX}, got {n_samples}")
    if not u_ts:
        return []
    starts = range(0, n_samples, _BLOCK)
    # sum and sum of squares of each gate's output entropies, per block
    block_sums = np.empty((len(u_ts), 2, len(starts)))
    # block_key(seed, b) of every block b, from one call
    for b, (key, start) in enumerate(zip(rng.raw_stream(seed, 0, len(starts)).tolist(), starts)):
        psi = _block_states(key, min(_BLOCK, n_samples - start))
        for sums, u_t in zip(block_sums, u_ts):
            sums[:, b] = _entropy_sums(psi, u_t)
    estimates = []
    for sums in block_sums:
        total, total2 = map(math.fsum, sums.tolist())
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
