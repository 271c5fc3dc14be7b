"""Entangling power of two-qubit gates.

The entangling power of a gate u is the average linear entropy that u
generates when applied to uniformly random product states. Four
independent routes are provided:

  * the closed form in chamber coordinates,
    (1/18)[3 - (x1 x2 + x2 x3 + x3 x1)] with x_i = cos 2c_i, which
    classify's chamber-point evaluator computes with |g1| and g2;
    classify_gate(p).ep reads it at a point,
  * the affine map from |g1|:  e_p = (2/9)(1 - |g1|),
  * the operator entanglement of u and u·SWAP, from the 4x4 matrix alone,
  * a reproducible Monte-Carlo average over Haar-random product states.

The exact routes return values in [0, 2/9]; the maximum 2/9 is attained
exactly by the special perfect entanglers (|g1| = 0), and gates in the
identity or SWAP class give 0, which the Monte-Carlo estimate also
reports exactly.

This module keeps the other three: the |g1|, operator and Monte-Carlo
routes. The operator route is written once over (..., 4, 4) stacks of
matrices; ep_operator_exact checks one 4x4 input and evaluates it there,
gathering its two realignments at once, and classify.verify_route_agreement
evaluates stacks of canonical gates, one realignment at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .invariants import _RANGE_TOL
from .linalg import SWAP, require_unitary

__all__ = [
    "EP_MAX",
    "EpEstimate",
    "ep_from_g1_abs",
    "ep_monte_carlo",
    "ep_monte_carlo_many",
    "ep_operator_exact",
]

EP_MAX = 2.0 / 9.0

# samples per block; each block draws from its own substream so results do
# not depend on how blocks are assigned to workers
_BLOCK = 1024

# full blocks drawn and scored per numpy call; each block is still summed on its own, so the
# grouping changes no bit. The nine catalog gates (six distinct matrices) at 50000 samples, best of
# 7-15 calls in three rounds on a noisy 2-core host: 26-35 ms and a 0.84 MB tracemalloc peak at 2,
# against 30-44 ms and 0.43 MB at 1, 26-33 ms and 1.6 MB at 4, 30-36 ms and 6.3 MB at 16
_CHUNK = 2

# mean and standard error are snapped at 1e-12 to flush accumulated float
# noise, so non-entangling gates report exactly 0
_SNAP_DECIMALS = 12

# ep_monte_carlo_many keeps a block key and per-distinct-gate block sums for every 1024 samples; at
# n = 10**7 its tracemalloc peak, working set included, was 144 bytes per block for one gate and 225
# for the nine catalog gates (six distinct; 11 s on a 2-core host), so this caps the peak near 22 MB
# and verify montecarlo near 2 minutes
_MC_SAMPLES_MAX = 100_000_000


def ep_from_g1_abs(g1_abs: float | np.ndarray) -> float | np.ndarray:
    """Entangling power from the invariant modulus: (2/9)(1 - |g1|), elementwise on arrays."""
    # a float takes one chained comparison, which like the elementwise one is False for nan
    if type(g1_abs) is float:
        inside = -_RANGE_TOL <= g1_abs <= 1.0 + _RANGE_TOL
    else:
        inside = np.all((-_RANGE_TOL <= g1_abs) & (g1_abs <= 1.0 + _RANGE_TOL))
    if not inside:
        raise ValueError(f"|g1| must lie in [0, 1], got {g1_abs!r}")
    return EP_MAX * (1.0 - g1_abs)


# flat indices into a 4x4 matrix m of the entries of its realignment, <i k|R|j l> = <i j|m|k l>, and of the
# realignment of m with columns 1 and 2 swapped, <i j|m|l k>
_REALIGN, _REALIGN_SWAPPED = (
    np.arange(16).reshape(2, 2, 2, 2).transpose(axes).reshape(4, 4) for axes in ((0, 2, 1, 3), (0, 3, 1, 2))
)
_REALIGN_BOTH = np.stack([_REALIGN, _REALIGN_SWAPPED])  # both, as one (2, 4, 4) gather of one gate


def _operator_entanglement(m: np.ndarray, realign: np.ndarray = _REALIGN) -> np.ndarray:
    """Operator entanglement 1 - ||R R†||_F^2 / 16 of each 4x4 unitary in a (..., 4, 4) stack.

    R is the realignment of m, <i k|R|j l> = <i j|m|k l>: it groups the two
    indices of qubit 1 into rows and those of qubit 2 into columns, so
    ||R R†||_F^2 is the operator purity of m across the qubit cut. The
    value is 0 for local gates and 3/4 for SWAP. realign=_REALIGN_SWAPPED
    gives that of m with columns 1 and 2 swapped; realign=_REALIGN_BOTH
    gives both, along a new axis after the stack's.
    """
    r = m.reshape(m.shape[:-2] + (16,)).take(realign, axis=-1)  # one gather, whatever the stack's shape
    rr = r @ r.conj().swapaxes(-1, -2)
    sq = rr.real**2 + rr.imag**2
    return 1.0 - sq.sum(axis=(-2, -1)) / 16.0


_E_SWAP = float(_operator_entanglement(SWAP))


def _ep_operator(m: np.ndarray) -> np.ndarray:
    """Operator-route entangling power of each gate in a (..., 4, 4) stack, unchecked.

    The caller guarantees unitarity: ep_operator_exact validates user
    input, and the library's own canonical gates are unitary by construction.
    """
    # m @ SWAP is m with columns 1 and 2 swapped, up to the sign of zero entries, which E does not see, so
    # its realignment is one take of m. One gate takes both in one gather, matmul and sum, which is cheaper
    # than two calls (9.0 us against 14.9 us by timeit) with the same bits. A stack keeps one take and matmul
    # each: one take of both doubled the arrays every step works on, and made verify routes 3-13% slower
    # at 400 to 3000 points
    if m.ndim == 2:
        e = _operator_entanglement(m, _REALIGN_BOTH)
        return (4.0 / 9.0) * (e[0] + e[1] - _E_SWAP)
    return (4.0 / 9.0) * (_operator_entanglement(m) + _operator_entanglement(m, _REALIGN_SWAPPED) - _E_SWAP)


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


def _block_states(keys: list[int], count: int) -> np.ndarray:
    """The (len(keys) * count, 4) Haar-random product states of consecutive sample blocks.

    Sample s of block b consumes uniforms 8*(s mod BLOCK) .. +7 of the
    substream keyed by key = value(seed, b): four Box-Muller pairs, each
    one amplitude r exp(i 2 pi u2) of a qubit's state, normalised per qubit.
    Every step is elementwise per sample, so a block's states do not depend
    on the blocks drawn with it.
    """
    n = len(keys) * count
    # axes: sample, qubit, amplitude, (u1, u2) of the amplitude's Box-Muller pair; one stream call
    # per block keeps one scalar key per draw, as perfbench's tracer counts draws per key
    us = np.concatenate([rng.uniform_stream(key, 0, 8 * count) for key in keys]).reshape(n, 2, 2, 2)
    q = rng._box_muller_complex(us[..., 0], us[..., 1])
    # the squared norm as np.linalg.norm forms it, from q* q and not from re**2 + im**2, and a multiply by
    # the reciprocal of its root, as numpy divides a complex by a real; q_bar is bound as in _entropy_sums
    q_bar = q.conj()
    sq = (q_bar * q).real
    q *= (1.0 / np.sqrt(sq[..., 0] + sq[..., 1]))[..., None]
    return np.einsum("ni,nj->nij", q[:, 0], q[:, 1]).reshape(n, 4)


def _entropy_sums(psi: np.ndarray, u_t: np.ndarray, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-block sums and sums of squares of the output linear entropies of `blocks` equal blocks.

    With output amplitudes (a, b, c, d), the first qubit's reduced state has
    r00 = |a|^2 + |b|^2, r11 = |c|^2 + |d|^2 and r01 = a c* + b d*, so its
    purity is r00^2 + r11^2 + 2|r01|^2, computed elementwise. Each block is
    summed on its own, pairwise over its row of the (blocks, count) view.
    """
    out = psi @ u_t
    a, b, c, d = out.T
    p = out.real**2 + out.imag**2
    r00 = p[:, 0] + p[:, 1]
    r11 = p[:, 2] + p[:, 3]
    # once c.conj() is a temporary of 256 KiB or more, numpy computes a * c.conj() in place as
    # c.conj() * a, whose imaginary part can differ in the last bit; bound names keep a * c_bar
    c_bar, d_bar = c.conj(), d.conj()
    r01 = a * c_bar + b * d_bar
    e = 1.0 - (r00 * r00 + r11 * r11 + 2.0 * (r01.real**2 + r01.imag**2))
    e = e.reshape(blocks, -1)
    return np.sum(e, axis=1), np.sum(e * e, axis=1)


def _snap(x: float) -> float:
    return float(np.round(x, _SNAP_DECIMALS) + 0.0)


def _spans(n_samples: int):
    """(first block, end block, samples per block) of each numpy call of the sampler.

    _CHUNK full blocks at a time, then the partial last block on its own.
    """
    full, rest = divmod(n_samples, _BLOCK)
    for lo in range(0, full, _CHUNK):
        yield lo, min(lo + _CHUNK, full), _BLOCK
    if rest:
        yield full, full + 1, rest


def ep_monte_carlo_many(us, n_samples: int, seed: int) -> list[EpEstimate]:
    """ep_monte_carlo for several gates, drawing each block's states once.

    Every gate is applied to the same product states, so the result for a
    gate equals ep_monte_carlo(u, n_samples, seed) and does not depend on
    which other gates are in the list or on their order. The states of
    _CHUNK consecutive full blocks are drawn, and each gate scored on them,
    in one pass of numpy calls. Each distinct matrix is scored once: inputs
    whose checked complex128 matrices have the same bytes share one
    EpEstimate, returned in input order.
    """
    u_ts = [require_unitary(u).T.copy() for u in us]
    if n_samples < 100:
        raise ValueError(f"n_samples must be at least 100, got {n_samples}")
    if n_samples > _MC_SAMPLES_MAX:
        raise ValueError(f"n_samples must be at most {_MC_SAMPLES_MAX}, got {n_samples}")
    if not u_ts:
        return []
    # one scoring per distinct matrix: inputs whose checked complex128 matrices have the same bytes
    tags = [u_t.tobytes() for u_t in u_ts]
    distinct = dict(zip(tags, u_ts))
    # the key value(seed, b) of every block b (see the rng module), from one call
    keys = rng.raw_stream(seed, 0, (n_samples + _BLOCK - 1) // _BLOCK).tolist()
    # sum and sum of squares of each distinct gate's output entropies, per block
    block_sums = np.empty((len(distinct), 2, len(keys)))
    for lo, hi, count in _spans(n_samples):
        psi = _block_states(keys[lo:hi], count)
        for sums, u_t in zip(block_sums, distinct.values()):
            sums[:, lo:hi] = _entropy_sums(psi, u_t, hi - lo)
    estimates = {}
    for tag, sums in zip(distinct, block_sums):
        total, total2 = map(math.fsum, sums.tolist())
        mean = total / n_samples
        var = max(0.0, total2 - n_samples * mean * mean) / (n_samples - 1)
        std_err = math.sqrt(var / n_samples)
        estimates[tag] = EpEstimate(_snap(mean), _snap(std_err), n_samples, seed)
    return [estimates[tag] for tag in tags]


def ep_monte_carlo(u, n_samples: int, seed: int) -> EpEstimate:
    """Estimate entangling power by sampling random product states.

    Applies u to products of independent Haar-random single-qubit states
    and averages the linear entropy of the output, with the purity written
    elementwise in the output amplitudes. The sample index space is split
    into fixed blocks of 1024; block b draws from the substream keyed by
    value(seed, b) (see the rng module), so the estimate is a pure
    function of (u, n_samples, seed) regardless of evaluation order.
    Full blocks are drawn and scored two per numpy call, but each block is
    summed on its own with numpy pairwise summation, so the grouping
    changes no bit; the block sums are combined with exact (fsum)
    accumulation. This is ep_monte_carlo_many([u], ...)[0];
    pass several gates there to share each block's draw between them.
    """
    return ep_monte_carlo_many([u], n_samples, seed)[0]
