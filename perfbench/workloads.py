"""Seeded, fixed-length op lists for the three workloads, and how to run them.

Every input comes from a ``numpy.random.Generator`` seeded with the
workload seed; the package's own ``rng`` module is never used here. The
op count per kind is fixed per second of ``--seconds`` and never depends
on timing, so a faster program runs the same ops in less time. Lattice
sizes and point counts are spread evenly over their range, the same on
every run, so the work per run does not depend on the seed; the seed
draws everything else (route and Monte-Carlo seeds, gates, points,
matrices) and the order of the ops.

Workloads (why each exists):

* ``sweep``: bulk chamber lattices and random point sets through ``verify
  theorems``, ``scan --chamber`` and ``verify routes``. Exercises the
  closed forms, both PE tests, the CSV writer and the operator route, with
  no Monte-Carlo and no matrix ingest.
* ``montecarlo``: Haar-random product-state sampling through ``verify
  montecarlo`` (9 catalog gates on the same draws) and ``analyze --name
  --mc`` (one gate, nothing to share).
* ``gates``: one freshly built gate per op: dressed matrices (one in eight
  rounded to 8 decimals), chamber points and catalog names through
  ``analyze --json``, and the library call ``classify_gate(u)``. The same
  classify, invariants and epower code as ``sweep``, one point at a time.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from checks import CATALOG, HALF_PI, INGEST_UNITARY_TOL

GRIDS = (20, 48)  # lattice sizes per axis for theorems and scan, inclusive
ROUTE_POINTS = (200, 600)
MC_SAMPLES = (20000, 50000)
MC_SEEDS = (0, 1, 2, 3, 5, 8, 13, 42)
ROUNDED_EVERY = 8  # one matrix in eight is rounded to 8 decimals

# ops of each kind per second of --seconds, sized so that a run takes about
# --seconds on a 2-core x86-64 host at the commit that added the benchmark
OPS_PER_SECOND = {
    "sweep": {"theorems": 2.5, "scan": 1.0, "routes": 1.5},
    "montecarlo": {"mc_catalog": 1.6, "mc_single": 4.0},
    "gates": {"analyze_matrix": 120.0, "analyze_point": 80.0, "analyze_name": 80.0,
              "classify_matrix": 120.0},
}
WORKLOADS = tuple(OPS_PER_SECOND)
KINDS = tuple(k for mix in OPS_PER_SECOND.values() for k in mix)
MATRIX_KINDS = ("analyze_matrix", "classify_matrix")


@dataclass(frozen=True)
class Op:
    """One benchmark operation and what its check needs."""

    kind: str
    argv: tuple[str, ...] = ()  # cli.main arguments; empty for the library call
    items: int = 1  # chamber points, gate-samples or gates
    grid: int = 0
    mc: tuple[int, int, int] | None = None  # (catalog index or -1 for all, samples, seed)
    point: tuple[float, float, float] | None = None  # generating chamber point
    display: str | None = None  # gate name the output must carry
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)
    rounded: bool = False

    @property
    def reject(self) -> bool:
        """True when the matrix is beyond the ingest tolerance and must be refused."""
        return self.matrix is not None and checks.unitarity_defect(self.matrix) > INGEST_UNITARY_TOL

    def key(self) -> tuple:
        """Identity used for ``repeat_share``: same kind, arguments and input bytes."""
        data = b"" if self.matrix is None else self.matrix.tobytes()
        return (self.kind, self.argv, data)


# --- input construction ------------------------------------------------------------

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_PAIRS = tuple(np.kron(s, s) for s in _PAULI)


def canonical_matrix(p) -> np.ndarray:
    """exp(-i/2 (c1 XX + c2 YY + c3 ZZ)) as a product of three commuting exponentials."""
    u = np.eye(4, dtype=complex)
    for c, pp in zip(p, _PAIRS):
        u = u @ (math.cos(c / 2) * np.eye(4) - 1j * math.sin(c / 2) * pp)
    return u


def _haar_u2(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def dressed_gate(p, rng: np.random.Generator) -> np.ndarray:
    """Canonical gate at p between random single-qubit unitaries, times a global phase."""
    before = np.kron(_haar_u2(rng), _haar_u2(rng))
    after = np.kron(_haar_u2(rng), _haar_u2(rng))
    return np.exp(1j * rng.uniform(0, 2 * math.pi)) * (after @ canonical_matrix(p) @ before)


def chamber_point(rng: np.random.Generator) -> tuple[float, float, float]:
    """Uniform point strictly inside the Weyl chamber (every face cleared by 1e-9)."""
    while True:
        c1, c2, c3 = (float(x) for x in rng.random(3) * (math.pi, HALF_PI, HALF_PI))
        if min(c1 - c2, c2 - c3, c3, math.pi - c1 - c2) > 1e-9:
            return c1, c2, c3


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """n integers evenly spread over [lo, hi], the middle of each of n equal slices."""
    return [int(x) for x in lo + (np.arange(n) + 0.5) * (hi - lo + 1) / n]


def _counts(workload: str, seconds: int) -> dict[str, int]:
    return {k: max(1, round(rate * seconds)) for k, rate in OPS_PER_SECOND[workload].items()}


def _sweep_ops(rng, n: dict, ref: dict) -> list[Op]:
    ops = []
    for g in _spread(*GRIDS, n["theorems"]):
        ops.append(Op("theorems", ("verify", "theorems", "--grid", str(g)),
                      items=ref["theorems"][str(g)]["chamber"], grid=g))
    for g in _spread(*GRIDS, n["scan"]):
        ops.append(Op("scan", ("scan", "--chamber", str(g)), items=ref["theorems"][str(g)]["chamber"], grid=g))
    for npts in _spread(*ROUTE_POINTS, n["routes"]):
        seed = int(rng.integers(0, 2**31))
        ops.append(Op("routes", ("verify", "routes", "--n", str(npts), "--seed", str(seed)), items=npts))
    return ops


def _montecarlo_ops(rng, n: dict) -> list[Op]:
    ops = []
    for i in range(n["mc_catalog"]):
        samples, seed = MC_SAMPLES[i % 2], int(rng.choice(MC_SEEDS))
        ops.append(Op("mc_catalog", ("verify", "montecarlo", "--mc", str(samples), "--seed", str(seed)),
                      items=len(CATALOG) * samples, mc=(-1, samples, seed)))
    for i in range(n["mc_single"]):
        samples, seed, k = MC_SAMPLES[i % 2], int(rng.choice(MC_SEEDS)), int(rng.integers(len(CATALOG)))
        name, display, point = CATALOG[k]
        ops.append(Op("mc_single", ("analyze", "--name", name, "--mc", str(samples), "--seed", str(seed), "--json"),
                      items=samples, mc=(k, samples, seed), point=point, display=display))
    return ops


def _named_gate(rng) -> tuple[str, str, tuple[float, float, float]]:
    """A catalog entry; the two parametric families get a random parameter."""
    name, display, point = CATALOG[int(rng.integers(len(CATALOG)))]
    if name.startswith("SPE:"):
        phi = float(rng.uniform(0.0, HALF_PI))
        return f"SPE:{phi!r}", f"SPE:{phi:.10g}", (HALF_PI, phi, 0.0)
    if name.startswith("SWAP_ALPHA:"):
        alpha = float(rng.uniform(0.0, 1.0))
        c = alpha * math.pi / 2
        return f"SWAP_ALPHA:{alpha!r}", f"SWAP_ALPHA:{alpha:.10g}", (c, c, c)
    return name, display, point


def _gates_ops(rng, n: dict) -> list[Op]:
    ops = []
    matrix_kinds = [k for k in MATRIX_KINDS for _ in range(n[k])]
    for j, kind in enumerate(matrix_kinds):
        p = chamber_point(rng)
        u = dressed_gate(p, rng)
        rounded = j % ROUNDED_EVERY == 0
        if rounded:
            u = np.round(u.real, 8) + 1j * np.round(u.imag, 8)
        argv = ("analyze", "--matrix", "{matrix}", "--json") if kind == "analyze_matrix" else ()
        ops.append(Op(kind, argv, point=p, matrix=u, rounded=rounded))
    for _ in range(n["analyze_point"]):
        p = chamber_point(rng)
        ops.append(Op("analyze_point", ("analyze", "--point", ",".join(map(repr, p)), "--json"),
                      point=p))
    for _ in range(n["analyze_name"]):
        name, display, p = _named_gate(rng)
        ops.append(Op("analyze_name", ("analyze", "--name", name, "--json"), point=p, display=display))
    return ops


def build_ops(workload: str, seed: int, seconds: int, ref: dict) -> list[Op]:
    """The fixed op list for one run: same (workload, seed, seconds), same ops."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    n = _counts(workload, seconds)
    if workload == "sweep":
        ops = _sweep_ops(rng, n, ref)
    elif workload == "montecarlo":
        ops = _montecarlo_ops(rng, n)
    else:
        ops = _gates_ops(rng, n)
    return [ops[i] for i in rng.permutation(len(ops))]


def warmup_ops(workload: str, ref: dict) -> list[Op]:
    """One small op of each kind, run untimed before the measured list."""
    rng = np.random.default_rng([0, 99])
    if workload == "sweep":
        chamber = ref["theorems"]["20"]["chamber"]
        return [Op("theorems", ("verify", "theorems", "--grid", "20"), items=chamber, grid=20),
                Op("scan", ("scan", "--chamber", "20"), items=chamber, grid=20),
                Op("routes", ("verify", "routes", "--n", "200", "--seed", "1"), items=200)]
    if workload == "montecarlo":
        return _montecarlo_ops(rng, {"mc_catalog": 1, "mc_single": 1})
    return _gates_ops(rng, dict.fromkeys(OPS_PER_SECOND["gates"], 1))


def load_package(root: Path):
    """Import ``gatepower`` from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    if not (src / "gatepower" / "__init__.py").is_file():
        raise ImportError(f"no gatepower sources under {src}")
    sys.path.insert(0, str(src))
    import gatepower
    import gatepower.cli

    if Path(gatepower.__file__).resolve().parent != src / "gatepower":
        raise ImportError(f"imported gatepower from {gatepower.__file__}, expected {src}")
    return gatepower


# --- running and checking one op ---------------------------------------------------


@dataclass
class Result:
    rc: int = 0
    stdout: str = ""
    stderr: str = ""
    data: bytes = b""  # scan CSV
    record: object = None  # GateRecord from the library call
    exc: BaseException | None = None


def run_op(op: Op, pkg, workdir: Path) -> tuple[float, float, Result]:
    """Run one op in-process; returns (wall seconds, thread CPU seconds, result).

    Only the call into the package is timed; inputs are written and outputs
    read outside it. ``pkg`` is the imported ``gatepower`` package; calls
    go through its module attributes so that a tracer that rebinds them
    sees every call.
    """
    res = Result()
    if op.kind in MATRIX_KINDS and op.argv:
        path = workdir / "gate.json"
        cells = [[[float(z.real), float(z.imag)] for z in row] for row in op.matrix]
        path.write_text(json.dumps({"matrix": cells}), encoding="utf-8")
        argv = [str(path) if a == "{matrix}" else a for a in op.argv]
    elif op.kind == "scan":
        path = workdir / "scan.csv"
        argv = [*op.argv, "--out", str(path)]
    else:
        argv = list(op.argv)
    out, err = io.StringIO(), io.StringIO()
    w0, c0 = time.perf_counter(), time.thread_time()
    if op.argv:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            res.rc = pkg.cli.main(argv)
    else:
        try:
            res.record = pkg.classify.classify_gate(op.matrix)
        except Exception as exc:  # the check decides whether this was expected
            res.exc = exc
    wall, cpu = time.perf_counter() - w0, time.thread_time() - c0
    res.stdout, res.stderr = out.getvalue(), err.getvalue()
    if op.kind == "scan" and res.rc == 0:
        res.data = path.read_bytes()
        path.unlink()
    return wall, cpu, res


def check_op(op: Op, res: Result, ref: dict) -> str:
    """Status of one op: 'ok', 'error' or 'wrong_verdict'; raises CheckError otherwise."""
    kind = op.kind
    if kind == "theorems":
        return checks.check_theorems(op.grid, res.rc, res.stdout, ref)
    if kind == "scan":
        return checks.check_scan(op.grid, res.rc, res.data, ref)
    if kind == "routes":
        return checks.check_routes(res.rc, res.stdout)
    if kind == "mc_catalog":
        return checks.check_mc_catalog(op.mc[1], op.mc[2], res.rc, res.stdout, ref)
    tol = checks.ROUNDED_TOL if op.rounded else checks.EXACT_TOL
    if kind == "classify_matrix":
        return checks.check_classify_record(op.point, res.record, res.exc, reject=op.reject, tol=tol)
    if kind == "analyze_matrix":
        if op.reject:
            return checks.check_matrix_rejection(res.rc, res.stderr)
        return checks.check_analyze_json(op.point, res.rc, res.stdout, res.stderr, matrix=True, tol=tol)
    mc = None
    if kind == "mc_single":
        k, samples, seed = op.mc
        mc = (*checks.mc_reference(ref, k, samples, seed), samples, seed)
    return checks.check_analyze_json(op.point, res.rc, res.stdout, res.stderr, matrix=False,
                                     display=op.display, expected_point=op.point, mc=mc)
