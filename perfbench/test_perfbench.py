"""Tests of the benchmark itself: checker, op lists and tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from checks import CheckError
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
REF = json.loads((Path(__file__).resolve().parent / "reference.json").read_text(encoding="utf-8"))
PKG = workloads.load_package(ROOT)


@pytest.fixture
def workdir():
    """Scratch directory inside the checkout, like the benchmark's own."""
    path = ROOT / ".bench_out" / "tests"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run(op, workdir):
    return workloads.run_op(op, PKG, workdir)[2]


def _cli_op(kind, *argv, **fields):
    return workloads.Op(kind, tuple(argv), **fields)


def test_checker_rejects_flipped_csv_byte(workdir):
    op = _cli_op("scan", "scan", "--chamber", "20", grid=20)
    res = _run(op, workdir)
    assert workloads.check_op(op, res, REF) == "ok"
    flipped = bytearray(res.data)
    flipped[len(flipped) // 2] ^= 0x01
    res.data = bytes(flipped)
    with pytest.raises(CheckError, match="sha256"):
        workloads.check_op(op, res, REF)


def test_checker_rejects_monte_carlo_mean_one_ulp_off(workdir):
    name, display, point = checks.CATALOG[2]
    op = _cli_op("mc_single", "analyze", "--name", name, "--mc", "20000", "--seed", "0", "--json",
                 mc=(2, 20000, 0), point=point, display=display)
    res = _run(op, workdir)
    assert workloads.check_op(op, res, REF) == "ok"
    out = json.loads(res.stdout)
    out["ep"]["monte_carlo"]["mean"] = math.nextafter(out["ep"]["monte_carlo"]["mean"], 1.0)
    res.stdout = json.dumps(out)
    with pytest.raises(CheckError, match="monte carlo block"):
        workloads.check_op(op, res, REF)

    cat = _cli_op("mc_catalog", "verify", "montecarlo", "--mc", "20000", "--seed", "0", mc=(-1, 20000, 0))
    res = _run(cat, workdir)
    assert workloads.check_op(cat, res, REF) == "ok"
    mean, _ = checks.mc_reference(REF, 2, 20000, 0)
    res.stdout = res.stdout.replace(f"mean={mean:.12g}", f"mean={math.nextafter(mean, 1.0)!r}", 1)
    with pytest.raises(CheckError, match="differs from reference"):
        workloads.check_op(cat, res, REF)


def test_checker_rejects_wrong_pe_verdict(workdir):
    p = (1.5, 0.5, 0.1)  # a perfect entangler far from every boundary
    op = _cli_op("analyze_point", "analyze", "--point", ",".join(map(repr, p)), "--json", point=p)
    res = _run(op, workdir)
    assert workloads.check_op(op, res, REF) == "ok"
    out = json.loads(res.stdout)
    assert out["pe"]["verdict"] is True
    out["pe"]["verdict"] = False
    res.stdout = json.dumps(out)
    with pytest.raises(CheckError, match="contradicts the geometric test"):
        workloads.check_op(op, res, REF)


def test_checker_counts_sliver_matrix_verdict_instead_of_rejecting(workdir):
    p = (2.225295, 0.916297, 0.719948)  # in the invariant-box sliver: box says PE, geometry says not
    assert checks.invariant_box_pe(p) and not checks.geometric_pe(p)
    u = workloads.dressed_gate(p, np.random.default_rng(5))
    op = workloads.Op("classify_matrix", point=p, matrix=u)
    assert workloads.check_op(op, _run(op, workdir), REF) == "wrong_verdict"


def test_checker_rejects_wrong_exit_codes(workdir):
    op = _cli_op("theorems", "verify", "theorems", "--grid", "25", grid=25)
    res = _run(op, workdir)
    assert res.rc == 1 and workloads.check_op(op, res, REF) == "ok"
    res.rc = 0
    with pytest.raises(CheckError, match="theorems grid 25"):
        workloads.check_op(op, res, REF)

    u = np.eye(4, dtype=complex)
    u[0, 0] = 1.0 + 1e-6  # beyond the 1e-8 ingest tolerance
    op = _cli_op("analyze_matrix", "analyze", "--matrix", "{matrix}", "--json", point=(0.0, 0.0, 0.0), matrix=u)
    res = _run(op, workdir)
    assert res.rc == 2 and workloads.check_op(op, res, REF) == "ok"
    res.rc, res.stderr = 0, ""
    with pytest.raises(CheckError, match="non-unitary matrix: exit 0"):
        workloads.check_op(op, res, REF)


def test_within_tolerance_failure_counts_as_error(workdir):
    p = (1.2, 0.7, 0.3)
    op = workloads.Op("analyze_matrix", ("analyze", "--matrix", "{matrix}", "--json"), point=p,
                      matrix=workloads.dressed_gate(p, np.random.default_rng(1)))
    res = _run(op, workdir)
    assert workloads.check_op(op, res, REF) == "ok"
    res.rc, res.stdout = 1, ""
    assert workloads.check_op(op, res, REF) == "error"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_op_list(workload):
    a = workloads.build_ops(workload, 7, 2, REF)
    b = workloads.build_ops(workload, 7, 2, REF)
    c = workloads.build_ops(workload, 8, 2, REF)
    assert [(o, o.key()) for o in a] == [(o, o.key()) for o in b]
    assert [o.key() for o in a] != [o.key() for o in c]
    assert sorted(o.kind for o in a) == sorted(o.kind for o in c)  # the mix is fixed


def _traced(workload, workdir, seed=3, seconds=1):
    ops = workloads.build_ops(workload, seed, seconds, REF)
    untraced = run.run_pass(PKG, ops, REF, workdir, host_every=1)
    tracer = Tracer(PKG)
    tracer.install()
    try:
        traced = run.run_pass(PKG, ops, REF, workdir, tracer=tracer)
    finally:
        tracer.restore()
    return ops, untraced, traced, tracer


@pytest.mark.parametrize("workload", ["montecarlo", "gates"])
def test_same_seed_same_per_layer_counts(workload, workdir):
    counts = []
    for _ in range(2):
        ops, untraced, traced, tracer = _traced(workload, workdir)
        metrics = run.per_layer(ops, untraced, 1, traced, tracer, 1)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}
                      | {k: metrics[k][0] for k in ("rng.unique_draw_ratio", "linalg.unitarity_checks_per_gate",
                                                    "canonical.chamber_accept_ratio")})
    assert counts[0] == counts[1]
    assert counts[0][f"{'rng' if workload == 'montecarlo' else 'linalg'}.calls"] > 0


def test_self_times_add_up_to_traced_wall(workdir):
    ops, untraced, traced, tracer = _traced("sweep", workdir)
    metrics = run.per_layer(ops, untraced, 1, traced, tracer, 1)
    total_self = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    wall = sum(traced.wall)
    assert total_self == pytest.approx(wall, rel=0.02)
    assert sum(metrics[f"{layer}.self_share"][0] for layer in LAYERS) == pytest.approx(1.0, rel=0.02)


def test_traced_and_untraced_outputs_identical(workdir):
    ops = [o for w in workloads.WORKLOADS for o in workloads.warmup_ops(w, REF)]
    plain = [_run(op, workdir) for op in ops]
    tracer = Tracer(PKG)
    tracer.install()
    try:
        traced = [_run(op, workdir) for op in ops]
    finally:
        tracer.restore()
    for op, a, b in zip(ops, plain, traced):
        assert (a.rc, a.stdout, a.stderr, a.data) == (b.rc, b.stdout, b.stderr, b.data), op.kind
        if a.record is not None:
            assert (a.record.invariants, a.record.ep, a.record.pe_verdict) == (
                b.record.invariants, b.record.ep, b.record.pe_verdict)
        assert workloads.check_op(op, b, REF) == workloads.check_op(op, a, REF)
    assert len(tracer.nid) > 0


def test_restore_puts_back_every_binding():
    mods = [PKG] + [getattr(PKG, name) for name in LAYERS]
    before = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if inspect.isfunction(v)}
    post_init = PKG.canonical.WeylPoint.__post_init__
    tracer = Tracer(PKG)
    tracer.install()
    assert PKG.classify.in_weyl_chamber is not before[("gatepower.classify", "in_weyl_chamber")]
    tracer.restore()
    after = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if inspect.isfunction(v)}
    assert after == before
    assert PKG.canonical.WeylPoint.__post_init__ is post_init
