"""Benchmark of the gatepower library and CLI as its users run them.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--workload`` is ``sweep``, ``montecarlo``, ``gates`` or ``all``. The
op list is fixed by (workload, seed, seconds); ``workloads.py`` says what
each workload runs and why. One process and one client run it as a closed
loop: each op starts when the previous one has returned. Every op's
output is checked (``checks.py``).

Timing. The program is single-threaded and CPU-bound, so an op's latency
is the CPU time of the calling thread, which equals its wall time on a
quiet host; on a shared host it leaves out the time the thread was
descheduled. The speed of a shared host still swings by 20% and more
within seconds, so a fixed reference kernel that does not touch gatepower
(``host_reference_ms``) runs between ops, and each
time is reported in milliseconds of the nominal host: multiplied by
``HOST_REF_NOMINAL_MS`` over the median of the ``HOST_WINDOW`` kernel
times measured nearest to it. Unscaled wall-clock figures are printed on
the report lines.

With ``--trace 0`` the last line of output is a JSON object whose metrics
are the end-to-end ones:

* ``setup_s``: median over fresh interpreters of importing ``gatepower.cli``
  and finishing one ``analyze --name CNOT_CLASS``;
* ``items_per_s``: chamber points, gate-samples or gates per second of op time;
* ``op_p50_ms`` and ``op_tail_ms``, the latency at the highest of
  p75/p90/p95/p99/p99.9 that has at least 10 ops beyond it;
* ``success_rate`` = 1 - error_rate and ``right_verdict_rate`` =
  1 - wrong_verdict_rate (1 when no matrix op has a checkable verdict);
* ``peak_rss_mb``.

With ``--trace 1`` the op list runs untraced and then every fourth op runs
again traced (``tracer.py``), and the metrics are the per-layer ones:
``<module>.calls``, ``.self_s``, ``.self_share`` and ``.errors`` for each
layer and named counts, all over the traced ops; ``op.<kind>.p50_ms`` over
all ops; ``trace.overhead_ratio`` (traced over untraced wall time of the
traced ops) and ``host_ref_ms``. A count that a workload never reaches
reads 0.
Spans are written to ``.bench_out/spans-<workload>.npz``.

The report lines before the last one give the op mix, ``repeat_share``
(the share of ops identical to an earlier op of the run), the tail
percentile and its sample count, and error and wrong-verdict rates per op
kind. The exit code is 0 when every op's output passed its check, 1 when
one did not, and 2 when the package cannot be loaded from ``src``.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from checks import BOUNDARY_GAP, CheckError, boundary_distance
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
# timed inside the fresh interpreter, from before the import to the end of the analyze
SETUP_SNIPPET = """
import sys, time
t0 = time.thread_time()
sys.path.insert(0, 'src')
from gatepower import cli
rc = cli.main(['analyze', '--name', 'CNOT_CLASS'])
print(f"setup_seconds {time.thread_time() - t0!r}")
sys.exit(rc)
"""
# the reference kernel runs before every n-th op and after the last one
HOST_EVERY = {"sweep": 1, "montecarlo": 1, "gates": 4}
HOST_WINDOW = 5
# median kernel time of the 2-core x86-64 host the benchmark was tuned on
HOST_REF_NOMINAL_MS = 2.0
# the traced pass runs every TRACE_STRIDE-th op, which keeps the spans of a
# 20-second sweep run to about 2 million (60 MB)
TRACE_STRIDE = 4
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10

_HOST_MATRIX = np.linalg.qr(np.random.default_rng(7).normal(size=(4, 4)) + 0j)[0]


@dataclass(frozen=True)
class _Probe:
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("non-finite probe")


def host_reference_ms() -> float:
    """Thread CPU time of a fixed kernel that does not touch gatepower.

    Three parts of similar length, because host slowdowns hit them
    differently: float math in a Python loop, 4x4 complex matmuls, and
    small frozen dataclasses, dicts and string formatting.
    """
    t0 = time.thread_time()
    acc = 0.0
    for i in range(1, 2001):
        x = i * 1e-3
        acc += math.sin(x) * math.sqrt(x) / (1.0 + x * x)
    m = np.eye(4, dtype=complex)
    for _ in range(200):
        m = _HOST_MATRIX @ m
    kept = []
    for i in range(150):
        p = _Probe(i * 0.01, 0.5)
        margins = {"low": p.a + p.b - 1.0, "high": 1.0 - p.b}
        if all(v >= -1e-9 for v in margins.values()):
            kept.append(f"{p.a!r}")
    dt = time.thread_time() - t0
    if not math.isfinite(acc + abs(m[0, 0])) or len(kept) != 100:
        raise RuntimeError("host reference kernel produced a wrong value")
    return dt * 1e3


def scaled_ms(seconds: list[float], host_ms: list[float], every: int) -> list[float]:
    """Times in milliseconds of the nominal host; host_ms[k] was measured before time k * every."""
    out = []
    for i, s in enumerate(seconds):
        lo = min(max(0, i // every + 1 - HOST_WINDOW // 2), max(0, len(host_ms) - HOST_WINDOW))
        out.append(s * 1e3 * HOST_REF_NOMINAL_MS / statistics.median(host_ms[lo:lo + HOST_WINDOW]))
    return out


def tail(sorted_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with TAIL_BEYOND samples beyond it."""
    n = len(sorted_ms)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)  # nearest rank, 1-based
        if n - rank >= TAIL_BEYOND:
            return pct, sorted_ms[rank - 1]
    return 50.0, statistics.median(sorted_ms)  # runs too short for any tail


def setup_seconds(root: Path) -> tuple[float, float]:
    """Median set-up time of fresh interpreters: (nominal-host seconds, unscaled seconds)."""
    times, host = [], [host_reference_ms()]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=root,
                              capture_output=True, text=True, timeout=60)
        host.append(host_reference_ms())
        if proc.returncode != 0 or "perfect entangler: yes" not in proc.stdout:
            raise CheckError(f"set-up run failed: exit {proc.returncode}, {proc.stderr.strip()!r}")
        times.append(float(proc.stdout.rsplit("setup_seconds ", 1)[1]))
    return statistics.median(scaled_ms(times, host, 1)) / 1e3, statistics.median(times)


@dataclass
class Pass:
    """Timings, statuses and outputs of one pass over an op list."""

    wall: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    status: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    host_ms: list[float] = field(default_factory=list)
    bytes_out: int = 0


def run_pass(pkg, ops, ref, workdir: Path, *, host_every: int = 0, tracer: Tracer | None = None) -> Pass:
    out = Pass()
    for i, op in enumerate(ops):
        if host_every and i % host_every == 0:
            out.host_ms.append(host_reference_ms())
        if tracer is not None:
            tracer.begin_op(i)
        wall, cpu, res = workloads.run_op(op, pkg, workdir)
        if tracer is not None:
            tracer.end_op()
        out.wall.append(wall)
        out.cpu.append(cpu)
        out.bytes_out += len(res.stdout.encode()) + len(res.data)
        try:
            out.status.append(workloads.check_op(op, res, ref))
        except CheckError as exc:
            out.status.append("wrong")
            out.failures.append(f"op {i} {op.kind} {' '.join(op.argv)}: {exc}")
    if host_every:
        out.host_ms.append(host_reference_ms())
    return out


def end_to_end(ops, run: Pass, every: int, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    """End-to-end metrics of an untraced pass, with report lines."""
    n = len(ops)
    per_op = scaled_ms(run.cpu, run.host_ms, every)
    lat = sorted(per_op)
    wall = sorted(s * 1e3 for s in run.wall)
    pct, tail_ms = tail(lat)
    errors = run.status.count("error")
    wrong = run.status.count("wrong_verdict")
    judged = sum(1 for op, st in zip(ops, run.status)
                 if op.kind in workloads.MATRIX_KINDS and st in ("ok", "wrong_verdict") and not op.reject
                 and boundary_distance(op.point) >= BOUNDARY_GAP)
    items = sum(op.items for op, st in zip(ops, run.status) if st != "error")
    metrics = {
        "setup_s": (setup[0], "s"),
        "items_per_s": (items / sum(lat) * 1e3, "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "success_rate": (1.0 - errors / n, "ratio"),
        "right_verdict_rate": (1.0 - wrong / judged if judged else 1.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    repeats = sum(v - 1 for v in Counter(op.key() for op in ops).values())
    report = [
        f"ops: {n} ({', '.join(f'{k} {v}' for k, v in Counter(op.kind for op in ops).items())})",
        f"repeat_share: {repeats / n:.4f}",
        f"op_tail_ms is the p{pct:g} latency of {n} ops ({n - math.ceil(pct / 100 * n)} beyond it)",
        f"host_ref_ms: {statistics.median(run.host_ms):.4f} (median of {len(run.host_ms)})",
        f"unscaled wall clock: setup_s {setup[1]:.6g}, items_per_s {items / sum(wall) * 1e3:.6g},"
        f" op_p50_ms {statistics.median(wall):.6g}, op_tail_ms {tail(wall)[1]:.6g},"
        f" {sum(wall) / 1e3:.3f} s in the package",
        f"error_rate: {errors / n:.6f} ({errors}/{n}); wrong_verdict_rate:"
        f" {wrong / judged if judged else 0.0:.6f} ({wrong}/{judged} off-boundary matrix verdicts)",
    ]
    for kind in dict.fromkeys(op.kind for op in ops):
        idx = [i for i, op in enumerate(ops) if op.kind == kind]
        st = Counter(run.status[i] for i in idx)
        report.append(
            f"  {kind}: {len(idx)} ops, p50 {statistics.median(per_op[i] for i in idx):.3f} ms,"
            f" errors {st['error']}, wrong verdicts {st['wrong_verdict']},"
            f" rejected as non-unitary {sum(ops[i].reject for i in idx)}")
    return metrics, report


def per_layer(ops, untraced: Pass, every: int, traced: Pass, tracer: Tracer, stride: int) -> dict:
    """Per-layer metrics; ``traced`` and ``tracer`` cover ops[::stride], ``untraced`` all ops."""
    names = tracer.per_name()
    wall = sum(traced.wall)
    metrics = {}
    for layer in LAYERS:
        rows = [v for k, v in names.items() if k.split(".")[0] == layer]
        self_s = sum(r["self_s"] for r in rows)
        metrics[f"{layer}.calls"] = (sum(r["calls"] for r in rows), "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.self_share"] = (self_s / wall, "ratio")
        metrics[f"{layer}.errors"] = (sum(r["errors"] for r in rows), "count")
    chamber_calls = names["canonical.in_weyl_chamber"]["calls"]
    matrix_ops = sum(op.kind in workloads.MATRIX_KINDS for op in ops[::stride])
    metrics |= {
        "canonical.points_built": (tracer.points_built, "count"),
        "canonical.chamber_accept_ratio": (
            tracer.chamber_accepted / chamber_calls if chamber_calls else 0.0, "ratio"),
        "classify.pe_tests": (
            names["classify.is_pe_geometric"]["calls"] + names["classify.is_pe_invariant"]["calls"], "count"),
        "classify.verify_theorems.self_s": (names["classify.verify_theorems"]["self_s"], "s"),
        "cli.bytes_out": (traced.bytes_out, "bytes"),
        "epower.ep_operator_exact.self_s": (names["epower.ep_operator_exact"]["self_s"], "s"),
        "epower.ep_monte_carlo.self_s": (names["epower.ep_monte_carlo"]["self_s"], "s"),
        "epower.mc_samples": (tracer.mc_samples, "count"),
        "invariants.invariants_from_matrix.self_s": (names["invariants.invariants_from_matrix"]["self_s"], "s"),
        "linalg.unitarity_checks_per_gate": (
            names["linalg.require_unitary"]["calls"] / matrix_ops if matrix_ops else 0.0, "1/gate"),
        "rng.uniforms_drawn": (tracer.uniforms_drawn, "count"),
        "rng.unique_draw_ratio": (
            tracer.unique_uniforms / tracer.uniforms_drawn if tracer.uniforms_drawn else 0.0, "ratio"),
    }
    per_op = scaled_ms(untraced.cpu, untraced.host_ms, every)
    for kind in workloads.KINDS:
        times = [s for op, s in zip(ops, per_op) if op.kind == kind]
        metrics[f"op.{kind}.p50_ms"] = (statistics.median(times) if times else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (wall / sum(untraced.wall[::stride]), "ratio")
    metrics["host_ref_ms"] = (statistics.median(untraced.host_ms), "ms")
    return metrics


def run_workload(pkg, workload: str, seed: int, seconds: int, trace: bool, root: Path) -> tuple[dict, Pass, list]:
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workdir = root / ".bench_out"
    workdir.mkdir(exist_ok=True)
    every = HOST_EVERY[workload]
    setup = setup_seconds(root)
    ops = workloads.build_ops(workload, seed, seconds, ref)
    warm = run_pass(pkg, workloads.warmup_ops(workload, ref), ref, workdir)
    untraced = run_pass(pkg, ops, ref, workdir, host_every=every)
    metrics, report = end_to_end(ops, untraced, every, setup)
    passes = [warm, untraced]
    if trace:
        report += [f"  {name}: {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        tracer = Tracer(pkg)
        tracer.install()
        try:
            traced = run_pass(pkg, ops[::TRACE_STRIDE], ref, workdir, tracer=tracer)
        finally:
            tracer.restore()
        passes.append(traced)
        metrics = per_layer(ops, untraced, every, traced, tracer, TRACE_STRIDE)
        spans = workdir / f"spans-{workload}.npz"
        tracer.save(spans)
        report.append(f"spans: {len(tracer.nid)} written to {spans.relative_to(root)}")
    return metrics, untraced, report + [f"CHECK FAILED {f}" for p in passes for f in p.failures]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        pkg = workloads.load_package(root)
    except ImportError as exc:
        print(f"cannot load gatepower: {exc}", file=sys.stderr)
        return 2
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in chosen:
        m, run, report = run_workload(pkg, workload, args.seed, args.seconds, bool(args.trace), root)
        print(f"== {workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
        print("\n".join(report), flush=True)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics |= {prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()}
        attempted += len(run.status)
        failed += run.status.count("error")
        correct = correct and not any(line.startswith("CHECK FAILED") for line in report)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
