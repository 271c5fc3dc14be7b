"""Command-line interface.

Commands:
    analyze    invariants, entangling power and classification of one gate
    scan       CSV sweep over a chamber lattice or a named edge
    verify     self-check suites (theorems, routes, montecarlo)
    catalog    list the named gate classes

Exit codes: 0 success, 1 verification violations, 2 input error,
3 I/O error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .canonical import EdgeId, WeylPoint, _edge_coords, chamber_lattice
from .catalog import catalog_records, named_gate, verify_monte_carlo
from .classify import GateRecord, _evaluate, classify_gate, verify_theorems
from .epower import _ep_operator, ep_from_g1_abs, ep_monte_carlo, verify_route_agreement
from .errors import ConsistencyError, TheoremViolationError

__all__ = ["main", "entry", "load_matrix_file", "matrix_to_json"]

_CSV_HEADER = "c1,c2,c3,g1_abs,g2,ep,pe_geometric,pe_invariant"
# "%.12g" renders a float with the same bytes as _fmt; a bool mask indexes _CSV_BOOL
_CSV_ROW = "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s,%s\n"
_CSV_BOOL = np.array(["false", "true"], dtype=object)


def _fmt(x: float) -> str:
    """Decimal rendering with 12 significant digits."""
    return format(float(x), ".12g")


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    """4x4 complex matrix as nested [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def load_matrix_file(path: str) -> tuple[str | None, np.ndarray]:
    """Read a gate matrix from a JSON file.

    Schema: {"matrix": 4x4 array of [re, im] pairs of JSON numbers, "name": optional}.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict) or "matrix" not in data:
        raise ValueError(f"{path}: expected a JSON object with a 'matrix' key")
    raw = data["matrix"]
    if not (isinstance(raw, list) and len(raw) == 4 and all(isinstance(r, list) and len(r) == 4 for r in raw)):
        raise ValueError(f"{path}: matrix must be a 4x4 array of [re, im] pairs")
    for i, cell in enumerate(cell for row in raw for cell in row):
        # type(), not isinstance(): JSON true and false load as bool, a subclass of int;
        # complex() raises OverflowError on an int beyond the largest float
        if not (isinstance(cell, list) and len(cell) == 2
                and all(type(x) is float or type(x) is int and abs(x) <= sys.float_info.max for x in cell)):
            raise ValueError(f"{path}: matrix[{i // 4}][{i % 4}] must be an [re, im] pair of numbers, got {json.dumps(cell)}")
    m = np.array([[complex(re, im) for re, im in row] for row in raw], dtype=complex)
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"{path}: 'name' must be a string")
    return name, m


def _parse_point(text: str, degrees: bool) -> WeylPoint:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"point must be three comma-separated numbers, got {text!r}")
    try:
        vals = [float(s) for s in parts]
    except ValueError:
        raise ValueError(f"point must be three comma-separated numbers, got {text!r}") from None
    if degrees:
        vals = [v * math.pi / 180.0 for v in vals]
    return WeylPoint(*vals)


def _record_json(rec: GateRecord, ep_routes: dict, mc) -> dict:
    out: dict = {}
    if rec.name is not None:
        out["name"] = rec.name
    if rec.point is not None:
        out["point"] = [rec.point.c1, rec.point.c2, rec.point.c3]
    out["matrix"] = matrix_to_json(rec.matrix)
    out["invariants"] = {
        "g1": [rec.invariants.g1.real, rec.invariants.g1.imag],
        "g1_abs": abs(rec.invariants.g1),
        "g2": rec.invariants.g2,
    }
    out["ep"] = dict(ep_routes)
    if mc is not None:
        out["ep"]["monte_carlo"] = {
            "mean": mc.mean,
            "std_err": mc.std_err,
            "n_samples": mc.n_samples,
            "seed": mc.seed,
        }
    pe: dict = {"verdict": rec.pe_verdict}
    if rec.geometric is not None:
        pe["geometric"] = {"is_pe": rec.geometric.is_pe, "margins": rec.geometric.margins}
    pe["invariant"] = {"is_pe": rec.invariant.is_pe, "margins": rec.invariant.margins}
    out["pe"] = pe
    out["tags"] = sorted(rec.tags)
    return out


def _print_record(rec: GateRecord, ep_routes: dict, mc) -> None:
    if rec.name is not None:
        print(f"gate: {rec.name}")
    if rec.point is not None:
        c1, c2, c3 = rec.point
        print(f"point: [{_fmt(c1)}, {_fmt(c2)}, {_fmt(c3)}]")
    g1 = rec.invariants.g1
    print(f"g1: {_fmt(g1.real)}{g1.imag:+.12g}j  |g1|: {_fmt(abs(g1))}  g2: {_fmt(rec.invariants.g2)}")
    for label, value in ep_routes.items():
        print(f"ep ({label.replace('_', ' ')}): {_fmt(value)}")
    if mc is not None:
        print(
            f"ep (monte carlo): {_fmt(mc.mean)} +/- {_fmt(mc.std_err)}"
            f"  (n={mc.n_samples}, seed={mc.seed})"
        )
    print(f"perfect entangler: {'yes' if rec.pe_verdict else 'no'}")
    if rec.geometric is not None:
        m = rec.geometric.margins
        print("  geometric margins: " + ", ".join(f"{k}={_fmt(v)}" for k, v in m.items()))
    m = rec.invariant.margins
    print("  invariant margins: " + ", ".join(f"{k}={_fmt(v)}" for k, v in m.items()))
    print(f"tags: {', '.join(sorted(rec.tags)) if rec.tags else '-'}")


def cmd_analyze(args) -> int:
    mc = None
    if args.name is not None:
        rec = named_gate(args.name)
    elif args.point is not None:
        p = _parse_point(args.point, args.deg)
        rec = classify_gate(p)
    else:
        name, m = load_matrix_file(args.matrix)
        rec = classify_gate(m, name=name)
    # a point record's ep is the closed form; a matrix record's is the |g1| route.
    # Every record's matrix is unitary: checked on ingest or built by canonical_gate.
    ep_routes = {"closed_form": rec.ep} if rec.point is not None else {}
    ep_routes["from_g1_abs"] = ep_from_g1_abs(abs(rec.invariants.g1))
    ep_routes["operator"] = float(_ep_operator(rec.matrix))
    if args.mc is not None:
        mc = ep_monte_carlo(rec.matrix, args.mc, args.seed)
    if args.json:
        print(json.dumps(_record_json(rec, ep_routes, mc), indent=2))
    else:
        _print_record(rec, ep_routes, mc)
    return 0


def cmd_scan(args) -> int:
    if args.edge is not None:
        try:
            edge = EdgeId[args.edge.upper()]
        except KeyError:
            known = ", ".join(e.name for e in EdgeId)
            raise ValueError(f"unknown edge {args.edge!r}; known edges: {known}") from None
        if args.steps < 2:
            raise ValueError(f"--steps must be at least 2, got {args.steps}")
        pts = _edge_coords(edge, np.linspace(0.0, 1.0, args.steps))
    else:
        pts = chamber_lattice(args.chamber)
    cols = _evaluate(*pts.T)
    geo, inv = (_CSV_BOOL[cols[k].astype(np.intp)] for k in ("pe_geometric", "pe_invariant"))
    columns = [*pts.T, cols["g1_abs"], cols["g2"], cols["ep"], geo, inv]
    del cols  # the margin and boundary columns are not printed; free them before rendering
    # rendered in blocks: whole columns of Python floats, or one string per row, raise peak memory
    blocks = [_CSV_HEADER + "\n"]
    for lo in range(0, len(pts), 1024):
        rows = zip(*(col[lo : lo + 1024].tolist() for col in columns))
        blocks.append("".join(map(_CSV_ROW.__mod__, rows)))
    text = "".join(blocks)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    if args.suite == "theorems":
        rep = verify_theorems(args.grid)
        print(
            f"theorem sweep: grid {rep.grid_n}"
            f" ({rep.n_lattice} lattice points, {rep.n_chamber} in chamber,"
            f" {rep.n_pe} perfect entanglers)"
        )
        print(f"boundary-exempt points: {rep.n_boundary_exempt}")
        for label, bucket in [
            ("g2 bound", rep.g2_bound_violations),
            ("g2 converse", rep.g2_converse_violations),
            ("equivalence", rep.equivalence_violations),
            ("ep range", rep.ep_range_violations),
        ]:
            print(f"{label} violations: {len(bucket)}")
            for line in bucket:
                print(f"  {line}")
        print(f"result: {'PASS' if rep.passed else 'FAIL'}")
        return 0 if rep.passed else 1
    if args.suite == "routes":
        rep = verify_route_agreement(args.n, args.seed)
        print(f"route agreement: {rep.n_points} points, seed {rep.seed}")
        print(f"max |closed - from_g1| : {rep.max_closed_vs_g1:.3e}")
        print(f"max |closed - operator|: {rep.max_closed_vs_operator:.3e}")
        print(f"max |g2 form difference|: {rep.max_g2_forms:.3e}")
        for line in rep.violations:
            print(f"  {line}")
        print(f"result: {'PASS' if rep.passed else 'FAIL'}")
        return 0 if rep.passed else 1
    rep = verify_monte_carlo(args.mc, args.seed)
    print(f"monte carlo: {rep.n_samples} samples per gate, seed {rep.seed}")
    for name, mean, std_err, analytic in rep.rows:
        print(
            f"{name}: mean={_fmt(mean)} std_err={_fmt(std_err)}"
            f" analytic={_fmt(analytic)}"
        )
    for line in rep.violations:
        print(f"  {line}")
    print(f"result: {'PASS' if rep.passed else 'FAIL'}")
    return 0 if rep.passed else 1


def cmd_catalog(args) -> int:
    for rec in catalog_records():
        c1, c2, c3 = rec.point
        point = f"[{c1:.6g}, {c2:.6g}, {c3:.6g}]"
        tags = ",".join(sorted(rec.tags)) if rec.tags else "-"
        print(
            f"{rec.name:<16} {point:<28} |g1|={abs(rec.invariants.g1):.4g}"
            f" g2={rec.invariants.g2:.4g} ep={rec.ep:.4g}"
            f" {'PE' if rec.pe_verdict else 'non-PE':<6} tags: {tags}"
        )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later main() calls."""
    parser = argparse.ArgumentParser(
        prog="gatepower",
        description="Entangling power and local invariants of two-qubit gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="characterize one gate")
    target = a.add_mutually_exclusive_group(required=True)
    target.add_argument("--name", help="catalog name, e.g. SWAP or SPE:0.7854")
    target.add_argument("--point", help="chamber point c1,c2,c3 in radians")
    target.add_argument("--matrix", help="path to a JSON matrix file")
    a.add_argument("--deg", action="store_true", help="interpret --point in degrees")
    a.add_argument("--json", action="store_true", help="emit JSON instead of text")
    a.add_argument("--mc", type=int, default=None, help="add a Monte-Carlo estimate with this many samples")
    a.add_argument("--seed", type=int, default=42, help="seed for --mc (default 42)")
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("scan", help="CSV sweep over points")
    mode = s.add_mutually_exclusive_group(required=True)
    mode.add_argument("--chamber", type=int, help="lattice sweep with this grid size per axis")
    mode.add_argument("--edge", help="named edge to sweep: " + ", ".join(e.name for e in EdgeId))
    s.add_argument("--steps", type=int, default=11, help="points along the edge (default 11)")
    s.add_argument("--out", help="write CSV to this path instead of stdout")
    s.set_defaults(func=cmd_scan)

    v = sub.add_parser("verify", help="run a self-check suite")
    v.add_argument("suite", choices=["theorems", "routes", "montecarlo"])
    v.add_argument("--grid", type=int, default=25, help="lattice size for theorems (default 25)")
    v.add_argument("--n", type=int, default=500, help="random points for routes (default 500)")
    v.add_argument("--mc", type=int, default=200_000, help="samples per gate for montecarlo (default 200000)")
    v.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("catalog", help="list named gate classes")
    c.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConsistencyError, TheoremViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
