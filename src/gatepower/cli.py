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
import contextlib
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from .canonical import EdgeId, WeylPoint, _edge_coords
from .catalog import catalog_records, named_gate, verify_monte_carlo
from .classify import GateRecord, _evaluate, _lattice_blocks, classify_gate, pe_mask, verify_route_agreement, verify_theorems
from .epower import _ep_operator, ep_from_g1_abs, ep_monte_carlo
from .errors import ConsistencyError

__all__ = ["main", "entry", "load_matrix_file", "matrix_to_json"]

_CSV_HEADER = "c1,c2,c3,g1_abs,g2,ep,pe_geometric,pe_invariant"
# the text of a verdict column, NUL-padded to one width; a bool mask cast to intp indexes it
_CSV_BOOL_TEXT = np.array([b"false", b"true"]).view(np.uint8).reshape(2, 5)
# the cap bounds run time and the CSV (99 MB); an edge sweep keeps its 8 MB of parameters and builds one
# block's points at a time: scan --edge LN --steps 1000000 --out peaked at 39 MB
_STEPS_MAX = 1_000_000
_SCAN_BLOCK = 1024  # rows scan evaluates and writes at a time
# the four ASCII digits of each d < 10000 as one uint32: the digit pair of d // 100, then that of
# d % 100. Built by arithmetic it adds about 0.2 ms to importing this module, a 10000-string list 5 ms
_PAIRS = (np.arange(100)[:, None] // [10, 1] % 10 + ord("0")).astype(np.uint8)
_DIGITS4 = np.hstack([np.repeat(_PAIRS, 100, axis=0), np.tile(_PAIRS, (100, 1))]).view("<u4").ravel()
_POW10 = 10.0 ** np.arange(16)  # 10^k is a float with no rounding for k <= 22
_DECADES = np.array([1e-3, 1e-2, 0.1, 1.0])  # 1e-4 <= |v| < 10 has e = (how many are <= |v|) - 4
# row j masks the first j + 1 bytes of sixteen, as two little-endian uint64 words
_KEEP = np.where(np.arange(16) <= np.arange(16)[:, None], 0xFF, 0).astype(np.uint8).view("<u8")
_ASCII_ZEROS = np.uint64(0x3030303030303030)  # eight "0" bytes

# json.dumps(m, indent=2) of a 4x4 [re, im] block as the value of a top-level key: one %r
# (float.__repr__, as json writes a finite float) per number, re and im cell by cell
_JSON_CELL = "[\n        %r,\n        %r\n      ]"
_JSON_ROW = "[\n      " + ",\n      ".join([_JSON_CELL] * 4) + "\n    ]"
_JSON_MATRIX = "[\n    " + ",\n    ".join([_JSON_ROW] * 4) + "\n  ]"
# how json writes each leaf type of a record; every float a record holds is finite
_JSON_LEAF = {
    str: json.encoder.encode_basestring_ascii,
    float: float.__repr__,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
}


def _fmt(x: float) -> str:
    """Decimal rendering with 12 significant digits."""
    return format(float(x), ".12g")


def _g12_text(x) -> np.ndarray:
    """The _fmt text of each float in the 1-D x as the rows of an (n, w) uint8 array, NUL-padded.

    Values with 1e-4 <= |v| < 10, and +-0.0, take the fast path. With e = floor(log10 |v|),
    y = |v| 10^(11-e) is one rounding (at most 2^-14) off the exact product, as 10^(11-e) is
    exact, so m = rint(y) is the correctly rounded 12-digit mantissa unless y lies within 1e-3
    of a tie or m reaches 1e12. m 10^(4+e) < 1e16 then holds the units digit and the fifteen
    fraction digits %.12g can show; the zeros after the last nonzero digit, and a bare ".",
    are dropped. Every other value, nan and +-inf among them, is rendered by _fmt.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    a = np.abs(x)
    span = (a >= 1e-4) & (a < 10.0)
    k = np.searchsorted(_DECADES, a, side="right")  # e + 4 on span
    y = np.where(span, a, 0.0) * _POW10[15 - k]  # 0 off span, so that inf and nan give 0
    m = np.rint(y)
    fast = span & (m < 1e12) & (np.abs(y - m) < 0.499) | (a == 0.0)
    # the sixteen digits of m 10^k in four groups below 1e4, most significant first
    scaled = np.where(fast, m, 0.0).astype(np.int64) * 10**k
    halves = np.stack(np.divmod(scaled, 10**8), axis=1)
    groups = np.stack(np.divmod(halves, 10**4), axis=2).reshape(n, 4)
    words = _DIGITS4.take(groups).view("<u8")  # digit i is byte i of the row
    # the last nonzero digit is the top nonzero byte of words ^ "00000000", read off the float
    # exponent; each such byte is at most 9, so the conversion cannot round into the next byte
    nz = words ^ _ASCII_ZEROS
    top = (np.frexp(nz.astype(np.float64))[1] - 1) >> 3
    last = np.maximum(np.where(nz[:, 1] != 0, top[:, 1] + 8, top[:, 0]), 0)
    words &= _KEEP.take(last, axis=0)
    digits = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    shown = [_fmt(v) for v in x[slow].tolist()]
    # a fast row's text ends at column 2 + last; the array is as wide as the longest text
    width = max([3 + last.max(initial=0), *map(len, shown)])
    out = np.zeros((n, max(width, 18)), dtype=np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    out[:, 1] = digits[:, 0]
    out[:, 2] = np.where(last > 0, ord("."), 0)
    out[:, 3:18] = digits[:, 1:]
    out[slow, :width] = np.array(shown, dtype=f"S{width}").view(np.uint8).reshape(len(slow), width)
    return out[:, :width]


def _csv_rows(fields: list[np.ndarray]) -> str:
    """CSV lines whose fields are the rows of NUL-padded uint8 text arrays, one array per column."""
    mat = np.full((len(fields[0]), sum(f.shape[1] + 1 for f in fields)), ord(","), dtype=np.uint8)
    col = 0
    for f in fields:
        mat[:, col:col + f.shape[1]] = f
        col += f.shape[1] + 1
    mat[:, -1] = ord("\n")
    return mat.tobytes().translate(None, b"\0").decode("ascii")


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    """4x4 complex matrix as nested [re, im] pairs."""
    return np.ascontiguousarray(m, dtype=complex).view(np.float64).reshape(4, 4, 2).tolist()


def load_matrix_file(path: str) -> tuple[str | None, np.ndarray]:
    """Read a gate matrix from a JSON file.

    Schema: {"matrix": 4x4 array of [re, im] pairs of JSON numbers, "name": optional printable string}.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
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
    # the text view prints the name on its one-line gate: field, encoded as UTF-8
    if name is not None and not (isinstance(name, str) and name.isprintable()):
        raise ValueError(f"{path}: 'name' must be a printable string")
    return name, m


def _json_value(v, indent: str) -> str:
    """json.dumps(v, indent=2) of a dict, list or leaf nested at indent."""
    kind = type(v)
    if kind is not dict and kind is not list:
        return _JSON_LEAF[kind](v)
    if not v:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    if kind is dict:
        items = [f"{json.encoder.encode_basestring_ascii(k)}: {_json_value(x, inner)}" for k, x in v.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return "[\n" + inner + (",\n" + inner).join([_json_value(x, inner) for x in v]) + "\n" + indent + "]"


def _record_json(out: dict) -> str:
    """An analyze record as json.dumps renders it with indent=2, byte for byte.

    CPython falls back to its pure-Python encoder whenever indent is set; this
    fills the fixed-shape matrix block from one template and walks the rest.
    """
    items = [
        f"  {json.encoder.encode_basestring_ascii(k)}: "
        + (_JSON_MATRIX % tuple(x for row in v for cell in row for x in cell) if k == "matrix" else _json_value(v, "  "))
        for k, v in out.items()
    ]
    return "{\n" + ",\n".join(items) + "\n}"


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


def _record(rec: GateRecord, mc) -> dict:
    """The analyze record of one gate: what --json prints and what the text view shows.

    A point record's ep is the closed form; a matrix record's is the |g1| route.
    Every record's matrix is unitary: checked on ingest or built by canonical_gate.
    """
    out: dict = {}
    if rec.name is not None:
        out["name"] = rec.name
    if rec.point is not None:
        out["point"] = list(rec.point)
    out["matrix"] = matrix_to_json(rec.matrix)
    g1 = rec.invariants.g1
    out["invariants"] = {"g1": [g1.real, g1.imag], "g1_abs": abs(g1), "g2": rec.invariants.g2}
    ep = out["ep"] = {"closed_form": rec.ep} if rec.point is not None else {}
    ep["from_g1_abs"] = ep_from_g1_abs(abs(g1))
    ep["operator"] = float(_ep_operator(rec.matrix))
    if mc is not None:
        ep["monte_carlo"] = {"mean": mc.mean, "std_err": mc.std_err, "n_samples": mc.n_samples, "seed": mc.seed}
    out["pe"] = {"verdict": rec.pe_verdict}
    for v in (rec.geometric, rec.invariant):
        if v is not None:
            out["pe"][v.route] = {"is_pe": v.is_pe, "margins": v.margins}
    out["tags"] = sorted(rec.tags)
    return out


def _print_record(out: dict) -> None:
    """The text view of an analyze record."""
    if "name" in out:
        print(f"gate: {out['name']}")
    if "point" in out:
        print(f"point: [{', '.join(map(_fmt, out['point']))}]")
    inv = out["invariants"]
    g1_re, g1_im = inv["g1"]
    print(f"g1: {_fmt(g1_re)}{g1_im:+.12g}j  |g1|: {_fmt(inv['g1_abs'])}  g2: {_fmt(inv['g2'])}")
    for route, v in out["ep"].items():
        if route == "monte_carlo":
            shown = f"{_fmt(v['mean'])} +/- {_fmt(v['std_err'])}  (n={v['n_samples']}, seed={v['seed']})"
        else:
            shown = _fmt(v)
        print(f"ep ({route.replace('_', ' ')}): {shown}")
    print(f"perfect entangler: {'yes' if out['pe']['verdict'] else 'no'}")
    for route, v in out["pe"].items():
        if route != "verdict":
            print(f"  {route} margins: " + ", ".join(f"{k}={_fmt(m)}" for k, m in v["margins"].items()))
    print(f"tags: {', '.join(out['tags']) or '-'}")


def cmd_analyze(args) -> int:
    if args.deg and args.point is None:
        raise ValueError("--deg applies only to --point")
    if args.seed is not None and args.mc is None:
        raise ValueError("--seed applies only to --mc")
    if args.name is not None:
        rec = named_gate(args.name)
    elif args.point is not None:
        rec = classify_gate(_parse_point(args.point, args.deg))
    else:
        name, m = load_matrix_file(args.matrix)
        rec = classify_gate(m, name=name)
    mc = None if args.mc is None else ep_monte_carlo(rec.matrix, args.mc, 42 if args.seed is None else args.seed)
    out = _record(rec, mc)
    if args.json:
        print(_record_json(out))
    else:
        _print_record(out)
    return 0


def cmd_scan(args) -> int:
    if args.steps is not None and args.edge is None:
        raise ValueError("--steps applies only to --edge")
    if args.edge is not None:
        try:
            edge = EdgeId[args.edge.upper()]
        except KeyError:
            known = ", ".join(e.name for e in EdgeId)
            raise ValueError(f"unknown edge {args.edge!r}; known edges: {known}") from None
        steps = 11 if args.steps is None else args.steps
        if not 2 <= steps <= _STEPS_MAX:
            raise ValueError(f"--steps must lie in [2, {_STEPS_MAX}], got {steps}")
        t = np.linspace(0.0, 1.0, steps)
        # an edge repeats no coordinate: each block builds, evaluates and renders its own three columns
        coords = (_edge_coords(edge, t[lo:lo + _SCAN_BLOCK]).T for lo in range(0, steps, _SCAN_BLOCK))
        blocks = ((_evaluate(b), np.split(_g12_text(b.ravel()), 3)) for b in coords)
    else:
        axes, lattice = _lattice_blocks(args.chamber, _SCAN_BLOCK)
        # a lattice has grid_n values per axis: each is rendered once, and a row takes its
        # coordinate text from these tables by its axis indices, as _lattice_blocks takes its trig
        texts = [_g12_text(axis) for axis in axes]
        blocks = ((cols, [text.take(i, axis=0) for text, i in zip(texts, b)]) for b, cols in lattice)
    # one block at a time: peak memory holds one block's columns and text, not the CSV
    with contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for cols, shown in blocks:
            values = _g12_text(np.concatenate([cols["g1_abs"], cols["g2"], cols["ep"]]))
            verdicts = [_CSV_BOOL_TEXT.take(pe_mask(cols[k]).astype(np.intp), axis=0) for k in ("geo_margins", "inv_margins")]
            fh.write(_csv_rows([*shown, *np.split(values, 3), *verdicts]))
    return 0


def cmd_verify(args) -> int:
    # each suite prints its header, then writes its violation lines one at a time as it renders
    # them: verify theorems --grid 256 has 204644, and no second copy of them is built
    if args.suite == "theorems":
        rep = verify_theorems(args.grid)
        print(f"theorem sweep: grid {rep.grid_n}"
              f" ({rep.n_lattice} lattice points, {rep.n_chamber} in chamber,"
              f" {rep.n_pe} perfect entanglers)")
        print(f"boundary-exempt points: {rep.n_boundary_exempt}")
        for label, bucket in rep.violations.items():
            print(f"{label} violations: {len(bucket)}")
            sys.stdout.writelines(f"  {line}\n" for line in bucket)
    elif args.suite == "routes":
        rep = verify_route_agreement(args.n, args.seed)
        print(f"route agreement: {rep.n_points} points, seed {rep.seed}",
              f"max |closed - from_g1| : {rep.max_closed_vs_g1:.3e}",
              f"max |closed - operator|: {rep.max_closed_vs_operator:.3e}",
              f"max |g2 form difference|: {rep.max_g2_forms:.3e}", sep="\n")
        sys.stdout.writelines(f"  {line}\n" for line in rep.violations)
    else:
        rep = verify_monte_carlo(args.mc, args.seed)
        print(f"monte carlo: {rep.n_samples} samples per gate, seed {rep.seed}")
        for name, mean, std_err, analytic in rep.rows:
            print(f"{name}: mean={_fmt(mean)} std_err={_fmt(std_err)} analytic={_fmt(analytic)}")
        sys.stdout.writelines(f"  {line}\n" for line in rep.violations)
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that refuses arguments it does not take under its own usage line.

    add_subparsers builds every nested parser with this class, so a flag given to a
    subcommand or suite that does not read it is reported by that parser, not the top level.
    A parser with subcommands names a flag of its own usage it does not take when it comes
    before the subcommand, where argparse would read the flag's value as the subcommand.
    When the first argument is one of its subcommand names, it hands the rest straight to
    that subcommand's parser and fills in what argparse's own pass would: the subcommand's
    dest, and its own set_defaults values where the subcommand's parser left them unset.
    Every other argument list, empty, -h or an unknown name among them, takes argparse's pass.
    """

    _subcommand = None  # the dest of this parser's subcommand, if it has subcommands
    _children: dict = {}  # the parser of each subcommand name, filled in as add_parser adds them

    def add_subparsers(self, **kwargs):
        self._subcommand = kwargs["dest"]
        action = super().add_subparsers(**kwargs)
        self._children = action.choices
        return action

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        if args and args[0] in self._children:
            # what argparse's pass would do, without classifying the subcommand's arguments twice:
            # everything after the name goes to its parser, whose values overwrite this parser's defaults
            child, _ = self._children[args[0]].parse_known_args(args[1:])
            namespace = argparse.Namespace() if namespace is None else namespace
            setattr(namespace, self._subcommand, args[0])
            for key, value in self._defaults.items():
                if not hasattr(namespace, key):
                    setattr(namespace, key, value)
            vars(namespace).update(vars(child))
            return namespace, []
        if self._subcommand is not None:
            # the parsers with subcommands take no flag with a value, so every argument
            # before the subcommand that starts with "-" is a flag of its own
            for arg in itertools.takewhile(lambda a: a.startswith("-"), args):
                name = arg.split("=", 1)[0]
                if not any(known.startswith(name) for known in self._option_string_actions):
                    self.error(f"unrecognized arguments: {name}; a {self._subcommand}'s flags come after its name")
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later main() calls."""
    parser = _Parser(
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
    a.add_argument("--seed", type=int, help="seed for --mc (default 42)")
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("scan", help="CSV sweep over points")
    mode = s.add_mutually_exclusive_group(required=True)
    mode.add_argument("--chamber", type=int, help="lattice sweep with this grid size per axis")
    mode.add_argument("--edge", help="named edge to sweep: " + ", ".join(e.name for e in EdgeId))
    s.add_argument("--steps", type=int, help="points along the edge, 2 to 1000000 (default 11)")
    s.add_argument("--out", help="write CSV to this path instead of stdout")
    s.set_defaults(func=cmd_scan)

    v = sub.add_parser("verify", help="run a self-check suite")
    v.set_defaults(func=cmd_verify)
    # one parser per suite, each taking only the flags its suite reads
    suites = v.add_subparsers(dest="suite", required=True)
    t = suites.add_parser("theorems", help="theorem sweep over a chamber lattice")
    t.add_argument("--grid", type=int, default=25, help="lattice size for theorems (default 25)")
    r = suites.add_parser("routes", help="entangling-power route agreement on random points")
    r.add_argument("--n", type=int, default=500, help="random points for routes (default 500)")
    m = suites.add_parser("montecarlo", help="Monte-Carlo estimates of the catalog gates")
    m.add_argument("--mc", type=int, default=200_000, help="samples per gate for montecarlo (default 200000)")
    for p in (r, m):
        p.add_argument("--seed", type=int, default=42, help="random seed (default 42)")

    c = sub.add_parser("catalog", help="list named gate classes")
    c.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe early shows here, not at interpreter exit
        return code
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe (as head does): nothing to report, and stdout now points at
        # os.devnull so that the interpreter's final flush of what is left cannot raise again
        sys.stdout = open(os.devnull, "w")
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
