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
import operator
import os
import sys

import numpy as np

from .canonical import EdgeId, WeylPoint, _edge_coords
from .catalog import catalog_records, named_gate, verify_monte_carlo
from .classify import GateRecord, _evaluate, _lattice_blocks, classify_gate, pe_mask, verify_route_agreement, verify_theorems
from .epower import _ep_operator, ep_from_g1_abs, ep_monte_carlo

__all__ = ["main", "entry", "load_matrix_file", "matrix_to_json"]

_CSV_HEADER = "c1,c2,c3,g1_abs,g2,ep,pe_geometric,pe_invariant"
# the text of a verdict column, NUL-padded to one width; a bool mask cast to intp indexes it
_CSV_BOOL_TEXT = np.array([b"false", b"true"]).view(np.uint8).reshape(2, 5)
# the cap bounds run time and the CSV (99 MB); an edge sweep keeps its 8 MB of parameters and builds one
# block's points at a time: scan --edge LN --steps 1000000 --out peaked at 40 MB
_STEPS_MAX = 1_000_000
# rows scan evaluates and writes at a time. In-process scan --chamber 48 took 12.3, 10.4, 10.3 and
# 12.8 ms at 1024, 2048, 4096 and 8192 rows (best of 30 interleaved runs after one verify theorems,
# 2-core host), scan --edge LN --steps 100000 76.7, 64.5, 66.3 and 74.5 ms; scan --chamber 48 peaked
# at 31.6, 32.2, 33.7 and 37.1 MB ru_maxrss in a fresh process. At 2048 a block's three value columns
# are 6144 floats for _g12_text, below the 8192 past which its time per value rose by half
_SCAN_BLOCK = 2048
_G12_WIDTH = 19  # the longest _fmt text, as in "-1.23456789012e-308"
# the four ASCII digits of each d < 10000 as one uint32: the digit pair of d // 100, then that of
# d % 100. Built by arithmetic it adds about 0.2 ms to importing this module, a 10000-string list 5 ms
_PAIRS = (np.arange(100)[:, None] // [10, 1] % 10 + ord("0")).astype(np.uint8)
_DIGITS4 = np.hstack([np.repeat(_PAIRS, 100, axis=0), np.tile(_PAIRS, (100, 1))]).view("<u4").ravel()
_DIGITS8 = _DIGITS4 << np.array([[0], [32]], dtype=np.uint64)  # as the low, then the high half of a uint64
_POW10 = 10.0 ** np.arange(16)  # 10^k is a float with no rounding for k <= 22
_SCALE = 10 ** np.arange(5, dtype=np.int64)  # 10^k for k = e + 4 on the fast path
_DECADES = np.array([1e-3, 1e-2, 0.1, 1.0])  # 1e-4 <= |v| < 10 has e = (how many are <= |v|) - 4
# a fast-path text as three little-endian words ends before the point when it shows no fraction
# digit, else after its last one: entry j of row i masks word i of a text that shows j of them
_KEEP = np.where(np.arange(24) < np.r_[7, 9:25][:, None], 0xFF, 0).astype(np.uint8).view("<u8").T.copy()
_HEAD = np.uint64(ord("0") << 48 | ord(".") << 56)  # the units digit's "0" and the point, in the first word
_ASCII_ZEROS = np.uint64(0x3030303030303030)  # eight "0" bytes

# json.dumps(m, indent=2) of a 4x4 [re, im] block as the value of a top-level key: one %r
# (float.__repr__, as json writes a finite float) per number, re and im cell by cell
_JSON_CELL = "[\n        %r,\n        %r\n      ]"
_JSON_ROW = "[\n      " + ",\n      ".join([_JSON_CELL] * 4) + "\n    ]"
_JSON_MATRIX = "[\n    " + ",\n    ".join([_JSON_ROW] * 4) + "\n  ]"
# the entry of a canonical gate that fills each cell canonical._fill_canonical writes: (0,0)=(3,3),
# (0,3)=(3,0), (1,1)=(2,2) and (1,2)=(2,1); the other eight cells keep the +0.0 of np.zeros
_CANONICAL_ENTRY = {(0, 0): 0, (3, 3): 0, (0, 3): 1, (3, 0): 1, (1, 1): 2, (2, 2): 2, (1, 2): 3, (2, 1): 3}
# _JSON_MATRIX of a canonical gate: a %s in each of the 16 numbers of the cells its entries fill, a
# literal 0.0 in the 16 of the other cells. _CANONICAL_SLOTS picks the text of each %s, in order, from
# the reprs of the entries' 8 floats, where entry k's re and im are items 2k and 2k + 1
_JSON_CANONICAL_MATRIX = _JSON_MATRIX.replace("%r", "%s") % tuple(
    "%s" if cell in _CANONICAL_ENTRY else "0.0" for cell in itertools.product(range(4), repeat=2) for _ in "ri"
)
_CANONICAL_SLOTS = operator.itemgetter(*[
    2 * k + part for k in map(_CANONICAL_ENTRY.get, itertools.product(range(4), repeat=2)) if k is not None
    for part in (0, 1)
])
# json.dumps(v, indent=2) of the other fixed-shape blocks of a record; every float a record holds is
# a finite builtin float, whose %r is float.__repr__, as json writes it
_JSON_POINT = "[\n    %r,\n    %r,\n    %r\n  ]"
_JSON_INVARIANTS = '{\n    "g1": [\n      %r,\n      %r\n    ],\n    "g1_abs": %r,\n    "g2": %r\n  }'
_JSON_MONTE_CARLO = '{\n      "mean": %r,\n      "std_err": %r,\n      "n_samples": %r,\n      "seed": %r\n    }'
_JSON_BOOL = {True: "true", False: "false"}
_json_str = json.encoder.encode_basestring_ascii  # every string of a record goes through it, never a template


def _fmt(x: float) -> str:
    """Decimal rendering with 12 significant digits."""
    return format(float(x), ".12g")


def _digit_words(scaled: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each int64 0 <= s < 1e16 read as a units digit and fifteen fraction digits: the units
    digits, and the fraction digits and a trailing "0" in ASCII as two uint64 words, digit i in byte i."""
    units = scaled // 10**15
    # the fraction digits and the trailing 0 as one integer, in four groups of four digits: its
    # quotients by 1e12, 1e8 and 1e4, and itself, each less 1e4 times the one before
    frac = (scaled - units * 10**15) * 10
    q = [frac // d for d in (10**12, 10**8, 10**4)]
    groups = [q[0], q[1] - q[0] * 10**4, q[2] - q[1] * 10**4, frac - q[2] * 10**4]
    return units, [_DIGITS8[0].take(hi) | _DIGITS8[1].take(lo) for hi, lo in (groups[:2], groups[2:])]


def _g12_text(x) -> np.ndarray:
    """The _fmt text of each float in x as the NUL-padded rows of a uint8 array of shape
    x.shape + (w,), w the length of the longest text; each row is contiguous, the array not.

    Values with 1e-4 <= |v| < 10, and +-0.0, take the fast path. With e = floor(log10 |v|),
    y = |v| 10^(11-e) is one rounding (at most 2^-14) off the exact product, as 10^(11-e) is
    exact, so m = rint(y) is the correctly rounded 12-digit mantissa unless y lies within 1e-3
    of a tie or m reaches 1e12. m 10^(4+e) < 1e16 then holds the units digit and the fifteen
    fraction digits %.12g can show; the zeros after the last nonzero digit, and a bare ".",
    are dropped. Every other value, nan and +-inf among them, is rendered by _fmt.
    """
    x = np.asarray(x, dtype=np.float64)
    v = x.ravel()
    a = np.abs(v)
    span = (a >= 1e-4) & (a < 10.0)
    k = sum((a >= d).view(np.int8) for d in _DECADES)  # e + 4 on span
    y = np.where(span, a, 0.0) * _POW10.take(15 - k)  # 0 off span, so that inf and nan give 0
    m = np.rint(y)
    fast = span & (m < 1e12) & (np.abs(y - m) < 0.499) | (a == 0.0)
    units, words = _digit_words(np.where(fast, m, 0.0).astype(np.int64) * _SCALE.take(k))
    # the last nonzero fraction digit is the top nonzero byte of the words ^ "00000000" as one
    # 128-bit number, read off its float exponent: each byte is at most 9, so neither the
    # conversions nor the sum can round into the next byte
    nz = [(w ^ _ASCII_ZEROS).astype(np.float64) for w in words]
    exponent = (nz[0] + nz[1] * 2.0**64).view(np.int64) >> 52  # 1023 + the top bit's index; 0 if none
    shown_digits = np.maximum((exponent - 1015) >> 3, 0)  # how many fraction digits are shown
    # each text is the last 19 bytes of three little-endian words: 5 NULs, the sign, the units
    # digit and the point, then the fraction digits; _KEEP clears every byte after the text
    text = np.empty((len(v), 3), dtype=np.uint64)
    head = (v.view(np.uint64) >> 63) * (ord("-") << 40) | units.view(np.uint64) << 48 | _HEAD
    for j, (word, keep) in enumerate(zip([head, *words], _KEEP)):
        np.bitwise_and(word, keep.take(shown_digits), out=text[:, j])
    rows = text.view(np.uint8)[:, 24 - _G12_WIDTH:]  # the text of each value
    slow = np.flatnonzero(~fast)
    shown = [_fmt(value) for value in v[slow].tolist()]
    rows[slow] = np.array(shown, dtype=f"S{_G12_WIDTH}").view(np.uint8).reshape(len(slow), _G12_WIDTH)
    width = max([3 + shown_digits.max(initial=0), *map(len, shown)])
    return rows[:, :width].reshape(*x.shape, width)


def _csv_rows(fields: list[np.ndarray]) -> str:
    """CSV lines whose fields are the rows of NUL-padded uint8 text arrays, one array per column.

    Each field's rows go straight into their columns of one byte matrix filled with commas, one
    item per row, and the NULs are dropped from the matrix's bytes.
    """
    widths = [f.shape[1] for f in fields]
    mat = np.full((len(fields[0]), sum(widths) + len(widths)), ord(","), dtype=np.uint8)
    col = 0
    for f, w in zip(fields, widths):
        mat[:, col:col + w].view(f"V{w}")[:, 0] = f.view(f"V{w}")[:, 0]
        col += w + 1
    mat[:, -1] = ord("\n")
    return mat.tobytes().translate(None, b"\0").decode("ascii")


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    """4x4 complex matrix as nested [re, im] pairs."""
    return np.ascontiguousarray(m, dtype=complex).view(np.float64).reshape(4, 4, 2).tolist()


def load_matrix_file(path: str) -> tuple[str | None, np.ndarray]:
    """Read a gate matrix from a JSON file.

    Schema: {"matrix": 4x4 array of [re, im] pairs of JSON numbers, "name": optional printable string}.
    """
    # one binary read and one decode cost less than a text-mode read; \r\n and a lone \r become \n,
    # as text mode reads them, so json's error offsets are those of the text-mode read
    with open(path, "rb") as fh:
        content = fh.read()
    try:
        data = json.loads(content.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict) or "matrix" not in data:
        raise ValueError(f"{path}: expected a JSON object with a 'matrix' key")
    raw = data["matrix"]
    if not (isinstance(raw, list) and len(raw) == 4 and all(isinstance(r, list) and len(r) == 4 for r in raw)):
        raise ValueError(f"{path}: matrix must be a 4x4 array of [re, im] pairs")
    # re and im cell by cell; when all 32 are floats, as json.dump writes a float matrix, they are
    # the complex matrix's float64 pairs as they stand
    flat = [x for row in raw for cell in row if isinstance(cell, list) and len(cell) == 2 for x in cell]
    if len(flat) != 32 or not all(type(x) is float for x in flat):
        for i, cell in enumerate(cell for row in raw for cell in row):
            # type(), not isinstance(): JSON true and false load as bool, a subclass of int;
            # float() raises OverflowError on an int beyond the largest float
            if not (isinstance(cell, list) and len(cell) == 2
                    and all(type(x) is float or type(x) is int and abs(x) <= sys.float_info.max for x in cell)):
                raise ValueError(f"{path}: matrix[{i // 4}][{i % 4}] must be an [re, im] pair of numbers, got {json.dumps(cell)}")
        flat = [float(x) for x in flat]  # an int rounds as complex(re, im) rounds it
    m = np.array(flat).view(complex).reshape(4, 4)
    name = data.get("name")
    # the text view prints the name on its one-line gate: field, encoded as UTF-8
    if name is not None and not (isinstance(name, str) and name.isprintable()):
        raise ValueError(f"{path}: 'name' must be a printable string")
    return name, m


def _json_ep(ep: dict) -> str:
    """The ep block: one float per route, in record order, or the monte_carlo block."""
    routes = [
        _json_str(k) + ": " + (_JSON_MONTE_CARLO % (v["mean"], v["std_err"], v["n_samples"], v["seed"])
                               if k == "monte_carlo" else repr(v))
        for k, v in ep.items()
    ]
    return "{\n    " + ",\n    ".join(routes) + "\n  }"


def _json_pe_route(v: dict) -> str:
    """One pe route: its verdict and its margins, in record order."""
    margins = ",\n        ".join([_json_str(k) + ": " + repr(x) for k, x in v["margins"].items()])
    return '{\n      "is_pe": ' + _JSON_BOOL[v["is_pe"]] + ',\n      "margins": {\n        ' + margins + "\n      }\n    }"


def _json_pe(pe: dict) -> str:
    """The pe block: the verdict, then each route, in record order."""
    routes = [_json_str(k) + ": " + (_JSON_BOOL[v] if k == "verdict" else _json_pe_route(v)) for k, v in pe.items()]
    return "{\n    " + ",\n    ".join(routes) + "\n  }"


# the renderer of each top-level key _record writes, as json.dumps(v, indent=2) writes its value there
_JSON_BLOCKS = {
    "name": _json_str,
    "point": lambda v: _JSON_POINT % tuple(v),
    "matrix": lambda v: _JSON_MATRIX % tuple([x for row in v for cell in row for x in cell]),
    "invariants": lambda v: _JSON_INVARIANTS % (*v["g1"], v["g1_abs"], v["g2"]),
    "ep": _json_ep,
    "pe": _json_pe,
    "tags": lambda v: "[\n    " + ",\n    ".join(map(_json_str, v)) + "\n  ]" if v else "[]",
}
# the renderers of a point or name record, whose matrix classify_gate(point) builds as a canonical
# gate: its matrix block takes the repr of the 8 floats of the four entries, not of all 32
_JSON_CANONICAL_BLOCKS = _JSON_BLOCKS | {
    "matrix": lambda v: _JSON_CANONICAL_MATRIX % _CANONICAL_SLOTS(list(map(repr, v[0][0] + v[0][3] + v[1][1] + v[1][2]))),
}


def _record_json(out: dict, blocks: dict = _JSON_BLOCKS) -> str:
    """An analyze record as json.dumps renders it with indent=2, byte for byte.

    CPython falls back to its pure-Python encoder whenever indent is set; this renders
    each top-level key of the record with its own fixed-shape renderer from blocks,
    in the record's order, and raises KeyError on a key that has none. Floats and ints
    fill %r templates; strings are escaped by json's encoder and concatenated.
    blocks is _JSON_BLOCKS, which renders any record, or _JSON_CANONICAL_BLOCKS, which
    renders the matrix from the four entries of a canonical gate and so holds only for
    a record classify_gate(point) builds; the caller chooses by the record's kind.
    """
    return "{\n" + ",\n".join(["  " + _json_str(k) + ": " + blocks[k](v) for k, v in out.items()]) + "\n}"


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

    A point record's ep is the closed form; a matrix record's is the |g1| route. Its pe holds the
    verdict, then each of rec.routes in the mapping's order.
    Every record's matrix is unitary: checked on ingest or built by classify_gate(point).
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
    for route, v in rec.routes.items():
        out["pe"][route] = {"is_pe": v.is_pe, "margins": v.margins}
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
        print(_record_json(out, _JSON_CANONICAL_BLOCKS if rec.point is not None else _JSON_BLOCKS))
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
        blocks = ((_evaluate(b), list(_g12_text(b))) for b in coords)
    else:
        axes, lattice = _lattice_blocks(args.chamber, _SCAN_BLOCK)
        # a lattice has grid_n values per axis: each is rendered once, and a row takes its
        # coordinate text from these tables by its axis indices, as _lattice_blocks takes its trig
        texts = list(_g12_text(np.stack(axes)))
        blocks = ((cols, [text.take(i, axis=0) for text, i in zip(texts, b)]) for b, cols in lattice)
    # one block at a time: peak memory holds one block's columns and text, not the CSV
    with contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for cols, shown in blocks:
            values = _g12_text(np.stack([cols["g1_abs"], cols["g2"], cols["ep"]]))
            verdicts = [_CSV_BOOL_TEXT.take(pe_mask(cols[k]).astype(np.intp), axis=0) for k in ("geo_margins", "inv_margins")]
            fh.write(_csv_rows([*shown, *values, *verdicts]))
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
    that subcommand's parser and sets the subcommand's dest; no parser with subcommands holds
    a default, so that is all argparse's own pass would add to the subcommand's namespace.
    A parser without subcommands reads a well-formed argument list straight from its own
    action table (_direct_pass). Every other argument list, empty, -h, an abbreviation or an
    unknown name among them, takes argparse's pass, which writes every usage, help and error.
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
            # everything after the name goes to its parser
            child, _ = self._children[args[0]].parse_known_args(args[1:])
            namespace = argparse.Namespace() if namespace is None else namespace
            setattr(namespace, self._subcommand, args[0])
            vars(namespace).update(vars(child))
            return namespace, []
        if self._subcommand is not None:
            # the parsers with subcommands take no flag with a value, so every argument
            # before the subcommand that starts with "-" is a flag of its own
            for arg in itertools.takewhile(lambda a: a.startswith("-"), args):
                name = arg.split("=", 1)[0]
                if not any(known.startswith(name) for known in self._option_string_actions):
                    self.error(f"unrecognized arguments: {name}; a {self._subcommand}'s flags come after its name")
        elif namespace is None:
            namespace = self._direct_pass(args)
            if namespace is not None:
                return namespace, []
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def _direct_pass(self, args):
        """The namespace argparse's own pass builds from args, or None when args take another form.

        It takes only exact option strings, each of a store_true action or of a store action with
        one value and no choices, whose value follows it, does not start with "-" and converts with
        the action's type. The required and mutually exclusive rules must hold, an action counting
        toward its group only when a value it was given is not its default, as in argparse.
        """
        values = {}
        seen = {}  # each action given, and whether any value it was given is not its default
        tokens = iter(args)
        for token in tokens:
            action = self._option_string_actions.get(token)
            if type(action) is argparse._StoreTrueAction:
                values[action.dest] = action.const
                seen[action] = True  # argparse compares an empty value list with the default
                continue
            if type(action) is not argparse._StoreAction or action.nargs is not None or action.choices is not None:
                return None
            value = next(tokens, "-")  # a missing value is declined as one that starts with "-"
            if value.startswith("-"):
                return None
            try:
                value = self._registry_get("type", action.type, action.type)(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            values[action.dest] = value
            seen[action] = seen.get(action, False) or value is not action.default
        if any(a.required and a not in seen for a in self._actions):
            return None
        for group in self._mutually_exclusive_groups:
            n = sum(seen.get(a, False) for a in group._group_actions)
            if n > 1 or group.required and n == 0:
                return None
        # argparse's namespace: each action's default, then the parser's defaults, then the values
        built = {}
        for action in self._actions:
            if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                built.setdefault(action.dest, action.default)
        for dest, default in self._defaults.items():
            built.setdefault(dest, default)
        built.update(values)
        return argparse.Namespace(**built)


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
    for p in (t, r, m):
        p.set_defaults(func=cmd_verify)

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
