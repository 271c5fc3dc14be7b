"""End-to-end tests of the command-line interface."""
import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatepower
from gatepower import canonical, catalog, classify, cli, epower, linalg
from gatepower.canonical import (
    EdgeId, WeylPoint, _edge_coords, canonical_gate_array, chamber_lattice, random_chamber_coords,
)
from gatepower.classify import classify_gate, verify_theorems
from gatepower.cli import (
    _CSV_BOOL_TEXT, _CSV_HEADER, _csv_rows, _g12_text, _parse_point, _record, _record_json, build_parser,
    load_matrix_file, main, matrix_to_json,
)
from gatepower.invariants import _invariants
from gatepower.linalg import SWAP
from helpers import THEOREM_CLAIMS, dress, g2_imag_residue, g2_residue_gate, point_columns, point_verdicts

PI = math.pi
# the scan row as one printf template, "%.12g" per float, and its verdict labels indexed by a bool
# mask: the rendering scan used before its block text kernel, kept as the reference for its bytes
_CSV_ROW = "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s,%s\n"
_CSV_BOOL = np.array(["false", "true"], dtype=object)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- analyze


def test_analyze_swap_by_name(capsys):
    code, out, _ = run(capsys, "analyze", "--name", "SWAP")
    assert code == 0
    assert "|g1|: 1" in out
    assert "g2: -3" in out
    assert "ep (closed form): 0" in out
    assert "perfect entangler: no" in out


def test_analyze_qp_endpoint_by_point(capsys):
    code, out, _ = run(capsys, "analyze", "--point", "0.7853981634,0.7853981634,0")
    assert code == 0
    assert "ep (closed form): 0.166666666667" in out
    assert "perfect entangler: yes" in out


def test_analyze_point_in_degrees(capsys):
    code, out, _ = run(capsys, "analyze", "--point", "45,45,0", "--deg")
    assert code == 0
    assert "point: [0.785398163397, 0.785398163397, 0]" in out
    assert "ep (closed form): 0.166666666667" in out


def test_analyze_matrix_file(capsys, tmp_path):
    path = tmp_path / "id.json"
    path.write_text(json.dumps({"matrix": matrix_to_json(np.eye(4)), "name": "id"}))
    code, out, _ = run(capsys, "analyze", "--matrix", str(path))
    assert code == 0
    assert "gate: id" in out
    assert "g2: 3" in out
    assert "ep (operator): 0" in out


def test_analyze_json_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", "--name", "SQRT_SWAP", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pe"]["verdict"] is True
    assert doc["ep"]["closed_form"] == pytest.approx(1 / 6, abs=1e-12)
    assert doc["ep"]["operator"] == pytest.approx(doc["ep"]["closed_form"], abs=1e-15)

    # re-ingest the emitted matrix and compare invariants
    path = tmp_path / "emitted.json"
    path.write_text(json.dumps({"matrix": doc["matrix"]}))
    code2, out2, _ = run(capsys, "analyze", "--matrix", str(path), "--json")
    assert code2 == 0
    doc2 = json.loads(out2)
    assert doc2["invariants"]["g1"] == pytest.approx(doc["invariants"]["g1"], abs=1e-9)
    assert doc2["invariants"]["g2"] == pytest.approx(doc["invariants"]["g2"], abs=1e-9)


def test_analyze_with_monte_carlo(capsys):
    code, out, _ = run(capsys, "analyze", "--name", "CNOT_CLASS", "--mc", "2000", "--seed", "3")
    assert code == 0
    assert "ep (monte carlo):" in out
    assert "seed=3" in out


@pytest.mark.parametrize(
    "argv",
    [("analyze", "--point", "0.7853981634,0.7853981634,0"), ("analyze", "--name", "SQRT_SWAP")],
)
def test_analyze_library_built_gate_skips_unitarity_check(capsys, monkeypatch, argv):
    # the canonical matrix of a point or name record is unitary by construction
    calls = []
    defect = linalg.unitarity_defect
    monkeypatch.setattr(linalg, "unitarity_defect", lambda u: calls.append(1) or defect(u))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "ep (operator): 0.166666666667" in out
    assert calls == []


def test_analyze_bad_point_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--point", "1.0,2.0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    ("point", "exit_code", "message"),
    [
        ("0.1,0.5,0.2", 2, "chamber"),
        # 17pi/24, 7pi/24, 11pi/48 rounded to 6 decimals: c1 + c2 ends up above pi
        ("2.225295,0.916298,0.719948", 2, "chamber"),
        # the same point rounded into the chamber lies in the invariant-box sliver
        ("2.225295,0.916297,0.719948", 0, "perfect entangler: no"),
    ],
)
def test_analyze_point_exit_code(capsys, point, exit_code, message):
    code, out, err = run(capsys, "analyze", "--point", point)
    assert code == exit_code
    assert message in (err if code else out)


def test_analyze_point_starting_with_a_minus_sign_needs_the_equals_form(capsys):
    code, out, _ = run(capsys, "analyze", "--point=-0.0,-0.0,-0.0")
    assert code == 0
    assert "point: [-0, -0, -0]" in out
    # with a space, argparse reads the value as a flag
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--point", "-0.0,-0.0,-0.0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --point: expected one argument\n")


def test_analyze_sliver_point_json_gives_geometric_verdict(capsys):
    code, out, _ = run(capsys, "analyze", "--point", "2.225295,0.916297,0.719948", "--json")
    assert code == 0
    pe = json.loads(out)["pe"]
    assert pe["verdict"] is pe["geometric"]["is_pe"] is False
    assert pe["invariant"]["is_pe"] is True


def test_analyze_unknown_name_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--name", "NOPE")
    assert code == 2
    assert "known names" in err


def test_analyze_non_unitary_matrix_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": matrix_to_json(2 * np.eye(4))}))
    code, _, err = run(capsys, "analyze", "--matrix", str(path))
    assert code == 2
    assert "unitar" in err


@pytest.mark.parametrize("cell", ["NaN", "Infinity", "1e300"])
def test_analyze_non_finite_matrix_exits_2_without_warning(capsys, tmp_path, cell):
    # the unitarity check must refuse the matrix before any arithmetic on it can warn
    path = tmp_path / "m.json"
    rows = json.dumps(matrix_to_json(np.eye(4)))
    path.write_text('{"matrix": ' + rows.replace("1.0", cell, 1) + "}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "analyze", "--matrix", str(path))
    assert code == 2
    assert "not unitary" in err and "nan" not in err
    assert "Warning" not in err


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_analyze_matrix_with_g2_residue_exits_0(capsys, tmp_path, extra):
    """A matrix within the ingest tolerance whose g2 carries an imaginary residue of 2e-9 is analyzed
    like any other: exit 0, nothing on stderr, and the g2 printed is the matrix route's real part."""
    u = g2_residue_gate(2e-9)
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"matrix": matrix_to_json(u)}))
    assert np.array_equal(load_matrix_file(str(path))[1], u)  # the file holds u's bits
    assert g2_imag_residue(u) == pytest.approx(2e-9, rel=1e-2)
    code, out, err = run(capsys, "analyze", "--matrix", str(path), *extra)
    assert (code, err) == (0, "")
    g2 = _invariants(u).g2
    if extra:
        assert json.loads(out)["invariants"]["g2"] == g2
    else:
        assert f"  g2: {format(g2, '.12g')}\n" in out


def test_analyze_missing_matrix_file_exits_3(capsys, tmp_path):
    path = str(tmp_path / "absent.json")
    assert run(capsys, "analyze", "--matrix", path) == (3, "", f"error: [Errno 2] No such file or directory: {path!r}\n")
    # a directory in place of the file, through the module's own entry point
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gatepower.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "gatepower.cli", "analyze", "--matrix", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_matrix_file_schema_errors(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": []}))
    with pytest.raises(ValueError, match="matrix"):
        load_matrix_file(str(path))
    path.write_text(json.dumps({"matrix": [[[1, 0]] * 3] * 3}))
    with pytest.raises(ValueError, match="4x4"):
        load_matrix_file(str(path))


def _matrix_to_json_reference(m) -> list:
    """matrix_to_json as a comprehension over the entries, kept as the bit-identity reference."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _dressed_gate() -> np.ndarray:
    return dress(canonical_gate_array(1.0, 0.5, 0.2), np.random.default_rng(3))


# each case's matrix, built in the test so that collection runs no package code
_JSON_MATRICES = {
    "dressed": _dressed_gate,
    "transpose": lambda: _dressed_gate().T,  # not C-contiguous
    "negative_zero": lambda: np.array([[complex(-0.0, x) for x in (-0.0, 0.0, 1.0, -1.0)]] * 4),
    "subnormal": lambda: np.full((4, 4), complex(5e-324, -5e-324)),
}


@pytest.mark.parametrize("case", list(_JSON_MATRICES))
def test_matrix_to_json_is_bit_identical_to_comprehension(case):
    m = _JSON_MATRICES[case]()
    got = matrix_to_json(m)
    ref = _matrix_to_json_reference(m)
    # json.dumps writes repr of each float, so -0.0 and 5e-324 must survive as they are
    assert json.dumps(got) == json.dumps(ref)
    assert all(type(x) is float for row in got for cell in row for x in cell)


def _with_cell(value) -> list:
    cells = matrix_to_json(SWAP)
    cells[1][2] = value
    return cells


# the text of each malformed matrix file, built in the test so that collection runs no package code
_MALFORMED_MATRIX_FILES = {
    "bool-cell": lambda: json.dumps({"matrix": _with_cell([True, False])}),  # complex(True, False) is 1+0j
    "three-number-cell": lambda: json.dumps({"matrix": _with_cell([1, 0, 7])}),
    "one-number-cell": lambda: json.dumps({"matrix": _with_cell([1])}),
    "string-cell": lambda: json.dumps({"matrix": _with_cell(["1", "0"])}),
    "null-cell": lambda: json.dumps({"matrix": _with_cell(None)}),
    "bare-number-cell": lambda: json.dumps({"matrix": _with_cell(1.0)}),
    "oversized-integer-cell": lambda: json.dumps({"matrix": _with_cell([10**400, 0])}),  # complex() raises OverflowError
    "ragged-rows": lambda: json.dumps({"matrix": matrix_to_json(SWAP)[:3] + [matrix_to_json(SWAP)[3][:3]]}),
    "three-rows": lambda: json.dumps({"matrix": matrix_to_json(SWAP)[:3]}),
    "row-not-a-list": lambda: json.dumps({"matrix": matrix_to_json(SWAP)[:3] + [5]}),
    "matrix-not-a-list": lambda: json.dumps({"matrix": 5}),
    "name-not-a-string": lambda: json.dumps({"matrix": matrix_to_json(SWAP), "name": 7}),
    "name-lone-surrogate": lambda: json.dumps({"matrix": matrix_to_json(SWAP), "name": "\ud800"}),  # UTF-8 cannot encode it
    "name-newline": lambda: json.dumps({"matrix": matrix_to_json(SWAP), "name": "a\nb"}),  # would split the gate: line
    "no-object": lambda: json.dumps([matrix_to_json(SWAP)]),
    "not-json": lambda: "{not json",
    "deeply-nested": lambda: '{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}",  # json.load raises RecursionError
}


@pytest.mark.parametrize("case", list(_MALFORMED_MATRIX_FILES))
def test_malformed_matrix_file_exits_2_naming_the_path(capsys, tmp_path, case):
    path = tmp_path / "bad.json"
    path.write_text(_MALFORMED_MATRIX_FILES[case]())
    code, out, err = run(capsys, "analyze", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ")


# the bytes of matrix files that are not UTF-8 JSON as written, and the message the text-mode read gave
# for each: a read in binary mode must give the same, newline offsets included
_UNDECODED_MATRIX_FILES = {
    "crlf": (b'{\r\n "name": "swap",\r\n "matrix": oops\r\n}', "Expecting value: line 3 column 12 (char 30)"),
    "lone-cr": (b'{\r "name": "swap",\r "matrix": oops\r}', "Expecting value: line 3 column 12 (char 30)"),
    "mixed-newlines": (b'{\r\n "name": "swap",\r "matrix":\n\r\n oops\r}', "Expecting value: line 5 column 2 (char 32)"),
    "utf8-bom": (b'\xef\xbb\xbf{"matrix": []}', "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "utf16": ('{"matrix": []}'.encode("utf-16"), "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "latin1": ('{"name": "sw\xe9p", "matrix": []}'.encode("latin-1"),
               "'utf-8' codec can't decode byte 0xe9 in position 12: invalid continuation byte"),
    "latin1-past-8k": (('{"pad": "' + "x" * 10000 + '\xe9"}').encode("latin-1"),
                       "'utf-8' codec can't decode byte 0xe9 in position 10009: invalid continuation byte"),
    "empty": (b"", "Expecting value: line 1 column 1 (char 0)"),
}


@pytest.mark.parametrize("case", list(_UNDECODED_MATRIX_FILES))
def test_matrix_file_read_errors_keep_text_mode_messages(tmp_path, case):
    data, message = _UNDECODED_MATRIX_FILES[case]
    path = tmp_path / "m.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        load_matrix_file(str(path))
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_matrix_file_with_crlf_or_cr_newlines_loads(tmp_path, newline):
    path = tmp_path / "m.json"
    path.write_bytes(json.dumps({"matrix": matrix_to_json(SWAP), "name": "swap"}, indent=1).replace("\n", newline).encode())
    name, m = load_matrix_file(str(path))
    assert name == "swap" and m.tobytes() == SWAP.astype(complex).tobytes()


@pytest.mark.parametrize("name", [7, "\ud800", "a\nb", "tab\there", "\x7f"])
def test_matrix_file_name_must_be_printable(tmp_path, name):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": matrix_to_json(SWAP), "name": name}))
    with pytest.raises(ValueError, match=f"^{path}: 'name' must be a printable string$"):
        load_matrix_file(str(path))


def test_matrix_file_accepts_integer_cells(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"matrix": [[[int(z.real), 0] for z in row] for row in SWAP]}))
    _, m = load_matrix_file(str(path))
    assert m.dtype == complex
    assert np.array_equal(m, SWAP)


@pytest.mark.parametrize(
    "cell",
    [[0.1, -0.0], [5e-324, -1.5], [0, 1], [2**53 + 1, -(2**60) - 3], [10**300, 0.25], [-0.0, 7]],
    ids=["floats", "subnormal", "ints", "ints-that-round", "large-int", "mixed"],
)
def test_matrix_file_cells_keep_the_bits_complex_gives_them(tmp_path, cell):
    cells = _with_cell(cell)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": cells}))
    _, m = load_matrix_file(str(path))
    ref = np.array([[complex(re, im) for re, im in row] for row in cells], dtype=complex)
    assert (m.dtype, m.shape) == (ref.dtype, ref.shape)
    assert m.tobytes() == ref.tobytes()


def test_matrix_file_parses_swap(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"matrix": matrix_to_json(SWAP), "name": "swap"}))
    name, m = load_matrix_file(str(path))
    assert name == "swap"
    assert np.allclose(m, SWAP)


# ----------------------------------------------------------------------- scan


def test_scan_qp_edge(capsys):
    code, out, _ = run(capsys, "scan", "--edge", "QP", "--steps", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c1,c2,c3,g1_abs,g2,ep,pe_geometric,pe_invariant"
    assert len(lines) == 6
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[5] == "0.166666666667"
        assert fields[6] == "true" and fields[7] == "true"


def test_scan_lq_edge_g2_column(capsys):
    code, out, _ = run(capsys, "scan", "--edge", "LQ", "--steps", "3")
    assert code == 0
    for row in out.splitlines()[1:]:
        assert row.split(",")[4] == "1"


def test_scan_chamber_filters_lattice(capsys):
    code, out, _ = run(capsys, "scan", "--chamber", "2")
    assert code == 0
    rows = out.splitlines()[1:]
    # 2x2x2 lattice: only [0,0,0] and the folded SWAP corner survive
    assert len(rows) == 2
    assert rows[0].startswith("0,0,0,")


def test_scan_unknown_edge_exits_2(capsys):
    code, _, err = run(capsys, "scan", "--edge", "XX")
    assert code == 2
    assert "known edges" in err


def test_scan_tiny_steps_exits_2(capsys):
    code, _, err = run(capsys, "scan", "--edge", "QP", "--steps", "1")
    assert code == 2


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("scan", "--chamber", "1"), "grid size must lie in [2, 256], got 1"),
        (("scan", "--chamber", "257"), "grid size must lie in [2, 256], got 257"),
        (("verify", "theorems", "--grid", "257"), "grid size must lie in [2, 256], got 257"),
        (("verify", "routes", "--n", "1000001"), "n_points must be at most 1000000, got 1000001"),
        (("scan", "--edge", "LN", "--steps", "1000001"), "--steps must lie in [2, 1000000], got 1000001"),
        (("verify", "montecarlo", "--mc", "100000001"), "n_samples must be at most 100000000, got 100000001"),
        (("analyze", "--name", "CNOT_CLASS", "--mc", "100000001"), "n_samples must be at most 100000000, got 100000001"),
        (("verify", "montecarlo", "--mc", "99"), "n_samples must be at least 100, got 99"),
    ],
)
def test_sweep_size_limits_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--edge", "PN", "--steps", "7"),
        ("scan", "--chamber", "25"),  # 2769 rows
        ("scan", "--chamber", "48"),  # 19000 rows: blocks of at most cli._SCAN_BLOCK
        ("scan", "--edge", "LN", "--steps", "4096"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_scan_out_file_matches_stdout(capsys, tmp_path, argv):
    path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    code2, out2, _ = run(capsys, *argv)
    assert code2 == 0
    data = path.read_bytes()
    assert data == out2.encode()
    assert b"\r" not in data


def test_scan_writes_one_block_at_a_time(monkeypatch):
    writes: list[str] = []  # the argument of every sys.stdout.write
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append, flush=lambda: None))
    assert main(["scan", "--chamber", "48"]) == 0
    digest = next(d for argv, _, d in GOLDEN_OUTPUTS if argv == ("scan", "--chamber", "48"))
    assert hashlib.sha256("".join(writes).encode()).hexdigest() == digest
    blocks = math.ceil(len(chamber_lattice(48)) / cli._SCAN_BLOCK)
    assert blocks > 1 and len(writes) == 1 + blocks  # the header, then one write per block
    assert max(text.count("\n") for text in writes) <= cli._SCAN_BLOCK


@pytest.mark.parametrize("block", [1, 7, 1024, 4096, 1 << 16])
def test_scan_csv_does_not_depend_on_the_block_size(monkeypatch, block):
    monkeypatch.setattr(cli, "_SCAN_BLOCK", block)
    for argv in [("scan", "--chamber", "25"), ("scan", "--edge", "LN", "--steps", "4096")]:
        writes: list[str] = []
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append, flush=lambda: None))
        assert main(list(argv)) == 0
        digest = next(d for a, _, d in GOLDEN_OUTPUTS if a == argv)
        assert hashlib.sha256("".join(writes).encode()).hexdigest() == digest, argv


def test_scan_edge_builds_its_points_one_block_at_a_time(monkeypatch):
    sizes: list[int] = []  # how many parameters each _edge_coords call takes
    edge_coords = cli._edge_coords

    def recording(edge, t):
        sizes.append(len(t))
        return edge_coords(edge, t)

    monkeypatch.setattr(cli, "_edge_coords", recording)
    writes: list[str] = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append, flush=lambda: None))
    argv = ("scan", "--edge", "LN", "--steps", "4096")
    assert main(list(argv)) == 0
    digest = next(d for a, _, d in GOLDEN_OUTPUTS if a == argv)
    assert hashlib.sha256("".join(writes).encode()).hexdigest() == digest
    assert sum(sizes) == 4096
    assert max(sizes) <= cli._SCAN_BLOCK


@pytest.mark.parametrize(
    ("argv", "lines_read"),
    [
        # larger than a pipe's buffer: the command is still writing when the pipe closes
        (("scan", "--chamber", "48"), 1),
        (("verify", "theorems", "--grid", "64"), 1),
        (("scan", "--edge", "LN", "--steps", "100000"), 1),
        # a few hundred bytes, left in stdout's buffer until main flushes it into the closed pipe
        (("analyze", "--name", "SWAP"), 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else f"read {v}",
)
def test_closed_stdout_pipe_exits_3_without_a_message(argv, lines_read):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout block-buffered, as by default
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(gatepower.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from gatepower.cli import entry; entry()", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 3
    assert err == b""


def test_scan_unwritable_path_exits_3(capsys, tmp_path):
    # a missing directory, not file permissions, which do not stop root
    path = str(tmp_path / "no" / "dir.csv")
    for mode in (("--edge", "QP"), ("--chamber", "4")):
        got = run(capsys, "scan", *mode, "--out", path)
        assert got == (3, "", f"error: [Errno 2] No such file or directory: {path!r}\n"), mode


@pytest.mark.parametrize(
    "argv",
    [("scan", "--chamber", "25")] + [("scan", "--edge", e.name, "--steps", "101") for e in EdgeId],
    ids=lambda argv: " ".join(argv),
)
def test_scan_verdicts_match_classify_gate(capsys, argv):
    if argv[1] == "--chamber":
        pts = chamber_lattice(25)
    else:
        pts = _edge_coords(EdgeId[argv[2]], np.linspace(0.0, 1.0, 101))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == len(pts)
    for row, c in zip(rows, pts.tolist()):
        fields = row.split(",")
        assert fields[:3] == [format(x, ".12g") for x in c]
        geo, inv = (f == "true" for f in fields[6:])
        rec = classify_gate(WeylPoint(*c))
        assert (geo, inv) == (rec.routes["geometric"].is_pe, rec.routes["invariant"].is_pe)
        # off the boundary the columns disagree only where the box over-admits
        if geo != inv and not any(v.on_boundary for v in rec.routes.values()):
            assert (geo, inv) == (False, True)


@pytest.mark.parametrize(
    "argv",
    [("scan", "--chamber", "40")] + [("scan", "--edge", e.name, "--steps", "101") for e in EdgeId],
    ids=lambda argv: " ".join(argv),
)
def test_every_scanned_point_is_accepted_back(capsys, argv):
    # %.12g pushes 67 of the grid-40 rows on the c1 + c2 = pi face up to 4.6e-12 past it, which
    # CHAMBER_TOL must absorb
    code, out, _ = run(capsys, *argv)
    assert code == 0
    for row in out.splitlines()[1:]:
        point = ",".join(row.split(",")[:3])
        assert classify_gate(_parse_point(point, False)).point is not None, point


def _reference_scan_rows(pts) -> str:
    """scan's CSV of the points pts, one _CSV_ROW per row in 1024-row blocks, kept as the reference."""
    blocks = [_CSV_HEADER + "\n"]
    for block in np.split(pts, range(1024, len(pts), 1024)):
        cols = point_columns(*block.T)
        verdicts = point_verdicts(cols)
        geo, inv = (_CSV_BOOL[verdicts[k].astype(np.intp)] for k in ("pe_geometric", "pe_invariant"))
        columns = [*block.T, cols["g1_abs"], cols["g2"], cols["ep"], geo, inv]
        blocks.append("".join(map(_CSV_ROW.__mod__, zip(*(col.tolist() for col in columns)))))
    return "".join(blocks)


def _reference_scan_chamber(grid_n: int) -> str:
    """scan --chamber with one "%.12g" per coordinate of every row."""
    return _reference_scan_rows(chamber_lattice(grid_n))


def _reference_scan_edge(edge: EdgeId, steps: int) -> str:
    """scan --edge with one "%.12g" per float of every row."""
    return _reference_scan_rows(_edge_coords(edge, np.linspace(0.0, 1.0, steps)))


def _assert_same_text(out: str, expected: str) -> None:
    """Assert out == expected; on failure report the first differing line and both sha256 digests.

    A plain assert would have pytest diff the whole texts, which took over 10 minutes on the
    4.4 MB of scan --chamber 64.
    """
    if out == expected:
        return
    got, want = out.splitlines(keepends=True), expected.splitlines(keepends=True)
    i = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), min(len(got), len(want)))
    line = [text[i] if i < len(text) else "<end of text>" for text in (got, want)]
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, expected)]
    pytest.fail(f"texts differ first at line {i + 1}: got {line[0]!r}, expected {line[1]!r}; "
                f"sha256 {digests[0]} against {digests[1]}", pytrace=False)


def test_same_text_assertion_reports_the_first_differing_line():
    _assert_same_text("a\nb\n", "a\nb\n")
    for out, expected, shown in [
        ("a\nb\nc\n", "a\nx\nc\n", "line 2: got 'b\\n', expected 'x\\n'"),
        ("a\n", "a\nb\n", "line 2: got '<end of text>', expected 'b\\n'"),
        ("a", "a\n", "line 1: got 'a', expected 'a\\n'"),
    ]:
        with pytest.raises(pytest.fail.Exception) as exc:
            _assert_same_text(out, expected)
        assert shown in str(exc.value)
        assert hashlib.sha256(expected.encode()).hexdigest() in str(exc.value)


@pytest.mark.parametrize("grid_n", [*range(2, 13), 31, 64])
def test_scan_chamber_matches_per_row_reference(capsys, grid_n):
    code, out, _ = run(capsys, "scan", "--chamber", str(grid_n))
    assert code == 0
    _assert_same_text(out, _reference_scan_chamber(grid_n))


@pytest.mark.parametrize("steps", [2, 1025, 4096])
@pytest.mark.parametrize("edge", list(EdgeId), ids=lambda e: e.name)
def test_scan_edge_matches_per_row_reference(capsys, edge, steps):
    code, out, _ = run(capsys, "scan", "--edge", edge.name, "--steps", str(steps))
    assert code == 0
    _assert_same_text(out, _reference_scan_edge(edge, steps))


def _counting_fmt(monkeypatch) -> list[float]:
    """Wrap cli._fmt, the kernel's fallback, so that it records each value it renders."""
    seen: list[float] = []
    fmt = cli._fmt

    def counting(x):
        seen.append(x)
        return fmt(x)

    monkeypatch.setattr(cli, "_fmt", counting)
    return seen


def test_scan_renders_almost_every_value_on_the_fast_path(capsys, monkeypatch):
    """At most 1% of the floats scan writes go through the per-value fallback."""
    seen = _counting_fmt(monkeypatch)
    code, out, _ = run(capsys, "scan", "--chamber", "48")
    assert code == 0
    # every fallback counts against the three value columns, the coordinates' ones too
    assert len(seen) <= 0.01 * 3 * (out.count("\n") - 1)
    for edge in EdgeId:
        pts = _edge_coords(edge, np.linspace(0.0, 1.0, 1001))
        seen.clear()
        code, _, _ = run(capsys, "scan", "--edge", edge.name, "--steps", "1001")
        assert code == 0
        coords = set(pts.ravel().tolist())
        assert sum(v in coords for v in seen) <= 0.01 * pts.size, edge.name


def test_scan_byte_deterministic(capsys):
    _, out1, _ = run(capsys, "scan", "--chamber", "6")
    _, out2, _ = run(capsys, "scan", "--chamber", "6")
    assert out1 == out2


# --------------------------------------------------------------------- verify


def test_verify_theorems_passes(capsys):
    code, out, _ = run(capsys, "verify", "theorems", "--grid", "10")
    assert code == 0
    assert "result: PASS" in out
    assert "g2 bound violations: 0" in out
    assert "equivalence violations: 0" in out


# point 32 of the grid-10 chamber lattice, its first perfect entangler off the boundary
_GRID10_PE = "WeylPoint(c1=1.0471975511965976, c2=0.6981317007977318, c3=0.0)"


# the lattice path reads g2 and ep from classify._evaluate; a wrapper sets one column at row 32
@pytest.mark.parametrize(("column", "value", "buckets"), [
    # g2 above 1 also fails the invariant box, so the point is an equivalence violation too
    ("g2", 1.5, {
        "g2 bound": [f"perfect entangler with g2 = 1.5 at {_GRID10_PE}"],
        "equivalence": [f"geometric True vs invariant False at {_GRID10_PE}"],
    }),
    ("ep", 0.5, {"ep range": [f"perfect entangler with e_p = 0.5 at {_GRID10_PE}"]}),
])
def test_verify_theorems_reports_a_perfect_entangler_out_of_its_bounds(capsys, monkeypatch, column, value, buckets):
    evaluate = classify._evaluate

    def wrapped(*args):
        cols = evaluate(*args)
        cols[column][32] = value
        if column == "g2":
            cols["inv_margins"] = classify.invariant_margins(cols["g1_abs"], cols["g2"])
        return cols

    monkeypatch.setattr(classify, "_evaluate", wrapped)
    rep = classify.verify_theorems(10)
    assert rep.violations == {label: buckets.get(label, []) for label in THEOREM_CLAIMS}
    assert rep.n_violations == sum(map(len, buckets.values()))
    code, out, _ = run(capsys, "verify", "theorems", "--grid", "10")
    assert code == 1
    expected = [
        "theorem sweep: grid 10 (1000 lattice points, 190 in chamber, 92 perfect entanglers)",
        "boundary-exempt points: 26",
    ]
    for label in THEOREM_CLAIMS:
        lines = buckets.get(label, [])
        expected += [f"{label} violations: {len(lines)}", *(f"  {line}" for line in lines)]
    assert out.splitlines() == expected + ["result: FAIL"]


def test_verify_routes_passes(capsys):
    code, out, _ = run(capsys, "verify", "routes", "--n", "100", "--seed", "7")
    assert code == 0
    assert "result: PASS" in out
    assert "100 points, seed 7" in out


def test_verify_montecarlo_passes(capsys):
    code, out, _ = run(capsys, "verify", "montecarlo", "--mc", "2000", "--seed", "5")
    assert code == 0
    assert "result: PASS" in out
    assert "IDENTITY: mean=0" in out


def test_verify_montecarlo_reports_each_violation_in_catalog_order(capsys, monkeypatch):
    # CNOT_CLASS and B_GATE get a mean of 0.5, far beyond their bounds of max(3 std_err, 5e-3)
    n, seed, wrong_at = 2000, 5, (2, 6)
    sampled = catalog.ep_monte_carlo_many

    def wrong_means(us, n_samples, seed):
        return [dataclasses.replace(est, mean=0.5) if i in wrong_at else est
                for i, est in enumerate(sampled(us, n_samples, seed))]

    monkeypatch.setattr(catalog, "ep_monte_carlo_many", wrong_means)
    expected = (
        "CNOT_CLASS: |0.5 - 0.2222222222222222| > 0.009742984877999999",
        "B_GATE: |0.5 - 0.2222222222222222| > 0.008779100811",
    )
    rep = catalog.verify_monte_carlo(n, seed)
    assert rep.violations == expected
    assert rep.passed is False
    code, out, _ = run(capsys, "verify", "montecarlo", "--mc", str(n), "--seed", str(seed))
    assert code == 1
    lines = out.splitlines()
    assert lines[10:] == [f"  {line}" for line in expected] + ["result: FAIL"]


def _bumped(fn, at, size):
    """fn with size added to its values at the points numbered in at, counting across chunked calls."""
    seen = 0

    def wrapped(*args):
        nonlocal seen
        out = np.array(fn(*args), dtype=float)
        out[[i - seen for i in at if seen <= i < seen + len(out)]] += size
        seen += len(out)
        return out
    return wrapped


def _bump_routes(monkeypatch, g1_at=(), op_at=(), g2_at=(), size=1e-6):
    # the default bump of 1e-6 is above every tolerance, rendered as 1.000e-06
    for name, at in (("ep_from_g1_abs", g1_at), ("_ep_operator", op_at), ("g2_product_array", g2_at)):
        monkeypatch.setattr(classify, name, _bumped(getattr(classify, name), at, size))


def test_verify_routes_reports_each_disagreement_in_point_order(capsys, monkeypatch):
    n, seed = 8, 4
    at = [WeylPoint(*p) for p in random_chamber_coords(seed, n).tolist()]
    expected = (
        f"closed vs |g1| route: 1.000e-06 at {at[1]}",
        f"closed vs operator route: 1.000e-06 at {at[3]}",
        f"g2 forms: 1.000e-06 at {at[3]}",
        f"closed vs |g1| route: 1.000e-06 at {at[5]}",
        f"closed vs operator route: 1.000e-06 at {at[5]}",
        f"g2 forms: 1.000e-06 at {at[5]}",
    )
    with monkeypatch.context() as patch:
        _bump_routes(patch, g1_at=[1, 5], op_at=[3, 5], g2_at=[3, 5])
        rep = classify.verify_route_agreement(n, seed)
    assert rep.violations == expected
    assert rep.passed is False
    with monkeypatch.context() as patch:
        _bump_routes(patch, g1_at=[1, 5], op_at=[3, 5], g2_at=[3, 5])
        code, out, _ = run(capsys, "verify", "routes", "--n", str(n), "--seed", str(seed))
    assert code == 1
    lines = out.splitlines()
    assert lines[4:] == [f"  {line}" for line in expected] + ["result: FAIL"]


def test_verify_routes_in_chunks_matches_one_shot_report(monkeypatch):
    # 18 points drawn 4 candidates per sampler pass, so each pass keeps at most 4 points and many keep
    # none, with disagreements in several passes; the default pass size draws them in one pass
    n, seed = 18, 4
    reports = []
    for pass_max in (4, canonical._PASS_MAX):
        with monkeypatch.context() as patch:
            patch.setattr(canonical, "_PASS_MAX", pass_max)
            passes = [len(pts) for pts in canonical._chamber_coord_passes(seed, n)]
            _bump_routes(patch, g1_at=[2, 9], op_at=[3, 8], g2_at=[9, 11])
            reports.append(classify.verify_route_agreement(n, seed))
        assert sum(passes) == n
        assert (len(passes) > 4) == (pass_max == 4)
    chunked, one_shot = reports
    assert len(chunked.violations) == 6
    assert chunked == one_shot


def _count_calls(patch, module, name) -> list:
    """Record the margins of every call to module.name made from here on."""
    calls = []
    fn = getattr(module, name)

    def counted(margins):
        calls.append(margins)
        return fn(margins)

    patch.setattr(module, name, counted)
    return calls


def test_route_agreement_and_scan_form_no_verdict_they_do_not_read(capsys, monkeypatch):
    """verify routes reads no verdict and scan no boundary flag, so neither forms one. verify_theorems,
    which reads both, shows that the counters see the calls: one block, two of each."""
    unpatched = classify.verify_route_agreement(600, 3)
    boundary = _count_calls(monkeypatch, classify, "_boundary_mask")
    pe = _count_calls(monkeypatch, classify, "pe_mask")
    scan_pe = _count_calls(monkeypatch, cli, "pe_mask")
    assert classify.verify_route_agreement(600, 3) == unpatched
    assert (len(boundary), len(pe)) == (0, 0)
    code, out, _ = run(capsys, "scan", "--chamber", "20")
    assert code == 0 and out.count("\n") == 1 + len(chamber_lattice(20))
    assert (len(boundary), len(scan_pe)) == (0, 2 * math.ceil(1430 / cli._SCAN_BLOCK))  # 1430 points: two per block
    verify_theorems(20)
    assert (len(boundary), len(pe)) == (2, 2)


@pytest.mark.parametrize("route, label, field, tol", [
    ("g1_at", "closed vs |g1| route", "max_closed_vs_g1", 1e-12),
    ("op_at", "closed vs operator route", "max_closed_vs_operator", 1e-10),
    ("g2_at", "g2 forms", "max_g2_forms", 1e-12),
])
def test_verify_routes_tolerance_at_half_and_twice(monkeypatch, route, label, field, tol):
    # a bump of half a route's tolerance at one point passes, and is the largest discrepancy; twice it is reported
    n, seed, i = 8, 4, 2
    at = WeylPoint(*random_chamber_coords(seed, n).tolist()[i])
    for size, reported in ((0.5 * tol, False), (2 * tol, True)):
        with monkeypatch.context() as patch:
            _bump_routes(patch, **{route: [i]}, size=size)
            rep = classify.verify_route_agreement(n, seed)
        assert getattr(rep, field) == pytest.approx(size, rel=1e-3)
        assert rep.violations == ((f"{label}: {size:.3e} at {at}",) if reported else ())


@pytest.mark.parametrize("n", ["0", "-5"])
def test_verify_routes_rejects_empty_sample_exit_code(capsys, n):
    code, out, err = run(capsys, "verify", "routes", "--n", n)
    assert code == 2
    assert "n_points must be at least 1" in err
    assert "PASS" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "theorems", "--grid", "40"),
        ("verify", "routes", "--n", "600", "--seed", "3"),
        ("verify", "montecarlo", "--mc", "2000", "--seed", "5"),
    ],
    ids=" ".join,
)
def test_verify_writes_each_violation_line_as_it_renders(monkeypatch, argv):
    writes: list[str] = []  # the argument of every write and each item of every writelines
    monkeypatch.setattr(
        sys, "stdout", types.SimpleNamespace(write=writes.append, writelines=writes.extend, flush=lambda: None)
    )
    exit_code, digest = next((c, d) for a, c, d in GOLDEN_OUTPUTS if a == argv)
    assert main(list(argv)) == exit_code
    assert hashlib.sha256("".join(writes).encode()).hexdigest() == digest
    # a violation line is indented by two spaces; no write carries more than one
    assert max(sum(line.startswith("  ") for line in text.splitlines()) for text in writes) <= 1


def test_verify_theorems_holds_no_second_copy_of_its_report(monkeypatch):
    tracemalloc.start()
    try:
        verify_theorems(200)
        _, alone = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            assert main(["verify", "theorems", "--grid", "200"]) == 1
        _, command = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the report's own lines are in both peaks; printing them may add no more than a buffer
    assert command - alone <= 4 << 20


def test_verify_byte_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "routes", "--n", "60", "--seed", "11")
    _, out2, _ = run(capsys, "verify", "routes", "--n", "60", "--seed", "11")
    assert out1 == out2


# each suite's flags; any other verify flag given to that suite is a usage error
_SUITE_FLAGS = {
    "theorems": {"--grid": "10"},
    "routes": {"--n": "60", "--seed": "3"},
    "montecarlo": {"--mc": "2000", "--seed": "3"},
}
# the 7 suite/flag pairs the single verify parser used to accept and ignore
_FOREIGN_PAIRS = [
    ("theorems", "--n", "60"), ("theorems", "--mc", "2000"), ("theorems", "--seed", "3"),
    ("routes", "--grid", "10"), ("routes", "--mc", "2000"),
    ("montecarlo", "--grid", "10"), ("montecarlo", "--n", "60"),
]


@pytest.mark.parametrize(("suite", "flag", "value"), _FOREIGN_PAIRS, ids=[" ".join(p) for p in _FOREIGN_PAIRS])
def test_verify_rejects_a_flag_its_suite_does_not_read(capsys, suite, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, *itertools.chain(*_SUITE_FLAGS[suite].items()), flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


# the last line of stderr when the suite, or the command, does not come first
_NO_LEADING_SUITE = {
    ("verify",): "gatepower verify: error: the following arguments are required: suite",
    # argparse alone would read 10 as the suite and report "invalid choice: '10'"
    ("verify", "--grid", "10", "theorems"):
        "gatepower verify: error: unrecognized arguments: --grid; a suite's flags come after its name",
    ("verify", "--grid=10", "theorems"):
        "gatepower verify: error: unrecognized arguments: --grid; a suite's flags come after its name",
    ("--grid", "10", "verify", "theorems"):
        "gatepower: error: unrecognized arguments: --grid; a command's flags come after its name",
}


@pytest.mark.parametrize("argv", list(_NO_LEADING_SUITE), ids=" ".join)
def test_verify_without_a_leading_suite_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == _NO_LEADING_SUITE[argv]


@pytest.mark.parametrize("suite", list(_SUITE_FLAGS))
def test_verify_suite_help_lists_only_its_own_flags(capsys, suite):
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: gatepower verify {suite} [-h]")
    shown = {flag for flag in ("--grid", "--n", "--mc", "--seed") if f"{flag} " in out}
    assert shown == set(_SUITE_FLAGS[suite])


@pytest.mark.parametrize(
    ("argv", "usage"),
    [
        (("verify", "theorems", "--seed", "3"), "usage: gatepower verify theorems [-h] [--grid GRID]\n"),
        (("verify", "routes", "--grid", "2"), "usage: gatepower verify routes [-h] [--n N] [--seed SEED]\n"),
        (("analyze", "--name", "SWAP", "--grid", "3"), "usage: gatepower analyze [-h] (--name NAME"),
    ],
    ids=" ".join,
)
def test_foreign_flag_is_reported_under_its_parsers_usage(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(usage)
    assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("scan", "--chamber", "4", "--steps", "5"), "--steps applies only to --edge"),
        (("analyze", "--name", "SWAP", "--deg"), "--deg applies only to --point"),
        (("analyze", "--name", "SWAP", "--seed", "3"), "--seed applies only to --mc"),
    ],
    ids=" ".join,
)
def test_flag_its_mode_does_not_read_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    ("argv", "default"),
    [
        (("scan", "--edge", "QP"), ("--steps", "11")),
        (("analyze", "--name", "CNOT_CLASS", "--mc", "2000", "--json"), ("--seed", "42")),
    ],
    ids=" ".join,
)
def test_omitted_steps_and_seed_keep_their_defaults(capsys, argv, default):
    assert run(capsys, *argv) == run(capsys, *argv, *default)


def test_repeated_main_calls_share_no_parse_state(capsys):
    # the parser is built once per process; each call must still parse afresh
    calls = [
        ("analyze", "--point", "45,45,0", "--deg"),
        ("analyze", "--point", "0.7853981634,0.7853981634,0"),
        ("verify", "routes", "--n", "0"),
        ("verify", "routes"),
        ("verify", "theorems", "--grid", "10"),
        ("verify", "montecarlo", "--mc", "2000", "--seed", "5"),
    ]
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(run(capsys, *argv)[:2])
    build_parser.cache_clear()
    together = [run(capsys, *argv)[:2] for argv in calls]
    assert together == alone
    assert [code for code, _ in together] == [0, 0, 2, 0, 0, 0]
    assert build_parser.cache_info().misses == 1


def _short_digest(text: str) -> str:
    """The first 16 hex digits of the sha256 of text, or "" for no text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16] if text else ""


# exit code, stdout and stderr digests (_short_digest) of main(argv) at COLUMNS=80, recorded
# from argparse's own nested pass before parsers with subcommands handed a subcommand's
# arguments straight to its parser: valid forms, help at each level, missing and unknown
# commands or suites, foreign flags, flags before the command, "--", "--flag=value",
# abbreviated flags and bad type= values
_PARSE_OUTPUTS = [
    (('analyze', '--name', 'SWAP'), 0, 'd4eebfcf985a65fc', ''),
    (('analyze', '--point', '1.0,0.5,0.2', '--json'), 0, 'e8e016610af6e78d', ''),
    (('analyze', '--point=45,45,0', '--deg'), 0, '5c4bc9b289f933f2', ''),
    (('analyze', '--name', 'CNOT_CLASS', '--mc', '2000', '--seed=3'), 0, 'f79646bbe18b4a21', ''),
    (('analyze', '--na', 'SWAP', '--js'), 0, 'cd6674342036baf1', ''),
    (('analyze', '--point=-0.0,-0.0,-0.0'), 0, '3c7c85bec14c3a88', ''),
    (('scan', '--edge', 'QP', '--steps', '5'), 0, '996531bb78461f65', ''),
    (('scan', '--chamber=3'), 0, 'd4a2e93634214d32', ''),
    (('verify', 'theorems', '--grid', '4'), 0, 'b58530cc3c18c61a', ''),
    (('verify', 'theorems', '--gr=4'), 0, 'b58530cc3c18c61a', ''),
    (('verify', 'routes', '--n', '20', '--seed', '3'), 0, '2693a5f7276c00a7', ''),
    (('verify', 'routes', '--n', '20', '--seed', '3', '--n', '30'), 0, 'b27418c86505203b', ''),
    (('verify', 'montecarlo', '--mc', '1000', '--seed', '5'), 0, '4baa87069fd3f4c3', ''),
    (('catalog',), 0, '308542e1527b28b2', ''),
    (('catalog', '--'), 2, '', '9571ad62186e9e2b'),
    (('-h',), 0, 'a4ef60e7c633007b', ''),
    (('--help',), 0, 'a4ef60e7c633007b', ''),
    (('--he',), 0, 'a4ef60e7c633007b', ''),
    (('-h', 'analyze'), 0, 'a4ef60e7c633007b', ''),
    (('analyze', '-h'), 0, '8e4ab6fd56d9ac70', ''),
    (('analyze', '--name', 'SWAP', '--help'), 0, '8e4ab6fd56d9ac70', ''),
    (('scan', '--help'), 0, 'd1ba5e174151d427', ''),
    (('verify', '-h'), 0, '4f8b56a10a079dbf', ''),
    (('verify', 'theorems', '-h'), 0, 'f64d6e04e357c7ec', ''),
    (('verify', 'routes', '--help'), 0, '0b4b20f380177983', ''),
    (('verify', 'montecarlo', '-h'), 0, '819acb93eb951212', ''),
    (('catalog', '-h'), 0, '86b7afe01325d869', ''),
    ((), 2, '', '45f4471a6bbafc83'),
    (('bogus',), 2, '', '410022b6cee3ccfb'),
    (('ana', '--name', 'SWAP'), 2, '', '88f1f18f569b8bca'),
    (('verify',), 2, '', 'a7edf0f023ec4938'),
    (('verify', 'bogus'), 2, '', '1f9caa3466bcf344'),
    (('verify', 'theorems', 'extra'), 2, '', '914b68afebdba233'),
    (('analyze',), 2, '', 'c0cac4064178ecf7'),
    (('analyze', '--name', 'SWAP', '--point', '1,1,1'), 2, '', 'c06e2a1f63e115dd'),
    (('analyze', '--name', 'SWAP', '--m', '5'), 2, '', '093513bd3f465e02'),
    (('analyze', '--point', '-0.1,0,0'), 2, '', 'd14887433d1735e5'),
    (('analyze', '--name', 'SWAP', '--mc', 'ten'), 2, '', 'badb39985a73b43d'),
    (('analyze', '--name', 'NOPE'), 2, '', '900b4571ef5580bd'),
    (('scan', '--chamber', '2.5'), 2, '', '6c51501a2381efb6'),
    (('scan', '--edge', 'QP', '--steps', '1'), 2, '', 'b28600412e551b7d'),
    (('verify', 'theorems', '--grid', 'x'), 2, '', 'a2f99f909c47b27f'),
    (('verify', 'theorems', '--seed', '3'), 2, '', '8f95f29f33e34d5d'),
    (('verify', '--grid', '10', 'theorems'), 2, '', 'a142f816684b51c7'),
    (('verify', '--grid=10', 'theorems'), 2, '', 'a142f816684b51c7'),
    (('--grid', '10', 'verify', 'theorems'), 2, '', '54f302dc873f33bf'),
    (('-x', 'catalog'), 2, '', 'c4dd6b7b49d3b6da'),
    (('--version',), 2, '', 'f72b7f820bf339bb'),
    (('--', 'catalog'), 2, '', '246c3f9adc264e42'),
    (('catalog', '--', 'x'), 2, '', '1115a15cdd3b5ffa'),
    (('catalog', '--json'), 2, '', 'ee02249684fa4aac'),
    (('analyze', '--', '--name', 'SWAP'), 2, '', 'c0cac4064178ecf7'),
    (('verify', '--', 'theorems'), 2, '', '15b5aed4e98598b2'),
]


def _exit_code_and_digests(capsys, argv) -> tuple:
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, _short_digest(captured.out), _short_digest(captured.err)


@pytest.mark.parametrize(("argv", "code", "out", "err"), _PARSE_OUTPUTS, ids=[" ".join(p[0]) or "no-arguments" for p in _PARSE_OUTPUTS])
def test_parser_output_matches_argparse_nested_pass(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to the terminal width
    assert _exit_code_and_digests(capsys, argv) == (code, out, err)


# vars() of the namespace of each valid argv above, in order, with func by name, as argparse's
# nested pass built it: each subcommand's dest, then the leaf parser's values and its set_defaults
_PARSE_NAMESPACES = {
    ('analyze', '--name', 'SWAP'):
        [('command', 'analyze'), ('name', 'SWAP'), ('point', None), ('matrix', None), ('deg', False), ('json', False), ('mc', None), ('seed', None), ('func', 'cmd_analyze')],
    ('analyze', '--point', '1.0,0.5,0.2', '--json'):
        [('command', 'analyze'), ('name', None), ('point', '1.0,0.5,0.2'), ('matrix', None), ('deg', False), ('json', True), ('mc', None), ('seed', None), ('func', 'cmd_analyze')],
    ('analyze', '--point=45,45,0', '--deg'):
        [('command', 'analyze'), ('name', None), ('point', '45,45,0'), ('matrix', None), ('deg', True), ('json', False), ('mc', None), ('seed', None), ('func', 'cmd_analyze')],
    ('analyze', '--name', 'CNOT_CLASS', '--mc', '2000', '--seed=3'):
        [('command', 'analyze'), ('name', 'CNOT_CLASS'), ('point', None), ('matrix', None), ('deg', False), ('json', False), ('mc', 2000), ('seed', 3), ('func', 'cmd_analyze')],
    ('analyze', '--na', 'SWAP', '--js'):
        [('command', 'analyze'), ('name', 'SWAP'), ('point', None), ('matrix', None), ('deg', False), ('json', True), ('mc', None), ('seed', None), ('func', 'cmd_analyze')],
    ('analyze', '--point=-0.0,-0.0,-0.0'):
        [('command', 'analyze'), ('name', None), ('point', '-0.0,-0.0,-0.0'), ('matrix', None), ('deg', False), ('json', False), ('mc', None), ('seed', None), ('func', 'cmd_analyze')],
    ('scan', '--edge', 'QP', '--steps', '5'):
        [('command', 'scan'), ('chamber', None), ('edge', 'QP'), ('steps', 5), ('out', None), ('func', 'cmd_scan')],
    ('scan', '--chamber=3'):
        [('command', 'scan'), ('chamber', 3), ('edge', None), ('steps', None), ('out', None), ('func', 'cmd_scan')],
    ('verify', 'theorems', '--grid', '4'):
        [('command', 'verify'), ('suite', 'theorems'), ('grid', 4), ('func', 'cmd_verify')],
    ('verify', 'theorems', '--gr=4'):
        [('command', 'verify'), ('suite', 'theorems'), ('grid', 4), ('func', 'cmd_verify')],
    ('verify', 'routes', '--n', '20', '--seed', '3'):
        [('command', 'verify'), ('suite', 'routes'), ('n', 20), ('seed', 3), ('func', 'cmd_verify')],
    ('verify', 'routes', '--n', '20', '--seed', '3', '--n', '30'):
        [('command', 'verify'), ('suite', 'routes'), ('n', 30), ('seed', 3), ('func', 'cmd_verify')],
    ('verify', 'montecarlo', '--mc', '1000', '--seed', '5'):
        [('command', 'verify'), ('suite', 'montecarlo'), ('mc', 1000), ('seed', 5), ('func', 'cmd_verify')],
    ('catalog',):
        [('command', 'catalog'), ('func', 'cmd_catalog')],
}


@pytest.mark.parametrize("argv", list(_PARSE_NAMESPACES), ids=" ".join)
def test_parsed_namespace_matches_argparse_nested_pass(argv):
    args = build_parser().parse_args(list(argv))
    assert [(k, v.__name__ if callable(v) else v) for k, v in vars(args).items()] == _PARSE_NAMESPACES[argv]


@pytest.mark.parametrize("argv", list(_PARSE_NAMESPACES), ids=" ".join)
def test_parsed_namespace_equals_a_live_argparse_nested_pass(monkeypatch, argv):
    parser = build_parser()
    # the fast path reads no parent's defaults, which holds while no parser with subcommands has one
    assert parser.get_default("func") is None and parser._children["verify"].get_default("func") is None
    fast = vars(parser.parse_args(list(argv)))
    monkeypatch.setattr(cli._Parser, "parse_known_args", argparse.ArgumentParser.parse_known_args)
    assert list(fast.items()) == list(vars(parser.parse_args(list(argv))).items())


def test_a_leading_subcommand_name_skips_the_parents_argparse_pass(monkeypatch):
    parsed = []
    parse = argparse.ArgumentParser._parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args",
                        lambda self, *a: parsed.append(self.prog) or parse(self, *a))
    # a well-formed leaf argument list takes the leaf's direct pass, and no argparse pass at all
    build_parser().parse_args(["verify", "theorems", "--grid", "4"])
    build_parser().parse_args(["analyze", "--point", "1.0,0.5,0.2", "--json"])
    assert parsed == []
    # one the direct pass declines, an abbreviation or a value that starts with "-", takes the leaf's only
    build_parser().parse_args(["analyze", "--poi", "1,0,0"])
    build_parser().parse_args(["verify", "routes", "--seed", "-1"])
    assert parsed == ["gatepower analyze", "gatepower verify routes"]


_LEAVES = [("analyze",), ("scan",), ("catalog",), ("verify", "theorems"), ("verify", "routes"), ("verify", "montecarlo")]
_ODD_VALUES = ["", "-1", "-x", "--", "7", "abc"]


@st.composite
def _leaf_argv(draw, parser) -> list:
    """Argument lists from a leaf's option strings: options other than help, each followed by a
    value if its action takes one, any of them repeated, and at most one odd word among them: an
    option with or without a value, a prefix with a value, --flag=value, -h or a bare value."""
    actions = parser._option_string_actions
    own = [o for o in actions if o not in ("-h", "--help")]
    value = st.sampled_from(_ODD_VALUES)
    # "7" converts with every type these leaves use: half the values an option takes are "7"
    usual = st.sampled_from(own).flatmap(
        lambda o: st.tuples(st.just(o), st.just("7") | value) if actions[o].nargs != 0 else st.just((o,)))
    option = st.sampled_from(list(actions))
    prefix = option.flatmap(lambda o: st.sampled_from([o[:k] for k in range(1, len(o))]))
    odd = st.one_of(
        st.tuples(option), st.tuples(option, value), st.tuples(prefix, value),
        st.builds(lambda o, v: (f"{o}={v}",), option, value), st.just(("-h",)), st.tuples(value),
    )
    words = draw(st.lists(usual, max_size=5)) if own else []
    if draw(st.booleans()):
        words.insert(draw(st.integers(0, len(words))), draw(odd))
    return [token for w in words for token in w]


@pytest.mark.parametrize("leaf", _LEAVES, ids=" ".join)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_direct_pass_matches_argparse_on_every_list_it_accepts(leaf, data):
    parser = build_parser()
    for name in leaf:
        parser = parser._children[name]
    argv = data.draw(_leaf_argv(parser))
    direct = parser._direct_pass(argv)
    if direct is None:
        return
    try:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            namespace, extras = argparse.ArgumentParser.parse_known_args(parser, argv)
    except SystemExit:
        pytest.fail(f"direct pass accepted {argv}, argparse refused it: {err.getvalue()}")
    assert extras == []
    assert list(vars(direct).items()) == list(vars(namespace).items())


# sha256 of stdout and the exit code, recorded from the reference implementation;
# any change in output bytes, including the last rendered digit, fails here
GOLDEN_OUTPUTS = [
    (("scan", "--chamber", "2"), 0, "bc76de4c1ab14c74e02523fc063befbe30fd53de64d8f25f9ab77a9dbb9e8e61"),
    (("scan", "--chamber", "8"), 0, "b2db0d5c738b50902a7ffdab05cbad6a9c541e05bc6c159ba0b71dedbb7523c0"),
    (("scan", "--chamber", "21"), 0, "d4e788965f4121692e9a83a12a31ffae453b63009c5bf6397f238572fbf98fef"),
    (("scan", "--chamber", "25"), 0, "d7dd7c1d86ec2a48c7a3e4acdd282f11e7077f8f6f8ee5c544b3344b42f3cf17"),
    (("scan", "--chamber", "33"), 0, "92fe17fb1220010ef08f5fc9856de423cfe30d92a5a995ae57b77cf08d5e8fb1"),
    (("scan", "--chamber", "40"), 0, "4c6ac9856ea634cd0504c4f0ed53a9262c598423c6f32263d049297f5a97fdbd"),
    (("scan", "--chamber", "47"), 0, "50ebb1f12dbc901da4b54630ea18beacadaf167aa1725fb9daa1c1db3be315f5"),
    (("scan", "--chamber", "48"), 0, "5e66c6aa8a9023f1a8fcd3ba5a41662b196a9a33097467bca95e283890dbd749"),
    (("scan", "--edge", "QP", "--steps", "2"), 0, "be76d8a8eac7ece004f35415c7a13ffe6636e5df302d9a371bbac0fa81dac705"),
    (("scan", "--edge", "QP", "--steps", "11"), 0, "3469adf9f746ff7d162a974edf9e087668d34da64431cedf271f87e2d4d798ca"),
    (("scan", "--edge", "QP", "--steps", "101"), 0, "848214584b65c7749cb0a61748ed5f1dafda95aa05a5ad16d87c178239e8e23d"),
    (("scan", "--edge", "QP", "--steps", "4096"), 0, "ecdc4d490d1216d32fa181fc31c7f3913d32a8e3e4156c938936ad3daf8a4b91"),
    (("scan", "--edge", "MN", "--steps", "2"), 0, "033333da3dc301896e75e1b92a2282a3e5055b5b1628a1a73db8eb0a718ad219"),
    (("scan", "--edge", "MN", "--steps", "11"), 0, "305ff9a81b688d3c95b946be7a0f619150a4fbfc42cf9258f4e95bc3f217a000"),
    (("scan", "--edge", "MN", "--steps", "101"), 0, "53d94801dc4f0e0c519878fe83327929acae00995b287ec67f955f5c02aa17f0"),
    (("scan", "--edge", "MN", "--steps", "4096"), 0, "2d224e356a5650059cd437b295ea3622a395e63f47b73ce97accadb95d34f10b"),
    (("scan", "--edge", "PN", "--steps", "2"), 0, "7e4cafb80e19332995097ff0ef3aeb427526f00ddcb7e95e659eb2e51c4a23d9"),
    (("scan", "--edge", "PN", "--steps", "11"), 0, "d2c78cb361a453accee909ba4c49d5216bde64ae8d59e2892766a31f89df50c9"),
    (("scan", "--edge", "PN", "--steps", "101"), 0, "6dd6aa2873eb476d6244a1b63694ff9fd46d36b7e460b6a59bbe166701eff3c3"),
    (("scan", "--edge", "PN", "--steps", "4096"), 0, "a55f6dfb9880ea9bdbc74348572961801739e90083f662b3c3556284df4defef"),
    (("scan", "--edge", "LQ", "--steps", "2"), 0, "04a8baf72e7d4de650b744a8146859dcadd0005fa32703b8d74f9fcff6952f65"),
    (("scan", "--edge", "LQ", "--steps", "11"), 0, "103df8a0065e462fd1896e5f395a01d624d885b47d132bb79efd35ebe8017545"),
    (("scan", "--edge", "LQ", "--steps", "101"), 0, "81de4489eea12b1b5edde4155799845069483286be080e297e7fb6aa4af84251"),
    (("scan", "--edge", "LQ", "--steps", "4096"), 0, "7160087850ee87ca89cec198c6af248a2d274f02992f331bb21f249a5ba748fd"),
    (("scan", "--edge", "LN", "--steps", "2"), 0, "3510f0442b16193151ddcffdb858ea96c33d5a9c258267b8cb73ea7bbdb234fc"),
    (("scan", "--edge", "LN", "--steps", "11"), 0, "da2cc3bfa65ea394fa65ea23b49f8c03a1e184537374dd03c00fe8e29ed9fd84"),
    (("scan", "--edge", "LN", "--steps", "101"), 0, "b2b15fcfdfc7127b661e7baa59c49aa8db55de3025062d71868d275fb7480bbd"),
    (("scan", "--edge", "LN", "--steps", "1001"), 0, "3eb4452e82a6d10587cccc9a7a9953ceff8b076c46d31262f5d6ca64bb3d310f"),
    (("scan", "--edge", "LN", "--steps", "4096"), 0, "1526283e63a26c1e39e324b7114f38643f09639ec9347a36b2b22829d533863d"),
    (("scan", "--edge", "A2P", "--steps", "2"), 0, "634788fc904bb244a6f73709f36ff5d15bc16706d48cc69fbfd608505a97f9ce"),
    (("scan", "--edge", "A2P", "--steps", "11"), 0, "3faf4848985c9c359ea01f3943f1e04201891f3678056ab21b531d4eeb1072a2"),
    (("scan", "--edge", "A2P", "--steps", "101"), 0, "40c1f90b4e512dc8f1f0f91f2c514810d9e10a8963d7de942295e367d18aa0cc"),
    (("scan", "--edge", "A2P", "--steps", "4096"), 0, "906c176e39bf308eedae2d0741169ff4c35bc69ede7ea810966900d5ddb915aa"),
    (("verify", "theorems", "--grid", "2"), 0, "c842a1292e3d860d2e2b3666b01d57f871a2d7bdee657c4fcf5adb647fd1d8c6"),
    (("verify", "theorems", "--grid", "10"), 0, "f648e4819280fbfec9a1a63cdb108340da7e46ba92bdfae86a1eecc2186eb0e5"),
    (("verify", "theorems", "--grid", "25"), 1, "e4ab3e4cd7ce7883fd8c9769628f51468c00b7eb0838994077cc4de47e40d13e"),
    (("verify", "theorems", "--grid", "40"), 1, "be43ac940f4369a84eed81e0f3c3dca75bd9d276081f3f47c2ac6159318c8a7c"),
    (("verify", "theorems", "--grid", "48"), 1, "a342e7a1b97b92095415f6a86b0af989b571da581b5a00a1dd7a5afb1ecf7287"),
    # 169150 chamber points: more than one of verify_theorems's blocks
    (("verify", "theorems", "--grid", "100"), 1, "957428fe76986c1f1326889ab7053807a8fe13325fdea799ddccebce492b69d6"),
    (("verify", "routes", "--n", "600", "--seed", "3"), 0, "902fd024599bf155d2bc903db4d1123731f82a46490513e5d74ce6bc8ba2df89"),
    (("verify", "routes"), 0, "7e5ee9104669e9f7e1cc05517f4ce8ff264a0c56855393085a0c5acd46452254"),
    (("verify", "montecarlo", "--mc", "2000", "--seed", "5"), 0, "8c646162478ab4d590516b9f590b686e73febc4929783b8ad910ab5ac365780b"),
    (("verify", "montecarlo", "--mc", "20000", "--seed", "42"), 0, "ab568b798557e7c2a8b3588f64691213f0b6bce0a321800d05ebdab05b2b99da"),
    (("analyze", "--name", "SQRT_SWAP", "--mc", "50000", "--json"), 0, "56b89d416f6262dd50a85cf1ac6dd63e110e4f505f7dc083a10020a4a2222396"),
    (("analyze", "--name", "SWAP"), 0, "d4eebfcf985a65fc4029ab68ced8462365b5ad561190ade57d15bcd243c4dc22"),
    (("analyze", "--point", "1.0,0.5,0.2"), 0, "b18d9449b37b65f750f2fc9e91fe32b8eff18e5676017eb8401f941b1bca12ce"),
    (("analyze", "--point", "45,45,0", "--deg"), 0, "5c4bc9b289f933f2330309f29b392e4a032b93287441e196ddc2b4c5cf6dcbe9"),
    (("analyze", "--name", "CNOT_CLASS", "--mc", "2000", "--seed", "3"), 0, "f79646bbe18b4a21763bb94d6d5867681adb16bab2d4f4312e90682148d6ce7f"),
    (("analyze", "--name", "SPE:0.3", "--json"), 0, "113ecd13bf1945b05a013c63a7b8ccddb55affcd862b6d97fca27d1648eac604"),
    (("analyze", "--point", "1.0,0.5,0.2", "--json"), 0, "e8e016610af6e78d65e736cf5f1b96ec5284491b98a94b2cf6818b1de2192a06"),
    (("analyze", "--name", "CNOT_CLASS", "--mc", "2000", "--seed", "3", "--json"), 0, "c8c13e54d6cd7a6427aa5b5445d5257c06701188a5bf93914149bbb4010123d9"),
]


@pytest.mark.parametrize(
    ("argv", "exit_code", "digest"), GOLDEN_OUTPUTS, ids=[" ".join(g[0]) for g in GOLDEN_OUTPUTS]
)
def test_output_matches_golden_digest(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# two dressed gates, the first rounded to 8 decimals and named, the second at full precision;
# then SWAP under a name that --json must escape; then a dressed gate rounded to 8 decimals, defect
# 8.7e-9, whose g2 carries an imaginary residue of 1.4e-8 that the matrix route drops
_GOLDEN_MATRIX_FILES = [
    (
        {
            "name": "dressed_rounded",
            "matrix": [
                [[0.10944841, 0.15467945], [-0.42449476, -0.23039718], [0.73064936, -0.0320279], [-0.19268716, -0.39851478]],
                [[-0.76216201, -0.10602733], [-0.11032455, -0.43988981], [-0.01433865, -0.42349749], [0.13660459, 0.06305703]],
                [[-0.47283262, -0.27220739], [-0.00562959, 0.49061667], [-0.09100632, 0.23861769], [-0.28461555, -0.56157767]],
                [[-0.03984616, 0.26964295], [0.42951957, 0.36854214], [0.30206601, -0.35931265], [0.56090636, -0.26538499]],
            ],
        },
        "7b24659f1354fdae4395a319ed6074a6abb67c1a67423d3ff22d028d99abe50c",
        "76dd35add3f57db9aa6d35233e1b8a40cef1f73a3ed31e67d49a76e8c20bfab8",
    ),
    (
        {
            "matrix": [
                [[-0.2737128197766064, -0.4616466897378184], [0.4078970685633229, -0.3641724606655028],
                 [0.11774084391147445, -0.3568711350278654], [0.08029711936340161, 0.5150674574997051]],
                [[0.19396286667209267, -0.27173307237048894], [-0.10256655471044174, -0.5998828312979576],
                 [0.3586538940893569, 0.5844841437338797], [0.12473291722745665, -0.17985439566314926]],
                [[0.4006957103417981, 0.14651760112608037], [-0.419926328496753, 0.09332770519006257],
                 [0.07670102260353608, 0.08716227091135445], [0.24780655884854372, 0.747020052880728]],
                [[-0.6379125388444653, -0.1074537246233986], [0.006279308935837242, 0.3814858834577479],
                 [0.03301020420940107, 0.6115192349520593], [-0.006980265708229516, 0.24669051145850993]],
            ],
        },
        "aab3fe98114af0c9b3d614ee9dd8088c3ffa0bee335ea6a4178c6e1b76e6fdb9",
        "3470c1ca1fe97657df339f35d17cf90cb9875ec28d520b4fdb2967b0fde9ac3c",
    ),
    (
        {"name": 'a"b\\c \u00e9 \u2713', "matrix": SWAP},  # json.dumps writes it with matrix_to_json
        "444bdb9703808938a56c29ba933ea643d3a76246cfdfd66341979670020113f7",
        "4eea6c0fca37990868e44a08ec955b53264ed9d65c82eb40998ce48c79ecfe90",
    ),
    (
        {
            "matrix": [
                [[0.4372339, 0.478239], [-0.69214226, 0.20377985], [-0.19327029, -0.13693392], [-0.04015158, -0.04254863]],
                [[0.26856703, 0.2061271], [0.20426841, -0.07547268], [0.37998406, -0.12305233], [-0.56702695, 0.59742141]],
                [[0.20613018, -0.5084542], [-0.14167467, -0.40101985], [-0.30455025, -0.34407601], [-0.48889875, -0.26064324]],
                [[-0.34086717, -0.21975348], [-0.25297113, 0.43255998], [0.48748525, -0.57929691], [-0.04056861, -0.09768758]],
            ],
        },
        "eb8de7106815e6d27a5521d7c77c23b0a6415f3278c35b52d8e2648db0bff915",
        "eb5c7cc65f8d2b659c30924d75dd108983fb56e81e82d8f9551d6cf450c709d6",
    ),
]


@pytest.mark.parametrize(
    ("data", "text_digest", "json_digest"), _GOLDEN_MATRIX_FILES,
    ids=["rounded_named", "full", "escaped_name", "rounded_g2_residue"],
)
def test_analyze_matrix_output_matches_golden_digest(capsys, tmp_path, data, text_digest, json_digest):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(data, default=matrix_to_json), encoding="utf-8")
    for extra, digest in (((), text_digest), (("--json",), json_digest)):
        code, out, _ = run(capsys, "analyze", "--matrix", str(path), *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# reference rendering of a scan CSV row: one format(x, ".12g") per number
def _per_value_row(values, flags) -> str:
    return ",".join([*(format(x, ".12g") for x in values), *("true" if f else "false" for f in flags)]) + "\n"


@pytest.mark.parametrize(
    "values",
    [
        (-0.0, 5e-324, 1e-300, 1e17, 0.1 + 0.2, math.pi),
        (0.0, -5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 1e-4),
        (123456789012.5, 999999999999.5, 1e12, -math.pi / 4, 1 / 3, 2.0**60),
        (math.inf, -math.inf, math.nan, 1.7976931348623157e308, -1e-300, 0.5),
    ],
)
@pytest.mark.parametrize("flags", [(False, False), (False, True), (True, False), (True, True)])
def test_csv_row_template_matches_per_value_rendering(values, flags):
    labels = _CSV_BOOL[np.array(flags).astype(np.intp)].tolist()
    assert _CSV_ROW % (*values, *labels) == _per_value_row(values, flags)
    fields = [*(_g12_text([x]) for x in values), *(_CSV_BOOL_TEXT[[int(f)]] for f in flags)]
    assert _csv_rows(fields) == _per_value_row(values, flags)


def _g12_rows(x) -> list[str]:
    """The text of each row of _g12_text(x), its NUL padding dropped."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in _g12_text(np.asarray(x, dtype=float))]


def _assert_g12_matches_printf(values) -> None:
    assert _g12_rows(values) == ["%.12g" % x for x in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=64))
def test_g12_text_matches_printf_on_any_float(values):
    _assert_g12_matches_printf(values)


def _ulp_neighbours(x: np.ndarray) -> list[float]:
    return [*x.tolist(), *np.nextafter(x, math.inf).tolist(), *np.nextafter(x, -math.inf).tolist()]


@pytest.mark.parametrize("k", range(11, 28))
def test_g12_text_matches_printf_next_to_rounding_ties(k):
    """(m + 1/2) / 10^k with a 12-digit m sits on a tie of the 12th digit, or next to one."""
    m = np.random.default_rng(k).integers(10**11, 10**12, 500)
    ties = (m + 0.5) / 10.0**k
    _assert_g12_matches_printf(_ulp_neighbours(np.concatenate([ties, -ties])))


def test_g12_text_matches_printf_at_its_range_edges():
    powers = 10.0 ** np.arange(-6, 3)
    edges = [0.0, -0.0, 5e-324, -5e-324, 9.999999999995, 0.000099999999999995, 9.9999999999990e-05]
    _assert_g12_matches_printf(_ulp_neighbours(np.array([*powers, *-powers, *edges])))


def _reference_digit_groups(scaled: np.ndarray) -> np.ndarray:
    """The sixteen digits of each int64 0 <= s < 1e16 in four groups below 1e4, most significant
    first, by np.divmod and np.stack: the formula _g12_text used before _digit_words, kept as the
    reference."""
    halves = np.stack(np.divmod(scaled, 10**8), axis=1)
    return np.stack(np.divmod(halves, 10**4), axis=2).reshape(len(scaled), 4)


def _assert_digit_words_match_reference(scaled: np.ndarray) -> None:
    digits = cli._DIGITS4.take(_reference_digit_groups(scaled)).view(np.uint8)  # (n, 16) ASCII digits
    units, words = cli._digit_words(scaled)
    fraction = np.stack(words, axis=1).view(np.uint8)
    assert np.array_equal(units + ord("0"), digits[:, 0])
    assert np.array_equal(fraction[:, :15], digits[:, 1:])
    assert (fraction[:, 15] == ord("0")).all()


def test_digit_words_match_the_divmod_reference_on_random_integers():
    _assert_digit_words_match_reference(np.random.default_rng(43).integers(0, 10**16, 200_000))


def test_digit_words_match_the_divmod_reference_at_their_edges():
    """0, each power of ten below 1e16, each run of nines and each 9 followed by zeros, and the
    integers m 10^k that the fast path of _g12_text forms from 12-digit mantissas m."""
    powers = 10 ** np.arange(16, dtype=np.int64)
    m = np.array([10**11, 10**11 + 1, 10**12 - 1, 555555555555, 123456789012], dtype=np.int64)
    formed = (m * powers[:5, None]).ravel()  # k = e + 4 runs over 0..4
    _assert_digit_words_match_reference(np.concatenate([[0], powers, 10 * powers - 1, 9 * powers, formed]))


def _record_shapes() -> dict:
    """A real _record of each shape: a point record (with point, closed_form and geometric) or a
    matrix record (without them), each with and without monte_carlo. The point lies in the
    invariant box's sliver, so its two routes' is_pe differ."""
    point = classify_gate(WeylPoint(2.225295, 0.916297, 0.719948))
    dressed = np.array([[complex(*cell) for cell in row] for row in _GOLDEN_MATRIX_FILES[1][0]["matrix"]])
    matrix = classify_gate(dressed)
    return {
        (kind, mc): _record(rec, epower.ep_monte_carlo(rec.matrix, 1000, 5) if mc else None)
        for kind, rec in (("point", point), ("matrix", matrix)) for mc in (False, True)
    }


def _json_test_record(template: dict, values, name, tags) -> dict:
    """template with its name and tags replaced and its floats cycling through values, in record order."""
    nums = itertools.cycle(values)

    def fill(v):
        if type(v) is dict:
            return {k: fill(x) for k, x in v.items()}
        if type(v) is list:
            return [fill(x) for x in v]
        return next(nums) if type(v) is float else v

    record = {} if name is None else {"name": name}
    record |= fill({k: v for k, v in template.items() if k != "name"})
    record["tags"] = tags
    if "monte_carlo" in record["ep"]:
        record["ep"]["monte_carlo"] |= {"n_samples": 10**20, "seed": -3}
    return record


_JSON_EDGE_VALUES = [-0.0, 5e-324, 1e17, 0.1 + 0.2, -5e-324, 1e16, 1e-5, 2.0**60, -math.pi, 1.7976931348623157e308, 0.0, 1.0]


@pytest.mark.parametrize("shift", range(0, len(_JSON_EDGE_VALUES), 3))
@pytest.mark.parametrize(
    ("name", "tags"),
    [(None, []), ('a"b\\c \u00e9 \u2713\t\x7f', ["SPE", "EDGE_LN"]), ("", [""]), ("100% %s %% %(x)r {} {0} %", ["%s", "%%"])],
    ids=["bare", "escaped", "empty", "percent"],
)
def test_record_json_matches_json_dumps_indent_2(shift, name, tags):
    """Every shape _record writes, with edge-case floats, names and tags, renders as json.dumps does."""
    values = _JSON_EDGE_VALUES[shift:] + _JSON_EDGE_VALUES[:shift]
    for shape, template in _record_shapes().items():
        record = _json_test_record(template, values, name, tags)
        assert _record_json(record) == json.dumps(record, indent=2), shape


@pytest.mark.parametrize("key", ["extra", "monte_carlo", "Name"])
def test_record_json_refuses_a_top_level_key_it_has_no_renderer_for(key):
    record = _record(classify_gate(WeylPoint(1.0, 0.5, 0.2)), None)
    with pytest.raises(KeyError, match=key):
        _record_json(record | {key: 1.0})


def _analyze_records() -> dict:
    sqrt_swap = catalog.named_gate("SQRT_SWAP")
    dressed = np.array([[complex(*cell) for cell in row] for row in _GOLDEN_MATRIX_FILES[1][0]["matrix"]])
    return {
        "point": _record(classify_gate(WeylPoint(1.0, 0.5, 0.2)), None),
        "name": _record(catalog.named_gate("CNOT_CLASS"), None),
        "matrix": _record(classify_gate(dressed, name="dressed"), None),
        "mc": _record(sqrt_swap, epower.ep_monte_carlo(sqrt_swap.matrix, 2000, 3)),
    }


def _leaves(obj):
    if type(obj) is dict or type(obj) is list:
        for v in obj.values() if type(obj) is dict else obj:
            yield from _leaves(v)
    else:
        yield obj


@pytest.mark.parametrize("kind", ["point", "name", "matrix", "mc"])
def test_analyze_record_holds_only_plain_json_leaves(kind):
    # _record_json dispatches on the exact leaf type, so a numpy scalar must never reach it
    record = _analyze_records()[kind]
    leaves = list(_leaves(record))
    assert {type(x) for x in leaves} <= {str, float, int, bool}
    assert all(math.isfinite(x) for x in leaves if type(x) is float)
    assert _record_json(record) == json.dumps(record, indent=2)


def _assert_canonical_blocks_match_json_dumps(points) -> None:
    """The record classify_gate builds at each point renders with _JSON_CANONICAL_BLOCKS as json.dumps does."""
    for p in points:
        record = _record(classify_gate(WeylPoint(*p)), None)
        assert _record_json(record, cli._JSON_CANONICAL_BLOCKS) == json.dumps(record, indent=2), p


@pytest.mark.parametrize("grid_n", [25, 40])
def test_canonical_blocks_match_json_dumps_on_chamber_lattices(grid_n):
    """Faces, edges and vertices included: at c1 = c2 the entries built from s- = sin 0 carry -0.0 parts."""
    _assert_canonical_blocks_match_json_dumps(chamber_lattice(grid_n).tolist())


@pytest.mark.parametrize("seed", range(4))
def test_canonical_blocks_match_json_dumps_on_random_chamber_points(seed):
    _assert_canonical_blocks_match_json_dumps(random_chamber_coords(45 + seed, 5000).tolist())


_NAMES_AT_RANGE_ENDS = [
    "SPE:0", f"SPE:{math.pi / 2!r}", "SPE:-1e-10", f"SPE:{math.pi / 2 + 1e-10!r}",
    "SWAP_ALPHA:0", "SWAP_ALPHA:1", "SWAP_ALPHA:-1e-10", "SWAP_ALPHA:1.0000000001",
]


@pytest.mark.parametrize("name", [*catalog.FIXED_GATES, "SPE:0.7853981633974483", "SWAP_ALPHA:0.5", *_NAMES_AT_RANGE_ENDS])
def test_analyze_name_json_matches_json_dumps(capsys, name):
    """analyze --name --json renders the matrix block from the canonical gate's four entries, as json.dumps would."""
    record = _record(catalog.named_gate(name), None)
    assert _record_json(record, cli._JSON_CANONICAL_BLOCKS) == json.dumps(record, indent=2)
    code, out, _ = run(capsys, "analyze", "--name", name, "--json")
    assert (code, out) == (0, json.dumps(record, indent=2) + "\n")


def test_analyze_matrix_json_keeps_negative_zero_where_a_canonical_gate_has_none(capsys, tmp_path):
    """Only point and name records take the canonical matrix block. A matrix file that holds the canonical
    gate at (1.0, 0.5, 0.2) with -0.0 in a cell _fill_canonical never writes prints -0.0 there, where the
    canonical template would print 0.0."""
    m = matrix_to_json(classify_gate(WeylPoint(1.0, 0.5, 0.2)).matrix)
    m[0][1][1] = -0.0
    path = tmp_path / "gate.json"
    path.write_text(json.dumps({"matrix": m}), encoding="utf-8")
    record = _record(classify_gate(load_matrix_file(str(path))[1]), None)
    assert record["matrix"] == m and math.copysign(1.0, record["matrix"][0][1][1]) == -1.0
    assert _record_json(record, cli._JSON_CANONICAL_BLOCKS) != json.dumps(record, indent=2)
    code, out, _ = run(capsys, "analyze", "--matrix", str(path), "--json")
    assert (code, out) == (0, json.dumps(record, indent=2) + "\n")


# -------------------------------------------------------------------- catalog


def test_catalog_lists_expected_lines(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    dcnot = next(l for l in lines if l.startswith("DCNOT"))
    assert "[1.5708, 1.5708, 0]" in dcnot
    assert "g2=-1" in dcnot
    assert " PE" in dcnot
    identity = next(l for l in lines if l.startswith("IDENTITY"))
    assert "[0, 0, 0]" in identity
    assert "ep=0 " in identity
    sqrt_swap = next(l for l in lines if l.startswith("SQRT_SWAP"))
    assert "ep=0.1667" in sqrt_swap
    assert " PE" in sqrt_swap
