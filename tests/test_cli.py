"""End-to-end tests of the command-line interface."""
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from gatepower import linalg
from gatepower.canonical import EdgeId, WeylPoint, _edge_coords, chamber_lattice
from gatepower.classify import classify_gate
from gatepower.cli import _CSV_BOOL, _CSV_ROW, build_parser, load_matrix_file, main, matrix_to_json
from gatepower.errors import TheoremViolationError
from gatepower.linalg import SWAP

PI = math.pi


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
        ("2.225295,0.916297,0.719948", 1, "classification routes disagree"),
    ],
)
def test_analyze_point_exit_code(capsys, point, exit_code, message):
    code, _, err = run(capsys, "analyze", "--point", point)
    assert code == exit_code
    assert message in err


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


def test_analyze_missing_matrix_file_exits_3(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", "--matrix", str(tmp_path / "absent.json"))
    assert code == 3


def test_matrix_file_schema_errors(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": []}))
    with pytest.raises(ValueError, match="matrix"):
        load_matrix_file(str(path))
    path.write_text(json.dumps({"matrix": [[[1, 0]] * 3] * 3}))
    with pytest.raises(ValueError, match="4x4"):
        load_matrix_file(str(path))


def _with_cell(value) -> list:
    cells = matrix_to_json(SWAP)
    cells[1][2] = value
    return cells


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"matrix": _with_cell([True, False])}),  # complex(True, False) is 1+0j
        json.dumps({"matrix": _with_cell([1, 0, 7])}),
        json.dumps({"matrix": _with_cell([1])}),
        json.dumps({"matrix": _with_cell(["1", "0"])}),
        json.dumps({"matrix": _with_cell(None)}),
        json.dumps({"matrix": _with_cell(1.0)}),
        json.dumps({"matrix": _with_cell([10**400, 0])}),  # complex() raises OverflowError
        json.dumps({"matrix": matrix_to_json(SWAP)[:3] + [matrix_to_json(SWAP)[3][:3]]}),  # ragged rows
        json.dumps({"matrix": matrix_to_json(SWAP)[:3]}),
        json.dumps({"matrix": matrix_to_json(SWAP)[:3] + [5]}),
        json.dumps({"matrix": 5}),
        json.dumps({"matrix": matrix_to_json(SWAP), "name": 7}),
        json.dumps([matrix_to_json(SWAP)]),
        "{not json",
    ],
    ids=[
        "bool-cell", "three-number-cell", "one-number-cell", "string-cell", "null-cell",
        "bare-number-cell", "oversized-integer-cell", "ragged-rows", "three-rows", "row-not-a-list", "matrix-not-a-list",
        "name-not-a-string", "no-object", "not-json",
    ],
)
def test_malformed_matrix_file_exits_2_naming_the_path(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ")


def test_matrix_file_accepts_integer_cells(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"matrix": [[[int(z.real), 0] for z in row] for row in SWAP]}))
    _, m = load_matrix_file(str(path))
    assert m.dtype == complex
    assert np.array_equal(m, SWAP)


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
    ],
)
def test_sweep_size_limits_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""


def test_scan_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "edge.csv"
    code, _, _ = run(capsys, "scan", "--edge", "PN", "--steps", "7", "--out", str(path))
    assert code == 0
    code2, out2, _ = run(capsys, "scan", "--edge", "PN", "--steps", "7")
    data = path.read_bytes()
    assert data == out2.encode()
    assert b"\r" not in data


def test_scan_unwritable_path_exits_3(capsys, tmp_path):
    code, _, err = run(capsys, "scan", "--edge", "QP", "--out", str(tmp_path / "no" / "dir.csv"))
    assert code == 3
    assert "error:" in err


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
        try:
            rec = classify_gate(WeylPoint(*c))
        except TheoremViolationError:
            assert geo != inv
            continue
        assert (geo, inv) == (rec.geometric.is_pe, rec.invariant.is_pe)
        # columns that disagree without an error must sit on a classification boundary
        assert geo == inv or rec.geometric.on_boundary or rec.invariant.on_boundary


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


@pytest.mark.parametrize("n", ["0", "-5"])
def test_verify_routes_rejects_empty_sample_exit_code(capsys, n):
    code, out, err = run(capsys, "verify", "routes", "--n", n)
    assert code == 2
    assert "n_points must be at least 1" in err
    assert "PASS" not in out


def test_verify_byte_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "routes", "--n", "60", "--seed", "11")
    _, out2, _ = run(capsys, "verify", "routes", "--n", "60", "--seed", "11")
    assert out1 == out2


def test_repeated_main_calls_share_no_parse_state(capsys):
    # the parser is built once per process; each call must still parse afresh
    calls = [
        ("analyze", "--point", "45,45,0", "--deg"),
        ("analyze", "--point", "0.7853981634,0.7853981634,0"),
        ("verify", "routes", "--n", "0"),
        ("verify", "routes"),
    ]
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(run(capsys, *argv)[:2])
    build_parser.cache_clear()
    together = [run(capsys, *argv)[:2] for argv in calls]
    assert together == alone
    assert [code for code, _ in together] == [0, 0, 2, 0]
    assert build_parser.cache_info().misses == 1


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
    (("verify", "theorems", "--grid", "25"), 1, "e4ab3e4cd7ce7883fd8c9769628f51468c00b7eb0838994077cc4de47e40d13e"),
    (("verify", "routes", "--n", "600", "--seed", "3"), 0, "902fd024599bf155d2bc903db4d1123731f82a46490513e5d74ce6bc8ba2df89"),
    (("verify", "routes"), 0, "7e5ee9104669e9f7e1cc05517f4ce8ff264a0c56855393085a0c5acd46452254"),
    (("verify", "montecarlo", "--mc", "2000", "--seed", "5"), 0, "8c646162478ab4d590516b9f590b686e73febc4929783b8ad910ab5ac365780b"),
    (("verify", "montecarlo", "--mc", "20000", "--seed", "42"), 0, "ab568b798557e7c2a8b3588f64691213f0b6bce0a321800d05ebdab05b2b99da"),
    (("analyze", "--name", "SQRT_SWAP", "--mc", "50000", "--json"), 0, "56b89d416f6262dd50a85cf1ac6dd63e110e4f505f7dc083a10020a4a2222396"),
]


@pytest.mark.parametrize(
    ("argv", "exit_code", "digest"), GOLDEN_OUTPUTS, ids=[" ".join(g[0]) for g in GOLDEN_OUTPUTS]
)
def test_output_matches_golden_digest(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
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
