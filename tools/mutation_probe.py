"""Mutation probe: run tier-1 against one-line mutants of the tree and report which ones it kills.

Each mutant replaces one piece of text, which must occur exactly once at head, in one file of the
tree. The probe first runs tier-1 on an unmutated copy of the tree, then, for each mutant, on a
fresh copy with the mutant applied. A mutant is killed when the set of failing tests, or the counts
that acceptance criterion 7 prints, differ from the unmutated run's; a run that outlasts TIMEOUT_S
is stopped and counts as killed. A mutant listed in EQUIVALENT changes no result by design: it is
reported as equivalent when it survives, and as killed, so that the listing can be revisited, when
it does not.

    python tools/mutation_probe.py                 # every mutant, one tier-1 run each (about 45 s
                                                   # per run on a 2-core host)
    python tools/mutation_probe.py --only NAME...  # the named mutants

The exit status is 0 when every mutant that is not listed as equivalent is killed, 1 when one
survives, and 2 when a mutant's text does not occur exactly once.
"""
from __future__ import annotations

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider"]
TIMEOUT_S = 900
_SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".bench_out", "__pycache__")

_CANONICAL = "src/gatepower/canonical.py"
_CLASSIFY = "src/gatepower/classify.py"
_EPOWER = "src/gatepower/epower.py"
_INVARIANTS = "src/gatepower/invariants.py"
_LINALG = "src/gatepower/linalg.py"
_CATALOG = "src/gatepower/catalog.py"
_CLI = "src/gatepower/cli.py"
_RNG = "src/gatepower/rng.py"

# (name, file, old, new): the mutants that CHANGES.md records as run by hand, oldest first, written
# against the current code
MUTANTS = [
    # tolerances and tags
    ("pe_tol_1e-7", _CLASSIFY, "PE_TOL = 1e-9", "PE_TOL = 1e-7"),
    ("boundary_mask_10x", _CLASSIFY, "[abs(m) <= PE_TOL for m", "[abs(m) <= 10 * PE_TOL for m"),
    ("spe_tag_1e-6", _CLASSIFY, "if abs(g1_abs - value) < 1e-9}", 'if abs(g1_abs - value) < (1e-6 if tag == "SPE" else 1e-9)}'),
    ("edge_tag_tol_1e-6", _CANONICAL, "_EDGE_TAG_TOL = 1e-9", "_EDGE_TAG_TOL = 1e-6"),
    ("edge_tags_clamp_dropped", _CANONICAL, "t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t", "t = t"),
    ("edge_tags_twice_tol", _CANONICAL, "tol = _EDGE_TAG_TOL", "tol = 2 * _EDGE_TAG_TOL"),
    ("zero_ep_at_1-1e-8", _CLASSIFY, '("ZERO_EP", 1.0)', '("ZERO_EP", 1.0 - 1e-8)'),
    ("edge_tags_last_moving_k", _CANONICAL, "int(np.flatnonzero(end - start)[0])", "int(np.flatnonzero(end - start)[-1])"),
    # Monte-Carlo sampler and deduplication
    ("r01_inline_conj", _EPOWER, "r01 = a * c_bar + b * d_bar", "r01 = a * c.conj() + b * d_bar"),
    ("partial_block_dropped", _EPOWER, "    if rest:\n", "    if rest and False:\n"),
    ("chunk_sum_split_evenly", _EPOWER, "return np.sum(e, axis=1), np.sum(e * e, axis=1)",
     "return np.full(blocks, np.sum(e) / blocks), np.full(blocks, np.sum(e * e) / blocks)"),
    ("dedupe_key_id", _EPOWER, "tags = [u_t.tobytes() for u_t in u_ts]", "tags = [id(u_t) for u_t in u_ts]"),
    ("dedupe_key_rounded", _EPOWER, "tags = [u_t.tobytes() for u_t in u_ts]", "tags = [np.round(u_t, 9).tobytes() for u_t in u_ts]"),
    ("estimates_in_distinct_order", _EPOWER, "return [estimates[tag] for tag in tags]", "return list(estimates.values())"),
    # one outcome per chamber point
    ("point_raise_on_disagreement", _CLASSIFY, 'inv, ep = LocalInvariants(g1, cols["g2"]), cols["ep"]',
     'inv, ep = LocalInvariants(g1, cols["g2"]), cols["ep"] if len({v.is_pe for v in routes.values()}) == 1 '
     'or any(v.on_boundary for v in routes.values()) else 1 / 0'),
    ("scan_test_off_boundary_inverted", "tests/test_cli.py", "assert (geo, inv) == (False, True)", "assert (geo, inv) == (True, False)"),
    ("chamber_tol_1e-12", _CANONICAL, "CHAMBER_TOL = 1e-11", "CHAMBER_TOL = 1e-12"),
    ("range_tol_1e-8", _INVARIANTS, "_RANGE_TOL = 1e-9", "_RANGE_TOL = 1e-8"),
    # matrix ingest, operator route, masks and the point path
    ("ingest_tol_1e-7", _LINALG, "INGEST_UNITARY_TOL = 1e-8", "INGEST_UNITARY_TOL = 1e-7"),
    ("ingest_tol_0.4e-8", _LINALG, "INGEST_UNITARY_TOL = 1e-8", "INGEST_UNITARY_TOL = 0.4e-8"),
    ("defect_diagonal_stride_n", _LINALG, "d.ravel()[:: m.shape[0] + 1]", "d.ravel()[:: m.shape[0]]"),
    ("realign_swapped_axes", _EPOWER, "(0, 3, 1, 2))", "(0, 3, 2, 1))"),
    ("pe_mask_or", _CLASSIFY, "functools.reduce(operator.and_,", "functools.reduce(operator.or_,"),
    ("boundary_mask_and", _CLASSIFY, "functools.reduce(operator.or_, [abs(m)", "functools.reduce(operator.and_, [abs(m)"),
    ("point_verdict_from_invariant", _CLI, '{"verdict": rec.pe_verdict}', '{"verdict": rec.routes["invariant"].is_pe}'),
    ("squared_product_pow", _CLASSIFY, "    return p * p\n", "    return p ** 2\n"),
    ("gate_phase_sum_for_complex", _CLASSIFY, "complex(ec, -es)", "ec - 1j * es"),
    ("point_trig_numpy", _CLASSIFY, "cs, sn = list(map(math.cos, angles)), list(map(math.sin, angles))",
     "cs, sn = np.cos(angles).tolist(), np.sin(angles).tolist()"),
    ("g1_imag_scaling_reordered", _CLASSIFY, "-0.25 * s1 * s2 * s3", "-(s1 * s2 * s3) / 4"),
    # route tolerances, snapping and the Monte-Carlo pass rule
    ("route_tol_g1_1e-11", _CLASSIFY, "d_g1, 1e-12)", "d_g1, 1e-11)"),
    ("route_tol_operator_3e-10", _CLASSIFY, "d_op, 1e-10)", "d_op, 3e-10)"),
    ("route_tol_g2_3e-13", _CLASSIFY, "d_g2, 1e-12)", "d_g2, 3e-13)"),
    ("snap_decimals_11", _EPOWER, "_SNAP_DECIMALS = 12", "_SNAP_DECIMALS = 11"),
    ("snap_decimals_13", _EPOWER, "_SNAP_DECIMALS = 12", "_SNAP_DECIMALS = 13"),
    ("mc_rule_6_std_err", _CATALOG, "max(3.0 * est.std_err, 5e-3)", "max(6.0 * est.std_err, 5e-3)"),
    ("mc_rule_1.4_std_err", _CATALOG, "max(3.0 * est.std_err, 5e-3)", "max(1.4 * est.std_err, 5e-3)"),
    ("mc_rule_floor_1.2e-2", _CATALOG, "max(3.0 * est.std_err, 5e-3)", "max(3.0 * est.std_err, 1.2e-2)"),
    ("mc_rule_floor_2e-3", _CATALOG, "max(3.0 * est.std_err, 5e-3)", "max(3.0 * est.std_err, 2e-3)"),
    # verdicts formed by each reader
    ("boundary_flag_geometric_only", _CLASSIFY, "_boundary_mask(geo_m) | _boundary_mask(inv_m)", "_boundary_mask(geo_m)"),
    ("boundary_flag_and", _CLASSIFY, "_boundary_mask(geo_m) | _boundary_mask(inv_m)", "_boundary_mask(geo_m) & _boundary_mask(inv_m)"),
    ("scan_verdicts_geometric_twice", _CLI, 'for k in ("geo_margins", "inv_margins")', 'for k in ("geo_margins", "geo_margins")'),
    ("point_g1_sin_c", _CLASSIFY, "s1, s2, s3 = sn[3:6]", "s1, s2, s3 = sn[:3]"),
    # the closed forms
    ("ep_x3_x2", _CLASSIFY, "x2 * x3 + x3 * x1", "x2 * x3 + x3 * x2"),
    ("g1_imag_sign", _CLASSIFY, "-0.25 * s1 * s2 * s3", "0.25 * s1 * s2 * s3"),
    ("g1_real_plus", _CLASSIFY, "complex(_squared_product(cs[:3]) - _squared_product(sn[:3])",
     "complex(_squared_product(cs[:3]) + _squared_product(sn[:3])"),
    ("g2_product_a_unsquared", _INVARIANTS, "4 * (a * a)", "4 * a"),
    # the analyze parse and the float margins
    ("margins_nan_guard_dropped", _CLASSIFY, " and not math.isnan(c1 + c2 + c3)", ""),
    ("suite_parser_func_dropped", _CLI, "for p in (t, r, m):\n        p.set_defaults", "for p in (r, m):\n        p.set_defaults"),
    ("verify_router_holds_func", _CLI, "# one parser per suite,", "v.set_defaults(func=cmd_verify)\n    # one parser per suite,"),
    ("g1_abs_range_strict", _EPOWER, "inside = -_RANGE_TOL <= g1_abs <=", "inside = -_RANGE_TOL < g1_abs <="),
    ("sort_desc_builtin_max", _CANONICAL, "return top, upper(lo, mid), lower(lo, mid)", "return top, max(lo, mid), lower(lo, mid)"),
    ("parser_child_value_dropped", _CLI, "vars(namespace).update(vars(child))", "vars(namespace).update(list(vars(child).items())[1:])"),
    # the analyze renderer and the one-point gate
    ("json_invariants_swapped", _CLI, 'v["g1_abs"], v["g2"])', 'v["g2"], v["g1_abs"])'),
    ("json_mc_mean_std_err_swapped", _CLI, '(v["mean"], v["std_err"],', '(v["std_err"], v["mean"],'),
    ("json_pe_routes_comma_dropped", _CLI, 'pe.items()]\n    return "{\\n    " + ",\\n    ".join(routes)',
     'pe.items()]\n    return "{\\n    " + "\\n    ".join(routes)'),
    ("point_gate_sines_from_cosines", _CLASSIFY, "(cm, cp, ec), (sm, sp, es) = cs[6:], sn[6:]", "(cm, cp, ec), (sm, sp, es) = cs[6:], cs[6:]"),
    ("point_gate_half_angle_reversed", _CLASSIFY, "(c1 - c2) / 2, (c1 + c2) / 2, c3 / 2)", "(c2 - c1) / 2, (c1 + c2) / 2, c3 / 2)"),
    ("operator_sum_last_axis", _EPOWER, "sq.sum(axis=(-2, -1))", "sq.sum(axis=-1)[..., 0]"),
    # one input-precision policy for matrices: the ingest tolerance alone
    ("g2_residue_check_restored", _INVARIANTS, "    return LocalInvariants(g1, g2.real)",
     '    if abs(g2.imag) >= 1e-9:\n        raise ValueError("g2 residue")\n    return LocalInvariants(g1, g2.real)'),
    ("g2_imag_added", _INVARIANTS, "LocalInvariants(g1, g2.real)", "LocalInvariants(g1, g2.real + g2.imag)"),
    # a record's routes: one ordered mapping, whose first route decides
    ("pe_verdict_from_last_route", _CLASSIFY, "return next(iter(self.routes.values())).is_pe",
     "return list(self.routes.values())[-1].is_pe"),
    ("point_invariant_route_dropped", _CLASSIFY, ', "invariant": _verdict(cols["inv_margins"])}', "}"),
    ("record_routes_reversed", _CLI, "for route, v in rec.routes.items():", "for route, v in reversed(rec.routes.items()):"),
    # the leaf parsers' direct pass
    ("direct_pass_dash_value_taken", _CLI, 'if value.startswith("-"):', "if False:"),
    ("direct_pass_group_of_three", _CLI, "if n > 1 or group.required", "if n > 2 or group.required"),
    ("direct_pass_required_group_dropped", _CLI, " or group.required and n == 0:", ":"),
    ("direct_pass_type_skipped", _CLI, 'value = self._registry_get("type", action.type, action.type)(value)', "value = value"),
    # scan's text kernel: digit groups without divmod, each text as three words
    ("digit_split_1e7", _CLI, "for d in (10**12, 10**8, 10**4)]", "for d in (10**12, 10**7, 10**4)]"),
    ("digit_groups_swapped", _CLI, "for hi, lo in (groups[:2], groups[2:])]", "for hi, lo in (groups[1::-1], groups[2:])]"),
    ("digit_remainder_wrong_quotient", _CLI, "q[2] - q[1] * 10**4", "q[2] - q[0] * 10**4"),
    ("shown_digits_one_more", _CLI, "(exponent - 1015) >> 3", "(exponent - 1007) >> 3"),
    ("point_kept_without_fraction", _CLI, "np.r_[7, 9:25]", "np.r_[8, 9:25]"),
    # the fixed cost of one analyze op: one gather for one gate's operator route, one binary matrix read
    ("single_gate_route_first_twice", _EPOWER, "(e[0] + e[1] - _E_SWAP)", "(e[0] + e[0] - _E_SWAP)"),
    ("realign_both_plain_twice", _EPOWER, "np.stack([_REALIGN, _REALIGN_SWAPPED])", "np.stack([_REALIGN, _REALIGN])"),
    ("matrix_file_newlines_kept", _CLI, '.replace("\\r\\n", "\\n").replace("\\r", "\\n")', ""),
    ("invariants_trace_of_m_for_m_squared", _INVARIANTS, "complex((m @ m).trace())", "complex(m.trace())"),
    # analyze --json's canonical matrix block: a point or name record's matrix from its four entries
    ("canonical_entries_03_12_swapped", _CLI, "v[0][3] + v[1][1] + v[1][2]", "v[1][2] + v[1][1] + v[0][3]"),
    ("canonical_zero_cell_from_entry", _CLI, "{(0, 0): 0, (3, 3): 0,", "{(0, 0): 0, (0, 1): 0, (3, 3): 0,"),
    ("canonical_entry_re_im_swapped", _CLI, "map(repr, v[0][0] + v[0][3]", "map(repr, v[0][0][::-1] + v[0][3]"),
    ("canonical_blocks_for_matrix_records", _CLI, "_JSON_CANONICAL_BLOCKS if rec.point is not None else _JSON_BLOCKS",
     "_JSON_CANONICAL_BLOCKS"),
    # the Monte-Carlo states: cos and sin from one complex exponential, normalised by a reciprocal
    ("box_muller_angle_sign_flipped", _RNG, "np.multiply(2.0 * np.pi, u2, out=z.imag)",
     "np.multiply(-2.0 * np.pi, u2, out=z.imag)"),
    ("box_muller_radius_dropped", _RNG, "return np.multiply(np.exp(z, out=z), r, out=z)", "return np.exp(z, out=z)"),
    ("box_muller_cos_sin_apart", _RNG, "return np.multiply(np.exp(z, out=z), r, out=z)",
     "return r * (np.cos(z.imag) + 1j * np.sin(z.imag))"),
    ("states_times_norm", _EPOWER, "q *= (1.0 / np.sqrt(sq[..., 0] + sq[..., 1]))[..., None]",
     "q *= np.sqrt(sq[..., 0] + sq[..., 1])[..., None]"),
    ("states_divided_by_norm", _EPOWER, "q *= (1.0 / np.sqrt(sq[..., 0] + sq[..., 1]))[..., None]",
     "q /= np.sqrt(sq[..., 0] + sq[..., 1])[..., None]"),
    ("states_norm_first_amplitude_twice", _EPOWER, "sq[..., 0] + sq[..., 1]", "sq[..., 0] + sq[..., 0]"),
]

# mutants that change no result by design
EQUIVALENT = {
    # an edge point's t from its last moving coordinate is as valid as from its first; the two differ
    # only for points moved off an edge in two coordinates at once
    "edge_tags_last_moving_k",
    # numpy's float64 cos and sin are libm's on the reference host
    "point_trig_numpy",
    # scaling by 0.25 or dividing by 4 is exact either way
    "g1_imag_scaling_reordered",
    # glibc's cexp at a zero real part returns libm's cos and sin, which the rng tests check
    "box_muller_cos_sin_apart",
    # numpy divides a complex by a real as a multiply by the real's reciprocal
    "states_divided_by_norm",
}

_FAILED = re.compile(r"^FAILED (.+?)(?: - .*)?$", re.M)
_ACCEPTANCE_7 = re.compile(r"^ACCEPTANCE 7: .*$", re.M)
_SUMMARY = re.compile(r"^=*\s*(\d+ (?:failed|passed|error).*?)\s*=*$", re.M)


def _refusals(mutants) -> list[str]:
    """One line per mutant whose old text does not occur exactly once in its file at head."""
    out = []
    for name, path, old, _ in mutants:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            out.append(f"{name}: {path} holds its text {count} times, not once")
    return out


def _run_tier1(mutant=None):
    """Tier-1 on a fresh copy of the tree with mutant applied: (outcome, summary line, seconds).

    The outcome is None when the run timed out, else the failing test ids and the acceptance-7 lines.
    """
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        if mutant is not None:
            _, path, old, new = mutant
            target = tree / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        start = time.monotonic()
        proc = subprocess.Popen(TIER1, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True, start_new_session=True)
        try:
            text, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the session holds any process a test started too
            proc.communicate()
            return None, f"stopped after {TIMEOUT_S} s", time.monotonic() - start
        seconds = time.monotonic() - start
    summary = _SUMMARY.findall(text)
    outcome = (frozenset(_FAILED.findall(text)), tuple(sorted(_ACCEPTANCE_7.findall(text))))
    return outcome, summary[-1] if summary else f"no summary, exit {proc.returncode}", seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    args = parser.parse_args(argv)
    mutants = MUTANTS
    if args.only:
        known = {m[0] for m in MUTANTS}
        unknown = [n for n in args.only if n not in known]
        if unknown:
            parser.error(f"unknown mutants: {', '.join(unknown)}")
        mutants = [m for m in MUTANTS if m[0] in args.only]
    refused = _refusals(mutants)
    if refused:
        print("refused:", *refused, sep="\n  ")
        return 2

    head, summary, seconds = _run_tier1()
    if head is None:
        print(f"head: {summary}")
        return 2
    print(f"head: {summary} ({seconds:.0f} s); failing: {', '.join(sorted(head[0])) or '-'}")
    print(*head[1], sep="\n")
    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    for mutant in mutants:
        name = mutant[0]
        outcome, summary, seconds = _run_tier1(mutant)
        killed = outcome != head
        verdict = "killed" if killed else "equivalent" if name in EQUIVALENT else "survived"
        counts[verdict] += 1
        note = " (listed as equivalent)" if killed and name in EQUIVALENT else ""
        changed = "" if outcome is None else f", {len(outcome[0] ^ head[0])} tests changed outcome"
        print(f"{verdict:<10} {name}: {summary}{changed} ({seconds:.0f} s){note}", flush=True)
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
