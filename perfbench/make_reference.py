"""Record the reference outputs that ``checks.py`` compares against.

Run from the repository root:

    python3 perfbench/make_reference.py

It runs the fixed op menu once through the package in ``src`` and writes
``perfbench/reference.json``: theorem-sweep counts and exit codes and the
scan CSV sha256 for every grid in ``workloads.GRIDS``, and the Monte-Carlo
(mean, std_err) of every catalog gate for every (samples, seed) pair of
the menu. Re-record only when an output is meant to change.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "reference.json"


def _cli(pkg, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pkg.cli.main(argv)
    return rc, buf.getvalue()


def main() -> None:
    pkg = workloads.load_package(ROOT)
    ref: dict = {"theorems": {}, "scan": {}, "montecarlo": {}}
    lo, hi = workloads.GRIDS
    for g in range(lo, hi + 1):
        rc, out = _cli(pkg, ["verify", "theorems", "--grid", str(g)])
        ref["theorems"][str(g)] = checks.parse_theorems(out) | {"exit": rc}
        rc, csv = _cli(pkg, ["scan", "--chamber", str(g)])
        if rc != 0:
            raise SystemExit(f"scan grid {g} exited {rc}")
        ref["scan"][str(g)] = checks.csv_digest(csv.encode())
    # the documented invariant-box sliver (acceptance criterion 7)
    for grid, count in (("25", 58), ("40", 290)):
        if ref["theorems"][grid]["equivalence"] != count:
            raise SystemExit(f"grid {grid}: {ref['theorems'][grid]}, expected {count} equivalence violations")
    for n in workloads.MC_SAMPLES:
        for seed in workloads.MC_SEEDS:
            rows = []
            for name, _, _ in checks.CATALOG:
                est = pkg.epower.ep_monte_carlo(pkg.catalog.named_gate(name).matrix, n, seed)
                rows.append([est.mean, est.std_err])
            ref["montecarlo"][f"{n}/{seed}"] = rows
            rc, out = _cli(pkg, ["verify", "montecarlo", "--mc", str(n), "--seed", str(seed)])
            checks.check_mc_catalog(n, seed, rc, out, ref)
    OUT.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
