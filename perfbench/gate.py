"""Correctness gate, applied to every operation outside the timed region.

A library operation is summarized into plain numbers (steps, residuals,
ledger norms, certificate quantities) and checked against the per-seed
reference recorded from the code at the commit that added the benchmark.
A cli operation is checked through its files: exit code, strict JSON
reports and the steps column of ``sweep.csv``.

``check_*`` return the list of reasons an operation failed; an empty list
is a pass.  ``selftest_*`` corrupt a result and require the gate to reject
each corruption, so a gate that cannot fail is noticed on every run.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

MASTER_TOL = 1e-8
MIN_SINGULAR = 0.9
UNITARITY_TOL = 1e-9
GRAM_TOL = 1e-8
SPECTRUM_SLACK = 1e-10


def load_refs(workload: str) -> dict:
    with open(os.path.join(REF_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def _le(x, bound) -> bool:
    """x <= bound, false for NaN or a missing value."""
    return x is not None and bound is not None and x <= bound


def check_library(summary: dict, ref: dict, symmetric: bool) -> list[str]:
    bad = []
    if not summary["converged"]:
        bad.append("not converged")
    if summary["steps"] != ref["steps"]:
        bad.append(f"steps {summary['steps']} != reference {ref['steps']}")
    if not _le(summary["final_r0"], summary["stop_tol"]):
        bad.append(f"final ||R||_0 {summary['final_r0']!r} above stop_tol")
    if not _le(summary["master_residual"], MASTER_TOL):
        bad.append(f"master residual {summary['master_residual']!r}")

    res = summary["defect_resolution"]
    ledger, ref_ledger = summary["ledger"], ref["ledger"]
    if len(ledger) != len(ref_ledger):
        bad.append(f"ledger has {len(ledger)} rows, reference {len(ref_ledger)}")
    for k, (row, ref_row) in enumerate(zip(ledger, ref_ledger), start=1):
        if set(row) != set(ref_row):
            bad.append(f"ledger row {k}: columns differ from the reference")
            continue
        for label, want in ref_row.items():
            if not abs(row[label] - want) <= res * max(1.0, abs(want)):
                bad.append(f"ledger row {k} {label}: {row[label]!r} vs {want!r}")

    if not summary["min_envelope_margin"] >= 0.0:
        bad.append(f"interior envelope margin {summary['min_envelope_margin']!r}")
    if not summary["min_singular_value"] >= MIN_SINGULAR:
        bad.append(f"min singular value {summary['min_singular_value']!r}")
    if not _le(summary["max_eigen_residual"], summary["residual_bound"] + res):
        bad.append(
            f"max interior eigen residual {summary['max_eigen_residual']!r} above "
            f"||Q|| ||R|| + resolution {summary['residual_bound'] + res!r}"
        )
    if symmetric:
        if not _le(summary["spectrum_distance"],
                   summary["max_eigen_residual"] + SPECTRUM_SLACK):
            bad.append(f"spectrum distance {summary['spectrum_distance']!r}")
        if not _le(summary["unitarity_defect"], UNITARITY_TOL):
            bad.append(f"unitarity defect {summary['unitarity_defect']!r}")
        if not _le(summary["gram_offdiag"], GRAM_TOL):
            bad.append(f"Gram off-diagonal {summary['gram_offdiag']!r}")
    return bad


def _strict_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def read_sweep(out_dir: str) -> dict:
    """Parse a sweep directory into the numbers the cli gate checks."""
    reports = {}  # cell -> None, or the error that made it unparseable
    for cell in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, cell, "report.json")
        if os.path.isfile(path):
            with open(path) as fh:
                try:
                    json.loads(fh.read(), parse_constant=_strict_constant)
                    reports[cell] = None
                except ValueError as exc:
                    reports[cell] = exc
    rows = {}
    with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            rows[row["cell"]] = {"steps": int(row["steps"]),
                                 "converged": row["converged"] == "True"}
    return {"reports": reports, "rows": rows}


def check_cli(exit_code: int, sweep: dict, ref: dict) -> list[str]:
    bad = []
    if exit_code != 0:
        bad.append(f"exit code {exit_code}")
    for cell, rep in sweep["reports"].items():
        if rep is not None:
            bad.append(f"{cell}/report.json: {rep}")
    if set(sweep["reports"]) != set(ref["cells"]):
        bad.append("report cells differ from the reference")
    if set(sweep["rows"]) != set(ref["cells"]):
        bad.append("sweep.csv cells differ from the reference")
    for cell, want in ref["cells"].items():
        row = sweep["rows"].get(cell)
        if row is None:
            continue
        if not row["converged"]:
            bad.append(f"{cell}: not converged")
        if row["steps"] != want:
            bad.append(f"{cell}: steps {row['steps']} != reference {want}")
    return bad


# -- self-tests: corrupted results must fail ------------------------------------------


def selftest_library(summary: dict, ref: dict, symmetric: bool) -> dict:
    shifted = copy.deepcopy(summary)
    row = shifted["ledger"][0]
    label = next(iter(row))
    row[label] += 1e-6 * max(1.0, abs(row[label]))
    off_by_one = dict(summary, steps=summary["steps"] + 1)
    nan_master = dict(summary, master_residual=math.nan)
    return {
        "ledger norm shifted by 1e-6 fails": bool(check_library(shifted, ref, symmetric)),
        "step count off by one fails": bool(check_library(off_by_one, ref, symmetric)),
        "NaN master residual fails": bool(check_library(nan_master, ref, symmetric)),
    }


def selftest_cli(exit_code: int, sweep: dict, ref: dict) -> dict:
    cell = next(iter(sweep["rows"]))
    rows = {c: dict(r) for c, r in sweep["rows"].items()}
    rows[cell]["steps"] += 1
    off_by_one = {"reports": sweep["reports"], "rows": rows}
    reports = dict(sweep["reports"], **{cell: ValueError("non-strict constant NaN")})
    non_strict = {"reports": reports, "rows": sweep["rows"]}
    return {
        "step count off by one fails": bool(check_cli(exit_code, off_by_one, ref)),
        "non-strict report fails": bool(check_cli(exit_code, non_strict, ref)),
        "exit code 1 fails": bool(check_cli(1, sweep, ref)),
    }
