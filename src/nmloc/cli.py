"""Batch runner: config ingestion, scenario execution, report emission.

Subcommands::

    nmloc run           --config cfg.json [--override k=v ...] [--out-dir DIR]
    nmloc verify-distal --config cfg.json ...
    nmloc check-theory  --config cfg.json ...
    nmloc sweep         --config cfg.json --override hopping.epsilon=0.3,0.1 ... [--out-dir DIR]

Configs are JSON.  ``CONFIG_SCHEMA`` checks their structure (keys, types,
enums) and the parser refuses ``NaN`` and ``Infinity``; each value's range
is checked by the spec that owns it, and the error names the dotted key.
``run`` writes ``ledger.csv`` (the per-step ledger) and ``report.json``
into ``--out-dir`` (default: the working directory).  The report's format
is ``tests/report_schema.py``; an eigenreport or theory-condition row is
its record's fields, and non-finite values are written as null.  ``sweep``
treats comma-separated override values as cartesian sweep axes (a
bracketed list is one value) and emits one report per cell plus an
aggregate CSV; each failing cell is named on stderr, one that raises gets
a non-converged row of nan, and the sweep goes on.  All floating-point
output is written in round-trip precision.

Exit codes: 0 success, 1 a numerical invariant failed, 2 configuration
errors.  ``main`` names a failed check on stderr: a returned one (a finished
run's ``localization.certify``, after its files are written) or a raised one.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import itertools
import json
import math
import os
import sys

import jsonschema

from . import localization
from .errors import ConfigError
from .box import LatticeBox
from .iteration import (
    DIRECT,
    INVERSE,
    BOUND_FORMULAS,
    SchemeParams,
    ledger_to_csv,
    regime_violation,
    run,
    theory_conditions,
)
from .models import (
    POTENTIAL_KINDS,
    HoppingSpec,
    PotentialSpec,
    build_hopping,
    build_potential,
    check_diophantine,
)
from .algebra import window_scan
from .operators import DiagonalOperator, TameConstants

_NUM = {"type": "number"}
_INT = {"type": "integer"}
_NUM_OR_NULL = {"type": ["number", "null"]}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["box", "potential", "hopping", "params"],
    "properties": {
        "box": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dimension", "radius", "interior_radius"],
            "properties": {
                "dimension": _INT,
                "radius": _INT,
                "interior_radius": _INT,
            },
        },
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(POTENTIAL_KINDS)},
                "omega": {"type": ["array", "null"], "items": _NUM},
                "custom_values": {"type": ["array", "null"], "items": _NUM},
            },
        },
        "hopping": {
            "type": "object",
            "additionalProperties": False,
            "required": ["s_exponent", "epsilon"],
            "properties": {
                "s_exponent": _NUM,
                "epsilon": _NUM,
            },
        },
        "params": {
            "type": "object",
            "additionalProperties": False,
            "required": ["tau", "delta", "alpha0", "theta0", "Theta"],
            "properties": {
                "tau": _NUM,
                "gamma": _NUM_OR_NULL,
                "delta": _NUM,
                "alpha0": _NUM,
                "alpha": _NUM_OR_NULL,
                "alpha1": _NUM_OR_NULL,
                "theta0": _NUM,
                "Theta": _NUM,
                "mode": {"enum": [INVERSE, DIRECT]},
                "theory_checks": {"type": "boolean"},
                "stop_tol": _NUM,
                "max_steps": _INT,
                "s_grid": {"type": ["array", "null"], "items": _NUM},
            },
        },
    },
}

# the schema is a constant; tier-1 checks it against its metaschema
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def _refuse_constant(name):
    """``parse_constant`` hook: JSON has no NaN or Infinity, so neither does a
    config."""
    raise ConfigError(f"{name} is not a JSON number")


def _parse_value(text: str, key: str):
    """A command-line value parsed as JSON; text that is not JSON (a bare
    word) stays a string."""
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError:
        return text
    except ValueError as exc:  # a refused constant, or an integer past the digit limit
        raise ConfigError(f"{key}: {exc}") from exc


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_refuse_constant)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or a refused number
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict):
    """Raise ``ConfigError`` on the error ``jsonschema.validate`` would pick."""
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(cfg))
    if error is not None:
        where = ".".join(str(part) for part in error.absolute_path)
        raise ConfigError(
            f"config rejected{' at ' + where if where else ''}: {error.message}"
        ) from error


def apply_override(cfg: dict, key: str, value):
    """Set a dotted-path key, parsing the value as JSON when possible."""
    if isinstance(value, str):
        value = _parse_value(value, key)
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {key!r} crosses a non-object")
    node[parts[-1]] = value


@contextlib.contextmanager
def _keyed(section):
    """A spec's ``ValueError``, which leads with its field's name, as a
    ``ConfigError`` that leads with the field's dotted key."""
    try:
        yield
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        keys = {f: f"{section}.{f}" for f in CONFIG_SCHEMA["properties"][section]["properties"]}
        keys.update(s_hopping="hopping.s_exponent", epsilon="hopping.epsilon")
        raise ConfigError(f"{keys[name]} {rest}" if name in keys else f"{section}: {exc}") from exc


def _resolve(cfg):
    """The box, potential and hopping specs and resolved params of a
    schema-valid config; a spec's refusal is a ``ConfigError``."""
    with _keyed("box"):
        box = LatticeBox(**cfg["box"])
    with _keyed("potential"):
        pot = cfg["potential"]
        spec = PotentialSpec(pot["kind"], pot.get("omega") or None, pot.get("custom_values"))
        spec.check_box(box)
    with _keyed("hopping"):
        hop = HoppingSpec(**cfg["hopping"])
    with _keyed("params"):
        params = SchemeParams(
            s_hopping=hop.s_exponent, epsilon=hop.epsilon, **cfg["params"]
        ).resolved(box.dimension)
    return box, spec, hop, params


def _assemble(cfg):
    """The box, potential spec, D, T and resolved params of a valid config."""
    box, spec, hop, params = _resolve(cfg)
    # model construction can fail numerically (pole proximity); that is a
    # run failure, not a config failure
    D = build_potential(spec, box)
    T = build_hopping(hop, box)
    return box, spec, D, T, params


def _f17(x) -> str:
    return f"{float(x):.17g}"


def _report_dict(cfg, result):
    p = result.params
    s_levels = {0.0, p.alpha0, p.alpha, p.alpha - p.tau - 7 * p.delta}
    final_norms = {
        f"s={lvl:g}": float(result.final_residual.sobolev_norm(lvl))
        for lvl in sorted(s_levels)
        if lvl >= 0
    }
    q_norms = {"operator_norm": result.qplus.operator_norm()}
    eye_norm_s = p.alpha - p.tau - 7 * p.delta
    if eye_norm_s >= 0:
        eye = DiagonalOperator.identity(result.box)
        minus_identity = (result.qplus - eye).sobolev_norm(eye_norm_s)
        q_norms[f"minus_identity@s={eye_norm_s:g}"] = minus_identity
        t_high = result.T.sobolev_norm(p.alpha + 4 * p.delta)
        if t_high > 0 and p.alpha > p.alpha0:  # a positive exponent
            q_norms["coupling_scaling_ratio"] = minus_identity / t_high ** (
                p.delta / (p.alpha - p.alpha0))

    loc = {"eigenreports": [],  # an unconverged run's entries
           "completeness": dict.fromkeys(["min_singular_value", "gram_offdiag", "unitarity_defect"]),
           "spectrum": {"hausdorff_interior": None, "skipped": "run not converged"}}
    if result.converged:
        # each row is its record's fields in order; a new field needs no edit here
        loc["eigenreports"] = [
            {**vars(r), "eigenvalue": {"re": r.eigenvalue.real, "im": r.eigenvalue.imag}}
            for r in localization.eigenfunctions(result)
        ]
        min_sv, gram_off = localization.completeness_check(result)
        loc["completeness"] = {
            "min_singular_value": min_sv,
            "gram_offdiag": gram_off,
            "unitarity_defect": result.unitarity_defect,
        }
        if result.real_symmetric:
            loc["spectrum"] = {"hausdorff_interior": localization.spectrum_compare(result),
                               "skipped": None}
        else:  # non-symmetric models keep running
            loc["spectrum"]["skipped"] = "spectrum comparison requires symmetry"

    report = {
        "config_echo": cfg,
        "converged": bool(result.converged),
        "steps": int(result.steps),
        "final_residual_norms": final_norms,
        "qplus_norms": q_norms,
        "dplus_norm": float(result.dplus.sobolev_norm(0.0)),
        "gamma_used": float(p.gamma),
        "master_residual": result.master_residual,
        "bound_formulas": dict(BOUND_FORMULAS),
        "localization": loc,
        "theory_conditions": [
            {f: v for f, v in vars(c).items() if f != "data"} for c in result.theory_conditions
        ],
    }
    return report


def _finite_or_null(value):
    """Replace non-finite floats by None, recursively, for strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path, payload):
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")
    os.replace(tmp, path)


def cmd_run(cfg: dict, out_dir=".") -> tuple[str | None, dict]:
    """Run one config and write its outputs; returns the finished run's
    verdict (``localization.certify``) and its report."""
    _box, _spec, D, T, params = _assemble(cfg)
    result = run(T, D, params)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "ledger.csv"), "w") as fh:
        fh.write(ledger_to_csv(result.ledger))
    report = _report_dict(cfg, result)
    _write_json(os.path.join(out_dir, "report.json"), report)
    print(
        f"run: converged={result.converged} steps={result.steps} "
        f"final ||R||_0={_f17(result.final_residual.sobolev_norm(0.0))} "
        f"gamma={_f17(result.params.gamma)}"
    )
    return localization.certify(result), report


def cmd_verify_distal(cfg: dict) -> str | None:
    """The window scan's frontier; a given gamma is checked by both scans.

    One :func:`window_scan` gives the frontier at every tau and the margin
    of a given ``(tau, gamma)``.  ``theory_conditions`` owns the run's
    verdict on gamma (its ``gamma`` row, measured on the box); the window
    scan reads the potential's BV profile, where it has one, and can
    disagree.  Returns the failed checks, joined, or None.
    """
    box, spec, D, T, p = _assemble(cfg)
    max_offset = min(2 * box.radius, 64)
    taus = sorted({p.tau, 0.5 * p.tau, 1.5 * p.tau, 2.0 * p.tau})
    print(f"distal frontier for {spec.kind} on {box} (offsets up to {max_offset}):")
    table = csv.writer(sys.stdout, lineterminator="\n")
    table.writerow(["tau", "gamma_best", "worst_offset"])
    failed = []
    scan = window_scan(D, max_offset)
    for tau in taus:
        gamma_best, worst = scan.gamma(tau)
        table.writerow([_f17(tau), _f17(gamma_best), worst])
    if spec.omega is not None:
        gamma_dio, worst = check_diophantine(spec.omega, p.tau, max_offset)
        print(f"torus frequency constant at tau={p.tau:g}: "
              f"gamma={_f17(gamma_dio)} worst_k={worst}")
    if p.gamma is not None:
        report = scan.margin(p.tau, p.gamma)
        status = "pass" if report.passed else "FAIL"
        print(f"requested (tau={p.tau:g}, gamma={p.gamma:g}): {status} "
              f"margin={_f17(report.empirical_margin)} at {report.worst_offset}")
        if not report.passed:
            failed.append("distal margin negative")
        _, rows = theory_conditions(T, D, p, TameConstants(box.dimension, p.alpha0))
        row = rows[0]
        print(f"theory condition {row.name}: {'holds' if row.holds else 'FAILS'} "
              f"margin={_f17(row.margin)}; {row.detail}")
        if not row.holds:
            failed.append(f"theory condition {row.name} does not hold")
    return "; ".join(failed) or None


def cmd_check_theory(cfg: dict) -> str | None:
    """Print the theory conditions; under ``theory_checks``, return their verdict."""
    box, _spec, D, T, p = _assemble(cfg)
    _, rows = theory_conditions(T, D, p, TameConstants(box.dimension, p.alpha0))
    table = csv.writer(sys.stdout, lineterminator="\n")
    table.writerow(["condition", "holds", "margin", "scale", "effective", "detail"])
    for c in rows:
        table.writerow([c.name, c.holds, _f17(c.margin), c.scale, c.effective, c.detail])
    binding = next(c for c in rows if c.name == "Theta")
    print(
        f"binding Theta constraint: {binding.data['binding']} "
        f"(log10 required = {_f17(binding.data['required_log10'])})"
    )
    return regime_violation(rows) if p.theory_checks else None


def _axis_values(key: str, raw: str):
    """``(item, value)`` for each value of one sweep axis: ``raw`` split at
    the commas outside brackets, each item parsed as JSON (a bare word stays
    a string).  A value given twice, in any spelling, is a config error."""
    items, depth = [""], 0
    for ch in raw:
        depth += (ch in "[{") - (ch in "]}")
        if ch == "," and depth == 0:
            items.append("")
        else:
            items[-1] += ch
    pairs = []
    for item in filter(None, items):
        value = _parse_value(item, key)
        if value in (v for _, v in pairs):
            raise ConfigError(f"sweep axis {key!r} repeats the value {value!r}")
        pairs.append((item, value))
    return pairs


def _csv_cell(value) -> str:
    """Floats in round-trip precision; a null report value as nan."""
    if value is None:
        return "nan"
    return _f17(value) if isinstance(value, float) else str(value)


def cmd_sweep(cfg: dict, overrides, out_dir="sweep_out") -> int:
    axes = []
    for key, raw in overrides:
        values = _axis_values(key, raw)
        if not values:
            raise ConfigError(f"sweep axis {key!r} has no values")
        axes.append((key, values))
    if not axes:
        raise ConfigError("sweep requires at least one --override axis")
    cells = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        cell = copy.deepcopy(cfg)
        tags = []
        for (key, _), (item, value) in zip(axes, combo):
            apply_override(cell, key, item)  # parsed as `run --override` parses it
            tags.append(f"{key.split('.')[-1]}={value}")
        # every cell's config error surfaces before the first cell runs
        validate_config(cell)
        _resolve(cell)
        cells.append(("_".join(tags).replace("/", "-"), cell))
    rows = []
    status = 0
    for cell_name, cell in cells:
        try:
            failed, rep = cmd_run(cell, out_dir=os.path.join(out_dir, cell_name))
        except Exception as exc:  # a failed cell still gets its row
            failed, rep = exc, None
        if failed is not None:
            print(f"{cell_name}: invariant failed: {failed}", file=sys.stderr)
            status = 1
        row = {"cell": cell_name, "converged": False}  # a cell that raised reads nan
        if rep is not None:
            row.update(converged=rep["converged"], steps=rep["steps"],
                       final_residual_0=rep["final_residual_norms"].get("s=0"),
                       dplus_norm=rep["dplus_norm"],
                       min_singular_value=rep["localization"]["completeness"][
                           "min_singular_value"])
        rows.append(row)
    os.makedirs(out_dir, exist_ok=True)  # no cell made it when every cell raised
    agg = os.path.join(out_dir, "sweep.csv")
    with open(agg, "w", newline="") as fh:
        cols = ["cell", "converged", "steps", "final_residual_0", "dplus_norm",
                "min_singular_value"]
        table = csv.writer(fh, lineterminator="\n")  # a list-valued cell name holds commas
        table.writerow(cols)
        for row in rows:
            table.writerow(_csv_cell(row.get(c)) for c in cols)
    print(f"sweep: {len(rows)} cells, aggregate at {agg}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nmloc",
        description="run the conjugation scheme and its certification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify-distal", "check-theory", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument(
            "--override", action="append", default=[], metavar="KEY=VALUE",
            help="dotted-path config override; comma lists form sweep axes",
        )
        if name in ("run", "sweep"):
            sp.add_argument("--out-dir", default="." if name == "run" else "sweep_out")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        pairs = []
        for item in args.override:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not KEY=VALUE")
            key, _, raw = item.partition("=")
            pairs.append((key, raw))
        if args.command == "sweep":
            return cmd_sweep(cfg, pairs, out_dir=args.out_dir)
        for key, raw in pairs:
            apply_override(cfg, key, raw)
        validate_config(cfg)
        if args.command == "run":
            failed = cmd_run(cfg, out_dir=args.out_dir)[0]
        elif args.command == "verify-distal":
            failed = cmd_verify_distal(cfg)
        else:
            failed = cmd_check_theory(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical invariant failures
        failed = exc
    if failed is not None:
        print(f"invariant failed: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
