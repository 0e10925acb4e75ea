import csv
import inspect
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmloc.algebra as algebra
import nmloc.iteration as iteration
import nmloc.localization as localization
from nmloc import (
    HoppingSpec,
    LatticeBox,
    LatticeOperator,
    PotentialSpec,
    SchemeParams,
    build_hopping,
    build_potential,
    cli,
    distal_gamma_box,
    run,
)
import nmloc.box as box_module
from nmloc.box import PHYSICAL_MEMORY
from nmloc.errors import ConfigError, TheoryConditionError
from report_schema import REPORT_SCHEMA


def base_config():
    return {
        "box": {"dimension": 1, "radius": 12, "interior_radius": 9},
        "potential": {"kind": "maryland", "omega": [0.6180339887498949]},
        "hopping": {"s_exponent": 4.0, "epsilon": 0.1},
        "params": {"tau": 1.0, "delta": 0.05, "alpha0": 0.6,
                   "theta0": 2.0, "Theta": 2.0},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_unknown_keys_rejected():
    cfg = base_config()
    cfg["unexpected"] = 1
    with pytest.raises(ConfigError, match="rejected"):
        cli.validate_config(cfg)
    cfg = base_config()
    cfg["params"]["typo_key"] = 2.0
    with pytest.raises(ConfigError):
        cli.validate_config(cfg)
    for section, key, value in (("params", "eps_floor", 1e-14),
                                ("hopping", "profile", "power_law")):
        cfg = base_config()
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=key):
            cli.validate_config(cfg)
    cfg = base_config()
    cfg["output"] = {"ledger_csv_path": "ledger.csv", "report_json_path": "report.json"}
    with pytest.raises(ConfigError, match="output"):
        cli.validate_config(cfg)


def test_schemas_are_valid_under_their_metaschema():
    for schema in (cli.CONFIG_SCHEMA, REPORT_SCHEMA):
        jsonschema.validators.validator_for(schema).check_schema(schema)


def test_readme_example_config_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    cli.validate_config(json.loads(example))


def test_config_keys_map_onto_the_spec_fields():
    # every config key reaches a field, and every field has a config key
    sections = cli.CONFIG_SCHEMA["properties"]
    params = {f.name for f in fields(SchemeParams)} - {"s_hopping", "epsilon"}
    assert set(sections["params"]["properties"]) == params
    assert set(sections["hopping"]["properties"]) == {f.name for f in fields(HoppingSpec)}
    assert set(sections["potential"]["properties"]) == {
        f.name for f in fields(PotentialSpec)}
    box_args = set(inspect.signature(LatticeBox).parameters)
    assert set(sections["box"]["properties"]) == box_args


@pytest.mark.parametrize("override", [
    "params.delta=0", "params.alpha0=0.4", "params.s_grid=[-1]", "params.stop_tol=-1",
    "potential.omega=[0.6180339887498949,0.5]",
    "potential.kind=custom potential.custom_values=[1,2]",
    "params.alpha1=0.5", "params.alpha=-1", "params.gamma=0", "params.gamma=-1",
    "params.s_grid=[]", "params.tau=0", "params.tau=-1", "params.theta0=NaN",
    "params.Theta=Infinity", "params.s_grid=[0.6,-Infinity]",
    "params.theta0=1", "params.Theta=0.5", "box.interior_radius=20", "box.dimension=0",
    "hopping.s_exponent=0", "hopping.epsilon=-1", "params.max_steps=0",
    "box.dimension=1e300", "box.dimension=40", "box.radius=1e300",
    pytest.param("box.radius=1" + "0" * 400, id="box.radius=10**400"),
    # without a physical-memory bound this box would build a 12 GB site table
    pytest.param("box.dimension=2 box.radius=13776", marks=pytest.mark.skipif(
        PHYSICAL_MEMORY is None, reason="os.sysconf gives no physical memory")),
])
def test_out_of_range_params_are_config_errors(tmp_path, capsys, override):
    # space-separated overrides; the last one sets the rejected key
    argv = ["run", "--config", write_config(tmp_path, base_config()),
            "--out-dir", str(tmp_path / "out")]
    for item in override.split():
        argv += ["--override", item]
    assert cli.main(argv) == 2
    assert override.split()[-1].partition("=")[0] in capsys.readouterr().err


def test_a_box_is_admitted_by_what_its_run_needs(tmp_path, capsys, monkeypatch):
    # n = 22001: one operator, 7.7 GB, fits in 8.4 GB, but a run's
    # RUN_BUFFERS of them do not; bounded by one operator, this box passed and
    # the run died in numpy with "Unable to allocate 3.61 GiB"
    monkeypatch.setattr(box_module, "PHYSICAL_MEMORY", 8_400_000_000)
    argv = ["run", "--config", write_config(tmp_path, base_config()),
            "--out-dir", str(tmp_path / "out"), "--override", "box.radius=11000"]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 2
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert "box.radius" in capsys.readouterr().err


def test_config_schema_checks_structure_only():
    # each value's range is stated once, by the spec that owns it
    def keywords(node):
        if isinstance(node, dict):
            yield from node
            for value in node.values():
                yield from keywords(value)
        elif isinstance(node, list):
            for value in node:
                yield from keywords(value)

    range_keywords = {"minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum",
                      "minItems", "maxItems"}
    assert not range_keywords & set(keywords(cli.CONFIG_SCHEMA))


# non-finite values, integers that no float can hold, zeros, negatives and
# the boundaries 1/2 (d/2 at d=1) and 1
_EDGES = (math.nan, math.inf, -math.inf, 10**400, -10**400, 0.0, -0.0, -1.0, 0.5, 1.0, 2.0)


@st.composite
def _number_text(draw, numbers):
    """A drawn number as ``--override`` text; an infinity is written either
    as its literal or as ``1e999``, which json reads as a float inf."""
    x = draw(st.sampled_from(_EDGES) | numbers)
    if isinstance(x, float) and math.isinf(x) and draw(st.booleans()):
        return "-1e999" if x < 0 else "1e999"
    return json.dumps(x)


def _list_text(numbers):
    return st.lists(_number_text(numbers), max_size=3).map(lambda xs: f"[{','.join(xs)}]")


_ANY = st.floats() | st.integers(-3, 50)
# box draws stay small: a box builds its (2N+1)^d site table at once
_SMALL = st.integers(-2, 32) | st.floats(-2.0, 32.0)
_DRAWS = {
    "box.dimension": _number_text(st.integers(-1, 3) | st.floats(-1.0, 3.5)),
    "box.radius": _number_text(_SMALL),
    "box.interior_radius": _number_text(_SMALL),
    "potential.omega": _list_text(_ANY),
    "params.s_grid": _list_text(_ANY),
    **{key: _number_text(_ANY) for key in (
        "hopping.s_exponent", "hopping.epsilon", "params.tau", "params.delta",
        "params.alpha0", "params.theta0", "params.Theta", "params.gamma", "params.alpha",
        "params.alpha1", "params.stop_tol", "params.max_steps")},
}
# a rule over two keys names one of them, and a derived default the key it
# derives from; a box too large to run at its radius names box.radius
_ALSO_NAMED = {
    "box.dimension": {"potential.omega", "params.alpha0", "hopping.s_exponent",
                      "box.radius"},
    "box.radius": {"box.interior_radius"},
    "params.delta": {"hopping.s_exponent"},  # alpha = s - d/2 - 5 delta
    "params.tau": {"hopping.s_exponent"},  # default s_grid entry alpha1 - tau
}


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_numeric_value_is_refused_by_its_key_or_its_specs_construct(data):
    # the steps of `main` up to the specs; no model is built and nothing runs
    key = data.draw(st.sampled_from(sorted(_DRAWS)), label="key")
    text = data.draw(_DRAWS[key], label="text")
    cfg = base_config()
    try:
        cli.apply_override(cfg, key, text)
        cli.validate_config(cfg)
        cli._resolve(cfg)
    except ConfigError as exc:
        named = re.search(r"\b(box|potential|hopping|params)\.\w+", str(exc))
        assert named and named.group() in {key} | _ALSO_NAMED.get(key, set()), str(exc)


@pytest.mark.parametrize("key", [
    "params.max_steps", "params.tau", "params.delta", "params.alpha0", "params.gamma",
    "params.alpha", "params.alpha1", "hopping.s_exponent", "hopping.epsilon",
    "potential.omega",
])
def test_an_integer_no_float_can_hold_exits_2_naming_its_key(tmp_path, capsys, key):
    # json reads 1 followed by 400 zeros as an exact int; each of these keys
    # exited 1 with "invariant failed: int too large to convert to float".
    # max_steps takes any positive integer, as a box radius does.  Past 4300
    # digits json refuses the integer itself, and that exited 1 too
    big = str(10**400)
    cfg = write_config(tmp_path, base_config())

    def check_theory(digits):
        text = f"[{digits}]" if key == "potential.omega" else digits
        return cli.main(["check-theory", "--config", cfg, "--override", f"{key}={text}"])

    if key == "params.max_steps":
        assert check_theory(big) == 0
        big = "-" + big
    for digits in (big, "1" + "0" * 5000):
        assert check_theory(digits) == 2
        assert key in capsys.readouterr().err


def test_tan_pole_is_a_run_failure(tmp_path, capsys):
    # omega = 1/2 puts every odd site on a pole: a valid config that cannot run
    assert cli.main(["run", "--config", write_config(tmp_path, base_config()),
                     "--override", "potential.omega=[0.5]",
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert "pole" in capsys.readouterr().err


def test_config_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--config", str(bad)]) == 2
    bad.write_text('{"box": 1' + "0" * 5000 + "}")  # past json's integer digit limit
    assert cli.main(["run", "--config", str(bad)]) == 2
    cfg = base_config()
    cfg["box"]["radius"] = -3
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 2


def test_non_finite_json_literals_are_config_errors(tmp_path, capsys):
    # json reads NaN and Infinity as floats, and a NaN theta0 passed every
    # range check: the run went to max_steps instead of exiting 2
    cfg = base_config()
    cfg["params"]["theta0"] = math.nan
    path = write_config(tmp_path, cfg)
    assert "NaN" in Path(path).read_text()
    assert cli.main(["run", "--config", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert "NaN" in capsys.readouterr().err
    assert cli.main(["sweep", "--config", write_config(tmp_path, base_config(), "ok.json"),
                     "--override", "params.theta0=2,NaN",
                     "--out-dir", str(tmp_path / "sweep")]) == 2
    assert "params.theta0" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_override_paths_and_json_values():
    cfg = base_config()
    cli.apply_override(cfg, "hopping.epsilon", "0.25")
    cli.apply_override(cfg, "potential.kind", "sarnak")
    cli.apply_override(cfg, "params.s_grid", "[0.6, 2.0]")
    assert cfg["hopping"]["epsilon"] == 0.25
    assert cfg["potential"]["kind"] == "sarnak"
    assert cfg["params"]["s_grid"] == [0.6, 2.0]


def test_run_writes_valid_report_and_ledger(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = cli.main(["run", "--config", cfg_path, "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["converged"] is True
    assert report["config_echo"] == base_config()
    ledger = (out / "ledger.csv").read_text().strip().split("\n")
    assert ledger[0].startswith("k,theta_k,")
    assert len(ledger) == report["steps"] + 1


def test_zero_coupling_report_is_exact(tmp_path):
    cfg = base_config()
    cfg["hopping"]["epsilon"] = 0.0
    out = tmp_path / "out"
    code = cli.main(["run", "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert all(v == 0.0 for v in report["final_residual_norms"].values())
    assert report["dplus_norm"] == 0.0


def test_ledger_reproducibility_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg_path, "--out-dir", str(out_a)]) == 0
    assert cli.main(["run", "--config", cfg_path, "--out-dir", str(out_b)]) == 0
    assert (out_a / "ledger.csv").read_bytes() == (out_b / "ledger.csv").read_bytes()
    ra = json.loads((out_a / "report.json").read_text())
    rb = json.loads((out_b / "report.json").read_text())
    assert ra == rb


def test_norms_at_an_index_past_the_float_range_are_finite(tmp_path):
    # at s_exponent 80 the ledger's top index 157.55 makes <k>^s overflow from
    # |k| = 91: a zero-sup slot there gave 0 * inf = NaN and a small sup inf,
    # in 87 cells.  The first row has no QTQ or QDQ, and the bound of
    # margin:VinvmI@157.55, 2 k1(s) theta^..., overflows itself
    cfg = base_config()
    cfg["box"] = {"dimension": 1, "radius": 64, "interior_radius": 48}
    cfg["hopping"]["s_exponent"] = 80.0
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(out)]) == 0
    rows = list(csv.DictReader((out / "ledger.csv").read_text().splitlines()))
    assert "R@157.55" in rows[0]
    not_finite = {(row["k"], key) for row in rows for key, value in row.items()
                  if not math.isfinite(float(value))}
    absent = {("1", f"{prefix}{name}@{s}") for prefix in ("", "margin:")
              for name in ("QTQ", "QDQ") for s in ("0.6", "79.25", "157.55")}
    assert not_finite - absent <= {(row["k"], "margin:VinvmI@157.55") for row in rows}


def test_verify_distal_exit_codes(tmp_path, capsys):
    cfg = base_config()
    cfg["params"]["gamma"] = 0.5  # comfortably below the measured frontier
    assert cli.main(["verify-distal", "--config", write_config(tmp_path, cfg)]) == 0
    out = capsys.readouterr().out
    assert "gamma_best" in out
    cfg["params"]["gamma"] = 50.0  # impossible demand
    assert cli.main(
        ["verify-distal", "--config", write_config(tmp_path, cfg, "b.json")]
    ) == 1


@pytest.mark.parametrize("dimension, radius, interior", [(1, 12, 9), (2, 4, 3)])
def test_verify_distal_measures_each_offset_once(tmp_path, capsys, monkeypatch,
                                                 dimension, radius, interior):
    # the four-tau frontier and the requested margin all read one scan
    calls = []
    measure = algebra._inverted_difference_values
    monkeypatch.setattr(algebra, "_inverted_difference_values",
                        lambda p, k, window: calls.append(k) or measure(p, k, window))
    cfg = base_config()
    cfg["box"] = {"dimension": dimension, "radius": radius, "interior_radius": interior}
    cfg["potential"]["omega"] = [0.6180339887498949, 0.41421356237309503][:dimension]
    cfg["params"].update(gamma=1e-3, alpha0=0.6 * dimension)
    assert cli.main(["verify-distal", "--config", write_config(tmp_path, cfg)]) == 0
    assert "requested" in capsys.readouterr().out
    max_offset = min(2 * radius, 64)
    assert sorted(calls) == sorted(LatticeBox(dimension, radius, interior).all_offsets(max_offset))
    assert len(calls) == (2 * max_offset + 1) ** dimension - 1


def test_verify_distal_on_a_custom_potential_skips_offsets_without_pairs(
        tmp_path, capsys):
    # a custom potential has no formula: at |k| = 2N no window site has an
    # in-box partner, and such an offset bounds nothing
    values = np.random.default_rng(3).normal(size=17) * 3.0
    cfg = base_config()
    cfg["box"] = {"dimension": 1, "radius": 8, "interior_radius": 6}
    cfg["potential"] = {"kind": "custom", "custom_values": values.tolist()}
    assert cli.main(["verify-distal", "--config", write_config(tmp_path, cfg)]) == 0
    header, *rows = csv.reader(capsys.readouterr().out.strip().split("\n")[1:])
    assert header == ["tau", "gamma_best", "worst_offset"] and len(rows) == 4
    sites = LatticeBox(**cfg["box"]).sites[:, 0]
    for tau, gamma, worst in rows:
        # oracle: min of |i - j|^tau |v_i - v_j| over window sites i, in-box j
        best, arg = min(
            (abs(i - j) ** float(tau) * abs(values[p] - values[q]), (int(i - j),))
            for p, i in enumerate(sites) if abs(i) <= 6
            for q, j in enumerate(sites) if q != p
        )
        assert float(gamma) == pytest.approx(best, rel=1e-12)
        assert worst == str(arg)


def verify_distal_gamma(tmp_path, capsys, kind, radius, interior, gamma):
    cfg = base_config()
    cfg["box"] = {"dimension": 1, "radius": radius, "interior_radius": interior}
    cfg["potential"]["kind"] = kind
    cfg["params"]["gamma"] = gamma
    code = cli.main(["verify-distal", "--config", write_config(tmp_path, cfg)])
    out, err = capsys.readouterr()
    window = next(line for line in out.split("\n") if line.startswith("requested"))
    box = next(line for line in out.split("\n") if line.startswith("theory condition"))
    return code, window, box, err


def test_verify_distal_fails_a_gamma_the_box_does_not_certify(tmp_path, capsys):
    # the window scan passes 1.369 (window constant 1.370495); the box gives 1.368372
    code, window, box, err = verify_distal_gamma(tmp_path, capsys, "maryland", 48, 32, 1.369)
    assert code == 1
    assert ": pass " in window
    assert box.startswith("theory condition gamma: FAILS margin=-0.000628")
    assert err == "invariant failed: theory condition gamma does not hold\n"


def test_verify_distal_fails_a_gamma_the_window_does_not_certify(tmp_path, capsys):
    # craig_mod1: sampled BV on the window gives 0.090170, sup on the box 0.381966
    code, window, box, err = verify_distal_gamma(tmp_path, capsys, "craig_mod1", 24, 16, 0.2)
    assert code == 1
    assert ": FAIL " in window
    assert box.startswith("theory condition gamma: holds margin=0.181966")
    assert err == "invariant failed: distal margin negative\n"


def test_check_theory_and_verify_distal_print_tables_that_parse(tmp_path, capsys):
    # details and offsets hold commas: every row still has the header's width
    cfg_path = write_config(tmp_path, base_config())
    assert cli.main(["check-theory", "--config", cfg_path]) == 0
    theory = capsys.readouterr().out.strip().split("\n")[:-1]
    assert cli.main(["verify-distal", "--config", cfg_path]) == 0
    distal = capsys.readouterr().out.strip().split("\n")[1:6]
    for table in (theory, distal):
        header, *rows = csv.reader(table)
        assert rows and all(len(row) == len(header) for row in rows)
    details = {row[0]: row[-1] for row in csv.reader(theory)}
    assert details["Theta5"] == "max(Theta^-alpha0, Theta^-delta) <= 1/10"


def test_check_theory_reports_binding_constraint(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    assert cli.main(["check-theory", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "binding Theta constraint: 8^(2/delta)*c0^(4/delta)" in out
    assert "Theta1," in out and "Theta0," in out


def test_sweep_produces_cells_and_aggregate(tmp_path):
    cfg = base_config()
    cfg["box"] = {"dimension": 1, "radius": 8, "interior_radius": 6}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    code = cli.main([
        "sweep", "--config", cfg_path, "--out-dir", str(out),
        "--override", "hopping.epsilon=0.1,0.05",
    ])
    assert code == 0
    agg = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(agg) == 3
    assert (out / "epsilon=0.1" / "report.json").exists()
    assert (out / "epsilon=0.05" / "report.json").exists()


def test_sweep_axis_items_are_parsed_before_duplicates_are_refused(tmp_path, capsys):
    assert cli._axis_values("params.mode", "inverse,direct") == [
        ("inverse", "inverse"), ("direct", "direct")]
    assert cli._axis_values("params.s_grid", "[0.6,2.0],[1]") == [
        ("[0.6,2.0]", [0.6, 2.0]), ("[1]", [1])]
    cfg = base_config()
    cfg["box"] = {"dimension": 1, "radius": 8, "interior_radius": 6}
    argv = ["sweep", "--config", write_config(tmp_path, cfg), "--out-dir",
            str(tmp_path / "sweep"), "--override"]
    assert cli.main(argv + ["hopping.epsilon=0.1,0.10,1e-1"]) == 2
    assert "'hopping.epsilon' repeats the value 0.1" in capsys.readouterr().err
    # a cell is the config `run --override` builds: a JSON string is no number
    assert cli.main(argv + ['hopping.epsilon="0.1"']) == 2
    assert "'0.1' is not of type 'number'" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_takes_a_bracketed_override_as_one_cell(tmp_path):
    cfg = base_config()
    cfg["box"] = {"dimension": 1, "radius": 8, "interior_radius": 6}
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", write_config(tmp_path, cfg), "--out-dir",
                     str(out), "--override", "params.s_grid=[0.6,2.0]"])
    assert code == 0
    with open(out / "sweep.csv", newline="") as fh:
        assert [row["cell"] for row in csv.DictReader(fh)] == ["s_grid=[0.6, 2.0]"]
    header = (out / "s_grid=[0.6, 2.0]" / "ledger.csv").read_text().split("\n")[0]
    assert [c for c in header.split(",") if c.startswith("W@")] == ["W@0.6", "W@2"]


def test_sweep_refuses_a_bad_cell_before_any_cell_runs(tmp_path, capsys):
    # radius 6 puts the interior radius 8 outside the box: the radius-12
    # cell ahead of it must not run either
    cfg = base_config()
    cfg["box"] = {"dimension": 1, "radius": 12, "interior_radius": 8}
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_config(tmp_path, cfg), "--out-dir",
                     str(out), "--override", "box.radius=12,6"]) == 2
    assert "interior_radius must lie in [1, radius]" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_writes_its_aggregate_when_a_cell_fails_to_run(tmp_path, capsys):
    # omega = 1/2 is a valid config whose model build hits a tan pole
    cfg = base_config()
    cfg["box"] = {"dimension": 1, "radius": 8, "interior_radius": 6}
    out = tmp_path / "sweep"
    omegas = "[0.6180339887498949],[0.5],[0.4142135623730951]"
    assert cli.main(["sweep", "--config", write_config(tmp_path, cfg), "--out-dir",
                     str(out), "--override", f"potential.omega={omegas}"]) == 1
    assert "omega=[0.5]: invariant failed: tan pole proximity" in capsys.readouterr().err
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[:2] for row in rows] == [["omega=[0.6180339887498949]", "True"],
                                         ["omega=[0.5]", "False"],
                                         ["omega=[0.4142135623730951]", "True"]]
    assert rows[1][2:] == ["nan"] * 4
    assert "nan" not in rows[0] + rows[2]
    assert (out / "omega=[0.4142135623730951]" / "report.json").exists()
    assert not (out / "omega=[0.5]").exists()


@pytest.mark.parametrize("report_path", ["rep.json", None])
def test_sweep_rows_do_not_depend_on_report_path(tmp_path, report_path):
    # A report path can no longer be set: a config that names one is refused
    # before any cell runs, and every cell holds ledger.csv and report.json.
    cfg = base_config()
    cfg["box"] = {"dimension": 1, "radius": 8, "interior_radius": 6}
    out = tmp_path / "sweep"
    argv = ["sweep", "--out-dir", str(out), "--override", "hopping.epsilon=0.1,0.05"]
    stale = dict(cfg, output={"report_json_path": report_path})
    assert cli.main(argv + ["--config", write_config(tmp_path, stale)]) == 2
    assert not out.exists()
    code = cli.main(argv + ["--config", write_config(tmp_path, cfg)])
    assert code == 0
    agg = (out / "sweep.csv").read_text().strip().split("\n")
    assert [row.split(",")[:3] for row in agg[1:]] == [
        ["epsilon=0.1", "True", "5"], ["epsilon=0.05", "True", "5"]]
    for cell in ("epsilon=0.1", "epsilon=0.05"):
        written = sorted(p.name for p in (out / cell).iterdir())
        assert written == ["ledger.csv", "report.json"]


def test_nonconverging_run_exits_one(tmp_path):
    cfg = base_config()
    cfg["params"]["max_steps"] = 2
    assert cli.main(["run", "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(tmp_path / "out")]) == 1


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_unconverged_report_is_strict_json(tmp_path):
    cfg = base_config()
    cfg["params"]["max_steps"] = 1
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(out)]) == 1
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=_reject_constant)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["converged"] is False
    assert report["master_residual"] is None
    assert report["localization"]["completeness"]["min_singular_value"] is None


def test_non_symmetric_run_reports_spectrum_skipped(tmp_path):
    cfg = base_config()
    cfg["potential"]["kind"] = "sarnak"
    cfg["hopping"]["epsilon"] = 0.02
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(out)]) == 0
    spectrum = json.loads((out / "report.json").read_text())["localization"]["spectrum"]
    assert spectrum["hausdorff_interior"] is None
    assert "requires symmetry" in spectrum["skipped"]


def test_spectrum_failure_other_than_symmetry_fails_the_run(tmp_path, monkeypatch):
    def broken(result):
        raise RuntimeError("eigensolver broke")

    monkeypatch.setattr(cli.localization, "spectrum_compare", broken)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, base_config()),
                     "--out-dir", str(out)]) == 1
    assert not (out / "report.json").exists()


def test_non_finite_transform_writes_a_strict_report(tmp_path, monkeypatch):
    # a diverging run can end with NaN in Q+; its report still gets written
    solve = cli.run

    def diverged(T, D, params):
        res = solve(T, D, replace(params, max_steps=1))
        q = res.qplus.entries.copy()
        q[0, 0] = np.nan
        return replace(res, qplus=LatticeOperator(res.box, q))

    monkeypatch.setattr(cli, "run", diverged)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, base_config()),
                     "--out-dir", str(out)]) == 1
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=_reject_constant)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["converged"] is False
    assert report["qplus_norms"]["operator_norm"] is None


@pytest.mark.parametrize("case", ["direct", "sarnak", "custom", "non_finite"])
def test_written_report_is_strict_json_in_the_report_format(tmp_path, monkeypatch, case):
    cfg = base_config()
    if case == "direct":
        cfg["params"]["mode"] = "direct"
    elif case == "sarnak":  # not symmetric: the spectrum check is skipped
        cfg["potential"]["kind"] = "sarnak"
        cfg["hopping"]["epsilon"] = 0.02
    elif case == "custom":  # the Maryland values, entered by hand
        D = build_potential(PotentialSpec("maryland", omega=tuple(cfg["potential"]["omega"])),
                            LatticeBox(**cfg["box"]))
        cfg["potential"] = {"kind": "custom", "custom_values": D.values.real.tolist()}
    else:
        solve = cli.run

        def non_finite(T, D, params):
            res = solve(T, D, params)
            rows = [replace(c, margin=math.inf) if c.name == "Theta1" else c
                    for c in res.theory_conditions]
            # an infinite decay exponent makes every off-center envelope constant inf
            return replace(res, theory_conditions=rows,
                           params=replace(res.params, s_hopping=math.inf))

        monkeypatch.setattr(cli, "run", non_finite)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=_reject_constant)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["converged"] is True and report["localization"]["eigenreports"]
    skipped = report["localization"]["spectrum"]["skipped"]
    assert (skipped is not None) == (case == "sarnak")
    if case == "non_finite":
        rows = {c["name"]: c for c in report["theory_conditions"]}
        assert rows["Theta1"]["margin"] is None
        assert None in [r["envelope_constant"] for r in report["localization"]["eigenreports"]]


# -- the theory regime -----------------------------------------------------------


def run_report(tmp_path, cfg):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", write_config(tmp_path, cfg), "--out-dir", str(out)])
    return code, json.loads((out / "report.json").read_text())


def base_inputs():
    """The library inputs of ``base_config()``: T, D and the params."""
    cfg = base_config()
    box = LatticeBox(**cfg["box"])
    D = build_potential(PotentialSpec("maryland", omega=tuple(cfg["potential"]["omega"])),
                        box)
    T = build_hopping(HoppingSpec(**cfg["hopping"]), box)
    return T, D, SchemeParams(s_hopping=4.0, **cfg["params"])


def test_report_conditions_are_evaluated_at_the_measured_gamma(tmp_path):
    code, report = run_report(tmp_path, base_config())
    assert code == 0
    gamma = report["gamma_used"]
    rows = {c["name"]: c for c in report["theory_conditions"]}
    assert rows["gamma"]["holds"] and rows["gamma"]["margin"] == 0.0
    lg = math.log10
    assert rows["Theta4"]["margin"] == 0.05 * lg(2.0) - lg(3.0 / gamma) - 1.0 * lg(2.0)
    assert "defaulted" not in rows["Theta4"]["detail"]


def test_uncertified_gamma_is_a_failing_row_and_a_strict_error(tmp_path, monkeypatch):
    T, D, params = base_inputs()
    measured, _ = distal_gamma_box(D, params.tau)
    requested = 2.0 * measured
    cfg = base_config()
    cfg["params"]["gamma"] = requested
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run_report(tmp_path, cfg)
    assert code == 0
    assert report["gamma_used"] == requested
    row = report["theory_conditions"][0]
    assert row["name"] == "gamma" and row["holds"] is False
    assert row["margin"] == measured - requested
    assert f"{measured:.17g}" in row["detail"]

    steps = []
    monkeypatch.setattr(iteration, "iterate_step", lambda state: steps.append(state))
    with pytest.raises(TheoryConditionError, match="theory condition gamma fails"):
        run(T, D, replace(params, gamma=requested, theory_checks=True))
    assert steps == []


@pytest.mark.parametrize("strict", [False, True])
def test_a_run_measures_gamma_and_evaluates_the_conditions_once(
        tmp_path, monkeypatch, capsys, strict):
    calls = {"gamma": 0, "conditions": 0}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(iteration, "distal_gamma_box",
                        counted("gamma", iteration.distal_gamma_box))
    monkeypatch.setattr(iteration, "check_theory_conditions",
                        counted("conditions", iteration.check_theory_conditions))
    cfg = base_config()
    cfg["params"]["theory_checks"] = strict
    assert cli.main(["run", "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(tmp_path / "out")]) == (1 if strict else 0)
    assert calls == {"gamma": 1, "conditions": 1}
    if strict:  # the practical band ratio fails the first band-ratio condition
        assert "theory condition Theta1 fails" in capsys.readouterr().err


def test_check_theory_refuses_by_the_verdict_run_refuses_by(tmp_path, capsys):
    # check-theory under theory_checks and a strict run name the same
    # failing condition, in the same stderr line
    cfg = base_config()
    cfg["params"]["theory_checks"] = True
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path, "--out-dir", str(tmp_path / "out")]) == 1
    refused = capsys.readouterr().err
    assert cli.main(["check-theory", "--config", path]) == 1
    checked = capsys.readouterr().err
    assert "invariant failed: theory condition Theta1 fails" in checked
    assert checked == refused


def test_check_theory_and_the_report_show_the_same_rows(tmp_path, capsys):
    code, report = run_report(tmp_path, base_config())
    assert code == 0
    capsys.readouterr()
    assert cli.main(["check-theory", "--config", write_config(tmp_path, base_config(),
                                                              "c.json")]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    printed = list(csv.reader(lines[1:-1]))
    assert [(name, holds == "True", float(margin), detail)
            for name, holds, margin, _scale, _eff, detail in printed] == [
        (c["name"], c["holds"], c["margin"], c["detail"])
        for c in report["theory_conditions"]]


def test_coupling_scaling_ratio_divides_the_transform_by_the_hopping_norm(tmp_path):
    code, report = run_report(tmp_path, base_config())
    assert code == 0
    T, _D, params = base_inputs()
    p = params.resolved(1)
    q_norms = report["qplus_norms"]
    minus_identity = q_norms[f"minus_identity@s={p.alpha - p.tau - 7 * p.delta:g}"]
    t_high = T.sobolev_norm(p.alpha + 4 * p.delta)
    assert q_norms["coupling_scaling_ratio"] == minus_identity / t_high ** (
        p.delta / (p.alpha - p.alpha0))


def test_a_converged_run_with_alpha_equal_to_alpha0_writes_its_report(tmp_path):
    # the ratio's exponent delta/(alpha - alpha0) is positive only for
    # alpha > alpha0; at alpha = alpha0 it has no value, and the report
    # leaves the key out instead of dividing by zero
    cfg = base_config()
    cfg["box"] = {"dimension": 1, "radius": 24, "interior_radius": 16}
    cfg["params"].update(alpha0=2.0, alpha=2.0)
    code, report = run_report(tmp_path, cfg)
    assert code == 0 and report["converged"] is True and report["steps"] == 6
    jsonschema.validate(report, REPORT_SCHEMA)
    assert "coupling_scaling_ratio" not in report["qplus_norms"]
    ledger = (tmp_path / "out" / "ledger.csv").read_text().strip().split("\n")
    assert len(ledger) == report["steps"] + 1


# -- verdicts on a finished run ------------------------------------------------


def test_a_run_failing_the_symmetry_verdict_writes_both_files(tmp_path, monkeypatch, capsys):
    # at tolerance 0 this run's unitarity defect (2.3e-11) fails the
    # verdict; the finished run writes its ledger and report, as a run that
    # does not converge does, and exits 1 naming the check
    monkeypatch.setattr(localization, "UNITARITY_TOL", 0.0)
    code, report = run_report(tmp_path, base_config())
    assert code == 1
    assert re.fullmatch(r"invariant failed: symmetry defect: \|\|U\^t U - I\|\|_0 = "
                        r"\d\.\d{3}e-\d\d exceeds 0\.0e\+00\n", capsys.readouterr().err)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["converged"] is True
    assert 0.0 < report["localization"]["completeness"]["unitarity_defect"] <= 1e-9
    ledger = (tmp_path / "out" / "ledger.csv").read_text().strip().split("\n")
    assert len(ledger) == report["steps"] + 1


def _conditions_holding(monkeypatch):
    """Every theory condition of a run patched to hold."""
    conditions = iteration.theory_conditions

    def holding(*args):
        p, rows = conditions(*args)
        return p, [replace(c, holds=True) for c in rows]

    monkeypatch.setattr(iteration, "theory_conditions", holding)


def test_a_strict_run_refused_by_its_ledger_writes_both_files(tmp_path, monkeypatch, capsys):
    # with every condition holding, the strict run takes every step, and
    # certify refuses it on its first negative ledger margin; the finished
    # run writes its ledger and report before it exits 1
    _conditions_holding(monkeypatch)
    cfg = base_config()
    cfg["params"]["theory_checks"] = True
    code, report = run_report(tmp_path, cfg)
    assert code == 1
    assert capsys.readouterr().err == (
        "invariant failed: claimed bound violated at step 1: Neumann@0.6 (margin -1.847e+02)\n")
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["converged"] is True
    ledger = (tmp_path / "out" / "ledger.csv").read_text().strip().split("\n")
    assert len(ledger) == report["steps"] + 1


def test_a_sweep_names_every_failing_cell(tmp_path, monkeypatch, capsys):
    cfg = base_config()
    cfg["box"] = {"dimension": 1, "radius": 8, "interior_radius": 6}
    argv = ["sweep", "--config", write_config(tmp_path, cfg), "--override"]
    out = tmp_path / "steps"
    assert cli.main(argv + ["params.max_steps=1,40", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "max_steps=1: invariant failed: convergence (stop tolerance not reached)\n")
    with open(out / "sweep.csv", newline="") as fh:
        assert [row[:2] for row in csv.reader(fh)][1:] == [["max_steps=1", "False"],
                                                           ["max_steps=40", "True"]]
    # a strict cell refused by its ledger is named, and keeps its real row,
    # the empirical cell's, and both files
    _conditions_holding(monkeypatch)
    out = tmp_path / "strict"
    assert cli.main(argv + ["params.theory_checks=false,true", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "theory_checks=True: invariant failed: "
        "claimed bound violated at step 1: Neumann@0.6 (margin -1.797e+02)\n")
    with open(out / "sweep.csv", newline="") as fh:
        empirical, strict = list(csv.reader(fh))[1:]
    assert empirical[:3] == ["theory_checks=False", "True", "5"]
    assert strict[:2] == ["theory_checks=True", "True"] and strict[2:] == empirical[2:]
    assert sorted(p.name for p in (out / "theory_checks=True").iterdir()) == [
        "ledger.csv", "report.json"]
    # a cell that fails the symmetry verdict is named the same way; it did
    # converge, and its row says so
    monkeypatch.setattr(localization, "UNITARITY_TOL", 0.0)
    out = tmp_path / "symmetry"
    assert cli.main(argv + ["hopping.epsilon=0.1,0.05", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ", 1)[0] for line in err] == ["epsilon=0.1", "epsilon=0.05"]
    assert all(": invariant failed: symmetry defect: ||U^t U - I||_0 = " in line
               for line in err)
    with open(out / "sweep.csv", newline="") as fh:
        assert [row[1] for row in csv.reader(fh)][1:] == ["True", "True"]
    for cell in ("epsilon=0.1", "epsilon=0.05"):
        assert sorted(p.name for p in (out / cell).iterdir()) == ["ledger.csv", "report.json"]

    def silent(T, D, params):  # a cell that raises with no message still fails, by name
        raise RuntimeError()

    monkeypatch.setattr(cli, "run", silent)
    out = tmp_path / "raised"
    assert cli.main(argv + ["hopping.epsilon=0.1", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "epsilon=0.1: invariant failed: \n"
    # no cell wrote its directory, and the aggregate is still written
    assert (out / "sweep.csv").read_text() == (
        "cell,converged,steps,final_residual_0,dplus_norm,min_singular_value\n"
        "epsilon=0.1,False,nan,nan,nan,nan\n")
