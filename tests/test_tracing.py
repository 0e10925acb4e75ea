"""The benchmark tracer wraps the names it expects to find in nmloc."""

import importlib.util
import json
from pathlib import Path

import nmloc
import nmloc.cli
from nmloc import (
    GOLDEN_MEAN,
    HoppingSpec,
    LatticeBox,
    PotentialSpec,
    SchemeParams,
    LatticeOperator,
    build_hopping,
    build_potential,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_notes_every_neumann_inversion_of_a_run():
    box = LatticeBox(1, 16, 12)
    D = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), box)
    T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=0.1), box)
    params = SchemeParams(tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0, Theta=2.0,
                          s_hopping=4.0)
    tracer = load_tracing().Tracer()
    tracer.install(nmloc)
    try:
        result = nmloc.run(T, D, params)
    finally:
        tracer.uninstall()
    notes = [span[5] for span in tracer.spans if span[0] == "homological.neumann_invert"]
    assert result.converged and len(notes) == result.steps
    for terms, fallback in notes:
        assert isinstance(terms, int) and isinstance(fallback, bool)
        assert fallback or terms > 0
    # the box builds its per-offset table lazily, inside the run; without
    # this span box.build_s would time the site table only
    assert {"box.pair_tables", "homological.solve_generator",
            "homological.solve_diagonal_correction",
            "iteration.run"} <= {span[0] for span in tracer.spans}


def test_tracer_follows_a_sweep_through_the_cli(tmp_path, capsys):
    # the names the benchmark's cli-sweep trace wraps: two cells, each a
    # traced cmd_run with its unitarize, generator solves and certificate
    cfg = {
        "box": {"dimension": 1, "radius": 12, "interior_radius": 9},
        "potential": {"kind": "maryland", "omega": [GOLDEN_MEAN]},
        "hopping": {"s_exponent": 4.0, "epsilon": 0.1},
        "params": {"tau": 1.0, "delta": 0.05, "alpha0": 0.6, "theta0": 2.0, "Theta": 2.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    originals = (nmloc.cli.jsonschema, nmloc.cli.run, LatticeOperator.__matmul__)
    tracer = load_tracing().Tracer()
    tracer.install(nmloc, nmloc.cli)
    try:
        code = nmloc.cli.main(["sweep", "--config", str(path), "--override",
                               "hopping.epsilon=0.1,0.05", "--out-dir",
                               str(tmp_path / "sweep")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("cli.cmd_run") == 2
    assert {"iteration.unitarize", "homological.solve_generator",
            "localization.eigenfunctions", "localization.completeness_check",
            "localization.spectrum_compare"} <= set(names)
    notes = [span[5] for span in tracer.spans if span[0] == "homological.neumann_invert"]
    assert notes and all(
        isinstance(terms, int) and isinstance(fallback, bool) for terms, fallback in notes)
    assert (nmloc.cli.jsonschema, nmloc.cli.run, LatticeOperator.__matmul__) == originals
