"""The benchmark tracer wraps the names it expects to find in nmloc."""

import importlib.util
from pathlib import Path

import nmloc
from nmloc import (
    GOLDEN_MEAN,
    HoppingSpec,
    LatticeBox,
    PotentialSpec,
    SchemeParams,
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
    assert {"homological.solve_generator", "homological.solve_diagonal_correction",
            "iteration.run"} <= {span[0] for span in tracer.spans}
