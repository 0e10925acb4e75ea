"""The package and its CLI run on numpy and jsonschema alone: no module pulls
in scipy, at import or on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
import nmloc, nmloc.cli
from nmloc import (GOLDEN_MEAN, HoppingSpec, LatticeBox, PotentialSpec, SchemeParams,
                   build_hopping, build_potential, completeness_check, eigenfunctions,
                   ledger_to_csv, run, spectrum_compare)

box = LatticeBox(1, 16, 12)
D = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), box)
T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=0.1), box)
res = run(T, D, SchemeParams(tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0, Theta=2.0,
                             s_hopping=4.0, epsilon=0.1))
assert res.converged
eigenfunctions(res)
completeness_check(res)
spectrum_compare(res)
ledger_to_csv(res.ledger)
assert nmloc.cli.main(["run", "--config", sys.argv[1], "--out-dir", sys.argv[2]]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_no_scipy_module_is_loaded_by_a_flagship_run(tmp_path):
    cfg = {
        "box": {"dimension": 1, "radius": 12, "interior_radius": 9},
        "potential": {"kind": "maryland", "omega": [0.6180339887498949]},
        "hopping": {"s_exponent": 4.0, "epsilon": 0.1},
        "params": {"tau": 1.0, "delta": 0.05, "alpha0": 0.6, "theta0": 2.0, "Theta": 2.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path), str(tmp_path / "out")],
        env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == []
