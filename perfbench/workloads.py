"""Workload table for the benchmark and the seed -> input mapping.

Pure Python on purpose: the setup probe imports this module before it
starts its clock, so nothing here may pull in numpy or nmloc.

Every workload is a Maryland or Sarnak model with delta=0.05 and
theta0=Theta=2.  The seed picks the frequency from a fixed family of
quadratic irrationals (d=2 uses pairs of them); the program only ever sees
the generated specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FAMILY = {
    "golden": (math.sqrt(5.0) - 1.0) / 2.0,
    "silver": math.sqrt(2.0) - 1.0,
    "two-minus-phi": 2.0 - (1.0 + math.sqrt(5.0)) / 2.0,
    "sqrt3-minus-1": math.sqrt(3.0) - 1.0,
}

D1_FREQUENCIES = (("golden",), ("silver",), ("two-minus-phi",), ("sqrt3-minus-1",))
# the three pairs whose d=2 runs converge with a passing certificate
D2_FREQUENCIES = (
    ("golden", "silver"),
    ("golden", "sqrt3-minus-1"),
    ("silver", "sqrt3-minus-1"),
)

DELTA = 0.05
THETA0 = 2.0
THETA = 2.0

# cli-sweep axes: 4 x 2 x 3 = 24 cells, all d=1 Maryland with interior 32
SWEEP_AXES = (
    ("hopping.epsilon", "0.2,0.1,0.05,0.02"),
    ("params.mode", "inverse,direct"),
    ("box.radius", "48,64,96"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    via_cli: bool
    dimension: int
    radius: int
    interior: int
    potential: str
    s: float
    eps: float
    tau: float
    alpha0: float
    mode: str
    frequencies: tuple
    # real symmetric data: unitarize and the spectrum check are defined
    symmetric: bool

    def frequency(self, seed: int) -> tuple[str, ...]:
        return self.frequencies[seed % len(self.frequencies)]

    def omega(self, seed: int) -> tuple[float, ...]:
        return tuple(FAMILY[name] for name in self.frequency(seed))

    def frequency_key(self, seed: int) -> str:
        return "+".join(self.frequency(seed))

    def params_kwargs(self) -> dict:
        return dict(
            tau=self.tau, delta=DELTA, alpha0=self.alpha0, theta0=THETA0,
            Theta=THETA, s_hopping=self.s, epsilon=self.eps, mode=self.mode,
        )

    def base_config(self, seed: int) -> dict:
        """The sweep's base config; the axes override eps, mode and radius."""
        return {
            "box": {"dimension": self.dimension, "radius": self.radius,
                    "interior_radius": self.interior},
            "potential": {"kind": self.potential, "omega": list(self.omega(seed))},
            "hopping": {"s_exponent": self.s, "epsilon": self.eps},
            "params": {"tau": self.tau, "delta": DELTA, "alpha0": self.alpha0,
                       "theta0": THETA0, "Theta": THETA, "mode": self.mode},
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="maryland-d1",
            why="real symmetric inverse-mode flagship; dense products dominate, "
            "runs unitarize and the spectrum check",
            via_cli=False, dimension=1, radius=256, interior=200,
            potential="maryland", s=4.0, eps=0.1, tau=1.0, alpha0=0.6,
            mode="inverse", frequencies=D1_FREQUENCIES, symmetric=True,
        ),
        Workload(
            name="sarnak-d1-direct",
            why="complex non-normal direct mode; bypasses the diagonal "
            "correction, unitarize and the spectrum check",
            via_cli=False, dimension=1, radius=256, interior=200,
            potential="sarnak", s=4.0, eps=0.05, tau=1.0, alpha0=0.6,
            mode="direct", frequencies=D1_FREQUENCIES, symmetric=False,
        ),
        Workload(
            name="maryland-d2",
            why="d=2: Neumann falls back with an SVD condition number every "
            "step; most offset slots and eigenfunction centers",
            via_cli=False, dimension=2, radius=12, interior=9,
            potential="maryland", s=5.0, eps=0.02, tau=2.0, alpha0=1.2,
            mode="inverse", frequencies=D2_FREQUENCIES, symmetric=True,
        ),
        Workload(
            name="cli-sweep",
            why="24-cell nmloc sweep in process: small matrices, schema "
            "validation and report/ledger file output",
            via_cli=True, dimension=1, radius=48, interior=32,
            potential="maryland", s=4.0, eps=0.1, tau=1.0, alpha0=0.6,
            mode="inverse", frequencies=D1_FREQUENCIES, symmetric=True,
        ),
    )
}
