"""Concrete diagonal potentials and the polynomial long-range hopping.

Every potential but ``custom`` is formula-backed, so the distal scans
read exact values beyond the box; a ``custom`` potential has only its
in-box values.  Every norm is the sup norm except ``craig_mod1``'s, whose
diagonal carries its profile ``x mod 1`` as a ``bv_profile``.

Available kinds:

* ``maryland``       d_i = tan(pi i.omega)
* ``sarnak``         d_i = exp(2 pi sqrt(-1) i.omega)    (complex, non-normal)
* ``craig_mod1``     d_i = (i.omega) mod 1
* ``limit_periodic_binary`` / ``limit_periodic_ternary``
      the classic limit-periodic staircases built from characteristic
      functions of nested dyadic unions; binary values are dense in [0, 1],
      ternary values in the middle-thirds Cantor set
* ``custom``         explicit values supplied by the caller
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence as Seq

import numpy as np

from .box import LatticeBox
from .operators import DiagonalOperator, HoppingSymbol, TorusProfile

POTENTIAL_KINDS = (
    "maryland",
    "sarnak",
    "craig_mod1",
    "limit_periodic_binary",
    "limit_periodic_ternary",
    "custom",
)


@dataclass(frozen=True)
class PotentialSpec:
    kind: str
    omega: Optional[tuple[float, ...]] = None
    custom_values: Optional[Seq[complex]] = None

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"kind {self.kind!r} is not one of {POTENTIAL_KINDS}")
        if self.kind in ("maryland", "sarnak", "craig_mod1") and self.omega is None:
            raise ValueError(f"omega is required by potential kind {self.kind!r}")
        if self.kind == "custom" and self.custom_values is None:
            raise ValueError("custom_values is required by potential kind 'custom'")
        if self.omega is not None:  # checked before float() overflows on a huge integer
            if not all(abs(w) <= sys.float_info.max for w in self.omega):
                raise ValueError(f"omega entries must be finite, got {self.omega}")
            object.__setattr__(self, "omega", tuple(float(w) for w in self.omega))
        if self.custom_values is not None and not all(
                abs(v) <= sys.float_info.max for v in np.ravel(self.custom_values)):
            raise ValueError("custom_values entries must be finite")

    def check_box(self, box: LatticeBox):
        """Refuse an ``omega`` or ``custom_values`` whose length does not fit
        ``box``."""
        if self.omega is not None and len(self.omega) != box.dimension:
            raise ValueError(f"omega has {len(self.omega)} entries, "
                             f"the box dimension is {box.dimension}")
        if self.custom_values is not None and np.shape(self.custom_values) != (box.n_sites,):
            raise ValueError(f"custom_values has shape {np.shape(self.custom_values)}, "
                             f"the box has {box.n_sites} sites")


@dataclass(frozen=True)
class HoppingSpec:
    s_exponent: float
    epsilon: float = 0.0

    def __post_init__(self):
        # +inf is a finite-range hopping; NaN and an integer no float can hold fail
        if not (0 < self.s_exponent <= sys.float_info.max or self.s_exponent == math.inf):
            raise ValueError(f"s_exponent must be a positive float or +inf, got {self.s_exponent}")
        if not 0 <= self.epsilon <= sys.float_info.max:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")


def _chi_dyadic(i: np.ndarray, v: int) -> np.ndarray:
    """Indicator of the v-th dyadic union, alternating parity convention.

    Even v keeps the lower half of each block of length 2^v, odd v the
    upper half.  The staircase stops before v = 61 (its weights fall below
    1e-18), so the block length fits an int64.
    """
    block = np.int64(1) << v
    half = np.int64(1) << (v - 1)
    r = np.mod(i, block)
    return (r < half) if v % 2 == 0 else (r >= half)


def _limit_periodic_formula(dimension: int, base: int, scale: float):
    """Formula for the staircase sum over (v, u) with weights base^-((v-1)d+u)."""

    def formula(sites):
        sites = np.asarray(sites, dtype=np.int64).reshape(-1, dimension)
        out = np.zeros(len(sites), dtype=float)
        for v in itertools.count(1):
            weight0 = float(base) ** (-((v - 1) * dimension + 1))
            if weight0 < 1e-18:
                break
            for u in range(1, dimension + 1):
                w = float(base) ** (-((v - 1) * dimension + u))
                out += w * _chi_dyadic(sites[:, u - 1], v)
        return scale * out

    return formula


def _pole_distance(x: np.ndarray) -> np.ndarray:
    """Distance of x to Z + 1/2 (the tan poles), measured on the torus."""
    r = np.mod(x - 0.5, 1.0)
    return np.minimum(r, 1.0 - r)


def build_potential(spec: PotentialSpec, box: LatticeBox) -> DiagonalOperator:
    """Assemble the diagonal operator for a potential spec on a box.

    ``craig_mod1`` carries its generating profile as ``bv_profile``, so its
    norm is the sampled bounded-variation norm (its natural algebra); every
    other kind has the sup norm.
    """
    spec.check_box(box)
    if spec.kind == "custom":
        return DiagonalOperator(box, spec.custom_values)

    if spec.kind in ("maryland", "sarnak", "craig_mod1"):
        omega = np.asarray(spec.omega, dtype=float)
        if spec.kind == "maryland":
            fn = lambda x: np.tan(np.pi * np.asarray(x, dtype=float))
            dist = _pole_distance(box.sites @ omega)
            if float(np.min(dist)) < 1e-8:
                worst = box.sites[int(np.argmin(dist))]
                raise ValueError(
                    f"tan pole proximity {float(np.min(dist)):.2e} at site "
                    f"{tuple(int(c) for c in worst)}"
                )
        elif spec.kind == "sarnak":
            fn = lambda x: np.exp(2j * np.pi * np.asarray(x, dtype=float))
        else:
            fn = lambda x: np.mod(np.asarray(x, dtype=float), 1.0)
        formula = lambda sites: fn(np.asarray(sites, dtype=np.int64) @ omega)
        profile = TorusProfile(fn, tuple(omega)) if spec.kind == "craig_mod1" else None
        return DiagonalOperator(box, formula(box.sites), formula=formula,
                                bv_profile=profile)

    base, scale = (2, 1.0) if spec.kind == "limit_periodic_binary" else (3, 2.0)
    formula = _limit_periodic_formula(box.dimension, base, scale)
    return DiagonalOperator(box, formula(box.sites), formula=formula)


def build_hopping(spec: HoppingSpec, box: LatticeBox) -> HoppingSymbol:
    """Toeplitz hopping with entries eps * phi_{i-j}, as its radial symbol.

    The power-law profile is phi_k = |k|_inf^(-s) off the main diagonal and
    phi_0 = 0; it depends on r = |k|_inf only, so the operator is its 2N + 1
    values eps * phi at r = 0..2N, and it is real symmetric.  The coupling
    is baked in here once; downstream code never rescales.
    """
    r = np.arange(2 * box.radius + 1, dtype=float)
    with np.errstate(divide="ignore"):
        phi = np.where(r == 0.0, 0.0, r ** (-spec.s_exponent))
    return HoppingSymbol(box, spec.epsilon * phi)


def check_diophantine(omega, tau: float, max_k: int):
    """Largest gamma with ||k.omega||_{R/Z} >= gamma / |k|^tau on the window.

    Scans all 0 < |k|_inf <= max_k and returns ``(gamma_best, worst_k)``.
    A torus distance at float resolution signals a rational frequency and
    raises.
    """
    omega = np.asarray(omega, dtype=float).reshape(-1)
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    d = len(omega)
    rng = range(-max_k, max_k + 1)
    gamma_best = np.inf
    worst = None
    for k in itertools.product(rng, repeat=d):
        if not any(k):
            continue
        x = float(np.asarray(k, dtype=float) @ omega)
        dist = abs(x - round(x))
        if dist < 1e-12:
            raise ValueError(f"rational frequency: ||k.omega|| = 0 at k={k}")
        klen = max(abs(c) for c in k)
        val = dist * klen**tau
        if val < gamma_best:
            gamma_best = val
            worst = k
    return float(gamma_best), tuple(worst)


GOLDEN_MEAN = (np.sqrt(5.0) - 1.0) / 2.0
