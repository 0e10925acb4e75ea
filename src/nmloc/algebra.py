"""Coefficient sequences on a lattice box and their algebra norms.

Sequences model elements of a translation-invariant Banach algebra of
d-dimensional complex sequences, truncated to a box.  Two concrete norm
policies are shipped:

``SupNorm``
    The plain sup norm over the measurable (present) entries.  This is a
    genuine translation-invariant algebra norm and the default everywhere.

``SampledBV``
    For sequences sampled from a period-1 profile ``f`` along a frequency
    vector (``a_i = f(i . omega)``): sup plus discrete total variation of
    the profile on a uniform grid.  The sup part also includes the lattice
    values themselves so the sup norm never exceeds the reported value.

Entries that a translation pushes outside the box are marked absent and
excluded from norms; they are never zero-filled, since zero-filling
corrupts sup norms of inverted differences.  Sequences backed by a formula
(an exact generator on all of Z^d) translate by re-evaluating the formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .box import LatticeBox
from .errors import DegenerateSequenceError, DistalViolationError


@dataclass(frozen=True)
class TorusProfile:
    """Period-1 profile and frequency generating a quasi-periodic sequence."""

    fn: Callable[[np.ndarray], np.ndarray]
    omega: tuple[float, ...]

    def shifted(self, j) -> "TorusProfile":
        j = np.asarray(j, dtype=float)
        shift = float(j @ np.asarray(self.omega))
        base = self.fn
        return TorusProfile(lambda x, _s=shift, _f=base: _f(x - _s), self.omega)


class SupNorm:
    """Sup norm over present entries."""

    name = "sup"

    def sequence_norm(self, seq: "Sequence") -> float:
        vals = seq.values[seq.present]
        if vals.size == 0:
            raise DegenerateSequenceError("degenerate sequence")
        return float(np.max(np.abs(vals)))

    def __repr__(self):
        return "SupNorm()"


class SampledBV:
    """Sup plus sampled total variation of the generating profile.

    Requires the sequence to carry a :class:`TorusProfile`; there is no
    meaningful bounded-variation measurement for bare arrays.
    """

    name = "sampled_bv"

    def __init__(self, grid_points: int = 4096):
        if grid_points < 8:
            raise ValueError("grid_points too small to sample a period")
        self.grid_points = int(grid_points)

    def profile_norm(self, fn) -> float:
        x = np.arange(self.grid_points) / self.grid_points
        fx = np.asarray(fn(x), dtype=complex)
        sup = float(np.max(np.abs(fx)))
        tv = float(np.sum(np.abs(np.diff(fx)))) + float(abs(fx[0] - fx[-1]))
        return sup + tv

    def sequence_norm(self, seq: "Sequence") -> float:
        if seq.torus_profile is None:
            raise DegenerateSequenceError(
                "sampled BV norm requires a generating profile"
            )
        x = np.arange(self.grid_points) / self.grid_points
        fx = np.asarray(seq.torus_profile.fn(x), dtype=complex)
        sup = float(np.max(np.abs(fx)))
        vals = seq.values[seq.present]
        if vals.size:
            sup = max(sup, float(np.max(np.abs(vals))))
        tv = float(np.sum(np.abs(np.diff(fx)))) + float(abs(fx[0] - fx[-1]))
        return sup + tv

    def __repr__(self):
        return f"SampledBV(grid_points={self.grid_points})"


SUP_NORM = SupNorm()


class Sequence:
    """Complex sequence over a box with an attached norm policy.

    Immutable after construction.  ``present`` marks measurable entries;
    ``formula`` (sites -> values) makes the sequence exact off the box.
    """

    __slots__ = ("box", "values", "present", "policy", "formula", "torus_profile")

    def __init__(
        self,
        box: LatticeBox,
        values,
        present=None,
        policy=SUP_NORM,
        formula: Optional[Callable] = None,
        torus_profile: Optional[TorusProfile] = None,
    ):
        values = np.asarray(values, dtype=complex).reshape(box.n_sites).copy()
        if present is None:
            present = np.ones(box.n_sites, dtype=bool)
        else:
            present = np.asarray(present, dtype=bool).reshape(box.n_sites).copy()
        values[~present] = 0.0
        values.flags.writeable = False
        present.flags.writeable = False
        self.box = box
        self.values = values
        self.present = present
        self.policy = policy
        self.formula = formula
        self.torus_profile = torus_profile

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, box, value, policy=SUP_NORM):
        return cls(box, np.full(box.n_sites, value, dtype=complex), policy=policy)

    @classmethod
    def delta(cls, box, site, policy=SUP_NORM):
        vals = np.zeros(box.n_sites, dtype=complex)
        idx = box.site_index(site)
        if idx < 0:
            raise ValueError(f"site {site} outside the box")
        vals[idx] = 1.0
        return cls(box, vals, policy=policy)

    @classmethod
    def from_formula(cls, box, formula, policy=SUP_NORM, torus_profile=None):
        vals = np.asarray(formula(box.sites), dtype=complex)
        return cls(
            box, vals, policy=policy, formula=formula, torus_profile=torus_profile
        )

    # -- pointwise algebra (used by the property suites) --------------------

    def _combine(self, other, op):
        if self.box != other.box:
            raise ValueError("box mismatch")
        present = self.present & other.present
        values = op(self.values, other.values)
        formula = None
        if self.formula is not None and other.formula is not None:
            fa, fb = self.formula, other.formula
            formula = lambda s: op(fa(s), fb(s))
        return Sequence(self.box, values, present, self.policy, formula)

    def __mul__(self, other):
        if isinstance(other, Sequence):
            return self._combine(other, lambda a, b: a * b)
        return Sequence(
            self.box, self.values * other, self.present, self.policy,
            None if self.formula is None else (lambda s, f=self.formula: f(s) * other),
        )

    __rmul__ = __mul__

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __len__(self):
        return self.box.n_sites


def algebra_norm(a: Sequence) -> float:
    """Norm of ``a`` under its policy.  Raises on degenerate input."""
    return a.policy.sequence_norm(a)


def translate(a: Sequence, j) -> Sequence:
    """The shifted sequence (sigma_j a)_i = a_{i-j}.

    Formula-backed sequences translate exactly; array-backed ones mark the
    entries whose preimage leaves the box as absent.
    """
    j = np.asarray(j, dtype=np.int64).reshape(a.box.dimension)
    if np.max(np.abs(j)) > 2 * a.box.radius:
        raise ValueError("translation exceeds twice the box radius")
    profile = a.torus_profile.shifted(j) if a.torus_profile is not None else None
    if a.formula is not None:
        f = a.formula
        shifted = lambda s, _j=j.copy(): f(np.asarray(s) - _j)
        return Sequence(
            a.box, shifted(a.box.sites), policy=a.policy, formula=shifted,
            torus_profile=profile,
        )
    src = a.box.site_index(a.box.sites - j)
    ok = src >= 0
    values = np.zeros(a.box.n_sites, dtype=complex)
    present = np.zeros(a.box.n_sites, dtype=bool)
    values[ok] = a.values[src[ok]]
    present[ok] = a.present[src[ok]]
    return Sequence(a.box, values, present, a.policy, torus_profile=profile)


@dataclass(frozen=True)
class DistalReport:
    """Result of scanning the separation condition over a window."""

    tau: float
    gamma: float
    worst_offset: tuple[int, ...]
    empirical_margin: float

    @property
    def passed(self) -> bool:
        return self.empirical_margin >= 0.0


def _inverted_difference_values(p: Sequence, k, window_mask):
    """Values 1/(p_i - p_{i-k}) on the window, plus their site count."""
    box = p.box
    sites = box.sites[window_mask]
    base = p.values[window_mask]
    base_ok = p.present[window_mask]
    shifted_sites = sites - np.asarray(k, dtype=np.int64)
    if p.formula is not None:
        shifted = np.asarray(p.formula(shifted_sites), dtype=complex)
        ok = base_ok
    else:
        idx = box.site_index(shifted_sites)
        ok = base_ok & (idx >= 0)
        shifted = np.zeros(len(sites), dtype=complex)
        shifted[ok] = p.values[idx[ok]]
        ok = ok & np.where(idx >= 0, p.present[np.maximum(idx, 0)], False)
    diffs = base[ok] - shifted[ok]
    if diffs.size == 0:
        raise DegenerateSequenceError(
            f"no measurable pairs for offset {tuple(int(c) for c in k)}"
        )
    hit = np.flatnonzero(diffs == 0)
    if hit.size:
        where = tuple(int(c) for c in sites[ok][hit[0]])
        raise DistalViolationError(
            f"distal violation at (i={where}, k={tuple(int(c) for c in k)})"
        )
    return 1.0 / diffs


def _inverted_profile(fn, shift, k):
    """The profile x -> 1/(f(x) - f(x - shift)); a zero difference raises."""

    def inv(x):
        d = fn(x) - fn(x - shift)
        if np.any(d == 0):
            raise DistalViolationError(f"distal violation on the profile grid, k={k}")
        return 1.0 / d

    return inv


def _distal_scan(p: Sequence, max_offset: int, window_radius: int | None):
    """Yield ``(k, |k|, ||(p - sigma_k p)^-1||)`` for every 0 < |k| <= max_offset.

    Norms are measured over the interior window (or ``window_radius``).
    Under the SampledBV policy the inverted-difference profile is also
    sampled on the policy grid and the larger value is kept; otherwise the
    sup of the lattice values is used.  An exact collision, on the lattice
    or on the profile grid, raises :class:`DistalViolationError`.
    """
    box = p.box
    if max_offset > 2 * box.radius:
        raise ValueError("max_offset exceeds twice the box radius")
    m = box.interior_radius if window_radius is None else int(window_radius)
    window = np.max(np.abs(box.sites), axis=1) <= m
    prof = p.torus_profile if isinstance(p.policy, SampledBV) else None
    for k in box.all_offsets(max_offset):
        norm = float(np.max(np.abs(_inverted_difference_values(p, k, window))))
        if prof is not None:
            shift = float(np.asarray(k, dtype=float) @ np.asarray(prof.omega))
            norm = max(norm, p.policy.profile_norm(_inverted_profile(prof.fn, shift, k)))
        yield k, max(abs(int(c)) for c in k), norm


def distal_margin(
    p: Sequence,
    tau: float,
    gamma: float,
    max_offset: int,
    window_radius: int | None = None,
) -> DistalReport:
    """Scan gamma^-1 |k|^tau - ||(p - sigma_k p)^-1|| over all 0 < |k| <= max_offset.

    The norms come from the shared scan (see :func:`_distal_scan`); the
    report keeps the smallest margin and its offset.
    """
    worst = None
    min_margin = np.inf
    for k, klen, norm in _distal_scan(p, max_offset, window_radius):
        margin = (klen**tau) / gamma - norm
        if margin < min_margin:
            min_margin = margin
            worst = k
    return DistalReport(tau, gamma, tuple(worst), float(min_margin))


def distal_gamma_window(
    p: Sequence,
    tau: float,
    max_offset: int,
    window_radius: int | None = None,
):
    """Largest gamma passing the window scan: min over k of |k|^tau / norm_k.

    Reduces the same scan as :func:`distal_margin`; the returned constant
    makes the worst offset's margin exactly zero.
    """
    best = np.inf
    worst = None
    for k, klen, norm in _distal_scan(p, max_offset, window_radius):
        gamma_k = klen**tau / norm
        if gamma_k < best:
            best = gamma_k
            worst = k
    return float(best), tuple(worst)


def distal_gamma_box(values, box: LatticeBox, tau: float):
    """Largest gamma certified over in-box index pairs.

    Returns ``(gamma_best, worst_offset)`` where
    gamma_best = min over offsets k of (min_{(i, i-k) in box^2} |d_i - d_{i-k}|) * |k|^tau.
    This is the constant actually consumed by divided-difference solves,
    whose divisors range over all in-box pairs rather than a window.
    """
    vals = np.asarray(values, dtype=complex).reshape(box.n_sites)
    diffs = np.abs(vals[:, None] - vals[None, :])
    mins = np.full(box.n_offset_slots, np.inf)
    np.minimum.at(mins, box.pair_offset_flat.ravel(), diffs.ravel())
    lens = box.offset_len
    realized = np.isfinite(mins) & (lens > 0)
    if np.any(mins[realized] == 0.0):
        slot = int(np.flatnonzero(realized & (mins == 0.0))[0])
        raise DistalViolationError(
            f"distal violation at offset {box.offset_vector(slot)}"
        )
    gammas = mins[realized] * lens[realized].astype(float) ** tau
    pos = int(np.argmin(gammas))
    slot = int(np.flatnonzero(realized)[pos])
    return float(gammas[pos]), box.offset_vector(slot)
