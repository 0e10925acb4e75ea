"""The separation scans of a diagonal.

The potential is a :class:`~nmloc.operators.DiagonalOperator`, the
truncation to a box of a d-dimensional complex sequence in a
translation-invariant Banach algebra: the sup norm, or for ``craig_mod1``
the sampled BV norm of its ``bv_profile``.  Only the window scan reads
that profile; ``run`` measures the separation constant in sup over in-box
pairs (``distal_gamma_box``).  ``window_scan`` measures each offset once,
and its ``WindowScan`` gives both the frontier gamma and a given pair's margin.

The separation scans never build a shifted sequence: they evaluate the
differences ``p_i - p_{i-k}`` directly, from the formula when the diagonal
has one (an exact generator on all of Z^d).  Without a formula, pairs whose
partner ``i - k`` leaves the box are skipped, never zero-filled, since
zero-filling corrupts sup norms of inverted differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSequenceError, DistalViolationError
from .operators import DiagonalOperator, sup_and_variation


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


def _inverted_difference_values(p: DiagonalOperator, k, window_mask):
    """Values 1/(p_i - p_{i-k}) over the window sites i whose partner i-k has
    a value: every site under a formula, else the in-box partners only."""
    box = p.box
    sites = box.sites[window_mask]
    base = p.values[window_mask]
    shifted_sites = sites - np.asarray(k, dtype=np.int64)
    if p.formula is not None:
        shifted = p.formula(shifted_sites)
    else:
        idx = box.site_index(shifted_sites)
        ok = idx >= 0
        sites, base, shifted = sites[ok], base[ok], p.values[idx[ok]]
    diffs = base - shifted
    hit = np.flatnonzero(diffs == 0)
    if hit.size:
        where = tuple(int(c) for c in sites[hit[0]])
        raise DistalViolationError(f"distal violation at (i={where}, k={k})")
    return 1.0 / diffs


def _inverted_profile(fn, shift, k):
    """The profile x -> 1/(f(x) - f(x - shift)); a zero difference raises."""

    def inv(x):
        d = fn(x) - fn(x - shift)
        if np.any(d == 0):
            raise DistalViolationError(f"distal violation on the profile grid, k={k}")
        return 1.0 / d

    return inv


def _first_min(pairs):
    """The ``(value, k)`` of ``pairs`` with the smallest value, the first on a tie."""
    value, k = min(pairs, key=lambda pair: pair[0])
    return float(value), k


@dataclass(frozen=True)
class WindowScan:
    """``(k, |k|, ||(p - sigma_k p)^-1||)`` for each measurable offset, in scan
    order.  The norms depend on neither tau nor gamma, so one scan answers
    every ``(tau, gamma)``."""

    rows: tuple[tuple[tuple[int, ...], int, float], ...]

    def gamma(self, tau: float):
        """``(gamma_best, worst_offset)``: min over k of |k|^tau / norm_k, the
        largest gamma passing the window (the worst margin is exactly zero)."""
        return _first_min((klen**tau / norm, k) for k, klen, norm in self.rows)

    def margin(self, tau: float, gamma: float) -> DistalReport:
        """The smallest gamma^-1 |k|^tau - norm_k and its offset."""
        least, worst = _first_min(((klen**tau) / gamma - norm, k) for k, klen, norm in self.rows)
        return DistalReport(tau, gamma, worst, least)


def window_scan(p: DiagonalOperator, max_offset: int) -> WindowScan:
    """Measure ``||(p - sigma_k p)^-1||`` once for each 0 < |k| <= max_offset.

    Norms are measured over the interior window.  An offset whose window
    sites all lack an in-box partner bounds nothing and is skipped; a scan
    with no measurable offset raises :class:`DegenerateSequenceError`.
    A diagonal with a ``bv_profile`` also has its inverted-difference
    profile measured in the sampled BV norm, and the larger value is kept;
    otherwise the sup of the lattice values is used.  An exact collision,
    on the lattice or on the profile grid, raises
    :class:`DistalViolationError`.
    """
    box = p.box
    if max_offset > 2 * box.radius:
        raise ValueError("max_offset exceeds twice the box radius")
    window = box.interior_mask
    prof = p.bv_profile
    rows = []
    for k in box.all_offsets(max_offset):
        inverted = _inverted_difference_values(p, k, window)
        if inverted.size == 0:
            continue
        norm = float(np.max(np.abs(inverted)))
        if prof is not None:
            shift = float(np.asarray(k, dtype=float) @ np.asarray(prof.omega))
            sup, tv = sup_and_variation(_inverted_profile(prof.fn, shift, k))
            norm = max(norm, sup + tv)
        rows.append((k, max(map(abs, k)), norm))
    if not rows:
        raise DegenerateSequenceError(f"no measurable pairs for any offset up to {max_offset}")
    return WindowScan(tuple(rows))


def distal_gamma_box(p: DiagonalOperator, tau: float):
    """Largest gamma certified over in-box index pairs of ``p``'s values.

    Returns ``(gamma_best, worst_offset)`` where
    gamma_best = min over offsets k of (min_{(i, i-k) in box^2} |d_i - d_{i-k}|) * |k|^tau.
    This is the constant actually consumed by divided-difference solves,
    whose divisors range over all in-box pairs rather than a window.
    """
    box, vals = p.box, p.values
    mins = box.offset_reduce(np.abs(vals[:, None] - vals[None, :]), np.minimum, np.inf)
    realized = np.isfinite(mins) & box.band_slots(0, np.inf)
    if np.any(mins[realized] == 0.0):
        slot = int(np.flatnonzero(realized & (mins == 0.0))[0])
        raise DistalViolationError(
            f"distal violation at offset {box.offset_vector(slot)}"
        )
    gammas = mins[realized] * box.offset_len[realized].astype(float) ** tau
    pos = int(np.argmin(gammas))
    slot = int(np.flatnonzero(realized)[pos])
    return float(gammas[pos]), box.offset_vector(slot)
