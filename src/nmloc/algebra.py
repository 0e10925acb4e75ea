"""The separation scans of a diagonal.

The potential is a :class:`~nmloc.operators.DiagonalOperator`, the
truncation to a box of a d-dimensional complex sequence in a
translation-invariant Banach algebra: the sup norm, or for ``craig_mod1``
the sampled BV norm of its ``bv_profile``.  Only the window scan reads
that profile; ``run`` measures the separation constant in sup over in-box
pairs.

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


def _distal_scan(p: DiagonalOperator, max_offset: int):
    """Yield ``(k, |k|, ||(p - sigma_k p)^-1||)`` for every 0 < |k| <= max_offset
    with a measurable pair.

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
    measured = False
    for k in box.all_offsets(max_offset):
        inverted = _inverted_difference_values(p, k, window)
        if inverted.size == 0:
            continue
        measured = True
        norm = float(np.max(np.abs(inverted)))
        if prof is not None:
            shift = float(np.asarray(k, dtype=float) @ np.asarray(prof.omega))
            sup, tv = sup_and_variation(_inverted_profile(prof.fn, shift, k))
            norm = max(norm, sup + tv)
        yield k, max(abs(int(c)) for c in k), norm
    if not measured:
        raise DegenerateSequenceError(
            f"no measurable pairs for any offset up to {max_offset}"
        )


def distal_margin(p: DiagonalOperator, tau: float, gamma: float,
                  max_offset: int) -> DistalReport:
    """Scan gamma^-1 |k|^tau - ||(p - sigma_k p)^-1|| over all 0 < |k| <= max_offset.

    The norms come from the shared scan (see :func:`_distal_scan`); the
    report keeps the smallest margin and its offset.
    """
    worst = None
    min_margin = np.inf
    for k, klen, norm in _distal_scan(p, max_offset):
        margin = (klen**tau) / gamma - norm
        if margin < min_margin:
            min_margin = margin
            worst = k
    return DistalReport(tau, gamma, tuple(worst), float(min_margin))


def distal_gamma_window(p: DiagonalOperator, tau: float, max_offset: int):
    """Largest gamma passing the window scan: min over k of |k|^tau / norm_k.

    Reduces the same scan as :func:`distal_margin`; the returned constant
    makes the worst offset's margin exactly zero.
    """
    best = np.inf
    worst = None
    for k, klen, norm in _distal_scan(p, max_offset):
        gamma_k = klen**tau / norm
        if gamma_k < best:
            best = gamma_k
            worst = k
    return float(best), tuple(worst)


def distal_gamma_box(p: DiagonalOperator, tau: float):
    """Largest gamma certified over in-box index pairs of ``p``'s values.

    Returns ``(gamma_best, worst_offset)`` where
    gamma_best = min over offsets k of (min_{(i, i-k) in box^2} |d_i - d_{i-k}|) * |k|^tau.
    This is the constant actually consumed by divided-difference solves,
    whose divisors range over all in-box pairs rather than a window.
    """
    box, vals = p.box, p.values
    mins = box.offset_reduce(np.abs(vals[:, None] - vals[None, :]), np.minimum, np.inf)
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
