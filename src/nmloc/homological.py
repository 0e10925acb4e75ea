"""The three linear solves driving each conjugation step, and their checks.

* ``solve_generator``: the divided-difference solve for the off-diagonal
  generator W, from ``[D, W] + S_theta(G) = 0``; entrywise
  ``W_{i,j} = (S_theta G)_{i,j} / (d_j - d_i)``, with an exactly zero
  diagonal.  Divisors below ``EPS_FLOOR`` raise; they are never
  clamped, since clamping silently breaks the conjugation identity.

* ``solve_diagonal_correction``: the diagonal correction X killing the
  main diagonal of ``Q^{-1} X Q + Q^{-1} P Q + P'``, given the conjugated
  ``Q^{-1} P Q`` the step has already built.  The map is affine in X, so X
  is the direct linear solve.  Inside a run, X is checked by the step's
  ``solve_generator``: the source G built from X must have a zero main
  diagonal, and one that does not raises.

* ``neumann_invert``: inversion of ``I + W`` by a Neumann series under the
  smallness condition ``4 c0^2 ||W||_a0 <= 1/2``, kept in its result, and
  by a direct solve outside it.  Either way the inverse's underflowing
  tail is flushed (``operators.flush_underflow``) before it is returned.

Each solve returns what the conjugation step reads: ``W``, ``X`` and the
inverse ``V^-1`` with its smallness and its series term count or its
condition number.  The paper's proof devices are five functions of their
operands, which the certificate tests run and a step does not:
``generator_residual`` and ``generator_bound_margins`` (the equation's
residual on the solved entries and the norm bounds on an s-grid),
``neumann_residual`` and ``neumann_bound_margins``
(``||(I + W) V^-1 - I||_0``, one dense product, and the series bounds),
and ``fixed_point_check``, the Banach fixed-point iteration that
re-derives X inside the contraction regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DistalViolationError,
    FixedPointStalledError,
    NeumannSmallnessError,
)
from .operators import DiagonalOperator, LatticeOperator, TameConstants, flush_underflow

EPS_FLOOR = 1e-14  # smallest divisor |d_j - d_i| the generator solve accepts
FIXED_POINT_MAX_ITER = 200  # contraction-check iterations before it stalls
NEUMANN_TERM_TOL = 1e-14  # 0-norm of the newest series term that ends the sum
NEUMANN_MAX_TERMS = 400


def solve_generator(D: DiagonalOperator, G: LatticeOperator,
                    theta: float) -> LatticeOperator:
    """Solve [D, W] + S_theta(G) = 0 for the zero-diagonal generator W.

    The solve sets the entries of the band ``0 < |i - j|_inf <= theta``,
    ``box.band_mask(0, theta)``, and leaves every other entry zero.  A
    source ``G`` with a nonzero main diagonal raises ``ValueError``: a step
    removes that diagonal first, so one left over means a wrong diagonal
    correction.
    """
    box = G.box
    if D.box != box:
        raise ValueError("box mismatch")
    d = D.values
    sup_g = float(np.max(np.abs(G.entries)))
    diag_dev = float(np.max(np.abs(np.diagonal(G.entries))))
    if diag_dev > 1e-9 * (1.0 + sup_g):
        raise ValueError(f"unreduced diagonal: max |diag(G)| = {diag_dev:.3e}")

    divisors = d[None, :] - d[:, None]  # (i, j) -> d_j - d_i
    need = box.band_mask(0, theta)  # inside the band, so S_theta G = G there
    small = need & (np.abs(divisors) < EPS_FLOOR)
    if np.any(small):
        i, j = np.argwhere(small)[0]
        raise DistalViolationError(
            f"distal violation at (i={tuple(box.sites[i])}, j={tuple(box.sites[j])}):"
            f" divisor {abs(divisors[i, j]):.3e} below floor {EPS_FLOOR:.1e}"
        )

    w = np.zeros_like(G.entries)
    np.divide(G.entries, divisors, out=w, where=need)
    return LatticeOperator(box, w)


def generator_residual(D: DiagonalOperator, G: LatticeOperator, W: LatticeOperator,
                       theta: float) -> float:
    """``max |[D, W] + S_theta G|`` over the entries the solve sets, the band
    ``0 < |i - j|_inf <= theta``, where ``S_theta G`` is ``G``."""
    d = D.values
    resid = np.abs((d[:, None] - d[None, :]) * W.entries + G.entries)
    resid[~G.box.band_mask(0, theta)] = 0.0
    return float(np.max(resid))


def generator_bound_margins(G: LatticeOperator, W: LatticeOperator, theta: float,
                            tau: float, gamma: float, s_grid) -> dict:
    """``gamma^-1 ||S_theta G||_{s+tau} - ||W||_s`` for each s in ``s_grid``;
    nonnegative whenever ``gamma`` is a valid in-box separation constant for
    the diagonal of the solve."""
    sg = G.smooth(theta)
    return {
        float(s): sg.sobolev_norm(float(s) + tau) / gamma - W.sobolev_norm(float(s))
        for s in s_grid
    }


def _affine_system(Q, Qinv, QPQ, Pprime):
    """``(M, c)`` with ``diag(Qinv X Q + QPQ + P') = M x + c`` for ``X = diag(x)``."""
    c = np.diagonal(QPQ.entries) + np.diagonal(Pprime.entries)
    return Qinv.entries * Q.entries.T, c


def solve_diagonal_correction(Q: LatticeOperator, Qinv: LatticeOperator,
                              QPQ: LatticeOperator,
                              Pprime: LatticeOperator) -> DiagonalOperator:
    """The diagonal X with diag(Qinv X Q + QPQ + P') = 0, where QPQ = Qinv P Q,
    by the direct affine solve."""
    M, c = _affine_system(Q, Qinv, QPQ, Pprime)
    return DiagonalOperator(Q.box, np.linalg.solve(M, -c))


def fixed_point_check(Q: LatticeOperator, Qinv: LatticeOperator, QPQ: LatticeOperator,
                      Pprime: LatticeOperator, X: DiagonalOperator, tc: TameConstants,
                      tol: float = 1e-12) -> tuple[bool, float | None, float | None]:
    """Re-derive the diagonal correction X by the Banach fixed-point iteration.

    Returns ``(contraction_ok, cross_check, bound_margin)``.  When the
    smallness condition ``c0 ||Q - I||_a0 <= 1/10`` (and likewise for Qinv)
    holds, the contraction iteration x -> x - (M x + c) runs from zero until
    its defect ``max |M x + c|`` reaches ``tol``; ``cross_check`` is its gap
    to X and ``bound_margin`` the margin of
    ``||X||_a0 <= 2 (||QPQ||_a0 + ||P'||_a0)``.  An iteration that does not
    converge within ``FIXED_POINT_MAX_ITER`` steps raises
    :class:`FixedPointStalledError`.  Outside the regime nothing is iterated
    and the result is ``(False, None, None)``.
    """
    box = Q.box
    eye = DiagonalOperator.identity(box)
    a0 = tc.alpha0
    contraction_ok = (
        tc.c0 * (Q - eye).sobolev_norm(a0) <= 0.1
        and tc.c0 * (Qinv - eye).sobolev_norm(a0) <= 0.1
    )
    if not contraction_ok:
        return False, None, None

    M, c = _affine_system(Q, Qinv, QPQ, Pprime)
    y = np.zeros_like(c)
    iterations = 0
    y_defect = float(np.max(np.abs(M @ y + c)))
    while y_defect > tol:
        if iterations >= FIXED_POINT_MAX_ITER:
            raise FixedPointStalledError(
                f"fixed point stalled at defect {y_defect:.3e}", y_defect
            )
        y = y - (M @ y + c)
        iterations += 1
        y_defect = float(np.max(np.abs(M @ y + c)))
    gap = float(np.max(np.abs(y - X.values)))
    margin = 2.0 * (
        QPQ.sobolev_norm(a0) + Pprime.sobolev_norm(a0)
    ) - X.sobolev_norm(a0)
    return True, gap, margin


@dataclass
class NeumannResult:
    """``smallness`` is ``4 c0^2 ||W||_a0``, at most 1/2 exactly on the series
    path, which sets ``neumann_terms``; the direct-solve fallback sets
    ``condition_number``, the 1-norm condition number of ``I + W``."""

    Vinv: LatticeOperator
    smallness: float
    neumann_terms: int | None = None
    condition_number: float | None = None


def neumann_residual(W: LatticeOperator, Vinv: LatticeOperator) -> float:
    """``||(I + W) V^-1 - I||_0``, one dense product."""
    eye = DiagonalOperator.identity(W.box)
    return float(((eye + W) @ Vinv - eye).sobolev_norm(0.0))


def neumann_bound_margins(W: LatticeOperator, Vinv: LatticeOperator,
                          tc: TameConstants, s_grid) -> dict:
    """Margins of ``||V^-1 - I||_s <= 2 k1(s) ||W||_s`` for each s in
    ``s_grid``; the series regime guarantees them."""
    eye = DiagonalOperator.identity(W.box)
    return {
        float(s): 2.0 * tc.k1(float(s)) * W.sobolev_norm(float(s))
        - (Vinv - eye).sobolev_norm(float(s))
        for s in s_grid
    }


def neumann_invert(W: LatticeOperator, tc: TameConstants) -> NeumannResult:
    """Invert I + W, by the Neumann series when it certifiably converges.

    With the smallness ``4 c0^2 ||W||_a0 <= 1/2``, which the result keeps,
    the series is summed until the newest term falls below
    ``NEUMANN_TERM_TOL`` in the 0-norm.  Outside that regime it falls back
    to a direct solve and keeps the 1-norm condition number
    ``||I + W||_1 ||(I + W)^-1||_1`` instead of series data, read off the
    inverse it has just formed.

    Memory: the series holds three n x n buffers, its sum, the newest power
    of ``W`` and the product forming the next.  No buffer holds ``-W``: the
    term ``(-W)^k`` is ``(-1)^k W^k``, since negating a factor negates every
    rounded product exactly, so the signs go into the sum.  The fallback
    builds ``I + W`` in one buffer and inverts it by ``np.linalg.inv``,
    LAPACK's ``gesv`` against the identity, bit for bit the direct solve of
    ``(I + W) X = I``; inside that call numpy.linalg holds a copy of
    ``I + W`` and of the identity, which ``tracemalloc`` does not see.

    ``V^-1`` decays exponentially off the diagonal, so on a large box its
    tail runs into the subnormal range.  One ``flush_underflow`` on the
    returned inverse, for both paths, zeros every part below
    ``UNDERFLOW_FLOOR`` before any product reads it, so the step and every
    check read the flushed inverse.  The fallback's condition number is
    read off the inverse as LAPACK returns it; the flush moves no 1-norm.
    """
    box = W.box
    smallness = 4.0 * tc.c0**2 * W.sobolev_norm(tc.alpha0)
    terms = cond = None
    if smallness <= 0.5:
        acc = np.eye(box.n_sites, dtype=W.entries.dtype)
        power = W
        terms = 0
        while True:
            terms += 1
            # the term (-W)^k = (-1)^k W^k
            (np.subtract if terms % 2 else np.add)(acc, power.entries, out=acc)
            if power.sobolev_norm(0.0) <= NEUMANN_TERM_TOL:
                break
            if terms >= NEUMANN_MAX_TERMS:
                raise NeumannSmallnessError(
                    "Neumann series failed to reach the term tolerance"
                )
            power = power @ W
        vinv = acc
    else:
        v = np.eye(box.n_sites, dtype=W.entries.dtype)
        v += W.entries
        vinv = np.linalg.inv(v)
        cond = float(np.linalg.norm(v, 1) * np.linalg.norm(vinv, 1))

    return NeumannResult(flush_underflow(LatticeOperator(box, vinv)), smallness, terms, cond)
