"""The three linear solves driving each conjugation step, and their checks.

* ``solve_generator``: the divided-difference solve for the off-diagonal
  generator W, from ``[D, W] + S_theta(G) = 0``; entrywise
  ``W_{i,j} = (S_theta G)_{i,j} / (d_j - d_i)``, with an exactly zero
  diagonal.  Divisors below ``EPS_FLOOR`` raise; they are never
  clamped, since clamping silently breaks the conjugation identity.  The
  entrywise residual of that equation is formed only when read.

* ``solve_diagonal_correction``: the diagonal correction X killing the
  main diagonal of ``Q^{-1} X Q + Q^{-1} P Q + P'``, given the conjugated
  ``Q^{-1} P Q`` the step has already built.  The map is affine in X, so X
  is the direct linear solve.  Inside a run, X is checked by the step's
  ``solve_generator``: the source G built from X must have a zero main
  diagonal, and one that does not raises.

* ``neumann_invert``: inversion of ``I + W`` by a Neumann series under the
  smallness condition ``4 c0^2 ||W||_a0 <= 1/2``, with a direct-solve
  fallback for out-of-regime inputs that reports the exact 1-norm
  condition number of ``I + W``.  The inversion residual
  ``||(I + W) V^-1 - I||_0`` costs a dense product, so it is formed only
  when read.

Each solver returns what the conjugation step reads.  The paper's proof
devices are separate checks, which the certificate tests run and a step
does not: ``HomologicalSolution.bound_margins`` and
``NeumannResult.bound_margins`` (norms on an s-grid), and
``fixed_point_check``, the Banach fixed-point iteration that re-derives X
inside the contraction regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DistalViolationError,
    FixedPointStalledError,
    NeumannSmallnessError,
)
from .operators import DiagonalOperator, LatticeOperator, TameConstants

EPS_FLOOR = 1e-14  # smallest divisor |d_j - d_i| the generator solve accepts
FIXED_POINT_MAX_ITER = 200  # contraction-check iterations before it stalls
NEUMANN_TERM_TOL = 1e-14  # 0-norm of the newest series term that ends the sum
NEUMANN_MAX_TERMS = 400


@dataclass
class HomologicalSolution:
    """``W`` solves ``[D, W] + SG = 0`` on the ``solved`` entries, where
    ``SG`` is the band-truncated source."""

    W: LatticeOperator
    D: DiagonalOperator
    SG: LatticeOperator
    solved: np.ndarray  # in-band off-diagonal entries

    @property
    def residual_offdiag(self) -> float:
        """``max |[D, W] + SG|`` over the solved entries, formed per read."""
        d = self.D.values
        resid = np.abs((d[:, None] - d[None, :]) * self.W.entries + self.SG.entries)
        resid[~self.solved] = 0.0
        return float(np.max(resid))

    def bound_margins(self, tau: float, gamma: float, s_grid) -> dict:
        """``gamma^-1 ||SG||_{s+tau} - ||W||_s`` for each s in ``s_grid``;
        nonnegative whenever ``gamma`` is a valid in-box separation constant
        for ``D``."""
        return {
            float(s): self.SG.sobolev_norm(float(s) + tau) / gamma
            - self.W.sobolev_norm(float(s))
            for s in s_grid
        }


def solve_generator(D: DiagonalOperator, G: LatticeOperator,
                    theta: float) -> HomologicalSolution:
    """Solve [D, W] + S_theta(G) = 0 for the zero-diagonal generator W.

    A source ``G`` with a nonzero main diagonal raises ``ValueError``: a
    step removes that diagonal first, so one left over means a wrong
    diagonal correction.
    """
    box = G.box
    if D.box != box:
        raise ValueError("box mismatch")
    d = D.values
    sup_g = float(np.max(np.abs(G.entries)))
    diag_dev = float(np.max(np.abs(np.diagonal(G.entries))))
    if diag_dev > 1e-9 * (1.0 + sup_g):
        raise ValueError(f"unreduced diagonal: max |diag(G)| = {diag_dev:.3e}")

    sg = G.smooth(theta)
    divisors = d[None, :] - d[:, None]  # (i, j) -> d_j - d_i
    need = box.smooth_mask(theta)  # the in-band off-diagonal entries
    np.fill_diagonal(need, False)
    small = need & (np.abs(divisors) < EPS_FLOOR)
    if np.any(small):
        i, j = np.argwhere(small)[0]
        raise DistalViolationError(
            f"distal violation at (i={tuple(box.sites[i])}, j={tuple(box.sites[j])}):"
            f" divisor {abs(divisors[i, j]):.3e} below floor {EPS_FLOOR:.1e}"
        )

    w = np.zeros_like(sg.entries)
    np.divide(sg.entries, divisors, out=w, where=need)
    return HomologicalSolution(LatticeOperator(box, w), D, sg, need)


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
    """``neumann_terms`` is set on the series path, ``condition_number`` (the
    1-norm condition number of ``I + W``) on the direct-solve fallback."""

    Vinv: LatticeOperator
    W: LatticeOperator
    neumann_terms: int | None = None
    condition_number: float | None = None

    @property
    def residual(self) -> float:
        """``||(I + W) V^-1 - I||_0``, one dense product per read."""
        eye = DiagonalOperator.identity(self.W.box)
        return float(((eye + self.W) @ self.Vinv - eye).sobolev_norm(0.0))

    def bound_margins(self, tc: TameConstants, s_grid) -> dict:
        """Margins of ``||V^-1 - I||_s <= 2 k1(s) ||W||_s`` for each s in
        ``s_grid``; the series regime guarantees them."""
        eye = DiagonalOperator.identity(self.W.box)
        return {
            float(s): 2.0 * tc.k1(float(s)) * self.W.sobolev_norm(float(s))
            - (self.Vinv - eye).sobolev_norm(float(s))
            for s in s_grid
        }


def neumann_invert(W: LatticeOperator, tc: TameConstants,
                   strict: bool = True) -> NeumannResult:
    """Invert I + W, preferring the Neumann series when it certifiably converges.

    With ``4 c0^2 ||W||_a0 <= 1/2`` the series is summed until the newest
    term falls below ``NEUMANN_TERM_TOL`` in the 0-norm.  Outside that
    regime, ``strict=True`` raises while ``strict=False`` falls back to a
    direct solve and reports the 1-norm condition number
    ``||I + W||_1 ||(I + W)^-1||_1`` instead of series data, read off the
    inverse it has just formed.  The result's
    ``residual`` is computed when it is read.

    Memory: the series holds three n x n buffers, its sum, the newest power
    of ``W`` and the product forming the next.  No buffer holds ``-W``: the
    term ``(-W)^k`` is ``(-1)^k W^k``, since negating a factor negates every
    rounded product exactly, so the signs go into the sum.  The fallback
    builds ``I + W`` in one buffer and inverts it by ``np.linalg.inv``,
    LAPACK's ``gesv`` against the identity, bit for bit the direct solve of
    ``(I + W) X = I``; inside that call numpy.linalg holds a copy of
    ``I + W`` and of the identity, which ``tracemalloc`` does not see.
    """
    box = W.box
    w_a0 = W.sobolev_norm(tc.alpha0)
    small_enough = 4.0 * tc.c0**2 * w_a0 <= 0.5

    terms = None
    cond = None
    if small_enough:
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
        if strict:
            raise NeumannSmallnessError(
                f"Neumann smallness failed: 4 c0^2 ||W||_a0 = "
                f"{4.0 * tc.c0**2 * w_a0:.3e} > 1/2"
            )
        v = np.eye(box.n_sites, dtype=W.entries.dtype)
        v += W.entries
        vinv = np.linalg.inv(v)
        cond = float(np.linalg.norm(v, 1) * np.linalg.norm(vinv, 1))

    return NeumannResult(LatticeOperator(box, vinv), W, terms, cond)
