"""Localization evidence extracted from a converged run, and ``certify``,
the one verdict on a finished run.

The columns of the accumulated transform are approximate eigenfunctions of
the assembled operator; this module certifies three things about them:

* per-center eigen residuals against the exact relation
  ``H e_k - lambda_k e_k = Q (R delta_k)``,
* a polynomial decay envelope ``|(e_k)_i| <= 2 <i-k>^(-p)`` with the
  exponent ``p = s - tau - d/2 - 12 delta`` computed from the run
  parameters (never hard coded),
* completeness, in its literal finite-dimensional form: the smallest
  singular value of the transform bounded away from zero.

Centers inside the interior window are the ones that count; boundary
centers are computed but flagged, since truncation pollutes them.  The
operator and the eigenvalues are the run's ``conjugation_pair``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import matmul

import numpy as np

from .iteration import SchemeResult, regime_violation
from .operators import real_operands

GRAM_OFFDIAG_TOL = 1e-8  # largest off-diagonal entry of Q+^t Q+ certify passes
UNITARITY_TOL = 1e-9  # largest ||U^t U - I||_0 certify passes


@dataclass(frozen=True)
class EigenReport:
    center: tuple[int, ...]
    eigenvalue: complex
    decay_envelope_margin: float
    eigen_residual: float
    interior: bool
    envelope_constant: float  # smallest C with |(e_k)_i| <= C <i-k>^(-p)


def decay_exponent(result: SchemeResult) -> float:
    p = result.params
    if p.s_hopping is None:
        raise ValueError("decay exponent needs the hopping regularity s_hopping")
    return p.s_hopping - p.tau - result.box.dimension / 2.0 - 12.0 * p.delta


def eigenfunctions(result: SchemeResult) -> list[EigenReport]:
    """One report per lattice site k, with e_k the k-th transform column.

    The envelope's weights ``<i - k>^(-p)`` and ``<i - k>^p`` depend on the
    offset alone: each is raised on the (4N + 1)^d offset slots and spread
    over the n x n pairs by ``box.offset_spread``."""
    if not result.converged:
        raise ValueError("eigenfunction reports require a converged run")
    box = result.box
    H, target = result.conjugation_pair
    exponent = decay_exponent(result)
    eigenvalues = target.values
    interior = box.interior_mask
    Q = result.qplus.entries
    # H Q+, read by the residuals only: real arithmetic on real data
    residual_mat = matmul(*real_operands(result.real_symmetric, H, result.qplus)).entries
    # QΛ and the norms by blocks of columns; a block two or more columns wide
    # sums its norms in the order the whole matrix does
    bounds = np.linspace(0, box.n_sites, min(8, box.n_sites // 2) + 1).astype(int)
    residuals = np.concatenate([
        np.linalg.norm(residual_mat[:, c] - Q[:, c] * eigenvalues[c], axis=0)
        / np.linalg.norm(Q[:, c], axis=0) for c in map(slice, bounds[:-1], bounds[1:])])
    del residual_mat
    # <k> = max(1, |k|_inf) per offset slot, raised to +-p there and spread:
    # column k of a spread holds the power of <i - k> for every site i
    weights = np.maximum(box.offset_len, 1.0)
    cols = np.abs(Q)
    envelope = box.offset_spread(weights ** (-exponent))  # the one scratch array
    envelope *= 2.0
    envelope -= cols
    margins = np.min(envelope, axis=0)
    del envelope
    cols *= box.offset_spread(weights**exponent)
    constants = np.max(cols, axis=0)
    return [
        EigenReport(
            center=tuple(int(c) for c in box.sites[idx]),
            eigenvalue=complex(eigenvalues[idx]),
            decay_envelope_margin=float(margins[idx]),
            eigen_residual=float(residuals[idx]),
            interior=bool(interior[idx]),
            envelope_constant=float(constants[idx]),
        )
        for idx in range(box.n_sites)
    ]


def completeness_check(result: SchemeResult):
    """(smallest singular value of Q+, max off-diagonal of Q+^t Q+).

    A complete eigenfunction system on the box is exactly an invertible
    transform; the smallest singular value quantifies the inverse bound.
    """
    return (float(result.qplus.singular_values()[-1]),
            float(result.gram.off_diagonal_max()))


def spectrum_compare(result: SchemeResult) -> float:
    """One-sided Hausdorff distance from the interior diagonal values to
    the eigenvalues of the truncated assembled operator.

    Only defined for real symmetric runs (``SchemeResult.spectrum`` raises
    :class:`SymmetryDefectError` otherwise); complex non-normal models are
    certified through their eigen residuals instead.
    """
    spectrum = result.spectrum
    targets = result.conjugation_pair[1].values.real[result.box.interior_mask]
    dist = np.abs(targets[:, None] - spectrum[None, :]).min(axis=1)
    return float(dist.max())


def certify(result: SchemeResult) -> str | None:
    """The first failed check of a finished run's stored data, else ``None``:
    under ``theory_checks`` ``regime_violation`` on the conditions and the
    ledger, then convergence, then for a unitarized run the Gram
    off-diagonal, the Gram diagonal and ``||U^t U - I||_0``."""
    if result.params.theory_checks and (
            violation := regime_violation(result.theory_conditions, result.ledger)):
        return violation
    if not result.converged:
        return "convergence (stop tolerance not reached)"
    if (defect := result.unitarity_defect) is None:
        return None
    if (off := result.gram.off_diagonal_max()) > GRAM_OFFDIAG_TOL:
        return f"symmetry defect: Gram off-diagonal {off:.3e} exceeds {GRAM_OFFDIAG_TOL:.1e}"
    if defect == np.inf:
        return "symmetry defect: non-positive Gram diagonal"
    if defect > UNITARITY_TOL:
        return f"symmetry defect: ||U^t U - I||_0 = {defect:.3e} exceeds {UNITARITY_TOL:.1e}"
    return None
