"""The quadratic conjugation scheme with per-step certified ledgers.

Each run conjugates ``T + D`` (plus, in inverse mode, a constructed
diagonal correction) toward a diagonal operator through a product of
near-identity transforms ``Q_k = V_1 ... V_k``.  The hopping enters in
band slices ``T_l = (S_{theta_l} - S_{theta_{l-1}}) T`` on the geometric
scale ``theta_l = theta_0 Theta^l``; each step solves the diagonal
correction against the conjugated slice ``Q^{-1} T_l Q`` (inverse mode),
then the divided-difference generator smoothed at the next scale, and
finally measures the exact conjugation defect

    R_k = Q_k^{-1} H_k Q_k - (diagonal target),

which is the quantity the scheme drives to zero.  ``T`` is held as its
radial symbol (``operators.HoppingSymbol``), so each slice is formed from
it, one band at a time, and ``H_k`` is held as its main diagonal: off it,
it is the smoothed hopping ``S_{theta_k} T`` itself, formed once per step
for the defect product.  The defect is *defined* by
that product; the closed-form remainder decomposition (substitution error
plus quadratic error), rebuilt from the slices the step consumed, is
recomputed independently and checked against it, and each slice and the
diagonal are checked against their closed forms, ``T`` on the slice's ring
and ``diag T + D`` (plus the corrections in inverse mode), so every
derivation step doubles as a runtime test.

There is one step function: the first conjugation is the same step
started from ``Q = I``, ``R = 0`` and ``H = D``, and only its bounds differ
(``step_bounds`` at ``k = 0``).  ``iterate_step`` is the step's data flow,
four module-level sub-steps that a test can replace one at a time; an
operand that a later sub-step frees is handed on in a one-element list
that the sub-step empties, so no caller keeps it alive.  ``V^-1`` and the
new ``Q^-1`` shed their underflowing tails in place as they are formed
(``operators.flush_underflow``), so no product of a step reads a subnormal
part; ``Q``, a product of banded factors, grows no such tail.  The checks
measure the flushed operators, and the dropped parts lie far below the
rounding of the identity both are near, so no ledger value moves.  On real
data (``real_symmetric_data``) the products that only a check reads,
``G W``, ``(V^-1 - I)(...)``, ``Q Q^-1`` and the Gram, take real arithmetic
(``operators.real_operands``); every product the iteration reads back stays
complex, so only ``decomp_residual`` and ``qqinv_defect`` round differently.

Every run evaluates the sufficient parameter inequalities once, at the
separation constant ``gamma`` it uses, and keeps them in
``SchemeResult.theory_conditions`` (they demand astronomically large band
ratios for small loss budgets; the rows make that visible).  Each step's
regime is ledger data, read by no step: every claimed bound is a signed
margin, and so is the Neumann smallness ``1/2 - 4 c0^2 ||W||_a0``, negative
exactly when the step inverted ``I + W`` by the direct solve.  The default
empirical regime verifies convergence a posteriori; ``theory_checks=True``
raises ``regime_violation`` on the conditions before the first step.  A
converged real symmetric transform must unitarize; ``unitarize`` stores its
defect.  The verdict on a finished run, the strict regime's ledger
included, is ``localization.certify``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .algebra import distal_gamma_box
from .box import LatticeBox
from .errors import SymmetryDefectError, TheoryConditionError
from .homological import neumann_invert, solve_diagonal_correction, solve_generator
from .operators import (DiagonalOperator, HoppingSymbol, LatticeOperator, TameConstants,
                        flush_underflow, offset_norm, real_operands, shift_diagonal)

INVERSE = "inverse"
DIRECT = "direct"


@dataclass(frozen=True)
class SchemeParams:
    """Parameter pack for a scheme run.

    ``gamma=None`` asks the run to measure the separation constant on the
    box, and the run's params carry it; ``alpha``/``alpha1``/``s_grid``
    left as ``None`` are derived from ``s_hopping`` the way the
    localization corollaries pick them.  Every numeric field must be finite
    (an integer no float can hold is not), except that ``s_hopping`` may be
    +inf, as a finite-range hopping has every decay exponent, and
    ``max_steps`` is any positive integer.  A value out of the scheme's
    domain is a ``ValueError`` whose message starts with the field's name;
    the rules that need the dimension are checked by ``resolved``.
    """

    tau: float
    delta: float
    alpha0: float
    theta0: float
    Theta: float
    gamma: Optional[float] = None
    alpha: Optional[float] = None
    alpha1: Optional[float] = None
    s_hopping: Optional[float] = None
    epsilon: float = 0.0
    mode: str = INVERSE
    theory_checks: bool = False
    stop_tol: float = 1e-10
    max_steps: int = 40
    s_grid: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.mode not in (INVERSE, DIRECT):
            raise ValueError(f"mode must be '{INVERSE}' or '{DIRECT}'")
        for f in fields(self):  # NaN passes every comparison below
            value = getattr(self, f.name)
            if (isinstance(value, (int, float)) and f.name != "max_steps"
                    and not abs(value) <= sys.float_info.max
                    and not (f.name == "s_hopping" and value == math.inf)):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.s_grid is not None and not (
                len(self.s_grid) and all(0 <= s <= sys.float_info.max for s in self.s_grid)):
            raise ValueError("s_grid must hold one or more finite nonnegative "
                             f"norm indices, got {self.s_grid}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.theta0 <= 1:
            raise ValueError(f"theta0 must exceed 1, got {self.theta0}")
        if self.Theta <= 1:
            raise ValueError(f"Theta must exceed 1, got {self.Theta}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.stop_tol < 0:
            raise ValueError(f"stop_tol must be nonnegative, got {self.stop_tol}")
        if not (self.max_steps >= 1 and self.max_steps % 1 == 0):
            raise ValueError(f"max_steps must be a positive integer, got {self.max_steps}")

    def resolved(self, dimension: int) -> "SchemeParams":
        """Fill derived fields, using s_hopping where values are missing.

        Refuses ``alpha0 <= d/2``, and a derived ``alpha``, ``alpha1`` or
        default ``s_grid`` entry that is not a finite norm index >= 0, under
        the given field it derives from.
        """
        if self.alpha0 <= dimension / 2.0:
            raise ValueError(f"alpha0 = {self.alpha0:g} must exceed d/2 = {dimension / 2.0:g}")
        alpha, source = self.alpha, "alpha"
        if alpha is None:
            if self.s_hopping is None:
                raise ValueError("alpha or s_hopping must be given")
            alpha, source = self.s_hopping - dimension / 2.0 - 5.0 * self.delta, "s_hopping"
        if not 0 <= alpha < math.inf:  # theory_conditions reads ||T||_(alpha+3delta)
            raise ValueError(f"alpha must be nonnegative, got {alpha:g}" if self.alpha is not None
                             else f"s_hopping = {self.s_hopping:g} gives the default alpha = "
                             f"s_hopping - d/2 - 5 delta = {alpha:g}, not a finite index >= 0")
        alpha1 = self.alpha1
        if alpha1 is None:
            alpha1 = 2.0 * alpha + self.delta
        else:
            source = "alpha1"
        s_grid = self.s_grid if self.s_grid is not None else (
            self.alpha0, alpha, alpha1 - self.tau)
        if not (alpha1 < math.inf and min(s_grid) >= 0):
            raise ValueError(f"{source} = {getattr(self, source):g} gives alpha1 = {alpha1:g} "
                             f"and s_grid = ({', '.join(f'{s:g}' for s in s_grid)}) at "
                             f"tau = {self.tau:g}: alpha1 must be finite, each entry >= 0")
        return replace(self, alpha=alpha, alpha1=alpha1, s_grid=tuple(s_grid))

    def theta(self, k: int) -> float:
        return self.theta0 * self.Theta**k


# One self-describing formula string per bounded ledger label; the CSV and
# report carry these so each margin column names the bound it measures.
BOUND_FORMULAS = {
    "W": "theta_{k-1}^(s-alpha+tau+4delta); initial step theta_0^(s-alpha+tau+delta)",
    "VinvmI": "2*k1(s)*theta_{k-1}^(s-alpha+tau+4delta); initial theta_0^(s-alpha+tau+2delta)",
    "R": "theta_k^(s-alpha)",
    "D": "3*theta_{k-1}^(alpha0-alpha)",
    "QTQ": "theta_{k-1}^(s-alpha)",
    "QDQ": "theta_{k-1}^(alpha0-alpha+3delta) below s=alpha-tau-4delta, else theta_{k-1}^(s-alpha)",
    "Qstep": "theta_{k-1}^(s-alpha+tau+6delta)",
    "Neumann": "1/2 - 4*c0^2*||W||_alpha0, margin only: the series inverts I + W iff >= 0",
}


def step_bounds(p: SchemeParams, tc: TameConstants, k: int) -> dict:
    """The bound of each normed ``BOUND_FORMULAS`` label at step ``k`` (from
    0), as a function of s; ``p`` must be resolved.

    The first step conjugates by ``Q = I``: its ``W`` and ``V^-1 - I``
    bounds are its own, and it has no ``QTQ``/``QDQ`` rows, which would
    restate the base band and the unconjugated correction.
    """
    first = k == 0
    prev, nxt = p.theta(k), p.theta(k + 1)
    w_m, vinv_m = (1, 2) if first else (4, 4)

    def power(theta, expo):
        with np.errstate(over="ignore"):
            return float(np.float64(theta) ** np.float64(expo))

    bounds = {
        "W": lambda s: power(prev, s - p.alpha + p.tau + w_m * p.delta),
        "VinvmI": lambda s: ((1.0 if first else 2.0 * tc.k1(s))
                             * power(prev, s - p.alpha + p.tau + vinv_m * p.delta)),
        "R": lambda s: power(nxt, s - p.alpha),
        "D": lambda s: 3.0 * power(prev, p.alpha0 - p.alpha),
        "QTQ": lambda s: power(prev, s - p.alpha),
        "QDQ": lambda s: power(prev, p.alpha0 - p.alpha + 3.0 * p.delta
                               if s < p.alpha - p.tau - 4.0 * p.delta else s - p.alpha),
        "Qstep": lambda s: power(prev, s - p.alpha + p.tau + 6 * p.delta),
    }
    if first:
        del bounds["QTQ"], bounds["QDQ"]
    return bounds


@dataclass
class LedgerRow:
    k: int
    theta_k: float
    norms: dict[str, float] = field(default_factory=dict)
    margins: dict[str, float] = field(default_factory=dict)

    def put(self, key: str, norm: float, bound: float | None = None):
        self.norms[key] = float(norm)
        if bound is not None:
            self.margins[key] = float(bound) - float(norm)


@dataclass
class IterationState:
    """Mutable per-run state; owned by exactly one run."""

    box: LatticeBox
    params: SchemeParams
    tc: TameConstants
    T: HoppingSymbol
    D: DiagonalOperator
    k: int
    Q: LatticeOperator
    Qinv: LatticeOperator
    R: LatticeOperator
    h_diag: np.ndarray  # H_k's main diagonal; off it H_k is S_{theta_k} T
    corrections: np.ndarray  # running sum of diagonal corrections
    real_symmetric: bool  # the data rule: the check products may take real arithmetic
    ledger: list[LedgerRow] = field(default_factory=list)


@dataclass
class SchemeResult:
    """A finished run of ``Q+^-1 A Q+ = Lambda + R``; after the step loop only
    ``conjugation_pair`` reads the mode that decides ``A`` and ``Lambda``."""

    qplus: LatticeOperator
    qplus_inv: LatticeOperator
    dplus: DiagonalOperator
    final_residual: LatticeOperator
    ledger: list[LedgerRow]
    converged: bool
    steps: int
    box: LatticeBox
    params: SchemeParams
    T: HoppingSymbol
    D: DiagonalOperator
    theory_conditions: list[ConditionReport]  # evaluated at params.gamma
    real_symmetric: bool  # the data rule (real_symmetric_data); unitarized, with a spectrum
    master_residual: Optional[float] = None
    unitarity_defect: Optional[float] = None

    @cached_property
    def conjugation_pair(self) -> tuple[LatticeOperator, DiagonalOperator]:
        """``(A, Lambda)``, built once: ``(T + D + D+, D)`` in inverse mode,
        ``(T + D, D + D+)`` in direct mode.  ``A`` is one buffer, the whole
        band of ``T`` with ``D`` and then ``D+`` added on its diagonal."""
        a = shift_diagonal(self.T.band_entries(-1, math.inf), self.D.values)
        if self.params.mode == INVERSE:
            return LatticeOperator.wrap(self.box, shift_diagonal(a, self.dplus.values)), self.D
        return (LatticeOperator.wrap(self.box, a),
                DiagonalOperator(self.box, self.D.values + self.dplus.values))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of ``A`` in ascending order, from one symmetric
        eigensolve; only real symmetric runs have one."""
        if not self.real_symmetric:
            raise SymmetryDefectError("spectrum comparison requires symmetry")
        return np.linalg.eigvalsh(self.conjugation_pair[0].entries.real)

    @cached_property
    def gram(self) -> LatticeOperator:
        """``Q+^t Q+``, formed once; unitarize and the completeness check read it,
        and nothing else, so real data form it in real arithmetic."""
        Q, = real_operands(self.real_symmetric, self.qplus)
        return Q.transpose() @ Q

    def defect_resolution(self) -> float:
        """Double-precision resolution of the conjugation-defect measurement.

        Any claim about the defect finer than roughly
        ``eps * sqrt(n) * ||H||_op * ||Q||_op * ||Qinv||_op`` is below what
        evaluating the identity in double precision can resolve; residual
        comparisons are only meaningful up to this scale.  Runs that
        converge harder than this (common at weak coupling) have defects
        certified at the resolution, not at their nominal norm.  For real
        symmetric data ``||H||_op`` is the largest ``|lambda|`` of the
        spectrum.
        """
        if self.real_symmetric:
            h_norm = float(np.max(np.abs(self.spectrum)))
        else:
            h_norm = self.conjugation_pair[0].operator_norm()
        return float(
            np.finfo(float).eps
            * np.sqrt(self.box.n_sites)
            * h_norm
            * self.qplus.operator_norm()
            * self.qplus_inv.operator_norm()
        )


def real_symmetric_data(T: HoppingSymbol, D: DiagonalOperator) -> bool:
    """The data rule of a run, decided once: ``T``'s symbol and ``D`` exactly
    real; a radial symbol is symmetric by construction.  Under it the
    products that nothing reads back take real arithmetic
    (``operators.real_operands``)."""
    return not T.values.imag.any() and not D.values.imag.any()


def hopping_slice(T: HoppingSymbol, k: int, params: SchemeParams) -> LatticeOperator:
    """Band slice ``theta_{k-1} < |i - j|_inf <= theta_k`` of the hopping, the
    full band ``|i - j|_inf <= theta_0`` at k = 0, formed from the symbol.

    Slices telescope exactly: summing slices 0..K reproduces the band of
    radius theta_K entry by entry, and the whole operator once theta_K
    reaches the box diameter.
    """
    if k < 0:
        raise ValueError("slice index must be nonnegative")
    return T.band(params.theta(k - 1) if k else -1, params.theta(k))


def initial_step(T: HoppingSymbol, D: DiagonalOperator, params: SchemeParams,
                 tc: TameConstants) -> IterationState:
    """First conjugation: the general step from ``Q = I``, ``R = 0``, ``H = D``
    (``h_diag = D``).

    ``params`` must be resolved.  Returns the state after the step (k = 1),
    whose ledger holds the first row.
    """
    box = T.box
    eye = LatticeOperator.identity(box)
    state = IterationState(
        box=box, params=params, tc=tc, T=T, D=D, k=0,
        Q=eye, Qinv=eye, R=LatticeOperator.zeros(box), h_diag=D.values,
        corrections=np.zeros_like(D.values), real_symmetric=real_symmetric_data(T, D),
    )
    del eye  # the step frees Q = Q^-1 = I once both successors exist
    return iterate_step(state)


def iterate_step(state: IterationState) -> IterationState:
    """Advance the scheme one step, appending a fully bounded ledger row.

    The step is its data flow: ``_source`` forms the generator's source
    ``G``, ``_transform_update`` the new ``Q`` and ``Q^-1``,
    ``_remainder_operand`` the closed form ``R' + R_quad`` and ``_defect``
    the exact defect ``R``, each with the ledger norms of what it forms.
    The state holds ``H_k`` as its diagonal ``h_diag``, which ``_source``
    advances; ``_defect`` forms ``H_k`` from ``T`` for its one product.
    The row opens with the Neumann margin ``1/2 - 4 c0^2 ||W||_a0`` (which
    inversion the step took), puts each norm next to its bound from
    ``step_bounds``, and adds ``R - (R' + R_quad)`` and ``Q Q^-1 - I``.
    Those two checks are the only readers of ``R' + R_quad`` and of
    ``Q Q^-1``, so on real data both take real arithmetic
    (``operators.real_operands``); every product that the step reads back
    stays complex.  Memory peaks in ``_remainder_operand`` or in the
    inversion of ``I + W``; a step that raises leaves the state part-way.
    """
    p, k = state.params, state.k
    # the diagonal target Lambda_k whose differences divide the generator:
    # D in inverse mode, D plus the corrections so far in direct mode
    target = state.D.values if p.mode == INVERSE else state.D.values + state.corrections
    G, Dk, corrections, h_residual, source_norms = _source(state)
    W, VmI, smallness, update_norms = _transform_update(state, G[0], Dk, target)
    decomposition = _remainder_operand(G, W, VmI, target, p.theta(k + 1),
                                       state.real_symmetric)
    state.R, defect_norms = _defect(state, corrections)
    norms = {**source_norms, **update_norms, **defect_norms}

    bounds = step_bounds(p, state.tc, k)
    row = LedgerRow(k=k + 1, theta_k=p.theta(k + 1))
    row.margins[f"Neumann@{p.alpha0:g}"] = 0.5 - smallness
    for label in ("W", "VinvmI", "R", "QTQ", "QDQ", "Qstep", "QmI", "D"):
        bound = bounds.get(label)
        for s, norm in norms.get(label, ()):
            row.put(f"{label}@{s:g}", norm, None if bound is None else bound(s))
    row.put("conj_residual", h_residual)
    row.put("decomp_residual", (state.R - decomposition).sobolev_norm(0.0))
    eye = DiagonalOperator.identity(state.box)
    Q, Qinv = real_operands(state.real_symmetric, state.Q, state.Qinv)
    row.put("qqinv_defect", (Q @ Qinv - eye).sobolev_norm(0.0))
    state.k = k + 1
    state.corrections = corrections
    state.ledger.append(row)
    return state


def _family(op, p: SchemeParams) -> list:
    return [(s, op.sobolev_norm(s)) for s in p.s_grid]


def _source(state: IterationState):
    """``([G], D_k, corrections, H residual, norms)``: the generator's source
    ``G = B + R``, ``B`` the conjugated slice ``QTQ = Q^-1 T_k Q`` plus, in
    inverse mode, ``QDQ = Q^-1 D_k Q``.  Adds ``diag(T_k)`` (+ ``D_k`` in
    inverse mode) to the state's ``h_diag``, so that ``H_k = S_{theta_k} T +
    diag(h_diag)``, checks the slice and the diagonal (``_h_residual``), and
    drops the state's ``R``.  At the first step ``Q = Q^-1 = I`` and
    ``R = 0``: no product, no solve for ``D_k``, no ``QTQ``/``QDQ`` norms.
    """
    p, box, k = state.params, state.box, state.k
    first, inverse = k == 0, p.mode == INVERSE
    Tk = hopping_slice(state.T, k, p)
    QTQ = Tk if first else state.Qinv @ Tk @ state.Q
    if inverse and not first:
        Dk = solve_diagonal_correction(state.Q, state.Qinv, QTQ, state.R)
    else:  # diag(QTQ + R): direct mode's diag of the smoothed G; X = -c at k = 0
        c = np.diagonal(QTQ.entries) + np.diagonal(state.R.entries)
        Dk = DiagonalOperator(box, -c if inverse else c)
    corrections = state.corrections + Dk.values
    norms = {"D": [(0.0, Dk.sobolev_norm(0.0))]}

    # H_k's diagonal, summed in the order of the slice-by-slice H + T_k
    # (+ D_k in inverse mode), so every entry of H_k keeps its bits
    state.h_diag = state.h_diag + np.diagonal(Tk.entries)
    if inverse:
        state.h_diag = state.h_diag + Dk.values
    h_residual = _h_residual(state, Tk, corrections)
    del Tk

    # inverse mode conjugates the correction into the step; direct mode takes
    # it out of the generator's source and into the diagonal target
    if not first:
        norms["QTQ"] = _family(QTQ, p)
        QDQ = LatticeOperator(box, state.Qinv.entries * Dk.values[None, :]) @ state.Q
        norms["QDQ"] = _family(QDQ, p)
    if inverse:
        g = (shift_diagonal(QTQ.entries.copy(), Dk.values) if first
             else QTQ.entries + QDQ.entries)  # B
        g += state.R.entries
    else:
        g = QTQ.entries + state.R.entries  # B = QTQ
    state.R = None  # G holds it now
    return [LatticeOperator(box, g)], Dk, corrections, h_residual, norms


def _h_residual(state: IterationState, Tk: LatticeOperator, corrections: np.ndarray) -> float:
    """``||H_k - S_{theta_k} T - diag(D [+ corrections])||_0`` (corrections
    in inverse mode) on the offset slots, with no n x n operator formed.  An
    off-diagonal slot holds ``|sup T_k - sup T|``, ``T``'s sup taken on the
    ring ``theta_{k-1} < |j| <= theta_k`` (the band at k = 0) and 0 on other
    slots; the main-diagonal slot holds ``max |(h_diag - diag T) - (D [+
    corrections])|``.  On a correct step these are the dense difference's
    per-slot sups.  ``T``'s sups and diagonal are read off its symbol; the
    slice's are folded from the dense slice the step used."""
    p, box, k = state.params, state.box, state.k
    ring = box.band_slots(p.theta(k - 1) if k else -1, p.theta(k))
    slots = np.abs(Tk.diag_sups() - np.where(ring, state.T.diag_sups(), 0.0))
    closed = state.D.values + corrections if p.mode == INVERSE else state.D.values
    slots[box.offset_len == 0] = np.max(np.abs(state.h_diag - state.T.values[0] - closed))
    return offset_norm(box, slots, 0.0)


def _transform_update(state: IterationState, G: LatticeOperator, Dk: DiagonalOperator,
                      target: np.ndarray):
    """``([W], [V^-1 - I], smallness, norms)``: the generator ``W`` of ``G``,
    the inverse of ``V = I + W`` and its Neumann smallness; replaces the
    state's ``Q`` by ``Q V`` and ``Q^-1`` by ``V^-1 Q^-1``, and frees
    ``V^-1`` once both are formed.  The new ``Q^-1`` is flushed below
    ``UNDERFLOW_FLOOR`` before anything reads it: ``V^-1`` arrives flushed,
    but its product with ``Q^-1`` grows the tail again."""
    p, box, first = state.params, state.box, state.k == 0
    eye = DiagonalOperator.identity(box)
    W = solve_generator(DiagonalOperator(box, target), G if p.mode == INVERSE else G - Dk,
                        theta=p.theta(state.k + 1))
    norms = {"W": _family(W, p)}
    inverted = neumann_invert(W, state.tc)
    Vinv, smallness = inverted.Vinv, inverted.smallness
    del inverted  # it would keep V^-1 alive past the del below
    Q_next = eye + W if first else state.Q @ (eye + W)
    norms["Qstep"] = _family(Q_next - state.Q, p)
    norms["QmI"] = _family(Q_next - eye, p)
    state.Q = Q_next
    state.Qinv = Vinv if first else flush_underflow(Vinv @ state.Qinv)
    VmI = Vinv - eye
    del Vinv
    norms["VinvmI"] = _family(VmI, p)
    return [W], [VmI], smallness, norms


def _remainder_operand(G: list, W: list, VmI: list, target: np.ndarray,
                       theta: float, real: bool) -> LatticeOperator:
    """``R' + R_quad``, the defect's closed form rebuilt from the step's
    ingredients, with ``R_quad = (V^-1 - I)(commut + G W + G) + G W``.
    Empties the lists ``G``, ``W`` and ``V^-1 - I`` and frees each operand
    after its last reader.  Only ``decomp_residual`` reads the result, so
    under the data rule ``real`` the two products, the bracket and the sum
    take real arithmetic (``operators.real_operands``), in float64 buffers
    of half the size; the step peaks here or in the inversion of ``I + W``,
    while ``V^-1 - I``, its bracket, ``G W``, ``R'`` and their product are
    live."""
    G, W = real_operands(real and not target.imag.any(), G.pop(), W.pop())
    box = G.box
    if np.isrealobj(G.entries):
        target = target.real
    inner = target[:, None] - target[None, :]
    inner *= W.entries  # commut
    GW = G @ W
    del W
    inner += GW.entries
    inner += G.entries
    # R' = G_for_W - S_{theta_{k+1}} G_for_W is G past the band: in direct
    # mode G_for_W = G - D_k differs from G only on the main diagonal, which
    # the truncation keeps
    r = G.entries * box.band_mask(theta, math.inf)
    del G
    VmI, bracket = real_operands(np.isrealobj(inner), VmI.pop(),
                                 LatticeOperator.wrap(box, inner))
    del inner
    quad = VmI @ bracket
    del VmI, bracket
    # R' + R_quad, in the number type of its widest term; a + b is b + a
    out = quad.entries + GW.entries
    out += r
    return LatticeOperator.wrap(box, out)


def _defect(state: IterationState, corrections: np.ndarray):
    """``(R, norms)``: the exact defect ``R = Q^-1 H_k Q - Lambda`` of the
    replaced state, ``Lambda = D`` (plus ``corrections`` in direct mode).
    ``H_k = S_{theta_k} T + diag(h_diag)`` is formed here from the band
    ``0 < |i - j|_inf <= theta_k``, the one n x n copy a step makes of it,
    and freed once ``Q^-1 H_k`` exists."""
    box = state.box
    h = state.T.band_entries(0, state.params.theta(state.k))
    H = [LatticeOperator.wrap(box, shift_diagonal(h, state.h_diag))]
    del h
    R = state.Qinv @ H.pop() @ state.Q - state.D
    if state.params.mode != INVERSE:
        R = R - DiagonalOperator(state.box, corrections)
    return R, {"R": _family(R, state.params)}


def run(T: HoppingSymbol, D: DiagonalOperator, params: SchemeParams) -> SchemeResult:
    """Drive the scheme to convergence (or to the step cap) and certify it.

    First ``theory_conditions`` fixes gamma and evaluates the sufficient
    conditions at it; the result keeps the rows.  With ``theory_checks``,
    ``regime_violation`` raises ``TheoryConditionError`` on the rows before
    any step.  Stops once every hopping slice has been consumed (band radius
    past the box diameter) and the 0-norm of the defect is below
    ``stop_tol``.  The master conjugation identity is re-verified on the
    assembled operators of a converged run (``master_residual`` stays
    ``None`` otherwise), and for real symmetric data ``unitarize`` measures
    the transform.  A finished run is returned, not refused:
    ``localization.certify`` is its verdict.
    """
    box = T.box
    if D.box != box:
        raise ValueError("box mismatch between hopping and potential")
    p = params.resolved(box.dimension)
    tc = TameConstants(box.dimension, p.alpha0)
    p, conditions = theory_conditions(T, D, p, tc)
    if p.theory_checks and (violation := regime_violation(conditions)):
        raise TheoryConditionError(violation)

    state = initial_step(T, D, p, tc)
    converged = False
    while True:
        covered = p.theta(state.k - 1) >= 2.0 * box.radius  # every slice consumed
        if covered and state.R.sobolev_norm(0.0) <= p.stop_tol:
            converged = True
            break
        if state.k >= p.max_steps:
            break
        iterate_step(state)

    result = SchemeResult(
        qplus=state.Q,
        qplus_inv=state.Qinv,
        dplus=DiagonalOperator(box, state.corrections),
        final_residual=state.R,
        ledger=state.ledger,
        converged=converged,
        steps=state.k,
        box=box,
        params=p,
        T=T,
        D=D,
        theory_conditions=conditions,
        real_symmetric=state.real_symmetric,
    )
    if converged:
        assembled, target = result.conjugation_pair
        master = state.Qinv @ assembled @ state.Q - target - state.R
        result.master_residual = float(master.sobolev_norm(0.0))
    if converged and result.real_symmetric:
        unitarize(result)
    return result


def regime_violation(conditions: list[ConditionReport], ledger=()) -> Optional[str]:
    """The strict regime's verdict on a run's stored data: the first failing
    effective condition, else the first negative ledger margin in step
    order, named with its step, key and value; ``None`` when all hold."""
    failed = next((c for c in conditions if c.effective and not c.holds), None)
    if failed is not None:
        return (f"theory condition {failed.name} fails with margin {failed.margin:g}: "
                f"{failed.detail}")
    return next((f"claimed bound violated at step {row.k}: {key} (margin {margin:.3e})"
                 for row in ledger for key, margin in row.margins.items() if margin < 0.0),
                None)


def unitarize(result: SchemeResult) -> float:
    """Measure how far the transform of a real symmetric converged run is
    from polar-normalizing.

    The Gram matrix ``G = Q+^t Q+`` of such a run is diagonal up to the
    residual; dividing each column of ``Q+`` by the square root of its Gram
    entry yields ``U = Q+ S``, ``S = diag(G)^-1/2``, whose distance from a
    unitary is ``||U^t U - I||_0``.  Since ``U^t U = S G S``, the measurement
    scales one copy of the Gram the run already holds and forms no ``U``.
    Its conjugation identity needs no replay:
    ``U^-1 A U - Lambda = S^-1 R S`` is the run's certified defect, rescaled.
    The defect, infinite when a Gram diagonal entry is not positive, is
    stored in ``result.unitarity_defect`` and returned; ``localization.certify``
    judges it.
    """
    g = np.diagonal(result.gram.entries)
    defect = math.inf
    if np.all(g.real > 0):
        scale = 1.0 / np.sqrt(g)
        sgs = result.gram.entries * scale[:, None]  # U^t U = S G S, in one buffer
        sgs *= scale[None, :]
        shift_diagonal(sgs, 1.0, np.subtract)
        defect = LatticeOperator(result.box, sgs).sobolev_norm(0.0)
    result.unitarity_defect = float(defect)
    return result.unitarity_defect


# -- parameter-condition checker ------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    name: str
    holds: bool
    margin: float
    scale: str  # "linear" or "log10"
    effective: bool
    detail: str = ""
    data: Optional[dict] = None


def check_theory_conditions(params: SchemeParams, tc: TameConstants, *,
                            t_3delta: float, t_4delta: float):
    """Evaluate every displayed sufficient inequality of the scheme.

    ``params`` must have ``alpha``, ``alpha1`` and ``gamma`` set;
    ``t_3delta`` and ``t_4delta`` are the hopping norms
    ``||T||_(alpha+3delta)`` and ``||T||_(alpha+4delta)``.  Power-type
    inequalities report log10 margins to survive the astronomical
    magnitudes the sufficient constants force; linear inequalities report
    plain differences.  Conditions with non-effective constants are
    evaluated with the constant set to one and flagged ``effective=False``.
    """
    for name in ("alpha", "alpha1", "gamma"):
        if getattr(params, name) is None:
            raise ValueError(f"theory conditions need params.{name}")
    p = params
    lg = math.log10
    lgT = lg(p.Theta)
    lgt0 = lg(p.theta0)
    c0 = tc.c0
    kappa = -p.alpha + p.alpha0 + p.tau + 6.0 * p.delta
    kappa1 = p.alpha0 - p.alpha + p.tau + 7.0 * p.delta

    def lg_or_minus_inf(x):
        return -math.inf if x == 0 else lg(x)

    out = []

    def add(name, holds, margin, scale, effective=True, detail="", data=None):
        out.append(
            ConditionReport(name, bool(holds), float(margin), scale, effective,
                            detail, data)
        )

    m = (p.delta / 2.0) * lgT - lg(8.0 * c0**2)
    add("Theta1", m >= 0, m, "log10", detail="Theta^(delta/2) >= 8 c0^2")

    m = p.alpha - (p.alpha0 + p.tau + 5.0 * p.delta)
    add("alpha1", m > 0, m, "linear", detail="alpha > alpha0 + tau + 5 delta")

    m = lgt0 - ((p.alpha + 4.0 * p.delta - p.alpha0) / p.delta) * lgT
    add("Theta2", m >= 0, m, "log10",
        detail="theta0 >= Theta^((alpha+4delta-alpha0)/delta)")

    m = p.delta * lgt0 - (p.alpha + 4.0 * p.delta - p.alpha0) * lgT
    add("Theta3", m >= 0, m, "log10",
        detail="theta0^delta >= Theta^(alpha+4delta-alpha0)")

    add("alpha2", kappa < 0, -kappa, "linear",
        detail="kappa = -alpha+alpha0+tau+6delta < 0")

    add("alpha3", kappa1 < 0, -kappa1, "linear",
        detail="kappa1 = alpha0-alpha+tau+7delta < 0")

    m = p.delta * lgt0 - lg(3.0 / p.gamma) - p.tau * lgT
    add("Theta4", m >= 0, m, "log10", detail="theta0^delta >= 3 gamma^-1 Theta^tau")

    m = p.alpha1 - (2.0 * p.alpha + p.delta)
    add("alpha11", m >= 0, m, "linear", detail="alpha1 >= 2 alpha + delta")

    m = min(p.alpha0, p.delta) * lgT - 1.0
    add("Theta5", m >= 0, m, "log10",
        detail="max(Theta^-alpha0, Theta^-delta) <= 1/10")

    m = (-kappa1) * lgt0 - (p.alpha - p.alpha0 - kappa1) * lgT
    add("Theta6", m >= 0, m, "log10", effective=False,
        detail="theta0^(-kappa1) >= C(alpha0,alpha1) Theta^(alpha-alpha0-kappa1); C set to 1")

    m = p.alpha - (p.alpha0 + p.tau + 3.0 * p.delta)
    add("alpha0", m > 0, m, "linear", detail="-alpha+alpha0+tau+3delta < 0")

    part_a = (p.alpha0 - p.alpha) * lgt0 - lg_or_minus_inf(float(t_3delta))
    part_b = (p.alpha - p.alpha0) * lgt0
    m = min(part_a, part_b)
    add("T2", m >= 0, m, "log10",
        detail="||T||_(alpha+3delta) <= theta0^(alpha0-alpha) <= 1")

    m = p.delta * lgt0 - (p.alpha - p.alpha0 + p.delta) * lgT
    add("Theta0", m >= 0, m, "log10", effective=False,
        detail="theta0^delta >= C(alpha0,alpha1) Theta^(alpha-alpha0+delta); C set to 1")

    # the binding lower bound for the band ratio
    candidates = {
        "8^(2/delta)*c0^(4/delta)": (2.0 / p.delta) * lg(8.0)
        + (4.0 / p.delta) * lg(c0),
        "10^(1/delta)": 1.0 / p.delta,
        "10^(1/alpha0)": 1.0 / p.alpha0,
    }
    binding = max(candidates, key=candidates.get)
    required = candidates[binding]
    m = lgT - required
    add("Theta", m >= 0, m, "log10",
        detail=f"Theta >= max(...); binding constraint {binding}, "
        f"log10(required) = {required:.4g}",
        data={"binding": binding, "required_log10": required,
              "candidates_log10": candidates})

    t4 = float(t_4delta)
    add("T1", t4 <= 1.0, 1.0 - t4, "linear", detail="||T||_(alpha+4delta) <= 1")
    part_a = (p.alpha0 - p.alpha) * lgt0 - lg_or_minus_inf(t4)
    part_b = (p.alpha - p.alpha0) * lgt0
    m = min(part_a, part_b)
    add("itthm_T", m >= 0, m, "log10",
        detail="||T||_(alpha+4delta) <= theta0^(alpha0-alpha) <= 1")
    return out


def theory_conditions(T: HoppingSymbol, D: DiagonalOperator, params: SchemeParams,
                      tc: TameConstants) -> tuple[SchemeParams, list[ConditionReport]]:
    """The run's gamma and the sufficient conditions evaluated at it.

    ``params`` must be resolved.  ``distal_gamma_box`` measures the
    separation constant of ``D`` on the box; a missing ``params.gamma`` is
    set to it, a given one is checked against it in the leading ``gamma``
    row (margin measured minus used).  The other rows are
    ``check_theory_conditions`` with the hopping norms read off ``T``'s symbol.
    Returns the params with gamma set and the rows.
    """
    measured, worst = distal_gamma_box(D, params.tau)
    p = params if params.gamma is not None else replace(params, gamma=measured)
    margin = measured - p.gamma
    offset = " ".join(str(c) for c in worst)  # no comma: check-theory prints CSV
    gamma_row = ConditionReport(
        "gamma", margin >= 0, margin, "linear", True,
        detail=f"gamma <= {measured:.17g} measured on the box (worst offset {offset})")
    return p, [gamma_row] + check_theory_conditions(
        p, tc, t_4delta=T.sobolev_norm(p.alpha + 4 * p.delta),
        t_3delta=T.sobolev_norm(p.alpha + 3 * p.delta))


# -- ledger export -----------------------------------------------------------------


def ledger_to_csv(ledger) -> str:
    """Render the per-step ledger as CSV: k, theta_k, norms, then margins,
    each in first-seen order; a cell a row lacks is ``nan``."""
    norm_keys = list(dict.fromkeys(key for row in ledger for key in row.norms))
    margin_keys = list(dict.fromkeys(key for row in ledger for key in row.margins))

    def cell(value):
        return "nan" if value is None else f"{value:.17g}"

    lines = [",".join(["k", "theta_k", *norm_keys,
                       *(f"margin:{key}" for key in margin_keys)])]
    for row in ledger:
        lines.append(",".join([str(row.k), cell(row.theta_k),
                               *(cell(row.norms.get(key)) for key in norm_keys),
                               *(cell(row.margins.get(key)) for key in margin_keys)]))
    return "\n".join(lines) + "\n"
