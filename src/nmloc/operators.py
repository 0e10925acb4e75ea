"""Lattice operators with diagonal-wise Sobolev norms: dense, diagonal, and
the hopping's radial symbol.

An operator on a box is stored as a dense complex128 matrix in the box's
site enumeration.  Its k-diagonal is the sequence ``A_k(i) = A_{i, i-k}``;
the Sobolev norm of index ``s`` is

    ||A||_s^2 = sum_k ||A_k||^2 <k>^(2s),      <k> = max(1, |k|_inf),

with the diagonal norm taken as the sup norm (the algebra norm of choice
for matrices).  Sums run over the offsets realized on the box; the offset
cap at 2N is part of the truncation model.

A diagonal operator ``diag(v)`` is stored as its sequence ``v`` instead,
together with its formula off the box and, for ``craig_mod1`` only, the
period-1 profile whose bounded-variation norm it carries.  Its norm is the
same for every s: the sup norm of ``v``, or with a profile the sampled BV
norm, sup plus the total variation of the profile on ``BV_GRID_POINTS``
uniform points (the sup also covers the lattice values, so the sup norm
never exceeds it).

The hopping is stored as its radial symbol instead: a Toeplitz operator
whose entry at (i, j) depends on ``|i - j|_inf`` alone is the 2N + 1
values ``values[r]``, r = 0..2N.  Its per-slot sups and Sobolev norms are
read off the symbol, each slot holding one value; a dense band
``lo < |i - j|_inf <= hi`` forms only on request, one band at a time.

This module alone chooses the number type: the constructors of the three
operator classes cast their input to complex128, so the builders hand them
arrays of any numeric type.  The one exception is ``real_operands``: a
product that nothing reads back, only a check, may take float64 operands,
the real parts of operators with no imaginary part, when the run's data are
real (``T``'s symbol and ``D`` real).  One dgemm then replaces a zgemm,
at a quarter of its arithmetic, and the float64 operators it forms and
returns are never read by a step.  It alone also reaches the main diagonal
of a dense array in place (``shift_diagonal``).

Operators are immutable; per-offset sups, Sobolev norms and singular
values are cached on the instance, so each operator takes at most one Gram
eigensolve.  The one exception is ``flush_underflow``, the only place that
reopens a frozen array: the inverse of a banded near-identity matrix decays
exponentially off the diagonal, into double precision's subnormal range on
a large box, and a BLAS product with subnormal operands runs several to
tens of times slower.  It zeros, in place and before anything reads the
operator, every real and imaginary part below ``UNDERFLOW_FLOOR = 2^-511``,
the square root of the smallest normal double, so that the product of two
kept parts of modulus at most 1 is a normal number.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from math import comb, fsum
from typing import Callable

import numpy as np

from .box import LatticeBox
from .errors import TameRangeError


class LatticeOperator:
    """Dense operator over a box, viewed through its diagonals.

    Its entries are complex128, or float64 for an operand or a result of a
    product that nothing reads back (``real_operands``).
    """

    __slots__ = ("box", "entries", "_diag_sups", "_norms", "_svals")

    def __init__(self, box: LatticeBox, entries):
        self._hold(box, np.ascontiguousarray(entries, dtype=complex))

    @classmethod
    def wrap(cls, box: LatticeBox, entries) -> "LatticeOperator":
        """An operator on float64 or complex128 ``entries`` in their own number
        type, with no cast: a product, sum or transpose keeps its operands'
        type.  A float64 operator belongs to the real product path alone: an
        operand from ``real_operands``, or what a check builds from one."""
        entries = np.ascontiguousarray(entries)
        if entries.dtype != np.float64 and entries.dtype != np.complex128:
            raise TypeError(f"entries must be float64 or complex128, got {entries.dtype}")
        op = cls.__new__(cls)
        op._hold(box, entries)
        return op

    def _hold(self, box: LatticeBox, entries: np.ndarray):
        if entries.shape != (box.n_sites, box.n_sites):
            raise ValueError(
                f"entries must have shape {(box.n_sites, box.n_sites)}, "
                f"got {entries.shape}"
            )
        entries.flags.writeable = False
        self.box = box
        self.entries = entries
        self._diag_sups = None
        self._norms = {}
        self._svals = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, box):
        return cls(box, np.eye(box.n_sites, dtype=complex))

    @classmethod
    def zeros(cls, box):
        return cls(box, np.zeros((box.n_sites, box.n_sites), dtype=complex))

    # -- diagonal view ------------------------------------------------------

    def diag_sups(self) -> np.ndarray:
        """Sup of |entries| per flat offset slot (cached)."""
        if self._diag_sups is None:
            with np.errstate(invalid="ignore"):  # a NaN entry makes its sup NaN
                sups = self.box.offset_reduce(np.abs(self.entries), np.maximum, 0.0)
            sups.flags.writeable = False
            self._diag_sups = sups
        return self._diag_sups

    # -- norms ---------------------------------------------------------------

    def sobolev_norm(self, s: float) -> float:
        s = float(s)
        if s < 0:
            raise ValueError("norm index must be nonnegative")
        cached = self._norms.get(s)
        if cached is None:
            cached = offset_norm(self.box, self.diag_sups(), s)
            self._norms[s] = cached
        return cached

    def singular_values(self) -> np.ndarray:
        """All singular values in descending order (cached), all NaN when an
        entry is not finite.

        They are the square roots of the eigenvalues of the Gram matrix
        ``A^H A``, from one symmetric eigensolve, in real arithmetic when no
        entry has an imaginary part.  The entries are first scaled by the
        power of two nearest their largest modulus, which is exact, so the
        Gram neither overflows nor underflows.  By Weyl's inequality each
        Gram eigenvalue is off by at most about ``n u ||A||_F^2`` (``u`` the
        unit roundoff): the largest value keeps full relative accuracy, while
        a value near 0 is resolved only to about ``sqrt(n u) ||A||_F``.
        """
        if self._svals is None:
            a = self.entries
            if not np.all(np.isfinite(a)):
                svals = np.full(self.box.n_sites, np.nan)
            else:
                if not a.imag.any():
                    a = a.real
                _, e = np.frexp(np.max(np.abs(a)))
                b = np.ldexp(a.view(np.float64), -e).view(a.dtype)
                gram_eigs = np.linalg.eigvalsh(b.conj().T @ b)[::-1]
                svals = np.ldexp(np.sqrt(np.maximum(gram_eigs, 0.0)), e)
            svals.flags.writeable = False
            self._svals = svals
        return self._svals

    def operator_norm(self) -> float:
        """Largest singular value (the l2 -> l2 norm on the box); NaN when an
        entry is not finite."""
        return float(self.singular_values()[0])

    def off_diagonal_max(self) -> float:
        off = np.abs(self.entries)
        np.fill_diagonal(off, 0.0)
        return float(np.max(off))

    # -- structure ------------------------------------------------------------

    def smooth(self, theta: float) -> "LatticeOperator":
        """S_theta: keep the band |i - j|_inf <= theta, the box's
        ``band_mask(-1, theta)``, and zero the rest."""
        return LatticeOperator.wrap(self.box, self.entries * self.box.band_mask(-1, theta))

    def transpose(self) -> "LatticeOperator":
        return LatticeOperator.wrap(self.box, self.entries.T)

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if not isinstance(other, LatticeOperator):
            return None
        if other.box != self.box:
            raise ValueError("box mismatch")
        return other

    def _shift_diagonal(self, ufunc, other: "DiagonalOperator"):
        """``self (+ or -) other``: one copy, then only the main diagonal moves;
        a float64 operator stays float64 when ``other`` has no imaginary part."""
        if other.box != self.box:
            raise ValueError("box mismatch")
        values = other.values
        if self.entries.dtype == np.float64 and not values.imag.any():
            values = values.real
        entries = self.entries.astype(np.result_type(self.entries, values))
        return LatticeOperator.wrap(self.box, shift_diagonal(entries, values, ufunc))

    def __matmul__(self, other):
        """The one dense product: a zgemm, or a dgemm when both operands are
        float64 (``real_operands``)."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LatticeOperator.wrap(self.box, self.entries @ other.entries)

    def __add__(self, other):
        if isinstance(other, DiagonalOperator):
            return self._shift_diagonal(np.add, other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LatticeOperator.wrap(self.box, self.entries + other.entries)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DiagonalOperator):
            return self._shift_diagonal(np.subtract, other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LatticeOperator.wrap(self.box, self.entries - other.entries)

    def __repr__(self):
        return f"LatticeOperator(n={self.box.n_sites}, d={self.box.dimension})"


def offset_norm(box: LatticeBox, sups: np.ndarray, s: float) -> float:
    """``(sum_k sups_k^2 <k>^(2s))^(1/2)`` over the box's flat offset slots,
    ``<k> = max(1, |k|_inf)``: the one Sobolev norm formula, of an operator
    whose per-slot sups are ``sups``.  Where ``<k>^s`` overflows, the weighted
    sup is ``sups 2^f`` scaled by ``2^E``, ``E + f = s log2 <k>``, so a zero
    sup gives 0 and a small one a finite value.  The weighted sups are
    squared at the power-of-two scale of the largest, exactly, so a finite
    norm does not overflow."""
    lens = np.maximum(box.offset_len, 1.0)
    with np.errstate(over="ignore"):
        weights = lens ** s
    huge = np.isinf(weights)
    weights[huge] = 1.0
    weighted = sups * weights
    if huge.any():
        f, e = np.modf(s * np.log2(lens[huge]))
        weighted[huge] = np.ldexp(sups[huge] * np.exp2(f), e.astype(np.int64))
    e = np.frexp(np.max(weighted))[1]
    return float(np.ldexp(np.sqrt(np.sum(np.ldexp(weighted, -e) ** 2)), e))


def real_operands(real: bool, *ops: LatticeOperator) -> tuple[LatticeOperator, ...]:
    """``ops`` as float64 operators on their real parts when ``real`` holds
    and no entry of any of them has an imaginary part; ``ops`` as they are
    otherwise, unscanned when ``real`` is false.

    ``real`` is the run's data rule, decided once: ``T``'s symbol and ``D``
    exactly real (``iteration.real_symmetric_data``).
    Such a run's operators have zero imaginary parts, so the product of the
    real parts, one dgemm, is their product; it costs a quarter of a
    zgemm's arithmetic, plus one copy of each operand.  An operand that does
    have an imaginary part, a fault, keeps every operand complex, so the
    product is the complex one and no check drops the fault.  Only for a
    product that nothing reads back: a dgemm rounds differently from a
    zgemm, and a step that read its result would move the ledger's
    noise-dominated cells.
    """
    if real and not any(np.iscomplexobj(op.entries) and op.entries.imag.any() for op in ops):
        return tuple(LatticeOperator.wrap(op.box, op.entries.real) for op in ops)
    return ops


UNDERFLOW_FLOOR = 2.0**-511  # sqrt of the smallest normal double
_FLUSH_SCRATCH_BYTES = 1 << 18  # 256 KiB


def flush_underflow(op: LatticeOperator) -> LatticeOperator:
    """Zero in place every real and imaginary part of ``op``'s entries whose
    modulus is below ``UNDERFLOW_FLOOR``; returns ``op``.

    Each part is multiplied by ``|part| >= UNDERFLOW_FLOOR`` as 1.0 or 0.0,
    with no branch per part: a kept part stays bit for bit, a flushed one
    becomes a zero of its own sign (+-0 stays +-0), NaN fails the comparison
    and stays NaN, and +-inf stays.  Rows go in blocks of an eighth of them,
    fewer while the scratch (the multipliers and their mask, 9 bytes per
    part) would pass 256 KiB, so it is at most a seventh of the size of
    ``op``'s entries.  Only for an operator that nothing has read yet: its
    entries are reopened for the pass and frozen again, and its caches are
    dropped.
    """
    entries = op.entries
    n = entries.shape[0]
    rows = max(1, min(n // 8, _FLUSH_SCRATCH_BYTES // (9 * 2 * n)))
    factors = np.empty((rows, 2 * n))
    mask = np.empty((rows, 2 * n), dtype=bool)
    entries.flags.writeable = True
    try:
        parts = entries.view(np.float64)  # (n, 2n): re, im, re, im, ...
        for r in range(0, n, rows):
            block = parts[r:r + rows]
            f, m = factors[:len(block)], mask[:len(block)]
            np.greater_equal(np.abs(block, out=f), UNDERFLOW_FLOOR, out=m)
            np.copyto(f, m)  # 1.0 where kept, 0.0 where flushed
            block *= f
    finally:
        entries.flags.writeable = False
    op._diag_sups, op._norms, op._svals = None, {}, None
    return op


def shift_diagonal(a: np.ndarray, values, ufunc=np.add) -> np.ndarray:
    """``a + diag(values)`` (``ufunc=np.subtract``: ``a - diag(values)``) in
    place on a square array; returns ``a``.

    ``einsum("ii->i")`` is a writable view of the main diagonal in any
    layout, transposed or sliced arrays included; it refuses a non-square
    array, and a read-only one stays read-only.
    """
    diag = np.einsum("ii->i", a)
    ufunc(diag, values, out=diag)
    return a


@dataclass(frozen=True)
class TorusProfile:
    """Period-1 profile and frequency generating a quasi-periodic sequence."""

    fn: Callable[[np.ndarray], np.ndarray]
    omega: tuple[float, ...]


BV_GRID_POINTS = 4096  # uniform samples of one period of a profile


def sup_and_variation(fn) -> tuple[float, float]:
    """Sup and periodic total variation of a period-1 profile on the grid."""
    x = np.arange(BV_GRID_POINTS) / BV_GRID_POINTS
    fx = np.asarray(fn(x))
    sup = float(np.max(np.abs(fx)))
    tv = float(np.sum(np.abs(np.diff(fx)))) + float(abs(fx[0] - fx[-1]))
    return sup, tv


class DiagonalOperator:
    """Main-diagonal-only operator ``diag(values)``; its s-norm equals its
    0-norm for all s.

    The values are copied to complex and frozen.  ``formula`` (sites ->
    values) makes the sequence exact off the box.  ``bv_profile``, a
    :class:`TorusProfile`, switches the norm from sup to the sampled BV norm.
    """

    __slots__ = ("box", "values", "formula", "bv_profile")

    def __init__(self, box: LatticeBox, values, formula=None, bv_profile=None):
        values = np.asarray(values, dtype=complex).reshape(box.n_sites).copy()
        values.flags.writeable = False
        self.box = box
        self.values = values
        self.formula = formula
        self.bv_profile = bv_profile

    @classmethod
    def identity(cls, box):
        return cls(box, np.ones(box.n_sites))

    def as_operator(self) -> LatticeOperator:
        return LatticeOperator(self.box, np.diag(self.values))

    def sobolev_norm(self, s: float = 0.0) -> float:
        del s  # independent of the index for diagonal operators
        if self.bv_profile is None:
            return float(np.max(np.abs(self.values)))
        sup, tv = sup_and_variation(self.bv_profile.fn)
        sup = max(sup, float(np.max(np.abs(self.values))))
        return sup + tv

    def __repr__(self):
        return f"DiagonalOperator(n={self.box.n_sites})"


class HoppingSymbol:
    """Toeplitz operator ``T_ij = values[|i - j|_inf]``: the hopping as its
    radial symbol, the 2N + 1 values at r = 0..2N, copied to complex and
    frozen.  It holds no n x n array; every entry of an offset slot is the
    value of its radius, so the per-slot sups and the norms are exact."""

    __slots__ = ("box", "values")

    def __init__(self, box: LatticeBox, values):
        values = np.asarray(values, dtype=complex).reshape(2 * box.radius + 1).copy()
        values.flags.writeable = False
        self.box = box
        self.values = values

    def band_entries(self, lo: float, hi: float) -> np.ndarray:
        """The band ``lo < |i - j|_inf <= hi``, zero off it, as a new writable
        complex n x n array: each slot's value where ``box.band_slots``
        holds, spread once."""
        box = self.box
        return box.offset_spread(np.where(box.band_slots(lo, hi), self.values[box.offset_len], 0))

    def band(self, lo: float, hi: float) -> LatticeOperator:
        """The band ``lo < |i - j|_inf <= hi`` as a dense operator;
        ``band(-1, inf)`` is the whole of ``T``."""
        return LatticeOperator.wrap(self.box, self.band_entries(lo, hi))

    def diag_sups(self) -> np.ndarray:
        """Sup of |entries| per flat offset slot: the modulus of the slot's value."""
        return np.abs(self.values)[self.box.offset_len]

    def sobolev_norm(self, s: float) -> float:
        s = float(s)
        if s < 0:
            raise ValueError("norm index must be nonnegative")
        return offset_norm(self.box, self.diag_sups(), s)

    def __repr__(self):
        return f"HoppingSymbol(n={self.box.n_sites}, d={self.box.dimension})"


# -- tame constants -------------------------------------------------------------


# B_2j / (2j)! for j = 1, ..., 8: the Euler-Maclaurin corrections of zeta
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000)
_EM_N = 12


def _riemann_zeta(s: float) -> float:
    """Riemann zeta(s) for real s > 1, by Euler-Maclaurin summation at N = 12.

    The terms k^-s for k < N, the pole term N^(1-s)/(s-1), N^-s/2 and eight
    Bernoulli corrections are summed with one rounding by ``math.fsum``.
    The pole term dominates near s = 1, so it enters as a head and a tail
    taken from a 34-digit decimal; the truncation error is below 1e-19.  On
    (1, 64] the result is within 1 ulp of zeta (0.62 ulp at worst against
    200-bit mpmath on 10^4 points).
    """
    n = _EM_N
    with localcontext() as ctx:
        ctx.prec = 34
        pole = Decimal(n) ** Decimal(1.0 - s) / Decimal(s - 1.0)
        head = float(pole)
        tail = float(pole - Decimal(head))
    terms = [k ** -s for k in range(1, n)] + [head, tail, 0.5 * n ** -s]
    t = s * n ** (-s - 1.0)  # s (s+1) ... (s+2j-2) N^(1-s-2j), from j = 1
    for j, c in enumerate(_EM_COEFFS, start=1):
        terms.append(c * t)
        t = t * (s + 2 * j - 1) / n * (s + 2 * j) / n
    return fsum(terms)


def lattice_weight_sum(dimension: int, alpha0: float) -> float:
    """sum over Z^d of <k>^(-2 alpha0), exactly, via the shell-count identity.

    The number of k with |k|_inf = m is (2m+1)^d - (2m-1)^d, a polynomial
    whose odd binomial terms reduce the lattice sum to Riemann zeta values:

        S = 1 + sum_{j odd <= d} 2^(d-j+1) C(d, j) zeta(2 alpha0 - d + j).

    Requires alpha0 > d/2 (each zeta argument then exceeds 1).
    """
    if alpha0 <= dimension / 2:
        raise ValueError("alpha0 must exceed d/2 for the lattice sum to converge")
    total = 1.0
    for j in range(1, dimension + 1, 2):
        total += 2.0 ** (dimension - j + 1) * comb(dimension, j) * _riemann_zeta(
            2.0 * alpha0 - dimension + j
        )
    return total


class TameConstants:
    """Constants of the product estimate for the diagonal-wise Sobolev norm.

    k0 multiplies the low-high pairing, k1(s) the high-low pairing:

        ||XY||_s <= k0 ||X||_a0 ||Y||_s + k1(s) ||X||_s ||Y||_a0,   s >= a0.

    The underlying lattice sum is evaluated in closed form, so its only
    error is float rounding.
    """

    def __init__(self, dimension: int, alpha0: float):
        self.dimension = int(dimension)
        self.alpha0 = float(alpha0)
        self.lattice_sum = lattice_weight_sum(self.dimension, self.alpha0)
        self.k0 = float(np.sqrt(20.0 * self.lattice_sum))
        self.c0 = self.k0 + self.k1(self.alpha0)

    def k1(self, s: float) -> float:
        s = float(s)
        if s <= 0:
            return float(np.sqrt(2.0 * self.lattice_sum))
        with np.errstate(over="ignore"):
            base = 1.0 - 10.0 ** (-1.0 / (2.0 * s))
            return float(
                np.float64(base) ** np.float64(-s) * np.sqrt(2.0 * self.lattice_sum)
            )

    def __repr__(self):
        return (
            f"TameConstants(d={self.dimension}, alpha0={self.alpha0}, "
            f"k0={self.k0:.6g}, c0={self.c0:.6g})"
        )


def tame_bound_check(x: LatticeOperator, y: LatticeOperator, s: float,
                     tc: TameConstants) -> float:
    """Margin of the two-factor product bound; nonnegative when it holds."""
    if s < tc.alpha0 - 1e-12:
        raise TameRangeError("tame range: s must be at least alpha0")
    a0 = tc.alpha0
    bound = tc.k0 * x.sobolev_norm(a0) * y.sobolev_norm(s) + tc.k1(s) * (
        x.sobolev_norm(s) * y.sobolev_norm(a0)
    )
    return bound - (x @ y).sobolev_norm(s)


def chain_bound_margins(ops, s: float, tc: TameConstants):
    """Margins of the n-factor product bounds at alpha0 and at s.

    Returns ``(margin_alpha0, margin_s)`` for

        ||prod X_i||_a0 <= c0^(n-1) prod ||X_i||_a0,
        ||prod X_i||_s  <= n c0^n k1(s) sum_i (prod_{j != i} ||X_j||_a0) ||X_i||_s.
    """
    if s < tc.alpha0 - 1e-12:
        raise TameRangeError("tame range: s must be at least alpha0")
    n = len(ops)
    if n < 1:
        raise ValueError("need at least one operator")
    prod = ops[0]
    for op in ops[1:]:
        prod = prod @ op
    a0 = tc.alpha0
    norms_a0 = [op.sobolev_norm(a0) for op in ops]
    norms_s = [op.sobolev_norm(s) for op in ops]
    bound_a0 = tc.c0 ** (n - 1) * float(np.prod(norms_a0))
    cross = 0.0
    for i in range(n):
        rest = 1.0
        for j in range(n):
            if j != i:
                rest *= norms_a0[j]
        cross += rest * norms_s[i]
    bound_s = n * tc.c0**n * tc.k1(s) * cross
    return bound_a0 - prod.sobolev_norm(a0), bound_s - prod.sobolev_norm(s)
