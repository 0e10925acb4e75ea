import ast
import itertools
import math
import operator
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DIFFERENTIAL_BOXES, offset_flat_id, pair_dist, pair_offset_ids,
                      random_banded, reference_hopping, scatter_offsets)
from nmloc import (
    DiagonalOperator,
    HoppingSpec,
    LatticeBox,
    LatticeOperator,
    TameConstants,
    build_hopping,
    chain_bound_margins,
    lattice_weight_sum,
    tame_bound_check,
)
from nmloc.errors import TameRangeError
from nmloc.operators import UNDERFLOW_FLOOR, _riemann_zeta, flush_underflow, shift_diagonal


def sobolev_oracle(op, s):
    """Direct summation: loop over offsets, python max per diagonal."""
    box = op.box
    total = 0.0
    offsets = itertools.product(
        range(-2 * box.radius, 2 * box.radius + 1), repeat=box.dimension
    )
    for k in offsets:
        sup = 0.0
        for p in range(box.n_sites):
            j = box.site_index(box.sites[p] - np.asarray(k))
            if j >= 0:
                sup = max(sup, abs(op.entries[p, j]))
        klen = max(abs(c) for c in k)
        total += sup**2 * max(1, klen) ** (2 * s)
    return math.sqrt(total)


def test_identity_norm_is_one(box1d, box2d):
    for box in (box1d, box2d):
        eye = LatticeOperator.identity(box)
        for s in (0.0, 1.0, 3.7):
            assert eye.sobolev_norm(s) == 1.0


def test_single_diagonal_norm(box1d):
    c = 2.5 - 1.0j
    entries = np.zeros((box1d.n_sites, box1d.n_sites), complex)
    entries[pair_offset_ids(box1d) == offset_flat_id(box1d, (3,))] = c
    op = LatticeOperator(box1d, entries)
    for s in (0.0, 1.0, 2.5):
        assert op.sobolev_norm(s) == pytest.approx(abs(c) * 3.0**s, rel=1e-14)


def test_power_law_norm_matches_direct_summation():
    box = LatticeBox(1, 32, 24)
    from nmloc import HoppingSpec, build_hopping

    s0 = 4.0
    T = build_hopping(HoppingSpec(s_exponent=s0, epsilon=1.0), box)
    s = s0 - 0.5 - 0.05
    expected = math.sqrt(
        sum((abs(k) ** (-s0)) ** 2 * abs(k) ** (2 * s) for k in range(-64, 65) if k)
    )
    assert T.sobolev_norm(s) == pytest.approx(expected, rel=1e-13)
    assert math.isfinite(T.sobolev_norm(s))


def test_sobolev_norm_against_oracle(rng, box1d):
    op = random_banded(box1d, rng, n_offsets=5)
    for s in (0.0, 0.8, 2.0):
        assert op.sobolev_norm(s) == pytest.approx(sobolev_oracle(op, s), rel=1e-12)


def test_norm_monotone_in_s(rng, box2d):
    op = random_banded(box2d, rng, n_offsets=4)
    norms = [op.sobolev_norm(s) for s in (0.0, 0.5, 1.0, 2.0, 3.0)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_a_norm_whose_square_overflows_is_finite(rng, box1d):
    # entries near 1e160 square past the float range; the norm squares the
    # weighted sups at 2^-e, the power of two of the largest, and scales the
    # root back, exactly: 2^e times the norm of the 2^-e scaling
    op = random_banded(box1d, rng, n_offsets=5)
    e = 531  # 2^531 is about 1.4e160
    big = LatticeOperator(box1d, op.entries * 2.0**e)
    non_finite = []
    for value in (np.inf, np.nan):
        entries = op.entries.copy()
        entries[2, 5] = value
        non_finite.append(LatticeOperator(box1d, entries))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (0.0, 0.8, 2.0):
            assert big.sobolev_norm(s) == math.ldexp(op.sobolev_norm(s), e) < math.inf
        assert LatticeOperator.zeros(box1d).sobolev_norm(1.0) == 0.0
        assert non_finite[0].sobolev_norm(1.0) == math.inf
        assert math.isnan(non_finite[1].sobolev_norm(1.0))
    # at s = 300, <k>^s overflows for |k| >= 11 (2^(1024/300) is about 10.6):
    # the zero-sup slots there give 0, not 0 * inf = NaN, and the small sups
    # at |k| = 12 and 16 give finite weighted sups, 2^f scaled by 2^E
    mpmath = pytest.importorskip("mpmath")
    terms = ((3, 1.0), (-12, 2.0**-1000), (16, 3.0 * 2.0**-1000))
    entries = np.zeros((box1d.n_sites,) * 2, complex)
    for k, value in terms:
        entries[pair_offset_ids(box1d) == offset_flat_id(box1d, (k,))] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = LatticeOperator(box1d, entries).sobolev_norm(300.0)
    with mpmath.workprec(200):
        exact = mpmath.sqrt(sum(mpmath.mpf(v) ** 2 * mpmath.mpf(abs(k)) ** 600
                                for k, v in terms))
        assert abs(mpmath.mpf(got) - exact) <= 1e-12 * exact


def test_multiply_against_brute_force(rng):
    box = LatticeBox(1, 4, 3)  # 9 sites
    x = random_banded(box, rng, n_offsets=4)
    y = random_banded(box, rng, n_offsets=4)
    z = x @ y
    brute = np.zeros((9, 9), complex)
    for i in range(9):
        for j in range(9):
            brute[i, j] = sum(x.entries[i, l] * y.entries[l, j] for l in range(9))
    np.testing.assert_allclose(z.entries, brute, rtol=1e-12, atol=1e-14)


def test_shift_composition(box1d):
    def shift(k):
        e = np.zeros((box1d.n_sites, box1d.n_sites), complex)
        e[pair_offset_ids(box1d) == offset_flat_id(box1d, (k,))] = 1.0
        return LatticeOperator(box1d, e)

    two = shift(1) @ shift(1)
    expect = shift(2)
    np.testing.assert_allclose(two.entries, expect.entries)
    eye = LatticeOperator.identity(box1d)
    np.testing.assert_allclose((shift(1) @ eye).entries, shift(1).entries)


def test_product_diagonal_formula(rng):
    # Z_k(i) = sum_j X_j(i) (sigma_j Y_{k-j})(i), with A_k(i) = A_{i,i-k} and
    # the j whose i-j leaves the box dropped
    box = LatticeBox(1, 4, 3)
    x = random_banded(box, rng, n_offsets=3)
    y = random_banded(box, rng, n_offsets=3)
    z = x @ y
    for k in (-3, 0, 2):
        for p in range(box.n_sites):
            i = box.sites[p, 0]
            col = box.site_index((i - k,))
            if col < 0:
                continue
            acc = 0.0
            for j in range(-2 * box.radius, 2 * box.radius + 1):
                src = box.site_index((i - j,))
                if src < 0:
                    continue
                acc += x.entries[p, src] * y.entries[src, col]
            assert z.entries[p, col] == pytest.approx(acc, rel=1e-12, abs=1e-13)


def test_transpose_is_an_involution(box1d, rng):
    op = random_banded(box1d, rng, n_offsets=4)
    np.testing.assert_array_equal(op.transpose().transpose().entries, op.entries)


def test_smoothing_definition(box1d, rng):
    op = random_banded(box1d, rng, n_offsets=6)
    assert np.array_equal(op.smooth(2 * box1d.radius).entries, op.entries)
    only_diag = op.smooth(0.5)
    assert np.all(only_diag.entries == np.diag(np.diagonal(op.entries)))
    # offsets {0, 1, 3}, theta = 2 keeps {0, 1}
    e = np.zeros((box1d.n_sites,) * 2, complex)
    for k in (0, 1, 3):
        e[pair_offset_ids(box1d) == offset_flat_id(box1d, (k,))] = 1.0
    sm = LatticeOperator(box1d, e).smooth(2.0)
    kept = {
        box1d.offset_vector(int(f))
        for f in np.unique(pair_offset_ids(box1d)[np.abs(sm.entries) > 0])
    }
    assert kept == {(0,), (1,)}


@settings(max_examples=30, deadline=None)
@given(
    s=st.floats(min_value=0.0, max_value=4.0),
    sp=st.floats(min_value=0.0, max_value=4.0),
    # the band bound needs theta >= 1: below that only the 0-diagonal
    # survives and its weight <0> = 1 cannot be beaten by theta^(s-s')
    theta=st.floats(min_value=1.0, max_value=16.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_smoothing_bounds_hold(s, sp, theta, seed):
    box = LatticeBox(1, 8, 6)
    op = random_banded(box, np.random.default_rng(seed), n_offsets=5)
    lo, hi = min(s, sp), max(s, sp)
    # band bound at s >= s', complement bound at s <= s'
    assert op.smooth(theta).sobolev_norm(hi) <= theta ** (hi - lo) * op.sobolev_norm(
        lo
    ) * (1 + 1e-12) + 1e-15
    assert (op - op.smooth(theta)).sobolev_norm(lo) <= theta ** (lo - hi) * (
        op.sobolev_norm(hi)
    ) * (1 + 1e-12) + 1e-15


def test_smoothing_equality_witnesses(box1d):
    # single diagonal at |k| = theta: the band bound is attained exactly
    for theta, s, sp in ((3.0, 2.0, 1.0), (2.0, 3.5, 0.0), (5.0, 1.5, 1.5)):
        k = int(theta)
        e = np.zeros((box1d.n_sites,) * 2, complex)
        e[pair_offset_ids(box1d) == offset_flat_id(box1d, (k,))] = 1.7
        op = LatticeOperator(box1d, e)
        lhs = op.smooth(theta).sobolev_norm(s)
        rhs = theta ** (s - sp) * op.sobolev_norm(sp)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # complement witness at s = s': everything survives, equality again
        assert (op - op.smooth(theta - 1)).sobolev_norm(s) == pytest.approx(
            op.sobolev_norm(s), rel=1e-12
        )


# -- tame machinery -----------------------------------------------------------


def lattice_sum_oracle(dimension, alpha0, cutoff=200_000):
    """Partial shell sums plus a midpoint integral tail, to ~1e-9 relative."""
    total = 1.0
    p = 2.0 * alpha0
    if dimension == 1:
        m = np.arange(1.0, cutoff + 1.0)
        total += float(np.sum(2.0 * m**-p))
        total += 2.0 * (cutoff + 0.5) ** (1.0 - p) / (p - 1.0)
    elif dimension == 2:
        m = np.arange(1.0, cutoff + 1.0)
        total += float(np.sum(8.0 * m ** (1.0 - p)))
        total += 8.0 * (cutoff + 0.5) ** (2.0 - p) / (p - 2.0)
    else:
        raise NotImplementedError
    return total


def test_lattice_sum_against_partial_sum_oracle():
    for d, a0 in ((1, 0.6), (1, 1.4), (2, 1.2), (2, 2.0)):
        assert lattice_weight_sum(d, a0) == pytest.approx(
            lattice_sum_oracle(d, a0), rel=1e-6
        )


def test_k0_value_d1_alpha06():
    # K0 = sqrt(20 (1 + 2 sum k^-1.2)), recomputed from the oracle
    tc = TameConstants(1, 0.6)
    expected = math.sqrt(20.0 * lattice_sum_oracle(1, 0.6))
    assert tc.k0 == pytest.approx(expected, rel=1e-6)
    assert tc.c0 == pytest.approx(tc.k0 + tc.k1(0.6), rel=1e-15)


# 150 points log-spaced from 1 + 1e-6 to 64 (the first 60 within 1e-3 of
# 1, where the pole term dominates) and 100 evenly spaced on (1, 64]
ZETA_GRID = sorted({1.0 + 63.0 ** (i / 149) * 1e-6 ** (1 - i / 149) for i in range(150)}
                   | {1.0 + 0.63 * i for i in range(1, 101)})


def test_riemann_zeta_within_one_ulp_of_a_200_bit_reference():
    mpmath = pytest.importorskip("mpmath")
    assert len(ZETA_GRID) >= 200 and sum(s - 1.0 < 1e-3 for s in ZETA_GRID) >= 50
    with mpmath.workprec(200):
        for s in ZETA_GRID:
            exact = mpmath.zeta(mpmath.mpf(s))
            error = abs(mpmath.mpf(_riemann_zeta(s)) - exact)
            assert error <= math.ulp(float(exact)), s


def test_riemann_zeta_closed_forms():
    # the closed forms carry their own float rounding
    assert abs(_riemann_zeta(2.0) - math.pi**2 / 6) <= 4 * math.ulp(math.pi**2 / 6)
    assert abs(_riemann_zeta(4.0) - math.pi**4 / 90) <= 4 * math.ulp(math.pi**4 / 90)


def test_alpha0_must_exceed_half_dimension():
    with pytest.raises(ValueError):
        TameConstants(1, 0.5)
    with pytest.raises(ValueError):
        TameConstants(2, 1.0)


def test_tame_identity_margin(box1d):
    tc = TameConstants(1, 0.6)
    eye = LatticeOperator.identity(box1d)
    margin = tame_bound_check(eye, eye, 2.0, tc)
    assert margin == pytest.approx(tc.k0 + tc.k1(2.0) - 1.0, rel=1e-12)
    assert margin > 0


def test_tame_range_error(box1d):
    tc = TameConstants(1, 0.6)
    eye = LatticeOperator.identity(box1d)
    with pytest.raises(TameRangeError, match="tame range"):
        tame_bound_check(eye, eye, 0.3, tc)


def test_tame_margins_on_random_pairs(rng, box1d, box2d):
    for box, a0 in ((box1d, 0.6), (box2d, 1.2)):
        tc = TameConstants(box.dimension, a0)
        for _ in range(25):
            x = random_banded(box, rng, n_offsets=5)
            y = random_banded(box, rng, n_offsets=5)
            assert tame_bound_check(x, y, a0 + 1.4, tc) >= 0.0


def test_chain_bounds_n_2_3_4(rng, box1d):
    tc = TameConstants(1, 0.6)
    ops = [random_banded(box1d, rng, n_offsets=4) for _ in range(4)]
    for n in (2, 3, 4):
        m_lo, m_hi = chain_bound_margins(ops[:n], 2.1, tc)
        assert m_lo >= 0.0
        assert m_hi >= 0.0


def test_diagonal_operator_norm_index_free(box1d):
    D = DiagonalOperator(box1d, np.linspace(-2, 2, box1d.n_sites))
    assert D.sobolev_norm(0.0) == D.sobolev_norm(5.0) == 2.0
    as_op = D.as_operator()
    for s in (0.0, 3.0):
        assert as_op.sobolev_norm(s) == pytest.approx(D.sobolev_norm(), rel=1e-14)


def test_diagonal_operator_copies_and_freezes_its_values(box1d):
    arr = np.linspace(-2, 2, box1d.n_sites)
    D = DiagonalOperator(box1d, arr)
    arr[:] = 7.0
    np.testing.assert_array_equal(D.values, np.linspace(-2, 2, box1d.n_sites))
    assert not D.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        D.values[0] = 1.0
    listed = DiagonalOperator(box1d, [1] * box1d.n_sites)
    assert listed.values.dtype == complex
    np.testing.assert_array_equal(listed.values, np.ones(box1d.n_sites))


def test_diagonal_sum_matches_dense_sum_entry_for_entry(rng, box1d):
    n = box1d.n_sites
    op = LatticeOperator(box1d, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    for values in (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)):
        D = DiagonalOperator(box1d, values)
        dense = D.as_operator().entries
        np.testing.assert_array_equal((op + D).entries, op.entries + dense)
        np.testing.assert_array_equal((D + op).entries, dense + op.entries)
        np.testing.assert_array_equal((op - D).entries, op.entries - dense)
    eye = DiagonalOperator.identity(box1d)
    np.testing.assert_array_equal((op - eye).entries, op.entries - np.eye(n))
    with pytest.raises(ValueError, match="box mismatch"):
        op + DiagonalOperator.identity(LatticeBox(1, 2, 1))


def test_shift_diagonal_matches_the_dense_diagonal_bit_for_bit(rng):
    n = 7
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    zeros = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    a[np.arange(3), np.arange(3)] = zeros
    box = LatticeBox(1, 3, 1)
    for values in (np.r_[-0.0, 0.0, -0.0, rng.normal(size=n - 3)],
                   np.r_[zeros, rng.normal(size=n - 3) + 1j * rng.normal(size=n - 3)]):
        for ufunc, op_sum in ((np.add, operator.add), (np.subtract, operator.sub)):
            expected = ufunc(a, np.diag(values)).tobytes()
            copy = a.copy()
            assert shift_diagonal(copy, values, ufunc) is copy
            assert copy.tobytes() == expected
            # a transposed view and a strided slice move through to their base
            base = a.T.copy()
            shift_diagonal(base.T, values, ufunc)
            assert base.T.tobytes() == expected
            big = np.zeros((2 * n, 3 * n), dtype=complex)
            big[::2, ::3] = a
            shift_diagonal(big[::2, ::3], values, ufunc)
            assert big[::2, ::3].tobytes() == expected
            # the operator sums copy once and leave their operand alone
            op, D = LatticeOperator(box, a), DiagonalOperator(box, values)
            assert op_sum(op, D).entries.tobytes() == expected
            assert op.entries.tobytes() == a.tobytes()
    with pytest.raises(ValueError):
        shift_diagonal(np.zeros((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match="read-only"):
        shift_diagonal(LatticeOperator(box, a).entries, np.ones(n))


# parts the flush must zero: just under the floor, the smallest normal double
# and subnormals, each with both signs
FLUSHED_PARTS = [np.nextafter(UNDERFLOW_FLOOR, 0.0), -np.nextafter(UNDERFLOW_FLOOR, 0.0),
                 2.0**-700, np.finfo(float).tiny, -np.finfo(float).tiny,
                 2.0**-1050, -(2.0**-1074)]
# parts it must keep bit for bit: the floor itself, signed zeros, ordinary
# values and the non-finite ones that the finiteness checks read
KEPT_PARTS = [UNDERFLOW_FLOOR, -UNDERFLOW_FLOOR, 0.0, -0.0, 1.0, -3.25, 1e-150,
              -1e150, np.nan, np.inf, -np.inf]


def test_flush_underflow_zeros_the_parts_below_the_floor(box1d, rng):
    n = box1d.n_sites
    parts = np.array(FLUSHED_PARTS + KEPT_PARTS)
    # every value lands in the real and in the imaginary part, each time
    # next to a different partner
    picks = rng.integers(len(parts), size=(2, n, n))
    picks[0].flat[:len(parts)] = np.arange(len(parts))
    picks[1].flat[n:n + len(parts)] = np.arange(len(parts))
    entries = np.empty((n, n), dtype=complex)
    entries.real, entries.imag = parts[picks[0]], parts[picks[1]]
    op = LatticeOperator(box1d, entries.copy())
    assert flush_underflow(op) is op
    assert not op.entries.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        op.entries[0, 0] = 0.0
    out = op.entries.view(np.float64).reshape(n, n, 2)
    was = entries.view(np.float64).reshape(n, n, 2)
    flushed = np.stack(picks, axis=-1) < len(FLUSHED_PARTS)
    assert np.all(out[flushed] == 0.0)  # a zero of either sign
    assert np.array_equal(out[~flushed].view(np.uint64), was[~flushed].view(np.uint64))
    # the caches go: a per-offset sup read before the flush is read afresh
    tail = LatticeOperator(box1d, np.eye(n) * 2.0**-600)
    assert tail.diag_sups().max() == 2.0**-600
    assert flush_underflow(tail).diag_sups().max() == 0.0


def test_flush_underflow_scratch_is_under_a_sixteenth_of_a_buffer(rng):
    # at n = 513 the blocks of 28 rows hold 225 KiB of multipliers and
    # mask, and the last block is 9 rows
    box = LatticeBox(1, 256, 200)
    n = box.n_sites
    entries = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    entries *= np.ldexp(1.0, rng.integers(-1100, 4, size=(n, n)))
    expected = np.where(np.abs(entries.real) < UNDERFLOW_FLOOR, 0.0, entries.real) + 0j
    expected.imag = np.where(np.abs(entries.imag) < UNDERFLOW_FLOOR, 0.0, entries.imag)
    op = LatticeOperator(box, entries)
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        flush_underflow(op)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n / 16, peak
    np.testing.assert_array_equal(op.entries, expected)
    assert np.count_nonzero(op.entries.view(np.float64)) < 2 * n * n  # something flushed


@pytest.mark.parametrize("dimension, radius", DIFFERENTIAL_BOXES)
def test_hopping_symbol_is_the_dense_hopping(dimension, radius):
    # the symbol's bands are the dense formula's entries, masked, and its
    # per-slot sups and norms are the dense operator's fold and norms, bit
    # for bit: every entry of a slot is the one value of its radius
    box = LatticeBox(dimension, radius, 1)
    dist = pair_dist(box)
    for s in (3.0, 4.0, 5.55, math.inf):
        for epsilon in (0.0, 0.1):
            T = build_hopping(HoppingSpec(s_exponent=s, epsilon=epsilon), box)
            ref = reference_hopping(box, s, epsilon)
            assert T.band(-1, math.inf).entries.tobytes() == ref.tobytes()
            for lo, hi in ((-1, 0), (0, 1.5), (2.0, 4.0), (4.0, math.inf)):
                band = np.where((dist > lo) & (dist <= hi), ref, 0)
                assert T.band(lo, hi).entries.tobytes() == band.tobytes(), (s, lo, hi)
            dense = LatticeOperator(box, ref)
            assert T.diag_sups().tobytes() == dense.diag_sups().tobytes()
            for index in (0.0, 0.6, 3.45, 5.55):
                assert repr(T.sobolev_norm(index)) == repr(dense.sobolev_norm(index))


# a dtype naming a complex number type, in any spelling numpy takes
COMPLEX_DTYPE = re.compile(r"(?:dtype\s*=\s*|astype\(\s*)(?:np\.)?[\"']?complex"
                           r"|complex(?:64|128)\b|\bc(?:single|double)\b")


def test_only_operators_py_names_a_complex_dtype():
    # operators.py owns the number type of every operator; the one other
    # site parses a caller's custom_values to check that they are finite
    src = Path(__file__).resolve().parents[1] / "src" / "nmloc"
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(src.glob("*.py")) if path.name != "operators.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if COMPLEX_DTYPE.search(line) and not (
            path.name == "models.py" and "np.asarray(self.custom_values, dtype=complex)" in line)
    ]
    assert found == []


# numpy's dense products, by function or method name
PRODUCT_CALLS = {"matmul", "dot", "vdot", "einsum", "tensordot", "inner", "multi_dot"}


def attribute_reader(tree, attr: str):
    """A test of whether an expression reads ``.attr``: the attribute itself,
    a view, slice or method of it (``.attr.real``, ``.attr[:, c]``,
    ``.attr.conj()``), or a name bound to one in the module ``tree``."""

    def reads(node, names=frozenset()):
        while True:
            if isinstance(node, ast.Attribute):
                if node.attr == attr:
                    return True
                node = node.value
            elif isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                node = node.func
            elif isinstance(node, ast.Starred):
                node = node.value
            else:
                return isinstance(node, ast.Name) and node.id in names

    names = frozenset(
        target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
        and reads(node.value) for target in node.targets if isinstance(target, ast.Name))
    return lambda node: reads(node, names)


def dense_products_outside_the_operator(source: str) -> list[int]:
    """Lines where ``@``, ``np.matmul``, ``np.dot``, ``einsum`` or another numpy
    product takes an ``.entries`` operand (``attribute_reader``)."""
    tree = ast.parse(source)
    reads_entries = attribute_reader(tree, "entries")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
            operands = (node.target, node.value)
        elif isinstance(node, ast.Call) and (
                getattr(node.func, "attr", None) in PRODUCT_CALLS
                or getattr(node.func, "id", None) in PRODUCT_CALLS):
            operands = (*node.args, *(k.value for k in node.keywords))
            if getattr(node.func, "attr", None) in PRODUCT_CALLS:
                operands += (node.func.value,)  # a.dot(b) takes a too
        else:
            continue
        if any(map(reads_entries, operands)):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("source, lines", [
    ("a.entries @ b", [1]),
    ("c = a @ b.entries.T", [1]),
    ("x = np.matmul(a.entries.real, b)", [1]),
    ("x = np.dot(q, r.entries[:, 0])", [1]),
    ("x = np.einsum('ij,jk->ik', a, b.entries.conj())", [1]),
    ("e = op.entries\nx = e @ w", [2]),
    ("x = a.entries.dot(b)", [1]),
    ("x = a @ b\ny = LatticeOperator(box, q.entries * v) @ r\nz = a.entries * b", []),
])
def test_the_dense_product_guard_reads_entries_operands(source, lines):
    assert dense_products_outside_the_operator(source) == lines


def test_every_dense_product_goes_through_the_operator():
    # outside operators.py no numpy product takes an operator's entries, so
    # LatticeOperator.__matmul__ is every n x n product and
    # operators.matmul_count counts each one
    src = Path(__file__).resolve().parents[1] / "src" / "nmloc"
    found = {path.name: lines for path in sorted(src.glob("*.py")) if path.name != "operators.py"
             if (lines := dense_products_outside_the_operator(path.read_text()))}
    assert found == {}


BAND_COMPARISONS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def band_predicates_outside_the_box(source: str) -> list[int]:
    """Lines where ``<``, ``<=``, ``>`` or ``>=`` takes an ``.offset_len``
    operand (``attribute_reader``): a band predicate on the offset slots."""
    tree = ast.parse(source)
    reads_lens = attribute_reader(tree, "offset_len")
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(op, BAND_COMPARISONS) for op in node.ops)
            and any(map(reads_lens, (node.left, *node.comparators)))]


@pytest.mark.parametrize("source, lines", [
    ("ring = box.offset_len <= theta", [1]),
    ("lens = box.offset_len\nring = lens > lo", [2]),
    ("x = 0 < box.offset_len[slots]", [1]),
    ("x = (lo < b.offset_len.astype(float)) & (b.offset_len >= hi)", [1, 1]),
    ("x = box.offset_len == 0\ny = np.maximum(box.offset_len, 1.0)\nz = lens < 2", []),
])
def test_the_band_guard_reads_offset_len_operands(source, lines):
    assert band_predicates_outside_the_box(source) == lines


def test_the_band_predicate_has_one_home():
    # outside box.py no ordering comparison reads the offset lengths, so
    # LatticeBox.band_slots is every band: the slices, S_theta, the
    # generator's band, R' and the distal scan's nonzero offsets
    src = Path(__file__).resolve().parents[1] / "src" / "nmloc"
    found = {path.name: lines for path in sorted(src.glob("*.py")) if path.name != "box.py"
             if (lines := band_predicates_outside_the_box(path.read_text()))}
    assert found == {}


def test_no_step_or_solver_reads_the_strict_regime():
    # the strict regime is a verdict on a run's stored data: theory_checks is
    # read only where the verdict is applied, and no function takes a mode
    # that would let a step or a solve read it
    readers, strict = set(), []

    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = f"{where.split('.')[0]}.{getattr(node, 'name', '<lambda>')}"
            args = node.args
            if "strict" in (a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)):
                strict.append(where)
        elif (isinstance(node, ast.Attribute) and node.attr == "theory_checks"
              and isinstance(node.ctx, ast.Load)):
            readers.add(where)
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "nmloc").glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert readers == {"iteration.run", "localization.certify", "cli.cmd_check_theory"}
    assert strict == []


def test_a_finished_run_has_one_verdict():
    # localization.certify judges a finished run: run refuses only before
    # its first step, and only main and a sweep's cell name a failed check
    refusals, messages = [], []

    def walk(node, where, func, docstrings):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where, func = f"{where.split('.')[0]}.{node.name}", node
        elif (isinstance(node, ast.Raise) and "TheoryConditionError"
              in {getattr(n, "id", None) for n in ast.walk(node)}):
            loops = [n.lineno for n in ast.walk(func) if isinstance(n, ast.While)]
            refusals.append((where, bool(loops) and node.lineno < min(loops)))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "invariant failed" in node.value and id(node) not in docstrings):
            messages.append(where)
        for child in ast.iter_child_nodes(node):
            walk(child, where, func, docstrings)

    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "nmloc").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = {id(n.body[0].value) for n in ast.walk(tree)
                      if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                      and n.body and isinstance(n.body[0], ast.Expr)
                      and isinstance(n.body[0].value, ast.Constant)}
        walk(tree, path.stem, None, docstrings)
    assert refusals == [("iteration.run", True)]
    assert sorted(messages) == ["cli.cmd_sweep", "cli.main"]


def test_a_finished_run_is_measured_not_refused():
    # unitarize measures and raises nothing; the one symmetry refusal left is
    # the spectrum that only a real symmetric run has; the data rule is
    # decided by the first step alone and kept on the result
    raises, refusals, rule_callers = [], [], []

    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        elif isinstance(node, ast.Raise):
            raises.append(where)
            if any(getattr(n, "id", None) == "SymmetryDefectError" for n in ast.walk(node)):
                refusals.append(where)
        elif (isinstance(node, ast.Call) and "real_symmetric_data"
              in (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
            rule_callers.append(where)
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "nmloc").glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert "iteration.unitarize" not in raises
    assert refusals == ["iteration.SchemeResult.spectrum"]
    assert rule_callers == ["iteration.initial_step"]


# reopening a frozen array: the writeable flag set to true, in either spelling
REOPEN = re.compile(r"writeable\s*=\s*True|setflags\([^)]*write\s*=\s*(?:True|1)")


def test_only_operators_py_reopens_a_frozen_array():
    # operators are immutable, and operators.py owns that: its in-place
    # flush is the one place that writes into a frozen array
    src = Path(__file__).resolve().parents[1] / "src" / "nmloc"
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(src.glob("*.py")) if path.name != "operators.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if REOPEN.search(line)
    ]
    assert found == []
    assert REOPEN.search((src / "operators.py").read_text())


# -- singular values: the Gram eigensolve against the reference SVD ----------------


def assert_matches_svd(op, smallest=True):
    """Largest (and, when asked, smallest) value within 1e-12 of the SVD's."""
    svals = op.singular_values()
    ref = np.linalg.svd(op.entries, compute_uv=False)
    assert svals.shape == ref.shape
    assert np.all(np.diff(svals) <= 0.0)
    assert svals[0] == pytest.approx(ref[0], rel=1e-12, abs=0.0)
    assert op.operator_norm() == svals[0]
    if smallest:
        assert svals[-1] == pytest.approx(ref[-1], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("which", ["flagship_result", "sarnak_result"])
def test_singular_values_match_svd_on_certified_runs(which, request):
    # Q+ and Q+^-1 are within a few percent of unitary, so both ends are
    # resolved; A = T + D + D+ and R only need their norm
    res = request.getfixturevalue(which)
    assert res.converged
    assert_matches_svd(res.qplus)
    assert_matches_svd(res.qplus_inv)
    assert_matches_svd(res.conjugation_pair[0], smallest=False)
    assert_matches_svd(res.final_residual, smallest=False)


def test_singular_values_match_svd_when_clustered(rng, box2d):
    # sigma_2 / sigma_1 = 1 - 1e-6: the clustered spectra of Q+ and Q+^-1
    n = box2d.n_sites
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, _ = np.linalg.qr(z)
    op = LatticeOperator(box2d, u * (1.0 + 1e-6 * np.arange(n))[None, :])
    assert_matches_svd(op)
    np.testing.assert_allclose(op.singular_values(), 1.0 + 1e-6 * np.arange(n)[::-1],
                               rtol=1e-12, atol=0.0)


def test_singular_values_of_rank_deficient_and_zero(rng, box1d):
    n = box1d.n_sites
    x = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    assert_matches_svd(LatticeOperator(box1d, x @ x.conj().T), smallest=False)
    assert_matches_svd(LatticeOperator(box1d, x.real @ x.real.T), smallest=False)
    zero = LatticeOperator.zeros(box1d)
    np.testing.assert_array_equal(zero.singular_values(), np.zeros(n))
    assert zero.operator_norm() == 0.0


@pytest.mark.parametrize("exponent", [600, -600])
def test_singular_values_scale_exactly_by_powers_of_two(rng, box1d, exponent):
    # the Gram of 2^600 X would overflow and that of 2^-600 X underflow
    # without the exact power-of-two scaling
    n = box1d.n_sites
    for x in (rng.normal(size=(n, n)), rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))):
        scaled = LatticeOperator(box1d, np.ldexp(1.0, exponent) * x).singular_values()
        base = LatticeOperator(box1d, x).singular_values()
        np.testing.assert_array_equal(scaled, np.ldexp(base, exponent))
        assert np.all(np.isfinite(scaled)) and scaled[-1] > 0.0


def test_non_finite_operator_has_nan_norm(rng, box1d):
    n = box1d.n_sites
    for bad in (np.nan, np.inf):
        entries = rng.normal(size=(n, n)).astype(complex)
        entries[2, 5] = bad
        op = LatticeOperator(box1d, entries)
        assert math.isnan(op.operator_norm())
        assert np.all(np.isnan(op.singular_values()))


@pytest.mark.parametrize("dimension, radius", DIFFERENTIAL_BOXES)
def test_diag_sups_are_the_scatter(dimension, radius, rng):
    # the per-offset sups equal a scatter of |entries| from 0 bit for bit,
    # with NaN and infinite real and imaginary parts among the entries
    box = LatticeBox(dimension, radius, 1)
    shape = (box.n_sites,) * 2
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for value in (np.nan, complex(np.inf, 1.0), complex(-1.0, -np.inf),
                  complex(np.nan, np.inf), complex(-np.inf, np.nan)):
        z[rng.random(shape) < 0.03] = value
    sups = LatticeOperator(box, z).diag_sups()
    reference = scatter_offsets(box, np.abs(z), np.maximum, 0.0)
    assert np.array_equal(sups.view(np.uint64), reference.view(np.uint64))
