import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DIFFERENTIAL_BOXES,
    reference_window_gamma,
    reference_window_margin,
    scatter_offsets,
)
from nmloc import (
    GOLDEN_MEAN,
    DiagonalOperator,
    LatticeBox,
    TorusProfile,
    build_potential,
    distal_gamma_box,
    window_scan,
)
from nmloc.errors import DegenerateSequenceError, DistalViolationError
from nmloc.models import POTENTIAL_KINDS, PotentialSpec
from nmloc.operators import BV_GRID_POINTS


def test_unit_sequence_has_norm_one(box1d):
    assert DiagonalOperator(box1d, np.ones(box1d.n_sites)).sobolev_norm() == 1.0


def test_zero_sequence_norm(box1d):
    assert DiagonalOperator(box1d, np.zeros(box1d.n_sites)).sobolev_norm() == 0.0


def test_tan_sequence_norm_matches_direct_evaluation():
    # oracle: plain python max over the 17 sites
    box = LatticeBox(1, 8, 6)
    expected = max(abs(math.tan(math.pi * i * GOLDEN_MEAN)) for i in range(-8, 9))
    seq = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), box)
    assert seq.sobolev_norm() == pytest.approx(expected, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_submultiplicative_and_sup_bound(data):
    box = LatticeBox(1, 4, 3)
    draw_vals = lambda: data.draw(
        st.lists(
            st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
            min_size=box.n_sites, max_size=box.n_sites,
        )
    )
    a = DiagonalOperator(box, draw_vals())
    b = DiagonalOperator(box, draw_vals())
    ab = DiagonalOperator(box, a.values * b.values)
    assert ab.sobolev_norm() <= a.sobolev_norm() * b.sobolev_norm() * (1 + 1e-12)
    assert np.max(np.abs(a.values)) <= a.sobolev_norm() + 1e-15


def test_sampled_bv_norm_craig():
    box = LatticeBox(1, 16, 12)
    diagonals = {
        kind: build_potential(
            PotentialSpec(kind, omega=(GOLDEN_MEAN,),
                          custom_values=np.arange(box.n_sites, dtype=float)), box)
        for kind in POTENTIAL_KINDS
    }
    seq = diagonals.pop("craig_mod1")
    for kind, other in diagonals.items():  # every other kind has the sup norm
        assert other.bv_profile is None, kind
        assert other.sobolev_norm() == np.max(np.abs(other.values)), kind
    assert seq.bv_profile is not None
    # sup of x mod 1 on the grid is 1 - 1/M, its periodic total variation
    # 2 (1 - 1/M): they approach the profile's sup 1 and variation 2
    norm = seq.sobolev_norm()
    assert norm == 3.0 * (1.0 - 1.0 / BV_GRID_POINTS) == 2.999267578125
    # sup bound of the lattice values still holds
    assert np.max(np.abs(seq.values)) <= norm


def test_arithmetic_progression_distal_margin():
    # p_i = 2i: ||(p - sigma_k p)^-1|| = 1/(2|k|), so (tau=1, gamma=2) is
    # exactly the frontier and every margin is nonnegative
    box = LatticeBox(1, 8, 8)
    formula = lambda s: 2.0 * np.asarray(s, float).ravel()
    p = DiagonalOperator(box, formula(box.sites), formula=formula)
    report = window_scan(p, max_offset=8).margin(tau=1.0, gamma=2.0)
    assert report.passed
    assert report.empirical_margin == pytest.approx(0.0, abs=1e-12)


def test_constant_sequence_distal_violation(box1d):
    p = DiagonalOperator(box1d, np.full(box1d.n_sites, 5.0))
    with pytest.raises(DistalViolationError, match="distal violation"):
        window_scan(p, max_offset=2)


def test_scan_with_no_measurable_offset_raises(box1d):
    p = DiagonalOperator(box1d, np.arange(box1d.n_sites, dtype=float))
    with pytest.raises(DegenerateSequenceError, match="no measurable pairs"):
        window_scan(p, max_offset=0)


def test_maryland_distal_gamma_window_baseline():
    # oracle: brute-force min over the window of |k|^tau / sup_i 1/|p_i - p_{i-k}|
    box = LatticeBox(1, 64, 64)
    D = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), box)
    gamma_best, worst = window_scan(D, max_offset=64).gamma(tau=1.0)

    def oracle():
        best = math.inf
        for k in range(-64, 65):
            if k == 0:
                continue
            worst_inv = max(
                1.0
                / abs(
                    math.tan(math.pi * i * GOLDEN_MEAN)
                    - math.tan(math.pi * (i - k) * GOLDEN_MEAN)
                )
                for i in range(-64, 65)
            )
            best = min(best, abs(k) / worst_inv)
        return best

    assert gamma_best == pytest.approx(oracle(), rel=1e-12)
    # frozen regression value from the oracle above
    assert gamma_best == pytest.approx(1.3683717793513868, rel=1e-9)
    assert 0.9 < gamma_best < 2.0


def test_profile_grid_collision_raises_in_both_scans():
    # distinct lattice values, but a step profile whose grid differences
    # vanish: the one scan both reductions read must reject it
    box = LatticeBox(1, 8, 6)
    profile = TorusProfile(lambda x: np.floor(2.0 * np.mod(x, 1.0)) / 2.0,
                           (GOLDEN_MEAN,))
    p = DiagonalOperator(box, np.mod(box.sites[:, 0] * GOLDEN_MEAN, 1.0),
                         bv_profile=profile)
    with pytest.raises(DistalViolationError, match="profile grid"):
        window_scan(p, max_offset=4)


@pytest.mark.parametrize("dimension, radius, interior", [(1, 16, 12), (2, 4, 3)])
@pytest.mark.parametrize("kind", POTENTIAL_KINDS)
def test_window_scan_reductions_match_the_reference_loops_bit_for_bit(
        kind, dimension, radius, interior, rng):
    box = LatticeBox(dimension, radius, interior)
    omega = (GOLDEN_MEAN, math.sqrt(2.0) - 1.0)[:dimension]
    D = build_potential(PotentialSpec(
        kind, omega=omega if kind in ("maryland", "sarnak", "craig_mod1") else None,
        custom_values=rng.standard_normal(box.n_sites) if kind == "custom" else None), box)
    assert (D.bv_profile is not None) == (kind == "craig_mod1")
    max_offset = 2 * radius
    scan = window_scan(D, max_offset)
    for tau in (0.5, 1.0, math.log2(3.0), 2.0):
        gamma, worst = scan.gamma(tau)
        ref_gamma, ref_worst = reference_window_gamma(D, tau, max_offset)
        assert (gamma.hex(), worst) == (ref_gamma.hex(), ref_worst)
        for g in (1e-3, 0.1, 1.0, gamma):  # the last at the frontier itself
            report = scan.margin(tau, g)
            ref = reference_window_margin(D, tau, g, max_offset)
            assert report == ref
            assert report.empirical_margin.hex() == ref.empirical_margin.hex()


def test_distal_margin_monotone_in_gamma():
    box = LatticeBox(1, 16, 12)
    D = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), box)
    scan = window_scan(D, max_offset=16)
    margins = [scan.margin(1.0, g).empirical_margin for g in (0.5, 1.0, 2.0, 4.0)]
    assert all(b <= a + 1e-15 for a, b in zip(margins, margins[1:]))


def test_distal_gamma_box_matches_pair_scan(rng):
    box = LatticeBox(1, 6, 4)
    vals = rng.standard_normal(box.n_sites) * 3.0
    gamma, worst = distal_gamma_box(DiagonalOperator(box, vals), tau=1.3)

    best = math.inf
    arg = None
    for k in range(-12, 13):
        if k == 0:
            continue
        pairs = [
            abs(vals[i] - vals[j])
            for i in range(box.n_sites)
            for j in range(box.n_sites)
            if (box.sites[i, 0] - box.sites[j, 0]) == k
        ]
        val = min(pairs) * abs(k) ** 1.3
        if val < best:
            best, arg = val, (k,)
    assert gamma == pytest.approx(best, rel=1e-12)
    assert worst == arg


def _scatter_distal(box, vals, tau):
    """``distal_gamma_box`` on the scatter of |d_i - d_j| over the pair
    offsets: ``(gamma, worst)``, or the offset of the first coincidence."""
    mins = scatter_offsets(box, np.abs(vals[:, None] - vals[None, :]), np.minimum, np.inf)
    lens = box.offset_len
    realized = np.isfinite(mins) & (lens > 0)
    if np.any(mins[realized] == 0.0):
        return None, box.offset_vector(int(np.flatnonzero(realized & (mins == 0.0))[0]))
    gammas = mins[realized] * lens[realized].astype(float) ** tau
    pos = int(np.argmin(gammas))
    return float(gammas[pos]), box.offset_vector(int(np.flatnonzero(realized)[pos]))


@pytest.mark.parametrize("dimension, radius", DIFFERENTIAL_BOXES)
def test_distal_gamma_box_is_the_scatter(dimension, radius, rng):
    box = LatticeBox(dimension, radius, 1)
    vals = rng.standard_normal(box.n_sites) + 1j * rng.standard_normal(box.n_sites)
    gamma, worst = _scatter_distal(box, vals, 1.3)
    assert distal_gamma_box(DiagonalOperator(box, vals), tau=1.3) == (gamma, worst)
    # coincident values: the violation names the scatter's first offset
    i, j = rng.choice(box.n_sites, size=2, replace=False)
    vals[j] = vals[i]
    gamma, worst = _scatter_distal(box, vals, 1.3)
    assert gamma is None
    message = f"^distal violation at offset {re.escape(str(worst))}$"
    with pytest.raises(DistalViolationError, match=message):
        distal_gamma_box(DiagonalOperator(box, vals), tau=1.3)
