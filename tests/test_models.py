import math

import numpy as np
import pytest

from conftest import offset_flat_id, pair_dist, pair_offset_ids
from nmloc import (
    GOLDEN_MEAN,
    HoppingSpec,
    LatticeBox,
    DiagonalOperator,
    PotentialSpec,
    build_hopping,
    build_potential,
    check_diophantine,
    window_scan,
)


def test_craig_values():
    box = LatticeBox(1, 8, 6)
    D = build_potential(PotentialSpec("craig_mod1", omega=(GOLDEN_MEAN,)), box)
    assert D.values[box.site_index((0,))] == 0.0
    assert D.values[box.site_index((1,))] == pytest.approx(GOLDEN_MEAN, rel=1e-15)
    assert np.all((D.values.real >= 0.0) & (D.values.real < 1.0))


def test_sarnak_unit_modulus():
    box = LatticeBox(1, 12, 8)
    D = build_potential(PotentialSpec("sarnak", omega=(GOLDEN_MEAN,)), box)
    np.testing.assert_allclose(np.abs(D.values), 1.0, rtol=1e-14)


def test_maryland_pole_guard():
    # omega = 1/2 puts every odd site exactly on a pole
    box = LatticeBox(1, 4, 2)
    with pytest.raises(ValueError, match="pole"):
        build_potential(PotentialSpec("maryland", omega=(0.5,)), box)


@pytest.mark.parametrize("kwargs, name", [
    (dict(kind="maryland", omega=(math.nan,)), "omega"),
    (dict(kind="sarnak", omega=(0.3, math.inf)), "omega"),
    (dict(kind="maryland"), "omega"),
    (dict(kind="custom"), "custom_values"),
    (dict(kind="custom", custom_values=[1.0, math.nan, 2.0]), "custom_values"),
    (dict(kind="anderson"), "kind"),
])
def test_potential_spec_refuses_values_a_build_cannot_use(kwargs, name):
    # a NaN omega built an all-NaN Maryland diagonal: its pole check passed,
    # because nan < 1e-8 is false
    with pytest.raises(ValueError, match=f"^{name} "):
        PotentialSpec(**kwargs)


def test_potential_spec_must_fit_the_box():
    box = LatticeBox(1, 4, 2)
    with pytest.raises(ValueError, match="^omega has 2 entries, the box dimension is 1"):
        build_potential(PotentialSpec("maryland", omega=(0.3, 0.4)), box)
    with pytest.raises(ValueError, match=r"^custom_values has shape \(8,\), the box has 9"):
        build_potential(PotentialSpec("custom", custom_values=[1.0] * 8), box)


@pytest.mark.parametrize("name, value", [
    ("s_exponent", 0.0), ("s_exponent", -1.0), ("s_exponent", math.nan),
    ("epsilon", -0.1), ("epsilon", math.nan), ("epsilon", math.inf),
])
def test_hopping_spec_refuses_values_a_build_cannot_use(name, value):
    with pytest.raises(ValueError, match=f"^{name} "):
        HoppingSpec(**{"s_exponent": 4.0, "epsilon": 0.1, name: value})


def test_infinite_hopping_exponent_is_nearest_neighbour():
    # s = +inf is allowed: a finite-range hopping has every decay exponent
    box = LatticeBox(1, 4, 2)
    T = build_hopping(HoppingSpec(s_exponent=math.inf, epsilon=0.1), box)
    assert np.array_equal(T.band(-1, np.inf).entries, 0.1 * (pair_dist(box) == 1))


def test_limit_periodic_binary_range_and_period():
    box = LatticeBox(1, 128, 100)
    D = build_potential(PotentialSpec("limit_periodic_binary",), box)
    vals = D.values.real
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    # the truncation at level V is 2^V periodic; differences across one
    # period of the truncated part are below the discarded tail
    i = box.sites.ravel()
    for period in (64, 128):
        a = vals[box.site_index((-3,))]
        b = vals[box.site_index((-3 + period,))]
        assert abs(a - b) <= sum(2.0 ** (-v) for v in range(int(math.log2(period)) + 1, 70))
    # hand-computed staircase values
    assert vals[box.site_index((0,))] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert vals[box.site_index((1,))] == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert vals[box.site_index((2,))] == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_limit_periodic_ternary_cantor_range():
    box = LatticeBox(1, 64, 48)
    D = build_potential(PotentialSpec("limit_periodic_ternary",), box)
    vals = D.values.real
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert len(np.unique(np.round(vals, 12))) > 10


def test_limit_periodic_distal_constants():
    # the classical constants: binary (tau, gamma) = (d, 16^-d),
    # ternary (d log2 3, 3^-d); at d = 1 both certified on the box window
    box = LatticeBox(1, 64, 64)
    Db = build_potential(PotentialSpec("limit_periodic_binary",), box)
    rb = window_scan(Db, max_offset=64).margin(tau=1.0, gamma=1.0 / 16.0)
    assert rb.passed
    Dt = build_potential(PotentialSpec("limit_periodic_ternary",), box)
    rt = window_scan(Dt, max_offset=64).margin(tau=math.log2(3.0), gamma=1.0 / 3.0)
    assert rt.passed


def test_custom_potential_roundtrip(rng):
    box = LatticeBox(1, 4, 2)
    vals = rng.standard_normal(box.n_sites)
    D = build_potential(PotentialSpec("custom", custom_values=vals), box)
    np.testing.assert_array_equal(D.values.real, vals)


def test_hopping_zero_coupling():
    box = LatticeBox(1, 6, 4)
    T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=0.0), box)
    assert np.all(T.band(-1, np.inf).entries == 0.0)


def test_hopping_profile_values():
    box = LatticeBox(1, 6, 4)
    T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=1.0), box).band(-1, np.inf)
    i0 = box.site_index((0,))
    assert T.entries[i0, box.site_index((1,))] == 1.0
    assert T.entries[i0, box.site_index((2,))] == pytest.approx(1.0 / 16.0)
    assert T.entries[i0, i0] == 0.0
    assert not T.entries.imag.any() and np.array_equal(T.entries, T.entries.T)


def test_hopping_is_toeplitz():
    box = LatticeBox(2, 3, 2)
    T = build_hopping(HoppingSpec(s_exponent=3.0, epsilon=0.7), box).band(-1, np.inf)
    for k in ((1, 0), (2, -1), (0, 3)):
        vals = T.entries[pair_offset_ids(box) == offset_flat_id(box, k)]
        assert np.ptp(vals.real) == 0.0 and np.ptp(vals.imag) == 0.0


def test_hopping_norm_sweep_grows_toward_regularity_edge():
    # ||T||_s' finite for s' < s - d/2 and increasing in s'
    box = LatticeBox(1, 32, 24)
    s0 = 4.0
    T = build_hopping(HoppingSpec(s_exponent=s0, epsilon=1.0), box)
    grid = [0.0, 1.0, 2.0, 3.0, s0 - 0.5 - 0.05]
    norms = [T.sobolev_norm(s) for s in grid]
    assert all(a < b for a, b in zip(norms, norms[1:]))
    assert all(math.isfinite(v) for v in norms)
    # direct-summation oracle at the top of the sweep
    oracle = math.sqrt(
        sum(2.0 * k ** (-2 * s0) * k ** (2 * grid[-1]) for k in range(1, 65))
    )
    assert norms[-1] == pytest.approx(oracle, rel=1e-12)


def test_craig_distal_with_measured_gamma():
    box = LatticeBox(1, 64, 48)
    D = build_potential(PotentialSpec("craig_mod1", omega=(GOLDEN_MEAN,)), box)
    scan = window_scan(D, max_offset=64)
    gamma, _ = scan.gamma(tau=1.0)
    assert gamma > 0.0
    report = scan.margin(tau=1.0, gamma=gamma)
    assert report.passed
    # the sampled-variation norm dwarfs the plain sup of the same data, so
    # its certified constant is smaller
    sup_gamma, _ = window_scan(
        DiagonalOperator(box, D.values, formula=D.formula), max_offset=64
    ).gamma(tau=1.0)
    assert gamma <= sup_gamma


def test_maryland_distal_large_box():
    box = LatticeBox(1, 256, 200)
    D = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), box)
    scan = window_scan(D, max_offset=128)
    gamma, _ = scan.gamma(tau=1.0)
    report = scan.margin(tau=1.0, gamma=gamma)
    assert report.passed
    assert gamma > 0.3


def test_diophantine_golden_baseline():
    gamma, worst = check_diophantine((GOLDEN_MEAN,), tau=1.0, max_k=64)
    # oracle: exhaustive python scan
    best = min(
        abs(k * GOLDEN_MEAN - round(k * GOLDEN_MEAN)) * abs(k)
        for k in range(-64, 65) if k
    )
    assert gamma == pytest.approx(best, rel=1e-15)
    # frozen baseline: the golden mean frontier sits at ||omega|| = omega^2
    assert gamma == pytest.approx(0.3819660112501051, abs=1e-12)
    assert abs(worst[0]) == 1


def test_diophantine_rational_rejected():
    with pytest.raises(ValueError, match="rational"):
        check_diophantine((1.0 / 3.0,), tau=1.0, max_k=8)


def test_diophantine_monotone_in_tau():
    g1, _ = check_diophantine((GOLDEN_MEAN,), tau=1.0, max_k=32)
    g2, _ = check_diophantine((GOLDEN_MEAN,), tau=1.5, max_k=32)
    assert g2 >= g1
