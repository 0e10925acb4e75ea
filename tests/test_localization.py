import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import pair_dist
from nmloc import (
    GOLDEN_MEAN,
    DiagonalOperator,
    HoppingSpec,
    LatticeBox,
    LatticeOperator,
    PotentialSpec,
    SchemeParams,
    build_hopping,
    build_potential,
    completeness_check,
    decay_exponent,
    eigenfunctions,
    run,
    spectrum_compare,
)
from nmloc.errors import SymmetryDefectError


def maryland_run(radius=16, epsilon=0.1, **kw):
    box = LatticeBox(1, radius, max(2, int(radius * 0.75)))
    D = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), box)
    T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=epsilon), box)
    params = SchemeParams(tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0, Theta=2.0,
                          s_hopping=4.0, epsilon=epsilon, **kw)
    return run(T, D, params)


def maryland_run_d(dimension, radius, s, epsilon, tau, alpha0, delta):
    """Maryland at d = 2 or 3, frequencies golden, sqrt 2 - 1 and sqrt 3 - 1."""
    box = LatticeBox(dimension, radius, max(1, radius - 1))
    omega = (GOLDEN_MEAN, 2**0.5 - 1, 3**0.5 - 1)[:dimension]
    D = build_potential(PotentialSpec("maryland", omega=omega), box)
    T = build_hopping(HoppingSpec(s_exponent=s, epsilon=epsilon), box)
    return run(T, D, SchemeParams(tau=tau, delta=delta, alpha0=alpha0, theta0=2.0,
                                  Theta=2.0, s_hopping=s, epsilon=epsilon))


@pytest.fixture(scope="module")
def res16():
    return maryland_run()


def test_trivial_limit_reports():
    res = maryland_run(epsilon=0.0)
    reports = eigenfunctions(res)
    p = decay_exponent(res)
    assert p == pytest.approx(4.0 - 1.0 - 0.5 - 12 * 0.05)
    for r in reports:
        assert r.eigen_residual == 0.0
        assert r.envelope_constant == 1.0
        # margin at the center site is 2 - 1 = 1; the reported minimum over
        # all sites is the tail value 2 <dist>^-p > 0
        assert 0.0 < r.decay_envelope_margin <= 1.0
    center = next(r for r in reports if r.center == (0,))
    assert center.eigenvalue == pytest.approx(np.tan(np.pi * 0.0))
    min_sv, gram = completeness_check(res)
    assert min_sv == 1.0 and gram == 0.0
    assert spectrum_compare(res) <= 1e-13


def test_eigen_identity_bound_per_center(res16):
    # H e_k - lambda_k e_k = Q (R delta_k): per-center residual bounded by
    # the transported defect column, up to the double-precision resolution
    res = res16
    reports = eigenfunctions(res)
    Q = res.qplus
    R = res.final_residual.entries
    resolution = res.defect_resolution()
    qnorm = Q.operator_norm()
    for idx, r in enumerate(reports):
        col = np.linalg.norm(R[:, idx])
        ek = np.linalg.norm(Q.entries[:, idx])
        assert r.eigen_residual <= qnorm * col / ek + resolution


def _out_of_place_reports(res):
    """The eigenfunction numbers by whole-matrix expressions on the pair
    distance table: the reference for the blocked ones.  On real data ``H Q+``
    multiplies real parts, as ``eigenfunctions`` does."""
    H, target = res.conjugation_pair
    Q, exponent = res.qplus.entries, decay_exponent(res)
    T = res.T.band(-1, np.inf).entries
    real = not T.imag.any() and np.array_equal(T, T.T) and not res.D.values.imag.any()
    HQ = H.entries.real @ Q.real if real else H.entries @ Q
    residual_mat = HQ - Q * target.values[None, :]
    residuals = np.linalg.norm(residual_mat, axis=0) / np.linalg.norm(Q, axis=0)
    weights = np.maximum(pair_dist(res.box), 1).astype(float)
    cols = np.abs(Q)
    margins = np.min(2.0 * weights ** (-exponent) - cols, axis=0)
    constants = np.max(cols * weights**exponent, axis=0)
    return residuals, margins, constants


@pytest.mark.parametrize("which", ["radius 4", "res16", "sarnak_result", "d2", "d3"])
def test_eigenfunctions_are_the_out_of_place_reference(which, request):
    # column blocks, one envelope scratch and the weights raised on the
    # offset slots, then spread, change no bit of a report; at radius 4
    # (n = 9) the blocks are two and three columns wide, and at d = 2 and 3
    # the spread reads every axis
    runs = {"radius 4": lambda: maryland_run(radius=4),
            "d2": lambda: maryland_run_d(2, 4, 5.0, 0.01, 2.0, 1.2, 0.01),
            "d3": lambda: maryland_run_d(3, 2, 6.0, 0.01, 3.0, 1.6, 0.05)}
    res = runs[which]() if which in runs else request.getfixturevalue(which)
    assert res.converged
    reports = eigenfunctions(res)
    got = [[r.eigen_residual for r in reports], [r.decay_envelope_margin for r in reports],
           [r.envelope_constant for r in reports]]
    for values, reference in zip(got, _out_of_place_reports(res)):
        assert np.array_equal(np.array(values).view(np.uint64), reference.view(np.uint64))


def test_eigenfunctions_memory_budget():
    # at most 2.1 complex n x n buffers above the entry (measured: 1.52 at
    # n = 129); the whole-matrix QΛ and column norms peaked at 3.0
    res = maryland_run(radius=64)
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        eigenfunctions(res)
        peak = (tracemalloc.get_traced_memory()[1] - entry) / (16 * res.box.n_sites**2)
    finally:
        tracemalloc.stop()
    assert peak <= 2.1, peak


@pytest.mark.parametrize("dimension", [1, 2])
def test_a_certified_run_leaves_no_n_squared_array_on_the_box(dimension):
    # the box folds and forms its pair geometry per call; it caches only
    # the per-offset lengths, (4N + 1)^d of them
    box = LatticeBox(dimension, 16 if dimension == 1 else 4, 3)
    omega = (GOLDEN_MEAN, 2**0.5 - 1)[:dimension]
    D = build_potential(PotentialSpec("maryland", omega=omega), box)
    T = build_hopping(HoppingSpec(s_exponent=5.0, epsilon=0.01), box)
    res = run(T, D, SchemeParams(tau=float(dimension), delta=0.01, alpha0=1.2,
                                 theta0=2.0, Theta=2.0, s_hopping=5.0))
    eigenfunctions(res)
    completeness_check(res)
    spectrum_compare(res)
    assert res.converged and box.offset_len is not None
    held = {name: value.size for name, value in vars(box).items()
            if isinstance(value, np.ndarray)}
    assert {"sites", "offset_len"} <= set(held)
    assert max(held.values()) < box.n_sites**2, held


def test_interior_flagging(res16):
    reports = eigenfunctions(res16)
    box = res16.box
    for idx, r in enumerate(reports):
        assert r.interior == (max(abs(c) for c in box.sites[idx]) <= box.interior_radius)


def test_envelope_margins_nonnegative_inside(res16):
    reports = eigenfunctions(res16)
    assert all(r.decay_envelope_margin >= 0.0 for r in reports if r.interior)


def test_completeness_perturbation_bound(res16):
    # trivial bound: smallest singular value >= 1 - ||Q - I||_op
    from nmloc import LatticeOperator

    min_sv, _ = completeness_check(res16)
    eye = LatticeOperator.identity(res16.box)
    c = (res16.qplus - eye).operator_norm()
    assert c < 1.0
    assert min_sv >= 1.0 - c - 1e-12


def test_spectrum_distance_bounded_by_residuals(res16):
    reports = eigenfunctions(res16)
    max_res = max(r.eigen_residual for r in reports if r.interior)
    assert spectrum_compare(res16) <= max_res + 1e-10


def test_spectrum_monotone_in_coupling():
    vals = []
    for eps in (0.3, 0.1, 0.03):
        res = maryland_run(radius=32, epsilon=eps)
        vals.append(spectrum_compare(res))
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_spectrum_requires_symmetry():
    box = LatticeBox(1, 8, 6)
    D = build_potential(PotentialSpec("sarnak", omega=(GOLDEN_MEAN,)), box)
    T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=0.02), box)
    res = run(T, D, SchemeParams(tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0,
                                 Theta=2.0, s_hopping=4.0, epsilon=0.02))
    with pytest.raises(SymmetryDefectError, match="requires symmetry"):
        spectrum_compare(res)


def test_complex_potential_is_neither_unitarized_nor_given_a_spectrum():
    # one rule decides real symmetry: a potential with a 1e-14 imaginary
    # part is not real, so the run skips unitarize and the spectrum alike
    box = LatticeBox(1, 16, 12)
    D = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), box)
    D = DiagonalOperator(box, D.values + 1e-14j)
    T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=0.1), box)
    res = run(T, D, SchemeParams(tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0,
                                 Theta=2.0, s_hopping=4.0, epsilon=0.1))
    assert res.converged and res.unitarity_defect is None
    with pytest.raises(SymmetryDefectError, match="requires symmetry"):
        spectrum_compare(res)


def test_direct_mode_eigenvalues_are_corrected(res16):
    res = maryland_run(epsilon=0.05, mode="direct")
    reports = eigenfunctions(res)
    for idx, r in enumerate(reports):
        expect = res.D.values[idx] + res.dplus.values[idx]
        assert r.eigenvalue == pytest.approx(complex(expect), rel=1e-12)


def test_unconverged_run_rejected():
    res = maryland_run(epsilon=0.1, max_steps=2)
    assert not res.converged
    with pytest.raises(ValueError, match="converged"):
        eigenfunctions(res)


def fresh_certificate_operators(res):
    """The same run with uncached transform and defect operators."""
    box = res.box
    return replace(
        res,
        qplus=LatticeOperator(box, res.qplus.entries),
        qplus_inv=LatticeOperator(box, res.qplus_inv.entries),
        final_residual=LatticeOperator(box, res.final_residual.entries),
    )


@pytest.mark.parametrize("which", ["flagship_result", "sarnak_result"])
def test_certificate_takes_no_svd_and_one_eigensolve_of_q_plus(which, request,
                                                                monkeypatch):
    res = fresh_certificate_operators(request.getfixturevalue(which))
    symmetric = res.unitarity_defect is not None
    eigvalsh, norm = np.linalg.eigvalsh, np.linalg.norm
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate reached an SVD")

    def counted_eigvalsh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    def refused_spectral_norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2, "nuc"):  # each is a full SVD
            refuse()
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "norm", refused_spectral_norm)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)

    eigenfunctions(res)
    assert calls == []
    min_sv, _ = completeness_check(res)
    assert len(calls) == 1  # the Gram of Q+
    qnorm = res.qplus.operator_norm()
    assert len(calls) == 1  # shared with completeness_check
    svals = res.qplus.singular_values()
    assert (qnorm, min_sv) == (svals[0], svals[-1])
    if symmetric:
        spectrum_compare(res)
        assert len(calls) == 2  # the spectrum of A
    before = len(calls)
    resolution = res.defect_resolution()
    # Q+^-1, and the Gram of A unless its spectrum gave ||A||; Q+ is cached
    assert len(calls) == before + (1 if symmetric else 2)
    rnorm = res.final_residual.operator_norm()
    assert len(calls) == before + (2 if symmetric else 3)
    assert 0.0 < resolution and 0.0 < rnorm < qnorm
    assert min_sv >= 0.9
    if symmetric:  # max |lambda| is the operator norm of the symmetric A
        a_norm = res.conjugation_pair[0].operator_norm()
        assert np.max(np.abs(res.spectrum)) == pytest.approx(a_norm, rel=1e-13)
