import warnings

import numpy as np
import pytest

from conftest import pair_dist, random_banded
from nmloc import (
    GOLDEN_MEAN,
    DiagonalOperator,
    LatticeBox,
    LatticeOperator,
    PotentialSpec,
    TameConstants,
    build_potential,
    distal_gamma_box,
    neumann_invert,
    solve_diagonal_correction,
    solve_generator,
)
import nmloc.homological as homological
from nmloc.errors import DistalViolationError, NeumannSmallnessError
from nmloc.homological import (
    fixed_point_check,
    generator_bound_margins,
    generator_residual,
    neumann_bound_margins,
    neumann_residual,
)


@pytest.fixture(scope="module")
def tc():
    return TameConstants(1, 0.6)


def zero_diag(op):
    e = op.entries.copy()
    np.fill_diagonal(e, 0.0)
    return LatticeOperator(op.box, e)


def test_zero_source_gives_zero_generator(box1d, tc):
    D = DiagonalOperator(box1d, np.arange(box1d.n_sites, dtype=float))
    G = LatticeOperator.zeros(box1d)
    W = solve_generator(D, G, theta=4.0)
    assert np.all(W.entries == 0.0)
    assert generator_residual(D, G, W, 4.0) == 0.0


def test_three_site_worked_example():
    # sites (-1, 0, 1) with diagonal (0, 1, 3); all-ones off-diagonal source
    box = LatticeBox(1, 1, 1)
    D = DiagonalOperator(box, [0.0, 1.0, 3.0])
    g = np.ones((3, 3), complex)
    np.fill_diagonal(g, 0.0)
    W = solve_generator(D, LatticeOperator(box, g), theta=2.0 * box.radius).entries
    # W_{i,j} = G_{i,j} / (d_j - d_i)
    assert W[1, 0] == pytest.approx(1.0 / (0.0 - 1.0))
    assert W[2, 1] == pytest.approx(1.0 / (1.0 - 3.0))
    assert W[0, 1] == pytest.approx(1.0 / (1.0 - 0.0))
    assert W[0, 2] == pytest.approx(1.0 / 3.0)
    assert np.all(np.diagonal(W) == 0.0)


def test_generator_residual_oracle_maryland(rng):
    box = LatticeBox(1, 16, 12)
    D = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), box)
    gamma, _ = distal_gamma_box(D, tau=1.0)
    for trial in range(10):
        G = zero_diag(random_banded(box, rng, n_offsets=6))
        theta = float(rng.uniform(1.0, 2 * box.radius))
        W = solve_generator(D, G, theta)
        # oracle: entrywise commutator residual within the band
        d = D.values
        comm = (d[:, None] - d[None, :]) * W.entries
        sg = G.smooth(theta).entries
        band = pair_dist(box) <= theta
        resid = np.abs(comm + sg) * band
        np.fill_diagonal(resid, 0.0)
        assert np.max(resid) <= 1e-12 * (1 + np.max(np.abs(G.entries)))
        assert generator_residual(D, G, W, theta) <= 1e-12 * (1 + np.max(np.abs(G.entries)))
        assert np.all(np.diagonal(W.entries) == 0.0)
        # solver-level norm bound certified by the in-box gamma
        margins = generator_bound_margins(G, W, theta, 1.0, gamma, (0.6, 2.0, 4.0))
        assert all(m >= -1e-12 for m in margins.values())


def test_generator_rejects_unreduced_diagonal(box1d):
    D = DiagonalOperator(box1d, np.arange(box1d.n_sites, dtype=float))
    g = np.ones((box1d.n_sites, box1d.n_sites), complex)
    with pytest.raises(ValueError, match="unreduced diagonal"):
        solve_generator(D, LatticeOperator(box1d, g), theta=2.0)


def test_generator_divisor_floor_is_error_not_clamp(box1d):
    vals = np.arange(box1d.n_sites, dtype=float)
    vals[3] = vals[2] + 1e-16  # nearly coincident pair
    D = DiagonalOperator(box1d, vals)
    g = np.ones((box1d.n_sites, box1d.n_sites), complex)
    np.fill_diagonal(g, 0.0)
    with pytest.raises(DistalViolationError, match="distal violation"):
        solve_generator(D, LatticeOperator(box1d, g), theta=4.0)


# -- diagonal correction -------------------------------------------------------


def near_identity(box, rng, scale):
    w = random_banded(box, rng, n_offsets=4, scale=scale)
    eye = LatticeOperator.identity(box)
    Q = eye + w
    Qinv = LatticeOperator(box, np.linalg.inv(Q.entries))
    return Q, Qinv


def test_identity_conjugation_solution(box1d, tc, rng):
    eye = LatticeOperator.identity(box1d)
    P = random_banded(box1d, rng, n_offsets=3)
    Pp = random_banded(box1d, rng, n_offsets=3)
    X = solve_diagonal_correction(eye, eye, eye @ P @ eye, Pp)
    np.testing.assert_allclose(
        X.values,
        -np.diagonal(P.entries) - np.diagonal(Pp.entries),
        rtol=1e-12, atol=1e-14,
    )


def test_zero_sources_give_zero(box1d, tc):
    eye = LatticeOperator.identity(box1d)
    Z = LatticeOperator.zeros(box1d)
    X = solve_diagonal_correction(eye, eye, Z, Z)
    assert np.all(X.values == 0.0)
    contraction_ok, gap, _ = fixed_point_check(eye, eye, Z, Z, X, tc)
    assert contraction_ok and gap == 0.0


def test_fixed_point_agrees_with_assembled_system(rng, tc):
    # five unknowns: assemble the affine system by hand and solve it
    box = LatticeBox(1, 2, 1)
    Q, Qinv = near_identity(box, rng, scale=0.1 / tc.c0 / 10)
    P = random_banded(box, rng, n_offsets=3)
    Pp = random_banded(box, rng, n_offsets=3)
    QPQ = Qinv @ P @ Q
    X = solve_diagonal_correction(Q, Qinv, QPQ, Pp)
    contraction_ok, gap, margin = fixed_point_check(Q, Qinv, QPQ, Pp, X, tc, tol=1e-13)
    assert contraction_ok

    n = box.n_sites
    A = np.zeros((n, n), complex)
    for j in range(n):
        basis = np.zeros(n, complex)
        basis[j] = 1.0
        A[:, j] = np.diagonal(Qinv.entries @ np.diag(basis) @ Q.entries)
    rhs = -np.diagonal(Qinv.entries @ P.entries @ Q.entries) - np.diagonal(Pp.entries)
    x_direct = np.linalg.solve(A, rhs)
    assert np.max(np.abs(X.values - x_direct)) <= 1e-10
    assert gap <= 1e-10
    # smallness bound from the contraction argument
    assert margin >= 0.0


def test_diagonal_correction_far_from_identity_is_silent_direct_solve(rng, tc, box1d):
    Q, Qinv = near_identity(box1d, rng, scale=0.5)
    P = random_banded(box1d, rng, n_offsets=2)
    Pp = LatticeOperator.zeros(box1d)
    QPQ = Qinv @ P @ Q
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = solve_diagonal_correction(Q, Qinv, QPQ, Pp)
        check = fixed_point_check(Q, Qinv, QPQ, Pp, X, tc)
    assert check == (False, None, None)
    # X kills the main diagonal of Qinv X Q + QPQ
    killed = np.diagonal((Qinv @ X.as_operator() @ Q + QPQ).entries)
    assert np.max(np.abs(killed)) <= 1e-10 * (1 + np.max(np.abs(P.entries)))
    # X solves the assembled system diag(Qinv (X + P) Q) = 0
    n = box1d.n_sites
    A = np.stack([np.diagonal(Qinv.entries @ np.diag(np.eye(n)[j]) @ Q.entries)
                  for j in range(n)], axis=1)
    rhs = -np.diagonal(Qinv.entries @ P.entries @ Q.entries)
    x_direct = np.linalg.solve(A, rhs)
    assert np.max(np.abs(X.values - x_direct)) <= 1e-10 * (1 + np.max(np.abs(x_direct)))


# -- series inversion ----------------------------------------------------------


def test_neumann_zero_and_nilpotent(box1d, tc):
    Z = LatticeOperator.zeros(box1d)
    res = neumann_invert(Z, tc)
    np.testing.assert_array_equal(res.Vinv.entries,
                                  LatticeOperator.identity(box1d).entries)
    # single strictly-triangular entry: W^2 = 0, series terminates at I - W
    e = np.zeros((box1d.n_sites,) * 2, complex)
    e[2, 5] = 1e-4
    W = LatticeOperator(box1d, e)
    res = neumann_invert(W, tc)
    np.testing.assert_allclose(res.Vinv.entries,
                               (LatticeOperator.identity(box1d) - W).entries,
                               atol=1e-18)


def test_neumann_residual_and_bounds(rng, tc):
    box = LatticeBox(1, 16, 12)
    for _ in range(5):
        W = random_banded(box, rng, n_offsets=5)
        W = LatticeOperator(W.box, W.entries * (0.4 / (4 * tc.c0**2 * W.sobolev_norm(tc.alpha0))))
        res = neumann_invert(W, tc)
        eye = LatticeOperator.identity(box)
        residual = neumann_residual(W, res.Vinv)
        assert residual == ((eye + W) @ res.Vinv - eye).sobolev_norm(0.0)
        assert residual <= 1e-12
        assert res.neumann_terms is not None
        margins = neumann_bound_margins(W, res.Vinv, tc, (0.6, 2.0))
        assert all(m >= 0.0 for m in margins.values())
        assert (res.Vinv).sobolev_norm(tc.alpha0) <= 2.0


def test_neumann_smallness_error_and_fallback(rng, tc, box1d, monkeypatch):
    # out of the series' regime the solve takes the direct path and keeps
    # the smallness it measured, which the step's ledger reads; the one
    # error left is the series' term cap
    W = random_banded(box1d, rng, n_offsets=4, scale=0.3)
    smallness = 4 * tc.c0**2 * W.sobolev_norm(tc.alpha0)
    assert smallness > 0.5
    res = neumann_invert(W, tc)
    assert res.smallness == smallness and res.neumann_terms is None
    v = (LatticeOperator.identity(box1d) + W).entries
    assert res.condition_number == pytest.approx(np.linalg.cond(v, 1), rel=1e-10)
    assert neumann_residual(W, res.Vinv) <= 1e-10 * res.condition_number
    monkeypatch.setattr(homological, "NEUMANN_MAX_TERMS", 2)
    with pytest.raises(NeumannSmallnessError, match="failed to reach the term tolerance"):
        neumann_invert(LatticeOperator(W.box, W.entries * (0.4 / smallness)), tc)


def test_neumann_fallback_is_the_direct_solve(rng, tc):
    # the fallback inverts I + W in one buffer; LAPACK's gesv against the
    # identity gives the same bits as solving (I + W) X = I
    box = LatticeBox(1, 16, 12)
    W = random_banded(box, rng, n_offsets=8, scale=0.5)
    assert 4 * tc.c0**2 * W.sobolev_norm(tc.alpha0) > 0.5
    res = neumann_invert(W, tc)
    eye = np.eye(box.n_sites, dtype=complex)
    v = eye + W.entries
    vinv = np.linalg.solve(v, eye)
    assert res.neumann_terms is None and res.smallness > 0.5
    assert np.array_equal(res.Vinv.entries, vinv)
    assert res.condition_number == float(np.linalg.norm(v, 1) * np.linalg.norm(vinv, 1))


def test_neumann_series_is_the_sum_of_powers_of_minus_w(rng, tc):
    # the series sums (-1)^k W^k; negating a factor negates each rounded
    # product exactly, so it equals the sum of the products of -W bit for bit
    box = LatticeBox(1, 16, 12)
    W = random_banded(box, rng, n_offsets=5)
    W = LatticeOperator(W.box, W.entries * (0.4 / (4 * tc.c0**2 * W.sobolev_norm(tc.alpha0))))
    res = neumann_invert(W, tc)
    minus_w = -W.entries
    acc = np.eye(box.n_sites, dtype=complex)
    term = minus_w
    for _ in range(res.neumann_terms):
        acc += term
        term = term @ minus_w
    assert res.neumann_terms > 2
    assert np.array_equal(res.Vinv.entries, acc)
