"""Acceptance suite: one test per exit criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criteria involving floating-point comparisons against quantities that can
converge below double precision use the a-priori measurement resolution
(machine epsilon times the operator magnitudes involved), computed before
looking at the data, never tuned to it.
"""

import math
import time

import numpy as np
import pytest

from conftest import offset_flat_id, pair_offset_ids, random_banded
from nmloc import (
    GOLDEN_MEAN,
    HoppingSpec,
    LatticeBox,
    LatticeOperator,
    PotentialSpec,
    SchemeParams,
    TameConstants,
    build_hopping,
    build_potential,
    chain_bound_margins,
    check_theory_conditions,
    completeness_check,
    distal_gamma_box,
    eigenfunctions,
    neumann_invert,
    run,
    solve_diagonal_correction,
    solve_generator,
    spectrum_compare,
    tame_bound_check,
    window_scan,
)
from nmloc.homological import (
    fixed_point_check,
    generator_bound_margins,
    generator_residual,
    neumann_bound_margins,
    neumann_residual,
)

TAU, DELTA, ALPHA0, S0, EPS = 1.0, 0.05, 0.6, 4.0, 0.1
ALPHA = S0 - 0.5 - 5 * DELTA          # 3.25
ALPHA1 = 2 * ALPHA + DELTA            # 6.55
S_GRID = (ALPHA0, ALPHA, ALPHA1 - TAU)


def verdict(num, ok, detail):
    status = "pass" if ok else "FAIL"
    print(f"criterion {num:>2}: {status} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def scheme_params(**kw):
    base = dict(tau=TAU, delta=DELTA, alpha0=ALPHA0, theta0=2.0, Theta=2.0,
                s_hopping=S0)
    base.update(kw)
    return SchemeParams(**base)


@pytest.fixture(scope="module")
def maryland_box():
    return LatticeBox(1, 128, 100)


@pytest.fixture(scope="module")
def maryland_D(maryland_box):
    return build_potential(
        PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), maryland_box
    )


@pytest.fixture(scope="module")
def maryland_result(maryland_box, maryland_D):
    T = build_hopping(HoppingSpec(s_exponent=S0, epsilon=EPS), maryland_box)
    return run(T, maryland_D, scheme_params(epsilon=EPS))


def test_criterion_01_tame_inequality_suite():
    start = time.time()
    worst_pair = math.inf
    worst_chain = math.inf
    for dim, radius, a0 in ((1, 32, 0.6), (2, 8, 1.2)):
        box = LatticeBox(dim, radius, radius - 2)
        tc = TameConstants(dim, a0)
        s = a0 + 1.4
        rng = np.random.default_rng(1234 + dim)
        for trial in range(500):
            x = random_banded(box, rng, n_offsets=5, scale=rng.uniform(0.1, 3.0))
            y = random_banded(box, rng, n_offsets=5, scale=rng.uniform(0.1, 3.0))
            worst_pair = min(worst_pair, tame_bound_check(x, y, s, tc))
            if trial % 5 == 0:
                ops = [x, y, x, y]
                for n in (2, 3, 4):
                    m_lo, m_hi = chain_bound_margins(ops[:n], s, tc)
                    worst_chain = min(worst_chain, m_lo, m_hi)
    elapsed = time.time() - start
    verdict(
        1,
        worst_pair >= 0.0 and worst_chain >= 0.0 and elapsed < 60.0,
        f"500 pairs/config: worst pair margin {worst_pair:.3e}, worst chain "
        f"margin {worst_chain:.3e}, runtime {elapsed:.1f}s",
    )


def test_criterion_02_smoothing_suite():
    start = time.time()
    box = LatticeBox(1, 10, 8)
    rng = np.random.default_rng(99)
    ok = True
    worst = math.inf
    for theta in (1.0, 2.0, 3.0, 5.5, 8.0, 17.0):
        for s in (0.0, 0.6, 1.5, 3.2, 5.0):
            for sp in (0.0, 0.6, 1.5, 3.2, 5.0):
                op = random_banded(box, rng, n_offsets=6)
                lo, hi = min(s, sp), max(s, sp)
                band = theta ** (hi - lo) * op.sobolev_norm(lo) - op.smooth(
                    theta
                ).sobolev_norm(hi)
                tail = theta ** (lo - hi) * op.sobolev_norm(hi) - (
                    op - op.smooth(theta)
                ).sobolev_norm(lo)
                worst = min(worst, band, tail)
    ok &= worst >= -1e-12
    # equality witnesses: a single diagonal sitting exactly at |k| = theta
    eq_dev = 0.0
    for k in (1, 2, 3, 8):
        e = np.zeros((box.n_sites,) * 2, complex)
        e[pair_offset_ids(box) == offset_flat_id(box, (k,))] = 1.3
        op = LatticeOperator(box, e)
        for s, sp in ((2.0, 0.5), (3.0, 3.0), (1.0, 0.0)):
            lhs = op.smooth(float(k)).sobolev_norm(s)
            rhs = float(k) ** (s - sp) * op.sobolev_norm(sp)
            eq_dev = max(eq_dev, abs(lhs - rhs) / rhs)
    ok &= eq_dev <= 1e-12
    elapsed = time.time() - start
    verdict(2, ok and elapsed < 30.0,
            f"grid margins >= {worst:.2e}, equality witnesses deviate "
            f"{eq_dev:.2e}, runtime {elapsed:.1f}s")


def test_criterion_03_homological_exactness():
    start = time.time()
    box = LatticeBox(1, 16, 12)
    D = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), box)
    gamma, _ = distal_gamma_box(D, TAU)
    rng = np.random.default_rng(555)
    worst_resid = 0.0
    worst_margin = math.inf
    diag_clean = True
    for _ in range(100):
        g = random_banded(box, rng, n_offsets=6).entries.copy()
        np.fill_diagonal(g, 0.0)
        G = LatticeOperator(box, g)
        theta = float(rng.uniform(1.0, 2 * box.radius))
        W = solve_generator(D, G, theta)
        worst_resid = max(worst_resid, generator_residual(D, G, W, theta))
        worst_margin = min(worst_margin, min(
            generator_bound_margins(G, W, theta, TAU, gamma, S_GRID).values()))
        diag_clean &= bool(np.all(np.diagonal(W.entries) == 0.0))
    elapsed = time.time() - start
    verdict(
        3,
        worst_resid <= 1e-10 and diag_clean and worst_margin >= 0.0
        and elapsed < 60.0,
        f"100 instances: max residual {worst_resid:.2e}, zero diagonals "
        f"{diag_clean}, worst norm-bound margin {worst_margin:.3e}, "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_04_fixed_point_vs_direct_solve():
    box = LatticeBox(1, 8, 6)
    tc = TameConstants(1, ALPHA0)
    rng = np.random.default_rng(777)
    eye = LatticeOperator.identity(box)
    worst_gap = 0.0
    worst_margin = math.inf
    for _ in range(100):
        w = random_banded(box, rng, n_offsets=4)
        w = LatticeOperator(w.box, w.entries * (0.08 / tc.c0 / w.sobolev_norm(ALPHA0)))
        Q = eye + w
        Qinv = LatticeOperator(box, np.linalg.inv(Q.entries))
        assert tc.c0 * (Qinv - eye).sobolev_norm(ALPHA0) <= 0.1
        P = random_banded(box, rng, n_offsets=4)
        Pp = random_banded(box, rng, n_offsets=4)
        QPQ = Qinv @ P @ Q
        X = solve_diagonal_correction(Q, Qinv, QPQ, Pp)
        contraction_ok, gap, margin = fixed_point_check(Q, Qinv, QPQ, Pp, X, tc,
                                                        tol=1e-13)
        assert contraction_ok
        worst_gap = max(worst_gap, gap)
        worst_margin = min(worst_margin, margin)
    verdict(
        4,
        worst_gap <= 1e-10 and worst_margin >= 0.0,
        f"100 contraction instances: max fp/direct gap {worst_gap:.2e}, "
        f"worst smallness-bound margin {worst_margin:.3e}",
    )


def test_criterion_05_neumann_suite():
    box = LatticeBox(1, 16, 12)
    tc = TameConstants(1, ALPHA0)
    rng = np.random.default_rng(4242)
    worst_resid = 0.0
    worst_margin = math.inf
    for _ in range(100):
        w = random_banded(box, rng, n_offsets=5)
        target = rng.uniform(0.05, 0.5)
        w = LatticeOperator(w.box, w.entries * (target / (4 * tc.c0**2 * w.sobolev_norm(ALPHA0))))
        res = neumann_invert(w, tc)
        assert res.neumann_terms is not None and res.smallness <= 0.5
        worst_resid = max(worst_resid, neumann_residual(w, res.Vinv))
        worst_margin = min(worst_margin,
                           min(neumann_bound_margins(w, res.Vinv, tc, S_GRID).values()))
    verdict(
        5,
        worst_resid <= 1e-12 and worst_margin >= 0.0,
        f"100 in-regime inversions: max residual {worst_resid:.2e}, worst "
        f"series-bound margin {worst_margin:.3e}",
    )


def test_criterion_06_maryland_end_to_end(maryland_result):
    start = time.time()
    res = maryland_result
    r_seq = [row.norms[f"R@{ALPHA0:g}"] for row in res.ledger]
    monotone = all(b < a for a, b in zip(r_seq, r_seq[1:]))
    final = res.final_residual.sobolev_norm(0.0)
    conj = max(row.norms["conj_residual"] for row in res.ledger)
    decomp = max(row.norms["decomp_residual"] for row in res.ledger)
    elapsed = time.time() - start
    verdict(
        6,
        res.converged and monotone and final <= 1e-8 and conj <= 1e-9
        and decomp <= 1e-9 and res.steps == 8 and elapsed < 120.0,
        f"converged in {res.steps} steps, ||R||_a0 strictly decreasing "
        f"{monotone} ({r_seq[0]:.1e} -> {r_seq[-1]:.1e}), final ||R||_0 "
        f"{final:.2e}, conj <= {conj:.1e}, decomposition <= {decomp:.1e}",
    )


def test_criterion_07_localization_certificate(maryland_result):
    res = maryland_result
    reports = eigenfunctions(res)
    interior = [r for r in reports if r.interior]
    p_expect = S0 - TAU - 0.5 - 12 * DELTA
    from nmloc import decay_exponent

    assert decay_exponent(res) == pytest.approx(p_expect)

    max_res = max(r.eigen_residual for r in interior)
    bound = res.qplus.operator_norm() * res.final_residual.operator_norm()
    resolution = res.defect_resolution()  # a-priori fp measurement scale
    env_ok = all(r.decay_envelope_margin >= 0.0 for r in interior)
    min_sv, gram_off = completeness_check(res)
    u_defect = res.unitarity_defect
    haus = spectrum_compare(res)
    ok = (
        max_res <= bound + resolution
        and env_ok
        and min_sv >= 0.9
        and gram_off <= 1e-8
        and u_defect is not None
        and u_defect <= 1e-9
        and haus <= max_res + 1e-10
    )
    verdict(
        7,
        ok,
        f"max interior eigen residual {max_res:.2e} vs ||Q|| ||R|| = "
        f"{bound:.2e} (+fp resolution {resolution:.2e}), envelope margins "
        f">= 0 {env_ok} (p = {p_expect:g}), min singular {min_sv:.6f}, "
        f"gram offdiag {gram_off:.2e}, ||U^tU - I|| {u_defect:.2e}, "
        f"spectrum distance {haus:.2e}",
    )


def test_criterion_08_sarnak_complex_run(maryland_box):
    D = build_potential(PotentialSpec("sarnak", omega=(GOLDEN_MEAN,)), maryland_box)
    T = build_hopping(HoppingSpec(s_exponent=S0, epsilon=0.05), maryland_box)
    res = run(T, D, scheme_params(epsilon=0.05))
    min_sv, _ = completeness_check(res)
    verdict(
        8,
        res.converged and min_sv >= 0.9 and res.unitarity_defect is None,
        f"complex non-normal run converged in {res.steps} steps, min "
        f"singular value {min_sv:.6f}, unitarization skipped {res.unitarity_defect is None}",
    )


def test_criterion_09_direct_mode(maryland_box, maryland_D):
    T = build_hopping(HoppingSpec(s_exponent=S0, epsilon=0.05), maryland_box)
    res = run(T, maryland_D, scheme_params(epsilon=0.05, mode="direct"))
    lhs = res.qplus_inv @ (T.band(-1, np.inf) + maryland_D.as_operator()) @ res.qplus
    rhs = maryland_D.as_operator() + res.dplus.as_operator()
    master = (lhs - rhs).sobolev_norm(0.0)
    reports = eigenfunctions(res)
    max_res = max(r.eigen_residual for r in reports if r.interior)
    haus = spectrum_compare(res)
    verdict(
        9,
        res.converged and master <= 1e-8 and haus <= max_res + 1e-10,
        f"direct-mode master identity {master:.2e}, corrected eigenvalues "
        f"within {haus:.2e} of the truncated spectrum "
        f"(residual allowance {max_res + 1e-10:.2e})",
    )


def test_criterion_10_limit_periodic_potentials():
    start = time.time()
    box = LatticeBox(1, 128, 100)
    details = []
    ok = True
    for kind, tau, gamma, eps in (
        ("limit_periodic_binary", 1.0, 1.0 / 16.0, 0.01),
        ("limit_periodic_ternary", math.log2(3.0), 1.0 / 3.0, 0.02),
    ):
        D = build_potential(PotentialSpec(kind), box)
        rep = window_scan(D, max_offset=2 * box.radius).margin(tau, gamma)
        T = build_hopping(HoppingSpec(s_exponent=S0, epsilon=eps), box)
        res = run(T, D, scheme_params(tau=tau, epsilon=eps))
        ok &= rep.passed and res.converged
        details.append(
            f"{kind.rsplit('_', 1)[-1]}: distal margin {rep.empirical_margin:.3g} "
            f"at (tau={tau:.3g}, gamma={gamma:.3g}), converged {res.converged} "
            f"in {res.steps} steps"
        )
    elapsed = time.time() - start
    verdict(10, ok and elapsed < 180.0,
            "; ".join(details) + f"; runtime {elapsed:.1f}s")


def test_criterion_11_theory_condition_checker():
    tc = TameConstants(1, ALPHA0)
    witness = SchemeParams(
        tau=0.5, gamma=0.25, delta=4.0, alpha0=ALPHA0,
        alpha=100.0, alpha1=204.0, theta0=1e54, Theta=70.0,
    )
    rows = check_theory_conditions(witness, tc, t_3delta=0.0, t_4delta=0.0)
    witness_ok = all(c.holds for c in rows)

    practical = scheme_params(alpha=ALPHA, alpha1=ALPHA1, gamma=1.0)
    theta_row = next(
        c for c in check_theory_conditions(practical, tc, t_3delta=0.0, t_4delta=0.0)
        if c.name == "Theta"
    )
    binding_ok = (
        theta_row.data["binding"] == "8^(2/delta)*c0^(4/delta)"
        and theta_row.data["required_log10"] > 20.0
    )
    verdict(
        11,
        witness_ok and binding_ok,
        f"witness configuration: all {len(rows)} inequalities hold "
        f"{witness_ok}; delta=0.05 binding constraint "
        f"{theta_row.data['binding']} needs Theta > 1e"
        f"{theta_row.data['required_log10']:.0f}",
    )


def test_criterion_12_trivial_limit_regression():
    box = LatticeBox(1, 64, 48)
    T = build_hopping(HoppingSpec(s_exponent=S0, epsilon=0.0), box)
    eye = LatticeOperator.identity(box)
    kinds = (
        PotentialSpec("maryland", omega=(GOLDEN_MEAN,)),
        PotentialSpec("sarnak", omega=(GOLDEN_MEAN,)),
        PotentialSpec("craig_mod1", omega=(GOLDEN_MEAN,)),
        PotentialSpec("limit_periodic_binary"),
        PotentialSpec("limit_periodic_ternary"),
    )
    ok = True
    for spec in kinds:
        D = build_potential(spec, box)
        res = run(T, D, scheme_params(epsilon=0.0))
        ok &= (
            res.converged
            and np.array_equal(res.qplus.entries, eye.entries)
            and bool(np.all(res.dplus.values == 0.0))
            and bool(np.all(res.final_residual.entries == 0.0))
        )
    verdict(12, ok,
            f"all {len(kinds)} models at zero coupling: transform exactly "
            f"the identity, corrections exactly zero, defects exactly zero")
