import math
import json
import re
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nmloc.iteration as iteration
import nmloc.localization as localization
import nmloc.operators as operators
from conftest import acceptance_box_run, pair_offset_ids
from nmloc import (
    GOLDEN_MEAN,
    DiagonalOperator,
    HoppingSpec,
    LatticeBox,
    LatticeOperator,
    LedgerRow,
    PotentialSpec,
    SchemeParams,
    SchemeResult,
    TameConstants,
    build_hopping,
    build_potential,
    check_theory_conditions,
    completeness_check,
    eigenfunctions,
    hopping_slice,
    initial_step,
    ledger_to_csv,
    run,
    spectrum_compare,
    unitarize,
)
from nmloc.box import RUN_BUFFERS
from nmloc.errors import TheoryConditionError
from nmloc.operators import HoppingSymbol


def maryland_setup(radius=16, epsilon=0.1, s0=4.0, **kw):
    box = LatticeBox(1, radius, max(2, int(radius * 0.75)))
    D = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), box)
    T = build_hopping(HoppingSpec(s_exponent=s0, epsilon=epsilon), box)
    params = SchemeParams(
        tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0, Theta=2.0,
        s_hopping=s0, epsilon=epsilon, **kw,
    )
    return box, D, T, params


def test_slices_telescope_exactly():
    box, D, T, params = maryland_setup(radius=8)
    p = params.resolved(1)
    dense = T.band(-1, np.inf)
    acc = LatticeOperator.zeros(box)
    k = 0
    while p.theta(k - 1) < 2 * box.radius:
        acc = acc + hopping_slice(T, k, p)
        k += 1
    np.testing.assert_array_equal(acc.entries, dense.entries)
    partial = hopping_slice(T, 0, p) + hopping_slice(T, 1, p)
    np.testing.assert_array_equal(partial.entries, dense.smooth(p.theta(1)).entries)


def test_slice_one_contains_offsets_three_and_four():
    box, D, T, params = maryland_setup(radius=8)
    t1 = hopping_slice(T, 1, params.resolved(1))
    present = {
        box.offset_vector(int(f))[0]
        for f in np.unique(pair_offset_ids(box)[np.abs(t1.entries) > 0])
    }
    assert present == {-4, -3, 3, 4}


def test_initial_step_zero_hopping():
    box, D, T, params = maryland_setup(epsilon=0.0, gamma=1.0)
    p = params.resolved(1)
    tc = TameConstants(1, p.alpha0)
    assert not hopping_slice(T, 0, p).entries.any()
    state = initial_step(T, D, p, tc)
    eye = LatticeOperator.identity(box)
    np.testing.assert_array_equal(state.Q.entries, eye.entries)
    assert np.all(state.R.entries == 0.0)


def test_initial_step_single_entry_formula():
    # a radius-1 symbol, 0.25 at |i - j| = 1: each of its 8 entries gives one
    # entry of W, 0.25 / (d_j - d_i)
    box = LatticeBox(1, 2, 1)
    dvals = np.array([0.3, 1.1, 2.9, 4.1, 5.7])
    D = DiagonalOperator(box, dvals)
    T0 = HoppingSymbol(box, [0.0, 0.25, 0.0, 0.0, 0.0])
    e = T0.band(-1, np.inf).entries
    params = SchemeParams(tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0, Theta=2.0,
                          alpha=2.0, gamma=1.0).resolved(1)
    tc = TameConstants(1, 0.6)
    state = initial_step(T0, D, params, tc)
    W = state.Q.entries - np.eye(5)
    rows, cols = np.nonzero(e)
    assert len(rows) == 8 and np.all(np.abs(rows - cols) == 1)
    for i, j in zip(rows, cols):
        assert W[i, j] == pytest.approx(0.25 / (dvals[j] - dvals[i]), rel=1e-14)
    assert np.count_nonzero(W) == 8
    # exact defect equals the closed form V^-1 T0 W
    closed = state.Qinv.entries @ e @ W
    np.testing.assert_allclose(state.R.entries, closed, atol=1e-15)


def test_first_ledger_row_uses_first_step_bounds():
    box, D, T, params = maryland_setup(radius=8)
    res = run(T, D, params)
    p = res.params
    first, second = res.ledger[0], res.ledger[1]
    assert not any(key.startswith(("QTQ@", "QDQ@")) for key in first.norms)
    assert any(key.startswith("QTQ@") for key in second.norms)
    for s in p.s_grid:
        w_bound = p.theta0 ** (s - p.alpha + p.tau + p.delta)
        vinv_bound = p.theta0 ** (s - p.alpha + p.tau + 2 * p.delta)
        for key, bound in ((f"W@{s:g}", w_bound), (f"VinvmI@{s:g}", vinv_bound)):
            assert first.norms[key] + first.margins[key] == pytest.approx(bound, rel=1e-14)


def test_later_ledger_row_bounds_are_the_bound_formulas():
    # every margin is measured against its BOUND_FORMULAS entry, evaluated
    # here by hand; s_grid straddles the QDQ switch at alpha - tau - 4 delta
    box, D, T, params = maryland_setup()
    res = run(T, D, params)
    p = res.params
    tc = TameConstants(1, p.alpha0)
    row = res.ledger[2]
    prev, a, tau, delta = p.theta(row.k - 1), p.alpha, p.tau, p.delta
    expected = {"D@0": 3.0 * prev ** (p.alpha0 - a)}
    for s in p.s_grid:
        expected[f"W@{s:g}"] = prev ** (s - a + tau + 4 * delta)
        expected[f"VinvmI@{s:g}"] = 2.0 * tc.k1(s) * prev ** (s - a + tau + 4 * delta)
        expected[f"R@{s:g}"] = row.theta_k ** (s - a)
        expected[f"QTQ@{s:g}"] = prev ** (s - a)
        below = s < a - tau - 4 * delta
        expected[f"QDQ@{s:g}"] = prev ** (p.alpha0 - a + 3 * delta if below else s - a)
        expected[f"Qstep@{s:g}"] = prev ** (s - a + tau + 6 * delta)
    # the Neumann margin has no norm column: its norm is the smallness
    # 4 c0^2 ||W||_a0, and alpha0 is on the s-grid
    neumann = f"Neumann@{p.alpha0:g}"
    assert set(row.margins) == set(expected) | {neumann}
    for key, bound in expected.items():
        assert row.norms[key] + row.margins[key] == pytest.approx(bound, rel=1e-14), key
    assert neumann not in row.norms
    assert row.margins[neumann] == 0.5 - 4.0 * tc.c0**2 * row.norms[f"W@{p.alpha0:g}"]

    def labels(r):
        return {key.split("@")[0] for key in r.margins}

    assert labels(row) == set(iteration.BOUND_FORMULAS)
    assert labels(res.ledger[0]) == set(iteration.BOUND_FORMULAS) - {"QTQ", "QDQ"}


@pytest.mark.parametrize("name, value", [
    ("delta", 0.0), ("delta", -0.05), ("gamma", 0.0), ("gamma", -1.0), ("max_steps", 0),
    ("tau", 0.0), ("tau", -1.0), ("theta0", math.nan), ("Theta", math.inf),
    ("tau", math.nan), ("alpha0", math.nan), ("gamma", math.nan), ("alpha", -math.inf),
    ("epsilon", math.nan), ("stop_tol", math.inf), ("s_grid", (0.6, math.nan)),
    ("s_hopping", math.nan), ("s_hopping", -math.inf),
    ("stop_tol", -1.0), ("s_grid", ()), ("s_grid", (0.6, -1.0)), ("alpha", -1.0),
    ("alpha1", 0.5), ("max_steps", 2.5), ("theta0", 1.0), ("Theta", 0.5),
    ("alpha0", 0.5), ("s_hopping", 0.5), ("s_hopping", 1.0), ("s_hopping", math.inf),
    ("s_hopping", 1e308),
])
def test_scheme_params_refuse_values_a_run_cannot_use(name, value):
    # gamma=0 and delta=0 divided by zero inside run, gamma<0 hit a math
    # domain error, delta<0 reported convergence with negative loss
    # exponents and max_steps=0 still took a step; tau<=0 converged with its
    # loss exponents shifted the wrong way, and a NaN theta0 never covered
    # its slices and ran to max_steps.  stop_tol<0 ran to max_steps, an
    # empty s_grid "converged" with no bounded ledger column, max_steps=2.5
    # took 3 steps, and a negative grid entry, given or derived (alpha,
    # alpha1 - tau), died inside the run naming no field.  A derived value
    # is refused under the given field it derives from; the rules that need
    # the dimension (alpha0 > d/2, the default grid) are checked by resolved
    kwargs = dict(tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0, Theta=2.0, s_hopping=4.0)
    with pytest.raises(ValueError, match=f"^{name} "):
        SchemeParams(**{**kwargs, name: value}).resolved(1)


def test_trivial_run_is_exact_for_every_model():
    box = LatticeBox(1, 16, 12)
    T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=0.0), box)
    kinds = [
        PotentialSpec("maryland", omega=(GOLDEN_MEAN,)),
        PotentialSpec("sarnak", omega=(GOLDEN_MEAN,)),
        PotentialSpec("craig_mod1", omega=(GOLDEN_MEAN,)),
        PotentialSpec("limit_periodic_binary"),
        PotentialSpec("limit_periodic_ternary"),
    ]
    eye = LatticeOperator.identity(box)
    for spec in kinds:
        D = build_potential(spec, box)
        params = SchemeParams(tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0,
                              Theta=2.0, s_hopping=4.0)
        res = run(T, D, params)
        assert res.converged
        assert np.array_equal(res.qplus.entries, eye.entries)
        assert np.all(res.dplus.values == 0.0)
        assert np.all(res.final_residual.entries == 0.0)
        # with the trivial input every recorded margin is nonnegative
        for row in res.ledger:
            assert all(m >= 0.0 for m in row.margins.values())


def test_maryland_regression_small_box():
    box, D, T, params = maryland_setup(radius=16, epsilon=0.1)
    res = run(T, D, params)
    assert res.converged
    assert res.steps == 5  # frozen baseline: coverage at theta_4 = 32
    r_seq = [row.norms["R@0.6"] for row in res.ledger]
    assert all(b < a for a, b in zip(r_seq, r_seq[1:]))
    assert res.final_residual.sobolev_norm(0.0) <= 1e-10
    for row in res.ledger:
        assert row.norms["conj_residual"] <= 1e-9
        assert row.norms["decomp_residual"] <= 1e-9
    assert res.master_residual <= 1e-12
    # real symmetric input: the run is unitarized
    assert res.unitarity_defect is not None and res.unitarity_defect <= 1e-9


def test_run_product_count_and_no_svd(monkeypatch):
    # 10 dense products per later step and 5 at the first, where Q = I and
    # R = 0; one per Neumann series term after the first; 2 for the master
    # identity and 1 for the Gram that unitarize reads.  Three of the five
    # steps take the direct-solve fallback, whose condition number must not
    # cost an SVD
    count = [0]
    series_terms = []
    matmul = LatticeOperator.__matmul__
    invert = iteration.neumann_invert

    def counted(a, b):
        count[0] += 1
        return matmul(a, b)

    def inverted(*args, **kwargs):
        out = invert(*args, **kwargs)
        if out.neumann_terms is not None:
            series_terms.append(out.neumann_terms)
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("run reached an SVD")

    monkeypatch.setattr(LatticeOperator, "__matmul__", counted)
    monkeypatch.setattr(iteration, "neumann_invert", inverted)
    monkeypatch.setattr(np.linalg, "cond", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    box, D, T, params = maryland_setup()
    res = run(T, D, params)
    assert res.converged and res.unitarity_defect is not None
    assert res.steps == 5 and len(series_terms) == 2
    series_products = sum(terms - 1 for terms in series_terms)
    assert count[0] == 10 * (res.steps - 1) + 5 + series_products + 2 + 1


def test_eigenfunctions_makes_its_one_product_through_the_operator(monkeypatch):
    # H Q+ goes through LatticeOperator.__matmul__, so product counts and
    # the product guards see the certificate's one dense product
    box, D, T, params = maryland_setup()
    res = run(T, D, params)
    count = [0]
    matmul = LatticeOperator.__matmul__

    def counted(a, b):
        count[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(LatticeOperator, "__matmul__", counted)
    eigenfunctions(res)
    assert count[0] == 1


def _buffers_above_entry(box, call, *args):
    """``(call(*args), peak)``: the call's ``tracemalloc`` peak in complex
    n x n buffers above what was traced at its entry.  ``tracemalloc`` does
    not see the copies numpy.linalg's LAPACK calls make."""
    tracemalloc.reset_peak()
    entry, _ = tracemalloc.get_traced_memory()
    out = call(*args)
    return out, (tracemalloc.get_traced_memory()[1] - entry) / (16 * box.n_sites**2)


def _traced(call, *args):
    tracemalloc.start()
    try:
        return call(*args)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["inverse", "direct"])
def test_step_memory_budget(monkeypatch, mode):
    # every step, the first included, peaks at no more than five complex
    # n x n buffers above what it holds at entry (measured: 4.64 at the
    # first step and 4.62 later, in both modes); it was 7.2 while the old R,
    # R' and an explicit identity lived through the inversion of I + W, and
    # 20 with every intermediate kept to the end of the step
    step = iteration.iterate_step
    box, D, T, params = maryland_setup(radius=64, mode=mode)
    peaks = []

    def measured(state):
        out, peak = _buffers_above_entry(box, step, state)
        peaks.append(peak)
        return out

    monkeypatch.setattr(iteration, "iterate_step", measured)
    res = _traced(run, T, D, params)
    assert res.converged and len(peaks) == res.steps
    assert max(peaks) <= 5.0, peaks


def _certified_run(T, D, params):
    res = run(T, D, params)
    eigenfunctions(res)
    completeness_check(res)
    spectrum_compare(res)
    return res


def test_certified_run_memory_budget():
    # building the hopping, then run plus the certificate, peaks at no more
    # than 8 complex n x n buffers of what tracemalloc sees above what was
    # traced before the build (measured: 7.83, T's symbol holding no n x n
    # buffer).  While build_hopping formed T as an n x n buffer it read 8.85;
    # above an entry already holding that T the run read 7.80, and 8.78
    # while the state held H_k as an n x n buffer, 9.25 while unitarize
    # formed U and U^t U, and 11.7 while a step kept the old R, R' and an
    # explicit identity alive through the inversion of I + W
    box, D, _, params = maryland_setup(radius=64)

    def certified():
        T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=0.1), box)
        return _certified_run(T, D, params)

    res, peak = _traced(_buffers_above_entry, box, certified)
    assert res.converged and res.unitarity_defect is not None
    assert peak <= 8.0, peak


# the copies of its operand that each numpy.linalg call makes in buffers
# tracemalloc does not see: inv copies A and the identity it solves
# against, solve and eigvalsh copy A
LINALG_COPIES = {"inv": 2, "solve": 1, "eigvalsh": 1}


def test_run_buffers_count_numpy_linalg_copies(monkeypatch):
    # a box is admitted by what its run needs, RUN_BUFFERS complex n x n
    # buffers: the certified run's peak with numpy.linalg's untraced copies
    # counted at each call, where the traced output is held too, above an
    # entry that holds only T's symbol (measured: 8.14, in the last fallback
    # inv, with a traced peak of 7.82; one more, for T, while the run held T
    # as an n x n buffer, and two more while the state held H_k as one too)
    box, D, T, params = maryland_setup(radius=64)
    buffer = 16 * box.n_sites**2
    at_calls = []

    def counted(name, call):
        def with_copies(a, *args, **kwargs):
            out = call(a, *args, **kwargs)
            held = tracemalloc.get_traced_memory()[0] - entry[0]
            at_calls.append((held + LINALG_COPIES[name] * np.asarray(a).nbytes) / buffer)
            return out
        return with_copies

    for name in LINALG_COPIES:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    entry = []

    def certified():
        entry.append(tracemalloc.get_traced_memory()[0])
        return _buffers_above_entry(box, _certified_run, T, D, params)

    res, traced_peak = _traced(certified)
    assert res.converged and len(at_calls) >= res.steps
    assert max(traced_peak, *at_calls) <= RUN_BUFFERS, (traced_peak, max(at_calls))


def test_the_hopping_set_up_forms_no_dense_buffer(monkeypatch):
    # build_hopping, the hopping norms of theory_conditions and the data rule
    # read T's symbol alone; what they allocate is a few arrays over the
    # offset slots (measured: 0.010 buffers at n = 513, and 0.047 at n = 129,
    # about 10 kB each time; while the hopping was an n x n buffer they
    # peaked at 2.5 at n = 129, and build_hopping alone held 1.0).  The
    # separation constant, a scan of D's pair differences, is measured
    # before the trace
    box, D, _, params = maryland_setup(radius=256)
    p = params.resolved(1)
    tc = TameConstants(1, p.alpha0)
    gamma = iteration.distal_gamma_box(D, p.tau)
    monkeypatch.setattr(iteration, "distal_gamma_box", lambda D, tau: gamma)

    def set_up():
        T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=0.1), box)
        _, conditions = iteration.theory_conditions(T, D, p, tc)
        return conditions, iteration.real_symmetric_data(T, D)

    (conditions, real), peak = _traced(_buffers_above_entry, box, set_up)
    assert real and {c.name for c in conditions} >= {"T1", "T2", "itthm_T"}
    assert peak < 0.05, peak


def test_later_hopping_slices_hold_one_buffer(monkeypatch):
    # every slice, the first included, is one band spread from T's symbol
    # (measured: 1.03); as one masked copy of a dense T the first peaked at
    # 1.56 and the later ones at 1.07, and as the difference of two banded
    # copies a ring peaked at three complex n x n buffers
    sliced = iteration.hopping_slice
    box, D, T, params = maryland_setup(radius=64)
    peaks = {}

    def measured(T, k, params):
        ring, peaks[k] = _buffers_above_entry(box, sliced, T, k, params)
        return ring

    monkeypatch.setattr(iteration, "hopping_slice", measured)
    res = _traced(run, T, D, params)
    assert res.converged and sorted(peaks) == list(range(res.steps))
    assert max(peaks.values()) <= 1.25, peaks


def _out_of_place_norms(state, H):
    """Ledger norms of one step by out-of-place expressions, the first step
    without its QTQ/QDQ rows, its Neumann margin and the next ``H``: the
    reference for the step's in-place sums, early releases and ``H`` held
    as its diagonal.  ``H`` is dense, summed slice by slice from ``D``, and
    the defect and ``conj_residual`` read it.  On real data the products
    that only the checks read multiply real parts, as the step does."""
    p, box, k = state.params, state.box, state.k
    eye = DiagonalOperator.identity(box)
    T = state.T.band(-1, np.inf)
    real = (not T.entries.imag.any() and np.array_equal(T.entries, T.entries.T)
            and not state.D.values.imag.any())

    def unread(a, b):
        if real:
            return LatticeOperator.wrap(box, a.entries.real @ b.entries.real)
        return a @ b

    Tk = hopping_slice(state.T, k, p)
    QTQ = state.Qinv @ Tk @ state.Q
    if p.mode == "inverse":
        Dk = iteration.solve_diagonal_correction(state.Q, state.Qinv, QTQ, state.R)
        dvals = state.D.values
    else:
        Dk = DiagonalOperator(box, np.diagonal(QTQ.entries) + np.diagonal(state.R.entries))
        dvals = state.D.values + state.corrections
    corrections = state.corrections + Dk.values
    QDQ = LatticeOperator(box, (state.Qinv.entries * Dk.values[None, :]) @ state.Q.entries)
    B = QTQ + QDQ if p.mode == "inverse" else QTQ
    G = B + state.R
    G_for_W = G if p.mode == "inverse" else G - Dk
    W = iteration.solve_generator(DiagonalOperator(box, dvals), G_for_W,
                                  theta=p.theta(k + 1))
    R_prime = G_for_W - G_for_W.smooth(p.theta(k + 1))
    V = eye + W
    inverted = iteration.neumann_invert(W, state.tc)
    Vinv = inverted.Vinv
    Q_next = state.Q @ V
    Qinv_next = Vinv @ state.Qinv
    if p.mode == "inverse":
        H_next = H + Tk + Dk
        R_next = Qinv_next @ H_next @ Q_next - state.D
        H_diagonal = DiagonalOperator(box, state.D.values + corrections)
    else:
        H_next = H + Tk
        R_next = (Qinv_next @ H_next @ Q_next - state.D
                  - DiagonalOperator(box, corrections))
        H_diagonal = state.D
    commut = LatticeOperator(box, (dvals[:, None] - dvals[None, :]) * W.entries)
    VmI = Vinv - eye
    GW = unread(G, W)
    R_quad = unread(VmI, commut + GW + G) + GW
    norms = {}
    for label, op in (("W", W), ("VinvmI", VmI), ("R", R_next), ("QTQ", QTQ),
                      ("QDQ", QDQ), ("Qstep", Q_next - state.Q), ("QmI", Q_next - eye)):
        for s in p.s_grid:
            norms[f"{label}@{s:g}"] = op.sobolev_norm(s)
    norms["D@0"] = Dk.sobolev_norm(0.0)
    norms["conj_residual"] = (
        H_next - T.smooth(p.theta(k)) - H_diagonal).sobolev_norm(0.0)
    norms["decomp_residual"] = (R_next - (R_prime + R_quad)).sobolev_norm(0.0)
    norms["qqinv_defect"] = (unread(Q_next, Qinv_next) - eye).sobolev_norm(0.0)
    if k == 0:
        norms = {key: v for key, v in norms.items() if not key.startswith(("QTQ@", "QDQ@"))}
    return norms, 0.5 - inverted.smallness, H_next


def _three_dimensional_setup(mode="inverse"):
    """Maryland at d=3, N=2 (n = 125)."""
    box = LatticeBox(3, 2, 1)
    D = build_potential(PotentialSpec(
        "maryland", omega=(GOLDEN_MEAN, np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0)), box)
    T = build_hopping(HoppingSpec(s_exponent=6.0, epsilon=0.01), box)
    return box, D, T, SchemeParams(tau=3.0, delta=0.05, alpha0=1.6, theta0=2.0, Theta=2.0,
                                   s_hopping=6.0, epsilon=0.01, mode=mode)


@pytest.mark.parametrize("setup, mode", [
    (maryland_setup, "inverse"), (maryland_setup, "direct"),
    (_three_dimensional_setup, "inverse"), (_three_dimensional_setup, "direct"),
], ids=["inverse", "direct", "d3-inverse", "d3-direct"])
def test_in_place_step_sums_equal_the_out_of_place_formulas(monkeypatch, setup, mode):
    # replay every step of a run, the first included, from its pre-step Q,
    # Q^-1, R and corrections and the reference's own dense H; the step's
    # in-place sums keep every operation and its order, and its H_k, formed
    # from T and its diagonal, has the summed slices' entries, so each norm
    # of each row is equal, not close, and the row opens its margins with
    # the Neumann margin
    step = iteration.iterate_step
    box, D, T, params = setup(mode=mode)
    replayed, H = [], [D.as_operator()]

    def replayed_step(state):
        expected, neumann_margin, H[0] = _out_of_place_norms(state, H[0])
        row = step(state).ledger[-1]
        assert list(row.norms) == list(expected), row.k
        for key, value in expected.items():
            assert row.norms[key] == value, (row.k, key)
        neumann = (f"Neumann@{params.alpha0:g}", neumann_margin)
        assert list(row.margins.items())[0] == neumann, row.k
        replayed.append(row.k)
        return state

    monkeypatch.setattr(iteration, "iterate_step", replayed_step)
    res = run(T, D, params)
    assert res.converged and replayed == list(range(1, res.steps + 1))


@pytest.mark.parametrize("mode", ["inverse", "direct"])
def test_state_holds_no_dense_operator_but_q_qinv_and_r(monkeypatch, mode):
    # H_k is held as its diagonal and T as its symbol: after every step the
    # only n x n arrays or operators the state holds are Q, Q^-1 and R
    step = iteration.iterate_step
    box, D, T, params = maryland_setup(mode=mode)
    held = []

    def checked(state):
        out = step(state)
        n = box.n_sites
        held.append({name for name, value in vars(out).items()
                     if isinstance(value, LatticeOperator)
                     or (isinstance(value, np.ndarray) and value.shape == (n, n))})
        return out

    monkeypatch.setattr(iteration, "iterate_step", checked)
    res = run(T, D, params)
    assert res.converged and held == [{"Q", "Qinv", "R"}] * res.steps


def test_first_diagonal_correction_is_taken_without_a_solve(monkeypatch):
    # at k = 0, Q = Q^-1 = I: the correction is -diag(T_0) with no solve
    solved = []
    solve = iteration.solve_diagonal_correction

    def counted(*args, **kwargs):
        solved.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(iteration, "solve_diagonal_correction", counted)
    box, D, T, params = maryland_setup()
    res = run(T, D, params)
    assert res.converged
    assert len(solved) == res.steps - 1
    tc = TameConstants(1, params.alpha0)
    first = initial_step(T, D, res.params, tc)
    eye = LatticeOperator.identity(box)
    by_solve = solve(eye, eye, hopping_slice(T, 0, res.params),
                     LatticeOperator.zeros(box))
    np.testing.assert_array_equal(first.corrections, by_solve.values)


FAULT_STEP = 2  # faults enter the step from k = 2, whose ledger row is k = 3


def _entry_off(op, by=1e-6, at=(0, 1)):
    """``op`` with the entry ``at`` off by ``by``."""
    entries = op.entries.copy()
    entries[at] += by
    return LatticeOperator(op.box, entries)


def _ring_dropped(sliced):
    def lossy(T, k, params):
        ring = sliced(T, k, params)
        return LatticeOperator.zeros(T.box) if k == FAULT_STEP else ring
    return lossy


def _slice_entry_off(sliced):
    # offset 6 lies in the ring 4 < |k| <= 8 of slice 2; lowered by 1e-6 the
    # entry leaves every per-offset sup of the Toeplitz slice as it was
    def corrupted(T, k, params):
        ring = sliced(T, k, params)
        return _entry_off(ring, -1e-6, at=(0, 6)) if k == FAULT_STEP else ring
    return corrupted


def _ring_norm(T, params):
    ring_norm = hopping_slice(T, FAULT_STEP, params).sobolev_norm(0.0)
    assert ring_norm > 0.0
    return ring_norm


def _correction_off(solve):
    def corrupted(*args):
        values = solve(*args).values.copy()
        values[0] += 1e-6
        return DiagonalOperator(args[0].box, values)
    return corrupted


def _qinv_entry_off(update, by=1e-6):
    def corrupted(state, *args):
        out = update(state, *args)
        if state.k == FAULT_STEP:
            state.Qinv = _entry_off(state.Qinv, by)
        return out
    return corrupted


def _qinv_imag_off(update):
    # on real data Q Q^-1 takes real arithmetic only while no operand has an
    # imaginary part, so an imaginary fault keeps the check complex
    return _qinv_entry_off(update, 1e-6j)


def _w_entry_off(remainder):
    # W reaches _remainder_operand after Q and Q^-1 are formed from it, so
    # only the decomposition check reads the fault (8.49e-9 at 1e-5); a
    # shift of 1e-6 reads 8.49e-10 there, under criterion 6's 1e-9
    calls = []

    def corrupted(G, W, *args):
        if len(calls) == FAULT_STEP:
            W[0] = _entry_off(W[0], 1e-5)
        calls.append(None)
        return remainder(G, W, *args)
    return corrupted


def _defect_entry_off(defect):
    def corrupted(state, *args):
        R, norms = defect(state, *args)
        return (_entry_off(R) if state.k == FAULT_STEP else R), norms
    return corrupted


# each row: the function of nmloc.iteration a fault enters through, the
# fault, the ledger cell that must show it at row FAULT_STEP (None: the run
# must refuse it), and the floor the cell must reach there
@pytest.mark.parametrize("patched, fault, cell, floor", [
    # conj_residual compares each slice's per-offset sups with T's on its
    # ring, so a dropped ring shows there with at least its own norm.  The
    # defect reads S_theta T itself and its closed form the slice, so
    # decomp_residual shows a dropped ring (2.77e-4) and an entry moved
    # within its offset's sup (9.98e-7), which conj_residual cannot see
    ("hopping_slice", _ring_dropped, "conj_residual", _ring_norm),
    ("hopping_slice", _ring_dropped, "decomp_residual", 1e-4),
    ("hopping_slice", _slice_entry_off, "decomp_residual", 1e-7),
    # the step's generator solve is the in-run check of X: a wrong X leaves
    # a main diagonal on the source G built from it
    ("solve_diagonal_correction", _correction_off, None, None),
    ("_transform_update", _qinv_entry_off, "qqinv_defect", 1e-7),
    ("_transform_update", _qinv_imag_off, "qqinv_defect", 1e-7),
    ("_defect", _defect_entry_off, "decomp_residual", 1e-7),
    ("_remainder_operand", _w_entry_off, "decomp_residual", 1e-9),
], ids=["dropped_ring", "dropped_ring_defect", "slice_entry", "corrupted_X", "Qinv_entry",
        "Qinv_imag", "R_entry", "W_entry"])
def test_a_fault_shows_in_its_ledger_cell(monkeypatch, patched, fault, cell, floor):
    monkeypatch.setattr(iteration, patched, fault(getattr(iteration, patched)))
    box, D, T, params = maryland_setup(max_steps=4)
    if cell is None:
        with pytest.raises(ValueError, match="unreduced diagonal"):
            run(T, D, params)
        return
    res = run(T, D, params)
    if callable(floor):
        floor = floor(T, res.params)
    assert res.ledger[FAULT_STEP].norms[cell] >= floor
    assert res.ledger[FAULT_STEP - 1].norms[cell] <= 1e-12


def test_completeness_reuses_the_unitarize_gram(monkeypatch):
    box, D, T, params = maryland_setup()
    res = run(T, D, params)
    assert res.unitarity_defect is not None

    def refuse(a, b):
        raise AssertionError("completeness_check made a dense product")

    monkeypatch.setattr(LatticeOperator, "__matmul__", refuse)
    min_sv, gram_off = completeness_check(res)
    assert gram_off == res.gram.off_diagonal_max()


def _parts_below(entries, bound):
    """How many real or imaginary parts of ``entries`` are nonzero and below
    ``bound`` in modulus."""
    parts = np.abs(entries.view(np.float64))
    return int(np.count_nonzero((parts > 0.0) & (parts < bound)))


def test_products_read_no_subnormal_operand(monkeypatch):
    # the tails of V^-1 and Q^-1 decay into the underflow range, where each
    # subnormal part sends a BLAS product down a slow path; flushed below
    # UNDERFLOW_FLOOR, no product of this run reads one (unflushed, its
    # operands hold hundreds to thousands per call site).  No time is
    # asserted: the count is the deterministic witness
    tiny = np.finfo(float).tiny
    matmul, invert, step = (LatticeOperator.__matmul__, iteration.neumann_invert,
                            iteration.iterate_step)
    subnormal, vinv_tails, qinv_tails = [], [], []

    def checked_matmul(a, b):
        subnormal.append(_parts_below(a.entries, tiny) + _parts_below(b.entries, tiny))
        return matmul(a, b)

    def checked_invert(*args, **kwargs):
        out = invert(*args, **kwargs)
        vinv_tails.append(_parts_below(out.Vinv.entries, operators.UNDERFLOW_FLOOR))
        return out

    def checked_step(state):
        out = step(state)
        qinv_tails.append(_parts_below(out.Qinv.entries, operators.UNDERFLOW_FLOOR))
        return out

    monkeypatch.setattr(LatticeOperator, "__matmul__", checked_matmul)
    monkeypatch.setattr(iteration, "neumann_invert", checked_invert)
    monkeypatch.setattr(iteration, "iterate_step", checked_step)
    res = acceptance_box_run("sarnak", 0.05, mode="direct")
    eigenfunctions(res)
    assert res.converged and len(subnormal) >= 10 * (res.steps - 1) + 5
    assert subnormal == [0] * len(subnormal)
    assert vinv_tails == [0] * res.steps
    assert qinv_tails == [0] * res.steps


@pytest.mark.parametrize("kind, epsilon, mode", [
    ("sarnak", 0.05, "direct"),
    ("maryland", 0.1, "inverse"),  # the flagship
], ids=["sarnak_direct", "flagship"])
def test_the_flush_moves_no_bit_of_the_certificate(monkeypatch, kind, epsilon, mode):
    # the flushed parts lie far below the unit roundoff of the identity
    # that Q, Q^-1 and V^-1 are near, so every ledger cell, the master
    # identity, the unitarity defect and every eigen report are the
    # unflushed run's, bit for bit
    step, floor = iteration.iterate_step, operators.UNDERFLOW_FLOOR
    tails = {}

    def counted_step(state):
        out = step(state)
        tails[operators.UNDERFLOW_FLOOR].append(_parts_below(out.Qinv.entries, floor))
        return out

    monkeypatch.setattr(iteration, "iterate_step", counted_step)
    tails[floor] = []
    flushed = acceptance_box_run(kind, epsilon, mode)
    monkeypatch.setattr(operators, "UNDERFLOW_FLOOR", 0.0)
    tails[0.0] = []
    kept = acceptance_box_run(kind, epsilon, mode)
    # the floor acts on this box: unflushed, Q^-1 holds parts below it
    # after the early steps, until later slices fill its tails
    assert max(tails[0.0]) > 0 and max(tails[floor]) == 0
    assert flushed.converged and flushed.steps == kept.steps
    assert ledger_to_csv(flushed.ledger) == ledger_to_csv(kept.ledger)
    assert repr(flushed.master_residual) == repr(kept.master_residual)
    assert repr(flushed.unitarity_defect) == repr(kept.unitarity_defect)
    assert (flushed.unitarity_defect is None) == (mode == "direct")
    assert repr(eigenfunctions(flushed)) == repr(eigenfunctions(kept))


def _two_dimensional_run(mode="inverse"):
    """Maryland at d=2, N=6 (n = 169)."""
    box = LatticeBox(2, 6, 4)
    D = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN, np.sqrt(2.0) - 1.0)), box)
    T = build_hopping(HoppingSpec(s_exponent=5.0, epsilon=0.02), box)
    return run(T, D, SchemeParams(tau=2.0, delta=0.05, alpha0=1.2, theta0=2.0, Theta=2.0,
                                  s_hopping=5.0, epsilon=0.02, mode=mode))


# the ledger cells that read a product nothing else reads back
UNREAD_CELLS = ("decomp_residual", "qqinv_defect")


def _real_products(monkeypatch):
    """A list that collects, per product, the caller's function name when
    an operand is float64: a product that takes real arithmetic."""
    matmul, found = LatticeOperator.__matmul__, []

    def recorded(a, b):
        if np.isrealobj(a.entries) or np.isrealobj(b.entries):
            assert np.isrealobj(a.entries) and np.isrealobj(b.entries)
            found.append(sys._getframe(1).f_code.co_name)
        return matmul(a, b)

    monkeypatch.setattr(LatticeOperator, "__matmul__", recorded)
    return found


@pytest.mark.parametrize("mode", ["inverse", "direct"])
@pytest.mark.parametrize("which", ["flagship", "d2"])
def test_real_check_products_move_only_their_own_cells(monkeypatch, which, mode):
    # the real path against the same run with it disabled: only the two
    # cells that read its products may move, by rounding, and every value
    # the iteration reads back is the complex run's, bit for bit
    def once():
        if which == "flagship":
            return acceptance_box_run("maryland", 0.1, mode)
        return _two_dimensional_run(mode)

    with monkeypatch.context() as m:
        real_products = _real_products(m)
        real = once()
    with monkeypatch.context() as m:
        for module in (iteration, localization):
            m.setattr(module, "real_operands", lambda real, *ops: ops)
        disabled_products = _real_products(m)
        complex_ = once()
    assert real.converged and real.unitarity_defect is not None
    assert disabled_products == []
    assert len(real_products) == 3 * real.steps + 1  # and the Gram
    assert real.steps == complex_.steps
    assert (repr(real.final_residual.sobolev_norm(0.0))
            == repr(complex_.final_residual.sobolev_norm(0.0)))
    assert repr(real.master_residual) == repr(complex_.master_residual)
    tol = 1e-3 * complex_.defect_resolution()
    for row, ref in zip(real.ledger, complex_.ledger, strict=True):
        assert list(row.norms) == list(ref.norms) and list(row.margins) == list(ref.margins)
        for key, value in ref.norms.items():
            if key in UNREAD_CELLS:
                assert abs(row.norms[key] - value) <= tol, (row.k, key)
            else:
                assert repr(row.norms[key]) == repr(value), (row.k, key)
        assert repr(row.margins) == repr(ref.margins), row.k


def test_a_complex_run_makes_no_real_product(monkeypatch):
    real_products = _real_products(monkeypatch)
    res = acceptance_box_run("sarnak", 0.05)
    eigenfunctions(res)
    completeness_check(res)
    assert res.converged and not res.real_symmetric
    assert real_products == []


def test_only_the_unread_products_take_real_arithmetic(monkeypatch):
    # a product the iteration reads back (Q^-1 T_k Q, Q^-1 D_k Q, the
    # Neumann terms and fallback, Q V, V^-1 Q^-1, Q^-1 H Q, the master
    # identity) stays complex until the benchmark gate knows its rounding
    # noise; real operands come only from the five products whose results
    # only a check reads: G W and (V^-1 - I)(...) for decomp_residual,
    # Q Q^-1 for qqinv_defect, the Gram and H Q+
    real_products = _real_products(monkeypatch)
    res = acceptance_box_run("maryland", 0.1)
    eigenfunctions(res)
    completeness_check(res)
    assert res.converged
    sites = {name: real_products.count(name) for name in real_products}
    assert sites == {"_remainder_operand": 2 * res.steps, "iterate_step": res.steps,
                     "gram": 1, "eigenfunctions": 1}


def test_ledger_columns_match_the_benchmark_reference():
    # the benchmark gate compares ledgers key by key against these rows
    ref_path = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "maryland-d1.json"
    ref_rows = next(iter(json.loads(ref_path.read_text()).values()))["ledger"]
    box, D, T, params = maryland_setup()
    res = run(T, D, params)
    assert len(res.ledger) <= len(ref_rows)
    for row, ref_row in zip(res.ledger, ref_rows):
        assert set(row.norms) == set(ref_row)


def test_direct_mode_master_identity():
    box, D, T, params = maryland_setup(radius=16, epsilon=0.05, mode="direct")
    res = run(T, D, params)
    assert res.converged
    lhs = res.qplus_inv @ (T.band(-1, np.inf) + D.as_operator()) @ res.qplus
    rhs = D.as_operator() + res.dplus.as_operator()
    assert (lhs - rhs).sobolev_norm(0.0) <= 1e-10
    assert res.dplus.sobolev_norm() > 0.0


def test_conjugation_pair_by_mode():
    box, D, T, params = maryland_setup(radius=8, epsilon=0.05)
    for mode in ("inverse", "direct"):
        res = run(T, D, replace(params, mode=mode))
        assembled, target = res.conjugation_pair
        assert res.conjugation_pair[0] is assembled  # built once per result
        TD = T.band(-1, np.inf).entries + np.diag(D.values)
        if mode == "inverse":
            np.testing.assert_array_equal(
                assembled.entries, TD + np.diag(res.dplus.values))
            assert target is res.D
        else:
            np.testing.assert_array_equal(assembled.entries, TD)
            np.testing.assert_array_equal(target.values, D.values + res.dplus.values)


def test_direct_and_inverse_corrections_compose():
    # feeding the direct run's corrected diagonal to an inverse run must
    # undo the correction, up to the two conjugation defects
    box, D, T, params = maryland_setup(radius=16, epsilon=0.05, mode="direct")
    rd = run(T, D, params)
    D2 = DiagonalOperator(box, D.values + rd.dplus.values)
    ri = run(T, D2, SchemeParams(
        tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0, Theta=2.0,
        s_hopping=4.0, epsilon=0.05, mode="inverse",
    ))
    tol = (rd.final_residual.sobolev_norm(0.0)
           + ri.final_residual.sobolev_norm(0.0))
    assert np.max(np.abs(ri.dplus.values + rd.dplus.values)) <= tol


def test_two_dimensional_run_end_to_end():
    res = _two_dimensional_run()
    assert res.converged
    assert res.master_residual <= 1e-12
    from nmloc import completeness_check, eigenfunctions

    reports = eigenfunctions(res)
    assert all(r.decay_envelope_margin >= 0.0 for r in reports if r.interior)
    assert completeness_check(res)[0] >= 0.9


def test_ledger_csv_layout():
    box, D, T, params = maryland_setup(radius=8)
    res = run(T, D, params)
    csv = ledger_to_csv(res.ledger)
    lines = csv.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "k" and header[1] == "theta_k"
    assert any(col.startswith("W@") for col in header)
    assert any(col.startswith("margin:R@") for col in header)
    assert len(lines) == len(res.ledger) + 1
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


def test_ledger_csv_bytes():
    # first-seen column order, nan for a label a row lacks, .17g floats and
    # margins after norms
    first = LedgerRow(k=1, theta_k=2.0)
    first.put("W@0.6", 0.1, 0.5)
    first.put("conj_residual", 1e-17)
    second = LedgerRow(k=2, theta_k=4.0)
    second.put("W@0.6", 0.25, 1.0)
    second.put("QTQ@0.6", 1 / 3, 2.0)
    second.put("conj_residual", 0.0)
    assert ledger_to_csv([first, second]) == (
        "k,theta_k,W@0.6,conj_residual,QTQ@0.6,margin:W@0.6,margin:QTQ@0.6\n"
        "1,2,0.10000000000000001,1.0000000000000001e-17,nan,0.40000000000000002,nan\n"
        "2,4,0.25,0,0.33333333333333331,0.75,1.6666666666666667\n"
    )
    assert ledger_to_csv([]) == "k,theta_k\n"


# -- unitarization -------------------------------------------------------------


def synthetic_result(box, Q_entries):
    eye = LatticeOperator.identity(box)
    Q = LatticeOperator(box, Q_entries)
    D = DiagonalOperator(box, np.arange(box.n_sites, dtype=float))
    return SchemeResult(
        qplus=Q,
        qplus_inv=LatticeOperator(box, np.linalg.inv(Q_entries)),
        dplus=DiagonalOperator(box, np.zeros(box.n_sites)),
        final_residual=LatticeOperator.zeros(box),
        ledger=[], converged=True, steps=0, box=box,
        params=SchemeParams(tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0,
                            Theta=2.0, alpha=2.0).resolved(1),
        T=LatticeOperator.zeros(box), D=D, theory_conditions=[], real_symmetric=True,
        master_residual=0.0,
    )


def test_unitarize_identity_and_scaling(box1d):
    # U = I exactly, and U^t U - I = S G S - I is zero for any column scale
    res = synthetic_result(box1d, np.eye(box1d.n_sites, dtype=complex))
    assert unitarize(res) == 0.0 == res.unitarity_defect
    assert localization.certify(res) is None
    res2 = synthetic_result(box1d, 2.0 * np.eye(box1d.n_sites, dtype=complex))
    assert unitarize(res2) <= 1e-15
    scaled = np.diag(np.arange(1.0, box1d.n_sites + 1)).astype(complex)
    assert unitarize(synthetic_result(box1d, scaled)) <= 1e-15


def test_the_verdict_refuses_a_unitarity_defect_above_its_tolerance(box1d):
    # a Gram off-diagonal of 5e-9 passes the Gram check (1e-8) and puts
    # ||U^t U - I||_0 at sqrt(2) 5e-9, above UNITARITY_TOL; unitarize only
    # measures it, and the verdict on the stored defect names it
    q = np.eye(box1d.n_sites, dtype=complex)
    q[0, 3] = 5e-9
    res = synthetic_result(box1d, q)
    assert res.gram.off_diagonal_max() <= localization.GRAM_OFFDIAG_TOL
    assert unitarize(res) == res.unitarity_defect > localization.UNITARITY_TOL
    assert re.fullmatch(r"symmetry defect: \|\|U\^t U - I\|\|_0 = 7\.071e-09 exceeds 1\.0e-09",
                        localization.certify(res))


def test_the_verdict_rejects_skew_transform(box1d):
    q = np.eye(box1d.n_sites, dtype=complex)
    q[0, 3] = 0.2  # Gram matrix picks up an off-diagonal entry
    res = synthetic_result(box1d, q)
    assert unitarize(res) == res.unitarity_defect > localization.UNITARITY_TOL
    assert localization.certify(res) == (
        "symmetry defect: Gram off-diagonal 2.000e-01 exceeds 1.0e-08")


def test_a_zero_column_has_an_infinite_defect_and_fails_the_verdict(box1d):
    # a zero column of Q+ is a zero Gram diagonal entry: no column scale
    # exists, so the defect is infinite, with no division by zero
    q = np.eye(box1d.n_sites, dtype=complex)
    q[:, 2] = 0.0
    res = replace(synthetic_result(box1d, np.eye(box1d.n_sites, dtype=complex)),
                  qplus=LatticeOperator(box1d, q))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert unitarize(res) == math.inf == res.unitarity_defect
        assert res.gram.off_diagonal_max() == 0.0
        assert (localization.certify(res)
                == "symmetry defect: non-positive Gram diagonal")



def test_run_returns_a_run_that_fails_the_symmetry_verdict(monkeypatch):
    # the verdict is data: run stores the defect and returns, and
    # certify names the failing check
    monkeypatch.setattr(localization, "UNITARITY_TOL", 0.0)
    box, D, T, params = maryland_setup()
    res = run(T, D, params)
    assert res.converged and res.real_symmetric
    assert 0.0 < res.unitarity_defect <= 1e-9
    assert localization.certify(res) == (
        f"symmetry defect: ||U^t U - I||_0 = {res.unitarity_defect:.3e} exceeds 0.0e+00")


def test_the_data_rule_is_decided_once_per_run(monkeypatch):
    calls = []
    rule = iteration.real_symmetric_data
    monkeypatch.setattr(iteration, "real_symmetric_data",
                        lambda T, D: calls.append((T, D)) or rule(T, D))
    box, D, T, params = maryland_setup()
    res = run(T, D, params)
    eigenfunctions(res)
    completeness_check(res)
    spectrum_compare(res)
    res.defect_resolution()
    assert res.converged and res.real_symmetric and res.unitarity_defect is not None
    assert len(calls) == 1

# -- sufficient-condition checker ------------------------------------------------


def test_kappa1_boundary_is_strict():
    # binary-exact parameters put kappa1 at exactly zero
    tc = TameConstants(1, 0.625)
    params = SchemeParams(
        tau=1.0, delta=0.0625, alpha0=0.625, theta0=2.0, Theta=2.0,
        alpha=0.625 + 1.0 + 7 * 0.0625, alpha1=10.0, gamma=1.0,
    )
    rows = {c.name: c
            for c in check_theory_conditions(params, tc, t_3delta=0.0, t_4delta=0.0)}
    assert rows["alpha3"].margin == 0.0
    assert rows["alpha3"].holds is False


def test_small_delta_forces_astronomical_band_ratio():
    tc = TameConstants(1, 0.6)
    params = SchemeParams(
        tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0, Theta=2.0,
        alpha=3.25, alpha1=6.55, gamma=1.0,
    )
    rows = {c.name: c
            for c in check_theory_conditions(params, tc, t_3delta=0.0, t_4delta=0.0)}
    theta_row = rows["Theta"]
    assert theta_row.data["binding"] == "8^(2/delta)*c0^(4/delta)"
    assert theta_row.data["required_log10"] > 20.0
    assert not theta_row.holds


def witness_params():
    # all sufficient inequalities hold; the admissible coupling is then far
    # below float resolution, so the witness hopping is zero
    return SchemeParams(
        tau=0.5, gamma=0.25, delta=4.0, alpha0=0.6,
        alpha=100.0, alpha1=204.0, theta0=1e54, Theta=70.0,
        theory_checks=True,
    )


def test_witness_configuration_passes_everything():
    tc = TameConstants(1, 0.6)
    rows = check_theory_conditions(witness_params(), tc, t_3delta=0.0, t_4delta=0.0)
    for c in rows:
        assert c.holds, f"{c.name} fails with margin {c.margin}"


@pytest.mark.parametrize("name", ["alpha", "alpha1", "gamma"])
def test_theory_conditions_need_alpha_alpha1_and_gamma(name):
    params = replace(witness_params(), **{name: None})
    with pytest.raises(ValueError, match=f"params.{name}$"):
        check_theory_conditions(params, TameConstants(1, 0.6),
                                t_3delta=0.0, t_4delta=0.0)


def test_theory_mode_runs_with_witness():
    box = LatticeBox(1, 8, 6)
    D = build_potential(PotentialSpec("maryland", omega=(GOLDEN_MEAN,)), box)
    T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=0.0), box)
    res = run(T, D, witness_params())
    assert res.converged
    assert np.all(res.final_residual.entries == 0.0)


def test_strict_run_with_a_failing_condition_stops_before_any_step(monkeypatch):
    steps = []
    monkeypatch.setattr(iteration, "initial_step", lambda *args: steps.append(args))
    box, D, T, params = maryland_setup(theory_checks=True)
    with pytest.raises(TheoryConditionError,
                       match=re.escape("Theta1 fails") + ".*" + re.escape("8 c0^2")):
        run(T, D, params)
    assert steps == []


def _neumann_results(monkeypatch):
    """Every ``NeumannResult`` a run's steps take, in order."""
    results = []
    invert = iteration.neumann_invert

    def recorded(*args):
        results.append(invert(*args))
        return results[-1]

    monkeypatch.setattr(iteration, "neumann_invert", recorded)
    return results


@pytest.mark.parametrize("which", ["flagship", "d2"])
def test_the_neumann_margin_records_the_inversion_each_step_took(monkeypatch, which):
    # the ledger's Neumann margin is 1/2 - smallness, and it is >= 0 exactly
    # on the steps that summed the series; the d=1 run takes both paths
    results = _neumann_results(monkeypatch)
    if which == "flagship":
        box, D, T, params = maryland_setup()
        res = run(T, D, params)
    else:
        res = _two_dimensional_run()
    key = f"Neumann@{res.params.alpha0:g}"
    assert res.converged and len(results) == len(res.ledger) == res.steps
    for row, inverted in zip(res.ledger, results):
        assert row.margins[key] == 0.5 - inverted.smallness, row.k
        assert (row.margins[key] >= 0.0) == (inverted.neumann_terms is not None), row.k
    if which == "flagship":
        paths = [inverted.neumann_terms is not None for inverted in results]
        assert paths == [False, False, False, True, True]


def test_a_strict_run_names_the_first_negative_margin_after_the_loop(monkeypatch):
    # with every condition holding, the strict run takes every step the
    # empirical run takes and returns; its verdict is the first negative
    # ledger margin in step order, here a step that inverted I + W by the
    # direct solve
    box, D, T, params = maryland_setup()
    empirical = run(T, D, params)
    step, key, margin = next((row.k, key, margin) for row in empirical.ledger
                             for key, margin in row.margins.items() if margin < 0.0)
    assert (step, key) == (1, "Neumann@0.6")
    conditions = iteration.theory_conditions

    def holding(*args):
        p, rows = conditions(*args)
        return p, [replace(c, holds=True) for c in rows]

    iterate, steps = iteration.iterate_step, []

    def counted(state):
        steps.append(state.k)
        return iterate(state)

    monkeypatch.setattr(iteration, "theory_conditions", holding)
    monkeypatch.setattr(iteration, "iterate_step", counted)
    assert localization.certify(run(T, D, replace(params, theory_checks=True))) == (
        f"claimed bound violated at step {step}: {key} (margin {margin:.3e})")
    assert steps == list(range(empirical.steps))
