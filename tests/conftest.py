import math

import numpy as np
import pytest

from nmloc import (
    GOLDEN_MEAN,
    DistalReport,
    HoppingSpec,
    LatticeBox,
    LatticeOperator,
    PotentialSpec,
    SchemeParams,
    build_hopping,
    build_potential,
    run,
)
from nmloc import algebra
from nmloc.operators import sup_and_variation


# the boxes on which the box's pair geometry is checked against the tables
DIFFERENTIAL_BOXES = [(d, r) for d in (1, 2, 3) for r in (1, 2, 3, 4)] + [(1, 256)]


def pair_offset_ids(box):
    """Flat offset id of i - j for every pair (i, j), int64, shape (n, n): the
    n x n table the box once cached, built the way it built it."""
    span = 4 * box.radius + 1
    flat = np.zeros((box.n_sites, box.n_sites), dtype=np.int64)
    for v in range(box.dimension):
        dv = box.sites[:, v][:, None] - box.sites[:, v][None, :]
        flat = flat * span + (dv + 2 * box.radius)
    return flat


def offset_flat_id(box, k):
    """The flat offset id of ``k``, the C-order index of k + 2N in [0, 4N]^d,
    which ``box.offset_vector`` decodes."""
    k = np.asarray(k, dtype=np.int64).reshape(box.dimension) + 2 * box.radius
    return int(np.ravel_multi_index(tuple(k), (4 * box.radius + 1,) * box.dimension))


def pair_dist(box):
    """|i - j|_inf for every pair (i, j), int32, shape (n, n): the other n x n
    table the box once cached, built the way it built it."""
    dist = np.zeros((box.n_sites, box.n_sites), dtype=np.int32)
    for v in range(box.dimension):
        dv = box.sites[:, v][:, None] - box.sites[:, v][None, :]
        np.maximum(dist, np.abs(dv).astype(np.int32), out=dist)
    return dist


def reference_hopping(box, s, epsilon):
    """The dense hopping ``eps * phi(|i - j|_inf)``, phi = r^-s off the main
    diagonal and 0 on it, complex, by the formula it was once built from on
    the pair distance table."""
    dist = pair_dist(box).astype(float)
    with np.errstate(divide="ignore"):
        phi = np.where(dist == 0.0, 0.0, dist ** (-s))
    return (epsilon * phi).astype(complex)


def scatter_offsets(box, a, ufunc, fill):
    """The reference for ``box.offset_reduce``: ``ufunc.at`` from ``fill``
    at every pair's offset id, as the norms and the distal scan once did."""
    out = np.full(len(box.offset_len), fill)
    with np.errstate(invalid="ignore"):  # a NaN entry makes its slot NaN
        ufunc.at(out, pair_offset_ids(box).ravel(), np.asarray(a).ravel())
    return out


def random_banded(box, rng, n_offsets=6, scale=1.0, max_offset=None):
    """Random operator supported on a few random diagonals."""
    m = 2 * box.radius if max_offset is None else int(max_offset)
    ids = pair_offset_ids(box)
    mask = np.zeros((box.n_sites, box.n_sites), dtype=bool)
    for _ in range(n_offsets):
        k = rng.integers(-m, m + 1, size=box.dimension)
        mask |= ids == offset_flat_id(box, k)
    vals = rng.standard_normal((box.n_sites, box.n_sites)) + 1j * rng.standard_normal(
        (box.n_sites, box.n_sites)
    )
    return LatticeOperator(box, np.where(mask, scale * vals, 0.0))


def reference_window_scan(p, max_offset):
    """``(k, |k|, norm)`` per measurable offset, a generator that each
    reference reduction below runs afresh, as the window scan once did."""
    window = p.box.interior_mask
    prof = p.bv_profile
    for k in p.box.all_offsets(max_offset):
        inverted = algebra._inverted_difference_values(p, k, window)
        if inverted.size == 0:
            continue
        norm = float(np.max(np.abs(inverted)))
        if prof is not None:
            shift = float(np.asarray(k, dtype=float) @ np.asarray(prof.omega))
            sup, tv = sup_and_variation(algebra._inverted_profile(prof.fn, shift, k))
            norm = max(norm, sup + tv)
        yield k, max(abs(int(c)) for c in k), norm


def reference_window_gamma(p, tau, max_offset):
    """min over k of |k|^tau / norm_k and its offset, by a strict-``<`` loop."""
    best, worst = math.inf, None
    for k, klen, norm in reference_window_scan(p, max_offset):
        gamma_k = klen**tau / norm
        if gamma_k < best:
            best, worst = gamma_k, k
    return float(best), tuple(worst)


def reference_window_margin(p, tau, gamma, max_offset):
    """min over k of gamma^-1 |k|^tau - norm_k, by a strict-``<`` loop."""
    least, worst = math.inf, None
    for k, klen, norm in reference_window_scan(p, max_offset):
        margin = (klen**tau) / gamma - norm
        if margin < least:
            least, worst = margin, k
    return DistalReport(tau, gamma, tuple(worst), float(least))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def box1d():
    return LatticeBox(1, 8, 6)


@pytest.fixture(scope="session")
def box2d():
    return LatticeBox(2, 3, 2)


def acceptance_box_run(kind, epsilon, mode="inverse"):
    """A run on the acceptance box (d=1, N=128), with the acceptance params."""
    box = LatticeBox(1, 128, 100)
    D = build_potential(PotentialSpec(kind, omega=(GOLDEN_MEAN,)), box)
    T = build_hopping(HoppingSpec(s_exponent=4.0, epsilon=epsilon), box)
    return run(T, D, SchemeParams(tau=1.0, delta=0.05, alpha0=0.6, theta0=2.0,
                                  Theta=2.0, s_hopping=4.0, epsilon=epsilon, mode=mode))


@pytest.fixture(scope="session")
def flagship_result():
    """The acceptance flagship: real symmetric Maryland, eps = 0.1."""
    return acceptance_box_run("maryland", 0.1)


@pytest.fixture(scope="session")
def sarnak_result():
    """The acceptance Sarnak run: complex, non-normal, eps = 0.05."""
    return acceptance_box_run("sarnak", 0.05)
