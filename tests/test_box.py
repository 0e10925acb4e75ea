import tracemalloc

import numpy as np
import pytest

from conftest import (DIFFERENTIAL_BOXES, offset_flat_id, pair_dist, pair_offset_ids,
                      scatter_offsets)
from nmloc import LatticeBox, box as box_module

# without a physical-memory bound these boxes would build a 12 GB site table
NEEDS_MEMORY_BOUND = pytest.mark.skipif(box_module.PHYSICAL_MEMORY is None,
                                        reason="os.sysconf gives no physical memory")


def test_enumeration_is_stable_and_total():
    box = LatticeBox(2, 2, 1)
    again = LatticeBox(2, 2, 1)
    assert np.array_equal(box.sites, again.sites)
    assert box.n_sites == 25
    assert len({tuple(s) for s in box.sites}) == box.n_sites
    # lexicographic in the coordinates
    assert tuple(box.sites[0]) == (-2, -2)
    assert tuple(box.sites[-1]) == (2, 2)


def test_site_index_roundtrip():
    box = LatticeBox(2, 3, 2)
    idx = box.site_index(box.sites)
    assert np.array_equal(idx, np.arange(box.n_sites))
    assert box.site_index((4, 0)) == -1
    assert box.site_index((-3, 3)) == 6
    assert box.site_index((3, 3)) == box.n_sites - 1


def test_interior_window_and_validation():
    box = LatticeBox(1, 5, 3)
    assert box.interior_mask.sum() == 7
    with pytest.raises(ValueError):
        LatticeBox(1, 4, 5)
    with pytest.raises(ValueError):
        LatticeBox(0, 4, 2)


@pytest.mark.parametrize("args, name", [
    ((1.7, 8.9, 6), "dimension"), ((1, 8.9, 6), "radius"), ((1, 8, 5.5), "interior_radius"),
    ((1, 0, 1), "radius"), ((1, 4, 5), "interior_radius"), ((1, 4, 0), "interior_radius"),
    ((8, 12, 6), "radius"), ((40, 12, 9), "dimension"), ((1e300, 12, 9), "dimension"),
    ((1, 1e300, 9), "radius"), ((1, 379625062, 1), "radius"), ((2, 13777, 1), "radius"),
    ((19, 1, 1), "dimension"), ((10**400, 1, 1), "dimension"), ((1, 10**400, 1), "radius"),
    pytest.param((2, 13776, 1), "radius", marks=NEEDS_MEMORY_BOUND),
    pytest.param((1, 379625061, 1), "radius", marks=NEEDS_MEMORY_BOUND),
])
def test_box_refuses_a_size_it_cannot_build(args, name):
    # LatticeBox(1.7, 8.9, 6) was silently the box (1, 8, 6); a box whose
    # dense complex operator cannot be one numpy array is refused before its
    # site table forms (n = 759250125 and 27555^2 are the first such n), and
    # so is one whose operator exceeds the physical memory: (2, 13776, 1)
    # passed the array bound and was killed building its site table
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{name} "):
            LatticeBox(*args)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_box_memory_bound_is_exact_in_integers(monkeypatch):
    # a run's RUN_BUFFERS operators of 16 n^2 bytes may equal the physical
    # memory, not exceed it
    run_bytes = 16 * box_module.RUN_BUFFERS
    monkeypatch.setattr(box_module, "PHYSICAL_MEMORY", run_bytes * 25**2)
    assert LatticeBox(1, 12, 1).n_sites == 25
    with pytest.raises(ValueError, match="^radius .*physical memory"):
        LatticeBox(1, 13, 1)
    monkeypatch.setattr(box_module, "PHYSICAL_MEMORY", run_bytes * 9**2 - 1)
    with pytest.raises(ValueError, match="^dimension .*physical memory"):
        LatticeBox(2, 1, 1)
    assert LatticeBox(1, 1, 1).n_sites == 3
    # where sysconf cannot tell, only the numpy-array bound applies
    monkeypatch.setattr(box_module, "PHYSICAL_MEMORY", None)
    assert LatticeBox(2, 1, 1).n_sites == 9


def test_physical_memory_is_none_where_sysconf_cannot_tell(monkeypatch):
    assert box_module._physical_memory() == box_module.PHYSICAL_MEMORY

    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(box_module.os, "sysconf", unknown)
    assert box_module._physical_memory() is None
    monkeypatch.setattr(box_module.os, "sysconf", lambda name: -1)
    assert box_module._physical_memory() is None


def test_offset_tables_consistent():
    box = LatticeBox(2, 2, 1)
    for p in (0, 7, 13):
        for q in (2, 11, 24):
            k = box.sites[p] - box.sites[q]
            pair = np.zeros((box.n_sites,) * 2)
            pair[p, q] = 1.0
            (slot,) = np.flatnonzero(box.offset_reduce(pair, np.maximum, 0.0))
            assert slot == offset_flat_id(box, k)
            assert box.offset_vector(int(slot)) == tuple(k)
            assert box.offset_len[slot] == np.max(np.abs(k))
    lens = box.offset_len
    assert lens[offset_flat_id(box, (0, 0))] == 0
    assert lens[offset_flat_id(box, (-4, 2))] == 4


def test_smooth_mask_inclusive_boundary():
    # S_theta's mask is band_mask(-1, theta); the generator's band,
    # band_mask(0, theta), is the same band with the main diagonal dropped
    box = LatticeBox(1, 4, 2)
    i = box.site_index(0)
    for lo in (-1, 0):
        mask = box.band_mask(lo, 2.0)
        assert mask[i, box.site_index(2)]       # |i-j| = theta kept
        assert not mask[i, box.site_index(3)]   # beyond theta dropped
        assert mask[i, i] == (lo < 0)           # |i-j| = 0 kept only when lo < 0
    assert not box.band_mask(0, 2.0).diagonal().any()


@pytest.mark.parametrize("dimension, radius", DIFFERENTIAL_BOXES)
def test_offset_reduce_is_the_scatter(dimension, radius, rng):
    # max and min are exact, so the fold equals the scatter bit for bit,
    # NaN and infinite entries included
    box = LatticeBox(dimension, radius, 1)
    a = np.abs(rng.standard_normal((box.n_sites,) * 2))
    for value in (np.nan, np.inf, 0.0):
        a[rng.random(a.shape) < 0.05] = value
    for ufunc, fill in ((np.maximum, 0.0), (np.minimum, np.inf)):
        with np.errstate(invalid="ignore"):
            got = box.offset_reduce(a, ufunc, fill)
        assert np.array_equal(got.view(np.uint64),
                              scatter_offsets(box, a, ufunc, fill).view(np.uint64))


@pytest.mark.parametrize("dimension, radius", DIFFERENTIAL_BOXES)
def test_offset_spread_is_the_gather(dimension, radius, rng):
    # the strided view reads each pair's own slot: the spread is the gather
    # by the pair's offset id, bit for bit, as a new writable array
    box = LatticeBox(dimension, radius, 1)
    slots = rng.standard_normal(len(box.offset_len)) + 1j * rng.standard_normal(
        len(box.offset_len))
    got = box.offset_spread(slots)
    assert got.flags.writeable and got.flags.c_contiguous
    assert got.tobytes() == slots[pair_offset_ids(box)].tobytes()
    with pytest.raises(ValueError, match="slots must have shape"):
        box.offset_spread(slots[1:])


@pytest.mark.parametrize("dimension, radius", DIFFERENTIAL_BOXES)
def test_distances_and_masks_are_the_tables(dimension, radius):
    # band_slots is lo < |k|_inf <= hi on the offset slots, each slot's
    # length decoded from its offset vector, and band_mask is its spread:
    # lo < |i - j|_inf <= hi on the pair-distance table, bounds included
    box = LatticeBox(dimension, radius, 1)
    lens = np.array([max(map(abs, box.offset_vector(slot)))
                     for slot in range(len(box.offset_len))])
    assert np.array_equal(box.offset_len, lens)
    table = pair_dist(box)
    for lo, hi in ((-1, 0), (-1, 2), (0, 2.5), (1, 2 * radius), (2.5, np.inf)):
        slots = box.band_slots(lo, hi)
        assert slots.dtype == bool
        assert np.array_equal(slots, (lo < lens) & (lens <= hi))
        mask = box.band_mask(lo, hi)
        assert mask.dtype == bool and mask.shape == table.shape
        assert np.array_equal(mask, (lo < table) & (table <= hi))
