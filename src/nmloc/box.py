"""Finite lattice boxes.

A box is the truncation ``{i in Z^d : |i|_inf <= N}`` together with an
interior window ``|i|_inf <= M`` used for measurements that must not be
polluted by the truncation boundary.  Sites are enumerated once, in
lexicographic order, and that enumeration is the row/column order of every
operator living on the box.

Only the box knows which offset slot a pair (i, j) belongs to, and it holds
no n x n array: the site order puts each axis's offset ``i_v - j_v`` one
reshape away, so ``offset_reduce`` folds an n x n array onto the slots one
axis at a time, and ``offset_spread`` spreads per-slot values back over
the n x n pairs through one strided view.  ``band_slots`` is the one band
predicate, ``lo < |k|_inf <= hi`` on the slots, and an n x n band mask is
its spread, formed per call.  A box is refused before its site table
forms when its operator cannot be one numpy array, or when a run on it,
``RUN_BUFFERS`` such operators, would exceed the physical memory.
"""

from __future__ import annotations

import functools
import itertools
import math
import os

import numpy as np

# log2 of the most sites n whose dense n x n operator, 16 bytes a complex
# entry, can be one numpy array: 16 n^2 <= the largest intp
MAX_LOG2_SITES = (math.log2(np.iinfo(np.intp).max) - 4) / 2


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return page * pages if page > 0 and pages > 0 else None


# no box whose run, RUN_BUFFERS complex n x n operators, exceeds this is built
PHYSICAL_MEMORY = _physical_memory()

# the buffers that a certified run peaks at (8.14 at n = 129), the hopping's
# symbol being 2N + 1 numbers: what tracemalloc sees, plus the copies of their
# operands that numpy.linalg's inv, solve and eigvalsh make outside its view
# (tier-1 test_run_buffers_count_numpy_linalg_copies)
RUN_BUFFERS = 9


class LatticeBox:
    """Truncated d-dimensional lattice with a stable site enumeration."""

    def __init__(self, dimension: int, radius: int, interior_radius: int):
        for name, value in (("dimension", dimension), ("radius", radius),
                            ("interior_radius", interior_radius)):
            if not (isinstance(value, int) or float(value).is_integer()):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        dimension = int(dimension)
        radius = int(radius)
        interior_radius = int(interior_radius)
        if dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {dimension}")
        if radius < 1:
            raise ValueError(f"radius must be a positive integer, got {radius}")
        if not 1 <= interior_radius <= radius:
            raise ValueError(f"interior_radius must lie in [1, radius], got "
                             f"{interior_radius} with radius {radius}")
        # n = (2 radius + 1)^dimension, compared in log2 so that no power and
        # no table forms; an int compares with a float exactly, at any size
        if dimension > MAX_LOG2_SITES / math.log2(3):
            raise ValueError("dimension is too large: even at radius 1 the box's "
                             "dense operator cannot be one numpy array")
        if dimension * math.log2(2 * radius + 1) > MAX_LOG2_SITES:
            raise ValueError(f"radius is too large for dimension {dimension}: the "
                             "box's dense operator cannot be one numpy array")
        # past the bound above n is small enough to compare in integers
        if PHYSICAL_MEMORY is not None:
            if 16 * RUN_BUFFERS * 3 ** (2 * dimension) > PHYSICAL_MEMORY:
                raise ValueError("dimension is too large: even at radius 1 a run on "
                                 "the box needs more than the physical memory")
            if 16 * RUN_BUFFERS * (2 * radius + 1) ** (2 * dimension) > PHYSICAL_MEMORY:
                raise ValueError(f"radius is too large for dimension {dimension}: a run "
                                 "on the box needs more than the physical memory")
        self.dimension = dimension
        self.radius = radius
        self.interior_radius = interior_radius

        side = 2 * radius + 1
        axes = [np.arange(-radius, radius + 1, dtype=np.int64)] * dimension
        mesh = np.meshgrid(*axes, indexing="ij")
        self.sites = np.stack([m.ravel() for m in mesh], axis=1)
        self.sites.flags.writeable = False
        self.n_sites = side**dimension
        self._side = side

    # -- site bookkeeping -------------------------------------------------

    def site_index(self, sites) -> np.ndarray:
        """Row indices of ``sites``; -1 marks sites outside the box."""
        s = np.asarray(sites, dtype=np.int64)
        single = s.ndim == 1
        s = s.reshape(-1, self.dimension)
        inside = np.all(np.abs(s) <= self.radius, axis=1)
        idx = np.zeros(len(s), dtype=np.int64)
        for v in range(self.dimension):
            idx = idx * self._side + (s[:, v] + self.radius)
        idx = np.where(inside, idx, -1)
        return idx[0] if single else idx

    @property
    def interior_mask(self) -> np.ndarray:
        return np.max(np.abs(self.sites), axis=1) <= self.interior_radius

    def __eq__(self, other):
        return (
            isinstance(other, LatticeBox)
            and self.dimension == other.dimension
            and self.radius == other.radius
            and self.interior_radius == other.interior_radius
        )

    def __hash__(self):
        return hash((self.dimension, self.radius, self.interior_radius))

    def __repr__(self):
        return (
            f"LatticeBox(dimension={self.dimension}, radius={self.radius}, "
            f"interior_radius={self.interior_radius})"
        )

    # -- pairwise geometry -------------------------------------------------

    @functools.cached_property
    def offset_len(self) -> np.ndarray:
        """|k|_inf per flat offset id (offsets range over [-2N, 2N]^d)."""
        return self._build_pair_tables()

    def offset_vector(self, flat_id: int) -> tuple[int, ...]:
        """Decode a flat offset id, the C-order index of k + 2N in [0, 4N]^d, into k."""
        k = np.unravel_index(flat_id, (4 * self.radius + 1,) * self.dimension)
        return tuple(int(c) - 2 * self.radius for c in k)

    def all_offsets(self, max_offset: int | None = None):
        """All nonzero offsets with |k|_inf <= max_offset (default 2N)."""
        m = 2 * self.radius if max_offset is None else int(max_offset)
        rng = range(-m, m + 1)
        for k in itertools.product(rng, repeat=self.dimension):
            if any(k):
                yield k

    def _build_pair_tables(self) -> np.ndarray:
        """|k|_inf per flat offset id, the one pair table the box builds."""
        axes = [np.arange(-2 * self.radius, 2 * self.radius + 1, dtype=np.int64)]
        mesh = np.meshgrid(*(axes * self.dimension), indexing="ij")
        lens = np.max(np.abs(np.stack([m.ravel() for m in mesh])), axis=0)
        lens.flags.writeable = False
        return lens

    def offset_reduce(self, a, ufunc, fill) -> np.ndarray:
        """Fold the n x n array ``a`` onto the flat offset ids: id k gets
        ``ufunc`` over ``fill`` and every ``a[i, j]`` with i - j = k.

        One axis pair (i_v, j_v) folds at a time.  Blocks of b rows, their
        columns reversed and padded with ``fill`` to width m + b, read back at
        width m + b - 1 put each offset i_v - j_v in one column.  b is a
        sixteenth of the rows, or more while the scratch stays under 16 KiB,
        so the scratch is about a fifteenth the size of a large ``a``."""
        d, m = self.dimension, self._side
        x = np.asarray(a).reshape((m,) * (2 * d))
        for pairs in range(d, 0, -1):  # axes: i_v.., j_v.., then the offsets
            x = x.transpose(0, pairs, *range(1, pairs), *range(pairs + 1, x.ndim))
            rest = x.shape[2:]
            b = min(m, max(-(-m // 16), 2048 // ((m + 1) * math.prod(rest))))
            out = np.full((2 * m - 1,) + rest, fill, dtype=x.dtype)
            pad = np.full((b, m + b) + rest, fill, dtype=x.dtype)
            skew = pad.reshape((-1,) + rest)[:b * (m + b - 1)].reshape((b, -1) + rest)
            for r in range(0, m, b):  # a short last block reads only its own rows
                rows = min(b, m - r)
                pad[:rows, :m] = x[r:r + rows, ::-1]
                seg = out[r:r + m + b - 1]
                ufunc(seg, ufunc.reduce(skew[:rows, :len(seg)]), out=seg)
            x = out.transpose(*range(1, out.ndim), 0)
        return x.ravel()

    def offset_spread(self, slots: np.ndarray) -> np.ndarray:
        """A new n x n array holding ``slots[k]`` at every pair whose offset
        has flat id k.  Read as a (2m - 1)^d table, ``slots`` has pair (i, j)
        at ``i_v - j_v + m - 1`` on each axis, so one strided view, each
        i_v's stride and its negation for j_v, is the array; no index forms."""
        d, m = self.dimension, self._side
        slots = np.ascontiguousarray(slots)
        if slots.shape != self.offset_len.shape:
            raise ValueError(f"slots must have shape {self.offset_len.shape}, got {slots.shape}")
        strides = [slots.itemsize * (2 * m - 1) ** (d - 1 - v) for v in range(d)]
        view = np.ndarray((m,) * (2 * d), slots.dtype, slots, (m - 1) * sum(strides),
                          (*strides, *(-t for t in strides)))
        out = np.empty((self.n_sites, self.n_sites), slots.dtype)
        out.reshape(view.shape)[...] = view
        return out

    def band_slots(self, lo: float, hi: float) -> np.ndarray:
        """``lo < |k|_inf <= hi`` per flat offset slot, a new boolean array:
        the one band predicate, which every band of the package reads."""
        lens = self.offset_len
        return (lens > lo) & (lens <= hi)

    def band_mask(self, lo: float, hi: float) -> np.ndarray:
        """The band ``lo < |i - j|_inf <= hi`` as a new boolean n x n array,
        the spread of ``band_slots``; ``band_mask(-1, theta)`` keeps
        ``|i - j|_inf <= theta``."""
        return self.offset_spread(self.band_slots(lo, hi))
