"""Finite lattice boxes.

A box is the truncation ``{i in Z^d : |i|_inf <= N}`` together with an
interior window ``|i|_inf <= M`` used for measurements that must not be
polluted by the truncation boundary.  Sites are enumerated once, in
lexicographic order, and that enumeration is the row/column order of every
operator living on the box.

The box also owns the pairwise geometry caches (offset ids, sup-distances,
offset weights) that make diagonal-wise norms cheap for dense operators.
Smoothing masks are formed per call from the sup-distances: a run reads each
one in a step or two, and a cached n x n mask per band radius would outlive
its readers.

A box whose dense complex n x n operator cannot be one numpy array, or
would exceed the machine's physical memory, is refused before any table
forms.
"""

from __future__ import annotations

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


# no box whose single dense complex operator, 16 n^2 bytes, exceeds this is built
PHYSICAL_MEMORY = _physical_memory()


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
            if 16 * 3 ** (2 * dimension) > PHYSICAL_MEMORY:
                raise ValueError("dimension is too large: even at radius 1 the box's "
                                 "dense operator exceeds the physical memory")
            if 16 * (2 * radius + 1) ** (2 * dimension) > PHYSICAL_MEMORY:
                raise ValueError(f"radius is too large for dimension {dimension}: the "
                                 "box's dense operator exceeds the physical memory")
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

        # lazily built pairwise caches
        self._pair_dist = None
        self._pair_offset_flat = None
        self._offset_len = None
        self._offset_weight = None

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

    @property
    def pair_dist(self) -> np.ndarray:
        """|i - j|_inf for every (row, column) pair, int32, shape (n, n)."""
        if self._pair_dist is None:
            self._build_pair_tables()
        return self._pair_dist

    @property
    def pair_offset_flat(self) -> np.ndarray:
        """Flat id of the offset i - j for every pair, int64, shape (n, n)."""
        if self._pair_offset_flat is None:
            self._build_pair_tables()
        return self._pair_offset_flat

    @property
    def n_offset_slots(self) -> int:
        return (4 * self.radius + 1) ** self.dimension

    @property
    def offset_len(self) -> np.ndarray:
        """|k|_inf per flat offset id (offsets range over [-2N, 2N]^d)."""
        if self._offset_len is None:
            self._build_pair_tables()
        return self._offset_len

    @property
    def offset_weight(self) -> np.ndarray:
        """<k> = max(1, |k|) per flat offset id, float (cached)."""
        if self._offset_weight is None:
            weight = np.maximum(self.offset_len, 1).astype(float)
            weight.flags.writeable = False
            self._offset_weight = weight
        return self._offset_weight

    def offset_vector(self, flat_id: int) -> tuple[int, ...]:
        """Decode a flat offset id back into the lattice vector k."""
        span = 4 * self.radius + 1
        comps = []
        for _ in range(self.dimension):
            comps.append(flat_id % span - 2 * self.radius)
            flat_id //= span
        return tuple(reversed(comps))

    def offset_flat_id(self, k) -> int:
        k = np.asarray(k, dtype=np.int64).reshape(self.dimension)
        span = 4 * self.radius + 1
        flat = 0
        for v in range(self.dimension):
            flat = flat * span + (int(k[v]) + 2 * self.radius)
        return int(flat)

    def all_offsets(self, max_offset: int | None = None):
        """All nonzero offsets with |k|_inf <= max_offset (default 2N)."""
        m = 2 * self.radius if max_offset is None else int(max_offset)
        rng = range(-m, m + 1)
        for k in itertools.product(rng, repeat=self.dimension):
            if any(k):
                yield k

    def _build_pair_tables(self):
        span = 4 * self.radius + 1
        dist = np.zeros((self.n_sites, self.n_sites), dtype=np.int32)
        flat = np.zeros((self.n_sites, self.n_sites), dtype=np.int64)
        for v in range(self.dimension):
            dv = self.sites[:, v][:, None] - self.sites[:, v][None, :]
            np.maximum(dist, np.abs(dv).astype(np.int32), out=dist)
            flat = flat * span + (dv + 2 * self.radius)
        self._pair_dist = dist
        self._pair_offset_flat = flat
        self._pair_dist.flags.writeable = False
        self._pair_offset_flat.flags.writeable = False

        axes = [np.arange(-2 * self.radius, 2 * self.radius + 1, dtype=np.int64)]
        mesh = np.meshgrid(*(axes * self.dimension), indexing="ij")
        self._offset_len = np.max(np.abs(np.stack([m.ravel() for m in mesh])), axis=0)
        self._offset_len.flags.writeable = False

    def smooth_mask(self, theta: float) -> np.ndarray:
        """Boolean mask keeping the band |i - j|_inf <= theta (inclusive),
        a new array per call."""
        return self.pair_dist <= float(theta)
