"""Leaf-block payloads of the hierarchical operators.

There are two block kinds.  An admissible (well-separated) index-box pair is
compressed from Chebyshev interpolation of the kernel into a Tucker block:
per-dimension factor matrices around an order-2d core.  The conventional
low-rank block of the baseline is the same Tucker block with each side's
factors multiplied out into one Kronecker basis, i.e. an order-2 Tucker
block u @ g @ v.T, unless those factors are identities.  Inadmissible pairs
are stored densely.  All blocks carry the quadrature weight h^d of the
discretization, so materializing any block reproduces the corresponding
submatrix of the system matrix.

On a uniform grid a box's interpolation factor depends only on the grid, the
box side and the rank: it is computed once in box-relative coordinates and
every block on boxes of that side holds the same read-only factor objects,
whatever the kernel.  Cores are stored first index fastest, so that
``core_matrix`` is a view.

Every block kind answers ``materialize()``, ``scalars()`` (the stored
``(dense, factor, core)`` counts) and ``core_matrix``, and has
``u_factors``/``v_factors`` (empty for a dense block); no other module knows
the kinds.

The operators apply blocks a whole tree level at a time.  :func:`project`
and :func:`expand` are the one level step: they split a grid-ordered array
into boxes and multiply each dimension by a small matrix, between the array
and a coefficient grid (axes (box, coefficient) per dimension).  From the
grid the matrices are the box factors.  The factors of consecutive box sides
are nested, so a parent level's coefficients come from its children's
coefficient grid the same way, through the per-dimension :func:`transfer`
matrices.  Between them, a block acts on box coefficients through its
``core_matrix`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import tensor
from .chebyshev import cheb_points, core_tensor, factor_matrix
from .grids import IndexBox, UniformGrid, domain_of
from .kernels import (
    KernelSpec,
    QuadratureConfig,
    pairwise,
    pairwise_self,
    self_entries,
)


@dataclass
class TuckerBlock:
    """Tucker representation of one admissible block: a core with one axis
    per factor and orthonormal factors for the target (u) and source (v)
    sides; one factor per dimension (order-2d core), or one per side
    (order-2 core) for the baseline's low-rank block.

    A factor entry of ``None`` stands for an identity: when a box side is no
    wider than the rank the factor carries no compression and is absorbed
    into the core at build time instead of being stored.
    """

    core: np.ndarray
    u_factors: list
    v_factors: list

    def _side(self, factors, mode_offset):
        return tuple(
            f.shape[0] if f is not None else self.core.shape[mode_offset + dim]
            for dim, f in enumerate(factors)
        )

    @property
    def row_sizes(self) -> tuple[int, ...]:
        return self._side(self.u_factors, 0)

    @property
    def col_sizes(self) -> tuple[int, ...]:
        return self._side(self.v_factors, len(self.u_factors))

    @property
    def shape(self) -> tuple[int, int]:
        return int(np.prod(self.row_sizes)), int(np.prod(self.col_sizes))

    @property
    def core_matrix(self) -> np.ndarray:
        """The core as a (target, source) coefficient matrix, modes first
        index fastest on both sides; a view of the cores the builders store."""
        rows = math.prod(self.core.shape[: len(self.u_factors)])
        return self.core.reshape((rows, -1), order="F")

    def materialize(self) -> np.ndarray:
        full = _mode_products(self.core, self.u_factors + self.v_factors)
        return full.reshape(self.shape, order="F")

    def scalars(self) -> tuple[int, int, int]:
        factors = sum(
            f.size for f in self.u_factors + self.v_factors if f is not None
        )
        return 0, factors, self.core.size


@dataclass
class DenseBlock:
    """A kernel submatrix; its box coefficients are the grid values."""

    matrix: np.ndarray

    u_factors = v_factors = ()

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def core_matrix(self) -> np.ndarray:
        return self.matrix

    def materialize(self) -> np.ndarray:
        return self.matrix

    def scalars(self) -> tuple[int, int, int]:
        return self.matrix.size, 0, 0


def _mode_products(t: np.ndarray, factors) -> np.ndarray:
    """Multiply axis i of `t` by factors[i] in turn; a ``None`` factor is an
    identity.  The readable, validating form is :func:`tensor.multi_mode_apply`."""
    for axis, f in enumerate(factors):
        if f is not None:
            t = np.moveaxis(np.tensordot(f, t, axes=([1], [axis])), 0, axis)
    return t


def _orthonormalized(raw: np.ndarray):
    """(q, r) with orthonormal q and q @ r == raw; a square or wide factor
    (a box no wider than the rank) carries no compression, so it stays whole
    in r and q is an implicit identity."""
    if raw.shape[0] <= raw.shape[1]:
        return None, raw
    fac = tensor.qr(raw)
    return fac.q, fac.r


def _read_only(a):
    if a is not None:
        a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _box_factor(grid: UniformGrid, side: int, rank: int):
    """Orthonormalized interpolation factor ``(q, r)`` of one dimension of
    every box of `side` cells: by translation invariance of the nodes, that
    of the box [0, side) in box-relative coordinates.  Computed once per
    (grid, side, rank) and returned read-only."""
    raw = factor_matrix(grid.coords1d(0, side), cheb_points(0.0, side * grid.h, rank))
    return tuple(map(_read_only, _orthonormalized(raw)))


def _explicit_factor(grid: UniformGrid, side: int, rank: int) -> np.ndarray:
    """The orthonormal factor of :func:`_box_factor` with an implicit
    identity spelled out."""
    q = _box_factor(grid, side, rank)[0]
    return np.eye(side) if q is None else q


@lru_cache(maxsize=None)
def transfer(grid: UniformGrid, side: int, rank: int) -> np.ndarray:
    """Per-dimension transfer from boxes of `side` to their parents, boxes of
    ``2 * side``: the ``(2 r_child, r_parent)`` matrix whose row blocks E_0
    and E_1 give the parent factor on its lower and upper half as the child
    factor times E_c.  This is exact, as a parent factor column restricted to
    a child is a polynomial of degree below the rank, which the child factor
    spans (or the child factor is an identity).  Computed once per (grid,
    side, rank) and returned read-only."""
    child, parent = (_explicit_factor(grid, s, rank) for s in (side, 2 * side))
    return _read_only(np.vstack([child.T @ parent[:side], child.T @ parent[side:]]))


@lru_cache(maxsize=32)
def _kron_basis(grid: UniformGrid, sizes: tuple[int, ...], rank: int) -> np.ndarray:
    """The factors of a box with the given sizes multiplied out into one
    orthonormal basis; computed once and returned read-only.  The cache is
    bounded because a basis grows with the box (32 MB for a 256^2 box at
    rank 8) and would otherwise outlive every operator that used it."""
    factors = [_explicit_factor(grid, side, rank) for side in sizes]
    # Kronecker order: last dimension outermost, matching the
    # first-index-fastest linearization
    return _read_only(reduce(np.kron, reversed(factors)))


def build_tlr(
    k: KernelSpec,
    grid: UniformGrid,
    tau: IndexBox,
    sigma: IndexBox,
    rank: int,
    h: float,
) -> TuckerBlock:
    """Interpolate the kernel over the box pair, orthogonalize every factor by
    thin QR, and fold h^d together with the triangular factors into the core.
    The factors are the shared ones of :func:`_box_factor`; the core is
    stored first index fastest.
    """
    dom_tau = domain_of(grid, tau)
    dom_sigma = domain_of(grid, sigma)
    if dom_tau.overlap_volume(dom_sigma) > 0.0:
        raise ValueError("interpolation blocks require disjoint domains")
    grids_tau = [cheb_points(lo, hi, rank) for lo, hi in dom_tau.intervals]
    grids_sigma = [cheb_points(lo, hi, rank) for lo, hi in dom_sigma.intervals]
    u = [_box_factor(grid, side, rank) for side in tau.sizes]
    v = [_box_factor(grid, side, rank) for side in sigma.sizes]
    core = h**grid.d * core_tensor(k, grids_tau, grids_sigma)
    core = _mode_products(core, [r for _, r in u + v])
    return TuckerBlock(
        core=np.asfortranarray(core),
        u_factors=[q for q, _ in u],
        v_factors=[q for q, _ in v],
    )


def build_lowrank(
    k: KernelSpec,
    grid: UniformGrid,
    tau: IndexBox,
    sigma: IndexBox,
    rank: int,
    h: float,
) -> TuckerBlock:
    """The :func:`build_tlr` block with each side's factors multiplied out
    into one orthonormal basis of rank rank^d: an order-2 Tucker block.  On
    boxes no wider than the rank every factor is an identity, and the
    :func:`build_tlr` block is returned as it is."""
    block = build_tlr(k, grid, tau, sigma, rank, h)
    if all(f is None for f in block.u_factors + block.v_factors):
        return block
    u, v = _kron_basis(grid, tau.sizes, rank), _kron_basis(grid, sigma.sizes, rank)
    return TuckerBlock(
        core=block.core.reshape(u.shape[1], v.shape[1], order="F"),
        u_factors=[u],
        v_factors=[v],
    )


def build_dense(
    k: KernelSpec,
    grid: UniformGrid,
    tau: IndexBox,
    sigma: IndexBox,
    h: float,
    cfg: QuadratureConfig,
) -> DenseBlock:
    """Dense kernel submatrix K_ij h^d over the box pair.

    The coefficient a(x) is not part of the block: the hierarchical
    operators hold it as their diagonal, so dense payloads depend on the
    kernel alone.
    """
    if tau != sigma:
        overlaps = all(
            max(lo1, lo2) < min(hi1, hi2)
            for (lo1, hi1), (lo2, hi2) in zip(tau.ranges, sigma.ranges)
        )
        if overlaps:
            raise ValueError("dense blocks require equal or disjoint index boxes")
    xpts = grid.points(tau)
    if tau == sigma:
        idx = np.arange(len(xpts))
        diag = self_entries(k, xpts, h, cfg)
        mat = pairwise_self(k, xpts, idx, diag) * h**grid.d
    else:
        mat = pairwise(k, xpts, grid.points(sigma)) * h**grid.d
    return DenseBlock(matrix=mat)


def tlr_apply(block: TuckerBlock, u_segment: np.ndarray) -> np.ndarray:
    """Apply a Tucker block to a source-side vector segment: reshape it to a
    tensor, contract through the transposed v factors, the core, and the u
    factors, and flatten back."""
    u_segment = np.asarray(u_segment, dtype=np.float64)
    cols = block.col_sizes
    if u_segment.shape != (int(np.prod(cols)),):
        raise ValueError("segment length does not match the block")
    w = _mode_products(
        u_segment.reshape(cols, order="F"),
        [f.T if f is not None else None for f in block.v_factors],
    )
    # the core's last d (source) axes against the axes of w
    w = np.tensordot(block.core, w, axes=len(cols))
    return _mode_products(w, block.u_factors).reshape(-1, order="F")


def _along_dims(t: np.ndarray, mats) -> np.ndarray:
    """Multiply the in-box axis of every dimension of `t` by its matrix.
    `t` is a grid-ordered array split into boxes,
    axes (box, in-box) per dimension, last dimension first, so that the first
    dimension's in-box axis is the last axis: that one is a single GEMM, the
    others are batched matmuls on contiguous reshapes, with no transposes."""
    shape = list(t.shape)
    d = len(mats)
    for dim, m in enumerate(mats):
        axis = 2 * (d - dim) - 1
        pre, post = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
        if post == 1:
            t = t.reshape(pre, shape[axis]) @ m.T
        else:
            t = m @ t.reshape(pre, shape[axis], post)
        shape[axis] = m.shape[0]
    return t.reshape(shape)


def _box_major(d: int) -> tuple[int, ...]:
    """Axis order taking (box, in-box) pairs, last dimension first, to all
    box axes then all in-box axes (both last dimension first), so that boxes
    and their entries each ravel first index fastest."""
    return tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))


def _root(m: int, d: int) -> int:
    """The integer d-th root of m."""
    return round(m ** (1.0 / d))


def to_boxes(t: np.ndarray) -> np.ndarray:
    """A coefficient grid as a box-major ``(boxes, r)`` array: one row per
    box, first index fastest, holding the box's coefficients first index
    fastest."""
    boxes = math.prod(t.shape[0::2])
    return t.transpose(_box_major(t.ndim // 2)).reshape(boxes, -1)


def from_boxes(c: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`to_boxes`, as a view."""
    shape = (_root(c.shape[0], d),) * d + (_root(c.shape[1], d),) * d
    # the inverse of _box_major: each box axis followed by its in-box axis
    return c.reshape(shape).transpose([a for i in range(d) for a in (i, d + i)])


def project(x: np.ndarray, d: int, boxes: int, maps) -> np.ndarray:
    """Coefficients of every box of a level: the grid-ordered array `x` (the
    flat grid vector, first index fastest, or the coefficient grid of the
    level below) split into `boxes` boxes per dimension and each box taken
    through the transposed maps, as a coefficient grid, i.e. axes (box,
    coefficient) per dimension, last dimension first.  `maps` holds one
    matrix per dimension (a box factor from the grid, or a :func:`transfer`
    from the two children of each box), one Kronecker basis of the whole
    box, or nothing; without maps the coefficients are the entries of each
    box, and a view of `x`."""
    t = x.reshape((boxes, _root(x.size, d) // boxes) * d)
    if len(maps) == 1:
        return from_boxes(to_boxes(t) @ maps[0], d)
    return _along_dims(t, [m.T for m in maps]) if maps else t


def expand(t: np.ndarray, maps) -> np.ndarray:
    """Adjoint of :func:`project`: a coefficient grid through the maps, back
    to axes (box, in-box) per dimension, whose ravel is the array that was
    projected."""
    if len(maps) == 1:
        return from_boxes(to_boxes(t) @ maps[0].T, t.ndim // 2)
    return _along_dims(t, maps) if maps else t


def lowrank_apply(block: TuckerBlock, u_segment: np.ndarray) -> np.ndarray:
    """Apply a :func:`build_lowrank` block; it is a Tucker block."""
    return tlr_apply(block, u_segment)


def materialize(block) -> np.ndarray:
    """Full matrix represented by a block (for tests and small oracles)."""
    return block.materialize()


def storage_count(block) -> int:
    """Number of 64-bit scalars the block stores."""
    return sum(block.scalars())
