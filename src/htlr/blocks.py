"""Leaf-block payloads of the hierarchical operators.

There are two block kinds.  An admissible (well-separated) index-box pair is
compressed from Chebyshev interpolation of the kernel into a Tucker block:
per-dimension factor matrices around an order-2d core.  The conventional
low-rank block of the baseline is the same Tucker block with each side's
factors multiplied out into one Kronecker basis, i.e. an order-2 Tucker
block u @ g @ v.T.  Inadmissible pairs are stored densely.  All blocks carry
the quadrature weight h^d of the discretization, so materializing any block
reproduces the corresponding submatrix of the system matrix.

On a uniform grid a box's interpolation factor depends only on the grid, the
box side and the rank: it is computed once in box-relative coordinates and
every block on boxes of that side holds the same read-only factor objects,
whatever the kernel.  Cores are stored first index fastest, so that
``core_matrix`` is a view.

Every block kind answers ``apply(seg)``, ``materialize()``, ``scalars()``
(the stored ``(dense, factor, core)`` counts) and ``core_matrix``, and has
``u_factors``/``v_factors`` (empty for a dense block); no other module knows
the kinds.  ``apply`` takes one F-raveled source segment, or a ``(cols, m)``
matrix of m such segments as columns.  :func:`project` and :func:`expand`
apply one side's factors to every box of a tree level at once; between
them, a block acts on box coefficients through its ``core_matrix`` alone.
"""

from __future__ import annotations

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

    A factor entry of ``None`` stands for an identity: when a box side
    equals the rank the (square, orthonormal) factor carries no compression
    and is absorbed into the core at build time instead of being stored.
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
        rows = int(np.prod(self.core.shape[: len(self.u_factors)]))
        return self.core.reshape((rows, -1), order="F")

    def apply(self, seg: np.ndarray) -> np.ndarray:
        return tlr_apply(self, seg)

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

    def apply(self, seg: np.ndarray) -> np.ndarray:
        return self.matrix @ seg

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
    """(q, r) with orthonormal q and q @ r == raw; a square factor carries no
    compression, so it stays whole in r and q is an implicit identity."""
    if raw.shape[0] == raw.shape[1]:
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


@lru_cache(maxsize=32)
def _kron_basis(grid: UniformGrid, sizes: tuple[int, ...], rank: int) -> np.ndarray:
    """The factors of a box with the given sizes multiplied out into one
    orthonormal basis; computed once and returned read-only.  The cache is
    bounded because a basis grows with the box (32 MB for a 256^2 box at
    rank 8) and would otherwise outlive every operator that used it."""
    eye = np.eye(rank)
    factors = [_box_factor(grid, side, rank)[0] for side in sizes]
    # Kronecker order: last dimension outermost, matching the
    # first-index-fastest linearization
    return _read_only(reduce(np.kron, reversed([eye if f is None else f for f in factors])))


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
    into one orthonormal basis of rank rank^d: an order-2 Tucker block."""
    block = build_tlr(k, grid, tau, sigma, rank, h)
    r = rank**grid.d
    return TuckerBlock(
        core=block.core.reshape(r, r, order="F"),
        u_factors=[_kron_basis(grid, tau.sizes, rank)],
        v_factors=[_kron_basis(grid, sigma.sizes, rank)],
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
    """Apply a Tucker block to a source-side vector segment, or to each
    column of a ``(cols, m)`` matrix of segments: reshape to a tensor (with a
    trailing batch axis), contract through the transposed v factors, the
    core, and the u factors, and flatten back."""
    u_segment = np.asarray(u_segment, dtype=np.float64)
    cols = block.col_sizes
    if u_segment.ndim not in (1, 2) or u_segment.shape[0] != int(np.prod(cols)):
        raise ValueError("segment length does not match the block")
    batch = u_segment.shape[1:]
    w = _mode_products(
        u_segment.reshape(cols + batch, order="F"),
        [f.T if f is not None else None for f in block.v_factors],
    )
    # the core's last d (source) axes against the first d axes of w
    w = np.tensordot(block.core, w, axes=len(cols))
    return _mode_products(w, block.u_factors).reshape((-1,) + batch, order="F")


def _along_dims(t: np.ndarray, mats) -> np.ndarray:
    """Multiply the in-box axis of every dimension of `t` by its matrix
    (``None`` an identity).  `t` is a grid-ordered array split into boxes,
    axes (box, in-box) per dimension, last dimension first, so that the first
    dimension's in-box axis is the last axis: that one is a single GEMM, the
    others are batched matmuls on contiguous reshapes, with no transposes."""
    shape = list(t.shape)
    d = len(mats)
    for dim, m in enumerate(mats):
        if m is None:
            continue
        axis = 2 * (d - dim) - 1
        pre, post = int(np.prod(shape[:axis])), int(np.prod(shape[axis + 1:]))
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


def project(x: np.ndarray, grid: UniformGrid, side: int, factors) -> np.ndarray:
    """Source coefficients of every box of `side` on the grid: the flat grid
    vector `x` (first index fastest) through the transposed factors, as a
    box-major ``(boxes, r)`` array.  `factors` holds one factor per
    dimension (``None`` an identity), one Kronecker basis of the whole box,
    or nothing; without factors the coefficients are the grid values."""
    d, boxes = grid.d, grid.n // side
    t = x.reshape((boxes, side) * d)
    if len(factors) == d:
        t = _along_dims(t, [None if f is None else f.T for f in factors])
    c = t.transpose(_box_major(d)).reshape(boxes**d, -1)
    return c @ factors[0] if len(factors) == 1 else c


def expand(g: np.ndarray, grid: UniformGrid, side: int, factors) -> np.ndarray:
    """Inverse of :func:`project`: box-major target coefficients through the
    factors, back to one flat grid vector."""
    d, boxes = grid.d, grid.n // side
    if len(factors) == 1:
        g, factors = g @ factors[0].T, ()
    ranks = [side if f is None else f.shape[1] for f in reversed(factors)] or [side] * d
    t = g.reshape((boxes,) * d + tuple(ranks)).transpose(np.argsort(_box_major(d)))
    return _along_dims(t, factors).reshape(-1)


def lowrank_apply(block: TuckerBlock, u_segment: np.ndarray) -> np.ndarray:
    """Apply a :func:`build_lowrank` block; it is a Tucker block."""
    return tlr_apply(block, u_segment)


def materialize(block) -> np.ndarray:
    """Full matrix represented by a block (for tests and small oracles)."""
    return block.materialize()


def storage_count(block) -> int:
    """Number of 64-bit scalars the block stores."""
    return sum(block.scalars())
