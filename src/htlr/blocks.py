"""Leaf-block payloads of the hierarchical operators.

There are two block kinds.  An admissible (well-separated) index-box pair is
compressed from Chebyshev interpolation of the kernel into a Tucker block:
per-dimension factor matrices around an order-2d core.  The conventional
low-rank block of the baseline is the same Tucker block with each side's
factors multiplied out into one Kronecker basis, i.e. an order-2 Tucker
block u @ g @ v.T.  Every factor is an explicit orthonormal matrix, as
tall as the box side and as wide as the rank, so a box narrower than the
rank is rejected.  Inadmissible pairs are stored densely, and so are
admissible pairs on boxes no wider than the rank, whose factors would
compress nothing; a translation-invariant kernel's dense block is built
from one kernel value per index offset.  All blocks carry the quadrature
weight h^d of the discretization, so materializing any block reproduces
the corresponding submatrix of the system matrix.

On a uniform grid a box's interpolation factor depends only on the grid, the
box side and the rank: it is computed once in box-relative coordinates and
every block on boxes of that side holds the same read-only factor objects,
whatever the kernel.  The Tucker blocks of a tree level are built together,
their kernel values in one call per chunk, and :func:`build_tlr` is the
one-pair case.  Cores are stored first index fastest, so that
``core_matrix`` is a view.  Cores and dense matrices are read-only, as the
operators share them among many leaves.

For a symmetric kernel the block of a box pair (sigma, tau) is the
transpose of the block of (tau, sigma): :func:`_mirrored` gives it as a
transposed view that holds no array of its own, and :func:`build_tlr`
builds the pair whose offset is canonical and returns its mirror as that
view.

Every block kind answers ``materialize()``, ``scalars()`` (the stored
``(dense, factor, core)`` counts), ``arrays()`` (the arrays it holds, views
included) and ``core_matrix``; no other module knows the kinds.  Only a
Tucker block has factors; the operators read none of them and apply a
baseline block, whose basis is the box factors' Kronecker product, through
the box factors too.

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
import weakref
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels, tensor
from .chebyshev import _cheb_nodes, _core_tensors, cheb_points, factor_matrix
from .grids import IndexBox, UniformGrid, domain_of
from .kernels import (
    KernelSpec,
    QuadratureConfig,
    _offset_table,
    pairwise,
    pairwise_self,
    self_entries,
)


@dataclass
class TuckerBlock:
    """Tucker representation of one admissible block: a core with one axis
    per factor and orthonormal factors for the target (u) and source (v)
    sides; one factor per dimension (order-2d core), or one per side
    (order-2 core) for the baseline's low-rank block.  Each factor is an
    explicit matrix with orthonormal columns, as tall as the box side.
    """

    core: np.ndarray
    u_factors: list
    v_factors: list

    @property
    def row_sizes(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.u_factors)

    @property
    def col_sizes(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.v_factors)

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
        factors = _modes(self.u_factors + self.v_factors)
        return tensor.multi_mode_apply(self.core, factors).reshape(self.shape, order="F")

    def scalars(self) -> tuple[int, int, int]:
        return 0, sum(f.size for f in self.u_factors + self.v_factors), self.core.size

    def arrays(self) -> list:
        return [self.core, *self.u_factors, *self.v_factors]


@dataclass
class DenseBlock:
    """A kernel submatrix; its box coefficients are the grid values."""

    matrix: np.ndarray

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

    def arrays(self) -> list:
        return [self.matrix]


def _mirrored(block):
    """The block of the mirrored box pair (sigma, tau) of a symmetric
    kernel, holding no array of its own: a dense block's transposed matrix,
    or a Tucker block's core with its target and source modes swapped, and
    its factors swapped.  Its ``core_matrix`` is the transposed view of
    `block`'s."""
    if isinstance(block, DenseBlock):
        return DenseBlock(block.matrix.T)
    rows, cols = len(block.u_factors), len(block.v_factors)
    axes = tuple(range(rows, rows + cols)) + tuple(range(rows))
    return TuckerBlock(core=block.core.transpose(axes), u_factors=list(block.v_factors),
                       v_factors=list(block.u_factors))


def _is_mirror(offsets: np.ndarray) -> np.ndarray:
    """Whether each source-minus-target offset, a row of `offsets`, is
    lexicographically negative: the first of its nonzero coordinates is.
    Such a pair of a symmetric kernel is built as the mirror of the pair at
    the opposite offset; the zero offset is its own mirror."""
    first = (offsets != 0).argmax(axis=1)
    return offsets[np.arange(len(offsets)), first] < 0


def _modes(factors) -> list:
    """`factors` paired with their 1-based modes, for
    :func:`tensor.multi_mode_apply`."""
    return [(f, mode) for mode, f in enumerate(factors, 1)]


def _read_only(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _box_factor(grid: UniformGrid, side: int, rank: int):
    """Thin QR ``(q, r)`` of the interpolation factor of one dimension of
    every box of `side` cells: by translation invariance of the nodes, that
    of the box [0, side) in box-relative coordinates.  A box narrower than
    the rank has no orthonormal factor of that rank and is rejected.
    Computed once per (grid, side, rank) and returned read-only."""
    if side < rank:
        raise ValueError(f"box side {side} is narrower than the rank {rank}")
    raw = factor_matrix(grid.coords1d(0, side), cheb_points(0.0, side * grid.h, rank))
    fac = tensor.qr(raw)
    return _read_only(fac.q), _read_only(fac.r)


@lru_cache(maxsize=None)
def transfer(grid: UniformGrid, side: int, rank: int) -> np.ndarray:
    """Per-dimension transfer from boxes of `side` to their parents, boxes of
    ``2 * side``: the ``(2 r_child, r_parent)`` matrix whose row blocks E_0
    and E_1 give the parent factor on its lower and upper half as the child
    factor times E_c.  This is exact, as a parent factor column restricted to
    a child is a polynomial of degree below the rank, which the child factor
    spans.  Computed once per (grid, side, rank) and returned read-only."""
    child, parent = (_box_factor(grid, s, rank)[0] for s in (side, 2 * side))
    return _read_only(np.vstack([child.T @ parent[:side], child.T @ parent[side:]]))


#: the baseline's Kronecker bases by (grid, box sizes, rank), held weakly: a
#: basis grows with the box (32 MB for a 256^2 box at rank 8), so it is one
#: object while any block holds it and is freed with the last of them
_kron_bases = weakref.WeakValueDictionary()


def _kron_basis(grid: UniformGrid, sizes: tuple[int, ...], rank: int) -> np.ndarray:
    """The factors of a box with the given sizes multiplied out into one
    orthonormal basis; computed once while it is held (:data:`_kron_bases`)
    and returned read-only."""
    basis = _kron_bases.get((grid, sizes, rank))
    if basis is None:
        factors = [_box_factor(grid, side, rank)[0] for side in sizes]
        # Kronecker order: last dimension outermost, matching the
        # first-index-fastest linearization
        basis = _kron_bases[grid, sizes, rank] = _read_only(
            reduce(np.kron, reversed(factors)))
    return basis


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
    The factors are the shared ones of :func:`_box_factor`, so no box side
    may be narrower than the rank; the core is stored first index fastest.
    The one-pair case of :func:`_tucker_blocks`, but for a symmetric
    kernel's pair whose offset is not canonical (:func:`_is_mirror`): that
    is built as its mirror and returned as :func:`_mirrored` of it, as the
    operators hold it, so any pair gets its class's core bit for bit.
    """
    if domain_of(grid, tau).overlap_volume(domain_of(grid, sigma)) > 0.0:
        raise ValueError("interpolation blocks require disjoint domains")
    taus, sigmas = (np.array([box.ranges]) for box in (tau, sigma))
    if k.translation_invariant and _is_mirror(sigmas[:, :, 0] - taus[:, :, 0])[0]:
        return _mirrored(_tucker_blocks(k, grid, sigmas, taus, rank, h)[0])
    return _tucker_blocks(k, grid, taus, sigmas, rank, h)[0]


def _tucker_blocks(k: KernelSpec, grid: UniformGrid, taus: np.ndarray,
                   sigmas: np.ndarray, rank: int, h: float) -> list:
    """The :func:`build_tlr` blocks of many disjoint box pairs, all target
    boxes of one shape and all source boxes of one shape: `taus` and
    `sigmas` hold each box's index ranges, integer arrays (pairs, d, 2).
    The Chebyshev nodes of every box come from one elementwise formula, the
    kernel is evaluated on the node pairs of as many blocks at a time as
    :data:`htlr.kernels.EVAL_CHUNK` evaluations allow, in one call, and h^d
    and the triangular factors are folded in by mode products over all of
    those blocks at once.  The cores are read-only views of one array.
    The pairs are built as given: the operators pass a symmetric kernel's
    canonical pairs only."""
    d, count = grid.d, len(taus)
    u = [_box_factor(grid, int(hi - lo), rank) for lo, hi in taus[0]]
    v = [_box_factor(grid, int(hi - lo), rank) for lo, hi in sigmas[0]]
    # per dimension, cheb_points' nodes between the ends of domain_of's
    # intervals, (pairs, rank)
    x_nodes = [_cheb_nodes(taus[:, i, :1] * grid.h, taus[:, i, 1:] * grid.h, rank)
               for i in range(d)]
    y_nodes = [_cheb_nodes(sigmas[:, i, :1] * grid.h, sigmas[:, i, 1:] * grid.h, rank)
               for i in range(d)]
    r_modes = _modes([r for _, r in u + v])
    cores = np.empty((rank,) * (2 * d) + (count,), order="F")
    step = max(1, kernels.EVAL_CHUNK // rank ** (2 * d))
    for start in range(0, count, step):
        part = slice(start, start + step)
        values = h**d * _core_tensors(k, [x[part] for x in x_nodes],
                                      [y[part] for y in y_nodes])
        cores[..., part] = tensor.multi_mode_apply(values, r_modes)
    _read_only(cores)
    return [TuckerBlock(core=cores[..., c], u_factors=[q for q, _ in u],
                        v_factors=[q for q, _ in v])
            for c in range(count)]


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
    return _lowrank(grid, build_tlr(k, grid, tau, sigma, rank, h))


def _lowrank(grid: UniformGrid, block: TuckerBlock) -> TuckerBlock:
    """A :func:`build_tlr` block as the :func:`build_lowrank` block."""
    rank = block.u_factors[0].shape[1]
    u, v = (_kron_basis(grid, sizes, rank) for sizes in (block.row_sizes, block.col_sizes))
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
    cfg: QuadratureConfig,
) -> DenseBlock:
    """Dense kernel submatrix K_ij h^d over the box pair, h the grid spacing:
    equal boxes, or boxes whose domains overlap in no volume (the test of
    :func:`build_tlr`), both inside the grid.  A self entry is the kernel's
    average over the width-h cell of its point.

    A translation-invariant kernel's block is multilevel Toeplitz: its
    entry (i, j) depends on the index offset j - i alone.  The kernel is
    evaluated once per offset, prod_d (s_tau,d + s_sigma,d - 1) values with
    the self entry at offset 0 (:func:`htlr.kernels._offset_table`), and the
    block is a copy of the table's windows of the target box's shape, one
    per source point, flipped on the target axes.  A custom kernel is
    evaluated on every point pair.

    The coefficient a(x) is not part of the block: the hierarchical
    operators hold it as their diagonal, so dense payloads depend on the
    kernel alone.
    """
    overlap = domain_of(grid, tau).overlap_volume(domain_of(grid, sigma))
    if tau != sigma and overlap > 0.0:
        raise ValueError("dense blocks require equal or disjoint index boxes")
    h = grid.h
    if not k.translation_invariant:
        xpts = grid.points(tau)
        if tau == sigma:
            idx = np.arange(len(xpts))
            mat = pairwise_self(k, xpts, idx, self_entries(k, xpts, h, cfg))
        else:
            mat = pairwise(k, xpts, grid.points(sigma))
        return DenseBlock(matrix=_read_only(mat * h**grid.d))
    # per dimension the source-minus-target offsets j - i, lowest first
    steps = [np.arange(s_lo - t_hi + 1, s_hi - t_lo) * grid.h
             for (t_lo, t_hi), (s_lo, s_hi) in zip(tau.ranges, sigma.ranges)]
    table = _offset_table(k, steps, h, cfg) * h**grid.d
    # last dimension first, so that both boxes' points ravel first index
    # fastest: window w of source point j holds the offsets j - s_tau + 1 + w,
    # so target point i is window entry s_tau - 1 - i
    d, rows = grid.d, tau.sizes[::-1]
    windows = sliding_window_view(table.T, rows)[(...,) + (slice(None, None, -1),) * d]
    block = windows.transpose([*range(d, 2 * d), *range(d)]).copy()
    return DenseBlock(matrix=_read_only(block.reshape(math.prod(rows), -1)))


def tlr_apply(block: TuckerBlock, u_segment: np.ndarray) -> np.ndarray:
    """Apply a Tucker block to a source-side vector segment: reshape it to a
    tensor, contract through the transposed v factors, the core, and the u
    factors, and flatten back."""
    u_segment = np.asarray(u_segment, dtype=np.float64)
    cols = block.col_sizes
    if u_segment.shape != (int(np.prod(cols)),):
        raise ValueError("segment length does not match the block")
    w = tensor.multi_mode_apply(
        u_segment.reshape(cols, order="F"), _modes([f.T for f in block.v_factors])
    )
    # the core's last d (source) axes against the axes of w
    w = np.tensordot(block.core, w, axes=len(cols))
    return tensor.multi_mode_apply(w, _modes(block.u_factors)).reshape(-1, order="F")


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
    from the two children of each box) or nothing; without maps the
    coefficients are the entries of each box, and a view of `x`."""
    t = x.reshape((boxes, _root(x.size, d) // boxes) * d)
    return expand(t, [m.T for m in maps])


def expand(t: np.ndarray, maps) -> np.ndarray:
    """Adjoint of :func:`project`: a coefficient grid through the maps, back
    to axes (box, in-box) per dimension, whose ravel is the array that was
    projected.  The in-box axis of every dimension of `t` is multiplied by
    its map; the axes are last dimension first, so the first dimension's
    in-box axis is the last axis: that one is a single GEMM, the others are
    batched matmuls on contiguous reshapes, with no transposes."""
    shape = list(t.shape)
    d = len(maps)
    for dim, m in enumerate(maps):
        axis = 2 * (d - dim) - 1
        pre, post = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
        if post == 1:
            t = t.reshape(pre, shape[axis]) @ m.T
        else:
            t = m @ t.reshape(pre, shape[axis], post)
        shape[axis] = m.shape[0]
    return t.reshape(shape)


def lowrank_apply(block: TuckerBlock, u_segment: np.ndarray) -> np.ndarray:
    """Apply a :func:`build_lowrank` block; it is a Tucker block."""
    return tlr_apply(block, u_segment)


def materialize(block) -> np.ndarray:
    """Full matrix represented by a block (for tests and small oracles)."""
    return block.materialize()
