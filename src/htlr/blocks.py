"""Leaf-block payloads of the hierarchical operators.

There are two block kinds.  An admissible (well-separated) index-box pair is
compressed from Chebyshev interpolation of the kernel into a Tucker block:
per-dimension factor matrices, the Lagrange bases of each box's Chebyshev
nodes at its grid points, around an order-2d core, the kernel at the node
pairs.  The conventional low-rank block of the baseline is the same Tucker
block with each side's factors multiplied out into one Kronecker basis,
i.e. an order-2 Tucker block u @ g @ v.T.  Every factor is an explicit
matrix, as tall as the box side and as wide as the rank, so a box narrower
than the rank is rejected.  Inadmissible pairs are stored densely, and so are
admissible pairs on boxes no wider than the rank, whose factors would
compress nothing; a translation-invariant kernel's dense block is built
from one kernel value per index offset.  All blocks carry the quadrature
weight h^d of the discretization, so materializing any block reproduces
the corresponding submatrix of the system matrix.

The built-in kernels are radial, so a dense block on two boxes of one even
side is unchanged when both boxes are reflected in a dimension in which
their offset is zero.  In the basis of sums and differences of mirrored
points it is then block diagonal (A. Cantoni and P. Butler, Linear Algebra
Appl. 13, 1976), as optimized Chebyshev FMM codes use the symmetries of
their kernels to shrink their operators (M. Messner et al., 2012).  Such a
:class:`DenseBlock` stores only its 2^k diagonal sectors, built from the
block's windows by sums and differences (:func:`_sectors`); a self block
keeps a 2^d-th of its scalars.  The plain dense block is the case k = 0.

On a uniform grid a box's interpolation factor depends only on the grid, the
box side and the rank: it is computed once in box-relative coordinates and
every block on boxes of that side holds the same read-only factor objects,
whatever the kernel.  The Tucker blocks of a tree level are built together,
their kernel values in one call per chunk, and :func:`build_tlr` is the
one-pair case.  Cores are stored first index fastest, so that
``core_matrix`` is a view.  Cores and dense sectors are read-only, as the
operators share them among many leaves.

For a symmetric kernel the block of a box pair (sigma, tau) is the
transpose of the block of (tau, sigma): :func:`_mirrored` gives it as a
transposed view that holds no array of its own.  Its kernel values at the
node pairs are bitwise the transpose, so :func:`build_tlr` on any pair
gives the core of the mirror of the opposite pair bit for bit.

Every block kind answers ``materialize()``, ``scalars()`` (the stored
``(dense, factor, core)`` counts), ``arrays()`` (the arrays it holds, views
included) and ``product(rows)``, its product with the coefficients of many
source boxes, one box per row; a dense block also answers the steps of that
product, ``fold(rows) @ operand()`` then ``unfold``, so that the operators
can hand the matrix product alone to another thread.  No other module
knows the kinds.  Only a Tucker block has factors; the operators read none
of them and apply a baseline block, whose basis is the box factors'
Kronecker product, through the box factors too.

The operators apply blocks a whole tree level at a time.  :func:`project`
and :func:`expand` are the one level step: they split a grid-ordered array
into boxes and multiply each dimension by a small matrix, between the array
and a coefficient grid (axes (box, coefficient) per dimension).  From the
grid the matrices are the box factors.  The factors of consecutive box sides
are nested, so a parent level's coefficients come from its children's
coefficient grid the same way, through the per-dimension :func:`transfer`
matrices, the parent's Lagrange bases at its children's nodes.  Between
them, a block acts on box coefficients through its ``product`` alone.
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
    per factor and interpolation factors for the target (u) and source (v)
    sides; one factor per dimension (order-2d core), or one per side
    (order-2 core) for the baseline's low-rank block.  Each factor is an
    explicit matrix of Lagrange bases, one column per node, as tall as the
    box side.
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

    def product(self, rows: np.ndarray) -> np.ndarray:
        """The core applied to the coefficients of many source boxes, one
        box per row: one matrix product (:meth:`DenseBlock.product`)."""
        return rows @ self.core_matrix.T

    def materialize(self) -> np.ndarray:
        factors = _modes(self.u_factors + self.v_factors)
        return tensor.multi_mode_apply(self.core, factors).reshape(self.shape, order="F")

    def scalars(self) -> tuple[int, int, int]:
        return 0, sum(f.size for f in self.u_factors + self.v_factors), self.core.size

    def arrays(self) -> list:
        return [self.core, *self.u_factors, *self.v_factors]


@dataclass
class DenseBlock:
    """A kernel submatrix, whose box coefficients are the grid values, stored
    as ``sectors``, an array (2^k, m, m).  In the plain case k = 0 and the
    one sector is the matrix.  A block of a translation-invariant kernel
    whose two boxes are one cube (of ``sides``) at an offset that is zero in
    the k dimensions ``dims`` is unchanged when both boxes are reflected in
    those dimensions, so in the basis of sums and differences of mirrored
    points, per such dimension, it is block diagonal (A. Cantoni and
    P. Butler, Linear Algebra Appl. 13, 1976): 2^k sectors of m = s^d / 2^k
    rows (:func:`_sectors`).  They are stored scaled so that no square root
    enters: the block is ``F.T @ diag(sectors) @ F`` with F the unnormalized
    sums and differences of :func:`_fold`.

    A product with the grid values of many source boxes is ``unfold(fold(rows)
    @ operand())`` (:meth:`product`).  ``folds``, fixed at build, says how a
    sector block takes it: through its sectors, the rows folded into them
    and the result unfolded, or, where the block has fewer columns than the
    product has rows, through the block materialized for the product, which
    is then the cheaper."""

    sectors: np.ndarray
    sides: tuple = ()
    dims: tuple = ()
    folds: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        if not self.dims:
            return self.sectors.shape[1:]
        return (math.prod(self.sides),) * 2

    @property
    def matrix(self) -> np.ndarray:
        """The full block: of a sector block, materialized on each access
        (2 * 2^k - 1 strided copies of the block's size) and never stored."""
        return self.materialize()

    @property
    def width(self) -> int:
        """The columns of :meth:`operand`, which it does not make."""
        return self.sectors.shape[2] if self.folds else self.shape[1]

    def materialize(self) -> np.ndarray:
        if not self.dims:
            return self.sectors[0]
        return _unfolded(self.sectors, self.sides, self.dims)

    def operand(self) -> np.ndarray:
        """The right factor of the product: the transposed sectors of a
        block that folds, else the transposed block."""
        if self.folds:
            return self.sectors.transpose(0, 2, 1)
        return self.materialize().T

    def fold(self, rows: np.ndarray) -> np.ndarray:
        """The left factor of the product from the source rows."""
        return _fold(rows, self.sides, self.dims) if self.folds else rows

    def unfold(self, out: np.ndarray) -> np.ndarray:
        """The product, one target box per row, from ``fold(rows) @
        operand()``."""
        return _unfold(out, self.sides, self.dims) if self.folds else out

    def product(self, rows: np.ndarray) -> np.ndarray:
        """The block applied to the grid values of many source boxes, one
        box per row: ``rows @ matrix.T``."""
        if not self.dims:  # the plain block, without the steps' calls
            return rows @ self.sectors[0].T
        return self.unfold(self.fold(rows) @ self.operand())

    def scalars(self) -> tuple[int, int, int]:
        return self.sectors.size, 0, 0

    def arrays(self) -> list:
        return [self.sectors]


@lru_cache(maxsize=None)
def _parts(sides: tuple, dims: tuple) -> tuple:
    """Indices, into a box's values shaped last dimension first, of the 2^k
    parts that the mirror planes of `dims` cut it into: part c takes the
    upper half, reflected, in the dimensions of the set bits of c (bit i
    for ``dims[i]``) and the lower half in the others, so that entry i of
    every part is one point or one of its mirrors."""
    d, parts = len(sides), []
    for c in range(2 ** len(dims)):
        index = [slice(None)] * d
        for bit, dim in enumerate(dims):
            half = sides[dim] // 2
            index[d - 1 - dim] = slice(None, half - 1, -1) if c >> bit & 1 else slice(None, half)
        parts.append(tuple(index))
    return tuple(parts)


def _part_shape(sides: tuple, dims: tuple) -> tuple:
    """The shape of one part of :func:`_parts`, last dimension first."""
    return tuple(s // 2 if dim in dims else s for dim, s in enumerate(sides))[::-1]


@lru_cache(maxsize=None)
def _signs(parts: int) -> np.ndarray:
    """The Walsh-Hadamard matrix of order `parts`: entry (c, p) is the sign
    (-1)^popcount(c & p) of part c in sector p, the sum over the mirror
    images of a point that is even in the dimensions of the clear bits of p
    and odd in those of the set bits."""
    return _read_only(np.array([[(-1) ** bin(c & p).count("1") for p in range(parts)]
                                for c in range(parts)], dtype=float))


def _fold(rows: np.ndarray, sides: tuple, dims: tuple) -> np.ndarray:
    """``F`` applied to the grid values of boxes of `sides`, one box per row
    (first index fastest): the 2^k parts of :func:`_parts` combined by
    :func:`_signs`, an array (2^k, boxes, m) of each sector's coefficients,
    first index fastest.  One copy and one product."""
    boxes, parts = len(rows), _parts(sides, dims)
    t = rows.reshape((boxes,) + sides[::-1])
    stacked = np.stack([t[(slice(None),) + part] for part in parts])
    return (_signs(len(parts)) @ stacked.reshape(len(parts), -1)).reshape(len(parts), boxes, -1)


def _unfold(t: np.ndarray, sides: tuple, dims: tuple) -> np.ndarray:
    """``F.T``, the adjoint of :func:`_fold`, back to one box per row: the
    sectors combined by :func:`_signs` are the parts."""
    parts, boxes = len(t), t.shape[1]
    values = (_signs(parts) @ t.reshape(parts, -1)).reshape(
        (parts, boxes) + _part_shape(sides, dims))
    out = np.empty((boxes,) + sides[::-1])
    for part, index in zip(values, _parts(sides, dims)):
        out[(slice(None),) + index] = part
    return out.reshape(boxes, -1)


def _sectors(block: np.ndarray, sides: tuple, dims: tuple, boxes: int) -> DenseBlock:
    """A dense block on two boxes of `sides` (its matrix, or its entries on
    axes last dimension first, targets then sources, as
    :func:`_toeplitz_windows` gives them), unchanged when both boxes are
    reflected in each dimension of `dims` (sides even there), as its 2^k
    sectors, which fold its products with the rows of `boxes` source boxes
    when they are no more than the block's columns.  Its rows in part 0 and
    its columns in part c of :func:`_parts` are a window of the block, and
    sector p is the sum of those windows with the signs of :func:`_signs`,
    over 2^k: sums and differences of the block's entries, by one product
    with the 2^k signs and none with the transform, and the division is
    exact.  Only the windows are read.  Returned read-only."""
    parts, points = _parts(sides, dims), math.prod(sides)
    full = block.reshape(sides[::-1] * 2)
    windows = np.stack([full[parts[0] + columns] for columns in parts])
    sectors = _signs(len(parts)) @ windows.reshape(len(parts), -1) / len(parts)
    size = points // len(parts)
    return DenseBlock(_read_only(sectors.reshape(-1, size, size)), tuple(sides), tuple(dims),
                      boxes <= points)


def _unfolded(sectors: np.ndarray, sides: tuple, dims: tuple) -> np.ndarray:
    """The matrix ``F.T @ diag(sectors) @ F`` of :class:`DenseBlock`, the
    inverse of :func:`_sectors`.  Its rows in part 0 and its columns in
    part c of :func:`_parts` are the window that :func:`_sectors` reads for
    part c, the sectors combined by :func:`_signs`; and as the block is
    unchanged when both boxes are reflected, its rows in part a are those
    of part 0 with the columns reflected in the dimensions of a."""
    d, parts = len(sides), _parts(sides, dims)
    windows = (_signs(len(parts)) @ sectors.reshape(len(parts), -1)).reshape(
        (len(parts),) + _part_shape(sides, dims) * 2)
    full = np.empty(sides[::-1] * 2)
    for columns, window in zip(parts, windows):
        full[parts[0] + columns] = window
    lower = full[parts[0]]
    for a, rows in enumerate(parts[1:], 1):
        # the column axes, last dimension first
        reflect = tuple(slice(None, None, -1) if dim in dims and a >> dims.index(dim) & 1
                        else slice(None) for dim in reversed(range(d)))
        full[rows] = lower[(slice(None),) * d + reflect]
    return full.reshape(math.prod(sides), -1)


def _mirrored(block):
    """The block of the mirrored box pair (sigma, tau) of a symmetric
    kernel, holding no array of its own: a dense block's sectors each
    transposed, in the same dimensions (a plain block's transposed matrix),
    or a Tucker block's core with its target and source modes swapped, and
    its factors swapped.  A Tucker block's ``core_matrix`` is then the
    transposed view of `block`'s."""
    if isinstance(block, DenseBlock):
        return DenseBlock(block.sectors.transpose(0, 2, 1), block.sides, block.dims, block.folds)
    rows, cols = len(block.u_factors), len(block.v_factors)
    axes = tuple(range(rows, rows + cols)) + tuple(range(rows))
    return TuckerBlock(core=block.core.transpose(axes), u_factors=list(block.v_factors),
                       v_factors=list(block.u_factors))


def _modes(factors) -> list:
    """`factors` paired with their 1-based modes, for
    :func:`tensor.multi_mode_apply`."""
    return [(f, mode) for mode, f in enumerate(factors, 1)]


def _read_only(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _box_factor(grid: UniformGrid, side: int, rank: int) -> np.ndarray:
    """The interpolation factor of one dimension of every box of `side`
    cells, the Lagrange bases of its Chebyshev nodes at its grid points: by
    translation invariance of the nodes, that of the box [0, side) in
    box-relative coordinates.  A box narrower than the rank would hold a
    factor wider than tall, which compresses nothing, and is rejected.
    Computed once per (grid, side, rank) and returned read-only."""
    if side < rank:
        raise ValueError(f"box side {side} is narrower than the rank {rank}")
    return _read_only(factor_matrix(grid.coords1d(0, side),
                                    cheb_points(0.0, side * grid.h, rank)))


@lru_cache(maxsize=None)
def transfer(grid: UniformGrid, side: int, rank: int) -> np.ndarray:
    """Per-dimension transfer from boxes of `side` to their parents, boxes of
    ``2 * side``: the ``(2 r_child, r_parent)`` matrix whose row blocks E_0
    and E_1 give the parent factor on its lower and upper half as the child
    factor times E_c, the parent's Lagrange bases at the child's nodes: the
    black-box FMM's upward transfer.  This is exact, as a parent basis
    restricted to a child is a polynomial of degree below the rank, which
    the child's interpolation reproduces.  A child narrower than the rank
    has no factor and is rejected.  Computed once per (grid, side, rank)
    and returned read-only."""
    if side < rank:
        raise ValueError(f"box side {side} is narrower than the rank {rank}")
    parent = cheb_points(0.0, 2 * side * grid.h, rank)
    return _read_only(np.vstack([
        factor_matrix(cheb_points(lo * grid.h, (lo + side) * grid.h, rank).nodes, parent)
        for lo in (0, side)]))


#: the baseline's Kronecker bases by (grid, box sizes, rank), held weakly: a
#: basis grows with the box (32 MB for a 256^2 box at rank 8), so it is one
#: object while any block holds it and is freed with the last of them
_kron_bases = weakref.WeakValueDictionary()


def _kron_basis(grid: UniformGrid, sizes: tuple[int, ...], rank: int) -> np.ndarray:
    """The factors of a box with the given sizes multiplied out into one
    basis, the tensor Lagrange bases; computed once while it is held
    (:data:`_kron_bases`) and returned read-only."""
    basis = _kron_bases.get((grid, sizes, rank))
    if basis is None:
        factors = [_box_factor(grid, side, rank) for side in sizes]
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
    """Interpolate the kernel over the box pair: the factors are the Lagrange
    bases of each box's Chebyshev nodes, the shared ones of
    :func:`_box_factor`, so no box side may be narrower than the rank, and
    the core is h^d times the kernel at the node pairs, stored first index
    fastest.  The one-pair case of :func:`_tucker_blocks`.  A symmetric
    kernel's values at the node pairs of (sigma, tau) are bitwise the
    transpose of those of (tau, sigma), so any pair gets the core of its
    class, mirrored or not, bit for bit.
    """
    if domain_of(grid, tau).overlap_volume(domain_of(grid, sigma)) > 0.0:
        raise ValueError("interpolation blocks require disjoint domains")
    taus, sigmas = (np.array([box.ranges]) for box in (tau, sigma))
    return _tucker_blocks(k, grid, taus, sigmas, rank, h)[0]


def _tucker_blocks(k: KernelSpec, grid: UniformGrid, taus: np.ndarray,
                   sigmas: np.ndarray, rank: int, h: float) -> list:
    """The :func:`build_tlr` blocks of many disjoint box pairs, all target
    boxes of one shape and all source boxes of one shape: `taus` and
    `sigmas` hold each box's index ranges, integer arrays (pairs, d, 2).
    The Chebyshev nodes of every box come from one elementwise formula, the
    kernel is evaluated on the node pairs of as many blocks at a time as
    :data:`htlr.kernels.EVAL_CHUNK` evaluations allow, in one call, and
    scaled by h^d.  The cores are read-only views of one array.  The pairs
    are built as given: the operators pass a symmetric kernel's canonical
    pairs only."""
    d, count = grid.d, len(taus)
    u = [_box_factor(grid, int(hi - lo), rank) for lo, hi in taus[0]]
    v = [_box_factor(grid, int(hi - lo), rank) for lo, hi in sigmas[0]]
    # per dimension, cheb_points' nodes between the ends of domain_of's
    # intervals, (pairs, rank)
    x_nodes = [_cheb_nodes(taus[:, i, :1] * grid.h, taus[:, i, 1:] * grid.h, rank)
               for i in range(d)]
    y_nodes = [_cheb_nodes(sigmas[:, i, :1] * grid.h, sigmas[:, i, 1:] * grid.h, rank)
               for i in range(d)]
    cores = np.empty((rank,) * (2 * d) + (count,), order="F")
    step = max(1, kernels.EVAL_CHUNK // rank ** (2 * d))
    for start in range(0, count, step):
        part = slice(start, start + step)
        cores[..., part] = h**d * _core_tensors(k, [x[part] for x in x_nodes],
                                                [y[part] for y in y_nodes])
    _read_only(cores)
    return [TuckerBlock(core=cores[..., c], u_factors=list(u), v_factors=list(v))
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
    into one basis of rank rank^d: an order-2 Tucker block."""
    return _lowrank(grid, build_tlr(k, grid, tau, sigma, rank, h))


def _lowrank(grid: UniformGrid, block: TuckerBlock) -> TuckerBlock:
    """A :func:`build_tlr` block as the :func:`build_lowrank` block: its
    core as a matrix on the Kronecker bases."""
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
        return DenseBlock(_read_only(mat * h**grid.d)[None])
    block = _toeplitz_windows(k, grid, tau, sigma, cfg).copy()
    return DenseBlock(_read_only(block.reshape(math.prod(tau.sizes), -1))[None])


def _toeplitz_windows(k: KernelSpec, grid: UniformGrid, tau: IndexBox, sigma: IndexBox,
                      cfg: QuadratureConfig) -> np.ndarray:
    """The block of :func:`build_dense` for a translation-invariant kernel,
    as a read-only strided view of its offset table: axes last dimension
    first, the target box's then the source box's."""
    # per dimension the source-minus-target offsets j - i, lowest first
    steps = [np.arange(s_lo - t_hi + 1, s_hi - t_lo) * grid.h
             for (t_lo, t_hi), (s_lo, s_hi) in zip(tau.ranges, sigma.ranges)]
    table = _offset_table(k, steps, grid.h, cfg) * grid.h**grid.d
    # last dimension first, so that both boxes' points ravel first index
    # fastest: window w of source point j holds the offsets j - s_tau + 1 + w,
    # so target point i is window entry s_tau - 1 - i
    d, rows = grid.d, tau.sizes[::-1]
    windows = sliding_window_view(table.T, rows)[(...,) + (slice(None, None, -1),) * d]
    return windows.transpose([*range(d, 2 * d), *range(d)])


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
