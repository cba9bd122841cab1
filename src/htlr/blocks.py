"""Leaf-block payloads of the hierarchical operators.

There are two block kinds.  An admissible (well-separated) index-box pair is
compressed from Chebyshev interpolation of the kernel into a Tucker block:
per-dimension factor matrices, the Lagrange bases of each box's Chebyshev
nodes at its grid points, around an order-2d core, the kernel at the node
pairs.  The conventional low-rank block of the baseline is the same Tucker
block with each side's factors multiplied out into one Kronecker basis, i.e.
an order-2 Tucker block u @ g @ v.T, on a basis that the operators make once
per tree level and :func:`build_lowrank` once per pair.  Every factor is an
explicit matrix, as tall as the box side and as wide as the rank, so a box
narrower than the rank is rejected.  Inadmissible pairs are stored densely;
a translation-invariant kernel's dense block is built from one kernel value
per index offset.  All blocks carry the
quadrature weight h^d of the discretization, so materializing any block
reproduces the corresponding submatrix of the system matrix.

The built-in kernels are radial, so a dense block on two boxes of one even
side is unchanged when both boxes are reflected in a dimension in which
their offset is zero.  In the basis of sums and differences of mirrored
points it is then block diagonal (A. Cantoni and P. Butler, Linear Algebra
Appl. 13, 1976), as optimized Chebyshev FMM codes use the symmetries of
their kernels to shrink their operators (M. Messner et al., 2012).  Such a
:class:`DenseBlock` keeps only its 2^k diagonal sectors.  As the boxes are
cubes, a permutation of those k dimensions leaves the block unchanged too,
and takes the sector odd in one set of them to the sector odd in its image:
so only one sector per number of odd dimensions is stored, k + 1 of them,
and a self block keeps (d + 1) / 4^d of its scalars.  One transform forms
the sums and differences of mirrored points, :func:`_fold`, with its
adjoint :func:`_unfold`: they fold a product's rows and unfold its result,
build the sectors from the block's rows in one part (:func:`_sectors`) and
give back those rows of the block (:func:`_unfolded`); :func:`_spread`
gives every sector from the stored ones.  The plain dense block is the
case k = 0.

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
gives the core of the mirror of the opposite pair bit for bit.  For a
kernel of |x - y|, the block of a pair whose offset is turned by a
reflection or permutation of the dimensions is the block with the turn's
point map applied to its rows and columns, on the grid points of a box or
on its Chebyshev nodes alike, as both are symmetric in the box:
:func:`_turned` gives it holding the same arrays, of either kind and in
parity sectors or not, and applies the point map on the fly, to the rows
and the result of each product (:func:`_turn_rows`, outside the fold of a
block in sectors) or to a copy of the matrix (:func:`_turned_matrix`).

Every block kind answers ``materialize()``, ``scalars()`` (the stored
``(dense, factor, core)`` counts), ``arrays()`` (the arrays it holds, views
included) and ``product(rows)``, its product with the coefficients of many
source boxes, one box per row, and the steps of that product,
``fold(rows) @ operand()`` then ``unfold``, so that the operators can
write the matrix products of many blocks into one array, or hand them
alone to another thread; both kinds take these steps from one
implementation (:class:`_Block`).  A block whose ``fold`` returns its
argument unfolds nothing.  No other module knows the kinds.  Only a Tucker block
has factors; the operators read none
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
from dataclasses import dataclass, replace
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


class _Block:
    """The steps of a block's product with the coefficients of many source
    boxes, one box per row, for both kinds: ``unfold(fold(rows) @
    operand())`` (:meth:`product`).  A kind gives :meth:`_unturned`, its
    block in coefficient space before its turn, unfolded from any parity
    sectors; ``sides`` and ``dims`` are those of its sectors, none for a
    Tucker block.  ``folds``, fixed at build, says how a block in sectors or
    turned (:func:`_turned`) takes the product: the rows turned, then
    folded, the operand its stored matrix or sectors, and the result
    unfolded, then unturned; or the block made for the product
    (:meth:`_matrix`), where that moves fewer scalars.  A block whose
    ``fold`` returns its argument unfolds nothing."""

    sides = dims = ()

    def _matrix(self) -> np.ndarray:
        """The block in coefficient space: :meth:`_unturned`, turned."""
        block = self._unturned()
        return _turned_matrix(block, self.turn) if self.turn else block

    def operand(self) -> np.ndarray:
        """The right factor of the product: the stored matrix transposed, or
        every sector transposed, of a block that folds, else the transposed
        block."""
        if not self.folds:
            return self._matrix().T
        if not self.dims:
            return self._unturned().T
        return _spread(self.sectors, self.sides, self.dims).transpose(0, 2, 1)

    def fold(self, rows: np.ndarray) -> np.ndarray:
        """The left factor of the product from the source rows."""
        if self.folds and self.turn:
            rows = _turn_rows(rows, self.turn)
        return _fold(rows, self.sides, self.dims) if self.folds and self.dims else rows

    def unfold(self, t: np.ndarray, into: np.ndarray | None = None) -> np.ndarray:
        """The product, one target box per row, from ``t = fold(rows) @
        operand()``; written into `into`, an array of its shape, when
        given, which may hold the memory of `t`."""
        if self.folds and self.dims:
            t = _unfold(t, self.sides, self.dims, None if self.turn else into)
        return _unturn_rows(t, self.turn, into) if self.folds and self.turn else _into(t, into)

    def product(self, rows: np.ndarray) -> np.ndarray:
        """The block applied to the coefficients of many source boxes, one
        box per row: ``rows @ _matrix().T``, by its steps."""
        return self.unfold(self.fold(rows) @ self.operand())


@dataclass
class TuckerBlock(_Block):
    """Tucker representation of one admissible block: a core with one axis
    per factor and interpolation factors for the target (u) and source (v)
    sides; one factor per dimension (order-2d core), or one per side
    (order-2 core) for the baseline's low-rank block.  Each factor is an
    explicit matrix of Lagrange bases, one column per node, as tall as the
    box side.  Its product acts on the box coefficients through its core
    matrix (:class:`_Block`).  A block with a ``turn`` (:func:`_turned`)
    holds the core of another pair; its own is that core with the turn's
    point map applied to its nodes, on both sides.
    """

    core: np.ndarray
    u_factors: list
    v_factors: list
    turn: tuple = ()
    folds: bool = False

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
        """The stored core as a (target, source) coefficient matrix, modes
        first index fastest on both sides; a view of the cores the builders
        store, before any turn."""
        rows = math.prod(self.core.shape[: len(self.u_factors)])
        return self.core.reshape((rows, -1), order="F")

    def _unturned(self) -> np.ndarray:
        return self.core_matrix

    def materialize(self) -> np.ndarray:
        factors = _modes(self.u_factors + self.v_factors)
        full = tensor.multi_mode_apply(self.core, factors).reshape(self.shape, order="F")
        return _turned_matrix(full, self.turn) if self.turn else full

    def scalars(self) -> tuple[int, int, int]:
        return 0, sum(f.size for f in self.u_factors + self.v_factors), self.core.size

    def arrays(self) -> list:
        return [self.core, *self.u_factors, *self.v_factors]


@dataclass
class DenseBlock(_Block):
    """A kernel submatrix, whose box coefficients are the grid values, stored
    as ``sectors``, an array (k + 1, m, m).  In the plain case k = 0 and the
    one sector is the matrix.  A block of a translation-invariant kernel
    whose two boxes are one cube (of ``sides``) at an offset that is zero in
    the k dimensions ``dims`` is unchanged when both boxes are reflected in
    those dimensions, so in the basis of sums and differences of mirrored
    points, per such dimension, it is block diagonal (A. Cantoni and
    P. Butler, Linear Algebra Appl. 13, 1976): 2^k sectors of m = s^d / 2^k
    rows (:func:`_sectors`).  They are stored scaled so that no square root
    enters: the block is ``F.T @ diag(sectors) @ F`` with F the unnormalized
    sums and differences of :func:`_fold`.  Sector c, odd in the dimensions
    of the set bits of c, is stored sector popcount(c) with a permutation of
    ``dims`` applied to its points (:func:`_spread`).  A block with a
    ``turn`` (:func:`_turned`) is that block with its rows and columns
    permuted by the turn's point map; its ``dims`` are the zero dimensions
    of the stored block's offset, which the turn maps onto its own.  Its
    product takes the steps of :class:`_Block`."""

    sectors: np.ndarray
    sides: tuple = ()
    dims: tuple = ()
    folds: bool = False
    turn: tuple = ()

    @property
    def shape(self) -> tuple[int, int]:
        _, rows, cols = self.sectors.shape
        return rows << len(self.dims), cols << len(self.dims)

    @property
    def matrix(self) -> np.ndarray:
        """The full block: of a sector or turned block, materialized on each
        access and never stored."""
        return self.materialize()

    @property
    def width(self) -> int:
        """The columns of :meth:`operand`, which it does not make: a
        sector's of a block that folds, else the block's rows."""
        return self.sectors.shape[2] if self.folds else self.shape[0]

    def _unturned(self) -> np.ndarray:
        if self.dims:
            return _unfolded(_spread(self.sectors, self.sides, self.dims), self.sides, self.dims)
        return self.sectors[0]

    def materialize(self) -> np.ndarray:
        return self._matrix()

    def scalars(self) -> tuple[int, int, int]:
        return self.sectors.size, 0, 0

    def arrays(self) -> list:
        return [self.sectors]


def _into(t: np.ndarray, into: np.ndarray | None) -> np.ndarray:
    """`t`, or `into` holding a copy of it unless it is `t`."""
    if into is None or into is t:
        return t
    into[...] = t
    return into


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


def _fold(rows: np.ndarray, sides: tuple, dims: tuple, kept=slice(None)) -> np.ndarray:
    """``F`` applied to the grid values of boxes of `sides`, one box per row
    (first index fastest): the 2^k parts of :func:`_parts` combined by
    :func:`_signs`, an array (2^k, boxes, m) of each sector's coefficients,
    first index fastest, or of the sectors `kept` only.  One copy and one
    product."""
    boxes, parts = len(rows), _parts(sides, dims)
    t = rows.reshape((boxes,) + sides[::-1])
    stacked = np.stack([t[(slice(None),) + part] for part in parts])
    signs = _signs(len(parts))[kept]
    return (signs @ stacked.reshape(len(parts), -1)).reshape(len(signs), boxes, -1)


def _unfold(t: np.ndarray, sides: tuple, dims: tuple, into=None) -> np.ndarray:
    """``F.T``, the adjoint of :func:`_fold`, back to one box per row, in
    `into` when given, which may hold the memory of `t`: the sectors
    combined by :func:`_signs` are the parts, read before it is written."""
    parts, boxes = len(t), t.shape[1]
    values = (_signs(parts) @ t.reshape(parts, -1)).reshape(
        (parts, boxes) + _part_shape(sides, dims))
    out = np.empty((boxes, math.prod(sides))) if into is None else into
    grid = out.reshape((boxes,) + sides[::-1])
    for part, index in zip(values, _parts(sides, dims)):
        grid[(slice(None),) + index] = part
    return out


def _sectors(block: np.ndarray, sides: tuple, dims: tuple, boxes: int) -> DenseBlock:
    """A dense block on two boxes of `sides` (its matrix, or its entries on
    axes last dimension first, targets then sources, as
    :func:`_toeplitz_windows` gives them), unchanged when both boxes are
    reflected in each dimension of `dims` (sides even there), as its 2^k
    sectors, which fold its products with the rows of `boxes` source boxes
    when they are no more than the block's columns.  The sectors are
    :func:`_fold` of the block's rows in part 0 of :func:`_parts`, over 2^k:
    sums and differences of the block's entries, and the division is exact.
    Only those rows are read, and only the sectors 2^j - 1, odd in the
    first j of `dims`, are kept, one per j from 0 to k (:func:`_spread`).
    Returned read-only."""
    parts, points = _parts(sides, dims), math.prod(sides)
    rows = block.reshape(sides[::-1] * 2)[parts[0]].reshape(-1, points)
    kept = [(1 << j) - 1 for j in range(len(dims) + 1)]
    return DenseBlock(_read_only(_fold(rows, sides, dims, kept) / len(parts)), tuple(sides),
                      tuple(dims), boxes <= points)


def _spread(stored: np.ndarray, sides: tuple, dims: tuple) -> np.ndarray:
    """All 2^k sectors of a block in parity sectors (:class:`DenseBlock`),
    or of its mirror, from the k + 1 it stores, an array (k + 1, m, m):
    `stored` itself when k < 2, else a new array.  A permutation of `dims`
    leaves the block unchanged, maps part 0 of :func:`_parts` onto itself
    and takes the sector odd in a set of them to the sector odd in its
    image: so sector c is the stored sector popcount(c) with the point map
    of :func:`_sector_turns` applied to its rows and columns, one strided
    copy per sector."""
    parts = 1 << len(dims)
    if len(stored) == parts:
        return stored
    shape, m = _part_shape(sides, dims), stored.shape[1]
    out = np.empty((parts, m, m))
    for c, turn in enumerate(_sector_turns(len(sides), dims)):
        if turn:
            _turned_matrix(stored[c.bit_count()], turn, out[c], shape)
        else:
            out[c] = stored[c.bit_count()]
    return out


@lru_cache(maxsize=None)
def _sector_turns(d: int, dims: tuple) -> tuple:
    """Per sector c, the turn (:func:`_turned`) that :func:`_spread` applies
    to stored sector popcount(c), read off the bits of c: it sends
    ``dims[t]`` to the t-th of the dimensions of the set bits, then of the
    clear bits, of c, and fixes every other dimension; () where that is the
    identity, for the stored sectors themselves."""
    turns = []
    for c in range(1 << len(dims)):
        odd = [dim for bit, dim in enumerate(dims) if c >> bit & 1]
        even = [dim for bit, dim in enumerate(dims) if not c >> bit & 1]
        turn = list(range(1, d + 1))
        for a, b in zip(odd + even, dims):
            turn[a] = b + 1
        turns.append(() if turn == sorted(turn) else tuple(turn))
    return tuple(turns)


def _unfolded(sectors: np.ndarray, sides: tuple, dims: tuple) -> np.ndarray:
    """The matrix ``F.T @ diag(sectors) @ F`` of :class:`DenseBlock`, from
    all 2^k of its sectors (:func:`_spread`).  Its rows in part 0 of
    :func:`_parts` are :func:`_unfold` of the sectors; and as the block is
    unchanged when both boxes are reflected, its rows in part a are those
    of part 0 with the columns reflected in the dimensions of a."""
    d, parts = len(sides), _parts(sides, dims)
    lower = _unfold(sectors, sides, dims).reshape(_part_shape(sides, dims) + sides[::-1])
    full = np.empty(sides[::-1] * 2)
    for a, rows in enumerate(parts):
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


def _turned(block, turn: tuple, folds: bool):
    """The block of a box pair whose offset is `turn` applied to the offset
    of `block`'s pair, for a kernel of |x - y| alone, holding `block`'s
    arrays, of any kind: a block in parity sectors keeps its ``sides`` and
    ``dims``, the zero dimensions of `block`'s offset, which the turn maps
    onto the turned pair's.  `turn` is a signed permutation of the
    dimensions: entry a is s (b + 1), the offset's coordinate a being s
    times coordinate b of `block`'s offset.  Its point map T sends point
    (or Chebyshev node) i of a box to the point whose coordinate a is i_b,
    reflected in the box when s < 0, and the block of the turned pair is
    `block`'s with T applied to its rows and columns, as the distance of
    two points is unchanged.  Whether the product turns (and folds) the
    rows and the result (`folds`) or a copy of the matrix is fixed at build
    (:class:`_Block`)."""
    return replace(block, turn=tuple(turn), folds=folds)


@lru_cache(maxsize=None)
def _turn_index(turn: tuple, m: int) -> tuple:
    """The point map T of `turn` on boxes of m points, points first index
    fastest, as the index arrays (T, T^-1); read-only."""
    d = len(turn)
    q = _root(m, d)
    coords = np.arange(m) // q ** np.arange(d)[:, None] % q  # (dimension, point)
    moved = [coords[abs(t) - 1] if t > 0 else q - 1 - coords[abs(t) - 1] for t in turn]
    forward = (np.array(moved) * q ** np.arange(d)[:, None]).sum(axis=0)
    return _read_only(forward), _read_only(np.argsort(forward))


def _turn_rows(rows: np.ndarray, turn: tuple) -> np.ndarray:
    """The coefficients of many boxes, one box per row, taken by the point
    map of `turn`: entry j of a row is the row's entry at T(j).  An index
    array, as a strided view copied 16 boxes of 4^3 points 3x slower."""
    return rows.take(_turn_index(turn, rows.shape[1])[0], axis=1)


def _unturn_rows(t: np.ndarray, turn: tuple, into=None) -> np.ndarray:
    """The inverse of :func:`_turn_rows`, written into `into` when given,
    which may hold the memory of `t`: numpy's take then reads a copy."""
    # a permutation never clips; with "clip" numpy writes `into` unbuffered
    return t.take(_turn_index(turn, t.shape[1])[1], axis=1, out=into, mode="clip")


@lru_cache(maxsize=None)
def _turn_axes(turn: tuple) -> tuple:
    """The point map T of `turn` on both sides of a matrix viewed as one
    axis per dimension and side, last dimension first on each: the index
    that reflects and the axis order that permutes, whose view holds at
    (i, j) the entry at (T(i), T(j))."""
    d = len(turn)
    index, axes = [slice(None)] * (2 * d), list(range(2 * d))
    for lead in (0, d):
        for a, entry in enumerate(turn):
            b = abs(entry) - 1
            if entry < 0:
                index[lead + d - 1 - a] = slice(None, None, -1)
            axes[lead + d - 1 - b] = lead + d - 1 - a
    return tuple(index), tuple(axes)


def _turned_matrix(matrix: np.ndarray, turn: tuple, out: np.ndarray | None = None,
                   shape: tuple | None = None) -> np.ndarray:
    """A block's matrix with the point map T of `turn` applied to its rows
    and columns: entry (T(i), T(j)) is entry (i, j) of `matrix`, written
    into `out` when given.  The points are a cube, or of `shape`, last
    dimension first, whose sides the turn permutes among equals.  One
    strided copy, as index arrays along the columns copied a 512² matrix
    six times slower."""
    m, d = matrix.shape[0], len(turn)
    shape = (shape or (_root(m, d),) * d) * 2
    index, axes = _turn_axes(turn)
    out = np.empty((m, m)) if out is None else out
    out.reshape(shape)[index].transpose(axes)[...] = matrix.reshape(shape)
    return out


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


def _kron_basis(factors) -> np.ndarray:
    """A box's factors multiplied out into one basis, the tensor Lagrange
    bases, the last dimension outermost as the first-index-fastest
    linearization has it; returned read-only."""
    return _read_only(reduce(np.kron, reversed(factors)))


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
    into one basis of rank rank^d, made for this pair: an order-2 Tucker
    block."""
    block = build_tlr(k, grid, tau, sigma, rank, h)
    return _lowrank(block, _kron_basis(block.u_factors), _kron_basis(block.v_factors))


def _lowrank(block: TuckerBlock, u: np.ndarray, v: np.ndarray) -> TuckerBlock:
    """A :func:`build_tlr` block as the :func:`build_lowrank` block: its
    core as a matrix on the Kronecker bases `u` and `v` of its factors."""
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
