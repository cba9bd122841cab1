"""Hierarchical operators: construction, matvec, storage and error estimates.

The hierarchical Tucker operator compresses every admissible leaf of the
block cluster tree into a Tucker block; the baseline hierarchical operator
uses conventional low-rank blocks, which are the same Tucker blocks with
each side's factors multiplied out into one basis (order-2 Tucker blocks),
so the two differ only in what their leaves store.  Both are
one operator type: the leaf payloads follow the block protocol of
:mod:`htlr.blocks`, so nothing here depends on the leaf kind.

For a translation-invariant kernel the matrix is multilevel Toeplitz: a leaf
payload depends only on the leaf kind, the two box sizes and the index
offset between the boxes.  Each such translation class is built once and
every leaf of the class points at the same payload object.  The built-in
kernels depend on |x - y| alone, so the block at offset g o, for g a
reflection or permutation of the dimensions, is the block at o with its
rows and columns permuted by g's point map, as optimized black-box FMM
codes store 16 M2L operators in place of 316 (M. Messner et al., arXiv
1210.7292, 2012; W. Fong and E. Darve, J. Comput. Phys. 228, 2009).  The
classes of one level and kind whose offsets are one orbit of these
signed permutations hold one payload, in parity sectors or not:
:func:`_orbits` reads each class's orbit and its turn g off its integer
offset, with no search, and only an orbit's canonical class is built, its
first that :func:`_is_mirror` does not name.  Every other class holds its
canonical's payload, mirrored or turned.  The class at the opposite
offset holds :func:`htlr.blocks._mirrored` of it, a transposed view with
no array of its own, which the matvec applies with the same GEMM, as a
symmetric H-matrix stores one block of each pair (b, b^T) (W. Hackbusch,
Hierarchical Matrices, Springer 2015): the kernel values of (tau, sigma),
at the grid points or at the Chebyshev nodes, are bitwise the transpose
of those of (sigma, tau).  The others hold :func:`htlr.blocks._turned`
of it, its arrays and the turn, which the class's product applies by
the class's kind: a Tucker class's to a copy of its core, one strided
copy of p^d x p^d, and a dense class's to its rows and products (one in
sectors that does not fold, as its canonical does not, to a copy of its
block); its block is its own pair's to rounding, as the turn moves the
kernel's arguments.  A custom kernel need not be
symmetric, and each of its classes keeps a payload of its own.  Payloads
are thus shared read-only arrays.  The Tucker payloads
of one tree level are built together, their kernel values in one call per
chunk, and a dense payload of such a kernel is windows of one kernel value
per index offset (:func:`htlr.blocks.build_dense`).  The
coefficient a(x) is not part of any payload; the operator holds it as its
diagonal, one value when a is constant, which a
:meth:`htlr.kernels.CoefficientFn.constant` gives without sampling a.  The
build takes the leaves from :func:`htlr.grids._leaf_lattice`, integer
arrays on the box lattice of each level, and builds neither tree; the
operator keeps only the classes, and derives the block tree and the
per-leaf payloads on request, for inspection.

Every box at one cluster-tree level is a cube of side n / 2**level starting
at a multiple of that side, and its interpolation factors depend only on
that side, so the payloads of one level share their factor objects.  The
classes are grouped by box side and by whether they are factored; the
operator reads no payload's factors.  The factors of consecutive levels are
nested: a parent box's factor is its children's factor times a small
transfer matrix per dimension (:func:`htlr.blocks.transfer`).  So the
factored groups form chains of doubling sides, and the matvec traverses
each chain as the black-box fast multipole method does (W. Fong and
E. Darve, J. Comput. Phys. 228, 2009), per dimension.  Each group holds the
maps of its level step, one per dimension: the box factor of its side at
the chain's finest side, the transfers above it.  A baseline payload's
basis is those box factors multiplied out, one per level for all its
classes, so the baseline's matvec is the Tucker operator's, bit for bit.
Upward, each group projects the level below (the grid, at the finest side)
through its maps; each class's core matrix is applied once to the
coefficient rows of its source boxes, gathered as it is applied, and its
products are written into its rows of one array per batch of the group's
classes, one row per leaf (:data:`_BATCH`); one sparse matrix per batch,
made at build (:class:`FactorGroup`), sums them into the rows of their
target boxes, each box's in class order, in place of one scattered
addition per class.  A factored group of a kernel of |x - y| whose classes
have no more leaves each than a core has columns goes by orbit instead,
as Chebyshev FMM codes apply every interaction that shares one canonical
M2L operator as one product (M. Messner et al., arXiv 1210.7292, 2012):
per orbit, one gather takes every class's source rows at its turn's point
map (a mirrored class's turn reflects the dimensions in which its offset
is not zero), one GEMM applies the canonical class's core, and one
:func:`np.bincount` adds the products into the target rows at the same
point maps, which unturns them.  Downward, each group expands its target
coefficients through its maps onto the level below.  Dense payloads form
groups without maps, each a chain of its own: their coefficients are the
grid values of each box.  The
build splits no box pair of side 2p or less (:func:`_leaf_threshold`), as
an H-matrix keeps a block in full where its children would be no wider
than the rank (W. Hackbusch, Hierarchical Matrices, Springer 2015): so
every leaf of a tree of more than one level is wider than the rank, and
every admissible leaf is Tucker.  Under the weak rule a kernel of |x - y|
smooth at x = y (the Gaussian) has the last level's self pair
interpolated too, as weak admissibility already treats the touching
neighbour pairs as separable (W. Hackbusch, B. Khoromskij and
R. Kriemann, Computing 73, 2004), and a Chebyshev interpolant's error
depends only on the kernel's smoothness over the pair (W. Fong and
E. Darve, 2009): where the tree's depth, the rank and the leaf box's
width against sigma say that adds little to the error of the pairs the
build interpolates already (:func:`_interpolates_self`).  That class is
on every box, its own orbit, and first in its level's factored group; so
such a build holds no dense class.  Its interpolant gives K(0) h^d on the
diagonal, where the quadrature gives the cell average, so the operator's
diagonal adds the difference, one value for all points.  A
translation-invariant kernel's dense
class of an even side wider than the rank (all but the leaf of a one-leaf
tree no wider) is stored in parity sectors, 2^k of them for the k
dimensions in which its offset is zero, of which it keeps one per number
of odd dimensions, k + 1, as a permutation of those dimensions turns one
sector into another (:class:`htlr.blocks.DenseBlock`): so a self class
holds (d + 1) / 4^d of its matrix, a mirrored class transposed views of
its canonical's sectors, and a turned class its canonical's sectors, in
the canonical's zero dimensions.  Every other dense class, of an odd side, of
a custom kernel or on boxes no wider than the rank, keeps one sector, its
matrix, shared over its orbit.
Whether a class in sectors folds is fixed at build from its number of
source boxes
(:meth:`htlr.blocks.DenseBlock.product`): with no more boxes than its block
has columns, its product folds the rows into sums and differences of
mirrored points, spreads its sectors into one operand and takes one batched
product, and unfolds it; with more, as a 2D single layer's self class on
many boxes, its block is materialized for the one product, which is then
the cheaper.

The near field and the far field are independent until they are summed
into f, so the matvec overlaps them, as task-based fast multipole codes run
the near-field and far-field passes concurrently (E. Agullo, B. Bramas,
O. Coulaud, E. Darve, M. Messner and T. Takahashi, SIAM J. Sci. Comput. 36,
2014).  Only the dense group on the finest side can have a product wider
than a core, and when it does the calling thread gathers and folds its
source rows, makes its operands (materializing the blocks that do not fold)
and hands its matrix products, which release the interpreter lock, to a
single worker thread as one task: the products step that the calling
thread runs at once for every other group applied class by class.  A
build that interpolates its self pairs has no dense group and hands
nothing over; the near fields handed over are those of a singular
kernel, or of any kernel under the strong rule.  The calling thread then
runs every other chain, unfolds the dense products and sums them through
its batches' scatters, as it does for those groups, and adds the near part
into f first, then each chain's part in chain order.  Every sum keeps its
order, so f is bit for bit what the calling thread alone gives.  Groups of
core-sized products stay on the calling thread, as many small calls would
contend for the interpreter lock: a self class in sectors of p^d rows on
boxes of side 2p, in 2D or 3D.  A process that can run on one CPU only
runs everything there.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.sparse import csr_array

from .blocks import (
    _box_factor,
    _kron_basis,
    _lowrank,
    _mirrored,
    _sectors,
    _toeplitz_windows,
    _tucker_blocks,
    _turn_index,
    _turned,
    build_dense,
    expand,
    from_boxes,
    project,
    to_boxes,
    transfer,
)
from .grids import (
    AdmissibilityRule,
    BlockClusterTree,
    IndexBox,
    UniformGrid,
    _check_int,
    _lattice_box,
    _leaf_lattice,
    build_block_cluster_tree,
    build_cluster_tree,
)
from .kernels import (
    CoefficientFn,
    KernelSpec,
    QuadratureConfig,
    _Constant,
    _of_r2,
    _origin_entry,
    _real_values,
)

@dataclass(frozen=True)
class BuildConfig:
    """Parameters of a hierarchical build: interpolation rank per mode, the
    largest leaf box side, admissibility rule, kernel, coefficient and
    quadrature.  The build raises a leaf side below twice the rank to it
    (:func:`_leaf_threshold`), so that every leaf of a tree of more than
    one level is wider than the rank."""

    rank: int
    leaf_side: int
    rule: AdmissibilityRule
    kernel: KernelSpec
    coeff: CoefficientFn
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        _check_int("rank", self.rank)
        _check_int("leaf side", self.leaf_side)
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.leaf_side < 1:
            raise ValueError("leaf side must be positive")


@dataclass(frozen=True)
class TranslationClass:
    """The leaves that share one payload: the payload and the linear indices
    (first index fastest) of their target and source boxes among the boxes
    of their level, int32 arrays in target order, or full slices when they
    are every box in order.  Target boxes of one class are distinct."""

    payload: object
    targets: np.ndarray | slice
    sources: np.ndarray | slice


#: scalars of products per batch of a group's classes, summed by one sparse
#: scatter: 2 MB, as one array of a level's products, written whole and read
#: back, ran a 3D single layer on a 64^3 grid a quarter slower than adding
#: each class's products into place
_BATCH = 2**18


class _Orbit(NamedTuple):
    """The classes of one symmetry orbit in a group that goes by orbit: the
    canonical class's core matrix (``core``, a view), the boxes of the
    classes' sources and targets (``sources``, ``targets``, int32 arrays
    (classes, leaves), whose rows the classes hold as views), and each
    class's point map T (``points``, an array (classes, width) of the
    smallest unsigned type that holds it; the identity for the canonical
    class).  Entry (k, j) of ``points`` is T_k(j): the class's rows are
    the source rows taken at T_k, and its products go to the target rows at
    T_k (:func:`htlr.blocks._turned`)."""

    core: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    points: np.ndarray


class _Batch(NamedTuple):
    """Consecutive classes of a group (``classes``, a slice), the rows of
    their products (``rows``, one per leaf), the boxes they target
    (``boxes``, ascending, or a full slice for every box of the level), and
    the sparse matrix that adds the products into the rows of those boxes,
    each box's in class order (``scatter``, None for one class on every
    box)."""

    classes: slice
    rows: int
    boxes: np.ndarray | slice
    scatter: csr_array | None


@dataclass(frozen=True)
class FactorGroup:
    """The translation classes on boxes of one side, all factored or all
    dense, and the group's per-dimension maps from the level below: the box
    factor of that side at a chain's first group, the transfers above it,
    none for dense payloads.  Both boxes of a leaf are cubes of one side, so
    one map per dimension serves its target and source boxes.

    Made from them, for the matvec, on the level's `boxes`, whose
    coefficients are `width` scalars each, in one of two layouts.  A
    factored group of a kernel of |x - y| whose classes have no more leaves
    each than `width`, the core's columns, goes by orbit (``orbits``, one
    :class:`_Orbit` each): ``orbit_of`` holds per class its orbit's
    canonical payload and its turn from it, as :func:`_orbits` gives them,
    mirrored classes included, and the classes hold their boxes as views of
    their orbit's.  Such classes are a handful of boxes each, where a
    product per class costs several times its GEMM in gathers, turns and
    scatters.  The classes of an orbit are one another's turns, so they
    have one number of leaves.  Every other group goes by class, as a class
    of more leaves is the cheaper alone: its classes in batches whose
    products hold at most :data:`_BATCH` scalars, or one class
    (``batches``), and each class's rows among its batch's products
    (``spans``)."""

    side: int
    maps: tuple
    classes: list
    boxes: int
    width: int
    orbit_of: tuple = ()
    orbits: tuple = field(init=False)
    spans: tuple = field(init=False)
    batches: tuple = field(init=False)

    def __post_init__(self):
        everywhere = np.arange(self.boxes, dtype=np.int32)
        targets = [everywhere[cls.targets] for cls in self.classes]
        if self.orbit_of and max(map(len, targets)) <= self.width:
            orbits, classes = _stack_orbits(self.classes, self.orbit_of, targets, everywhere,
                                            self.width)
            for name, value in (("orbits", orbits), ("classes", classes),
                                ("spans", ()), ("batches", ())):
                object.__setattr__(self, name, value)
            return
        object.__setattr__(self, "orbits", ())
        spans, firsts, rows = [], [0], 0
        for k, boxes in enumerate(targets):
            if rows and (rows + len(boxes)) * self.width > _BATCH:
                firsts.append(k)
                rows = 0
            spans.append(slice(rows, rows + len(boxes)))
            rows += len(boxes)
        object.__setattr__(self, "spans", tuple(spans))
        object.__setattr__(self, "batches", tuple(
            _Batch(slice(a, b), spans[b - 1].stop, *_scatter(targets[a:b], self.boxes))
            for a, b in zip(firsts, firsts[1:] + [len(targets)])))


def _stack_orbits(classes: list, orbit_of: tuple, targets: list, everywhere: np.ndarray,
                  width: int) -> tuple:
    """The :class:`_Orbit` arrays of a group's classes, orbit by orbit in
    the order of their first class, and the classes holding their boxes as
    views of them.  `orbit_of` holds, per class, its orbit's canonical
    payload and its turn from it, `targets` its target boxes, and
    `everywhere` is the level's boxes, int32."""
    members = {}
    for k, (canonical, _) in enumerate(orbit_of):
        members.setdefault(id(canonical), []).append(k)
    points_type = np.min_scalar_type(width - 1)
    orbits, classes = [], list(classes)
    for ks in members.values():
        # the classes of an orbit are one another's turns, so they have one
        # number of leaves (np.array raises on any other)
        sources = np.array([everywhere[classes[k].sources] for k in ks])
        stacked = np.array([targets[k] for k in ks])
        points = np.array([_turn_index(orbit_of[k][1], width)[0] for k in ks], dtype=points_type)
        orbits.append(_Orbit(orbit_of[ks[0]][0].core_matrix, sources, stacked, points))
        for row, k in enumerate(ks):
            classes[k] = TranslationClass(classes[k].payload, stacked[row], sources[row])
    return tuple(orbits), classes


def _scatter(targets: list, boxes: int) -> tuple:
    """The boxes that consecutive classes' products target among `boxes`,
    ascending or a full slice for all of them, and the sparse matrix that
    adds the products, one row per leaf, into their rows, each box's in
    class order: a box's row adds its columns in their order.  No matrix
    for one class on every box, whose products are in box order."""
    if len(targets) == 1 and len(targets[0]) == boxes:
        return slice(None), None
    rows = np.concatenate(targets)
    order = np.argsort(rows, kind="stable").astype(np.int32)
    counts = np.bincount(rows, minlength=boxes)
    touched = slice(None) if counts.all() else np.flatnonzero(counts).astype(np.int32)
    starts = np.concatenate([[0], np.cumsum(counts[touched])]).astype(np.int32)
    return touched, csr_array((np.ones(len(rows)), order, starts),
                              shape=(len(starts) - 1, len(rows)))


@dataclass
class HTLRMatrix:
    """Hierarchical operator: the diagonal a(x) at every grid point, first
    index fastest, or its one value when a is constant (the matvec
    broadcasts it), and the translation classes the matvec applies, grouped
    by box side and kind into chains of nested factors.  Each class holds one
    payload for all its leaves: Tucker for admissible leaves (of order 2 for
    the baseline), dense otherwise, but for the self pairs that a build of a
    kernel smooth at x = y interpolates; then the diagonal holds a(x) plus
    the constant (diagonal_entry - K(0)) h^d, which puts the quadrature's
    cell average in place of the interpolant's K(0) h^d."""

    grid: UniformGrid
    config: BuildConfig
    diagonal: np.ndarray
    chains: list  # tuples of FactorGroup, finest side first

    @property
    def num_points(self) -> int:
        return self.grid.num_points

    @property
    def groups(self) -> list:
        return [group for chain in self.chains for group in chain]

    @property
    def block_tree(self) -> BlockClusterTree:
        """The block cluster tree whose leaves the classes cover, built on
        each call; the operator does not hold it."""
        tree = build_cluster_tree(self.grid, _leaf_threshold(self.config))
        return build_block_cluster_tree(tree, self.config.rule)

    @property
    def payloads(self) -> tuple:
        """Each leaf's payload, class by class: the shared, read-only
        payload of a class once per leaf of the class."""
        return tuple(payload for payload, count in _class_leaves(self)
                     for _ in range(count))


@dataclass(frozen=True)
class StorageReport:
    """Stored scalars by category and their total, all logical (each leaf
    counts its class's payload); the resident scalars, the sizes of the
    distinct buffers the operator holds; and the weak-admissibility bound."""

    dense_scalars: int
    factor_scalars: int
    core_scalars: int
    total_scalars: int
    resident_scalars: int
    theoretical_bound: float


def _leaf_threshold(cfg: BuildConfig) -> int:
    """The side above which the build splits a box pair: the configured
    leaf side, or twice the rank if that is larger.  Splitting a pair of
    side 2p or less would keep the same dense entries in up to 3^d classes
    on boxes no wider than the rank, where a factor compresses nothing."""
    return max(cfg.leaf_side, 2 * cfg.rank)


def _interpolates_self(cfg: BuildConfig, grid: UniformGrid, depth: int) -> bool:
    """Whether the build of a tree `depth` levels below its root stores the
    last level's self pair as a Tucker block: under the weak rule, for a
    kernel of |x - y| smooth at x = y (the Gaussian), where that adds
    little to the error of the pairs the build interpolates already.  It
    does in a tree of three levels or more, whose coarser pairs are on
    boxes twice as wide, at a rank of 3 or more, on a leaf box no wider
    than sigma: there the operator's full-vector error against an exact
    product was within 1.021 times that of the same operator with a dense
    self class (d = 2 and 3, p = 3 to 8, random vectors, and constant,
    smooth and point vectors at boxes of sigma/2 and sigma).  Outside, the
    error grew up to 2.7 times in a two-level tree at boxes of sigma/4 to
    sigma, 1.12 times at rank 2, 1.09 times at rank 3 on a box of 2 sigma,
    and 3.5 times on a box of 12.5 sigma."""
    return (cfg.rule.kind == "weak" and depth >= 2 and cfg.rank >= 3
            and cfg.kernel.translation_invariant and cfg.kernel.smooth_at_diagonal
            and (grid.n >> depth) * grid.h <= cfg.kernel.sigma)


def _build(cfg: BuildConfig, grid: UniformGrid, lowrank: bool) -> HTLRMatrix:
    leaves = _leaf_lattice(grid, _leaf_threshold(cfg), cfg.rule)
    depth = int(leaves.level.max())
    # the side the tree reaches, not the threshold: above the rank, as no
    # pair of side 2p or less is split; a one-leaf tree is all dense and
    # has no leaf side to keep in range
    if depth > 0 and grid.n >> depth > 2 * cfg.rank:
        warnings.warn(
            f"leaf side {grid.n >> depth} outside the recommended range "
            f"[rank, 2*rank] = [{cfg.rank}, {2 * cfg.rank}]; the linear "
            "storage bound assumes it",
            stacklevel=3,
        )
    # Leaves with one key have equal payloads: for a translation-invariant
    # kernel the level and the source-minus-target offset (which fix the
    # kind and both box sizes); otherwise the leaf alone.  Each class is
    # built from its first leaf, and the classes keep the leaves' order,
    # depth first within a level, which fixes the order of each group's sum.
    keys = (leaves.offset_id if cfg.kernel.translation_invariant
            else np.arange(len(leaves.level)))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    members = np.split(np.argsort(inverse, kind="stable"),
                       np.cumsum(np.bincount(inverse))[:-1])
    box_targets, box_sources = _box_ids(leaves, grid.d)
    classes = np.argsort(first)
    firsts = first[classes]
    levels = leaves.level[firsts]
    sides = grid.n >> levels
    tucker = leaves.admissible[firsts]
    offsets = leaves.sigma[firsts] - leaves.tau[firsts]
    # the last level's self pair interpolated, as its touching neighbour
    # pairs are: its own orbit, on every box
    smooth_self = _interpolates_self(cfg, grid, depth)
    if smooth_self:
        tucker |= ~offsets.any(axis=1)
    counts = np.bincount(inverse)[classes]
    # dense classes in parity sectors: on boxes wider than the rank (as
    # every leaf of a tree of more than one level is), of an even side, at
    # an offset with a zero coordinate
    sectors = (cfg.kernel.translation_invariant & ~tucker & (sides > cfg.rank)
               & (sides % 2 == 0) & (offsets == 0).any(axis=1))
    if cfg.kernel.translation_invariant:
        canonical, turns = _orbits(levels, tucker, offsets)
    else:
        canonical = np.arange(len(classes))
    built = canonical == np.arange(len(classes))
    # the Tucker payloads of a level in one batch, as its cores share one
    # kernel evaluation per chunk
    payloads = {}
    for level in np.unique(levels[tucker & built]).tolist():
        at = np.flatnonzero(tucker & built & (levels == level))
        side = grid.n >> level
        taus, sigmas = (np.stack([coords * side, (coords + 1) * side], axis=-1)
                        for coords in (leaves.tau[firsts[at]], leaves.sigma[firsts[at]]))
        blocks = _tucker_blocks(cfg.kernel, grid, taus, sigmas, cfg.rank, grid.h)
        if lowrank:
            # one basis for the level: its boxes are cubes of one side
            basis = _kron_basis(blocks[0].u_factors)
            blocks = [_lowrank(block, basis, basis) for block in blocks]
        payloads.update(zip(at.tolist(), blocks))
    for i in np.flatnonzero(~tucker & built).tolist():
        side = int(sides[i])
        boxes = (_lattice_box(leaves.tau[firsts[i]], side),
                 _lattice_box(leaves.sigma[firsts[i]], side))
        if sectors[i]:
            # the dimensions a reflection of both boxes leaves the block in
            dims = tuple(np.flatnonzero(offsets[i] == 0).tolist())
            payloads[i] = _sectors(_toeplitz_windows(cfg.kernel, grid, *boxes, cfg.quadrature),
                                   (side,) * grid.d, dims, int(counts[i]))
        else:
            payloads[i] = build_dense(cfg.kernel, grid, *boxes, cfg.quadrature)
    # a payload's kernel values are its first array, core or sectors, and
    # every class of an orbit holds its canonical's: so each is checked
    # once, and the first leaf of the first class whose values are not
    # finite is named
    bad = [i for i, payload in payloads.items() if not np.isfinite(payload.arrays()[0]).all()]
    if bad:
        leaf = firsts[np.flatnonzero(np.isin(canonical, bad))[0]]
        side = grid.n >> int(leaves.level[leaf])
        tau, sigma = (_lattice_box(leaves.tau[leaf], side),
                      _lattice_box(leaves.sigma[leaf], side))
        raise ValueError(
            f"the kernel is not finite on the leaf {tau.ranges} x {sigma.ranges}"
        )
    groups = {}  # classes by (box side, factored)
    for i, c in enumerate(classes):
        level, side, payload = int(levels[i]), int(sides[i]), payloads[canonical[i]]
        if not built[i] and (offsets[i] == -offsets[canonical[i]]).all():
            payload = _mirrored(payload)
        elif not built[i]:
            # a class in sectors folds as its canonical does
            payload = _turned(payload, turns[i].tolist())
        # in target order, so that a class mapping every box of its level
        # onto itself indexes with full slices, which need no gather or
        # scatter
        targets, sources = box_targets[members[c]], box_sources[members[c]]
        order = np.argsort(targets)
        count = (1 << level) ** grid.d
        # a factored class's orbit, by its canonical payload, and its turn
        # from it, for a group that goes by orbit (FactorGroup)
        orbit = ((payloads[canonical[i]], tuple(turns[i].tolist()))
                 if cfg.kernel.translation_invariant and tucker[i] else None)
        groups.setdefault((side, bool(tucker[i])), []).append((TranslationClass(
            payload,
            _box_indices(targets[order], count),
            _box_indices(sources[order], count),
        ), orbit))
    if isinstance(cfg.coeff.evaluator, _Constant):
        # a constant a(x) is its one value, broadcast, and never sampled
        diagonal = np.array([cfg.coeff.evaluator.value])
    else:
        diagonal = cfg.coeff(grid.points(IndexBox(((0, grid.n),) * grid.d)))
    if smooth_self:
        # the cell average, less the interpolant's K(0), times h^d
        diagonal = diagonal + (_origin_entry(cfg.kernel, grid.d, grid.h, cfg.quadrature)
                                - _of_r2(cfg.kernel, 0.0)) * grid.h**grid.d
    return HTLRMatrix(grid=grid, config=cfg, diagonal=diagonal,
                      chains=_chains(groups, grid, cfg.rank))


def _is_mirror(offsets: np.ndarray) -> np.ndarray:
    """Whether each source-minus-target offset, a row of `offsets`, is
    lexicographically negative: the first of its nonzero coordinates is.
    Such a class of a symmetric kernel mirrors the class at the opposite
    offset; the zero offset is its own mirror."""
    first = (offsets != 0).argmax(axis=1)
    return offsets[np.arange(len(offsets)), first] < 0


def _orbits(levels: np.ndarray, tucker: np.ndarray, offsets: np.ndarray) -> tuple:
    """The class whose payload each class of a kernel of |x - y| holds, and
    the turn (:func:`htlr.blocks._turned`) from that class's offset to its
    own, a signed permutation of the dimensions per class.  The classes of
    one level and kind whose offsets are one another's under reflections
    and permutations of the dimensions are one orbit, keyed on the sorted
    magnitudes of their offsets.  An orbit's canonical class is its first
    that :func:`_is_mirror` does not name.

    Each offset o is G r, r its magnitudes in ascending order and G the
    signed permutation that sorts them (entry (a, b) the sign of o_a, or 1,
    where coordinate a of o is entry b of r), so the turn from the
    canonical offset c = G_c r to o is G G_c^T: read off the integers, with
    no search."""
    count, d = offsets.shape
    magnitudes = np.abs(offsets)
    place = np.argsort(np.argsort(magnitudes, axis=1, kind="stable"), axis=1)
    g = np.zeros((count, d, d), dtype=int)
    np.put_along_axis(g, place[:, :, None], np.where(offsets < 0, -1, 1)[:, :, None], axis=2)
    # the orbit's key as one integer, each sorted magnitude a digit
    base = int(magnitudes.max(initial=0)) + 1
    key = levels * 2 + tucker
    for column in np.sort(magnitudes, axis=1).T:
        key = key * base + column
    _, orbit = np.unique(key, return_inverse=True)
    order = np.lexsort((np.arange(count), _is_mirror(offsets), orbit))
    firsts = order[np.flatnonzero(np.diff(orbit[order], prepend=-1))]
    canonical = firsts[orbit]
    turns = g @ g[canonical].transpose(0, 2, 1)
    # as htlr.blocks._turned reads them: entry a is s (b + 1) for the sign s
    # at (a, b)
    b = np.abs(turns).argmax(axis=2)
    return canonical, np.take_along_axis(turns, b[:, :, None], axis=2)[:, :, 0] * (b + 1)


def _chains(groups: dict, grid: UniformGrid, rank: int) -> list:
    """The classes keyed by (box side, factored) as groups in chains: the
    dense groups, each a chain of its own, then the factored ones, finest
    side first in both, so that the order of the matvec's sums does not
    depend on the order of the leaves.  A factored group continues the
    chain of the factored group on boxes of half its side, and its maps are
    the per-dimension transfers from its children; the first group of a
    chain maps through the box factor of its side in every dimension.  Each
    class comes with its orbit and turn (:class:`FactorGroup`), or None."""
    chains = []
    for side, factored in sorted(groups, key=lambda key: key[::-1]):
        # a class on every box first: its products start every box's sum,
        # and alone it needs no scatter
        members = sorted(groups[side, factored],
                         key=lambda member: not isinstance(member[0].targets, slice))
        classes, orbit_of = (list(column) for column in zip(*members))
        orbit_of = () if None in orbit_of else tuple(orbit_of)
        below = chains[-1][-1] if chains else None
        # the level's boxes, and the scalars of a box's coefficients
        shape = (grid.n // side) ** grid.d, (rank if factored else side) ** grid.d
        if factored and below and below.maps and below.side * 2 == side:
            maps = (transfer(grid, side // 2, rank),) * grid.d
            chains[-1].append(FactorGroup(side, maps, classes, *shape, orbit_of))
        else:
            maps = (_box_factor(grid, side, rank),) * grid.d if factored else ()
            chains.append([FactorGroup(side, maps, classes, *shape, orbit_of)])
    return [tuple(chain) for chain in chains]


def _box_ids(leaves, d: int) -> tuple:
    """The linear indices, first index fastest, of every leaf's target and
    source boxes among the boxes of its level."""
    strides = (1 << leaves.level)[:, None] ** np.arange(d)
    return (leaves.tau * strides).sum(axis=1), (leaves.sigma * strides).sum(axis=1)


def _box_indices(boxes: np.ndarray, count: int):
    """`boxes` as int32, or a full slice when they are all `count` boxes in
    order."""
    if np.array_equal(boxes, np.arange(count)):
        return slice(None)
    return boxes.astype(np.int32)


def construct(cfg: BuildConfig, grid: UniformGrid) -> HTLRMatrix:
    """Build the hierarchical Tucker operator for the configured kernel."""
    return _build(cfg, grid, lowrank=False)


def construct_hmatrix(cfg: BuildConfig, grid: UniformGrid) -> HTLRMatrix:
    """Build the baseline hierarchical operator with conventional low-rank
    leaves of rank rank^d."""
    return _build(cfg, grid, lowrank=True)


def checked_vector(u) -> np.ndarray:
    """`u` as a flat float64 vector; complex or non-finite input is rejected
    instead of losing its imaginary part or spreading NaN to every output."""
    u = np.asarray(u)
    if np.iscomplexobj(u):
        raise ValueError("input vector is complex; the operator is real")
    u = np.asarray(u, dtype=np.float64).ravel(order="F")
    if not np.isfinite(u).all():
        raise ValueError("input vector has NaN or infinite entries")
    return u


def matvec(op: HTLRMatrix, u: np.ndarray) -> np.ndarray:
    """f = A u: the diagonal a(x) u plus, per chain, one projection per group
    upward, each class's core applied once to the coefficients of its source
    boxes, and one expansion per group downward; for operators from both
    :func:`construct` and :func:`construct_hmatrix`.  When the first group,
    the dense one on the finest side, has a product wider than a core
    (:func:`_offloads`), its products run on the near-field worker
    (:func:`_near_field_worker`) while this thread runs the other chains.
    The chains' parts are added into f in one loop, in chain order."""
    u = checked_vector(u)
    if u.size != op.num_points:
        raise ValueError(f"vector length {u.size} != {op.num_points}")
    worker, near = _near_field_worker(), op.chains[0][0]
    # handed over first, so that it runs while the other chains do
    handed = worker is not None and _offloads(near, op.config.rank, op.grid.d)
    near_part = _offload(worker, u, op.grid, near) if handed else None
    parts = [_chain_part(u, op.grid, chain) for chain in op.chains[int(handed):]]
    if handed:
        parts.insert(0, near_part())
    if op.diagonal.size == 1 and op.diagonal[0] == 0.0:
        # a zero diagonal adds nothing: f starts as the first part
        f = np.array(parts.pop(0), order="C").reshape(-1)
    else:
        f = op.diagonal * u
    # each part on the axes (box, in-box) per dimension, added into the flat f
    for part in parts:
        f_boxes = f.reshape(part.shape)
        f_boxes += part
    return f


def _offloads(group: FactorGroup, rank: int, d: int) -> bool:
    """Whether the matvec hands a group's products to the near-field worker
    (:func:`_offload`): only a dense group with a product wider than a core
    (than rank^d columns), as many small calls would contend for the
    interpreter lock.  The products of a self class in sectors on boxes of
    side 2p are core-sized, in 2D and 3D.  Every admissible leaf is Tucker,
    so a dense class is an inadmissible leaf, on the finest side alone,
    which :func:`_chains` puts first: so the one group this can accept is
    an operator's first."""
    return not group.maps and max(cls.payload.width for cls in group.classes) > rank**d


_worker_lock = threading.Lock()
_worker = (None, None)  # (process id, executor or None)


def _near_field_worker():
    """The one thread that runs the offloaded near-field GEMMs, created on
    first use, or None when the process can run on one CPU only, where the
    matvec runs everything on the calling thread.  A forked child gets a
    worker of its own, as the parent's thread does not exist in it."""
    global _worker
    pid = os.getpid()
    if _worker[0] != pid:
        with _worker_lock:
            if _worker[0] != pid:
                cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                        else os.cpu_count() or 1)
                _worker = (pid, ThreadPoolExecutor(1, "htlr-near-field") if cpus >= 2 else None)
    return _worker[1]


def _offload(worker, u: np.ndarray, grid: UniformGrid, group: FactorGroup):
    """Hand a dense group's matrix products to the worker as one task.  This
    thread takes every class's steps (:func:`_steps`): it gathers and folds
    its source rows, the box-major copy of u included, and makes its
    operand (a sector block that does not fold is materialized); the worker
    runs only the products (:func:`_products`), as each numpy call it makes
    trades the interpreter lock with this thread, into the arrays of the
    group's batches, which it makes too.  Made on this thread, they pushed
    its transients to where freeing them returned memory to the system,
    which the next matvec faulted in again: the benchmark's 2D single layer
    workload read a median matvec 6 to 12% slower.  Returns the function
    that waits for the products, unfolds and sums them
    (:func:`_sum_products`) and gives the group's part of A u; it keeps the
    products, not the copy."""
    # the box-major copy of u dies with the steps' generator
    steps = iter(list(_steps(group, to_boxes(project(u, grid.d, grid.n // group.side,
                                                     group.maps)))))
    task = worker.submit(lambda: [_products(group, batch, steps) for batch in group.batches])

    def part():
        g = None
        for batch, products in zip(group.batches, task.result()):
            g = _sum_products(group, batch, *products, g)
        return expand(from_boxes(g, grid.d), group.maps)

    return part


def _chain_part(u: np.ndarray, grid: UniformGrid, chain) -> np.ndarray:
    """One chain's part of A u.  A function of its own, so that its
    temporaries die on return, before the next chain makes its own, and
    each level's source coefficients once that level is applied.  An
    offloaded group's gathered rows and products live while the other
    chains run, and every chain's part lives until the parts are added.
    A matvec's peak above its input depends on when the worker finishes:
    traced with tracemalloc, it was 3.0–3.8 grid-sized arrays on a 512²
    weak Gaussian while its self class was dense, its block materialized
    for the product (3.0 without the overlap), and 15.7–20.6 on a 128²
    single layer under the strong rule with nine, five of them folded
    (12.2, as a batch's products live until they are summed).  A group that goes by
    orbit (:class:`FactorGroup`) holds one orbit's gathered rows, products
    and flat indices at a time, and one level's coefficients per orbit from
    its scatter, so its transients are bounded by its largest orbit, not by
    the group."""
    coeffs = [u]
    for group in chain:
        coeffs.append(project(coeffs[-1], grid.d, grid.n // group.side, group.maps))
    g = None
    for group in reversed(chain):
        level = _apply_classes(group, coeffs.pop())
        g = expand(level if g is None else level + g.reshape(level.shape), group.maps)
    return g


def _apply_classes(group: FactorGroup, c: np.ndarray) -> np.ndarray:
    """Target coefficient grid of one group from its source coefficient
    grid.  A group that goes by orbit applies each orbit's canonical core
    once to every class's turned source rows (:func:`_apply_orbits`).
    Every other group takes the steps the near-field worker takes, here on
    the calling thread: each class's core applied once to the rows of its
    source boxes, gathered as the product is made, so that they are still
    in cache for it (:func:`_products`), and the products summed batch by
    batch (:func:`_sum_products`)."""
    d, c = c.ndim // 2, to_boxes(c)
    if group.orbits:
        return from_boxes(_apply_orbits(group, c), d)
    steps, g = _steps(group, c), None
    for batch in group.batches:
        # a batch's products die once summed, before the next batch's
        g = _sum_products(group, batch, *_products(group, batch, steps), g)
    return from_boxes(g, d)


def _steps(group: FactorGroup, c: np.ndarray):
    """Per class of a group, in order, the operands of its product from the
    box-major source coefficients `c`, its rows gathered and folded as the
    step is taken, and the payload that unfolds the product, or None where
    the fold returned the rows."""
    for cls in group.classes:
        x = _rows(cls, c)
        left = cls.payload.fold(x)
        yield left, cls.payload.operand(), None if left is x else cls.payload


def _products(group: FactorGroup, batch: _Batch, steps) -> tuple:
    """The array of a batch's products, one row per leaf, each class's made
    by one :func:`np.matmul` into its rows from the next of the group's
    `steps` (an iterator of :func:`_steps`); and, for the classes whose
    products unfold, the payload, the rows and the product in its own
    shape, which holds their memory: a product of its own per class would
    double a group's memory."""
    out, unfolds = np.empty((batch.rows, group.width)), []
    # the spans first: zip stops on them, before it takes a step of the
    # next batch
    for span, (left, right, payload) in zip(group.spans[batch.classes], steps):
        rows = out[span]
        if payload is None:
            np.matmul(left, right, out=rows)
        else:
            t = rows.reshape(left.shape[:-1] + right.shape[-1:])
            unfolds.append((payload, rows, np.matmul(left, right, out=t)))
    return out, unfolds


def _sum_products(group: FactorGroup, batch: _Batch, out: np.ndarray, unfolds: list,
                  g) -> np.ndarray:
    """:func:`_sum_classes` of `g` and a batch's products (:func:`_products`),
    those that unfold unfolded in place first."""
    for payload, rows, t in unfolds:
        payload.unfold(t, rows)
    return _sum_classes(group, batch, out, g)


def _apply_orbits(group: FactorGroup, c: np.ndarray) -> np.ndarray:
    """The box-major target coefficients of a group that goes by orbit from
    its box-major source coefficients `c`: per orbit, one gather of every
    class's source rows taken at its point map, one GEMM with the canonical
    core, and one :func:`np.bincount` that adds the products at the point
    maps of the target rows, summing each entry in class order, then leaf
    order.  The flat indices, box times width plus point, are made per
    orbit, so that they never outgrow one orbit's rows."""
    width, flat = group.width, c.reshape(-1)
    g = None
    for orbit in group.orbits:
        points = orbit.points[:, None, :]
        x = flat.take(orbit.sources[:, :, None] * width + points).reshape(-1, width)
        part = np.bincount((orbit.targets[:, :, None] * width + points).reshape(-1),
                           (x @ orbit.core.T).reshape(-1), group.boxes * width)
        if g is None:
            g = part
        else:
            g += part
    return g.reshape(group.boxes, width)


def _rows(cls: TranslationClass, c: np.ndarray) -> np.ndarray:
    """A class's rows of the box-major source coefficients `c`: `c` itself
    for a class on every box."""
    return c if isinstance(cls.sources, slice) else c[cls.sources]


def _sum_classes(group: FactorGroup, batch: _Batch, out: np.ndarray, g) -> np.ndarray:
    """The box-major target coefficients of a group's batches so far: `g`
    (None before the first batch) plus the products `out` of `batch`, one
    row per leaf, summed into its target boxes by its scatter, each box's in
    class order, and added into their rows; the products themselves for one
    class on every box.  A group of one batch sums each box's products in
    class order."""
    part = out if batch.scatter is None else batch.scatter @ out
    if g is None and isinstance(batch.boxes, slice):
        return part
    if g is None:
        g = np.zeros((group.boxes, group.width))
    g[batch.boxes] += part
    return g


def weak_storage_bound(d: int, rank: int, num_points: int) -> float:
    """Linear storage bound (16 d p^(2-d) + p^d + 2^d p^d) N for the Tucker
    hierarchy under weak admissibility."""
    p = float(rank)
    return (16.0 * d * p ** (2 - d) + p**d + 2**d * p**d) * num_points


def _class_leaves(op):
    """(payload, leaf count) of every translation class."""
    for group in op.groups:
        boxes = (op.grid.n // group.side) ** op.grid.d
        for cls in group.classes:
            yield cls.payload, boxes if isinstance(cls.targets, slice) else len(cls.targets)


def storage_report(op) -> StorageReport:
    """Exact stored-scalar counts by category plus the weak-admissibility
    theoretical bound for the operator's size.  The counts are logical: a
    class's payload counts once per leaf, although its leaves share it.  The
    resident count is what the operator holds: the buffers behind its
    payloads, maps and diagonal, each once however many classes share it or
    mirror it."""
    dense, factors, cores = map(sum, zip(*(
        [count * n for n in payload.scalars()] for payload, count in _class_leaves(op)
    )))
    total = dense + factors + cores
    bound = weak_storage_bound(op.grid.d, op.config.rank, op.num_points)
    return StorageReport(
        dense_scalars=dense,
        factor_scalars=factors,
        core_scalars=cores,
        total_scalars=total,
        resident_scalars=_resident_scalars(op),
        theoretical_bound=bound,
    )


def _resident_scalars(op) -> int:
    """Scalars of the distinct buffers behind the operator's payloads, maps
    and diagonal: a view counts the array that owns its memory, once."""
    arrays = [op.diagonal]
    for group in op.groups:
        arrays += group.maps
        for cls in group.classes:
            arrays += cls.payload.arrays()
    owners = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners[id(a)] = a.size
    return sum(owners.values())


def operation_counts(op) -> dict:
    """Leaves by the kind of their class's payload, dense or compressed (the
    matvec applies each class once, not each leaf); a dense payload is the
    one kind that stores dense scalars."""
    dense = total = 0
    for payload, count in _class_leaves(op):
        total += count
        dense += count if payload.scalars()[0] else 0
    return {
        "dense_leaves": dense,
        "compressed_leaves": total - dense,
        "total_leaves": total,
    }


class DegenerateErrorEstimate(ValueError):
    """Raised when the sampled exact result has zero norm."""


def estimate_rel_error_random(
    op,
    exact_rows: Callable[[np.ndarray, np.ndarray], np.ndarray],
    u: np.ndarray,
    sample_size: int = 1000,
    seed: int = 0,
) -> float:
    """Relative l2 error of the fast matvec against exact row evaluations on
    a uniformly sampled (without replacement) row subset of `sample_size`
    rows, a positive integer."""
    _check_int("sample size", sample_size)
    if sample_size < 1:
        raise ValueError("sample size must be positive")
    u = checked_vector(u)
    if sample_size > op.num_points:
        raise ValueError("sample size exceeds the number of rows")
    approx = matvec(op, u)
    rows, exact, denom = _exact_sample(exact_rows, u, sample_size, seed)
    return float(np.linalg.norm(approx[rows] - exact) / denom)


def _exact_sample(exact_rows, u: np.ndarray, sample_size: int, seed) -> tuple:
    """``(rows, exact, norm)``: `sample_size` rows of A u drawn uniformly
    without replacement by the generator `seed`, their exact values, which
    must be real and one per row, and the values' l2 norm, which must not be
    zero."""
    rows = np.random.default_rng(seed).choice(len(u), size=sample_size, replace=False)
    exact = _real_values(exact_rows(rows, u), rows.shape, "row oracle")
    denom = np.linalg.norm(exact)
    if denom == 0.0:
        raise DegenerateErrorEstimate("exact result has zero norm on the sample")
    return rows, exact, denom
