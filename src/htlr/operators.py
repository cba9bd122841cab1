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
every leaf of the class points at the same payload object.  Such a kernel
is symmetric too, so the class at offset -o is the transpose of the class
at +o, as a symmetric H-matrix stores one block of each pair (b, b^T)
(W. Hackbusch, Hierarchical Matrices, Springer 2015).  Only the canonical
class of each pair is built, the one whose offset is lexicographically
positive (the self class is its own mirror).  The other looks up the class
at the same level and the opposite offset, which exists because
admissibility is symmetric and the lattice refines a pair and its swap
alike, and holds :func:`htlr.blocks._mirrored` of its payload, a
transposed view with no array of its own, which the matvec applies with
the same GEMM.  The orientation rule is :func:`_is_mirror`.  No builder
needs one: the kernel values of (tau, sigma), at the grid points or at
the Chebyshev nodes, are bitwise the transpose of those of (sigma, tau),
so :func:`htlr.blocks.build_tlr` gives any pair its class's core bit for
bit.  A custom kernel need not be symmetric, and its classes are never
mirrored.  Payloads are thus shared read-only views.  The Tucker payloads
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
coefficient rows of its source boxes and added into the rows of its target
boxes; downward, each group expands its target coefficients through its
maps onto the level below.  Dense payloads form groups without maps, each a
chain of its own: their coefficients are the grid values of each box.  An
admissible leaf on boxes no wider than the rank is stored dense too, as the
full-matrix format of an H-matrix stores a block whose rank is no smaller
than its size (W. Hackbusch, Hierarchical Matrices, Springer 2015): factors
that wide would compress nothing, and the kernel submatrix holds as many
scalars as the core would.  A translation-invariant kernel's dense class on
boxes wider than the rank, of an even side, is stored in parity sectors:
2^k of them for the k dimensions in which its offset is zero
(:class:`htlr.blocks.DenseBlock`), so a self class holds a 2^d-th of its
matrix and a mirrored class holds transposed views of its mirror's sectors.
Every other dense class, on boxes no wider than the rank, of an odd side or
of a custom kernel, keeps one sector, its matrix.  Whether a class in
sectors folds is fixed at build from its number of source boxes
(:meth:`htlr.blocks.DenseBlock.product`): with no more boxes than its block
has columns, its product folds the rows into sums and differences of
mirrored points, takes one batched product and unfolds it; with more, as a
2D self class on many boxes, its block is materialized for the one product,
which is then the cheaper.

The near field and the far field are independent until they are summed
into f, so the matvec overlaps them, as task-based fast multipole codes run
the near-field and far-field passes concurrently (E. Agullo, B. Bramas,
O. Coulaud, E. Darve, M. Messner and T. Takahashi, SIAM J. Sci. Comput. 36,
2014).  Only the dense group on the finest side can have a product wider
than a core, and when it does it hands its matrix products to a single
worker thread, which runs its tasks in the order they are submitted; no
task waits for the calling thread.  The calling thread makes the operands
(materializing the blocks that do not fold), submits the products and
then runs every other chain; it unfolds and sums the dense products in
class order and adds the near part into f first, then each chain's part in
chain order.  The rows of a group with a class that folds are gathered and
folded on the calling thread; for any other group the worker's first task
gathers them, so that its box-major copy of u runs while the calling
thread materializes.  Beyond that the worker runs only the matrix products,
which release the interpreter lock, and every sum keeps its order, so f is
bit for bit what the calling thread alone gives.  Groups of core-sized
products stay on the calling thread, as many small calls would contend for
the interpreter lock: the dense groups of boxes no wider than the rank, and
a 2D self class in sectors of p^d rows on boxes of side 2p.  A process that
can run on one CPU only runs everything there.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .blocks import (
    _box_factor,
    _kron_basis,
    _lowrank,
    _mirrored,
    _sectors,
    _toeplitz_windows,
    _tucker_blocks,
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
from .kernels import CoefficientFn, KernelSpec, QuadratureConfig, _Constant

@dataclass(frozen=True)
class BuildConfig:
    """Parameters of a hierarchical build: interpolation rank per mode, the
    largest leaf box side, admissibility rule, kernel, coefficient and
    quadrature."""

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


@dataclass(frozen=True)
class FactorGroup:
    """The translation classes on boxes of one side, all factored or all
    dense, and the group's per-dimension maps from the level below: the box
    factor of that side at a chain's first group, the transfers above it,
    none for dense payloads.  Both boxes of a leaf are cubes of one side, so
    one map per dimension serves its target and source boxes."""

    side: int
    maps: tuple
    classes: list


@dataclass
class HTLRMatrix:
    """Hierarchical operator: the diagonal a(x) at every grid point, first
    index fastest, or its one value when a is constant (the matvec
    broadcasts it), and the translation classes the matvec applies, grouped
    by box side and kind into chains of nested factors.  Each class holds one
    payload for all its leaves: Tucker for admissible leaves on boxes wider
    than the rank (of order 2 for the baseline), dense otherwise."""

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
        tree = build_cluster_tree(self.grid, self.config.leaf_side)
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


def _build(cfg: BuildConfig, grid: UniformGrid, lowrank: bool) -> HTLRMatrix:
    leaves = _leaf_lattice(grid, cfg.leaf_side, cfg.rule)
    depth = int(leaves.level.max())
    # the side the tree reaches, not the threshold; a one-leaf tree is all
    # dense and has no leaf side to keep in range
    if depth > 0 and not cfg.rank <= grid.n >> depth <= 2 * cfg.rank:
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
    tucker = leaves.admissible[firsts] & (grid.n >> levels > cfg.rank)
    offsets = leaves.sigma[firsts] - leaves.tau[firsts]
    mirror = cfg.kernel.translation_invariant & _is_mirror(offsets)
    # the Tucker payloads of a level in one batch, as its cores share one
    # kernel evaluation per chunk
    payloads = {}
    for level in np.unique(levels[tucker & ~mirror]).tolist():
        at = np.flatnonzero(tucker & ~mirror & (levels == level))
        side = grid.n >> level
        taus, sigmas = (np.stack([coords * side, (coords + 1) * side], axis=-1)
                        for coords in (leaves.tau[firsts[at]], leaves.sigma[firsts[at]]))
        blocks = _tucker_blocks(cfg.kernel, grid, taus, sigmas, cfg.rank, grid.h)
        if lowrank:
            # one basis for the level: its boxes are cubes of one side
            basis = _kron_basis(blocks[0].u_factors)
            blocks = [_lowrank(block, basis, basis) for block in blocks]
        payloads.update(zip(at.tolist(), blocks))
    for i in np.flatnonzero(~tucker & ~mirror).tolist():
        side = grid.n >> int(levels[i])
        boxes = (_lattice_box(leaves.tau[firsts[i]], side),
                 _lattice_box(leaves.sigma[firsts[i]], side))
        # the dimensions a reflection of both boxes leaves the block in
        dims = tuple(np.flatnonzero(offsets[i] == 0).tolist())
        if cfg.kernel.translation_invariant and side > cfg.rank and side % 2 == 0 and dims:
            payloads[i] = _sectors(_toeplitz_windows(cfg.kernel, grid, *boxes, cfg.quadrature),
                                   (side,) * grid.d, dims, len(members[classes[i]]))
        else:
            payloads[i] = build_dense(cfg.kernel, grid, *boxes, cfg.quadrature)
    if cfg.kernel.translation_invariant:
        opposite = {(level, tuple(offset)): i for i, (level, offset)
                    in enumerate(zip(levels.tolist(), (-offsets).tolist()))}
    groups = {}  # classes by (box side, factored)
    for i, c in enumerate(classes):
        leaf, level = firsts[i], int(levels[i])
        side = grid.n >> level
        payload = (_mirrored(payloads[opposite[level, tuple(offsets[i].tolist())]])
                   if mirror[i] else payloads[i])
        # a payload's kernel values are its first array, core or sectors;
        # checked in class order, so that the first bad leaf is named
        if not np.isfinite(payload.arrays()[0]).all():
            tau, sigma = (_lattice_box(leaves.tau[leaf], side),
                          _lattice_box(leaves.sigma[leaf], side))
            raise ValueError(
                f"the kernel is not finite on the leaf {tau.ranges} x {sigma.ranges}"
            )
        # in target order, so that a class mapping every box of its level
        # onto itself indexes with full slices, which gather and add in place
        targets, sources = box_targets[members[c]], box_sources[members[c]]
        order = np.argsort(targets)
        count = (1 << level) ** grid.d
        groups.setdefault((side, bool(tucker[i])), []).append(TranslationClass(
            payload,
            _box_indices(targets[order], count),
            _box_indices(sources[order], count),
        ))
    if isinstance(cfg.coeff.evaluator, _Constant):
        # a constant a(x) is its one value, broadcast, and never sampled
        diagonal = np.array([cfg.coeff.evaluator.value])
    else:
        diagonal = cfg.coeff(grid.points(IndexBox(((0, grid.n),) * grid.d)))
    return HTLRMatrix(grid=grid, config=cfg, diagonal=diagonal,
                      chains=_chains(groups, grid, cfg.rank))


def _is_mirror(offsets: np.ndarray) -> np.ndarray:
    """Whether each source-minus-target offset, a row of `offsets`, is
    lexicographically negative: the first of its nonzero coordinates is.
    Such a class of a symmetric kernel mirrors the class at the opposite
    offset; the zero offset is its own mirror."""
    first = (offsets != 0).argmax(axis=1)
    return offsets[np.arange(len(offsets)), first] < 0


def _chains(groups: dict, grid: UniformGrid, rank: int) -> list:
    """The classes keyed by (box side, factored) as groups in chains: the
    dense groups, each a chain of its own, then the factored ones, finest
    side first in both, so that the order of the matvec's sums does not
    depend on the order of the leaves.  A factored group continues the
    chain of the factored group on boxes of half its side, and its maps are
    the per-dimension transfers from its children; the first group of a
    chain maps through the box factor of its side in every dimension."""
    chains = []
    for side, factored in sorted(groups, key=lambda key: key[::-1]):
        # a class on every box first, so that its product starts the group's
        # sum: a zeroed array would be one more level-sized temporary per
        # matvec, and the fresh memory pages it needs cost about as much as
        # the work on the finest level
        classes = sorted(groups[side, factored],
                         key=lambda cls: not isinstance(cls.targets, slice))
        below = chains[-1][-1] if chains else None
        if factored and below and below.maps and below.side * 2 == side:
            maps = (transfer(grid, side // 2, rank),) * grid.d
            chains[-1].append(FactorGroup(side, maps, classes))
        else:
            maps = (_box_factor(grid, side, rank),) * grid.d if factored else ()
            chains.append([FactorGroup(side, maps, classes)])
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
    f = op.diagonal * u
    parts = [_chain_part(u, op.grid, chain) for chain in op.chains[int(handed):]]
    # each part on the axes (box, in-box) per dimension, added into the flat f
    for part in [near_part()] + parts if handed else parts:
        f_boxes = f.reshape(part.shape)
        f_boxes += part
    return f


def _offloads(group: FactorGroup, rank: int, d: int) -> bool:
    """Whether the matvec hands a group's products to the near-field worker
    (:func:`_offload`): only a dense group with a product wider than a core
    (than rank^d columns), as many small calls would contend for the
    interpreter lock.  The products of boxes no wider than the rank are at
    most core-sized, and so are those of a 2D self class in sectors on boxes
    of side 2p.  A dense class on boxes wider than the rank is an
    inadmissible leaf, as the admissible leaves there are Tucker, and those
    are on the finest side alone, which :func:`_chains` puts first: so the
    one group this can accept is an operator's first."""
    return (not group.maps and group.side > rank
            and max(cls.payload.width for cls in group.classes) > rank**d)


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
    """Hand a dense group's matrix products to the worker, which runs its
    tasks in the order they are submitted; no task waits for this thread.
    The source rows of a group with a class that folds them are gathered
    and folded here.  For any other group the worker's first task gathers
    them, the box-major copy of u and each class's rows, while this thread
    makes the operands (:meth:`htlr.blocks.DenseBlock.operand`; a sector
    block that does not fold is materialized).  The products, submitted
    next, read the finished gather.  The worker calls no function that the
    package exports and few of numpy, as each call trades the interpreter
    lock with this thread.  Returns the function that waits for the
    products, unfolds them and gives the group's part of A u."""
    def gather():
        c = to_boxes(project(u, grid.d, grid.n // group.side, group.maps))
        return [cls.payload.fold(c[cls.sources]) for cls in group.classes], c.shape

    folds = any(cls.payload.folds for cls in group.classes)
    rows = gather() if folds else worker.submit(gather)
    operands = [cls.payload.operand() for cls in group.classes]

    def products():
        lefts, shape = rows if folds else rows.result()
        return [left @ right for left, right in zip(lefts, operands)], shape

    task = worker.submit(products)

    def part():
        outs, shape = task.result()
        unfolded = (cls.payload.unfold(out) for cls, out in zip(group.classes, outs))
        return expand(from_boxes(_sum_classes(group, unfolded, shape), grid.d), group.maps)

    return part


def _chain_part(u: np.ndarray, grid: UniformGrid, chain) -> np.ndarray:
    """One chain's part of A u.  A function of its own, so that its
    temporaries die on return, before the next chain makes its own, and
    each level's source coefficients once that level is applied.  An
    offloaded group's gathered rows and products live while the other
    chains run, and every chain's part lives until the parts are added.
    A matvec's peak above its input depends on when the worker finishes:
    traced with tracemalloc, it was 4.0–5.3 grid-sized arrays on a 512²
    weak Gaussian with one dense class, whose block is materialized for the
    product (4.0 without the overlap), and 17.3–17.5 on a 128² single layer
    under the strong rule with nine, five of them folded (7.4)."""
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
    grid: each class's core applied once to the rows of its source boxes."""
    d, c = c.ndim // 2, to_boxes(c)
    products = (cls.payload.product(c[cls.sources]) for cls in group.classes)
    return from_boxes(_sum_classes(group, products, c.shape), d)


def _sum_classes(group: FactorGroup, products, shape: tuple) -> np.ndarray:
    """The box-major target coefficients of a group: the sum of its classes'
    products, each added into the rows of the class's target boxes in class
    order."""
    g = None if isinstance(group.classes[0].targets, slice) else np.zeros(shape)
    for cls, out in zip(group.classes, products):
        if g is None:
            g = out  # the first class maps every box onto itself
        else:
            # the target boxes of one class are distinct: no update is lost
            g[cls.targets] += out
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
    without replacement by the generator `seed`, their exact values and the
    values' l2 norm, which must not be zero."""
    rows = np.random.default_rng(seed).choice(len(u), size=sample_size, replace=False)
    exact = exact_rows(rows, u)
    denom = np.linalg.norm(exact)
    if denom == 0.0:
        raise DegenerateErrorEstimate("exact result has zero norm on the sample")
    return rows, exact, denom
