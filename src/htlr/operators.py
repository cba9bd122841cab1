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
every leaf of the class points at the same payload object, so payloads are
shared and must be treated as read-only.  The Tucker payloads of one tree
level are built together, their kernel values in one call per chunk
(:func:`htlr.blocks._tucker_blocks`).  The coefficient a(x) is not part
of any payload; the operator holds it as its diagonal.  The build takes the
leaves from :func:`htlr.grids._leaf_lattice`, integer arrays on the box
lattice of each level, and builds neither tree; the operator keeps only the
classes, and derives the block tree and the per-leaf payloads on request.

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
basis is those box factors multiplied out, so the baseline's matvec is the
Tucker operator's, bit for bit.  Upward, each group projects the level
below (the grid, at the finest side) through its maps; each class's core
matrix is applied once to the coefficient rows of its source boxes and
added into the rows of its target boxes; downward, each group expands its
target coefficients through its maps onto the level below.  Dense payloads form
groups without maps, each a chain of its own: their coefficients are the
grid values of each box.  An admissible leaf on boxes no wider than the
rank is stored dense too, as the full-matrix format of an H-matrix stores
a block whose rank is no smaller than its size (W. Hackbusch, Hierarchical
Matrices, Springer 2015): factors that wide would compress nothing, and the
kernel submatrix holds as many scalars as the core would.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .blocks import (
    _box_factor,
    _lowrank,
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
from .kernels import CoefficientFn, KernelSpec, QuadratureConfig

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
    index fastest, and the translation classes the matvec applies, grouped
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
    def payloads(self) -> list:
        """Each leaf's payload, aligned with :attr:`block_tree`'s leaves:
        the shared, read-only payload of the leaf's class.  A new list on
        each call."""
        grid, payload_at = self.grid, {}
        for group in self.groups:
            boxes = np.arange((grid.n // group.side) ** grid.d)
            for cls in group.classes:
                targets, sources = boxes[cls.targets].tolist(), boxes[cls.sources].tolist()
                for t, s in zip(targets, sources):
                    payload_at[group.side, t, s] = cls.payload
        leaves = _leaf_lattice(grid, self.config.leaf_side, self.config.rule)
        keys = zip((grid.n >> leaves.level).tolist(),
                   *(ids.tolist() for ids in _box_ids(leaves, grid.d)))
        return [payload_at[key] for key in keys]


@dataclass(frozen=True)
class StorageReport:
    dense_scalars: int
    factor_scalars: int
    core_scalars: int
    total_scalars: int
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
    # the Tucker payloads of a level in one batch, as its cores share one
    # kernel evaluation per chunk
    payloads = {}
    for level in np.unique(levels[tucker]).tolist():
        at = np.flatnonzero(tucker & (levels == level))
        side = grid.n >> level
        taus, sigmas = (np.stack([coords * side, (coords + 1) * side], axis=-1)
                        for coords in (leaves.tau[firsts[at]], leaves.sigma[firsts[at]]))
        blocks = _tucker_blocks(cfg.kernel, grid, taus, sigmas, cfg.rank, grid.h)
        if lowrank:
            blocks = [_lowrank(grid, block) for block in blocks]
        payloads.update(zip(at.tolist(), blocks))
    groups = {}  # classes by (box side, factored)
    for i, c in enumerate(classes):
        leaf, level = firsts[i], int(levels[i])
        side = grid.n >> level
        tau = _lattice_box(leaves.tau[leaf], side)
        sigma = _lattice_box(leaves.sigma[leaf], side)
        if tucker[i]:
            payload = payloads.pop(i)
        else:
            payload = build_dense(cfg.kernel, grid, tau, sigma, grid.h, cfg.quadrature)
        # in class order, so that the first bad leaf is named
        if not np.isfinite(payload.core_matrix).all():
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
    diagonal = cfg.coeff(grid.points(IndexBox(((0, grid.n),) * grid.d)))
    return HTLRMatrix(grid=grid, config=cfg, diagonal=diagonal,
                      chains=_chains(groups, grid, cfg.rank))


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
            maps = (_box_factor(grid, side, rank)[0],) * grid.d if factored else ()
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
    :func:`construct` and :func:`construct_hmatrix`."""
    u = checked_vector(u)
    if u.size != op.num_points:
        raise ValueError(f"vector length {u.size} != {op.num_points}")
    f = op.diagonal * u
    for chain in op.chains:
        _add_chain(f, u, op.grid, chain)
    return f


def _add_chain(f: np.ndarray, u: np.ndarray, grid: UniformGrid, chain) -> None:
    """Add one chain's part of A u into f.  A function of its own, so that
    its temporaries die on return, before the next chain makes its own, and
    each level's source coefficients once that level is applied: the matvec
    then holds at most three grid-sized arrays at once."""
    coeffs = [u]
    for group in chain:
        coeffs.append(project(coeffs[-1], grid.d, grid.n // group.side, group.maps))
    g = None
    for group in reversed(chain):
        level = _apply_classes(group, coeffs.pop())
        g = expand(level if g is None else level + g.reshape(level.shape), group.maps)
    f_boxes = f.reshape(g.shape)
    f_boxes += g


def _apply_classes(group: FactorGroup, c: np.ndarray) -> np.ndarray:
    """Target coefficient grid of one group from its source coefficient
    grid: each class's core applied once to the rows of its source boxes."""
    d, c = c.ndim // 2, to_boxes(c)
    g = None if isinstance(group.classes[0].targets, slice) else np.zeros(c.shape)
    for cls in group.classes:
        out = c[cls.sources] @ cls.payload.core_matrix.T
        if g is None:
            g = out  # the first class maps every box onto itself
        else:
            # the target boxes of one class are distinct: no update is lost
            g[cls.targets] += out
    return from_boxes(g, d)


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
    class's payload counts once per leaf, although its leaves share it."""
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
        theoretical_bound=bound,
    )


def operation_counts(op) -> dict:
    """Leaf visit counts for one matvec (dense and compressed leaves); a
    dense payload is the one kind that stores dense scalars."""
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
    a uniformly sampled (without replacement) row subset."""
    u = checked_vector(u)
    n_rows = op.num_points
    if sample_size > n_rows:
        raise ValueError("sample size exceeds the number of rows")
    rng = np.random.default_rng(seed)
    rows = rng.choice(n_rows, size=sample_size, replace=False)
    approx = matvec(op, u)
    exact = exact_rows(rows, u)
    denom = np.linalg.norm(exact)
    if denom == 0.0:
        raise DegenerateErrorEstimate("exact result has zero norm on the sample")
    return float(np.linalg.norm(approx[rows] - exact) / denom)
