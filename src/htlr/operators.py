"""Hierarchical operators: construction, matvec, storage and error estimates.

The hierarchical Tucker operator compresses every admissible leaf of the
block cluster tree into a Tucker block; the baseline hierarchical operator
uses conventional low-rank blocks, which are the same Tucker blocks with
each side's factors multiplied out into one basis (order-2 Tucker blocks),
so the two agree to rounding and differ only in storage and work.  Both are
one operator type: the leaf payloads follow the block protocol of
:mod:`htlr.blocks`, so nothing here depends on the leaf kind.

For a translation-invariant kernel the matrix is multilevel Toeplitz: a leaf
payload depends only on the leaf kind, the two box sizes and the index
offset between the boxes.  Each such translation class is built once and
every leaf of the class points at the same payload object, so payloads are
shared and must be treated as read-only.  The coefficient a(x) is not part
of any payload; the operator holds it as its diagonal.

Every box at one cluster-tree level is a cube of side n / 2**level starting
at a multiple of that side, and its interpolation factors depend only on
that side, so the payloads of one level share their factor objects.  The
classes are grouped by box side and factors.  The factors of consecutive
levels are nested: a parent box's factor is its children's factor times a
small transfer matrix per dimension (:func:`htlr.blocks.transfer`).  So the
factored groups form chains of doubling sides, and the matvec traverses
each chain as the black-box fast multipole method does (W. Fong and
E. Darve, J. Comput. Phys. 228, 2009), per dimension.  Each group holds the
maps of its level step: the payloads' factors at the chain's finest side,
the transfers above it.  Upward, each group projects the level below (the
grid, at the finest side) through its maps; each class's core matrix is
applied once to the coefficient rows of its source boxes and added into the
rows of its target boxes; downward, each group expands its target
coefficients through its maps onto the level below.  Dense payloads, and
Tucker payloads whose factors are identities, form groups without maps,
each a chain of its own: their coefficients are the grid values of each box.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .blocks import (
    build_dense,
    build_lowrank,
    build_tlr,
    expand,
    from_boxes,
    project,
    to_boxes,
    transfer,
)
from .grids import (
    ADMISSIBLE,
    AdmissibilityRule,
    BlockClusterTree,
    UniformGrid,
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
    """The translation classes on boxes of one side whose payloads hold the
    same factor objects, and the group's maps from the level below: those
    factors (none for dense and identity-folded Tucker payloads), or the
    transfers above a chain's first group.  Both boxes of a leaf are cubes
    of one side, so a payload's target (u) and source (v) factors agree."""

    side: int
    maps: tuple
    classes: list


@dataclass
class HTLRMatrix:
    """Hierarchical operator: the block cluster tree, one payload per leaf
    (Tucker for admissible leaves, of order 2 for the baseline on boxes
    wider than the rank; dense otherwise; leaves of one translation class
    share the object), the diagonal a(x) at every grid point, first index
    fastest, and the translation classes the matvec applies, grouped by
    shared factors into chains of nested factors."""

    grid: UniformGrid
    config: BuildConfig
    block_tree: BlockClusterTree
    payloads: list  # leaf_id -> block
    diagonal: np.ndarray
    chains: list  # tuples of FactorGroup, finest side first

    @property
    def num_points(self) -> int:
        return self.grid.num_points

    @property
    def groups(self) -> list:
        return [group for chain in self.chains for group in chain]


@dataclass(frozen=True)
class StorageReport:
    dense_scalars: int
    factor_scalars: int
    core_scalars: int
    total_scalars: int
    theoretical_bound: float


def _class_key(kernel: KernelSpec, leaf):
    """Leaves with equal keys have equal payloads: for a translation-invariant
    kernel the leaf kind, both box sizes and the source-minus-target index
    offset; otherwise the leaf alone."""
    if not kernel.translation_invariant:
        return leaf.leaf_id
    tau, sigma = leaf.tau.box, leaf.sigma.box
    offset = tuple(s - t for (s, _), (t, _) in zip(sigma.ranges, tau.ranges))
    return leaf.kind, tau.sizes, sigma.sizes, offset


def _build(cfg: BuildConfig, grid: UniformGrid, admissible_builder) -> HTLRMatrix:
    ctree = build_cluster_tree(grid, cfg.leaf_side)
    # the side the tree reaches, not the threshold; a one-leaf tree is all
    # dense and has no leaf side to keep in range
    if ctree.depth > 0 and not cfg.rank <= ctree.leaf_side <= 2 * cfg.rank:
        warnings.warn(
            f"leaf side {ctree.leaf_side} outside the recommended range "
            f"[rank, 2*rank] = [{cfg.rank}, {2 * cfg.rank}]; the linear "
            "storage bound assumes it",
            stacklevel=3,
        )
    btree = build_block_cluster_tree(ctree, cfg.rule)

    def build_leaf(leaf):
        if leaf.kind == ADMISSIBLE:
            return admissible_builder(
                cfg.kernel, grid, leaf.tau.box, leaf.sigma.box, cfg.rank, grid.h
            )
        return build_dense(
            cfg.kernel, grid, leaf.tau.box, leaf.sigma.box, grid.h, cfg.quadrature
        )

    def box_index(box, side):
        return sum((lo // side) * (grid.n // side) ** dim
                   for dim, (lo, _) in enumerate(box.ranges))

    # key -> (payload, box side, target box indices, source box indices)
    by_class = {}
    payloads = []
    for leaf in btree.leaves:
        key = _class_key(cfg.kernel, leaf)
        tau, sigma = leaf.tau.box, leaf.sigma.box
        side = tau.sizes[0]  # both boxes of a leaf are cubes at one level
        if key not in by_class:
            by_class[key] = (build_leaf(leaf), side, [], [])
        payload, _, targets, sources = by_class[key]
        targets.append(box_index(tau, side))
        sources.append(box_index(sigma, side))
        payloads.append(payload)

    groups = {}
    for payload, side, targets, sources in by_class.values():
        factors = _factors(payload.u_factors)
        key = (side, tuple(map(id, factors)))
        group = groups.setdefault(key, FactorGroup(side, factors, []))
        # in target order, so that a class mapping every box of its level
        # onto itself indexes with full slices, which gather and add in place
        order = np.argsort(targets)
        count = (grid.n // side) ** grid.d
        group.classes.append(TranslationClass(
            payload,
            _box_indices(np.array(targets)[order], count),
            _box_indices(np.array(sources)[order], count),
        ))
    diagonal = cfg.coeff(grid.points(ctree.root.box))
    for group in groups.values():
        # a class on every box first, so that its product starts the group's
        # sum: a zeroed array would be one more level-sized temporary per
        # matvec, and the fresh memory pages it needs cost about as much as
        # the work on the finest level
        group.classes.sort(key=lambda cls: not isinstance(cls.targets, slice))
    return HTLRMatrix(grid=grid, config=cfg, block_tree=btree, payloads=payloads,
                      diagonal=diagonal,
                      chains=_chains(groups.values(), grid, cfg.rank))


def _chains(groups, grid: UniformGrid, rank: int) -> list:
    """The groups as chains, finest side first.  A factored group continues
    the chain of the factored group on boxes of half its side: the factors
    of every side come from one box factor per (grid, side, rank), and those
    nest, so its maps become the per-dimension transfers from its children.
    Each group without factors is a chain of its own."""
    chains = [(group,) for group in groups if not group.maps]
    nested = []
    for group in sorted((g for g in groups if g.maps), key=lambda g: g.side):
        if nested and nested[-1][-1].side * 2 == group.side:
            maps = (transfer(grid, group.side // 2, rank),) * grid.d
            nested[-1].append(replace(group, maps=maps))
        else:
            nested.append([group])
    return chains + [tuple(chain) for chain in nested]


def _box_indices(boxes: np.ndarray, count: int):
    """`boxes` as int32, or a full slice when they are all `count` boxes in
    order."""
    if np.array_equal(boxes, np.arange(count)):
        return slice(None)
    return boxes.astype(np.int32)


def _factors(factors) -> tuple:
    """A side's factors, or none when they are all identities."""
    return tuple(factors) if any(f is not None for f in factors) else ()


def construct(cfg: BuildConfig, grid: UniformGrid) -> HTLRMatrix:
    """Build the hierarchical Tucker operator for the configured kernel."""
    return _build(cfg, grid, build_tlr)


def construct_hmatrix(cfg: BuildConfig, grid: UniformGrid) -> HTLRMatrix:
    """Build the baseline hierarchical operator with conventional low-rank
    leaves of rank rank^d."""
    return _build(cfg, grid, build_lowrank)


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


def storage_report(op) -> StorageReport:
    """Exact stored-scalar counts by category plus the weak-admissibility
    theoretical bound for the operator's size."""
    dense, factors, cores = map(sum, zip(*(b.scalars() for b in op.payloads)))
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
    """Leaf visit counts for one matvec (dense and compressed leaves)."""
    leaves = op.block_tree.leaves
    compressed = sum(1 for leaf in leaves if leaf.kind == ADMISSIBLE)
    return {
        "dense_leaves": len(leaves) - compressed,
        "compressed_leaves": compressed,
        "total_leaves": len(leaves),
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
