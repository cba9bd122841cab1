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
classes are grouped by box side and factors, and the matvec makes one pass
per group: it projects every box of the level onto its source coefficients
once, applies each class's core matrix to the coefficient rows of its
source boxes and adds the results into the rows of its target boxes, and
expands the target coefficients back onto the grid once.  Dense payloads,
and Tucker payloads whose factors are identities, form groups without
factors: their coefficients are the grid values of each box.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .blocks import build_dense, build_lowrank, build_tlr, expand, project
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
    """Parameters of a hierarchical build: interpolation rank per mode, leaf
    box side, admissibility rule, kernel, coefficient and quadrature."""

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
        if not self.rank <= self.leaf_side <= 2 * self.rank:
            warnings.warn(
                f"leaf side {self.leaf_side} outside the recommended range "
                f"[rank, 2*rank] = [{self.rank}, {2 * self.rank}]; the linear "
                "storage bound assumes it",
                stacklevel=2,
            )


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
    same target (u) and source (v) factor objects (none for dense and
    identity-folded Tucker payloads), and the number of target coefficients
    per box."""

    side: int
    u_factors: tuple
    v_factors: tuple
    rank: int
    classes: list


@dataclass
class HTLRMatrix:
    """Hierarchical operator: the block cluster tree, one payload per leaf
    (Tucker for admissible leaves, of order 2 for the baseline; dense
    otherwise; leaves of one translation class share the object), the
    diagonal a(x) at every grid point, first index fastest, and the
    translation classes the matvec applies, grouped by shared factors."""

    grid: UniformGrid
    config: BuildConfig
    block_tree: BlockClusterTree
    payloads: list  # leaf_id -> block
    diagonal: np.ndarray
    groups: list  # FactorGroup, the classes of one box side and factors

    @property
    def num_points(self) -> int:
        return self.grid.num_points


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
        u, v = _factors(payload.u_factors), _factors(payload.v_factors)
        key = (side, tuple(map(id, u)), tuple(map(id, v)))
        rank = payload.core_matrix.shape[0]
        group = groups.setdefault(key, FactorGroup(side, u, v, rank, []))
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
    return HTLRMatrix(grid=grid, config=cfg, block_tree=btree, payloads=payloads,
                      diagonal=diagonal, groups=list(groups.values()))


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
    """f = A u: the diagonal a(x) u plus, per factor group, one projection
    of all boxes of its side, each class's core applied once to the
    coefficients of its source boxes, and one expansion of the summed target
    coefficients; for operators from both :func:`construct` and
    :func:`construct_hmatrix`."""
    u = checked_vector(u)
    if u.size != op.num_points:
        raise ValueError(f"vector length {u.size} != {op.num_points}")
    f = op.diagonal * u
    for group in op.groups:
        c = project(u, op.grid, group.side, group.v_factors)
        g = np.zeros((len(c), group.rank))
        for cls in group.classes:
            # the target boxes of one class are distinct: no update is lost
            g[cls.targets] += c[cls.sources] @ cls.payload.core_matrix.T
        f += expand(g, op.grid, group.side, group.u_factors)
    return f


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
