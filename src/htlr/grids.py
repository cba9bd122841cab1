"""Uniform tensor grids, cluster trees and block cluster trees.

The grid covers the unit box [0,1]^d with n cell-centered points per
direction.  Index boxes are Cartesian products of half-open 0-based index
ranges; the cluster tree splits every range at its midpoint, producing a
balanced 2^d tree whose leaves hold at most ``leaf_side^d`` points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np


@dataclass(frozen=True)
class UniformGrid:
    """Cell-centered tensor grid on [0,1]^d: points ((i+1/2)h, ...), h = 1/n."""

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError("only d = 2 and d = 3 are supported")
        if self.n < 1:
            raise ValueError("n must be positive")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def num_points(self) -> int:
        return self.n**self.d

    def coords1d(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Cell-center coordinates for indices [lo, hi)."""
        if hi is None:
            hi = self.n
        return (np.arange(lo, hi) + 0.5) * self.h

    def points(self, box: "IndexBox") -> np.ndarray:
        """All points of an index box as a (count, d) array, first index
        fastest."""
        axes = [self.coords1d(lo, hi) for lo, hi in box.ranges]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel(order="F") for m in mesh], axis=-1)


@dataclass(frozen=True)
class IndexBox:
    """Product of per-dimension half-open index ranges (0-based)."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for lo, hi in self.ranges:
            if hi <= lo:
                raise ValueError("index ranges must be nonempty")
            if lo < 0:
                raise ValueError("index ranges must be nonnegative")

    @property
    def d(self) -> int:
        return len(self.ranges)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.ranges)

    @property
    def num_points(self) -> int:
        return int(np.prod(self.sizes))

    def linear_indices(self, n: int) -> np.ndarray:
        """Global linear ids (first index fastest) of the box points on an
        n-per-side grid."""
        axes = [np.arange(lo, hi) for lo, hi in self.ranges]
        mesh = np.meshgrid(*axes, indexing="ij")
        lin = np.zeros_like(mesh[0])
        stride = 1
        for m in mesh:
            lin = lin + m * stride
            stride *= n
        return lin.ravel(order="F")


@dataclass(frozen=True)
class DomainBox:
    """Product of per-dimension real intervals."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for a, b in self.intervals:
            if not a < b:
                raise ValueError("intervals must have positive length")

    @property
    def d(self) -> int:
        return len(self.intervals)

    def diameter_sq(self) -> float:
        return float(sum((b - a) ** 2 for a, b in self.intervals))

    def distance_sq(self, other: "DomainBox") -> float:
        total = 0.0
        for (a1, b1), (a2, b2) in zip(self.intervals, other.intervals):
            gap = max(a1 - b2, a2 - b1, 0.0)
            total += gap * gap
        return total

    def overlap_volume(self, other: "DomainBox") -> float:
        vol = 1.0
        for (a1, b1), (a2, b2) in zip(self.intervals, other.intervals):
            length = min(b1, b2) - max(a1, a2)
            if length <= 0.0:
                return 0.0
            vol *= length
        return vol


@dataclass(frozen=True)
class AdmissibilityRule:
    """Weak (zero-volume domain overlap) or strong (well-separated with
    parameter eta) admissibility."""

    kind: str
    eta: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("weak", "strong"):
            raise ValueError("kind must be 'weak' or 'strong'")
        if self.kind == "strong" and not (
            self.eta is not None and math.isfinite(self.eta) and self.eta > 0
        ):
            raise ValueError("strong admissibility needs a finite eta > 0")

    @staticmethod
    def weak() -> "AdmissibilityRule":
        return AdmissibilityRule(kind="weak")

    @staticmethod
    def strong(eta: float) -> "AdmissibilityRule":
        return AdmissibilityRule(kind="strong", eta=eta)


def is_admissible(rule: AdmissibilityRule, btau: DomainBox, bsigma: DomainBox) -> bool:
    """Admissibility of a domain-box pair under the given rule.

    Weak: the boxes may touch but not overlap with positive volume.
    Strong: max diameter <= eta * distance (squared comparison, with an
    ulp-level relative slack so exact-equality configurations such as
    eta = sqrt(d) on unit-gap boxes are classified consistently).
    """
    if rule.kind == "weak":
        return btau.overlap_volume(bsigma) == 0.0
    dist_sq = btau.distance_sq(bsigma)
    diam_sq = max(btau.diameter_sq(), bsigma.diameter_sq())
    return diam_sq <= rule.eta * rule.eta * dist_sq * (1.0 + 1e-12)


@dataclass
class ClusterNode:
    box: IndexBox
    level: int
    children: list = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class ClusterTree:
    grid: UniformGrid
    root: ClusterNode
    leaf_side: int
    depth: int

    def leaves(self) -> Iterator[ClusterNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(reversed(node.children))


def _leaf_side(n: int, leaf_side_max: int) -> int:
    """Side length of the leaf boxes reached by repeated exact halving of n
    until it drops to `leaf_side_max` or below."""
    side = n
    while side > leaf_side_max:
        if side % 2:
            raise ValueError(
                f"grid side {n} cannot be halved evenly down to the leaf "
                f"threshold {leaf_side_max}"
            )
        side //= 2
    return side


def build_cluster_tree(grid: UniformGrid, leaf_side_max: int) -> ClusterTree:
    """Recursive 2^d partition of the full index box, splitting every range at
    its midpoint until a node holds at most ``leaf_side_max^d`` points."""
    if leaf_side_max < 1:
        raise ValueError("leaf threshold must be positive")
    side = _leaf_side(grid.n, leaf_side_max)
    depth = int(round(math.log2(grid.n / side))) if grid.n > side else 0

    def make(box: IndexBox, level: int) -> ClusterNode:
        node = ClusterNode(box=box, level=level)
        if max(box.sizes) <= leaf_side_max:
            return node
        halves = []
        for lo, hi in box.ranges:
            mid = (lo + hi) // 2
            halves.append(((lo, mid), (mid, hi)))
        # fixed child order (ndindex, last dimension fastest) keeps every
        # traversal deterministic
        for combo in np.ndindex(*([2] * box.d)):
            ranges = tuple(halves[dim][combo[dim]] for dim in range(box.d))
            node.children.append(make(IndexBox(ranges), level + 1))
        return node

    root_box = IndexBox(tuple((0, grid.n) for _ in range(grid.d)))
    return ClusterTree(grid=grid, root=make(root_box, 0), leaf_side=side, depth=depth)


def domain_of(grid: UniformGrid, box: IndexBox) -> DomainBox:
    """Computational domain covered by the cells of an index box."""
    for lo, hi in box.ranges:
        if hi > grid.n:
            raise ValueError("index box exceeds the grid")
    return DomainBox(tuple((lo * grid.h, hi * grid.h) for lo, hi in box.ranges))


ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"
INTERNAL = "internal"


@dataclass
class BlockNode:
    tau: ClusterNode
    sigma: ClusterNode
    kind: str
    level: int
    children: list = field(default_factory=list)
    leaf_id: int = -1


@dataclass
class BlockClusterTree:
    grid: UniformGrid
    rule: AdmissibilityRule
    root: BlockNode
    leaves: list  # BlockNode leaves in depth-first order


def build_block_cluster_tree(
    tree: ClusterTree, rule: AdmissibilityRule
) -> BlockClusterTree:
    """Classify index-box pairs starting from (root, root): admissible pairs
    become compressible leaves, leaf pairs become dense leaves, the rest
    recurse over all children pairs."""
    grid = tree.grid
    leaves: list[BlockNode] = []
    # each node meets many partners; compute its domain once
    domains: dict[int, DomainBox] = {}

    def domain(node: ClusterNode) -> DomainBox:
        if id(node) not in domains:
            domains[id(node)] = domain_of(grid, node.box)
        return domains[id(node)]

    def make(tau: ClusterNode, sigma: ClusterNode, level: int) -> BlockNode:
        if is_admissible(rule, domain(tau), domain(sigma)):
            node = BlockNode(tau, sigma, ADMISSIBLE, level, leaf_id=len(leaves))
            leaves.append(node)
            return node
        if tau.is_leaf or sigma.is_leaf:
            # the balanced tree refines both sides in lock-step
            assert tau.is_leaf and sigma.is_leaf
            node = BlockNode(tau, sigma, INADMISSIBLE, level, leaf_id=len(leaves))
            leaves.append(node)
            return node
        node = BlockNode(tau, sigma, INTERNAL, level)
        for schild in sigma.children:
            for tchild in tau.children:
                node.children.append(make(tchild, schild, level + 1))
        return node

    root = make(tree.root, tree.root, 0)
    return BlockClusterTree(grid=grid, rule=rule, root=root, leaves=leaves)
