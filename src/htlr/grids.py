"""Uniform tensor grids, cluster trees and block cluster trees.

The grid covers the unit box [0,1]^d with n cell-centered points per
direction.  Index boxes are Cartesian products of half-open 0-based index
ranges; the cluster tree splits every range at its midpoint, producing a
balanced 2^d tree whose leaves hold at most ``leaf_side^d`` points.

Every box of tree level l is a cube of side n / 2**l at a multiple of that
side, so a box is its integer coordinates on the level's box lattice, and
the leaves of the block cluster tree are pairs of lattice points.
:func:`_leaf_lattice` enumerates them as integer arrays, level by level;
whether a pair is admissible depends only on its level and the offset
between its boxes.  It is the one enumerator of the leaves: the build reads
its arrays, and :func:`build_block_cluster_tree` gives the tree as the
partition its leaves form (W. Hackbusch, *Hierarchical Matrices*, Springer
2015), each leaf holding the cluster tree's own nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import numpy as np


def _check_int(name: str, value) -> None:
    """Reject a size that is not an integer (a bool is not one either)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class UniformGrid:
    """Cell-centered tensor grid on [0,1]^d: points ((i+1/2)h, ...), h = 1/n."""

    d: int
    n: int

    def __post_init__(self):
        _check_int("d", self.d)
        if self.d not in (2, 3):
            raise ValueError("only d = 2 and d = 3 are supported")
        _check_int("n", self.n)
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
            _check_int("index box bound", lo)
            _check_int("index box bound", hi)
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
        n-per-side grid; a box beyond the grid is rejected."""
        axes = [np.arange(lo, hi) for lo, hi in self.ranges]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.ravel_multi_index(mesh, (n,) * self.d, order="F").ravel(order="F")


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

    def _interval_pairs(self, other: "DomainBox"):
        """The two boxes' intervals, dimension by dimension; boxes of
        different dimension are rejected instead of compared on the
        dimensions they share."""
        if other.d != self.d:
            raise ValueError(f"boxes of dimension {self.d} and {other.d}")
        return zip(self.intervals, other.intervals)

    def distance_sq(self, other: "DomainBox") -> float:
        total = 0.0
        for (a1, b1), (a2, b2) in self._interval_pairs(other):
            gap = max(a1 - b2, a2 - b1, 0.0)
            total += gap * gap
        return total

    def overlap_volume(self, other: "DomainBox") -> float:
        vol = 1.0
        for (a1, b1), (a2, b2) in self._interval_pairs(other):
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
        if self.kind == "weak" and self.eta is not None:
            raise ValueError("weak admissibility takes no eta")

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
    if box.d != grid.d:
        raise ValueError(f"a {box.d}-D index box on a {grid.d}-D grid")
    for lo, hi in box.ranges:
        if hi > grid.n:
            raise ValueError("index box exceeds the grid")
    return DomainBox(tuple((lo * grid.h, hi * grid.h) for lo, hi in box.ranges))


ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"


@dataclass
class BlockNode:
    tau: ClusterNode
    sigma: ClusterNode
    kind: str
    level: int
    leaf_id: int


@dataclass
class BlockClusterTree:
    grid: UniformGrid
    rule: AdmissibilityRule
    leaves: list  # BlockNode leaves, level by level


def build_block_cluster_tree(
    tree: ClusterTree, rule: AdmissibilityRule
) -> BlockClusterTree:
    """The block cluster tree of `tree` under `rule`, given by its leaves:
    the pairs of :func:`_leaf_lattice`, in its order, each holding the
    tree's own target (tau) and source (sigma) nodes."""
    nodes, stack = {}, [tree.root]
    while stack:
        node = stack.pop()
        side = node.box.sizes[0]
        nodes[node.level, tuple(lo // side for lo, _ in node.box.ranges)] = node
        stack.extend(node.children)
    lattice = _leaf_lattice(tree.grid, tree.leaf_side, rule)
    leaves = [
        BlockNode(nodes[level, tuple(tau)], nodes[level, tuple(sigma)],
                  ADMISSIBLE if admissible else INADMISSIBLE, level, leaf_id)
        for leaf_id, (level, admissible, tau, sigma) in enumerate(zip(
            *(column.tolist() for column in lattice[:4])))
    ]
    return BlockClusterTree(grid=tree.grid, rule=rule, leaves=leaves)


class _Leaves(NamedTuple):
    """Block cluster tree leaves, level by level, one entry per leaf: the
    level, whether the leaf is admissible, the target (tau) and source
    (sigma) box coordinates, (leaves, d) on the level's box lattice, and an
    id numbering the distinct (level, source-minus-target offset) pairs."""

    level: np.ndarray
    admissible: np.ndarray
    tau: np.ndarray
    sigma: np.ndarray
    offset_id: np.ndarray


def _lattice_box(coords, side: int) -> IndexBox:
    """The index box of side `side` at integer box coordinates `coords`."""
    return IndexBox(tuple((int(c) * side, (int(c) + 1) * side) for c in coords))


def _leaf_lattice(
    grid: UniformGrid, leaf_side_max: int, rule: AdmissibilityRule
) -> _Leaves:
    """The leaves of the block cluster tree of the grid's cluster tree, as
    integer arrays, without building either tree.

    Level by level, the candidate pairs are the children (2t + a, 2s + b) of
    the previous level's inadmissible pairs (t, s), sigma's child outer and
    tau's inner, in :func:`build_cluster_tree`'s child order.  So within a
    level the pairs come in the depth-first order in which a recursion from
    (root, root) would visit them.
    :func:`is_admissible` runs once per distinct offset s - t of a level, on
    its first pair; the admissible pairs are leaves, and so are all pairs of
    the last level."""
    d = grid.d
    depth = int(grid.n // _leaf_side(grid.n, leaf_side_max)).bit_length() - 1
    children = np.array(list(np.ndindex(*(2,) * d)))
    k = len(children)
    tau = sigma = np.zeros((1, d), dtype=np.int64)
    found, ids = [], 0
    for level in range(depth + 1):
        side, boxes = grid.n >> level, 1 << level
        # the offset as one integer, each coordinate in [1 - boxes, boxes - 1]
        code = (sigma - tau + boxes - 1) @ (2 * boxes - 1) ** np.arange(d)
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        admissible = np.array([
            is_admissible(rule, domain_of(grid, _lattice_box(tau[i], side)),
                          domain_of(grid, _lattice_box(sigma[i], side)))
            for i in first
        ], dtype=bool)[inverse]
        leaf = admissible | (level == depth)
        found.append((np.full(leaf.sum(), level), admissible[leaf], tau[leaf],
                      sigma[leaf], ids + inverse[leaf]))
        ids += len(first)
        tau, sigma = tau[~leaf], sigma[~leaf]
        shape = (len(tau), k, k, d)
        tau = np.broadcast_to(2 * tau[:, None, None] + children, shape).reshape(-1, d)
        sigma = np.broadcast_to(
            2 * sigma[:, None, None] + children[:, None], shape).reshape(-1, d)
    return _Leaves(*map(np.concatenate, zip(*found)))
