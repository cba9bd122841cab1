import collections

import numpy as np
import pytest

from htlr import (
    AdmissibilityRule,
    DomainBox,
    IndexBox,
    UniformGrid,
    build_block_cluster_tree,
    build_cluster_tree,
    domain_of,
    is_admissible,
)
from htlr import grids
from htlr.grids import ADMISSIBLE, INADMISSIBLE, _leaf_lattice
from oracle_utils import recursive_block_pairs


def leaf_boxes(tree):
    return [leaf.box for leaf in tree.leaves()]


class TestUniformGrid:
    @pytest.mark.parametrize("n", [64.0, 8.5, True, np.float64(16), "64"])
    def test_non_integer_side_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            UniformGrid(2, n)

    def test_non_integer_dimension_rejected(self):
        with pytest.raises(ValueError, match="d must be an integer"):
            UniformGrid(2.0, 16)

    def test_numpy_integer_side_accepted(self):
        assert UniformGrid(2, np.int64(16)).num_points == 256


class TestIndexBox:
    @pytest.mark.parametrize("ranges", [
        ((0.5, 4.5), (0, 4)), ((0, 4), (0, 4.0)), ((0, True), (0, 4)),
    ])
    def test_non_integer_bound_rejected(self, ranges):
        with pytest.raises(ValueError, match="index box bound must be an integer"):
            IndexBox(ranges)

    def test_numpy_integer_bounds_accepted(self):
        assert IndexBox(((np.int64(0), np.int64(4)), (0, 4))).sizes == (4, 4)

    def test_linear_indices_beyond_the_grid_rejected(self):
        # x index 8 of an n = 8 grid gave the id of (0, y + 1)
        with pytest.raises(ValueError):
            IndexBox(((8, 12), (0, 4))).linear_indices(8)


GUARDS = {
    "dimension": (lambda: UniformGrid(1, 16), "only d = 2 and d = 3 are supported"),
    "side": (lambda: UniformGrid(2, 0), "n must be positive"),
    "empty-range": (lambda: IndexBox(((4, 4), (0, 4))), "index ranges must be nonempty"),
    "negative-range": (lambda: IndexBox(((-4, 0), (0, 4))),
                       "index ranges must be nonnegative"),
    "empty-interval": (lambda: DomainBox(((0.5, 0.5), (0.0, 1.0))),
                       "intervals must have positive length"),
    "rule-kind": (lambda: AdmissibilityRule("strict"), "kind must be 'weak' or 'strong'"),
    "leaf-threshold": (lambda: build_cluster_tree(UniformGrid(2, 16), 0),
                       "leaf threshold must be positive"),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_input_guard_names_the_fault(guard):
    make, message = GUARDS[guard]
    with pytest.raises(ValueError, match=message):
        make()


class TestClusterTree:
    def test_fig_configuration_16_leaves(self):
        # n = 16, 256 points, leaf threshold 16 points (side 4)
        tree = build_cluster_tree(UniformGrid(2, 16), 4)
        leaves = leaf_boxes(tree)
        assert len(leaves) == 16
        assert all(box.sizes == (4, 4) for box in leaves)
        assert tree.depth == 2

    def test_small_grid_single_node(self):
        tree = build_cluster_tree(UniformGrid(2, 4), 4)
        assert tree.root.is_leaf
        assert len(leaf_boxes(tree)) == 1

    def test_n32_gives_64_leaves_at_depth_3(self):
        tree = build_cluster_tree(UniformGrid(2, 32), 4)
        assert len(leaf_boxes(tree)) == 64
        assert tree.depth == 3

    @pytest.mark.parametrize("threshold", [2.5, 4.0, True, np.float64(4)],
                             ids=["2.5", "4.0", "True", "float64"])
    def test_non_integer_threshold_rejected(self, threshold):
        # 2.5 built leaves of side 2, True leaves of side 1
        with pytest.raises(ValueError, match="leaf threshold must be an integer"):
            build_cluster_tree(UniformGrid(2, 16), threshold)
        with pytest.raises(ValueError, match="leaf threshold must be an integer"):
            _leaf_lattice(UniformGrid(2, 16), threshold, AdmissibilityRule.weak())

    def test_numpy_integer_threshold_accepted(self):
        tree = build_cluster_tree(UniformGrid(2, 16), np.int64(4))
        assert len(leaf_boxes(tree)) == 16

    def test_unsplittable_grid_rejected(self):
        with pytest.raises(ValueError):
            build_cluster_tree(UniformGrid(2, 10), 4)  # 10 -> 5, odd and > 4

    def test_power_of_two_grid_with_odd_threshold(self):
        # threshold 5 per side: n = 32 halves down to side 4
        tree = build_cluster_tree(UniformGrid(3, 32), 5)
        assert tree.leaf_side == 4
        assert len(leaf_boxes(tree)) == 8**3

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_leaves_tile_the_grid_exactly_once(self, n):
        grid = UniformGrid(2, n)
        tree = build_cluster_tree(grid, 4)
        covered = np.zeros(grid.num_points, dtype=int)
        for box in leaf_boxes(tree):
            covered[box.linear_indices(n)] += 1
        assert np.all(covered == 1)

    def test_children_partition_parent(self):
        tree = build_cluster_tree(UniformGrid(2, 16), 4)

        def walk(node):
            if node.is_leaf:
                return
            ids = [set(c.box.linear_indices(16)) for c in node.children]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    assert not ids[i] & ids[j]
            union = set().union(*ids)
            assert union == set(node.box.linear_indices(16))
            for c in node.children:
                walk(c)

        walk(tree.root)


class TestDomainOf:
    def test_full_box(self):
        grid = UniformGrid(2, 8)
        box = IndexBox(((0, 8), (0, 8)))
        assert domain_of(grid, box).intervals == ((0.0, 1.0), (0.0, 1.0))

    def test_quarter_box(self):
        grid = UniformGrid(2, 16)
        box = IndexBox(((0, 4), (0, 4)))
        assert domain_of(grid, box).intervals == ((0.0, 0.25), (0.0, 0.25))

    def test_3d_box(self):
        grid = UniformGrid(3, 8)
        box = IndexBox(((4, 8), (0, 4), (0, 4)))
        assert domain_of(grid, box).intervals == (
            (0.5, 1.0),
            (0.0, 0.5),
            (0.0, 0.5),
        )

    def test_box_of_other_dimension_rejected(self):
        with pytest.raises(ValueError, match="3-D index box on a 2-D grid"):
            domain_of(UniformGrid(2, 16), IndexBox(((0, 4),) * 3))


class TestAdmissibility:
    @pytest.mark.parametrize("rule", [AdmissibilityRule.weak(),
                                      AdmissibilityRule.strong(np.sqrt(2.0))],
                             ids=["weak", "strong"])
    def test_boxes_of_different_dimension_rejected(self, rule):
        b2 = DomainBox(((0.0, 0.5), (0.0, 0.5)))
        b3 = DomainBox(((0.5, 1.0), (0.0, 0.5), (0.0, 0.5)))
        with pytest.raises(ValueError, match="dimension 2 and 3"):
            is_admissible(rule, b2, b3)

    def test_weak_identical_boxes(self):
        b = DomainBox(((0.0, 1.0), (0.0, 1.0)))
        assert not is_admissible(AdmissibilityRule.weak(), b, b)

    def test_weak_touching_boxes(self):
        b1 = DomainBox(((0.0, 0.5), (0.0, 0.5)))
        b2 = DomainBox(((0.5, 1.0), (0.0, 0.5)))
        assert is_admissible(AdmissibilityRule.weak(), b1, b2)

    def test_strong_unit_gap(self):
        rule = AdmissibilityRule.strong(np.sqrt(2.0))
        b1 = DomainBox(((0.0, 1.0), (0.0, 1.0)))
        b2 = DomainBox(((2.0, 3.0), (0.0, 1.0)))  # dist 1, diam sqrt(2)
        assert is_admissible(rule, b1, b2)
        b3 = DomainBox(((1.0, 2.0), (0.0, 1.0)))  # adjacent, dist 0
        assert not is_admissible(rule, b1, b3)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_strong_rejects_eta_not_finite_and_positive(self, eta):
        with pytest.raises(ValueError, match="finite eta"):
            AdmissibilityRule.strong(eta)

    def test_weak_rejects_eta(self):
        # AdmissibilityRule(kind="weak", eta=2.0) ignored its eta
        with pytest.raises(ValueError, match="takes no eta"):
            AdmissibilityRule(kind="weak", eta=2.0)
        assert AdmissibilityRule(kind="weak") == AdmissibilityRule.weak()

    def test_strong_monotone_in_eta(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            lo = rng.random(2) * 0.4
            b1 = DomainBox(tuple((lo[i], lo[i] + 0.2) for i in range(2)))
            off = rng.random(2) * 0.6 + 0.2
            b2 = DomainBox(tuple((lo[i] + off[i], lo[i] + off[i] + 0.3)
                                 for i in range(2)))
            eta1 = float(rng.random() * 2 + 0.2)
            eta2 = eta1 + float(rng.random() * 2)
            adm1 = is_admissible(AdmissibilityRule.strong(eta1), b1, b2)
            adm2 = is_admissible(AdmissibilityRule.strong(eta2), b1, b2)
            if adm1:
                assert adm2


class TestBlockClusterTree:
    def setup_method(self):
        self.grid = UniformGrid(2, 16)
        self.tree = build_cluster_tree(self.grid, 4)

    def leaf_level_rows(self, btree):
        """inadmissible-count per leaf-level row box."""
        counts = {}
        for leaf in btree.leaves:
            if leaf.kind != INADMISSIBLE:
                continue
            key = leaf.tau.box.ranges
            counts[key] = counts.get(key, 0) + 1
        return counts

    def test_weak_single_dense_block_per_row(self):
        btree = build_block_cluster_tree(self.tree, AdmissibilityRule.weak())
        counts = self.leaf_level_rows(btree)
        assert len(counts) == 16
        assert all(c == 1 for c in counts.values())

    def test_strong_at_most_nine_dense_blocks_per_row(self):
        rule = AdmissibilityRule.strong(np.sqrt(2.0))
        btree = build_block_cluster_tree(self.tree, rule)
        counts = self.leaf_level_rows(btree)
        assert max(counts.values()) <= 9
        assert max(counts.values()) == 9  # interior rows reach the bound

    def test_tiny_problem_single_dense_root(self):
        grid = UniformGrid(2, 4)
        tree = build_cluster_tree(grid, 4)
        btree = build_block_cluster_tree(tree, AdmissibilityRule.weak())
        assert len(btree.leaves) == 1
        assert btree.leaves[0].kind == INADMISSIBLE

    @pytest.mark.parametrize("n,rule", [
        (8, AdmissibilityRule.weak()),
        (16, AdmissibilityRule.weak()),
        (32, AdmissibilityRule.weak()),
        (16, AdmissibilityRule.strong(np.sqrt(2.0))),
    ])
    def test_leaves_partition_all_index_pairs(self, n, rule):
        grid = UniformGrid(2, n)
        tree = build_cluster_tree(grid, 4)
        btree = build_block_cluster_tree(tree, rule)
        n_pts = grid.num_points
        covered = np.zeros((n_pts, n_pts), dtype=np.int8)
        for leaf in btree.leaves:
            rows = leaf.tau.box.linear_indices(n)
            cols = leaf.sigma.box.linear_indices(n)
            covered[np.ix_(rows, cols)] += 1
        assert np.all(covered == 1)

    def test_weak_admissibility_iff_distinct_at_equal_level(self):
        btree = build_block_cluster_tree(self.tree, AdmissibilityRule.weak())
        for leaf in btree.leaves:
            assert (leaf.kind == ADMISSIBLE) == (leaf.tau.box != leaf.sigma.box)
        pairs = list(recursive_block_pairs(2, 16, 4, AdmissibilityRule.weak()))
        assert collections.Counter(
            (leaf.kind, leaf.tau.box.ranges, leaf.sigma.box.ranges) for leaf in btree.leaves
        ) == collections.Counter(
            (kind, tau, sigma) for _, kind, tau, sigma in pairs if kind != "internal"
        )
        # the recursion refines only pairs of equal boxes
        assert all(tau == sigma for _, kind, tau, sigma in pairs if kind == "internal")

    @pytest.mark.parametrize("rule", [
        AdmissibilityRule.weak(), AdmissibilityRule.strong(np.sqrt(2.0)),
    ], ids=["weak", "strong"])
    def test_leaves_hold_the_cluster_tree_nodes(self, rule):
        nodes, stack = set(), [self.tree.root]
        while stack:
            node = stack.pop()
            nodes.add(id(node))
            stack.extend(node.children)
        btree = build_block_cluster_tree(self.tree, rule)
        for leaf in btree.leaves:
            assert {id(leaf.tau), id(leaf.sigma)} <= nodes
            assert leaf.tau.level == leaf.sigma.level == leaf.level
            if leaf.kind == INADMISSIBLE:
                assert leaf.tau.is_leaf and leaf.sigma.is_leaf

    def test_weak_rule_exhaustive_over_equal_levels(self):
        # all node pairs at equal depth: admissible exactly when distinct
        rule = AdmissibilityRule.weak()
        by_level = {}

        def collect(node):
            by_level.setdefault(node.level, []).append(node)
            for c in node.children:
                collect(c)

        collect(self.tree.root)
        for nodes in by_level.values():
            for a in nodes:
                for b in nodes:
                    adm = is_admissible(
                        rule,
                        domain_of(self.grid, a.box),
                        domain_of(self.grid, b.box),
                    )
                    assert adm == (a.box != b.box)


def oracle_leaves(grid, leaf_side, rule):
    """(level, kind, tau ranges, sigma ranges) of the recursion's leaves, in
    its depth-first order."""
    return [pair for pair in recursive_block_pairs(grid.d, grid.n, leaf_side, rule)
            if pair[1] != "internal"]


def lattice_leaves(grid, leaf_side, rule):
    leaves = _leaf_lattice(grid, leaf_side, rule)
    out = []
    for level, admissible, tau, sigma in zip(*leaves[:4]):
        side = grid.n >> int(level)
        out.append((
            int(level),
            ADMISSIBLE if admissible else INADMISSIBLE,
            tuple((int(c) * side, (int(c) + 1) * side) for c in tau),
            tuple((int(c) * side, (int(c) + 1) * side) for c in sigma),
        ))
    return out


class TestLeafLattice:
    """The lattice enumeration gives the leaves of the recursive block tree
    construction, level by level, and within a level in the recursion's
    depth-first order."""

    CASES = {
        "2d-weak": (UniformGrid(2, 32), 4, AdmissibilityRule.weak()),
        # eta = sqrt(d): boxes one box apart are admissible by exact equality
        "2d-strong-sqrt2": (UniformGrid(2, 32), 4, AdmissibilityRule.strong(np.sqrt(2.0))),
        "3d-weak": (UniformGrid(3, 16), 4, AdmissibilityRule.weak()),
        "3d-strong-sqrt3": (UniformGrid(3, 16), 2, AdmissibilityRule.strong(np.sqrt(3.0))),
        "single-leaf-weak": (UniformGrid(2, 16), 16, AdmissibilityRule.weak()),
        "single-leaf-strong": (UniformGrid(3, 8), 8, AdmissibilityRule.strong(1.0)),
        "2d-n56-leaf-side-7": (UniformGrid(2, 56), 8, AdmissibilityRule.weak()),
        "2d-n48-leaf-side-12": (UniformGrid(2, 48), 16, AdmissibilityRule.strong(np.sqrt(2.0))),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_block_tree_leaves(self, case):
        grid, leaf_side, rule = self.CASES[case]
        expected = oracle_leaves(grid, leaf_side, rule)
        got = lattice_leaves(grid, leaf_side, rule)
        assert collections.Counter(got) == collections.Counter(expected)
        levels = [level for level, _, _, _ in got]
        assert levels == sorted(levels)
        for level in set(levels):
            assert ([leaf for leaf in got if leaf[0] == level]
                    == [leaf for leaf in expected if leaf[0] == level])
        if case.startswith("2d-strong"):
            kinds = {kind for _, kind, _, _ in expected}
            assert kinds == {ADMISSIBLE, INADMISSIBLE}

    @pytest.mark.parametrize("case", ["2d-strong-sqrt2", "3d-weak"])
    def test_admissibility_once_per_level_and_offset(self, case, monkeypatch):
        grid, leaf_side, rule = self.CASES[case]
        offsets = {
            (level, tuple(s - t for (s, _), (t, _) in zip(sigma, tau)))
            for level, _, tau, sigma in recursive_block_pairs(grid.d, grid.n, leaf_side, rule)
        }
        calls = []
        original = grids.is_admissible

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(grids, "is_admissible", counting)
        _leaf_lattice(grid, leaf_side, rule)
        assert len(calls) == len(offsets)
