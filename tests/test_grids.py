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
from htlr.grids import ADMISSIBLE, INADMISSIBLE


def leaf_boxes(tree):
    return [leaf.box for leaf in tree.leaves()]


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


class TestAdmissibility:
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

        def walk(node):
            if node.kind == ADMISSIBLE:
                assert node.tau.box != node.sigma.box
            elif node.kind == INADMISSIBLE:
                assert node.tau.box == node.sigma.box
            for c in node.children:
                walk(c)

        walk(btree.root)

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
