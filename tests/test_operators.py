import collections
import dataclasses
import gc
import itertools
import multiprocessing
import os
import re
import sys
import threading
import tracemalloc
import types
import warnings
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from htlr import (
    AdmissibilityRule,
    BuildConfig,
    CoefficientFn,
    IndexBox,
    QuadratureConfig,
    UniformGrid,
    build_dense,
    build_lowrank,
    build_tlr,
    construct,
    construct_hmatrix,
    custom,
    dense_assemble,
    estimate_rel_error_random,
    exact_row_evaluator,
    gaussian,
    materialize,
    matvec,
    operation_counts,
    slp_2d,
    slp_3d,
    storage_report,
)
from htlr import blocks, grids, kernels, operators
from htlr.blocks import DenseBlock, TuckerBlock
from htlr.operators import DegenerateErrorEstimate, TranslationClass
from oracle_utils import recursive_block_pairs


def zero_kernel():
    return custom(lambda x, y: np.zeros(np.broadcast(x, y).shape[:-1]))


def weak_gaussian_cfg(rank=8, leaf=16):
    return BuildConfig(
        rank=rank, leaf_side=leaf, rule=AdmissibilityRule.weak(),
        kernel=gaussian(np.sqrt(2.0)), coeff=CoefficientFn.constant(0.0),
    )


def split_side(cfg) -> int:
    """The side above which the build splits a box pair: the configured
    leaf side, raised to twice the rank."""
    return max(cfg.leaf_side, 2 * cfg.rank)


def tree_leaves(grid, cfg) -> dict:
    """The kind, "admissible" or "inadmissible", of every leaf (tau, sigma)
    of the recursive block tree construction, keyed by its index boxes."""
    return {(IndexBox(tau), IndexBox(sigma)): kind for _, kind, tau, sigma in
            recursive_block_pairs(grid.d, grid.n, split_side(cfg), cfg.rule)
            if kind != "internal"}


def interpolates_self(cfg, grid) -> bool:
    """Whether the build stores the last level's self pair as a Tucker
    block: of a kernel of |x - y| smooth at x = y, under the weak rule, in a
    tree of three levels or more, at a rank of 3 or more, on a leaf box no
    wider than sigma."""
    side, depth = grid.n, 0
    while side > split_side(cfg):
        side, depth = side // 2, depth + 1
    return (cfg.rule.kind == "weak" and cfg.kernel.translation_invariant
            and cfg.kernel.smooth_at_diagonal and depth >= 2 and cfg.rank >= 3
            and side * grid.h <= cfg.kernel.sigma)


def stored_kinds(grid, cfg) -> dict:
    """The kind the build stores every leaf (tau, sigma) of the recursive
    block tree construction as, "tucker" or "dense", keyed by its index
    boxes: every admissible leaf is Tucker, and so is a self pair where the
    build interpolates it (interpolates_self)."""
    smooth = interpolates_self(cfg, grid)
    return {(tau, sigma): "tucker" if kind == "admissible" or (smooth and tau == sigma)
            else "dense" for (tau, sigma), kind in tree_leaves(grid, cfg).items()}


def pair_block(build_admissible, cfg, grid, tau, sigma):
    """The block `build_admissible` (build_tlr or build_lowrank) gives the
    pair, and for a self pair, which both reject, the one the level batch
    of blocks._tucker_blocks gives it, with the low-rank builder's bases."""
    if tau != sigma:
        return build_admissible(cfg.kernel, grid, tau, sigma, cfg.rank, grid.h)
    ranges = np.array([tau.ranges])
    block = blocks._tucker_blocks(cfg.kernel, grid, ranges, ranges, cfg.rank, grid.h)[0]
    if build_admissible is build_lowrank:
        block = blocks._lowrank(block, blocks._kron_basis(block.u_factors),
                                blocks._kron_basis(block.v_factors))
    return block


def self_shift(cfg, grid) -> float:
    """What the build adds to the diagonal where it interpolates the self
    pair, whose interpolant gives K(0) h^d on the diagonal: the cell
    average of the kernel, less K(0), times h^d; else 0."""
    if not interpolates_self(cfg, grid):
        return 0.0
    origin = np.zeros((1, grid.d))
    average = kernels.diagonal_entry(cfg.kernel, origin[0], grid.h, cfg.quadrature)
    return (average - kernels.pairwise(cfg.kernel, origin, origin)[0, 0]) * grid.h**grid.d


def leaf_payloads(op):
    """(tau, sigma, payload) of every leaf of every class, class by class:
    the leaf's index boxes and its class's payload."""
    d = op.grid.d
    for group in op.groups:
        boxes = op.grid.n // group.side
        ids = np.arange(boxes**d)

        def box(i):
            coords = (i // boxes ** np.arange(d)) % boxes
            return IndexBox(tuple((c * group.side, (c + 1) * group.side)
                                  for c in coords.tolist()))

        for cls in group.classes:
            for t, s in zip(ids[cls.targets].tolist(), ids[cls.sources].tolist()):
                yield box(t), box(s), cls.payload


def block_of(matrix, grid, tau, sigma):
    """The rows of box tau and the columns of box sigma of a grid matrix."""
    return matrix[np.ix_(tau.linear_indices(grid.n), sigma.linear_indices(grid.n))]


def assert_every_leaf_matches_dense(cfg, grid):
    """The classes' leaves are the tree's: Tucker leaves within 1e-9
    relative of the dense oracle entry by entry (an interpolated self pair
    with the diagonal's shift added), dense leaves bit-equal to it, or
    within 1e-15 relative when stored as parity sectors."""
    op = construct(cfg, grid)
    dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
    kinds = stored_kinds(grid, cfg)
    for tau, sigma, payload in leaf_payloads(op):
        sub = block_of(dense.matrix, grid, tau, sigma)
        rec = materialize(payload)
        if kinds.pop((tau, sigma)) == "tucker":
            if tau == sigma:
                rec = rec + self_shift(cfg, grid) * np.eye(len(rec))
            assert (np.abs(rec - sub) / np.abs(sub)).max() <= 1e-9
        elif payload.dims:
            assert np.abs(rec - sub).max() <= 1e-15 * np.abs(sub).max()
        else:
            assert np.array_equal(rec, sub)
    assert not kinds


class TestBuildConfig:
    """The build, not the configuration, checks the leaf side against the
    recommended range [rank, 2*rank]: the side the cluster tree reaches,
    which is above the rank, as the build splits no pair of side 2*rank or
    less; so it warns above 2*rank only."""

    def test_leaf_side_outside_recommended_range_warns(self):
        cfg = weak_gaussian_cfg(rank=4, leaf=16)
        with pytest.warns(UserWarning, match="leaf side 16 outside the recommended range"):
            construct(cfg, UniformGrid(2, 32))

    def test_recommended_range_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            construct(weak_gaussian_cfg(rank=8, leaf=16), UniformGrid(2, 32))

    def test_config_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rank, leaf in ((4, 16), (8, 8), (8, 20), (8, 2)):
                weak_gaussian_cfg(rank=rank, leaf=leaf)

    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_threshold_below_twice_the_rank_is_raised(self, build):
        # threshold 8 is below 2*rank = 16: 56 halves to leaves of side 14,
        # not 7, in the operator and in its block tree alike
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = build(weak_gaussian_cfg(rank=8, leaf=8), UniformGrid(2, 56))
        assert min(group.side for group in op.groups) == 14
        assert {max(leaf.tau.box.sizes) for leaf in op.block_tree.leaves} == {14, 28}

    # threshold 20 is above 2*rank, but 48 halves to leaves of side 12; a
    # one-leaf tree is all dense
    @pytest.mark.parametrize("n, leaf", [(48, 20), (32, 32)],
                             ids=["reached-side-12", "single-leaf"])
    def test_reached_side_in_range_silent(self, n, leaf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            construct(weak_gaussian_cfg(rank=8, leaf=leaf), UniformGrid(2, n))

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            BuildConfig(rank=0, leaf_side=16, rule=AdmissibilityRule.weak(),
                        kernel=gaussian(1.0), coeff=CoefficientFn.constant(0.0))

    def test_invalid_leaf_side(self):
        with pytest.raises(ValueError, match="leaf side"):
            BuildConfig(rank=4, leaf_side=0, rule=AdmissibilityRule.weak(),
                        kernel=gaussian(1.0), coeff=CoefficientFn.constant(0.0))

    def test_numpy_integer_sizes_accepted(self):
        cfg = weak_gaussian_cfg(rank=np.int64(8), leaf=np.int32(16))
        op = construct(cfg, UniformGrid(2, np.int64(64)))
        expected = construct(weak_gaussian_cfg(), UniformGrid(2, 64))
        assert storage_report(op) == storage_report(expected)
        u = np.random.default_rng(52).standard_normal(64 * 64)
        assert np.array_equal(matvec(op, u), matvec(expected, u))

    @pytest.mark.parametrize("field", ["rank", "leaf_side"])
    @pytest.mark.parametrize("value", [8.5, 8.0, True])
    def test_non_integer_size_rejected(self, field, value):
        sizes = {"rank": 8, "leaf_side": 16, field: value}
        name = field.replace("_", " ")
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            BuildConfig(**sizes, rule=AdmissibilityRule.weak(),
                        kernel=gaussian(1.0), coeff=CoefficientFn.constant(0.0))


class TestConstruct:
    def test_single_leaf_equals_dense_oracle(self):
        grid = UniformGrid(2, 4)
        cfg = BuildConfig(rank=4, leaf_side=4, rule=AdmissibilityRule.weak(),
                          kernel=gaussian(np.sqrt(2.0)),
                          coeff=CoefficientFn.constant(0.0))
        op = construct(cfg, grid)
        (payload,) = [block for _, _, block in leaf_payloads(op)]
        assert isinstance(payload, DenseBlock)
        dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
        assert np.array_equal(payload.matrix, dense.matrix)

    def test_identity_operator(self):
        grid = UniformGrid(2, 32)
        cfg = BuildConfig(rank=8, leaf_side=16, rule=AdmissibilityRule.weak(),
                          kernel=zero_kernel(),
                          coeff=CoefficientFn.constant(1.0))
        op = construct(cfg, grid)
        rng = np.random.default_rng(35)
        u = rng.standard_normal(grid.num_points)
        assert np.abs(matvec(op, u) - u).max() <= 1e-14

    def test_every_leaf_matches_dense_oracle(self):
        assert_every_leaf_matches_dense(weak_gaussian_cfg(), UniformGrid(2, 64))

    def test_diagonal_quadrature_runs_once(self, monkeypatch):
        from htlr import kernels

        calls = []
        original = kernels._cell_averages

        def counting(*args):
            calls.append(args)
            return original(*args)

        # the one quadrature of the self entries
        monkeypatch.setattr(kernels, "_cell_averages", counting)
        kernels._origin_entry.cache_clear()
        cfg = BuildConfig(
            rank=4, leaf_side=8, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
            kernel=slp_2d(), coeff=CoefficientFn.constant(0.0),
        )
        for _ in range(2):
            op = construct(cfg, UniformGrid(2, 32))
        assert operation_counts(op)["dense_leaves"] > 16
        assert len(calls) == 1


def translation_classes(op) -> int:
    """Distinct (box sizes, source-minus-target offset) of the tree's
    leaves."""
    return len({
        (tau.sizes, sigma.sizes,
         tuple(s - t for (s, _), (t, _) in zip(sigma.ranges, tau.ranges)))
        for tau, sigma in tree_leaves(op.grid, op.config)
    })


def per_leaf_matvec(op, build_admissible, u):
    """The operator's kernel part rebuilt leaf by leaf of the tree, applied
    to u, with the diagonal's shift where the self pair is interpolated."""
    cfg, grid = op.config, op.grid
    f = self_shift(cfg, grid) * u
    for (tau, sigma), kind in stored_kinds(grid, cfg).items():
        if kind == "tucker":
            block = pair_block(build_admissible, cfg, grid, tau, sigma)
        else:
            block = build_dense(cfg.kernel, grid, tau, sigma, cfg.quadrature)
        cols = sigma.linear_indices(grid.n)
        f[tau.linear_indices(grid.n)] += materialize(block) @ u[cols]
    return f


def non_stationary_cfg():
    return BuildConfig(
        rank=8, leaf_side=16, rule=AdmissibilityRule.weak(),
        kernel=custom(lambda x, y: (1.0 + x[..., 0])
                      * np.exp(-0.25 * np.sum((x - y) ** 2, axis=-1))),
        coeff=CoefficientFn.constant(0.0),
    )


BUILDS = pytest.mark.parametrize("build,build_admissible", [
    (construct, build_tlr), (construct_hmatrix, build_lowrank),
], ids=["tucker", "lowrank"])


class TestClassSharing:
    """Leaves of one translation class share one payload when the kernel is
    translation invariant, and only then; payloads on boxes of one side share
    their factors whatever the kernel."""

    CASES = {
        "2d-weak-gaussian": (UniformGrid(2, 64), weak_gaussian_cfg(rank=4, leaf=8)),
        # a configured leaf side of p: the build splits no pair of side 2p,
        # so the leaves are of side 8 and the self class is in parity
        # sectors, one stored per number of odd dimensions (a tree of two
        # levels, where the Gaussian's self pair is not interpolated)
        "3d-leaf-side-p": (UniformGrid(3, 16), BuildConfig(
            rank=4, leaf_side=4, rule=AdmissibilityRule.weak(),
            kernel=gaussian(np.sqrt(3.0)), coeff=CoefficientFn.constant(0.0),
        )),
        # three levels, leaves of side 6: the Gaussian's self pair is
        # interpolated, and the factored group goes by orbit
        "3d-n24-leaf-side-6": (UniformGrid(3, 24), BuildConfig(
            rank=4, leaf_side=4, rule=AdmissibilityRule.weak(),
            kernel=gaussian(np.sqrt(3.0)), coeff=CoefficientFn.constant(0.0),
        )),
        # strong admissibility: dense classes off the diagonal as well,
        # whose turned classes in sectors fold (56 boxes, 64 points)
        "2d-strong-slp": (UniformGrid(2, 64), BuildConfig(
            rank=4, leaf_side=8, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
            kernel=slp_2d(), coeff=CoefficientFn.constant(0.0),
        )),
        # and whose turned classes in sectors do not fold (56 boxes, 16
        # points)
        "2d-strong-slp-p2": (UniformGrid(2, 32), BuildConfig(
            rank=2, leaf_side=4, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
            kernel=slp_2d(), coeff=CoefficientFn.constant(0.0),
        )),
        # leaf side 12, not a power of two
        "2d-n48-leaf16": (UniformGrid(2, 48), weak_gaussian_cfg()),
        # a configured leaf side 4, below the rank 8: raised to 2p = 16, so
        # 56 halves to leaves of side 14
        "2d-n56-leaf-side-below-rank": (UniformGrid(2, 56), weak_gaussian_cfg(leaf=4)),
    }
    # the matvec also on a kernel without classes and on a one-leaf grid
    MATVEC_CASES = {
        **CASES,
        "2d-non-stationary": (UniformGrid(2, 64), non_stationary_cfg()),
        "single-leaf": (UniformGrid(2, 16), weak_gaussian_cfg()),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @BUILDS
    def test_one_payload_per_class(self, case, build, build_admissible):
        grid, cfg = self.CASES[case]
        op = build(cfg, grid)
        payloads = [block for _, _, block in leaf_payloads(op)]
        assert len({id(block) for block in payloads}) == translation_classes(op)
        assert len(payloads) > translation_classes(op)

        rep = storage_report(op)
        per_leaf = np.sum([block.scalars() for block in payloads], axis=0)
        assert (rep.dense_scalars, rep.factor_scalars, rep.core_scalars) == tuple(per_leaf)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_payloads_view_lists_each_class_once_per_leaf(self, case, build):
        """`op.payloads`, the per-leaf inspection view: a tuple with one
        entry per leaf of the tree, holding each class's payload once per
        leaf of the class, whose scalars sum to the stored total."""
        grid, cfg = self.CASES[case]
        op = build(cfg, grid)
        payloads = op.payloads
        assert len(payloads) == len(tree_leaves(grid, cfg))
        assert (collections.Counter(map(id, payloads))
                == collections.Counter(id(block) for _, _, block in leaf_payloads(op)))
        assert storage_report(op).total_scalars == sum(sum(p.scalars()) for p in payloads)
        # a view, not the operator's storage: writing into it raises
        with pytest.raises(TypeError):
            payloads[0] = payloads[-1]

    @pytest.mark.parametrize("case", sorted(MATVEC_CASES))
    @BUILDS
    def test_matvec_matches_per_leaf(self, case, build, build_admissible):
        grid, cfg = self.MATVEC_CASES[case]
        op = build(cfg, grid)
        u = np.random.default_rng(46).standard_normal(grid.num_points)
        expected = per_leaf_matvec(op, build_admissible, u)
        assert np.abs(matvec(op, u) - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_leaves_are_wider_than_the_rank(self, case, build):
        """On a grid wider than 2p every leaf of the cluster tree has a side
        in (p, max(leaf side, 2p)], as the build splits no pair of side 2p
        or less: so every leaf of the block tree is wider than the rank, and
        no admissible leaf is dense; nor is the self pair where the build
        interpolates it."""
        grid, cfg = self.CASES[case]
        assert grid.n > 2 * cfg.rank
        op = build(cfg, grid)
        kinds, sides = stored_kinds(grid, cfg), set()
        for tau, sigma, block in leaf_payloads(op):
            sides.add(tau.sizes[0])
            assert isinstance(block, DenseBlock) == (kinds[tau, sigma] == "dense")
        assert cfg.rank < min(sides) <= split_side(cfg)

    def test_non_stationary_custom_kernel_builds_per_leaf(self):
        grid, cfg = UniformGrid(2, 64), non_stationary_cfg()
        assert_every_leaf_matches_dense(cfg, grid)
        # every leaf is a class of its own
        op = construct(cfg, grid)
        assert sum(len(group.classes) for group in op.groups) == len(tree_leaves(grid, cfg))

    @pytest.mark.parametrize("case", sorted(CASES))
    @BUILDS
    def test_mirrored_classes_share_one_payload(self, case, build, build_admissible):
        """A kernel of |x - y| holds one payload per orbit of offsets under
        reflections and permutations of the dimensions (orbit_key), in
        parity sectors or not: every class of an orbit holds the memory of
        one stored array.  A class and its
        opposite that hold no turn are each other's transposed view, bit
        for bit; a Tucker payload's materialize() contracts its core in the
        other mode order, so it is the transpose of its mirror's to
        rounding only.  test_every_class_matches_its_own_pair checks the
        turned ones."""
        grid, cfg = self.CASES[case]
        payload_at = {(side, offset): cls.payload
                      for side, offset, cls in class_offsets(build(cfg, grid))}
        orbits = collections.defaultdict(list)
        for (side, offset), payload in payload_at.items():
            orbits[orbit_key(side, offset, payload)].append(payload)
        assert len(orbits) < len(payload_at)
        for members in orbits.values():
            stored = [payload.arrays()[0] for payload in members]
            assert all(np.shares_memory(a, stored[0]) for a in stored)
            assert all(not a.flags.writeable for a in stored)
        # one stored array per orbit (a level's cores are views of one
        # buffer)
        assert len({p.arrays()[0].ctypes.data for p in payload_at.values()}) == len(orbits)
        turned = 0
        for (side, offset), payload in payload_at.items():
            mirror = payload_at[side, tuple(-o for o in offset)]
            turned += bool(payload.turn)
            if not any(offset) or payload.turn or mirror.turn:
                continue
            assert type(mirror) is type(payload)
            stored, mirror_stored = payload.arrays()[0], mirror.arrays()[0]
            if isinstance(payload, DenseBlock):
                # each parity sector transposed, in the same dimensions
                assert np.array_equal(stored, mirror_stored.transpose(0, 2, 1))
                assert mirror.dims == payload.dims
            else:
                assert np.array_equal(payload.core_matrix, mirror.core_matrix.T)
            full, mirror_full = payload.materialize(), mirror.materialize()
            if isinstance(payload, DenseBlock) and not payload.dims:
                assert np.array_equal(full, mirror_full.T)
            else:
                assert np.abs(full - mirror_full.T).max() <= 4e-15 * np.abs(full).max()
        # an orbit of more than a pair of opposite offsets holds turned
        # classes, in sectors too where any is off the diagonal: under the
        # strong rule, as the weak one keeps only the self class dense
        assert (turned > 0) == any(len(members) > 2 for members in orbits.values())
        assert (any(p.turn for p in payload_at.values() if getattr(p, "dims", ()))
                == (cfg.rule.kind == "strong"))

    @pytest.mark.parametrize("case", sorted(CASES))
    @BUILDS
    def test_every_class_matches_its_own_pair(self, case, build, build_admissible):
        """Every class's effective core (Tucker) or block (dense) is the one
        built directly for its first leaf's pair, within 1e-14 relative, as
        a turn moves the kernel's arguments and the rounding of their
        distance, and parity sectors the rounding of the block: bit for bit
        where the class holds neither.  So is its product, by the steps
        fixed at build: a turned class in sectors turns and folds the rows,
        or materializes its block turned, in the 2D strong cases.  A turned
        class's kind fixes the route of every other turned class: a Tucker
        class multiplies by its core turned, and a plain dense class, as
        the strong rule's corner classes are, turns its rows."""
        grid, cfg = self.CASES[case]
        op = build(cfg, grid)
        turned, routes, plain = 0, set(), 0
        for tau, sigma, payload in first_leaves(op):
            if isinstance(payload, DenseBlock):
                got = payload.materialize()
                expected = build_dense(cfg.kernel, grid, tau, sigma, cfg.quadrature).matrix
            else:
                got = effective_core(payload)
                expected = pair_block(build_admissible, cfg, grid, tau, sigma).core_matrix
            turned += bool(payload.turn)
            if payload.turn or getattr(payload, "dims", ()):
                assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
            else:
                assert np.array_equal(got, expected)
            rows = np.random.default_rng(71).standard_normal((3, expected.shape[1]))
            exact = rows @ expected.T
            assert np.abs(payload.product(rows) - exact).max() <= 1e-14 * np.abs(exact).max()
            if payload.turn and getattr(payload, "dims", ()):
                routes.add(payload.folds)
            elif payload.turn:
                assert (payload.fold(rows) is rows) == isinstance(payload, TuckerBlock)
                plain += isinstance(payload, DenseBlock)
        assert turned > 0 and (plain > 0) == (cfg.rule.kind == "strong")
        assert routes == {"2d-strong-slp": {True}, "2d-strong-slp-p2": {False}}.get(case, set())

    @BUILDS
    def test_non_symmetric_custom_kernel_has_no_mirrors(self, build, build_admissible):
        grid = UniformGrid(2, 32)
        cfg = BuildConfig(
            rank=6, leaf_side=8, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
            kernel=custom(lambda x, y: np.exp(-np.sum((x - y) ** 2, axis=-1))
                          * (1.0 + x[..., 0])),
            coeff=CoefficientFn.constant(0.0),
        )
        op = build(cfg, grid)
        classes = [cls for group in op.groups for cls in group.classes]
        buffers = {cls.payload.arrays()[0].ctypes.data for cls in classes}
        assert len(buffers) == len(classes) == len(tree_leaves(grid, cfg))
        assert not any(cls.payload.turn for cls in classes)
        dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
        u = np.random.default_rng(53).standard_normal(grid.num_points)
        expected = dense.matrix @ u
        # measured 3.5e-8 for both builders
        assert np.linalg.norm(matvec(op, u) - expected) <= 1e-7 * np.linalg.norm(expected)

    @pytest.mark.parametrize("case", ["2d-weak-gaussian", "2d-non-stationary"])
    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_factors_shared_per_side(self, case, build):
        grid, cfg = self.MATVEC_CASES[case]
        op = build(cfg, grid)
        by_side = collections.defaultdict(list)
        kinds = stored_kinds(grid, cfg)
        for tau, sigma, block in leaf_payloads(op):
            if kinds[tau, sigma] == "tucker":
                by_side[tau.sizes[0]] += [block.u_factors, block.v_factors]
        assert len(by_side) > 1
        for factors in by_side.values():
            assert all(f is g for fs in factors for f, g in zip(fs, factors[0]))
        # one factor group per Tucker side, plus the custom kernel's dense
        # one: this Gaussian's self pairs are Tucker
        assert len(op.groups) == len(by_side) + (case == "2d-non-stationary")

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_matvec_applies_each_class_once(self, case, build, monkeypatch):
        """Per matvec: one core application per class of a group that goes
        by class, and one per orbit of a group that goes by orbit, whose
        rows are its classes; one projection and one
        expansion per group, through its maps.  Every factored group is on
        one chain of doubling sides; for both builders the chain's first
        group maps through the box factor of its side per dimension (for
        Tucker payloads, their own factors), every later group through the
        transfers."""
        from htlr import blocks, operators

        grid, cfg = self.CASES[case]
        op = build(cfg, grid)
        nested = [chain for chain in op.chains if chain[0].maps]
        assert len(nested) == 1
        assert [g.side for g in nested[0]] == [
            nested[0][0].side * 2**i for i in range(len(nested[0]))
        ]
        assert all(g.maps for g in nested[0])
        assert all(len(chain) == 1 for chain in op.chains if not chain[0].maps)
        first = nested[0][0]
        q = blocks._box_factor(grid, first.side, cfg.rank)
        assert len(first.maps) == grid.d
        assert all(m is q for m in first.maps)
        if build is construct:
            for cls in first.classes:
                factors = cls.payload.u_factors + cls.payload.v_factors
                assert len(factors) == 2 * grid.d
                assert all(f is q for f in factors)
        for chain in op.chains:
            kinds = {type(cls.payload) for group in chain for cls in group.classes}
            assert kinds == ({TuckerBlock} if chain[0].maps else {DenseBlock})
            for group in chain[1:]:
                e = blocks.transfer(grid, group.side // 2, cfg.rank)
                assert len(group.maps) == grid.d
                assert all(m is e for m in group.maps)
        cores, passes, expected = (collections.Counter() for _ in range(3))

        class CoreSpy:
            def __init__(self, block):
                self.block = block

            def __getattr__(self, name):
                return getattr(self.block, name)

            # a class's product, on the calling thread or, through its
            # operand, on the near-field worker
            def product(self, rows):
                cores[id(self)] += 1
                return self.block.product(rows)

            def operand(self):
                cores[id(self)] += 1
                return self.block.operand()

        class OrbitCoreSpy:
            """An orbit's core matrix, counting the transposes its one
            product takes."""

            def __init__(self, core):
                self.core = core

            @property
            def T(self):
                cores[id(self)] += 1
                return self.core.T

        applications = 0
        for group in op.groups:
            if group.orbits:
                assert sum(len(orbit.sources) for orbit in group.orbits) == len(group.classes)
                object.__setattr__(group, "orbits", tuple(
                    orbit._replace(core=OrbitCoreSpy(orbit.core)) for orbit in group.orbits))
            group.classes[:] = [dataclasses.replace(cls, payload=CoreSpy(cls.payload))
                                for cls in group.classes]
            applications += len(group.orbits) or len(group.classes)
        assert sum(len(group.classes) for group in op.groups) == translation_classes(op)
        assert any(group.orbits for group in op.groups) == (case != "2d-strong-slp-p2")

        def counted(stage, fn):
            def spy(*args):
                passes[stage, tuple(map(id, args[-1]))] += 1
                return fn(*args)
            return spy

        for stage in ("project", "expand"):
            monkeypatch.setattr(operators, stage, counted(stage, getattr(operators, stage)))
            for group in op.groups:
                expected[stage, tuple(map(id, group.maps))] += 1
        u = np.random.default_rng(49).standard_normal(grid.num_points)
        for rounds in (1, 2):
            matvec(op, u)
            assert sum(cores.values()) == rounds * applications
            assert set(cores.values()) == {rounds}
            assert passes == collections.Counter(
                {key: rounds * count for key, count in expected.items()}
            )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_baseline_matvec_is_htlr_matvec(self, case):
        """The baseline differs from the Tucker operator only in what its
        leaves store: both apply the same maps and cores, so their matvecs
        agree bit for bit."""
        grid, cfg = self.CASES[case]
        u = np.random.default_rng(51).standard_normal(grid.num_points)
        assert np.array_equal(matvec(construct_hmatrix(cfg, grid), u),
                              matvec(construct(cfg, grid), u))

    @pytest.mark.parametrize("case", ["2d-n128-weak-gaussian", "2d-strong-slp"])
    def test_matvec_owns_its_bases(self, case, monkeypatch):
        """Once built, the operator applies the maps it holds: the matvec
        computes no box factor and looks up no transfer."""
        from htlr import blocks, operators

        grid, cfg = {
            "2d-n128-weak-gaussian": (UniformGrid(2, 128), weak_gaussian_cfg()),
            "2d-strong-slp": self.CASES["2d-strong-slp"],
        }[case]
        op = construct(cfg, grid)
        u = np.random.default_rng(50).standard_normal(grid.num_points)
        expected = matvec(op, u)

        def forbidden(*args):
            raise AssertionError("the matvec asked for a basis")

        for module, name in ((blocks, "transfer"), (blocks, "_box_factor"),
                             (operators, "transfer"), (operators, "_box_factor")):
            monkeypatch.setattr(module, name, forbidden)
        assert np.array_equal(matvec(op, u), expected)


def class_offsets(op):
    """(box side, source-minus-target box offset, class) of every class, the
    offset read off the class's first leaf."""
    d = op.grid.d
    for group in op.groups:
        shape = (op.grid.n // group.side,) * d
        boxes = np.arange(np.prod(shape))
        for cls in group.classes:
            target, source = (np.unravel_index(boxes[ids][0], shape, order="F")
                              for ids in (cls.targets, cls.sources))
            yield group.side, tuple(np.subtract(source, target).tolist()), cls


def class_leaves(op):
    """(stored dense, tau ranges, sigma ranges) of every leaf of every
    class."""
    return [(isinstance(block, DenseBlock), tau.ranges, sigma.ranges)
            for tau, sigma, block in leaf_payloads(op)]


class TestLatticeBuild:
    """The build enumerates the leaves on the box lattice: its classes cover
    the leaves of the recursive block tree construction, it builds neither
    tree, and its counts are the per-leaf ones."""

    @pytest.mark.parametrize("case", sorted(TestClassSharing.MATVEC_CASES))
    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_classes_cover_the_tree_leaves(self, case, build):
        grid, cfg = TestClassSharing.MATVEC_CASES[case]
        op = build(cfg, grid)
        kinds = stored_kinds(grid, cfg)
        tree = [
            (kinds[IndexBox(tau), IndexBox(sigma)] == "dense", tau, sigma)
            for _, kind, tau, sigma in recursive_block_pairs(
                grid.d, grid.n, split_side(cfg), cfg.rule)
            if kind != "internal"
        ]
        assert collections.Counter(class_leaves(op)) == collections.Counter(tree)

    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_builds_no_tree(self, build, monkeypatch):
        from htlr import grids, operators

        def forbidden(*args):
            raise AssertionError("the build asked for a tree")

        for module in (grids, operators):
            for name in ("build_cluster_tree", "build_block_cluster_tree"):
                monkeypatch.setattr(module, name, forbidden)
        grid = UniformGrid(2, 64)
        op = build(TestClassSharing.CASES["2d-strong-slp"][1], grid)
        u = np.random.default_rng(51).standard_normal(grid.num_points)
        assert np.isfinite(matvec(op, u)).all()

    # the benchmark's four operators: storage_report and operation_counts
    # as the per-leaf sums gave them.  The single layer's self class keeps
    # one parity sector per number of odd dimensions; the weak Gaussians'
    # self pairs are Tucker leaves, so they store no dense scalar (they
    # stored 12,582,912, 1,048,576 and 786,432 in dense self classes), and
    # gauss3d's leaves are of side 2p = 8
    WORKLOADS = {
        "gauss2d-n512": (UniformGrid(2, 512), weak_gaussian_cfg(),
                         (0, 3571712, 20955136), (0, 5116)),
        "slp2d-n128": (UniformGrid(2, 128), BuildConfig(
            rank=8, leaf_side=16, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
            kernel=slp_2d(), coeff=CoefficientFn.constant(0.0),
        ), (20971520, 731136, 5210112), (484, 1272)),
        "gauss3d-n32": (UniformGrid(3, 32), BuildConfig(
            rank=4, leaf_side=5, rule=AdmissibilityRule.weak(),
            kernel=gaussian(np.sqrt(3.0)), coeff=CoefficientFn.constant(0.0),
        ), (0, 119808, 2326528), (0, 568)),
        "quasi-n8192-grid": (UniformGrid(2, 128), weak_gaussian_cfg(),
                             (0, 204800, 1294336), (0, 316)),
    }

    # the baseline operators: the per-level Kronecker basis keeps the stored
    # scalars that one basis per (box sizes, rank) gave; the resident ones
    # are those of one core or dense block per orbit of offsets, in parity
    # sectors or not (they were 409,985, 311,425 and 2,744,353 with one per
    # pair of opposite offsets, 385,409, 192,641 and 1,376,289 with every
    # parity sector, and 188,545 and 1,310,753 for the two single layers
    # with one payload per pair of opposite classes in sectors); the weak
    # Gaussian's self pairs are Tucker leaves of the level's basis (it
    # held 20,692,992 and 381,313 with a dense self class in sectors)
    BASELINES = {
        "gauss2d-n128-weak": (UniformGrid(2, 128), weak_gaussian_cfg(), 22_265_856, 373_121),
        "slp2d-n64-strong": (UniformGrid(2, 64), BuildConfig(
            rank=8, leaf_side=16, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
            kernel=slp_2d(), coeff=CoefficientFn.constant(0.0),
        ), 9_879_552, 155_777),
        "slp3d-n32-strong": (UniformGrid(3, 32), BuildConfig(
            rank=4, leaf_side=8, rule=AdmissibilityRule.strong(np.sqrt(3.0)),
            kernel=slp_3d(), coeff=CoefficientFn.constant(0.0),
        ), 344_031_232, 557_089),
    }

    @pytest.mark.parametrize("case", sorted(BASELINES))
    def test_baseline_storage(self, case):
        grid, cfg, total, resident = self.BASELINES[case]
        rep = storage_report(construct_hmatrix(cfg, grid))
        assert (rep.total_scalars, rep.resident_scalars) == (total, resident)

    @pytest.mark.parametrize("case", sorted(WORKLOADS))
    def test_workload_counts(self, case):
        grid, cfg, scalars, leaves = self.WORKLOADS[case]
        op = construct(cfg, grid)
        rep = storage_report(op)
        assert (rep.dense_scalars, rep.factor_scalars, rep.core_scalars) == scalars
        assert rep.total_scalars == sum(scalars)
        counts = operation_counts(op)
        assert (counts["dense_leaves"], counts["compressed_leaves"]) == leaves
        assert counts["total_leaves"] == sum(leaves)


class TestDiagonal:
    """a(x) is the operator's diagonal, outside every payload."""

    def setup_method(self):
        self.grid = UniformGrid(2, 32)
        self.coeff = CoefficientFn(lambda pts: 1e-3 * (1.0 + pts[:, 0]))
        self.cfg = BuildConfig(
            rank=8, leaf_side=8, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
            kernel=slp_2d(), coeff=self.coeff,
        )
        self.u = np.random.default_rng(47).standard_normal(self.grid.num_points)

    @pytest.mark.parametrize("build", [construct, construct_hmatrix])
    def test_zero_constant_starts_at_the_first_part(self, build):
        """With a(x) = 0 the matvec adds no product with the diagonal, and f
        is bit for bit what the zeros of a sampled a(x) give."""
        op = build(dataclasses.replace(self.cfg, coeff=CoefficientFn.constant(0.0)), self.grid)
        sampled = dataclasses.replace(op, diagonal=np.zeros(self.grid.num_points))
        assert np.array_equal(matvec(op, self.u), matvec(sampled, self.u))

    def test_non_constant_coefficient_is_the_diagonal(self):
        op = construct(self.cfg, self.grid)
        without = construct(
            dataclasses.replace(self.cfg, coeff=CoefficientFn.constant(0.0)), self.grid
        )
        au = self.coeff(self.grid.points(IndexBox(((0, 32), (0, 32))))) * self.u
        diff = matvec(op, self.u) - matvec(without, self.u)
        assert np.abs(diff - au).max() <= 1e-15 * np.abs(au).max()

    def test_constant_coefficient_is_one_value(self):
        """A constant a(x) is held as one value, which the matvec broadcasts;
        a non-constant one as its value at every grid point."""
        op = construct(self.cfg, self.grid)
        assert op.diagonal.shape == (self.grid.num_points,)
        for c in (0.0, 2.5):
            const = construct(
                dataclasses.replace(self.cfg, coeff=CoefficientFn.constant(c)), self.grid
            )
            assert const.diagonal.shape == (1,) and const.diagonal[0] == c
            without = dataclasses.replace(const, diagonal=np.zeros(1))
            diff = matvec(const, self.u) - matvec(without, self.u)
            assert np.abs(diff - c * self.u).max() <= 1e-15 * np.abs(self.u).max()

    def test_sampled_constant_coefficient_is_per_point(self):
        """Only :meth:`CoefficientFn.constant` gives one diagonal value: a
        sampled a(x) that happens to be constant stays a value per grid
        point, and its products are those of the one value, bit for bit."""
        for c in (0.0, 2.5):
            sampled, const = (construct(dataclasses.replace(self.cfg, coeff=coeff), self.grid)
                              for coeff in (CoefficientFn(lambda pts: np.full(len(pts), c)),
                                            CoefficientFn.constant(c)))
            assert sampled.diagonal.shape == (self.grid.num_points,)
            assert np.array_equal(matvec(sampled, self.u), matvec(const, self.u))

    def test_constant_coefficient_is_never_sampled(self, monkeypatch):
        """A constant a(x) gives its one value without any grid point; a
        non-constant one is still sampled at every point."""
        full = IndexBox(((0, self.grid.n),) * self.grid.d)
        points = UniformGrid.points

        def no_full_grid(grid, box):
            if box == full:
                raise AssertionError("a(x) sampled on the whole grid")
            return points(grid, box)

        monkeypatch.setattr(UniformGrid, "points", no_full_grid)
        const = dataclasses.replace(self.cfg, coeff=CoefficientFn.constant(2.5))
        for build in (construct, construct_hmatrix):
            assert np.array_equal(build(const, self.grid).diagonal, [2.5])
        with pytest.raises(AssertionError, match="sampled"):
            construct(self.cfg, self.grid)
        monkeypatch.setattr(UniformGrid, "points", points)
        assert construct(self.cfg, self.grid).diagonal.shape == (self.grid.num_points,)

    def test_column_coefficient_rejected(self):
        column = CoefficientFn(lambda pts: 1.0 + pts[:, :1])
        with pytest.raises(ValueError, match="shape"):
            construct(dataclasses.replace(self.cfg, coeff=column), self.grid)

    def test_matches_dense_oracle(self):
        op = construct(self.cfg, self.grid)
        dense = dense_assemble(self.cfg.kernel, self.coeff, self.grid,
                               QuadratureConfig())
        fe = dense.matrix @ self.u
        f = matvec(op, self.u)
        assert np.linalg.norm(f - fe) / np.linalg.norm(fe) <= 1e-5


def circulant_product(cfg, grid, u):
    """The exact A u of a kernel of |x - y| with a(x) = 0 on the whole grid,
    by circulant embedding (R. Chan and M. Ng, SIAM Review 38, 1996): the
    kernel at every offset between two grid points, the cell average at
    the zero offset, convolved with u by one FFT.  It is the product of
    perfbench's CirculantReference, which these tests do not import: the
    benchmark harness is not part of the package they test."""
    n, d, h = grid.n, grid.d, grid.h
    steps = np.arange(1 - n, n) * h
    offsets = np.stack(np.meshgrid(*[steps] * d, indexing="ij"), axis=-1).reshape(-1, d)
    table = kernels.pairwise(cfg.kernel, offsets, np.zeros((1, d))).reshape((2 * n - 1,) * d)
    table[(n - 1,) * d] = kernels.diagonal_entry(cfg.kernel, np.zeros(d), h, cfg.quadrature)
    size, axes = (3 * n - 2,) * d, tuple(range(d))
    full = np.fft.irfftn(np.fft.rfftn(table * h**d, size, axes)
                         * np.fft.rfftn(u.reshape((n,) * d, order="F"), size, axes), size, axes)
    return full[(slice(n - 1, 2 * n - 1),) * d].ravel(order="F")


def box_rows(x, grid, side):
    """A grid vector (first index fastest) as one row per box of `side`,
    boxes and their points both first index fastest."""
    d, per = grid.d, grid.n // side
    axes = [*range(1, 2 * d, 2), *range(0, 2 * d, 2)]
    return x.reshape((side, per) * d, order="F").transpose(axes).reshape(
        per**d, side**d, order="F")


def from_box_rows(rows, grid, side):
    """The inverse of box_rows."""
    d, per = grid.d, grid.n // side
    axes = np.argsort([*range(1, 2 * d, 2), *range(0, 2 * d, 2)])
    return rows.reshape((per,) * d + (side,) * d, order="F").transpose(axes).reshape(
        -1, order="F")


def self_classes(op):
    """(box side, class) of every class at the zero offset."""
    return [(side, cls) for side, offset, cls in class_offsets(op) if not any(offset)]


def dense_self_error_ratio(op, u):
    """The full-vector error of `op`'s matvec against the circulant
    product, over that of the same operator with its self class swapped
    back to the build_dense payload and its shift taken out of the
    diagonal: 1 where the self class is dense."""
    grid, cfg = op.grid, op.config
    ((side, cls),) = self_classes(op)
    if isinstance(cls.payload, DenseBlock):
        return 1.0
    box = IndexBox(((0, side),) * grid.d)
    swap = (build_dense(cfg.kernel, grid, box, box, cfg.quadrature).matrix
            - cls.payload.materialize() - self_shift(cfg, grid) * np.eye(side**grid.d))
    exact, f = circulant_product(cfg, grid, u), matvec(op, u)
    dense_self = f + from_box_rows(box_rows(u, grid, side) @ swap.T, grid, side)
    return np.linalg.norm(f - exact) / np.linalg.norm(dense_self - exact)


def weak_gaussian(rank, leaf, sigma):
    return BuildConfig(rank=rank, leaf_side=leaf, rule=AdmissibilityRule.weak(),
                       kernel=gaussian(sigma), coeff=CoefficientFn.constant(0.0))


class TestSmoothSelfPair:
    """Under the weak rule a kernel of |x - y| smooth at x = y has its last
    level's self pair interpolated in a tree of three levels or more, at a
    rank of 3 or more, on a leaf box no wider than sigma: one Tucker class
    on every box, its own orbit, first in the leaf level's factored group,
    and the operator's diagonal holds the shift (diagonal_entry - K(0)) h^d,
    as the interpolant gives K(0) h^d on the diagonal.  Every other build
    keeps a dense self class."""

    WEAK = {case: TestClassSharing.CASES[case] for case in (
        "2d-weak-gaussian", "3d-n24-leaf-side-6", "2d-n48-leaf16", "2d-n56-leaf-side-below-rank")}

    @pytest.mark.parametrize("case", sorted(WEAK))
    @pytest.mark.parametrize("build", [construct, construct_hmatrix], ids=["tucker", "lowrank"])
    def test_self_class_is_one_tucker_class_on_every_box(self, case, build):
        """The finest group is factored and its first class is the self
        class, unturned: by class, on full slices, which need no gather;
        by orbit (the 3D case), an orbit of its own with the identity point
        map on every box in order."""
        grid, cfg = self.WEAK[case]
        op = build(cfg, grid)
        ((side, cls),) = self_classes(op)
        group = op.chains[0][0]
        assert group.maps and group.side == side == min(g.side for g in op.groups)
        assert group.classes[0] is cls
        assert isinstance(cls.payload, TuckerBlock) and not cls.payload.turn
        assert not any(isinstance(c.payload, DenseBlock) for g in op.groups for c in g.classes)
        assert storage_report(op).dense_scalars == 0
        if not group.orbits:
            assert cls.targets == cls.sources == slice(None)
            return
        everywhere = np.arange(group.boxes)
        (orbit,) = [o for o in group.orbits if o.sources is cls.sources.base]
        assert np.array_equal(orbit.sources, [everywhere])
        assert np.array_equal(orbit.targets, [everywhere])
        assert np.array_equal(orbit.points, [np.arange(group.width)])

    @pytest.mark.parametrize("build", [construct, construct_hmatrix], ids=["tucker", "lowrank"])
    def test_diagonal_is_a_plus_the_shift(self, build):
        """A constant a(x) stays one value, a sampled one a value per point:
        a(x) + (diagonal_entry - K(0)) h^d, and the matvec adds it."""
        grid = UniformGrid(2, 64)
        shift = self_shift(weak_gaussian_cfg(), grid)
        assert shift < 0.0
        u = np.random.default_rng(72).standard_normal(grid.num_points)
        without = build(weak_gaussian_cfg(), grid)
        assert np.array_equal(without.diagonal, [shift])
        for coeff in (CoefficientFn.constant(2.5), CoefficientFn(lambda x: 1.0 + x[:, 0])):
            op = build(dataclasses.replace(weak_gaussian_cfg(), coeff=coeff), grid)
            a = coeff(grid.points(IndexBox(((0, 64), (0, 64)))))
            expected = a[:1] if op.diagonal.size == 1 else a
            assert np.array_equal(op.diagonal, expected + shift)
            diff = matvec(op, u) - matvec(without, u)
            assert np.abs(diff - a * u).max() <= 1e-14 * np.abs(a * u).max()

    # the benchmark's grids, ranks and leaf sides (gauss2d's and gauss3d's),
    # and a smaller grid of each: on 64^2 an interpolated self pair on a
    # leaf box of 12.5 sigma had 3.5 times the error, and in the two-level
    # tree of 16^3 up to 16.9 times, where the build keeps it dense
    SWEEP = {
        "2d-n512": (UniformGrid(2, 512), 8, 16),
        "2d-n64": (UniformGrid(2, 64), 8, 16),
        "3d-n32": (UniformGrid(3, 32), 4, 5),
        "3d-n16": (UniformGrid(3, 16), 4, 4),
    }

    @pytest.mark.parametrize("sigma", [0.02, 0.05, 0.2, "sqrt-d"])
    @pytest.mark.parametrize("case", sorted(SWEEP))
    def test_full_vector_error_near_that_of_a_dense_self_class(self, case, sigma):
        """Against the circulant product over the whole vector, the error is
        within 1.05 times that of the same operator with its self class
        swapped back to the build_dense payload, on both builders: at most
        1.0002 measured where the self pair is interpolated (n = 512 at
        sigma = 0.05 to sqrt(2), n = 64 and n = 32 at sqrt(d))."""
        grid, rank, leaf = self.SWEEP[case]
        cfg = weak_gaussian(rank, leaf, np.sqrt(grid.d) if sigma == "sqrt-d" else sigma)
        u = np.random.default_rng(73).standard_normal(grid.num_points)
        for build in (construct, construct_hmatrix):
            assert dense_self_error_ratio(build(cfg, grid), u) <= 1.05

    # each condition of the rule on both of its sides: grid, rank, leaf
    # side, sigma, and whether the self pair is interpolated
    RULE = {
        "box-of-sigma": (UniformGrid(2, 64), 8, 16, 0.25, True),
        "box-wider-than-sigma": (UniformGrid(2, 64), 8, 16, 0.24, False),
        "three-levels": (UniformGrid(3, 24), 4, 4, np.sqrt(3.0), True),
        "two-levels": (UniformGrid(3, 16), 4, 4, np.sqrt(3.0), False),
        "rank-3": (UniformGrid(2, 24), 3, 3, np.sqrt(2.0), True),
        "rank-2": (UniformGrid(2, 32), 2, 4, np.sqrt(2.0), False),
    }

    @pytest.mark.parametrize("case", sorted(RULE))
    @pytest.mark.parametrize("build", [construct, construct_hmatrix], ids=["tucker", "lowrank"])
    def test_rule_on_each_side(self, case, build):
        """The self class is Tucker with the shift on the diagonal where the
        rule holds, and dense with a diagonal of a(x) alone where it does
        not: on a leaf box of sigma and just wider, in trees of three and
        two levels, at ranks 3 and 2.  Either way the error is within 1.05
        times that of a dense self class."""
        grid, rank, leaf, sigma, interpolated = self.RULE[case]
        cfg = weak_gaussian(rank, leaf, sigma)
        op = build(cfg, grid)
        assert interpolates_self(cfg, grid) == interpolated
        ((_, cls),) = self_classes(op)
        assert isinstance(cls.payload, TuckerBlock if interpolated else DenseBlock)
        assert np.array_equal(op.diagonal, [self_shift(cfg, grid)])
        assert (self_shift(cfg, grid) < 0.0) == interpolated
        u = np.random.default_rng(74).standard_normal(grid.num_points)
        assert dense_self_error_ratio(op, u) <= 1.05

    OTHERS = {
        "strong-gaussian": (UniformGrid(2, 64), dataclasses.replace(
            weak_gaussian_cfg(), rule=AdmissibilityRule.strong(np.sqrt(2.0)))),
        "weak-single-layer": (UniformGrid(2, 64), dataclasses.replace(
            weak_gaussian_cfg(), kernel=slp_2d())),
        "weak-custom-gaussian": (UniformGrid(2, 64), dataclasses.replace(
            weak_gaussian_cfg(), kernel=custom(
                lambda x, y: np.exp(-np.sum((x - y) ** 2, axis=-1) / 4.0)))),
        "one-leaf-gaussian": (UniformGrid(2, 16), weak_gaussian_cfg()),
    }

    @pytest.mark.parametrize("case", sorted(OTHERS))
    @pytest.mark.parametrize("build", [construct, construct_hmatrix], ids=["tucker", "lowrank"])
    def test_other_builds_keep_a_dense_self_class(self, case, build):
        """Under the strong rule, for a singular kernel, for a custom kernel
        and in a one-leaf tree the self class is dense, and the diagonal is
        a(x) alone."""
        grid, cfg = self.OTHERS[case]
        op = build(cfg, grid)
        assert not interpolates_self(cfg, grid)
        selves = self_classes(op)
        assert selves and all(isinstance(cls.payload, DenseBlock) for _, cls in selves)
        assert np.array_equal(op.diagonal, [0.0])


class TestMatvec:
    def test_zero_input(self):
        grid = UniformGrid(2, 32)
        op = construct(weak_gaussian_cfg(), grid)
        assert np.all(matvec(op, np.zeros(grid.num_points)) == 0.0)

    def test_single_leaf_exact(self):
        grid = UniformGrid(2, 4)
        cfg = BuildConfig(rank=4, leaf_side=4, rule=AdmissibilityRule.weak(),
                          kernel=slp_2d(), coeff=CoefficientFn.constant(0.0))
        op = construct(cfg, grid)
        dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
        rng = np.random.default_rng(37)
        u = rng.standard_normal(16)
        assert np.array_equal(matvec(op, u), dense.matrix @ u)

    def test_weak_gaussian_accuracy(self):
        grid = UniformGrid(2, 64)
        cfg = weak_gaussian_cfg()
        op = construct(cfg, grid)
        dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
        rng = np.random.default_rng(38)
        u = rng.standard_normal(grid.num_points)
        f = matvec(op, u)
        fe = dense.matrix @ u
        assert np.linalg.norm(f - fe) / np.linalg.norm(fe) <= 1e-9

    @pytest.mark.parametrize("n, leaf", [(56, 8), (32, 4)])
    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_leaf_side_below_rank_matches_dense_oracle(self, n, leaf, build):
        # configured leaf sides 8 and 4, no wider than the rank 8, are
        # raised to 2p = 16: leaves of side 14 and 16
        grid = UniformGrid(2, n)
        cfg = weak_gaussian_cfg(rank=8, leaf=leaf)
        op = build(cfg, grid)
        dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
        u = np.random.default_rng(39).standard_normal(grid.num_points)
        f, fe = matvec(op, u), dense.matrix @ u
        assert np.linalg.norm(f - fe) / np.linalg.norm(fe) <= 1e-9

    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_3d_self_class_in_shared_sectors_matches_dense_oracle(self, build):
        """A 3D Gaussian whose leaf side 5 is raised to 2p = 8: the self class
        in four stored sectors of eight, and Tucker neighbors, over the full
        vector within 4x the interpolation error measured (3.9e-5 on both
        builders)."""
        grid = UniformGrid(3, 16)
        cfg = BuildConfig(rank=4, leaf_side=5, rule=AdmissibilityRule.weak(),
                          kernel=gaussian(np.sqrt(3.0)), coeff=CoefficientFn.constant(0.0))
        op = build(cfg, grid)
        (near,) = [cls.payload for group in op.groups if not group.maps
                   for cls in group.classes]
        assert near.dims == (0, 1, 2) and near.sectors.shape == (4, 64, 64)
        dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
        u = np.random.default_rng(41).standard_normal(grid.num_points)
        f, fe = matvec(op, u), dense.matrix @ u
        assert np.linalg.norm(f - fe) <= 1.6e-4 * np.linalg.norm(fe)

    def test_length_mismatch(self):
        grid = UniformGrid(2, 32)
        op = construct(weak_gaussian_cfg(), grid)
        with pytest.raises(ValueError):
            matvec(op, np.zeros(10))

    def test_complex_input_rejected(self):
        grid = UniformGrid(2, 32)
        op = construct(weak_gaussian_cfg(), grid)
        with pytest.raises(ValueError, match="complex"):
            matvec(op, np.full(grid.num_points, 1.0 + 2.0j))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        grid = UniformGrid(2, 32)
        op = construct(weak_gaussian_cfg(), grid)
        u = np.ones(grid.num_points)
        u[17] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            matvec(op, u)

    def test_linearity(self):
        grid = UniformGrid(2, 32)
        op = construct(weak_gaussian_cfg(), grid)
        rng = np.random.default_rng(39)
        u, v = rng.standard_normal((2, grid.num_points))
        lhs = matvec(op, 2.0 * u - 0.5 * v)
        rhs = 2.0 * matvec(op, u) - 0.5 * matvec(op, v)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()

    def test_dense_leaf_contributions_bit_identical(self):
        """A plain dense leaf is the oracle's block bit for bit; every dense
        leaf's product, as the matvec takes it, is within 1e-15 of the sum
        of its terms' magnitudes.  The weak rule's dense leaves, the self
        pairs of a singular kernel, are all in sectors; the strong rule's on
        boxes of side 2p = 8 in sectors where their offset has a zero
        coordinate, and plain where it has none."""
        grid = UniformGrid(2, 32)
        rng = np.random.default_rng(40)
        u = rng.standard_normal(grid.num_points)
        strong = BuildConfig(rank=4, leaf_side=4, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
                             kernel=slp_2d(), coeff=CoefficientFn.constant(0.0))
        for cfg in (dataclasses.replace(strong, rank=8, leaf_side=16,
                                        rule=AdmissibilityRule.weak()), strong):
            op = construct(cfg, grid)
            dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
            kinds = collections.Counter()
            for tau, sigma, block in leaf_payloads(op):
                if not isinstance(block, DenseBlock):
                    continue
                sub, cols = block_of(dense.matrix, grid, tau, sigma), sigma.linear_indices(32)
                kinds[bool(block.dims)] += 1
                if not block.dims:
                    assert np.array_equal(block.matrix, sub)
                got, expected = block.product(u[cols][None])[0], sub @ u[cols]
                scale = (np.abs(sub) @ np.abs(u[cols])).max()
                assert np.abs(got - expected).max() <= 1e-15 * scale
            assert kinds[True] > 0 and (kinds[False] > 0) == (cfg is strong)


def by_class(op):
    """`op` with every group laid out by class: a group that goes by orbit
    rebuilt without its classes' orbits (``orbit_of``)."""
    return dataclasses.replace(op, chains=[
        tuple(dataclasses.replace(group, orbit_of=()) for group in chain) for chain in op.chains])


def inline_matvec(op, u, monkeypatch):
    """matvec with every chain on the calling thread."""
    with monkeypatch.context() as m:
        m.setattr(operators, "_near_field_worker", lambda: None)
        return matvec(op, u)


class CountingWorker:
    """A near-field worker of the test's own, on one CPU too, that counts
    the tasks handed to it."""

    def __init__(self, pool):
        self.pool, self.tasks, self.lock = pool, 0, threading.Lock()

    def submit(self, fn):
        with self.lock:
            self.tasks += 1
        return self.pool.submit(fn)


class AtOnceWorker:
    """A near-field worker that runs each task at once on the calling thread
    and returns it finished, counting the tasks: a task that waited for the
    calling thread would wait for ever."""

    def __init__(self):
        self.tasks = 0

    def submit(self, fn):
        self.tasks += 1
        future = Future()
        future.set_result(fn())
        return future


@pytest.fixture
def worker(monkeypatch):
    with ThreadPoolExecutor(1) as pool:
        spy = CountingWorker(pool)
        monkeypatch.setattr(operators, "_near_field_worker", lambda: spy)
        yield spy


@pytest.fixture(scope="module")
def cases():
    """(operator, tasks handed to the worker): a one-class near field in
    parity sectors of p^d rows, which stays on the calling thread; the same
    class on a grid with more boxes than the block has rows, materialized
    and handed over as one task, and its baseline; nine dense classes under
    the strong rule with a non-constant a(x), in sectors in two, one and no
    dimensions, folded and handed over as one task; the baseline of the
    first; a 3D single layer under the strong rule, in sectors in three to
    no dimensions; and a 3D leaf side p, raised to 2p, whose self class in
    sectors of p^3 rows stays on the calling thread.  The one-class near
    fields are the single layer's under the weak rule, as a weak Gaussian
    in a tree of three levels or more interpolates its self pairs and holds
    no near field."""
    grid = UniformGrid(2, 64)
    slp = BuildConfig(rank=8, leaf_side=16, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
                      kernel=slp_2d(), coeff=CoefficientFn(lambda x: 1e-3 * (1.0 + x[:, 0])))
    slp3d = BuildConfig(rank=4, leaf_side=8, rule=AdmissibilityRule.strong(np.sqrt(3.0)),
                        kernel=slp_3d(), coeff=CoefficientFn.constant(0.0))
    weak = dataclasses.replace(weak_gaussian_cfg(), kernel=slp_2d())
    weak_n128 = dataclasses.replace(weak_gaussian_cfg(rank=4, leaf=8), kernel=slp_2d())
    weak3d = dataclasses.replace(weak_gaussian_cfg(rank=4, leaf=4), kernel=slp_3d())
    return {
        "slp2d-weak": (construct(weak, grid), 0),
        "slp2d-weak-n128": (construct(weak_n128, UniformGrid(2, 128)), 1),
        "slp2d-strong": (construct(slp, grid), 1),
        "slp2d-weak-hmatrix": (construct_hmatrix(weak, grid), 0),
        "slp2d-weak-n128-hmatrix": (construct_hmatrix(weak_n128, UniformGrid(2, 128)), 1),
        "slp3d-strong": (construct(slp3d, UniformGrid(3, 16)), 1),
        "slp3d-weak-leaf-p": (construct(weak3d, UniformGrid(3, 16)), 0),
    }


def wrong_payload(operand):
    """A dense payload, wider than a core, whose operand is `operand()`."""
    return types.SimpleNamespace(width=100, fold=lambda rows: rows,
                                 operand=operand, unfold=lambda out: out)


def with_near_field(op, payload):
    """`op` with its near field one class of `payload` on every box."""
    group = op.chains[0][0]
    return dataclasses.replace(op, chains=[(dataclasses.replace(
        group, classes=[TranslationClass(payload, slice(None), slice(None))]),)] + op.chains[1:])


class TestNearFieldOverlap:
    """The dense group on the finest side, when it has a product wider than
    a core, runs its products on one worker thread while the calling thread
    runs the other chains; the outputs are those of the calling thread
    alone, bit for bit."""

    def test_cases_offload_what_they_name(self, cases):
        def offloaded(name):
            op = cases[name][0]
            return [len(group.classes) for group in op.groups
                    if operators._offloads(group, op.config.rank, op.grid.d)]

        # the 2D self class in sectors of 8^2 columns, and then materialized
        # for the 16^2 boxes of a 128^2 grid, wider than a core of 4^2
        assert offloaded("slp2d-weak") == [] and offloaded("slp2d-weak-n128") == [1]
        assert offloaded("slp2d-strong") == [9]
        # the 3D self class in sectors of 4^3 columns, as wide as a core
        slp3d = cases["slp3d-weak-leaf-p"][0]
        assert [chain[0].side for chain in slp3d.chains if not chain[0].maps] == [8]
        assert offloaded("slp3d-weak-leaf-p") == []

    def test_cases_hold_parity_sectors(self, cases):
        """The dimensions of the dense classes' sectors in each case: a
        turned class holds its canonical's, so each number of zero
        coordinates has one set of dimensions."""
        def dims(name):
            return {cls.payload.dims for group in cases[name][0].groups if not group.maps
                    for cls in group.classes}
        assert (dims("slp2d-weak") == dims("slp2d-weak-n128") == dims("slp2d-weak-hmatrix")
                == dims("slp2d-weak-n128-hmatrix") == {(0, 1)})
        assert dims("slp2d-strong") == {(0, 1), (0,), ()}
        assert dims("slp3d-strong") == {(0, 1, 2), (0, 1), (0,), ()}
        assert dims("slp3d-weak-leaf-p") == {(0, 1, 2)}

    @pytest.mark.parametrize("name", ["slp2d-weak", "slp2d-weak-n128", "slp2d-strong",
                                      "slp2d-weak-hmatrix", "slp2d-weak-n128-hmatrix",
                                      "slp3d-strong", "slp3d-weak-leaf-p"])
    def test_overlap_equals_the_calling_thread(self, name, cases, worker, monkeypatch):
        op, offloaded = cases[name]
        u = np.random.default_rng(60).standard_normal(op.num_points)
        serial = inline_matvec(op, u, monkeypatch)
        assert np.array_equal(matvec(op, u), serial)
        assert worker.tasks == offloaded

    @staticmethod
    def per_class_sum(group, batch, out, g):
        """The sum of `g` and a batch's products, summed class by class in
        class order from zero: each class's products added into the rows
        of its targets."""
        part = None
        for cls, span in zip(group.classes[batch.classes], group.spans[batch.classes]):
            if part is None and isinstance(cls.targets, slice):
                part = out[span].copy()
            else:
                part = np.zeros((group.boxes, out.shape[1])) if part is None else part
                part[cls.targets] += out[span]
        return part if g is None else g + part

    @pytest.mark.parametrize("name", ["slp2d-weak", "slp2d-weak-n128", "slp2d-strong",
                                      "slp2d-weak-hmatrix", "slp3d-strong", "slp3d-weak-leaf-p"])
    def test_scatter_equals_the_per_class_sum(self, name, cases, worker, monkeypatch):
        """Each batch's one sparse scatter sums every target box's products
        in class order: the matvec equals, bit for bit, that of a per-class
        sum, through the worker and inline, on groups of one class on every
        box, of many classes and of turned ones, all of one batch.  A group
        that goes by orbit has no batches and sums by orbit (TestOrbitPath),
        so each group is laid out by class here."""
        op, offloaded = by_class(cases[name][0]), cases[name][1]
        u = np.random.default_rng(68).standard_normal(op.num_points)
        handed, inline = matvec(op, u), inline_matvec(op, u, monkeypatch)
        monkeypatch.setattr(operators, "_sum_classes", self.per_class_sum)
        assert np.array_equal(matvec(op, u), handed)
        assert np.array_equal(inline_matvec(op, u, monkeypatch), inline)
        assert worker.tasks == 2 * offloaded
        assert all(len(group.batches) == 1 for group in op.groups)
        assert any(batch.scatter is not None for group in op.groups for batch in group.batches)

    @pytest.mark.parametrize("name", ["slp2d-strong", "slp3d-strong"])
    def test_batches_sum_their_own_classes(self, name, cases, worker, monkeypatch):
        """Built with batches of at most 2,048 scalars of products, every
        group of many classes holds several: each batch's scatter is its
        per-class sum, bit for bit, and the operator's product is the one
        of one batch per group to rounding, through the worker and inline."""
        op, _ = cases[name]
        monkeypatch.setattr(operators, "_BATCH", 2048)
        small = dataclasses.replace(op, chains=[tuple(dataclasses.replace(group) for group in chain)
                                                for chain in op.chains])
        assert all(len(group.batches) > 1 for group in small.groups
                   if len(group.classes) > 4 and not group.orbits)
        u = np.random.default_rng(69).standard_normal(op.num_points)
        whole = matvec(op, u)
        handed, inline = matvec(small, u), inline_matvec(small, u, monkeypatch)
        for f in (handed, inline):
            assert np.abs(f - whole).max() <= 1e-14 * np.abs(whole).max()
        monkeypatch.setattr(operators, "_sum_classes", self.per_class_sum)
        assert np.array_equal(matvec(small, u), handed)
        assert np.array_equal(inline_matvec(small, u, monkeypatch), inline)

    def test_hand_over_keeps_no_copy_of_u(self, cases, worker):
        """The peak above the input, 4.04 grid-sized arrays when measured,
        is one more in every matvec if the hand-over keeps the box-major
        copy of u; the least of three, as about 1 in 100 reads up to 5.3."""
        op, _ = cases["slp2d-weak-n128"]
        u = np.random.default_rng(67).standard_normal(op.num_points)
        matvec(op, u)  # the worker and the quadrature caches are warm
        peaks = []
        for _ in range(3):
            gc.collect()
            tracemalloc.start()
            try:
                matvec(op, u)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert min(peaks) <= 4.5 * u.nbytes

    @pytest.mark.parametrize("name", ["slp2d-weak-n128", "slp2d-strong"])
    def test_the_worker_never_waits_for_the_calling_thread(self, name, cases, monkeypatch):
        """Through a worker that runs each task at once on the calling
        thread, the matvec finishes and equals the calling thread's alone,
        on a group that does not fold and on one that folds.  It runs in a
        daemon thread, so that a hand-over that waits fails here instead of
        hanging."""
        op, tasks = cases[name]
        assert any(cls.payload.folds for cls in op.chains[0][0].classes) == (name == "slp2d-strong")
        u = np.random.default_rng(66).standard_normal(op.num_points)
        serial = inline_matvec(op, u, monkeypatch)
        at_once, result = AtOnceWorker(), []
        monkeypatch.setattr(operators, "_near_field_worker", lambda: at_once)
        thread = threading.Thread(target=lambda: result.append(matvec(op, u)), daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "the hand-over waits for the calling thread"
        assert at_once.tasks == tasks and len(result) == 1
        assert np.array_equal(result[0], serial)

    @staticmethod
    def sweep_cfg(rank, leaf, rule, kernel):
        return BuildConfig(rank=rank, leaf_side=leaf, rule=rule, kernel=kernel,
                           coeff=CoefficientFn.constant(0.0))

    # the class-sharing cases (2D weak and strong, a configured leaf side
    # above, at and below the rank, a custom kernel, one leaf), and 2D
    # strong at and below the rank and 3D weak and strong
    ONE_GROUP_CASES = {
        **TestClassSharing.MATVEC_CASES,
        "2d-strong-at": (UniformGrid(2, 32), sweep_cfg(
            4, 4, AdmissibilityRule.strong(np.sqrt(2.0)), slp_2d())),
        "2d-strong-below": (UniformGrid(2, 32), sweep_cfg(
            8, 4, AdmissibilityRule.strong(np.sqrt(2.0)), slp_2d())),
        "3d-weak-above": (UniformGrid(3, 16), sweep_cfg(
            3, 4, AdmissibilityRule.weak(), gaussian(np.sqrt(3.0)))),
        "3d-strong-above": (UniformGrid(3, 16), sweep_cfg(
            4, 8, AdmissibilityRule.strong(np.sqrt(3.0)), slp_3d())),
        "3d-strong-below": (UniformGrid(3, 16), sweep_cfg(
            4, 2, AdmissibilityRule.strong(np.sqrt(3.0)), slp_3d())),
    }

    # small builds of a sweep over d, n, p, the leaf side (up to 2p) and
    # the rule (weak, or strong with eta from 0.3 to 10), some of one leaf
    for d, n, p, leaf, eta in [
            (2, 8, 1, 1, None), (2, 8, 4, 2, 0.3), (2, 16, 1, 1, 10), (2, 16, 1, 2, 0.3),
            (2, 16, 4, 8, None), (2, 32, 1, 2, 1), (2, 32, 2, 1, 0.3), (2, 32, 2, 4, 10),
            (2, 32, 4, 2, 1), (2, 64, 1, 2, 0.3), (2, 64, 1, 1, None), (2, 64, 2, 2, 1),
            (2, 64, 2, 4, 10), (2, 64, 4, 1, 0.3), (2, 64, 4, 4, None), (2, 64, 4, 8, 1),
            (3, 8, 1, 1, 1), (3, 8, 1, 2, 10), (3, 8, 2, 2, None), (3, 16, 1, 1, 0.3),
            (3, 16, 1, 2, 1), (3, 16, 2, 1, 10), (3, 16, 2, 4, None), (3, 16, 4, 1, None),
            (3, 32, 1, 2, None), (3, 32, 2, 4, 1), (3, 32, 2, 4, 10), (3, 32, 4, 1, None),
            (3, 32, 4, 4, 1), (3, 32, 4, 8, 10)]:
        ONE_GROUP_CASES[f"sweep-{d}d-n{n}-p{p}-leaf{leaf}-"
                        + ("weak" if eta is None else f"eta{eta:g}")] = (UniformGrid(d, n), sweep_cfg(
            p, leaf, AdmissibilityRule.weak() if eta is None else AdmissibilityRule.strong(eta),
            gaussian(np.sqrt(d))))
    del d, n, p, leaf, eta

    @pytest.mark.parametrize("case", sorted(ONE_GROUP_CASES))
    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_only_the_first_group_can_be_offloaded(self, case, build):
        """The first chain is the one dense group, on the finest side, unless
        the build interpolates the self pairs and holds none; the factored
        groups are at most one chain, of doubling sides, and no later group
        has a product wider than a core: the matvec hands over at most the
        first group."""
        grid, cfg = self.ONE_GROUP_CASES[case]
        op = build(cfg, grid)
        later = op.chains
        if not interpolates_self(cfg, grid):
            (first,), *later = op.chains
            assert not first.maps and first.side == min(group.side for group in op.groups)
        assert len(later) <= 1 and all(chain[0].maps for chain in later)
        sides = [group.side for chain in later for group in chain]
        assert sides == [sides[0] << k for k in range(len(sides))]
        assert not any(operators._offloads(group, cfg.rank, grid.d)
                       for chain in later for group in chain)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_worker_only_with_two_cpus(self, cpus, monkeypatch):
        monkeypatch.setattr(operators, "_worker", (None, None))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)  # the affinity decides
        assert (operators._near_field_worker() is not None) == (cpus == 2)

    @pytest.mark.parametrize("cpus", [None, 1, 2])
    def test_cpu_count_without_affinity(self, cpus, monkeypatch):
        monkeypatch.setattr(operators, "_worker", (None, None))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert (operators._near_field_worker() is not None) == (cpus == 2)

    @pytest.fixture
    def fresh_worker(self, monkeypatch):
        """No worker yet, and two CPUs whatever the machine, so that the next
        matvec makes one; yields the list of the workers made, each shut
        down afterwards."""
        made = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(operators, "_worker", (None, None))
        monkeypatch.setattr(operators, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield made
        for pool in made:
            pool.shutdown()

    def test_concurrent_callers_get_the_serial_result(self, cases, fresh_worker, monkeypatch):
        op, _ = cases["slp2d-strong"]
        us = np.random.default_rng(62).standard_normal((4, op.num_points))
        serial = [inline_matvec(op, u, monkeypatch) for u in us]
        start, results = threading.Barrier(4), [None] * 4

        def call(k):
            start.wait()
            results[k] = [matvec(op, us[k]) for _ in range(5)]

        # the four callers race to make the worker, then share it
        threads = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(fresh_worker) == 1
        for k in range(4):
            assert all(np.array_equal(f, serial[k]) for f in results[k])

    def test_forked_child_gets_a_worker_of_its_own(self, cases, fresh_worker):
        op, _ = cases["slp2d-weak"]
        u = np.random.default_rng(63).standard_normal(op.num_points)
        expected = matvec(op, u)
        assert len(fresh_worker) == 1
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def child():
            f = matvec(op, u)
            send.send((f, operators._worker[0] == os.getpid() and len(fresh_worker) == 2))

        process = ctx.Process(target=child)
        process.start()
        try:
            assert receive.poll(60), "the forked child's matvec did not finish"
            f, own_worker = receive.recv()
        finally:
            process.join(10)
            if process.is_alive():
                process.kill()
        assert own_worker
        assert np.array_equal(f, expected)

    def test_worker_error_reaches_the_caller(self, cases, worker, monkeypatch):
        op, _ = cases["slp2d-weak"]
        u = np.random.default_rng(64).standard_normal(op.num_points)
        # wider than a core, so that the worker runs its product
        wrong = wrong_payload(lambda: np.ones((3, 100)))
        with pytest.raises(ValueError, match="matmul"):
            matvec(with_near_field(op, wrong), u)
        assert worker.tasks == 1
        # the worker survives the error
        assert np.array_equal(matvec(op, u), inline_matvec(op, u, monkeypatch))

    def test_operand_error_reaches_the_caller(self, cases, worker, monkeypatch):
        """An operand that fails on the calling thread fails the matvec
        before anything is handed over."""
        op, _ = cases["slp2d-weak"]
        u = np.random.default_rng(65).standard_normal(op.num_points)

        def fail():
            raise FloatingPointError("operand")

        with pytest.raises(FloatingPointError, match="operand"):
            matvec(with_near_field(op, wrong_payload(fail)), u)
        assert worker.tasks == 0
        assert np.array_equal(matvec(op, u), inline_matvec(op, u, monkeypatch))


class TestNonFinitePayloads:
    """A payload with NaN or infinite entries is rejected where it is built,
    instead of spreading NaN through every matvec."""

    @staticmethod
    def cfg(kernel):
        return BuildConfig(rank=4, leaf_side=8, rule=AdmissibilityRule.weak(),
                           kernel=kernel, coeff=CoefficientFn.constant(0.0))

    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_nan_kernel_rejected(self, build):
        kernel = custom(lambda x, y: np.full(np.broadcast(x, y).shape[:-1], np.nan))
        with pytest.raises(ValueError, match="not finite"):
            build(self.cfg(kernel), UniformGrid(2, 16))

    @pytest.mark.filterwarnings("ignore:divide by zero")
    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_singular_custom_kernel_builds(self, build):
        # infinite at x = y, where the diagonal quadrature replaces it
        kernel = custom(lambda x, y: 1.0 / np.linalg.norm(x - y, axis=-1),
                        smooth_at_diagonal=False)
        grid = UniformGrid(2, 16)
        op = build(self.cfg(kernel), grid)
        u = np.random.default_rng(52).standard_normal(grid.num_points)
        assert np.isfinite(matvec(op, u)).all()

    @pytest.mark.parametrize("d", [2, 3])
    def test_non_integrable_custom_kernel_rejected(self, d):
        # 1/|x - y|^d has a finite self term at every quadrature order, one
        # that grows with the order
        kernel = custom(lambda x, y: np.sum((x - y) ** 2, axis=-1) ** (-d / 2),
                        smooth_at_diagonal=False)
        with pytest.raises(ValueError, match="not integrable over a cell"):
            construct(self.cfg(kernel), UniformGrid(d, 16))


    def test_non_finite_wide_self_block_rejected(self, monkeypatch):
        """A translation-invariant kernel that is NaN at the distance h, which
        only the dense blocks hold, is rejected where the self class, the
        first, is stored in parity sectors, naming its first leaf: under the
        strong rule, as the weak rule interpolates a Gaussian's self pair."""
        from htlr import kernels

        grid = UniformGrid(2, 64)
        cfg = dataclasses.replace(weak_gaussian_cfg(), rule=AdmissibilityRule.strong(np.sqrt(2.0)))
        payload = next(cls.payload for group in construct(cfg, grid).groups
                       if not group.maps for cls in group.classes)
        assert payload.dims == (0, 1)
        of_r2 = kernels._of_r2
        monkeypatch.setattr(kernels, "_of_r2", lambda k, r2: np.where(
            r2 == grid.h**2, np.nan, of_r2(k, r2)))
        with pytest.raises(ValueError, match=re.escape(
                "not finite on the leaf ((0, 16), (0, 16)) x ((0, 16), (0, 16))")):
            construct(cfg, grid)


def effective_core(payload):
    """A Tucker payload's core matrix as its leaves see it: turned by the
    point map of its turn, when it holds one."""
    matrix = payload.core_matrix
    return blocks._turned_matrix(matrix, payload.turn) if payload.turn else matrix


def first_leaves(op):
    """(tau, sigma, payload) of every class's first leaf."""
    d = op.grid.d
    for side, offset, cls in class_offsets(op):
        shape = (op.grid.n // side,) * d
        boxes = np.arange(np.prod(shape))
        tau, sigma = (IndexBox(tuple((c * side, (c + 1) * side) for c in
                                     np.unravel_index(boxes[ids][0], shape, order="F")))
                      for ids in (cls.targets, cls.sources))
        yield tau, sigma, cls.payload


def orbit_key(side, offset, payload):
    """The key shared by the classes of one orbit, the classes that hold
    one payload: a class of a kernel of |x - y|, in parity sectors or not,
    shares it with every offset of the same magnitudes up to their order,
    on boxes of its side and of its kind."""
    return side, type(payload).__name__, tuple(sorted(abs(o) for o in offset))


class TestOrbits:
    """The classes of a kernel of |x - y| hold one payload per orbit of
    their offsets under the signed permutations of the dimensions, and each
    class's turn from its canonical class, both read off the integer
    offsets with no search."""

    CASES = {
        "2d-weak": (UniformGrid(2, 64), 8, AdmissibilityRule.weak()),
        "2d-strong": (UniformGrid(2, 64), 8, AdmissibilityRule.strong(np.sqrt(2.0))),
        "3d-weak": (UniformGrid(3, 16), 2, AdmissibilityRule.weak()),
        "3d-strong": (UniformGrid(3, 32), 4, AdmissibilityRule.strong(np.sqrt(3.0))),
    }

    @staticmethod
    def signed_permutations(d):
        for perm in itertools.permutations(range(d)):
            for signs in itertools.product((1, -1), repeat=d):
                g = np.zeros((d, d), dtype=int)
                g[np.arange(d), perm] = signs
                yield g

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("in_sectors", [False, True], ids=["plain", "sectors"])
    def test_orbit_map_matches_a_search_over_the_group(self, case, in_sectors):
        """Against every signed permutation: a class's canonical class is
        the first, in class order, of the classes of its level and kind
        whose offset one of them takes to the class's, that is not a
        mirror (its first nonzero coordinate negative), and its turn is one
        that does.  Checked on the classes in sectors, here every dense
        class with a zero coordinate, whose orbits are as large as any, or
        on the others."""
        grid, leaf, rule = self.CASES[case]
        leaves = grids._leaf_lattice(grid, leaf, rule)
        first = np.sort(np.unique(leaves.offset_id, return_index=True)[1])
        levels, tucker = leaves.level[first], leaves.admissible[first]
        offsets = leaves.sigma[first] - leaves.tau[first]
        checked = (~tucker & (offsets == 0).any(axis=1)) == in_sectors
        canonical, turns = operators._orbits(levels, tucker, offsets)
        group = list(self.signed_permutations(grid.d))
        mirror = [o[np.flatnonzero(o)[0]] < 0 if o.any() else False for o in offsets]
        sizes = collections.Counter(canonical.tolist())
        kinds = list(zip(levels.tolist(), tucker.tolist()))
        index = {(kind, tuple(o)): j for j, (kind, o) in enumerate(zip(kinds, offsets.tolist()))}
        for i in np.flatnonzero(checked):
            o = offsets[i]
            orbit = sorted({index[key] for key in ((kinds[i], tuple((g @ o).tolist()))
                                                   for g in group) if key in index})
            assert canonical[i] == next(j for j in orbit if not mirror[j])
            assert sizes[canonical[i]] == len(orbit)
            turn = np.zeros((grid.d, grid.d), dtype=int)
            turn[np.arange(grid.d), np.abs(turns[i]) - 1] = np.sign(turns[i])
            assert any(np.array_equal(turn, g) for g in group)
            assert np.array_equal(turn @ offsets[canonical[i]], o)
        # the orbits are larger than a pair of opposite offsets, in sectors
        # too where a class in sectors is off the diagonal, as under the
        # strong rule
        largest = max(sizes[c] for c in canonical[checked].tolist())
        assert (largest > 2) == (not in_sectors or rule.kind == "strong")


def per_class_reference(group, c):
    """A group's box-major target coefficients from its source coefficient
    grid `c`, class by class: each class's product added into the rows of
    its targets, each box's sum in class order from zero, as the batches'
    sparse scatters sum them."""
    c = blocks.to_boxes(c)
    g = np.zeros((group.boxes, group.width))
    for cls in group.classes:
        g[cls.targets] += cls.payload.product(c[cls.sources])
    return g


def source_grid(op, group, seed):
    """A random source coefficient grid of `group`'s level, its entries in
    [0, 1), so that no cancellation hides the rounding being measured."""
    d = op.grid.d
    shape = (op.grid.n // group.side, blocks._root(group.width, d)) * d
    return np.random.default_rng(seed).random(shape)


class TestOrbitPath:
    """A factored group of a kernel of |x - y| whose classes have no more
    leaves each than the core has columns goes by orbit: per orbit one
    gather of the classes' rows at their point maps, one GEMM with the
    canonical core and one bincount into the target boxes.  Every other
    group goes by class, as before."""

    CASES = {
        **TestClassSharing.CASES,
        # a grid that is not a power of two, under the strong rule
        "2d-n96-leaf12-strong-slp": (UniformGrid(2, 96), BuildConfig(
            rank=8, leaf_side=12, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
            kernel=slp_2d(), coeff=CoefficientFn.constant(0.0),
        )),
        # a strong rule with eta = 1, whose orbits hold more classes
        "2d-strong-eta1-gaussian": (UniformGrid(2, 64), BuildConfig(
            rank=4, leaf_side=8, rule=AdmissibilityRule.strong(1.0),
            kernel=gaussian(np.sqrt(2.0)), coeff=CoefficientFn.constant(0.0),
        )),
        # groups over the rule: classes of more leaves than 4^2
        "2d-n128-weak-gaussian": (UniformGrid(2, 128), weak_gaussian_cfg(rank=4, leaf=8)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_orbit_has_one_leaf_count(self, case):
        """The classes of one orbit are one another's turns, so they have
        one number of leaves, in every factored group, whichever way it
        goes."""
        grid, cfg = self.CASES[case]
        op = construct(cfg, grid)
        factored = [group for group in op.groups if group.maps]
        assert factored and all(len(group.orbit_of) == len(group.classes) for group in factored)
        orbits = 0
        for group in factored:
            leaves = collections.defaultdict(set)
            for cls, (canonical, _) in zip(group.classes, group.orbit_of):
                leaves[id(canonical)].add(len(np.arange(group.boxes)[cls.targets]))
            assert all(len(counts) == 1 for counts in leaves.values())
            orbits += len(leaves)
        assert orbits < sum(len(group.classes) for group in factored)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("build", [construct, construct_hmatrix], ids=["tucker", "lowrank"])
    def test_orbit_groups_match_the_per_class_path(self, case, build):
        """Each group that goes by orbit gives its per-class output within
        1e-15 of its largest entry: the turned mirrors, one-row products
        and the order of the sums move it by rounding only.  Its classes
        hold their boxes as views of the orbit's arrays, its point maps are
        one byte each, and it holds no batch and no sparse scatter."""
        grid, cfg = self.CASES[case]
        op = build(cfg, grid)
        by_orbit = [group for group in op.groups if group.orbits]
        assert bool(by_orbit) == (case != "2d-strong-slp-p2")
        for k, group in enumerate(by_orbit):
            c = source_grid(op, group, 80 + k)
            got = operators._apply_classes(group, c)
            expected = blocks.from_boxes(per_class_reference(group, c), grid.d)
            assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()
            assert group.batches == group.spans == ()
            assert sum(len(orbit.sources) for orbit in group.orbits) == len(group.classes)
            for orbit in group.orbits:
                assert orbit.points.dtype == np.uint8
                assert orbit.sources.shape == orbit.targets.shape
                assert orbit.sources.dtype == orbit.targets.dtype == np.int32
            views = [(cls.sources.base, cls.targets.base) for cls in group.classes]
            assert all(any(s is orbit.sources and t is orbit.targets for orbit in group.orbits)
                       for s, t in views)

    @pytest.mark.parametrize("case", ["2d-n128-weak-gaussian", "2d-strong-slp-p2"])
    @pytest.mark.parametrize("build", [construct, construct_hmatrix], ids=["tucker", "lowrank"])
    def test_groups_over_the_rule_go_by_class(self, case, build):
        """A factored group with a class of more leaves than the core has
        columns, and every dense group, goes by class: bit for bit the
        per-class sum of the classes' products."""
        grid, cfg = self.CASES[case]
        op = build(cfg, grid)
        over = {id(group) for group in op.groups if group.maps and max(
            len(np.arange(group.boxes)[cls.targets]) for cls in group.classes) > group.width}
        assert over
        for k, group in enumerate(op.groups):
            assert bool(group.orbits) == (group.maps != () and id(group) not in over)
            if group.orbits:
                continue
            c = source_grid(op, group, 90 + k)
            assert np.array_equal(operators._apply_classes(group, c),
                                  blocks.from_boxes(per_class_reference(group, c), grid.d))

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("build", [construct, construct_hmatrix], ids=["tucker", "lowrank"])
    def test_matvec_matches_the_per_class_layout(self, case, build):
        """The whole product, against the same operator with every group
        laid out by class, within 2e-15 of its largest entry: a coarse
        level's rounding grows as it is expanded onto the grid (at most
        7.0e-16 here, 1.4e-15 on a 512^2 weak Gaussian of rank 8)."""
        grid, cfg = self.CASES[case]
        op = build(cfg, grid)
        u = np.random.default_rng(81).random(grid.num_points)
        expected = matvec(by_class(op), u)
        assert np.abs(matvec(op, u) - expected).max() <= 2e-15 * np.abs(expected).max()


def dense_classes(op):
    """(box side, source-minus-target offset, class) of every dense class."""
    return [(side, offset, cls) for side, offset, cls in class_offsets(op)
            if isinstance(cls.payload, DenseBlock)]


class TestParitySectors:
    """A translation-invariant kernel's dense class on boxes wider than the
    rank, of an even side, is stored in parity sectors, 2^k of them for the
    k dimensions in which its offset is zero, of which it keeps one per
    number of odd dimensions, k + 1; every other dense class keeps one
    sector, its matrix.  A turned class holds its canonical's sectors, in
    the canonical's zero dimensions."""

    CASES = {
        "2d-strong-slp": (UniformGrid(2, 64), BuildConfig(
            rank=8, leaf_side=16, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
            kernel=slp_2d(), coeff=CoefficientFn.constant(0.0))),
        "3d-strong-slp": (UniformGrid(3, 16), BuildConfig(
            rank=4, leaf_side=8, rule=AdmissibilityRule.strong(np.sqrt(3.0)),
            kernel=slp_3d(), coeff=CoefficientFn.constant(0.0))),
        # odd box side 5, wider than the rank 4: no mirror pairs
        "2d-odd-side": (UniformGrid(2, 40), BuildConfig(
            rank=4, leaf_side=5, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
            kernel=slp_2d(), coeff=CoefficientFn.constant(0.0))),
        "2d-non-stationary": TestClassSharing.MATVEC_CASES["2d-non-stationary"],
        # TestClassSharing's cases of a configured leaf side p and below the
        # rank, under the strong rule: more dense classes in sectors, where
        # the weak rule keeps the 3D self class alone and interpolates the
        # 2D one's self pair
        "3d-strong-leaf-side-p": (UniformGrid(3, 16), dataclasses.replace(
            TestClassSharing.CASES["3d-leaf-side-p"][1],
            rule=AdmissibilityRule.strong(np.sqrt(3.0)))),
        "2d-strong-leaf-side-below-rank": (UniformGrid(2, 56), dataclasses.replace(
            weak_gaussian_cfg(leaf=4), rule=AdmissibilityRule.strong(np.sqrt(2.0)))),
    }
    SECTORS = ["2d-strong-slp", "3d-strong-slp"]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dims_are_the_zero_offsets(self, case):
        """A class's dims are the zero dimensions of its offset, or of its
        canonical's, which its turn maps onto its own: coordinate a of its
        offset is coordinate |turn[a]| - 1 of the canonical's."""
        grid, cfg = self.CASES[case]
        classes = dense_classes(construct(cfg, grid))
        seen = set()
        for side, offset, cls in classes:
            wide = side > cfg.rank and side % 2 == 0 and cfg.kernel.translation_invariant
            dims = tuple(i for i, o in enumerate(offset) if o == 0) if wide else ()
            turn = cls.payload.turn or tuple(range(1, grid.d + 1))
            assert tuple(a for a, t in enumerate(turn) if abs(t) - 1 in cls.payload.dims) == dims
            assert cls.payload.sides == ((side,) * grid.d if dims else ())
            assert cls.payload.sectors.shape[0] == len(dims) + 1
            seen.add(len(dims))
        expected = {"2d-strong-slp": {0, 1, 2}, "3d-strong-slp": {0, 1, 2, 3},
                    "3d-strong-leaf-side-p": {0, 1, 2, 3},
                    "2d-strong-leaf-side-below-rank": {0, 1, 2}}
        assert seen == expected.get(case, {0})

    @pytest.mark.parametrize("case", SECTORS + ["3d-strong-leaf-side-p"])
    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_one_sector_per_number_of_odd_dimensions(self, case, build):
        """Every class in sectors, mirrored and turned ones included, stores
        k + 1 of its 2^k sectors, and each sector it spreads them to is
        _fold of the rows of its own pair's block with its turn undone,
        within 1e-14 of the block's largest entry."""
        grid, cfg = self.CASES[case]
        mirrors = collections.Counter()
        for tau, sigma, payload in first_leaves(build(cfg, grid)):
            if not getattr(payload, "dims", ()):
                continue
            sides, dims = payload.sides, payload.dims
            assert payload.sectors.shape[0] == len(dims) + 1
            block = build_dense(cfg.kernel, grid, tau, sigma, cfg.quadrature).matrix
            if payload.turn:
                # entry (T(i), T(j)) of the turned block is entry (i, j)
                point_map = blocks._turn_index(payload.turn, len(block))[0]
                block = block[np.ix_(point_map, point_map)]
            part = block.reshape(sides[::-1] * 2)[blocks._parts(sides, dims)[0]]
            folded = blocks._fold(part.reshape(-1, block.shape[1]), sides, dims) / 2 ** len(dims)
            spread = blocks._spread(payload.sectors, sides, dims)
            assert np.abs(spread - folded).max() <= 1e-14 * np.abs(block).max()
            offset = [s - t for (s, _), (t, _) in zip(sigma.ranges, tau.ranges)]
            mirrors[bool(operators._is_mirror(np.array([offset]))[0])] += 1
        assert mirrors[False] > 0 and mirrors[True] > 0

    @pytest.mark.parametrize("case", SECTORS)
    def test_mirrored_classes_own_no_array(self, case):
        """Every class in sectors but its orbit's canonical holds the
        canonical's sectors, mirrored (a transposed view) or turned (the
        array itself), read-only."""
        grid, cfg = self.CASES[case]
        classes = [(side, offset, cls.payload)
                   for side, offset, cls in dense_classes(construct(cfg, grid))
                   if cls.payload.dims]
        owners = [payload.sectors for _, _, payload in classes
                  if payload.sectors.base is None and not payload.turn]
        assert len(owners) == len({orbit_key(*c) for c in classes}) < len(classes)
        turned = 0
        for _, _, payload in classes:
            (view,) = payload.arrays()
            assert not view.flags.writeable
            assert sum(np.shares_memory(view, owner) for owner in owners) == 1
            turned += bool(payload.turn)
        assert turned > 0

    @pytest.mark.parametrize("case", SECTORS)
    def test_storage_counts_the_sectors(self, case):
        grid, cfg = self.CASES[case]
        op = construct(cfg, grid)
        rep = storage_report(op)
        leaves = collections.Counter(id(block) for _, _, block in leaf_payloads(op))
        classes = dense_classes(op)
        assert rep.dense_scalars == sum(leaves[id(cls.payload)] * cls.payload.sectors.size
                                        for _, _, cls in classes)
        # each orbit of classes holds one buffer, of sectors or of one
        # matrix
        owners = {id(cls.payload.sectors.base if cls.payload.sectors.base is not None
                     else cls.payload.sectors): cls.payload.sectors.size
                  for _, _, cls in classes}
        assert len(owners) == len({orbit_key(side, offset, cls.payload)
                                   for side, offset, cls in classes})
        full = sum(cls.payload.shape[0] * cls.payload.shape[1] for _, _, cls in classes)
        assert sum(owners.values()) < full // 2

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_materialize_matches_the_dense_oracle(self, case):
        grid, cfg = self.CASES[case]
        dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
        for tau, sigma, block in leaf_payloads(construct(cfg, grid)):
            if isinstance(block, DenseBlock):
                sub = block_of(dense.matrix, grid, tau, sigma)
                full = block.materialize()
                assert block.shape == full.shape == sub.shape
                assert np.abs(full - sub).max() <= 1e-15 * np.abs(sub).max()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matvec_matches_the_dense_oracle(self, case):
        """The sectors' products match the plain blocks' to rounding, and
        the matvec the dense oracle to the interpolation error of rank 4
        (measured 1.5e-4 on the odd side)."""
        grid, cfg = self.CASES[case]
        op = construct(cfg, grid)
        plain = dataclasses.replace(op, chains=[tuple(dataclasses.replace(group, classes=[
            dataclasses.replace(cls, payload=DenseBlock(np.ascontiguousarray(
                cls.payload.materialize())[None]))
            if isinstance(cls.payload, DenseBlock) else cls for cls in group.classes])
            for group in chain) for chain in op.chains])
        dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
        u = np.random.default_rng(65).standard_normal(grid.num_points)
        f, expected = matvec(op, u), matvec(plain, u)
        assert np.abs(f - expected).max() <= 1e-14 * np.abs(expected).max()
        exact = dense.matrix @ u
        assert np.linalg.norm(f - exact) <= 1e-3 * np.linalg.norm(exact)


class TestLevelBatches:
    """The build evaluates the Tucker cores of all classes of one tree level
    together; each core keeps the bits of its own build_tlr or build_lowrank
    block.  The Tucker classes share the factor objects of build_tlr; the
    baseline classes of a level share one basis, made by the build and equal
    to build_lowrank's."""

    CASES = {
        "2d-strong-slp": (UniformGrid(2, 64), BuildConfig(
            rank=4, leaf_side=8, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
            kernel=slp_2d(), coeff=CoefficientFn.constant(0.0),
        )),
        "3d-weak-gaussian": (UniformGrid(3, 16), BuildConfig(
            rank=3, leaf_side=4, rule=AdmissibilityRule.weak(),
            kernel=gaussian(np.sqrt(3.0)), coeff=CoefficientFn.constant(0.0),
        )),
        "2d-non-stationary": (UniformGrid(2, 64), non_stationary_cfg()),
    }

    @staticmethod
    def tucker_classes(op):
        """(side, payload, tau, sigma) of every Tucker class, at the class's
        first target box."""
        grid = op.grid
        for group in op.groups:
            side, per_dim = group.side, grid.n // group.side
            boxes = np.arange(per_dim**grid.d)
            for cls in group.classes:
                if isinstance(cls.payload, DenseBlock):
                    continue
                tau, sigma = (
                    IndexBox(tuple((side * c, side * (c + 1)) for c in
                                   np.unravel_index(box, (per_dim,) * grid.d, order="F")))
                    for box in (boxes[cls.targets][0], boxes[cls.sources][0])
                )
                yield side, cls.payload, tau, sigma

    @pytest.mark.parametrize("case", sorted(CASES))
    @BUILDS
    def test_cores_bit_equal_to_the_pair_builders(self, case, build, build_admissible):
        grid, cfg = self.CASES[case]
        op = build(cfg, grid)
        sides = collections.Counter()
        bases = collections.defaultdict(set)  # ids of the baseline's bases by side
        for side, payload, tau, sigma in self.tucker_classes(op):
            # the 3D weak Gaussian's self pairs of side 4 among them
            block = pair_block(build_admissible, cfg, grid, tau, sigma)
            # a turned class holds its orbit's core, not its own:
            # TestClassSharing.test_every_class_matches_its_own_pair checks it
            if not payload.turn:
                assert np.array_equal(payload.core, block.core)
            factors, expected = (b.u_factors + b.v_factors for b in (payload, block))
            if build is construct:
                assert all(f is g for f, g in zip(factors, expected))
            else:
                assert all(np.array_equal(f, g) for f, g in zip(factors, expected))
                bases[side].update(id(f) for f in factors)
            sides[side] += 1
        # several levels, each a batch of several classes
        assert len(sides) >= 2 and min(sides.values()) >= 2
        if build is construct_hmatrix:
            assert sorted(bases) == sorted(sides)
            assert all(len(ids) == 1 for ids in bases.values())

    @pytest.mark.parametrize("case", sorted(CASES))
    @BUILDS
    def test_levels_split_into_chunks(self, case, build, build_admissible, monkeypatch):
        from htlr import kernels

        grid, cfg = self.CASES[case]
        cores = [payload.core for *_, payload, _, _ in self.tucker_classes(build(cfg, grid))]
        # two cores and a part of a third per kernel call
        monkeypatch.setattr(kernels, "EVAL_CHUNK", 5 * cfg.rank ** (2 * grid.d) // 2)
        chunked = [payload.core for *_, payload, _, _ in self.tucker_classes(build(cfg, grid))]
        assert len(cores) > 2
        assert all(np.array_equal(a, b) for a, b in zip(cores, chunked, strict=True))

    @BUILDS
    def test_nan_on_a_later_class_of_a_level_names_its_leaf(self, build, build_admissible):
        # NaN only between targets right of x0 = 1/2 and sources above
        # x1 = 1/2: on some admissible leaves of the level of side 16, not on
        # its first, and on dense leaves of later levels
        kernel = custom(lambda x, y: np.where(
            (x[..., 0] > 0.5) & (y[..., 1] > 0.5), np.nan,
            np.exp(-np.sum((x - y) ** 2, axis=-1))))
        cfg = dataclasses.replace(weak_gaussian_cfg(rank=4, leaf=8), kernel=kernel)
        grid = UniformGrid(2, 32)
        # the leaves in the build's class order: level by level, each level
        # in the recursion's depth-first order
        pairs = [pair for pair in recursive_block_pairs(grid.d, grid.n, split_side(cfg), cfg.rule)
                 if pair[1] != "internal"]
        leaves = [(IndexBox(tau), IndexBox(sigma), kind)
                  for _, kind, tau, sigma in sorted(pairs, key=lambda pair: pair[0])]
        bad = [i for i, (tau, sigma, _) in enumerate(leaves)
               if tau.ranges[0][0] >= 16 and sigma.ranges[1][0] >= 16]
        tau, sigma, kind = leaves[bad[0]]
        assert kind == "admissible" and tau.sizes[0] == 16
        assert leaves[bad[0] - 1][2] == "admissible"  # not the level's first
        assert leaves[bad[0] - 1][0].sizes[0] == 16
        message = f"the kernel is not finite on the leaf {tau.ranges} x {sigma.ranges}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(cfg, grid)


class TestHMatrixBaseline:
    def test_agreement_with_tucker_operator(self):
        grid = UniformGrid(2, 64)
        cfg = weak_gaussian_cfg(rank=4, leaf=8)
        top = construct(cfg, grid)
        hop = construct_hmatrix(cfg, grid)
        rng = np.random.default_rng(41)
        u = rng.standard_normal(grid.num_points)
        assert np.abs(matvec(top, u) - matvec(hop, u)).max() <= 1e-12

    def test_identity_configuration(self):
        grid = UniformGrid(2, 16)
        cfg = BuildConfig(rank=4, leaf_side=8, rule=AdmissibilityRule.weak(),
                          kernel=zero_kernel(),
                          coeff=CoefficientFn.constant(1.0))
        hop = construct_hmatrix(cfg, grid)
        rng = np.random.default_rng(42)
        u = rng.standard_normal(grid.num_points)
        assert np.abs(matvec(hop, u) - u).max() <= 1e-14

    def test_bases_freed_with_the_operator(self):
        """The baseline's Kronecker bases are shared while an operator holds
        them and freed with it: less than 1 MB stays held afterwards."""
        grid = UniformGrid(2, 128)
        cfg = dataclasses.replace(weak_gaussian_cfg(rank=8, leaf=16),
                                  kernel=gaussian(0.9))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            op = construct_hmatrix(cfg, grid)
            # the 4096 x 64 basis of the boxes of side 64 alone is 2 MB
            assert tracemalloc.get_traced_memory()[0] - before > 2**21
            del op
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2**20

    def test_baseline_needs_more_storage(self):
        grid = UniformGrid(2, 64)
        cfg = weak_gaussian_cfg()
        t_total = storage_report(construct(cfg, grid)).total_scalars
        h_total = storage_report(construct_hmatrix(cfg, grid)).total_scalars
        assert h_total > t_total


class TestStorageReport:
    def test_single_dense_leaf(self):
        grid = UniformGrid(2, 16)
        cfg = BuildConfig(rank=8, leaf_side=16, rule=AdmissibilityRule.weak(),
                          kernel=gaussian(np.sqrt(2.0)),
                          coeff=CoefficientFn.constant(0.0))
        rep = storage_report(construct(cfg, grid))
        # three of its four parity sectors, one per number of odd
        # dimensions, a sixteenth of the 256 x 256 block each
        assert rep.dense_scalars == 3 * 64**2
        assert rep.total_scalars == rep.dense_scalars
        assert rep.total_scalars <= rep.theoretical_bound

    def test_weak_2d_bound_holds(self):
        grid = UniformGrid(2, 64)
        rep = storage_report(construct(weak_gaussian_cfg(), grid))
        assert rep.total_scalars == (
            rep.dense_scalars + rep.factor_scalars + rep.core_scalars
        )
        assert rep.total_scalars <= rep.theoretical_bound

    def test_cores_dominate_factors_at_scale(self):
        grid = UniformGrid(2, 256)
        rep = storage_report(construct(weak_gaussian_cfg(), grid))
        assert rep.core_scalars > rep.factor_scalars

    def test_baseline_stores_no_identity_basis(self):
        # the build splits no pair of side 2p = 16 or less, so 56 halves to
        # leaves of side 14: the baseline forms no 49 x 49 bases on boxes of
        # side 7.  Its 16 self leaves of side 14 are Tucker too, each
        # counting two 196 x 64 bases (2,408,448 when they were dense)
        op = construct_hmatrix(weak_gaussian_cfg(leaf=8), UniformGrid(2, 56))
        assert storage_report(op).factor_scalars == 2_809_856

    def test_storage_grows_linearly(self):
        totals = {}
        for n in (64, 128):
            rep = storage_report(construct(weak_gaussian_cfg(), UniformGrid(2, n)))
            totals[n] = rep.total_scalars
        ratio = totals[128] / totals[64]
        assert 3.5 <= ratio <= 4.5

    @pytest.mark.parametrize("case", ["2d-strong-slp", "3d-leaf-side-p", "2d-non-stationary"])
    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_resident_scalars_count_each_buffer_once(self, case, build):
        """The diagonal, each distinct core or dense block's sectors (a
        mirrored class's are its mirror's), and each distinct factor and
        map."""
        grid, cfg = TestClassSharing.MATVEC_CASES[case]
        op = build(cfg, grid)
        rep = storage_report(op)
        payloads = [cls.payload for group in op.groups for cls in group.classes]
        cores = {p.arrays()[0].ctypes.data: p.arrays()[0].size for p in payloads}
        bases = {}
        for a in [m for group in op.groups for m in group.maps] + [
                f for p in payloads if isinstance(p, TuckerBlock)
                for f in p.u_factors + p.v_factors]:
            while a.base is not None:
                a = a.base
            bases[id(a)] = a.size
        assert rep.resident_scalars == (op.diagonal.size + sum(cores.values())
                                        + sum(bases.values()))
        assert rep.resident_scalars < rep.total_scalars

    @pytest.mark.parametrize("build", [construct, construct_hmatrix])
    def test_categories_are_block_scalar_sums(self, build):
        op = build(weak_gaussian_cfg(rank=4, leaf=8), UniformGrid(2, 64))
        rep = storage_report(op)
        sums = np.sum([block.scalars() for _, _, block in leaf_payloads(op)], axis=0)
        assert (rep.dense_scalars, rep.factor_scalars, rep.core_scalars) == tuple(sums)
        assert rep.total_scalars == sum(sums)

    def test_leaf_count_scaling(self):
        counts = {}
        for n in (64, 128):
            op = construct(weak_gaussian_cfg(), UniformGrid(2, n))
            counts[n] = operation_counts(op)["total_leaves"]
        assert counts[128] / counts[64] <= 4.6


class TestLeafCoverage:
    @pytest.mark.parametrize("n,rule", [
        (32, AdmissibilityRule.weak()),
        (64, AdmissibilityRule.weak()),
        (64, AdmissibilityRule.strong(np.sqrt(2.0))),
    ])
    def test_leaf_sizes_sum_to_n_squared(self, n, rule):
        grid = UniformGrid(2, n)
        cfg = BuildConfig(rank=8, leaf_side=16, rule=rule,
                          kernel=gaussian(np.sqrt(2.0)),
                          coeff=CoefficientFn.constant(0.0))
        op = construct(cfg, grid)
        total = sum(tau.num_points * sigma.num_points for tau, sigma, _ in leaf_payloads(op))
        assert total == grid.num_points**2


class TestErrorEstimator:
    def setup_method(self):
        self.grid = UniformGrid(2, 16)
        self.cfg = BuildConfig(rank=8, leaf_side=16,
                               rule=AdmissibilityRule.weak(),
                               kernel=gaussian(np.sqrt(2.0)),
                               coeff=CoefficientFn.constant(0.0))
        self.op = construct(self.cfg, self.grid)
        rng = np.random.default_rng(43)
        self.u = rng.standard_normal(self.grid.num_points)

    def test_zero_for_matching_oracle(self):
        f = matvec(self.op, self.u)
        err = estimate_rel_error_random(
            self.op, lambda rows, u: f[rows], self.u, sample_size=100, seed=1
        )
        assert err == 0.0

    def test_exactly_one_for_doubled_result(self):
        f = matvec(self.op, self.u)
        err = estimate_rel_error_random(
            self.op, lambda rows, u: 0.5 * f[rows], self.u,
            sample_size=100, seed=2,
        )
        assert err == 1.0

    def test_sampled_close_to_full_error(self):
        grid = UniformGrid(2, 64)
        cfg = weak_gaussian_cfg()
        op = construct(cfg, grid)
        rng = np.random.default_rng(44)
        u = rng.standard_normal(grid.num_points)
        dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
        fe = dense.matrix @ u
        full = np.linalg.norm(matvec(op, u) - fe) / np.linalg.norm(fe)
        rows_fn = exact_row_evaluator(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
        sampled = estimate_rel_error_random(op, rows_fn, u, 1000, seed=3)
        assert sampled <= 3.0 * full
        assert full <= 3.0 * sampled

    def test_same_seed_reproducible(self):
        rows_fn = exact_row_evaluator(self.cfg.kernel, self.cfg.coeff,
                                      self.grid, self.cfg.quadrature)
        a = estimate_rel_error_random(self.op, rows_fn, self.u, 50, seed=9)
        b = estimate_rel_error_random(self.op, rows_fn, self.u, 50, seed=9)
        assert a == b

    def test_degenerate_zero_norm(self):
        with pytest.raises(DegenerateErrorEstimate):
            estimate_rel_error_random(
                self.op, lambda rows, u: np.zeros(len(rows)),
                np.zeros(self.grid.num_points), sample_size=10, seed=0,
            )

    def test_complex_input_rejected(self):
        rows_fn = exact_row_evaluator(self.cfg.kernel, self.cfg.coeff,
                                      self.grid, self.cfg.quadrature)
        with pytest.raises(ValueError, match="complex"):
            estimate_rel_error_random(self.op, rows_fn, self.u + 1j * self.u,
                                      50, seed=9)

    @pytest.mark.parametrize("wrong,match", [
        # a column broadcast against the sampled rows: 0.64 where the
        # error is 1.06e-5 (32^2 weak Gaussian, p = 4, leaf 8)
        (lambda exact: exact[:, None], r"shape \(100, 1\); expected \(100,\)"),
        (lambda exact: exact + 0j, "complex"),
    ], ids=["column", "complex"])
    def test_oracle_not_one_real_value_per_row_rejected(self, wrong, match):
        rows_fn = exact_row_evaluator(self.cfg.kernel, self.cfg.coeff,
                                      self.grid, self.cfg.quadrature)
        with pytest.raises(ValueError, match=match):
            estimate_rel_error_random(self.op, lambda rows, u: wrong(rows_fn(rows, u)),
                                      self.u, 100, seed=1)

    @pytest.mark.parametrize("size,match", [
        # 0 raised "exact result has zero norm", -1 numpy's "negative
        # dimensions", 2.5 a TypeError
        (0, "sample size must be positive"),
        (-1, "sample size must be positive"),
        (2.5, "sample size must be an integer"),
        (10.0, "sample size must be an integer"),
        (True, "sample size must be an integer"),
    ])
    def test_sample_size_not_a_positive_integer_rejected(self, size, match):
        f = matvec(self.op, self.u)
        with pytest.raises(ValueError, match=match):
            estimate_rel_error_random(self.op, lambda rows, u: f[rows], self.u,
                                      sample_size=size, seed=0)

    def test_oversized_sample_rejected(self):
        with pytest.raises(ValueError):
            estimate_rel_error_random(
                self.op, lambda rows, u: np.zeros(len(rows)), self.u,
                sample_size=10**6, seed=0,
            )


class TestErrorStability:
    def test_error_stable_across_sizes(self):
        errors = []
        for n in (32, 64, 128):
            grid = UniformGrid(2, n)
            cfg = weak_gaussian_cfg()
            op = construct(cfg, grid)
            rng = np.random.default_rng(45)
            u = rng.standard_normal(grid.num_points)
            rows_fn = exact_row_evaluator(cfg.kernel, cfg.coeff, grid,
                                          cfg.quadrature)
            errors.append(
                estimate_rel_error_random(op, rows_fn, u, 1000, seed=4)
            )
        assert max(errors) / min(errors) < 10.0
