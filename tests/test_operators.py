import collections
import dataclasses

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
    storage_count,
    storage_report,
)
from htlr.blocks import DenseBlock
from htlr.grids import ADMISSIBLE
from htlr.operators import DegenerateErrorEstimate


def zero_kernel():
    return custom(lambda x, y: np.zeros(np.broadcast(x, y).shape[:-1]))


def weak_gaussian_cfg(rank=8, leaf=16):
    return BuildConfig(
        rank=rank, leaf_side=leaf, rule=AdmissibilityRule.weak(),
        kernel=gaussian(np.sqrt(2.0)), coeff=CoefficientFn.constant(0.0),
    )


def assert_every_leaf_matches_dense(cfg, grid):
    """Admissible leaves within 1e-9 relative of the dense oracle entry by
    entry, dense leaves bit-equal to it."""
    op = construct(cfg, grid)
    dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
    for leaf in op.block_tree.leaves:
        rows = leaf.tau.box.linear_indices(grid.n)
        cols = leaf.sigma.box.linear_indices(grid.n)
        sub = dense.matrix[np.ix_(rows, cols)]
        rec = materialize(op.payloads[leaf.leaf_id])
        if leaf.kind == ADMISSIBLE:
            assert (np.abs(rec - sub) / np.abs(sub)).max() <= 1e-9
        else:
            assert np.array_equal(rec, sub)


class TestBuildConfig:
    def test_leaf_side_outside_recommended_range_warns(self):
        with pytest.warns(UserWarning, match="recommended range"):
            BuildConfig(rank=4, leaf_side=16, rule=AdmissibilityRule.weak(),
                        kernel=gaussian(1.0), coeff=CoefficientFn.constant(0.0))

    def test_recommended_range_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BuildConfig(rank=8, leaf_side=16, rule=AdmissibilityRule.weak(),
                        kernel=gaussian(1.0), coeff=CoefficientFn.constant(0.0))

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            BuildConfig(rank=0, leaf_side=16, rule=AdmissibilityRule.weak(),
                        kernel=gaussian(1.0), coeff=CoefficientFn.constant(0.0))

    def test_invalid_leaf_side(self):
        with pytest.raises(ValueError, match="leaf side"):
            BuildConfig(rank=4, leaf_side=0, rule=AdmissibilityRule.weak(),
                        kernel=gaussian(1.0), coeff=CoefficientFn.constant(0.0))


class TestConstruct:
    def test_single_leaf_equals_dense_oracle(self):
        grid = UniformGrid(2, 4)
        cfg = BuildConfig(rank=4, leaf_side=4, rule=AdmissibilityRule.weak(),
                          kernel=gaussian(np.sqrt(2.0)),
                          coeff=CoefficientFn.constant(0.0))
        op = construct(cfg, grid)
        assert len(op.payloads) == 1
        assert isinstance(op.payloads[0], DenseBlock)
        dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
        assert np.array_equal(op.payloads[0].matrix, dense.matrix)

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
        original = kernels.diagonal_entry

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(kernels, "diagonal_entry", counting)
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
    return len({
        (
            leaf.tau.box.sizes,
            leaf.sigma.box.sizes,
            tuple(s - t for (s, _), (t, _) in
                  zip(leaf.sigma.box.ranges, leaf.tau.box.ranges)),
        )
        for leaf in op.block_tree.leaves
    })


def per_leaf_matvec(op, build_admissible, u):
    """The operator's kernel part rebuilt leaf by leaf, applied to u."""
    cfg, grid = op.config, op.grid
    f = np.zeros(grid.num_points)
    for leaf in op.block_tree.leaves:
        tau, sigma = leaf.tau.box, leaf.sigma.box
        if leaf.kind == ADMISSIBLE:
            block = build_admissible(cfg.kernel, grid, tau, sigma, cfg.rank, grid.h)
        else:
            block = build_dense(cfg.kernel, grid, tau, sigma, grid.h,
                                cfg.quadrature)
        cols = sigma.linear_indices(grid.n)
        f[tau.linear_indices(grid.n)] += block.apply(u[cols])
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
        # leaf side = p: every factor is square and folded into the core
        "3d-leaf-side-p": (UniformGrid(3, 16), BuildConfig(
            rank=4, leaf_side=4, rule=AdmissibilityRule.weak(),
            kernel=gaussian(np.sqrt(3.0)), coeff=CoefficientFn.constant(0.0),
        )),
        # strong admissibility: dense classes off the diagonal as well
        "2d-strong-slp": (UniformGrid(2, 64), BuildConfig(
            rank=4, leaf_side=8, rule=AdmissibilityRule.strong(np.sqrt(2.0)),
            kernel=slp_2d(), coeff=CoefficientFn.constant(0.0),
        )),
        # leaf side 12, not a power of two
        "2d-n48-leaf16": (UniformGrid(2, 48), weak_gaussian_cfg()),
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
        assert len({id(block) for block in op.payloads}) == translation_classes(op)
        assert len(op.payloads) > translation_classes(op)

        rep = storage_report(op)
        per_leaf = np.sum(
            [op.payloads[leaf.leaf_id].scalars() for leaf in op.block_tree.leaves],
            axis=0,
        )
        assert (rep.dense_scalars, rep.factor_scalars, rep.core_scalars) == tuple(per_leaf)

    @pytest.mark.parametrize("case", sorted(MATVEC_CASES))
    @BUILDS
    def test_matvec_matches_per_leaf(self, case, build, build_admissible):
        grid, cfg = self.MATVEC_CASES[case]
        op = build(cfg, grid)
        u = np.random.default_rng(46).standard_normal(grid.num_points)
        expected = per_leaf_matvec(op, build_admissible, u)
        assert np.abs(matvec(op, u) - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_non_stationary_custom_kernel_builds_per_leaf(self):
        grid, cfg = UniformGrid(2, 64), non_stationary_cfg()
        assert_every_leaf_matches_dense(cfg, grid)
        # every leaf is a class of its own
        op = construct(cfg, grid)
        assert sum(len(group.classes) for group in op.groups) == len(op.payloads)

    @pytest.mark.parametrize("case", ["2d-weak-gaussian", "2d-non-stationary"])
    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_factors_shared_per_side(self, case, build):
        grid, cfg = self.MATVEC_CASES[case]
        op = build(cfg, grid)
        by_side = collections.defaultdict(list)
        for leaf in op.block_tree.leaves:
            block = op.payloads[leaf.leaf_id]
            if leaf.kind == ADMISSIBLE:
                by_side[leaf.tau.box.sizes[0]] += [block.u_factors, block.v_factors]
        assert len(by_side) > 1
        for factors in by_side.values():
            assert all(f is g for fs in factors for f, g in zip(fs, factors[0]))
        # one factor group per admissible side, plus the dense one
        assert len(op.groups) == len(by_side) + 1

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("build", [construct, construct_hmatrix],
                             ids=["tucker", "lowrank"])
    def test_matvec_applies_each_class_once(self, case, build, monkeypatch):
        """One core application per class, one projection and one expansion
        per factor group, per matvec."""
        from htlr import operators

        grid, cfg = self.CASES[case]
        op = build(cfg, grid)
        cores, passes = collections.Counter(), collections.Counter()

        class CoreSpy:
            def __init__(self, block):
                self.block = block

            @property
            def core_matrix(self):
                cores[id(self)] += 1
                return self.block.core_matrix

        for group in op.groups:
            group.classes[:] = [dataclasses.replace(cls, payload=CoreSpy(cls.payload))
                                for cls in group.classes]

        def counted(stage, fn):
            def spy(x, grid, side, factors):
                passes[stage, side, tuple(map(id, factors))] += 1
                return fn(x, grid, side, factors)
            return spy

        monkeypatch.setattr(operators, "project", counted("project", operators.project))
        monkeypatch.setattr(operators, "expand", counted("expand", operators.expand))
        u = np.random.default_rng(49).standard_normal(grid.num_points)
        for rounds in (1, 2):
            matvec(op, u)
            assert sum(cores.values()) == rounds * translation_classes(op)
            assert set(cores.values()) == {rounds}
            assert sum(passes.values()) == 2 * rounds * len(op.groups)
            assert set(passes.values()) == {rounds}


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

    def test_non_constant_coefficient_is_the_diagonal(self):
        op = construct(self.cfg, self.grid)
        without = construct(
            dataclasses.replace(self.cfg, coeff=CoefficientFn.constant(0.0)), self.grid
        )
        au = self.coeff(self.grid.points(IndexBox(((0, 32), (0, 32))))) * self.u
        diff = matvec(op, self.u) - matvec(without, self.u)
        assert np.abs(diff - au).max() <= 1e-15 * np.abs(au).max()

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
        grid = UniformGrid(2, 32)
        cfg = weak_gaussian_cfg()
        op = construct(cfg, grid)
        dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
        rng = np.random.default_rng(40)
        u = rng.standard_normal(grid.num_points)
        for leaf in op.block_tree.leaves:
            block = op.payloads[leaf.leaf_id]
            if not isinstance(block, DenseBlock):
                continue
            rows = leaf.tau.box.linear_indices(32)
            cols = leaf.sigma.box.linear_indices(32)
            assert np.array_equal(
                block.matrix @ u[cols],
                dense.matrix[np.ix_(rows, cols)] @ u[cols],
            )


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
        assert rep.dense_scalars == 256**2
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

    def test_storage_grows_linearly(self):
        totals = {}
        for n in (64, 128):
            rep = storage_report(construct(weak_gaussian_cfg(), UniformGrid(2, n)))
            totals[n] = rep.total_scalars
        ratio = totals[128] / totals[64]
        assert 3.5 <= ratio <= 4.5

    @pytest.mark.parametrize("build", [construct, construct_hmatrix])
    def test_categories_are_block_scalar_sums(self, build):
        op = build(weak_gaussian_cfg(rank=4, leaf=8), UniformGrid(2, 64))
        rep = storage_report(op)
        sums = np.sum([block.scalars() for block in op.payloads], axis=0)
        assert (rep.dense_scalars, rep.factor_scalars, rep.core_scalars) == tuple(sums)
        assert rep.total_scalars == sum(storage_count(b) for b in op.payloads)

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
        total = sum(
            leaf.tau.box.num_points * leaf.sigma.box.num_points
            for leaf in op.block_tree.leaves
        )
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
