import tracemalloc
import warnings

import numpy as np
import pytest

from htlr import (
    CoefficientFn,
    QuadratureConfig,
    TriMesh,
    UniformGrid,
    custom,
    dense_assemble,
    exact_row_evaluator,
    gaussian,
    materialize,
    mode_product,
    quasi_row_evaluator,
    rel_fro_error,
    slp_2d,
    sthosvd,
    structured_trimesh,
)
from htlr.cli import rank_explore_errors
from htlr.kernels import triangle_entries
from oracle_utils import polar_slp2d_triangle_average, recursive_block_pairs


def constant_kernel(c):
    return custom(lambda x, y: np.full(np.broadcast(x, y).shape[:-1], c))


class TestDenseAssemble:
    def test_single_point_grid(self):
        grid = UniformGrid(2, 1)
        dense = dense_assemble(
            constant_kernel(1.0), CoefficientFn.constant(0.0), grid,
            QuadratureConfig(),
        )
        assert dense.matrix.shape == (1, 1)
        assert dense.matrix[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_symmetry_for_symmetric_kernel(self):
        grid = UniformGrid(2, 8)
        dense = dense_assemble(
            gaussian(np.sqrt(2.0)), CoefficientFn.constant(0.0), grid,
            QuadratureConfig(),
        )
        assert np.abs(dense.matrix - dense.matrix.T).max() <= 1e-14

    def test_matches_single_leaf_construction(self):
        from htlr import AdmissibilityRule, BuildConfig, construct

        grid = UniformGrid(2, 4)
        cfg = BuildConfig(rank=4, leaf_side=4, rule=AdmissibilityRule.weak(),
                          kernel=slp_2d(), coeff=CoefficientFn.constant(0.0))
        assert len(list(recursive_block_pairs(2, 4, 4, cfg.rule))) == 1
        op = construct(cfg, grid)
        classes = [cls for group in op.groups for cls in group.classes]
        assert len(classes) == 1 and op.groups[0].side == grid.n
        dense = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature)
        assert np.array_equal(materialize(classes[0].payload), dense.matrix)

    def test_size_guard(self):
        grid = UniformGrid(2, 256)
        with pytest.raises(ValueError):
            dense_assemble(gaussian(1.0), CoefficientFn.constant(0.0), grid,
                           QuadratureConfig(), max_points=1000)


class TestExactRowEvaluator:
    def test_matches_dense_matvec(self):
        grid = UniformGrid(2, 8)
        cfg = QuadratureConfig()
        coeff = CoefficientFn.constant(0.5)
        for kernel in (gaussian(np.sqrt(2.0)), slp_2d()):
            dense = dense_assemble(kernel, coeff, grid, cfg)
            rows_fn = exact_row_evaluator(kernel, coeff, grid, cfg)
            rng = np.random.default_rng(25)
            u = rng.standard_normal(64)
            rows = np.arange(64)
            assert np.abs(rows_fn(rows, u) - dense.matrix @ u).max() <= 1e-13

    @pytest.mark.parametrize("rows_per_chunk", [1, 5])
    def test_chunks_of_rows_match_dense_matvec(self, monkeypatch, rows_per_chunk):
        from htlr import kernels

        grid, cfg = UniformGrid(2, 8), QuadratureConfig()
        coeff = CoefficientFn(lambda pts: 0.5 + pts[:, 1])
        monkeypatch.setattr(kernels, "EVAL_CHUNK", rows_per_chunk * grid.num_points)
        dense = dense_assemble(slp_2d(), coeff, grid, cfg)
        rows_fn = exact_row_evaluator(slp_2d(), coeff, grid, cfg)
        u = np.random.default_rng(30).standard_normal(64)
        rows = np.random.default_rng(31).permutation(64)[:23]
        expected = (dense.matrix @ u)[rows]
        assert np.abs(rows_fn(rows, u) - expected).max() <= 1e-13


def jittered_mesh(cells, seed):
    """Structured mesh with every interior vertex moved by up to a quarter
    cell per coordinate, the jitter of the benchmark's quasi-uniform mesh."""
    base = structured_trimesh(cells)
    verts = base.vertices.copy()
    interior = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    verts[interior] += rng.uniform(-0.25, 0.25, size=(int(interior.sum()), 2)) / cells
    return TriMesh(vertices=verts, triangles=base.triangles)


class TestQuasiRowEvaluator:
    @staticmethod
    def slp_self_errors(mesh):
        """|K_ii - polar oracle| of every triangle; with a = 0, row i of the
        reference applied to e_i is K_ii |triangle i|."""
        rows_fn = quasi_row_evaluator(
            slp_2d(), CoefficientFn.constant(0.0), mesh, QuadratureConfig()
        )
        errors = []
        for i in range(mesh.num_triangles):
            e_i = np.zeros(mesh.num_triangles)
            e_i[i] = 1.0
            entry = rows_fn(np.array([i]), e_i)[0] / mesh.areas[i]
            ref = polar_slp2d_triangle_average(mesh.corners(i), mesh.centroids[i])
            errors.append(abs(entry - ref))
        return np.array(errors)

    # The absolute error of the log kernel's average does not depend on the
    # triangle's size, only on its shape.  Bounds are about 3x the errors
    # measured at q = 10.

    def test_slp_self_term_on_right_triangles(self):
        # measured 5.6e-11 on every triangle
        errors = self.slp_self_errors(structured_trimesh(4))
        assert errors.max() <= 1.7e-10

    def test_slp_self_term_on_jittered_triangles(self):
        # measured at most 5.7e-11 on both meshes; seed 3 holds a triangle
        # with a 148.6 degree angle, whose half edges are up to 11 times
        # the center's distance to their edge
        for seed in (1, 3):
            errors = self.slp_self_errors(jittered_mesh(16, seed=seed))
            assert errors.max() <= 1.7e-10

    @pytest.mark.parametrize("corners", [
        [(0.0, 0.0), (1.0, 0.0), (-3.0, 0.1)],
        [(0.0, 0.0), (1.0, 0.0), (0.5, 0.02)],
    ], ids=["clamped-foot", "flat"])
    def test_slp_self_term_on_extreme_triangles(self, corners):
        # on the first, the perpendicular from the center to the edge along
        # the x axis falls outside it: one half edge has zero length and
        # must add nothing, and no warning
        corners = np.array(corners)
        center = corners.mean(axis=0)
        e1, e2 = corners[1] - corners[0], corners[2] - corners[0]
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry = triangle_entries(slp_2d(), corners[None], center[None],
                                     np.array([area]), QuadratureConfig())[0]
        # measured 5.6e-11 and 4.8e-11
        assert abs(entry - polar_slp2d_triangle_average(corners, center)) <= 1.7e-10

    def test_non_integrable_kernel_rejected(self):
        # the Duffy sum is finite, but grows with the order: 56,535, 69,443
        # and 82,584 at q = 10, 20 and 40 on the right triangle of legs 1/16
        kernel = custom(lambda x, y: 1.0 / np.sum((x - y) ** 2, axis=-1), smooth_at_diagonal=False)
        corners = np.array([(0.0, 0.0), (1 / 16, 0.0), (0.0, 1 / 16)])
        mesh, cfg = structured_trimesh(16), QuadratureConfig()
        with pytest.raises(ValueError, match="not integrable over a triangle"):
            triangle_entries(kernel, corners[None], corners.mean(axis=0)[None],
                             np.array([1 / 512]), cfg)
        rows_fn = quasi_row_evaluator(kernel, CoefficientFn.constant(0.0), mesh, cfg)
        with pytest.raises(ValueError, match="not integrable over a triangle"):
            rows_fn(np.arange(4), np.ones(mesh.num_triangles))


class TestRowOracleMemory:
    """The row oracles evaluate the kernel as the batched builds do, at most
    EVAL_CHUNK values at a time: their peak is a few chunks of values
    (measured 4.0 chunks on both), not one array per row block of the
    whole system."""

    @pytest.mark.parametrize("kernel", [slp_2d(), gaussian(1.0)], ids=["slp2d", "gaussian"])
    @pytest.mark.parametrize("oracle", ["exact", "quasi"])
    def test_peak_is_a_few_chunks(self, kernel, oracle):
        from htlr import kernels

        coeff, cfg = CoefficientFn(lambda pts: 1.0 + pts[:, 0]), QuadratureConfig()
        if oracle == "exact":
            # 4,096 points: 256 rows are 2^20 kernel values, four chunks
            size, rows_fn = 4096, exact_row_evaluator(kernel, coeff, UniformGrid(2, 64), cfg)
        else:
            size, rows_fn = 4608, quasi_row_evaluator(kernel, coeff, structured_trimesh(48), cfg)
        rng = np.random.default_rng(32)
        rows, u = rng.choice(size, size=256, replace=False), rng.standard_normal(size)
        rows_fn(rows[:1], u)  # the quadrature rules are cached
        tracemalloc.start()
        try:
            rows_fn(rows, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * kernels.EVAL_CHUNK


class TestRowOracleInput:
    """Row ids outside [0, N) or not integers, and a u that is complex,
    non-finite or of the wrong length, are errors, not rows N - 1 or 2 or a
    dropped imaginary part."""

    @staticmethod
    def oracle(kind):
        coeff, cfg = CoefficientFn.constant(0.5), QuadratureConfig()
        if kind == "exact":
            return 64, exact_row_evaluator(gaussian(1.0), coeff, UniformGrid(2, 8), cfg)
        return 32, quasi_row_evaluator(gaussian(1.0), coeff, structured_trimesh(4), cfg)

    @pytest.mark.parametrize("kind", ["exact", "quasi"])
    @pytest.mark.parametrize("row", [-1, "size"])
    def test_row_out_of_range_rejected(self, kind, row):
        size, rows_fn = self.oracle(kind)
        row = size if row == "size" else row
        with pytest.raises(ValueError, match=rf"\[0, {size}\)"):
            rows_fn(np.array([0, row]), np.ones(size))

    @pytest.mark.parametrize("kind", ["exact", "quasi"])
    @pytest.mark.parametrize("rows", [[2.7], [2.0], [True]])
    def test_row_not_integer_rejected(self, kind, rows):
        size, rows_fn = self.oracle(kind)
        with pytest.raises(ValueError, match="integers"):
            rows_fn(np.array(rows), np.ones(size))

    @pytest.mark.parametrize("kind", ["exact", "quasi"])
    def test_complex_u_rejected(self, kind):
        size, rows_fn = self.oracle(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="complex"):
                rows_fn(np.arange(3), np.full(size, 1.0 + 2.0j))

    @pytest.mark.parametrize("kind", ["exact", "quasi"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_u_rejected(self, kind, bad):
        size, rows_fn = self.oracle(kind)
        u = np.ones(size)
        u[5] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            rows_fn(np.arange(3), u)

    @pytest.mark.parametrize("kind", ["exact", "quasi"])
    def test_wrong_length_u_rejected(self, kind):
        size, rows_fn = self.oracle(kind)
        with pytest.raises(ValueError, match=f"!= {size}"):
            rows_fn(np.arange(3), np.ones(size + 1))

    @pytest.mark.parametrize("kind", ["exact", "quasi"])
    def test_list_of_rows_and_no_rows_accepted(self, kind):
        size, rows_fn = self.oracle(kind)
        u = np.random.default_rng(33).standard_normal(size)
        assert np.array_equal(rows_fn([size - 1, 0], u), rows_fn(np.array([size - 1, 0]), u))
        assert rows_fn([], u).shape == (0,)


class TestSthosvd:
    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(30)
        core = rng.standard_normal((2, 2, 2))
        t = core
        for mode in range(3):
            t = mode_product(t, rng.standard_normal((8, 2)), mode + 1)
        res = sthosvd(t, (2, 2, 2))
        assert rel_fro_error(res.reconstruct(), t) <= 1e-12

    def test_full_ranks_exact(self):
        rng = np.random.default_rng(31)
        t = rng.standard_normal((4, 5, 3))
        res = sthosvd(t, (4, 5, 3))
        assert rel_fro_error(res.reconstruct(), t) <= 1e-13
        assert np.all(res.discarded_energy == 0.0)

    def test_error_bounded_by_discarded_energy(self):
        rng = np.random.default_rng(32)
        t = rng.standard_normal((8, 8, 8))
        res = sthosvd(t, (4, 4, 4))
        err = np.linalg.norm(res.reconstruct() - t)
        bound = np.sqrt(np.sum(res.discarded_energy))
        assert err <= bound * (1 + 1e-12)

    def test_factors_orthonormal(self):
        rng = np.random.default_rng(33)
        t = rng.standard_normal((6, 7, 5))
        res = sthosvd(t, (3, 3, 3))
        for f in res.factors:
            assert np.abs(f.T @ f - np.eye(3)).max() <= 1e-12

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            sthosvd(np.ones((3, 3)), (4, 1))
        with pytest.raises(ValueError):
            sthosvd(np.ones((3, 3)), (1, 1, 1))


class TestRelFroError:
    def test_identical_inputs(self):
        m = np.arange(6.0).reshape(2, 3)
        assert rel_fro_error(m, m) == 0.0

    def test_zero_approximation(self):
        m = np.ones((3, 3))
        assert rel_fro_error(np.zeros((3, 3)), m) == 1.0

    def test_homogeneity(self):
        rng = np.random.default_rng(34)
        m = rng.standard_normal((5, 5))
        eps = 1e-4
        assert rel_fro_error((1 + eps) * m, m) == pytest.approx(eps, abs=1e-14)

    def test_shape_and_zero_denominator(self):
        with pytest.raises(ValueError):
            rel_fro_error(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            rel_fro_error(np.ones((2, 2)), np.zeros((2, 2)))


@pytest.fixture(scope="module")
def slp_rows():
    rows = rank_explore_errors("slp2d", 2, [4, 8, 16])
    return {(r["pair"], r["method"], r["p"]): r["rel_fro_error"] for r in rows}


class TestRankStudyTrends:
    """Tucker-vs-conventional compression on the neighbor/well-separated
    block study (2D, 32 points per direction)."""

    def test_sthosvd_close_to_interp_on_wellsep(self, slp_rows):
        for p in (4, 8):
            st = slp_rows[("wellsep", "sthosvd", p)]
            it = slp_rows[("wellsep", "interp", p)]
            assert st <= 10.0 * it

    def test_neighbor_slp_resists_tucker_compression(self, slp_rows):
        assert slp_rows[("neighbor", "sthosvd", 16)] > 1e-4
