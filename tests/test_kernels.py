import numpy as np
import pytest

from htlr import (
    CoefficientFn,
    QuadratureConfig,
    custom,
    diagonal_entry,
    gaussian,
    pairwise,
    slp_2d,
    slp_3d,
)
from htlr import kernels
from htlr.kernels import (
    KernelSpec,
    _squared_distance,
    by_name,
    pairwise_self,
    self_entries,
)
from oracle_utils import shell_diagonal_average


def evaluate(k, x, y) -> float:
    """The kernel at one point pair, as :func:`pairwise` gives it."""
    return float(pairwise(k, np.asarray(x)[None], np.asarray(y)[None])[0, 0])


class TestEvaluate:
    def test_gaussian_at_coincident_points(self):
        assert evaluate(gaussian(1.3), (0.2, 0.7), (0.2, 0.7)) == 1.0

    def test_slp2d_at_unit_distance(self):
        assert evaluate(slp_2d(), (0.0, 0.0), (1.0, 0.0)) == 0.0

    def test_slp3d_formula_inversion(self):
        r = 1.0 / (4.0 * np.pi)
        val = evaluate(slp_3d(), (0.0, 0.0, 0.0), (r, 0.0, 0.0))
        assert val == pytest.approx(1.0, rel=1e-14)

    def test_singular_evaluation_rejected(self):
        with pytest.raises(ValueError):
            evaluate(slp_2d(), (0.5, 0.5), (0.5, 0.5))
        with pytest.raises(ValueError):
            evaluate(slp_3d(), (0.5, 0.5, 0.5), (0.5, 0.5, 0.5))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf"), None])
    def test_gaussian_width_must_be_finite_and_positive(self, sigma):
        # a NaN width would turn every output of the operator into NaN
        with pytest.raises(ValueError, match="finite sigma > 0"):
            gaussian(sigma)

    def test_by_name_defaults_and_dimension_checks(self):
        assert by_name("gaussian", 3).sigma == pytest.approx(np.sqrt(3.0))
        assert by_name("slp2d", 2) == slp_2d()
        assert by_name("slp3d", 3) == slp_3d()
        with pytest.raises(ValueError):
            by_name("slp3d", 2)
        with pytest.raises(ValueError):
            by_name("slp2d", 3)


@pytest.mark.parametrize("make, message", [
    (lambda: by_name("laplace", 2), "unknown kernel 'laplace'"),
    (lambda: KernelSpec(kind="custom"), "custom kernel needs an evaluator"),
], ids=["by-name", "custom-evaluator"])
def test_input_guard_names_the_fault(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestCustomKernelOutput:
    """A custom evaluator's result is checked as a coefficient's is: real,
    and of the broadcast shape of x and y without the coordinate axis."""

    def test_complex_values_rejected(self):
        from htlr import AdmissibilityRule, BuildConfig, UniformGrid, construct

        kernel = custom(lambda x, y: np.exp(-np.sum((x - y) ** 2, axis=-1)) + 0j)
        pts = np.random.default_rng(52).random((3, 2))
        with pytest.raises(ValueError, match="complex"):
            pairwise(kernel, pts, pts + 2.0)
        cfg = BuildConfig(rank=4, leaf_side=8, rule=AdmissibilityRule.weak(),
                          kernel=kernel, coeff=CoefficientFn.constant(0.0))
        with pytest.raises(ValueError, match="complex"):
            construct(cfg, UniformGrid(2, 16))

    @pytest.mark.parametrize("evaluator, shape", [
        (lambda x, y: 1.0, r"\(\)"),
        (lambda x, y: np.sum(x * x, axis=-1), r"\(3, 1\)"),
    ], ids=["scalar", "drops-y-axis"])
    def test_wrong_shape_rejected(self, evaluator, shape):
        pts = np.random.default_rng(53).random((3, 2))
        with pytest.raises(ValueError, match=shape + r"; expected \(3, 4\)"):
            pairwise(custom(evaluator), pts, pts[:1] + np.arange(4.0)[:, None])

    def test_broadcast_shape_accepted(self):
        kernel = custom(lambda x, y: np.exp(-np.sum((x - y) ** 2, axis=-1)))
        pts = np.random.default_rng(54).random((3, 2))
        assert pairwise(kernel, pts, pts[:2]).shape == (3, 2)
        assert evaluate(kernel, (0.0, 0.0), (0.0, 0.0)) == 1.0


class TestKernelSpec:
    @pytest.mark.parametrize("kind", ["slp3D", "gauss", ""])
    def test_unknown_kind_rejected(self, kind):
        # "slp3D" evaluated as the 3D single layer
        with pytest.raises(ValueError, match="unknown kernel kind"):
            KernelSpec(kind=kind, sigma=1.0)

    @pytest.mark.parametrize("spec", [
        dict(kind="slp2d"), dict(kind="slp3d"),
        dict(kind="gaussian", sigma=1.0, smooth_at_diagonal=False),
    ], ids=["slp2d", "slp3d", "gaussian"])
    def test_builtin_smoothness_must_match_its_factory(self, spec):
        # KernelSpec(kind="slp2d") integrated the log singularity with the
        # smooth rule: 0.82955 for 0.83080 on the diagonal at h = 1/64
        with pytest.raises(ValueError, match="smooth_at_diagonal"):
            KernelSpec(**spec)

    def test_evaluator_on_builtin_kind_rejected(self):
        # KernelSpec(kind="gaussian", sigma=1.0, evaluator=zero) evaluated
        # the Gaussian, 0.8825 at distance 0.5, not the zero kernel
        def zero(x, y):
            return np.zeros(np.broadcast(x, y).shape[:-1])

        for spec in (dict(kind="gaussian", sigma=1.0),
                     dict(kind="slp2d", smooth_at_diagonal=False),
                     dict(kind="slp3d", smooth_at_diagonal=False)):
            with pytest.raises(ValueError, match="takes no evaluator"):
                KernelSpec(evaluator=zero, **spec)

    @pytest.mark.parametrize("spec", [
        dict(kind="slp2d", smooth_at_diagonal=False),
        dict(kind="slp3d", smooth_at_diagonal=False),
        dict(kind="custom", evaluator=np.dot),
    ], ids=["slp2d", "slp3d", "custom"])
    def test_sigma_off_the_gaussian_rejected(self, spec):
        # accepted and never used
        with pytest.raises(ValueError, match="takes no sigma"):
            KernelSpec(sigma=1.0, **spec)

    def test_factory_settings_accepted(self):
        assert KernelSpec(kind="gaussian", sigma=1.0) == gaussian(1.0)
        assert KernelSpec(kind="slp2d", smooth_at_diagonal=False) == slp_2d()
        assert KernelSpec(kind="slp3d", smooth_at_diagonal=False) == slp_3d()
        for smooth in (True, False):
            assert custom(np.dot, smooth).smooth_at_diagonal == smooth


class TestSymmetryInvariance:
    @pytest.mark.parametrize("kernel,d", [
        (gaussian(np.sqrt(2.0)), 2),
        (slp_2d(), 2),
        (gaussian(np.sqrt(3.0)), 3),
        (slp_3d(), 3),
    ])
    def test_symmetry(self, kernel, d):
        rng = np.random.default_rng(17)
        for _ in range(20):
            x, y = rng.random(d), rng.random(d)
            assert evaluate(kernel, x, y) == evaluate(kernel, y, x)

    @pytest.mark.parametrize("kernel,d", [
        (gaussian(np.sqrt(2.0)), 2),
        (slp_2d(), 2),
        (slp_3d(), 3),
    ])
    def test_translation_invariance(self, kernel, d):
        rng = np.random.default_rng(18)
        for _ in range(20):
            x, y = rng.random(d) * 0.4, rng.random(d) * 0.4 + 0.5
            shift = rng.random(d) * 0.05
            a = evaluate(kernel, x, y)
            b = evaluate(kernel, x + shift, y + shift)
            assert abs(a - b) <= 1e-15 * max(1.0, abs(a))


class TestPairwise:
    def test_matches_scalar_evaluation(self):
        rng = np.random.default_rng(19)
        xs = rng.random((5, 2))
        ys = rng.random((7, 2)) + 2.0
        mat = pairwise(slp_2d(), xs, ys)
        for i in range(5):
            for j in range(7):
                assert mat[i, j] == evaluate(slp_2d(), xs[i], ys[j])


def inverse_distance(x, y):
    return 1.0 / np.linalg.norm(x - y, axis=-1)


class TestPairwiseSelf:
    @pytest.mark.parametrize(
        "kernel, d",
        [(gaussian(0.7), 2), (slp_2d(), 2), (slp_3d(), 3),
         (custom(inverse_distance, smooth_at_diagonal=False), 2)],
        ids=["gaussian", "slp2d", "slp3d", "custom"],
    )
    def test_matches_pairwise_off_the_coincident_entries(self, kernel, d):
        pts = np.random.default_rng(23).random((12, d))
        sel = np.array([7, 0, 3, 11, 5])
        self_values = np.arange(1.0, sel.size + 1.0)
        out = pairwise_self(kernel, pts, sel, self_values)
        assert out.shape == (sel.size, len(pts))
        for i, j in enumerate(sel):
            others = np.delete(np.arange(len(pts)), j)
            expected = pairwise(kernel, pts[[j]], pts[others])[0]
            assert np.array_equal(out[i, others], expected)
        assert np.array_equal(out[np.arange(sel.size), sel], self_values)


class TestSelfEntries:
    @pytest.mark.parametrize(
        "kernel",
        [slp_2d(),
         custom(lambda x, y: (1.0 + x[..., 0]) * np.exp(-np.sum((x - y) ** 2, axis=-1)))],
        ids=["slp2d", "custom"],
    )
    def test_equal_per_point_diagonal_entry(self, kernel):
        pts = np.random.default_rng(29).random((6, 2))
        h, cfg = 1 / 8, QuadratureConfig()
        expected = [diagonal_entry(kernel, p, h, cfg) for p in pts]
        assert np.array_equal(self_entries(kernel, pts, h, cfg), expected)


    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("smooth", [True, False], ids=["smooth", "singular"])
    def test_custom_kernel_cells_batched_in_chunks(self, d, smooth, monkeypatch):
        # one kernel call per chunk of cells gives the bits of one call per
        # cell, also when a chunk holds only a few cells
        if smooth:
            kernel = custom(lambda x, y: (1.0 + x[..., 0])
                            * np.exp(-np.sum((x - y) ** 2, axis=-1)))
        else:
            kernel = custom(lambda x, y: (1.0 + x[..., 0])
                            / np.sqrt(np.sum((x - y) ** 2, axis=-1)),
                            smooth_at_diagonal=False)
        pts = np.random.default_rng(30 + d).random((40, d))
        h, cfg = 1 / 8, QuadratureConfig()
        expected = [diagonal_entry(kernel, p, h, cfg) for p in pts]
        assert np.array_equal(self_entries(kernel, pts, h, cfg), expected)
        cell = cfg.q**d * (1 if smooth else 2**d * d)
        monkeypatch.setattr(kernels, "EVAL_CHUNK", 3 * cell)
        assert np.array_equal(self_entries(kernel, pts, h, cfg), expected)


class TestSquaredDistance:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_equal_to_the_summed_squares(self, d):
        """On the shapes that pairwise, pairwise_self, the Duffy rule and
        the Tucker cores of a level pass."""
        rng = np.random.default_rng(60 + d)
        pts = rng.random((300, d))
        sel = rng.choice(300, size=40, replace=False)
        apex = rng.random((24, d))
        nodes = rng.random((2, 16, 64, d))
        cases = [
            (pts[:256, None, :], pts[None, 44:, :]),
            (pts[sel][:, None, :], pts[None, :, :]),
            (np.broadcast_to(apex[:, None, :], (24, 100, d)), rng.random((24, 100, d))),
            (nodes[0][:, None, :, :], nodes[1][:, :, None, :]),
            (pts[0], pts[1]),
        ]
        for x, y in cases:
            assert np.array_equal(_squared_distance(x, y),
                                  np.sum(np.square(x - y), axis=-1))


def test_translation_invariance_is_the_kernel_kind():
    for kernel in (gaussian(1.0), slp_2d(), slp_3d()):
        assert kernel.translation_invariant
    assert not custom(inverse_distance).translation_invariant
    with pytest.raises(TypeError):
        KernelSpec(kind="slp2d", translation_invariant=True)


class TestDiagonalEntry:
    def test_constant_kernel_exact(self):
        k = custom(lambda x, y: np.ones(np.broadcast(x, y).shape[:-1]))
        val = diagonal_entry(k, (0.3, 0.4), 1 / 8, QuadratureConfig())
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_gaussian_near_one_for_small_cells(self):
        # k(x_i, .) = 1 - |z|^2/(2 sigma^2) + O(h^4) on the cell, so the cell
        # average is 1 - h^2/(12 sigma^2) up to O(h^4)
        h = 1 / 64
        val = diagonal_entry(
            gaussian(np.sqrt(2.0)), (0.5, 0.5), h, QuadratureConfig()
        )
        assert abs(val - 1.0) <= 2e-5
        assert val == pytest.approx(1.0 - h**2 / 24.0, abs=1e-9)

    def test_slp2d_matches_shell_oracle(self):
        h = 1 / 16
        val = diagonal_entry(slp_2d(), (0.5, 0.5), h, QuadratureConfig())
        ref = shell_diagonal_average(
            lambda z: -np.log(np.linalg.norm(z, axis=-1)) / (2 * np.pi), 2, h
        )
        assert abs(val - ref) / abs(ref) <= 1e-8

    def test_slp3d_matches_shell_oracle(self):
        h = 1 / 16
        val = diagonal_entry(slp_3d(), (0.5, 0.5, 0.5), h, QuadratureConfig())
        ref = shell_diagonal_average(
            lambda z: 1.0 / (4 * np.pi * np.linalg.norm(z, axis=-1)), 3, h, q=12
        )
        assert abs(val - ref) / abs(ref) <= 1e-8

    @pytest.mark.parametrize("kernel,d", [(slp_2d(), 2), (slp_3d(), 3)])
    def test_quadrature_order_converged(self, kernel, d):
        h = 1 / 16
        center = np.full(d, 0.5)
        v10 = diagonal_entry(kernel, center, h, QuadratureConfig(q=10))
        v20 = diagonal_entry(kernel, center, h, QuadratureConfig(q=20))
        assert abs(v20 - v10) / abs(v20) <= 1e-9

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            diagonal_entry(slp_2d(), (0.5, 0.5), 0.0, QuadratureConfig())

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_non_finite_width_rejected(self, h):
        # both returned NaN
        with pytest.raises(ValueError, match="finite"):
            diagonal_entry(slp_2d(), (0.5, 0.5), h, QuadratureConfig())


class TestCoefficientFn:
    def test_constant(self):
        fn = CoefficientFn.constant(2.5)
        assert np.all(fn(np.zeros((4, 2))) == 2.5)

    @pytest.mark.parametrize("c,match", [
        (np.nan, "not finite"), (np.inf, "not finite"), (-np.inf, "not finite"),
        (1j, "complex"), (np.complex128(2.0), "complex"),
    ], ids=["nan", "inf", "-inf", "imaginary", "complex-dtype"])
    def test_constant_rejects_bad_value_when_made(self, c, match):
        # the build takes the value without evaluating a at any point, so
        # it is checked here: nan and inf failed only at build, 1j raised a
        # TypeError from float()
        with pytest.raises(ValueError, match=match):
            CoefficientFn.constant(c)

    def test_constant_accepts_real_scalars(self):
        for c in (0, 3, -1.5, np.float32(0.25), np.int64(2)):
            fn = CoefficientFn.constant(c)
            assert np.array_equal(fn(np.zeros((3, 2))), np.full(3, float(c)))

    def test_callable(self):
        fn = CoefficientFn(lambda pts: pts[:, 0] + pts[:, 1])
        assert np.allclose(fn(np.array([[0.25, 0.5]])), [0.75])

    @pytest.mark.parametrize("evaluator,match", [
        (lambda pts: pts[:, :1], "shape"),
        (lambda pts: np.full(len(pts), np.nan), "NaN"),
        (lambda pts: np.ones(len(pts) + 1), "shape"),
        (lambda pts: pts[:, 0] + 1j, "complex"),
    ], ids=["column", "nan", "wrong-length", "complex"])
    def test_malformed_values_rejected(self, evaluator, match):
        with pytest.raises(ValueError, match=match):
            CoefficientFn(evaluator)(np.full((5, 2), 0.5))


class TestQuadratureConfig:
    def test_order_floor(self):
        with pytest.raises(ValueError):
            QuadratureConfig(q=1)

    @pytest.mark.parametrize("q", [3.5, 10.0, True])
    def test_non_integer_order_rejected(self, q):
        with pytest.raises(ValueError, match="quadrature order must be an integer"):
            QuadratureConfig(q=q)
