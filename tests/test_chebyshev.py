import numpy as np
import pytest

from htlr import (
    BoundParams,
    IndexBox,
    UniformGrid,
    asymptotic_error_bound,
    cheb_points,
    core_tensor,
    factor_matrix,
    lebesgue_constant,
    slp_2d,
)
from htlr.cli import interp_block_error


BOUND = dict(c_as=1.0, gamma=1.0, eta=2.0, p=4, d=2, lambda_p=2.0)
GUARDS = {
    "box-dimensions": (lambda: core_tensor(slp_2d(), [cheb_points(0.0, 1.0, 2)] * 2,
                                           [cheb_points(2.0, 3.0, 2)] * 3),
                       "box dimensions differ"),
    **{name: (lambda name=name: BoundParams(**{**BOUND, name: 0.0}),
              f"{name} must be positive")
       for name in ("c_as", "gamma", "eta", "lambda_p")},
    "p": (lambda: BoundParams(**{**BOUND, "p": 0}), "p and d must be positive"),
    "d": (lambda: BoundParams(**{**BOUND, "d": 0}), "p and d must be positive"),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_input_guard_names_the_fault(guard):
    make, message = GUARDS[guard]
    with pytest.raises(ValueError, match=message):
        make()


class TestChebPoints:
    def test_single_node_is_midpoint(self):
        grid = cheb_points(0.0, 1.0, 1)
        assert np.allclose(grid.nodes, [0.5], atol=1e-15)

    def test_two_nodes_on_reference_interval(self):
        grid = cheb_points(-1.0, 1.0, 2)
        assert np.allclose(grid.nodes, [np.sqrt(2) / 2, -np.sqrt(2) / 2])

    def test_three_nodes_closed_form(self):
        grid = cheb_points(0.0, 2.0, 3)
        expected = [1 + np.cos(np.pi / 6), 1.0, 1 - np.cos(np.pi / 6)]
        assert np.allclose(grid.nodes, expected, atol=1e-15)

    def test_nodes_interior_and_decreasing(self):
        for p in (1, 2, 5, 16):
            grid = cheb_points(0.25, 0.5, p)
            assert np.all(grid.nodes > 0.25) and np.all(grid.nodes < 0.5)
            assert np.all(np.diff(grid.nodes) < 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cheb_points(1.0, 0.0, 3)
        with pytest.raises(ValueError):
            cheb_points(0.0, 1.0, 0)

    @pytest.mark.parametrize("order", [2.5, 3.0, True])
    def test_non_integer_order_rejected(self, order):
        # 2.5 gave 3 nodes at the angles of p = 2.5
        with pytest.raises(ValueError, match="order must be an integer"):
            cheb_points(0.0, 1.0, order)

    @pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 0.0),
                                        (np.nan, 1.0), (0.0, np.nan)])
    def test_non_finite_end_rejected(self, lo, hi):
        # an infinite end gave NaN nodes
        with pytest.raises(ValueError, match="finite"):
            cheb_points(lo, hi, 3)


class TestLagrange:
    def test_cardinal_property(self):
        grid = cheb_points(0.0, 1.0, 5)
        for t in range(1, 6):
            for s in range(1, 6):
                val = factor_matrix([grid.nodes[s - 1]], grid)[0, t - 1]
                assert abs(val - (1.0 if s == t else 0.0)) <= 1e-12

    def test_partition_of_unity_at_point(self):
        grid = cheb_points(0.0, 1.0, 5)
        total = sum(factor_matrix([0.3], grid)[0, t - 1] for t in range(1, 6))
        assert abs(total - 1.0) <= 1e-13

    def test_quadratic_reproduced_exactly(self):
        grid = cheb_points(0.0, 1.0, 3)
        rng = np.random.default_rng(14)
        xs = rng.random(100)
        for x in xs:
            interp = sum(
                grid.nodes[t - 1] ** 2 * factor_matrix([x], grid)[0, t - 1]
                for t in range(1, 4)
            )
            assert abs(interp - x**2) <= 1e-12


class TestFactorMatrix:
    def test_identity_at_the_nodes(self):
        grid = cheb_points(0.0, 1.0, 6)
        mat = factor_matrix(grid.nodes, grid)
        assert np.abs(mat - np.eye(6)).max() <= 1e-12

    def test_rows_sum_to_one(self):
        grid = cheb_points(0.2, 0.9, 8)
        rng = np.random.default_rng(15)
        pts = 0.2 + 0.7 * rng.random(40)
        mat = factor_matrix(pts, grid)
        assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-13

    def test_cubic_evaluation_oracle(self):
        grid = cheb_points(0.0, 1.0, 8)
        rng = np.random.default_rng(16)
        pts = rng.random(25)
        mat = factor_matrix(pts, grid)
        vals = mat @ grid.nodes**3
        assert np.abs(vals - pts**3).max() <= 1e-12

    def test_point_outside_interval_rejected(self):
        grid = cheb_points(0.0, 0.5, 4)
        with pytest.raises(ValueError):
            factor_matrix([0.7], grid)

    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_partition_of_unity_random_points(self, p):
        grid = cheb_points(-0.3, 1.7, p)
        rng = np.random.default_rng(p)
        pts = -0.3 + 2.0 * rng.random(64)
        mat = factor_matrix(pts, grid)
        assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("p", [3, 6, 11])
    def test_monomial_exactness_below_order(self, p):
        grid = cheb_points(0.0, 1.0, p)
        rng = np.random.default_rng(30 + p)
        pts = rng.random(30)
        mat = factor_matrix(pts, grid)
        for deg in range(p):
            vals = mat @ grid.nodes**deg
            assert np.abs(vals - pts**deg).max() <= 1e-11


class TestCoreTensor:
    def test_constant_kernel(self):
        from htlr import custom

        k = custom(lambda x, y: np.full(np.broadcast(x, y).shape[:-1], 3.5))
        gt = [cheb_points(0.0, 0.25, 4)] * 2
        gs = [cheb_points(0.5, 0.75, 4), cheb_points(0.0, 0.25, 4)]
        core = core_tensor(k, gt, gs)
        assert core.shape == (4, 4, 4, 4)
        assert np.all(core == 3.5)

    def test_separable_kernel_outer_structure(self):
        from htlr import custom

        k = custom(lambda x, y: x[..., 0] * y[..., 0])
        gt = [cheb_points(0.0, 0.25, 3)] * 2
        gs = [cheb_points(0.5, 0.75, 3), cheb_points(0.0, 0.25, 3)]
        core = core_tensor(k, gt, gs)
        expected = np.einsum(
            "i,j,k,l->ijkl",
            gt[0].nodes,
            np.ones(3),
            gs[0].nodes,
            np.ones(3),
        )
        assert np.abs(core - expected).max() <= 1e-15

    def test_gaussian_direct_evaluation(self):
        from htlr import gaussian, pairwise

        k = gaussian(np.sqrt(2.0))
        gt = [cheb_points(0.0, 0.25, 4)] * 2
        gs = [cheb_points(0.5, 0.75, 4), cheb_points(0.0, 0.25, 4)]
        core = core_tensor(k, gt, gs)
        for t1, t2, s1, s2 in [(0, 1, 2, 3), (3, 0, 1, 2), (2, 2, 0, 0)]:
            x = (gt[0].nodes[t1], gt[1].nodes[t2])
            y = (gs[0].nodes[s1], gs[1].nodes[s2])
            assert core[t1, t2, s1, s2] == pairwise(k, [x], [y])[0, 0]


class TestLebesgue:
    def test_order_one(self):
        assert lebesgue_constant(1) == 1.0

    def test_order_two_is_sqrt2(self):
        assert abs(lebesgue_constant(2) - np.sqrt(2.0)) <= 1e-3

    def test_non_integer_order_rejected(self):
        # 2.5 returned 1.989, the constant of no Chebyshev grid
        with pytest.raises(ValueError, match="order must be an integer"):
            lebesgue_constant(2.5)

    def test_classical_log_estimate(self):
        for p in range(2, 33):
            assert lebesgue_constant(p) <= 2 / np.pi * np.log(p) + 1


class TestErrorBound:
    def test_vanishes_as_separation_grows(self):
        lam = lebesgue_constant(8, samples=2001)
        values = [
            asymptotic_error_bound(
                BoundParams(c_as=1.0, gamma=1.0, eta=eta, p=8, d=2, lambda_p=lam)
            )
            for eta in (1.0, 10.0, 1e3, 1e6)
        ]
        assert all(values[i + 1] < values[i] for i in range(3))
        assert values[-1] < 1e-40

    def test_decays_in_p_when_separation_beats_gamma(self):
        for p in range(4, 17, 4):
            b1 = asymptotic_error_bound(BoundParams(
                c_as=1.0, gamma=1.0, eta=np.sqrt(2.0), p=p, d=2,
                lambda_p=lebesgue_constant(p, samples=2001)))
            b2 = asymptotic_error_bound(BoundParams(
                c_as=1.0, gamma=1.0, eta=np.sqrt(2.0), p=p + 4, d=2,
                lambda_p=lebesgue_constant(p + 4, samples=2001)))
            assert b2 < b1

    def test_formula_direct_reevaluation(self):
        lam = lebesgue_constant(8, samples=2001)
        params = BoundParams(c_as=1.0, gamma=1.0, eta=np.sqrt(2.0), p=8, d=2,
                             lambda_p=lam)
        expected = 4 * 1.0 * 1.0**9 * lam**3 * 2 / (4 * np.sqrt(2.0)) ** 9
        assert asymptotic_error_bound(params) == pytest.approx(expected, rel=1e-15)


class TestInterpolantDecay:
    def test_slp_error_halves_with_order(self):
        # well-separated boxes, singular kernel: near-exponential decay
        # domains [0,.25]^2 and [.5,.75]x[0,.25], 16 points per side
        grid = UniformGrid(2, 64)
        tau = IndexBox(((0, 16), (0, 16)))
        sigma = IndexBox(((32, 48), (0, 16)))
        errors = [
            interp_block_error(slp_2d(), grid, tau, sigma, p)
            for p in (4, 6, 8, 10)
        ]
        for a, b in zip(errors, errors[1:]):
            assert b < a
            assert b <= a / 2.0
