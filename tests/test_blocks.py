import numpy as np
import pytest

from htlr import (
    CoefficientFn,
    IndexBox,
    QuadratureConfig,
    UniformGrid,
    build_dense,
    build_lowrank,
    build_tlr,
    cheb_points,
    contract,
    core_tensor,
    custom,
    dense_assemble,
    factor_matrix,
    gaussian,
    lowrank_apply,
    materialize,
    multi_mode_apply,
    pairwise,
    slp_2d,
    tensor_to_vec,
    tlr_apply,
    vec_to_tensor,
)
from htlr import blocks, slp_3d
from htlr.blocks import DenseBlock, TuckerBlock
from htlr.kernels import pairwise_self, self_entries
from htlr.grids import domain_of


def constant_kernel(c):
    return custom(lambda x, y: np.full(np.broadcast(x, y).shape[:-1], c))


def admissible_pair_64():
    grid = UniformGrid(2, 64)
    tau = IndexBox(((0, 32), (0, 32)))
    sigma = IndexBox(((32, 64), (0, 32)))
    return grid, tau, sigma


class TestBuildTLR:
    def test_constant_kernel_reconstruction(self):
        grid, tau, sigma = admissible_pair_64()
        block = build_tlr(constant_kernel(2.0), grid, tau, sigma, 4, grid.h)
        rec = materialize(block)
        assert np.abs(rec - 2.0 * grid.h**2).max() <= 1e-12

    def test_separable_polynomial_kernel_exact(self):
        grid, tau, sigma = admissible_pair_64()
        k = custom(lambda x, y: x[..., 0] * y[..., 0])
        block = build_tlr(k, grid, tau, sigma, 3, grid.h)
        rec = materialize(block)
        xs = grid.points(tau)
        ys = grid.points(sigma)
        expected = grid.h**2 * np.outer(xs[:, 0], ys[:, 0])
        assert np.abs(rec - expected).max() <= 1e-12

    def test_gaussian_entrywise_accuracy(self):
        # tau domain [0,.25]^2, sigma domain [.5,.75]x[0,.25], 32 pts/dim
        grid = UniformGrid(2, 128)
        tau = IndexBox(((0, 32), (0, 32)))
        sigma = IndexBox(((64, 96), (0, 32)))
        k = gaussian(np.sqrt(2.0))
        block = build_tlr(k, grid, tau, sigma, 8, grid.h)
        rec = materialize(block)
        exact = grid.h**2 * pairwise(k, grid.points(tau), grid.points(sigma))
        rel = np.abs(rec - exact) / np.abs(exact)
        assert rel.max() <= 1e-9

    def test_overlapping_pair_rejected(self):
        grid = UniformGrid(2, 64)
        box = IndexBox(((0, 32), (0, 32)))
        with pytest.raises(ValueError):
            build_tlr(gaussian(1.0), grid, box, box, 4, grid.h)

    def test_factors_are_lagrange_bases(self):
        # each factor holds the Lagrange bases of its box's Chebyshev nodes
        # at the box's grid points: they sum to one and reproduce every
        # polynomial of degree below the rank (in box-relative coordinates
        # scaled to [0, 1], where each is at most one)
        grid, tau, sigma = admissible_pair_64()
        rank = 6
        block = build_tlr(gaussian(np.sqrt(2.0)), grid, tau, sigma, rank, grid.h)
        for f in block.u_factors + block.v_factors:
            width = f.shape[0] * grid.h
            nodes = cheb_points(0.0, width, rank).nodes / width
            x = grid.coords1d(0, f.shape[0]) / width
            assert np.abs(f.sum(axis=1) - 1.0).max() <= 1e-14
            for power in range(rank):
                assert np.abs(f @ nodes**power - x**power).max() <= 1e-14

    @pytest.mark.parametrize("rank", [4, 6, 8])
    def test_factor_condition_numbers(self, rank):
        # measured at most 2.2, 3.0 and 4.3 from side 2p to 256, and at
        # most 2.7, 6.1 and 16.4 from side p + 1 to 2p - 1
        grid = UniformGrid(2, 256)
        for side in range(rank + 1, 257):
            bound = 6.0 if side >= 2 * rank else 20.0
            assert np.linalg.cond(blocks._box_factor(grid, side, rank)) <= bound

    def test_shared_factor_is_the_translated_box_factor(self):
        # blocks on boxes of one side hold one factor object, computed at
        # the origin; it must match the factor of a box far from the origin
        grid, rank = UniformGrid(2, 128), 8
        tau, sigma = IndexBox(((96, 112), (48, 64))), IndexBox(((64, 80), (48, 64)))
        k = gaussian(np.sqrt(2.0))
        block = build_tlr(k, grid, tau, sigma, rank, grid.h)
        other = build_tlr(k, grid, sigma, IndexBox(((0, 16), (0, 16))), rank, grid.h)
        assert all(f is block.u_factors[0] for f in block.u_factors + other.u_factors)
        assert all(f.flags.writeable is False for f in block.u_factors)
        lo, hi = tau.ranges[0]
        raw = factor_matrix(grid.coords1d(lo, hi), cheb_points(lo * grid.h, hi * grid.h, rank))
        assert np.abs(block.u_factors[0] - raw).max() <= 1e-14
        assert np.array_equal(block.u_factors[0], factor_matrix(
            grid.coords1d(0, hi - lo), cheb_points(0.0, (hi - lo) * grid.h, rank)))

    def test_square_factors_stored_explicitly(self):
        # box side equal to the rank: every factor is a square matrix, of
        # the Lagrange bases at as many grid points as nodes, stored like any
        # other; measured cond 3.65, 10.2 and 32.6 at p = 4, 6 and 8
        grid = UniformGrid(2, 32)
        tau = IndexBox(((0, 4), (0, 4)))
        sigma = IndexBox(((8, 12), (0, 4)))
        block = build_tlr(gaussian(np.sqrt(2.0)), grid, tau, sigma, 4, grid.h)
        for f in block.u_factors + block.v_factors:
            assert f.shape == (4, 4)
            assert np.abs(f.sum(axis=1) - 1.0).max() <= 1e-14
        for rank in (4, 6, 8):
            assert np.linalg.cond(blocks._box_factor(UniformGrid(2, 64), rank, rank)) <= 40.0
        assert sum(block.scalars()) == 4 * 4**2 + block.core.size
        exact = grid.h**2 * pairwise(
            gaussian(np.sqrt(2.0)), grid.points(tau), grid.points(sigma)
        )
        # rank = side: interpolation is not exact but close for the Gaussian
        assert np.abs(materialize(block) - exact).max() / np.abs(exact).max() <= 1e-3

    @pytest.mark.parametrize("build", [build_tlr, build_lowrank],
                             ids=["tucker", "lowrank"])
    @pytest.mark.parametrize("sides", [(7, 7), (8, 7)], ids=["both", "source"])
    def test_box_narrower_than_the_rank_rejected(self, build, sides):
        # a box of side 7 has a factor of rank 8 wider than tall, which
        # compresses nothing: such a block is stored dense
        grid = UniformGrid(2, 56)
        tau = IndexBox(((0, sides[0]), (0, sides[0])))
        sigma = IndexBox(((14, 14 + sides[1]), (0, sides[1])))
        with pytest.raises(ValueError, match="box side 7 is narrower than the rank 8"):
            build(gaussian(np.sqrt(2.0)), grid, tau, sigma, 8, grid.h)


class TestBuildLowRank:
    def test_same_reconstructions_as_tlr(self):
        grid, tau, sigma = admissible_pair_64()
        for k in (constant_kernel(2.0), gaussian(np.sqrt(2.0)), slp_2d()):
            tb = build_tlr(k, grid, tau, sigma, 5, grid.h)
            lb = build_lowrank(k, grid, tau, sigma, 5, grid.h)
            assert np.abs(materialize(tb) - materialize(lb)).max() <= 1e-12

    def test_bases_are_tensor_lagrange_bases(self):
        # the Kronecker product of the per-dimension Lagrange bases: they sum
        # to one and reproduce every product of per-dimension polynomials of
        # degree below the rank
        grid, tau, sigma = admissible_pair_64()
        rank = 4
        lb = build_lowrank(gaussian(np.sqrt(2.0)), grid, tau, sigma, rank, grid.h)
        nodes = cheb_points(0.0, 1.0, rank).nodes
        x = grid.coords1d(0, 32) / (32 * grid.h)
        for basis in lb.u_factors + lb.v_factors:
            assert basis.shape == (32**2, rank**2)
            assert np.abs(basis.sum(axis=1) - 1.0).max() <= 1e-14
            for i in range(rank):
                for j in range(rank):
                    # first index fastest on both sides
                    assert np.abs(basis @ np.kron(nodes**j, nodes**i)
                                  - np.kron(x**j, x**i)).max() <= 1e-14

    @pytest.mark.parametrize(
        "n, tau, sigma, rank, counts",
        [
            # 2D, side 32 at rank 8: every Tucker factor is stored
            (64, ((0, 32),) * 2, ((32, 64), (0, 32)), 8,
             (0, 2 * 32**2 * 8**2, 8**4)),
            # 3D, side equal to the rank: the square factors multiply out
            # into square 64 x 64 bases
            (16, ((0, 4),) * 3, ((8, 12), (0, 4), (0, 4)), 4,
             (0, 2 * 64**2, 4**6)),
        ],
    )
    def test_is_kronecker_expansion_of_tucker_block(self, n, tau, sigma, rank,
                                                     counts):
        grid = UniformGrid(len(tau), n)
        args = (gaussian(np.sqrt(2.0)), grid, IndexBox(tau), IndexBox(sigma),
                rank, grid.h)
        tb = build_tlr(*args)
        lb = build_lowrank(*args)
        assert lb.scalars() == counts
        r = rank**grid.d
        assert np.array_equal(lb.core, tb.core.reshape(r, r, order="F"))
        for side, factors in ((lb.u_factors, tb.u_factors),
                              (lb.v_factors, tb.v_factors)):
            # last dimension outermost, multiplied out from the outside in
            expected = factors[-1]
            for f in factors[-2::-1]:
                expected = np.kron(expected, f)
            assert len(side) == 1
            assert np.array_equal(side[0], expected)


class TestBuildDense:
    def test_single_entry_block(self):
        grid = UniformGrid(2, 1)
        box = IndexBox(((0, 1), (0, 1)))
        block = build_dense(constant_kernel(1.0), grid, box, box, QuadratureConfig())
        assert block.matrix.shape == (1, 1)
        assert block.matrix[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_consistency_with_dense_oracle(self):
        grid = UniformGrid(2, 16)
        cfg = QuadratureConfig()
        coeff = CoefficientFn.constant(0.0)
        dense = dense_assemble(slp_2d(), coeff, grid, cfg)
        box = IndexBox(((0, 4), (0, 4)))
        block = build_dense(slp_2d(), grid, box, box, cfg)
        ids = box.linear_indices(16)
        assert np.array_equal(block.matrix, dense.matrix[np.ix_(ids, ids)])

    def test_self_block_keeps_custom_kernel_nan(self):
        # NaN beyond r = 0.3 is the kernel's answer; only the coincident
        # entries may differ from pairwise
        kernel = custom(lambda x, y: np.where(
            np.linalg.norm(x - y, axis=-1) > 0.3, np.nan, 1.0))
        grid = UniformGrid(2, 4)
        box = IndexBox(((0, 4), (0, 4)))
        block = build_dense(kernel, grid, box, box, QuadratureConfig())
        pts = grid.points(box)
        expected = np.isnan(pairwise(kernel, pts, pts))
        assert expected.sum() == 192
        assert np.array_equal(np.isnan(block.matrix), expected)

    @pytest.mark.parametrize("tau", [((8, 12), (0, 4)), ((0, 4), (0, 4))],
                             ids=["self", "pair"])
    def test_box_beyond_the_grid_rejected(self, tau):
        # built a block of points outside the grid, as build_tlr does not
        grid = UniformGrid(2, 8)
        sigma = IndexBox(((8, 12), (0, 4)))
        with pytest.raises(ValueError, match="exceeds the grid"):
            build_dense(constant_kernel(1.0), grid, IndexBox(tau), sigma, QuadratureConfig())

    def test_boxes_of_other_dimension_rejected(self):
        # built a 64 x 64 block weighted by h^2 from 3-D boxes on a 2-D grid
        grid = UniformGrid(2, 16)
        box = IndexBox(((0, 4),) * 3)
        with pytest.raises(ValueError, match="3-D index box on a 2-D grid"):
            build_dense(constant_kernel(1.0), grid, box, box, QuadratureConfig())

    def test_partially_overlapping_boxes_rejected(self):
        grid = UniformGrid(2, 8)
        a = IndexBox(((0, 4), (0, 4)))
        b = IndexBox(((2, 6), (0, 4)))
        with pytest.raises(ValueError):
            build_dense(constant_kernel(1.0), grid, a, b, QuadratureConfig())


def pair_reference(k, grid, tau, sigma, cfg):
    """The dense block by per-pair evaluation: the kernel on every point
    pair, the self entries of a self pair from self_entries."""
    xpts = grid.points(tau)
    if tau == sigma:
        idx = np.arange(len(xpts))
        mat = pairwise_self(k, xpts, idx, self_entries(k, xpts, grid.h, cfg))
    else:
        mat = pairwise(k, xpts, grid.points(sigma))
    return mat * grid.h**grid.d


def extended_reference(k, grid, tau, sigma, cfg):
    """The dense block in extended precision from the exact integer offsets,
    the self entries (a quadrature) as the build takes them."""
    def indices(box):
        mesh = np.meshgrid(*(np.arange(lo, hi) for lo, hi in box.ranges), indexing="ij")
        return np.stack([m.ravel(order="F") for m in mesh], axis=-1)
    offsets = indices(tau)[:, None, :] - indices(sigma)[None, :, :]
    r2 = np.sum(np.square(offsets), axis=-1).astype(np.longdouble) / grid.n**2
    origin = r2 == 0
    r2[origin] = 1
    if k.kind == "gaussian":
        values = np.exp(-r2 / (2 * np.longdouble(k.sigma) ** 2))
    elif k.kind == "slp2d":
        values = -np.log(r2) / (4 * np.pi)
    else:
        values = 1 / (4 * np.pi * np.sqrt(r2))
    values[origin] = self_entries(k, np.zeros((1, grid.d)), grid.h, cfg)[0]
    return values * np.longdouble(grid.h) ** grid.d


def box_pairs(d, s):
    """(name, tau, sigma): a self pair, an adjacent pair, a distant pair and
    boxes of unequal shape, all in a grid of side 8 s."""
    def box(*ranges):
        return IndexBox(tuple(ranges) + ((0, s),) * (d - len(ranges)))
    return [
        ("self", box((s, 2 * s)), box((s, 2 * s))),
        ("adjacent", box((s, 2 * s)), box((2 * s, 3 * s))),
        ("distant", box((5 * s, 6 * s), (s, 2 * s)), box((0, s))),
        ("unequal", box((0, s), (0, 2 * s)), box((3 * s, 5 * s), (s, 2 * s - 1))),
    ]


TABLE_KERNELS = [(2, gaussian(np.sqrt(2.0))), (2, slp_2d()), (3, slp_3d())]


class TestDenseTable:
    """A translation-invariant kernel's dense block is built from one kernel
    value per index offset; it equals the per-pair evaluation bit for bit
    where h is a power of two, and to rounding elsewhere."""

    @pytest.mark.parametrize("d,k", TABLE_KERNELS, ids=["gaussian", "slp2d", "slp3d"])
    def test_bit_equal_to_pairs_on_power_of_two_grids(self, d, k):
        # h a power of two: every coordinate difference is exact both ways
        s = 4
        grid = UniformGrid(d, 8 * s)
        cfg = QuadratureConfig()
        for name, tau, sigma in box_pairs(d, s):
            block = build_dense(k, grid, tau, sigma, cfg).matrix
            expected = pair_reference(k, grid, tau, sigma, cfg)
            assert block.shape == expected.shape, name
            assert np.array_equal(block, expected), name
            # a copy of the windows: it holds its entries and no more
            owner = block if block.base is None else block.base
            assert block.flags.c_contiguous and owner.size == block.size, name

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="the reference needs extended precision")
    @pytest.mark.parametrize("d,n,k", [
        (2, 48, gaussian(np.sqrt(2.0))), (2, 96, slp_2d()), (3, 24, slp_3d()),
    ], ids=["gaussian-48", "slp2d-96", "slp3d-24"])
    def test_close_to_pairs_on_other_grids(self, d, n, k):
        # the table takes each difference as offset * h, the pairs as the
        # difference of two rounded coordinates: both are off by ulps, in
        # opposite directions, by up to 1.04e-15 from each other on the
        # distant slp2d pair, where -log r is small; so both are measured
        # against the kernel in extended precision
        grid = UniformGrid(d, n)
        cfg = QuadratureConfig()
        for name, tau, sigma in box_pairs(d, n // 8):
            block = build_dense(k, grid, tau, sigma, cfg).matrix
            exact = extended_reference(k, grid, tau, sigma, cfg)
            table_err, pair_err = (
                (np.abs(a - exact) / np.abs(exact)).max()
                for a in (block, pair_reference(k, grid, tau, sigma, cfg)))
            assert table_err <= 1e-15, name
            assert table_err <= pair_err, name

    @pytest.mark.parametrize("d,k", TABLE_KERNELS, ids=["gaussian", "slp2d", "slp3d"])
    def test_one_kernel_value_per_offset(self, d, k, monkeypatch):
        from htlr import kernels

        evals = []
        of_r2 = kernels._of_r2
        monkeypatch.setattr(kernels, "_of_r2",
                            lambda k, r2: evals.append(r2.size) or of_r2(k, r2))
        monkeypatch.setattr(blocks, "pairwise", None)
        monkeypatch.setattr(blocks, "pairwise_self", None)
        s = 4
        grid = UniformGrid(d, 8 * s)
        cfg = QuadratureConfig()
        # the self entry's quadrature, integrated once per (kernel, d, h,
        # quadrature) and not part of any block
        kernels._origin_entry(k, d, grid.h, cfg)
        for name, tau, sigma in box_pairs(d, s):
            evals.clear()
            build_dense(k, grid, tau, sigma, cfg)
            offsets = np.prod([a + b - 1 for a, b in zip(tau.sizes, sigma.sizes)])
            assert evals == [offsets], name

    def test_custom_kernel_block_from_pairs(self, monkeypatch):
        # not Toeplitz in general: x0 breaks translation invariance
        k = custom(lambda x, y: np.exp(-np.sum((x - y) ** 2, axis=-1)) * (1.0 + x[..., 0]))
        grid = UniformGrid(2, 32)
        cfg = QuadratureConfig()
        calls = []
        for name in ("pairwise", "pairwise_self"):
            fn = getattr(blocks, name)
            monkeypatch.setattr(blocks, name, lambda *a, fn=fn, name=name:
                                calls.append(name) or fn(*a))
        for name, tau, sigma in box_pairs(2, 4):
            calls.clear()
            block = build_dense(k, grid, tau, sigma, cfg).matrix
            assert calls == ["pairwise_self" if tau == sigma else "pairwise"], name
            assert np.array_equal(block, pair_reference(k, grid, tau, sigma, cfg)), name


class TestTlrApply:
    def test_zero_vector(self):
        grid, tau, sigma = admissible_pair_64()
        block = build_tlr(gaussian(np.sqrt(2.0)), grid, tau, sigma, 4, grid.h)
        out = tlr_apply(block, np.zeros(block.shape[1]))
        assert np.all(out == 0.0)

    def test_identity_factors_give_plain_matrix_action(self):
        rng = np.random.default_rng(20)
        m = 3
        kmat = rng.standard_normal((m * m, m * m))
        core = kmat.reshape(m, m, m, m, order="F")
        block = TuckerBlock(
            core=core,
            u_factors=[np.eye(m), np.eye(m)],
            v_factors=[np.eye(m), np.eye(m)],
        )
        u = rng.standard_normal(m * m)
        assert np.abs(tlr_apply(block, u) - kmat @ u).max() <= 1e-13

    def test_matches_materialized_matrix(self):
        grid = UniformGrid(2, 16)
        tau = IndexBox(((0, 8), (0, 8)))
        sigma = IndexBox(((8, 16), (0, 8)))
        block = build_tlr(slp_2d(), grid, tau, sigma, 3, grid.h)
        rng = np.random.default_rng(21)
        u = rng.standard_normal(64)
        assert np.abs(tlr_apply(block, u) - materialize(block) @ u).max() <= 1e-12

    def test_length_mismatch_rejected(self):
        grid, tau, sigma = admissible_pair_64()
        block = build_tlr(gaussian(1.0), grid, tau, sigma, 4, grid.h)
        with pytest.raises(ValueError):
            tlr_apply(block, np.zeros(7))

    @pytest.mark.parametrize(
        "n, tau, sigma, rank, square",
        [
            # 3D, box side equal to the rank: all six factors are square
            (16, ((0, 4),) * 3, ((8, 12), (0, 4), (0, 4)), 4, 6),
            # 2D, sides (4, 8) at rank 4: per side one square factor, one tall
            (32, ((0, 4), (0, 8)), ((16, 20), (0, 8)), 4, 2),
            (64, ((0, 32), (0, 32)), ((32, 64), (0, 32)), 5, 0),
        ],
    )
    def test_matches_tensor_reference(self, n, tau, sigma, rank, square):
        grid = UniformGrid(len(tau), n)
        block = build_tlr(gaussian(np.sqrt(2.0)), grid, IndexBox(tau),
                          IndexBox(sigma), rank, grid.h)
        factors = block.u_factors + block.v_factors
        assert sum(f.shape == (rank, rank) for f in factors) == square
        u = np.random.default_rng(25).standard_normal(block.shape[1])
        d = grid.d
        w = multi_mode_apply(
            vec_to_tensor(u, block.col_sizes),
            [(f.T, i + 1) for i, f in enumerate(block.v_factors)],
        )
        w = contract(block.core, w, range(d + 1, 2 * d + 1), range(1, d + 1))
        w = multi_mode_apply(w, [(f, i + 1) for i, f in enumerate(block.u_factors)])
        out = tlr_apply(block, u)
        scale = np.abs(out).max()
        assert np.abs(out - tensor_to_vec(w)).max() <= 1e-13 * scale
        assert np.abs(out - materialize(block) @ u).max() <= 1e-13 * scale

    def test_linearity(self):
        grid, tau, sigma = admissible_pair_64()
        block = build_tlr(slp_2d(), grid, tau, sigma, 5, grid.h)
        rng = np.random.default_rng(22)
        u, v = rng.standard_normal((2, block.shape[1]))
        a, b = 0.7, -1.3
        lhs = tlr_apply(block, a * u + b * v)
        rhs = a * tlr_apply(block, u) + b * tlr_apply(block, v)
        assert np.abs(lhs - rhs).max() <= 1e-12


def _tucker_2d():
    grid, tau, sigma = admissible_pair_64()
    return build_tlr(gaussian(np.sqrt(2.0)), grid, tau, sigma, 5, grid.h)


def _tucker_3d_identity_factors():
    # an order-6 core between explicit identity factors
    core = np.random.default_rng(26).standard_normal((4,) * 6)
    return TuckerBlock(core=core, u_factors=[np.eye(4)] * 3, v_factors=[np.eye(4)] * 3)


def _lowrank():
    grid, tau, sigma = admissible_pair_64()
    return build_lowrank(slp_2d(), grid, tau, sigma, 4, grid.h)


# each Tucker kind with the function that applies it
BLOCKS = {
    "tucker-2d": (_tucker_2d, tlr_apply),
    "tucker-3d-identity-factors": (_tucker_3d_identity_factors, tlr_apply),
    "lowrank": (_lowrank, lowrank_apply),
}


class TestMultiColumnApply:
    """tlr_apply and lowrank_apply take one segment: a ``(cols, m)`` matrix
    of segments, the form the operators no longer use, is rejected."""

    @pytest.mark.parametrize("kind", sorted(BLOCKS))
    def test_wrong_leading_dimension_rejected(self, kind):
        build, apply = BLOCKS[kind]
        block = build()
        with pytest.raises(ValueError):
            apply(block, np.zeros((block.shape[1] + 1, 3)))

    @pytest.mark.parametrize("kind", sorted(BLOCKS))
    def test_matrix_of_segments_rejected(self, kind):
        build, apply = BLOCKS[kind]
        block = build()
        with pytest.raises(ValueError):
            apply(block, np.zeros((block.shape[1], 3)))


def _sides(n, smallest):
    """Box sides of a cluster tree on n cells, down to `smallest`."""
    sides = [n]
    while sides[-1] // 2 >= smallest:
        sides.append(sides[-1] // 2)
    return sides[::-1]


NESTING_CASES = {
    "2d-n128-rank8": (UniformGrid(2, 128), 8, 8),
    # the child of side 4 equals the rank: a square factor
    "3d-n32-rank4": (UniformGrid(3, 32), 4, 4),
    # the child of side 7 is narrower than the rank: no factor to nest
    "2d-n56-rank8-side7": (UniformGrid(2, 56), 8, 7),
}


def _nested_sides(grid, rank, smallest):
    """The child sides down to `smallest` whose transfers exist; the
    transfer from a box narrower than the rank is rejected."""
    sides = _sides(grid.n, smallest)[:-1]
    for side in sides:
        if side < rank:
            with pytest.raises(ValueError, match=f"box side {side} is narrower"):
                blocks.transfer(grid, side, rank)
    return [side for side in sides if side >= rank]


class TestNestedFactors:
    """The box factors of consecutive sides nest through the transfers, so
    projecting and expanding through the transfers from the level below
    reproduces projection and expansion through the factors at every
    side."""

    @pytest.mark.parametrize("case", sorted(NESTING_CASES))
    def test_parent_factor_is_child_factor_times_transfer(self, case):
        grid, rank, smallest = NESTING_CASES[case]
        for side in _nested_sides(grid, rank, smallest):
            f_child = blocks._box_factor(grid, side, rank)
            f_parent = blocks._box_factor(grid, 2 * side, rank)
            e = blocks.transfer(grid, side, rank)
            r = f_child.shape[1]
            assert e.shape == (2 * r, f_parent.shape[1])
            for c in (0, 1):
                half = f_parent[c * side:(c + 1) * side]
                assert np.abs(half - f_child @ e[c * r:(c + 1) * r]).max() <= 1e-14

    def test_transfer_is_shared_and_read_only(self):
        grid = UniformGrid(2, 64)
        e = blocks.transfer(grid, 16, 8)
        assert e is blocks.transfer(UniformGrid(2, 64), 16, 8)
        assert e.flags.writeable is False

    @pytest.mark.parametrize("case", sorted(NESTING_CASES))
    def test_transfers_are_projections(self, case):
        grid, rank, smallest = NESTING_CASES[case]
        rng = np.random.default_rng(29)
        x = rng.standard_normal(grid.num_points)
        for side in _nested_sides(grid, rank, smallest):
            # the per-dimension factors of each side
            child, parent = ([blocks._box_factor(grid, s, rank)] * grid.d
                             for s in (side, 2 * side))
            e = [blocks.transfer(grid, side, rank)] * grid.d
            boxes = grid.n // (2 * side)
            c = blocks.project(x, grid.d, 2 * boxes, child)
            expected = blocks.project(x, grid.d, boxes, parent)
            scale = np.abs(expected).max()
            assert np.abs(blocks.project(c, grid.d, boxes, e) - expected).max() <= 1e-13 * scale
            g = rng.standard_normal(expected.shape)
            pushed = blocks.expand(blocks.expand(g, e).reshape(c.shape), child)
            expected = blocks.expand(g, parent)
            scale = np.abs(expected).max()
            assert np.abs(pushed.ravel() - expected.ravel()).max() <= 1e-13 * scale

    def test_kronecker_basis_of_a_box_narrower_than_the_rank(self):
        # a box of side 7 has no factor of rank 8 to multiply out
        grid = UniformGrid(2, 56)
        tau, sigma = IndexBox(((0, 7), (0, 7))), IndexBox(((14, 21), (14, 21)))
        with pytest.raises(ValueError, match="box side 7 is narrower than the rank 8"):
            build_lowrank(gaussian(np.sqrt(2.0)), grid, tau, sigma, 8, grid.h)


class TestStorageCount:
    def test_tucker_block_count(self):
        grid, tau, sigma = admissible_pair_64()  # sides 32
        block = build_tlr(gaussian(np.sqrt(2.0)), grid, tau, sigma, 8, grid.h)
        assert sum(block.scalars()) == 2 * 2 * 32 * 8 + 8**4  # 5120

    def test_lowrank_block_count(self):
        grid, tau, sigma = admissible_pair_64()
        block = build_lowrank(gaussian(np.sqrt(2.0)), grid, tau, sigma, 8, grid.h)
        assert sum(block.scalars()) == 2 * 32**2 * 8**2 + 8**4  # 135168

    def test_dense_block_count(self):
        block = DenseBlock(np.zeros((1, 16, 16)))
        assert sum(block.scalars()) == 256


class TestBlockProperties:
    def test_tlr_lowrank_equivalence_random_pairs(self):
        rng = np.random.default_rng(23)
        grid = UniformGrid(2, 64)
        k = slp_2d()
        done = 0
        while done < 5:
            s = int(rng.choice([8, 16]))
            pos = rng.integers(0, 64 // s, size=4) * s
            tau = IndexBox(((pos[0], pos[0] + s), (pos[1], pos[1] + s)))
            sigma = IndexBox(((pos[2], pos[2] + s), (pos[3], pos[3] + s)))
            if domain_of(grid, tau).overlap_volume(domain_of(grid, sigma)) > 0:
                continue
            tb = build_tlr(k, grid, tau, sigma, 4, grid.h)
            lb = build_lowrank(k, grid, tau, sigma, 4, grid.h)
            assert np.abs(materialize(tb) - materialize(lb)).max() <= 1e-12
            done += 1

    def test_orthogonalization_preserves_interpolant(self):
        grid, tau, sigma = admissible_pair_64()
        k = gaussian(np.sqrt(2.0))
        rank = 6
        block = build_tlr(k, grid, tau, sigma, rank, grid.h)
        # raw interpolant, assembled independently of the batched core build
        dt = domain_of(grid, tau)
        ds = domain_of(grid, sigma)
        gt = [cheb_points(lo, hi, rank) for lo, hi in dt.intervals]
        gs = [cheb_points(lo, hi, rank) for lo, hi in ds.intervals]
        u_raw = [factor_matrix(grid.coords1d(*tau.ranges[i]), gt[i]) for i in range(2)]
        v_raw = [factor_matrix(grid.coords1d(*sigma.ranges[i]), gs[i]) for i in range(2)]
        core = grid.h**2 * core_tensor(k, gt, gs)
        raw = multi_mode_apply(
            core,
            [(u_raw[0], 1), (u_raw[1], 2), (v_raw[0], 3), (v_raw[1], 4)],
        ).reshape(block.shape, order="F")
        assert np.abs(materialize(block) - raw).max() <= 1e-12

    def test_error_decays_with_rank_for_slp(self):
        grid = UniformGrid(2, 64)
        tau = IndexBox(((0, 16), (0, 16)))
        sigma = IndexBox(((32, 48), (0, 16)))
        k = slp_2d()
        exact = grid.h**2 * pairwise(k, grid.points(tau), grid.points(sigma))
        errs = []
        for rank in (4, 8, 12, 16):
            block = build_tlr(k, grid, tau, sigma, rank, grid.h)
            rel = np.abs(materialize(block) - exact) / np.abs(exact)
            errs.append(rel.max())
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_apply_agreement_between_block_kinds(self):
        grid, tau, sigma = admissible_pair_64()
        k = gaussian(np.sqrt(2.0))
        tb = build_tlr(k, grid, tau, sigma, 4, grid.h)
        lb = build_lowrank(k, grid, tau, sigma, 4, grid.h)
        rng = np.random.default_rng(24)
        u = rng.standard_normal(tb.shape[1])
        assert np.abs(tlr_apply(tb, u) - lowrank_apply(lb, u)).max() <= 1e-12


def sector_pairs():
    """(name, kernel, grid, tau, sigma, dims): box pairs whose dense block is
    unchanged when both boxes are reflected in the dimensions `dims`, those
    where the offset between the boxes is zero."""
    g2, g3 = UniformGrid(2, 64), UniformGrid(3, 32)
    box2 = IndexBox(((16, 32), (16, 32)))
    box3 = IndexBox(((8, 16),) * 3)
    return [
        ("self-2d", gaussian(np.sqrt(2.0)), g2, box2, box2, (0, 1)),
        ("edge-dim0", slp_2d(), g2, box2, IndexBox(((16, 32), (32, 48))), (0,)),
        ("edge-dim1", slp_2d(), g2, box2, IndexBox(((0, 16), (16, 32))), (1,)),
        ("self-3d", slp_3d(), g3, box3, box3, (0, 1, 2)),
        ("face-3d", slp_3d(), g3, box3, IndexBox(((8, 16), (16, 24), (8, 16))), (0, 2)),
    ]


SECTOR_PAIRS = pytest.mark.parametrize(
    "name,k,grid,tau,sigma,dims", sector_pairs(), ids=[p[0] for p in sector_pairs()])


class TestParitySectors:
    """A dense block that is unchanged when both boxes are reflected in k
    dimensions has 2^k sectors of a 2^k-th of its rows each, stores one per
    number of odd dimensions, and gives back its block to rounding."""

    @pytest.mark.parametrize("k", range(4))
    def test_signs_are_the_walsh_hadamard_matrix(self, k):
        # entry (c, p) is (-1)^popcount(c & p), the order _parts gives
        parts = 2**k
        expected = [[(-1) ** bin(c & p).count("1") for p in range(parts)]
                    for c in range(parts)]
        assert np.array_equal(blocks._signs(parts), expected)

    @SECTOR_PAIRS
    def test_materialize_matches_build_dense(self, name, k, grid, tau, sigma, dims):
        plain = build_dense(k, grid, tau, sigma, QuadratureConfig())
        block = blocks._sectors(plain.matrix, tau.sizes, dims, 1)
        n, zeros = plain.shape[0], len(dims)
        assert block.sectors.shape == (zeros + 1, n >> zeros, n >> zeros)
        assert block.sectors.size == (zeros + 1) * plain.matrix.size >> 2 * zeros
        full = block.materialize()
        assert block.shape == full.shape == plain.shape
        assert np.abs(full - plain.matrix).max() <= 1e-15 * np.abs(plain.matrix).max()
        # matrix is materialized on access, never stored
        assert np.array_equal(block.matrix, full)
        # the build reads the windows of the offset table, not the block
        windows = blocks._toeplitz_windows(k, grid, tau, sigma, QuadratureConfig())
        assert np.array_equal(blocks._sectors(windows, tau.sizes, dims, 1).sectors,
                              block.sectors)
        assert block.arrays() == [block.sectors]

    @SECTOR_PAIRS
    def test_mirror_is_a_view_of_the_sectors(self, name, k, grid, tau, sigma, dims):
        block = blocks._sectors(build_dense(k, grid, tau, sigma, QuadratureConfig()).matrix,
                                tau.sizes, dims, 1)
        mirror = blocks._mirrored(block)
        assert mirror.sectors.base is block.sectors.base or mirror.sectors.base is block.sectors
        assert np.shares_memory(mirror.sectors, block.sectors)
        assert (mirror.sides, mirror.dims, mirror.folds) == (block.sides, block.dims, True)
        assert np.array_equal(mirror.materialize(), block.materialize().T)
        assert mirror.shape == mirror.materialize().shape == block.shape

    @SECTOR_PAIRS
    def test_both_routes_of_the_product(self, name, k, grid, tau, sigma, dims):
        """Built for no more source boxes than columns, a block folds the
        rows and its product is one batched product of the sectors; built
        for more, it multiplies them by the materialized block."""
        plain = build_dense(k, grid, tau, sigma, QuadratureConfig())
        n = plain.shape[1]
        for count in (3, n + 1):
            block = blocks._sectors(plain.matrix, tau.sizes, dims, count)
            rows = np.random.default_rng(count).standard_normal((count, n))
            assert block.folds == (count <= n)
            right = block.operand()
            if block.folds:
                assert right.shape == (2 ** len(dims), n >> len(dims), n >> len(dims))
            else:
                assert right.shape == (n, n) and block.fold(rows) is rows
            assert block.width == right.shape[-1]
            out = block.fold(rows) @ right
            assert np.array_equal(block.unfold(out), block.product(rows))
            expected = rows @ plain.matrix.T
            assert np.abs(block.product(rows) - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_plain_block_is_one_sector(self):
        """A plain block, which does not fold, is its matrix: its product
        is one with the transposed block, as wide as the block is tall."""
        grid = UniformGrid(2, 32)
        tau, sigma = IndexBox(((0, 4), (0, 8))), IndexBox(((8, 12), (8, 10)))
        block = build_dense(slp_2d(), grid, tau, sigma, QuadratureConfig())
        assert block.dims == () and block.sectors.shape == (1, 32, 8)
        assert block.shape == block.materialize().shape == (32, 8)
        mirror = blocks._mirrored(block)
        assert mirror.shape == mirror.materialize().shape == (8, 32)
        for b in (block, mirror):
            rows = np.ones((2, b.shape[1]))
            assert not b.folds and b.fold(rows) is rows
            assert b.width == b.operand().shape[-1] == b.shape[0]
            assert np.array_equal(b.product(rows), rows @ b.matrix.T)


class TestTurns:
    """For a kernel of |x - y|, the block of a box pair whose offset is
    turned by a signed permutation of the dimensions is the block of the
    original pair with the turn's point map applied to its rows and
    columns: a turned payload holds the original's arrays and gives the
    turned pair's block, through the one route of its kind's product."""

    # (name, kernel, d, n, box side, rank, source-minus-target box offset)
    CASES = {
        "gauss2d": (gaussian(1.0), 2, 64, 8, 4, (3, 1)),
        "slp2d": (slp_2d(), 2, 64, 8, 4, (2, -1)),
        "slp3d": (slp_3d(), 3, 20, 4, 3, (2, 1, 0)),
    }
    TURNS = {2: [(-1, 2), (2, 1), (-2, 1), (2, -1), (-1, -2)],
             3: [(1, -2, 3), (2, 3, 1), (-3, 1, -2), (-1, -2, -3)]}

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("kind", ["dense", "tucker", "lowrank"])
    def test_turned_block_is_the_turned_pair(self, case, kind):
        k, d, n, side, rank, offset = self.CASES[case]
        grid = UniformGrid(d, n)
        middle = n // side // 2

        def pair(o):
            return tuple(IndexBox(tuple(((middle + c) * side, (middle + c + 1) * side)
                                        for c in shift)) for shift in ((0,) * d, o))

        build = {
            "dense": lambda tau, sigma: build_dense(k, grid, tau, sigma, QuadratureConfig()),
            "tucker": lambda tau, sigma: build_tlr(k, grid, tau, sigma, rank, grid.h),
            "lowrank": lambda tau, sigma: build_lowrank(k, grid, tau, sigma, rank, grid.h),
        }[kind]
        block = build(*pair(offset))
        # a product acts on box coefficients: a Tucker block's core matrix
        # maps those of its source box to those of its target box
        matrix = (lambda b: b.core_matrix) if kind != "dense" else materialize
        rows = np.random.default_rng(70).standard_normal((5, matrix(block).shape[1]))
        for turn in self.TURNS[d]:
            h = np.zeros((d, d), dtype=int)
            h[np.arange(d), np.abs(turn) - 1] = np.sign(turn)
            expected = build(*pair(tuple(h @ offset)))
            full = materialize(expected)
            turned = blocks._turned(block, turn)
            assert turned.arrays()[0] is block.arrays()[0] and turned.turn == turn
            assert turned.scalars() == block.scalars()
            assert np.abs(turned.materialize() - full).max() <= 1e-13 * np.abs(full).max()
            # a Tucker block multiplies the rows by its core turned; a dense
            # one turns the rows, and a payload whose fold returns its
            # argument unfolds nothing
            assert (turned.fold(rows) is rows) == (kind != "dense")
            product, exact = turned.product(rows), rows @ matrix(expected).T
            assert np.abs(product - exact).max() <= 1e-13 * np.abs(exact).max()
            into = np.empty_like(product)
            assert turned.unfold(turned.fold(rows) @ turned.operand(), into) is into
            assert np.array_equal(into, product)
