import numpy as np
import pytest

from htlr import (
    contract,
    mode_product,
    multi_mode_apply,
    qr,
    reshape,
    tensor_to_vec,
    vec_to_tensor,
)
from oracle_utils import explicit_kron, loop_contract, loop_mode_product


GUARDS = {
    "scalar": (lambda: mode_product(np.float64(2.0), np.eye(1), 1),
               "tensor must have order >= 1"),
    "vector-factor": (lambda: mode_product(np.ones((2, 2)), np.ones(2), 1),
                      "mode_product factor must be a matrix"),
    "dimension-lists": (lambda: contract(np.ones((2, 3)), np.ones((3, 2)), [1], [1, 2]),
                        "dimension lists must have equal length"),
    "dimension-range": (lambda: contract(np.ones((2, 3)), np.ones((3, 2)), [3], [1]),
                        "dimension 3 out of range for tensor a"),
    "qr-vector": (lambda: qr(np.ones(3)), "qr expects a matrix"),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_input_guard_names_the_fault(guard):
    make, message = GUARDS[guard]
    with pytest.raises(ValueError, match=message):
        make()


class TestModeProduct:
    def test_identity_leaves_tensor_unchanged(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 4, 2))
        for mode in (1, 2, 3):
            out = mode_product(t, np.eye(t.shape[mode - 1]), mode)
            assert np.array_equal(out, t)

    def test_ones_row_sums_mode_one(self):
        t = np.ones((2, 2, 2))
        out = mode_product(t, np.ones((1, 2)), 1)
        assert out.shape == (1, 2, 2)
        assert np.all(out == 2.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 4, 5))
        m = rng.standard_normal((6, 4))
        out = mode_product(t, m, 2)
        ref = loop_mode_product(t, m, 2)
        assert out.shape == (3, 6, 5)
        assert np.abs(out - ref).max() <= 1e-13

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mode_product(np.ones((3, 4)), np.ones((2, 5)), 1)
        with pytest.raises(ValueError):
            mode_product(np.ones((3, 4)), np.ones((2, 3)), 3)


class TestContract:
    def test_matrix_product(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 3))
        out = contract(a, b, [2], [1])
        assert np.allclose(out, a @ b, atol=1e-13)

    def test_full_self_contraction_is_squared_norm(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((3, 2, 4))
        out = contract(t, t, [1, 2, 3], [1, 2, 3])
        assert out.shape == ()
        assert abs(float(out) - np.sum(t**2)) <= 1e-12

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 3, 4, 2))
        b = rng.standard_normal((3, 2, 5))
        out = contract(a, b, [2, 4], [1, 2])
        ref = loop_contract(a, b, [2, 4], [1, 2])
        assert out.shape == ref.shape == (2, 4, 5)
        assert np.abs(out - ref).max() <= 1e-13

    def test_extent_mismatch_and_duplicates_rejected(self):
        a = np.ones((2, 3))
        b = np.ones((4, 5))
        with pytest.raises(ValueError):
            contract(a, b, [2], [1])
        with pytest.raises(ValueError):
            contract(a, b, [1, 1], [1, 2])


class TestReshape:
    def test_round_trip(self):
        v = np.arange(4.0)
        back = tensor_to_vec(reshape(v, (2, 2)))
        assert np.array_equal(back, v)

    def test_first_index_fastest_placement(self):
        # entry at multi-index (i1, i2) of an (n1, n2) tensor comes from
        # linear position i1 + i2*n1
        v = np.arange(6.0)
        t = vec_to_tensor(v, (2, 3))
        for i1 in range(2):
            for i2 in range(3):
                assert t[i1, i2] == v[i1 + i2 * 2]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reshape(np.arange(6.0), (2, 2))


class TestQR:
    def test_identity(self):
        res = qr(np.eye(4))
        assert np.allclose(res.q, np.eye(4))
        assert np.allclose(res.r, np.eye(4))

    def test_scaled_identity_diagonal(self):
        res = qr(np.diag([3.0, 5.0]))
        assert np.allclose(np.abs(np.diag(res.r)), [3.0, 5.0])
        assert np.abs(res.q.T @ res.q - np.eye(2)).max() <= 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((32, 8))
        res = qr(m)
        rel = np.linalg.norm(res.q @ res.r - m) / np.linalg.norm(m)
        assert rel <= 1e-14

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            qr(np.ones((3, 5)))

    def test_orthonormality_and_triangularity(self):
        rng = np.random.default_rng(6)
        for rows, cols in [(10, 3), (16, 16), (40, 7)]:
            res = qr(rng.standard_normal((rows, cols)))
            assert np.abs(res.q.T @ res.q - np.eye(cols)).max() <= 1e-12
            assert np.array_equal(np.tril(res.r, -1), np.zeros_like(res.r))


class TestMultiModeApply:
    def test_identity_factors(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((3, 4))
        out = multi_mode_apply(t, [(np.eye(3), 1), (np.eye(4), 2)])
        assert np.array_equal(out, t)

    def test_explicit_kronecker_oracle(self):
        rng = np.random.default_rng(8)
        v1 = rng.standard_normal((3, 4))
        v2 = rng.standard_normal((2, 5))
        u = rng.standard_normal(20)
        out = tensor_to_vec(
            multi_mode_apply(vec_to_tensor(u, (4, 5)), [(v1, 1), (v2, 2)])
        )
        ref = explicit_kron([v1, v2]) @ u
        assert np.abs(out - ref).max() <= 1e-13

    def test_single_factor_equals_mode_product(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((3, 4, 5))
        m = rng.standard_normal((7, 4))
        assert np.array_equal(
            multi_mode_apply(t, [(m, 2)]), mode_product(t, m, 2)
        )

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError):
            multi_mode_apply(np.ones((2, 2)), [(np.eye(2), 1), (np.eye(2), 1)])


class TestAlgebraicProperties:
    def test_mode_product_composition(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            t = rng.standard_normal((4, 3, 5))
            a = rng.standard_normal((6, 3))
            b = rng.standard_normal((2, 6))
            lhs = mode_product(mode_product(t, a, 2), b, 2)
            rhs = mode_product(t, b @ a, 2)
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_distinct_modes_commute(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            t = rng.standard_normal((3, 4, 5))
            a = rng.standard_normal((2, 3))
            b = rng.standard_normal((6, 5))
            lhs = mode_product(mode_product(t, a, 1), b, 3)
            rhs = mode_product(mode_product(t, b, 3), a, 1)
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_multi_mode_apply_equals_kronecker_action(self):
        rng = np.random.default_rng(12)
        shapes = [(4, 5), (2, 3, 4), (6, 6), (2, 2, 2, 2), (16, 16)]
        for shape in shapes:
            assert int(np.prod(shape)) <= 256
            factors = [rng.standard_normal((rng.integers(1, 5), s)) for s in shape]
            u = rng.standard_normal(int(np.prod(shape)))
            out = tensor_to_vec(
                multi_mode_apply(
                    vec_to_tensor(u, shape),
                    [(f, i + 1) for i, f in enumerate(factors)],
                )
            )
            ref = explicit_kron(factors) @ u
            assert np.abs(out - ref).max() <= 1e-12
