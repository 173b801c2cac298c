"""Vectorization, Kronecker products, subblocks, and transpose permutations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lora_kernels.errors import (
    DimensionError,
    NormBoundError,
    SizeGuardError,
    check_norm_bound,
)
from lora_kernels.lowrank import colwise_kronecker
from lora_kernels.oracle import (
    kronecker,
    matrixize,
    subblock,
    transpose_perm,
    vectorize,
)


class TestVecMat:
    def test_row_major_order(self):
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert vectorize(X).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_round_trip_example(self):
        X = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(matrixize(vectorize(X), 3, 4), X)

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**31 - 1))
    def test_round_trip_property(self, m, n, seed):
        X = np.random.default_rng(seed).standard_normal((m, n))
        assert np.array_equal(matrixize(vectorize(X), m, n), X)

    def test_matrixize_size_mismatch(self):
        with pytest.raises(DimensionError):
            matrixize(np.zeros(5), 2, 3)

    def test_vectorize_rejects_non_matrix(self):
        with pytest.raises(DimensionError):
            vectorize(np.zeros((2, 2, 2)))


class TestNormBound:
    def test_nan_is_a_violation(self):
        check_norm_bound("M", np.array([[0.5, -0.5]]), 0.5)
        with pytest.raises(NormBoundError):
            check_norm_bound("M", np.array([[0.1, np.nan]]), 0.5)


class TestKronecker:
    def test_dimension_law(self):
        out = kronecker(np.ones((2, 2)), np.ones((3, 2)))
        assert out.shape == (6, 4)

    def test_identity_factor_blocks(self):
        B = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = kronecker(np.eye(2), B)
        assert np.array_equal(out[:3, :2], B)
        assert np.array_equal(out[3:, 2:], B)
        assert np.all(out[:3, 2:] == 0.0)
        assert np.all(out[3:, :2] == 0.0)

    def test_scalar_factor(self):
        B = np.array([[1.0, -2.0], [0.5, 3.0]])
        assert np.array_equal(kronecker(np.array([[2.0]]), B), 2.0 * B)

    def test_entry_formula(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((2, 3))
        B = rng.standard_normal((3, 2))
        K = kronecker(A, B)
        for ia in range(2):
            for ja in range(3):
                for ib in range(3):
                    for jb in range(2):
                        assert K[ia * 3 + ib, ja * 2 + jb] == A[ia, ja] * B[ib, jb]

    def test_element_limit(self):
        big = np.zeros((2**16, 1))
        with pytest.raises(SizeGuardError):
            kronecker(big, big)

    @given(st.integers(0, 2**31 - 1))
    def test_tensor_trick(self, seed):
        # vec(A @ X @ B.T) == kron(A, B) @ vec(X) under row-major vec.
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 2))
        B = rng.standard_normal((4, 2))
        X = rng.standard_normal((2, 2))
        lhs = vectorize(A @ X @ B.T)
        rhs = kronecker(A, B) @ vectorize(X)
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestSubblock:
    def test_first_block(self):
        K = np.arange(18.0).reshape(9, 2)
        assert np.array_equal(subblock(K, 0), K[:3, :])

    def test_last_block(self):
        K = np.arange(18.0).reshape(9, 2)
        assert np.array_equal(subblock(K, 2), K[6:, :])

    def test_out_of_range(self):
        K = np.zeros((9, 2))
        with pytest.raises(IndexError):
            subblock(K, 3)
        with pytest.raises(IndexError):
            subblock(K, -1)

    def test_non_square_rows_need_explicit_size(self):
        K = np.zeros((6, 2))
        with pytest.raises(DimensionError):
            subblock(K, 0)

    def test_row_block_of_sandwich(self):
        # subblock(kron(C1, C2), j) @ vec(W) is row j of C1 @ W @ C2.T
        # spread over C2's rows, i.e. row block j of vec-of-rows.
        rng = np.random.default_rng(3)
        C1 = rng.standard_normal((3, 2))
        C2 = rng.standard_normal((3, 2))
        W = rng.standard_normal((2, 2))
        K = kronecker(C1, C2)
        S = C1 @ W @ C2.T
        for j in range(3):
            got = subblock(K, j) @ vectorize(W)
            assert np.abs(got - S[j, :]).max() <= 1e-12


class TestColwiseKronecker:
    def test_all_ones(self):
        ones = np.ones((4, 1))
        assert np.array_equal(colwise_kronecker(ones, ones), ones)

    def test_column_count_law(self):
        out = colwise_kronecker(np.ones((5, 2)), np.ones((5, 3)))
        assert out.shape == (5, 6)

    def test_column_order(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        B = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = colwise_kronecker(A, B)
        # column s*k2 + t is A[:, s] * B[:, t]
        assert np.array_equal(out[:, 0], A[:, 0] * B[:, 0])
        assert np.array_equal(out[:, 1], A[:, 0] * B[:, 1])
        assert np.array_equal(out[:, 2], A[:, 1] * B[:, 0])
        assert np.array_equal(out[:, 3], A[:, 1] * B[:, 1])

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError):
            colwise_kronecker(np.ones((4, 2)), np.ones((5, 2)))

    def test_hadamard_identity_seeded(self):
        rng = np.random.default_rng(11)
        U1, V1, U2, V2 = (rng.uniform(-1.0, 1.0, (5, 2)) for _ in range(4))
        lhs = colwise_kronecker(U1, U2) @ colwise_kronecker(V1, V2).T
        rhs = (U1 @ V1.T) * (U2 @ V2.T)
        assert np.abs(lhs - rhs).max() <= 1e-12

    @given(
        st.integers(1, 8),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 2**31 - 1),
    )
    def test_hadamard_identity_property(self, L, k1, k2, seed):
        rng = np.random.default_rng(seed)
        U1, V1 = rng.uniform(-1.0, 1.0, (L, k1)), rng.uniform(-1.0, 1.0, (L, k1))
        U2, V2 = rng.uniform(-1.0, 1.0, (L, k2)), rng.uniform(-1.0, 1.0, (L, k2))
        lhs = colwise_kronecker(U1, U2) @ colwise_kronecker(V1, V2).T
        rhs = (U1 @ V1.T) * (U2 @ V2.T)
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestPermutations:
    def test_transpose_perm_2x3(self):
        perm = transpose_perm(2, 3)
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert v[perm].tolist() == [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]

    def test_transpose_perm_moves_vec_to_vec_of_transpose(self):
        rng = np.random.default_rng(5)
        for m, n in ((2, 3), (3, 3), (4, 1), (1, 5)):
            W = rng.standard_normal((m, n))
            perm = transpose_perm(m, n)
            assert np.array_equal(vectorize(W)[perm], vectorize(W.T))

    def test_identity_when_1x1(self):
        perm = transpose_perm(1, 1)
        assert np.array([3.0])[perm].tolist() == [3.0]

    def test_double_transpose_is_identity(self):
        composed = transpose_perm(2, 3)[transpose_perm(3, 2)]
        assert composed.tolist() == list(range(6))

    def test_square_transpose_is_involution(self):
        perm = transpose_perm(3, 3)
        assert perm[perm].tolist() == list(range(9))
        assert np.array_equal(np.argsort(perm), perm)

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_bijection_and_inverse_property(self, m, n):
        perm = transpose_perm(m, n)
        assert sorted(perm.tolist()) == list(range(m * n))
        roundtrip = perm[np.argsort(perm)]
        assert roundtrip.tolist() == list(range(m * n))
        # the inverse of the (m, n) transpose is the (n, m) transpose
        assert np.array_equal(np.argsort(perm), transpose_perm(n, m))

    def test_rejects_empty_shape(self):
        with pytest.raises(DimensionError):
            transpose_perm(0, 3)

