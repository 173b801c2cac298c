"""Exact gradient pipeline: p matrix, weight gradient, adapter gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import special_constants
from lora_kernels.attention import (
    BLOCK_ELEMENTS,
    AttentionInstance,
    GeneralInstance,
    LoraAdapter,
    adapted_weight,
    forward_f,
    general_loss,
    normalize,
    q_from_c,
    row_blocks,
    score_matrix,
    softmax_dots,
    softmax_rows,
)
from lora_kernels.errors import DimensionError, SizeGuardError
from lora_kernels.exact import (
    compute_p,
    grad_adapters_general,
    grad_adapters_special,
    grad_wrt_W,
    split_p,
)
from lora_kernels.oracle import (
    dense_kron_grad_oracle,
    dense_p_oracle,
    fd_grad_adapter,
    fd_grad_general,
    fd_grad_W,
    jacobian_blocks,
    kronecker,
    subblock,
    vectorize,
)


def rel_err(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(got - want).max()) / scale


def random_instance(rng, L, d, scale=0.6):
    return AttentionInstance(
        C1=scale * rng.standard_normal((L, d)),
        C2=scale * rng.standard_normal((L, d)),
        C3=rng.standard_normal((L, d)),
        Y=rng.standard_normal((L, d)),
    )


def random_adapter(rng, d, r, alpha=None):
    return LoraAdapter(
        B=rng.standard_normal((d, r)),
        A=rng.standard_normal((r, d)),
        r=r,
        alpha=float(r) if alpha is None else alpha,
    )


def traced_peak(fn, *args):
    """Tracemalloc peak in bytes of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def zero_residual_instance(rng, L, d, W):
    base = random_instance(rng, L, d)
    Y = forward_f(base, W) @ base.C3
    return AttentionInstance(C1=base.C1, C2=base.C2, C3=base.C3, Y=Y)


class TestComputeP:
    def test_zero_q_gives_zero(self, rng):
        W = rng.standard_normal((2, 2))
        inst = zero_residual_instance(rng, 5, 2, W)
        om = dense_p_oracle(inst, W)
        assert np.abs(om.p1).max() <= 1e-14
        assert np.abs(om.p2).max() <= 1e-14
        assert np.abs(compute_p(inst, W)).max() <= 1e-14

    def test_single_token_p_is_zero(self, rng):
        inst = random_instance(rng, 1, 2)
        p = compute_p(inst, rng.standard_normal((2, 2)))
        assert np.abs(p).max() <= 1e-15

    def test_matches_dense_oracle(self, rng):
        # p against the literal diag/outer-product build, and the oracle's
        # split against its closed forms: p1 = f.T * q and p2 = f.T scaled
        # per column by the row dots read off the residual.
        inst = random_instance(rng, 5, 2)
        W = rng.standard_normal((2, 2))
        om = dense_p_oracle(inst, W)
        f = forward_f(inst, W)
        c = f @ inst.C3 - inst.Y
        q = inst.C3 @ c.T
        assert np.abs(f.T * q - om.p1).max() <= 1e-12
        assert np.abs(f.T * softmax_dots(c, inst.Y) - om.p2).max() <= 1e-12
        assert np.abs(compute_p(inst, W) - om.p).max() <= 1e-12

    def test_column_identity_brute_force(self, rng):
        inst = random_instance(rng, 6, 3)
        W = rng.standard_normal((3, 3))
        f = forward_f(inst, W)
        c = f @ inst.C3 - inst.Y
        q = inst.C3 @ c.T
        p = split_p(f.copy(), (inst.C3, c), softmax_dots(c, inst.Y))
        for j in range(6):
            fj = f[j, :]
            qj = q[:, j]
            assert np.abs(p[:, j] - (fj * qj - fj * (fj @ qj))).max() <= 1e-13

    def test_split_p_out_ownership(self, rng):
        # p is written over f and returned as f.T, with the arithmetic of the
        # unblocked formula on the dense q; the pair is left bit-identical.
        inst = random_instance(rng, 6, 3)
        W = rng.standard_normal((3, 3))
        f = forward_f(inst, W)
        c = f @ inst.C3 - inst.Y
        r = softmax_dots(c, inst.Y)
        c_kept, C3_kept = c.copy(), inst.C3.copy()
        want = (inst.C3 @ c.T - r) * f.T
        p = split_p(f, q_from_c(c, inst), r)
        assert p.base is f
        assert np.array_equal(p, want)
        assert np.array_equal(c, c_kept) and np.array_equal(inst.C3, C3_kept)

    def test_split_p_shape_check(self):
        pair = (np.zeros((3, 2)), np.zeros((3, 2)))
        for f, q, r in [
            (np.zeros((3, 2)), pair, np.zeros(3)),
            (np.zeros((3, 3)), (np.zeros((3, 2)), np.zeros((2, 2))), np.zeros(3)),
            (np.zeros((3, 3)), (np.zeros((3, 2)), np.zeros((3, 3))), np.zeros(3)),
            (np.zeros((3, 3)), (np.zeros((2, 2)), np.zeros((3, 2))), np.zeros(3)),
            (np.zeros((3, 3)), pair, np.zeros(2)),
        ]:
            with pytest.raises(DimensionError):
                split_p(f, q, r)


class TestRowBlocks:
    def test_split_p_matches_unblocked_formula(self, rng, blocked_L):
        # Bit for bit against the formula on each block's product of the
        # pair. BLAS rounds a row of c @ C3.T by the product's shape (a
        # one-row product goes through gemv), so against the whole dense q
        # the blocks agree to rounding: per side, d ulps of the dot product
        # and one each for the subtraction and the product with f <= 1.
        d = 3
        inst = random_instance(rng, blocked_L, d)
        f = forward_f(inst, rng.standard_normal((d, d)))
        c = f @ inst.C3 - inst.Y
        r = softmax_dots(c, inst.Y)
        C3_T = np.ascontiguousarray(inst.C3.T)
        want = np.vstack(
            [(c[blk] @ C3_T - r[blk, None]) * f[blk] for blk in row_blocks(*f.shape)]
        ).T
        dense = (inst.C3 @ c.T - r) * f.T
        scale = (np.abs(inst.C3) @ np.abs(c).T + np.abs(r)).max()
        rounding = 2 * (d + 2) * np.finfo(float).eps * scale
        p = split_p(f, q_from_c(c, inst), r)
        assert np.array_equal(p, want)
        assert np.abs(p - dense).max() <= rounding

    def test_gradient_matches_unblocked_sandwich(self, rng, blocked_L):
        # p.T @ C2 runs as one product per row block, then C1.T multiplies
        # it. Against the whole products in the other order, (C1.T @ p.T) @
        # C2, each side is within L + d ulps of the exact sum of products.
        L, d = blocked_L, 3
        inst = random_instance(rng, L, d)
        W = rng.standard_normal((d, d))
        p = compute_p(inst, W)
        dense = (inst.C1.T @ p.T) @ inst.C2
        scale = (np.abs(inst.C1.T) @ np.abs(p.T)) @ np.abs(inst.C2)
        rounding = 2 * (L + d) * np.finfo(float).eps * scale
        assert np.all(np.abs(grad_wrt_W(inst, W) - dense) <= rounding)

    # At L = 1024 a block is 64 rows. A block loop that slips in an L x L
    # temporary breaks these bounds.
    L = 1024

    def test_softmax_in_place_holds_under_two_blocks(self, rng):
        # An infinite bound is a valid one and makes it read the row maxima.
        S = rng.standard_normal((self.L, self.L))
        assert traced_peak(softmax_rows, S, np.inf) < 2 * BLOCK_ELEMENTS * 8

    def test_split_p_in_place_holds_under_two_blocks(self, rng):
        inst = random_instance(rng, self.L, 4)
        f = forward_f(inst, rng.standard_normal((4, 4)))
        c = f @ inst.C3 - inst.Y
        q = q_from_c(c, inst)
        r = softmax_dots(c, inst.Y)
        assert traced_peak(split_p, f, q, r) < 2 * BLOCK_ELEMENTS * 8

    def test_gradient_holds_one_square_array(self, rng):
        # S, then f, then p: one L x L buffer, plus split_p's one-block q.
        inst = random_instance(rng, self.L, 4)
        W = rng.standard_normal((4, 4))
        assert traced_peak(grad_wrt_W, inst, W) <= 1.1 * self.L * self.L * 8


class TestGradW:
    def test_zero_residual_zero_gradient(self, rng):
        W = rng.standard_normal((2, 2))
        inst = zero_residual_instance(rng, 5, 2, W)
        assert np.abs(grad_wrt_W(inst, W)).max() <= 1e-13

    def test_single_token_zero_gradient(self, rng):
        inst = random_instance(rng, 1, 3)
        assert np.abs(grad_wrt_W(inst, rng.standard_normal((3, 3)))).max() <= 1e-14

    def test_finite_differences(self, rng):
        inst = random_instance(rng, 6, 3)
        W = rng.standard_normal((3, 3))
        assert rel_err(grad_wrt_W(inst, W), fd_grad_W(inst, W)) <= 1e-5

    def test_peak_memory_is_one_square_and_one_block(self, rng):
        # f is built in the score buffer and p over f, so one L x L array is
        # alive at a time, next to split_p's one block of q; 5 % is room for
        # the L x d rest. At L = 512 the block is a quarter of the square.
        # TestRowBlocks::test_gradient_holds_one_square_array bounds L = 1024.
        L = 512
        inst = random_instance(rng, L, 4)
        W = rng.standard_normal((4, 4))
        peak = traced_peak(grad_wrt_W, inst, W)
        assert peak <= 1.05 * (L * L + BLOCK_ELEMENTS) * 8


class TestGradAdaptersSpecial:
    def test_zero_A_zeroes_GB(self, rng):
        adp = LoraAdapter(
            B=rng.standard_normal((3, 2)), A=np.zeros((2, 3)), r=2, alpha=2.0
        )
        inst = random_instance(rng, 5, 3)
        Wstar = rng.standard_normal((3, 3))
        pair = grad_adapters_special(inst, Wstar, adp)
        assert np.abs(pair.GB).max() == 0.0
        assert np.abs(pair.GA).max() > 0.0

    def test_zero_residual_zero_gradients(self, rng):
        adp = random_adapter(rng, 2, 1)
        Wstar = rng.standard_normal((2, 2))
        W = adapted_weight(Wstar, adp)
        inst = zero_residual_instance(rng, 6, 2, W)
        pair = grad_adapters_special(inst, Wstar, adp)
        assert np.abs(pair.GA).max() <= 1e-13
        assert np.abs(pair.GB).max() <= 1e-13

    def test_finite_differences(self, rng):
        inst = random_instance(rng, 6, 3)
        adp = random_adapter(rng, 3, 2)
        Wstar = rng.standard_normal((3, 3))
        pair = grad_adapters_special(inst, Wstar, adp)
        assert rel_err(pair.GA, fd_grad_adapter(inst, Wstar, adp, "A")) <= 1e-5
        assert rel_err(pair.GB, fd_grad_adapter(inst, Wstar, adp, "B")) <= 1e-5

    def test_finite_differences_off_unit_alpha(self, rng):
        inst = random_instance(rng, 5, 3)
        adp = random_adapter(rng, 3, 2, alpha=7.5)
        Wstar = rng.standard_normal((3, 3))
        pair = grad_adapters_special(inst, Wstar, adp)
        assert rel_err(pair.GA, fd_grad_adapter(inst, Wstar, adp, "A")) <= 1e-5
        assert rel_err(pair.GB, fd_grad_adapter(inst, Wstar, adp, "B")) <= 1e-5

    def test_adapter_dimension_mismatch(self, rng):
        inst = random_instance(rng, 4, 2)
        adp = random_adapter(rng, 3, 1)
        with pytest.raises(DimensionError):
            grad_adapters_special(inst, np.zeros((3, 3)), adp)

    def test_gradient_shapes(self, rng):
        inst = random_instance(rng, 4, 3)
        adp = random_adapter(rng, 3, 2)
        pair = grad_adapters_special(inst, np.zeros((3, 3)), adp)
        assert pair.GA.shape == (2, 3)
        assert pair.GB.shape == (3, 2)

    @given(
        st.integers(2, 8),
        st.integers(1, 3),
        st.integers(1, 2),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25)
    def test_three_route_agreement(self, L, d, r, seed):
        # Closed form, the materialized Kronecker/Jacobian route, and central
        # finite differences must coincide on every guarded instance.
        r = min(r, d)
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, L, d)
        adp = random_adapter(rng, d, r)
        Wstar = rng.standard_normal((d, d))
        pair = grad_adapters_special(inst, Wstar, adp)
        ko = dense_kron_grad_oracle(inst, Wstar, adp)
        assert np.abs(pair.GA - ko.GA).max() <= 1e-10
        assert np.abs(pair.GB - ko.GB).max() <= 1e-10
        assert rel_err(pair.GA, fd_grad_adapter(inst, Wstar, adp, "A")) <= 1e-5
        assert rel_err(pair.GB, fd_grad_adapter(inst, Wstar, adp, "B")) <= 1e-5


class TestJacobianBlocks:
    def test_small_structure(self, rng):
        # d=2, r=1: J_B = B kron I_2 stacks scaled identity blocks, one per
        # row of B; J_A = I_2 kron A.T places A.T on the diagonal blocks.
        B = rng.standard_normal((2, 1))
        A = rng.standard_normal((1, 2))
        adp = LoraAdapter(B=B, A=A, r=1, alpha=1.0)
        J_B, J_A = jacobian_blocks(adp)
        assert J_B.shape == (4, 2)
        assert J_A.shape == (4, 2)
        assert np.array_equal(J_B[:2, :], B[0, 0] * np.eye(2))
        assert np.array_equal(J_B[2:, :], B[1, 0] * np.eye(2))
        assert np.array_equal(J_A[:2, :1], A.T)
        assert np.array_equal(J_A[2:, 1:], A.T)
        assert np.all(J_A[:2, 1:] == 0.0)
        assert np.all(J_A[2:, :1] == 0.0)

    def test_vec_identities(self, rng):
        B = rng.standard_normal((3, 2))
        A = rng.standard_normal((2, 3))
        Wbar = rng.standard_normal((3, 3))
        adp = LoraAdapter(B=B, A=A, r=2, alpha=2.0)
        J_B, J_A = jacobian_blocks(adp)
        lhs = vectorize(Wbar + B @ A)
        assert np.abs(lhs - (vectorize(Wbar) + J_B @ vectorize(A))).max() <= 1e-14
        assert np.abs(lhs - (vectorize(Wbar) + J_A @ vectorize(B))).max() <= 1e-14

    def test_projects_score_subblocks(self, rng):
        # J_B.T @ subblock(kron(C1, C2), j).T equals the j-th subblock of
        # kron(C1 @ B, C2) transposed: the adapter-side chain rule collapses
        # onto the smaller Kronecker factor.
        L, d, r = 3, 2, 1
        C1 = rng.standard_normal((L, d))
        C2 = rng.standard_normal((L, d))
        B = rng.standard_normal((d, r))
        A = rng.standard_normal((r, d))
        adp = LoraAdapter(B=B, A=A, r=r, alpha=1.0)
        J_B, _ = jacobian_blocks(adp)
        K_full = kronecker(C1, C2)
        K_small = kronecker(C1 @ B, C2)
        for j in range(L):
            lhs = J_B.T @ subblock(K_full, j).T
            rhs = subblock(K_small, j).T
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_size_guard(self, rng):
        adp = random_adapter(rng, 7, 2)
        with pytest.raises(SizeGuardError):
            jacobian_blocks(adp)


class TestGradAdaptersGeneral:
    def random_general(self, rng, L, d, scale=0.5):
        return GeneralInstance(
            XQ=scale * rng.standard_normal((L, d)),
            XK=scale * rng.standard_normal((L, d)),
            XV=rng.standard_normal((L, d)),
            WQstar=rng.standard_normal((d, d)),
            WKstar=rng.standard_normal((d, d)),
            WVstar=rng.standard_normal((d, d)),
            Y=rng.standard_normal((L, d)),
        )

    def test_all_four_finite_differences(self, rng):
        g = self.random_general(rng, 5, 3)
        adpQ = random_adapter(rng, 3, 1)
        adpK = random_adapter(rng, 3, 1)
        pair_q, pair_k = grad_adapters_general(g, adpQ, adpK)
        assert rel_err(pair_q.GA, fd_grad_general(g, adpQ, adpK, "Q", "A")) <= 1e-5
        assert rel_err(pair_q.GB, fd_grad_general(g, adpQ, adpK, "Q", "B")) <= 1e-5
        assert rel_err(pair_k.GA, fd_grad_general(g, adpQ, adpK, "K", "A")) <= 1e-5
        assert rel_err(pair_k.GB, fd_grad_general(g, adpQ, adpK, "K", "B")) <= 1e-5

    def test_query_side_matches_special_path(self, rng):
        # With the key adapter zeroed, the general query gradients must equal
        # the special-case path on the composed constants exactly.
        g = self.random_general(rng, 4, 2)
        adpQ = random_adapter(rng, 2, 1, alpha=3.0)
        adpK = LoraAdapter(B=np.zeros((2, 1)), A=np.zeros((1, 2)), r=1, alpha=1.0)
        pair_q, _ = grad_adapters_general(g, adpQ, adpK)
        inst = special_constants(g, alpha=adpQ.alpha, r=adpQ.r)
        pair_s = grad_adapters_special(inst, g.WQstar, adpQ)
        assert np.abs(pair_q.GA - pair_s.GA).max() <= 1e-10
        assert np.abs(pair_q.GB - pair_s.GB).max() <= 1e-10

    def test_zero_residual_all_four_zero(self, rng):
        g0 = self.random_general(rng, 4, 2)
        adpQ = random_adapter(rng, 2, 1)
        adpK = random_adapter(rng, 2, 1)
        WQ = g0.WQstar + adpQ.scale * adpQ.delta()
        WK = g0.WKstar + adpK.delta()
        f = normalize(softmax_rows(*score_matrix(g0.XQ @ WQ, g0.XK @ WK)))
        Y = f @ (g0.XV @ g0.WVstar)
        g = GeneralInstance(
            XQ=g0.XQ, XK=g0.XK, XV=g0.XV,
            WQstar=g0.WQstar, WKstar=g0.WKstar, WVstar=g0.WVstar, Y=Y,
        )
        assert general_loss(g, adpQ, adpK) <= 1e-24
        pair_q, pair_k = grad_adapters_general(g, adpQ, adpK)
        for G in (pair_q.GA, pair_q.GB, pair_k.GA, pair_k.GB):
            assert np.abs(G).max() <= 1e-13

    def test_peak_memory_is_one_square_array(self, rng):
        # One p serves both sides, so the two-sided path holds the special
        # path's one L x L array.
        L = 1024
        g = self.random_general(rng, L, 4)
        adpQ = random_adapter(rng, 4, 2)
        adpK = random_adapter(rng, 4, 2)
        peak = traced_peak(grad_adapters_general, g, adpQ, adpK)
        assert peak <= 1.1 * L * L * 8

    def test_adapter_dimension_mismatch(self, rng):
        g = self.random_general(rng, 4, 2)
        with pytest.raises(DimensionError):
            grad_adapters_general(
                g, random_adapter(rng, 3, 1), random_adapter(rng, 2, 1)
            )
