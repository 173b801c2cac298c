"""Forward pass, loss, residual/score intermediates, and instance composition."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lora_kernels.attention import (
    AttentionInstance,
    GeneralInstance,
    LoraAdapter,
    adapted_weight,
    compose_general_constants,
    compose_special_constants,
    forward_f,
    forward_output,
    general_loss,
    general_scores,
    guard_limit,
    loss,
    q_from_c,
    residual_c,
    scores,
    softmax_rows,
)
from lora_kernels.errors import (
    DimensionError,
    NonFiniteError,
    ScoreOverflowError,
    SizeGuardError,
)


def random_instance(rng, L, d, scale=1.0):
    return AttentionInstance(
        C1=scale * rng.standard_normal((L, d)),
        C2=scale * rng.standard_normal((L, d)),
        C3=rng.standard_normal((L, d)),
        Y=rng.standard_normal((L, d)),
    )


def random_general(rng, L, d):
    return GeneralInstance(
        XQ=rng.standard_normal((L, d)),
        XK=rng.standard_normal((L, d)),
        XV=rng.standard_normal((L, d)),
        WQstar=rng.standard_normal((d, d)),
        WKstar=rng.standard_normal((d, d)),
        WVstar=rng.standard_normal((d, d)),
        Y=rng.standard_normal((L, d)),
    )


class TestInstanceTypes:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            AttentionInstance(
                C1=np.zeros((4, 2)),
                C2=np.zeros((3, 2)),
                C3=np.zeros((4, 2)),
                Y=np.zeros((4, 2)),
            )

    def test_non_finite_rejected(self):
        C = np.zeros((2, 2))
        bad = C.copy()
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            AttentionInstance(C1=bad, C2=C, C3=C, Y=C)
        with pytest.raises(NonFiniteError):
            LoraAdapter(B=np.full((2, 1), np.inf), A=np.zeros((1, 2)), r=1, alpha=1.0)
        with pytest.raises(NonFiniteError):
            GeneralInstance(
                XQ=C, XK=C, XV=C, WQstar=C, WKstar=bad, WVstar=C, Y=C
            )

    def test_adapter_rank_bounds(self):
        with pytest.raises(DimensionError):
            LoraAdapter(B=np.zeros((2, 3)), A=np.zeros((3, 2)), r=3, alpha=1.0)

    def test_adapter_shape_consistency(self):
        with pytest.raises(DimensionError):
            LoraAdapter(B=np.zeros((3, 2)), A=np.zeros((1, 3)), r=2, alpha=1.0)

    def test_adapter_alpha_positive(self):
        # alpha=inf would zero the frozen weight in adapted_weight (r/alpha)
        # and alpha=nan would make every gradient NaN.
        for alpha in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="alpha"):
                LoraAdapter(B=np.zeros((2, 1)), A=np.zeros((1, 2)), r=1, alpha=alpha)

    def test_adapted_weight_folds_scale(self, rng):
        B = rng.standard_normal((3, 2))
        A = rng.standard_normal((2, 3))
        Wstar = rng.standard_normal((3, 3))
        adp = LoraAdapter(B=B, A=A, r=2, alpha=8.0)
        W = adapted_weight(Wstar, adp)
        assert np.abs(W - ((2 / 8.0) * Wstar + B @ A)).max() <= 1e-14


class TestForward:
    def test_zero_weight_is_uniform(self, rng):
        inst = random_instance(rng, 6, 3)
        f = forward_f(inst, np.zeros((3, 3)))
        assert np.abs(f - 1.0 / 6).max() <= 1e-14

    def test_single_row_softmax(self, rng):
        inst = random_instance(rng, 1, 2)
        f = forward_f(inst, rng.standard_normal((2, 2)))
        assert f.shape == (1, 1)
        assert abs(f[0, 0] - 1.0) <= 1e-15

    def test_row_sums_seeded(self, rng):
        inst = random_instance(rng, 8, 3)
        f = forward_f(inst, rng.standard_normal((3, 3)))
        assert np.abs(f.sum(axis=1) - 1.0).max() <= 1e-12
        assert f.min() > 0.0

    @given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_rows_are_distributions(self, L, d, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, L, d, scale=0.5)
        f = forward_f(inst, rng.standard_normal((d, d)))
        assert np.abs(f.sum(axis=1) - 1.0).max() <= 1e-12
        assert f.min() >= 0.0

    def test_shift_invariance_of_softmax(self):
        S = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert np.abs(softmax_rows(S) - softmax_rows(S + 100.0)).max() <= 1e-12

    def test_score_overflow_raises(self):
        inst = AttentionInstance(
            C1=np.full((2, 1), 30.0),
            C2=np.full((2, 1), 30.0),
            C3=np.zeros((2, 1)),
            Y=np.zeros((2, 1)),
        )
        with pytest.raises(ScoreOverflowError) as info:
            scores(inst, np.array([[1.0]]))
        assert info.value.max_abs_score == pytest.approx(900.0)

    def test_softmax_out_ownership(self, rng):
        # Without out the scores are left bit-identical; with out the rows
        # are built in that buffer, with the same arithmetic.
        S = rng.standard_normal((5, 5))
        kept = S.copy()
        f = softmax_rows(S)
        assert np.array_equal(S, kept)
        assert not np.shares_memory(f, S)
        f_in = softmax_rows(S, out=S)
        assert np.shares_memory(f_in, S)
        assert np.array_equal(f_in, f)

    def test_integer_scores(self):
        # The in-place passes need a float buffer; integer scores get one.
        S = np.array([[1, 2], [3, -1]])
        assert np.array_equal(softmax_rows(S), softmax_rows(S.astype(float)))

    def test_negative_score_overflow_raises(self):
        # Every score is -900, so only the -S.min() side of the check sees it.
        inst = AttentionInstance(
            C1=np.full((2, 1), 30.0),
            C2=np.full((2, 1), -30.0),
            C3=np.zeros((2, 1)),
            Y=np.zeros((2, 1)),
        )
        with pytest.raises(ScoreOverflowError) as info:
            scores(inst, np.array([[1.0]]))
        assert info.value.max_abs_score == pytest.approx(900.0)
        one, zero = np.ones((1, 1)), np.zeros((1, 1))
        g = GeneralInstance(
            XQ=inst.C1, XK=inst.C2, XV=inst.C3,
            WQstar=one, WKstar=one, WVstar=one, Y=inst.Y,
        )
        adp = LoraAdapter(B=zero, A=zero, r=1, alpha=1.0)
        with pytest.raises(ScoreOverflowError) as info:
            general_scores(g, adp, adp)
        assert info.value.max_abs_score == pytest.approx(900.0)

    def test_weight_shape_checked(self, rng):
        inst = random_instance(rng, 4, 2)
        with pytest.raises(DimensionError):
            forward_f(inst, np.zeros((3, 3)))

    def test_guard_env_override(self, rng, monkeypatch):
        monkeypatch.setenv("LORA_KERNELS_GUARD_L", "4")
        assert guard_limit() == 4
        inst = random_instance(rng, 5, 2)
        with pytest.raises(SizeGuardError):
            forward_f(inst, np.zeros((2, 2)))

    def test_guard_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("LORA_KERNELS_GUARD_L", "many")
        with pytest.raises(ValueError):
            guard_limit()


class TestLossAndIntermediates:
    def test_zero_residual_loss(self, rng):
        inst0 = random_instance(rng, 5, 2)
        W = rng.standard_normal((2, 2))
        Y = forward_f(inst0, W) @ inst0.C3
        inst = AttentionInstance(C1=inst0.C1, C2=inst0.C2, C3=inst0.C3, Y=Y)
        assert loss(inst, W) <= 1e-24

    def test_zero_c3_zero_y(self, rng):
        inst0 = random_instance(rng, 4, 2)
        inst = AttentionInstance(
            C1=inst0.C1, C2=inst0.C2, C3=np.zeros((4, 2)), Y=np.zeros((4, 2))
        )
        assert loss(inst, np.zeros((2, 2))) == 0.0

    def test_loss_nonnegative(self, rng):
        inst = random_instance(rng, 6, 3)
        for _ in range(5):
            assert loss(inst, rng.standard_normal((3, 3))) >= 0.0

    def test_hand_computed_two_by_one(self):
        # L=2, d=1: S = C1 * w * C2.T with scalars, softmax per row, then
        # 0.5 * sum of squared residuals, all checked against a by-hand chain.
        C1 = np.array([[1.0], [2.0]])
        C2 = np.array([[1.0], [-1.0]])
        C3 = np.array([[1.0], [3.0]])
        Y = np.array([[0.5], [0.5]])
        inst = AttentionInstance(C1=C1, C2=C2, C3=C3, Y=Y)
        w = 0.7
        S = np.array([[w, -w], [2 * w, -2 * w]])
        e = np.exp(S)
        f = e / e.sum(axis=1, keepdims=True)
        expected = 0.5 * float(((f @ C3 - Y) ** 2).sum())
        assert abs(loss(inst, np.array([[w]])) - expected) <= 1e-12

    def test_elementwise_decomposition(self, rng):
        inst = random_instance(rng, 6, 3)
        W = rng.standard_normal((3, 3))
        c = residual_c(inst, W)
        total = sum(
            0.5 * c[j, i] ** 2 for j in range(6) for i in range(3)
        )
        assert abs(total - loss(inst, W)) <= 1e-12

    def test_scale_folds_into_weight(self, rng):
        inst = random_instance(rng, 5, 2, scale=0.5)
        W = rng.standard_normal((2, 2))
        beta = 0.37
        direct = forward_f(inst, beta * W)
        scaled_inst = AttentionInstance(
            C1=beta * inst.C1, C2=inst.C2, C3=inst.C3, Y=inst.Y
        )
        assert np.abs(direct - forward_f(scaled_inst, W)).max() <= 1e-12

    def test_residual_zero_gives_zero_q(self, rng):
        inst0 = random_instance(rng, 5, 2)
        W = rng.standard_normal((2, 2))
        Y = forward_f(inst0, W) @ inst0.C3
        inst = AttentionInstance(C1=inst0.C1, C2=inst0.C2, C3=inst0.C3, Y=Y)
        assert np.abs(q_from_c(residual_c(inst, W), inst)).max() <= 1e-14

    def test_zero_c3_residual_and_q(self, rng):
        inst0 = random_instance(rng, 4, 2)
        inst = AttentionInstance(
            C1=inst0.C1, C2=inst0.C2, C3=np.zeros((4, 2)), Y=inst0.Y
        )
        W = rng.standard_normal((2, 2))
        assert np.abs(residual_c(inst, W) + inst0.Y).max() <= 1e-14
        assert np.abs(q_from_c(residual_c(inst, W), inst)).max() == 0.0

    def test_q_matches_brute_force(self, rng):
        inst = random_instance(rng, 4, 2)
        W = rng.standard_normal((2, 2))
        c = forward_f(inst, W) @ inst.C3 - inst.Y
        q = q_from_c(residual_c(inst, W), inst)
        assert np.abs(q - inst.C3 @ c.T).max() <= 1e-14

    def test_q_is_column_major(self, rng):
        # Column j of q is contiguous, which keeps split_p's pass against f.T
        # in memory order.
        inst = random_instance(rng, 6, 3)
        c = rng.standard_normal((6, 3))
        q = q_from_c(c, inst)
        assert q.flags.f_contiguous
        assert np.abs(q - inst.C3 @ c.T).max() <= 1e-14

    def test_forward_output_shape(self, rng):
        inst = random_instance(rng, 5, 3)
        out = forward_output(inst, rng.standard_normal((3, 3)))
        assert out.shape == (5, 3)


class TestComposition:
    def test_identity_key_weight(self, rng):
        g = random_general(rng, 5, 3)
        g = GeneralInstance(
            XQ=g.XQ, XK=g.XK, XV=g.XV,
            WQstar=g.WQstar, WKstar=np.eye(3), WVstar=g.WVstar, Y=g.Y,
        )
        inst = compose_special_constants(g, alpha=2.0, r=1)
        assert np.array_equal(inst.C2, g.XK)

    def test_unit_scale_keeps_queries(self, rng):
        g = random_general(rng, 5, 3)
        inst = compose_special_constants(g, alpha=2.0, r=2)
        assert np.array_equal(inst.C1, g.XQ)

    def test_value_adapter_folds_in(self, rng):
        g = random_general(rng, 4, 3)
        adp_v = LoraAdapter(
            B=rng.standard_normal((3, 1)),
            A=rng.standard_normal((1, 3)),
            r=1,
            alpha=2.0,
        )
        inst = compose_special_constants(g, alpha=1.0, r=1, adapter_v=adp_v)
        WV = g.WVstar + adp_v.scale * adp_v.delta()
        assert np.abs(inst.C3 - g.XV @ WV).max() <= 1e-14

    def test_special_constants_reject_bad_scale(self, rng):
        g = random_general(rng, 4, 2)
        with pytest.raises(ValueError):
            compose_special_constants(g, alpha=1.0, r=0)
        # The error names alpha, not the non-finite C1 it would produce.
        for alpha in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="alpha"):
                compose_special_constants(g, alpha=alpha, r=1)

    def test_zero_query_adapter_general(self, rng):
        g = random_general(rng, 4, 2)
        zero = LoraAdapter(B=np.zeros((2, 1)), A=np.zeros((1, 2)), r=1, alpha=1.0)
        (inst_q, WQ), (inst_k, WKT) = compose_general_constants(g, zero, zero)
        assert np.abs(inst_k.C1 - g.XQ @ g.WQstar).max() <= 1e-14
        assert np.array_equal(inst_k.C2, g.XK)
        assert np.array_equal(inst_q.C1, g.XQ)
        assert np.abs(inst_q.C2 - g.XK @ g.WKstar).max() <= 1e-14
        assert np.array_equal(WQ, g.WQstar)
        assert np.array_equal(WKT, g.WKstar.T)

    def test_sides_share_one_score_matrix(self, rng):
        # Both general paths factor S once per side; off zero adapters and
        # off unit scale (alpha != r) the two sides must still agree on S.
        g = random_general(rng, 6, 3)
        adpQ, adpK = (
            LoraAdapter(
                B=rng.standard_normal((3, 2)),
                A=rng.standard_normal((2, 3)),
                r=2,
                alpha=alpha,
            )
            for alpha in (5.0, 0.5)
        )
        (inst_q, WQ), (inst_k, WKT) = compose_general_constants(g, adpQ, adpK)
        S = general_scores(g, adpQ, adpK)
        assert np.abs(scores(inst_q, WQ) - S).max() <= 1e-12
        assert np.abs(scores(inst_k, WKT) - S).max() <= 1e-12

    def test_zero_adapters_match_special_loss(self, rng):
        # With both adapters zero the two-sided loss equals the special-case
        # loss at W = WQstar evaluated on the composed constants.
        g = random_general(rng, 4, 2)
        zero = LoraAdapter(B=np.zeros((2, 1)), A=np.zeros((1, 2)), r=1, alpha=1.0)
        inst = compose_special_constants(g, alpha=1.0, r=1)
        assert abs(general_loss(g, zero, zero) - loss(inst, g.WQstar)) <= 1e-12

    def test_self_attention_collapse(self, rng):
        X = rng.standard_normal((4, 2))
        g = GeneralInstance(
            XQ=X, XK=X, XV=X,
            WQstar=rng.standard_normal((2, 2)),
            WKstar=np.eye(2), WVstar=np.eye(2),
            Y=rng.standard_normal((4, 2)),
        )
        inst = compose_special_constants(g, alpha=1.0, r=1)
        assert np.array_equal(inst.C1, X)
        assert np.array_equal(inst.C2, X)
        assert np.array_equal(inst.C3, X)
