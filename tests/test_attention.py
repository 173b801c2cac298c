"""Forward pass, loss, residual/score intermediates, and instance composition."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BLOCK_ROWS, dense_q, special_constants
from lora_kernels import instrument
from lora_kernels.attention import (
    BLOCK_ELEMENTS,
    SCORE_LIMIT,
    SHIFT_FREE,
    AttentionInstance,
    GeneralInstance,
    LoraAdapter,
    adapted_weight,
    compose_general_constants,
    forward_f,
    forward_output,
    general_loss,
    loss,
    normalize,
    q_from_c,
    residual_c,
    residual_from_f,
    row_blocks,
    score_matrix,
    score_radius,
    scores,
    softmax_pair,
    softmax_rows,
)
from lora_kernels.errors import (
    DimensionError,
    NonFiniteError,
    ScoreOverflowError,
    SizeGuardError,
)
from lora_kernels.instrument import guard_limit


def random_instance(rng, L, d, scale=1.0):
    return AttentionInstance(
        C1=scale * rng.standard_normal((L, d)),
        C2=scale * rng.standard_normal((L, d)),
        C3=rng.standard_normal((L, d)),
        Y=rng.standard_normal((L, d)),
    )


def unshifted_softmax(S):
    """The pair (E, z) = (exp(S), E's row sums), as softmax_rows holds f."""
    E = np.exp(S)
    return E, E.sum(axis=1)


def shifted_softmax(S):
    E = np.exp(S - S.max(axis=1, keepdims=True))
    return E, E.sum(axis=1)


def max_abs(S):
    """max |S|, the tightest bound softmax_rows can be given."""
    return float(np.abs(S).max())


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


# Each problem type: valid fields at L = 4, d = 2, r = 1, the field that
# fixes the sizes, and another matrix field for the shape and NaN cases.
ROWS = np.full((4, 2), 0.5)
PROBLEM_TYPES = [
    pytest.param(
        AttentionInstance,
        dict(C1=ROWS, C2=ROWS, C3=ROWS, Y=ROWS),
        "C1", "Y", id="AttentionInstance",
    ),
    pytest.param(
        GeneralInstance,
        dict(XQ=ROWS, XK=ROWS, XV=ROWS, Y=ROWS,
             WQstar=np.eye(2), WKstar=np.eye(2), WVstar=np.eye(2)),
        "XQ", "XK", id="GeneralInstance",
    ),
    pytest.param(
        LoraAdapter,
        dict(B=np.ones((2, 1)), A=np.ones((1, 2)), r=1, alpha=1.0),
        "B", "A", id="LoraAdapter",
    ),
]


class TestInstanceTypes:
    @pytest.mark.parametrize("cls, fields, first, other", PROBLEM_TYPES)
    def test_every_matrix_field_is_checked(self, cls, fields, first, other):
        cls(**fields)
        as_lists = cls(**{**fields, other: fields[other].tolist()})
        assert getattr(as_lists, other).dtype == np.float64
        assert np.array_equal(getattr(as_lists, other), fields[other])
        rows, cols = fields[other].shape
        message = (
            rf"^{other} must be of shape \({rows}, {cols}\), "
            rf"got shape \({rows + 1}, {cols}\)"
        )
        with pytest.raises(DimensionError, match=message):
            cls(**{**fields, other: np.ones((rows + 1, cols))})
        nan = fields[other].copy()
        nan[-1, -1] = np.nan
        with pytest.raises(NonFiniteError, match=f"^{other} "):
            cls(**{**fields, other: nan})
        rows, cols = fields[first].shape
        for empty in ((0, cols), (rows, 0)):
            with pytest.raises(DimensionError, match=f"^{first} "):
                cls(**{**fields, first: np.zeros(empty)})

    @pytest.mark.parametrize("L, d", [(0, 2), (4, 0)])
    def test_empty_general_instance_rejected(self, L, d):
        # Consistent empty sizes: general_loss would read 0.0 on them.
        X = np.zeros((L, d))
        W = np.zeros((d, d))
        with pytest.raises(DimensionError, match="^XQ "):
            GeneralInstance(XQ=X, XK=X, XV=X, WQstar=W, WKstar=W, WVstar=W, Y=X)

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
        f = normalize(softmax_rows(S.copy(), max_abs(S)))
        f_shifted = normalize(softmax_rows(S + 100.0, max_abs(S + 100.0)))
        assert np.abs(f - f_shifted).max() <= 1e-12

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
        # E is built in the score buffer itself, which is returned with the
        # row sums, with the arithmetic of the unblocked formula on a copy.
        # The bound is inside SHIFT_FREE, so no row is shifted, and E is left
        # unnormalized: exp and the row sum, 2 per entry.
        S = rng.standard_normal((5, 5))
        want_E, want_z = unshifted_softmax(S)
        with instrument.recording() as tally:
            E, z = softmax_rows(S, max_abs(S))
        assert E is S
        assert np.array_equal(E, want_E) and np.array_equal(z, want_z)
        assert tally.madds == 2 * S.size

    @pytest.mark.parametrize("offset", [SHIFT_FREE + 50.0, -SHIFT_FREE - 50.0, np.nan])
    def test_softmax_shifts_rows_past_the_bound(self, rng, offset):
        # One row max past +-SHIFT_FREE, or NaN, shifts every row by its max,
        # bit for bit the shifted formula, and charges the subtraction.
        S = rng.standard_normal((5, 5))
        S[2] += offset
        want_E, want_z = shifted_softmax(S)
        with instrument.recording() as tally:
            E, z = softmax_rows(S, max_abs(S))
        assert np.array_equal(E, want_E, equal_nan=True)
        assert np.array_equal(z, want_z, equal_nan=True)
        assert tally.madds == 3 * S.size

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
            general_loss(g, adp, adp)
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
        # A negative guard squared would pass as a positive budget.
        for raw in ("many", "-5"):
            monkeypatch.setenv("LORA_KERNELS_GUARD_L", raw)
            with pytest.raises(ValueError):
                guard_limit()


class TestRowBlocks:
    # blocked_L runs every L x L pass in blocks of BLOCK_ROWS rows.

    def test_blocks_cover_the_rows_in_order(self, blocked_L):
        blocks = row_blocks(blocked_L, blocked_L)
        rows = [i for blk in blocks for i in range(blocked_L)[blk]]
        assert rows == list(range(blocked_L))
        assert all(blk.stop - blk.start == BLOCK_ROWS for blk in blocks)

    def test_scores_match_one_product(self, rng, blocked_L):
        inst = random_instance(rng, blocked_L, 3)
        W = rng.standard_normal((3, 3))
        want = (inst.C1 @ W) @ inst.C2.T
        S, bound = scores(inst, W)
        assert np.abs(S - want).max() <= 1e-15 * np.abs(want).max()
        assert bound >= max_abs(S)

    def test_thin_products_match_one_product(self, rng, blocked_L):
        # f @ C3 runs as one product per row block. A block and the whole
        # product may round differently (BLAS picks its kernel by shape), so
        # each side is within L ulps of the exact dot product, and the
        # residual's subtraction adds one more.
        L, d = blocked_L, 3
        inst = random_instance(rng, L, d)
        W = rng.standard_normal((d, d))
        f = forward_f(inst, W)
        scale = np.abs(f) @ np.abs(inst.C3) + np.abs(inst.Y)
        rounding = 2 * (L + 1) * np.finfo(float).eps * scale
        assert np.all(np.abs(forward_output(inst, W) - f @ inst.C3) <= rounding)
        c = residual_from_f(softmax_pair(inst, W), inst)
        assert np.all(np.abs(c - (f @ inst.C3 - inst.Y)) <= rounding)

    def test_softmax_matches_unblocked_formula(self, rng, blocked_L):
        S = 3.0 * rng.standard_normal((blocked_L, blocked_L))
        want_E, want_z = unshifted_softmax(S)
        with instrument.recording() as tally:
            E, z = softmax_rows(S, max_abs(S))
        assert np.array_equal(E, want_E) and np.array_equal(z, want_z)
        assert tally.madds == 2 * S.size

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_only_the_block_past_the_bound_is_shifted(self, rng, blocked_L, sign):
        # The last row's max lies past the bound, so its block is shifted,
        # and charged for it, while every other block is not.
        S = 3.0 * rng.standard_normal((blocked_L, blocked_L))
        S[-1] += sign * (SHIFT_FREE + 50.0)
        *inside, last = row_blocks(*S.shape)
        want = [unshifted_softmax(S[blk]) for blk in inside]
        want.append(shifted_softmax(S[last]))
        with instrument.recording() as tally:
            E, z = softmax_rows(S, max_abs(S))
        assert np.array_equal(E, np.vstack([E_blk for E_blk, _ in want]))
        assert np.array_equal(z, np.concatenate([z_blk for _, z_blk in want]))
        assert tally.madds == 2 * S.size + S[last].size

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_in_the_last_block_only(self, blocked_L, sign):
        # Only the last score row passes the limit, so a check that stops
        # short of the last block misses it; the error reports the true max.
        L = blocked_L
        C1 = np.zeros((L, 1))
        C1[-1] = 30.0
        inst = AttentionInstance(
            C1=C1,
            C2=sign * np.linspace(31.0, 25.0, L)[:, None],
            C3=np.zeros((L, 1)),
            Y=np.zeros((L, 1)),
        )
        with pytest.raises(ScoreOverflowError) as info:
            scores(inst, np.ones((1, 1)))
        assert info.value.max_abs_score == 930.0

    def test_nan_score_is_refused(self):
        # Finite inputs whose score is inf * 0: the NaN score fails the
        # range check instead of passing it.
        inst = AttentionInstance(
            C1=np.array([[1e300]]),
            C2=np.array([[0.0]]),
            C3=np.zeros((1, 1)),
            Y=np.zeros((1, 1)),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ScoreOverflowError) as info:
                scores(inst, np.array([[1e10]]))
        assert math.isnan(info.value.max_abs_score)


def tight_rows(rng, L, d, radius):
    """Row pairs whose Cauchy-Schwarz radius is radius and is attained.

    The longest right row is turned parallel to the longest left row, so
    one score equals max ||left_i|| * max ||right_j|| and the bound has no
    slack there but the rounding margin.
    """
    left, right = rng.standard_normal((L, d)), rng.standard_normal((L, d))
    i = np.linalg.norm(left, axis=1).argmax()
    j = np.linalg.norm(right, axis=1).argmax()
    right[j] = left[i] * (np.linalg.norm(right[j]) / np.linalg.norm(left[i]))
    scale = radius / (np.linalg.norm(left[i]) * np.linalg.norm(right[j]))
    return left * math.sqrt(scale), right * math.sqrt(scale)


class TestScoreBound:
    @given(
        st.integers(1, 12),
        st.integers(1, 6),
        st.integers(0, 2**31 - 1),
        st.one_of(
            st.floats(1e-3, 1.0),
            st.floats(0.999 * SHIFT_FREE, 1.001 * SHIFT_FREE),
        ),
    )
    def test_reported_bound_covers_every_score(self, L, d, seed, radius):
        # Small radii catch a bound that skips the square root (R^2 < R);
        # radii near SHIFT_FREE cross between the certified and measured
        # branches with one score at the radius itself.
        left, right = tight_rows(np.random.default_rng(seed), L, d, radius)
        S, bound = score_matrix(left, right)
        assert bound >= max_abs(S)

    def test_radius_inside_shift_free_is_reported(self):
        # R = ||(3, 4)|| * ||(1, 0)|| = 5 while the one score is 3, so the
        # bound is the radius, not a measurement, and S is still written.
        left, right = np.array([[3.0, 4.0]]), np.array([[1.0, 0.0]])
        S, bound = score_matrix(left, right)
        assert bound == score_radius(left, right) == pytest.approx(5.0, rel=1e-14)
        assert np.array_equal(S, [[3.0]])

    def test_entry_maxima_do_not_bound_the_scores(self):
        # max |left| * max |right| = 1 here, but the score is 2.
        left = right = np.array([[1.0, 1.0]])
        S, bound = score_matrix(left, right)
        assert S[0, 0] == 2.0 and bound >= 2.0

    def test_orthogonal_rows_past_the_product_are_measured(self):
        # The norms multiply to about 900, past SCORE_LIMIT, but each query
        # row is nearly orthogonal to each key row, so the scores are small:
        # they are accepted, the bound is their measured max, and f is the
        # unshifted formula bit for bit.
        C1 = np.array([[30.0, 0.01], [-30.0, 0.02], [29.0, -0.01]])
        C2 = np.array([[0.01, 30.0], [-0.02, 29.0], [0.0, -30.0]])
        inst = AttentionInstance(C1=C1, C2=C2, C3=np.ones((3, 2)), Y=np.zeros((3, 2)))
        assert score_radius(C1, C2) > SCORE_LIMIT
        S, bound = scores(inst, np.eye(2))
        assert bound == max_abs(S) < 2.0
        E, z = unshifted_softmax(S)
        assert np.array_equal(forward_f(inst, np.eye(2)), E * (1.0 / z[:, None]))

    def test_nan_radius_falls_to_the_measurement(self):
        # ||1e200 row||^2 overflows, and inf * 0 against all-zero keys is a
        # NaN radius. It fails R <= SHIFT_FREE, so the scores, all zero, are
        # measured; no warning escapes.
        left, right = np.array([[1e200, 0.0]]), np.zeros((2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(score_radius(left, right))
            S, bound = score_matrix(left, right)
        assert bound == 0.0 and np.array_equal(S, np.zeros((1, 2)))


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
        assert np.abs(dense_q(q_from_c(residual_c(inst, W), inst))).max() <= 1e-14

    def test_zero_c3_residual_and_q(self, rng):
        inst0 = random_instance(rng, 4, 2)
        inst = AttentionInstance(
            C1=inst0.C1, C2=inst0.C2, C3=np.zeros((4, 2)), Y=inst0.Y
        )
        W = rng.standard_normal((2, 2))
        assert np.abs(residual_c(inst, W) + inst0.Y).max() <= 1e-14
        assert np.abs(dense_q(q_from_c(residual_c(inst, W), inst))).max() == 0.0

    def test_q_matches_brute_force(self, rng):
        inst = random_instance(rng, 4, 2)
        W = rng.standard_normal((2, 2))
        c = forward_f(inst, W) @ inst.C3 - inst.Y
        q = dense_q(q_from_c(residual_c(inst, W), inst))
        assert np.abs(q - inst.C3 @ c.T).max() <= 1e-14

    def test_q_from_c_allocates_nothing(self, rng):
        # q is held as its rank-d pair; a dense q at L = 1024 would be 8 MiB.
        L = 1024
        inst = random_instance(rng, L, 3)
        c = rng.standard_normal((L, 3))
        tracemalloc.start()
        try:
            with instrument.recording() as tally:
                C3, c_held = q_from_c(c, inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert C3 is inst.C3 and c_held is c
        assert tally.max_alloc == 0
        assert peak < BLOCK_ELEMENTS * 8

    def test_forward_output_shape(self, rng):
        inst = random_instance(rng, 5, 3)
        out = forward_output(inst, rng.standard_normal((3, 3)))
        assert out.shape == (5, 3)


class TestComposition:
    def test_zero_query_adapter_general(self, rng):
        g = random_general(rng, 4, 2)
        zero = LoraAdapter(B=np.zeros((2, 1)), A=np.zeros((1, 2)), r=1, alpha=1.0)
        inst, WQ, WK = compose_general_constants(g, zero, zero)
        assert np.array_equal(inst.C1, g.XQ)
        assert np.array_equal(inst.C2, g.XK)
        assert np.abs(inst.C3 - g.XV @ g.WVstar).max() <= 1e-14
        assert np.array_equal(inst.Y, g.Y)
        assert np.array_equal(WQ, g.WQstar)
        assert np.array_equal(WK, g.WKstar)

    def test_sides_share_one_score_matrix(self, rng):
        # Every two-sided path starts from the composed instance at
        # W = WQ @ WK.T; off zero adapters and off unit scale (alpha != r) its
        # scores must be the two-sided S = (XQ @ WQ) @ (XK @ WK).T.
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
        inst, WQ, WK = compose_general_constants(g, adpQ, adpK)
        assert np.abs(WQ - (g.WQstar + 2.5 * adpQ.B @ adpQ.A)).max() <= 1e-14
        assert np.abs(WK - (g.WKstar + 0.25 * adpK.B @ adpK.A)).max() <= 1e-14
        S = (g.XQ @ WQ) @ (g.XK @ WK).T
        assert np.abs(scores(inst, WQ @ WK.T)[0] - S).max() <= 1e-12

    def test_zero_adapters_match_special_loss(self, rng):
        # With both adapters zero the two-sided loss equals the special-case
        # loss at W = WQstar evaluated on the composed constants.
        g = random_general(rng, 4, 2)
        zero = LoraAdapter(B=np.zeros((2, 1)), A=np.zeros((1, 2)), r=1, alpha=1.0)
        inst = special_constants(g, alpha=1.0, r=1)
        assert abs(general_loss(g, zero, zero) - loss(inst, g.WQstar)) <= 1e-12
