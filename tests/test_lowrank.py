"""Factored gradient chain: f/q/p factors, polynomial and SVD backends."""

import dataclasses
import itertools
import json
import math
import platform
import statistics
import tracemalloc

import numpy as np
import pytest

from conftest import BLOCK_ROWS, dense_q, fresh_python, special_constants
from lora_kernels import attention, instrument, lowrank
from lora_kernels.attention import (
    AttentionInstance,
    GeneralInstance,
    LoraAdapter,
    adapted_weight,
    compose_general_constants,
    forward_f,
    general_loss,
    q_from_c,
    residual_c,
    softmax_dots,
)
from lora_kernels.errors import (
    ApproxBreakdownError,
    DimensionError,
    NonFiniteError,
    NormBoundError,
    RankInfeasibleError,
    SizeGuardError,
)
from lora_kernels.exact import grad_adapters_general, grad_adapters_special
from lora_kernels.lowrank import (
    KeySums,
    KhatriRaoFactor,
    LowRankFactor,
    PolyApproxConfig,
    approx_f_poly,
    approx_grad_general,
    approx_grad_special,
    approx_p1,
    approx_p2,
    approx_q,
    feature_map,
    grad_from_f_factor,
    monomial_count,
    select_degree,
)
from lora_kernels.harness import gen_instance
from lora_kernels.oracle import approx_f_svd, dense_p_oracle


class TestConfigAndDegree:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PolyApproxConfig(gamma=0.0, degree=None, eps_target=1e-3)
        with pytest.raises(ValueError):
            PolyApproxConfig(gamma=0.5, degree=-1, eps_target=1e-3)
        with pytest.raises(ValueError):
            PolyApproxConfig(gamma=0.5, degree=None, eps_target=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, bad):
        # NaN slips past a plain <= 0 check: with a pinned degree it would
        # switch off the norm check, with an adaptive one the degree search
        # would run to its ceiling.
        for degree in (None, 3):
            with pytest.raises(ValueError, match="finite"):
                PolyApproxConfig(gamma=bad, degree=degree, eps_target=1e-3)
            with pytest.raises(ValueError, match="finite"):
                PolyApproxConfig(gamma=0.5, degree=degree, eps_target=bad)

    @pytest.mark.parametrize("bad", [2.5, 3.0, math.nan, math.inf, "3", True, False])
    def test_config_rejects_non_integer_degree(self, bad):
        # 2.5 and NaN pass a plain < 0 check and only fail later, untyped,
        # inside math.comb; a bool is a numbers.Integral that feature_map's
        # buffer shape refuses.
        with pytest.raises(ValueError, match="degree"):
            PolyApproxConfig(gamma=0.5, degree=bad, eps_target=1e-3)

    def test_config_accepts_numpy_integer_degree(self):
        cfg = PolyApproxConfig(gamma=0.5, degree=np.int64(3), eps_target=1e-3)
        inst, adp, Wstar = gen_instance(0, 8, 2, 1, 0.5)
        f_lr = approx_f_poly(inst, adapted_weight(Wstar, adp), cfg)
        assert f_lr.k == monomial_count(2, 3)

    def test_monomial_counts(self):
        assert monomial_count(2, 2) == 6
        assert monomial_count(3, 3) == 20
        assert monomial_count(4, 3) == 35
        assert monomial_count(3, 6) == 84
        assert monomial_count(5, 0) == 1

    def test_vanishing_score_bound_needs_degree_zero(self):
        # gamma small enough that d * gamma^2 underflows to exactly zero.
        cfg = PolyApproxConfig(gamma=1e-200, degree=None, eps_target=1e-3)
        assert select_degree(cfg, 4) == 0

    def test_tiny_gamma_degree_zero(self):
        cfg = PolyApproxConfig(gamma=1e-8, degree=None, eps_target=1e-3)
        assert select_degree(cfg, 4) == 0

    def test_degree_table(self):
        # Frozen outputs of the remainder rule at eps_target = 1e-3.
        for gamma, d, want in (
            (0.25, 4, 3),
            (0.5, 4, 7),
            (1.0, 4, 20),
            (2.0, 4, 71),
            (4.0, 4, 278),
            (0.5, 3, 6),
        ):
            cfg = PolyApproxConfig(gamma=gamma, degree=None, eps_target=1e-3)
            assert select_degree(cfg, d) == want

    def test_remainder_inequality_holds_at_returned_degree(self):
        cfg = PolyApproxConfig(gamma=0.5, degree=None, eps_target=1e-4)
        g = select_degree(cfg, 4)
        R = 4 * 0.5 * 0.5
        target = 1e-4 * math.exp(-R)
        at_g = R ** (g + 1) * math.exp(R) / math.factorial(g + 1)
        below_g = R**g * math.exp(R) / math.factorial(g)
        assert at_g <= target
        assert below_g > target

    def test_degree_search_ceiling_is_a_typed_error(self):
        # d * gamma^2 = 6400 needs a degree past the search ceiling; the
        # refusal names the ceiling and its rank instead of a bare
        # RuntimeError.
        cfg = PolyApproxConfig(gamma=40.0, degree=None, eps_target=1e-3)
        with pytest.raises(RankInfeasibleError, match="search ceiling") as info:
            select_degree(cfg, 4)
        assert info.value.degree == 10_000
        assert info.value.rank == monomial_count(4, 10_000)
        assert info.value.limit is None

    def test_rank_ceiling_raises(self):
        inst, adp, Wstar = gen_instance(2, 8, 4, 1, 0.5)
        cfg = PolyApproxConfig(gamma=0.5, degree=None, eps_target=1e-3)
        with pytest.raises(RankInfeasibleError) as info:
            approx_f_poly(inst, adapted_weight(Wstar, adp), cfg, max_rank=64)
        assert info.value.degree == 7
        assert info.value.rank == 330
        assert info.value.limit == 64

    def test_rank_ceiling_permits_feasible(self):
        inst, adp, Wstar = gen_instance(2, 8, 4, 1, 0.25)
        cfg = PolyApproxConfig(gamma=0.25, degree=None, eps_target=1e-3)
        f_lr = approx_f_poly(inst, adapted_weight(Wstar, adp), cfg, max_rank=64)
        assert f_lr.k == monomial_count(4, 3) == 35


def phi(X, g):
    """feature_map of X into a fresh k1 x L buffer."""
    L, d = X.shape
    return feature_map(X, g, np.empty((monomial_count(d, g), L)))


class TestFeatureMap:
    def test_column_count(self, rng):
        X = rng.standard_normal((5, 3))
        assert phi(X, 3).shape == (5, monomial_count(3, 3))

    def test_degree_zero_is_ones(self, rng):
        X = rng.standard_normal((4, 2))
        assert np.array_equal(phi(X, 0), np.ones((4, 1)))

    def test_truncated_kernel_identity(self, rng):
        # Inner products of feature rows must equal the degree-truncated
        # exp series of the raw inner product.
        x = rng.uniform(-1.0, 1.0, (5, 3))
        y = rng.uniform(-1.0, 1.0, (6, 3))
        g = 4
        K = phi(x, g) @ phi(y, g).T
        ref = sum(
            np.power(x @ y.T, t) / math.factorial(t) for t in range(g + 1)
        )
        assert np.abs(K - ref).max() <= 1e-12

    def test_columns_are_scaled_monomials(self, rng):
        # Each column must be X^beta / sqrt(beta!) for its own exponent
        # vector beta; columns are matched by exponent, not by position.
        X = rng.standard_normal((40, 3))
        g = 5
        Phi = phi(X, g)
        Xl = X.astype(np.longdouble)
        betas = [b for b in itertools.product(range(g + 1), repeat=3) if sum(b) <= g]
        want = np.stack(
            [
                np.prod(Xl ** np.array(b), axis=1)
                / np.sqrt(np.longdouble(math.prod(math.factorial(e) for e in b)))
                for b in betas
            ],
            axis=1,
        )
        assert Phi.shape == want.shape == (40, monomial_count(3, g))
        rel = np.abs(Phi[:, :, None] - want[:, None, :]) / np.abs(want[:, None, :])
        worst = rel.max(axis=0)
        match = worst.argmin(axis=1)
        assert sorted(match) == list(range(len(betas)))
        assert float(worst.min(axis=1).max()) <= 1e-15


class TestFactorContainer:
    def test_shape_consistency(self):
        with pytest.raises(DimensionError):
            LowRankFactor(U=np.zeros((4, 2)), V=np.zeros((4, 3)))

    def test_rank_may_exceed_rows(self):
        # Full-rank and hand-built factors may have more columns than rows.
        lr = LowRankFactor(U=np.zeros((3, 7)), V=np.zeros((3, 7)))
        assert lr.k == 7
        assert lr.L == 3


class TestKeySums:
    def key_sums(self, rng, L, d, g):
        C2, C3 = 0.5 * rng.standard_normal((2, L, d))
        V = phi(C2, g)
        ext = np.hstack([C3, np.ones((L, 1))])
        return KeySums(V.T @ ext, C2, C3, g), V, ext

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("g", [0, 1, 2, 3, 5])
    def test_rows_below_top_are_the_whole_key_sums(self, rng, d, g):
        # Every column below the top degree, and no other, is read off K;
        # its rows must be those of the whole Khatri-Rao product
        # Z = V.T (C2 ck [C3 | 1]) over L.
        keys, V, ext = self.key_sums(rng, 30, d, g)
        want = np.einsum("ls,la,lt->sat", V, keys.C2, ext).reshape(V.shape[1], -1)
        got = keys.rows_below_top()
        low = monomial_count(d, g - 1) if g else 0
        assert got.shape == (low, d * (d + 1))
        err = np.abs(got - want[:low]).max(initial=0.0)
        assert err <= 1e-13 * np.abs(want).max()

    def test_poly_factor_carries_its_key_sums(self):
        inst, adp, Wstar = gen_instance(5, 40, 3, 2, 0.5)
        cfg = PolyApproxConfig(gamma=0.5, degree=3, eps_target=1e-3)
        f_lr = approx_f_poly(inst, adapted_weight(Wstar, adp), cfg)
        keys = f_lr.keys_for(inst)
        assert keys.C2 is inst.C2 and keys.C3 is inst.C3 and keys.degree == 3
        want = f_lr.V.T @ np.hstack([inst.C3, np.ones((inst.L, 1))])
        assert np.abs(keys.K - want).max() <= 1e-13 * np.abs(want).max()

    def poly_case(self, seed):
        inst, adp, Wstar = gen_instance(seed, 300, 4, 2, 0.5)
        cfg = PolyApproxConfig(gamma=0.5, degree=4, eps_target=1e-3)
        f_lr = approx_f_poly(inst, adapted_weight(Wstar, adp), cfg)
        return inst, f_lr, LowRankFactor(U=f_lr.U, V=f_lr.V)

    def test_keyed_gradient_matches_the_generic_path(self):
        # The same U and V without key sums take M and every row of Z from
        # products over L. The keyed path skips V.T @ C3 and the rows below
        # the top degree of Z, and reads those rows off K instead.
        inst, f_lr, generic = self.poly_case(7)
        L, d = inst.C1.shape
        with instrument.recording() as keyed_tally:
            keyed = lowrank._grad_W(f_lr, inst)
        with instrument.recording() as generic_tally:
            want = lowrank._grad_W(generic, inst)
        assert np.abs(keyed - want).max() <= 1e-13 * np.abs(want).max()
        low = monomial_count(d, f_lr.keys.degree - 1)
        saved = L * f_lr.k * d + low * (L - 1) * d * (d + 1)
        assert generic_tally.madds - keyed_tally.madds == saved

    @pytest.mark.parametrize("field", ["C2", "C3"])
    def test_key_sums_of_another_instance_are_never_used(self, field):
        # Key sums meet another instance's C2 or C3, equal in value or not:
        # the chain must be the generic one, bit for bit.
        inst, f_lr, generic = self.poly_case(9)
        old = getattr(inst, field)
        for new in (old.copy(), 0.5 * old[::-1]):
            other = dataclasses.replace(inst, **{field: new})
            assert f_lr.keys_for(other) is None
            assert np.array_equal(approx_q(f_lr, other)[1], approx_q(generic, other)[1])
            got = lowrank._grad_W(f_lr, other)
            assert np.array_equal(got, lowrank._grad_W(generic, other))


class TestPolyBackend:
    def test_zero_weight_uniform(self):
        inst, adp, Wstar = gen_instance(5, 8, 3, 1, 0.5)
        cfg = PolyApproxConfig(gamma=0.5, degree=2, eps_target=1e-3)
        f_lr = approx_f_poly(inst, np.zeros((3, 3)), cfg)
        assert np.abs(f_lr.dense() - 1.0 / 8).max() <= 1e-14

    def test_rank_law(self):
        inst, adp, Wstar = gen_instance(5, 8, 3, 1, 0.5)
        W = adapted_weight(Wstar, adp)
        cfg = PolyApproxConfig(gamma=0.5, degree=3, eps_target=1e-3)
        f_lr = approx_f_poly(inst, W, cfg)
        assert f_lr.k == monomial_count(3, 3) == 20

    def test_entrywise_error_within_target(self):
        inst, adp, Wstar = gen_instance(7, 16, 3, 2, 0.3)
        W = adapted_weight(Wstar, adp)
        cfg = PolyApproxConfig(gamma=0.3, degree=None, eps_target=1e-3)
        f_lr = approx_f_poly(inst, W, cfg)
        assert np.abs(f_lr.dense() - forward_f(inst, W)).max() <= 1e-3

    def test_norm_precondition_checked(self):
        inst, adp, Wstar = gen_instance(2, 8, 3, 1, 1.0)
        W = adapted_weight(Wstar, adp)
        cfg = PolyApproxConfig(gamma=0.5, degree=2, eps_target=1e-3)
        with pytest.raises(NormBoundError) as info:
            approx_f_poly(inst, W, cfg)
        assert info.value.bound == 0.5
        assert info.value.measured > 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, bad):
        # As in scores on the exact path. NaN fails every comparison, so
        # the norm check alone would let a NaN weight through.
        inst, adp, Wstar = gen_instance(2, 8, 3, 1, 0.5)
        W = adapted_weight(Wstar, adp)
        W[1, 2] = bad
        cfg = PolyApproxConfig(gamma=0.5, degree=2, eps_target=1e-3)
        with pytest.raises(NonFiniteError):
            approx_f_poly(inst, W, cfg)

    def test_negative_normalizer_breaks_down(self):
        # Degree-1 truncation of exp at inner product -2 is negative, so the
        # row normalizer goes negative and the backend must refuse.
        inst = AttentionInstance(
            C1=np.array([[1.0, 0.0], [1.0, 0.0]]),
            C2=np.array([[-1.0, 0.0], [-1.0, 0.0]]),
            C3=np.zeros((2, 2)),
            Y=np.zeros((2, 2)),
        )
        cfg = PolyApproxConfig(gamma=2.0, degree=1, eps_target=1e-3)
        with pytest.raises(ApproxBreakdownError):
            approx_f_poly(inst, 2.0 * np.eye(2), cfg)

    @pytest.mark.parametrize("gamma, degree", [(1e60, 6), (1e40, 8)])
    def test_overflowing_feature_map_breaks_down(self, gamma, degree):
        # The pure-power column x^g / sqrt(g!) of the largest entry is past
        # float64's range, so the feature maps would overflow to inf and the
        # normalizers be inf or NaN. The path refuses before building a map:
        # nothing is allocated, and no overflow warning (an error under
        # this suite's filter) is raised.
        inst, adp, Wstar = gen_instance(1, 16, 2, 1, gamma)
        cfg = PolyApproxConfig(gamma=gamma, degree=degree, eps_target=1e-3)
        with instrument.recording() as tally:
            with pytest.raises(ApproxBreakdownError, match="non-finite"):
                approx_grad_special(inst, Wstar, adp, cfg)
        assert tally.max_alloc == 0

    def test_holds_two_feature_buffers(self):
        # U1 is Phi1 normalized in place, so the factor's two halves are the
        # only L x k1 buffers alive; their transposes are row-major, the
        # layout the L-deep products read in memory order.
        L, d, g = 2048, 4, 3
        inst, adp, Wstar = gen_instance(0, L, d, 2, 0.25)
        W = adapted_weight(Wstar, adp)
        cfg = PolyApproxConfig(gamma=0.25, degree=g, eps_target=1e-3)
        tracemalloc.start()
        try:
            f_lr = approx_f_poly(inst, W, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * L * monomial_count(d, g) * 8
        assert f_lr.U.T.flags.c_contiguous and f_lr.V.T.flags.c_contiguous

    def test_feature_buffers_are_one_allocation(self):
        inst, adp, Wstar = gen_instance(0, 64, 3, 2, 0.25)
        cfg = PolyApproxConfig(gamma=0.25, degree=2, eps_target=1e-3)
        f_lr = approx_f_poly(inst, adapted_weight(Wstar, adp), cfg)
        assert f_lr.U.base is not None and f_lr.U.base is f_lr.V.base
        assert not np.shares_memory(f_lr.U, f_lr.V)

    def test_oversize_feature_map_refused_before_allocating(self, monkeypatch):
        # d = 8 at gamma = 0.5 needs degree 11, k1 = C(19, 11) = 75,582: a
        # 75,582 x 8,192 feature map of 4.6 GiB, past the default guard.
        monkeypatch.delenv(instrument.GUARD_ENV_VAR, raising=False)
        L, d = 8192, 8
        inst, adp, Wstar = gen_instance(4, L, d, 2, 0.5)
        cfg = PolyApproxConfig(gamma=0.5, degree=None, eps_target=1e-3)
        assert monomial_count(d, select_degree(cfg, d)) == 75_582
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError, match="75582 x 8192"):
                approx_grad_special(inst, Wstar, adp, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_explicit_rank_ceiling(self):
        inst, adp, Wstar = gen_instance(2, 8, 3, 1, 0.5)
        W = adapted_weight(Wstar, adp)
        cfg = PolyApproxConfig(gamma=0.5, degree=3, eps_target=1e-3)
        with pytest.raises(RankInfeasibleError):
            approx_f_poly(inst, W, cfg, max_rank=8)

    @pytest.mark.parametrize("max_rank", [math.nan, 2.5, True, 0])
    def test_rank_ceiling_must_be_an_integer_at_least_one(self, max_rank):
        # NaN once read as "no cap" and 2.5 as a cap; both are refused
        # before any product of the degree search runs.
        inst, adp, Wstar = gen_instance(2, 8, 3, 1, 0.5)
        cfg = PolyApproxConfig(gamma=0.5, degree=None, eps_target=1e-3)
        with instrument.recording() as tally:
            with pytest.raises(ValueError, match="max_rank"):
                approx_f_poly(inst, adapted_weight(Wstar, adp), cfg, max_rank=max_rank)
        assert tally.madds == 0


class TestSvdBackend:
    def test_full_rank_reconstruction(self):
        inst, adp, Wstar = gen_instance(11, 12, 3, 2, 1.0)
        W = adapted_weight(Wstar, adp)
        f_lr = approx_f_svd(inst, W, 12)
        assert np.abs(f_lr.dense() - forward_f(inst, W)).max() <= 1e-10

    def test_rank_one_uniform_is_exact(self):
        inst, adp, Wstar = gen_instance(3, 8, 2, 1, 0.5)
        f_lr = approx_f_svd(inst, np.zeros((2, 2)), 1)
        assert np.abs(f_lr.dense() - 1.0 / 8).max() <= 1e-12

    def test_error_monotone_in_rank(self):
        # Truncated SVD is optimal in Frobenius norm, so the Frobenius
        # error is non-increasing in rank. Entrywise max error is not
        # guaranteed monotone and does fluctuate on this instance.
        inst, adp, Wstar = gen_instance(11, 16, 3, 2, 1.0)
        W = adapted_weight(Wstar, adp)
        f = forward_f(inst, W)
        errs = [
            np.linalg.norm(approx_f_svd(inst, W, k).dense() - f)
            for k in range(1, 17)
        ]
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-10

    def test_rank_bounds_checked(self):
        inst, adp, Wstar = gen_instance(3, 8, 2, 1, 0.5)
        with pytest.raises(DimensionError):
            approx_f_svd(inst, np.zeros((2, 2)), 0)
        with pytest.raises(DimensionError):
            approx_f_svd(inst, np.zeros((2, 2)), 9)


class TestFactoredChain:
    def exact_factor(self, inst, W):
        return approx_f_svd(inst, W, inst.L)

    def test_residual_exact_with_full_rank(self):
        inst, adp, Wstar = gen_instance(13, 10, 3, 1, 1.0)
        W = adapted_weight(Wstar, adp)
        _, res = approx_q(self.exact_factor(inst, W), inst)
        assert np.abs(res - residual_c(inst, W)).max() <= 1e-10

    def test_approx_q_rejects_a_factor_of_another_L(self):
        inst8, adp, Wstar = gen_instance(13, 8, 3, 1, 1.0)
        f_lr = self.exact_factor(inst8, adapted_weight(Wstar, adp))
        inst6, _, _ = gen_instance(13, 6, 3, 1, 1.0)
        with pytest.raises(DimensionError, match="factor and instance disagree on L"):
            approx_q(f_lr, inst6)

    def test_residual_zero_when_target_matches(self):
        inst0, adp, Wstar = gen_instance(13, 10, 3, 1, 1.0)
        W = adapted_weight(Wstar, adp)
        Y = forward_f(inst0, W) @ inst0.C3
        inst = AttentionInstance(C1=inst0.C1, C2=inst0.C2, C3=inst0.C3, Y=Y)
        _, res = approx_q(self.exact_factor(inst, W), inst)
        assert np.abs(res).max() <= 1e-12

    def test_residual_error_bound(self):
        inst, adp, Wstar = gen_instance(13, 12, 3, 2, 1.0)
        W = adapted_weight(Wstar, adp)
        f = forward_f(inst, W)
        f_lr = approx_f_svd(inst, W, 4)
        _, res = approx_q(f_lr, inst)
        lhs = np.abs(res - residual_c(inst, W)).max()
        rhs = inst.d * np.abs(inst.C3).max() * np.abs(f_lr.dense() - f).max()
        assert lhs <= rhs

    def test_q_rank_law(self):
        # q = C3 @ c.T has rank d: its pair is C3 against the residual c.
        inst, adp, Wstar = gen_instance(13, 10, 3, 1, 1.0)
        W = adapted_weight(Wstar, adp)
        f_lr = self.exact_factor(inst, W)
        C3_q, c = approx_q(f_lr, inst)
        assert C3_q.shape[1] == c.shape[1] == inst.d == 3
        assert np.array_equal(C3_q, inst.C3)

    def test_q_exact_with_full_rank(self):
        inst, adp, Wstar = gen_instance(13, 10, 3, 1, 1.0)
        W = adapted_weight(Wstar, adp)
        q = approx_q(self.exact_factor(inst, W), inst)
        C3, c = q_from_c(residual_c(inst, W), inst)
        assert np.abs(dense_q(q) - C3 @ c.T).max() <= 1e-10

    def test_q_error_bound(self):
        inst, adp, Wstar = gen_instance(13, 12, 3, 2, 1.0)
        W = adapted_weight(Wstar, adp)
        f_lr = approx_f_svd(inst, W, 4)
        q = approx_q(f_lr, inst)
        c_err = np.abs(q[1] - residual_c(inst, W)).max()
        C3, c = q_from_c(residual_c(inst, W), inst)
        lhs = np.abs(dense_q(q) - C3 @ c.T).max()
        assert lhs <= inst.d * np.abs(inst.C3).max() * c_err

    def test_p_factors_match_dense_split(self):
        inst, adp, Wstar = gen_instance(17, 6, 2, 1, 1.0)
        W = adapted_weight(Wstar, adp)
        f_lr = self.exact_factor(inst, W)
        q = approx_q(f_lr, inst)
        pm = dense_p_oracle(inst, W)
        r = softmax_dots(q[1], inst.Y)
        assert np.abs(approx_p1(f_lr, q).dense() - pm.p1).max() <= 1e-10
        assert np.abs(approx_p2(f_lr, r).dense() - pm.p2).max() <= 1e-10

    def test_softmax_dots_match_row_einsum(self):
        # r_j = <f_j, q_j> is read off the residual for the dense f and for
        # the f of each factored chain, whose own q it pairs with.
        inst, adp, Wstar = gen_instance(31, 24, 3, 2, 0.5)
        W = adapted_weight(Wstar, adp)
        cfg = PolyApproxConfig(gamma=0.5, degree=4, eps_target=1e-3)
        # The exact path's c is row-major and approx_q's is the transpose of
        # a d x L buffer; r must be right in either layout.
        f = forward_f(inst, W)
        c = residual_c(inst, W)
        assert c.flags.c_contiguous
        chains = [(f, c)]
        for f_lr in (approx_f_svd(inst, W, 7), approx_f_poly(inst, W, cfg)):
            c = approx_q(f_lr, inst)[1]
            assert c.T.flags.c_contiguous
            chains.append((f_lr.dense(), c))
        for f, c in chains:
            want = np.einsum("lj,lj->j", f.T, inst.C3 @ c.T)
            for layout in (np.ascontiguousarray(c), np.ascontiguousarray(c.T).T):
                assert np.abs(softmax_dots(layout, inst.Y) - want).max() <= 1e-12

    def test_sandwich_matches_dense(self):
        # Both factor kinds must contract to C1.T @ dense().T @ C2, for the
        # SVD-factor and the poly-factor chains.
        inst, adp, Wstar = gen_instance(31, 24, 3, 2, 0.5)
        W = adapted_weight(Wstar, adp)
        cfg = PolyApproxConfig(gamma=0.5, degree=4, eps_target=1e-3)
        for f_lr in (approx_f_svd(inst, W, 7), approx_f_poly(inst, W, cfg)):
            q = approx_q(f_lr, inst)
            p1_lr = approx_p1(f_lr, q)
            assert isinstance(p1_lr, KhatriRaoFactor)
            p2_lr = approx_p2(f_lr, softmax_dots(q[1], inst.Y))
            for lr in (p1_lr, p2_lr):
                want = inst.C1.T @ lr.dense().T @ inst.C2
                got = lr.sandwich(inst.C1, inst.C2)
                assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("L", (1, BLOCK_ROWS - 1, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5))
    def test_sandwich_row_blocks_match_dense(self, rng, monkeypatch, L):
        # The sandwich walks blocks of BLOCK_ROWS rows here, the last ragged.
        # Blocked, it must still give C1.T @ dense().T @ C2 and charge the
        # unblocked cost: each L x d kB Khatri-Rao operand, each kA x L by
        # L x d kB product, and the d x d contraction over kA kB. The kB
        # columns come as two groups, the second subtracted, as in p1 - p2.
        d, kA, kB = 3, 5, 4
        monkeypatch.setattr(attention, "BLOCK_ELEMENTS", BLOCK_ROWS * d * kB)
        monkeypatch.setattr(lowrank, "_MIN_BLOCK_ROWS", 1)
        A, C = rng.standard_normal((2, L, kA))
        B, D = rng.standard_normal((2, L, kB))
        C1, C2 = rng.standard_normal((2, L, d))
        M = KhatriRaoFactor(
            A=A, B=(B[:, :3], B[:, 3:]), C=C, D=(D[:, :3], D[:, 3:]), signs=(1.0, -1.0)
        )
        with instrument.recording() as tally:
            got = M.sandwich(C1, C2)
        assert np.abs(got - C1.T @ M.dense().T @ C2).max() <= 1e-12
        assert tally.madds == 2 * L * d * kB + 2 * kA * L * d * kB + d * d * kA * kB

    def test_wide_sandwich_rows_keep_tall_blocks(self, rng, monkeypatch):
        # At d = 32 a BLOCK_ELEMENTS block holds 62 rows of (C1 ck D).T; the
        # sandwich still takes _MIN_BLOCK_ROWS rows a block, so L = 600 is
        # three blocks: two products each, and the final contraction.
        L, d, kA = 600, 32, 2
        A, C = rng.standard_normal((2, L, kA))
        B, D = rng.standard_normal((2, L, d + 1))
        C1, C2 = rng.standard_normal((2, L, d))
        M = KhatriRaoFactor(A=A, B=(B,), C=C, D=(D,))
        calls = []
        matmul = instrument.matmul

        def spy(a, b, out=None):
            calls.append(a.shape)
            return matmul(a, b, out)

        monkeypatch.setattr(instrument, "matmul", spy)
        got = M.sandwich(C1, C2)
        blocks = [(kA, 256)] * 4 + [(kA, 88)] * 2
        assert calls == blocks + [(d, (d + 1) * kA)]
        want = C1.T @ M.dense().T @ C2
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_fused_p_matches_dense_split(self):
        # p1 - p2 is one factor (V1 ck [C3 | 1]) @ (U1 ck [c | -r]).T of
        # rank k1 * (d + 1), for the SVD and the poly chain; both f factors
        # are exact to well below the tolerance here.
        inst, adp, Wstar = gen_instance(31, 24, 3, 2, 0.5)
        W = adapted_weight(Wstar, adp)
        pm = dense_p_oracle(inst, W)
        cfg = PolyApproxConfig(gamma=0.5, degree=12, eps_target=1e-3)
        for f_lr in (approx_f_svd(inst, W, inst.L), approx_f_poly(inst, W, cfg)):
            q = approx_q(f_lr, inst)
            p1_lr = approx_p1(f_lr, q)
            p2_lr = approx_p2(f_lr, softmax_dots(q[1], inst.Y))
            p_lr = p1_lr - p2_lr
            assert p_lr.k == f_lr.k * (inst.d + 1)
            assert np.abs(p_lr.dense() - (pm.p1 - pm.p2)).max() <= 1e-10
            want = p1_lr.sandwich(inst.C1, inst.C2) - p2_lr.sandwich(inst.C1, inst.C2)
            got = p_lr.sandwich(inst.C1, inst.C2)
            assert np.abs(got - want).max() <= 1e-12

    def test_fused_p_needs_one_f_factor(self):
        inst, adp, Wstar = gen_instance(17, 8, 2, 1, 1.0)
        W = adapted_weight(Wstar, adp)
        f_a, f_b = approx_f_svd(inst, W, 3), approx_f_svd(inst, W, 3)
        q = approx_q(f_a, inst)
        r = softmax_dots(q[1], inst.Y)
        with pytest.raises(DimensionError):
            approx_p1(f_a, q) - approx_p2(f_b, r)

    def test_p1_rank_law(self):
        a = LowRankFactor(U=np.ones((4, 5)), V=np.ones((4, 5)))
        q = (np.ones((4, 6)), np.ones((4, 6)))
        assert approx_p1(a, q).k == 30

    def test_p2_keeps_f_rank(self):
        inst, adp, Wstar = gen_instance(17, 8, 2, 1, 1.0)
        W = adapted_weight(Wstar, adp)
        f_lr = approx_f_svd(inst, W, 3)
        _, c = approx_q(f_lr, inst)
        r = softmax_dots(c, inst.Y)
        assert approx_p2(f_lr, r).k == f_lr.k == 3

    def test_zero_factor_zero_products(self):
        zero = LowRankFactor(U=np.zeros((5, 2)), V=np.zeros((5, 2)))
        other = LowRankFactor(U=np.ones((5, 3)), V=np.ones((5, 3)))
        assert np.abs(approx_p1(zero, (other.U, other.V)).dense()).max() == 0.0
        r = softmax_dots(zero.V, np.ones((5, 2)))
        assert np.abs(approx_p2(other, r).dense()).max() == 0.0

    def test_length_mismatch(self):
        a = LowRankFactor(U=np.ones((4, 2)), V=np.ones((4, 2)))
        with pytest.raises(DimensionError):
            approx_p1(a, (np.ones((5, 2)), np.ones((5, 2))))
        with pytest.raises(DimensionError):
            approx_p2(a, np.ones(5))


class TestApproxGradients:
    def test_full_rank_chain_equals_exact(self):
        inst, adp, Wstar = gen_instance(19, 16, 3, 2, 1.0)
        W = adapted_weight(Wstar, adp)
        f_lr = approx_f_svd(inst, W, 16)
        pair = grad_from_f_factor(f_lr, inst, adp)
        exact = grad_adapters_special(inst, Wstar, adp)
        assert np.abs(pair.GA - exact.GA).max() <= 1e-8
        assert np.abs(pair.GB - exact.GB).max() <= 1e-8

    def test_adapter_of_another_d_rejected(self):
        inst, adp, Wstar = gen_instance(19, 16, 3, 2, 1.0)
        f_lr = approx_f_svd(inst, adapted_weight(Wstar, adp), 16)
        _, adp4, _ = gen_instance(19, 16, 4, 2, 1.0)
        with pytest.raises(DimensionError, match="adapter dimension"):
            grad_from_f_factor(f_lr, inst, adp4)

    def test_error_shrinks_with_rank(self):
        # Gradient error through a truncated-SVD factor is not entrywise
        # monotone in rank, but it collapses by orders of magnitude from
        # rank 1 to full rank and is tiny at the top.
        inst, adp, Wstar = gen_instance(11, 16, 3, 2, 1.0)
        W = adapted_weight(Wstar, adp)
        exact = grad_adapters_special(inst, Wstar, adp)
        errs = []
        for k in (1, 4, 8, 12, 16):
            pair = grad_from_f_factor(approx_f_svd(inst, W, k), inst, adp)
            errs.append(
                max(
                    np.abs(pair.GA - exact.GA).max(),
                    np.abs(pair.GB - exact.GB).max(),
                )
            )
        assert errs[-1] <= 1e-8
        assert errs[-1] <= errs[0] * 1e-3
        assert errs[2] <= errs[0]

    def test_zero_residual_zero_gradients(self):
        inst0, adp, Wstar = gen_instance(23, 12, 3, 1, 0.5)
        W = adapted_weight(Wstar, adp)
        Y = forward_f(inst0, W) @ inst0.C3
        inst = AttentionInstance(C1=inst0.C1, C2=inst0.C2, C3=inst0.C3, Y=Y)
        cfg = PolyApproxConfig(gamma=0.5, degree=None, eps_target=1e-3)
        pair = approx_grad_special(inst, Wstar, adp, cfg)
        assert np.abs(pair.GA).max() <= 1e-10
        assert np.abs(pair.GB).max() <= 1e-10

    def test_poly_gradients_track_exact(self):
        inst, adp, Wstar = gen_instance(29, 32, 4, 2, 0.25)
        cfg = PolyApproxConfig(gamma=0.25, degree=None, eps_target=1e-3)
        pair = approx_grad_special(inst, Wstar, adp, cfg)
        exact = grad_adapters_special(inst, Wstar, adp)
        scale = 1.0 + max(np.abs(exact.GA).max(), np.abs(exact.GB).max())
        err = max(
            np.abs(pair.GA - exact.GA).max(), np.abs(pair.GB - exact.GB).max()
        )
        assert err <= 1e-2 * scale

    def test_error_propagation_measured_bound(self):
        # Pinned seeds: the factor-free product bound is a measured property
        # of these instances, not a theorem (it fails on some draws).
        for seed in (1, 3, 5):
            inst, adp, Wstar = gen_instance(seed, 12, 3, 2, 0.8)
            W = adapted_weight(Wstar, adp)
            pm = dense_p_oracle(inst, W)
            exact = grad_adapters_special(inst, Wstar, adp)
            for k in (2, 4, 8):
                f_lr = approx_f_svd(inst, W, k)
                q = approx_q(f_lr, inst)
                p1_lr = approx_p1(f_lr, q)
                p2_lr = approx_p2(f_lr, softmax_dots(q[1], inst.Y))
                pair = grad_from_f_factor(f_lr, inst, adp)
                lhs = np.abs(pair.GA - exact.GA).max()
                rhs = (
                    np.abs(adp.B).max()
                    * np.abs(inst.C1).max()
                    * np.abs(inst.C2).max()
                    * (
                        np.abs(p1_lr.dense() - pm.p1).max()
                        + np.abs(p2_lr.dense() - pm.p2).max()
                    )
                )
                assert lhs <= rhs

    def test_no_dense_materialization(self):
        # The production path must never allocate beyond max(L*k3, L*d).
        inst, adp, Wstar = gen_instance(0, 64, 4, 2, 0.25)
        cfg = PolyApproxConfig(gamma=0.25, degree=3, eps_target=1e-3)
        k3 = monomial_count(4, 3) * 2 * 4
        with instrument.recording() as tally:
            approx_grad_special(inst, Wstar, adp, cfg)
        assert tally.max_alloc <= max(64 * k3, 64 * 4)

    def test_peak_is_the_factor_and_thin_buffers(self):
        # Past the factor, the chain holds c's d x L buffer, r and one
        # sandwich block: (d + 1) L + BLOCK_ELEMENTS floats, allowed one L
        # more for the small arrays. The column groups [C3 | 1] and [c | -r]
        # are read where they are; a copy of either, 5 L floats here, or a
        # whole L x d (d + 1) Khatri-Rao operand, 20 L, does not fit. The
        # call's peak is then the feature map of C1 @ W: the factor's
        # 2 k1 L floats, C1 @ W's d L and the map's g d L step buffer,
        # allowed one L more.
        L, d, g = 16384, 4, 3
        k1 = monomial_count(d, g)
        inst, adp, Wstar = gen_instance(0, L, d, 2, 0.25)
        cfg = PolyApproxConfig(gamma=0.25, degree=g, eps_target=1e-3)
        f_lr = approx_f_poly(inst, adapted_weight(Wstar, adp), cfg)
        peaks = []
        for call in (
            lambda: grad_from_f_factor(f_lr, inst, adp),
            lambda: approx_grad_special(inst, Wstar, adp, cfg),
        ):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        chain, whole = peaks
        assert chain <= 8 * ((d + 2) * L + attention.BLOCK_ELEMENTS)
        assert whole <= 8 * (2 * k1 * L + (g + 1) * d * L + L)

    def test_registered_peak_is_one_feature_map(self):
        # p1 is contracted in place, so nothing larger than one L x k1
        # feature map is registered.
        L = 512
        inst, adp, Wstar = gen_instance(0, L, 4, 2, 0.25)
        cfg = PolyApproxConfig(gamma=0.25, degree=3, eps_target=1e-3)
        with instrument.recording() as tally:
            approx_grad_special(inst, Wstar, adp, cfg)
        assert tally.max_alloc <= L * monomial_count(4, 3) == 17_920

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap rule")
    def test_warm_calls_keep_their_heap(self):
        # glibc gives the free heap top back to the OS past twice the largest
        # mmapped chunk freed so far, and the next call faults it in again
        # (about 2,200 minor faults at L = 16384). With the factor's halves
        # one allocation, the threshold is above a call's heap peak. A fresh
        # interpreter keeps other tests' allocations out of the heap's past.
        code = (
            "import json, resource\n"
            "from lora_kernels.harness import gen_instance\n"
            "from lora_kernels.lowrank import PolyApproxConfig, approx_grad_special\n"
            "inst, adp, Wstar = gen_instance(0, 16384, 4, 2, 0.2)\n"
            "cfg = PolyApproxConfig(gamma=0.25, degree=None, eps_target=1e-3)\n"
            "approx_grad_special(inst, Wstar, adp, cfg)\n"
            "faults = []\n"
            "for _ in range(6):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    approx_grad_special(inst, Wstar, adp, cfg)\n"
            "    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    faults.append(after - before)\n"
            "print(json.dumps(faults))\n"
        )
        faults = json.loads(fresh_python(code))
        assert statistics.median(faults) <= 100, faults


class TestApproxGeneral:
    def build(self, rng):
        L, d = 12, 2
        g = GeneralInstance(
            XQ=0.4 * rng.standard_normal((L, d)),
            XK=0.4 * rng.standard_normal((L, d)),
            XV=rng.standard_normal((L, d)),
            WQstar=0.5 * rng.standard_normal((d, d)),
            WKstar=0.5 * rng.standard_normal((d, d)),
            WVstar=rng.standard_normal((d, d)),
            Y=rng.standard_normal((L, d)),
        )
        adpQ = LoraAdapter(
            B=0.3 * rng.standard_normal((d, 1)),
            A=0.3 * rng.standard_normal((1, d)),
            r=1,
            alpha=1.0,
        )
        adpK = LoraAdapter(
            B=0.3 * rng.standard_normal((d, 1)),
            A=0.3 * rng.standard_normal((1, d)),
            r=1,
            alpha=1.0,
        )
        return g, adpQ, adpK

    def measured_gamma(self, g, adpQ, adpK):
        # The four norms the two sides check: (XQ @ WQ, XK @ WK) on the query
        # side, (XQ @ WQ @ WK.T, XK) on the key side.
        inst, WQ, WK = compose_general_constants(g, adpQ, adpK)
        XQWQ = inst.C1 @ WQ
        return max(
            np.abs(M).max() for M in (XQWQ, inst.C2 @ WK, XQWQ @ WK.T, inst.C2)
        )

    def test_matches_exact_on_both_sides(self):
        g, adpQ, adpK = self.build(np.random.default_rng(42))
        gamma = self.measured_gamma(g, adpQ, adpK)
        cfg = PolyApproxConfig(gamma=gamma, degree=None, eps_target=1e-8)
        a_q, a_k = approx_grad_general(g, adpQ, adpK, cfg)
        e_q, e_k = grad_adapters_general(g, adpQ, adpK)
        for got, want in (
            (a_q.GA, e_q.GA),
            (a_q.GB, e_q.GB),
            (a_k.GA, e_k.GA),
            (a_k.GB, e_k.GB),
        ):
            assert np.abs(got - want).max() <= 1e-6

    def test_norm_violation_names_the_side(self):
        # WQ = I, WK a scalar times I, zero adapters and gamma = 1: each case
        # breaks exactly one of the four checked norms, and the error names
        # the product it was measured on.
        L, d = 5, 2
        ones = np.ones((L, d))
        zero = LoraAdapter(B=np.zeros((d, 1)), A=np.zeros((1, d)), r=1, alpha=1.0)
        cfg = PolyApproxConfig(gamma=1.0, degree=None, eps_target=1e-3)
        cases = [
            # Query side, (XQ @ WQ, XK @ WK) at WQ: it runs first.
            (2.0, 0.1, 1.0, "XQ @ WQ"),
            (0.5, 3.0, 1.0, "XK @ WK"),
            # Key side, (XQ @ WQ @ WK.T, XK) at WK.T, the query side in bounds.
            (0.5, 0.1, 3.0, "XQ @ WQ @ WK.T"),
            (0.5, 3.0, 0.1, "XK"),
        ]
        for xq, xk, wk, name in cases:
            g = GeneralInstance(
                XQ=xq * ones, XK=xk * ones, XV=ones,
                WQstar=np.eye(d), WKstar=wk * np.eye(d), WVstar=np.eye(d),
                Y=ones,
            )
            with pytest.raises(NormBoundError) as info:
                approx_grad_general(g, zero, zero, cfg)
            assert info.value.name == name
            assert isinstance(info.value.__cause__, NormBoundError)

    def test_query_side_matches_special_path(self):
        # With the key adapter zeroed, the general query gradients must equal
        # the special-case path on the composed constants, off unit alpha too.
        g, adpQ, _ = self.build(np.random.default_rng(3))
        adpQ = LoraAdapter(B=adpQ.B, A=adpQ.A, r=1, alpha=2.5)
        adpK = LoraAdapter(B=np.zeros((2, 1)), A=np.zeros((1, 2)), r=1, alpha=1.0)
        gamma = 1.01 * self.measured_gamma(g, adpQ, adpK)
        cfg = PolyApproxConfig(gamma=gamma, degree=None, eps_target=1e-3)
        pair_q, _ = approx_grad_general(g, adpQ, adpK, cfg)
        inst = special_constants(g, alpha=adpQ.alpha, r=adpQ.r)
        pair_s = approx_grad_special(inst, g.WQstar, adpQ, cfg)
        assert np.abs(pair_q.GA - pair_s.GA).max() <= 1e-12
        assert np.abs(pair_q.GB - pair_s.GB).max() <= 1e-12

    def test_each_side_scales_by_alpha_over_r(self):
        # An adapter at alpha != r is the adapter with B scaled by alpha/r at
        # alpha = r: same loss, same dL/dA, and dL/dB scaled by alpha/r, on
        # the query and the key side and on both gradient paths.
        g, adpQ, adpK = self.build(np.random.default_rng(5))
        scaled = [
            LoraAdapter(B=adp.B, A=adp.A, r=1, alpha=alpha)
            for adp, alpha in ((adpQ, 0.5), (adpK, 3.0))
        ]
        unit = [
            LoraAdapter(B=adp.scale * adp.B, A=adp.A, r=1, alpha=1.0)
            for adp in scaled
        ]
        assert abs(general_loss(g, *scaled) - general_loss(g, *unit)) <= 1e-12
        cfg = PolyApproxConfig(
            gamma=1.01 * self.measured_gamma(g, *unit), degree=4, eps_target=1e-3
        )
        for grads in (grad_adapters_general, lambda *a: approx_grad_general(*a, cfg)):
            for adp, got, want in zip(scaled, grads(g, *scaled), grads(g, *unit)):
                assert np.abs(got.GA - want.GA).max() <= 1e-12
                assert np.abs(got.GB - adp.scale * want.GB).max() <= 1e-12

    def test_peak_memory_is_one_side(self):
        # The sides run one after the other, so the two-sided call must not
        # hold one side's factors while the other builds its own.
        rng = np.random.default_rng(11)
        L, d, r, gamma = 512, 4, 2, 0.5
        g = GeneralInstance(
            *(rng.standard_normal((L, d)) for _ in range(3)),
            *(rng.standard_normal((d, d)) for _ in range(3)),
            Y=rng.standard_normal((L, d)),
        )
        adpQ, adpK = (
            LoraAdapter(
                B=rng.standard_normal((d, r)),
                A=rng.standard_normal((r, d)),
                r=r,
                alpha=float(r),
            )
            for _ in range(2)
        )
        # Every checked norm is linear in a common scale of XQ and XK.
        s = gamma / self.measured_gamma(g, adpQ, adpK)
        g = dataclasses.replace(g, XQ=s * g.XQ, XK=s * g.XK)
        cfg = PolyApproxConfig(gamma=gamma, degree=None, eps_target=1e-3)
        inst, WQ, WK = compose_general_constants(g, adpQ, adpK)
        inst_q = dataclasses.replace(inst, C2=inst.C2 @ WK)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(
            lambda: grad_from_f_factor(approx_f_poly(inst_q, WQ, cfg), inst_q, adpQ)
        )
        both = peak(lambda: approx_grad_general(g, adpQ, adpK, cfg))
        assert both <= 1.25 * one
