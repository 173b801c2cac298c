"""The cost and allocation rules: products charge from their operands, each
path's closed form, and buffers refused past the guard or recorded."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from lora_kernels import instrument
from lora_kernels.attention import (
    SCORE_LIMIT,
    SHIFT_FREE,
    GeneralInstance,
    LoraAdapter,
    adapted_weight,
    forward_f,
    q_from_c,
    softmax_dots,
)
from lora_kernels.errors import SizeGuardError
from lora_kernels.exact import grad_adapters_general, grad_adapters_special, split_p
from lora_kernels.harness import gen_instance
from lora_kernels.lowrank import (
    PolyApproxConfig,
    approx_grad_general,
    approx_grad_special,
    monomial_count,
)

SIZES = list(itertools.product((16, 64), (2, 3, 4)))
DEGREE = 2
R = 2


def madds(fn, *args):
    with instrument.recording() as tally:
        fn(*args)
    return tally.madds


def general_problem(seed, L, d):
    rng = np.random.default_rng(seed)
    g = GeneralInstance(
        *(0.3 * rng.standard_normal((L, d)) for _ in range(3)),
        *(0.5 * rng.standard_normal((d, d)) for _ in range(3)),
        Y=rng.standard_normal((L, d)),
    )
    adpQ, adpK = (
        LoraAdapter(
            B=0.3 * rng.standard_normal((d, R)),
            A=0.3 * rng.standard_normal((R, d)),
            r=R,
            alpha=float(R),
        )
        for _ in range(2)
    )
    return g, adpQ, adpK


def factored_side(L, d, g):
    """Multiply-adds of one factored side up to dL/dW, before the projection."""
    k1 = monomial_count(d, g)
    per_row = k1 * (2 * d * d + 4 * d + 4) + 3 * d * d + (2 * g + 3) * d - 2
    return L * per_row + k1 * d * d * (d + 1)


class TestMatmul:
    @pytest.mark.parametrize("b_shape, charge", [((3, 5), 4 * 3 * 5), ((3,), 4 * 3)])
    def test_charges_from_operands_and_returns_the_product(self, b_shape, charge):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((4, 3)), rng.standard_normal(b_shape)
        with instrument.recording() as tally:
            out = instrument.matmul(a, b)
        assert np.array_equal(out, a @ b)
        assert tally.madds == charge


class TestEmpty:
    def test_registers_in_every_active_recording(self):
        with instrument.recording() as outer:
            assert instrument.empty((3, 4)).shape == (3, 4)
            with instrument.recording() as inner:
                instrument.empty((2, 5))
            instrument.empty((1, 7))
        assert (outer.max_alloc, inner.max_alloc) == (12, 10)

    def test_refuses_past_the_guard_squared_before_allocating(self, monkeypatch):
        monkeypatch.setenv(instrument.GUARD_ENV_VAR, "1024")
        assert instrument.empty((1024, 1024)).dtype == np.float64
        tracemalloc.start()
        try:
            with instrument.recording() as tally:
                with pytest.raises(SizeGuardError, match="1024 x 1025"):
                    instrument.empty((1024, 1025))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The refused buffer would be 8 MiB; it is neither allocated nor recorded.
        assert peak < 2**20
        assert tally.max_alloc == 0

    def test_several_shapes_come_back_in_order(self):
        with instrument.recording() as tally:
            a, b = instrument.empty((2, 3, 4), (5, 6))
        assert (a.shape, b.shape) == ((2, 3, 4), (5, 6))
        assert tally.max_alloc == 30

    def test_several_shapes_are_disjoint_views_of_one_allocation(self):
        # One allocation of the summed size, recorded per shape: max_alloc is
        # the largest shape, not the sum.
        with instrument.recording() as tally:
            a, b, c = instrument.empty((2, 3, 4), (5, 6), (7,))
        assert a.base is not None and a.base is b.base is c.base
        assert a.base.size == 24 + 30 + 7
        assert not any(np.shares_memory(x, y) for x, y in [(a, b), (a, c), (b, c)])
        assert all(x.flags.c_contiguous for x in (a, b, c))
        assert tally.max_alloc == 30

    def test_one_refused_shape_refuses_them_all(self, monkeypatch):
        monkeypatch.setenv(instrument.GUARD_ENV_VAR, "1024")
        tracemalloc.start()
        try:
            with instrument.recording() as tally:
                with pytest.raises(SizeGuardError, match="1024 x 1025"):
                    instrument.empty((512, 1024), (1024, 1025))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The first buffer, 4 MiB, would pass alone; it is not allocated either.
        assert peak < 2**20
        assert tally.max_alloc == 0


class TestClosedForms:
    # A product that drops out of a path's count fails these equalities.

    # Scores whose radius is inside SHIFT_FREE skip the softmax shift, and f
    # stays unnormalized: (4d + 4) L^2. The L d terms: the score radius 2,
    # the residual 2 (divide by z, subtract Y), the row dots 2, and c / z 1,
    # plus r / z, L. C1 @ W and the sandwich's C1.T product are d^2 L each.
    @pytest.mark.parametrize("L, d", SIZES)
    def test_exact_special(self, L, d):
        inst, adp, Wstar = gen_instance(1, L, d, R, 0.5)
        want = (4 * d + 4) * L * L + (2 * d * d + 7 * d + 1) * L + 2 * R * d * d
        assert madds(grad_adapters_special, inst, Wstar, adp) == want

    @pytest.mark.parametrize("L, d", SIZES)
    def test_exact_special_past_the_shift_bound(self, L, d):
        # C1 rescaled so the largest score lies between SHIFT_FREE and
        # SCORE_LIMIT: the one row block is shifted, one more per entry.
        inst, adp, Wstar = gen_instance(1, L, d, R, 0.5)
        S = (inst.C1 @ adapted_weight(Wstar, adp)) @ inst.C2.T
        top = S.flat[np.abs(S).argmax()]
        target = (SHIFT_FREE + SCORE_LIMIT) / 2
        inst = dataclasses.replace(inst, C1=inst.C1 * (target / top))
        want = (4 * d + 5) * L * L + (2 * d * d + 7 * d + 1) * L + 2 * R * d * d
        assert madds(grad_adapters_special, inst, Wstar, adp) == want

    @pytest.mark.parametrize("L, d", SIZES)
    def test_exact_general(self, L, d):
        g, adpQ, adpK = general_problem(2, L, d)
        want = (
            (4 * d + 4) * L * L + (3 * d * d + 7 * d + 1) * L + 4 * R * d * d + 3 * d**3
        )
        assert madds(grad_adapters_general, g, adpQ, adpK) == want

    # L = 300 splits p into two row blocks, the last ragged.
    @pytest.mark.parametrize("L, d", [(16, 2), (64, 3), (300, 4)])
    def test_exact_q_and_p_stages(self, L, d):
        # q is held as the pair (C3, c), so building it charges nothing;
        # p charges q's rows, d per entry, and its 2 per entry.
        inst, adp, Wstar = gen_instance(5, L, d, R, 0.5)
        f = forward_f(inst, adapted_weight(Wstar, adp))
        c = f @ inst.C3 - inst.Y
        r = softmax_dots(c, inst.Y)
        with instrument.recording() as tally:
            q = q_from_c(c, inst)
        assert tally.madds == 0
        assert madds(split_p, f, q, r) == (d + 2) * L * L

    @pytest.mark.parametrize("L, d", SIZES)
    def test_factored_special(self, L, d):
        inst, adp, Wstar = gen_instance(3, L, d, R, 0.5)
        cfg = PolyApproxConfig(gamma=0.5, degree=DEGREE, eps_target=1e-3)
        want = factored_side(L, d, DEGREE) + 2 * R * d * d
        assert madds(approx_grad_special, inst, Wstar, adp, cfg) == want

    @pytest.mark.parametrize("L, d", SIZES)
    def test_factored_general(self, L, d):
        g, adpQ, adpK = general_problem(4, L, d)
        # The degree is pinned, so gamma only has to bound the checked norms.
        cfg = PolyApproxConfig(gamma=10.0, degree=DEGREE, eps_target=1e-3)
        want = 3 * L * d * d + 2 * factored_side(L, d, DEGREE) + 4 * R * d * d
        assert madds(approx_grad_general, g, adpQ, adpK, cfg) == want
