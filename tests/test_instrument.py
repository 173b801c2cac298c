"""The cost rule: products charge from their operands, and each path's closed form."""

import itertools

import numpy as np
import pytest

from lora_kernels import instrument
from lora_kernels.attention import GeneralInstance, LoraAdapter
from lora_kernels.exact import grad_adapters_general, grad_adapters_special
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


def factored_side(L, d, k1):
    """Multiply-adds of one factored side up to dL/dW, before the projection."""
    per_row = k1 * (2 * d * d + 4 * d + 6) + 3 * d * d + 5 * d - 4
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


class TestClosedForms:
    # A product that drops out of a path's count fails these equalities.

    @pytest.mark.parametrize("L, d", SIZES)
    def test_exact_special(self, L, d):
        inst, adp, Wstar = gen_instance(1, L, d, R, 0.5)
        want = (4 * d + 6) * L * L + (2 * d * d + 3 * d) * L + 2 * R * d * d
        assert madds(grad_adapters_special, inst, Wstar, adp) == want

    @pytest.mark.parametrize("L, d", SIZES)
    def test_exact_general(self, L, d):
        g, adpQ, adpK = general_problem(2, L, d)
        want = (
            (4 * d + 6) * L * L + (5 * d * d + 3 * d) * L + 4 * R * d * d + 2 * d**3
        )
        assert madds(grad_adapters_general, g, adpQ, adpK) == want

    @pytest.mark.parametrize("L, d", SIZES)
    def test_factored_special(self, L, d):
        inst, adp, Wstar = gen_instance(3, L, d, R, 0.5)
        cfg = PolyApproxConfig(gamma=0.5, degree=DEGREE, eps_target=1e-3)
        k1 = monomial_count(d, DEGREE)
        want = factored_side(L, d, k1) + 2 * R * d * d
        assert madds(approx_grad_special, inst, Wstar, adp, cfg) == want

    @pytest.mark.parametrize("L, d", SIZES)
    def test_factored_general(self, L, d):
        g, adpQ, adpK = general_problem(4, L, d)
        # The degree is pinned, so gamma only has to bound the checked norms.
        cfg = PolyApproxConfig(gamma=10.0, degree=DEGREE, eps_target=1e-3)
        k1 = monomial_count(d, DEGREE)
        want = 3 * L * d * d + 2 * factored_side(L, d, k1) + 4 * R * d * d
        assert madds(approx_grad_general, g, adpQ, adpK, cfg) == want
