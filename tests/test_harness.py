"""Instance generation, benchmark/sweep tables, and the embedding check."""

import dataclasses
import math

import numpy as np
import pytest

from lora_kernels import instrument
from lora_kernels.attention import adapted_weight, forward_output
from lora_kernels.errors import DimensionError, NormBoundError
from lora_kernels.exact import grad_adapters_special
from lora_kernels.harness import (
    BENCH_HEADER,
    SWEEP_HEADER,
    ReductionInstance,
    SweepResult,
    bench_scaling,
    embed_attlgc,
    gen_instance,
    gen_reduction,
    reduction_loss,
    reduction_output,
    sweep_gamma,
)
from lora_kernels.lowrank import PolyApproxConfig, monomial_count, select_degree
from lora_kernels.oracle import fd_grad


class TestGenInstance:
    def test_determinism(self):
        a = gen_instance(12, 8, 3, 2, 0.5)
        b = gen_instance(12, 8, 3, 2, 0.5)
        assert np.array_equal(a[0].C1, b[0].C1)
        assert np.array_equal(a[0].C2, b[0].C2)
        assert np.array_equal(a[0].C3, b[0].C3)
        assert np.array_equal(a[0].Y, b[0].Y)
        assert np.array_equal(a[1].B, b[1].B)
        assert np.array_equal(a[1].A, b[1].A)
        assert np.array_equal(a[2], b[2])

    def test_norms_sit_at_gamma(self):
        inst, adp, Wstar = gen_instance(12, 8, 3, 2, 0.7)
        W = adapted_weight(Wstar, adp)
        assert abs(np.abs(inst.C1 @ W).max() - 0.7) <= 1e-12
        assert abs(np.abs(inst.C2).max() - 0.7) <= 1e-12

    def test_distinct_seeds_differ(self):
        a = gen_instance(1, 6, 2, 1, 0.5)
        b = gen_instance(2, 6, 2, 1, 0.5)
        assert a[0].Y[0, 0] != b[0].Y[0, 0]

    def test_invalid_sizes(self):
        with pytest.raises(DimensionError):
            gen_instance(0, 4, 2, 3, 0.5)
        for gamma in (-1.0, 0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="gamma_target"):
                gen_instance(0, 4, 2, 1, gamma)


class TestSlopeFitting:
    def test_synthetic_quadratic_counter(self):
        # Self-test of the instrumentation chain: a counter charged exactly
        # L^2 multiply-adds per size must fit slope 2 to high accuracy.
        sizes = [256, 512, 1024]
        costs = []
        for L in sizes:
            with instrument.recording() as tally:
                instrument.count_matmul(L, L, 1)
            costs.append(tally.madds)
        slope = instrument.loglog_slope(sizes, costs)
        assert abs(slope - 2.0) <= 0.01

    def test_synthetic_linear_counter(self):
        slope = instrument.loglog_slope([256, 512, 1024], [256, 512, 1024])
        assert abs(slope - 1.0) <= 1e-12

    def test_slope_needs_two_points(self):
        with pytest.raises(ValueError):
            instrument.loglog_slope([256], [7])
        with pytest.raises(ValueError):
            instrument.loglog_slope([256, 256], [7, 9])


class TestBenchScaling:
    def small_bench(self, repeats=1):
        cfg = PolyApproxConfig(gamma=0.25, degree=None, eps_target=1e-3)
        return bench_scaling([32, 64, 128], 2, 1, cfg, repeats=repeats, seed=5)

    def test_csv_shape(self):
        result = self.small_bench()
        text = result.csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(BENCH_HEADER) == "L,path,wall_ns,ops,slope"
        assert len(lines) == 1 + 6
        paths = {row[1] for row in result.rows}
        assert paths == {"exact", "approx"}

    def test_ops_deterministic_across_runs(self):
        a = self.small_bench()
        b = self.small_bench()
        stripped_a = [(r[0], r[1], r[3], r[4]) for r in a.rows]
        stripped_b = [(r[0], r[1], r[3], r[4]) for r in b.rows]
        assert stripped_a == stripped_b

    def test_slopes_attached_per_path(self):
        result = self.small_bench()
        assert set(result.slopes) == {"exact", "approx"}
        for L, path, wall, ops, slope in result.rows:
            assert slope == result.slopes[path]
        assert result.slopes["exact"] > result.slopes["approx"]

    def test_guard_skips_recorded(self, monkeypatch):
        monkeypatch.setenv("LORA_KERNELS_GUARD_L", "48")
        cfg = PolyApproxConfig(gamma=0.25, degree=None, eps_target=1e-3)
        result = bench_scaling([32, 64], 2, 1, cfg, repeats=1, seed=5)
        assert (64, "exact") in result.skipped
        approx_Ls = [r[0] for r in result.rows if r[1] == "approx"]
        assert approx_Ls == [32, 64]


class TestSweepGamma:
    def test_csv_header_and_flags(self):
        result = sweep_gamma([0.25, 2.0], 16, 3, 1, 1e-3, seed=2)
        assert result.header == SWEEP_HEADER
        text = result.csv_text()
        assert text.startswith("gamma,degree,rank_k1,f_err,grad_err,infeasible\n")
        for gamma, degree, k1, f_err, grad_err, infeasible in result.rows:
            cfg = PolyApproxConfig(gamma=gamma, degree=None, eps_target=1e-3)
            assert degree == select_degree(cfg, 3)
            assert k1 == monomial_count(3, degree)
            assert infeasible == (k1 > 16)

    def test_deterministic_csv(self):
        a = sweep_gamma([0.25, 1.0], 16, 2, 1, 1e-3, seed=2)
        b = sweep_gamma([0.25, 1.0], 16, 2, 1, 1e-3, seed=2)
        assert a.csv_text() == b.csv_text()

    def test_empty_gamma_list_rejected(self):
        with pytest.raises(ValueError):
            sweep_gamma([], 16, 2, 1, 1e-3, seed=2)

    def test_cell_formatting(self):
        result = SweepResult(
            header=("a", "b", "c", "d"),
            rows=[(1, True, False, 0.5), (2, False, True, float("inf"))],
        )
        lines = result.csv_text().strip().split("\n")
        assert lines[1] == "1,1,0,0.5"
        assert lines[2] == "2,0,1,inf"

    def test_write_csv(self, tmp_path):
        result = sweep_gamma([0.25], 8, 2, 1, 1e-3, seed=2)
        out = tmp_path / "sweep.csv"
        result.write_csv(out)
        assert out.read_text() == result.csv_text()


class TestReduction:
    def test_gen_determinism_and_norms(self):
        a = gen_reduction(4, 8, 2, 1.0)
        b = gen_reduction(4, 8, 2, 1.0)
        assert np.array_equal(a.A1, b.A1)
        assert np.array_equal(a.X, b.X)
        assert abs(np.abs(a.A1 @ a.X).max() - 1.0) <= 1e-12
        assert abs(np.abs(a.A2).max() - 1.0) <= 1e-12
        assert np.all(a.E == 0.0)

    @pytest.mark.parametrize("L, r_red", [(0, 2), (8, 0)])
    def test_gen_rejects_empty_sizes(self, L, r_red):
        with pytest.raises(DimensionError):
            gen_reduction(4, L, r_red, 1.0)

    @pytest.mark.parametrize("b_bound", [0.0, -1.0, math.inf, math.nan])
    def test_gen_rejects_non_positive_or_non_finite_bound(self, b_bound):
        with pytest.raises(ValueError, match="b_bound"):
            gen_reduction(4, 8, 2, b_bound)

    def test_invariant_violation_rejected(self):
        ri = gen_reduction(4, 8, 2, 1.0)
        with pytest.raises(NormBoundError):
            ReductionInstance(
                A1=ri.A1, A2=2.5 * ri.A2, A3=ri.A3, E=ri.E, X=ri.X, b_bound=1.0
            )

    def test_output_shape_and_loss(self):
        ri = gen_reduction(4, 8, 2, 1.0)
        assert reduction_output(ri).shape == (8, 2)
        assert reduction_loss(ri) >= 0.0

    def test_embed_requires_room(self):
        ri = gen_reduction(4, 8, 3, 1.0)
        with pytest.raises(DimensionError):
            embed_attlgc(ri, 2)

    def test_embed_zero_X_pads_to_zero_adapter(self):
        ri0 = gen_reduction(4, 6, 2, 1.0)
        ri = ReductionInstance(
            A1=ri0.A1,
            A2=ri0.A2,
            A3=ri0.A3,
            E=ri0.E,
            X=np.zeros((2, 2)),
            b_bound=1.0,
        )
        inst, adp = embed_attlgc(ri, 4)
        assert np.all(adp.A == 0.0)
        assert np.array_equal(adp.B[:2, :], np.eye(2))
        assert np.all(adp.B[2:, :] == 0.0)

    def test_embed_output_subblock(self):
        ri = gen_reduction(4, 6, 2, 1.0)
        inst, adp = embed_attlgc(ri, 3)
        W = adapted_weight(np.zeros((3, 3)), adp)
        out = forward_output(inst, W)
        assert np.abs(out[:, :2] - reduction_output(ri)).max() <= 1e-12
        assert np.abs(out[:, 2:]).max() <= 1e-14

    def test_embed_gradient_matches_reduction_loss(self):
        ri = gen_reduction(4, 6, 2, 1.0)
        inst, adp = embed_attlgc(ri, 3)
        pair = grad_adapters_special(inst, np.zeros((3, 3)), adp)
        fd = fd_grad(lambda X: reduction_loss(ri, X), ri.X)
        scale = max(1.0, float(np.abs(fd).max()))
        assert np.abs(pair.GA[:, :2] - fd).max() / scale <= 1e-5
        assert np.abs(pair.GA[:, 2:]).max() <= 1e-14

    def test_embed_carries_nonzero_targets(self):
        # The generator always sets E = 0, but the embedding must stay
        # loss-faithful for any targets: Y = [E | 0].
        base = gen_reduction(13, 6, 2, 1.0)
        rng = np.random.default_rng(77)
        ri = dataclasses.replace(base, E=rng.standard_normal((6, 2)))
        inst, adp = embed_attlgc(ri, 3)
        assert np.array_equal(inst.Y[:, :2], ri.E)
        assert np.abs(inst.Y[:, 2:]).max() == 0.0
        pair = grad_adapters_special(inst, np.zeros((3, 3)), adp)
        fd = fd_grad(lambda X: reduction_loss(ri, X), ri.X)
        scale = max(1.0, float(np.abs(fd).max()))
        assert np.abs(pair.GA[:, :2] - fd).max() / scale <= 1e-5
