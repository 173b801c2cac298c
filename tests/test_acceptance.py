"""Acceptance gate: eight criteria, one printed verdict line per criterion.

Each test computes its measured quantities first, prints a single
"criterion N (...): PASS|FAIL" line, and only then asserts, so the verdict
line appears in the run log either way. Criteria also enforce their stated
wall-clock budgets.
"""

import time

import numpy as np

from lora_kernels import instrument
from lora_kernels.attention import (
    AttentionInstance,
    GeneralInstance,
    LoraAdapter,
    adapted_weight,
    compose_special_constants,
    forward_f,
    forward_output,
    softmax_rows,
)
from lora_kernels.exact import (
    grad_adapters_general,
    grad_adapters_special,
)
from lora_kernels.harness import (
    bench_scaling,
    embed_attlgc,
    gen_instance,
    gen_reduction,
    reduction_loss,
    reduction_output,
    sweep_gamma,
)
from lora_kernels.lowrank import (
    PolyApproxConfig,
    approx_f_poly,
    approx_grad_special,
    colwise_kronecker,
    grad_from_f_factor,
    monomial_count,
)
from lora_kernels.oracle import (
    approx_f_svd,
    dense_kron_grad_oracle,
    fd_grad,
    fd_grad_adapter,
    fd_grad_general,
    kronecker,
    matrixize,
    transpose_perm,
    vectorize,
)


def report(number, label, ok, detail, elapsed, budget):
    in_time = elapsed <= budget
    verdict = "PASS" if (ok and in_time) else "FAIL"
    print(f"criterion {number} ({label}): {verdict}")
    assert ok, f"criterion {number}: {detail}"
    assert in_time, (
        f"criterion {number}: took {elapsed:.1f}s, budget {budget:.0f}s"
    )


def rel_err(got, want):
    return float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))


def test_criterion_1_exact_gradients():
    t0 = time.perf_counter()
    combos = [
        (L, d, r) for L in (4, 8, 16) for d in (2, 3, 4) for r in (1, 2)
    ]
    combos += [(16, 4, 2), (8, 3, 2)]
    assert len(combos) == 20
    worst_fd = 0.0
    worst_kron = 0.0
    kron_checked = 0
    for i, (L, d, r) in enumerate(combos):
        inst, adp, Wstar = gen_instance(100 + i, L, d, r, 1.0)
        pair = grad_adapters_special(inst, Wstar, adp)
        worst_fd = max(
            worst_fd,
            rel_err(pair.GA, fd_grad_adapter(inst, Wstar, adp, "A")),
            rel_err(pair.GB, fd_grad_adapter(inst, Wstar, adp, "B")),
        )
        if L <= 8 and d <= 3:
            ko = dense_kron_grad_oracle(inst, Wstar, adp)
            worst_kron = max(
                worst_kron,
                float(np.abs(pair.GA - ko.GA).max()),
                float(np.abs(pair.GB - ko.GB).max()),
            )
            kron_checked += 1
    ok = worst_fd <= 1e-5 and worst_kron <= 1e-10 and kron_checked >= 1
    report(
        1,
        "exact gradients vs finite differences",
        ok,
        f"fd rel err {worst_fd:.3e}, kron err {worst_kron:.3e} "
        f"({kron_checked} kron-checked)",
        time.perf_counter() - t0,
        60,
    )


def test_criterion_2_general_case():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    L, d, r = 5, 3, 1
    g = GeneralInstance(
        XQ=0.5 * rng.standard_normal((L, d)),
        XK=0.5 * rng.standard_normal((L, d)),
        XV=rng.standard_normal((L, d)),
        WQstar=rng.standard_normal((d, d)),
        WKstar=rng.standard_normal((d, d)),
        WVstar=rng.standard_normal((d, d)),
        Y=rng.standard_normal((L, d)),
    )
    adpQ = LoraAdapter(
        B=rng.standard_normal((d, r)), A=rng.standard_normal((r, d)),
        r=r, alpha=float(r),
    )
    adpK = LoraAdapter(
        B=rng.standard_normal((d, r)), A=rng.standard_normal((r, d)),
        r=r, alpha=float(r),
    )
    pair_q, pair_k = grad_adapters_general(g, adpQ, adpK)
    worst_fd = max(
        rel_err(pair_q.GA, fd_grad_general(g, adpQ, adpK, "Q", "A")),
        rel_err(pair_q.GB, fd_grad_general(g, adpQ, adpK, "Q", "B")),
        rel_err(pair_k.GA, fd_grad_general(g, adpQ, adpK, "K", "A")),
        rel_err(pair_k.GB, fd_grad_general(g, adpQ, adpK, "K", "B")),
    )
    adpK0 = LoraAdapter(B=np.zeros((d, r)), A=np.zeros((r, d)), r=r, alpha=1.0)
    gq, _ = grad_adapters_general(g, adpQ, adpK0)
    inst = compose_special_constants(g, alpha=adpQ.alpha, r=adpQ.r)
    sp = grad_adapters_special(inst, g.WQstar, adpQ)
    cross = max(
        float(np.abs(gq.GA - sp.GA).max()), float(np.abs(gq.GB - sp.GB).max())
    )
    ok = worst_fd <= 1e-5 and cross <= 1e-10
    report(
        2,
        "general two-sided gradients",
        ok,
        f"fd rel err {worst_fd:.3e}, cross-path err {cross:.3e}",
        time.perf_counter() - t0,
        60,
    )


def test_criterion_3_chained_factor_exactness():
    t0 = time.perf_counter()
    inst, adp, Wstar = gen_instance(300, 16, 3, 2, 1.0)
    W = adapted_weight(Wstar, adp)
    f = forward_f(inst, W)
    exact = grad_adapters_special(inst, Wstar, adp)
    full = grad_from_f_factor(approx_f_svd(inst, W, 16), inst, adp)
    full_err = max(
        float(np.abs(full.GA - exact.GA).max()),
        float(np.abs(full.GB - exact.GB).max()),
    )
    # Rank monotonicity is measured on the factor error in Frobenius norm,
    # the quantity truncated SVD is optimal for; gradient error shrinks
    # with rank overall but is not entrywise monotone.
    f_errs = []
    g_errs = []
    for k in range(1, 17):
        f_lr = approx_f_svd(inst, W, k)
        f_errs.append(float(np.linalg.norm(f_lr.dense() - f)))
        pair = grad_from_f_factor(f_lr, inst, adp)
        g_errs.append(
            max(
                float(np.abs(pair.GA - exact.GA).max()),
                float(np.abs(pair.GB - exact.GB).max()),
            )
        )
    monotone = all(
        lo <= hi + 1e-10 for lo, hi in zip(f_errs[1:], f_errs[:-1])
    )
    grad_shrinks = g_errs[-1] <= g_errs[0]
    ok = full_err <= 1e-8 and monotone and grad_shrinks
    report(
        3,
        "chained factorization exactness",
        ok,
        f"full-rank grad err {full_err:.3e}, factor errs monotone {monotone} "
        f"({f_errs[0]:.2e} down to {f_errs[-1]:.2e}), "
        f"grad err {g_errs[0]:.2e} down to {g_errs[-1]:.2e}",
        time.perf_counter() - t0,
        60,
    )


def test_criterion_4_polynomial_backend():
    t0 = time.perf_counter()
    inst, adp, Wstar = gen_instance(4, 64, 4, 2, 0.5)
    W = adapted_weight(Wstar, adp)
    cfg = PolyApproxConfig(gamma=0.5, degree=None, eps_target=1e-3)
    f_lr = approx_f_poly(inst, W, cfg)
    f_err = float(np.abs(f_lr.dense() - forward_f(inst, W)).max())
    pair = grad_from_f_factor(f_lr, inst, adp)
    exact = grad_adapters_special(inst, Wstar, adp)
    g_scale = 1.0 + max(
        float(np.abs(exact.GA).max()), float(np.abs(exact.GB).max())
    )
    g_err = max(
        float(np.abs(pair.GA - exact.GA).max()),
        float(np.abs(pair.GB - exact.GB).max()),
    )
    ok = f_err <= 1e-3 and g_err <= 1e-2 * g_scale
    report(
        4,
        "polynomial backend accuracy",
        ok,
        f"f err {f_err:.3e} (budget 1e-3), grad err {g_err:.3e} "
        f"(budget {1e-2 * g_scale:.3e}), rank {f_lr.k}",
        time.perf_counter() - t0,
        60,
    )


def test_criterion_5_cost_separation():
    t0 = time.perf_counter()
    L_list = [512, 1024, 2048, 4096, 8192]
    cfg = PolyApproxConfig(gamma=0.25, degree=None, eps_target=1e-3)
    result = bench_scaling(L_list, 4, 2, cfg, repeats=1, seed=0)
    exact_slope = result.slopes["exact"]
    approx_slope = result.slopes["approx"]

    L = L_list[-1]
    inst, adp, Wstar = gen_instance(55, L, 4, 2, 0.25)
    cfg_fix = PolyApproxConfig(gamma=0.25, degree=3, eps_target=1e-3)
    with instrument.recording() as tally:
        approx_grad_special(inst, Wstar, adp, cfg_fix)
    k3 = monomial_count(4, 3) * 8
    alloc_ok = tally.max_alloc <= max(L * k3, L * 4) and tally.max_alloc < L * L

    ok = (
        1.8 <= exact_slope <= 2.2
        and approx_slope <= 1.35
        and not result.skipped
        and alloc_ok
    )
    report(
        5,
        "quadratic vs almost-linear cost",
        ok,
        f"exact slope {exact_slope:.3f}, approx slope {approx_slope:.3f}, "
        f"approx max alloc {tally.max_alloc} at L={L} (L*L={L * L})",
        time.perf_counter() - t0,
        600,
    )


def test_criterion_6_norm_threshold():
    t0 = time.perf_counter()
    gammas = [0.25, 0.5, 1.0, 2.0, 4.0]
    result = sweep_gamma(gammas, 64, 4, 2, 1e-3, seed=3)
    f_errs = [row[3] for row in result.rows]
    flags = [row[5] for row in result.rows]
    nondecreasing = all(
        hi >= lo * (1.0 - 1e-9) for lo, hi in zip(f_errs[:-1], f_errs[1:])
    )
    growth = f_errs[3] / f_errs[0]
    ok = nondecreasing and growth >= 100.0 and any(flags)
    report(
        6,
        "norm-bound phase transition",
        ok,
        f"f errors {[f'{e:.3e}' for e in f_errs]}, growth x{growth:.3g}, "
        f"infeasible flags {flags}",
        time.perf_counter() - t0,
        120,
    )


def test_criterion_7_reduction_fidelity():
    t0 = time.perf_counter()
    ri = gen_reduction(7, 8, 2, 1.0)
    inst, adp = embed_attlgc(ri, 4)
    W = adapted_weight(np.zeros((4, 4)), adp)
    out_err = float(
        np.abs(forward_output(inst, W)[:, :2] - reduction_output(ri)).max()
    )
    pair = grad_adapters_special(inst, np.zeros((4, 4)), adp)
    fd = fd_grad(lambda X: reduction_loss(ri, X), ri.X)
    g_err = float(np.abs(pair.GA[:, :2] - fd).max()) / max(
        1.0, float(np.abs(fd).max())
    )
    ok = out_err <= 1e-10 and g_err <= 1e-5
    report(
        7,
        "reduction embedding fidelity",
        ok,
        f"output subblock err {out_err:.3e}, gradient rel err {g_err:.3e}",
        time.perf_counter() - t0,
        60,
    )


def test_criterion_8_structural_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    checked = 0
    ok = True
    detail = "all held"
    for trial in range(100):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        L = int(rng.integers(1, 11))
        k1 = int(rng.integers(1, 4))
        k2 = int(rng.integers(1, 4))

        X = rng.uniform(-1.0, 1.0, (m, n))
        if not np.array_equal(matrixize(vectorize(X), m, n), X):
            ok, detail = False, f"vec/mat round trip failed at trial {trial}"
            break

        A = rng.uniform(-1.0, 1.0, (L, k1))
        Bm = rng.uniform(-1.0, 1.0, (n, k1))
        W = rng.uniform(-1.0, 1.0, (k1, k1))
        lhs = vectorize(A @ W @ Bm.T)
        rhs = kronecker(A, Bm) @ vectorize(W)
        if np.abs(lhs - rhs).max() > 1e-12:
            ok, detail = False, f"tensor trick failed at trial {trial}"
            break

        perm = transpose_perm(m, n)
        if sorted(perm.tolist()) != list(range(m * n)):
            ok, detail = False, f"permutation not bijective at trial {trial}"
            break
        back = perm[transpose_perm(n, m)]
        if back.tolist() != list(range(m * n)):
            ok, detail = False, f"double transpose not identity at trial {trial}"
            break

        U1, V1 = rng.uniform(-1, 1, (L, k1)), rng.uniform(-1, 1, (L, k1))
        U2, V2 = rng.uniform(-1, 1, (L, k2)), rng.uniform(-1, 1, (L, k2))
        had_lhs = colwise_kronecker(U1, U2) @ colwise_kronecker(V1, V2).T
        had_rhs = (U1 @ V1.T) * (U2 @ V2.T)
        if np.abs(had_lhs - had_rhs).max() > 1e-12:
            ok, detail = False, f"Hadamard identity failed at trial {trial}"
            break

        S = rng.uniform(-3.0, 3.0, (L, L))
        f = softmax_rows(S)
        if np.abs(f.sum(axis=1) - 1.0).max() > 1e-12:
            ok, detail = False, f"softmax rows not normalized at trial {trial}"
            break
        checked += 1
    ok = ok and checked == 100
    report(
        8,
        "structural property battery",
        ok,
        f"{checked} random shape trials: {detail}",
        time.perf_counter() - t0,
        60,
    )
