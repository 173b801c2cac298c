"""Instance generation, scaling benchmarks, norm sweeps, and the embedding check.

Every problem here is an attention.AttentionInstance: gen_instance's at the
adapted weight, and gen_reduction's AttLGC reduction at its own weight X, so
attention.forward_output and attention.loss are the one forward pass and
loss of both. embed_attlgc pads the reduction into a LoRA problem of a
larger head dimension.

Everything here is driven by a single integer seed through numpy's
default_rng (PCG64); per-point sub-streams come from SeedSequence.spawn so
results are reproducible run to run and independent of evaluation order.
Benchmark tables use the analytic multiply-add counts from the instrument
module as the primary scaling metric; wall times are recorded but noisy at
desk scale.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import instrument
from .attention import AttentionInstance, LoraAdapter, adapted_weight, forward_f
from .errors import (
    ApproxBreakdownError,
    DimensionError,
    SizeGuardError,
    as_matrix,
    check_positive_finite,
)
from .exact import grad_adapters_special
from .instrument import loglog_slope
from .lowrank import (
    PolyApproxConfig,
    approx_f_poly,
    approx_grad_special,
    grad_from_f_factor,
    monomial_count,
    select_degree,
)

BENCH_HEADER = ("L", "path", "wall_ns", "ops", "slope")
SWEEP_HEADER = ("gamma", "degree", "rank_k1", "f_err", "grad_err", "infeasible")


@dataclass
class SweepResult:
    """A CSV-shaped result table: fixed header, one tuple per row.

    slopes carries the per-path log-log exponents for benchmark tables and
    is None for gamma sweeps; skipped lists points the size guard refused.
    """

    header: tuple
    rows: list
    slopes: dict | None = None
    skipped: list = field(default_factory=list)

    def csv_text(self):
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(x) for x in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.csv_text())


def _csv_cell(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def gen_instance(seed, L, d, r, gamma_target):
    """Seeded random instance with both norm preconditions tight at gamma.

    Draw order is fixed (C1, C2, C3, Y, Wstar, B, A, all standard normal);
    C1 and C2 are then rescaled so the measured infinity norms of C1 @ W and
    C2 equal gamma_target exactly, where W is the adapted weight. The
    adapter uses alpha = r, so the update enters with scale one.
    """
    if L < 1 or d < 1 or not 1 <= r <= d:
        raise DimensionError(f"invalid sizes L={L}, d={d}, r={r}")
    check_positive_finite("gamma_target", gamma_target)
    rng = np.random.default_rng(seed)
    C1 = rng.standard_normal((L, d))
    C2 = rng.standard_normal((L, d))
    C3 = rng.standard_normal((L, d))
    Y = rng.standard_normal((L, d))
    Wstar = rng.standard_normal((d, d))
    B = rng.standard_normal((d, r))
    A = rng.standard_normal((r, d))
    adp = LoraAdapter(B=B, A=A, r=r, alpha=float(r))
    W = adapted_weight(Wstar, adp)
    C1 *= gamma_target / np.abs(C1 @ W).max()
    C2 *= gamma_target / np.abs(C2).max()
    inst = AttentionInstance(C1=C1, C2=C2, C3=C3, Y=Y)
    return inst, adp, Wstar


def gen_reduction(seed, L, r_red, b_bound):
    """Seeded AttLGC reduction instance as (inst, X), both norms tight at b_bound.

    The reduction's four L x r_red matrices (A1, A2, A3, E) and its r_red x
    r_red weight X (Alman & Song 2024) are an attention problem at W = X:

        C1 = A1,   C2 = A2 / r_red,   C3 = A3,   Y = E = 0,

    so f(X) = rownorm(exp(A1 @ X @ A2.T / r_red)) and attention.forward_output
    and attention.loss are its forward pass and loss. Draw order is fixed
    (A1, A2, A3, X, all standard normal); A1 and A2 are then rescaled so that
    ||A1 @ X||_inf = ||A2||_inf = b_bound exactly.
    """
    if L < 1 or r_red < 1:
        raise DimensionError(f"invalid sizes L={L}, r_red={r_red}")
    check_positive_finite("b_bound", b_bound)
    rng = np.random.default_rng(seed)
    A1 = rng.standard_normal((L, r_red))
    A2 = rng.standard_normal((L, r_red))
    A3 = rng.standard_normal((L, r_red))
    X = rng.standard_normal((r_red, r_red))
    A1 *= b_bound / np.abs(A1 @ X).max()
    A2 *= b_bound / np.abs(A2).max()
    inst = AttentionInstance(C1=A1, C2=A2 / r_red, C3=A3, Y=np.zeros((L, r_red)))
    return inst, X


def embed_attlgc(inst, X, d):
    """Embed the reduction instance (inst, X) into head dimension d >= r.

    Each of C1, C2, C3 and Y gains d - r zero columns; the adapter is
    B = [I_r; 0], A = [X | 0] with scale one, so C1 @ B @ A @ C2.T
    reproduces inst's scores at W = X exactly and the upper L x r block of
    the attention output equals forward_output(inst, X). The padded C3
    columns are zero, so the residual's trailing columns vanish and the
    losses agree entry for entry; the gradient with respect to X is the
    leading r columns of the adapter's A-gradient.
    """
    r = inst.d
    if r > d:
        raise DimensionError(f"cannot embed r_red={r} into head dimension d={d}")
    X = as_matrix(X, "X", (r, r))
    pad = np.zeros((inst.L, d - r))
    padded = {n: np.hstack([getattr(inst, n), pad]) for n in ("C1", "C2", "C3", "Y")}
    B = np.vstack([np.eye(r), np.zeros((d - r, r))])
    A = np.hstack([X, np.zeros((r, d - r))])
    return AttentionInstance(**padded), LoraAdapter(B=B, A=A, r=r, alpha=float(r))


def bench_scaling(L_list, d, r, cfg, repeats=3, seed=0):
    """Exact vs factored cost over a list of sequence lengths.

    Per L and path: the instrumented multiply-add count (identical across
    repeats) and the median wall time. The log-log slope of ops against L
    is fitted per path and repeated in every row of that path; it is NaN for
    a path whose points cover fewer than two distinct sizes. Points the size
    guard refuses, on either path, are recorded in result.skipped.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if len(set(L_list)) < 2:
        raise ValueError(f"need at least two distinct sizes L, got {list(L_list)}")
    streams = np.random.SeedSequence(seed).spawn(len(L_list))
    per_path = {"exact": [], "approx": []}
    skipped = []
    for L, stream in zip(L_list, streams):
        inst, adp, Wstar = gen_instance(stream, L, d, r, cfg.gamma)
        runs = {
            "exact": lambda: grad_adapters_special(inst, Wstar, adp),
            "approx": lambda: approx_grad_special(inst, Wstar, adp, cfg),
        }
        for path, fn in runs.items():
            walls = []
            ops = None
            try:
                for _ in range(repeats):
                    with instrument.recording() as tally:
                        t0 = time.perf_counter_ns()
                        fn()
                        walls.append(time.perf_counter_ns() - t0)
                    ops = tally.madds
            except SizeGuardError:
                skipped.append((L, path))
                continue
            walls.sort()
            per_path[path].append((L, walls[len(walls) // 2], ops))
    rows = []
    slopes = {}
    for path in ("exact", "approx"):
        pts = per_path[path]
        if len({p[0] for p in pts}) >= 2:
            slopes[path] = loglog_slope([p[0] for p in pts], [p[2] for p in pts])
        else:
            slopes[path] = float("nan")
        for L, wall, ops in pts:
            rows.append((L, path, wall, ops, slopes[path]))
    return SweepResult(header=BENCH_HEADER, rows=rows, slopes=slopes, skipped=skipped)


def sweep_gamma(gamma_list, L, d, r, eps_target, seed=0):
    """Fixed-degree error growth and adaptive-degree rank demand across gamma.

    The polynomial degree is frozen at the value the first gamma in the list
    requires, so later columns show that degree degrading as the norm bound
    grows. Per gamma the row carries the degree and monomial count the
    adaptive rule would demand, with the infeasibility flag set when that
    count exceeds L; a normalizer breakdown at the fixed degree records
    infinite errors in the row.
    """
    if not gamma_list:
        raise ValueError("gamma_list must not be empty")
    g_fix = select_degree(
        PolyApproxConfig(gamma=gamma_list[0], degree=None, eps_target=eps_target), d
    )
    streams = np.random.SeedSequence(seed).spawn(len(gamma_list))
    rows = []
    for gamma, stream in zip(gamma_list, streams):
        inst, adp, Wstar = gen_instance(stream, L, d, r, gamma)
        W = adapted_weight(Wstar, adp)
        g_req = select_degree(
            PolyApproxConfig(gamma=gamma, degree=None, eps_target=eps_target), d
        )
        k1_req = monomial_count(d, g_req)
        infeasible = k1_req > L
        cfg = PolyApproxConfig(gamma=gamma, degree=g_fix, eps_target=eps_target)
        f_exact = forward_f(inst, W)
        exact_pair = grad_adapters_special(inst, Wstar, adp)
        try:
            f_lr = approx_f_poly(inst, W, cfg)
            f_err = float(np.abs(f_lr.dense() - f_exact).max())
            approx_pair = grad_from_f_factor(f_lr, inst, adp)
            grad_err = max(
                float(np.abs(approx_pair.GA - exact_pair.GA).max()),
                float(np.abs(approx_pair.GB - exact_pair.GB).max()),
            )
        except ApproxBreakdownError:
            f_err = float("inf")
            grad_err = float("inf")
        rows.append((gamma, g_req, k1_req, f_err, grad_err, infeasible))
    return SweepResult(header=SWEEP_HEADER, rows=rows)
