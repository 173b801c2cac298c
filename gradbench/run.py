"""Gradient-cost benchmark of lora_kernels, measured from outside the library.

    python3 gradbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One workload per run, driven by a single client in a closed loop: the next
gradient call starts only after the previous one returns. Set-up and the
cold first call are measured in fresh processes (see probe.py), run in
blocks between the blocks of the timed loop so that both sample the machine
over the same span of time. Timing is taken with tracing off, and every run
compares a sample of its gradients with an exact row-blocked reference
outside the timed phase.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-stage metrics of a traced run, which wraps the
library's stage functions (tracer.py) and alternates its blocks with
untraced blocks of the same length, so the tracing overhead is reported
alongside. Every metric is also printed on its own line with its unit,
after one line that records the environment.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402
from lora_kernels import LoraKernelsError  # noqa: E402

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
# Set-up is measured in fresh processes for this many seconds in all, and
# at least MIN_PROBES times: a single cold call varies by +-25% from one
# process to the next on a shared 2-core machine. The probes and the timed
# loop alternate in ROUNDS blocks each, since load from other tenants comes
# and goes over seconds, and one block of probes can fall into a busy spell.
# A traced run alternates its untraced and traced blocks the same way.
PROBE_SECONDS = 12.0
MIN_PROBES = 16
ROUNDS = 4
PROBE_TIMEOUT_S = 60
# The tail is the highest percentile with at least this many samples beyond.
TAIL_BEYOND = 10
# Rows of f on which eps_slack compares the factored and the exact softmax.
SLACK_ROWS = 64
# Time of the traced calls, by the loop's own clock, that may fall outside
# every span: the tracer's bookkeeping around each root span, which is about
# 50 us a call, plus a share of the whole for stray pauses.
TRACE_CLOCK_TOL = 0.02
TRACE_CLOCK_MS = 0.1
F64_BYTES = 8

END_TO_END = {
    "setup_s": "s",
    "first_grad_ms": "ms",
    "grad_ms_p50": "ms",
    "grad_ms_tail": "ms",
    "grads_per_s": "1/s",
    "peak_mib": "MiB",
    "madds_per_grad": "count",
}
STAGE_UNITS = {"ms": "ms", "madds": "count", "peak_mib": "MiB", "out_mib": "MiB"}
STAGES = [name for _, _, name in tracer.STAGES if name != "harness.gen_instance"]
STAGES += ["lowrank.top", "exact.top"]
PER_LAYER = {
    **{f"{st}.{k}": u for st in STAGES for k, u in STAGE_UNITS.items()},
    "harness.gen_instance.ms": "ms",
    "lowrank.k1": "count",
    "lowrank.degree": "count",
    "lowrank.eps_slack": "ratio",
    "lowrank.peak_ratio": "ratio",
    "exact.peak_ratio": "ratio",
    "trace.grad_ms_p50": "ms",
    "trace.untraced_ms_p50": "ms",
    "trace.overhead_pct": "%",
}


@dataclasses.dataclass
class Call:
    seed: np.random.SeedSequence
    ms: float
    grads: list | None


@dataclasses.dataclass
class Loop:
    calls: list = dataclasses.field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ms(self):
        return [c.ms for c in self.calls if c.grads is not None]

    def add(self, block):
        self.calls += block.calls
        self.wall_s += block.wall_s


def closed_loop(s, seconds, trace=None):
    """Call the workload's gradient back to back for the given seconds.

    Per-call inputs are built between calls, outside the timed interval.
    A call that raises a library error is kept with grads=None.
    """
    calls = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        seed = s.next_seed()
        inp = s.inputs(seed)
        t0 = time.perf_counter()
        try:
            grads = s.grad(inp) if trace is None else trace.call(s.wl.top, s.grad, inp)
        except LoraKernelsError:
            grads = None
        t1 = time.perf_counter()
        calls.append(Call(seed, (t1 - t0) * 1e3, grads))
        if t1 >= deadline:
            return Loop(calls, time.perf_counter() - start)


def check(s, calls):
    """Failed-call count and the worst relative error of the checked calls.

    Every call's gradients must be finite; wl.checks calls spread evenly over
    the run are also compared with the exact reference, and one that misses
    the workload's tolerance counts as failed.
    """
    ok = [
        c for c in calls
        if c.grads is not None and all(np.isfinite(g).all() for g in c.grads)
    ]
    failed = len(calls) - len(ok)
    n = min(s.wl.checks, len(ok))
    picks = sorted({round(i * (len(ok) - 1) / max(n - 1, 1)) for i in range(n)})
    worst = 0.0
    for i in picks:
        err = reference.rel_err(ok[i].grads, s.reference(s.inputs(ok[i].seed)))
        worst = max(worst, err)
        failed += not err <= s.wl.tol
    return failed, worst, len(picks)


def tail(ms):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum, at percentile 100, when there are too few."""
    xs = sorted(ms)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = n - 1 - TAIL_BEYOND
    return xs[k], 100.0 * k / (n - 1)


def probe(wl, seed):
    """Set-up timings of one fresh process (probe.py)."""
    cmd = [sys.executable, str(HERE / "probe.py"), json.dumps(dataclasses.asdict(wl)), str(seed)]
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True, cwd=bootstrap.ROOT,
        )
    except subprocess.CalledProcessError as err:
        sys.exit(f"gradbench: set-up probe failed:\n{err.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def memory_call(s):
    """One gradient call under tracemalloc, stages wrapped, outside any loop."""
    mem = tracer.Tracer(memory=True)
    tracemalloc.start()
    try:
        with mem:
            mem.call(s.wl.top, s.grad, s.warm)
    finally:
        tracemalloc.stop()
    root = next(sp for sp in mem.spans if sp.parent is None)
    return mem, root


def probe_block(wl, seed):
    """One round's share of the set-up probes."""
    probes = []
    deadline = time.perf_counter() + PROBE_SECONDS / ROUNDS
    while len(probes) < MIN_PROBES / ROUNDS or time.perf_counter() < deadline:
        probes.append(probe(wl, seed))
    return probes


def timed_run(wl, seed, seconds):
    s = workloads.setup(wl, seed)
    root = memory_call(s)[1]  # also the warm-up
    probes, loop = [], Loop()
    for _ in range(ROUNDS):
        probes += probe_block(wl, seed)
        loop.add(closed_loop(s, seconds / ROUNDS))
    failed, err, checked = check(s, loop.calls)
    ms = loop.ms
    tail_ms, tail_pct = tail(ms)
    metrics = {
        "setup_s": statistics.median(p["import_s"] + p["gen_s"] + p["first_s"] for p in probes),
        "first_grad_ms": statistics.median(p["first_s"] for p in probes) * 1e3,
        "grad_ms_p50": statistics.median(ms),
        "grad_ms_tail": tail_ms,
        "grads_per_s": len(ms) / loop.wall_s,
        "peak_mib": root.peak_bytes / tracer.MIB,
        "madds_per_grad": root.madds,
    }
    info = {
        "setup_probes": (len(probes), "count"),
        "grad_ms_tail_pct": (tail_pct, "%"),
        "grad_samples": (len(ms), "count"),
        "grad_rel_err": (err, "ratio"),
        "grads_checked": (checked, "count"),
        "fail_frac": (failed / len(loop.calls), "ratio"),
    }
    return metrics, END_TO_END, info, len(loop.calls), failed


def eps_slack(factors, rng):
    """eps_target over the largest f error on sampled rows, worst factor."""
    slack = math.inf
    for args, f_lr in factors:
        inst, W = args[0], args[1]
        rows = rng.choice(inst.L, size=min(SLACK_ROWS, inst.L), replace=False)
        S = (inst.C1[rows] @ W) @ inst.C2.T
        f = np.exp(S - S.max(axis=1, keepdims=True))
        f /= f.sum(axis=1, keepdims=True)
        err = float(np.abs(f_lr.U[rows] @ f_lr.V.T - f).max())
        slack = min(slack, workloads.EPS_TARGET / err)
    return slack


def degree_of(k1, d=workloads.D):
    """Polynomial degree g whose monomial count C(d+g, g) is k1."""
    g = 0
    while math.comb(d + g, g) < k1:
        g += 1
    return g


def trace_clock(spans, calls):
    """Checked (self ms, loop ms, stage share) of the traced calls.

    Self times add up to the root spans by definition, so the check compares
    the root spans with the closed loop's own clock of the same calls: each
    root span must lie inside its call's interval, and the time outside all
    spans must stay under TRACE_CLOCK_MS a call plus TRACE_CLOCK_TOL of the
    total. Every child span must lie inside its parent. The stage share is
    the part of the loop's time that the stages below the top-level call
    account for.
    """
    ok = [c for c in calls if c.grads is not None]
    roots = [sp for sp in spans if sp.parent is None]
    tracer.check_nesting(spans)
    own = tracer.self_times(spans)
    done = {sp.call for sp in roots}
    self_ms = sum(own[sp.id][0] for sp in spans if sp.call in done)
    top_ms = sum(own[sp.id][0] for sp in roots)
    loop_ms = sum(c.ms for c in ok)
    if (
        len(roots) != len(ok)
        or any(sp.ms > c.ms for sp, c in zip(roots, ok))
        or loop_ms - self_ms > TRACE_CLOCK_MS * len(ok) + TRACE_CLOCK_TOL * loop_ms
    ):
        raise ValueError(
            f"{len(roots)} root spans with self times summing to {self_ms} ms "
            f"against {len(ok)} calls taking {loop_ms} ms"
        )
    return self_ms, loop_ms, (self_ms - top_ms) / loop_ms


def traced_run(wl, seed, seconds):
    trace = tracer.Tracer()
    with trace:
        s = workloads.setup(wl, seed)
    gen = tracer.stage_table(trace.spans).get("harness.gen_instance", {"ms": 0.0})
    s.grad(s.warm)
    mark = len(trace.spans)
    plain, traced = Loop(), Loop()
    for _ in range(ROUNDS):
        plain.add(closed_loop(s, seconds / 2 / ROUNDS))
        with trace:
            traced.add(closed_loop(s, seconds / 2 / ROUNDS, trace))
    spans = trace.spans[mark:]
    mem, root = memory_call(s)
    failed, err, _ = check(s, plain.calls + traced.calls)

    try:
        self_ms, call_ms, share = trace_clock(spans, traced.calls)
    except ValueError as exc:
        sys.exit(f"gradbench: inconsistent trace: {exc}")
    table = tracer.stage_table(spans)
    peaks = tracer.stage_table(mem.spans)
    metrics = {}
    for st in STAGES:
        row = table.get(st, {})
        metrics[f"{st}.ms"] = row.get("ms", 0.0)
        metrics[f"{st}.madds"] = row.get("madds", 0)
        metrics[f"{st}.out_mib"] = row.get("out_mib", 0.0)
        metrics[f"{st}.peak_mib"] = peaks.get(st, {}).get("peak_mib", 0.0)
    k1 = max((f_lr.U.shape[1] for _, f_lr in mem.factors), default=0)
    ratio = root.peak_bytes / (root.max_alloc * F64_BYTES) if root.max_alloc else 0.0
    traced_p50 = statistics.median(traced.ms)
    plain_p50 = statistics.median(plain.ms)
    metrics.update({
        "harness.gen_instance.ms": gen["ms"],
        "lowrank.k1": k1,
        "lowrank.degree": degree_of(k1) if k1 else 0,
        "lowrank.eps_slack": (
            eps_slack(mem.factors, np.random.default_rng(seed)) if mem.factors else 0.0
        ),
        "lowrank.peak_ratio": ratio if wl.top == "lowrank.top" else 0.0,
        "exact.peak_ratio": ratio if wl.top == "exact.top" else 0.0,
        "trace.grad_ms_p50": traced_p50,
        "trace.untraced_ms_p50": plain_p50,
        "trace.overhead_pct": 100.0 * (traced_p50 / plain_p50 - 1.0),
    })
    info = {
        "trace.self_ms_sum": (self_ms, "ms"),
        "trace.call_ms_sum": (call_ms, "ms"),
        "trace.stage_share": (share, "ratio"),
        "grad_rel_err": (err, "ratio"),
    }
    attempted = len(plain.calls) + len(traced.calls)
    info["fail_frac"] = (failed / attempted, "ratio")
    write_spans(wl, seed, {"traced": trace.spans, "memory": mem.spans})
    return metrics, PER_LAYER, info, attempted, failed


def write_spans(wl, seed, groups):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    data = {k: [sp.record() for sp in spans] for k, spans in groups.items()}
    (out / f"spans-{wl.name}-{seed}.json").write_text(json.dumps(data))


def git_sha(root=bootstrap.ROOT):
    """HEAD's commit, or "unavailable" outside a git checkout.

    The search for a repository stops at the checkout's root, so a checkout
    that is not itself a repository never reports an enclosing one.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": bootstrap.BLAS_THREADS if bootstrap.PINNED else "unpinned",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    metrics, units, info, attempted, failed = run(wl, args.seed, args.seconds)

    print(f"gradbench: env {json.dumps(environment())}")
    for name, value in metrics.items():
        print(f"gradbench: {name} = {value} {units[name]}")
    for name, (value, unit) in info.items():
        print(f"gradbench: {name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
