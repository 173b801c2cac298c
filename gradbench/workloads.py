"""The benchmark's workloads: their sizes, seeded inputs, and the call each times.

Every workload uses d=4, r=2, eps_target=1e-3 and float64. All inputs derive
from the workload seed: SeedSequence(seed) spawns the instance stream, the
warm-up stream and the parent of the per-call streams, and each timed call
takes the next child of that parent.
"""

from dataclasses import dataclass, field

import numpy as np
from lora_kernels import exact, harness, lowrank
from lora_kernels.attention import GeneralInstance, LoraAdapter

import reference

D, R, EPS_TARGET = 4, 2, 1e-3
# Train instances are generated with their norms at this share of gamma; the
# bounded per-step adapter noise moves C1 @ W by far less than the gap.
NORM_MARGIN = 0.8
STEP_NOISE = 1e-3
# Criterion 4's gradient tolerance for the approximate paths; the exact path
# must meet criterion 1's oracle tolerance.
APPROX_TOL = 1e-2
EXACT_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    path is "approx-special", "approx-general" or "exact-special". The
    special paths run a training loop on one frozen instance; the general
    path gets a fresh instance and adapter pair on every call. checks is the
    number of timed calls whose gradients are compared with the reference.
    """

    name: str
    path: str
    L: int
    gamma: float
    checks: int

    @property
    def fresh(self):
        return self.path == "approx-general"

    @property
    def top(self):
        """Span name of the whole gradient call."""
        return "exact.top" if self.path == "exact-special" else "lowrank.top"

    @property
    def tol(self):
        return EXACT_TOL if self.path == "exact-special" else APPROX_TOL


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("train-approx-L16k", "approx-special", 16384, 0.25, checks=2),
        Workload("fresh-general-L4k", "approx-general", 4096, 0.5, checks=4),
        Workload("train-exact-L2k", "exact-special", 2048, 0.25, checks=4),
    )
}


def gen_general(seed, L, d, r, gamma):
    """Seeded two-sided instance whose checked norms sit at gamma.

    The approximate path checks |XQ WQ| and |XK WK| on the query side and
    |XQ WQ WK.T| and |XK| on the key side. Scaling XQ, XK and the key weight
    puts |XQ WQ|, |XK| and the larger of the other two exactly at gamma;
    the fourth sits at or below it.
    """
    rng = np.random.default_rng(seed)
    XQ, XK, XV, Y = (rng.standard_normal((L, d)) for _ in range(4))
    WQstar, WKstar, WVstar = (rng.standard_normal((d, d)) for _ in range(3))
    BQ, BK = rng.standard_normal((d, r)), rng.standard_normal((d, r))
    AQ, AK = rng.standard_normal((r, d)), rng.standard_normal((r, d))
    WQ = WQstar + BQ @ AQ
    XQ *= gamma / np.abs(XQ @ WQ).max()
    XK *= gamma / np.abs(XK).max()
    WK = WKstar + BK @ AK
    s = gamma / max(np.abs(XK @ WK).max(), np.abs(XQ @ WQ @ WK.T).max())
    WKstar *= s
    BK *= s
    g = GeneralInstance(
        XQ=XQ, XK=XK, XV=XV, WQstar=WQstar, WKstar=WKstar, WVstar=WVstar, Y=Y
    )
    adpQ = LoraAdapter(B=BQ, A=AQ, r=r, alpha=float(r))
    adpK = LoraAdapter(B=BK, A=AK, r=r, alpha=float(r))
    return g, adpQ, adpK


@dataclass
class Setup:
    """A workload's frozen inputs and the stream its per-call inputs come from."""

    wl: Workload
    stream: np.random.SeedSequence
    cfg: lowrank.PolyApproxConfig
    base: tuple | None = None
    warm: tuple = field(default=())

    def inputs(self, seed):
        """Inputs of one gradient call, derived from seed alone."""
        wl = self.wl
        if wl.fresh:
            return gen_general(seed, wl.L, D, R, wl.gamma)
        inst, adp, Wstar = self.base
        rng = np.random.default_rng(seed)
        step = LoraAdapter(
            B=adp.B + rng.uniform(-STEP_NOISE, STEP_NOISE, adp.B.shape),
            A=adp.A + rng.uniform(-STEP_NOISE, STEP_NOISE, adp.A.shape),
            r=adp.r,
            alpha=adp.alpha,
        )
        return inst, step, Wstar

    def next_seed(self):
        return self.stream.spawn(1)[0]

    def grad(self, inp):
        """The library call under test; returns its gradients as a list."""
        if self.wl.path == "approx-general":
            pq, pk = lowrank.approx_grad_general(*inp, self.cfg)
            return [pq.GA, pq.GB, pk.GA, pk.GB]
        inst, adp, Wstar = inp
        if self.wl.path == "approx-special":
            pair = lowrank.approx_grad_special(inst, Wstar, adp, self.cfg)
        else:
            pair = exact.grad_adapters_special(inst, Wstar, adp)
        return [pair.GA, pair.GB]

    def reference(self, inp):
        if self.wl.fresh:
            return reference.general_grads(*inp)
        inst, adp, Wstar = inp
        return reference.special_grads(inst, Wstar, adp)


def setup(wl, seed):
    """Build the workload's frozen instance and its warm-up inputs."""
    inst_seed, warm_seed, stream = np.random.SeedSequence(seed).spawn(3)
    cfg = lowrank.PolyApproxConfig(gamma=wl.gamma, degree=None, eps_target=EPS_TARGET)
    s = Setup(wl=wl, stream=stream, cfg=cfg)
    if not wl.fresh:
        s.base = harness.gen_instance(inst_seed, wl.L, D, R, NORM_MARGIN * wl.gamma)
    s.warm = s.inputs(warm_seed)
    return s
