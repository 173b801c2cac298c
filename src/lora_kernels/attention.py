"""Softmax attention forward pass and its residual/score intermediates.

The central object is a single-layer attention regression problem built from
four L x d constants:

    f(W) = rownorm(exp(C1 @ W @ C2.T))        row-stochastic, L x L
    loss(W) = 0.5 * || f(W) @ C3 - Y ||_F^2

with W = Wbar + B @ A a rank-r update of a frozen d x d weight. In the
query-side special case C1 absorbs the adapter scale alpha/r and Wbar is the
correspondingly rescaled frozen weight (r/alpha) * Wstar, so the trainable
part enters as a plain product B @ A.

Orientation conventions, used consistently everywhere downstream:

* f rows are the softmax rows: f[j, :] is the attention distribution of
  query j.
* c = f @ C3 - Y is the L x d residual.
* q = C3 @ c.T is L x L with COLUMN j paired with softmax row j:
  q[l, j] = <C3[l, :], c[j, :]>. q is stored column-major (built as
  (c @ C3.T).T), so column j is contiguous, and so is the elementwise pass
  against f.T that turns q into p.
* r[j] = <f[j, :], q[:, j]> = <c[j, :] + Y[j, :], c[j, :]> is the
  softmax-Jacobian row dot (softmax_dots).
"""

import os
from dataclasses import dataclass

import numpy as np

from . import instrument
from .errors import (
    DimensionError,
    ScoreOverflowError,
    SizeGuardError,
    as_matrix,
    check_positive_finite,
)

# Largest |score| exp can take in float64 before overflowing to inf.
SCORE_LIMIT = 709.78

# Default ceiling on L for any code path that materializes an L x L array.
DEFAULT_GUARD_L = 2**14
GUARD_ENV_VAR = "LORA_KERNELS_GUARD_L"


def guard_limit():
    """Current L ceiling for dense L x L materialization."""
    raw = os.environ.get(GUARD_ENV_VAR)
    if raw is None:
        return DEFAULT_GUARD_L
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{GUARD_ENV_VAR} must be an integer, got {raw!r}")


def check_dense_guard(L):
    limit = guard_limit()
    if L > limit:
        raise SizeGuardError(
            f"refusing to materialize an {L} x {L} matrix; the dense-path "
            f"guard is {limit} (override via {GUARD_ENV_VAR})"
        )


@dataclass(frozen=True)
class AttentionInstance:
    """Constants (C1, C2, C3, Y) of one attention regression problem."""

    C1: np.ndarray
    C2: np.ndarray
    C3: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "C1", as_matrix(self.C1, "C1"))
        object.__setattr__(self, "C2", as_matrix(self.C2, "C2"))
        object.__setattr__(self, "C3", as_matrix(self.C3, "C3"))
        object.__setattr__(self, "Y", as_matrix(self.Y, "Y"))
        L, d = self.C1.shape
        if L < 1 or d < 1:
            raise DimensionError("instance needs L >= 1 and d >= 1")
        for name in ("C2", "C3", "Y"):
            if getattr(self, name).shape != (L, d):
                raise DimensionError(
                    f"{name} has shape {getattr(self, name).shape}, "
                    f"expected {(L, d)}"
                )

    @property
    def L(self):
        return self.C1.shape[0]

    @property
    def d(self):
        return self.C1.shape[1]


@dataclass(frozen=True)
class LoraAdapter:
    """Low-rank update W = Wbar + B @ A with nominal scale alpha/r."""

    B: np.ndarray
    A: np.ndarray
    r: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "B", as_matrix(self.B, "B"))
        object.__setattr__(self, "A", as_matrix(self.A, "A"))
        d = self.B.shape[0]
        if self.B.shape != (d, self.r) or self.A.shape != (self.r, d):
            raise DimensionError(
                f"adapter shapes B{self.B.shape} / A{self.A.shape} do not "
                f"match rank r={self.r}"
            )
        if not 1 <= self.r <= d:
            raise DimensionError(f"rank r={self.r} must satisfy 1 <= r <= d={d}")
        check_positive_finite("alpha", self.alpha)

    @property
    def d(self):
        return self.B.shape[0]

    @property
    def scale(self):
        return self.alpha / self.r

    def delta(self):
        """The trainable update B @ A (unscaled)."""
        return self.B @ self.A


def adapted_weight(Wstar, adp):
    """W = (r/alpha) * Wstar + B @ A, the weight the special-case loss sees.

    The alpha/r factor lives inside C1, so the frozen weight is divided by it
    here and the adapter product enters unscaled.
    """
    Wstar = as_matrix(Wstar, "Wstar")
    d = adp.d
    if Wstar.shape != (d, d):
        raise DimensionError(f"Wstar must be {d} x {d}, got {Wstar.shape}")
    return (adp.r / adp.alpha) * Wstar + adp.B @ adp.A


def _score_matrix(left, right):
    """S = left @ right.T, refused past the dense guard or outside exp's range.

    The range check reads S.max() and S.min(), so it builds no |S| array.
    """
    check_dense_guard(left.shape[0])
    S = left @ right.T
    max_abs = max(float(S.max()), -float(S.min())) if S.size else 0.0
    if max_abs > SCORE_LIMIT:
        raise ScoreOverflowError(max_abs, SCORE_LIMIT)
    return S


def scores(inst, W):
    """S = C1 @ W @ C2.T, refusing entries outside exp's float64 range."""
    W = as_matrix(W, "W")
    d = inst.d
    if W.shape != (d, d):
        raise DimensionError(f"W must be {d} x {d}, got {W.shape}")
    S = _score_matrix(inst.C1 @ W, inst.C2)
    instrument.count_matmul(inst.L, d, d)
    instrument.count_matmul(inst.L, d, inst.L)
    instrument.alloc(S.size)
    return S


def softmax_rows(S, out=None):
    """Row-stochastic matrix from raw scores, stabilized by row-max shifts.

    The shift, exp and normalization run in place in out, which may be S
    itself. Without out, a new array is returned and S is left unchanged.
    """
    f = np.subtract(S, S.max(axis=1, keepdims=True), out=out, dtype=float)
    np.exp(f, out=f)
    f *= 1.0 / f.sum(axis=1, keepdims=True)
    instrument.count(4 * S.size)
    instrument.alloc(f.size)
    return f


def forward_f(inst, W):
    """Attention matrix f(W), rows summing to one, built in the score buffer."""
    S = scores(inst, W)
    return softmax_rows(S, out=S)


def forward_output(inst, W):
    """Attention output f(W) @ C3, shape L x d."""
    f = forward_f(inst, W)
    out = f @ inst.C3
    instrument.count_matmul(inst.L, inst.L, inst.d)
    return out


def residual_from_f(f, inst):
    """c = f @ C3 - Y for an already computed attention matrix."""
    c = f @ inst.C3 - inst.Y
    instrument.count_matmul(inst.L, inst.L, inst.d)
    instrument.count(c.size)
    return c


def q_from_c(c, inst):
    """q = C3 @ c.T for an already computed residual, stored column-major."""
    check_dense_guard(inst.L)
    q = (c @ inst.C3.T).T
    instrument.count_matmul(inst.L, inst.d, inst.L)
    instrument.alloc(q.size)
    return q


def softmax_dots(c, Y):
    """Softmax-Jacobian row dots r_j = <f_j, q_j> = <c_j + Y_j, c_j>, O(L d).

    With q = C3 @ c.T, <f_j, q_j> = <(f @ C3)_j, c_j> for any f, factored too.
    """
    r = ((c + Y) * c).sum(axis=1)
    instrument.count(2 * c.size)
    return r


def residual_c(inst, W):
    """c = f(W) @ C3 - Y, the L x d regression residual."""
    return residual_from_f(forward_f(inst, W), inst)


def loss(inst, W):
    """0.5 * squared Frobenius norm of the residual at weight W."""
    c = residual_c(inst, W)
    instrument.count(c.size)
    return 0.5 * float((c * c).sum())


@dataclass(frozen=True)
class GeneralInstance:
    """Raw cross-attention problem before constants are composed.

    XQ, XK, XV are L x d token matrices; WQstar, WKstar, WVstar are frozen
    d x d projections; Y is the L x d regression target.
    """

    XQ: np.ndarray
    XK: np.ndarray
    XV: np.ndarray
    WQstar: np.ndarray
    WKstar: np.ndarray
    WVstar: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        for name in ("XQ", "XK", "XV", "WQstar", "WKstar", "WVstar", "Y"):
            object.__setattr__(self, name, as_matrix(getattr(self, name), name))
        L, d = self.XQ.shape
        for name in ("XK", "XV", "Y"):
            if getattr(self, name).shape != (L, d):
                raise DimensionError(f"{name} must be {(L, d)}")
        for name in ("WQstar", "WKstar", "WVstar"):
            if getattr(self, name).shape != (d, d):
                raise DimensionError(f"{name} must be {(d, d)}")

    @property
    def L(self):
        return self.XQ.shape[0]

    @property
    def d(self):
        return self.XQ.shape[1]


def compose_special_constants(g, alpha, r, adapter_v=None):
    """Collapse a raw instance to the query-side special case.

    C1 = XQ * (alpha/r), C2 = XK @ WKstar, C3 = XV @ WV where WV is WVstar,
    or WVstar plus the supplied value adapter's scaled update when one is
    given. The key and value weights are frozen at these values; only the
    query weight stays trainable through the returned instance.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    check_positive_finite("alpha", alpha)
    WV = g.WVstar
    if adapter_v is not None:
        if adapter_v.d != g.d:
            raise DimensionError("value adapter dimension does not match")
        WV = WV + adapter_v.scale * adapter_v.delta()
    return AttentionInstance(
        C1=g.XQ * (alpha / r),
        C2=g.XK @ g.WKstar,
        C3=g.XV @ WV,
        Y=g.Y,
    )


def adapted_general_weights(g, adpQ, adpK):
    """Effective (WQ, WK): the query side folds alpha/r, the key side does not."""
    if adpQ.d != g.d or adpK.d != g.d:
        raise DimensionError("adapter dimension does not match the instance")
    WQ = g.WQstar + adpQ.scale * adpQ.delta()
    WK = g.WKstar + adpK.delta()
    return WQ, WK


def compose_general_constants(g, adpQ, adpK):
    """The two special-case problems (instance, weight) of the two-sided problem.

    Both factor the one score matrix S = XQ @ WQ @ WK.T @ XK.T. The query
    side is (XQ, XK @ WK) at WQ; the key side is (XQ @ WQ, XK) at WK.T, so
    its weight gradient is dL/d(WK.T) and its transpose is dL/dWK. Both
    share C3 = XV @ WVstar and Y. Must be recomputed whenever either adapter
    changes: each side bakes in the other side's current weight.
    """
    WQ, WK = adapted_general_weights(g, adpQ, adpK)
    d = g.d
    instrument.count_matmul(g.L, d, d)
    instrument.count_matmul(g.L, d, d)
    instrument.count_matmul(g.L, d, d)
    C3 = g.XV @ g.WVstar
    return (
        (AttentionInstance(C1=g.XQ, C2=g.XK @ WK, C3=C3, Y=g.Y), WQ),
        (AttentionInstance(C1=g.XQ @ WQ, C2=g.XK, C3=C3, Y=g.Y), WK.T),
    )


def general_scores(g, adpQ, adpK):
    """S = XQ @ WQ @ WK.T @ XK.T with both effective weights in place."""
    WQ, WK = adapted_general_weights(g, adpQ, adpK)
    return _score_matrix(g.XQ @ WQ, g.XK @ WK)


def general_loss(g, adpQ, adpK):
    """0.5 * || rownorm(exp(S)) @ XV @ WVstar - Y ||_F^2."""
    S = general_scores(g, adpQ, adpK)
    f = softmax_rows(S, out=S)
    c = f @ (g.XV @ g.WVstar) - g.Y
    return 0.5 * float((c * c).sum())
