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
  q[l, j] = <C3[l, :], c[j, :]>. It has rank d and is held as the pair
  (C3, c) (q_from_c); exact.split_p builds one row block of q.T = c @ C3.T
  at a time, and the oracle alone builds it whole.
* r[j] = <f[j, :], q[:, j]> = <c[j, :] + Y[j, :], c[j, :]> is the
  softmax-Jacobian row dot (softmax_dots).

Buffers come from instrument.empty: S, which softmax_rows exponentiates in
place, its row sums z, and the L x m output of each thin product F @ M
(thin_product: E @ C3 here, p.T @ C2 in exact.grad_wrt_W).

f is held as the pair (E, z): E = exp(S), shifted per row block where
needed, and z = E's row sums, so f = E / z[:, None]. A product f @ M is
E @ M with its rows divided by z on the thin L x m result (residual_from_f),
not on the L^2 entries of E. A division rounds once where a product with a
rounded 1/z rounds twice. forward_f writes the dense row-stochastic f over
E, one more pass, for the oracle and loss callers.

Row blocks: the L x L passes walk their buffer in blocks of
max(1, BLOCK_ELEMENTS // L) rows, about 512 KiB of float64, and finish
each block before touching the next, so the block is still in cache for
its later steps. score_matrix writes S, one pass, and reads each block's
max and min while it is in cache only when it must measure the bound (see
below); softmax_rows exponentiates a block and sums its rows, one pass that
reads and writes S; thin_product reads F once, one block-sized product at a
time. The thin right operand of the score product is made contiguous once,
before the block loop.

Score bound: score_radius(left, right) = max_i ||left_i|| * max_j ||right_j||
bounds |S| by Cauchy-Schwarz at O(L d). Rounding does not break it: a
computed dot product exceeds the exact one by at most d*u*||a||*||b||, and
the computed norms and their product fall short by at most (d + 3)*u, so a
computed |s| <= R * (1 + (2d + 3)*u) to first order in the unit roundoff u.
score_radius rounds R up by 2*(d + 2)*eps = (4d + 8)*u, which covers this,
so the R it returns bounds the computed scores. When R <= SHIFT_FREE,
score_matrix reports R as the bound and reads nothing back; otherwise (or
when R is inf or NaN, after an overflowed norm) it measures max |S| on the
blocks and refuses a measured value past SCORE_LIMIT, NaN included.

Shift rule: softmax_rows reads row maxima only when the bound it is given
is past SHIFT_FREE (or NaN). It then subtracts a block's row maxima only
when one of them lies outside +-SHIFT_FREE, where exp could overflow a row
sum or leave it subnormal; a block with a NaN max is shifted too. With
the margin inside R, a bound R <= SHIFT_FREE puts every computed score
within +-SHIFT_FREE, so no block would have been shifted.
"""

from dataclasses import dataclass

import numpy as np

from . import instrument
from .errors import (
    DimensionError,
    ScoreOverflowError,
    as_matrix,
    check_positive_finite,
    matrix_fields,
)

# Largest |score| exp can take in float64 before overflowing to inf.
SCORE_LIMIT = 709.78

# Row maxima in [-SHIFT_FREE, SHIFT_FREE] need no shift: a row sum then lies
# in [e^-512, L e^512], which is normal (e^-512 ~ 4e-223) and, at the guard's
# L = 2^14, below 1e227, far from float64's maximum of 1.8e308.
SHIFT_FREE = 512.0

# Entries per row block of an L x L pass: 64Ki float64, 512 KiB.
BLOCK_ELEMENTS = 2**16

def block_rows(row_len):
    """Rows per block of a pass over rows of row_len: max(1, BLOCK_ELEMENTS // row_len)."""
    return max(1, BLOCK_ELEMENTS // max(row_len, 1))


def row_blocks(n_rows, row_len):
    """Slices of block_rows(row_len) consecutive rows, the last ragged."""
    step = block_rows(row_len)
    return [slice(i, i + step) for i in range(0, n_rows, step)]


@dataclass(frozen=True)
class AttentionInstance:
    """Constants (C1, C2, C3, Y) of one attention regression problem."""

    C1: np.ndarray
    C2: np.ndarray
    C3: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        matrix_fields(self, "C1", {name: ("L", "d") for name in ("C2", "C3", "Y")})

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
        matrix_fields(self, "B", {"A": ("r", "d")})
        if not self.B.shape[1] == self.r <= self.d:
            raise DimensionError(
                f"rank r={self.r} must be B's column count {self.B.shape[1]} "
                f"and satisfy 1 <= r <= d={self.d}"
            )
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
    Wstar = as_matrix(Wstar, "Wstar", (adp.d, adp.d))
    return (adp.r / adp.alpha) * Wstar + adp.B @ adp.A


def score_radius(left, right):
    """Certified bound R >= |left @ right.T| from Cauchy-Schwarz, at O(L d).

    R = max_i ||left_i|| * max_j ||right_j||, rounded up by 2 * (d + 2) * eps
    so that it bounds the computed scores too (module docstring). A norm that
    overflows gives inf, or NaN against an all-zero side (inf * 0), without a
    warning; either fails R <= SHIFT_FREE, so score_matrix then measures.
    """
    d = left.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        sq = [np.einsum("ij,ij->i", M, M).max(initial=0.0) for M in (left, right)]
        radius = float(np.sqrt(sq[0]) * np.sqrt(sq[1]))
    instrument.count(left.size + right.size)
    return radius * (1.0 + 2 * (d + 2) * np.finfo(float).eps)


def score_matrix(left, right):
    """(S, bound) for S = left @ right.T, refused past the size guard or exp's range.

    When score_radius(left, right) <= SHIFT_FREE it is the bound, and S is
    only written. Otherwise each row block of S is written, then its max and
    min are read while it is in cache, so the measurement makes no pass of
    its own over S and builds no |S| array; the measured max |S| is the
    bound, refused past SCORE_LIMIT. NaN fails that comparison too.
    """
    bound = score_radius(left, right)
    measure = not bound <= SHIFT_FREE
    S = instrument.empty((left.shape[0], right.shape[0]))
    right_T = np.ascontiguousarray(right.T)
    extremes = [0.0]
    for blk in row_blocks(*S.shape):
        S_blk = instrument.matmul(left[blk], right_T, out=S[blk])
        if measure:
            extremes += S_blk.max(), -S_blk.min()
    if measure:
        bound = float(np.max(extremes))
        if not bound <= SCORE_LIMIT:
            raise ScoreOverflowError(bound, SCORE_LIMIT)
    return S, bound


def scores(inst, W):
    """(S, bound) for S = C1 @ W @ C2.T, refusing scores outside exp's range."""
    W = as_matrix(W, "W", (inst.d, inst.d))
    return score_matrix(instrument.matmul(inst.C1, W), inst.C2)


def softmax_rows(S, bound):
    """The softmax of S's rows held as f = (E, z), with E = exp(S) built in place in S.

    bound is an upper bound on |S| (score_matrix's). Each row block is
    exponentiated and its row sums z taken before the next one is read; E is
    left unnormalized. Row maxima are read only when bound is past
    SHIFT_FREE (or NaN), and a block is then shifted by them only when one
    lies outside +-SHIFT_FREE (or is NaN). The charge is 2 per entry plus 1
    per entry of each shifted block. Returns (S, z).
    """
    z = instrument.empty((S.shape[0],))
    read_max = not bound <= SHIFT_FREE
    shifted = 0
    for blk in row_blocks(*S.shape):
        E = S[blk]
        if read_max:
            row_max = E.max(axis=1, keepdims=True)
            if not np.abs(row_max).max() <= SHIFT_FREE:
                E -= row_max
                shifted += E.size
        np.exp(E, out=E)
        E.sum(axis=1, out=z[blk])
    instrument.count(2 * S.size + shifted)
    return S, z


def normalize(f):
    """The dense row-stochastic matrix of f = (E, z), written over E, 1 per entry."""
    E, z = f
    E *= 1.0 / z[:, None]
    instrument.count(E.size)
    return E


def softmax_pair(inst, W):
    """Attention matrix f(W) held as (E, z) in the score buffer."""
    return softmax_rows(*scores(inst, W))


def forward_f(inst, W):
    """Attention matrix f(W), rows summing to one, built in the score buffer."""
    return normalize(softmax_pair(inst, W))


def thin_product(F, M):
    """F @ M for an L x L buffer F and a thin M, one row block of F at a time.

    Each block's product is written into its rows of one L x m buffer from
    instrument.empty; the charge is the whole product's. At L = 2048, m = 4
    and one BLAS thread, the whole product ran at 2.3 G multiply-adds/s and
    the block-sized ones at 4.8.
    """
    out = instrument.empty((F.shape[0], M.shape[1]))
    for blk in row_blocks(*F.shape):
        instrument.matmul(F[blk], M, out=out[blk])
    return out


def forward_output(inst, W):
    """Attention output f(W) @ C3, shape L x d."""
    return thin_product(forward_f(inst, W), inst.C3)


def residual_from_f(f, inst):
    """c = f @ C3 - Y for an already computed f = (E, z): (E @ C3) / z - Y."""
    E, z = f
    c = thin_product(E, inst.C3)
    c /= z[:, None]
    c -= inst.Y
    instrument.count(2 * c.size)
    return c


def q_from_c(c, inst):
    """q = C3 @ c.T for an already computed residual, held as its rank-d pair (C3, c).

    Nothing is built or charged: split_p forms each row block of q.T from
    the pair while the block is in cache.
    """
    return inst.C3, c


def softmax_dots(c, Y):
    """Softmax-Jacobian row dots r_j = <f_j, q_j> = <c_j + Y_j, c_j>, O(L d).

    With q = C3 @ c.T, <f_j, q_j> = <(f @ C3)_j, c_j> for any f, factored too.
    The sum runs down the d x L transposes, so numpy walks the temporaries in
    c's own memory order, whether c is row-major (the exact path's) or the
    transpose of a d x L buffer (lowrank.approx_q's). Summed along rows, a
    transposed c is read strided: 0.64 against 0.13 ms at L = 16384, d = 4
    on one core.
    """
    cT = c.T
    r = ((cT + Y.T) * cT).sum(axis=0)
    instrument.count(2 * c.size)
    return r


def residual_c(inst, W):
    """c = f(W) @ C3 - Y, the L x d regression residual."""
    return residual_from_f(softmax_pair(inst, W), inst)


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
        rows = {name: ("L", "d") for name in ("XK", "XV", "Y")}
        weights = {name: ("d", "d") for name in ("WQstar", "WKstar", "WVstar")}
        matrix_fields(self, "XQ", rows | weights)

    @property
    def L(self):
        return self.XQ.shape[0]

    @property
    def d(self):
        return self.XQ.shape[1]


def compose_special_constants(g, alpha, r):
    """Collapse a raw instance to the query-side special case.

    C1 = XQ * (alpha/r), C2 = XK @ WKstar, C3 = XV @ WVstar. The key and
    value weights are frozen at these values; only the query weight stays
    trainable through the returned instance.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    check_positive_finite("alpha", alpha)
    return AttentionInstance(
        C1=g.XQ * (alpha / r),
        C2=g.XK @ g.WKstar,
        C3=g.XV @ g.WVstar,
        Y=g.Y,
    )


def compose_general_constants(g, adpQ, adpK):
    """The two-sided problem as one special-case instance and its two weights.

    Returns (inst, WQ, WK): inst = (XQ, XK, XV @ WVstar, Y), and WQ, WK are
    the frozen weights plus each adapter's scaled update (alpha/r) * B @ A.
    inst's scores at W = WQ @ WK.T are the two-sided scores
    XQ @ WQ @ WK.T @ XK.T, so every two-sided computation is a special-case
    one from here. Must be recomputed whenever either adapter changes.
    """
    if adpQ.d != g.d or adpK.d != g.d:
        raise DimensionError("adapter dimension does not match the instance")
    WQ = g.WQstar + adpQ.scale * adpQ.delta()
    WK = g.WKstar + adpK.scale * adpK.delta()
    C3 = instrument.matmul(g.XV, g.WVstar)
    return AttentionInstance(C1=g.XQ, C2=g.XK, C3=C3, Y=g.Y), WQ, WK


def general_loss(g, adpQ, adpK):
    """0.5 * || f(WQ @ WK.T) @ XV @ WVstar - Y ||_F^2, the composed instance's loss."""
    inst, WQ, WK = compose_general_constants(g, adpQ, adpK)
    return loss(inst, WQ @ WK.T)
