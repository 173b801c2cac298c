"""Factored almost-linear gradient pipeline.

Every L x L object of the exact path is replaced by a factorization whose
pieces are L x k arrays, and the chain

    f  ->  c, q = C3 @ c.T, r  ->  p1, p2  ->  dL/dW = C1.T @ (p1 - p2).T @ C2

is rebuilt so that nothing of size L x L, and nothing of size L x k1 * d,
is ever formed. Orientations follow the exact path's column convention:
the factored p1 and p2 have the column-j-per-softmax-row-j layout of p.

A ck B is the columnwise Kronecker (Khatri-Rao) product colwise_kronecker:
for A with kA columns and B with kB columns, column s * kB + t of A ck B is
A[:, s] * B[:, t] elementwise. It satisfies the identity

    (A1 ck A2) @ (B1 ck B2).T = (A1 @ B1.T) * (A2 @ B2.T)   (elementwise)

* f ~ U1 @ V1.T with rank k1 (one of the two backends below).
* q = C3 @ c.T exactly, with the L x d residual c = U1 (V1.T C3) - Y: rank d,
  held as the pair (C3, c), as the exact path's attention.q_from_c holds it.
* r_j = <f_j, q_j> = <c_j + Y_j, c_j>, read off c in O(L d) (softmax_dots).
* p1 = f.T * q = (V1 @ U1.T) * (C3 @ c.T) elementwise. By the
  columnwise-Kronecker identity this is (V1 ck C3) @ (U1 ck c).T, of rank
  k1 * d, held implicitly as a KhatriRaoFactor of the four thin factors.
* p2 = f.T scaled per column by r_j is p1's form with 1 @ r.T in place of
  q: (V1 @ U1.T) * (1 @ r.T) = (V1 ck 1) @ (U1 ck r).T, of rank k1.
* p = p1 - p2 is one KhatriRaoFactor, since both terms share V1 and U1:
  (V1 ck [C3 | 1]) @ (U1 ck [c | -r]).T, of rank k1 * (d + 1). Its
  sandwich C1.T @ p.T @ C2 is contracted from the thin factors directly:
  two L-deep products of size k1 x d (d + 1) and one d x d contraction,
  so each of U1 and V1 is read once. Only dense(), which is test support,
  builds the halves.

Every buffer comes from instrument.empty, so a rank k1 blown up past the
norm threshold is refused before its L x k1 feature map exists.

Memory order: feature_map fills a k1 x L buffer and returns its transpose,
so U1.T and V1.T are row-major. The normalizer divides Phi1 in place, and
every L-deep product runs as (k x L) @ (L x m) on those transposes, so each
feature buffer is read along its rows. The two buffers are halves of one
allocation (instrument.empty), so the heap a call frees stays with the
process for the next call instead of going back to the OS. approx_q writes
c into a d x L buffer and subtracts Y there, and softmax_dots sums down
that buffer's rows, so c is never read strided. The sandwich walks row
blocks of about 512 KiB (attention.block_rows; at d = 4, 3276 rows): each
block's Khatri-Rao operand is built in one reused block buffer and
contracted while it is in cache, so no L x d (d + 1) operand exists; past
the factor, a call holds O(L d) floats and one block.

Two interchangeable sources for the f factor:

* approx_f_poly: truncated-Taylor feature maps of the score factors; the
  production backend, with cost independent of L x L and a rank k1 that
  explodes combinatorially as the norm bound grows (the phase transition
  this library exists to exhibit).
* oracle.approx_f_svd: truncated SVD of the densely computed f; validation
  only, used to test the downstream chain in isolation at machine precision.

The two-sided problem is the same pipeline run once per side on that side's
constants (compose_general_constants).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import instrument
from .attention import (
    adapted_weight,
    block_rows,
    compose_general_constants,
    softmax_dots,
)
from .errors import (
    ApproxBreakdownError,
    DimensionError,
    NormBoundError,
    RankInfeasibleError,
    as_matrix,
    check_norm_bound,
    check_positive_finite,
)
from .exact import project

# Ceiling on the degree search. Large score bounds do reach it (d = 4,
# gamma = 40 needs a higher degree), and a degree this high has a feature
# rank no machine holds, so the search refuses past it.
_DEGREE_CEILING = 10_000

# log of the largest finite float64.
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)

# Fewest rows in a sandwich block. A block of n rows adds its kA x d kB
# product into an accumulator, 1/n of the product's own multiply-adds, and
# pays numpy's per-call overhead; at d = 256, blocks of BLOCK_ELEMENTS
# entries would be one row each.
_MIN_BLOCK_ROWS = 256


@dataclass(frozen=True)
class LowRankFactor:
    """An L x L matrix held as U @ V.T with U, V of shape L x k: the f factor.

    Production configurations keep k well below L; full-rank SVD factors
    and hand-built test factors may reach or exceed L and are allowed.
    """

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if self.U.ndim != 2 or self.U.shape != self.V.shape:
            raise DimensionError(
                f"factor halves must share shape, got {self.U.shape} "
                f"and {self.V.shape}"
            )

    @property
    def L(self):
        return self.U.shape[0]

    @property
    def k(self):
        return self.U.shape[1]

    def dense(self):
        """Materialize U @ V.T. Test support."""
        return np.matmul(self.U, self.V.T, out=instrument.empty((self.L, self.L)))


def colwise_kronecker(A, B):
    """All-pairs columnwise product: column s*k2 + t is A[:, s] * B[:, t].

    Builds the whole L x k1 k2 product, so it serves only
    KhatriRaoFactor.dense(), which is test support; the sandwich builds the
    product one row block at a time.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != B.shape[0]:
        raise DimensionError(
            f"colwise_kronecker needs equal row counts, got {A.shape} and {B.shape}"
        )
    L = A.shape[0]
    k1, k2 = A.shape[1], B.shape[1]
    out = instrument.empty((L, k1 * k2))
    np.einsum("la,lt->lat", A, B, out=out.reshape(L, k1, k2))
    instrument.count(L * k1 * k2)
    return out


@dataclass(frozen=True)
class KhatriRaoFactor:
    """An L x L matrix held as (A ck B) @ (C ck D).T = (A @ C.T) * (B @ D.T).

    A and C are L x kA, B and D are L x kB, so the represented factor has
    rank k = kA * kB. Its two L x k halves are never formed on the hot
    path: sandwich contracts the four thin factors directly, and dense()
    (test support) is the only place the halves are built.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        shapes = [m.shape for m in (self.A, self.B, self.C, self.D)]
        if (
            any(len(sh) != 2 or sh[0] != shapes[0][0] for sh in shapes)
            or shapes[0] != shapes[2]
            or shapes[1] != shapes[3]
        ):
            raise DimensionError(
                f"Khatri-Rao factors need A, C and B, D of equal shapes and "
                f"one row count, got {shapes}"
            )

    @property
    def k(self):
        return self.A.shape[1] * self.B.shape[1]

    def dense(self):
        """Materialize the L x L matrix. Test support."""
        return LowRankFactor(
            U=colwise_kronecker(self.A, self.B), V=colwise_kronecker(self.C, self.D)
        ).dense()

    def __sub__(self, other):
        """self - other as one factor, for two factors that share A and C.

        (A ck B) @ (C ck D).T - (A ck B') @ (C ck D').T is
        (A ck [B | B']) @ (C ck [D | -D']).T, of rank kA * (kB + kB'), so
        one sandwich contracts both terms and reads A and C once.
        """
        if other.A is not self.A or other.C is not self.C:
            raise DimensionError(
                "Khatri-Rao factors subtract only when they share A and C"
            )
        return KhatriRaoFactor(
            A=self.A,
            B=np.hstack([self.B, other.B]),
            C=self.C,
            D=np.hstack([self.D, -other.D]),
        )

    def sandwich(self, C1, C2):
        """C1.T @ M.T @ C2 without forming either L x k half.

        Entry (a, b) is sum over s < kA, t < kB of X[s, a, t] * Z[s, b, t]
        with X[s, a, t] = sum_l C[l, s] C1[l, a] D[l, t], the rows of
        C.T @ (C1 ck D), and Z[s, b, t] = sum_l A[l, s] C2[l, b] B[l, t],
        the rows of A.T @ (C2 ck B). Both are L-deep products of size
        kA x (d * kB); the d x d contraction over (t, s) finishes it.

        Neither L x d kB Khatri-Rao operand is formed. The L-deep products
        walk blocks of block_rows(d * kB) rows, at least _MIN_BLOCK_ROWS:
        each block's (C1 ck D).T, rows (a, t), is one broadcast multiply of
        the block's transposed views into one reused d x kB x n buffer, and
        its product with the block's columns of C.T, which is row-major, is
        added into a kA x d kB accumulator; Z likewise from (C2, B, A). The
        block buffer stays in cache between its write and its read, and the
        charge is the unblocked one.
        """
        L, d = C1.shape
        kA, kB = self.A.shape[1], self.B.shape[1]
        step = max(block_rows(d * kB), _MIN_BLOCK_ROWS)
        buf, X, Z = instrument.empty(
            (d, kB, min(step, L)), (kA, d * kB), (kA, d * kB)
        )
        X.fill(0.0)
        Z.fill(0.0)
        for start in range(0, L, step):
            blk = slice(start, start + step)
            kr = buf[:, :, : min(step, L - start)]
            for acc, left, right, feat in (
                (X, C1, self.D, self.C),
                (Z, C2, self.B, self.A),
            ):
                np.multiply(left[blk].T[:, None, :], right[blk].T[None, :, :], out=kr)
                instrument.count(kr.size)
                acc += instrument.matmul(feat.T[:, blk], kr.reshape(d * kB, -1).T)
        return instrument.matmul(X.T.reshape(d, -1), Z.T.reshape(d, -1).T)


@dataclass(frozen=True)
class PolyApproxConfig:
    """Knobs of the polynomial backend.

    gamma is the entrywise norm bound the score factors are assumed (and
    checked) to satisfy; degree pins the Taylor degree, or None to let
    select_degree pick the smallest degree meeting eps_target.
    """

    gamma: float
    degree: int | None
    eps_target: float

    def __post_init__(self):
        check_positive_finite("gamma", self.gamma)
        check_positive_finite("eps_target", self.eps_target)
        g = self.degree
        if g is not None and not (_is_integer(g) and g >= 0):
            raise ValueError(f"degree must be None or an integer >= 0, got {g!r}")


def _is_integer(x):
    """True for an integer of any integral type, bools excluded."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def monomial_count(d, g):
    """Number of monomials of total degree <= g in d variables."""
    return math.comb(d + g, g)


def select_degree(cfg, d):
    """Smallest Taylor degree meeting eps_target on scores bounded by d*gamma^2.

    The scores C1 W C2.T are entrywise bounded by R = d * gamma^2 when both
    factors obey the gamma bound, and the degree-g Taylor remainder of exp
    on [-R, R] is at most R^(g+1) e^R / (g+1)!. Requiring that to be below
    eps_target * e^(-R) makes the error small relative to the smallest
    attainable exp value, so it survives the softmax normalization. The
    comparison runs in log space to dodge overflow at large R. When no
    degree up to _DEGREE_CEILING qualifies, RankInfeasibleError names the
    ceiling and its monomial count, before any feature map is built.
    """
    R = d * cfg.gamma * cfg.gamma
    log_eps = math.log(cfg.eps_target)
    for g in range(_DEGREE_CEILING + 1):
        if R == 0.0:
            ok = True
        else:
            log_rem = (g + 1) * math.log(R) + 2.0 * R - math.lgamma(g + 2)
            ok = log_rem <= log_eps
        if ok:
            return g
    raise RankInfeasibleError(
        _DEGREE_CEILING, monomial_count(d, _DEGREE_CEILING), limit=None
    )


def feature_map(X, g, Phi):
    """Rows of X mapped so inner products become truncated exp kernels.

    Column beta of the output is X^beta / sqrt(beta!) over all monomials of
    total degree <= g, giving <phi(x), phi(y)> = sum_{t<=g} <x,y>^t / t!.

    Within each degree the monomials are ordered by their last (largest)
    variable i. The degree-t columns ending in i are then the first
    C(i+t-1, t-1) degree-(t-1) columns, each times X[:, i], so every (t, i)
    block is built from a contiguous run of parents into a contiguous slice
    of the k1 x L buffer Phi. The block splits into segments by the exponent
    m of variable i in the new monomial: segment m has C(i-1+t-m, t-m)
    columns (for i = 0, only the column x0^t, with m = t), and their parents
    are consecutive. Appending i to a monomial that already holds it m - 1
    times multiplies beta! by m, so the segment's factor is X[:, i] / sqrt(m)
    and each column is scaled as it is built. The constant column is neither
    multiplied nor scaled. Phi, of shape (k1, L), is filled and its
    transpose, an L x k1 view, returned.
    """
    X = np.asarray(X)
    L, d = X.shape
    k1 = monomial_count(d, g)
    step = instrument.empty((g, d, L))
    # step[m - 1, i] = X[:, i] / sqrt(m), the factor of segment m.
    np.divide(X.T[None], np.sqrt(np.arange(1, g + 1))[:, None, None], out=step)
    Phi[0] = 1.0
    prev = 0
    pos = 1
    for t in range(1, g + 1):
        start = pos
        for i in range(d):
            par = prev
            for m in range(1, t + 1):
                n = math.comb(i - 1 + t - m, t - m) if i else int(m == t)
                np.multiply(Phi[par : par + n], step[m - 1, i], out=Phi[pos : pos + n])
                par += n
                pos += n
        prev = start
    instrument.count(L * (k1 - 1) + max(g - 1, 0) * d * L)
    return Phi.T


def approx_f_poly(inst, W, cfg, max_rank=None):
    """Low-rank f factor from truncated-Taylor feature maps.

    U1 is the row-normalized feature map of C1 @ W, V1 the feature map of
    C2; U1 @ V1.T approximates f entrywise within eps_target whenever the
    norm preconditions hold. Never touches an L x L array. The rows of
    C1 @ W's feature map are divided by their normalizers in place, so the
    factor's two halves are the only L x k1 buffers; both are transposes
    of row-major k1 x L buffers, the two halves of one allocation.

    With max_rank given, a degree, adaptive or pinned, whose monomial count
    k1 = C(d+g, g) exceeds it raises RankInfeasibleError; that error is the
    phase-transition signal. A max_rank that is not an integer >= 1 (not a
    bool) raises ValueError before the degree search.
    """
    if max_rank is not None and not (_is_integer(max_rank) and max_rank >= 1):
        raise ValueError(f"max_rank must be an integer at least 1, got {max_rank!r}")
    d = inst.d
    W = as_matrix(W, "W", (d, d))
    CW = instrument.matmul(inst.C1, W)
    x_max = max(
        check_norm_bound("C1 @ W", CW, cfg.gamma),
        check_norm_bound("C2", inst.C2, cfg.gamma),
    )
    g = cfg.degree if cfg.degree is not None else select_degree(cfg, d)
    k1 = monomial_count(d, g)
    if max_rank is not None and k1 > max_rank:
        raise RankInfeasibleError(g, k1, max_rank)
    # The pure-power column x^g / sqrt(g!) of the largest entry overflows
    # to inf past float64's range, and an inf feature gives an inf or NaN
    # normalizer; refuse before building either map.
    log_col = g * math.log(x_max) - 0.5 * math.lgamma(g + 1) if x_max > 0 else 0.0
    if log_col > _LOG_FLOAT_MAX:
        raise ApproxBreakdownError(
            f"truncated polynomial feature map is certain to be non-finite: "
            f"max |x| = {x_max:.3e} gives x^{g}/sqrt({g}!) = exp({log_col:.1f}), "
            f"past float64's exp({_LOG_FLOAT_MAX:.1f}); the norm bound "
            f"gamma={cfg.gamma} is too large for degree {g}"
        )
    buf1, buf2 = instrument.empty((k1, inst.L), (k1, inst.L))
    Phi1 = feature_map(CW, g, buf1)
    Phi2 = feature_map(inst.C2, g, buf2)
    col_mass = Phi2.sum(axis=0)
    norm = instrument.matmul(Phi1, col_mass)
    # NaN fails every comparison, and an overflowed feature map gives +inf
    # or NaN, so both ends are checked: a plain min <= 0 lets either through.
    lo, hi = norm.min(), norm.max()
    if not 0.0 < lo <= hi < math.inf:
        raise ApproxBreakdownError(
            "truncated polynomial produced a non-positive or non-finite softmax "
            f"normalizer (range [{lo:.3e}, {hi:.3e}]); the norm bound "
            f"gamma={cfg.gamma} is too large for degree {g}"
        )
    Phi1 /= norm[:, None]
    instrument.count(Phi1.size)
    return LowRankFactor(U=Phi1, V=Phi2)


def approx_q(f_lr, inst):
    """q = C3 @ c.T as its rank-d pair (C3, c), built from the f factor exactly.

    c = U1 @ (V1.T @ C3) - Y is the L x d residual with f kept factored;
    C3 @ c.T equals q with no approximation beyond f's own.
    """
    if f_lr.L != inst.L:
        raise DimensionError("factor and instance disagree on L")
    M = instrument.matmul(f_lr.V.T, inst.C3, out=instrument.empty((f_lr.k, inst.d)))
    cT = instrument.matmul(M.T, f_lr.U.T, out=instrument.empty((inst.d, inst.L)))
    cT -= inst.Y.T
    instrument.count(cT.size)
    return inst.C3, cT.T


def approx_p1(f_lr, q):
    """Implicit factor of p1 = f.T * q via the columnwise-Kronecker identity.

    p1's column convention stores f row j against column j, so with q the
    pair (C3, c) the dense target is (V1 U1.T) * (C3 c.T) =
    (V1 ck C3) @ (U1 ck c).T, rank k1 * d. The halves are not built: the
    KhatriRaoFactor keeps the four thin factors and contracts them in its
    sandwich.
    """
    C3, c = q
    return KhatriRaoFactor(A=f_lr.V, B=C3, C=f_lr.U, D=c)


def approx_p2(f_lr, r):
    """Implicit factor of p2 = f.T scaled per column by r_j = <f_j, q_j>.

    r comes from softmax_dots on the residual. p2 is p1 with 1 @ r.T in place
    of q, so it is the KhatriRaoFactor (V1 ck 1) @ (U1 ck r).T of f's rank
    k1, and no row-scaled copy of U1 is formed.
    """
    return KhatriRaoFactor(A=f_lr.V, B=np.ones((f_lr.L, 1)), C=f_lr.U, D=r[:, None])


def _grad_W(f_lr, inst):
    """dL/dW of one special-case problem from its f factor.

    Runs q -> p1, p2, subtracts the two factors into the one factor of
    p = p1 - p2 and returns its sandwich dL/dW = C1.T p.T C2, so no L x L
    array and no L x k1 * d half is formed, and U1 and V1 are each read
    once. p2's row dots are read off q's residual half. The factors are
    freed on return.
    """
    C3, c = approx_q(f_lr, inst)
    r = softmax_dots(c, inst.Y)
    p = approx_p1(f_lr, (C3, c)) - approx_p2(f_lr, r)
    return p.sandwich(inst.C1, inst.C2)


def grad_from_f_factor(f_lr, inst, adp):
    """Adapter gradients from a given f factor; backend-agnostic chain."""
    if adp.d != inst.d:
        raise DimensionError("adapter dimension does not match the instance")
    return project(adp, _grad_W(f_lr, inst))


def approx_grad_special(inst, Wstar, adp, cfg):
    """Almost-linear adapter gradients with the polynomial backend."""
    f_lr = approx_f_poly(inst, adapted_weight(Wstar, adp), cfg)
    return grad_from_f_factor(f_lr, inst, adp)


def approx_grad_general(g, adpQ, adpK, cfg):
    """Almost-linear gradient pairs (Q-side, K-side) of the two-sided problem.

    Each side is the special case on its own constants; the key side's
    weight gradient is transposed back to dL/dWK, and each side's carries its
    adapter's scale alpha/r. The sides run one after the other, so only one
    side's factors are alive at a time.
    """
    grads = []
    for side, (inst, W) in zip("QK", compose_general_constants(g, adpQ, adpK)):
        try:
            f_lr = approx_f_poly(inst, W, cfg)
        except NormBoundError as err:
            raise NormBoundError(f"{side} side {err.name}", err.measured, err.bound)
        grads.append(_grad_W(f_lr, inst))
        del f_lr  # free this side's factor before the next side builds its own
    NQ, NK = grads
    return project(adpQ, adpQ.scale * NQ), project(adpK, adpK.scale * NK.T)
