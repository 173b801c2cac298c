"""Factored almost-linear gradient pipeline.

Every L x L object of the exact path is replaced by an explicit rank
factorization U @ V.T and the chain

    f  ->  q = C3 @ c.T  ->  p1, p2  ->  dL/dW

is rebuilt so that only L x k arrays are ever formed. Orientations follow
the exact path's column convention: the factored p matrices represent the
same column-j-per-softmax-row-j layout as the dense PMatrices, so

    p1 ~ (V1 @ U1.T) * (U2 @ V2.T)        (elementwise, = f.T * q)

and the columnwise-Kronecker identity turns that Hadamard product into the
single factorization (V1 ck U2) @ (U1 ck V2).T.

Two interchangeable sources for the f factor:

* approx_f_poly: truncated-Taylor feature maps of the score factors; the
  production backend, with cost independent of L x L and a rank k1 that
  explodes combinatorially as the norm bound grows (the phase transition
  this library exists to exhibit).
* approx_f_svd: truncated SVD of the densely computed f; validation only,
  used to test the downstream chain in isolation at machine precision.

The two-sided problem is the same pipeline run once per side on that side's
constants: the query side at WQ and the key side as the special case at
WK.T, with its weight gradient transposed. That transpose is a plain .T;
transpose_perm and PermutationMap serve only criterion 8 and the tests.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import instrument
from .attention import (
    adapted_weight,
    check_dense_guard,
    compose_general_constants,
    forward_f,
)
from .errors import (
    ApproxBreakdownError,
    DimensionError,
    NormBoundError,
    RankInfeasibleError,
)
from .exact import project
from .tensorops import check_norm_bound, colwise_kronecker

# Hard ceiling on the degree search: the remainder rule always terminates,
# this only turns a logic bug into a loud failure.
_DEGREE_CEILING = 10_000


@dataclass(frozen=True)
class LowRankFactor:
    """An L x L matrix held as U @ V.T with U, V of shape L x k.

    Production configurations keep k well below L; the chained p1 factor
    (rank k1 * k2) and full-rank SVD factors may exceed L and are allowed.
    """

    U: np.ndarray
    V: np.ndarray
    k: int

    def __post_init__(self):
        if self.U.ndim != 2 or self.U.shape != self.V.shape:
            raise DimensionError(
                f"factor halves must share shape, got {self.U.shape} "
                f"and {self.V.shape}"
            )
        if self.k != self.U.shape[1]:
            raise DimensionError(
                f"declared rank {self.k} does not match {self.U.shape[1]} columns"
            )

    @property
    def L(self):
        return self.U.shape[0]

    def dense(self):
        """Materialize U @ V.T. Test support; guarded like the exact path."""
        check_dense_guard(self.L)
        return self.U @ self.V.T


@dataclass(frozen=True)
class FactoredResidual:
    """Residual c = f @ C3 - Y with f kept factored: c = U @ M - Y."""

    U: np.ndarray
    M: np.ndarray
    Y: np.ndarray

    def dense(self):
        return self.U @ self.M - self.Y


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
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.degree is not None and self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.eps_target <= 0:
            raise ValueError(f"eps_target must be positive, got {self.eps_target}")


def monomial_count(d, g):
    """Number of monomials of total degree <= g in d variables."""
    return math.comb(d + g, g)


def select_degree(cfg, d, max_rank=None):
    """Smallest Taylor degree meeting eps_target on scores bounded by d*gamma^2.

    The scores C1 W C2.T are entrywise bounded by R = d * gamma^2 when both
    factors obey the gamma bound, and the degree-g Taylor remainder of exp
    on [-R, R] is at most R^(g+1) e^R / (g+1)!. Requiring that to be below
    eps_target * e^(-R) makes the error small relative to the smallest
    attainable exp value, so it survives the softmax normalization. The
    comparison runs in log space to dodge overflow at large R.

    With max_rank given, a degree whose monomial count C(d+g, g) exceeds it
    raises RankInfeasibleError; that error is the phase-transition signal.
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
            if max_rank is not None and monomial_count(d, g) > max_rank:
                raise RankInfeasibleError(g, monomial_count(d, g), max_rank)
            return g
    raise RuntimeError(f"degree search did not terminate below {_DEGREE_CEILING}")


def _monomials(d, g):
    """Sorted variable-index tuples for all monomials of degree <= g."""
    out = []
    for t in range(g + 1):
        out.extend(itertools.combinations_with_replacement(range(d), t))
    return out


def feature_map(X, g):
    """Rows of X mapped so inner products become truncated exp kernels.

    Column beta of the output is X^beta / sqrt(beta!) over all monomials of
    total degree <= g, giving <phi(x), phi(y)> = sum_{t<=g} <x,y>^t / t!.
    """
    X = np.asarray(X)
    L, d = X.shape
    mons = _monomials(d, g)
    Phi = np.empty((L, len(mons)))
    instrument.alloc(Phi.size)
    for col, idx in enumerate(mons):
        v = np.ones(L)
        counts = {}
        for i in idx:
            v = v * X[:, i]
            counts[i] = counts.get(i, 0) + 1
        fact = 1.0
        for c in counts.values():
            fact *= math.factorial(c)
        Phi[:, col] = v / math.sqrt(fact)
        instrument.count(L * (len(idx) + 1))
    return Phi


def approx_f_poly(inst, W, cfg, max_rank=None):
    """Low-rank f factor from truncated-Taylor feature maps.

    U1 is the row-normalized feature map of C1 @ W, V1 the feature map of
    C2; U1 @ V1.T approximates f entrywise within eps_target whenever the
    norm preconditions hold. Never touches an L x L array.
    """
    W = np.asarray(W)
    d = inst.d
    if W.shape != (d, d):
        raise DimensionError(f"W must be {d} x {d}, got {W.shape}")
    CW = inst.C1 @ W
    instrument.count_matmul(inst.L, d, d)
    check_norm_bound("C1 @ W", CW, cfg.gamma)
    check_norm_bound("C2", inst.C2, cfg.gamma)
    g = cfg.degree if cfg.degree is not None else select_degree(cfg, d, max_rank)
    k1 = monomial_count(d, g)
    if max_rank is not None and k1 > max_rank:
        raise RankInfeasibleError(g, k1, max_rank)
    Phi1 = feature_map(CW, g)
    Phi2 = feature_map(inst.C2, g)
    col_mass = Phi2.sum(axis=0)
    norm = Phi1 @ col_mass
    instrument.count_matmul(inst.L, k1, 1)
    if norm.min() <= 0.0:
        raise ApproxBreakdownError(
            "truncated polynomial produced a non-positive softmax normalizer "
            f"(min {norm.min():.3e}); the norm bound gamma={cfg.gamma} is too "
            "large for degree "
            f"{g}"
        )
    U1 = Phi1 / norm[:, None]
    instrument.count(Phi1.size)
    instrument.alloc(U1.size)
    return LowRankFactor(U=U1, V=Phi2, k=k1)


def approx_f_svd(inst, W, k):
    """Best rank-k factor of the densely computed f. Validation backend."""
    L = inst.L
    if not 1 <= k <= L:
        raise DimensionError(f"rank k={k} must satisfy 1 <= k <= L={L}")
    f = forward_f(inst, W)
    u, s, vh = np.linalg.svd(f, full_matrices=False)
    return LowRankFactor(U=u[:, :k] * s[:k], V=vh[:k].T, k=k)


def approx_c(f_lr, inst):
    """Residual c with the f factor kept implicit: c = U1 @ (V1.T @ C3) - Y."""
    if f_lr.L != inst.L:
        raise DimensionError("factor and instance disagree on L")
    M = f_lr.V.T @ inst.C3
    instrument.count_matmul(f_lr.k, inst.L, inst.d)
    instrument.alloc(M.size)
    return FactoredResidual(U=f_lr.U, M=M, Y=inst.Y)


def approx_q(f_lr, inst):
    """Factor of q = C3 @ c.T built from the f factor, exactly.

    U2 = [C3 | -C3], V2 = [U1 (V1.T C3) | Y]; the product U2 @ V2.T equals
    C3 @ (U1 V1.T C3 - Y).T with no approximation beyond f's own.
    """
    res = approx_c(f_lr, inst)
    fc = res.U @ res.M
    instrument.count_matmul(inst.L, f_lr.k, inst.d)
    U2 = np.hstack([inst.C3, -inst.C3])
    V2 = np.hstack([fc, inst.Y])
    instrument.alloc(U2.size)
    instrument.alloc(V2.size)
    return LowRankFactor(U=U2, V=V2, k=2 * inst.d)


def approx_p1(f_lr, q_lr):
    """Factor of p1 = f.T * q via the columnwise-Kronecker identity.

    p1's column convention stores f row j against column j, so the dense
    target is (V1 U1.T) * (U2 V2.T) and the factor halves combine crosswise:
    U3 = V1 ck U2, V3 = U1 ck V2, rank k1 * k2.
    """
    if f_lr.L != q_lr.L:
        raise DimensionError("factors disagree on L")
    U3 = colwise_kronecker(f_lr.V, q_lr.U)
    V3 = colwise_kronecker(f_lr.U, q_lr.V)
    return LowRankFactor(U=U3, V=V3, k=f_lr.k * q_lr.k)


def approx_p2(f_lr, q_lr):
    """Factor of p2 = f.T scaled per column by r_j = <f_j, q_j>.

    The row dots come from the precomputed Gram matrix G = V1.T @ U2:
    r_j = U1[j, :] @ G @ V2[j, :].T, each O(k1 k2). The factor keeps f's
    rank: U4 = V1, V4 = U1 with row j scaled by r_j.
    """
    if f_lr.L != q_lr.L:
        raise DimensionError("factors disagree on L")
    G = f_lr.V.T @ q_lr.U
    instrument.count_matmul(f_lr.k, f_lr.L, q_lr.k)
    r = ((f_lr.U @ G) * q_lr.V).sum(axis=1)
    instrument.count_matmul(f_lr.L, f_lr.k, q_lr.k)
    instrument.count(f_lr.L * q_lr.k)
    V4 = f_lr.U * r[:, None]
    instrument.count(V4.size)
    instrument.alloc(V4.size)
    return LowRankFactor(U=f_lr.V, V=V4, k=f_lr.k)


def _grad_W(f_lr, inst):
    """dL/dW of one special-case problem from its f factor.

    Runs q -> p1, p2 and stages dL/dW = C1.T p.T C2 with
    p.T = V3 U3.T - V4 U4.T as two thin products per term,
    (C1.T V) @ (U.T C2), so no L x L array is formed. The factors are freed
    on return.
    """
    L, d = inst.L, inst.d
    q_lr = approx_q(f_lr, inst)
    out = np.zeros((d, d))
    for lr, sign in ((approx_p1(f_lr, q_lr), 1.0), (approx_p2(f_lr, q_lr), -1.0)):
        left = inst.C1.T @ lr.V
        right = lr.U.T @ inst.C2
        instrument.count_matmul(d, L, lr.k)
        instrument.count_matmul(lr.k, L, d)
        instrument.count_matmul(d, lr.k, d)
        out += sign * (left @ right)
    return out


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

    Each side is the special case on its own constants: the query side at
    WQ and the key side at WK.T, whose weight gradient is transposed back to
    dL/dWK. The sides run one after the other, so only one side's factors
    are alive at a time.
    """
    consts = compose_general_constants(g, adpQ, adpK)
    grads = []
    for side, (inst, W) in zip("QK", consts.sides(g.Y)):
        try:
            f_lr = approx_f_poly(inst, W, cfg)
        except NormBoundError as err:
            raise NormBoundError(f"{side} side {err.name}", err.measured, err.bound)
        grads.append(_grad_W(f_lr, inst))
    NQ, NK = grads
    return project(adpQ, adpQ.scale * NQ), project(adpK, NK.T)
