"""Independent ground-truth routes for validating the gradient code.

Four families, all deliberately slow and simple:

* central finite differences of the loss (fd_grad and its wrappers),
* a literal per-column softmax-Jacobian build (dense_p_oracle) that
  materializes diag(f_j) and f_j f_j^T, the split p = p1 - p2 (PMatrices),
* the fully materialized Kronecker route (dense_kron_grad_oracle) that forms
  C1 kron C2 and the dense adapter Jacobians and works entirely on vecs,
* the SVD backend (approx_f_svd), a best rank-k factor of the dense f that
  feeds the factored chain with a known f error.

The Kronecker route and the tests work on the vec/Kronecker algebra the
paper derives the gradient with, defined here and nowhere on the gradient
path:

* vectorize is ROW-major: for X with shape (m, n), vec(X)[i*n + j] = X[i, j].
* kronecker follows the standard layout, (A kron B)[ia*Lb + ib, ja*db + jb]
  = A[ia, ja] * B[ib, jb], which pairs with row-major vec through the tensor
  trick vec(A @ X @ B.T) = (A kron B) @ vec(X).
* subblock(K, j) of an (L*L, c) matrix is its j-th row block of L rows,
  0-indexed.
* transpose_perm(m, n) is the index array perm with
  vec(W.T) == vec(W)[perm] for W of shape (m, n).

Size guards hard-fail instead of truncating; these functions exist to settle
orientation and sign questions, not to run at scale.
"""

import math
from dataclasses import dataclass

import numpy as np

from .attention import (
    LoraAdapter,
    adapted_weight,
    forward_f,
    general_loss,
    loss,
)
from .errors import DimensionError, NonFiniteError, SizeGuardError
from .exact import GradientPair
from .lowrank import LowRankFactor

DENSE_P_GUARD_L = 64
KRON_GUARD_L = 8
KRON_GUARD_D = 3
# jacobian_blocks builds d^2 x rd dense matrices; keep it to small d.
JACOBIAN_GUARD_D = 6

FD_STEP = 1e-5

# Refuse Kronecker products whose element count would exceed this.
_KRON_ELEMENT_LIMIT = 2**31


def vectorize(X):
    """Row-major vec: stack the rows of X into one 1-D array."""
    X = np.asarray(X)
    if X.ndim != 2:
        raise DimensionError(f"vectorize expects a matrix, got shape {X.shape}")
    return X.reshape(-1)


def matrixize(v, m, n):
    """Inverse of vectorize: rebuild the (m, n) matrix from its row-major vec."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise DimensionError(f"matrixize expects a vector, got shape {v.shape}")
    if v.size != m * n:
        raise DimensionError(f"cannot reshape length {v.size} into ({m}, {n})")
    return v.reshape(m, n)


def kronecker(A, B):
    """Dense Kronecker product with an element-count guard."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim != 2 or B.ndim != 2:
        raise DimensionError("kronecker expects two matrices")
    elements = A.shape[0] * B.shape[0] * A.shape[1] * B.shape[1]
    if elements > _KRON_ELEMENT_LIMIT:
        raise SizeGuardError(
            f"kronecker result would hold {elements} elements, "
            f"over the {_KRON_ELEMENT_LIMIT} limit"
        )
    return np.kron(A, B)


def subblock(K, j):
    """Row block j of K (0-indexed).

    K must have a square row count L*L; the blocks are its L stacked L-row
    groups, matching the layout of kronecker(C1, C2) for L x d factors.
    """
    K = np.asarray(K)
    if K.ndim != 2:
        raise DimensionError("subblock expects a matrix")
    L = math.isqrt(K.shape[0])
    if L < 1 or L * L != K.shape[0]:
        raise DimensionError(
            f"cannot infer block size: row count {K.shape[0]} is not a "
            "positive square"
        )
    if not 0 <= j < L:
        raise IndexError(f"block index {j} out of range for {L} blocks")
    return K[j * L:(j + 1) * L, :]


def transpose_perm(m, n):
    """Index array perm with vec(W.T) == vec(W)[perm] for W of shape (m, n).

    Output position i = p*m + k (row p, column k of the transpose, 0-indexed)
    pulls from source position k*n + p.
    """
    if m < 1 or n < 1:
        raise DimensionError("transpose_perm needs positive dimensions")
    p, k = np.divmod(np.arange(m * n), m)
    return k * n + p


def fd_grad(fn, X):
    """Central-difference gradient of a scalar function of a matrix.

    The step for entry (i, j) is FD_STEP * max(1, |X[i, j]|), balancing
    truncation against round-off at double precision. Raises NonFiniteError
    if fn returns a non-finite value at any probe point.
    """
    X = np.asarray(X, dtype=np.float64)
    grad = np.empty_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for entry in it:
        idx = it.multi_index
        step = FD_STEP * max(1.0, abs(float(entry)))
        probe = X.copy()
        probe[idx] = X[idx] + step
        hi = fn(probe)
        probe[idx] = X[idx] - step
        lo = fn(probe)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NonFiniteError(
                f"loss is not finite at a finite-difference probe near index {idx}"
            )
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def fd_grad_W(inst, W):
    """Finite-difference d x d gradient of loss(inst, .) at W."""
    return fd_grad(lambda Wp: loss(inst, Wp), W)


def _replace_factor(adp, which, value):
    if which == "A":
        return LoraAdapter(B=adp.B, A=value, r=adp.r, alpha=adp.alpha)
    if which == "B":
        return LoraAdapter(B=value, A=adp.A, r=adp.r, alpha=adp.alpha)
    raise ValueError(f"which must be 'A' or 'B', got {which!r}")


def fd_grad_adapter(inst, Wstar, adp, which):
    """Finite-difference gradient of the special-case loss w.r.t. one factor."""

    def at(factor):
        pert = _replace_factor(adp, which, factor)
        return loss(inst, adapted_weight(Wstar, pert))

    start = adp.A if which == "A" else adp.B
    return fd_grad(at, start)


def fd_grad_general(g, adpQ, adpK, side, which):
    """Finite-difference gradient of the two-sided loss w.r.t. one factor."""
    if side not in ("Q", "K"):
        raise ValueError(f"side must be 'Q' or 'K', got {side!r}")

    def at(factor):
        if side == "Q":
            return general_loss(g, _replace_factor(adpQ, which, factor), adpK)
        return general_loss(g, adpQ, _replace_factor(adpK, which, factor))

    base = adpQ if side == "Q" else adpK
    start = base.A if which == "A" else base.B
    return fd_grad(at, start)


@dataclass(frozen=True)
class PMatrices:
    """The split softmax-Jacobian scores, all L x L, column j per row j of f.

    p1[:, j] = f_j * q_j, p2[:, j] = f_j * <f_j, q_j>, p = p1 - p2.
    """

    p1: np.ndarray
    p2: np.ndarray
    p: np.ndarray


def dense_p_oracle(inst, W):
    """Literal (diag(f_j) - f_j f_j^T) q_j build, column by column."""
    L = inst.L
    if L > DENSE_P_GUARD_L:
        raise SizeGuardError(
            f"dense_p_oracle is limited to L <= {DENSE_P_GUARD_L}, got L = {L}"
        )
    f = forward_f(inst, W)
    c = f @ inst.C3 - inst.Y
    q = inst.C3 @ c.T
    p1 = np.empty((L, L))
    p2 = np.empty((L, L))
    for j in range(L):
        fj = f[j, :]
        qj = q[:, j]
        p1[:, j] = np.diag(fj) @ qj
        p2[:, j] = np.outer(fj, fj) @ qj
    return PMatrices(p1=p1, p2=p2, p=p1 - p2)


def dense_kron_grad_oracle(inst, Wstar, adp):
    """Adapter gradients via materialized C1 kron C2 and dense Jacobians.

    Assembles vec(dL/dW) = sum_j subblock_j(C1 kron C2)^T p_j, then projects
    through J_B^T and J_A^T. Independent of the staged matrix-product route;
    agrees with it and with finite differences on guarded sizes.
    """
    L, d = inst.L, inst.d
    if L > KRON_GUARD_L or d > KRON_GUARD_D:
        raise SizeGuardError(
            f"dense_kron_grad_oracle is limited to L <= {KRON_GUARD_L} and "
            f"d <= {KRON_GUARD_D}, got L = {L}, d = {d}"
        )
    W = adapted_weight(Wstar, adp)
    p = dense_p_oracle(inst, W).p
    K = kronecker(inst.C1, inst.C2)
    vg = np.zeros(d * d)
    for j in range(L):
        Cj = subblock(K, j)
        vg += Cj.T @ p[:, j]
    J_B, J_A = jacobian_blocks(adp)
    GA = matrixize(J_B.T @ vg, adp.r, d)
    GB = matrixize(J_A.T @ vg, d, adp.r)
    return GradientPair(GA=GA, GB=GB)


def jacobian_blocks(adp):
    """Dense Jacobians (J_B, J_A) of vec(W) in vec(A) and vec(B).

    Under row-major vec the exact identities are

        vec(Wbar + B @ A) = vec(Wbar) + J_B @ vec(A),  J_B = B kron I_d
        vec(Wbar + B @ A) = vec(Wbar) + J_A @ vec(B),  J_A = I_d kron A.T

    both of shape d^2 x rd. Test support only; guarded to small d.
    """
    d, r = adp.d, adp.r
    if d > JACOBIAN_GUARD_D:
        raise SizeGuardError(
            f"jacobian_blocks is test support, guarded to d <= {JACOBIAN_GUARD_D}; "
            f"got d = {d}"
        )
    eye = np.eye(d)
    J_B = kronecker(adp.B, eye)
    J_A = kronecker(eye, adp.A.T)
    return J_B, J_A


def approx_f_svd(inst, W, k):
    """Best rank-k factor of the densely computed f. Validation backend."""
    L = inst.L
    if not 1 <= k <= L:
        raise DimensionError(f"rank k={k} must satisfy 1 <= k <= L={L}")
    f = forward_f(inst, W)
    u, s, vh = np.linalg.svd(f, full_matrices=False)
    return LowRankFactor(U=u[:, :k] * s[:k], V=vh[:k].T)
