"""Row-major vectorization, Kronecker structure, and transpose permutations.

Conventions used by the whole library:

* vectorize is ROW-major: for X with shape (m, n), vec(X)[i*n + j] = X[i, j].
* kronecker follows the standard layout, (A kron B)[ia*Lb + ib, ja*db + jb]
  = A[ia, ja] * B[ib, jb], which pairs with row-major vec through the tensor
  trick vec(A @ X @ B.T) = (A kron B) @ vec(X).
* subblock(K, j) of an (L*L, c) matrix is its j-th row block of L rows,
  0-indexed.
* colwise_kronecker is the all-pairs column product: for A with k1 columns
  and B with k2 columns the result has k1*k2 columns and column s*k2 + t
  equals A[:, s] * B[:, t] elementwise. It satisfies
  (A1 ck A2) @ (B1 ck B2).T = (A1 @ B1.T) * (A2 @ B2.T) elementwise.
"""

import math

import numpy as np

from .errors import DimensionError, NonFiniteError, NormBoundError
from . import instrument

# Refuse Kronecker products whose element count would exceed this.
_KRON_ELEMENT_LIMIT = 2**31


def as_matrix(a, name="matrix"):
    """Validate a as a finite 2-D float64 array and return it."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains NaN or infinite entries")
    return arr


def check_norm_bound(name, mat, bound):
    """Raise NormBoundError when max |mat| exceeds bound or is NaN.

    The relative slack of 1e-12 lets instances rescaled to sit exactly at
    the bound pass on the last float64 ulp.
    """
    measured = float(np.abs(mat).max())
    if not measured <= bound * (1.0 + 1e-12):
        raise NormBoundError(name, measured, bound)


def check_positive_finite(name, value):
    """Raise ValueError unless value is positive and finite (NaN fails too)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


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
        raise DimensionError(
            f"kronecker result would hold {elements} elements, "
            f"over the {_KRON_ELEMENT_LIMIT} limit"
        )
    out = np.kron(A, B)
    instrument.count(out.size)
    instrument.alloc(out.size)
    return out


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


def colwise_kronecker(A, B):
    """All-pairs columnwise product: column s*k2 + t is A[:, s] * B[:, t]."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != B.shape[0]:
        raise DimensionError(
            f"colwise_kronecker needs equal row counts, got {A.shape} and {B.shape}"
        )
    L = A.shape[0]
    k1, k2 = A.shape[1], B.shape[1]
    out = (A[:, :, None] * B[:, None, :]).reshape(L, k1 * k2)
    instrument.count(L * k1 * k2)
    instrument.alloc(out.size)
    return out


class PermutationMap:
    """A permutation on index vectors stored as a target-index array.

    apply(v)[i] == v[target[i]], so target[i] names the source position that
    lands at position i.
    """

    def __init__(self, target):
        target = np.asarray(target, dtype=np.intp)
        if target.ndim != 1:
            raise DimensionError("permutation target must be 1-D")
        if np.sort(target).tolist() != list(range(target.size)):
            raise ValueError("target indices do not form a permutation")
        self.target = target

    @property
    def size(self):
        return self.target.size

    def apply(self, v):
        v = np.asarray(v)
        if v.shape != (self.size,):
            raise DimensionError(
                f"permutation of size {self.size} cannot act on shape {v.shape}"
            )
        return v[self.target]

    def compose(self, other):
        """Return the map equivalent to applying other first, then self."""
        if self.size != other.size:
            raise DimensionError("cannot compose permutations of different sizes")
        return PermutationMap(other.target[self.target])

    def inverse(self):
        inv = np.empty_like(self.target)
        inv[self.target] = np.arange(self.size)
        return PermutationMap(inv)

    def as_matrix(self):
        """Dense 0/1 matrix P with P @ v == apply(v). Test support only."""
        P = np.zeros((self.size, self.size))
        P[np.arange(self.size), self.target] = 1.0
        return P


def transpose_perm(m, n):
    """Permutation taking vec(W) to vec(W.T) for W of shape (m, n).

    Output position i = p*m + k (row p, column k of the transpose, 0-indexed)
    pulls from source position k*n + p.
    """
    if m < 1 or n < 1:
        raise DimensionError("transpose_perm needs positive dimensions")
    p, k = np.divmod(np.arange(m * n), m)
    return PermutationMap(k * n + p)
