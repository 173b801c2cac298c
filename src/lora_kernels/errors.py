"""Exception types shared across the library, and the checks that raise them."""

import math

import numpy as np


class LoraKernelsError(Exception):
    """Base class for all library-specific failures."""


class DimensionError(LoraKernelsError, ValueError):
    """Operand shapes are inconsistent."""


class NonFiniteError(LoraKernelsError, ValueError):
    """A matrix contains NaN or infinite entries."""


class ScoreOverflowError(LoraKernelsError, OverflowError):
    """An attention score is too large for exp in float64."""

    def __init__(self, max_abs_score, limit):
        self.max_abs_score = max_abs_score
        self.limit = limit
        super().__init__(
            f"attention score max |entry| = {max_abs_score:.6g} exceeds the "
            f"float64 exp range limit {limit:.6g}"
        )


class SizeGuardError(LoraKernelsError, ValueError):
    """A code path refused to allocate a buffer past the size guard."""


class NormBoundError(LoraKernelsError, ValueError):
    """A measured infinity-norm violates the bound the approximation assumes."""

    def __init__(self, name, measured, bound):
        self.name = name
        self.measured = measured
        self.bound = bound
        super().__init__(
            f"norm precondition violated: ||{name}||_inf = {measured:.6g} "
            f"exceeds the assumed bound {bound:.6g}"
        )


class ApproxBreakdownError(LoraKernelsError, ArithmeticError):
    """The polynomial softmax surrogate gave, or is certain to give, a
    non-positive or non-finite normalizer."""


class RankInfeasibleError(LoraKernelsError, ValueError):
    """The degree demanded by the error target needs more monomials than allowed.

    This is the phase-transition mechanism: past a norm threshold the feature
    rank C(d+g, g) required for the target accuracy exceeds the sequence
    length, so the factored path stops being cheaper than the dense one.
    With limit None, degree is the degree search's ceiling and no degree up
    to it meets the error target.
    """

    def __init__(self, degree, rank, limit):
        self.degree = degree
        self.rank = rank
        self.limit = limit
        if limit is None:
            msg = (
                f"no polynomial degree up to the search ceiling {degree} "
                f"(rank C(d+g, g) = {rank}) meets the error target"
            )
        else:
            msg = (
                f"required polynomial degree {degree} needs rank C(d+g, g) = "
                f"{rank}, which exceeds the limit {limit}"
            )
        super().__init__(msg)


def as_matrix(a, name="matrix", shape=None):
    """a as a finite 2-D float64 array, of the given shape when one is given.

    The one check of an input matrix: DimensionError names the matrix with
    the expected and actual shapes, NonFiniteError names it. A float64
    array comes back as itself, not a copy.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or (shape is not None and arr.shape != shape):
        expected = "2-D" if shape is None else f"of shape {shape}"
        raise DimensionError(f"{name} must be {expected}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains NaN or infinite entries")
    return arr


def matrix_fields(obj, first, shapes):
    """Replace a frozen dataclass's matrix fields by their as_matrix arrays.

    The field named first may have any shape whose two sizes are both at
    least 1; obj's size properties read them from it. shapes maps each
    other matrix field to its shape, spelled as a pair of those size
    attributes, e.g. {"C2": ("L", "d")}.
    """
    arr = as_matrix(getattr(obj, first), first)
    if 0 in arr.shape:
        raise DimensionError(f"{first} needs both sizes >= 1, got shape {arr.shape}")
    object.__setattr__(obj, first, arr)
    for name, dims in shapes.items():
        shape = tuple(getattr(obj, dim) for dim in dims)
        object.__setattr__(obj, name, as_matrix(getattr(obj, name), name, shape))


def check_norm_bound(name, mat, bound):
    """max |mat|, or NormBoundError when it exceeds bound or is NaN.

    The relative slack of 1e-12 lets instances rescaled to sit exactly at
    the bound pass on the last float64 ulp.
    """
    measured = float(np.abs(mat).max())
    if not measured <= bound * (1.0 + 1e-12):
        raise NormBoundError(name, measured, bound)
    return measured


def check_positive_finite(name, value):
    """Raise ValueError unless value is positive and finite (NaN fails too)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
