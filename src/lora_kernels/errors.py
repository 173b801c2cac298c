"""Exception types shared across the library, and the checks that raise them."""

import math

import numpy as np


class LoraKernelsError(Exception):
    """Base class for all library-specific failures."""


class DimensionError(LoraKernelsError, ValueError):
    """Operand shapes are inconsistent or would overflow a sane size budget."""


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


def as_matrix(a, name="matrix"):
    """Validate a as a finite 2-D float64 array and return it."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains NaN or infinite entries")
    return arr


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
