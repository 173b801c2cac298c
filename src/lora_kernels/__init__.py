"""Exact and almost-linear adapter gradients for softmax attention regression.

The exact path materializes the quadratic-size intermediates and serves as
ground truth; the factored path replaces each of them with a low-rank pair
and degrades past a norm threshold, which the harness exposes as growing
error and exploding feature rank.

The package root holds only the error types, which every module raises.
Every other name is imported from its own module (see the README's Library
API table), so importing the gradient path loads neither the oracles nor
the harness.
"""

from .errors import (
    ApproxBreakdownError,
    DimensionError,
    LoraKernelsError,
    NonFiniteError,
    NormBoundError,
    RankInfeasibleError,
    ScoreOverflowError,
    SizeGuardError,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxBreakdownError",
    "DimensionError",
    "LoraKernelsError",
    "NonFiniteError",
    "NormBoundError",
    "RankInfeasibleError",
    "ScoreOverflowError",
    "SizeGuardError",
    "__version__",
]
