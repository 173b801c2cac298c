"""Arithmetic instrumentation: multiply-add tallies, allocation highwater, slopes.

The multiply-add counts are analytic, so they are exact, deterministic, and
independent of wall-clock noise. A matrix product is charged from its own
operands (matmul), so its count cannot drift from the code it counts;
elementwise work is charged by the kernel that does it (count). Allocation
tracking records the element count of every array a kernel registers, which
is how the tests prove the factored gradient path never materializes an
L x L intermediate.
"""

import numpy as np

_stack = []


class Tally:
    """Accumulated cost of one recorded region."""

    def __init__(self):
        self.madds = 0
        self.max_alloc = 0

    def __repr__(self):
        return f"Tally(madds={self.madds}, max_alloc={self.max_alloc})"


class recording:
    """Context manager that captures madds/allocations from enclosed kernels."""

    def __enter__(self):
        self.tally = Tally()
        _stack.append(self.tally)
        return self.tally

    def __exit__(self, exc_type, exc, tb):
        _stack.pop()
        return False


def count(n):
    """Charge n multiply-adds to every active recording."""
    for tally in _stack:
        tally.madds += n


def matmul(a, b, out=None):
    """a @ b, charging rows(a) * cols(a) * cols(b) multiply-adds.

    A vector b counts as one column. With out, the product is written there.
    """
    out = np.matmul(a, b, out=out)
    count(a.size * (b.shape[1] if b.ndim == 2 else 1))
    return out


def alloc(n_elements):
    """Record that a kernel materialized an array of n_elements entries."""
    for tally in _stack:
        if n_elements > tally.max_alloc:
            tally.max_alloc = n_elements


def loglog_slope(sizes, costs):
    """Least-squares slope of log(cost) against log(size).

    This is the scaling exponent estimate: 2.0 for a quadratic cost curve,
    1.0 for a linear one.
    """
    xs = np.log(np.asarray(sizes, dtype=float))
    ys = np.log(np.asarray(costs, dtype=float))
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    xbar = xs.mean()
    ybar = ys.mean()
    denom = ((xs - xbar) ** 2).sum()
    if denom == 0.0:
        raise ValueError("all sizes are equal; slope is undefined")
    return float(((xs - xbar) * (ys - ybar)).sum() / denom)
