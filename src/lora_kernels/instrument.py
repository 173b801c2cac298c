"""Arithmetic instrumentation: multiply-add tallies, the allocation rule, slopes.

The multiply-add counts are analytic, so they are exact, deterministic, and
independent of wall-clock noise. A matrix product is charged from its own
operands (matmul), so its count cannot drift from the code it counts;
elementwise work is charged by the kernel that does it (count).

Every large buffer is allocated by empty, which refuses one of more than
guard_limit()**2 elements before allocating it and records the size of the
rest; the record is how the tests prove the factored gradient path never
materializes an L x L intermediate.
"""

import math
import os

import numpy as np

from .errors import SizeGuardError

# An L x L buffer passes the guard up to L = DEFAULT_GUARD_L.
DEFAULT_GUARD_L = 2**14
GUARD_ENV_VAR = "LORA_KERNELS_GUARD_L"

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


def guard_limit():
    """Current guard G: no buffer may hold more than G**2 elements."""
    raw = os.environ.get(GUARD_ENV_VAR)
    if raw is None:
        return DEFAULT_GUARD_L
    if not raw.strip().isdecimal():
        raise ValueError(f"{GUARD_ENV_VAR} must be an integer >= 0, got {raw!r}")
    return int(raw)


def empty(*shapes):
    """np.empty of each shape, refused past guard_limit()**2 elements, else recorded.

    All shapes are checked before any is allocated, so a SizeGuardError leaves
    none behind; an L x L buffer passes exactly when L <= guard_limit().
    One shape gives one array, several a list in their order.
    """
    sizes = [math.prod(shape) for shape in shapes]
    limit = guard_limit()
    for shape, n in zip(shapes, sizes):
        if n > limit * limit:
            dims = " x ".join(map(str, shape))
            raise SizeGuardError(
                f"refusing to allocate a {dims} buffer ({n} elements); the guard "
                f"allows {limit}**2 (override via {GUARD_ENV_VAR})"
            )
    for tally in _stack:
        tally.max_alloc = max([tally.max_alloc, *sizes])
    bufs = [np.empty(shape) for shape in shapes]
    return bufs if len(bufs) > 1 else bufs[0]


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
