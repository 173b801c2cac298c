"""Exact adapter gradients via the dense quadratic-cost pipeline.

This path materializes the L x L intermediates on purpose: it is the
reference whose cost grows as Theta(L^2) and against which the factored path
is compared. The stages are

    f = rownorm(exp(C1 @ W @ C2.T))           attention matrix, held as (E, z)
    c = f @ C3 - Y = (E @ C3) / z - Y         residual
    q = C3 @ c.T                              held as its rank-d pair (C3, c)
    r_j = <f_j, q_j> = <c_j + Y_j, c_j>       row dots, O(L d) from c
    p[:, j] = f_j * (q_j - r_j)               softmax-Jacobian action
    dL/dW = C1.T @ (p.T @ C2)                 weight gradient

with the adapter gradients read off as dL/dA = B.T @ dL/dW and
dL/dB = dL/dW @ A.T. p stores column j against softmax row j, so the matrix
sandwiched between C1.T and C2 is p.T, whose row j is p_j.

f is held as the pair (E, z) of attention.softmax_rows: E = exp(S) is
never normalized, and the softmax's 1/z rides on thin operands instead of
L^2 entries. Row j of p.T is f_j * (c_j @ C3.T - r_j) = E_j * (c'_j @ C3.T
- r'_j) with c' = c / z and r' = r / z, so compute_p divides c and r in
place, O(L d), once r is read off c, and split_p runs on (E, (C3, c'), r')
unchanged.

A gradient holds one L x L buffer, S, from instrument.empty. S is
exponentiated in place into E, and p.T is written over E.
q has rank d, so it is never built whole (attention.q_from_c): split_p
forms each row block of q.T from the pair in one block-sized scratch
buffer, also from instrument.empty, just before it multiplies it into E.
S is the one buffer a warm gradient still maps afresh: at L = 2048 its
32 MiB chunk is past the 32 MiB ceiling of glibc's dynamic mmap threshold,
so every call mmaps it and faults it in, 17 times (huge pages) when the
mapping lands 2 MiB-aligned and about 530 times when it does not. A
gradient that runs in row-block passes and never forms S would remove both.

Every pass over the L x L buffer walks it in row blocks of
max(1, BLOCK_ELEMENTS // L) rows, about 512 KiB (attention.row_blocks).
The stages that make several passes (softmax and p) finish each block
while it is in cache. The two thin products over the buffer, the
residual's E @ C3 and the sandwich's p.T @ C2, run one block-sized product
per block (attention.thin_product). The score and q.T blocks multiply by
a d x L transpose made contiguous once, before the block loop. A gradient
reads or writes an L x L buffer 7 times: scores 1, softmax 2 (read S,
write E), residual 1, p 2 (read E, write p over it) and the sandwich 1.
When the scores' Cauchy-Schwarz radius is within SHIFT_FREE
(attention.score_radius), no block of S is read back for its range or its
row maxima, and no pass scales E by 1/z.

The two-sided problem's scores XQ @ WQ @ WK.T @ XK.T are the special
case's scores on (C1, C2) = (XQ, XK) at the one weight W = WQ @ WK.T, and
attention.compose_general_constants returns that instance with WQ and WK.
So one special gradient G = grad_wrt_W at that W serves both sides:
dL/dWQ = G @ WK and dL/dWK = G.T @ WQ, two d x d products.
"""

from dataclasses import dataclass

import numpy as np

from . import instrument
from .attention import (
    adapted_weight,
    block_rows,
    compose_general_constants,
    q_from_c,
    residual_from_f,
    row_blocks,
    softmax_dots,
    softmax_pair,
    thin_product,
)
from .errors import DimensionError


@dataclass(frozen=True)
class GradientPair:
    """Adapter gradients dL/dA (r x d) and dL/dB (d x r)."""

    GA: np.ndarray
    GB: np.ndarray


def project(adp, M):
    """Adapter gradients (B.T @ M, M @ A.T) from the weight gradient M."""
    return GradientPair(
        GA=instrument.matmul(adp.B.T, M), GB=instrument.matmul(M, adp.A.T)
    )


def split_p(f, q, r):
    """Softmax-Jacobian action p, written over f, from f, the pair q = (C3, c) and r.

    Column j of p is (diag(f_j) - f_j f_j^T) q_j = f_j * (q_j - r_j), where
    f_j is softmax row j of f, q_j = C3 @ c_j is column j of q = C3 @ c.T
    and r_j = <f_j, q_j> (softmax_dots). In row blocks of the transposes,
    p.T[blk] = (c[blk] @ C3.T - r[blk]) * f[blk]: each block of q.T is built
    in one block-sized scratch buffer and multiplied into f while both are
    in cache, so q is never held whole. compute_p passes the unnormalized E
    for f, with c and r divided by E's row sums, which gives the same p.
    Returns f.T, the buffer now holding p.T, in p's column convention.
    """
    C3, c = q
    L = f.shape[0]
    if f.shape != (L, L):
        raise DimensionError(f"f must be a square matrix, got {f.shape}")
    if C3.ndim != 2 or C3.shape[0] != L or c.shape != C3.shape:
        raise DimensionError(
            f"q's factors must both be {L} x d, got {C3.shape} and {c.shape}"
        )
    if r.shape != (L,):
        raise DimensionError(f"r must have shape {(L,)}, got {r.shape}")
    q_rows = instrument.empty((min(L, block_rows(L)), L))
    C3_T = np.ascontiguousarray(C3.T)
    for blk in row_blocks(L, L):
        c_blk = c[blk]
        q_blk = instrument.matmul(c_blk, C3_T, out=q_rows[: len(c_blk)])
        q_blk -= r[blk, None]
        f[blk] *= q_blk
    instrument.count(2 * f.size)
    return f.T


def compute_p(inst, W):
    """The L x L softmax-Jacobian action p at weight W (forward pass included).

    f is held as (E, z). r is read off the residual c; then c and r are
    divided by z in place, so split_p multiplies E by the rows of
    (q.T - r) / z and p needs no normalized f.
    """
    f = E, z = softmax_pair(inst, W)
    c = residual_from_f(f, inst)
    r = softmax_dots(c, inst.Y)
    c /= z[:, None]
    r /= z
    instrument.count(c.size + r.size)
    return split_p(E, q_from_c(c, inst), r)


def grad_wrt_W(inst, W):
    """dL/dW as a d x d matrix, assembled as C1.T @ (p.T @ C2).

    p.T @ C2 is a thin product over the p.T buffer (attention.thin_product),
    with the multiply-adds of (C1.T @ p.T) @ C2.
    """
    pC2 = thin_product(compute_p(inst, W).T, inst.C2)
    return instrument.matmul(inst.C1.T, pC2)


def grad_adapters_special(inst, Wstar, adp):
    """Exact (dL/dA, dL/dB) for the query-side special case."""
    if adp.d != inst.d:
        raise DimensionError("adapter dimension does not match the instance")
    return project(adp, grad_wrt_W(inst, adapted_weight(Wstar, adp)))


def grad_adapters_general(g, adpQ, adpK):
    """Exact gradient pairs (Q-side, K-side) of the two-sided problem.

    The composed instance's scores at W = WQ @ WK.T are the two-sided
    scores (attention.compose_general_constants), so G = grad_wrt_W there
    gives dL/dWQ = G @ WK and dL/dWK = G.T @ WQ. Each weight gradient
    carries its adapter's scale alpha/r.
    """
    inst, WQ, WK = compose_general_constants(g, adpQ, adpK)
    G = grad_wrt_W(inst, instrument.matmul(WQ, WK.T))
    NQ = instrument.matmul(G, WK)
    NK = instrument.matmul(G.T, WQ)
    return project(adpQ, adpQ.scale * NQ), project(adpK, adpK.scale * NK)

