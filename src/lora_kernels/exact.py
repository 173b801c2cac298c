"""Exact adapter gradients via the dense quadratic-cost pipeline.

This path materializes the L x L intermediates on purpose: it is the
reference whose cost grows as Theta(L^2) and against which the factored path
is compared. The stages are

    f = rownorm(exp(C1 @ W @ C2.T))           attention matrix
    c = f @ C3 - Y                            residual
    q = C3 @ c.T                              held as its rank-d pair (C3, c)
    r_j = <f_j, q_j> = <c_j + Y_j, c_j>       row dots, O(L d) from c
    p[:, j] = f_j * (q_j - r_j)               softmax-Jacobian action
    dL/dW = C1.T @ p.T @ C2                   weight gradient

with the adapter gradients read off as dL/dA = B.T @ dL/dW and
dL/dB = dL/dW @ A.T. p stores column j against softmax row j, so the matrix
sandwiched between C1.T and C2 is p.T, whose row j is p_j.

A gradient holds one L x L buffer, S, from instrument.empty. S is
exponentiated and normalized in place into f, and p.T is written over f.
q has rank d, so it is never built whole (attention.q_from_c): split_p
forms each row block of q.T from the pair in one block-sized scratch
buffer, also from instrument.empty, just before it multiplies it into f.
S is the one buffer a warm gradient still maps afresh: at L = 2048 its
32 MiB chunk is past the 32 MiB ceiling of glibc's dynamic mmap threshold,
so every call mmaps it and faults it in, 17 times (huge pages) when the
mapping lands 2 MiB-aligned and about 530 times when it does not. A
gradient that runs in row-block passes and never forms S would remove both.

The stages that make several passes over an L x L buffer (scores, softmax
and p) walk it in row blocks of max(1, BLOCK_ELEMENTS // L) rows, about
512 KiB (attention.row_blocks), and finish each block while it is in
cache. A gradient then reads or writes an L x L buffer 7 times: scores 1,
softmax 2, residual 1, p 2 (read f, write p over it) and the sandwich 1.

The general problem is two copies of the special case that share one score
matrix (compose_general_constants). One p therefore serves both sides, and
so does one sandwich: both weight gradients are read off G = XQ.T @ p.T @ XK.
"""

from dataclasses import dataclass

import numpy as np

from . import instrument
from .attention import (
    adapted_weight,
    block_rows,
    compose_general_constants,
    forward_f,
    q_from_c,
    residual_from_f,
    row_blocks,
    softmax_dots,
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
    in cache, so q is never held whole. Returns f.T, the buffer now holding
    p.T, in p's column convention.
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
    for blk in row_blocks(L, L):
        c_blk = c[blk]
        q_blk = instrument.matmul(c_blk, C3.T, out=q_rows[: len(c_blk)])
        q_blk -= r[blk, None]
        f[blk] *= q_blk
    instrument.count(2 * f.size)
    return f.T


def compute_p(inst, W):
    """The L x L softmax-Jacobian action p at weight W (forward pass included)."""
    f = forward_f(inst, W)
    c = residual_from_f(f, inst)
    q = q_from_c(c, inst)
    return split_p(f, q, softmax_dots(c, inst.Y))


def grad_wrt_W(inst, W):
    """dL/dW as a d x d matrix, assembled as C1.T @ p.T @ C2."""
    return _sandwich(inst.C1, compute_p(inst, W).T, inst.C2)


def _sandwich(C1, g_rows, C2):
    """C1.T @ g_rows @ C2 staged as (C1.T @ g_rows) @ C2."""
    return instrument.matmul(instrument.matmul(C1.T, g_rows), C2)


def grad_adapters_special(inst, Wstar, adp):
    """Exact (dL/dA, dL/dB) for the query-side special case."""
    if adp.d != inst.d:
        raise DimensionError("adapter dimension does not match the instance")
    return project(adp, grad_wrt_W(inst, adapted_weight(Wstar, adp)))


def grad_adapters_general(g, adpQ, adpK):
    """Exact gradient pairs (Q-side, K-side) of the two-sided problem.

    p is computed once on the query side and contracted once, into
    G = XQ.T @ p.T @ XK. The scores are XQ @ WQ @ WK.T @ XK.T, so
    dL/dWQ = G @ WK and dL/dWK = G.T @ WQ, two d x d products. Each weight
    gradient carries its adapter's scale alpha/r.
    """
    (inst_q, WQ), (_, WKT) = compose_general_constants(g, adpQ, adpK)
    G = _sandwich(g.XQ, compute_p(inst_q, WQ).T, g.XK)
    NQ = instrument.matmul(G, WKT.T)
    NK = instrument.matmul(G.T, WQ)
    return project(adpQ, adpQ.scale * NQ), project(adpK, adpK.scale * NK)

