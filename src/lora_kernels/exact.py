"""Exact adapter gradients via the dense quadratic-cost pipeline.

This path materializes the L x L intermediates on purpose: it is the
reference whose cost grows as Theta(L^2) and against which the factored path
is compared. The stages are

    f = rownorm(exp(C1 @ W @ C2.T))           attention matrix
    c = f @ C3 - Y                            residual
    q = C3 @ c.T                              score matrix (columns <-> rows)
    r_j = <f_j, q_j> = <c_j + Y_j, c_j>       row dots, O(L d) from c
    p[:, j] = f_j * (q_j - r_j)               softmax-Jacobian action
    dL/dW = C1.T @ p.T @ C2                   weight gradient

with the adapter gradients read off as dL/dA = B.T @ dL/dW and
dL/dB = dL/dW @ A.T. p stores column j against softmax row j, so the matrix
sandwiched between C1.T and C2 is p.T, whose row j is p_j.

A gradient holds two L x L buffers. The scores S are exponentiated and
normalized in place into f, and p is written over q. q is stored
column-major, like f.T, so each L x L pass reads and writes in memory order.

The general problem is two copies of the special case that share one score
matrix (compose_general_constants). One p therefore serves both sides, and
so does one sandwich: both weight gradients are read off G = XQ.T @ p.T @ XK.
"""

from dataclasses import dataclass

import numpy as np

from . import instrument
from .attention import (
    adapted_weight,
    check_dense_guard,
    compose_general_constants,
    forward_f,
    q_from_c,
    residual_from_f,
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


def split_p(f, q, r, out=None):
    """Softmax-Jacobian action p from the attention, score and row-dot arrays.

    Column j of p is (diag(f_j) - f_j f_j^T) q_j = f_j * (q_j - r_j), where
    f_j is softmax row j of f, q_j is column j of q and r_j = <f_j, q_j>
    (softmax_dots). Each column costs O(L). p is written into out, which may
    be q itself; without out, a new array is returned and f and q are left
    unchanged.
    """
    f = np.asarray(f)
    q = np.asarray(q)
    r = np.asarray(r)
    if f.shape != q.shape or f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise DimensionError(
            f"f and q must be equal square matrices, got {f.shape} and {q.shape}"
        )
    if r.shape != f.shape[:1]:
        raise DimensionError(f"r must have shape {f.shape[:1]}, got {r.shape}")
    check_dense_guard(f.shape[0])
    p = np.subtract(q, r, out=out)
    p *= f.T
    instrument.count(2 * f.size)
    instrument.alloc(p.size)
    return p


def compute_p(inst, W):
    """The L x L softmax-Jacobian action p at weight W (forward pass included)."""
    f = forward_f(inst, W)
    c = residual_from_f(f, inst)
    q = q_from_c(c, inst)
    return split_p(f, q, softmax_dots(c, inst.Y), out=q)


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

