"""Exact adapter gradients in O(L * block) memory, independent of the library.

The dense exact path holds five L x L arrays, which do not fit in memory at
the long sequence lengths the approximate path is benchmarked on. Softmax
row j of f, residual row c_j and the softmax-Jacobian row p_j depend on row
j of the scores alone, so one pass over row blocks gives the exact dL/dW:

    p_j = f_j * (C3 c_j) - f_j <f_j, C3 c_j>,   <f_j, C3 c_j> = (f_j C3) . c_j
    dL/dW = sum_j C1[j].T (p_j C2)

The cost stays Theta(L^2 d); only the memory drops. Gradients are compared
with the measure of acceptance criterion 4: max|got - ref| / (1 + max|ref|).
"""

import numpy as np

BLOCK = 256


def grad_W(C1, W, C2, C3, Y, block=BLOCK):
    """dL/dW of 0.5 ||rownorm(exp(C1 W C2.T)) C3 - Y||_F^2, row block by block."""
    L, d = C1.shape
    CW = C1 @ W
    out = np.zeros((d, d))
    for lo in range(0, L, block):
        hi = min(lo + block, L)
        F = CW[lo:hi] @ C2.T
        F -= F.max(axis=1, keepdims=True)
        np.exp(F, out=F)
        F /= F.sum(axis=1, keepdims=True)
        fc = F @ C3
        c = fc - Y[lo:hi]
        P = c @ C3.T
        P -= np.einsum("ij,ij->i", fc, c)[:, None]
        P *= F
        out += C1[lo:hi].T @ (P @ C2)
    return out


def special_grads(inst, Wstar, adp):
    """[dL/dA, dL/dB] of the query-side special case."""
    W = (adp.r / adp.alpha) * Wstar + adp.B @ adp.A
    M = grad_W(inst.C1, W, inst.C2, inst.C3, inst.Y)
    return [adp.B.T @ M, M @ adp.A.T]


def general_grads(g, adpQ, adpK):
    """[Q dL/dA, Q dL/dB, K dL/dA, K dL/dB] of the two-sided problem.

    The query weight carries the adapter scale alpha/r and the key weight
    does not. The key side differentiates the same scores written as
    (XQ WQ) WK.T XK.T, so its gradient comes out transposed.
    """
    sQ = adpQ.alpha / adpQ.r
    WQ = g.WQstar + sQ * (adpQ.B @ adpQ.A)
    WK = g.WKstar + adpK.B @ adpK.A
    C3 = g.XV @ g.WVstar
    NQ = grad_W(g.XQ, WQ, g.XK @ WK, C3, g.Y)
    NK = grad_W(g.XQ @ WQ, WK.T, g.XK, C3, g.Y).T
    return [
        sQ * (adpQ.B.T @ NQ),
        sQ * (NQ @ adpQ.A.T),
        adpK.B.T @ NK,
        NK @ adpK.A.T,
    ]


def rel_err(got, ref):
    """max|got - ref| / (1 + max|ref|) over matching lists of arrays."""
    diff = max(float(np.abs(a - b).max()) for a, b in zip(got, ref, strict=True))
    scale = max(float(np.abs(b).max()) for b in ref)
    return diff / (1.0 + scale)
