"""Plain-text matrix files and on-disk instance bundles.

Matrix format: first line "<rows> <cols>", then one line per row of
whitespace-separated decimal literals written with 17 significant digits,
which round-trips float64 exactly. Both directions check the matrix with
errors.as_matrix, so a non-finite matrix is refused before its file is
written, and a file that saves always loads.

An instance bundle is a directory holding C1.mat, C2.mat, C3.mat, Y.mat and
meta.txt (one line: "L d seed gamma"). Generated bundles also carry
Wstar.mat, B.mat and A.mat so gradient commands can run from the directory
alone. The format has no field for the adapter scale: a loaded adapter has
alpha = r, so only such adapters are saved.
"""

import os

import numpy as np

from .attention import AttentionInstance, LoraAdapter
from .errors import as_matrix


def save_matrix(path, M):
    M = as_matrix(M, str(path))
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(f"{x:.17g}" for x in row))
            fh.write("\n")


def load_matrix(path):
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed header {header!r}")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(fh, ndmin=2)
    if rows == 0 or cols == 0:
        data = np.zeros((rows, cols))
    return as_matrix(data, str(path), (rows, cols))


def save_bundle(dirpath, inst, seed, gamma, Wstar=None, adapter=None):
    """Write an instance (and optionally its adapter) as a bundle directory.

    Raises ValueError, before writing anything, for an adapter whose alpha
    is not r: the bundle would load back as a different model.
    """
    if adapter is not None and adapter.alpha != adapter.r:
        raise ValueError(
            f"bundles store adapters with alpha = r only, got alpha="
            f"{adapter.alpha} for r={adapter.r}"
        )
    os.makedirs(dirpath, exist_ok=True)
    save_matrix(os.path.join(dirpath, "C1.mat"), inst.C1)
    save_matrix(os.path.join(dirpath, "C2.mat"), inst.C2)
    save_matrix(os.path.join(dirpath, "C3.mat"), inst.C3)
    save_matrix(os.path.join(dirpath, "Y.mat"), inst.Y)
    with open(os.path.join(dirpath, "meta.txt"), "w") as fh:
        fh.write(f"{inst.L} {inst.d} {seed} {gamma:.17g}\n")
    if Wstar is not None:
        save_matrix(os.path.join(dirpath, "Wstar.mat"), Wstar)
    if adapter is not None:
        save_matrix(os.path.join(dirpath, "B.mat"), adapter.B)
        save_matrix(os.path.join(dirpath, "A.mat"), adapter.A)


def load_meta(dirpath):
    """Return (L, d, seed, gamma) from a bundle's meta.txt."""
    with open(os.path.join(dirpath, "meta.txt")) as fh:
        parts = fh.readline().split()
    if len(parts) != 4:
        raise ValueError(f"meta.txt should hold 'L d seed gamma', got {parts!r}")
    return int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])


def load_bundle(dirpath):
    """Read a bundle directory back into (inst, meta, Wstar, adapter).

    Wstar and adapter are None when the optional files are absent. A meta.txt
    whose L and d disagree with the matrices raises ValueError.
    """
    inst = AttentionInstance(
        C1=load_matrix(os.path.join(dirpath, "C1.mat")),
        C2=load_matrix(os.path.join(dirpath, "C2.mat")),
        C3=load_matrix(os.path.join(dirpath, "C3.mat")),
        Y=load_matrix(os.path.join(dirpath, "Y.mat")),
    )
    meta = load_meta(dirpath)
    if meta[:2] != (inst.L, inst.d):
        raise ValueError(
            f"{dirpath}: meta.txt gives L x d = {meta[0]} x {meta[1]}, but the "
            f"matrices are {inst.L} x {inst.d}"
        )
    Wstar = None
    adapter = None
    wpath = os.path.join(dirpath, "Wstar.mat")
    if os.path.exists(wpath):
        Wstar = load_matrix(wpath)
    bpath = os.path.join(dirpath, "B.mat")
    apath = os.path.join(dirpath, "A.mat")
    if os.path.exists(bpath) and os.path.exists(apath):
        B = load_matrix(bpath)
        A = load_matrix(apath)
        r = B.shape[1]
        adapter = LoraAdapter(B=B, A=A, r=r, alpha=float(r))
    return inst, meta, Wstar, adapter
