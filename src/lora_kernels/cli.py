"""Command-line front end.

Subcommands: gen, grad, approx, check, bench, sweep, reduce-check. Exit
codes: 0 on success, 1 on validation failure (bad inputs, failed checks,
library errors), 2 on usage errors (argparse's own convention).
"""

import argparse
import os
import sys

import numpy as np

from .attention import adapted_weight, forward_output, loss
from .errors import LoraKernelsError
from .exact import grad_adapters_special
from .harness import (
    bench_scaling,
    embed_attlgc,
    gen_instance,
    gen_reduction,
    sweep_gamma,
)
from .lowrank import PolyApproxConfig, approx_f_poly, grad_from_f_factor
from .matio import load_bundle, save_bundle, save_matrix
from .oracle import (
    KRON_GUARD_D,
    KRON_GUARD_L,
    approx_f_svd,
    dense_kron_grad_oracle,
    fd_grad,
    fd_grad_adapter,
)


def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def _float_list(text):
    return [float(x) for x in text.split(",") if x]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lora-kernels",
        description="Exact and factored adapter gradients for softmax attention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded instance bundle")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--out", required=True, help="bundle directory to write")

    p = sub.add_parser("grad", help="exact adapter gradients of a bundle")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--out", help="output directory (default: the bundle)")

    p = sub.add_parser("approx", help="factored adapter gradients of a bundle")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--backend", choices=("poly", "svd"), default="poly")
    p.add_argument("--gamma", type=float, help="norm bound (default: bundle meta)")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--rank", type=int, help="svd rank / poly rank ceiling")
    p.add_argument(
        "--strict-rank",
        action="store_true",
        help="cap the poly feature rank at L (and at --rank when given), "
        "failing when the degree needs more",
    )
    p.add_argument("--out", help="output directory (default: the bundle)")

    p = sub.add_parser("check", help="cross-route gradient agreement report")
    p.add_argument("--in", dest="indir", required=True)

    p = sub.add_parser("bench", help="exact vs factored cost scaling CSV")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--L", type=_int_list, required=True, help="comma list, e.g. 512,1024")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--gamma", type=float, default=0.25)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", help="CSV path (default: stdout)")

    p = sub.add_parser("sweep", help="norm-bound sweep CSV")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--gammas", type=_float_list, default=[0.25, 0.5, 1.0, 2.0, 4.0])
    p.add_argument("--L", type=int, default=64)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--out", help="CSV path (default: stdout)")

    p = sub.add_parser("reduce-check", help="embedding fidelity report")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--L", type=int, default=8)
    p.add_argument("--r-red", type=int, default=2)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--b-bound", type=float, default=1.0)

    return parser


def _load_full_bundle(indir):
    inst, meta, Wstar, adapter = load_bundle(indir)
    if Wstar is None or adapter is None:
        raise LoraKernelsError(
            f"bundle {indir} lacks Wstar.mat/B.mat/A.mat; regenerate it with 'gen'"
        )
    return inst, meta, Wstar, adapter


def _cmd_gen(args):
    inst, adp, Wstar = gen_instance(args.seed, args.L, args.d, args.r, args.gamma)
    save_bundle(args.out, inst, args.seed, args.gamma, Wstar=Wstar, adapter=adp)
    print(f"wrote bundle to {args.out}")
    return 0


def _cmd_grad(args):
    inst, _meta, Wstar, adp = _load_full_bundle(args.indir)
    pair = grad_adapters_special(inst, Wstar, adp)
    outdir = args.out or args.indir
    os.makedirs(outdir, exist_ok=True)
    save_matrix(os.path.join(outdir, "GA.mat"), pair.GA)
    save_matrix(os.path.join(outdir, "GB.mat"), pair.GB)
    print(f"wrote GA.mat and GB.mat to {outdir}")
    return 0


def _cmd_approx(args):
    inst, meta, Wstar, adp = _load_full_bundle(args.indir)
    W = adapted_weight(Wstar, adp)
    if args.backend == "svd":
        k = args.rank if args.rank is not None else inst.L
        f_lr = approx_f_svd(inst, W, k)
    else:
        gamma = args.gamma if args.gamma is not None else meta[3]
        max_rank = args.rank
        if args.strict_rank:
            max_rank = inst.L if max_rank is None else min(max_rank, inst.L)
        cfg = PolyApproxConfig(gamma=gamma, degree=None, eps_target=args.eps)
        f_lr = approx_f_poly(inst, W, cfg, max_rank=max_rank)
    pair = grad_from_f_factor(f_lr, inst, adp)
    outdir = args.out or args.indir
    os.makedirs(outdir, exist_ok=True)
    save_matrix(os.path.join(outdir, "GA_approx.mat"), pair.GA)
    save_matrix(os.path.join(outdir, "GB_approx.mat"), pair.GB)
    print(
        f"wrote GA_approx.mat and GB_approx.mat to {outdir} "
        f"(backend {args.backend}, rank {f_lr.k})"
    )
    return 0


def _cmd_check(args):
    inst, _meta, Wstar, adp = _load_full_bundle(args.indir)
    pair = grad_adapters_special(inst, Wstar, adp)
    failures = 0

    fd_a = fd_grad_adapter(inst, Wstar, adp, "A")
    fd_b = fd_grad_adapter(inst, Wstar, adp, "B")
    scale = max(1.0, float(np.abs(fd_a).max()), float(np.abs(fd_b).max()))
    err_fd = max(
        float(np.abs(pair.GA - fd_a).max()), float(np.abs(pair.GB - fd_b).max())
    ) / scale
    ok = err_fd <= 1e-5
    failures += 0 if ok else 1
    print(f"finite differences: max rel err {err_fd:.3e} {'PASS' if ok else 'FAIL'}")

    if inst.L <= KRON_GUARD_L and inst.d <= KRON_GUARD_D:
        ko = dense_kron_grad_oracle(inst, Wstar, adp)
        err_k = max(
            float(np.abs(pair.GA - ko.GA).max()), float(np.abs(pair.GB - ko.GB).max())
        )
        ok = err_k <= 1e-10
        failures += 0 if ok else 1
        print(f"kronecker route:    max abs err {err_k:.3e} {'PASS' if ok else 'FAIL'}")
    else:
        print(
            "kronecker route:    skipped "
            f"(needs L <= {KRON_GUARD_L} and d <= {KRON_GUARD_D})"
        )
    return 0 if failures == 0 else 1


def _write_or_print(result, out):
    if out:
        result.write_csv(out)
        print(f"wrote {out}")
    else:
        sys.stdout.write(result.csv_text())


def _cmd_bench(args):
    cfg = PolyApproxConfig(gamma=args.gamma, degree=None, eps_target=args.eps)
    result = bench_scaling(
        args.L, args.d, args.r, cfg, repeats=args.repeats, seed=args.seed
    )
    _write_or_print(result, args.out)
    for L, path in result.skipped:
        print(f"skipped {path} at L={L} (size guard)", file=sys.stderr)
    return 0


def _cmd_sweep(args):
    result = sweep_gamma(
        args.gammas, args.L, args.d, args.r, args.eps, seed=args.seed
    )
    _write_or_print(result, args.out)
    return 0


def _cmd_reduce_check(args):
    red, X = gen_reduction(args.seed, args.L, args.r_red, args.b_bound)
    inst, adp = embed_attlgc(red, X, args.d)
    Wstar = np.zeros((args.d, args.d))
    failures = 0

    out_att = forward_output(inst, adapted_weight(Wstar, adp))
    out_red = forward_output(red, X)
    err_out = float(np.abs(out_att[:, : args.r_red] - out_red).max())
    ok = err_out <= 1e-10
    failures += 0 if ok else 1
    print(f"output subblock:  max abs err {err_out:.3e} {'PASS' if ok else 'FAIL'}")

    pair = grad_adapters_special(inst, Wstar, adp)
    fd = fd_grad(lambda Xp: loss(red, Xp), X)
    scale = max(1.0, float(np.abs(fd).max()))
    err_g = float(np.abs(pair.GA[:, : args.r_red] - fd).max()) / scale
    ok = err_g <= 1e-5
    failures += 0 if ok else 1
    print(f"gradient vs loss: max rel err {err_g:.3e} {'PASS' if ok else 'FAIL'}")
    return 0 if failures == 0 else 1


_HANDLERS = {
    "gen": _cmd_gen,
    "grad": _cmd_grad,
    "approx": _cmd_approx,
    "check": _cmd_check,
    "bench": _cmd_bench,
    "sweep": _cmd_sweep,
    "reduce-check": _cmd_reduce_check,
}


def cli_main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (LoraKernelsError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
