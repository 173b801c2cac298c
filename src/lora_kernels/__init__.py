"""Exact and almost-linear adapter gradients for softmax attention regression.

The exact path materializes the quadratic-size intermediates and serves as
ground truth; the factored path replaces each of them with a low-rank pair
and degrades past a norm threshold, which the harness exposes as growing
error and exploding feature rank.
"""

from .attention import (
    AttentionInstance,
    GeneralInstance,
    LoraAdapter,
    adapted_weight,
    compose_general_constants,
    compose_special_constants,
    forward_f,
    forward_output,
    general_loss,
    loss,
    residual_c,
    score_q,
)
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
from .exact import (
    GradientPair,
    compute_p,
    grad_adapters_general,
    grad_adapters_special,
    grad_wrt_W,
)
from .harness import (
    ReductionInstance,
    SweepResult,
    bench_scaling,
    embed_attlgc,
    gen_instance,
    gen_reduction,
    reduction_loss,
    sweep_gamma,
)
from .lowrank import (
    KhatriRaoFactor,
    LowRankFactor,
    PolyApproxConfig,
    approx_f_poly,
    approx_grad_general,
    approx_grad_special,
    approx_p1,
    approx_p2,
    approx_q,
    grad_from_f_factor,
    select_degree,
)
from .oracle import PMatrices, approx_f_svd, jacobian_blocks
from .tensorops import (
    PermutationMap,
    colwise_kronecker,
    kronecker,
    matrixize,
    subblock,
    transpose_perm,
    vectorize,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionInstance",
    "GeneralInstance",
    "LoraAdapter",
    "adapted_weight",
    "compose_general_constants",
    "compose_special_constants",
    "forward_f",
    "forward_output",
    "general_loss",
    "loss",
    "residual_c",
    "score_q",
    "ApproxBreakdownError",
    "DimensionError",
    "LoraKernelsError",
    "NonFiniteError",
    "NormBoundError",
    "RankInfeasibleError",
    "ScoreOverflowError",
    "SizeGuardError",
    "GradientPair",
    "PMatrices",
    "compute_p",
    "grad_adapters_general",
    "grad_adapters_special",
    "grad_wrt_W",
    "jacobian_blocks",
    "ReductionInstance",
    "SweepResult",
    "bench_scaling",
    "embed_attlgc",
    "gen_instance",
    "gen_reduction",
    "reduction_loss",
    "sweep_gamma",
    "KhatriRaoFactor",
    "LowRankFactor",
    "PolyApproxConfig",
    "approx_f_poly",
    "approx_f_svd",
    "approx_grad_general",
    "approx_grad_special",
    "approx_p1",
    "approx_p2",
    "approx_q",
    "grad_from_f_factor",
    "select_degree",
    "PermutationMap",
    "colwise_kronecker",
    "kronecker",
    "matrixize",
    "subblock",
    "transpose_perm",
    "vectorize",
    "__version__",
]
