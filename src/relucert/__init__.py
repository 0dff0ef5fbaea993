"""Certified robustness and trustworthiness analysis for small ReLU networks.

Pipeline: train (or load) a network, fold its batch norms, propagate
activation bounds, encode the exact mixed-integer model, and solve each
verification question with branch and bound over a bounded-variable
simplex. Independent oracles, one big-M MILP solved by HiGHS and an
activation-pattern enumeration, cross-check results.
"""

from .bnb import BnbOptions, BnbStatus, MilpResult, solve_milp
from .bounds import (
    InputBox,
    LayerBounds,
    Stability,
    StabilityMap,
    classify_neurons,
    propagate_bounds,
)
from .errors import (
    DimensionMismatch,
    Divergence,
    InvalidArg,
    InvalidValue,
    NumericalBreakdown,
    ParseError,
    RelucertError,
    SolverFailure,
    TooManyUnstable,
)
from .milp import (
    MilpProblem,
    default_delta_cap,
    encode_network,
    lp_tighten,
    set_robustness_objective,
    to_lp_text,
)
from .nnmodel import (
    AffineLayer,
    BatchNormParams,
    FoldedNetwork,
    HiddenLayer,
    NetworkSpec,
    OutputLayer,
    fold_bn,
    forward,
    forward_unfolded,
    load_network,
    network_hash,
    save_network,
)
from .trainer import (
    Dataset,
    TrainConfig,
    evaluate,
    gen_synthetic,
    load_dataset,
    save_dataset,
    train,
)
from .verify import (
    BatchRobustness,
    Comparison,
    RobustnessResult,
    TrustResult,
    VerificationQuery,
    VerifyOptions,
    compare_robustness_vs_test,
    query_hash,
    robustness,
    robustness_batch,
    robustness_report,
    trust_report,
    trustworthiness,
)

__version__ = "0.1.0"

# The oracle needs scipy and the solver does not, so the oracle is imported
# on first use of one of its names rather than with the package.
_ORACLE_NAMES = frozenset(
    ("OracleResult", "RobustnessSpec", "TrustSpec", "milp_opt", "pattern_enumerate_opt")
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AffineLayer",
    "BatchNormParams",
    "BatchRobustness",
    "BnbOptions",
    "BnbStatus",
    "Comparison",
    "Dataset",
    "DimensionMismatch",
    "Divergence",
    "FoldedNetwork",
    "HiddenLayer",
    "InputBox",
    "InvalidArg",
    "InvalidValue",
    "LayerBounds",
    "MilpProblem",
    "MilpResult",
    "NetworkSpec",
    "NumericalBreakdown",
    "OracleResult",
    "OutputLayer",
    "ParseError",
    "RelucertError",
    "RobustnessResult",
    "RobustnessSpec",
    "SolverFailure",
    "Stability",
    "StabilityMap",
    "TooManyUnstable",
    "TrainConfig",
    "TrustResult",
    "TrustSpec",
    "VerificationQuery",
    "VerifyOptions",
    "classify_neurons",
    "compare_robustness_vs_test",
    "default_delta_cap",
    "encode_network",
    "evaluate",
    "fold_bn",
    "forward",
    "forward_unfolded",
    "gen_synthetic",
    "load_dataset",
    "load_network",
    "lp_tighten",
    "milp_opt",
    "network_hash",
    "pattern_enumerate_opt",
    "propagate_bounds",
    "query_hash",
    "robustness",
    "robustness_batch",
    "robustness_report",
    "save_dataset",
    "save_network",
    "set_robustness_objective",
    "solve_milp",
    "to_lp_text",
    "train",
    "trust_report",
    "trustworthiness",
    "__version__",
]
