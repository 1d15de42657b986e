"""Exact proximity operator of the log-sum penalty.

Closed-form scalar/vector/matrix proximity operators of
``sum_i log(1 + |x_i|/eps)``, the cached solve for the jump point of the
nonconvex-regime operator, a simulator and analytic limit map of the
iteratively reweighted l1 scheme (including its exact failure intervals),
and an independent brute-force grid oracle used by the test suite.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    LogSumProxError,
    MatrixFormatError,
    PreconditionError,
    RegimeError,
)
from .irl1 import (
    FailureCase,
    FailureReport,
    Interval,
    IrlTrace,
    LimitKind,
    LimitPrediction,
    StopReason,
    failure_intervals,
    irl1_predict_limit,
    irl1_simulate,
    irl1_step,
    limit_matches_prox,
)
from .matrix import (
    MatrixProxResult,
    logdet_penalty,
    matrix_objective,
    prox_matrix,
    svd,
)
from .matrix_io import read_matrix, write_matrix
from .oracle import OracleConfig, OracleProxInfo, oracle_prox, oracle_prox_info, oracle_z_star
from .scalar import (
    ProxKind,
    ProxParams,
    ProxResult,
    Regime,
    ZStarResult,
    prox_scalar,
    q_objective,
    r1,
    r2,
    z_star,
)
from .vector import (
    VectorProxResult,
    logsum_penalty,
    prox_vector,
    vector_objective,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "LogSumProxError",
    "MatrixFormatError",
    "PreconditionError",
    "RegimeError",
    "FailureCase",
    "FailureReport",
    "Interval",
    "IrlTrace",
    "LimitKind",
    "LimitPrediction",
    "StopReason",
    "failure_intervals",
    "irl1_predict_limit",
    "irl1_simulate",
    "irl1_step",
    "limit_matches_prox",
    "MatrixProxResult",
    "logdet_penalty",
    "matrix_objective",
    "prox_matrix",
    "svd",
    "read_matrix",
    "write_matrix",
    "OracleConfig",
    "OracleProxInfo",
    "oracle_prox",
    "oracle_prox_info",
    "oracle_z_star",
    "ProxKind",
    "ProxParams",
    "ProxResult",
    "Regime",
    "ZStarResult",
    "prox_scalar",
    "q_objective",
    "r1",
    "r2",
    "z_star",
    "VectorProxResult",
    "logsum_penalty",
    "prox_vector",
    "vector_objective",
    "__version__",
]
