"""The package's public names, and the module attributes the benchmark tracer patches by name.

``perfbench/tracing.py`` replaces these attributes with timing wrappers.
The benchmark's traced runs are the only other code that reads them, so a
renamed or deleted one would otherwise go unnoticed by this suite.
"""

import numpy as np
import pytest

import logsum_prox
from logsum_prox import ProxParams, cli, irl1, matrix, matrix_io, prox_vector, scalar, vector

PUBLIC = {
    "ConvergenceError", "DomainError", "LogSumProxError", "MatrixFormatError",
    "PreconditionError", "RegimeError",
    "FailureCase", "FailureReport", "Interval", "IrlTrace", "LimitKind", "LimitPrediction",
    "StopReason", "failure_intervals", "irl1_predict_limit", "irl1_simulate", "irl1_step",
    "limit_matches_prox",
    "MatrixProxResult", "logdet_penalty", "matrix_objective", "prox_matrix", "svd",
    "read_matrix", "write_matrix",
    "OracleConfig", "OracleProxInfo", "oracle_prox", "oracle_prox_info", "oracle_z_star",
    "ProxKind", "ProxParams", "ProxResult", "Regime", "ZStarResult", "prox_scalar",
    "q_objective", "r1", "r2", "z_star",
    "VectorProxResult", "logsum_penalty", "prox_vector", "vector_objective",
    "__version__",
}

TRACER_PATCHES = [
    (scalar, "z_star"),
    (vector, "prox_scalar"),
    (vector, "vector_objective"),
    (irl1, "r1"),
    (irl1, "r2"),
    (matrix, "svd"),
    (matrix, "prox_vector"),
    (matrix, "logsum_penalty"),
    (cli, "prox_matrix"),
    (matrix_io, "read_matrix"),
    (matrix_io, "write_matrix"),
]


def test_public_names():
    assert len(PUBLIC) == 45
    assert len(logsum_prox.__all__) == 45
    assert set(logsum_prox.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(logsum_prox, name), name


@pytest.mark.parametrize("module, name", TRACER_PATCHES,
                         ids=[f"{m.__name__.rsplit('.', 1)[1]}.{n}" for m, n in TRACER_PATCHES])
def test_tracer_patch_target_exists(module, name):
    assert callable(getattr(module, name))


def test_prox_vector_looks_up_vector_objective_by_module_name(monkeypatch):
    calls = []
    original = vector.vector_objective

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(vector, "vector_objective", counting)
    prox_vector(ProxParams(3.0, 1.0), np.array([2.9, 0.5]))
    assert len(calls) == 1
