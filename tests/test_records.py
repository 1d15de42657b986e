"""Result records: immutable NamedTuples with fixed field names, order and repr."""

import numpy as np
import pytest

from logsum_prox import (
    FailureCase,
    FailureReport,
    Interval,
    IrlTrace,
    LimitKind,
    LimitPrediction,
    MatrixProxResult,
    ProxKind,
    ProxResult,
    StopReason,
    VectorProxResult,
    ZStarResult,
)
from logsum_prox.matrix import SvdFactorization

IV = Interval(-2.5, -1.0, False, True)

# (record, field names in order, one example, its repr); the reprs are those
# the records printed as frozen dataclasses, so they must not change
RECORDS = [
    (LimitPrediction, ("limit", "classification", "justification"),
     LimitPrediction(1.5, LimitKind.R2, "conv6"),
     "LimitPrediction(limit=1.5, classification=<LimitKind.R2: 'r2'>, justification='conv6')"),
    (Interval, ("lower", "upper", "lower_closed", "upper_closed"),
     Interval(1.0, 2.5, True, False),
     "Interval(lower=1.0, upper=2.5, lower_closed=True, upper_closed=False)"),
    (FailureReport, ("x0", "z_star", "intervals", "case"),
     FailureReport(0.5, 2.5, (IV,), FailureCase.MID_X0),
     "FailureReport(x0=0.5, z_star=2.5, intervals=(Interval(lower=-2.5, upper=-1.0, lower_closed=False, "
     "upper_closed=True),), case=<FailureCase.MID_X0: 'mid_x0'>)"),
    (IrlTrace, ("z", "x0", "iterates", "stop_reason", "limit_estimate"),
     IrlTrace(2.9, 1.0, (1.0, 1.4), StopReason.MAX_ITERS, 1.4),
     "IrlTrace(z=2.9, x0=1.0, iterates=(1.0, 1.4), stop_reason=<StopReason.MAX_ITERS: 'max_iters'>, "
     "limit_estimate=1.4)"),
    (ProxResult, ("kind", "values"),
     ProxResult(ProxKind.PAIR, (0.0, 1.5)),
     "ProxResult(kind=<ProxKind.PAIR: 'pair'>, values=(0.0, 1.5))"),
    (ZStarResult, ("z_star", "bracket", "iterations", "residual"),
     ZStarResult(2.5, (1.0, 3.0), 5, 1e-16),
     "ZStarResult(z_star=2.5, bracket=(1.0, 3.0), iterations=5, residual=1e-16)"),
    (VectorProxResult, ("canonical", "ambiguous_indices", "objective_value"),
     VectorProxResult(np.array([0.0, 1.5]), (0,), 2.25),
     "VectorProxResult(canonical=array([0. , 1.5]), ambiguous_indices=(0,), objective_value=2.25)"),
    (SvdFactorization, ("u", "singular_values", "v"),
     SvdFactorization(np.eye(2), np.array([2.0, 1.0]), np.eye(2)),
     "SvdFactorization(u=array([[1., 0.],\n       [0., 1.]]), singular_values=array([2., 1.]), "
     "v=array([[1., 0.],\n       [0., 1.]]))"),
    (MatrixProxResult, ("x_star", "d", "ambiguous_indices", "objective_value", "singular_values"),
     MatrixProxResult(np.eye(2), np.array([1.0, 0.5]), (), 0.5, np.array([2.0, 1.0])),
     "MatrixProxResult(x_star=array([[1., 0.],\n       [0., 1.]]), d=array([1. , 0.5]), "
     "ambiguous_indices=(), objective_value=0.5, singular_values=array([2., 1.]))"),
]
IDS = [r[0].__name__ for r in RECORDS]
HASHABLE = [r for r in RECORDS if not any(isinstance(v, np.ndarray) for v in r[2])]


@pytest.mark.parametrize("cls, fields, example, text", RECORDS, ids=IDS)
def test_fields_and_repr(cls, fields, example, text):
    assert cls._fields == fields
    assert repr(example) == text


@pytest.mark.parametrize("cls, fields, example, text", RECORDS, ids=IDS)
def test_immutable(cls, fields, example, text):
    with pytest.raises(AttributeError):
        setattr(example, fields[0], None)
    with pytest.raises(AttributeError):
        example.extra = None


@pytest.mark.parametrize("cls, fields, example, text", HASHABLE, ids=[r[0].__name__ for r in HASHABLE])
def test_equal_values_are_equal_and_hash_equal(cls, fields, example, text):
    twin = cls(*example)
    assert twin == example and hash(twin) == hash(example)
    assert example == tuple(example)  # tuple semantics: it unpacks, indexes and compares as a tuple
    assert cls(**dict(zip(fields, example))) == example


def test_interval_methods():
    iv = Interval(1.0, 2.0, True, False)
    assert str(iv) == "[1.0, 2.0)"
    assert str(IV) == "(-2.5, -1.0]"
    assert iv.contains(1.0) and iv.contains(1.5)
    assert not iv.contains(2.0) and not iv.contains(0.999)
    assert iv.mirrored() == Interval(-2.0, -1.0, False, True)


def test_prox_result_properties():
    pair = ProxResult(ProxKind.PAIR, (0.0, -1.5))
    assert pair.canonical == 0.0 and pair.is_ambiguous
    point = ProxResult(ProxKind.POINT, (-1.5,))
    assert point.canonical == -1.5 and not point.is_ambiguous


def test_svd_reconstruct():
    u = np.array([[0.6, 0.8], [0.8, -0.6]])
    fac = SvdFactorization(u, np.array([3.0, 1.0]), np.eye(2))
    np.testing.assert_allclose(fac.reconstruct(), (u * [3.0, 1.0]) @ np.eye(2), rtol=0, atol=0)
