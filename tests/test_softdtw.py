import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from test_acceptance import _monotone_paths

from bbauth.data import ModalityKind, TaskKind, make_stream
from bbauth.errors import DimensionMismatch, EmptySequence
from bbauth.softdtw import (
    alignment_cost_table,
    calibrate,
    dtw,
    fit_feature_scale,
    soft_dtw,
    softdtw_score,
)
from bbauth.touch import build_dtw_sequence


def _path_costs(x, y):
    """Total local cost of every monotone alignment of x and y."""
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    y = np.asarray(y, dtype=float).reshape(len(y), -1)
    cost = (((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)).reshape(-1)
    return np.array([cost[path].sum() for path in _monotone_paths(len(x), len(y))])


def exhaustive_dtw(x, y):
    """Oracle: minimize total cost over every monotone alignment path."""
    return float(_path_costs(x, y).min())


def exhaustive_soft_dtw(x, y, gamma):
    """Oracle: -gamma * log sum over every monotone alignment A of exp(-<A, cost>/gamma)."""
    return float(-gamma * logsumexp(-_path_costs(x, y) / gamma))


def test_soft_dtw_closed_form_equal_args():
    # the last cell's three predecessors are all 0, so it adds -ln 3
    assert math.isclose(soft_dtw([0.0, 0.0], [0.0, 0.0], 1.0), -math.log(3.0), rel_tol=1e-12)


@pytest.mark.parametrize("gamma", [1e-3, 0.05, 1.0, 5.0])
def test_soft_dtw_matches_path_sum_oracle(gamma):
    rng = np.random.default_rng(14)
    for m, n in itertools.product(range(1, 6), repeat=2):
        x, y = rng.random((m, 2)), rng.random((n, 2))
        assert math.isclose(soft_dtw(x, y, gamma), exhaustive_soft_dtw(x, y, gamma),
                            rel_tol=1e-12, abs_tol=1e-12), (m, n)


def plain_min_recursion(xs, ys):
    inf = math.inf
    prev = [0.0] + [inf] * len(ys)
    for xi in xs:
        cur = [inf]
        for j, yj in enumerate(ys, start=1):
            cur.append((xi - yj) * (xi - yj) + min(prev[j], cur[j - 1], prev[j - 1]))
        prev = cur
    return prev[-1]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
)
def test_dtw_equals_plain_min_recursion(xs, ys):
    assert dtw(xs, ys) == plain_min_recursion(xs, ys)


def test_dtw_identical_is_zero():
    x = np.array([[0.0], [1.0], [2.0]])
    assert dtw(x, x) == 0.0


def test_dtw_single_pair():
    assert dtw([0.0], [3.0]) == 9.0


def test_dtw_worked_example():
    assert dtw([0.0, 2.0], [0.0, 1.0, 2.0]) == 1.0


def test_soft_dtw_identical_single_element():
    assert soft_dtw([1.5], [1.5], gamma=1.0) == 0.0


def test_soft_dtw_gamma_to_zero_limit():
    x, y = [0.0, 1.0], [0.0, 1.0, 1.0]
    assert dtw(x, y) == 0.0
    assert abs(soft_dtw(x, y, gamma=1e-3) - dtw(x, y)) < 1e-2


def test_soft_dtw_monotone_from_below():
    rng = np.random.default_rng(11)
    x = rng.random((6, 2))
    y = rng.random((8, 2))
    hard = dtw(x, y)
    values = [soft_dtw(x, y, g) for g in (1.0, 0.1, 0.01, 0.001)]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 1e-12
    assert all(v <= hard + 1e-12 for v in values)
    assert abs(values[-1] - hard) < 1e-2


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    st.floats(0.01, 2.0),
)
def test_soft_below_hard_and_symmetric(xs, ys, gamma):
    soft = soft_dtw(xs, ys, gamma)
    assert soft <= dtw(xs, ys) + 1e-9
    assert abs(soft - soft_dtw(ys, xs, gamma)) < 1e-9


def test_dtw_matches_exhaustive_oracle_random():
    rng = np.random.default_rng(12)
    for _ in range(60):
        x = rng.integers(0, 3, size=rng.integers(1, 6)).astype(float)
        y = rng.integers(0, 3, size=rng.integers(1, 6)).astype(float)
        assert math.isclose(dtw(x, y), exhaustive_dtw(x, y), rel_tol=1e-12, abs_tol=1e-12)


def test_errors():
    with pytest.raises(EmptySequence):
        dtw([], [1.0])
    with pytest.raises(DimensionMismatch):
        dtw(np.ones((2, 2)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        soft_dtw([1.0], [1.0], gamma=0.0)


def test_cost_table_structure():
    rng = np.random.default_rng(30)
    x, y = rng.random((4, 2)), rng.random((6, 2))
    for gamma in (None, 0.5):
        table = alignment_cost_table(x, y, gamma)
        assert table.shape == (5, 7)
        assert table[0, 0] == 0.0
        assert np.all(np.isinf(table[0, 1:]))
        assert np.all(np.isinf(table[1:, 0]))
        assert np.all(np.isfinite(table[1:, 1:]))


# --- score wrapper ----------------------------------------------------------

def _prepared_pair(generated):
    """Two tapping sequences, MinMax-scaled on their pooled rows."""
    sessions = generated.evaluation.sessions_for(TaskKind.Tapping)[:2]
    sequences = [build_dtw_sequence(s, TaskKind.Tapping) for s in sessions]
    scale = fit_feature_scale(sequences)
    return [scale.apply(s) for s in sequences]


def test_score_identical_session_is_one(tiny_generated):
    enroll, _ = _prepared_pair(tiny_generated)
    assert softdtw_score([enroll], enroll, gamma=0.1, tau=1.0) == 1.0


def test_score_exponential_mapping(tiny_generated):
    enroll, verify = _prepared_pair(tiny_generated)
    base = softdtw_score([enroll], verify, gamma=0.1, tau=1.0)
    d = -math.log(base)
    if d > 0:
        at_tau = softdtw_score([enroll], verify, gamma=0.1, tau=d)
        assert math.isclose(at_tau, math.exp(-1.0), rel_tol=1e-9)


def test_score_monotone_in_tau(tiny_generated):
    enroll, verify = _prepared_pair(tiny_generated)
    scores = [softdtw_score([enroll], verify, gamma=0.1, tau=tau) for tau in (0.25, 1.0, 4.0)]
    assert scores == sorted(scores)


def test_calibrate_on_training_split(tiny_generated):
    calibration = calibrate(tiny_generated.train, TaskKind.Tapping, gamma=0.1)
    assert calibration.tau > 0
    assert calibration.scale.lo.shape == (4,)
    assert np.all(calibration.scale.hi >= calibration.scale.lo)


def test_calibrate_names_an_empty_training_session(tiny_generated):
    train = tiny_generated.train
    target = train.sessions_for(TaskKind.Tapping)[1]
    empty = dataclasses.replace(
        target, streams={**target.streams, ModalityKind.Touch: make_stream(ModalityKind.Touch, [])}
    )
    sessions = tuple(empty if s is target else s for s in train.sessions)
    with pytest.raises(EmptySequence, match=repr(target.session_id)):
        calibrate(dataclasses.replace(train, sessions=sessions), TaskKind.Tapping, gamma=0.1)


def test_feature_scale_constant_dimension():
    scale = fit_feature_scale([np.array([[1.0, 5.0], [2.0, 5.0]])])
    scaled = scale.apply(np.array([[1.5, 5.0]]))
    assert scaled[0, 0] == 0.5  # midpoint of the observed range
    assert scaled[0, 1] == 0.5  # constant dimension maps to midpoint


def test_alignment_performance_500x500():
    rng = np.random.default_rng(13)
    x = rng.random((500, 4))
    y = rng.random((500, 4))
    import time

    start = time.perf_counter()
    value = soft_dtw(x, y, gamma=0.1)
    elapsed = time.perf_counter() - start
    assert math.isfinite(value)
    assert elapsed < 2.0
