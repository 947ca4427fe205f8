import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbauth.data import (
    BACKGROUND_SENSORS,
    COL_T,
    COL_X,
    COL_Y,
    COL_Z,
    ModalityKind,
    Session,
    SessionRole,
    TaskKind,
    make_stream,
)
from bbauth.errors import EmptySeries, MissingModality
from bbauth.preprocess import (
    compute_target_lengths,
    minmax_normalize,
    resample_linear,
    stack_modalities,
)


def test_resample_midpoint():
    out = resample_linear([0, 100], [0.0, 10.0], 3)
    assert np.allclose(out, [0.0, 5.0, 10.0])


def test_resample_constant():
    out = resample_linear([0, 50, 100], [4.0, 4.0, 4.0], 7)
    assert np.allclose(out, 4.0)


def test_resample_triangle():
    out = resample_linear([0, 10, 20], [0.0, 1.0, 0.0], 5)
    assert np.allclose(out, [0.0, 0.5, 1.0, 0.5, 0.0])


def test_resample_single_sample_replicates():
    out = resample_linear([42], [3.5], 4)
    assert np.allclose(out, 3.5)


def test_resample_preserves_endpoints_exactly():
    t = [3, 17, 40, 99]
    v = [0.3, -2.0, 5.0, 1.25]
    out = resample_linear(t, v, 11)
    assert out[0] == v[0]
    assert out[-1] == v[-1]


def test_resample_empty_series():
    with pytest.raises(EmptySeries):
        resample_linear([], [], 3)


@settings(max_examples=100, deadline=None)
@given(
    slope=st.floats(-5, 5),
    intercept=st.floats(-5, 5),
    target=st.integers(1, 40),
)
def test_resample_exact_on_affine(slope, intercept, target):
    t = np.array([0.0, 7.0, 13.0, 20.0, 31.0])
    v = slope * t + intercept
    out = resample_linear(t, v, target)
    positions = np.linspace(t[0], t[-1], target)
    assert np.allclose(out, slope * positions + intercept, atol=1e-9)


def test_resample_returns_one_dimension():
    assert resample_linear([0, 10, 20], [1.0, 2.0, 3.0], 6).shape == (6,)


def test_minmax_basic():
    assert np.allclose(minmax_normalize(np.array([[2.0], [4.0], [6.0]]))[:, 0], [0.0, 0.5, 1.0])


def test_minmax_constant_channel():
    assert np.allclose(minmax_normalize(np.full((3, 1), 7.0)), 0.5)


def test_minmax_constant_column_beside_varying_one():
    out = minmax_normalize(np.array([[7.0, 1.0], [7.0, 3.0]]))
    assert np.array_equal(out, [[0.5, 0.0], [0.5, 1.0]])


def test_minmax_attains_both_extremes():
    rng = np.random.default_rng(0)
    out = minmax_normalize(rng.standard_normal((20, 3)))
    assert np.allclose(out.min(axis=0), 0.0)
    assert np.allclose(out.max(axis=0), 1.0)


def test_minmax_idempotent_on_normalized():
    rng = np.random.default_rng(1)
    once = minmax_normalize(rng.standard_normal((10, 2)))
    twice = minmax_normalize(once)
    assert np.allclose(once, twice)


def _sensor_session(n=20, missing=None, task=TaskKind.Tapping):
    streams = {}
    for idx, sensor in enumerate(
        (ModalityKind.Accelerometer, ModalityKind.Gyroscope, ModalityKind.Magnetometer,
         ModalityKind.LinearAccelerometer, ModalityKind.Gravity)
    ):
        if sensor is missing:
            continue
        streams[sensor] = make_stream(
            sensor, [(i * 50, float(i + idx), float(i * 2), float(idx)) for i in range(n)]
        )
    return Session("s", "d", task, SessionRole.Unlabeled, streams, subject_id="u")


def test_stack_shape():
    assert stack_modalities(_sensor_session(), TaskKind.Tapping, 32).shape == (32, 15)
    # every channel differs from the others after normalization, so each column is told apart
    rng = np.random.default_rng(2)
    streams = {
        sensor: make_stream(sensor, [(i * 50, *rng.random(3)) for i in range(20)])
        for sensor in BACKGROUND_SENSORS
    }
    session = Session("s", "d", TaskKind.Tapping, SessionRole.Unlabeled, streams, subject_id="u")
    out = stack_modalities(session, TaskKind.Tapping, 32)
    # column order: sensor by sensor, x/y/z within each; accelerometer x first, gravity z last
    assert BACKGROUND_SENSORS[0] is ModalityKind.Accelerometer
    assert BACKGROUND_SENSORS[-1] is ModalityKind.Gravity
    for s_idx, sensor in enumerate(BACKGROUND_SENSORS):
        stream = session.stream(sensor)
        for a_idx, c in enumerate((COL_X, COL_Y, COL_Z)):
            resampled = resample_linear(stream[:, COL_T], stream[:, c], 32)
            expected = minmax_normalize(resampled[:, None])[:, 0]
            assert np.array_equal(out[:, 3 * s_idx + a_idx], expected)


def test_stack_missing_modality():
    with pytest.raises(MissingModality, match="no gyroscope stream"):
        stack_modalities(_sensor_session(missing=ModalityKind.Gyroscope), TaskKind.Tapping, 32)


def test_stack_deterministic():
    a = stack_modalities(_sensor_session(), TaskKind.Tapping, 16)
    b = stack_modalities(_sensor_session(), TaskKind.Tapping, 16)
    assert np.array_equal(a, b)


def test_stack_shape_independent_of_input_length():
    a = stack_modalities(_sensor_session(n=11), TaskKind.Tapping, 24)
    b = stack_modalities(_sensor_session(n=57), TaskKind.Tapping, 24)
    assert a.shape == b.shape == (24, 15)


def test_stack_task_mismatch():
    with pytest.raises(ValueError):
        stack_modalities(_sensor_session(task=TaskKind.Tapping), TaskKind.Keystroke, 16)


def test_target_lengths_mean_and_floor():
    sessions = [_sensor_session(n=10), _sensor_session(n=21)]
    lengths = compute_target_lengths(sessions)
    # mean event count over the tapping sensor streams is (10+21)/2 = 15.5 -> 16
    assert lengths[TaskKind.Tapping] == 16
    # tasks with no data fall back to the floor
    assert lengths[TaskKind.Keystroke] == 8
    assert compute_target_lengths([_sensor_session(n=3)])[TaskKind.Tapping] == 8
