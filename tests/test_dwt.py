import math

import numpy as np
import pytest

from bbauth.data import ModalityKind, Session, SessionRole, TaskKind, make_stream
from bbauth.dwt import (
    COIF1_DEC_HI,
    COIF1_DEC_LO,
    DwtImageConfig,
    DwtPair,
    ModalityImage,
    dwt_level1,
    dwt_score,
    idwt_level1,
    keystroke_third_channel,
    mean_image,
    recursive_average,
    task_image,
)
from bbauth.errors import MissingModality, ShapeMismatch, SignalTooShort, TooFewColumns


def _oracle_dwt(x):
    """Independent route: textbook circular convolution then take odd samples."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = {}
    for name, taps in (("a", COIF1_DEC_LO), ("b", COIF1_DEC_HI)):
        full = np.array(
            [sum(taps[m] * x[(i - m) % n] for m in range(len(taps))) for i in range(n)]
        )
        out[name] = full[1::2]
    return out["a"], out["b"]


def test_filter_orthonormal_and_mirror():
    lo, hi = COIF1_DEC_LO, COIF1_DEC_HI
    assert lo.shape == hi.shape == (6,)
    assert abs(lo @ lo - 1.0) < 1e-12
    assert abs(hi @ hi - 1.0) < 1e-12
    assert abs(lo.sum() - math.sqrt(2)) < 1e-12
    mirror = [(-1.0) ** (k + 1) * lo[5 - k] for k in range(6)]
    assert np.array_equal(mirror, hi)
    assert not lo.flags.writeable and not hi.flags.writeable


def test_constant_signal_detail_vanishes():
    pair = dwt_level1(np.full(16, 5.0))
    assert np.abs(pair.c_b).max() < 1e-10
    assert np.allclose(pair.c_a, 5.0 * math.sqrt(2))


def test_energy_and_reconstruction_even():
    rng = np.random.default_rng(3)
    for n in (8, 10, 32, 128):
        x = rng.standard_normal(n)
        pair = dwt_level1(x)
        assert len(pair.c_a) == len(pair.c_b) == n // 2
        energy = pair.c_a @ pair.c_a + pair.c_b @ pair.c_b
        assert abs(energy - x @ x) < 1e-9
        assert np.abs(idwt_level1(pair) - x).max() < 1e-9


def test_odd_length_extends_by_duplication():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(11)
    pair = dwt_level1(x)
    assert len(pair.c_a) == 6  # ceil(11 / 2)
    extended = np.concatenate([x, x[-1:]])
    assert np.allclose(idwt_level1(pair), extended, atol=1e-9)
    energy = pair.c_a @ pair.c_a + pair.c_b @ pair.c_b
    assert abs(energy - extended @ extended) < 1e-9


def test_linearity():
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal(32), rng.standard_normal(32)
    a, b = 2.5, -1.25
    combined = dwt_level1(a * x + b * y)
    px, py = dwt_level1(x), dwt_level1(y)
    assert np.abs(combined.c_a - (a * px.c_a + b * py.c_a)).max() < 1e-9
    assert np.abs(combined.c_b - (a * px.c_b + b * py.c_b)).max() < 1e-9


def test_matches_convolution_oracle():
    rng = np.random.default_rng(6)
    for n in (8, 12, 64):
        x = rng.standard_normal(n)
        pair = dwt_level1(x)
        oracle_a, oracle_b = _oracle_dwt(x)
        assert np.abs(pair.c_a - oracle_a).max() < 1e-12
        assert np.abs(pair.c_b - oracle_b).max() < 1e-12


def test_unit_impulse_fixture():
    # impulse at position 0, length 8: coefficients are the filter taps at
    # odd circular offsets; frozen from the closed-form coif1 values
    x = np.zeros(8)
    x[0] = 1.0
    pair = dwt_level1(x)
    expected_a = [COIF1_DEC_LO[1], COIF1_DEC_LO[3], COIF1_DEC_LO[5], 0.0]
    expected_b = [COIF1_DEC_HI[1], COIF1_DEC_HI[3], COIF1_DEC_HI[5], 0.0]
    assert np.allclose(pair.c_a, expected_a, atol=1e-15)
    assert np.allclose(pair.c_b, expected_b, atol=1e-15)
    assert np.allclose(pair.c_a, [-0.0727326195128539, 0.8525720202122554, -0.0727326195128539, 0.0])


def test_too_short_signal():
    with pytest.raises(SignalTooShort):
        dwt_level1([1.0])


def test_recursive_average_identity_at_three():
    m = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(recursive_average(m), m)


def test_recursive_average_single_pass():
    m = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert np.allclose(recursive_average(m), [[1.5, 2.5, 4.0]])


def test_recursive_average_preserves_constant_rows():
    m = np.full((3, 7), 2.5)
    assert np.allclose(recursive_average(m), 2.5)


def test_recursive_average_too_few_columns():
    with pytest.raises(TooFewColumns):
        recursive_average(np.ones((2, 2)))


def test_keystroke_third_channel():
    out = keystroke_third_channel(DwtPair(np.array([2.0]), np.array([0.0])))
    assert np.allclose(out, [[2.0, 0.0, 1.0]])
    same = keystroke_third_channel(DwtPair(np.array([1.0, 3.0]), np.array([1.0, 3.0])))
    assert np.allclose(same[:, 2], same[:, 0])
    zeros = keystroke_third_channel(DwtPair(np.zeros(4), np.zeros(4)))
    assert np.allclose(zeros, 0.0)


# --- task images ------------------------------------------------------------

def _constant_session(task=TaskKind.Tapping):
    streams = {
        ModalityKind.Touch: make_stream(
            ModalityKind.Touch, [(i * 50, 0.5, 0.5, 2) for i in range(20)]
        ),
    }
    for sensor in (ModalityKind.Accelerometer, ModalityKind.Gyroscope, ModalityKind.Magnetometer,
                   ModalityKind.LinearAccelerometer, ModalityKind.Gravity):
        streams[sensor] = make_stream(sensor, [(i * 50, 1.0, 2.0, 3.0) for i in range(20)])
    return Session("s", "d", task, SessionRole.Unlabeled, streams, subject_id="u")


def test_task_image_shape_and_determinism(tiny_generated):
    config = DwtImageConfig(length=64, width=8)
    session = tiny_generated.evaluation.sessions_for(TaskKind.Keystroke)[0]
    image1 = task_image(session, config)
    image2 = task_image(session, config)
    # 6 modality strips of ceil(64/2)/8 = 4 rows each
    assert image1.pixels.shape == (24, 8, 3)
    assert np.array_equal(image1.pixels, image2.pixels)
    assert image1.pixels.min() >= 0.0 and image1.pixels.max() <= 1.0


def test_task_image_constant_session_is_midgray():
    image = task_image(_constant_session(), DwtImageConfig(length=16, width=4))
    assert np.allclose(image.pixels, 0.5)


def test_task_image_missing_modality():
    session = _constant_session()
    streams = dict(session.streams)
    del streams[ModalityKind.Gravity]
    broken = Session("s", "d", session.task, session.role, streams, subject_id="u")
    with pytest.raises(MissingModality, match="no gravity stream"):
        task_image(broken, DwtImageConfig(length=16, width=4))


def test_image_config_validation():
    with pytest.raises(ValueError):
        DwtImageConfig(length=10, width=4)  # ceil(10/2)=5 not divisible by 4


def test_dwt_score_identical():
    image = task_image(_constant_session(), DwtImageConfig(length=16, width=4))
    assert dwt_score(mean_image([image]), image) == 1.0


def test_dwt_score_extremes_and_half():
    zeros = ModalityImage(np.zeros((4, 4, 3)))
    ones = ModalityImage(np.ones((4, 4, 3)))
    assert dwt_score(mean_image([ones]), zeros) == 0.0
    half = np.zeros((4, 4, 3))
    half[:2] = 1.0  # half the pixels differ by 1
    assert dwt_score(mean_image([ModalityImage(half)]), zeros) == 0.5
    assert dwt_score(mean_image([ones, zeros]), zeros) == 0.5  # the reference is the pixel mean


def test_dwt_score_symmetric_single_enrollment():
    rng = np.random.default_rng(9)
    a = ModalityImage(rng.random((4, 4, 3)))
    b = ModalityImage(rng.random((4, 4, 3)))
    assert dwt_score(mean_image([a]), b) == dwt_score(mean_image([b]), a)


def test_dwt_score_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dwt_score(mean_image([ModalityImage(np.zeros((4, 4, 3)))]), ModalityImage(np.zeros((2, 4, 3))))
    with pytest.raises(ShapeMismatch):
        mean_image([ModalityImage(np.zeros((4, 4, 3))), ModalityImage(np.zeros((2, 4, 3)))])

