import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbauth.data import COL_X, COL_Y, ModalityKind, Session, SessionRole, TaskKind, make_stream
from bbauth.errors import DegenerateStroke, InsufficientEvents, NoStrokes
from bbauth.touch import (
    FEATURE_NAMES,
    SessionTemplate,
    build_dtw_sequence,
    build_template,
    session_feature_vectors,
    swipe_features,
    template_score,
)


def _stroke(points):
    rows = []
    for i, (t, x, y) in enumerate(points):
        action = 0 if i == 0 else (1 if i == len(points) - 1 else 2)
        rows.append((t, x, y, action))
    return make_stream(ModalityKind.Touch, rows)


STRAIGHT = _stroke([(0, 0.0, 0.0), (100, 0.3, 0.1), (200, 0.6, 0.2)])
F = {name: i for i, name in enumerate(FEATURE_NAMES)}  # feature name -> vector index


def test_straight_swipe_features():
    f = swipe_features(STRAIGHT, (0.3, 0.1))
    assert f.shape == (len(set(FEATURE_NAMES)),) == (22,)
    assert math.isclose(f[F["euclid_start_end"]], math.sqrt(0.4), rel_tol=1e-12)
    assert math.isclose(f[F["disp_sum"]], math.sqrt(0.4), rel_tol=1e-12)
    assert math.isclose(f[F["straightness_ratio"]], 1.0, rel_tol=1e-9)
    assert f[F["duration_ms"]] == 200.0
    assert math.isclose(f[F["mean_velocity"]], math.sqrt(0.4) / 200, rel_tol=1e-12)
    assert (f[F["start_x"]], f[F["start_y"]], f[F["end_x"]], f[F["end_y"]]) == (0.0, 0.0, 0.6, 0.2)


def test_stationary_stroke():
    f = swipe_features(_stroke([(0, 0.5, 0.5), (100, 0.5, 0.5)]), (0.5, 0.5))
    assert f[F["disp_sum"]] == 0.0
    assert f[F["straightness_ratio"]] == 0.0
    assert f[F["vel_p20"]] == f[F["vel_p50"]] == f[F["vel_p80"]] == 0.0
    assert f[F["mean_velocity"]] == 0.0


def test_vertical_swipe_deviations():
    stroke = _stroke([(0, 0.4, 0.2), (50, 0.4, 0.5), (100, 0.4, 0.8)])
    f = swipe_features(stroke, (0.55, 0.5))
    assert math.isclose(f[F["max_dev_x"]], 0.15, rel_tol=1e-12)
    assert math.isclose(f[F["max_dev_y"]], 0.3, rel_tol=1e-12)
    deviations = sorted(math.hypot(0.4 - 0.55, y - 0.5) for y in (0.2, 0.5, 0.8))
    assert min(deviations) <= f[F["dev_p20"]] <= f[F["dev_p50"]] <= f[F["dev_p80"]] <= max(deviations)


def test_degenerate_stroke():
    with pytest.raises(DegenerateStroke):
        swipe_features(_stroke([(10, 0.1, 0.1), (10, 0.2, 0.2)]), (0.1, 0.1))


def test_features_shift_invariant_and_time_equivariant():
    base = _stroke([(0, 0.1, 0.1), (40, 0.2, 0.35), (90, 0.5, 0.4), (150, 0.6, 0.7)])
    mean_xy = (0.35, 0.39)
    f0 = swipe_features(base, mean_xy)

    shifted = _stroke([(t + 5000, x, y) for t, x, y in
                       [(0, 0.1, 0.1), (40, 0.2, 0.35), (90, 0.5, 0.4), (150, 0.6, 0.7)]])
    f_shift = swipe_features(shifted, mean_xy)
    assert np.allclose(f0, f_shift)

    scaled = _stroke([(t * 2, x, y) for t, x, y in
                      [(0, 0.1, 0.1), (40, 0.2, 0.35), (90, 0.5, 0.4), (150, 0.6, 0.7)]])
    f_scale = swipe_features(scaled, mean_xy)
    assert math.isclose(f_scale[F["duration_ms"]], 2 * f0[F["duration_ms"]])
    assert math.isclose(f_scale[F["mean_velocity"]], f0[F["mean_velocity"]] / 2, rel_tol=1e-12)
    assert math.isclose(f_scale[F["vel_p50"]], f0[F["vel_p50"]] / 2, rel_tol=1e-9)
    assert math.isclose(f_scale[F["disp_sum"]], f0[F["disp_sum"]], rel_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=2, max_size=12))
def test_percentiles_within_sample_range(points):
    stroke = _stroke([(i * 20, x, y) for i, (x, y) in enumerate(points)])
    f = swipe_features(stroke, (0.5, 0.5))
    xs = stroke[:, COL_X].tolist()
    ys = stroke[:, COL_Y].tolist()
    deviations = [math.hypot(x - 0.5, y - 0.5) for x, y in zip(xs, ys)]
    assert min(deviations) - 1e-12 <= f[F["dev_p20"]] <= max(deviations) + 1e-12
    assert min(deviations) - 1e-12 <= f[F["dev_p80"]] <= max(deviations) + 1e-12
    assert f[F["vel_p20"]] <= f[F["vel_p50"]] <= f[F["vel_p80"]]
    # every time step is 20 ms, so no pair is skipped
    velocities = [
        math.hypot(xs[i + 1] - xs[i], ys[i + 1] - ys[i]) / 20 for i in range(len(xs) - 1)
    ]
    accelerations = [(b - a) / 20 for a, b in zip(velocities, velocities[1:])]
    for prefix, values in (("dev", deviations), ("vel", velocities), ("acc", accelerations)):
        for q in (20, 50, 80):
            expected = float(np.percentile(values, q, method="linear")) if values else 0.0
            assert f[F[f"{prefix}_p{q}"]] == expected


def test_build_template_single_stroke():
    f = swipe_features(STRAIGHT, (0.3, 0.1))
    template = build_template(f[None, :])
    assert np.allclose(template.mean, f)
    assert np.allclose(template.std, 0.0)
    assert template.count == 1


def test_build_template_two_identical():
    f = swipe_features(STRAIGHT, (0.3, 0.1))
    assert np.allclose(build_template(np.stack([f, f])).std, 0.0)


def test_build_template_hand_values():
    a = swipe_features(_stroke([(0, 0.0, 0.0), (100, 0.1, 0.0)]), (0.05, 0.0))
    b = swipe_features(_stroke([(0, 0.0, 0.0), (100, 0.3, 0.0)]), (0.15, 0.0))
    template = build_template(np.stack([a, b]))
    idx = F["disp_sum"]
    assert math.isclose(template.mean[idx], 0.2, rel_tol=1e-12)
    assert math.isclose(template.std[idx], 0.1, rel_tol=1e-12)  # population std of [0.1, 0.3]


def test_template_score_identical_is_one():
    features = swipe_features(STRAIGHT, (0.3, 0.1))[None, :]
    template = build_template(features)
    assert template_score(template, features) == 1.0


def test_template_score_one_std_deviation():
    dim = len(FEATURE_NAMES)
    template = SessionTemplate(np.zeros(dim), np.ones(dim), 4)
    assert math.isclose(template_score(template, np.ones((1, dim))), math.exp(-1.0), rel_tol=1e-12)


def test_template_score_monotone_in_deviation():
    dim = len(FEATURE_NAMES)
    template = SessionTemplate(np.zeros(dim), np.ones(dim), 4)

    def fake(value):
        features = np.zeros((1, dim))
        features[0, 0] = value
        return features

    scores = [template_score(template, fake(v)) for v in (0.0, 0.5, 1.0, 2.0)]
    assert scores == sorted(scores, reverse=True)
    assert scores[0] == 1.0


def test_template_errors():
    with pytest.raises(NoStrokes):
        build_template(np.empty((0, len(FEATURE_NAMES))))
    template = SessionTemplate(np.zeros(3), np.ones(3), 1)
    with pytest.raises(NoStrokes):
        template_score(template, np.empty((0, 3)))


# --- per-task alignment sequences -------------------------------------------

def _session(task, streams):
    return Session("s", "d", task, SessionRole.Unlabeled, streams, subject_id="u")


def test_dtw_sequence_keystroke_differences():
    rows = [(t, 65 + i) for i, t in enumerate([0, 100, 250, 450])]
    keystrokes = make_stream(ModalityKind.Keystroke, rows)
    session = _session(TaskKind.Keystroke, {ModalityKind.Keystroke: keystrokes})
    rows = build_dtw_sequence(session, TaskKind.Keystroke)
    assert rows.shape == (4, 4)
    assert np.allclose(rows[:, 0], [100, 150, 200, 0])
    assert np.allclose(rows[:, 1], [50, 50, 0, 0])
    assert np.allclose(rows[:, 2], [0, 0, 0, 0])
    assert np.allclose(rows[:, 3], [(65 + i) / 255 for i in range(4)])


def test_dtw_sequence_keystroke_needs_four_events():
    keystrokes = make_stream(ModalityKind.Keystroke, [(t, 65) for t in (0, 10, 20)])
    session = _session(TaskKind.Keystroke, {ModalityKind.Keystroke: keystrokes})
    with pytest.raises(InsufficientEvents):
        build_dtw_sequence(session, TaskKind.Keystroke)


def test_dtw_sequence_taps():
    touch = make_stream(ModalityKind.Touch, [
        (0, 0.2, 0.3, 0), (80, 0.2, 0.3, 1),
        (300, 0.4, 0.5, 0), (390, 0.4, 0.5, 1),
    ])
    session = _session(TaskKind.Tapping, {ModalityKind.Touch: touch})
    rows = build_dtw_sequence(session, TaskKind.Tapping)
    assert np.allclose(rows, [[80, 220, 0.2, 0.3], [90, 0, 0.4, 0.5]])


def test_dtw_sequence_swipes():
    touch = make_stream(ModalityKind.Touch, [
        (0, 0.0, 0.0, 0), (100, 0.3, 0.4, 1),
        (400, 0.0, 0.0, 0), (500, 0.0, 0.1, 1),
    ])
    session = _session(TaskKind.GallerySwiping, {ModalityKind.Touch: touch})
    rows = build_dtw_sequence(session, TaskKind.GallerySwiping)
    assert rows.shape == (2, 4)
    assert np.allclose(rows[0], [0.5, 0.005, 100, 300])  # path, velocity, duration, gap
    assert np.allclose(rows[1], [0.1, 0.001, 100, 0])


def test_dtw_sequence_empty_touch():
    session = _session(TaskKind.Tapping, {ModalityKind.Touch: make_stream(ModalityKind.Touch, [])})
    rows = build_dtw_sequence(session, TaskKind.Tapping)
    assert rows.shape == (0, 4)


def test_session_feature_vectors_skips_degenerate(tiny_generated):
    session = tiny_generated.evaluation.sessions_for(TaskKind.GallerySwiping)[0]
    features = session_feature_vectors(session)
    assert features.ndim == 2 and features.shape[1] == len(FEATURE_NAMES) and len(features) > 0
    assert (features[:, F["duration_ms"]] > 0).all()
    ratios = features[:, F["straightness_ratio"]]
    assert ((ratios >= 0.0) & (ratios <= 1.0 + 1e-12)).all()


def test_session_feature_vectors_no_stroke_is_empty_matrix():
    session = _session(TaskKind.Tapping, {ModalityKind.Touch: make_stream(ModalityKind.Touch, [])})
    assert session_feature_vectors(session).shape == (0, len(FEATURE_NAMES))
