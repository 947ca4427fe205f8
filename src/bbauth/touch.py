"""Statistical swipe/tap features and template-distance scoring.

A stroke's feature vector is a (22,) float64 array, in `FEATURE_NAMES`
order, that summarizes its geometry and kinematics; a session's strokes
form one (k, 22) matrix. An enrollment template stores per-feature
mean/std over the rows of the pooled enrollment matrices, and a
verification matrix is scored by the z-distance of its mean row to the
template. Velocities are pairwise Euclidean displacements over time
deltas (zero-delta pairs skipped); accelerations are pairwise velocity
differences over the corresponding time deltas; percentiles use linear
interpolation between order statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import COL_ASCII, COL_T, COL_X, COL_Y, ModalityKind, Session, TaskKind, slice_strokes
from .errors import DegenerateStroke, InsufficientEvents, NoStrokes


#: Names of the swipe feature vector's entries, in order.
FEATURE_NAMES: tuple[str, ...] = (
    "start_x", "start_y", "end_x", "end_y",
    "max_dev_x", "max_dev_y",
    "dev_p20", "dev_p50", "dev_p80",
    "vel_p20", "vel_p50", "vel_p80",
    "acc_p20", "acc_p50", "acc_p80",
    "median_vel_last3", "mean_acc_first5",
    "disp_sum", "euclid_start_end", "straightness_ratio",
    "duration_ms", "mean_velocity",
)


def _percentiles(values: list[float], q=(20, 50, 80)):
    """Linear-interpolation percentiles of `values`; zeros when empty."""
    if not values:
        return np.zeros(np.shape(q))
    return np.percentile(values, q, method="linear")


def swipe_features(stroke: np.ndarray, session_mean_xy: tuple[float, float]) -> np.ndarray:
    """(22,) feature vector of one stroke (touch rows from :func:`slice_strokes`),
    in `FEATURE_NAMES` order.

    `session_mean_xy` is the mean (x, y) over all stroke points of the
    session the stroke belongs to; deviation features are measured
    against it.
    """
    ts = stroke[:, COL_T].tolist()
    if ts[-1] == ts[0]:
        raise DegenerateStroke("stroke spans fewer than two distinct timestamps")
    mean_x, mean_y = session_mean_xy
    xs = stroke[:, COL_X].tolist()
    ys = stroke[:, COL_Y].tolist()

    deviations = [math.hypot(x - mean_x, y - mean_y) for x, y in zip(xs, ys)]

    displacements = [
        math.hypot(xs[i + 1] - xs[i], ys[i + 1] - ys[i]) for i in range(len(ts) - 1)
    ]
    disp_sum = sum(displacements)

    velocities: list[float] = []
    vel_start_idx: list[int] = []  # index of the pair's first point
    vel_end_t: list[float] = []
    for i in range(len(ts) - 1):
        dt = ts[i + 1] - ts[i]
        if dt == 0:
            continue
        velocities.append(displacements[i] / dt)
        vel_start_idx.append(i)
        vel_end_t.append(ts[i + 1])

    accelerations: list[float] = []
    for j in range(len(velocities) - 1):
        dt = vel_end_t[j + 1] - vel_end_t[j]
        if dt == 0:
            continue
        accelerations.append((velocities[j + 1] - velocities[j]) / dt)

    last3 = [v for v, i in zip(velocities, vel_start_idx) if i >= len(ts) - 3]
    duration = float(ts[-1] - ts[0])
    euclid = math.hypot(xs[-1] - xs[0], ys[-1] - ys[0])

    return np.array([
        xs[0], ys[0], xs[-1], ys[-1],
        max(abs(x - mean_x) for x in xs),
        max(abs(y - mean_y) for y in ys),
        *_percentiles(deviations),
        *_percentiles(velocities),
        *_percentiles(accelerations),
        _percentiles(last3, 50),
        float(np.mean(accelerations[:5])) if accelerations else 0.0,
        disp_sum,
        euclid,
        euclid / disp_sum if disp_sum > 0 else 0.0,
        duration,
        disp_sum / duration,
    ])


def session_mean_xy(strokes) -> tuple[float, float]:
    """Mean (x, y) over every point of every stroke."""
    if not strokes:
        raise NoStrokes("no stroke points")
    xs = np.concatenate([s[:, COL_X] for s in strokes])
    ys = np.concatenate([s[:, COL_Y] for s in strokes])
    return float(np.mean(xs)), float(np.mean(ys))


def session_feature_vectors(session: Session) -> np.ndarray:
    """(k, 22) feature matrix of a session's non-degenerate strokes; (0, 22) when none."""
    sliced = slice_strokes(session.stream(ModalityKind.Touch))
    usable = [s for s in sliced.strokes if s[-1, COL_T] > s[0, COL_T]]
    if not usable:
        return np.empty((0, len(FEATURE_NAMES)))
    mean_xy = session_mean_xy(usable)
    return np.stack([swipe_features(s, mean_xy) for s in usable])


@dataclass(frozen=True)
class SessionTemplate:
    mean: np.ndarray
    std: np.ndarray
    count: int


def build_template(features: np.ndarray) -> SessionTemplate:
    """Per-feature sample mean and population std over the rows of a feature matrix."""
    if len(features) == 0:
        raise NoStrokes("cannot build a template from zero strokes")
    return SessionTemplate(features.mean(axis=0), features.std(axis=0), len(features))


#: Floor of a template's per-feature std in `template_score`, so a feature
#: constant over the enrollment strokes does not divide by zero.
STD_FLOOR = 1e-6


def template_score(template: SessionTemplate, verify_features: np.ndarray) -> float:
    """exp(-mean |z|) of the verify mean vector against the template.

    Monotone decreasing in the distance; 1.0 when the verify mean equals
    the template mean.
    """
    if len(verify_features) == 0:
        raise NoStrokes("cannot score zero verify strokes")
    verify_mean = verify_features.mean(axis=0)
    z = np.abs(verify_mean - template.mean) / np.maximum(template.std, STD_FLOOR)
    return float(np.exp(-z.mean()))


# --- per-task sequences for alignment distances --------------------------

def _stroke_rows(session: Session, tapping: bool) -> np.ndarray:
    strokes = slice_strokes(session.stream(ModalityKind.Touch)).strokes
    rows = []
    for i, stroke in enumerate(strokes):
        ts = stroke[:, COL_T].tolist()
        xs = stroke[:, COL_X].tolist()
        ys = stroke[:, COL_Y].tolist()
        duration = ts[-1] - ts[0]
        gap = float(strokes[i + 1][0, COL_T]) - ts[-1] if i + 1 < len(strokes) else 0.0
        if tapping:
            rows.append([duration, gap, xs[0], ys[0]])
        else:
            disp = sum(
                math.hypot(xs[j + 1] - xs[j], ys[j + 1] - ys[j]) for j in range(len(xs) - 1)
            )
            vel = disp / duration if duration > 0 else 0.0
            rows.append([disp, vel, duration, gap])
    return np.array(rows, dtype=float).reshape(len(rows), 4)


def build_dtw_sequence(session: Session, task: TaskKind) -> np.ndarray:
    """Per-task feature-vector sequence for alignment scoring.

    Keystroke: one vector per event holding the first-, second-, and
    third-order timestamp differences at that position (missing trailing
    differences are 0) plus the ASCII code scaled to [0,1]. Reading and
    gallery: one vector per stroke [path length, mean velocity, down-up
    duration, up-down gap to the next stroke]. Tapping: one vector per
    tap [down-up duration, up-down gap, x, y].
    """
    if session.task is not task:
        raise ValueError(f"session task {session.task.value!r} != {task.value!r}")
    if task is TaskKind.Keystroke:
        keystrokes = session.stream(ModalityKind.Keystroke)
        if len(keystrokes) < 4:
            raise InsufficientEvents("keystroke differencing needs at least 4 events")
        t = keystrokes[:, COL_T]
        rows = np.zeros((len(keystrokes), 4))
        for order in (1, 2, 3):
            diffs = np.diff(t, n=order)
            rows[: len(diffs), order - 1] = diffs
        rows[:, 3] = keystrokes[:, COL_ASCII] / 255
        return rows
    return _stroke_rows(session, tapping=task is TaskKind.Tapping)
