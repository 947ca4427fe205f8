"""Statistical swipe/tap features and template-distance scoring.

A stroke's feature vector summarizes its geometry and kinematics; an
enrollment template stores per-feature mean/std over all enrollment
strokes, and verification strokes are scored by their z-distance to the
template. Velocities are pairwise Euclidean displacements over time
deltas (zero-delta pairs skipped); accelerations are pairwise velocity
differences over the corresponding time deltas; percentiles use linear
interpolation between order statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .data import COL_ASCII, COL_T, COL_X, COL_Y, ModalityKind, Session, TaskKind, slice_strokes
from .errors import DegenerateStroke, InsufficientEvents, NoStrokes


@dataclass(frozen=True)
class SwipeFeatureVector:
    start_x: float
    start_y: float
    end_x: float
    end_y: float
    max_dev_x: float
    max_dev_y: float
    dev_p20: float
    dev_p50: float
    dev_p80: float
    vel_p20: float
    vel_p50: float
    vel_p80: float
    acc_p20: float
    acc_p50: float
    acc_p80: float
    median_vel_last3: float
    mean_acc_first5: float
    disp_sum: float
    euclid_start_end: float
    straightness_ratio: float
    duration_ms: float
    mean_velocity: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=float)


FEATURE_NAMES: tuple[str, ...] = tuple(f.name for f in fields(SwipeFeatureVector))


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values), q, method="linear"))


def swipe_features(stroke: np.ndarray, session_mean_xy: tuple[float, float]) -> SwipeFeatureVector:
    """Feature vector of one stroke (touch rows from :func:`slice_strokes`).

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

    return SwipeFeatureVector(
        start_x=xs[0],
        start_y=ys[0],
        end_x=xs[-1],
        end_y=ys[-1],
        max_dev_x=max(abs(x - mean_x) for x in xs),
        max_dev_y=max(abs(y - mean_y) for y in ys),
        dev_p20=_percentile(deviations, 20),
        dev_p50=_percentile(deviations, 50),
        dev_p80=_percentile(deviations, 80),
        vel_p20=_percentile(velocities, 20),
        vel_p50=_percentile(velocities, 50),
        vel_p80=_percentile(velocities, 80),
        acc_p20=_percentile(accelerations, 20),
        acc_p50=_percentile(accelerations, 50),
        acc_p80=_percentile(accelerations, 80),
        median_vel_last3=_percentile(last3, 50),
        mean_acc_first5=float(np.mean(accelerations[:5])) if accelerations else 0.0,
        disp_sum=disp_sum,
        euclid_start_end=euclid,
        straightness_ratio=euclid / disp_sum if disp_sum > 0 else 0.0,
        duration_ms=duration,
        mean_velocity=disp_sum / duration,
    )


def session_mean_xy(strokes) -> tuple[float, float]:
    """Mean (x, y) over every point of every stroke."""
    if not strokes:
        raise NoStrokes("no stroke points")
    xs = np.concatenate([s[:, COL_X] for s in strokes])
    ys = np.concatenate([s[:, COL_Y] for s in strokes])
    return float(np.mean(xs)), float(np.mean(ys))


def session_feature_vectors(session: Session) -> list[SwipeFeatureVector]:
    """Feature vectors for all non-degenerate strokes of a session."""
    sliced = slice_strokes(session.stream(ModalityKind.Touch))
    usable = [s for s in sliced.strokes if s[-1, COL_T] > s[0, COL_T]]
    if not usable:
        return []
    mean_xy = session_mean_xy(usable)
    return [swipe_features(s, mean_xy) for s in usable]


@dataclass(frozen=True)
class SessionTemplate:
    mean: np.ndarray
    std: np.ndarray
    count: int


def build_template(strokes: list[SwipeFeatureVector]) -> SessionTemplate:
    """Per-feature sample mean and population std over the stroke vectors."""
    if not strokes:
        raise NoStrokes("cannot build a template from zero strokes")
    matrix = np.stack([s.as_array() for s in strokes])
    return SessionTemplate(matrix.mean(axis=0), matrix.std(axis=0), len(strokes))


def template_score(
    template: SessionTemplate,
    verify_strokes: list[SwipeFeatureVector],
    std_floor: float = 1e-6,
) -> float:
    """exp(-mean |z|) of the verify mean vector against the template.

    Monotone decreasing in the distance; 1.0 when the verify mean equals
    the template mean.
    """
    if not verify_strokes:
        raise NoStrokes("cannot score zero verify strokes")
    verify_mean = np.stack([s.as_array() for s in verify_strokes]).mean(axis=0)
    z = np.abs(verify_mean - template.mean) / np.maximum(template.std, std_floor)
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
