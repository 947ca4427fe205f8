"""Signal conditioning shared by the matchers.

Background sensors sample unevenly, so resampling always works over the
time axis, not index positions. Every function here is pure and returns
plain float64 arrays: one resampled channel is 1-D, a stacked session
is a (length, channels) matrix.
"""

from __future__ import annotations

import numpy as np

from .data import BACKGROUND_SENSORS, COL_T, COL_X, COL_Y, COL_Z, Session, TaskKind
from .errors import EmptySeries, MissingModality


def resample_linear(timestamps, values, target_len: int, channel: str = "signal") -> np.ndarray:
    """Resample one timestamped channel to `target_len` equally spaced points.

    Sampling positions span [t_first, t_last]; endpoints are preserved
    exactly and a single-sample input replicates its value. `channel`
    names the input in the error for an empty one.
    """
    t = np.asarray(timestamps, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size == 0:
        raise EmptySeries(f"channel {channel!r} has no samples")
    if target_len < 1:
        raise ValueError("target_len must be >= 1")
    return np.interp(np.linspace(t[0], t[-1], target_len), t, v)


def minmax_normalize(array) -> np.ndarray:
    """Map each column of a 2-D array to [0,1]; constant columns map to 0.5."""
    m = np.asarray(array, dtype=float)
    lo = m.min(axis=0)
    span = m.max(axis=0) - lo
    out = np.full_like(m, 0.5)
    ok = span > 0
    out[:, ok] = (m[:, ok] - lo[ok]) / span[ok]
    return out


def stack_modalities(session: Session, task: TaskKind, per_modality_len: int) -> np.ndarray:
    """Fuse a session's sensor streams at data level into one (len, 15) matrix.

    Each x/y/z channel of the five background sensors is resampled to
    `per_modality_len` and becomes a column, in the fixed order
    accelerometer, gyroscope, magnetometer, linear accelerometer,
    gravity; each column is then MinMax-normalized.
    """
    if session.task is not task:
        raise ValueError(f"session task {session.task.value!r} != {task.value!r}")
    columns: list[np.ndarray] = []
    for sensor in BACKGROUND_SENSORS:
        stream = session.stream(sensor)
        if len(stream) == 0:
            raise MissingModality(f"no {sensor.value} stream")
        for axis, c in (("x", COL_X), ("y", COL_Y), ("z", COL_Z)):
            channel = f"{sensor.value}.{axis}"
            columns.append(resample_linear(stream[:, COL_T], stream[:, c], per_modality_len, channel))
    return minmax_normalize(np.column_stack(columns))


def compute_target_lengths(sessions, minimum: int = 8) -> dict[TaskKind, int]:
    """Per-task resampling lengths from training data.

    Mean event count over all background-sensor streams of the task's
    sessions, rounded to the nearest integer and floored at `minimum`.
    """
    counts: dict[TaskKind, list[int]] = {task: [] for task in TaskKind}
    for s in sessions:
        for sensor in BACKGROUND_SENSORS:
            n = len(s.stream(sensor))
            if n:
                counts[s.task].append(n)
    lengths: dict[TaskKind, int] = {}
    for task, ns in counts.items():
        if ns:
            lengths[task] = max(minimum, round(float(np.mean(ns))))
        else:
            lengths[task] = minimum
    return lengths
