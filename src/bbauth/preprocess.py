"""Signal conditioning shared by the matchers.

Background sensors sample unevenly, so resampling always works over the
time axis, not index positions. All functions here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BACKGROUND_SENSORS, COL_T, COL_X, COL_Y, COL_Z, Session, TaskKind
from .errors import EmptySeries, MissingModality


@dataclass(frozen=True)
class UniformSeries:
    """A fixed-length multichannel series with no missing values."""

    values: np.ndarray  # shape (length, channels)
    channels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] != len(self.channels):
            raise ValueError("values must be (length, channels) matching the channel tags")


def resample_linear(timestamps, values, target_len: int, channel: str = "signal") -> UniformSeries:
    """Resample one timestamped channel to `target_len` equally spaced points.

    Sampling positions span [t_first, t_last]; endpoints are preserved
    exactly and a single-sample input replicates its value.
    """
    t = np.asarray(timestamps, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size == 0:
        raise EmptySeries(f"channel {channel!r} has no samples")
    if target_len < 1:
        raise ValueError("target_len must be >= 1")
    positions = np.linspace(t[0], t[-1], target_len)
    out = np.interp(positions, t, v)
    return UniformSeries(out.reshape(-1, 1), (channel,))


def minmax_normalize(series: UniformSeries) -> UniformSeries:
    """Per-channel MinMax to [0,1]; constant channels map to 0.5."""
    v = series.values
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    span = hi - lo
    out = np.empty_like(v, dtype=float)
    flat = span == 0
    out[:, flat] = 0.5
    out[:, ~flat] = (v[:, ~flat] - lo[~flat]) / span[~flat]
    return UniformSeries(out, series.channels)


def stack_modalities(session: Session, task: TaskKind, per_modality_len: int) -> UniformSeries:
    """Fuse a session's sensor streams at data level into one matrix.

    Each x/y/z channel of the five background sensors is resampled to
    `per_modality_len`, MinMax-normalized, and concatenated along the
    channel axis in the fixed order accelerometer, gyroscope,
    magnetometer, linear accelerometer, gravity.
    """
    if session.task is not task:
        raise ValueError(f"session task {session.task.value!r} != {task.value!r}")
    columns: list[np.ndarray] = []
    channels: list[str] = []
    for sensor in BACKGROUND_SENSORS:
        stream = session.stream(sensor)
        if len(stream) == 0:
            raise MissingModality(sensor.value)
        for axis, c in (("x", COL_X), ("y", COL_Y), ("z", COL_Z)):
            channel = f"{sensor.value}.{axis}"
            col = resample_linear(stream[:, COL_T], stream[:, c], per_modality_len, channel)
            columns.append(minmax_normalize(col).values)
            channels.append(channel)
    return UniformSeries(np.hstack(columns), tuple(channels))


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
