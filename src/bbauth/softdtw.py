"""Soft and hard dynamic time warping over per-task feature sequences.

The accumulated-cost recursion is evaluated along anti-diagonals so the
O(m*n) table fills with vectorized operations; local cost is squared
Euclidean distance. `soft_dtw` uses a smoothed minimum with temperature
gamma and lower-bounds `dtw` for every gamma > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median

import numpy as np

from .data import DatasetSplit, Session, TaskKind
from .errors import DimensionMismatch, EmptySequence
from .touch import build_dtw_sequence


def softmin(a: float, b: float, c: float, gamma: float) -> float:
    """Smoothed minimum -gamma*ln(sum exp(-x/gamma)); never above min(a,b,c)."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    lo = min(a, b, c)
    if math.isinf(lo):
        return lo
    z = sum(math.exp(-(x - lo) / gamma) for x in (a, b, c))
    return lo - gamma * math.log(z)


def _softmin_vec(a: np.ndarray, b: np.ndarray, c: np.ndarray, gamma: float) -> np.ndarray:
    stacked = np.stack([a, b, c])
    lo = stacked.min(axis=0)
    finite = np.isfinite(lo)
    out = lo.copy()
    if finite.any():
        with np.errstate(invalid="ignore"):
            z = np.exp(-(stacked[:, finite] - lo[finite]) / gamma)
        out[finite] = lo[finite] - gamma * np.log(z.sum(axis=0))
    return out


def _as_sequence(seq) -> np.ndarray:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise EmptySequence("sequences must be non-empty")
    return arr


def _cost_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"feature dims differ: {x.shape[1]} vs {y.shape[1]}")
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def alignment_cost_table(x, y, gamma: float | None = None) -> np.ndarray:
    """Accumulated-cost grid of shape (m+1, n+1).

    Borders are +inf except the origin, which is 0; the interior is
    finite. `gamma=None` accumulates with the hard minimum, a positive
    gamma with the smoothed one (where interior entries may dip below
    the hard values). Filled along anti-diagonals, so each step is a
    vectorized gather.
    """
    if gamma is not None and gamma <= 0:
        raise ValueError("gamma must be > 0")
    cost = _cost_matrix(_as_sequence(x), _as_sequence(y))
    m, n = cost.shape
    table = np.full((m + 1, n + 1), np.inf)
    table[0, 0] = 0.0
    for d in range(2, m + n + 1):
        i = np.arange(max(1, d - n), min(m, d - 1) + 1)
        if i.size == 0:
            continue
        j = d - i
        a = table[i - 1, j]
        b = table[i, j - 1]
        c = table[i - 1, j - 1]
        if gamma is None:
            best = np.minimum(np.minimum(a, b), c)
        else:
            best = _softmin_vec(a, b, c, gamma)
        table[i, j] = cost[i - 1, j - 1] + best
    return table


def soft_dtw(x, y, gamma: float) -> float:
    """Soft alignment cost; approaches :func:`dtw` from below as gamma -> 0."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    return float(alignment_cost_table(x, y, gamma)[-1, -1])


def dtw(x, y) -> float:
    """Hard minimum-cost monotone alignment (squared Euclidean local cost)."""
    return float(alignment_cost_table(x, y, None)[-1, -1])


# --- session scoring ------------------------------------------------------

@dataclass(frozen=True)
class FeatureScale:
    """Per-dimension affine MinMax scaling fitted on training sequences."""

    lo: np.ndarray
    hi: np.ndarray

    def apply(self, seq: np.ndarray) -> np.ndarray:
        span = self.hi - self.lo
        scaled = np.full_like(seq, 0.5)
        ok = span > 0
        scaled[:, ok] = (seq[:, ok] - self.lo[ok]) / span[ok]
        return scaled


def fit_feature_scale(sequences: list[np.ndarray]) -> FeatureScale:
    pooled = np.vstack([_as_sequence(s) for s in sequences])
    return FeatureScale(pooled.min(axis=0), pooled.max(axis=0))


def softdtw_score(
    enroll_sessions: list[Session],
    verify_session: Session,
    task: TaskKind,
    gamma: float,
    tau: float,
    scale: FeatureScale | None = None,
) -> float:
    """exp(-d/tau) where d is the smallest soft alignment cost between the
    verify sequence and any enrollment sequence, floored at 0.

    Feature dimensions are MinMax-scaled to [0, 1], so a gamma small next
    to the per-step cost (see `RunConfig.gamma`) keeps d close to the
    hard alignment cost; a large gamma can drive d below 0, where the
    floor maps the comparison to 1. With a training-fitted `scale` (see
    :func:`calibrate`) the scaling is the same for every comparison;
    without one it falls back to the pooled rows of the compared
    sequences. `tau` should come from the same calibration.
    """
    sequences = [_as_sequence(build_dtw_sequence(s, task)) for s in enroll_sessions]
    verify = _as_sequence(build_dtw_sequence(verify_session, task))
    if scale is None:
        scale = fit_feature_scale(sequences + [verify])
    sequences = [scale.apply(s) for s in sequences]
    verify = scale.apply(verify)
    d = min(soft_dtw(seq, verify, gamma) for seq in sequences)
    return math.exp(-max(d, 0.0) / tau)


@dataclass(frozen=True)
class SoftDtwCalibration:
    tau: float
    scale: FeatureScale


def calibrate(train_split: DatasetSplit, task: TaskKind, gamma: float) -> SoftDtwCalibration:
    """Fit the feature scale on all training sequences of the task and
    set tau to the median soft alignment cost over same-subject pairs."""
    by_subject: dict[str, list[np.ndarray]] = {}
    all_sequences: list[np.ndarray] = []
    for s in train_split.sessions_for(task):
        if s.subject_id is None:
            continue
        seq = _as_sequence(build_dtw_sequence(s, task))
        all_sequences.append(seq)
        by_subject.setdefault(s.subject_id, []).append(seq)
    if not all_sequences:
        raise EmptySequence(f"no training sequences for task {task.value!r}")
    scale = fit_feature_scale(all_sequences)
    distances: list[float] = []
    for seqs in by_subject.values():
        scaled = [scale.apply(s) for s in seqs]
        for i in range(len(scaled)):
            for j in range(i + 1, len(scaled)):
                distances.append(max(soft_dtw(scaled[i], scaled[j], gamma), 0.0))
    if not distances:
        raise EmptySequence(f"no genuine pairs for task {task.value!r} in the training split")
    return SoftDtwCalibration(max(median(distances), 1e-9), scale)
