"""Soft and hard dynamic time warping over per-task feature sequences.

The accumulated-cost recursion fills the O(m*n) table row by row with
scalar Python arithmetic over the local-cost matrix, which numpy builds
in one step; local cost is squared Euclidean distance. `soft_dtw` uses
a smoothed minimum with temperature gamma (Cuturi & Blondel, ICML 2017)
and lower-bounds `dtw` for every gamma > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median

import numpy as np

from .data import DatasetSplit, TaskKind
from .errors import BBAuthError, DimensionMismatch, EmptySequence
from .touch import build_dtw_sequence


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
    gamma with the smoothed one, `lo - gamma*log(sum exp(-(v - lo)/gamma))`
    over the three predecessors (where interior entries may dip below
    the hard values). Filled row by row in Python floats: at the table
    sizes the matchers build, per-cell scalar steps cost less than
    per-diagonal numpy calls.
    """
    if gamma is not None and gamma <= 0:
        raise ValueError("gamma must be > 0")
    cost = _cost_matrix(_as_sequence(x), _as_sequence(y)).tolist()
    inf = math.inf
    exp, log = math.exp, math.log
    up = [0.0] + [inf] * len(cost[0])
    table = [up]
    for cost_row in cost:
        row = [inf]
        left = inf
        for diag, above, local in zip(up, up[1:], cost_row):
            lo = above if above < left else left
            if diag < lo:
                lo = diag
            if gamma is not None and lo != inf:
                lo -= gamma * log(exp(-(above - lo) / gamma) + exp(-(left - lo) / gamma)
                                  + exp(-(diag - lo) / gamma))
            left = local + lo
            row.append(left)
        table.append(row)
        up = row
    return np.array(table)


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
    enroll_sequences: list[np.ndarray],
    verify_sequence: np.ndarray,
    gamma: float,
    tau: float,
) -> float:
    """exp(-d/tau) where d is the smallest soft alignment cost between the
    verify sequence and any enrollment sequence, floored at 0.

    Takes prepared sequences: `build_dtw_sequence` rows MinMax-scaled by
    the `FeatureScale` that :func:`calibrate` fits on the training split,
    so a sequence's scaled rows never depend on the pair it is compared
    in. A gamma small next to the per-step cost (see `RunConfig.gamma`)
    then keeps d close to the hard alignment cost; a large gamma can
    drive d below 0, where the floor maps the comparison to 1. `tau`
    should come from the same calibration.
    """
    d = min(soft_dtw(seq, verify_sequence, gamma) for seq in enroll_sequences)
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
        try:
            seq = _as_sequence(build_dtw_sequence(s, task))
        except BBAuthError as exc:
            raise type(exc)(f"session {s.session_id!r}: {exc}") from None
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
