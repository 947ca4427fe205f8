"""Wavelet image representation of sessions and a distance scorer over it.

Each channel of each modality is resampled to `IMAGE_LENGTH` points and
decomposed by a single-level coif1 DWT under periodic extension (the
filter taps are the constants `COIF1_DEC_LO` and `COIF1_DEC_HI`), the
coefficient columns are reduced to exactly three by recursive pairwise
averaging (the keystroke channel instead gains a third column as the
mean of its two), each column is MinMax-scaled to [0,1] by
:func:`preprocess.minmax_normalize`, and the three columns become the
R/G/B planes of a per-modality strip `STRIP_WIDTH` pixels wide. A
session's image is the vertical concatenation of its modality strips in
fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (
    BACKGROUND_SENSORS,
    COL_ASCII,
    COL_T,
    COL_X,
    COL_Y,
    COL_Z,
    ModalityKind,
    Session,
    TaskKind,
)
from .errors import MissingModality, ShapeMismatch, SignalTooShort, TooFewColumns
from .preprocess import minmax_normalize, resample_linear

# coif1 decomposition filters in closed form (exact up to machine
# precision): the low-pass taps and their quadrature mirror, the high-pass
# taps hi[k] = (-1)**(k + 1) * lo[n - 1 - k].
_SQRT7 = math.sqrt(7.0)
COIF1_DEC_LO = math.sqrt(2.0) / 32.0 * np.array(
    [_SQRT7 - 3.0, 1.0 - _SQRT7, 14.0 - 2.0 * _SQRT7, 14.0 + 2.0 * _SQRT7, 5.0 + _SQRT7, 1.0 - _SQRT7]
)
COIF1_DEC_HI = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0]) * COIF1_DEC_LO[::-1]
COIF1_DEC_LO.flags.writeable = COIF1_DEC_HI.flags.writeable = False

# Image geometry: the IMAGE_LENGTH / 2 coefficients of a resampled channel
# tile a strip STRIP_WIDTH wide and _STRIP_HEIGHT high, one plane per
# reduced column (R/G/B).
IMAGE_LENGTH = 64
STRIP_WIDTH = 8
IMAGE_PLANES = 3
_STRIP_HEIGHT = IMAGE_LENGTH // 2 // STRIP_WIDTH


@dataclass(frozen=True)
class DwtPair:
    c_a: np.ndarray  # approximation coefficients
    c_b: np.ndarray  # detail coefficients


def dwt_level1(signal) -> DwtPair:
    """Single-level DWT with periodic extension.

    Circular convolution with the coif1 decomposition filters followed by
    downsampling by two; both coefficient arrays have ceil(n/2) entries.
    Odd-length signals are first extended by duplicating the last
    sample, so the transform is orthonormal on the (even) extended
    signal: energy and perfect reconstruction hold with respect to it.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise SignalTooShort("need a 1-D signal with at least 2 samples")
    if x.size % 2 == 1:
        x = np.concatenate([x, x[-1:]])
    n = x.size
    # gather x[(2k + 1 - m) mod n] for k rows, m columns
    k = np.arange(n // 2)[:, None]
    m = np.arange(COIF1_DEC_LO.size)[None, :]
    windows = x[(2 * k + 1 - m) % n]
    return DwtPair(windows @ COIF1_DEC_LO, windows @ COIF1_DEC_HI)


def idwt_level1(pair: DwtPair) -> np.ndarray:
    """Inverse of :func:`dwt_level1` (periodic, orthonormal: the adjoint)."""
    c_a = np.asarray(pair.c_a, dtype=float)
    c_b = np.asarray(pair.c_b, dtype=float)
    if c_a.shape != c_b.shape:
        raise ShapeMismatch("coefficient arrays differ in length")
    n = 2 * c_a.size
    out = np.zeros(n)
    for k in range(c_a.size):
        pos = (2 * k + 1 - np.arange(COIF1_DEC_LO.size)) % n
        out[pos] += c_a[k] * COIF1_DEC_LO + c_b[k] * COIF1_DEC_HI
    return out


def recursive_average(matrix) -> np.ndarray:
    """Reduce columns to `IMAGE_PLANES` by repeated pairwise averaging.

    One pass averages each column with the next except the last, which
    is carried over unchanged, shrinking the column count by one; the
    pass repeats until `IMAGE_PLANES` columns remain.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[1] < IMAGE_PLANES:
        raise TooFewColumns(f"need at least {IMAGE_PLANES} columns")
    while m.shape[1] > IMAGE_PLANES:
        m = np.hstack([(m[:, :-2] + m[:, 1:-1]) / 2.0, m[:, -1:]])
    return m


def keystroke_third_channel(pair: DwtPair) -> np.ndarray:
    """Expand a 1-channel decomposition to 3 columns [c_a, c_b, mean]."""
    c_a = np.asarray(pair.c_a, dtype=float)
    c_b = np.asarray(pair.c_b, dtype=float)
    if c_a.shape != c_b.shape:
        raise ShapeMismatch("coefficient arrays differ in length")
    return np.column_stack([c_a, c_b, (c_a + c_b) / 2.0])


# --- per-session images ---------------------------------------------------

_MODALITY_CHANNELS = {
    ModalityKind.Keystroke: (COL_ASCII,),
    ModalityKind.Touch: (COL_X, COL_Y),
}


def task_modalities(task: TaskKind) -> tuple[ModalityKind, ...]:
    """Modalities rendered into a task image, in strip order."""
    first = ModalityKind.Keystroke if task is TaskKind.Keystroke else ModalityKind.Touch
    return (first, *BACKGROUND_SENSORS)


@dataclass(frozen=True)
class ModalityImage:
    pixels: np.ndarray  # (height, width, 3), entries in [0, 1]

    def __post_init__(self) -> None:
        p = self.pixels
        if p.ndim != 3 or p.shape[2] != 3:
            raise ValueError("pixels must be (H, W, 3)")
        if p.size and (p.min() < -1e-12 or p.max() > 1 + 1e-12):
            raise ValueError("pixel values must lie in [0, 1]")


def task_image(session: Session) -> ModalityImage:
    """Render one session as a vertically concatenated modality image."""
    strips: list[np.ndarray] = []
    for modality in task_modalities(session.task):
        stream = session.stream(modality)
        if len(stream) == 0:
            raise MissingModality(f"no {modality.value} stream")
        channels = _MODALITY_CHANNELS.get(modality, (COL_X, COL_Y, COL_Z))
        pairs = [
            dwt_level1(resample_linear(stream[:, COL_T], stream[:, c], IMAGE_LENGTH)) for c in channels
        ]
        if modality is ModalityKind.Keystroke:
            reduced = keystroke_third_channel(pairs[0])
        else:
            doubled = np.column_stack([col for p in pairs for col in (p.c_a, p.c_b)])
            reduced = recursive_average(doubled)
        scaled = minmax_normalize(reduced)
        strips.append(scaled.reshape(_STRIP_HEIGHT, STRIP_WIDTH, IMAGE_PLANES))
    return ModalityImage(np.concatenate(strips, axis=0))


def mean_image(images: list[ModalityImage]) -> ModalityImage:
    """Per-pixel mean of the enrollment images: the reference a verify image is scored against."""
    if not images:
        raise ValueError("need at least one enrollment image")
    shape = images[0].pixels.shape
    if any(img.pixels.shape != shape for img in images):
        raise ShapeMismatch("images differ in shape")
    return ModalityImage(np.mean([img.pixels for img in images], axis=0))


def dwt_score(reference: ModalityImage, verify_image: ModalityImage) -> float:
    """1 minus the mean absolute pixel difference between the verify
    image and the reference (see :func:`mean_image`)."""
    if reference.pixels.shape != verify_image.pixels.shape:
        raise ShapeMismatch("images differ in shape")
    return float(1.0 - np.abs(verify_image.pixels - reference.pixels).mean())
