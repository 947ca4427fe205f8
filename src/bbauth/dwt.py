"""Wavelet image representation of sessions and a distance scorer over it.

Each channel of each modality is decomposed by a single-level Coiflet
DWT under periodic extension, the coefficient columns are reduced to
exactly three by recursive pairwise averaging (the keystroke channel
instead gains a third column as the mean of its two), each column is
MinMax-scaled to [0,1], and the three columns become the R/G/B planes
of a per-modality strip. A session's image is the vertical
concatenation of its modality strips in fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .preprocess import resample_linear

# coif1 decomposition low-pass taps in closed form (exact up to machine
# precision; the quadrature-mirror high-pass is derived from them).
_SQRT7 = math.sqrt(7.0)
_COIF1_DEC_LO = tuple(
    math.sqrt(2.0) / 32.0 * c
    for c in (_SQRT7 - 3.0, 1.0 - _SQRT7, 14.0 - 2.0 * _SQRT7, 14.0 + 2.0 * _SQRT7, 5.0 + _SQRT7, 1.0 - _SQRT7)
)


@dataclass(frozen=True)
class WaveletFilter:
    name: str
    dec_lo: tuple[float, ...]
    dec_hi: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = np.asarray(self.dec_lo)
        hi = np.asarray(self.dec_hi)
        if abs(float(lo @ lo) - 1.0) > 1e-12 or abs(float(hi @ hi) - 1.0) > 1e-12:
            raise ValueError(f"{self.name}: filter taps are not orthonormal")
        n = len(lo)
        mirror = [(-1.0) ** (k + 1) * lo[n - 1 - k] for k in range(n)]
        if max(abs(m - h) for m, h in zip(mirror, hi)) > 1e-12:
            raise ValueError(f"{self.name}: high-pass is not the quadrature mirror of low-pass")


def quadrature_mirror(dec_lo: tuple[float, ...]) -> tuple[float, ...]:
    n = len(dec_lo)
    return tuple((-1.0) ** (k + 1) * dec_lo[n - 1 - k] for k in range(n))


def coif1() -> WaveletFilter:
    return WaveletFilter("coif1", _COIF1_DEC_LO, quadrature_mirror(_COIF1_DEC_LO))


@dataclass(frozen=True)
class DwtPair:
    c_a: np.ndarray  # approximation coefficients
    c_b: np.ndarray  # detail coefficients


def dwt_level1(signal, filt: WaveletFilter | None = None) -> DwtPair:
    """Single-level DWT with periodic extension.

    Circular convolution with the decomposition filters followed by
    downsampling by two; both coefficient arrays have ceil(n/2) entries.
    Odd-length signals are first extended by duplicating the last
    sample, so the transform is orthonormal on the (even) extended
    signal: energy and perfect reconstruction hold with respect to it.
    """
    filt = filt or coif1()
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise SignalTooShort("need a 1-D signal with at least 2 samples")
    if x.size % 2 == 1:
        x = np.concatenate([x, x[-1:]])
    n = x.size
    lo = np.asarray(filt.dec_lo)
    hi = np.asarray(filt.dec_hi)
    taps = lo.size
    # gather x[(2k + 1 - m) mod n] for k rows, m columns
    k = np.arange(n // 2)[:, None]
    m = np.arange(taps)[None, :]
    idx = (2 * k + 1 - m) % n
    windows = x[idx]
    return DwtPair(windows @ lo, windows @ hi)


def idwt_level1(pair: DwtPair, filt: WaveletFilter | None = None) -> np.ndarray:
    """Inverse of :func:`dwt_level1` (periodic, orthonormal: the adjoint)."""
    filt = filt or coif1()
    c_a = np.asarray(pair.c_a, dtype=float)
    c_b = np.asarray(pair.c_b, dtype=float)
    if c_a.shape != c_b.shape:
        raise ShapeMismatch("coefficient arrays differ in length")
    n = 2 * c_a.size
    lo = np.asarray(filt.dec_lo)
    hi = np.asarray(filt.dec_hi)
    taps = lo.size
    out = np.zeros(n)
    for k in range(c_a.size):
        pos = (2 * k + 1 - np.arange(taps)) % n
        out[pos] += c_a[k] * lo + c_b[k] * hi
    return out


def recursive_average(matrix, target: int = 3) -> np.ndarray:
    """Reduce columns to `target` by repeated pairwise averaging.

    One pass averages each column with the next except the last, which
    is carried over unchanged, shrinking the column count by one; the
    pass repeats until `target` columns remain.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[1] < target:
        raise TooFewColumns(f"need at least {target} columns")
    while m.shape[1] > target:
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
class DwtImageConfig:
    """Resampling lengths and strip geometry for task images.

    `length` is the per-channel resampling length (its half must be a
    multiple of `width` so coefficient columns tile into strips).
    """

    length: int = 64
    width: int = 8
    filt: WaveletFilter = field(default_factory=coif1)

    def __post_init__(self) -> None:
        half = -(-self.length // 2)
        if self.length < 2 or self.width < 1 or half % self.width:
            raise ValueError("ceil(length/2) must be a positive multiple of width")

    @property
    def strip_height(self) -> int:
        return (-(-self.length // 2)) // self.width


@dataclass(frozen=True)
class ModalityImage:
    pixels: np.ndarray  # (height, width, 3), entries in [0, 1]

    def __post_init__(self) -> None:
        p = self.pixels
        if p.ndim != 3 or p.shape[2] != 3:
            raise ValueError("pixels must be (H, W, 3)")
        if p.size and (p.min() < -1e-12 or p.max() > 1 + 1e-12):
            raise ValueError("pixel values must lie in [0, 1]")


def _minmax_columns(m: np.ndarray) -> np.ndarray:
    lo = m.min(axis=0)
    hi = m.max(axis=0)
    span = hi - lo
    out = np.full_like(m, 0.5)
    ok = span > 0
    out[:, ok] = (m[:, ok] - lo[ok]) / span[ok]
    return out


def task_image(session: Session, config: DwtImageConfig | None = None) -> ModalityImage:
    """Render one session as a vertically concatenated modality image."""
    config = config or DwtImageConfig()
    strips: list[np.ndarray] = []
    for modality in task_modalities(session.task):
        stream = session.stream(modality)
        if len(stream) == 0:
            raise MissingModality(modality.value)
        channels = _MODALITY_CHANNELS.get(modality, (COL_X, COL_Y, COL_Z))
        pairs = [
            dwt_level1(
                resample_linear(stream[:, COL_T], stream[:, c], config.length).values[:, 0],
                config.filt,
            )
            for c in channels
        ]
        if modality is ModalityKind.Keystroke:
            reduced = keystroke_third_channel(pairs[0])
        else:
            doubled = np.column_stack([col for p in pairs for col in (p.c_a, p.c_b)])
            reduced = recursive_average(doubled, 3)
        scaled = _minmax_columns(reduced)
        h, w = config.strip_height, config.width
        strip = np.stack([scaled[:, c].reshape(h, w) for c in range(3)], axis=-1)
        strips.append(strip)
    return ModalityImage(np.concatenate(strips, axis=0))


def dwt_score(enroll_images: list[ModalityImage], verify_image: ModalityImage) -> float:
    """1 minus the mean absolute pixel difference between the verify
    image and the per-pixel mean of the enrollment images."""
    if not enroll_images:
        raise ValueError("need at least one enrollment image")
    shape = verify_image.pixels.shape
    if any(img.pixels.shape != shape for img in enroll_images):
        raise ShapeMismatch("images differ in shape")
    reference = np.mean([img.pixels for img in enroll_images], axis=0)
    return float(1.0 - np.abs(verify_image.pixels - reference).mean())
