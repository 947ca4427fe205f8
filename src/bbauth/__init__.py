"""Benchmark toolkit for mobile behavioral-biometric authentication."""

from .data import (
    DatasetSplit,
    ModalityKind,
    Session,
    SessionRole,
    SplitKind,
    TaskKind,
    make_stream,
    parse_dataset,
    serialize_dataset,
    slice_strokes,
    validate_session,
)
from .protocol import KeyFile, auc, build_comparisons, grade, rank
from .synth import GenConfig, generate_dataset

__version__ = "0.1.0"

__all__ = [
    "DatasetSplit",
    "GenConfig",
    "KeyFile",
    "ModalityKind",
    "Session",
    "SessionRole",
    "SplitKind",
    "TaskKind",
    "auc",
    "build_comparisons",
    "generate_dataset",
    "grade",
    "make_stream",
    "parse_dataset",
    "rank",
    "serialize_dataset",
    "slice_strokes",
    "validate_session",
    "__version__",
]
