"""Best-effort importer for the released public dataset layout.

The upstream download nests sessions as user -> session -> task ->
modality arrays with slightly varying key spellings across releases.
This importer maps whatever subset it recognizes onto the normalized
:mod:`bbauth.data` model and leaves strictness to `validate_session`;
it is exercised by an optional smoke test that is skipped when no
download is present.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .data import (
    INTEGER_COLUMNS,
    STREAM_COLUMNS,
    DatasetSplit,
    ModalityKind,
    Session,
    SessionRole,
    SplitKind,
    TaskKind,
    make_stream,
)
from .errors import MalformedDocument, SchemaViolation

_TASK_ALIASES = {
    "keystroke": TaskKind.Keystroke,
    "keystrokes": TaskKind.Keystroke,
    "texting": TaskKind.Keystroke,
    "reading": TaskKind.TextReading,
    "text_reading": TaskKind.TextReading,
    "readtext": TaskKind.TextReading,
    "gallery": TaskKind.GallerySwiping,
    "gallery_swiping": TaskKind.GallerySwiping,
    "swiping": TaskKind.GallerySwiping,
    "tap": TaskKind.Tapping,
    "tapping": TaskKind.Tapping,
}

_MODALITY_ALIASES = {
    "keystroke": ModalityKind.Keystroke,
    "keystrokes": ModalityKind.Keystroke,
    "touch": ModalityKind.Touch,
    "touch_touch": ModalityKind.Touch,
    "accelerometer": ModalityKind.Accelerometer,
    "acc": ModalityKind.Accelerometer,
    "gyroscope": ModalityKind.Gyroscope,
    "gyr": ModalityKind.Gyroscope,
    "magnetometer": ModalityKind.Magnetometer,
    "mag": ModalityKind.Magnetometer,
    "linear_accelerometer": ModalityKind.LinearAccelerometer,
    "lin_acc": ModalityKind.LinearAccelerometer,
    "linacc": ModalityKind.LinearAccelerometer,
    "gravity": ModalityKind.Gravity,
    "grv": ModalityKind.Gravity,
}

_ROLE_HINTS = {
    "enrol": SessionRole.GenuineEnroll,
    "enroll": SessionRole.GenuineEnroll,
    "verify": SessionRole.GenuineVerify,
    "skilled": SessionRole.SkilledImpostor,
    "impostor": SessionRole.SkilledImpostor,
}


def _norm_key(key: str) -> str:
    return key.strip().lower().replace("-", "_").replace(" ", "_")


def _to_stream(modality: ModalityKind, rows, path: str) -> np.ndarray:
    """The first k entries of every row as a stream; integer columns pass through `int`."""
    names = STREAM_COLUMNS[modality]
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) < len(names):
            raise SchemaViolation(f"{path}[{i}]: expected an event array of {len(names)} entries")
    columns = []
    for name, values in zip(names, zip(*rows)):
        convert = int if name in INTEGER_COLUMNS else float
        column = []
        for i, value in enumerate(values):
            try:
                column.append(convert(value))
            except (TypeError, ValueError, OverflowError) as exc:
                raise SchemaViolation(f"{path}[{i}]: {name}: {exc}") from None
        columns.append(column)
    return make_stream(modality, np.array(columns, dtype=np.float64).T)


def _guess_role(session_key: str, split_kind: SplitKind) -> SessionRole:
    lowered = session_key.lower()
    for hint, role in _ROLE_HINTS.items():
        if hint in lowered:
            return role
    return SessionRole.Unlabeled if split_kind is SplitKind.Train else SessionRole.GenuineVerify


def import_released_obj(obj: dict, split_kind: SplitKind) -> DatasetSplit:
    """Map a parsed released-layout object onto a DatasetSplit.

    Expects {user_or_device: {session: {task: {modality: rows}}}};
    unrecognized task or modality keys are skipped.
    """
    if not isinstance(obj, dict):
        raise SchemaViolation("top level: expected an object of users")
    sessions: list[Session] = []
    for user_key in sorted(obj):
        sessions_obj = obj[user_key]
        if not isinstance(sessions_obj, dict):
            raise SchemaViolation(f"{user_key}: expected an object of sessions")
        for session_key in sorted(sessions_obj):
            tasks_obj = sessions_obj[session_key]
            if not isinstance(tasks_obj, dict):
                raise SchemaViolation(f"{user_key}.{session_key}: expected an object of tasks")
            for task_key in sorted(tasks_obj):
                task = _TASK_ALIASES.get(_norm_key(task_key))
                if task is None:
                    continue
                streams_obj = tasks_obj[task_key]
                if not isinstance(streams_obj, dict):
                    continue
                streams = {}
                for mod_key in sorted(streams_obj):
                    modality = _MODALITY_ALIASES.get(_norm_key(mod_key))
                    if modality is None:
                        continue
                    rows = streams_obj[mod_key]
                    if not isinstance(rows, list):
                        continue
                    streams[modality] = _to_stream(
                        modality, rows, f"{user_key}.{session_key}.{task_key}.{mod_key}"
                    )
                if not streams:
                    continue
                sessions.append(
                    Session(
                        session_id=f"{user_key}/{session_key}/{task.value}",
                        device_id=str(user_key),
                        task=task,
                        role=_guess_role(str(session_key), split_kind),
                        streams=streams,
                        subject_id=str(user_key) if split_kind is SplitKind.Train else None,
                    )
                )
    return DatasetSplit(split_kind, tuple(sessions))


def import_released_file(path: str | Path, split_kind: SplitKind) -> DatasetSplit:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"{path}: {exc}") from None
    return import_released_obj(obj, split_kind)
