"""Session data model and the normalized dataset document format.

A dataset document is UTF-8 JSON::

    {"split": "train|validation|evaluation",
     "sessions": [
       {"session_id": str, "subject_id": str?, "device_id": str,
        "task": "keystroke|reading|gallery|tapping",
        "role": "enroll|verify|skilled|unlabeled",
        "streams": {"keystroke": [[t, ascii], ...],
                    "touch": [[t, x, y, action], ...],
                    "accelerometer": [[t, x, y, z], ...],
                    "gyroscope": [...], "magnetometer": [...],
                    "linear_accelerometer": [...], "gravity": [...]}}]}

Timestamps are integer milliseconds up to 2**53, coordinates decimal
fractions. Unknown keys are ignored with a warning.

A session holds each stream as one read-only (n, k) float64 array whose
columns keep the document's row order; `STREAM_COLUMNS` names them and
the `COL_*` constants index them. All types in this module are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
import gc
import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import InvariantViolation, MalformedDocument, SchemaViolation


class TaskKind(enum.Enum):
    """The four acquisition tasks."""

    Keystroke = "keystroke"
    TextReading = "reading"
    GallerySwiping = "gallery"
    Tapping = "tapping"


class ModalityKind(enum.Enum):
    Keystroke = "keystroke"
    Touch = "touch"
    Accelerometer = "accelerometer"
    Gyroscope = "gyroscope"
    Magnetometer = "magnetometer"
    LinearAccelerometer = "linear_accelerometer"
    Gravity = "gravity"


#: The five background sensors recorded for every task, in the fixed
#: channel order used throughout the toolkit.
BACKGROUND_SENSORS: tuple[ModalityKind, ...] = (
    ModalityKind.Accelerometer,
    ModalityKind.Gyroscope,
    ModalityKind.Magnetometer,
    ModalityKind.LinearAccelerometer,
    ModalityKind.Gravity,
)


class SessionRole(enum.Enum):
    GenuineEnroll = "enroll"
    GenuineVerify = "verify"
    SkilledImpostor = "skilled"
    Unlabeled = "unlabeled"


class SplitKind(enum.Enum):
    Train = "train"
    Validation = "validation"
    Evaluation = "evaluation"


#: Sessions per device and task of a validation or evaluation split, by role.
SESSIONS_PER_ROLE: dict[SessionRole, int] = {
    SessionRole.GenuineEnroll: 2,
    SessionRole.GenuineVerify: 2,
    SessionRole.SkilledImpostor: 2,
}

#: Sessions per subject and task of the training split.
TRAIN_SESSIONS_PER_SUBJECT = 4


#: Column names of each modality's stream array, in the document's row order.
STREAM_COLUMNS: dict[ModalityKind, tuple[str, ...]] = {
    ModalityKind.Keystroke: ("t", "ascii"),
    ModalityKind.Touch: ("t", "x", "y", "action"),  # action 0 = finger down, 1 = up, 2 = move
    **{sensor: ("t", "x", "y", "z") for sensor in BACKGROUND_SENSORS},
}

#: Column indices into the stream arrays.
COL_T = 0
COL_ASCII = 1
COL_X = 1
COL_Y = 2
COL_ACTION = 3
COL_Z = 3

#: Columns that hold integers (JSON integers in a document).
INTEGER_COLUMNS = frozenset({"t", "ascii", "action"})


def make_stream(modality: ModalityKind, rows) -> np.ndarray:
    """A read-only (n, k) float64 copy of `rows`, in `STREAM_COLUMNS` order.

    No rows give a (0, k) array.
    """
    width = len(STREAM_COLUMNS[modality])
    stream = np.array(rows, dtype=np.float64)
    if stream.size == 0:
        stream = stream.reshape(0, width)
    if stream.ndim != 2 or stream.shape[1] != width:
        raise ValueError(f"a {modality.value} stream has {width} columns, not shape {stream.shape}")
    stream.flags.writeable = False
    return stream


_EMPTY_STREAMS = {modality: make_stream(modality, []) for modality in ModalityKind}


def valid_modalities(task: TaskKind) -> frozenset[ModalityKind]:
    """Modalities a session of `task` may contain.

    Touch and the five background sensors are valid everywhere; the
    keystroke stream only in keystroke sessions.
    """
    base = frozenset(BACKGROUND_SENSORS) | {ModalityKind.Touch}
    if task is TaskKind.Keystroke:
        return base | {ModalityKind.Keystroke}
    return base


@dataclass(frozen=True, eq=False)
class Session:
    """All event streams for one subject performing one task once.

    Each stream is a read-only array from :func:`make_stream`. Sessions
    are equal when their fields are and their streams are bitwise equal.
    """

    session_id: str
    device_id: str
    task: TaskKind
    role: SessionRole
    streams: dict[ModalityKind, np.ndarray]
    subject_id: str | None = None  # present only in the training split

    def __post_init__(self) -> None:
        for modality, stream in self.streams.items():
            if not (
                isinstance(stream, np.ndarray)
                and stream.dtype == np.float64
                and stream.ndim == 2
                and stream.shape[1] == len(STREAM_COLUMNS[modality])
                and not stream.flags.writeable
            ):
                raise ValueError(f"streams.{modality.value}: expected an array from make_stream")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Session):
            return NotImplemented
        return (
            (self.session_id, self.device_id, self.task, self.role, self.subject_id)
            == (other.session_id, other.device_id, other.task, other.role, other.subject_id)
            and self.streams.keys() == other.streams.keys()
            and all(np.array_equal(s, other.streams[m]) for m, s in self.streams.items())
        )

    def stream(self, modality: ModalityKind) -> np.ndarray:
        """The modality's stream; an empty (0, k) array when it is absent."""
        return self.streams.get(modality, _EMPTY_STREAMS[modality])


@dataclass(frozen=True)
class DatasetSplit:
    split_kind: SplitKind
    sessions: tuple[Session, ...]
    warnings: tuple[str, ...] = ()

    def sessions_for(self, task: TaskKind) -> tuple[Session, ...]:
        return tuple(s for s in self.sessions if s.task is task)

    def by_id(self) -> dict[str, Session]:
        return {s.session_id: s for s in self.sessions}


@dataclass(frozen=True)
class StrokeSlices:
    strokes: tuple[np.ndarray, ...]  # read-only row blocks of the touch stream
    dropped_events: int


def slice_strokes(touch: np.ndarray) -> StrokeSlices:
    """Cut a touch stream into strokes delimited by down/up actions.

    Each stroke is a maximal run of rows starting at action 0 and ending
    at the next action 1 with only move rows (action 2) in between.
    Rows outside such runs (orphan moves/ups, down runs that never close,
    a second down before an up, invalid action codes, which also end an
    open run) are dropped and counted, never raised: truncated gestures
    occur in real capture data.
    """
    strokes: list[np.ndarray] = []
    dropped = 0
    start: int | None = None  # row of the open run's finger-down
    for i, action in enumerate(touch[:, COL_ACTION].tolist()):
        if action == 0:
            if start is not None:
                dropped += i - start
            start = i
        elif action == 2 and start is not None:
            continue
        elif action == 1 and start is not None:
            strokes.append(touch[start : i + 1])
            start = None
        else:  # an orphan move or up, or an invalid code, which ends an open run
            if start is not None:
                dropped += i - start
            start = None
            dropped += 1
    if start is not None:
        dropped += len(touch) - start
    return StrokeSlices(tuple(strokes), dropped)


# --- session validation -------------------------------------------------

def validate_session(session: Session) -> list[str]:
    """Return all invariant violations of a session (empty list = valid).

    Violations are data, not errors: the function never raises. Findings
    come stream by stream, then row by row.
    """
    findings: list[str] = []
    allowed = valid_modalities(session.task)
    for modality, stream in session.streams.items():
        path = f"session {session.session_id!r} streams.{modality.value}"
        if modality not in allowed:
            findings.append(f"{path}: modality not valid for task {session.task.value!r}")
        t = stream[:, COL_T]
        decreasing = np.zeros(len(t), dtype=bool)
        decreasing[1:] = t[1:] < t[:-1]
        checks = [
            ("non-monotonic timestamp", decreasing),
            ("negative timestamp", t < 0),
        ]
        if modality is ModalityKind.Keystroke:
            code = stream[:, COL_ASCII]
            checks.append(("ascii_code outside 0..255", ~((code >= 0) & (code <= 255))))
        elif modality is ModalityKind.Touch:
            x, y = stream[:, COL_X], stream[:, COL_Y]
            inside = (x >= 0) & (x <= 1) & (y >= 0) & (y <= 1)
            checks.append(("coordinate outside [0,1]", ~inside))
            checks.append(("action outside {0,1,2}", ~np.isin(stream[:, COL_ACTION], (0, 1, 2))))
        else:
            values = stream[:, [COL_X, COL_Y, COL_Z]]
            checks.append(("non-finite sensor value", ~np.isfinite(values).all(axis=1)))
        failed = np.column_stack([mask for _, mask in checks])
        for row, check in zip(*np.nonzero(failed)):  # row-major: by row, then by check
            findings.append(f"{path}[{row}]: {checks[check][0]}")
    return findings


# --- parsing ------------------------------------------------------------

_SESSION_KEYS = {"session_id", "subject_id", "device_id", "task", "role", "streams"}


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaViolation(f"{path}: expected string, got {type(value).__name__}")
    return value


_LIST = frozenset({list})
_INTEGER = frozenset({int})
_NUMBER = frozenset({int, float})
_MAX_TIMESTAMP = 2**53  # float64 holds every integer up to here
_ROW_NOUN = {ModalityKind.Keystroke: "keystroke event", ModalityKind.Touch: "touch event"}
_INTEGER_INDICES = {
    modality: tuple(c for c, name in enumerate(columns) if name in INTEGER_COLUMNS)
    for modality, columns in STREAM_COLUMNS.items()
}


def _rows_well_formed(modality: ModalityKind, rows: list) -> bool:
    """Whether every row passes :func:`_check_rows`, tested in a few passes
    over the whole stream instead of row by row."""
    width = len(STREAM_COLUMNS[modality])
    return (
        set(map(type, rows)) <= _LIST
        and set(map(len, rows)) <= {width}
        and set(map(type, chain.from_iterable(rows))) <= _NUMBER
        and all(
            set(map(type, map(itemgetter(c), rows))) <= _INTEGER
            for c in _INTEGER_INDICES[modality]
        )
        and max(map(itemgetter(COL_T), rows), default=0) <= _MAX_TIMESTAMP
    )


def _check_rows(modality: ModalityKind, rows: list, path: str) -> None:
    """Raise at the first malformed row, naming it."""
    columns = STREAM_COLUMNS[modality]
    kinds = [_INTEGER if name in INTEGER_COLUMNS else _NUMBER for name in columns]
    for j, row in enumerate(rows):
        if type(row) is not list:
            raise SchemaViolation(f"{path}[{j}]: expected an event array")
        if len(row) != len(columns):
            noun = _ROW_NOUN.get(modality, "sensor sample")
            raise SchemaViolation(f"{path}[{j}]: {noun} needs {len(columns)} entries")
        for value, kind in zip(row, kinds):
            if type(value) not in kind:
                expected = "integer" if kind is _INTEGER else "number"
                got = type(value).__name__
                raise SchemaViolation(f"{path}[{j}]: expected {expected}, got {got}")
        if row[COL_T] > _MAX_TIMESTAMP:
            raise SchemaViolation(f"{path}[{j}]: timestamp above 2**53")


def _parse_stream(modality: ModalityKind, rows: list, path: str) -> np.ndarray:
    """The rows of one stream as an array like :func:`make_stream` gives.

    The rows are checked in bulk; only when that fails does the row by
    row check run, to raise at the first malformed row.
    """
    if not _rows_well_formed(modality, rows):
        _check_rows(modality, rows, path)
    shape = (len(rows), len(STREAM_COLUMNS[modality]))
    try:
        stream = np.fromiter(chain.from_iterable(rows), np.float64, count=shape[0] * shape[1])
    except OverflowError:
        # an integer beyond float64 becomes ±inf, as the literal 1e400 does,
        # and fails validation like any other out-of-range value
        values = map(_to_float, chain.from_iterable(rows))
        stream = np.fromiter(values, np.float64, count=shape[0] * shape[1])
    stream = stream.reshape(shape)
    stream.flags.writeable = False
    return stream


def _to_float(value: int | float) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _parse_session(obj, index: int, split_kind: SplitKind, warnings: list[str]) -> Session:
    path = f"sessions[{index}]"
    if not isinstance(obj, dict):
        raise SchemaViolation(f"{path}: expected an object")
    for key in ("session_id", "device_id", "task", "role", "streams"):
        if key not in obj:
            raise SchemaViolation(f"{path}: missing field {key!r}")
    session_id = _expect_str(obj["session_id"], f"{path}.session_id")
    path = f"sessions[{index}] ({session_id!r})"
    device_id = _expect_str(obj["device_id"], f"{path}.device_id")
    try:
        task = TaskKind(_expect_str(obj["task"], f"{path}.task"))
    except ValueError:
        raise SchemaViolation(f"{path}.task: unknown task {obj['task']!r}") from None
    try:
        role = SessionRole(_expect_str(obj["role"], f"{path}.role"))
    except ValueError:
        raise SchemaViolation(f"{path}.role: unknown role {obj['role']!r}") from None

    subject_id = None
    if "subject_id" in obj and obj["subject_id"] is not None:
        subject_id = _expect_str(obj["subject_id"], f"{path}.subject_id")
    if split_kind is SplitKind.Train and subject_id is None:
        raise InvariantViolation(f"{path}: training sessions must carry a subject_id")
    if split_kind is not SplitKind.Train and subject_id is not None:
        raise InvariantViolation(
            f"{path}: {split_kind.value} sessions are pseudonymized and must not carry a subject_id"
        )

    raw_streams = obj["streams"]
    if not isinstance(raw_streams, dict):
        raise SchemaViolation(f"{path}.streams: expected an object")
    streams: dict[ModalityKind, np.ndarray] = {}
    for name, rows in raw_streams.items():
        try:
            modality = ModalityKind(name)
        except ValueError:
            warnings.append(f"{path}.streams: ignored unknown modality {name!r}")
            continue
        if not isinstance(rows, list):
            raise SchemaViolation(f"{path}.streams.{name}: expected an array of events")
        streams[modality] = _parse_stream(modality, rows, f"{path}.streams.{name}")
    for key in obj:
        if key not in _SESSION_KEYS:
            warnings.append(f"{path}: ignored unknown field {key!r}")

    session = Session(
        session_id=session_id,
        device_id=device_id,
        task=task,
        role=role,
        streams=streams,
        subject_id=subject_id,
    )
    findings = validate_session(session)
    if findings:
        raise InvariantViolation(findings[0])
    return session


def _check_counts(split_kind: SplitKind, sessions: tuple[Session, ...], warnings: list[str]) -> None:
    if split_kind is SplitKind.Train:
        groups: dict[tuple[str, TaskKind], int] = {}
        for s in sessions:
            groups[(s.subject_id or "", s.task)] = groups.get((s.subject_id or "", s.task), 0) + 1
        expected = TRAIN_SESSIONS_PER_SUBJECT
        for (subject, task), n in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
            if n != expected:
                warnings.append(
                    f"subject {subject!r} task {task.value!r}: expected {expected} "
                    f"train sessions, found {n}"
                )
        return

    groups2: dict[tuple[str, TaskKind], dict[SessionRole, int]] = {}
    for s in sessions:
        per_role = groups2.setdefault((s.device_id, s.task), {})
        per_role[s.role] = per_role.get(s.role, 0) + 1
    for (device, task), per_role in sorted(groups2.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        for role, n in SESSIONS_PER_ROLE.items():
            if per_role.get(role, 0) != n:
                warnings.append(
                    f"device {device!r} task {task.value!r}: expected {n} {role.value!r} "
                    f"sessions, found {per_role.get(role, 0)}"
                )


def parse_dataset(document: str | bytes, split_kind: SplitKind | None = None) -> DatasetSplit:
    """Parse and validate a dataset document.

    The document's declared split must equal `split_kind`; with no kind
    given, the declared one is taken. Session-level invariants
    (ordering, ranges, modality/task validity) are enforced and raise;
    per-device session-count expectations are recorded as warnings, so
    that partial and hand-written documents remain loadable.

    The cyclic garbage collector is off during the call: the decoded
    document is a tree of millions of lists that holds no cycle. It dies
    with `_parse_dataset`'s frame, before the collector's previous state
    comes back.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_dataset(document, split_kind)
    finally:
        if enabled:
            gc.enable()


def _parse_dataset(document: str | bytes, split_kind: SplitKind | None) -> DatasetSplit:
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"not valid UTF-8: {exc}") from None
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaViolation("top level: expected an object")
    if "split" not in obj:
        raise SchemaViolation("top level: missing field 'split'")
    declared = _expect_str(obj["split"], "split")
    try:
        declared_kind = SplitKind(declared)
    except ValueError:
        raise SchemaViolation(f"split: unknown split {declared!r}") from None
    if split_kind is None:
        split_kind = declared_kind
    elif declared_kind is not split_kind:
        raise SchemaViolation(
            f"split: document declares {declared!r} but {split_kind.value!r} was expected"
        )
    if "sessions" not in obj or not isinstance(obj["sessions"], list):
        raise SchemaViolation("top level: 'sessions' must be an array")

    warnings: list[str] = []
    for key in obj:
        if key not in ("split", "sessions"):
            warnings.append(f"top level: ignored unknown field {key!r}")
    sessions = tuple(
        _parse_session(item, i, split_kind, warnings) for i, item in enumerate(obj["sessions"])
    )
    seen: set[str] = set()
    for s in sessions:
        if s.session_id in seen:
            raise InvariantViolation(f"duplicate session_id {s.session_id!r}")
        seen.add(s.session_id)
    _check_counts(split_kind, sessions, warnings)
    return DatasetSplit(split_kind, sessions, tuple(warnings))


# --- serialization ------------------------------------------------------

def _stream_rows(modality: ModalityKind, stream: np.ndarray) -> list:
    """Document rows of a stream: integer columns back to ints, the rest floats."""
    columns = [
        stream[:, c].astype(np.int64).tolist() if name in INTEGER_COLUMNS else stream[:, c].tolist()
        for c, name in enumerate(STREAM_COLUMNS[modality])
    ]
    return list(zip(*columns))


def dataset_to_obj(split: DatasetSplit) -> dict:
    sessions = []
    for s in split.sessions:
        entry: dict = {
            "session_id": s.session_id,
            "device_id": s.device_id,
            "task": s.task.value,
            "role": s.role.value,
            "streams": {
                m.value: _stream_rows(m, stream)
                for m, stream in sorted(s.streams.items(), key=lambda kv: kv[0].value)
            },
        }
        if s.subject_id is not None:
            entry["subject_id"] = s.subject_id
        sessions.append(entry)
    return {"split": split.split_kind.value, "sessions": sessions}


def serialize_dataset(split: DatasetSplit) -> str:
    """Canonical JSON text; identical splits serialize to identical bytes."""
    return json.dumps(dataset_to_obj(split), sort_keys=True, separators=(",", ":"))
