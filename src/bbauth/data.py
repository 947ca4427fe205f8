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

Timestamps are integer milliseconds, coordinates decimal fractions.
Unknown keys are ignored with a warning. All types in this module are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class KeystrokeEvent:
    timestamp: int
    ascii_code: int


@dataclass(frozen=True)
class TouchEvent:
    timestamp: int
    x: float
    y: float
    action: int  # 0 = finger down, 1 = finger up, 2 = move


@dataclass(frozen=True)
class SensorSample:
    timestamp: int
    x: float
    y: float
    z: float


def valid_modalities(task: TaskKind) -> frozenset[ModalityKind]:
    """Modalities a session of `task` may contain.

    Touch and the five background sensors are valid everywhere; the
    keystroke stream only in keystroke sessions.
    """
    base = frozenset(BACKGROUND_SENSORS) | {ModalityKind.Touch}
    if task is TaskKind.Keystroke:
        return base | {ModalityKind.Keystroke}
    return base


@dataclass(frozen=True)
class Session:
    """All event streams for one subject performing one task once."""

    session_id: str
    device_id: str
    task: TaskKind
    role: SessionRole
    streams: dict[ModalityKind, tuple]
    subject_id: str | None = None  # present only in the training split

    def stream(self, modality: ModalityKind) -> tuple:
        return self.streams.get(modality, ())


@dataclass(frozen=True)
class DatasetSplit:
    split_kind: SplitKind
    sessions: tuple[Session, ...]
    warnings: tuple[str, ...] = ()

    def device_session_counts(self) -> dict[tuple[str, TaskKind], int]:
        counts: dict[tuple[str, TaskKind], int] = {}
        for s in self.sessions:
            key = (s.device_id, s.task)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def sessions_for(self, task: TaskKind) -> tuple[Session, ...]:
        return tuple(s for s in self.sessions if s.task is task)

    def by_id(self) -> dict[str, Session]:
        return {s.session_id: s for s in self.sessions}


@dataclass(frozen=True)
class Stroke:
    """Touch events from one finger-down (action 0) to the next finger-up (1)."""

    events: tuple[TouchEvent, ...]

    def __post_init__(self) -> None:
        ev = self.events
        if len(ev) < 2 or ev[0].action != 0 or ev[-1].action != 1:
            raise ValueError("stroke must run from action 0 to action 1")
        if any(e.action != 2 for e in ev[1:-1]):
            raise ValueError("stroke interior must be move events (action 2)")

    @property
    def duration_ms(self) -> int:
        return self.events[-1].timestamp - self.events[0].timestamp


@dataclass(frozen=True)
class StrokeSlices:
    strokes: tuple[Stroke, ...]
    dropped_events: int


def slice_strokes(touch_sequence: tuple[TouchEvent, ...] | list[TouchEvent]) -> StrokeSlices:
    """Cut a touch stream into strokes delimited by down/up actions.

    Each stroke is a maximal run starting at action 0 and ending at the
    next action 1 with only move events in between. Events outside such
    runs (orphan moves/ups, down runs that never close, a second down
    before an up) are dropped and counted, never raised: truncated
    gestures occur in real capture data.
    """
    strokes: list[Stroke] = []
    dropped = 0
    current: list[TouchEvent] = []
    for ev in touch_sequence:
        if ev.action == 0:
            dropped += len(current)
            current = [ev]
        elif ev.action == 2:
            if current:
                current.append(ev)
            else:
                dropped += 1
        elif ev.action == 1:
            if current:
                current.append(ev)
                strokes.append(Stroke(tuple(current)))
                current = []
            else:
                dropped += 1
        else:
            # invalid action codes are a parse-time concern; drop here
            dropped += 1
    dropped += len(current)
    return StrokeSlices(tuple(strokes), dropped)


# --- session validation -------------------------------------------------

def validate_session(session: Session) -> list[str]:
    """Return all invariant violations of a session (empty list = valid).

    Violations are data, not errors: the function never raises.
    """
    findings: list[str] = []
    allowed = valid_modalities(session.task)
    for modality, events in session.streams.items():
        path = f"session {session.session_id!r} streams.{modality.value}"
        if modality not in allowed:
            findings.append(f"{path}: modality not valid for task {session.task.value!r}")
        prev_t: int | None = None
        for i, ev in enumerate(events):
            if prev_t is not None and ev.timestamp < prev_t:
                findings.append(f"{path}[{i}]: non-monotonic timestamp")
            prev_t = ev.timestamp
            if ev.timestamp < 0:
                findings.append(f"{path}[{i}]: negative timestamp")
            if modality is ModalityKind.Keystroke:
                if not 0 <= ev.ascii_code <= 255:
                    findings.append(f"{path}[{i}]: ascii_code outside 0..255")
            elif modality is ModalityKind.Touch:
                if not (0.0 <= ev.x <= 1.0 and 0.0 <= ev.y <= 1.0):
                    findings.append(f"{path}[{i}]: coordinate outside [0,1]")
                if ev.action not in (0, 1, 2):
                    findings.append(f"{path}[{i}]: action outside {{0,1,2}}")
            else:
                if not (math.isfinite(ev.x) and math.isfinite(ev.y) and math.isfinite(ev.z)):
                    findings.append(f"{path}[{i}]: non-finite sensor value")
    return findings


# --- parsing ------------------------------------------------------------

_EXPECTED_COUNTS = {
    SplitKind.Validation: {
        SessionRole.GenuineEnroll: 2,
        SessionRole.GenuineVerify: 2,
        SessionRole.SkilledImpostor: 2,
    },
    SplitKind.Evaluation: {
        SessionRole.GenuineEnroll: 2,
        SessionRole.GenuineVerify: 2,
        SessionRole.SkilledImpostor: 2,
    },
}

_SESSION_KEYS = {"session_id", "subject_id", "device_id", "task", "role", "streams"}


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaViolation(f"{path}: expected integer, got {type(value).__name__}")
    return value


def _expect_num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolation(f"{path}: expected number, got {type(value).__name__}")
    return float(value)


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaViolation(f"{path}: expected string, got {type(value).__name__}")
    return value


def _parse_event(modality: ModalityKind, row, path: str):
    if not isinstance(row, list):
        raise SchemaViolation(f"{path}: expected an event array")
    if modality is ModalityKind.Keystroke:
        if len(row) != 2:
            raise SchemaViolation(f"{path}: keystroke event needs 2 entries")
        return KeystrokeEvent(_expect_int(row[0], path), _expect_int(row[1], path))
    if modality is ModalityKind.Touch:
        if len(row) != 4:
            raise SchemaViolation(f"{path}: touch event needs 4 entries")
        return TouchEvent(
            _expect_int(row[0], path),
            _expect_num(row[1], path),
            _expect_num(row[2], path),
            _expect_int(row[3], path),
        )
    if len(row) != 4:
        raise SchemaViolation(f"{path}: sensor sample needs 4 entries")
    return SensorSample(
        _expect_int(row[0], path),
        _expect_num(row[1], path),
        _expect_num(row[2], path),
        _expect_num(row[3], path),
    )


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
    streams: dict[ModalityKind, tuple] = {}
    for name, rows in raw_streams.items():
        try:
            modality = ModalityKind(name)
        except ValueError:
            warnings.append(f"{path}.streams: ignored unknown modality {name!r}")
            continue
        if not isinstance(rows, list):
            raise SchemaViolation(f"{path}.streams.{name}: expected an array of events")
        events = tuple(
            _parse_event(modality, row, f"{path}.streams.{name}[{i}]")
            for i, row in enumerate(rows)
        )
        streams[modality] = events
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


def _check_counts(split: DatasetSplit, warnings: list[str], strict: bool) -> None:
    def report(message: str) -> None:
        if strict:
            raise InvariantViolation(message)
        warnings.append(message)

    if split.split_kind is SplitKind.Train:
        groups: dict[tuple[str, TaskKind], int] = {}
        for s in split.sessions:
            groups[(s.subject_id or "", s.task)] = groups.get((s.subject_id or "", s.task), 0) + 1
        for (subject, task), n in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
            if n != 4:
                report(f"subject {subject!r} task {task.value!r}: expected 4 train sessions, found {n}")
        return

    expected = _EXPECTED_COUNTS[split.split_kind]
    groups2: dict[tuple[str, TaskKind], dict[SessionRole, int]] = {}
    for s in split.sessions:
        per_role = groups2.setdefault((s.device_id, s.task), {})
        per_role[s.role] = per_role.get(s.role, 0) + 1
    for (device, task), per_role in sorted(groups2.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        for role, n in expected.items():
            if per_role.get(role, 0) != n:
                report(
                    f"device {device!r} task {task.value!r}: expected {n} {role.value!r} "
                    f"sessions, found {per_role.get(role, 0)}"
                )


def parse_dataset(
    document: str | bytes, split_kind: SplitKind | None = None, *, strict_counts: bool = False
) -> DatasetSplit:
    """Parse and validate a dataset document.

    The document's declared split must equal `split_kind`; with no kind
    given, the declared one is taken. Session-level invariants
    (ordering, ranges, modality/task validity) are enforced and raise;
    per-device session-count expectations are recorded as warnings
    unless `strict_counts` is set, so that partial and hand-written
    documents remain loadable.
    """
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
    split = DatasetSplit(split_kind, sessions, tuple(warnings))
    _check_counts(split, warnings, strict_counts)
    return DatasetSplit(split_kind, sessions, tuple(warnings))


# --- serialization ------------------------------------------------------

def _event_row(modality: ModalityKind, ev) -> list:
    if modality is ModalityKind.Keystroke:
        return [ev.timestamp, ev.ascii_code]
    if modality is ModalityKind.Touch:
        return [ev.timestamp, ev.x, ev.y, ev.action]
    return [ev.timestamp, ev.x, ev.y, ev.z]


def dataset_to_obj(split: DatasetSplit) -> dict:
    sessions = []
    for s in split.sessions:
        entry: dict = {
            "session_id": s.session_id,
            "device_id": s.device_id,
            "task": s.task.value,
            "role": s.role.value,
            "streams": {
                m.value: [_event_row(m, ev) for ev in events]
                for m, events in sorted(s.streams.items(), key=lambda kv: kv[0].value)
            },
        }
        if s.subject_id is not None:
            entry["subject_id"] = s.subject_id
        sessions.append(entry)
    return {"split": split.split_kind.value, "sessions": sessions}


def serialize_dataset(split: DatasetSplit) -> str:
    """Canonical JSON text; identical splits serialize to identical bytes."""
    return json.dumps(dataset_to_obj(split), sort_keys=True, separators=(",", ":"))
