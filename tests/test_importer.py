import json

import pytest

from bbauth.data import ModalityKind, SessionRole, SplitKind, TaskKind, validate_session
from bbauth.errors import MalformedDocument, SchemaViolation
from bbauth.importer import import_released_file, import_released_obj

RELEASED = {
    "user_042": {
        "session_1_enrol": {
            "keystroke": {"keystroke": [[0, 104], [130, 105]]},
            "text_reading": {
                "touch": [[0, 0.5, 0.8, 0], [40, 0.5, 0.6, 2], [90, 0.5, 0.4, 1]],
                "acc": [[0, 0.1, 0.2, 9.8], [50, 0.0, 0.1, 9.7]],
                "gyr": [[0, 0.01, 0.0, 0.02]],
            },
        },
        "session_2_verify": {
            "tapping": {"touch": [[0, 0.4, 0.4, 0], [80, 0.4, 0.4, 1]]},
            "signature": {"touch": [[0, 0.1, 0.1, 0]]},  # not a benchmark task
        },
    }
}


def test_import_maps_tasks_and_modalities():
    split = import_released_obj(RELEASED, SplitKind.Train)
    tasks = {s.task for s in split.sessions}
    assert tasks == {TaskKind.Keystroke, TaskKind.TextReading, TaskKind.Tapping}
    reading = next(s for s in split.sessions if s.task is TaskKind.TextReading)
    assert set(reading.streams) == {
        ModalityKind.Touch, ModalityKind.Accelerometer, ModalityKind.Gyroscope,
    }
    assert len(reading.stream(ModalityKind.Touch)) == 3
    assert all(validate_session(s) == [] for s in split.sessions)


def test_import_role_hints_and_subject_handling():
    train = import_released_obj(RELEASED, SplitKind.Train)
    assert all(s.subject_id == "user_042" for s in train.sessions)
    evaluation = import_released_obj(RELEASED, SplitKind.Evaluation)
    assert all(s.subject_id is None for s in evaluation.sessions)
    roles = {s.session_id: s.role for s in evaluation.sessions}
    assert roles["user_042/session_1_enrol/keystroke"] is SessionRole.GenuineEnroll
    assert roles["user_042/session_2_verify/tapping"] is SessionRole.GenuineVerify


def test_import_skips_unknown_tasks():
    split = import_released_obj(RELEASED, SplitKind.Train)
    assert not any("signature" in s.session_id for s in split.sessions)


def test_import_rejects_bad_rows():
    broken = {"u": {"s": {"tapping": {"touch": [[0, 0.5]]}}}}
    with pytest.raises(SchemaViolation):
        import_released_obj(broken, SplitKind.Train)
    with pytest.raises(SchemaViolation):
        import_released_obj(["not", "a", "dict"], SplitKind.Train)
    unparsable = {"u": {"s": {"tapping": {"touch": [[0, 0.5, 0.5, 0], [10, "left", 0.5, 1]]}}}}
    with pytest.raises(SchemaViolation, match=r"touch\[1\]: x:"):
        import_released_obj(unparsable, SplitKind.Train)


def test_import_released_file(tmp_path):
    path = tmp_path / "train.json"
    path.write_text(json.dumps(RELEASED))
    split = import_released_file(path, SplitKind.Train)
    assert len(split.sessions) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(MalformedDocument):
        import_released_file(bad, SplitKind.Train)
