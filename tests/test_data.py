import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbauth.data import (
    KeystrokeEvent,
    ModalityKind,
    Session,
    SessionRole,
    SplitKind,
    TaskKind,
    TouchEvent,
    parse_dataset,
    serialize_dataset,
    slice_strokes,
    validate_session,
)
from bbauth.errors import InvariantViolation, MalformedDocument, SchemaViolation

MINIMAL_DOC = json.dumps(
    {
        "split": "train",
        "sessions": [
            {
                "session_id": "s1",
                "subject_id": "u1",
                "device_id": "d1",
                "task": "keystroke",
                "role": "unlabeled",
                "streams": {"keystroke": [[0, 104], [120, 105]]},
            }
        ],
    }
)


def _touch(t, x, y, action):
    return TouchEvent(t, x, y, action)


def test_parse_minimal_document():
    split = parse_dataset(MINIMAL_DOC, SplitKind.Train)
    assert len(split.sessions) == 1
    session = split.sessions[0]
    assert session.task is TaskKind.Keystroke
    assert len(session.stream(ModalityKind.Keystroke)) == 2
    assert session.stream(ModalityKind.Keystroke)[0] == KeystrokeEvent(0, 104)


def test_parse_rejects_bad_action():
    doc = json.loads(MINIMAL_DOC)
    doc["sessions"][0]["task"] = "tapping"
    doc["sessions"][0]["streams"] = {"touch": [[0, 0.5, 0.5, 0], [10, 0.5, 0.5, 3]]}
    with pytest.raises(InvariantViolation, match=r"\[1\].*action"):
        parse_dataset(json.dumps(doc), SplitKind.Train)


def test_parse_rejects_coordinate_out_of_range():
    doc = json.loads(MINIMAL_DOC)
    doc["sessions"][0]["task"] = "tapping"
    doc["sessions"][0]["streams"] = {"touch": [[0, 1.5, 0.5, 0]]}
    with pytest.raises(InvariantViolation, match="coordinate"):
        parse_dataset(json.dumps(doc), SplitKind.Train)


def test_parse_malformed_json():
    with pytest.raises(MalformedDocument):
        parse_dataset("{not json", SplitKind.Train)


def test_parse_missing_field():
    doc = json.loads(MINIMAL_DOC)
    del doc["sessions"][0]["device_id"]
    with pytest.raises(SchemaViolation, match="device_id"):
        parse_dataset(json.dumps(doc), SplitKind.Train)


def test_parse_wrong_split_declared():
    with pytest.raises(SchemaViolation, match="split"):
        parse_dataset(MINIMAL_DOC, SplitKind.Evaluation)


def test_parse_takes_declared_split_when_no_kind_given():
    assert parse_dataset(MINIMAL_DOC).split_kind is SplitKind.Train
    for bad in ("holdout", 3):
        doc = json.loads(MINIMAL_DOC)
        doc["split"] = bad
        with pytest.raises(SchemaViolation, match="split"):
            parse_dataset(json.dumps(doc))


def test_parse_subject_id_forbidden_outside_train():
    doc = json.loads(MINIMAL_DOC)
    doc["split"] = "evaluation"
    doc["sessions"][0]["role"] = "enroll"
    with pytest.raises(InvariantViolation, match="pseudonymized"):
        parse_dataset(json.dumps(doc), SplitKind.Evaluation)


def test_parse_subject_id_required_in_train():
    doc = json.loads(MINIMAL_DOC)
    del doc["sessions"][0]["subject_id"]
    with pytest.raises(InvariantViolation, match="subject_id"):
        parse_dataset(json.dumps(doc), SplitKind.Train)


def test_parse_warns_on_unknown_fields():
    doc = json.loads(MINIMAL_DOC)
    doc["extra"] = 1
    doc["sessions"][0]["color"] = "red"
    doc["sessions"][0]["streams"]["heartbeat"] = [[0, 1]]
    split = parse_dataset(json.dumps(doc), SplitKind.Train)
    joined = "\n".join(split.warnings)
    assert "'extra'" in joined and "'color'" in joined and "'heartbeat'" in joined
    assert len(split.sessions[0].streams) == 1


def test_parse_duplicate_session_id():
    doc = json.loads(MINIMAL_DOC)
    doc["sessions"].append(doc["sessions"][0])
    with pytest.raises(InvariantViolation, match="duplicate"):
        parse_dataset(json.dumps(doc), SplitKind.Train)


def test_parse_count_warnings_and_strict_mode():
    # a single train session cannot satisfy the 4-sessions-per-subject shape
    split = parse_dataset(MINIMAL_DOC, SplitKind.Train)
    assert any("expected 4 train sessions" in w for w in split.warnings)
    with pytest.raises(InvariantViolation, match="expected 4 train sessions"):
        parse_dataset(MINIMAL_DOC, SplitKind.Train, strict_counts=True)


def test_parse_rejects_float_timestamp():
    doc = json.loads(MINIMAL_DOC)
    doc["sessions"][0]["streams"]["keystroke"] = [[0.5, 104]]
    with pytest.raises(SchemaViolation, match="integer"):
        parse_dataset(json.dumps(doc), SplitKind.Train)


def test_roundtrip_minimal():
    split = parse_dataset(MINIMAL_DOC, SplitKind.Train)
    again = parse_dataset(serialize_dataset(split), SplitKind.Train)
    assert again.sessions == split.sessions
    assert serialize_dataset(again) == serialize_dataset(split)


def test_roundtrip_generated(tiny_generated):
    for split in (tiny_generated.train, tiny_generated.validation, tiny_generated.evaluation):
        text = serialize_dataset(split)
        parsed = parse_dataset(text, split.split_kind)
        assert parsed.sessions == split.sessions
        assert parsed.warnings == ()  # counts line up, nothing unknown


def test_generated_20_user_evaluation_count():
    from bbauth.synth import GenConfig, generate_dataset

    gen = generate_dataset(GenConfig(n_users=20, n_train_users=2, n_validation_users=2))
    assert len(gen.evaluation.sessions) == 20 * 4 * 6
    counts = gen.evaluation.device_session_counts()
    assert set(counts.values()) == {6}


# --- validate_session -----------------------------------------------------

def _keystroke_session(events, task=TaskKind.Keystroke):
    return Session("s", "d", task, SessionRole.Unlabeled,
                   {ModalityKind.Keystroke: tuple(events)}, subject_id="u")


def test_validate_valid_session_empty_report():
    report = validate_session(_keystroke_session([KeystrokeEvent(0, 10), KeystrokeEvent(5, 20)]))
    assert report == []


def test_validate_non_monotonic_timestamp():
    report = validate_session(_keystroke_session([KeystrokeEvent(10, 10), KeystrokeEvent(5, 20)]))
    assert len(report) == 1
    assert "non-monotonic" in report[0] and "[1]" in report[0]


def test_validate_modality_task_matrix():
    report = validate_session(_keystroke_session([KeystrokeEvent(0, 10)], task=TaskKind.Tapping))
    assert any("not valid for task" in finding for finding in report)


def test_validate_never_raises_on_bad_values():
    session = Session(
        "s", "d", TaskKind.Tapping, SessionRole.Unlabeled,
        {ModalityKind.Touch: (TouchEvent(0, 2.0, -1.0, 7),)}, subject_id="u",
    )
    report = validate_session(session)
    assert any("coordinate" in f for f in report) and any("action" in f for f in report)


# --- slice_strokes ----------------------------------------------------------

def test_slice_simple_stroke():
    events = [_touch(0, 0.1, 0.1, 0), _touch(10, 0.2, 0.2, 2), _touch(20, 0.3, 0.3, 2), _touch(30, 0.4, 0.4, 1)]
    sliced = slice_strokes(events)
    assert len(sliced.strokes) == 1
    assert len(sliced.strokes[0].events) == 4
    assert sliced.dropped_events == 0


def test_slice_drops_leading_orphans():
    events = [_touch(0, 0.1, 0.1, 2), _touch(5, 0.1, 0.1, 1),
              _touch(10, 0.2, 0.2, 0), _touch(15, 0.3, 0.3, 2), _touch(20, 0.4, 0.4, 1)]
    sliced = slice_strokes(events)
    assert len(sliced.strokes) == 1
    assert sliced.dropped_events == 2


def test_slice_drops_unclosed_run():
    events = [_touch(0, 0.1, 0.1, 0), _touch(10, 0.2, 0.2, 2)]
    sliced = slice_strokes(events)
    assert sliced.strokes == ()
    assert sliced.dropped_events == 2


def test_slice_second_down_restarts_run():
    events = [_touch(0, 0.1, 0.1, 0), _touch(5, 0.2, 0.2, 2),
              _touch(10, 0.3, 0.3, 0), _touch(15, 0.4, 0.4, 1)]
    sliced = slice_strokes(events)
    assert len(sliced.strokes) == 1
    assert sliced.strokes[0].events[0].timestamp == 10
    assert sliced.dropped_events == 2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 2]), max_size=40))
def test_slice_partition_property(actions):
    events = [_touch(i * 10, 0.5, 0.5, a) for i, a in enumerate(actions)]
    sliced = slice_strokes(events)
    retained = [e for s in sliced.strokes for e in s.events]
    # disjoint, ordered, and retained + dropped covers everything exactly once
    assert len(set(id(e) for e in retained)) == len(retained)
    assert retained == sorted(retained, key=lambda e: e.timestamp)
    assert len(retained) + sliced.dropped_events == len(events)
    for stroke in sliced.strokes:
        assert stroke.events[0].action == 0
        assert stroke.events[-1].action == 1
        assert all(e.action == 2 for e in stroke.events[1:-1])
