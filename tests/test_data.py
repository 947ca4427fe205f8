import gc
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbauth.data import (
    COL_ACTION,
    COL_T,
    INTEGER_COLUMNS,
    STREAM_COLUMNS,
    ModalityKind,
    Session,
    SessionRole,
    SplitKind,
    TaskKind,
    _parse_stream,
    make_stream,
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


def _touch(rows):
    return make_stream(ModalityKind.Touch, rows)


def test_parse_minimal_document():
    split = parse_dataset(MINIMAL_DOC, SplitKind.Train)
    assert len(split.sessions) == 1
    session = split.sessions[0]
    assert session.task is TaskKind.Keystroke
    keystrokes = session.stream(ModalityKind.Keystroke)
    assert keystrokes.tolist() == [[0.0, 104.0], [120.0, 105.0]]
    assert keystrokes.dtype == np.float64 and not keystrokes.flags.writeable
    assert session.stream(ModalityKind.Touch).shape == (0, 4)


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


def test_parse_count_warnings():
    # a single train session cannot satisfy the 4-sessions-per-subject shape
    split = parse_dataset(MINIMAL_DOC, SplitKind.Train)
    assert any("expected 4 train sessions" in w for w in split.warnings)


def test_parse_rejects_float_timestamp():
    doc = json.loads(MINIMAL_DOC)
    doc["sessions"][0]["streams"]["keystroke"] = [[0.5, 104]]
    with pytest.raises(SchemaViolation, match="integer"):
        parse_dataset(json.dumps(doc), SplitKind.Train)


def _with_streams(task, streams):
    doc = json.loads(MINIMAL_DOC)
    doc["sessions"][0]["task"] = task
    doc["sessions"][0]["streams"] = streams
    return json.dumps(doc)


@pytest.mark.parametrize("task, streams, error, message", [
    ("tapping", {"touch": [[0, 0.5, 0.5, 0], 5]}, SchemaViolation,
     "sessions[0] ('s1').streams.touch[1]: expected an event array"),
    ("keystroke", {"keystroke": [[0, 104], [1, 2, 3]]}, SchemaViolation,
     "sessions[0] ('s1').streams.keystroke[1]: keystroke event needs 2 entries"),
    ("tapping", {"touch": [[0, 0.5, 0.5]]}, SchemaViolation,
     "sessions[0] ('s1').streams.touch[0]: touch event needs 4 entries"),
    ("tapping", {"gravity": [[0, 1.0, 2.0, 3.0], [5, 1.0, 2.0]]}, SchemaViolation,
     "sessions[0] ('s1').streams.gravity[1]: sensor sample needs 4 entries"),
    ("tapping", {"touch": [[0, 0.5, 0.5, 0], [5, 0.5, 0.5, 1.0]]}, SchemaViolation,
     "sessions[0] ('s1').streams.touch[1]: expected integer, got float"),
    ("tapping", {"gyroscope": [[0, 1.0, True, 3.0]]}, SchemaViolation,
     "sessions[0] ('s1').streams.gyroscope[0]: expected number, got bool"),
    ("tapping", {"gyroscope": [[0, 1.0, 2.0, None]]}, SchemaViolation,
     "sessions[0] ('s1').streams.gyroscope[0]: expected number, got NoneType"),
    ("keystroke", {"keystroke": [[0, 104], [2**53 + 1, 105]]}, SchemaViolation,
     "sessions[0] ('s1').streams.keystroke[1]: timestamp above 2**53"),
    ("keystroke", {"keystroke": [[0, 10**400]]}, InvariantViolation,
     "session 's1' streams.keystroke[0]: ascii_code outside 0..255"),
    ("tapping", {"gyroscope": [[0, 1.0, -(10**400), 3.0]]}, InvariantViolation,
     "session 's1' streams.gyroscope[0]: non-finite sensor value"),
    ("tapping", {"touch": [[10, 0.5, 0.5, 0], [5, 0.5, 0.5, 1]]}, InvariantViolation,
     "session 's1' streams.touch[1]: non-monotonic timestamp"),
    ("tapping", {"keystroke": [[0, 104]]}, InvariantViolation,
     "session 's1' streams.keystroke: modality not valid for task 'tapping'"),
])
def test_parse_stream_rejections_name_the_row(task, streams, error, message):
    with pytest.raises(error) as info:
        parse_dataset(_with_streams(task, streams), SplitKind.Train)
    assert str(info.value) == message


def test_parse_keeps_timestamps_up_to_2_53_exactly():
    text = _with_streams("keystroke", {"keystroke": [[2**53 - 1, 104], [2**53, 105]]})
    split = parse_dataset(text, SplitKind.Train)
    assert split.sessions[0].stream(ModalityKind.Keystroke)[:, COL_T].tolist() == [2**53 - 1, 2**53]
    rows = json.loads(serialize_dataset(split))["sessions"][0]["streams"]["keystroke"]
    assert rows[1] == [2**53, 105]


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
        assert serialize_dataset(parsed) == text
        assert parsed.warnings == ()  # counts line up, nothing unknown


def test_generated_20_user_evaluation_count():
    from bbauth.synth import GenConfig, generate_dataset

    gen = generate_dataset(GenConfig(n_users=20, n_train_users=2, n_validation_users=2))
    assert len(gen.evaluation.sessions) == 20 * 4 * 6
    counts = Counter((s.device_id, s.task) for s in gen.evaluation.sessions)
    assert set(counts.values()) == {6}


# --- parsing cost: no cyclic GC, rows checked in bulk ------------------------

class _Collections:
    """Counts the cyclic collector's runs while installed in `gc.callbacks`."""

    def __init__(self):
        self.count = 0

    def __call__(self, phase, info):
        self.count += phase == "start"

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def test_parse_runs_no_garbage_collection(tiny_generated):
    text = serialize_dataset(tiny_generated.evaluation)
    assert gc.isenabled()
    with _Collections() as collections:
        gc.collect()  # the counter sees a collection when one runs
        assert collections.count == 1
        for _ in range(3):
            parse_dataset(text)
    assert collections.count == 1
    assert gc.isenabled()


@pytest.mark.parametrize("text, error", [
    ("{not json", MalformedDocument),
    (_with_streams("tapping", {"touch": [[0, 0.5, 0.5, 1.5]]}), SchemaViolation),
    (_with_streams("tapping", {"touch": [[0, 0.5, 0.5, 3]]}), InvariantViolation),
])
def test_parse_restores_the_collector_state(text, error):
    with pytest.raises(error):
        parse_dataset(text)
    assert gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(error):
            parse_dataset(text)
        assert not gc.isenabled()
        parse_dataset(MINIMAL_DOC)
        assert not gc.isenabled()
    finally:
        gc.enable()


def _reference_stream(modality, rows, path):
    """The row-by-row parse: type tests per row, first bad row raises."""
    columns = STREAM_COLUMNS[modality]
    for j, row in enumerate(rows):
        if type(row) is not list:
            raise SchemaViolation(f"{path}[{j}]: expected an event array")
        if len(row) != len(columns):
            noun = {ModalityKind.Keystroke: "keystroke event",
                    ModalityKind.Touch: "touch event"}.get(modality, "sensor sample")
            raise SchemaViolation(f"{path}[{j}]: {noun} needs {len(columns)} entries")
        for value, name in zip(row, columns):
            integer = name in INTEGER_COLUMNS
            if type(value) not in ((int,) if integer else (int, float)):
                expected = "integer" if integer else "number"
                raise SchemaViolation(f"{path}[{j}]: expected {expected}, got {type(value).__name__}")
        if row[COL_T] > 2**53:
            raise SchemaViolation(f"{path}[{j}]: timestamp above 2**53")

    def to_float(value):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf

    try:
        return make_stream(modality, rows)
    except OverflowError:
        return make_stream(modality, [[to_float(v) for v in row] for row in rows])


_HUGE = st.sampled_from([2**64 + 1, 10**400, -(10**400)])  # the last two overflow float64
_ODD_VALUES = st.one_of(
    st.sampled_from([2**53 + 1, 1.0, -0.0, True, False, None, "7", [1], {}]),
    _HUGE,
    st.floats(),
)


@st.composite
def _stream_rows(draw):
    """A well-formed stream of one modality with up to two rows spoilt."""
    modality = draw(st.sampled_from(list(ModalityKind)))
    columns = STREAM_COLUMNS[modality]
    number = st.one_of(st.integers(-(2**70), 2**70), st.floats(), _HUGE)
    good_row = st.tuples(*(
        st.integers(-5, 2**53) if name == "t"
        else st.one_of(st.integers(-300, 300), _HUGE) if name in INTEGER_COLUMNS
        else number
        for name in columns
    )).map(list)
    rows = draw(st.lists(good_row, max_size=8))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        j = draw(st.integers(0, len(rows) - 1))
        spoil = draw(st.sampled_from(["value", "length", "row"]))
        if spoil == "value" and type(rows[j]) is list and rows[j]:
            rows[j][draw(st.integers(0, len(rows[j]) - 1))] = draw(_ODD_VALUES)
        elif spoil == "length":
            size = draw(st.integers(0, len(columns) + 2).filter(lambda n: n != len(columns)))
            rows[j] = draw(st.lists(number, min_size=size, max_size=size))
        else:
            rows[j] = draw(st.sampled_from([5, None, "row", {"t": 1}, True, 1.5]))
    return modality, rows


@settings(max_examples=400, deadline=None)
@given(_stream_rows())
def test_bulk_row_checks_equal_the_row_by_row_parse(case):
    modality, rows = case
    path = f"streams.{modality.value}"
    try:
        expected = _reference_stream(modality, rows, path)
    except SchemaViolation as exc:
        with pytest.raises(SchemaViolation) as info:
            _parse_stream(modality, rows, path)
        assert str(info.value) == str(exc)
        return
    got = _parse_stream(modality, rows, path)
    assert (got.dtype, got.shape, got.flags.writeable) == (expected.dtype, expected.shape, False)
    assert got.tobytes() == expected.tobytes()


# --- validate_session -----------------------------------------------------

def _keystroke_session(rows, task=TaskKind.Keystroke):
    streams = {ModalityKind.Keystroke: make_stream(ModalityKind.Keystroke, rows)}
    return Session("s", "d", task, SessionRole.Unlabeled, streams, subject_id="u")


def test_validate_valid_session_empty_report():
    report = validate_session(_keystroke_session([(0, 10), (5, 20)]))
    assert report == []


def test_validate_non_monotonic_timestamp():
    report = validate_session(_keystroke_session([(10, 10), (5, 20)]))
    assert len(report) == 1
    assert "non-monotonic" in report[0] and "[1]" in report[0]


def test_validate_modality_task_matrix():
    report = validate_session(_keystroke_session([(0, 10)], task=TaskKind.Tapping))
    assert any("not valid for task" in finding for finding in report)


def test_validate_reports_row_by_row():
    session = Session(
        "s", "d", TaskKind.Tapping, SessionRole.Unlabeled,
        {ModalityKind.Touch: _touch([(10, 2.0, 0.5, 7), (5, 0.5, 0.5, 0), (-1, 0.5, 0.5, 1)])},
        subject_id="u",
    )
    path = "session 's' streams.touch"
    assert validate_session(session) == [
        f"{path}[0]: coordinate outside [0,1]",
        f"{path}[0]: action outside {{0,1,2}}",
        f"{path}[1]: non-monotonic timestamp",
        f"{path}[2]: non-monotonic timestamp",
        f"{path}[2]: negative timestamp",
    ]


def test_session_streams_are_read_only_arrays():
    writable = np.zeros((2, 2))
    with pytest.raises(ValueError, match="keystroke"):
        Session("s", "d", TaskKind.Keystroke, SessionRole.Unlabeled,
                {ModalityKind.Keystroke: writable})
    with pytest.raises(ValueError, match="columns"):
        make_stream(ModalityKind.Touch, [(0, 104)])
    session = _keystroke_session([(0, 10)])
    with pytest.raises(ValueError):
        session.stream(ModalityKind.Keystroke)[0, COL_T] = 5
    assert session.stream(ModalityKind.Gravity).shape == (0, 4)


def test_validate_never_raises_on_bad_values():
    session = Session(
        "s", "d", TaskKind.Tapping, SessionRole.Unlabeled,
        {ModalityKind.Touch: _touch([(0, 2.0, -1.0, 7)])}, subject_id="u",
    )
    report = validate_session(session)
    assert any("coordinate" in f for f in report) and any("action" in f for f in report)


# --- slice_strokes ----------------------------------------------------------

def test_slice_simple_stroke():
    touch = _touch([(0, 0.1, 0.1, 0), (10, 0.2, 0.2, 2), (20, 0.3, 0.3, 2), (30, 0.4, 0.4, 1)])
    sliced = slice_strokes(touch)
    assert len(sliced.strokes) == 1
    assert np.array_equal(sliced.strokes[0], touch)
    assert not sliced.strokes[0].flags.writeable
    assert sliced.dropped_events == 0


def test_slice_drops_leading_orphans():
    touch = _touch([(0, 0.1, 0.1, 2), (5, 0.1, 0.1, 1),
                    (10, 0.2, 0.2, 0), (15, 0.3, 0.3, 2), (20, 0.4, 0.4, 1)])
    sliced = slice_strokes(touch)
    assert len(sliced.strokes) == 1
    assert sliced.dropped_events == 2


def test_slice_drops_unclosed_run():
    sliced = slice_strokes(_touch([(0, 0.1, 0.1, 0), (10, 0.2, 0.2, 2)]))
    assert sliced.strokes == ()
    assert sliced.dropped_events == 2


def test_slice_second_down_restarts_run():
    touch = _touch([(0, 0.1, 0.1, 0), (5, 0.2, 0.2, 2),
                    (10, 0.3, 0.3, 0), (15, 0.4, 0.4, 1)])
    sliced = slice_strokes(touch)
    assert len(sliced.strokes) == 1
    assert sliced.strokes[0][0, COL_T] == 10
    assert sliced.dropped_events == 2


def test_slice_invalid_action_ends_the_run():
    touch = _touch([(0, 0.1, 0.1, 0), (5, 0.2, 0.2, 7), (10, 0.3, 0.3, 2), (15, 0.4, 0.4, 1),
                    (20, 0.1, 0.1, 0), (25, 0.2, 0.2, 1)])
    sliced = slice_strokes(touch)
    assert [s[:, COL_T].tolist() for s in sliced.strokes] == [[20.0, 25.0]]
    assert sliced.dropped_events == 4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 2]), max_size=40))
def test_slice_partition_property(actions):
    touch = _touch([(i * 10, 0.5, 0.5, a) for i, a in enumerate(actions)])
    sliced = slice_strokes(touch)
    retained = [t for s in sliced.strokes for t in s[:, COL_T].tolist()]
    # disjoint, ordered, and retained + dropped covers everything exactly once
    assert retained == sorted(set(retained))
    assert len(retained) + sliced.dropped_events == len(touch)
    for stroke in sliced.strokes:
        actions_in = stroke[:, COL_ACTION].tolist()
        assert actions_in[0] == 0 and actions_in[-1] == 1
        assert all(a == 2 for a in actions_in[1:-1])
