import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbauth.data import TaskKind
from bbauth.errors import (
    EmptyDistribution,
    IncompleteDevice,
    MissingScore,
    NonFiniteScore,
    SchemaViolation,
)
from bbauth.protocol import (
    GradeReport,
    KeyFile,
    Label,
    auc,
    auc_counts,
    build_comparisons,
    comparison_list_from_json,
    comparison_list_to_json,
    grade,
    grade_report_from_json,
    grade_report_table,
    grade_report_to_json,
    key_file_from_json,
    key_file_to_json,
    leaderboard_table,
    rank,
    score_file_from_csv,
    score_file_to_csv,
)


def test_build_comparisons_counts_two_devices(tiny_generated):
    # per device: 2 genuine + 2 skilled + (other devices * their 2 verify
    # sessions) random, matching the 20-device count 20*(19*2) = 760
    split = tiny_generated.validation  # 2 devices
    clist, key = build_comparisons(split, TaskKind.Keystroke, seed=1)
    labels = list(key.labels.values())
    assert labels.count(Label.Genuine) == 4
    assert labels.count(Label.SkilledImpostor) == 4
    assert labels.count(Label.RandomImpostor) == 2 * 1 * 2
    assert len(clist.comparisons) == 12
    assert set(key.labels) == {c.comparison_id for c in clist.comparisons}


def test_build_comparisons_counts_formula(default_generated):
    # 8 devices: per device 2 genuine + 2 skilled + 7*2 random
    clist, key = build_comparisons(default_generated.evaluation, TaskKind.Tapping, seed=0)
    labels = list(key.labels.values())
    assert labels.count(Label.Genuine) == 16
    assert labels.count(Label.SkilledImpostor) == 16
    assert labels.count(Label.RandomImpostor) == 8 * 7 * 2


def test_build_comparisons_deterministic(tiny_generated):
    a = build_comparisons(tiny_generated.validation, TaskKind.Tapping, seed=9)
    b = build_comparisons(tiny_generated.validation, TaskKind.Tapping, seed=9)
    assert a[0] == b[0]
    assert a[1] == b[1]
    c = build_comparisons(tiny_generated.validation, TaskKind.Tapping, seed=10)
    assert [x.verification_session_id for x in a[0].comparisons] != [
        x.verification_session_id for x in c[0].comparisons
    ]


def test_build_comparisons_ids_opaque(tiny_generated):
    clist, _ = build_comparisons(tiny_generated.validation, TaskKind.Tapping, seed=2)
    for i, comparison in enumerate(clist.comparisons):
        assert comparison.comparison_id == f"c{i:06d}"
        enroll = comparison.enrollment_session_ids
        assert len(set(enroll)) == 2


def test_build_comparisons_incomplete_device(tiny_generated):
    split = tiny_generated.validation
    trimmed = type(split)(
        split.split_kind,
        tuple(s for s in split.sessions if s.session_id != split.sessions[0].session_id),
    )
    with pytest.raises(IncompleteDevice):
        build_comparisons(trimmed, split.sessions[0].task, seed=0)


def test_build_comparisons_rejects_train(tiny_generated):
    with pytest.raises(ValueError):
        build_comparisons(tiny_generated.train, TaskKind.Tapping, seed=0)


# --- AUC ---------------------------------------------------------------------

def test_auc_perfect_separation():
    assert auc([0.9, 0.8], [0.2, 0.3]) == 1.0


def test_auc_all_ties_half():
    assert auc([0.6, 0.4], [0.5, 0.5]) == 0.5


def test_auc_one_tie():
    assert auc([0.7, 0.5], [0.5, 0.6]) == 0.625


def test_auc_empty_distribution():
    with pytest.raises(EmptyDistribution):
        auc([], [0.5])


def _brute_force_auc(genuine, impostor):
    wins = ties = 0
    for g in genuine:
        for i in impostor:
            if g > i:
                wins += 1
            elif g == i:
                ties += 1
    return (wins + 0.5 * ties) / (len(genuine) * len(impostor))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=20),
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=20),
)
def test_auc_complement_exact(genuine, impostor):
    num_gi, den = auc_counts(genuine, impostor)
    num_ig, den2 = auc_counts(impostor, genuine)
    assert den == den2
    assert num_gi + num_ig == den  # exact rational complement
    assert Fraction(num_gi, den) + Fraction(num_ig, den) == 1


_SPECIAL_SCORES = st.sampled_from([0.0, 0.5, 1.0, math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_SPECIAL_SCORES, min_size=1, max_size=25),
    st.lists(_SPECIAL_SCORES, min_size=1, max_size=25),
)
def test_auc_counts_match_pairwise_count(genuine, impostor):
    # ties and both infinities count as in a pairwise loop; NaN wins and ties against nothing
    wins = sum(g > i for g in genuine for i in impostor)
    ties = sum(g == i for g in genuine for i in impostor)
    assert auc_counts(genuine, impostor) == (2 * wins + ties, 2 * len(genuine) * len(impostor))


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(20)
    genuine = list(rng.choice([0.1, 0.2, 0.5, 0.9], size=12))
    impostor = list(rng.choice([0.1, 0.2, 0.5, 0.9], size=9))
    pooled = sorted(set(genuine + impostor))
    ranks = {v: float(i) for i, v in enumerate(pooled)}  # strictly increasing map
    assert auc(genuine, impostor) == auc([ranks[g] for g in genuine], [ranks[i] for i in impostor])


# --- grading ----------------------------------------------------------------

def _key(n_genuine=3, n_random=3, n_skilled=3):
    labels = {}
    idx = 0
    for count, label in ((n_genuine, Label.Genuine), (n_random, Label.RandomImpostor),
                         (n_skilled, Label.SkilledImpostor)):
        for _ in range(count):
            labels[f"c{idx:06d}"] = label
            idx += 1
    return KeyFile(labels)


def test_grade_perfect_scores():
    key = _key()
    scores = {cid: (1.0 if label is Label.Genuine else 0.0) for cid, label in key.labels.items()}
    report = grade(scores, key)
    assert (report.auc_mixed, report.auc_random, report.auc_skilled) == (100.0, 100.0, 100.0)


def test_grade_constant_scores():
    key = _key()
    report = grade({cid: 0.5 for cid in key.labels}, key)
    assert (report.auc_mixed, report.auc_random, report.auc_skilled) == (50.0, 50.0, 50.0)
    n = len(key.labels)
    assert report.warnings == (f"degenerate scores: 1 distinct value(s) over {n} comparisons",)


def test_grade_warns_only_at_few_distinct_scores():
    key = _key(2, 2, 2)
    ids = list(key.labels)
    two = grade({cid: (0.0, 1.0)[i % 2] for i, cid in enumerate(ids)}, key)
    assert two.warnings == ("degenerate scores: 2 distinct value(s) over 6 comparisons",)
    three = grade({cid: (0.0, 0.5, 1.0)[i % 3] for i, cid in enumerate(ids)}, key)
    assert three.warnings == ()
    # an unknown id's score is not graded, so it does not count as a distinct value
    extra = grade({**{cid: (0.0, 1.0)[i % 2] for i, cid in enumerate(ids)}, "c999999": 0.5}, key)
    assert extra.warnings == ("ignored unknown comparison id 'c999999'",
                              "degenerate scores: 2 distinct value(s) over 6 comparisons")


def test_grade_mixed_counts_are_sums():
    rng = np.random.default_rng(21)
    for _ in range(25):
        key = _key(int(rng.integers(1, 8)), int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        scores = {cid: float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])) for cid in key.labels}
        report = grade(scores, key)
        num_m, den_m = report.pair_counts["mixed"]
        num_r, den_r = report.pair_counts["random"]
        num_s, den_s = report.pair_counts["skilled"]
        assert num_m == num_r + num_s
        assert den_m == den_r + den_s


def test_grade_missing_score_lists_ids():
    key = _key(1, 1, 1)
    scores = {cid: 0.5 for cid in list(key.labels)[:-1]}
    with pytest.raises(MissingScore, match="c000002"):
        grade(scores, key)


def test_grade_unknown_id_warns():
    key = _key(1, 1, 1)
    scores = {cid: 0.5 for cid in key.labels}
    scores["c999999"] = 0.3
    report = grade(scores, key)
    assert any("c999999" in w for w in report.warnings)


def test_grade_non_finite_score():
    key = _key(1, 1, 1)
    scores = {cid: 0.5 for cid in key.labels}
    scores[next(iter(key.labels))] = math.nan
    with pytest.raises(NonFiniteScore):
        grade(scores, key)


def test_grade_report_row_format():
    report = GradeReport(66.37, 64.77, 67.91, {}, (), {"mixed": (0, 1), "random": (0, 1), "skilled": (0, 1)})
    table = grade_report_table(report)
    assert "Mixed AUC [%]" in table and "Random AUC [%]" in table and "Skilled AUC [%]" in table
    assert "66.37" in table


def test_grade_invariant_to_score_order():
    key = _key()
    rng = np.random.default_rng(22)
    scores = {cid: float(rng.random()) for cid in key.labels}
    report_a = grade(scores, key)
    report_b = grade(dict(reversed(list(scores.items()))), key)
    assert report_a == report_b


# --- ranking -----------------------------------------------------------------

def _report(mixed, random_auc=50.0, skilled=50.0):
    return GradeReport(mixed, random_auc, skilled, {}, (),
                       {"mixed": (0, 1), "random": (0, 1), "skilled": (0, 1)})


def test_rank_descending_mixed():
    board = rank([("beta", _report(51.25)), ("alpha", _report(66.37))])
    assert [team for team, _ in board] == ["alpha", "beta"]


def test_rank_tie_breaks_by_team_name():
    board = rank([("zeta", _report(60.0, skilled=99.0)), ("alpha", _report(60.0, skilled=1.0))])
    assert [team for team, _ in board] == ["alpha", "zeta"]


def test_rank_singleton():
    board = rank([("solo", _report(55.0))])
    assert len(board) == 1
    table = leaderboard_table(board)
    assert "solo" in table and table.count("\n") == 2


def test_rank_empty():
    with pytest.raises(ValueError):
        rank([])


# --- file formats --------------------------------------------------------------

def test_comparison_list_roundtrip(tiny_generated):
    clist, _ = build_comparisons(tiny_generated.validation, TaskKind.Tapping, seed=4)
    text = comparison_list_to_json(clist)
    assert comparison_list_from_json(text) == clist
    obj = json.loads(text)
    assert set(obj) == {"task", "comparisons"}


def test_comparison_list_rejects_duplicate_ids(tiny_generated):
    clist, _ = build_comparisons(tiny_generated.validation, TaskKind.Tapping, seed=4)
    obj = json.loads(comparison_list_to_json(clist))
    obj["comparisons"][2]["id"] = obj["comparisons"][0]["id"]
    with pytest.raises(SchemaViolation, match="duplicate comparison id 'c000000'"):
        comparison_list_from_json(json.dumps(obj))
    obj["comparisons"][2]["id"] = ["c000002"]
    with pytest.raises(SchemaViolation, match="malformed comparison list"):
        comparison_list_from_json(json.dumps(obj))


@pytest.mark.parametrize("field, value, message", [
    ("verify", 5, "comparison 'c000001': verify must be a session id string, got 5"),
    ("enroll", "ab", "comparison 'c000001': enroll must be a list of two session id strings, "
                     'got "ab"'),
    ("enroll", ["a", "b", "c"], "comparison 'c000001': enroll must be a list of two session id "
                                'strings, got ["a", "b", "c"]'),
    ("enroll", ["a", 7], "comparison 'c000001': enroll must be a list of two session id strings, "
                         'got ["a", 7]'),
    ("id", 5, "comparisons[1]: id must be a string, got 5"),
    ("enroll", ["x" * 50], "comparison 'c000001': enroll must be a list of two session id "
                           'strings, got ["' + "x" * 38),
])
def test_comparison_list_requires_string_ids(tiny_generated, field, value, message):
    clist, _ = build_comparisons(tiny_generated.validation, TaskKind.Tapping, seed=4)
    obj = json.loads(comparison_list_to_json(clist))
    obj["comparisons"][1][field] = value
    with pytest.raises(SchemaViolation) as info:
        comparison_list_from_json(json.dumps(obj))
    assert str(info.value) == f"malformed comparison list: {message}"


def test_key_file_roundtrip(tiny_generated):
    _, key = build_comparisons(tiny_generated.validation, TaskKind.Tapping, seed=4)
    assert key_file_from_json(key_file_to_json(key)) == key


def test_score_file_roundtrip():
    scores = {"c000002": 0.0, "c000000": 0.25, "c000001": 1.0}
    text = score_file_to_csv(scores)
    assert text == "comparison_id,score\nc000002,0.0\nc000000,0.25\nc000001,1.0\n"  # map order
    parsed, warnings = score_file_from_csv(text)
    assert parsed == scores
    assert warnings == []


def test_score_file_clamps_with_warning():
    parsed, warnings = score_file_from_csv("comparison_id,score\nc1,1.75\nc2,-0.5\n")
    assert parsed == {"c1": 1.0, "c2": 0.0}
    assert len(warnings) == 2


def test_score_file_rejects_bad_header_and_nan():
    with pytest.raises(SchemaViolation):
        score_file_from_csv("id,value\nc1,0.5\n")
    with pytest.raises(NonFiniteScore):
        score_file_from_csv("comparison_id,score\nc1,nan\n")
    with pytest.raises(SchemaViolation):
        score_file_from_csv("comparison_id,score\nc1,0.5\nc1,0.6\n")


def test_grade_report_roundtrip():
    report = _report(61.54, 67.35, 55.73)
    again = grade_report_from_json(grade_report_to_json(report))
    assert again.auc_mixed == pytest.approx(61.54)
    assert again.pair_counts == report.pair_counts
