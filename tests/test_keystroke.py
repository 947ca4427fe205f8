import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbauth.data import COL_T, ModalityKind, Session, SessionRole, TaskKind, make_stream
from bbauth.errors import BothEmpty, EmptyIntersection, NoKeystrokeData
from bbauth.keystroke import (
    NgramStats,
    NgramTable,
    availability,
    degree_of_disorder,
    enroll_profiles,
    extract_ngrams,
    keystroke_profile,
    keystroke_score,
    merge_tables,
    order_ngrams,
)


def _events(pairs):
    return make_stream(ModalityKind.Keystroke, pairs)


THE = _events([(0, ord("t")), (80, ord("h")), (200, ord("e"))])


def test_extract_digrams():
    table = extract_ngrams(THE, 2)
    assert table.entries == {
        (ord("t"), ord("h")): NgramStats(1, 80.0),
        (ord("h"), ord("e")): NgramStats(1, 120.0),
    }


def test_extract_trigrams():
    table = extract_ngrams(THE, 3)
    assert table.entries == {(ord("t"), ord("h"), ord("e")): NgramStats(1, 200.0)}


def test_extract_short_sequence_empty():
    assert extract_ngrams(THE[:1], 2).entries == {}


def test_extract_aggregates_repeats():
    events = _events([(0, 1), (100, 2), (150, 1), (350, 2)])
    table = extract_ngrams(events, 2)
    assert table.entries[(1, 2)] == NgramStats(2, 150.0)  # mean of 100 and 200


def test_merge_tables_weighted_mean():
    a = NgramTable(2, {(1, 2): NgramStats(1, 100.0)})
    b = NgramTable(2, {(1, 2): NgramStats(3, 200.0), (2, 3): NgramStats(1, 50.0)})
    merged = merge_tables([a, b])
    assert merged.entries[(1, 2)] == NgramStats(4, 175.0)
    assert merged.entries[(2, 3)] == NgramStats(1, 50.0)


def test_order_by_duration():
    table = NgramTable(2, {(1,): NgramStats(2, 50.0), (2,): NgramStats(1, 80.0)})
    assert order_ngrams(table) == [(1,), (2,)]


def test_order_tie_broken_by_frequency():
    table = NgramTable(2, {(1,): NgramStats(1, 50.0), (2,): NgramStats(3, 50.0)})
    assert order_ngrams(table) == [(2,), (1,)]


def test_order_final_tie_lexicographic():
    table = NgramTable(2, {(5, 1): NgramStats(1, 50.0), (1, 5): NgramStats(1, 50.0)})
    assert order_ngrams(table) == [(1, 5), (5, 1)]


def test_order_empty():
    assert order_ngrams(NgramTable(2, {})) == []


A, B, C, D = (1,), (2,), (3,), (4,)


def test_disorder_identity():
    assert degree_of_disorder([A, B, C], [A, B, C]) == 0.0


def test_disorder_reversal_is_max():
    assert degree_of_disorder([A, B, C, D], [D, C, B, A]) == 1.0


def test_disorder_half():
    assert degree_of_disorder([A, B, C, D], [B, A, D, C]) == 0.5


def test_disorder_single_element():
    assert degree_of_disorder([A], [A]) == 0.0


def test_disorder_empty_intersection():
    with pytest.raises(EmptyIntersection):
        degree_of_disorder([], [])


def test_disorder_requires_same_set():
    with pytest.raises(ValueError):
        degree_of_disorder([A, B], [A, C])


def _oracle_disorder(list_a, list_b):
    total = sum(abs(i - list_b.index(g)) for i, g in enumerate(list_a))
    v = len(list_a)
    if v < 2:
        return 0.0
    return total / (v * v / 2 if v % 2 == 0 else (v * v - 1) / 2)


def test_disorder_matches_oracle_small_permutations():
    items = [(i,) for i in range(5)]
    for perm in itertools.permutations(items):
        assert degree_of_disorder(items, list(perm)) == _oracle_disorder(items, list(perm))


@settings(max_examples=150, deadline=None)
@given(st.permutations(list(range(8))))
def test_disorder_symmetric_and_relabel_invariant(perm):
    items = [(i,) for i in range(8)]
    other = [(i,) for i in perm]
    assert degree_of_disorder(items, other) == degree_of_disorder(other, items)
    relabeled = {i: (i + 100,) for i in range(8)}
    items_r = [relabeled[g[0]] for g in items]
    other_r = [relabeled[g[0]] for g in other]
    assert degree_of_disorder(items_r, other_r) == degree_of_disorder(items, other)


def test_availability_identical_tables():
    table = NgramTable(2, {(1, 2): NgramStats(3, 10.0), (3, 4): NgramStats(2, 20.0)})
    assert availability(table, table) == 1.0


def test_availability_worked_example():
    th, he, an, er = (1, 2), (3, 4), (5, 6), (7, 8)
    enroll = NgramTable(2, {th: NgramStats(4, 10.0), he: NgramStats(3, 10.0), an: NgramStats(1, 10.0)})
    verify = NgramTable(2, {th: NgramStats(5, 10.0), he: NgramStats(2, 10.0), er: NgramStats(3, 10.0)})
    assert availability(enroll, verify) == 0.5


def test_availability_disjoint():
    enroll = NgramTable(2, {(1, 2): NgramStats(5, 10.0)})
    verify = NgramTable(2, {(3, 4): NgramStats(5, 10.0)})
    assert availability(enroll, verify) == 0.0


def test_availability_both_empty():
    with pytest.raises(BothEmpty):
        availability(NgramTable(2, {}), NgramTable(2, {}))


def test_availability_symmetric():
    a = NgramTable(2, {(1, 2): NgramStats(2, 10.0), (9, 9): NgramStats(1, 5.0)})
    b = NgramTable(2, {(1, 2): NgramStats(1, 12.0), (4, 4): NgramStats(6, 5.0)})
    assert availability(a, b) == availability(b, a)


_ngram_entries = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.builds(NgramStats, st.integers(1, 3), st.sampled_from([10.0, 20.0, 30.0])),  # ties
    max_size=16,
)


@settings(max_examples=200, deadline=None)
@given(_ngram_entries, st.data())
def test_filtered_ordering_equals_ordering_of_restriction(entries, data):
    # keystroke_score filters precomputed orderings instead of sorting each shared set
    table = NgramTable(2, entries)
    shared = data.draw(st.sets(st.sampled_from(sorted(entries)))) if entries else set()
    restricted = NgramTable(2, {g: s for g, s in entries.items() if g in shared})
    assert [g for g in order_ngrams(table) if g in shared] == order_ngrams(restricted)


# --- session-level scoring --------------------------------------------------

def _typed_session(text, sid="s", latency=None):
    """Deterministic typing: latency for pair (a, b) varies with the codes."""
    codes = [ord(c) for c in text]
    t = 0
    times = [0]
    for prev, code in zip(codes, codes[1:]):
        t += latency(prev, code) if latency else 60 + (prev * 7 + code * 13) % 90
        times.append(t)
    return Session(sid, "d", TaskKind.Keystroke, SessionRole.Unlabeled,
                   {ModalityKind.Keystroke: _events(list(zip(times, codes)))}, subject_id="u")


def _score(enroll_sessions, verify_session):
    enrollment = enroll_profiles([keystroke_profile(s) for s in enroll_sessions])
    return keystroke_score(enrollment, keystroke_profile(verify_session))


RICH_TEXT = "the the the the"  # every n-gram occurs at least 3 times


def test_score_identical_sessions_high():
    enroll = _typed_session(RICH_TEXT, "e1")
    verify = _typed_session(RICH_TEXT, "v1")
    score = _score([enroll], verify)
    assert score >= 0.9
    assert score == 1.0  # identical order and full availability


def test_score_disjoint_ngrams_zero():
    enroll = _typed_session("aaaa aaaa", "e1")
    verify = _typed_session("zzzz zzzz", "v1")
    # no shared n-grams: disorder contributes 0 and availability is 0
    assert _score([enroll], verify) == 0.0


def test_score_pooling_idempotent_on_identical_enrolls():
    enroll = _typed_session(RICH_TEXT, "e1")
    verify = _typed_session(RICH_TEXT, "v1")
    single = _score([enroll], verify)
    double = _score([enroll, _typed_session(RICH_TEXT, "e2")], verify)
    assert single == double


def test_score_timestamp_shift_invariant():
    def shifted(session, delta):
        keystrokes = session.stream(ModalityKind.Keystroke).copy()
        keystrokes[:, COL_T] += delta
        return Session("s2", "d", TaskKind.Keystroke, SessionRole.Unlabeled,
                       {ModalityKind.Keystroke: _events(keystrokes)}, subject_id="u")

    enroll = _typed_session("the quick brown fox the quick", "e1")
    verify = _typed_session("the brown quick fox the fox", "v1")
    base = _score([enroll], verify)
    assert _score([shifted(enroll, 5_000)], shifted(verify, 9_999)) == base


def test_score_genuine_above_impostor():
    def fast_th(a, b):
        return 40 + (a * 3 + b) % 25

    def slow_th(a, b):
        return 140 - (a * 5 + b * 2) % 60

    enroll = _typed_session("the quick brown fox jumps the fox", "e", fast_th)
    genuine = _typed_session("the brown fox quick jumps the to", "g", fast_th)
    impostor = _typed_session("the brown fox quick jumps the to", "i", slow_th)
    assert _score([enroll], genuine) > _score([enroll], impostor)


def test_score_requires_keystroke_data():
    empty = Session("s", "d", TaskKind.Keystroke, SessionRole.Unlabeled, {}, subject_id="u")
    with pytest.raises(NoKeystrokeData):
        _score([empty], empty)


def _reference_score(enroll_sessions, verify_session):
    """The score composed within one comparison: extract, pool, restrict, sort."""
    enroll_streams = [s.stream(ModalityKind.Keystroke) for s in enroll_sessions]
    verify_stream = verify_session.stream(ModalityKind.Keystroke)
    per_n = []
    for n in (2, 3):
        enroll_table = merge_tables([extract_ngrams(stream, n) for stream in enroll_streams])
        verify_table = extract_ngrams(verify_stream, n)
        if not enroll_table.entries and not verify_table.entries:
            per_n.append(0.0)
            continue
        avail = availability(enroll_table, verify_table)
        shared = set(enroll_table.entries) & set(verify_table.entries)
        sim = 0.0
        if shared:
            sim = 1.0 - degree_of_disorder(
                order_ngrams(NgramTable(n, {g: s for g, s in enroll_table.entries.items() if g in shared})),
                order_ngrams(NgramTable(n, {g: s for g, s in verify_table.entries.items() if g in shared})),
            )
        per_n.append((sim + avail) / 2)
    return sum(per_n) / len(per_n)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text("abcd", min_size=2, max_size=30), min_size=3, max_size=3))
def test_score_bitwise_equal_to_reference(texts):
    # few letters and the code-driven latencies give tied durations and counts
    enroll = [_typed_session(texts[0], "e1"), _typed_session(texts[1], "e2")]
    verify = _typed_session(texts[2], "v")
    assert _score(enroll, verify).hex() == _reference_score(enroll, verify).hex()


def test_synth_scores_bitwise_equal_to_reference(tiny_generated):
    from bbauth.data import SplitKind

    sessions = tiny_generated.evaluation.by_id()
    clist, _ = tiny_generated.keys[(SplitKind.Evaluation, TaskKind.Keystroke)]
    for c in clist.comparisons:
        enroll = [sessions[sid] for sid in c.enrollment_session_ids]
        verify = sessions[c.verification_session_id]
        assert _score(enroll, verify).hex() == _reference_score(enroll, verify).hex()
