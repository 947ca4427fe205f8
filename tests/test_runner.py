import re
from collections import Counter

import pytest

from bbauth.data import SplitKind, TaskKind
from bbauth.errors import BBAuthError
from bbauth.protocol import Comparison, ComparisonList, grade
from bbauth.runner import MATCHERS, RunConfig, score_comparisons, validate_matcher_task
from bbauth.synth import GenConfig, generate_dataset


def test_run_config_rejects_keystroke_matcher_elsewhere():
    with pytest.raises(ValueError):
        RunConfig("keystroke-ngram", TaskKind.Tapping)
    with pytest.raises(ValueError):
        validate_matcher_task("keystroke-ngram", TaskKind.GallerySwiping)
    with pytest.raises(ValueError):
        RunConfig("no-such-matcher", TaskKind.Tapping)


def test_run_config_rejects_epochs_below_one():
    for matcher in MATCHERS:  # every family, trained or not
        task = TaskKind.Keystroke if matcher == "keystroke-ngram" else TaskKind.Tapping
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            RunConfig(matcher, task, epochs=0)


def test_every_accepted_matcher_task_pair_scores(tiny_generated):
    rejected = []
    for matcher in MATCHERS:
        for task in TaskKind:
            try:
                config = RunConfig(matcher, task, epochs=1)
            except ValueError:
                rejected.append((matcher, task))
                continue
            clist, _ = tiny_generated.keys[(SplitKind.Evaluation, task)]
            run = score_comparisons(tiny_generated.evaluation, clist, config, tiny_generated.train)
            assert len(run.scores) == len(clist.comparisons), (matcher, task)
    assert set(rejected) == {
        *(("keystroke-ngram", t) for t in TaskKind if t is not TaskKind.Keystroke),
        ("swipe-template", TaskKind.Keystroke),
    }


def test_unknown_session_ids_reported(tiny_generated):
    clist, _ = tiny_generated.keys[(SplitKind.Evaluation, TaskKind.Tapping)]
    ghost = ComparisonList(
        TaskKind.Tapping,
        (Comparison("c000000", ("nope-1", "nope-2"), "nope-3"),),
    )
    with pytest.raises(BBAuthError, match="nope-1"):
        score_comparisons(tiny_generated.evaluation, ghost, RunConfig("swipe-template", TaskKind.Tapping))


def test_task_mismatch_between_config_and_list(tiny_generated):
    clist, _ = tiny_generated.keys[(SplitKind.Evaluation, TaskKind.Tapping)]
    with pytest.raises(ValueError):
        score_comparisons(
            tiny_generated.evaluation, clist, RunConfig("swipe-template", TaskKind.GallerySwiping)
        )


def test_scores_cover_list_in_order(tiny_generated):
    clist, key = tiny_generated.keys[(SplitKind.Evaluation, TaskKind.Tapping)]
    run = score_comparisons(tiny_generated.evaluation, clist, RunConfig("swipe-template", TaskKind.Tapping))
    assert list(run.scores) == [c.comparison_id for c in clist.comparisons]
    assert all(0.0 <= v <= 1.0 for v in run.scores.values())
    report = grade(run.scores, key)
    assert 0.0 <= report.auc_mixed <= 100.0


def test_score_errors_name_the_comparison(tiny_generated):
    import dataclasses

    from bbauth.data import ModalityKind, make_stream
    from bbauth.errors import NoStrokes

    split = tiny_generated.evaluation
    clist, _ = tiny_generated.keys[(SplitKind.Evaluation, TaskKind.Tapping)]
    target = clist.comparisons[0]
    broken_sessions = []
    for s in split.sessions:
        if s.session_id == target.verification_session_id:
            streams = dict(s.streams)
            streams[ModalityKind.Touch] = make_stream(ModalityKind.Touch, [])
            s = dataclasses.replace(s, streams=streams)
        broken_sessions.append(s)
    broken = dataclasses.replace(split, sessions=tuple(broken_sessions))
    with pytest.raises(NoStrokes, match=target.comparison_id):
        score_comparisons(broken, clist, RunConfig("swipe-template", TaskKind.Tapping))


def test_softdtw_needs_train_for_calibration(tiny_generated):
    clist, _ = tiny_generated.keys[(SplitKind.Evaluation, TaskKind.Tapping)]
    for matcher in ("softdtw", "siamese"):
        with pytest.raises(ValueError, match=f"{matcher} needs a training split"):
            score_comparisons(tiny_generated.evaluation, clist, RunConfig(matcher, TaskKind.Tapping))


@pytest.mark.parametrize("seed", [42, 3])
def test_grade_warns_when_softdtw_collapses(seed, default_generated):
    # at synth seed 3 the calibrated tau maps 125 of frozen-8's 144 tapping comparisons to 0
    generated = default_generated if seed == 42 else generate_dataset(GenConfig(master_seed=seed))
    clist, key = generated.keys[(SplitKind.Evaluation, TaskKind.Tapping)]
    run = score_comparisons(generated.evaluation, clist, RunConfig("softdtw", TaskKind.Tapping),
                            generated.train)
    warnings = grade(run.scores, key).warnings
    if seed == 3:
        assert warnings == ("degenerate scores: 2 distinct value(s) over 144 comparisons",)
    else:
        assert warnings == ()


def test_softdtw_builds_each_sequence_once(tiny_generated, monkeypatch):
    from collections import Counter

    from bbauth import runner, softdtw, touch

    calls = []

    def counting(session, task):
        calls.append(session.session_id)
        return touch.build_dtw_sequence(session, task)

    monkeypatch.setattr(runner, "build_dtw_sequence", counting)
    monkeypatch.setattr(softdtw, "build_dtw_sequence", counting)
    clist, _ = tiny_generated.keys[(SplitKind.Evaluation, TaskKind.Tapping)]
    named = {sid for c in clist.comparisons
             for sid in (*c.enrollment_session_ids, c.verification_session_id)}
    training = [s.session_id for s in tiny_generated.train.sessions_for(TaskKind.Tapping)]
    score_comparisons(tiny_generated.evaluation, clist, RunConfig("softdtw", TaskKind.Tapping),
                      tiny_generated.train)
    assert Counter(calls) == Counter([*named, *training])


def test_keystroke_extracts_ngrams_twice_per_session(tiny_generated, monkeypatch):
    from bbauth import keystroke
    from bbauth.data import ModalityKind

    original = keystroke.extract_ngrams
    calls = []

    def counting(stream, n):
        calls.append((id(stream), n))
        return original(stream, n)

    monkeypatch.setattr(keystroke, "extract_ngrams", counting)
    clist, _ = tiny_generated.keys[(SplitKind.Evaluation, TaskKind.Keystroke)]
    score_comparisons(tiny_generated.evaluation, clist, RunConfig("keystroke-ngram", TaskKind.Keystroke))
    sessions = tiny_generated.evaluation.by_id()
    named = {sid for c in clist.comparisons
             for sid in (*c.enrollment_session_ids, c.verification_session_id)}
    streams = [id(sessions[sid].stream(ModalityKind.Keystroke)) for sid in named]
    assert len(set(streams)) == len(named)
    assert Counter(calls) == Counter((stream, n) for stream in streams for n in (2, 3))


def test_enrollment_model_built_once_per_pair(default_generated, monkeypatch):
    from bbauth import runner, touch

    calls = []

    def counting(features):
        calls.append(len(features))
        return touch.build_template(features)

    monkeypatch.setattr(runner, "build_template", counting)
    clist, _ = default_generated.keys[(SplitKind.Evaluation, TaskKind.GallerySwiping)]
    score_comparisons(default_generated.evaluation, clist,
                      RunConfig("swipe-template", TaskKind.GallerySwiping))
    assert len({c.enrollment_session_ids for c in clist.comparisons}) == 8
    assert len(calls) == 8


def test_unusable_enrollment_pair_names_its_first_comparison(tiny_generated):
    import dataclasses

    from bbauth.data import ModalityKind
    from bbauth.errors import NoKeystrokeData

    split = tiny_generated.evaluation
    clist, _ = tiny_generated.keys[(SplitKind.Evaluation, TaskKind.Keystroke)]
    pair = clist.comparisons[-1].enrollment_session_ids
    first = next(c for c in clist.comparisons if c.enrollment_session_ids == pair)
    assert first is not clist.comparisons[0]
    sessions = []
    for s in split.sessions:
        if s.session_id in pair:  # one keystroke left in each enrollment stream
            streams = dict(s.streams)
            streams[ModalityKind.Keystroke] = s.stream(ModalityKind.Keystroke)[:1]
            s = dataclasses.replace(s, streams=streams)
        sessions.append(s)
    broken = dataclasses.replace(split, sessions=tuple(sessions))
    with pytest.raises(NoKeystrokeData, match=re.escape(f"comparison {first.comparison_id!r}")):
        score_comparisons(broken, clist, RunConfig("keystroke-ngram", TaskKind.Keystroke))
