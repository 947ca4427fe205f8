import pytest

from bbauth.data import SplitKind, TaskKind
from bbauth.errors import BBAuthError
from bbauth.protocol import Comparison, ComparisonList, grade
from bbauth.runner import RunConfig, score_comparisons, validate_matcher_task


def test_run_config_rejects_keystroke_matcher_elsewhere():
    with pytest.raises(ValueError):
        RunConfig("keystroke-ngram", TaskKind.Tapping)
    with pytest.raises(ValueError):
        validate_matcher_task("keystroke-ngram", TaskKind.GallerySwiping)
    with pytest.raises(ValueError):
        RunConfig("no-such-matcher", TaskKind.Tapping)


def test_unknown_session_ids_reported(tiny_generated):
    clist, _ = tiny_generated.keys[(SplitKind.Evaluation, TaskKind.Tapping)]
    ghost = ComparisonList(
        TaskKind.Tapping,
        (Comparison("c000000", TaskKind.Tapping, ("nope-1", "nope-2"), "nope-3"),),
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
    with pytest.raises(ValueError, match="training split"):
        score_comparisons(tiny_generated.evaluation, clist, RunConfig("softdtw", TaskKind.Tapping))
    explicit_tau = RunConfig("softdtw", TaskKind.Tapping, tau=0.5)
    run = score_comparisons(tiny_generated.evaluation, clist, explicit_tau)
    assert len(run.scores) == len(clist.comparisons)


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
    calls.clear()
    score_comparisons(tiny_generated.evaluation, clist,
                      RunConfig("softdtw", TaskKind.Tapping, tau=0.5))
    assert Counter(calls) == Counter(named)
