from collections import Counter

import numpy as np
import pytest
from scipy import stats

from bbauth.data import (
    COL_ACTION,
    COL_X,
    COL_Y,
    ModalityKind,
    SessionRole,
    SplitKind,
    TaskKind,
    parse_dataset,
    serialize_dataset,
    validate_session,
)
from bbauth.errors import ConfigInvalid
from bbauth.keystroke import extract_ngrams
from bbauth.protocol import grade
from bbauth.runner import RunConfig, score_comparisons
from bbauth.synth import (
    GenConfig,
    blend_profiles,
    generate_dataset,
    generate_session,
    sample_device_profile,
    sample_user_profile,
)

TINY = GenConfig(n_users=2, n_train_users=2, n_validation_users=2, master_seed=7)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        GenConfig(imitation_alpha=1.5)
    with pytest.raises(ConfigInvalid):
        GenConfig(n_users=1)
    with pytest.raises(ConfigInvalid):
        GenConfig(sigma_within=0.0)
    with pytest.raises(ConfigInvalid):
        GenConfig(device_bias_beta=-0.1)


def test_generation_deterministic(tiny_generated):
    again = generate_dataset(TINY)
    assert serialize_dataset(again.train) == serialize_dataset(tiny_generated.train)
    assert serialize_dataset(again.validation) == serialize_dataset(tiny_generated.validation)
    assert serialize_dataset(again.evaluation) == serialize_dataset(tiny_generated.evaluation)
    assert again.keys == tiny_generated.keys
    assert again.manifest == tiny_generated.manifest


def test_different_seeds_differ(tiny_generated):
    other = generate_dataset(GenConfig(n_users=2, n_train_users=2, n_validation_users=2, master_seed=8))
    assert serialize_dataset(other.evaluation) != serialize_dataset(tiny_generated.evaluation)


def test_all_sessions_valid(tiny_generated):
    for split in (tiny_generated.train, tiny_generated.validation, tiny_generated.evaluation):
        for session in split.sessions:
            assert validate_session(session) == []


def test_split_structure(tiny_generated):
    evaluation = tiny_generated.evaluation
    assert len(evaluation.sessions) == 2 * 4 * 6
    counts = Counter((s.device_id, s.task) for s in evaluation.sessions)
    assert len(counts) == 2 * 4 and set(counts.values()) == {6}
    roles = [s.role for s in evaluation.sessions_for(TaskKind.Keystroke)]
    assert roles.count(SessionRole.GenuineEnroll) == 4  # 2 per device
    assert roles.count(SessionRole.GenuineVerify) == 4
    assert roles.count(SessionRole.SkilledImpostor) == 4
    train = tiny_generated.train
    assert len(train.sessions) == 2 * 4 * 4
    assert all(s.subject_id is not None for s in train.sessions)
    assert all(s.subject_id is None for s in evaluation.sessions)


def test_output_parses_cleanly(tiny_generated):
    for split in (tiny_generated.train, tiny_generated.validation, tiny_generated.evaluation):
        parsed = parse_dataset(serialize_dataset(split), split.split_kind)
        assert parsed.warnings == ()


def test_keys_cover_all_tasks(tiny_generated):
    assert set(tiny_generated.keys) == {
        (kind, task)
        for kind in (SplitKind.Validation, SplitKind.Evaluation)
        for task in TaskKind
    }


def test_tapping_sessions_alternate_down_up(tiny_generated):
    for session in tiny_generated.evaluation.sessions_for(TaskKind.Tapping):
        actions = session.stream(ModalityKind.Touch)[:, COL_ACTION].tolist()
        assert set(actions) <= {0, 1}
        assert actions == [i % 2 for i in range(len(actions))]


def test_swipe_orientation_matches_task(tiny_generated):
    from bbauth.data import slice_strokes

    for task, vertical in ((TaskKind.TextReading, True), (TaskKind.GallerySwiping, False)):
        for session in tiny_generated.evaluation.sessions_for(task):
            for stroke in slice_strokes(session.stream(ModalityKind.Touch)).strokes:
                dx = abs(stroke[-1, COL_X] - stroke[0, COL_X])
                dy = abs(stroke[-1, COL_Y] - stroke[0, COL_Y])
                if vertical:
                    assert dy > dx
                else:
                    assert dx > dy


def test_keystroke_task_has_no_touch(tiny_generated):
    for session in tiny_generated.evaluation.sessions_for(TaskKind.Keystroke):
        assert ModalityKind.Touch not in session.streams
        assert len(session.stream(ModalityKind.Keystroke)) >= 4


def test_device_bias_is_only_device_term():
    config = GenConfig(n_users=2, n_train_users=2, n_validation_users=2,
                       device_bias_beta=0.0, master_seed=11)
    user = sample_user_profile(config, SplitKind.Evaluation, 0)
    device_a = sample_device_profile(config, SplitKind.Evaluation, 0)
    device_b = sample_device_profile(config, SplitKind.Evaluation, 1)
    seed = (11, 2, 3, 0, 0, 0)
    session_a = generate_session(user, device_a, TaskKind.Tapping, seed)
    session_b = generate_session(user, device_b, TaskKind.Tapping, seed)
    assert session_a.streams.keys() == session_b.streams.keys()
    for modality, stream in session_a.streams.items():
        assert np.array_equal(stream, session_b.streams[modality])

    biased = GenConfig(n_users=2, n_train_users=2, n_validation_users=2,
                       device_bias_beta=0.4, master_seed=11)
    device_c = sample_device_profile(biased, SplitKind.Evaluation, 1)
    session_c = generate_session(user, device_c, TaskKind.Tapping, seed)
    assert not np.array_equal(session_c.streams[ModalityKind.Accelerometer],
                              session_a.streams[ModalityKind.Accelerometer])


def test_blend_profiles_endpoints():
    config = GenConfig(master_seed=12)
    impostor = sample_user_profile(config, SplitKind.Evaluation, 0)
    victim = sample_user_profile(config, SplitKind.Evaluation, 1)
    assert np.allclose(blend_profiles(impostor, victim, 0.0).digram_mean, impostor.digram_mean)
    assert np.allclose(blend_profiles(impostor, victim, 1.0).digram_mean, victim.digram_mean)
    half = blend_profiles(impostor, victim, 0.5)
    assert np.allclose(half.tap, (impostor.tap + victim.tap) / 2)


def _digram_latencies(session):
    table = extract_ngrams(session.stream(ModalityKind.Keystroke), 2)
    return [stats_.mean_duration for stats_ in table.entries.values()]


def test_perfect_imitation_statistically_indistinguishable():
    # alpha = 1, beta = 0: skilled sessions come from the victim's own
    # parameter set, so digram latencies match in distribution
    p_values = []
    for seed in range(20):
        config = GenConfig(
            n_users=2, n_train_users=2, n_validation_users=2,
            imitation_alpha=1.0, device_bias_beta=0.0, master_seed=100 + seed,
        )
        gen = generate_dataset(config)
        sessions = gen.evaluation.sessions_for(TaskKind.Keystroke)
        genuine = [x for s in sessions if s.role in (SessionRole.GenuineEnroll, SessionRole.GenuineVerify)
                   and s.device_id.endswith("000") for x in _digram_latencies(s)]
        skilled = [x for s in sessions if s.role is SessionRole.SkilledImpostor
                   and s.device_id.endswith("000") for x in _digram_latencies(s)]
        p_values.append(stats.ks_2samp(genuine, skilled).pvalue)
    p_values = np.asarray(p_values)
    assert np.median(p_values) > 0.05
    assert (p_values < 0.05).sum() <= 4


@pytest.mark.slow
def test_separability_monotone_in_sigma_ratio():
    levels = (0.5, 3.0, 8.0)
    mean_auc = []
    for sigma_between in levels:
        aucs = []
        for seed in (1, 2, 3, 4, 5):
            config = GenConfig(
                n_users=4, n_train_users=2, n_validation_users=2,
                sigma_between=sigma_between, tasks=(TaskKind.Keystroke,),
                master_seed=seed,
            )
            gen = generate_dataset(config)
            clist, key = gen.keys[(SplitKind.Evaluation, TaskKind.Keystroke)]
            run = score_comparisons(
                gen.evaluation, clist, RunConfig("keystroke-ngram", TaskKind.Keystroke)
            )
            aucs.append(grade(run.scores, key).auc_mixed)
        mean_auc.append(float(np.mean(aucs)))
    assert mean_auc[0] < mean_auc[1] < mean_auc[2]
