import hashlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from bbauth.data import (
    BACKGROUND_SENSORS,
    COL_ACTION,
    COL_X,
    COL_Y,
    ModalityKind,
    SessionRole,
    SplitKind,
    TaskKind,
    make_stream,
    parse_dataset,
    serialize_dataset,
    validate_session,
)
from bbauth.errors import ConfigInvalid
from bbauth.keystroke import extract_ngrams
from bbauth.protocol import grade
from bbauth.runner import RunConfig, score_comparisons
from bbauth.synth import (
    _SENSOR_AMP,
    _SENSOR_BASE,
    _SWIPES_PER_SESSION,
    _TAPS_PER_SESSION,
    GenConfig,
    _round5,
    _sensor_streams,
    _swipe_stream,
    _tap_stream,
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


# sha256 of `serialize_dataset` per split, recorded from the per-value
# (scalar) generator; any change to the generated bytes fails here
_GOLDEN_SPLITS = [
    (
        GenConfig(n_users=4, n_train_users=2, n_validation_users=2, master_seed=5),
        {
            "train": "16e3ef0ac88d55934d203fdde0d31136815f68497a0a01def22054c067bbcb09",
            "validation": "407dc507a07ffbced7ae1852c4e017d4c8c6e4bed073230bac482abc8a62ff22",
            "evaluation": "6c1d3654cc55ae6aff6135d26a035b5ab1731ce26682cb42c8a36e250779dc9a",
        },
    ),
    (
        GenConfig(n_users=4, n_train_users=2, n_validation_users=2, master_seed=5,
                  sigma_between=1.3, imitation_alpha=0.8),
        {
            "train": "bd2be30539f9dc939358e97d7147a2f2e2ea89847f428f3b6fe9d881502886c2",
            "validation": "bb0d3d2219af0f007783fc5e0b7aca49fb36b5292f6a58854292aa563d49703b",
            "evaluation": "f67f005d415bd85471e91b8b0af4b5739db6c3b16e8006808d873aca7c02fbe2",
        },
    ),
]


@pytest.mark.parametrize("config, digests", _GOLDEN_SPLITS, ids=["4-users", "4-users-hard"])
def test_generated_splits_match_golden_digests(config, digests):
    generated = generate_dataset(config)
    for name, digest in digests.items():
        text = serialize_dataset(getattr(generated, name))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


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


# --- vectorised synthesis against the per-value reference --------------------

def _tie_neighbour(m: int, steps: int) -> float:
    """The double `steps` doubles away from (m + 0.5) / 1e5, whose product
    with 1e5 lies on or next to a half-integer."""
    value = (m + 0.5) / 1e5
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, math.copysign(math.inf, steps)))
    return value


_ROUND5_VALUES = st.one_of(
    st.floats(),  # any double: ±0, ±inf, NaN, subnormals, up to ±1.8e308
    st.floats(min_value=-1e12, max_value=1e12),
    st.floats(min_value=2**52 / 1e5, max_value=1e12),  # the product is >= 2**52
    st.integers(-(2**40), 2**40).map(lambda j: (2 * j + 1) / 64),  # exact ties, j/64 with j odd
    st.builds(_tie_neighbour, st.integers(-(10**12), 10**12), st.integers(-3, 3)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROUND5_VALUES, max_size=40))
@example([0.0, -0.0, 0.015625, -0.046875, 2223.560055, -8644.791275,
          2**52 / 1e5, 400353221665.66235, -1e12, 1e304, math.inf, -math.inf, math.nan])
def test_round5_equals_builtin_round_bitwise(values):
    got = _round5(np.array(values, dtype=np.float64)).tolist()
    assert [v.hex() for v in got] == [round(v, 5).hex() for v in values]


def _reference_swipe_stream(user, device, rng, vertical):
    """The per-value swipe synthesis: scalar jitter draws, `round` per coordinate."""
    columns = ([], [], [], [])
    t = 400.0 + 300.0 * rng.random()
    for swipe_idx in range(_SWIPES_PER_SESSION):
        speed = max(rng.normal(user.swipe[0], user.swipe_std[0]), 3e-4)
        bow = rng.normal(user.swipe[1], user.swipe_std[1])
        length = float(np.clip(rng.normal(user.swipe[2], user.swipe_std[2]), 0.15, 0.8))
        lane = float(np.clip(rng.normal(user.swipe[3], user.swipe_std[3]), 0.1, 0.9))
        if vertical:
            start = np.array([lane, 0.5 + length / 2])
            end = np.array([lane, 0.5 - length / 2])
            perp = np.array([1.0, 0.0])
        else:
            direction = -1.0 if swipe_idx % 2 else 1.0
            start = np.array([0.5 - direction * length / 2, lane])
            end = np.array([0.5 + direction * length / 2, lane])
            perp = np.array([0.0, 1.0])
        control = (start + end) / 2 + bow * perp
        n_pts = int(rng.integers(8, 14))
        u = np.linspace(0.0, 1.0, n_pts)[:, None]
        pts = (1 - u) ** 2 * start + 2 * u * (1 - u) * control + u**2 * end
        pts += 0.004 * rng.standard_normal(pts.shape)
        pts = np.clip(pts, 0.0, 1.0)
        duration = length / speed
        step = duration / (n_pts - 1)
        xs = pts[:, 0].tolist()
        ys = pts[:, 1].tolist()
        for i in range(n_pts):
            columns[0].append(int(t))
            columns[1].append(round(xs[i], 5))
            columns[2].append(round(ys[i], 5))
            columns[3].append(0 if i == 0 else (1 if i == n_pts - 1 else 2))
            if i < n_pts - 1:
                t += step * (1.0 + device.jitter * rng.uniform(-1.0, 1.0))
        t += rng.uniform(280.0, 700.0)
    return make_stream(ModalityKind.Touch, np.column_stack(columns))


def _reference_tap_stream(user, rng):
    columns = ([], [], [], [])
    t = 400.0 + 300.0 * rng.random()
    for _ in range(_TAPS_PER_SESSION):
        x = round(float(np.clip(rng.normal(user.tap[2], user.tap_std[2]), 0.0, 1.0)), 5)
        y = round(float(np.clip(rng.normal(user.tap[3], user.tap_std[3]), 0.0, 1.0)), 5)
        hold = max(rng.normal(user.tap[0], user.tap_std[0]), 25.0)
        columns[0].extend((int(t), int(t + hold)))
        columns[1].extend((x, x))
        columns[2].extend((y, y))
        columns[3].extend((0, 1))
        t += hold + max(rng.normal(user.tap[1], user.tap_std[1]), 40.0)
    return make_stream(ModalityKind.Touch, np.column_stack(columns))


def _reference_sensor_streams(user, device, rng, duration_ms):
    """The per-value sensor synthesis: numpy-scalar AR(1) loop, `round` per value."""
    n_max = int(duration_ms / (device.period_ms * (1 - device.jitter))) + 2
    deltas = device.period_ms * (1.0 + device.jitter * rng.uniform(-1.0, 1.0, size=n_max))
    times = np.cumsum(deltas)
    times = times[times <= duration_ms]
    seconds = times / 1000.0
    streams = {}
    for s_idx, sensor in enumerate(BACKGROUND_SENSORS):
        amp = _SENSOR_AMP[sensor]
        base = _SENSOR_BASE[sensor]
        ratio = float(np.clip(user.sway_ratio[s_idx], 0.05, 0.95))
        rho = float(np.clip(user.smooth[s_idx], 0.0, 0.95))
        axes = []
        for axis in range(3):
            sway = np.sin(
                2 * np.pi * user.sway_freq[s_idx] * seconds
                + user.sway_phase[s_idx]
                + axis * 2 * np.pi / 3
            )
            noise = np.empty_like(seconds)
            innov = rng.standard_normal(seconds.size) * np.sqrt(1 - rho * rho)
            value = rng.standard_normal()
            for i in range(seconds.size):
                value = rho * value + innov[i]
                noise[i] = value
            signal = base[axis] + amp * (ratio * sway + (1 - ratio) * noise)
            values = device.gain[s_idx] * signal + device.bias[s_idx, axis]
            axes.append([round(v, 5) for v in values.tolist()])
        streams[sensor] = make_stream(sensor, np.column_stack([np.trunc(times), *axes]))
    return streams


@st.composite
def _profiles(draw):
    """A user (or a skilled impostor's blend) and a device, plus a session seed."""
    config = GenConfig(
        sigma_between=draw(st.floats(0.2, 8.0)),
        sigma_within=draw(st.floats(0.2, 3.0)),
        device_bias_beta=draw(st.floats(0.0, 1.0)),
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )
    split = draw(st.sampled_from(SplitKind))
    user = sample_user_profile(config, split, draw(st.integers(0, 99)))
    if draw(st.booleans()):
        victim = sample_user_profile(config, split, draw(st.integers(0, 99)))
        user = blend_profiles(user, victim, draw(st.floats(0.0, 1.0)))
    device = replace(
        sample_device_profile(config, split, draw(st.integers(0, 99))),
        period_ms=draw(st.floats(20.0, 100.0)),
        jitter=draw(st.floats(0.0, 0.5)),
    )
    return user, device, draw(st.integers(0, 2**64 - 1))


def _assert_same_stream(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@settings(max_examples=60, deadline=None)
@given(_profiles(), st.one_of(st.floats(0.0, 300.0), st.floats(0.0, 20000.0)))
def test_sensor_streams_bitwise_equal_to_reference(profiles, duration_ms):
    user, device, seed = profiles
    rng, reference_rng = _rngs(seed)
    got = _sensor_streams(user, device, rng, duration_ms)
    expected = _reference_sensor_streams(user, device, reference_rng, duration_ms)
    assert list(got) == list(expected)
    for sensor, stream in expected.items():
        _assert_same_stream(got[sensor], stream)
    # the same draws in the same order leave both generators in one state
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(_profiles(), st.booleans())
def test_touch_streams_bitwise_equal_to_reference(profiles, vertical):
    user, device, seed = profiles
    rng, reference_rng = _rngs(seed)
    _assert_same_stream(_swipe_stream(user, device, rng, vertical),
                        _reference_swipe_stream(user, device, reference_rng, vertical))
    _assert_same_stream(_tap_stream(user, rng), _reference_tap_stream(user, reference_rng))
    assert rng.bit_generator.state == reference_rng.bit_generator.state
