"""Seeded generator of dataset-format synthetic data.

Every session derives an independent child seed from the master seed,
so generation order (or parallelism) never changes output. User
identity is injected through per-digram latency classes and vocabulary
preferences (keystroke), swipe geometry and kinematics, tap rhythm and
position, and a reproducible low-frequency sway waveform in the sensor
channels. Skilled impostors are convex blends of profile parameters
toward the victim, rendered through the victim's device; random
impostors arise naturally from other devices.

The generator is a test harness, not a behavioral model: magnitudes are
chosen so matchers separate users at the configured
between/within-user ratio, not to imitate human motor control.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .data import (
    BACKGROUND_SENSORS,
    COL_T,
    SESSIONS_PER_ROLE,
    TRAIN_SESSIONS_PER_SUBJECT,
    DatasetSplit,
    ModalityKind,
    Session,
    SessionRole,
    SplitKind,
    TaskKind,
    make_stream,
)
from .errors import ConfigInvalid
from .protocol import ComparisonList, KeyFile, build_comparisons

# fixed public-domain vocabulary so n-gram overlap between sessions is
# realistic and reproducible
WORDS: tuple[str, ...] = (
    "the", "and", "for", "are", "but", "not", "you", "all", "any", "can",
    "her", "was", "one", "our", "out", "day", "get", "has", "him", "his",
    "how", "man", "new", "now", "old", "see", "two", "way", "who", "boy",
    "did", "its", "let", "put", "say", "she", "too", "use", "that", "with",
    "have", "this", "will", "your", "from", "they", "know", "want", "been",
    "good", "much", "some", "time", "very", "when", "come", "here", "just",
    "like", "long", "make", "many", "more", "only",
)

_LATENCY_CLASSES = 10
_LATENCY_BASE = 170.0
_LATENCY_UNIT = 12.0
_MIN_LATENCY = 15.0

# per-sensor baseline and micro-motion amplitude (device-native units)
_SENSOR_BASE = {
    ModalityKind.Accelerometer: (0.0, 0.0, 9.81),
    ModalityKind.Gyroscope: (0.0, 0.0, 0.0),
    ModalityKind.Magnetometer: (22.0, 5.0, -40.0),
    ModalityKind.LinearAccelerometer: (0.0, 0.0, 0.0),
    ModalityKind.Gravity: (0.0, 0.0, 9.81),
}
_SENSOR_AMP = {
    ModalityKind.Accelerometer: 0.35,
    ModalityKind.Gyroscope: 0.12,
    ModalityKind.Magnetometer: 1.8,
    ModalityKind.LinearAccelerometer: 0.30,
    ModalityKind.Gravity: 0.05,
}
_SENSOR_BIAS_UNIT = {
    ModalityKind.Accelerometer: 0.25,
    ModalityKind.Gyroscope: 0.08,
    ModalityKind.Magnetometer: 2.5,
    ModalityKind.LinearAccelerometer: 0.20,
    ModalityKind.Gravity: 0.03,
}

_WORDS_PER_SESSION = 18
_SWIPES_PER_SESSION = 10
_TAPS_PER_SESSION = 12


@dataclass(frozen=True)
class UserProfile:
    """Behavioral parameters; all float arrays blend convexly."""

    digram_mean: np.ndarray   # (classes,) latency class means, ms
    digram_std: np.ndarray    # (classes,) within-session latency std, ms
    word_weights: np.ndarray  # vocabulary preference weights, > 0
    swipe: np.ndarray         # [speed /ms, bow, length, lane]
    swipe_std: np.ndarray     # matching within-session stds
    tap: np.ndarray           # [hold ms, gap ms, x, y]
    tap_std: np.ndarray
    sway_freq: np.ndarray     # (5,) Hz per sensor
    sway_phase: np.ndarray    # (5,) radians
    sway_ratio: np.ndarray    # (5,) sway share of micro-motion, in (0, 1)
    smooth: np.ndarray        # (5,) AR(1) coefficient of the noise part
    seed: int

    def __post_init__(self) -> None:
        for arr in (self.digram_std, self.swipe_std, self.tap_std):
            if np.any(np.asarray(arr) <= 0):
                raise ConfigInvalid("dispersion parameters must be > 0")


@dataclass(frozen=True)
class DeviceProfile:
    bias: np.ndarray  # (5, 3) additive per sensor axis
    gain: np.ndarray  # (5,) multiplicative per sensor, > 0
    period_ms: float = 50.0
    jitter: float = 0.15

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.gain) <= 0):
            raise ConfigInvalid("device gains must be > 0")


@dataclass(frozen=True)
class GenConfig:
    n_users: int = 8              # evaluation users/devices
    n_train_users: int = 8
    n_validation_users: int = 4
    sigma_between: float = 3.0
    sigma_within: float = 1.0
    imitation_alpha: float = 0.5  # 0 = no imitation, 1 = perfect copy
    device_bias_beta: float = 0.2
    tasks: tuple[TaskKind, ...] = tuple(TaskKind)
    master_seed: int = 42

    def __post_init__(self) -> None:
        if not 0.0 <= self.imitation_alpha <= 1.0:
            raise ConfigInvalid("imitation_alpha must lie in [0,1]")
        if min(self.n_users, self.n_train_users, self.n_validation_users) < 2:
            raise ConfigInvalid("each split needs at least 2 users")
        if self.sigma_between <= 0 or self.sigma_within <= 0:
            raise ConfigInvalid("separability sigmas must be > 0")
        if self.device_bias_beta < 0:
            raise ConfigInvalid("device_bias_beta must be >= 0")
        if not self.tasks:
            raise ConfigInvalid("need at least one task")


def _digram_class(first: int, second: int) -> int:
    return (first * 31 + second) % _LATENCY_CLASSES


_SPLIT_ORD = {SplitKind.Train: 0, SplitKind.Validation: 1, SplitKind.Evaluation: 2}


def _rng(config: GenConfig, *entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((config.master_seed, *entropy)))


def sample_user_profile(config: GenConfig, split: SplitKind, index: int) -> UserProfile:
    rng = _rng(config, _SPLIT_ORD[split], 1, index)
    b = config.sigma_between
    w = config.sigma_within
    return UserProfile(
        digram_mean=_LATENCY_BASE + b * _LATENCY_UNIT * rng.standard_normal(_LATENCY_CLASSES),
        digram_std=np.full(_LATENCY_CLASSES, w * _LATENCY_UNIT),
        word_weights=np.exp(0.5 * b * rng.standard_normal(len(WORDS))),
        swipe=np.array(
            [
                0.0022 + 0.00024 * b * rng.standard_normal(),    # speed, screen units/ms
                0.048 * b * rng.standard_normal() / 3.0,         # bow (signed)
                0.45 + 0.03 * b * rng.standard_normal() / 3.0,   # length
                0.5 + 0.042 * b * rng.standard_normal() / 3.0,   # lane
            ]
        ),
        swipe_std=np.array([0.0004 * w, 0.08 * w / 3.0, 0.05 * w / 3.0, 0.07 * w / 3.0]),
        tap=np.array(
            [
                95.0 + 12.0 * b * rng.standard_normal(),
                420.0 + 45.0 * b * rng.standard_normal(),
                0.5 + 0.06 * b * rng.standard_normal() / 3.0,
                0.55 + 0.06 * b * rng.standard_normal() / 3.0,
            ]
        ),
        tap_std=np.array([12.0 * w, 45.0 * w, 0.06 * w / 3.0, 0.06 * w / 3.0]),
        sway_freq=rng.uniform(0.25, 0.9, size=5),
        sway_phase=rng.uniform(0.0, 2 * np.pi, size=5),
        sway_ratio=rng.uniform(0.55, 0.85, size=5),
        smooth=rng.uniform(0.3, 0.9, size=5),
        seed=index,
    )


def sample_device_profile(config: GenConfig, split: SplitKind, index: int) -> DeviceProfile:
    rng = _rng(config, _SPLIT_ORD[split], 2, index)
    beta = config.device_bias_beta
    units = np.array([_SENSOR_BIAS_UNIT[s] for s in BACKGROUND_SENSORS])
    bias = beta * units[:, None] * rng.standard_normal((5, 3))
    gain = np.clip(1.0 + beta * 0.25 * rng.standard_normal(5), 0.5, None)
    return DeviceProfile(bias=bias, gain=gain)


def blend_profiles(impostor: UserProfile, victim: UserProfile, alpha: float) -> UserProfile:
    """Convex parameter blend impostor*(1-alpha) + victim*alpha."""
    blended = {}
    for f in fields(UserProfile):
        if f.name == "seed":
            continue
        a = getattr(impostor, f.name)
        v = getattr(victim, f.name)
        blended[f.name] = (1.0 - alpha) * a + alpha * v
    return replace(impostor, **blended)


# --- stream synthesis -----------------------------------------------------

def _keystroke_stream(user: UserProfile, rng: np.random.Generator) -> np.ndarray:
    weights = user.word_weights / user.word_weights.sum()
    words = rng.choice(len(WORDS), size=_WORDS_PER_SESSION, p=weights)
    text = " ".join(WORDS[i] for i in words)
    codes = [ord(c) for c in text]
    t = 500.0 + 200.0 * rng.random()
    times = [int(t)]
    for prev, code in zip(codes, codes[1:]):
        cls = _digram_class(prev, code)
        latency = rng.normal(user.digram_mean[cls], user.digram_std[cls])
        t += max(latency, _MIN_LATENCY)
        times.append(int(t))
    return make_stream(ModalityKind.Keystroke, np.column_stack([times, codes]))


def _round5(values) -> np.ndarray:
    """`round(v, 5)` of every element of `values`, bitwise, as a float64 array.

    `round` takes k as the half-even rounding of the exact product v * 1e5
    and returns the double nearest k * 1e-5; for exact doubles k and 1e5
    that is the IEEE quotient k / 1e5. Here k = rint(s) for s = v * 1e5
    rounded, which can differ from `round`'s k only where s itself is a
    half-integer: a half-integer strictly between the exact product and s
    would be a double nearer the product than s is. Those elements, and
    those with |s| >= 2**52 (s is then an integer or infinite), go
    through `round`.
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * 1e5
        k = np.rint(scaled)
        unsure = (np.abs(scaled) >= 2.0**52) | (np.abs(scaled - k) == 0.5)
    rounded = k / 1e5
    if unsure.any():
        rounded[unsure] = [round(v, 5) for v in values[unsure].tolist()]
    return rounded


def _swipe_stream(
    user: UserProfile, device: DeviceProfile, rng: np.random.Generator, vertical: bool
) -> np.ndarray:
    times: list[int] = []
    points: list[np.ndarray] = []  # (n_pts, 2) x, y per swipe
    actions: list[int] = []
    t = 400.0 + 300.0 * rng.random()
    for swipe_idx in range(_SWIPES_PER_SESSION):
        speed = max(rng.normal(user.swipe[0], user.swipe_std[0]), 3e-4)
        bow = rng.normal(user.swipe[1], user.swipe_std[1])
        length = min(max(rng.normal(user.swipe[2], user.swipe_std[2]), 0.15), 0.8)
        lane = min(max(rng.normal(user.swipe[3], user.swipe_std[3]), 0.1), 0.9)
        if vertical:  # reading scrolls upward
            start = np.array([lane, 0.5 + length / 2])
            end = np.array([lane, 0.5 - length / 2])
            perp = np.array([1.0, 0.0])
        else:  # gallery alternates left/right
            direction = -1.0 if swipe_idx % 2 else 1.0
            start = np.array([0.5 - direction * length / 2, lane])
            end = np.array([0.5 + direction * length / 2, lane])
            perp = np.array([0.0, 1.0])
        control = (start + end) / 2 + bow * perp
        n_pts = int(rng.integers(8, 14))
        u = np.linspace(0.0, 1.0, n_pts)[:, None]
        pts = (1 - u) ** 2 * start + 2 * u * (1 - u) * control + u**2 * end
        pts += 0.004 * rng.standard_normal(pts.shape)
        points.append(np.clip(pts, 0.0, 1.0))
        duration = length / speed
        step = duration / (n_pts - 1)
        for jitter in rng.uniform(-1.0, 1.0, size=n_pts - 1).tolist():
            times.append(int(t))
            t += step * (1.0 + device.jitter * jitter)
        times.append(int(t))
        actions += [0, *[2] * (n_pts - 2), 1]
        t += rng.uniform(280.0, 700.0)
    return make_stream(
        ModalityKind.Touch, np.column_stack([times, _round5(np.vstack(points)), actions])
    )


def _tap_stream(user: UserProfile, rng: np.random.Generator) -> np.ndarray:
    times: list[int] = []
    positions: list[tuple[float, float]] = []
    t = 400.0 + 300.0 * rng.random()
    for _ in range(_TAPS_PER_SESSION):
        x = min(max(rng.normal(user.tap[2], user.tap_std[2]), 0.0), 1.0)
        y = min(max(rng.normal(user.tap[3], user.tap_std[3]), 0.0), 1.0)
        hold = max(rng.normal(user.tap[0], user.tap_std[0]), 25.0)
        times += (int(t), int(t + hold))
        positions += ((x, y), (x, y))
        t += hold + max(rng.normal(user.tap[1], user.tap_std[1]), 40.0)
    actions = [0, 1] * _TAPS_PER_SESSION
    return make_stream(
        ModalityKind.Touch, np.column_stack([times, _round5(positions), actions])
    )


def _sensor_streams(
    user: UserProfile,
    device: DeviceProfile,
    rng: np.random.Generator,
    duration_ms: float,
) -> dict[ModalityKind, np.ndarray]:
    n_max = int(duration_ms / (device.period_ms * (1 - device.jitter))) + 2
    deltas = device.period_ms * (1.0 + device.jitter * rng.uniform(-1.0, 1.0, size=n_max))
    times = np.cumsum(deltas)
    times = times[times <= duration_ms]
    seconds = times / 1000.0
    streams: dict[ModalityKind, np.ndarray] = {}
    for s_idx, sensor in enumerate(BACKGROUND_SENSORS):
        amp = _SENSOR_AMP[sensor]
        base = _SENSOR_BASE[sensor]
        ratio = min(max(float(user.sway_ratio[s_idx]), 0.05), 0.95)
        rho = min(max(float(user.smooth[s_idx]), 0.0), 0.95)
        axes = []
        for axis in range(3):
            sway = np.sin(
                2 * np.pi * user.sway_freq[s_idx] * seconds
                + user.sway_phase[s_idx]
                + axis * 2 * np.pi / 3
            )
            innov = rng.standard_normal(seconds.size) * np.sqrt(1 - rho * rho)
            value = rng.standard_normal()
            noise = []  # AR(1) over Python floats: same doubles, no numpy scalars
            for e in innov.tolist():
                value = rho * value + e
                noise.append(value)
            signal = base[axis] + amp * (ratio * sway + (1 - ratio) * np.array(noise))
            axes.append(device.gain[s_idx] * signal + device.bias[s_idx, axis])
        streams[sensor] = make_stream(
            sensor, np.column_stack([np.trunc(times), _round5(np.column_stack(axes))])
        )
    return streams


def generate_session(
    user: UserProfile,
    device: DeviceProfile,
    task: TaskKind,
    session_seed,
    session_id: str = "s0",
    role: SessionRole = SessionRole.Unlabeled,
    device_id: str = "d0",
    subject_id: str | None = None,
) -> Session:
    """One task-appropriate session; deterministic in `session_seed`."""
    rng = np.random.default_rng(np.random.SeedSequence(session_seed))
    if task is TaskKind.Keystroke:
        modality, stream = ModalityKind.Keystroke, _keystroke_stream(user, rng)
    elif task is TaskKind.Tapping:
        modality, stream = ModalityKind.Touch, _tap_stream(user, rng)
    else:
        vertical = task is TaskKind.TextReading
        modality, stream = ModalityKind.Touch, _swipe_stream(user, device, rng, vertical)
    streams = {modality: stream}
    last_t = float(stream[-1, COL_T])
    streams.update(_sensor_streams(user, device, rng, duration_ms=last_t + 400.0))
    return Session(
        session_id=session_id,
        device_id=device_id,
        task=task,
        role=role,
        streams=streams,
        subject_id=subject_id,
    )


# --- dataset assembly -----------------------------------------------------

@dataclass(frozen=True)
class GeneratedDataset:
    train: DatasetSplit
    validation: DatasetSplit
    evaluation: DatasetSplit
    keys: dict[tuple[SplitKind, TaskKind], tuple[ComparisonList, KeyFile]]
    manifest: dict


def _session_entropy(config: GenConfig, split: SplitKind, device_idx: int, task_idx: int, slot: int):
    return (config.master_seed, _SPLIT_ORD[split], 3, device_idx, task_idx, slot)


def _train_split(config: GenConfig) -> DatasetSplit:
    sessions = []
    counter = 0
    for u in range(config.n_train_users):
        user = sample_user_profile(config, SplitKind.Train, u)
        device = sample_device_profile(config, SplitKind.Train, u)
        for task_idx, task in enumerate(config.tasks):
            for slot in range(TRAIN_SESSIONS_PER_SUBJECT):
                sessions.append(
                    generate_session(
                        user,
                        device,
                        task,
                        _session_entropy(config, SplitKind.Train, u, task_idx, slot),
                        session_id=f"t{counter:05d}",
                        role=SessionRole.Unlabeled,
                        device_id=f"d-train-{u:03d}",
                        subject_id=f"u-train-{u:03d}",
                    )
                )
                counter += 1
    return DatasetSplit(SplitKind.Train, tuple(sessions))


def _eval_like_split(config: GenConfig, split: SplitKind, n_users: int) -> DatasetSplit:
    prefix = "v" if split is SplitKind.Validation else "e"
    users = [sample_user_profile(config, split, i) for i in range(n_users)]
    devices = [sample_device_profile(config, split, i) for i in range(n_users)]
    roles = [role for role, n in SESSIONS_PER_ROLE.items() for _ in range(n)]  # one per slot
    sessions = []
    counter = 0
    for i in range(n_users):
        impostor = blend_profiles(users[(i + 1) % n_users], users[i], config.imitation_alpha)
        for task_idx, task in enumerate(config.tasks):
            for slot, role in enumerate(roles):
                profile = impostor if role is SessionRole.SkilledImpostor else users[i]
                sessions.append(
                    generate_session(
                        profile,
                        devices[i],  # skilled impostors use the victim's device
                        task,
                        _session_entropy(config, split, i, task_idx, slot),
                        session_id=f"{prefix}{counter:05d}",
                        role=role,
                        device_id=f"d-{split.value}-{i:03d}",
                    )
                )
                counter += 1
    return DatasetSplit(split, tuple(sessions))


def generate_dataset(config: GenConfig) -> GeneratedDataset:
    """Generate train/validation/evaluation splits plus comparison keys.

    Output is bitwise deterministic per master seed and parses through
    the dataset importer with zero violations.
    """
    train = _train_split(config)
    validation = _eval_like_split(config, SplitKind.Validation, config.n_validation_users)
    evaluation = _eval_like_split(config, SplitKind.Evaluation, config.n_users)
    keys: dict[tuple[SplitKind, TaskKind], tuple[ComparisonList, KeyFile]] = {}
    for split_obj in (validation, evaluation):
        for task_idx, task in enumerate(config.tasks):
            seed_seq = np.random.SeedSequence(
                (config.master_seed, _SPLIT_ORD[split_obj.split_kind], 4, task_idx)
            )
            seed = int(seed_seq.generate_state(1)[0])
            keys[(split_obj.split_kind, task)] = build_comparisons(split_obj, task, seed)
    manifest = {
        "generator": "bbauth.synth",
        "config": {f.name: getattr(config, f.name) for f in fields(config)}
        | {"tasks": [t.value for t in config.tasks]},
        "sessions": {
            "train": len(train.sessions),
            "validation": len(validation.sessions),
            "evaluation": len(evaluation.sessions),
        },
    }
    return GeneratedDataset(train, validation, evaluation, keys, manifest)
