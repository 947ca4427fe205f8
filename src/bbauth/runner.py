"""Matcher engine: turns a comparison list into a score map.

Each matcher prepares one artifact per session (template features,
wavelet image, alignment sequence, or embedding) exactly once, then
scores comparisons against the cached artifacts, one after another.
Output order follows the comparison list, and every score is the
matcher's value clamped to [0, 1], with higher meaning more genuine, so
a comparison's score never depends on the rest of the list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import DatasetSplit, Session, TaskKind
from .dwt import DwtImageConfig, dwt_score, task_image
from .errors import BBAuthError, EmptySequence
from .keystroke import keystroke_score
from .preprocess import compute_target_lengths, stack_modalities
from .protocol import ComparisonList
from .siamese import TrainConfig, build_pair_set, forward, siamese_score, train
from .softdtw import SoftDtwCalibration, calibrate, fit_feature_scale, softdtw_score
from .touch import build_dtw_sequence, build_template, session_feature_vectors, template_score

MATCHERS = ("keystroke-ngram", "swipe-template", "dwt-distance", "softdtw", "siamese")


@dataclass
class RunConfig:
    matcher: str
    task: TaskKind
    seed: int = TrainConfig.seed
    # softdtw; 0.05 keeps the smoothed minimum sharp on [0,1]-scaled features
    gamma: float = 0.05
    tau: float | None = None  # calibrated from the training split when None
    # siamese
    margin: float = TrainConfig.margin
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    target_len: int | None = None  # stacking length; from training averages when None
    # dwt
    dwt_length: int = DwtImageConfig.length
    dwt_width: int = DwtImageConfig.width
    # keystroke
    top_k: int | None = None

    def __post_init__(self) -> None:
        if self.matcher not in MATCHERS:
            raise ValueError(f"unknown matcher {self.matcher!r}")
        validate_matcher_task(self.matcher, self.task)


def validate_matcher_task(matcher: str, task: TaskKind) -> None:
    if matcher == "keystroke-ngram" and task is not TaskKind.Keystroke:
        raise ValueError("keystroke-ngram only applies to the keystroke task")


class _KeystrokeMatcher:
    def __init__(self, config: RunConfig, train_split):
        self.top_k = config.top_k

    def prepare(self, session: Session) -> Session:
        return session

    def score(self, enroll, verify) -> float:
        return keystroke_score(list(enroll), verify, top_k=self.top_k)


class _SwipeTemplateMatcher:
    def __init__(self, config: RunConfig, train_split):
        pass

    def prepare(self, session: Session):
        return session_feature_vectors(session)

    def score(self, enroll, verify) -> float:
        return template_score(build_template(np.vstack(enroll)), verify)


class _DwtMatcher:
    def __init__(self, config: RunConfig, train_split):
        self.image_config = DwtImageConfig(length=config.dwt_length, width=config.dwt_width)

    def prepare(self, session: Session):
        return task_image(session, self.image_config)

    def score(self, enroll, verify) -> float:
        return dwt_score(list(enroll), verify)


class _SoftDtwMatcher:
    def __init__(self, config: RunConfig, train_split: DatasetSplit | None):
        self.gamma = config.gamma
        self.task = config.task
        self.scale = None
        if config.tau is not None:
            self.tau = config.tau
        else:
            if train_split is None:
                raise ValueError("softdtw needs a training split to calibrate tau")
            calibration: SoftDtwCalibration = calibrate(train_split, config.task, config.gamma)
            self.tau = calibration.tau
            self.scale = calibration.scale

    def prepare(self, session: Session) -> np.ndarray:
        sequence = build_dtw_sequence(session, self.task)
        if len(sequence) == 0:
            raise EmptySequence("the alignment sequence is empty (no strokes)")
        return sequence if self.scale is None else self.scale.apply(sequence)

    def score(self, enroll, verify) -> float:
        if self.scale is None:  # tau from the config: scale on the compared sequences' rows
            pooled = fit_feature_scale([*enroll, verify])
            enroll, verify = [pooled.apply(s) for s in enroll], pooled.apply(verify)
        return softdtw_score(enroll, verify, self.gamma, self.tau)


class _SiameseMatcher:
    def __init__(self, config: RunConfig, train_split: DatasetSplit | None):
        if train_split is None:
            raise ValueError("siamese needs a training split")
        self.task = config.task
        if config.target_len is not None:
            self.target_len = config.target_len
        else:
            self.target_len = compute_target_lengths(train_split.sessions)[config.task]
        by_subject: dict[str, list[np.ndarray]] = {}
        for s in train_split.sessions_for(config.task):
            if s.subject_id is None:
                continue
            by_subject.setdefault(s.subject_id, []).append(self._features(s))
        pairs = build_pair_set(by_subject, config.seed)
        train_config = TrainConfig(
            learning_rate=config.learning_rate,
            epochs=config.epochs,
            batch_size=config.batch_size,
            margin=config.margin,
            seed=config.seed,
        )
        self.params = train(pairs, train_config).params

    def _features(self, session: Session) -> np.ndarray:
        return stack_modalities(session, session.task, self.target_len).reshape(-1)

    def prepare(self, session: Session) -> np.ndarray:
        return forward(self.params, self._features(session), "infer")

    def score(self, enroll, verify) -> float:
        return siamese_score(enroll, verify)


_MATCHER_CLASSES = {
    "keystroke-ngram": _KeystrokeMatcher,
    "swipe-template": _SwipeTemplateMatcher,
    "dwt-distance": _DwtMatcher,
    "softdtw": _SoftDtwMatcher,
    "siamese": _SiameseMatcher,
}


@dataclass
class ScoreRun:
    scores: dict[str, float]  # in comparison-list order
    timings: dict[str, float] = field(default_factory=dict)


def score_comparisons(
    split: DatasetSplit,
    comparison_list: ComparisonList,
    config: RunConfig,
    train_split: DatasetSplit | None = None,
) -> ScoreRun:
    """Score every comparison in list order; deterministic per config."""
    validate_matcher_task(config.matcher, comparison_list.task)
    if config.task is not comparison_list.task:
        raise ValueError("run config task differs from the comparison list task")
    t0 = time.perf_counter()
    matcher = _MATCHER_CLASSES[config.matcher](config, train_split)
    t_setup = time.perf_counter() - t0

    sessions = split.by_id()
    needed: list[str] = []
    seen: set[str] = set()
    for c in comparison_list.comparisons:
        for sid in (*c.enrollment_session_ids, c.verification_session_id):
            if sid not in seen:
                seen.add(sid)
                needed.append(sid)
    missing = [sid for sid in needed if sid not in sessions]
    if missing:
        raise BBAuthError("comparison list names unknown sessions: " + ", ".join(sorted(missing)))

    t0 = time.perf_counter()
    artifacts = {}
    for sid in needed:
        try:
            artifacts[sid] = matcher.prepare(sessions[sid])
        except BBAuthError as exc:
            raise type(exc)(f"session {sid!r}: {exc}") from None
    t_prepare = time.perf_counter() - t0

    t0 = time.perf_counter()
    scores: dict[str, float] = {}
    for c in comparison_list.comparisons:
        enroll = [artifacts[sid] for sid in c.enrollment_session_ids]
        try:
            value = matcher.score(enroll, artifacts[c.verification_session_id])
        except BBAuthError as exc:
            raise type(exc)(f"comparison {c.comparison_id!r}: {exc}") from None
        scores[c.comparison_id] = min(max(float(value), 0.0), 1.0)
    t_score = time.perf_counter() - t0
    return ScoreRun(
        scores,
        {"setup_s": t_setup, "prepare_s": t_prepare, "score_s": t_score,
         "comparisons": float(len(comparison_list.comparisons))},
    )
