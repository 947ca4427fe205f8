"""Matcher engine: turns a comparison list into a score map.

A matcher prepares one artifact per named session, enrolls each distinct
enrollment pair once, at the first comparison that uses it, into a model
built from the pair's artifacts, and verifies every comparison's artifact
against its pair's model. Output order follows the comparison list, and
every score is the matcher's value clamped to [0, 1], with higher meaning
more genuine, so a comparison's score never depends on the rest of the list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .data import DatasetSplit, Session, TaskKind
from .dwt import DwtImageConfig, dwt_score, mean_image, task_image
from .errors import BBAuthError, EmptySequence
from .keystroke import enroll_profiles, keystroke_profile, keystroke_score
from .preprocess import compute_target_lengths, stack_modalities
from .protocol import ComparisonList
from .siamese import TrainConfig, build_pair_set, forward, siamese_score, train
from .softdtw import calibrate, softdtw_score
from .touch import build_dtw_sequence, build_template, session_feature_vectors, template_score


@dataclass
class RunConfig:
    matcher: str
    task: TaskKind
    seed: int = TrainConfig.seed
    # softdtw; 0.05 keeps the smoothed minimum sharp on [0,1]-scaled features
    gamma: float = 0.05
    # siamese
    margin: float = TrainConfig.margin
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    # dwt
    dwt_length: int = DwtImageConfig.length
    dwt_width: int = DwtImageConfig.width

    def __post_init__(self) -> None:
        if self.matcher not in MATCHERS:
            raise ValueError(f"unknown matcher {self.matcher!r}")
        validate_matcher_task(self.matcher, self.task)


def validate_matcher_task(matcher: str, task: TaskKind) -> None:
    if matcher == "keystroke-ngram" and task is not TaskKind.Keystroke:
        raise ValueError("keystroke-ngram only applies to the keystroke task")
    if matcher == "swipe-template" and task is TaskKind.Keystroke:
        raise ValueError("swipe-template needs touch strokes, which the keystroke task lacks")


class _KeystrokeMatcher:
    def __init__(self, config: RunConfig, train_split):
        pass

    def prepare(self, session: Session):
        return keystroke_profile(session)

    def enroll(self, artifacts):
        return enroll_profiles(artifacts)

    def verify(self, model, artifact) -> float:
        return keystroke_score(model, artifact)


class _SwipeTemplateMatcher:
    def __init__(self, config: RunConfig, train_split):
        pass

    def prepare(self, session: Session):
        return session_feature_vectors(session)

    def enroll(self, artifacts):
        return build_template(np.vstack(artifacts))

    def verify(self, model, artifact) -> float:
        return template_score(model, artifact)


class _DwtMatcher:
    def __init__(self, config: RunConfig, train_split):
        self.image_config = DwtImageConfig(length=config.dwt_length, width=config.dwt_width)

    def prepare(self, session: Session):
        return task_image(session, self.image_config)

    def enroll(self, artifacts):
        return mean_image(artifacts)

    def verify(self, model, artifact) -> float:
        return dwt_score(model, artifact)


class _SoftDtwMatcher:
    def __init__(self, config: RunConfig, train_split: DatasetSplit):
        self.gamma = config.gamma
        self.task = config.task
        self.calibration = calibrate(train_split, config.task, config.gamma)

    def prepare(self, session: Session) -> np.ndarray:
        sequence = build_dtw_sequence(session, self.task)
        if len(sequence) == 0:
            raise EmptySequence("the alignment sequence is empty (no strokes)")
        return self.calibration.scale.apply(sequence)

    def enroll(self, artifacts) -> list[np.ndarray]:
        return artifacts

    def verify(self, model, artifact) -> float:
        return softdtw_score(model, artifact, self.gamma, self.calibration.tau)


class _SiameseMatcher:
    def __init__(self, config: RunConfig, train_split: DatasetSplit):
        self.target_len = compute_target_lengths(train_split.sessions)[config.task]
        by_subject: dict[str, list[np.ndarray]] = {}
        for s in train_split.sessions_for(config.task):
            if s.subject_id is not None:
                by_subject.setdefault(s.subject_id, []).append(self._features(s))
        pairs = build_pair_set(by_subject, config.seed)
        train_config = TrainConfig(**{f.name: getattr(config, f.name) for f in fields(TrainConfig)})
        self.params = train(pairs, train_config).params

    def _features(self, session: Session) -> np.ndarray:
        return stack_modalities(session, session.task, self.target_len).reshape(-1)

    def prepare(self, session: Session) -> np.ndarray:
        return forward(self.params, self._features(session), "infer")

    def enroll(self, artifacts) -> list[np.ndarray]:
        return artifacts

    def verify(self, model, artifact) -> float:
        return siamese_score(model, artifact)


_MATCHER_CLASSES = {
    "keystroke-ngram": _KeystrokeMatcher,
    "swipe-template": _SwipeTemplateMatcher,
    "dwt-distance": _DwtMatcher,
    "softdtw": _SoftDtwMatcher,
    "siamese": _SiameseMatcher,
}
MATCHERS = tuple(_MATCHER_CLASSES)
#: The families fitted on a training split: softdtw calibrates its feature
#: scale and tau on it, siamese trains on it.
TRAINED_MATCHERS = ("softdtw", "siamese")


@dataclass
class ScoreRun:
    scores: dict[str, float]  # in comparison-list order
    # setup_s, prepare_s, score_s (enrollment models and verification) and comparisons
    timings: dict[str, float] = field(default_factory=dict)


def score_comparisons(split: DatasetSplit, comparison_list: ComparisonList, config: RunConfig,
                      train_split: DatasetSplit | None = None) -> ScoreRun:
    """Score every comparison in list order; deterministic per config.

    `train_split` is required for the `TRAINED_MATCHERS` and unused by the rest.
    """
    if config.task is not comparison_list.task:
        raise ValueError("run config task differs from the comparison list task")
    if train_split is None and config.matcher in TRAINED_MATCHERS:
        raise ValueError(f"{config.matcher} needs a training split")
    t0 = time.perf_counter()
    matcher = _MATCHER_CLASSES[config.matcher](config, train_split)
    t_setup = time.perf_counter() - t0

    sessions = split.by_id()
    needed = list(dict.fromkeys(  # every named session once, in order of first mention
        sid for c in comparison_list.comparisons
        for sid in (*c.enrollment_session_ids, c.verification_session_id)))
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
    models = {}  # enrollment session ids -> model
    scores: dict[str, float] = {}
    for c in comparison_list.comparisons:
        try:
            model = models.get(c.enrollment_session_ids)
            if model is None:
                model = matcher.enroll([artifacts[sid] for sid in c.enrollment_session_ids])
                models[c.enrollment_session_ids] = model
            value = matcher.verify(model, artifacts[c.verification_session_id])
        except BBAuthError as exc:
            raise type(exc)(f"comparison {c.comparison_id!r}: {exc}") from None
        scores[c.comparison_id] = min(max(float(value), 0.0), 1.0)
    t_score = time.perf_counter() - t0
    return ScoreRun(scores, {"setup_s": t_setup, "prepare_s": t_prepare, "score_s": t_score,
                             "comparisons": float(len(comparison_list.comparisons))})
