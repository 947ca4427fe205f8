"""End-to-end synthetic benchmark: generate, score, grade.

The matcher-family/task assignments mirror each family's strongest
published setting: the n-gram matcher on keystroke, the siamese
embedding on text reading, the swipe template on gallery swiping, and
the wavelet-image and alignment matchers on tapping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .data import SplitKind, TaskKind
from .protocol import GradeReport, grade
from .runner import RunConfig, score_comparisons
from .synth import GenConfig, GeneratedDataset, generate_dataset

FAMILY_TASKS: tuple[tuple[str, TaskKind], ...] = (
    ("keystroke-ngram", TaskKind.Keystroke),
    ("siamese", TaskKind.TextReading),
    ("swipe-template", TaskKind.GallerySwiping),
    ("dwt-distance", TaskKind.Tapping),
    ("softdtw", TaskKind.Tapping),
)

#: One matcher per task, used for the random-vs-skilled comparison.
PRIMARY_MATCHERS: dict[TaskKind, str] = {
    TaskKind.Keystroke: "keystroke-ngram",
    TaskKind.TextReading: "siamese",
    TaskKind.GallerySwiping: "swipe-template",
    TaskKind.Tapping: "softdtw",
}


@dataclass(frozen=True)
class BenchmarkResult:
    generated: GeneratedDataset
    reports: dict[tuple[str, TaskKind], GradeReport]
    scores: dict[tuple[str, TaskKind], dict[str, float]]


def run_benchmark(
    config: GenConfig | None = None,
    combos: tuple[tuple[str, TaskKind], ...] = FAMILY_TASKS,
    seed: int = 0,
) -> BenchmarkResult:
    config = config or GenConfig()
    generated = generate_dataset(config)
    reports: dict[tuple[str, TaskKind], GradeReport] = {}
    scores: dict[tuple[str, TaskKind], dict[str, float]] = {}
    for matcher, task in combos:
        clist, key = generated.keys[(SplitKind.Evaluation, task)]
        run = score_comparisons(
            generated.evaluation,
            clist,
            RunConfig(matcher, task, seed=seed),
            generated.train,
        )
        reports[(matcher, task)] = grade(run.scores, key)
        scores[(matcher, task)] = run.scores
    return BenchmarkResult(generated, reports, scores)


def asymmetry_by_task(
    seeds: tuple[int, ...], base: GenConfig = GenConfig()
) -> dict[TaskKind, tuple[float, float]]:
    """Mean (random AUC, skilled AUC) per task over the given master seeds,
    each generated with `base`'s other settings."""
    sums: dict[TaskKind, list[float]] = {task: [0.0, 0.0] for task in PRIMARY_MATCHERS}
    for master_seed in seeds:
        result = run_benchmark(
            replace(base, master_seed=master_seed),
            combos=tuple((m, t) for t, m in PRIMARY_MATCHERS.items()),
        )
        for (matcher, task), report in result.reports.items():
            sums[task][0] += report.auc_random
            sums[task][1] += report.auc_skilled
    n = len(seeds)
    return {task: (acc[0] / n, acc[1] / n) for task, acc in sums.items()}
