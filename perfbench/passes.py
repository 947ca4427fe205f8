"""Workloads and the closed-loop pass: generate -> score every family -> grade.

One caller drives each pass and waits for every step before the next.
Library workloads call `bbauth.synth`, `bbauth.runner` and
`bbauth.protocol` directly; the CLI workload runs the README's command
sequence through `bbauth.cli.main` in a temporary directory.

Every call into bbauth goes through a module attribute (`synth.generate_dataset`,
never a name imported into this file), so that a traced pass sees the
wrappers that `tracing.Tracer` installs on those attributes.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from bbauth import benchmark, cli, protocol, runner, synth, touch
from bbauth.data import SplitKind, TaskKind
from clock import Stopwatch

FAMILY_TASKS: tuple[tuple[str, TaskKind], ...] = benchmark.FAMILY_TASKS
FAMILIES: tuple[str, ...] = tuple(family for family, _ in FAMILY_TASKS)

#: Generator settings of the hard configuration (below AUC saturation).
HARD = {"sigma_between": 1.3, "imitation_alpha": 0.8}

#: The synth seed of the README's command sequence, which the CLI workload
#: keeps; its --seed goes to `bbauth score --seed` instead. At this seed the
#: CLI's softdtw step collapses to one score; at other synth seeds it
#: sometimes keeps a second value, which would make the failure depend on
#: the seed.
README_SYNTH_SEED = 42

#: Warm-up size: every split at two users, siamese trained for one epoch.
WARMUP_USERS = 2
WARMUP_EPOCHS = 1

#: Kernel-check sample per pass: sequence pairs, rows kept per sequence.
DTW_SAMPLE_PAIRS = 3
DTW_SAMPLE_ROWS = 40


@dataclass(frozen=True)
class Workload:
    name: str
    users: int
    hard: bool
    via_cli: bool
    #: The README quality floors (mixed AUC, percent) checked on every pass.
    floors: dict[str, float] = field(default_factory=dict)

    def gen_config(self, seed: int, users: int | None = None) -> synth.GenConfig:
        extra = HARD if self.hard else {}
        if users is None:
            return synth.GenConfig(n_users=self.users, master_seed=seed, **extra)
        return synth.GenConfig(n_users=users, n_train_users=users, n_validation_users=users,
                               master_seed=seed, **extra)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "frozen-8", users=8, hard=False, via_cli=False,
            floors={family: 75.0 if family == "keystroke-ngram" else 65.0 for family in FAMILIES},
        ),
        Workload("cli-hard-16", users=16, hard=True, via_cli=True),
    )
}

#: Families whose score step is timed again in the rounds after the pass.
#: Siamese never is: one training run costs about 10 s.
REPEATED: tuple[str, ...] = tuple(family for family in FAMILIES if family != "siamese")

#: The reference kind (see clock.py) of a family's score step where it is
#: not the library pipeline's own: siamese training runs mostly in BLAS.
STEP_KIND = {"siamese": "blas"}

#: The reference kind of every CLI stage. Their cost is mostly decoding the
#: 12 MB evaluation split, which slow phases slow less than the `python`
#: reference and about as much as the `blas` one: over 48 keystroke score
#: steps the spread was 0.177 in wall time, 0.250 against `python` and
#: 0.133 against `blas`.
CLI_KIND = "blas"


@dataclass
class Step:
    """One family's score step within a pass, plus its runs in the timing rounds."""

    family: str
    task: TaskKind
    comparisons: int
    seconds: list[float] = field(default_factory=list)  # reference units; the pass's run first
    wall: list[float] = field(default_factory=list)     # the same runs on the clock
    digests: list[str] = field(default_factory=list)    # score-map digest of each run
    scores: dict[str, float] | None = None  # None when the step raised
    score_ids: list[str] = field(default_factory=list)  # ids in output order, as written
    labels: dict[str, str] = field(default_factory=dict)  # comparison id -> label
    pair_counts: dict[str, tuple[int, int]] | None = None
    auc: dict[str, float] | None = None     # mixed / random / skilled, percent
    error: str | None = None

    @property
    def failed(self) -> bool:
        """A step fails when it raises or gives every comparison the same score."""
        return self.error is not None or not self.scores or len(set(self.scores.values())) == 1

    def record(self, watch: Stopwatch) -> None:
        self.seconds.append(watch.seconds)
        self.wall.append(watch.wall)


@dataclass
class PassResult:
    seconds: float                 # the pass's stages, summed, in reference units
    wall: float                    # the same stages on the clock
    steps: dict[str, Step]
    kernel_pairs: list[tuple[np.ndarray, np.ndarray]]
    #: Scores one family's step again on the pass's inputs; returns its digest.
    score_again: Callable[[str, TaskKind], str]
    leaderboard: str | None = None
    #: The reference kind of the steps' runs in the rounds (see clock.py).
    round_kind: str = "python"


def digest(scores: dict[str, float]) -> str:
    """Bitwise fingerprint of a score map (ids and exact float values)."""
    h = hashlib.sha256()
    for cid in sorted(scores):
        h.update(f"{cid}={float(scores[cid]).hex()};".encode())
    return h.hexdigest()


def rss_mb() -> float:
    """Current resident set size; the peak when /proc is not available."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
        return pages * resource.getpagesize() / 2**20
    except (OSError, IndexError, ValueError):
        return peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _sample_pairs(sequences: list[np.ndarray], seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded pairs of distinct sequences, truncated and MinMax-scaled per pair."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(DTW_SAMPLE_PAIRS):
        i, j = rng.choice(len(sequences), size=2, replace=False)
        x = np.asarray(sequences[i], dtype=float)[:DTW_SAMPLE_ROWS]
        y = np.asarray(sequences[j], dtype=float)[:DTW_SAMPLE_ROWS]
        lo = np.minimum(x.min(axis=0), y.min(axis=0))
        span = np.maximum(x.max(axis=0), y.max(axis=0)) - lo
        span[span == 0] = 1.0
        pairs.append(((x - lo) / span, (y - lo) / span))
    return pairs


def repeat_rounds(result: PassResult, deadline: float) -> int:
    """Time rounds of the `REPEATED` score steps until `deadline`; return the count.

    A round scores each of those families once, so every run does whole
    rounds of the same work. A round starts only if it would end before
    the deadline, were it as long as the round (or pass) before it.
    """
    steps = [result.steps[family] for family in REPEATED if result.steps[family].error is None]
    rounds, last = 0, sum(step.wall[0] for step in steps)  # the pass's own runs, at first
    while steps and time.perf_counter() + last < deadline:
        began = time.perf_counter()
        for step in steps:
            with Stopwatch(result.round_kind) as watch:
                fingerprint = result.score_again(step.family, step.task)
            step.record(watch)
            step.digests.append(fingerprint)
        last = time.perf_counter() - began
        rounds += 1
    return rounds


# --- library path -----------------------------------------------------------

class LibraryPipeline:
    """generate_dataset -> score_comparisons per family -> grade, in memory."""

    def __init__(self, workload: Workload, workdir: Path):
        self.workload = workload

    def setup(self, seed: int) -> None:
        synth.generate_dataset(self.workload.gen_config(seed))

    def warm_up(self, seed: int) -> None:
        generated = synth.generate_dataset(self.workload.gen_config(seed, users=WARMUP_USERS))
        for family, task in FAMILY_TASKS:
            clist, key = generated.keys[(SplitKind.Evaluation, task)]
            config = runner.RunConfig(family, task, epochs=WARMUP_EPOCHS)
            run = runner.score_comparisons(generated.evaluation, clist, config, generated.train)
            protocol.grade(run.scores, key)

    def run_pass(self, seed: int, on_stage: Callable[[str], None] | None = None) -> PassResult:
        stage = on_stage or (lambda name: None)
        stages = []  # the Stopwatch of every stage of the pass
        with Stopwatch() as watch:
            generated = synth.generate_dataset(self.workload.gen_config(seed))
        stages.append(watch)
        stage("generate")
        steps: dict[str, Step] = {}
        for family, task in FAMILY_TASKS:
            clist, key = generated.keys[(SplitKind.Evaluation, task)]
            step = Step(family, task, len(clist.comparisons),
                        labels={cid: label.value for cid, label in key.labels.items()})
            watch = Stopwatch(STEP_KIND.get(family, "python"))
            try:
                with watch:
                    run = runner.score_comparisons(generated.evaluation, clist,
                                                   runner.RunConfig(family, task), generated.train)
            except Exception as exc:  # a raising step is a failed operation, not a crash
                step.error = f"{type(exc).__name__}: {exc}"
            else:
                step.scores = run.scores
                step.score_ids = list(run.scores)
                step.digests.append(digest(run.scores))
                with Stopwatch() as grading:
                    report = protocol.grade(run.scores, key)
                stages.append(grading)
                step.pair_counts = dict(report.pair_counts)
                step.auc = {"mixed": report.auc_mixed, "random": report.auc_random,
                            "skilled": report.auc_skilled}
            step.record(watch)
            stages.append(watch)
            steps[family] = step
            stage(family)
        stage("pass")

        def score_again(family: str, task: TaskKind) -> str:
            clist, _ = generated.keys[(SplitKind.Evaluation, task)]
            run = runner.score_comparisons(generated.evaluation, clist,
                                           runner.RunConfig(family, task), generated.train)
            return digest(run.scores)

        # Unwrapped, so that the checks' own calls stay out of a trace.
        build = inspect.unwrap(touch.build_dtw_sequence)
        tapping = generated.evaluation.sessions_for(TaskKind.Tapping)
        sequences = [build(s, TaskKind.Tapping) for s in tapping]
        return PassResult(sum(w.seconds for w in stages), sum(w.wall for w in stages), steps,
                          _sample_pairs(sequences, seed), score_again)


# --- CLI path ---------------------------------------------------------------

class CliFailure(RuntimeError):
    pass


def _cli(argv: list[str]) -> None:
    """Run one `bbauth` command in-process, its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise CliFailure(f"bbauth {argv[0]} exited with {code}")


class CliPipeline:
    """The README sequence: synth, then score and grade per family, then report."""

    def __init__(self, workload: Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir

    def _synth(self, out: Path, users: int | None = None) -> None:
        config = self.workload.gen_config(README_SYNTH_SEED, users)
        _cli(["synth", "--users", str(config.n_users),
              "--train-users", str(config.n_train_users),
              "--val-users", str(config.n_validation_users),
              "--sigma-between", repr(config.sigma_between),
              "--alpha", repr(config.imitation_alpha),
              "--seed", str(config.master_seed), "--out", str(out), "--force"])

    def _score_argv(self, data: Path, family: str, task: TaskKind, seed: int, *extra: str
                    ) -> list[str]:
        return ["score", "--data", str(data / "evaluation.json"),
                "--train", str(data / "train.json"),
                "--comparisons", str(data / f"comparisons_evaluation_{task.value}.json"),
                "--matcher", family, "--out", str(data / f"{family}.csv"),
                "--seed", str(seed), *extra]

    def _grade(self, data: Path, family: str, task: TaskKind) -> None:
        _cli(["grade", "--scores", str(data / f"{family}.csv"),
              "--key", str(data / f"key_evaluation_{task.value}.json"),
              "--out-prefix", str(data / family)])

    def setup(self, seed: int) -> None:
        self._synth(self.workdir / "data")

    def warm_up(self, seed: int) -> None:
        data = self.workdir / "warm-up"
        self._synth(data, users=WARMUP_USERS)
        for family, task in FAMILY_TASKS:
            _cli(self._score_argv(data, family, task, seed, "--epochs", str(WARMUP_EPOCHS)))
            self._grade(data, family, task)
        _cli(["report", *(f"--entry={f}={data / f}.json" for f in FAMILIES),
              "--out", str(data / "board.txt")])

    def run_pass(self, seed: int, on_stage: Callable[[str], None] | None = None) -> PassResult:
        stage = on_stage or (lambda name: None)
        data = self.workdir / "data"
        stages = []  # the Stopwatch of every stage of the pass
        with Stopwatch(CLI_KIND) as watch:
            self._synth(data)
        stages.append(watch)
        stage("generate")
        steps: dict[str, Step] = {}
        for family, task in FAMILY_TASKS:
            step = Step(family, task, 0)
            watch = Stopwatch(CLI_KIND)
            try:
                with watch:
                    _cli(self._score_argv(data, family, task, seed))
            except CliFailure as exc:
                step.error = str(exc)
            else:
                with Stopwatch(CLI_KIND) as grading:
                    self._grade(data, family, task)
                stages.append(grading)
            step.record(watch)
            stages.append(watch)
            steps[family] = step
            stage(family)
        graded = [f for f in FAMILIES if steps[f].error is None]
        with Stopwatch(CLI_KIND) as watch:
            _cli(["report", *(f"--entry={f}={data / f}.json" for f in graded),
                  "--out", str(data / "board.txt")])
        stages.append(watch)
        stage("pass")

        # Everything below reads the files back with the standard library only.
        for family, task in FAMILY_TASKS:
            step = steps[family]
            labels = json.loads((data / f"key_evaluation_{task.value}.json").read_text())["labels"]
            step.labels = labels
            step.comparisons = len(labels)
            if step.error is not None:
                continue
            step.score_ids, step.scores = read_score_csv((data / f"{family}.csv").read_text())
            step.digests.append(digest(step.scores))
            report = json.loads((data / f"{family}.json").read_text())
            step.pair_counts = {k: (int(v[0]), int(v[1])) for k, v in report["pair_counts"].items()}
            step.auc = {k: 100.0 * n / d for k, (n, d) in step.pair_counts.items()}

        def score_again(family: str, task: TaskKind) -> str:
            _cli(self._score_argv(data, family, task, seed))
            return digest(read_score_csv((data / f"{family}.csv").read_text())[1])

        evaluation = json.loads((data / "evaluation.json").read_text())
        sequences = [
            [row[:3] for row in s["streams"]["touch"]]
            for s in evaluation["sessions"]
            if s["task"] == TaskKind.Tapping.value and len(s["streams"].get("touch", ())) >= 2
        ]
        return PassResult(sum(w.seconds for w in stages), sum(w.wall for w in stages), steps,
                          _sample_pairs(sequences, seed), score_again,
                          leaderboard=(data / "board.txt").read_text(), round_kind=CLI_KIND)


def read_score_csv(text: str) -> tuple[list[str], dict[str, float]]:
    """The ids of a `comparison_id,score` file in row order, and its score map."""
    ids: list[str] = []
    scores: dict[str, float] = {}
    for line in text.splitlines()[1:]:
        if line:
            cid, value = line.split(",")
            ids.append(cid)
            scores.setdefault(cid, float(value))
    return ids, scores


def pipeline(workload: Workload, workdir: Path):
    return (CliPipeline if workload.via_cli else LibraryPipeline)(workload, workdir)
