"""Output checks, made apart from bbauth or from properties the method must have.

None of them compares against a stored copy of earlier output:

- label counts: per task 2n genuine, 2n skilled and 2n(n-1) random labels,
  and exactly one finite score in [0, 1] per comparison id;
- AUC recount: the random, skilled and mixed Mann-Whitney counts are
  recounted here and must equal `GradeReport.pair_counts`, whose mixed
  counts must be the sum of the random and the skilled ones;
- DTW kernels: `bbauth.softdtw.dtw` and `soft_dtw` must match the plain
  recursion of Cuturi & Blondel (ICML 2017) to 1e-9, and soft_dtw <= dtw;
- determinism: score maps are bitwise equal from pass to pass and across
  the runs of a step in the timing rounds;
- README floors: minimum mixed AUC per family where a workload sets them.

`self_test()` feeds every check a corrupted input and reports any check
that lets it through.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from typing import Callable

import numpy as np

from bbauth import softdtw
from passes import PassResult, Step, Workload, digest

KERNEL_GAMMAS = (0.05, 1.0)  # the library's default and the CLI's
KERNEL_TOLERANCE = 1e-9


def check_labels(step: Step, users: int) -> list[str]:
    where = f"{step.family}: "
    problems = []
    counts = Counter(step.labels.values())
    expected = {"genuine": 2 * users, "skilled": 2 * users, "random": 2 * users * (users - 1)}
    if dict(counts) != expected:
        problems.append(where + f"label counts {dict(counts)} != {expected}")
    if step.scores is None:
        return problems
    repeated = sorted(cid for cid, n in Counter(step.score_ids).items() if n > 1)
    if repeated:
        problems.append(where + f"ids scored more than once: {repeated[:5]}")
    missing = sorted(set(step.labels) - set(step.score_ids))
    extra = sorted(set(step.score_ids) - set(step.labels))
    if missing or extra:
        problems.append(where + f"unscored ids {missing[:5]}, unknown ids {extra[:5]}")
    bad = sorted(cid for cid, v in step.scores.items() if not (math.isfinite(v) and 0.0 <= v <= 1.0))
    if bad:
        problems.append(where + f"scores outside [0, 1] or not finite: {bad[:5]}")
    return problems


def mann_whitney(genuine: list[float], impostor: list[float]) -> tuple[int, int]:
    """(2*wins + ties, 2*|G|*|I|) by binary search over the sorted impostors."""
    ordered = sorted(impostor)
    num = 0
    for g in genuine:
        below = bisect.bisect_left(ordered, g)
        num += 2 * below + (bisect.bisect_right(ordered, g) - below)
    return num, 2 * len(genuine) * len(ordered)


def recount(step: Step) -> dict[str, tuple[int, int]]:
    by_label: dict[str, list[float]] = {"genuine": [], "random": [], "skilled": []}
    for cid, label in step.labels.items():
        by_label[label].append(step.scores[cid])
    genuine = by_label["genuine"]
    return {
        "random": mann_whitney(genuine, by_label["random"]),
        "skilled": mann_whitney(genuine, by_label["skilled"]),
        "mixed": mann_whitney(genuine, by_label["random"] + by_label["skilled"]),
    }


def check_auc(step: Step) -> list[str]:
    if step.scores is None or step.pair_counts is None:
        return []
    if set(step.labels) - set(step.scores):
        return []  # reported by check_labels; a recount needs every score
    where = f"{step.family}: "
    problems = []
    ours = recount(step)
    if ours != step.pair_counts:
        problems.append(where + f"recounted pairs {ours} != graded {step.pair_counts}")
    pc = step.pair_counts
    summed = tuple(r + s for r, s in zip(pc["random"], pc["skilled"]))
    if tuple(pc["mixed"]) != summed:
        problems.append(where + f"mixed pairs {pc['mixed']} != random + skilled {summed}")
    return problems


def reference_alignment(x: np.ndarray, y: np.ndarray, gamma: float | None) -> float:
    """R[i,j] = |x_i - y_j|^2 + min_gamma(R[i-1,j], R[i,j-1], R[i-1,j-1]),
    with the hard minimum when gamma is None (Cuturi & Blondel 2017)."""
    rows, cols = [list(map(float, r)) for r in x], [list(map(float, r)) for r in y]
    inf = math.inf
    prev = [0.0] + [inf] * len(cols)
    for xi in rows:
        cur = [inf]
        for j, yj in enumerate(cols, start=1):
            cost = sum((a - b) ** 2 for a, b in zip(xi, yj))
            a, b, c = prev[j], cur[j - 1], prev[j - 1]
            lo = min(a, b, c)
            if gamma is None or math.isinf(lo):
                best = lo
            else:
                best = lo - gamma * math.log(sum(math.exp(-(v - lo) / gamma) for v in (a, b, c)))
            cur.append(cost + best)
        prev = cur
    return prev[-1]


def check_kernels(pairs, dtw: Callable | None = None, soft_dtw: Callable | None = None) -> list[str]:
    dtw = dtw or softdtw.dtw
    soft_dtw = soft_dtw or softdtw.soft_dtw
    problems = []
    for k, (x, y) in enumerate(pairs):
        hard = dtw(x, y)
        expect = reference_alignment(x, y, None)
        if abs(hard - expect) > KERNEL_TOLERANCE * max(1.0, abs(expect)):
            problems.append(f"dtw pair {k}: {hard!r} != reference {expect!r}")
        for gamma in KERNEL_GAMMAS:
            soft = soft_dtw(x, y, gamma)
            expect = reference_alignment(x, y, gamma)
            if abs(soft - expect) > KERNEL_TOLERANCE * max(1.0, abs(expect)):
                problems.append(f"soft_dtw pair {k} gamma {gamma}: {soft!r} != reference {expect!r}")
            if soft > hard:
                problems.append(f"pair {k} gamma {gamma}: soft_dtw {soft!r} > dtw {hard!r}")
    return problems


def check_determinism(step: Step, first: Step | None) -> list[str]:
    reference = first.digests[0] if first is not None and first.digests else None
    digests = set(step.digests) | ({reference} if reference else set())
    if len(digests) > 1:
        return [f"{step.family}: score maps differ between passes or repeats"]
    return []


def check_floors(step: Step, floors: dict[str, float]) -> list[str]:
    floor = floors.get(step.family)
    if floor is None or step.auc is None or step.auc["mixed"] >= floor:
        return []
    return [f"{step.family}: mixed AUC {step.auc['mixed']:.2f} below the README floor {floor}"]


def check_pass(result: PassResult, workload: Workload, first: PassResult | None) -> list[str]:
    problems = check_kernels(result.kernel_pairs)
    for family, step in result.steps.items():
        problems += check_labels(step, workload.users)
        problems += check_auc(step)
        problems += check_determinism(step, first.steps[family] if first else None)
        problems += check_floors(step, workload.floors)
    if result.leaderboard is not None:
        absent = [f for f, s in result.steps.items() if s.error is None and f not in result.leaderboard]
        if absent:
            problems.append(f"leaderboard lacks {absent}")
    return problems


# --- self-test ------------------------------------------------------------------

def _sample_step(users: int = 3, seed: int = 7) -> Step:
    """A well-formed step: n users' labels, random scores, recounted pairs."""
    rng = np.random.default_rng(seed)
    labels = (["genuine"] * (2 * users) + ["skilled"] * (2 * users)
              + ["random"] * (2 * users * (users - 1)))
    ids = [f"c{i:04d}" for i in range(len(labels))]
    scores = {cid: float(v) for cid, v in zip(ids, rng.random(len(ids)))}
    step = Step("selftest", None, len(ids), digests=[digest(scores)], scores=scores,
                score_ids=list(ids), labels=dict(zip(ids, labels)))
    step.pair_counts = recount(step)
    return step


def self_test() -> list[str]:
    """Each check must pass a well-formed input and fail on a corrupted one."""
    problems = []

    def expect(name: str, found: list[str], should_fail: bool) -> None:
        if bool(found) != should_fail:
            problems.append(f"self-test {name}: check {'passed' if not found else 'failed'} "
                            f"when it should have {'failed' if should_fail else 'passed'}")

    good = _sample_step()
    expect("clean step", check_labels(good, 3) + check_auc(good), False)

    swapped = _sample_step()
    genuine = next(c for c, l in swapped.labels.items() if l == "genuine")
    impostor = next(c for c, l in swapped.labels.items() if l == "random")
    swapped.labels[genuine], swapped.labels[impostor] = "random", "genuine"
    expect("swapped labels", check_auc(swapped), True)

    missing = _sample_step()
    gone = missing.score_ids.pop()
    del missing.scores[gone]
    expect("missing score id", check_labels(missing, 3), True)

    twice = _sample_step()
    twice.score_ids.append(twice.score_ids[0])
    expect("repeated score id", check_labels(twice, 3), True)

    changed = _sample_step()
    changed.digests.append(digest({**changed.scores, changed.score_ids[0]: 0.5}))
    expect("changed repeat", check_determinism(changed, None), True)

    constant = _sample_step()
    constant.scores = dict.fromkeys(constant.scores, 1.0)
    if not constant.failed or good.failed:
        problems.append("self-test constant scores: not counted as a failed operation")

    rng = np.random.default_rng(11)
    pairs = [(rng.random((6, 4)), rng.random((9, 4)))]
    expect("clean kernels", check_kernels(pairs), False)
    expect("nudged dtw", check_kernels(pairs, dtw=lambda x, y: softdtw.dtw(x, y) + 1e-6), True)
    expect("nudged soft_dtw",
           check_kernels(pairs, soft_dtw=lambda x, y, g: softdtw.soft_dtw(x, y, g) + 1e-6), True)
    return problems
