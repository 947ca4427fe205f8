"""Comparison-list construction, score grading, and the leaderboard.

Per device and task, two genuine sessions enroll the user, the two
remaining genuine sessions and the two skilled-impostor sessions are
verified against that enrollment, and random-impostor comparisons pair
the enrollment with every genuine verification session of every other
device. The grader reconstructs the three score distributions from a
pseudonymized key and reports AUC per impostor scenario; the mixed
scenario pools random and skilled impostors. AUC is exact Mann-Whitney
pair counting with half credit for ties, so auc(g, i) + auc(i, g) = 1
holds exactly.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import SESSIONS_PER_ROLE, DatasetSplit, Session, SessionRole, SplitKind, TaskKind
from .errors import (
    EmptyDistribution,
    IncompleteDevice,
    MalformedDocument,
    MissingScore,
    NonFiniteScore,
    SchemaViolation,
)


def _loads(text: str, what: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"{what}: not valid JSON: {exc}") from None


class Label(enum.Enum):
    Genuine = "genuine"
    RandomImpostor = "random"
    SkilledImpostor = "skilled"


@dataclass(frozen=True)
class Comparison:
    comparison_id: str
    enrollment_session_ids: tuple[str, str]
    verification_session_id: str


@dataclass(frozen=True)
class ComparisonList:
    task: TaskKind
    comparisons: tuple[Comparison, ...]


@dataclass(frozen=True)
class KeyFile:
    labels: dict[str, Label]


def _device_sessions(split: DatasetSplit, task: TaskKind) -> dict[str, dict[SessionRole, list[Session]]]:
    devices: dict[str, dict[SessionRole, list[Session]]] = {}
    for s in split.sessions_for(task):
        devices.setdefault(s.device_id, {}).setdefault(s.role, []).append(s)
    return devices


def build_comparisons(split: DatasetSplit, task: TaskKind, seed: int) -> tuple[ComparisonList, KeyFile]:
    """Build the pseudonymized comparison list and its label key.

    Each enrollment pair is compared with its device's genuine and skilled
    verification sessions and, as random impostors, with every other
    device's genuine verification sessions. Comparison ids are opaque:
    the full list is shuffled by a generator seeded with `seed` before ids
    are assigned, so neither id nor position leaks the label.
    """
    if split.split_kind is SplitKind.Train:
        raise ValueError("comparisons are built over validation or evaluation splits")

    devices = _device_sessions(split, task)
    for device_id in sorted(devices):
        roles = devices[device_id]
        for role, expected in SESSIONS_PER_ROLE.items():
            if len(roles.get(role, [])) != expected:
                raise IncompleteDevice(
                    f"device {device_id!r} task {task.value!r}: expected {expected} "
                    f"{role.value!r} sessions, found {len(roles.get(role, []))}"
                )

    entries: list[tuple[tuple[str, str], str, Label]] = []
    ordered_devices = sorted(devices)
    for device_id in ordered_devices:
        roles = devices[device_id]
        enroll_pair = tuple(sorted(s.session_id for s in roles[SessionRole.GenuineEnroll]))
        for s in sorted(roles[SessionRole.GenuineVerify], key=lambda s: s.session_id):
            entries.append((enroll_pair, s.session_id, Label.Genuine))
        for s in sorted(roles[SessionRole.SkilledImpostor], key=lambda s: s.session_id):
            entries.append((enroll_pair, s.session_id, Label.SkilledImpostor))
        for other in ordered_devices:
            if other != device_id:
                for s in sorted(devices[other][SessionRole.GenuineVerify], key=lambda s: s.session_id):
                    entries.append((enroll_pair, s.session_id, Label.RandomImpostor))

    order = np.random.default_rng(seed).permutation(len(entries))
    comparisons = []
    labels: dict[str, Label] = {}
    for position, entry_idx in enumerate(order):
        enroll_pair, verify_id, label = entries[entry_idx]
        cid = f"c{position:06d}"
        comparisons.append(Comparison(cid, enroll_pair, verify_id))
        labels[cid] = label
    return ComparisonList(task, tuple(comparisons)), KeyFile(labels)


# --- AUC ------------------------------------------------------------------

def auc_counts(genuine_scores, impostor_scores) -> tuple[int, int]:
    """Exact Mann-Whitney pair counts: (2*wins + ties, 2*|G|*|I|).

    Counted by binary search in the sorted impostor scores, in
    O((|G| + |I|) log |I|) time and O(|G| + |I|) memory. A NaN score
    wins and ties against nothing.
    """
    g = np.asarray(list(genuine_scores), dtype=float)
    i = np.asarray(list(impostor_scores), dtype=float)
    if g.size == 0 or i.size == 0:
        raise EmptyDistribution("both score distributions must be non-empty")
    ranked = np.sort(i[~np.isnan(i)])
    g_ok = g[~np.isnan(g)]
    below = np.searchsorted(ranked, g_ok, side="left")  # impostor scores < g
    at_most = np.searchsorted(ranked, g_ok, side="right")  # impostor scores <= g
    wins = int(below.sum())
    ties = int((at_most - below).sum())
    return 2 * wins + ties, 2 * g.size * i.size


def auc(genuine_scores, impostor_scores) -> float:
    """Probability a genuine score exceeds an impostor score (ties count half)."""
    num, den = auc_counts(genuine_scores, impostor_scores)
    return num / den


# --- grading ----------------------------------------------------------------

#: A graded score set with at most this many distinct values is reported as
#: degenerate: its AUC measures ties, not a matcher's ranking.
DEGENERATE_DISTINCT_SCORES = 2


@dataclass(frozen=True)
class GradeReport:
    """Per-scenario AUC in percent plus label counts and diagnostics.

    `pair_counts` holds the exact (numerator, denominator) pairs per
    scenario; the mixed numerator and denominator equal the sums of the
    random and skilled ones by construction.
    """

    auc_mixed: float
    auc_random: float
    auc_skilled: float
    counts: dict[str, int]
    warnings: tuple[str, ...]
    pair_counts: dict[str, tuple[int, int]]


def grade(scores: dict[str, float], key: KeyFile) -> GradeReport:
    """Grade a score map against the label key.

    Missing comparison ids abort with the full id list; unknown extra
    ids only warn; NaN or infinite scores abort. Graded scores with at
    most `DEGENERATE_DISTINCT_SCORES` distinct values also warn.
    """
    missing = sorted(cid for cid in key.labels if cid not in scores)
    if missing:
        raise MissingScore("score file lacks ids: " + ", ".join(missing))
    warnings = [
        f"ignored unknown comparison id {cid!r}" for cid in sorted(scores) if cid not in key.labels
    ]
    by_label: dict[Label, list[float]] = {label: [] for label in Label}
    for cid, label in key.labels.items():
        value = scores[cid]
        if not math.isfinite(value):
            raise NonFiniteScore(f"comparison {cid!r} has non-finite score {value!r}")
        by_label[label].append(value)

    genuine = by_label[Label.Genuine]
    random_scores = by_label[Label.RandomImpostor]
    skilled = by_label[Label.SkilledImpostor]
    distinct = len({scores[cid] for cid in key.labels})
    if distinct <= DEGENERATE_DISTINCT_SCORES:
        warnings.append(f"degenerate scores: {distinct} distinct value(s) "
                        f"over {len(key.labels)} comparisons")
    num_r, den_r = auc_counts(genuine, random_scores)
    num_s, den_s = auc_counts(genuine, skilled)
    num_m, den_m = auc_counts(genuine, random_scores + skilled)
    return GradeReport(
        auc_mixed=100.0 * num_m / den_m,
        auc_random=100.0 * num_r / den_r,
        auc_skilled=100.0 * num_s / den_s,
        counts={label.value: len(values) for label, values in by_label.items()},
        warnings=tuple(warnings),
        pair_counts={"mixed": (num_m, den_m), "random": (num_r, den_r), "skilled": (num_s, den_s)},
    )


def rank(reports: list[tuple[str, GradeReport]]) -> list[tuple[str, GradeReport]]:
    """Leaderboard order: descending mixed AUC, ties broken by team name.

    Random/skilled columns are displayed but never affect the order.
    """
    if not reports:
        raise ValueError("need at least one report")
    return sorted(reports, key=lambda tr: (-tr[1].auc_mixed, tr[0]))


# --- file formats -----------------------------------------------------------

def comparison_list_to_json(clist: ComparisonList) -> str:
    obj = {
        "task": clist.task.value,
        "comparisons": [
            {"id": c.comparison_id, "enroll": list(c.enrollment_session_ids), "verify": c.verification_session_id}
            for c in clist.comparisons
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _comparison(index: int, entry) -> Comparison:
    """One entry of a comparison list, whose ids must be strings."""
    cid, enroll, verify = entry["id"], entry["enroll"], entry["verify"]
    checks = (
        ("id", isinstance(cid, str), "a string"),
        ("enroll", isinstance(enroll, list) and len(enroll) == 2
         and all(isinstance(s, str) for s in enroll), "a list of two session id strings"),
        ("verify", isinstance(verify, str), "a session id string"),
    )
    name = f"comparison {cid!r}" if isinstance(cid, str) else f"comparisons[{index}]"
    for field, ok, expected in checks:
        if not ok:
            got = json.dumps(entry[field])[:40]
            raise SchemaViolation(
                f"malformed comparison list: {name}: {field} must be {expected}, got {got}"
            )
    return Comparison(cid, (enroll[0], enroll[1]), verify)


def comparison_list_from_json(text: str) -> ComparisonList:
    obj = _loads(text, "comparison list")
    try:
        task = TaskKind(obj["task"])
        comparisons = tuple(_comparison(i, c) for i, c in enumerate(obj["comparisons"]))
        seen: set[str] = set()
        for c in comparisons:
            if c.comparison_id in seen:
                raise SchemaViolation(f"comparison list: duplicate comparison id {c.comparison_id!r}")
            seen.add(c.comparison_id)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"malformed comparison list: {exc}") from None
    return ComparisonList(task, comparisons)


def key_file_to_json(key: KeyFile) -> str:
    return json.dumps(
        {"labels": {cid: label.value for cid, label in sorted(key.labels.items())}},
        sort_keys=True,
        separators=(",", ":"),
    )


def key_file_from_json(text: str) -> KeyFile:
    obj = _loads(text, "key file")
    try:
        labels = {cid: Label(value) for cid, value in obj["labels"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaViolation(f"malformed key file: {exc}") from None
    return KeyFile(labels)


def score_file_to_csv(scores: dict[str, float]) -> str:
    """CSV with header `comparison_id,score`, LF line endings, one row per
    entry in the map's own order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["comparison_id", "score"])
    for cid, value in scores.items():
        writer.writerow([cid, repr(float(value))])
    return buf.getvalue()


def score_file_from_csv(text: str) -> tuple[dict[str, float], list[str]]:
    """Parse a score CSV; returns (scores, warnings).

    Values outside [0,1] are clamped with a warning; non-finite values
    raise, as do structural problems.
    """
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or [h.strip() for h in rows[0]] != ["comparison_id", "score"]:
        raise SchemaViolation("score file must start with header 'comparison_id,score'")
    scores: dict[str, float] = {}
    warnings: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise SchemaViolation(f"line {lineno}: expected 2 columns")
        cid = row[0].strip()
        try:
            value = float(row[1])
        except ValueError:
            raise SchemaViolation(f"line {lineno}: score is not a number") from None
        if not math.isfinite(value):
            raise NonFiniteScore(f"line {lineno}: non-finite score for {cid!r}")
        if cid in scores:
            raise SchemaViolation(f"line {lineno}: duplicate comparison id {cid!r}")
        if value < 0.0 or value > 1.0:
            warnings.append(f"line {lineno}: score {value!r} clamped to [0,1]")
            value = min(max(value, 0.0), 1.0)
        scores[cid] = value
    return scores, warnings


def grade_report_to_json(report: GradeReport) -> str:
    obj = {
        "auc_mixed": round(report.auc_mixed, 2),
        "auc_random": round(report.auc_random, 2),
        "auc_skilled": round(report.auc_skilled, 2),
        "counts": report.counts,
        "warnings": list(report.warnings),
        "pair_counts": {k: list(v) for k, v in report.pair_counts.items()},
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def grade_report_from_json(text: str) -> GradeReport:
    obj = _loads(text, "grade report")
    try:
        return GradeReport(
            auc_mixed=float(obj["auc_mixed"]),
            auc_random=float(obj["auc_random"]),
            auc_skilled=float(obj["auc_skilled"]),
            counts=dict(obj["counts"]),
            warnings=tuple(obj.get("warnings", ())),
            pair_counts={k: (int(v[0]), int(v[1])) for k, v in obj["pair_counts"].items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"malformed grade report: {exc}") from None


_COLUMNS = ("Mixed AUC [%]", "Random AUC [%]", "Skilled AUC [%]")


def _aucs(report: GradeReport) -> tuple[str, str, str]:
    return f"{report.auc_mixed:.2f}", f"{report.auc_random:.2f}", f"{report.auc_skilled:.2f}"


def _table(headers, rows) -> str:
    """Left-aligned columns as wide as their widest cell, two spaces apart."""
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(line, widths)) + "\n"
                   for line in (headers, *rows))


def grade_report_table(report: GradeReport) -> str:
    return _table(_COLUMNS, [_aucs(report)])


def leaderboard_table(ordered: list[tuple[str, GradeReport]]) -> str:
    rows = [(str(position), team, *_aucs(r)) for position, (team, r) in enumerate(ordered, start=1)]
    return _table(("#", "Team", *_COLUMNS), rows)
