"""Keystroke matcher built on digram/trigram timing tables.

Typing patterns are captured as n-gram tables (n = 2, 3) holding how
often each n-gram occurs and its mean typing duration. Two sessions are
compared by (a) the degree of disorder between their duration-ordered
n-gram lists and (b) the fraction of sufficiently frequent shared
n-grams, averaged into one similarity score.

Each session's tables are extracted and ordered once
(:func:`keystroke_profile`), each enrollment pair is pooled once
(:func:`enroll_profiles`), and :func:`keystroke_score` compares a pooled
enrollment with one verify profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import COL_ASCII, COL_T, ModalityKind, Session
from .errors import BothEmpty, EmptyIntersection, NoKeystrokeData

Ngram = tuple[int, ...]


@dataclass(frozen=True)
class NgramStats:
    occurrences: int
    mean_duration: float


@dataclass(frozen=True)
class NgramTable:
    n: int
    entries: dict[Ngram, NgramStats]


def extract_ngrams(keystrokes: np.ndarray, n: int) -> NgramTable:
    """Aggregate every window of `n` consecutive rows of a keystroke stream.

    Duration of a window is last timestamp minus first. A stream shorter
    than `n` yields an empty table.
    """
    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    sums: dict[Ngram, list] = {}
    times = keystrokes[:, COL_T].astype(np.int64).tolist()
    codes = keystrokes[:, COL_ASCII].astype(np.int64).tolist()
    for i in range(len(codes) - n + 1):
        gram = tuple(codes[i : i + n])
        duration = times[i + n - 1] - times[i]
        acc = sums.setdefault(gram, [0, 0.0])
        acc[0] += 1
        acc[1] += duration
    return NgramTable(
        n, {g: NgramStats(c, total / c) for g, (c, total) in sums.items()}
    )


def merge_tables(tables: list[NgramTable]) -> NgramTable:
    """Pool several tables: occurrences add, durations combine by weighted mean.

    Used to pool enrollment sessions; merging never forms n-grams that
    span session boundaries.
    """
    if not tables:
        raise ValueError("need at least one table")
    n = tables[0].n
    if any(t.n != n for t in tables):
        raise ValueError("tables must share n")
    sums: dict[Ngram, list] = {}
    for table in tables:
        for gram, stats in table.entries.items():
            acc = sums.setdefault(gram, [0, 0.0])
            acc[0] += stats.occurrences
            acc[1] += stats.mean_duration * stats.occurrences
    return NgramTable(n, {g: NgramStats(c, total / c) for g, (c, total) in sums.items()})


def order_ngrams(table: NgramTable) -> list[Ngram]:
    """Total ordering: ascending mean duration, then descending
    occurrences, then lexicographic n-gram codes."""
    return sorted(
        table.entries,
        key=lambda g: (table.entries[g].mean_duration, -table.entries[g].occurrences, g),
    )


def degree_of_disorder(list_a: list[Ngram], list_b: list[Ngram]) -> float:
    """Normalized total rank displacement between two orderings.

    Both lists must hold the same n-gram set (callers intersect first).
    The displacement sum is normalized by its maximum, V^2/2 for even V
    and (V^2 - 1)/2 for odd V; a single shared n-gram gives 0.
    """
    if len(list_a) != len(list_b) or set(list_a) != set(list_b):
        raise ValueError("lists must contain the same n-gram set")
    v = len(list_a)
    if v == 0:
        raise EmptyIntersection("no shared n-grams")
    if v == 1:
        return 0.0
    rank_b = {gram: i for i, gram in enumerate(list_b)}
    disorder = sum(abs(i - rank_b[gram]) for i, gram in enumerate(list_a))
    max_disorder = v * v / 2 if v % 2 == 0 else (v * v - 1) / 2
    return disorder / max_disorder


def availability(enroll: NgramTable, verify: NgramTable, min_occurrences: int = 3) -> float:
    """Fraction of shared, sufficiently frequent n-grams over all observed.

    An n-gram counts as available when it appears in both tables with a
    combined (enroll + verify) occurrence count of at least
    `min_occurrences`.
    """
    union = set(enroll.entries) | set(verify.entries)
    if not union:
        raise BothEmpty("both n-gram tables are empty")
    common = [
        g
        for g in enroll.entries
        if g in verify.entries
        and enroll.entries[g].occurrences + verify.entries[g].occurrences >= min_occurrences
    ]
    return len(common) / len(union)


@dataclass(frozen=True)
class KeystrokeProfile:
    """One session's n = 2 and n = 3 tables, each with its :func:`order_ngrams` ordering."""

    session_id: str
    events: int  # keystroke events in the session
    tables: tuple[NgramTable, ...]
    orders: tuple[list[Ngram], ...]


@dataclass(frozen=True)
class KeystrokeEnrollment:
    """Pooled enrollment tables and their orderings; iterating yields the
    pooled sessions' profiles, in enrollment order."""

    profiles: tuple[KeystrokeProfile, ...]
    tables: tuple[NgramTable, ...]
    orders: tuple[list[Ngram], ...]

    def __iter__(self):
        return iter(self.profiles)


def keystroke_profile(session: Session) -> KeystrokeProfile:
    """Extract a session's n-gram tables and order each one, once."""
    stream = session.stream(ModalityKind.Keystroke)
    tables = tuple(extract_ngrams(stream, n) for n in (2, 3))
    return KeystrokeProfile(session.session_id, len(stream), tables,
                            tuple(order_ngrams(t) for t in tables))


def enroll_profiles(profiles: list[KeystrokeProfile]) -> KeystrokeEnrollment:
    """Pool the enrollment sessions' tables (see :func:`merge_tables`) and order them."""
    if not profiles:
        raise ValueError("need at least one enrollment session")
    tables = tuple(merge_tables(list(same_n)) for same_n in zip(*(p.tables for p in profiles)))
    return KeystrokeEnrollment(tuple(profiles), tables, tuple(order_ngrams(t) for t in tables))


def keystroke_score(enrollment: KeystrokeEnrollment, verify: KeystrokeProfile) -> float:
    """Similarity in [0,1] between pooled enrollment typing and one verify session.

    For each n in {2, 3}: similarity = 1 - degree_of_disorder over every
    shared n-gram (0 when nothing is shared), as in Gunetti & Picardi
    (ACM TISSEC 2005), and availability over all observed n-grams; the
    per-n score is their mean, and the final score the mean over n.

    The orderings of the shared n-grams are the precomputed orderings,
    filtered: the :func:`order_ngrams` key is a strict total order, so
    sorting a subset gives the order in which the subset appears in the
    sorted whole.
    """
    if all(p.events < 2 for p in enrollment.profiles) or verify.events < 2:
        raise NoKeystrokeData("sessions carry no usable keystroke events")

    per_n: list[float] = []
    for enroll_table, enroll_order, verify_table, verify_order in zip(
        enrollment.tables, enrollment.orders, verify.tables, verify.orders
    ):
        if not enroll_table.entries and not verify_table.entries:
            per_n.append(0.0)
            continue
        avail = availability(enroll_table, verify_table)
        shared = set(enroll_table.entries) & set(verify_table.entries)
        if shared:
            sim = 1.0 - degree_of_disorder(
                [g for g in enroll_order if g in shared],
                [g for g in verify_order if g in shared],
            )
        else:
            sim = 0.0
        per_n.append((sim + avail) / 2)
    return sum(per_n) / len(per_n)
