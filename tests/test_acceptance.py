"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from bbauth.benchmark import run_benchmark
from bbauth.data import (
    SplitKind,
    TaskKind,
    parse_dataset,
    serialize_dataset,
    validate_session,
)
from bbauth.dwt import dwt_level1, idwt_level1
from bbauth.errors import (
    InvariantViolation,
    MalformedDocument,
    SchemaViolation,
)
from bbauth.keystroke import degree_of_disorder
from bbauth.protocol import Label, auc, auc_counts, grade
from bbauth.siamese import PairSet, grad_check, init_network, loss_and_grads
from bbauth.softdtw import dtw, soft_dtw


def _report(criterion: int, elapsed: float, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail} ({elapsed:.2f}s)")


# --- 1. AUC oracle equivalence ---------------------------------------------

def _brute_force_auc(genuine, impostor):
    wins = ties = 0
    for g in genuine:
        for i in impostor:
            if g > i:
                wins += 1
            elif g == i:
                ties += 1
    return wins, ties


def test_c01_auc_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(1000):
        n_g = int(rng.integers(1, 51))
        n_i = int(rng.integers(1, 51))
        pool = rng.random(8)  # small value pool forces ties
        genuine = list(rng.choice(pool, size=n_g))
        impostor = list(rng.choice(pool, size=n_i))
        wins, ties = _brute_force_auc(genuine, impostor)
        num, den = auc_counts(genuine, impostor)
        assert num == 2 * wins + ties
        assert den == 2 * n_g * n_i
        assert auc(genuine, impostor) == (wins + 0.5 * ties) / (n_g * n_i)
    assert auc([0.9, 0.8], [0.2, 0.3]) == 1.0
    assert auc([0.6, 0.4], [0.5, 0.5]) == 0.5
    assert auc([0.7, 0.5], [0.5, 0.6]) == 0.625
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, elapsed, "grader AUC equals brute-force pair counting on 1000 sets + fixtures")


# --- 2. grader semantics -----------------------------------------------------

def test_c02_grader_semantics():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for trial in range(100):
        labels = {}
        idx = 0
        for label, count in (
            (Label.Genuine, int(rng.integers(1, 12))),
            (Label.RandomImpostor, int(rng.integers(1, 12))),
            (Label.SkilledImpostor, int(rng.integers(1, 12))),
        ):
            for _ in range(count):
                labels[f"c{idx:06d}"] = label
                idx += 1
        from bbauth.protocol import KeyFile

        key = KeyFile(labels)
        scores = {cid: float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])) for cid in labels}
        report = grade(scores, key)
        num_m, den_m = report.pair_counts["mixed"]
        assert num_m == report.pair_counts["random"][0] + report.pair_counts["skilled"][0]
        assert den_m == report.pair_counts["random"][1] + report.pair_counts["skilled"][1]

        perfect = {cid: (1.0 if label is Label.Genuine else 0.0) for cid, label in labels.items()}
        assert grade(perfect, key).auc_mixed == 100.0
        ties = {cid: 0.5 for cid in labels}
        tied = grade(ties, key)
        assert (tied.auc_mixed, tied.auc_random, tied.auc_skilled) == (50.0, 50.0, 50.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, elapsed, "mixed pair counts are exact sums of random+skilled on 100 key files")


# --- 3. degree-of-disorder oracle --------------------------------------------

def test_c03_disorder_oracle():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        items = [(i,) for i in range(n)]
        for perm in itertools.permutations(items):
            other = list(perm)
            displacement = sum(abs(i - other.index(g)) for i, g in enumerate(items))
            if n < 2:
                expected = 0.0
            else:
                max_disorder = n * n / 2 if n % 2 == 0 else (n * n - 1) / 2
                expected = displacement / max_disorder
            assert degree_of_disorder(items, other) == expected
            checked += 1
    a, b, c, d = (1,), (2,), (3,), (4,)
    assert degree_of_disorder([a, b, c], [a, b, c]) == 0.0
    assert degree_of_disorder([a, b, c, d], [b, a, d, c]) == 0.5
    assert degree_of_disorder([a, b, c, d], [d, c, b, a]) == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, elapsed, f"matches exhaustive rank displacement on {checked} permutations (n <= 6)")


# --- 4. DWT numerical identities ---------------------------------------------

def test_c04_dwt_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    for trial in range(200):
        n = 2 * int(rng.integers(4, 257))  # even lengths 8..512
        x = rng.standard_normal(n)
        pair = dwt_level1(x)
        energy = float(pair.c_a @ pair.c_a + pair.c_b @ pair.c_b)
        assert abs(energy - float(x @ x)) < 1e-9
        assert np.abs(idwt_level1(pair) - x).max() < 1e-9
    constant = dwt_level1(np.full(64, 3.25))
    assert np.abs(constant.c_b).max() < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _report(4, elapsed, "energy + perfect reconstruction on 200 signals; constant detail vanishes")


# --- 5. soft-DTW limits --------------------------------------------------------

def _monotone_paths(m, n):
    paths = []

    def walk(i, j, acc):
        acc = acc + [i * n + j]
        if i == m - 1 and j == n - 1:
            paths.append(acc)
            return
        if i + 1 < m:
            walk(i + 1, j, acc)
        if j + 1 < n:
            walk(i, j + 1, acc)
        if i + 1 < m and j + 1 < n:
            walk(i + 1, j + 1, acc)

    walk(0, 0, [])
    return paths


def test_c05_softdtw_limits():
    start = time.perf_counter()
    rng = np.random.default_rng(105)

    # soft_dtw <= dtw on 500 random small pairs
    for _ in range(500):
        x = rng.random((int(rng.integers(1, 7)), 2))
        y = rng.random((int(rng.integers(1, 7)), 2))
        gamma = float(rng.uniform(0.01, 2.0))
        assert soft_dtw(x, y, gamma) <= dtw(x, y) + 1e-9

    # gamma -> 0 limit on fixtures
    fixtures = [([0.0, 1.0], [0.0, 1.0, 1.0]), ([0.0, 2.0], [0.0, 1.0, 2.0]),
                ([1.0, 0.5, 0.25], [1.0, 0.25])]
    for x, y in fixtures:
        assert abs(soft_dtw(x, y, gamma=1e-3) - dtw(x, y)) < 1e-2

    # dtw equals the exhaustive-alignment oracle for every sequence pair
    # with lengths <= 5 over the alphabet {0, 1, 2}; dtw depends on the
    # sequences only through the local-cost matrix, so each distinct cost
    # matrix is evaluated once
    symbols = np.array([0.0, 1.0, 2.0])
    pairs_checked = 0
    for m in range(1, 6):
        xs = np.array(list(itertools.product(symbols, repeat=m)))
        for n in range(1, 6):
            ys = np.array(list(itertools.product(symbols, repeat=n)))
            costs = (xs[:, None, :, None] - ys[None, :, None, :]) ** 2
            flat = costs.reshape(len(xs) * len(ys), m * n)
            oracle = np.full(flat.shape[0], np.inf)
            for path in _monotone_paths(m, n):
                np.minimum(oracle, flat[:, path].sum(axis=1), out=oracle)
            seen: dict[bytes, float] = {}
            for xi in range(len(xs)):
                for yi in range(len(ys)):
                    key = flat[xi * len(ys) + yi].tobytes()
                    expected = oracle[xi * len(ys) + yi]
                    if key in seen:
                        assert seen[key] == expected
                    else:
                        value = dtw(xs[xi], ys[yi])
                        assert math.isclose(value, expected, rel_tol=0, abs_tol=1e-9)
                        seen[key] = expected
                    pairs_checked += 1

    # a 500x500 alignment fits the per-comparison budget
    big_x, big_y = rng.random((500, 3)), rng.random((500, 3))
    t0 = time.perf_counter()
    assert math.isfinite(soft_dtw(big_x, big_y, gamma=0.1))
    assert time.perf_counter() - t0 < 2.0

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, elapsed, f"soft<=hard, gamma limits, exhaustive oracle over {pairs_checked} pairs")


# --- 6. gradient gate -----------------------------------------------------------

def test_c06_gradient_gate():
    start = time.perf_counter()
    params = init_network(4, seed=106, hidden=(5, 4, 3, 2))  # 80 trainable parameters
    rng = np.random.default_rng(107)
    for b in params.biases:
        b += rng.uniform(0.05, 0.15, size=b.shape)  # keep ReLU inputs off the kink
    pairs = PairSet(
        rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), np.array([1, 0, 1, 0])
    )
    error = grad_check(params, pairs, margin=1.0)
    assert error < 1e-4

    _, grads, _ = loss_and_grads(params, pairs, 1.0)
    corrupted = [-g for g in grads]
    corrupted_error = grad_check(params, pairs, margin=1.0, grads=corrupted)
    assert corrupted_error > 0.1

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(6, elapsed, f"backprop error {error:.2e} < 1e-4; corrupted gradient detected")


# --- 7. end-to-end synthetic benchmark --------------------------------------------

THRESHOLDS = {
    ("keystroke-ngram", TaskKind.Keystroke): 75.0,
    ("siamese", TaskKind.TextReading): 65.0,
    ("swipe-template", TaskKind.GallerySwiping): 65.0,
    ("dwt-distance", TaskKind.Tapping): 65.0,
    ("softdtw", TaskKind.Tapping): 65.0,
}


def test_c07_end_to_end_benchmark():
    start = time.perf_counter()
    result = run_benchmark()  # frozen defaults: 8 users, sigma 3/1, alpha 0.5, beta 0.2, seed 42
    lines = []
    for combo, threshold in THRESHOLDS.items():
        report = result.reports[combo]
        assert report.auc_mixed >= threshold, f"{combo}: {report.auc_mixed:.2f} < {threshold}"
        lines.append(f"{combo[0]}@{combo[1].value}={report.auc_mixed:.2f}")

    # reruns are bitwise identical: regenerate and rescore one matcher
    rerun = run_benchmark(combos=(("keystroke-ngram", TaskKind.Keystroke),))
    assert serialize_dataset(rerun.generated.evaluation) == serialize_dataset(
        result.generated.evaluation
    )
    assert rerun.scores[("keystroke-ngram", TaskKind.Keystroke)] == result.scores[
        ("keystroke-ngram", TaskKind.Keystroke)
    ]

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(7, elapsed, "; ".join(lines))


# --- 8. random-vs-skilled directional asymmetry --------------------------------------

def test_c08_random_vs_skilled_asymmetry():
    from bbauth.benchmark import asymmetry_by_task

    start = time.perf_counter()
    means = asymmetry_by_task(seeds=(42, 43, 44, 45, 46))
    favoring = [task for task, (random_auc, skilled_auc) in means.items()
                if random_auc >= skilled_auc]
    detail = "; ".join(
        f"{task.value}: random {r:.2f} vs skilled {s:.2f}" for task, (r, s) in means.items()
    )
    assert len(favoring) >= 3, detail
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(8, elapsed, f"random >= skilled on {len(favoring)}/4 tasks ({detail})")


# --- 9. format compliance ---------------------------------------------------------

MINIMAL_DOC = json.dumps(
    {
        "split": "train",
        "sessions": [
            {
                "session_id": "s1",
                "subject_id": "u1",
                "device_id": "d1",
                "task": "keystroke",
                "role": "unlabeled",
                "streams": {"keystroke": [[0, 104], [120, 105]]},
            }
        ],
    }
)


def test_c09_format_compliance(tiny_generated):
    start = time.perf_counter()
    minimal = parse_dataset(MINIMAL_DOC, SplitKind.Train)
    assert parse_dataset(serialize_dataset(minimal), SplitKind.Train).sessions == minimal.sessions

    text = serialize_dataset(tiny_generated.evaluation)
    parsed = parse_dataset(text, SplitKind.Evaluation)
    assert parsed.sessions == tiny_generated.evaluation.sessions
    assert serialize_dataset(parsed) == text
    assert all(validate_session(s) == [] for s in parsed.sessions)

    with pytest.raises(MalformedDocument):
        parse_dataset("{", SplitKind.Train)
    with pytest.raises(SchemaViolation):
        parse_dataset('{"split": "train", "sessions": [{}]}', SplitKind.Train)
    bad_range = json.loads(MINIMAL_DOC)
    bad_range["sessions"][0]["streams"]["keystroke"] = [[0, 300]]
    with pytest.raises(InvariantViolation):
        parse_dataset(json.dumps(bad_range), SplitKind.Train)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(9, elapsed, "round-trips are structurally exact; malformed inputs raise typed errors")


# --- 10. optional real-data smoke test ----------------------------------------------

def test_c10_real_data_smoke():
    root = os.environ.get("BEHAVEPASSDB_DIR")
    if not root or not Path(root).exists():
        pytest.skip("public dataset download not present (set BEHAVEPASSDB_DIR to enable)")
    from bbauth.importer import import_released_file

    start = time.perf_counter()
    json_files = sorted(Path(root).rglob("*.json"))
    assert json_files, f"no JSON files under {root}"
    total_sessions = 0
    for path in json_files:
        name = path.name.lower()
        split_kind = (
            SplitKind.Train if "train" in name
            else SplitKind.Validation if "val" in name
            else SplitKind.Evaluation
        )
        split = import_released_file(path, split_kind)
        for session in split.sessions:
            assert validate_session(session) == [], f"{path}: invariant violations"
        total_sessions += len(split.sessions)
    assert total_sessions > 0
    _report(10, time.perf_counter() - start, f"imported {total_sessions} sessions cleanly")
