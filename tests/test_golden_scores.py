"""Pinned library score maps of a 4-user synth split at seed 42.

A digest is the sha256 of the lines `comparison_id=float.hex(score)` of
one score map, in comparison-list order, so a change that moves any score
by one bit fails here. softdtw goes through libm `exp` and `log`, whose
last bits may differ between platforms, so its scores are compared one by
one within 1e-12. Siamese is left out: its scores depend on the BLAS
thread count.
"""

import hashlib
import math

import pytest

from bbauth.data import SplitKind, TaskKind
from bbauth.runner import RunConfig, score_comparisons
from bbauth.synth import GenConfig, generate_dataset

DIGESTS = {
    ("keystroke-ngram", TaskKind.Keystroke):
        "8807e90d3c7ba1dc20386d2abc66ae947717428df7cf4d044005cc2d8e47df8e",
    ("swipe-template", TaskKind.TextReading):
        "fbd8c8e930c8e587278dd1d528886d869f1c6a1f0fb9fe091cfb795c897bff21",
    ("swipe-template", TaskKind.GallerySwiping):
        "22131b15ac50604532173c74d6aee659e5ce6fff6214b4a4f6a0300c259e42e3",
    ("swipe-template", TaskKind.Tapping):
        "f544676dd60b3b631c4f9d001698e0197f9215e14ff6b9bf8710fe776f62ee92",
    ("dwt-distance", TaskKind.Keystroke):
        "63130786d10f9d9f1a35545f0bd15e345e90a52b39f975318cd7ba53739ff2d1",
    ("dwt-distance", TaskKind.TextReading):
        "93a2da8ad955cb816600dc427a45a645deacad13ed39b31e12d8766bf4ec6914",
    ("dwt-distance", TaskKind.GallerySwiping):
        "d8f5e66468667d0781fb30488ce60624a937ba75dca5c8df16cc22222d0664b4",
    ("dwt-distance", TaskKind.Tapping):
        "d97178e6b01abc2fbbfa076bcbef8dc1c0b6f0122e73a99716566f03b2cc6364",
}

# softdtw on tapping, with tau and the feature scale calibrated on the training split
SOFTDTW_TAPPING = (
    "0x1.a711f524b0b59p-63", "0x1.8dd72f8145909p-33", "0x1.055e25cd60f09p-8",
    "0x1.22620f4267bdap-28", "0x1.03d4e4b1c6372p-8", "0x1.7f4959bcc27dfp-8",
    "0x1.6b8de02c08df0p-27", "0x1.75934b7b8f0e4p-20", "0x1.425aa5e77161cp-1",
    "0x1.3055087ca2a49p-23", "0x1.29b8ea94b5a93p-2", "0x1.0216f5f9e9132p-1",
    "0x1.11b566555971dp-90", "0x1.39f17f7610702p-13", "0x1.b1c5b0a69b4b7p-40",
    "0x1.21fd996ec7cdap-82", "0x1.8590f3f8107e2p-32", "0x1.5fe9d401ce9c2p-84",
    "0x1.a543e2755aab2p-2", "0x1.92a873d58f412p-62", "0x1.b5f60e5c42da5p-8",
    "0x1.512f4f4087a36p-3", "0x1.4b48a196f955fp-3", "0x1.7d8892acf86a3p-24",
    "0x1.5f5752817ffd7p-25", "0x1.062d7182cb10bp-14", "0x1.8b6f5d26bf716p-26",
    "0x1.7709d55ffd183p-24", "0x1.e1c06b8d0c173p-2", "0x1.01bc8dcb300f9p-3",
    "0x1.ae5ec91a9e482p-3", "0x1.4d20865f0eed1p-19", "0x1.5082b54d77d31p-53",
    "0x1.7d164b0937616p-85", "0x1.e87ac7d5f9c66p-2", "0x1.bff5c473d8433p-10",
    "0x1.53e2d4a7fb1e1p-54", "0x1.38eb736a69203p-24", "0x1.4107d4c2a2c2ep-8",
    "0x1.a28e278a178f7p-41",
)


@pytest.fixture(scope="module")
def four_users():
    return generate_dataset(
        GenConfig(n_users=4, n_train_users=4, n_validation_users=4, master_seed=42)
    )


def _scores(generated, config):
    clist, _ = generated.keys[(SplitKind.Evaluation, config.task)]
    run = score_comparisons(generated.evaluation, clist, config, generated.train)
    assert list(run.scores) == [c.comparison_id for c in clist.comparisons]
    return run.scores


@pytest.mark.parametrize(("matcher", "task"), list(DIGESTS), ids=lambda v: getattr(v, "value", v))
def test_score_map_digest(four_users, matcher, task):
    scores = _scores(four_users, RunConfig(matcher, task))
    text = "\n".join(f"{cid}={float.hex(v)}" for cid, v in scores.items())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[(matcher, task)]


def test_softdtw_scores(four_users):
    scores = _scores(four_users, RunConfig("softdtw", TaskKind.Tapping))
    expected = [float.fromhex(v) for v in SOFTDTW_TAPPING]
    assert len(scores) == len(expected)
    for (cid, got), want in zip(scores.items(), expected):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), cid
