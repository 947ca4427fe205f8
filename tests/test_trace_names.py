"""The benchmark's traced run finds every bbauth function its per-layer metrics name.

`perfbench/tracing.py` looks functions up by module and name, and leaves
out a metric whose functions are gone, so a rename would only show as a
missing metric in a traced benchmark run. This test loads the module from
its file, without changing it or `sys.path`, and runs a tiny traced pass.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

import bbauth.cli  # noqa: F401  (the traced run wraps every loaded bbauth module)
from bbauth import data, protocol, runner, synth
from bbauth.benchmark import FAMILY_TASKS
from bbauth.data import SplitKind

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    config = synth.GenConfig(n_users=2, n_train_users=2, n_validation_users=2, master_seed=5)
    with tracer.installed():
        generated = synth.generate_dataset(config)
        evaluation = data.parse_dataset(data.serialize_dataset(generated.evaluation))
        for family, task in FAMILY_TASKS:
            clist, key = generated.keys[(SplitKind.Evaluation, task)]
            run = runner.score_comparisons(
                evaluation, clist, runner.RunConfig(family, task, epochs=1), generated.train
            )
            protocol.grade(run.scores, key)
    assert not hasattr(synth.generate_dataset, "__wrapped__")  # the originals are back
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["per_layer"]]
    modules = tuple(n.split(".", 1)[1] for n in names if n.startswith("self_s."))
    families = tuple(family for family, _ in FAMILY_TASKS)
    return tracer, tracing.layer_metrics(tracer, families, modules), names


def test_every_per_layer_metric_is_found(traced):
    _, metrics, names = traced
    expected = [n for n in names if not n.startswith(("rss.", "trace."))]
    assert len(expected) == 60
    assert [n for n in expected if n not in metrics] == []


def test_metrics_are_strict_json(traced):
    _, metrics, _ = traced
    json.dumps(metrics, allow_nan=False)
    assert all(math.isfinite(value) for value, _ in metrics.values())


def test_hooks_still_count(traced):
    tracer, metrics, _ = traced
    for quantity in ("serialize_bytes", "parse_bytes", "kernel_cells", "auc_pairs"):
        assert tracer.quantities[quantity] > 0, quantity
    assert tracer.sessions["keystroke"] and tracer.sessions["dtw_sequence"]
    assert metrics["keystroke.ngram_extractions_per_session"][0] > 0


def test_each_kernel_span_holds_one_table(traced):
    # a public call per table cell would flood a traced benchmark run with spans
    tracer, _, _ = traced
    children: dict[int, list[str]] = {}
    for name, parent in zip(tracer.names, tracer.parents):
        children.setdefault(parent, []).append(name)
    kernels = [i for i, name in enumerate(tracer.names) if name == "softdtw.soft_dtw"]
    assert kernels
    assert all(children.get(i) == ["softdtw.alignment_cost_table"] for i in kernels)
