"""Spans and counts around every public bbauth function, from outside the program.

`Tracer.installed()` replaces each public function of every loaded
`bbauth` module in each module namespace that holds it: the defining
module and every module that imported the name. A caller looks the name
up in its own module at call time, so it reaches the wrapper. On exit
the original functions are put back.

A span is (name, start, end, parent, tag), kept in memory and written out
at the end; `hooks` add counts taken from a call's arguments or result.
`layer_metrics` turns the spans into per-layer figures. A metric whose
functions no longer exist is left out rather than failing the run.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

PREFIX = "bbauth."


def _session_ids(enroll_sessions, verify_session):
    return [s.session_id for s in (*enroll_sessions, verify_session)]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: list[str | None] = []
        self.outermost: list[bool] = []   # False for a span nested in a span of the same name
        self.quantities: dict[str, float] = defaultdict(float)
        self.sessions: dict[str, set[str]] = defaultdict(set)
        self.stage_rss: dict[str, float] = {}
        self.installed_names: set[str] = set()
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._hooks = {
            "runner.score_comparisons": lambda a, kw, r: self._tag(a[2].matcher),
            "cli.cmd_score": lambda a, kw, r: self._tag(a[0].matcher),
            "keystroke.keystroke_score":
                lambda a, kw, r: self.sessions["keystroke"].update(_session_ids(a[0], a[1])),
            "touch.build_dtw_sequence":
                lambda a, kw, r: self.sessions["dtw_sequence"].add(a[0].session_id),
            "softdtw.soft_dtw": lambda a, kw, r: self._add("kernel_cells", len(a[0]) * len(a[1])),
            "data.serialize_dataset": lambda a, kw, r: self._add("serialize_bytes", len(r)),
            "data.parse_dataset": lambda a, kw, r: self._add("parse_bytes", len(a[0])),
            "protocol.auc_counts": lambda a, kw, r: self._add("auc_pairs", r[1] // 2),
        }

    # --- recording ----------------------------------------------------------

    def _tag(self, tag: str) -> None:
        self.tags[self._stack[-1]] = tag

    def _add(self, quantity: str, amount: float) -> None:
        self.quantities[quantity] += amount

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.tags.append(None)
            self.outermost.append(self._active[name] == 0)
            self.ends.append(0.0)
            self._stack.append(index)
            self._active[name] += 1
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    try:
                        hook(args, kwargs, result)
                    except (AttributeError, IndexError, TypeError):
                        pass  # a changed signature loses the count, never the call
                return result
            finally:
                self.ends[index] = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def stage(self, name: str, rss_mb: float) -> None:
        self.stage_rss[name] = rss_mb

    @contextlib.contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "bbauth" or n.startswith(PREFIX)]
        wrappers: dict[int, types.FunctionType] = {}
        replaced: list[tuple[types.ModuleType, str, object]] = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(PREFIX)):
                    continue
                name = obj.__module__[len(PREFIX):] + "." + obj.__qualname__
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                    self.installed_names.add(name)
                replaced.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        try:
            yield self
        finally:
            for module, attr, obj in replaced:
                setattr(module, attr, obj)

    # --- analysis -------------------------------------------------------------

    def totals(self):
        """Per (name, tag): call count, inclusive and self seconds.

        Inclusive time counts only spans not nested in a span of the same
        name; self time is a span's duration minus its children's.
        """
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls: dict[tuple[str, str | None], int] = defaultdict(int)
        inclusive: dict[tuple[str, str | None], float] = defaultdict(float)
        self_time: dict[tuple[str, str | None], float] = defaultdict(float)
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            for key in {(name, None), (name, self.tags[i])}:
                calls[key] += 1
                if self.outermost[i]:
                    inclusive[key] += duration
                self_time[key] += duration - child[i]
        return calls, inclusive, self_time

    def write(self, path: Path, meta: dict) -> None:
        index = {name: k for k, name in enumerate(sorted(set(self.names)))}
        spans = [
            [index[n], round(s, 7), round(e, 7), p, t]
            for n, s, e, p, t in zip(self.names, self.starts, self.ends, self.parents, self.tags)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            **meta,
            "span_fields": ["name", "start_s", "end_s", "parent", "tag"],
            "names": sorted(index, key=index.get),
            "spans": spans,
            "quantities": dict(self.quantities),
            "stage_rss_mb": self.stage_rss,
        }, separators=(",", ":")))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, families: tuple[str, ...], modules: tuple[str, ...]) -> dict:
    """Per-layer metrics as {name: (value, unit)}; see the table in README.md."""
    calls, inc, own = tracer.totals()

    def n(name, tag=None):
        return calls.get((name, tag), 0)

    def t(name, tag=None):
        return inc.get((name, tag), 0.0)

    q = tracer.quantities
    # metric name -> (functions it needs, value, unit)
    table = {
        "synth.generate_s": (["synth.generate_dataset"], t("synth.generate_dataset"), "s"),
        "synth.sessions_per_s": (["synth.generate_dataset", "synth.generate_session"],
                                 _ratio(n("synth.generate_session"), t("synth.generate_dataset")),
                                 "1/s"),
        "protocol.build_comparisons_s": (["protocol.build_comparisons"],
                                         t("protocol.build_comparisons"), "s"),
        "data.serialize_s": (["data.serialize_dataset"], t("data.serialize_dataset"), "s"),
        "data.serialize_mb_per_s": (["data.serialize_dataset"],
                                    _ratio(q["serialize_bytes"] / 1e6, t("data.serialize_dataset")),
                                    "MB/s"),
        "data.parse_s": (["data.parse_dataset"], t("data.parse_dataset"), "s"),
        "data.parse_mb_per_s": (["data.parse_dataset"],
                                _ratio(q["parse_bytes"] / 1e6, t("data.parse_dataset")), "MB/s"),
        "data.parse_calls": (["data.parse_dataset"], n("data.parse_dataset"), "count"),
        "preprocess.stack_modalities_s": (["preprocess.stack_modalities"],
                                          t("preprocess.stack_modalities"), "s"),
        "preprocess.stack_modalities_calls": (["preprocess.stack_modalities"],
                                              n("preprocess.stack_modalities"), "count"),
        "keystroke.score_ms_per_cmp": (["keystroke.keystroke_score"],
                                       1e3 * _ratio(t("keystroke.keystroke_score"),
                                                    n("keystroke.keystroke_score")), "ms"),
        "keystroke.ngram_extractions_per_session": (
            ["keystroke.keystroke_score", "keystroke.extract_ngrams"],
            _ratio(n("keystroke.extract_ngrams"), len(tracer.sessions["keystroke"])), "ratio"),
        "touch.features_s": (["touch.session_feature_vectors"],
                             t("touch.session_feature_vectors"), "s"),
        "touch.template_ms_per_cmp": (["touch.build_template", "touch.template_score"],
                                      1e3 * _ratio(t("touch.build_template") + t("touch.template_score"),
                                                   n("touch.template_score")), "ms"),
        "touch.dtw_sequence_builds_per_session": (
            ["touch.build_dtw_sequence"],
            _ratio(n("touch.build_dtw_sequence"), len(tracer.sessions["dtw_sequence"])), "ratio"),
        "dwt.task_image_s": (["dwt.task_image"], t("dwt.task_image"), "s"),
        "dwt.score_ms_per_cmp": (["dwt.dwt_score"],
                                 1e3 * _ratio(t("dwt.dwt_score"), n("dwt.dwt_score")), "ms"),
        "softdtw.calibrate_s": (["softdtw.calibrate"], t("softdtw.calibrate"), "s"),
        "softdtw.kernel_calls": (["softdtw.soft_dtw"], n("softdtw.soft_dtw"), "count"),
        "softdtw.kernel_cells": (["softdtw.soft_dtw"], q["kernel_cells"], "count"),
        "softdtw.cells_per_s": (["softdtw.soft_dtw"],
                                _ratio(q["kernel_cells"], t("softdtw.soft_dtw")), "1/s"),
        "softdtw.score_ms_per_cmp": (["softdtw.softdtw_score"],
                                     1e3 * _ratio(t("softdtw.softdtw_score"),
                                                  n("softdtw.softdtw_score")), "ms"),
        "siamese.train_s": (["siamese.train"], t("siamese.train"), "s"),
        "siamese.steps": (["siamese.loss_and_grads"], n("siamese.loss_and_grads"), "count"),
        "siamese.loss_and_grads_s": (["siamese.loss_and_grads"], t("siamese.loss_and_grads"), "s"),
        "siamese.train_self_s": (["siamese.train"], own.get(("siamese.train", None), 0.0), "s"),
        "siamese.forward_infer_s": (["siamese.forward"], t("siamese.forward"), "s"),
        "protocol.grade_s": (["protocol.grade"], t("protocol.grade"), "s"),
        "protocol.auc_pairs": (["protocol.auc_counts"], q["auc_pairs"], "count"),
        "protocol.csv_write_s": (["protocol.score_file_to_csv"],
                                 t("protocol.score_file_to_csv"), "s"),
        "protocol.csv_parse_s": (["protocol.score_file_from_csv"],
                                 t("protocol.score_file_from_csv"), "s"),
        "cli.synth_s": (["cli.cmd_synth"], t("cli.cmd_synth"), "s"),
        "cli.grade_s": (["cli.cmd_grade"], t("cli.cmd_grade"), "s"),
        "cli.report_s": (["cli.cmd_report"], t("cli.cmd_report"), "s"),
    }
    for family in families:
        table[f"runner.score_comparisons_s.{family}"] = (
            ["runner.score_comparisons"], t("runner.score_comparisons", family), "s")
        table[f"runner.self_s.{family}"] = (
            ["runner.score_comparisons"], own.get(("runner.score_comparisons", family), 0.0), "s")
        table[f"cli.score_s.{family}"] = (["cli.cmd_score"], t("cli.cmd_score", family), "s")
    for module in modules:
        table[f"self_s.{module}"] = (
            [], sum(v for (name, tag), v in own.items()
                    if tag is None and name.startswith(module + ".")), "s")
    for stage, rss in tracer.stage_rss.items():
        table[f"rss.after_{stage}_mb"] = ([], rss, "MB")
    return {
        name: (float(value), unit)
        for name, (needs, value, unit) in table.items()
        if all(f in tracer.installed_names for f in needs)
    }
