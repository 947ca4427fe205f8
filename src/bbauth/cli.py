"""Command-line surface: synthesize data, build comparisons, score, grade, report.

Exit codes: 0 ok, 2 usage, 3 I/O failure, 4 configuration or data
mismatch, 5 grading failure. Every command is idempotent: identical
inputs and seeds produce bitwise-identical output files, and no command
mutates its inputs. Omitted paths default into $BBAUTH_DATA_DIR when
that variable is set.

Configuration files are flat `key = value` text ('#' starts a comment),
keyed by flag destination (`batch_size`, `alpha`); explicit command-line
flags override file values, which override the defaults of the library's
`RunConfig` and `GenConfig`. A key the command does not read is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from .data import DatasetSplit, TaskKind, parse_dataset, serialize_dataset
from .errors import BBAuthError
from .protocol import (
    build_comparisons,
    comparison_list_from_json,
    comparison_list_to_json,
    grade,
    grade_report_from_json,
    grade_report_table,
    grade_report_to_json,
    key_file_from_json,
    key_file_to_json,
    leaderboard_table,
    rank,
    score_file_from_csv,
    score_file_to_csv,
)
from .runner import MATCHERS, TRAINED_MATCHERS, RunConfig, score_comparisons
from .synth import GenConfig, generate_dataset

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_IO = 3
_EXIT_CONFIG = 4
_EXIT_GRADING = 5


def _data_dir() -> Path | None:
    value = os.environ.get("BBAUTH_DATA_DIR")
    return Path(value) if value else None


def _default_path(name: str) -> Path | None:
    base = _data_dir()
    return base / name if base else None


def _load_config_file(path: str | None, keys) -> dict[str, str]:
    """The file's `key = value` pairs; a key outside `keys`, the ones the
    command reads, is an error."""
    if not path:
        return {}
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r}; expected one of {', '.join(sorted(keys))}"
            )
        values[key] = value
    return values


def _setting(args, file_cfg: dict[str, str], dest: str):
    """The flag's value, else the file's value for the same key cast by the
    flag's argparse type, else None."""
    value = getattr(args, dest)
    if value is None and dest in file_cfg:
        value = args.casts[dest](file_cfg[dest])
    return value


# `bbauth synth` flags whose destination differs from their GenConfig field
_SYNTH_FIELDS = {
    "users": "n_users",
    "train_users": "n_train_users",
    "validation_users": "n_validation_users",
    "alpha": "imitation_alpha",
    "beta": "device_bias_beta",
    "seed": "master_seed",
}


def _config_values(args, config_cls, renamed: dict[str, str]) -> dict:
    """Values for the fields of `config_cls` that a flag or the --config file
    sets. Fields with no flag, or with neither a flag nor a file value, are
    left out, so the dataclass default applies."""
    file_cfg = _load_config_file(args.config, args.casts)
    flag_of = {name: dest for dest, name in renamed.items()}
    values = {}
    for f in fields(config_cls):
        dest = flag_of.get(f.name, f.name)
        if dest in args.casts:
            value = _setting(args, file_cfg, dest)
            if value is not None:
                values[f.name] = value
    return values


def _load_split(path: Path) -> DatasetSplit:
    try:
        return parse_dataset(path.read_text())
    except BBAuthError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _require(path: Path | None, what: str) -> Path | None:
    if path is None:
        print(f"error: no {what} given and BBAUTH_DATA_DIR is not set", file=sys.stderr)
    return path


# --- synth ------------------------------------------------------------------

def cmd_synth(args) -> int:
    config = GenConfig(**_config_values(args, GenConfig, _SYNTH_FIELDS))
    out_dir = Path(args.out) if args.out else _data_dir()
    if out_dir is None:
        print("error: --out is required when BBAUTH_DATA_DIR is not set", file=sys.stderr)
        return _EXIT_USAGE
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists() and not args.force:
        print(f"error: {manifest_path} exists; pass --force to overwrite", file=sys.stderr)
        return _EXIT_IO

    generated = generate_dataset(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    for split in (generated.train, generated.validation, generated.evaluation):
        (out_dir / f"{split.split_kind.value}.json").write_text(serialize_dataset(split))
    for (split_kind, task), (clist, key) in sorted(
        generated.keys.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        stem = f"{split_kind.value}_{task.value}"
        (out_dir / f"comparisons_{stem}.json").write_text(comparison_list_to_json(clist))
        (out_dir / f"key_{stem}.json").write_text(key_file_to_json(key))
    manifest_path.write_text(json.dumps(generated.manifest, sort_keys=True, indent=2) + "\n")
    print(json.dumps(generated.manifest["sessions"], sort_keys=True))
    return _EXIT_OK


# --- comparisons --------------------------------------------------------------

def cmd_comparisons(args) -> int:
    file_cfg = _load_config_file(args.config, {"seed"})
    data_path = _require(Path(args.data) if args.data else _default_path("evaluation.json"), "--data")
    if data_path is None:
        return _EXIT_USAGE
    task = TaskKind(args.task)
    seed = _setting(args, file_cfg, "seed") or 0
    split = _load_split(data_path)
    try:
        clist, key = build_comparisons(split, task, seed)
    except BBAuthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    Path(args.out_list).write_text(comparison_list_to_json(clist))
    Path(args.out_key).write_text(key_file_to_json(key))
    print(f"{len(clist.comparisons)} comparisons for task {task.value}")
    return _EXIT_OK


# --- score --------------------------------------------------------------------

def cmd_score(args) -> int:
    data_path = _require(Path(args.data) if args.data else _default_path("evaluation.json"), "--data")
    if data_path is None:
        return _EXIT_USAGE
    clist = comparison_list_from_json(Path(args.comparisons).read_text())
    config = RunConfig(args.matcher, clist.task, **_config_values(args, RunConfig, {}))
    started = time.perf_counter()
    train_split = None
    if config.matcher in TRAINED_MATCHERS:
        train_path = Path(args.train) if args.train else _default_path("train.json")
        if train_path is None or not train_path.exists():
            print(f"error: matcher {config.matcher!r} needs --train", file=sys.stderr)
            return _EXIT_CONFIG
        train_split = _load_split(train_path)
    split = _load_split(data_path)
    parse_s = time.perf_counter() - started
    run = score_comparisons(split, clist, config, train_split)
    Path(args.out).write_text(score_file_to_csv(run.scores))
    total = time.perf_counter() - started
    print(
        f"{config.matcher}: {int(run.timings['comparisons'])} comparisons, parse {parse_s:.2f}s, "
        f"setup {run.timings['setup_s']:.2f}s, prepare {run.timings['prepare_s']:.2f}s, "
        f"score (enroll + verify) {run.timings['score_s']:.2f}s, total {total:.2f}s"
    )
    return _EXIT_OK


# --- grade ----------------------------------------------------------------------

def cmd_grade(args) -> int:
    scores_text = Path(args.scores).read_text()
    key = key_file_from_json(Path(args.key).read_text())
    try:
        scores, warnings = score_file_from_csv(scores_text)
        report = grade(scores, key)
    except BBAuthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_GRADING
    for warning in (*warnings, *report.warnings):
        print(f"warning: {warning}", file=sys.stderr)
    if args.out_prefix:
        Path(args.out_prefix + ".json").write_text(grade_report_to_json(report) + "\n")
        Path(args.out_prefix + ".txt").write_text(grade_report_table(report))
    if args.format == "json":
        print(grade_report_to_json(report))
    else:
        print(grade_report_table(report), end="")
    return _EXIT_OK


# --- report ----------------------------------------------------------------------

def cmd_report(args) -> int:
    entries = []
    for item in args.entry:
        if "=" not in item:
            print(f"error: --entry needs team=path, got {item!r}", file=sys.stderr)
            return _EXIT_USAGE
        team, path = item.split("=", 1)
        entries.append((team, grade_report_from_json(Path(path).read_text())))
    ordered = rank(entries)
    table = leaderboard_table(ordered)
    if args.out:
        Path(args.out).write_text(table)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"rank": i + 1, "team": team, "auc_mixed": round(r.auc_mixed, 2),
                     "auc_random": round(r.auc_random, 2), "auc_skilled": round(r.auc_skilled, 2)}
                    for i, (team, r) in enumerate(ordered)
                ],
                sort_keys=True,
            )
        )
    else:
        print(table, end="")
    return _EXIT_OK


# --- parser ----------------------------------------------------------------------

def _casts(parser: argparse.ArgumentParser) -> dict:
    """Each typed flag's argparse type by destination, which also casts the
    --config file value of the same key. In `synth` and `score` the typed
    flags are exactly the config fields the command lets a user set."""
    return {a.dest: a.type for a in parser._actions if a.type is not None}


def _build_parser() -> argparse.ArgumentParser:
    # Unset flags stay None, so the library's dataclass defaults apply.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=None, help="master seed")
    shared.add_argument("--config", default=None, help="flat key=value configuration file")

    parser = argparse.ArgumentParser(prog="bbauth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[shared], help="generate synthetic splits and keys")
    p.add_argument("--users", type=int, default=None, help="evaluation users/devices")
    p.add_argument("--train-users", dest="train_users", type=int, default=None)
    p.add_argument("--val-users", dest="validation_users", type=int, default=None)
    p.add_argument("--sigma-between", dest="sigma_between", type=float, default=None)
    p.add_argument("--sigma-within", dest="sigma_within", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None, help="skilled imitation strength in [0,1]")
    p.add_argument("--beta", type=float, default=None, help="device bias magnitude")
    p.add_argument("--out", default=None, help="output directory (default: $BBAUTH_DATA_DIR)")
    p.add_argument("--force", action="store_true", help="overwrite an existing output directory")
    p.set_defaults(handler=cmd_synth, casts=_casts(p))

    p = sub.add_parser("comparisons", parents=[shared], help="build a comparison list and key")
    p.add_argument("--data", default=None, help="split document (default: $BBAUTH_DATA_DIR/evaluation.json)")
    p.add_argument("--task", required=True, choices=[t.value for t in TaskKind])
    p.add_argument("--out-list", dest="out_list", required=True)
    p.add_argument("--out-key", dest="out_key", required=True)
    p.set_defaults(handler=cmd_comparisons, casts=_casts(p))

    p = sub.add_parser("score", parents=[shared], help="score a comparison list with one matcher")
    p.add_argument("--data", default=None, help="split document (default: $BBAUTH_DATA_DIR/evaluation.json)")
    p.add_argument("--train", default=None, help="training split (default: $BBAUTH_DATA_DIR/train.json)")
    p.add_argument("--comparisons", required=True)
    p.add_argument("--matcher", required=True, choices=MATCHERS)
    p.add_argument("--out", required=True, help="score CSV path")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--dwt-length", dest="dwt_length", type=int, default=None)
    p.add_argument("--dwt-width", dest="dwt_width", type=int, default=None)
    p.set_defaults(handler=cmd_score, casts=_casts(p))

    p = sub.add_parser("grade", help="grade a score file against a key")
    p.add_argument("--scores", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--out-prefix", dest="out_prefix", default=None,
                   help="write <prefix>.json and <prefix>.txt")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(handler=cmd_grade)

    p = sub.add_parser("report", help="rank graded submissions")
    p.add_argument("--entry", action="append", required=True, metavar="TEAM=REPORT.JSON")
    p.add_argument("--out", default=None, help="leaderboard text file")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(handler=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except (BBAuthError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
