import json
import re
from dataclasses import asdict, fields

import pytest

from bbauth import cli
from bbauth.benchmark import FAMILY_TASKS
from bbauth.cli import _SYNTH_FIELDS, _build_parser, main
from bbauth.data import parse_dataset
from bbauth.protocol import comparison_list_from_json, score_file_to_csv
from bbauth.runner import RunConfig, score_comparisons
from bbauth.synth import GenConfig

TINY_ARGS = ["--users", "2", "--train-users", "2", "--val-users", "2", "--seed", "7"]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["synth", *TINY_ARGS, "--out", str(out)]) == 0
    return out


def test_synth_writes_expected_files(synth_dir):
    names = {p.name for p in synth_dir.iterdir()}
    assert {"train.json", "validation.json", "evaluation.json", "manifest.json"} <= names
    assert "comparisons_evaluation_keystroke.json" in names
    assert "key_evaluation_keystroke.json" in names
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 7
    assert manifest["sessions"]["evaluation"] == 2 * 4 * 6


def test_synth_refuses_overwrite_without_force(synth_dir):
    assert main(["synth", *TINY_ARGS, "--out", str(synth_dir)]) == 3


def test_synth_force_rerun_is_bitwise_identical(synth_dir, tmp_path):
    before = {p.name: p.read_bytes() for p in synth_dir.iterdir()}
    assert main(["synth", *TINY_ARGS, "--out", str(synth_dir), "--force"]) == 0
    after = {p.name: p.read_bytes() for p in synth_dir.iterdir()}
    assert before == after


def test_synth_data_dir_env_default(tmp_path, monkeypatch):
    target = tmp_path / "env_data"
    monkeypatch.setenv("BBAUTH_DATA_DIR", str(target))
    assert main(["synth", *TINY_ARGS]) == 0
    assert (target / "manifest.json").exists()


def test_synth_missing_out_is_usage_error(monkeypatch):
    monkeypatch.delenv("BBAUTH_DATA_DIR", raising=False)
    assert main(["synth", *TINY_ARGS]) == 2


def test_synth_invalid_config_exit_code(tmp_path):
    assert main(["synth", "--users", "1", "--out", str(tmp_path / "x")]) == 4


def test_comparisons_command(synth_dir, tmp_path):
    out_list = tmp_path / "list.json"
    out_key = tmp_path / "key.json"
    code = main([
        "comparisons", "--data", str(synth_dir / "validation.json"), "--task", "tapping",
        "--seed", "5", "--out-list", str(out_list), "--out-key", str(out_key),
    ])
    assert code == 0
    obj = json.loads(out_list.read_text())
    assert obj["task"] == "tapping"
    assert len(obj["comparisons"]) == 12
    key = json.loads(out_key.read_text())
    assert set(key["labels"].values()) == {"genuine", "random", "skilled"}


def test_score_keystroke_and_grade_flow(synth_dir, tmp_path):
    scores_csv = tmp_path / "scores.csv"
    code = main([
        "score", "--data", str(synth_dir / "evaluation.json"),
        "--comparisons", str(synth_dir / "comparisons_evaluation_keystroke.json"),
        "--matcher", "keystroke-ngram", "--out", str(scores_csv),
    ])
    assert code == 0
    lines = scores_csv.read_text().splitlines()
    comparisons = json.loads((synth_dir / "comparisons_evaluation_keystroke.json").read_text())
    assert len(lines) == len(comparisons["comparisons"]) + 1
    # scores follow comparison-list order
    assert [l.split(",")[0] for l in lines[1:]] == [c["id"] for c in comparisons["comparisons"]]

    rerun_csv = tmp_path / "scores2.csv"
    main([
        "score", "--data", str(synth_dir / "evaluation.json"),
        "--comparisons", str(synth_dir / "comparisons_evaluation_keystroke.json"),
        "--matcher", "keystroke-ngram", "--out", str(rerun_csv),
    ])
    assert rerun_csv.read_bytes() == scores_csv.read_bytes()

    prefix = tmp_path / "report"
    code = main([
        "grade", "--scores", str(scores_csv),
        "--key", str(synth_dir / "key_evaluation_keystroke.json"),
        "--out-prefix", str(prefix), "--format", "json",
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) >= {"auc_mixed", "auc_random", "auc_skilled", "counts"}
    assert (tmp_path / "report.txt").read_text().count("\n") == 2


def test_score_never_mutates_inputs(synth_dir, tmp_path):
    data = synth_dir / "evaluation.json"
    comparisons = synth_dir / "comparisons_evaluation_gallery.json"
    before = (data.read_bytes(), comparisons.read_bytes())
    assert main([
        "score", "--data", str(data), "--comparisons", str(comparisons),
        "--matcher", "swipe-template", "--out", str(tmp_path / "s.csv"),
    ]) == 0
    assert (data.read_bytes(), comparisons.read_bytes()) == before


def test_score_matcher_task_mismatch(synth_dir, tmp_path, monkeypatch):
    # rejected when the run config is built, before any split is parsed
    monkeypatch.setattr(cli, "_load_split", lambda path: pytest.fail(f"parsed {path}"))
    for matcher, task in (("keystroke-ngram", "tapping"), ("swipe-template", "keystroke")):
        code = main([
            "score", "--data", str(synth_dir / "evaluation.json"),
            "--comparisons", str(synth_dir / f"comparisons_evaluation_{task}.json"),
            "--matcher", matcher, "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 4


@pytest.mark.parametrize("matcher", ["siamese", "dwt-distance"])
def test_score_rejects_epochs_below_one(matcher, synth_dir, tmp_path, monkeypatch, capsys):
    # rejected when the run config is built, before any split is parsed
    monkeypatch.setattr(cli, "_load_split", lambda path: pytest.fail(f"parsed {path}"))
    out = tmp_path / "x.csv"
    for epochs in ("0", "-1"):
        assert main([
            "score", "--data", str(synth_dir / "evaluation.json"),
            "--train", str(synth_dir / "train.json"),
            "--comparisons", str(synth_dir / "comparisons_evaluation_tapping.json"),
            "--matcher", matcher, "--out", str(out), "--epochs", epochs,
        ]) == 4
        assert "epochs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("matcher, task", FAMILY_TASKS, ids=[m for m, _ in FAMILY_TASKS])
def test_score_defaults_match_library(synth_dir, tmp_path, matcher, task):
    comparisons = synth_dir / f"comparisons_evaluation_{task.value}.json"
    out = tmp_path / "scores.csv"
    assert main([
        "score", "--data", str(synth_dir / "evaluation.json"),
        "--train", str(synth_dir / "train.json"), "--comparisons", str(comparisons),
        "--matcher", matcher, "--out", str(out),
    ]) == 0
    clist = comparison_list_from_json(comparisons.read_text())
    run = score_comparisons(
        parse_dataset((synth_dir / "evaluation.json").read_text()),
        clist,
        RunConfig(matcher, clist.task),
        parse_dataset((synth_dir / "train.json").read_text()),
    )
    assert out.read_text() == score_file_to_csv(run.scores)


def _manifest_config(config: GenConfig) -> dict:
    expected = asdict(config)
    expected["tasks"] = [t.value for t in expected["tasks"]]
    return expected


def test_synth_defaults_match_gen_config(tmp_path):
    assert main(["synth", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"] == _manifest_config(GenConfig())


def test_synth_config_file_values_map_to_fields(tmp_path):
    config = tmp_path / "gen.cfg"
    config.write_text("users = 2\ntrain_users = 2\nvalidation_users = 2\nalpha = 0.25\nseed = 3\n")
    out = tmp_path / "data"
    assert main(["synth", "--config", str(config), "--users", "3", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == _manifest_config(GenConfig(
        n_users=3, n_train_users=2, n_validation_users=2, imitation_alpha=0.25, master_seed=3,
    ))


def test_every_config_field_has_a_flag():
    parser = _build_parser()
    score = parser.parse_args(["score", "--comparisons", "c", "--matcher", "softdtw", "--out", "o"])
    assert set(score.casts) == {f.name for f in fields(RunConfig)} - {"matcher", "task"}
    synth = parser.parse_args(["synth"])
    mapped = [_SYNTH_FIELDS.get(dest, dest) for dest in synth.casts]
    assert len(set(mapped)) == len(mapped)
    assert set(mapped) <= {f.name for f in fields(GenConfig)}


def test_grade_perfect_and_constant(synth_dir, tmp_path, capsys):
    key_path = synth_dir / "key_evaluation_tapping.json"
    key = json.loads(key_path.read_text())["labels"]
    perfect = "comparison_id,score\n" + "".join(
        f"{cid},{1.0 if label == 'genuine' else 0.0}\n" for cid, label in key.items()
    )
    perfect_path = tmp_path / "perfect.csv"
    perfect_path.write_text(perfect)
    prefix = tmp_path / "perfect_report"
    assert main(["grade", "--scores", str(perfect_path), "--key", str(key_path),
                 "--out-prefix", str(prefix)]) == 0
    report = json.loads((tmp_path / "perfect_report.json").read_text())
    assert (report["auc_mixed"], report["auc_random"], report["auc_skilled"]) == (100.0, 100.0, 100.0)

    constant = "comparison_id,score\n" + "".join(f"{cid},0.5\n" for cid in key)
    constant_path = tmp_path / "constant.csv"
    constant_path.write_text(constant)
    capsys.readouterr()
    assert main(["grade", "--scores", str(constant_path), "--key", str(key_path),
                 "--out-prefix", str(tmp_path / "constant_report")]) == 0
    warning = f"degenerate scores: 1 distinct value(s) over {len(key)} comparisons"
    assert f"warning: {warning}\n" in capsys.readouterr().err
    report = json.loads((tmp_path / "constant_report.json").read_text())
    assert (report["auc_mixed"], report["auc_random"], report["auc_skilled"]) == (50.0, 50.0, 50.0)
    assert report["warnings"] == [warning]


def test_grade_missing_scores_exit_5(synth_dir, tmp_path):
    partial = tmp_path / "partial.csv"
    partial.write_text("comparison_id,score\nc000000,0.5\n")
    code = main(["grade", "--scores", str(partial),
                 "--key", str(synth_dir / "key_evaluation_tapping.json")])
    assert code == 5


def test_report_ranking_and_ties(tmp_path):
    def write_report(name, mixed, skilled):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "auc_mixed": mixed, "auc_random": 50.0, "auc_skilled": skilled,
            "counts": {}, "warnings": [],
            "pair_counts": {"mixed": [0, 1], "random": [0, 1], "skilled": [0, 1]},
        }))
        return path

    a = write_report("a", 66.37, 67.91)
    b = write_report("b", 51.25, 53.13)
    out = tmp_path / "board.txt"
    assert main(["report", "--entry", f"alpha={a}", "--entry", f"beta={b}",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("1") and "alpha" in lines[1]
    assert lines[2].startswith("2") and "beta" in lines[2]

    c = write_report("c", 66.37, 1.0)
    assert main(["report", "--entry", f"zeta={a}", "--entry", f"alpha={c}",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "alpha" in lines[1] and "zeta" in lines[2]  # tie broken by name


def test_report_single_entry(tmp_path):
    path = tmp_path / "solo.json"
    path.write_text(json.dumps({
        "auc_mixed": 55.0, "auc_random": 50.0, "auc_skilled": 50.0,
        "counts": {}, "warnings": [],
        "pair_counts": {"mixed": [0, 1], "random": [0, 1], "skilled": [0, 1]},
    }))
    out = tmp_path / "board.txt"
    assert main(["report", "--entry", f"solo={path}", "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 2


def test_config_file_precedence(synth_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 99  # overridden by flag\n")
    out_a = tmp_path / "a.json"
    out_k = tmp_path / "k.json"
    code = main([
        "comparisons", "--data", str(synth_dir / "validation.json"), "--task", "gallery",
        "--config", str(config), "--out-list", str(out_a), "--out-key", str(out_k),
    ])
    assert code == 0
    from_file = json.loads(out_a.read_text())
    code = main([
        "comparisons", "--data", str(synth_dir / "validation.json"), "--task", "gallery",
        "--config", str(config), "--seed", "99", "--out-list", str(out_a), "--out-key", str(out_k),
    ])
    assert json.loads(out_a.read_text()) == from_file  # flag 99 == file 99

    code = main([
        "comparisons", "--data", str(synth_dir / "validation.json"), "--task", "gallery",
        "--config", str(config), "--seed", "1", "--out-list", str(out_a), "--out-key", str(out_k),
    ])
    assert json.loads(out_a.read_text()) != from_file  # flag overrides file


def test_config_file_unknown_key_exit_4(synth_dir, tmp_path, capsys):
    score = ["score", "--data", str(synth_dir / "evaluation.json"),
             "--comparisons", str(synth_dir / "comparisons_evaluation_tapping.json"),
             "--matcher", "softdtw", "--out", str(tmp_path / "s.csv")]
    for key in ("gama", "threads", "tau", "top_k", "target_len", "gamma", "margin", "batch_size",
                "learning_rate", "dwt_length", "dwt_width"):
        config = tmp_path / f"{key}.cfg"
        config.write_text(f"# tuning\nepochs = 1\n{key} = 4\n")
        capsys.readouterr()
        assert main([*score, "--config", str(config)]) == 4
        assert f"{config}:3: unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()
    config = tmp_path / "shared.cfg"
    config.write_text("seed = 1\nepochs = 1\n")  # comparisons reads only seed
    assert main([
        "comparisons", "--data", str(synth_dir / "validation.json"), "--task", "gallery",
        "--config", str(config), "--out-list", str(tmp_path / "a.json"),
        "--out-key", str(tmp_path / "k.json"),
    ]) == 4


def test_removed_flags_are_usage_errors(synth_dir, tmp_path, capsys):
    score = ["score", "--data", str(synth_dir / "evaluation.json"),
             "--comparisons", str(synth_dir / "comparisons_evaluation_tapping.json"),
             "--matcher", "softdtw", "--out", str(tmp_path / "s.csv")]
    comparisons = ["comparisons", "--data", str(synth_dir / "validation.json"), "--task", "gallery",
                   "--out-list", str(tmp_path / "a.json"), "--out-key", str(tmp_path / "k.json")]
    removed = [(score, flag) for flag in ("--tau", "--top-k", "--target-len", "--gamma", "--margin",
                                          "--batch-size", "--learning-rate", "--dwt-length",
                                          "--dwt-width")]
    for argv, flag in (*removed, (comparisons, "--policy"), (comparisons, "--sample-k")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "a.json").exists()


@pytest.mark.parametrize("matcher", ["softdtw", "siamese"])
def test_score_without_train_exit_4(matcher, synth_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("BBAUTH_DATA_DIR", raising=False)
    monkeypatch.setattr(cli, "_load_split", lambda path: pytest.fail(f"parsed {path}"))
    out = tmp_path / "s.csv"
    assert main(["score", "--data", str(synth_dir / "evaluation.json"),
                 "--comparisons", str(synth_dir / "comparisons_evaluation_tapping.json"),
                 "--matcher", matcher, "--out", str(out)]) == 4
    assert f"matcher {matcher!r} needs --train" in capsys.readouterr().err
    assert not out.exists()


def test_score_rejects_duplicate_comparison_ids(synth_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_load_split", lambda path: pytest.fail(f"parsed {path}"))
    obj = json.loads((synth_dir / "comparisons_evaluation_tapping.json").read_text())
    obj["comparisons"][1]["id"] = obj["comparisons"][0]["id"]
    comparisons = tmp_path / "dup.json"
    comparisons.write_text(json.dumps(obj))
    out = tmp_path / "s.csv"
    assert main(["score", "--data", str(synth_dir / "evaluation.json"),
                 "--comparisons", str(comparisons), "--matcher", "dwt-distance",
                 "--out", str(out)]) == 4
    assert f"duplicate comparison id {obj['comparisons'][0]['id']!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("verify", 5), ("enroll", "ab"), ("enroll", ["a", "b", "c"]), ("id", 5),
])
def test_score_rejects_non_string_session_ids(synth_dir, tmp_path, monkeypatch, capsys,
                                              field, value):
    monkeypatch.setattr(cli, "_load_split", lambda path: pytest.fail(f"parsed {path}"))
    obj = json.loads((synth_dir / "comparisons_evaluation_tapping.json").read_text())
    obj["comparisons"][0][field] = value
    comparisons = tmp_path / "bad.json"
    comparisons.write_text(json.dumps(obj))
    out = tmp_path / "s.csv"
    assert main(["score", "--data", str(synth_dir / "evaluation.json"),
                 "--comparisons", str(comparisons), "--matcher", "dwt-distance",
                 "--out", str(out)]) == 4
    named = "comparisons[0]" if field == "id" else f"comparison {obj['comparisons'][0]['id']!r}"
    assert f"error: malformed comparison list: {named}: {field}" in capsys.readouterr().err
    assert not out.exists()


def test_score_parses_each_split_once_and_reports_parse_time(synth_dir, tmp_path, monkeypatch,
                                                             capsys):
    parsed = []

    def counting_parse(document, split_kind=None):
        split = parse_dataset(document, split_kind)
        parsed.append(split.split_kind.value)
        return split

    monkeypatch.setattr(cli, "parse_dataset", counting_parse)
    capsys.readouterr()
    assert main(["score", "--data", str(synth_dir / "evaluation.json"),
                 "--train", str(synth_dir / "train.json"),
                 "--comparisons", str(synth_dir / "comparisons_evaluation_tapping.json"),
                 "--matcher", "softdtw", "--out", str(tmp_path / "s.csv")]) == 0
    assert sorted(parsed) == ["evaluation", "train"]
    line = capsys.readouterr().out
    assert re.fullmatch(
        r"softdtw: \d+ comparisons, parse \d+\.\d\ds, setup \d+\.\d\ds, prepare \d+\.\d\ds, "
        r"score \(enroll \+ verify\) \d+\.\d\ds, total \d+\.\d\ds\n", line)


@pytest.mark.parametrize("matcher", ["softdtw", "dwt-distance"])
def test_score_names_the_session_whose_prepare_fails(matcher, synth_dir, tmp_path, capsys):
    comparisons = synth_dir / "comparisons_evaluation_tapping.json"
    target = comparison_list_from_json(comparisons.read_text()).comparisons[0]
    sid = target.verification_session_id
    document = json.loads((synth_dir / "evaluation.json").read_text())
    for session in document["sessions"]:
        if session["session_id"] == sid:
            session["streams"]["touch"] = []
    broken = tmp_path / "evaluation.json"
    broken.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["score", "--data", str(broken), "--comparisons", str(comparisons),
                 "--train", str(synth_dir / "train.json"), "--matcher", matcher,
                 "--out", str(tmp_path / "s.csv")]) == 4
    err = capsys.readouterr().err
    assert f"session {sid!r}" in err
    if matcher == "dwt-distance":
        assert f"session {sid!r}: no touch stream" in err


def test_io_failure_exit_3(tmp_path):
    code = main(["grade", "--scores", str(tmp_path / "missing.csv"),
                 "--key", str(tmp_path / "missing.json")])
    assert code == 3


def test_malformed_inputs_exit_4(synth_dir, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code = main([
        "score", "--data", str(synth_dir / "evaluation.json"),
        "--comparisons", str(broken), "--matcher", "swipe-template",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 4
    unknown_split = tmp_path / "unknown.json"
    unknown_split.write_text('{"split": "holdout", "sessions": []}')
    for data in (broken, unknown_split):
        assert main([
            "score", "--data", str(data),
            "--comparisons", str(synth_dir / "comparisons_evaluation_gallery.json"),
            "--matcher", "swipe-template", "--out", str(tmp_path / "s.csv"),
        ]) == 4
    scores = tmp_path / "scores.csv"
    scores.write_text("comparison_id,score\nc000000,0.5\n")
    assert main(["grade", "--scores", str(scores), "--key", str(broken)]) == 4
