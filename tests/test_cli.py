import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from factrank import cli
from factrank.cli import RunConfig, build_parser, main
from factrank.kb import Relation
from factrank.scorer import load_scorer, save_scorer
from conftest import SMALL_SYNTH


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_synth")
    code = main(["synth", "--out", str(out), "--seed", "3", "--qa-pairs", "40", "--facts-per-relation", "4",
                 "--vocab-size", "40", "--wordvec-dim", "8", "--feature-dim", "16", "--concept-label-count", "40"])
    assert code == 0
    return out


def _data_flags(d, checkpoints, out=None):
    flags = ["--kb", str(d / "kb.tsv"), "--qa", str(d / "qa.jsonl"), "--features", str(d / "features.txt"),
             "--concepts", str(d / "concepts.txt"), "--concept-labels", str(d / "concept_labels.txt"),
             "--wordvec", str(d / "wordvec.txt"), "--checkpoints", str(checkpoints)]
    return flags if out is None else flags + ["--out", str(out)]


def test_cli_synth_train_evaluate_answer(synth_dir, tmp_path, capsys):
    flags = _data_flags(synth_dir, tmp_path / "ckpt") + ["--fold", "1"]
    out = ["--out", str(tmp_path / "out")]
    assert main(["kb-stats", "--kb", str(synth_dir / "kb.tsv")]) == 0
    assert main(["train", "relation", *flags, *out, "--relation-epochs", "1"]) == 0
    assert main(["train", "source", *flags, *out, "--source-epochs", "1"]) == 0
    assert main(["train", "scorer", *flags, *out, "--iterations", "0", "--epochs-per-iteration", "1"]) == 0
    assert main(["evaluate", *flags, *out]) == 0
    inst = json.loads((synth_dir / "qa.jsonl").read_text().splitlines()[0])
    assert main(["answer", *flags, "--image-id", inst["image_id"], "--question", inst["question"]]) == 0
    assert "answer:" in capsys.readouterr().out


def _kb_stats(path, capsys) -> list[str]:
    assert main(["kb-stats", "--kb", str(path)]) == 0
    return capsys.readouterr().out.splitlines()


def test_cli_kb_stats_prints_each_relation_count_the_total_and_the_vocabulary_size(tmp_path, small_synth_dir,
                                                                                  capsys):
    width = max(len(r.value) for r in Relation)
    path = tmp_path / "empty.tsv"
    path.write_text("# nothing but a comment\n", encoding="utf-8")
    assert _kb_stats(path, capsys) == [f"{r.value:<{width}} 0" for r in Relation] + [
        "total facts: 0", "vocabulary size: 0"]
    path = tmp_path / "two.tsv"  # five distinct tokens: "d" is in two phrases
    path.write_text("f1\tA\tIsA\tB d\nf2\tC d\tHasA\tE\n", encoding="utf-8")
    counts = {Relation.IS_A: 1, Relation.HAS_A: 1}
    assert _kb_stats(path, capsys) == [f"{r.value:<{width}} {counts.get(r, 0)}" for r in Relation] + [
        "total facts: 2", "vocabulary size: 5"]
    per_relation = SMALL_SYNTH["facts_per_relation"]
    assert _kb_stats(small_synth_dir / "kb.tsv", capsys)[:-1] == [
        f"{r.value:<{width}} {per_relation}" for r in Relation] + [f"total facts: {per_relation * len(Relation)}"]


@pytest.mark.parametrize("command", [["synth"], ["train", "relation"], ["train", "scorer"]],
                         ids=["synth", "train-relation", "train-scorer"])
def test_cli_negative_seed_is_usage_error_by_flag_and_by_config_file(synth_dir, tmp_path, capsys, command):
    # np.random.default_rng would reject it with a ValueError traceback
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": -1}))
    flags = [] if command == ["synth"] else _data_flags(synth_dir, tmp_path / "ckpt")
    flags += ["--out", str(tmp_path / "out")]
    for source in (["--seed", "-1"], ["--config", str(config)]):
        assert main([*command, *flags, *source]) == 2
        err = capsys.readouterr().err
        assert "--seed: must be >= 0, got -1" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "ckpt").exists()


@pytest.fixture(scope="module")
def trained(synth_dir, tmp_path_factory):
    """A checkpoint directory with all three models, fold 1 held out, one epoch each."""
    root = tmp_path_factory.mktemp("cli_trained")
    flags = _data_flags(synth_dir, root / "ckpt", root / "out") + ["--fold", "1"]
    for kind, *knobs in (["relation", "--relation-epochs", "1"], ["source", "--source-epochs", "1"],
                         ["scorer", "--iterations", "0", "--epochs-per-iteration", "1"]):
        assert main(["train", kind, *flags, *knobs]) == 0
    return root / "ckpt"


@pytest.mark.parametrize("command, extra, message", [
    (["evaluate"], ["-k", "0"], "-k: must be >= 1, got 0"),
    (["evaluate"], ["--checkpoints", "none/"], "--checkpoints: missing checkpoint none/scorer_fold1.ckpt"),
    (["train", "relation"], ["--relation-epochs", "0", "--checkpoints", "ckpt"],
     "relation classifier: epochs and batch_size must be >= 1"),
], ids=["evaluate-k-0", "evaluate-missing-checkpoint", "train-zero-epochs"])
def test_a_run_that_exits_2_leaves_no_directory(synth_dir, trained, tmp_path, capsys, monkeypatch, command, extra,
                                                message):
    monkeypatch.chdir(tmp_path)
    assert main([*command, *_data_flags(synth_dir, trained, "out"), "--fold", "1", *extra]) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_the_evaluate_meta_record_counts_read_the_same_on_a_fact_matrix_cache_hit(synth_dir, trained, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("kb.tsv", "qa.jsonl", "features.txt", "concepts.txt", "concept_labels.txt", "wordvec.txt"):
        (data / name).write_bytes((synth_dir / name).read_bytes())
    with open(data / "kb.tsv", "a", encoding="utf-8") as fh:
        fh.write("fx\tzyzzyva\tIsA\tqwxq\n")  # two fully out-of-vocabulary phrases
    with open(data / "wordvec.txt", "a", encoding="utf-8") as fh:
        fh.write((synth_dir / "wordvec.txt").read_text(encoding="utf-8").splitlines()[0] + "\n")  # a duplicate
    cache = data / "kb.tsv.facts.cache.npz"
    metas = []
    for out in ("built", "hit"):
        if out == "hit":  # an old mtime, which a rewrite would replace
            os.utime(cache, ns=(0, 0))
        assert main(["evaluate", *_data_flags(data, trained, tmp_path / out), "--fold", "1"]) == 0
        metas.append(json.loads((tmp_path / out / "evaluate_metrics.jsonl").read_text().splitlines()[0]))
    assert cache.stat().st_mtime_ns == 0
    assert [(m["type"], m["duplicate_count"], m["oov_phrase_count"]) for m in metas] == [("meta", 1, 2)] * 2


def test_cli_answer_with_an_unknown_image_id_is_usage_error(synth_dir, trained, capsys):
    flags = _data_flags(synth_dir, trained) + ["--fold", "1"]
    assert main(["answer", *flags, "--image-id", "nope", "--question", "what is this"]) == 2
    assert "--image-id: no image feature for image id 'nope'" in capsys.readouterr().err


def test_cli_answer_with_an_image_that_has_no_concept_vector_is_usage_error(synth_dir, trained, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("kb.tsv", "qa.jsonl", "features.txt", "concepts.txt", "concept_labels.txt", "wordvec.txt"):
        (data / name).write_bytes((synth_dir / name).read_bytes())
    first = (synth_dir / "features.txt").read_text(encoding="utf-8").splitlines()[0]
    with open(data / "features.txt", "a", encoding="utf-8") as fh:  # features, but no concept row
        fh.write("extra " + first.split(" ", 1)[1] + "\n")
    flags = _data_flags(data, trained) + ["--fold", "1"]
    assert main(["answer", *flags, "--image-id", "extra", "--question", "what is this"]) == 2
    assert "error: --image-id: no concept vector for image id 'extra'" in capsys.readouterr().err


def test_cli_answer_warns_when_every_question_token_is_unknown_to_the_scorer(synth_dir, trained, caplog, capsys):
    flags = _data_flags(synth_dir, trained) + ["--fold", "1"]
    inst = json.loads((synth_dir / "qa.jsonl").read_text(encoding="utf-8").splitlines()[0])
    with caplog.at_level("WARNING", logger="factrank.cli"):
        for question in (inst["question"], "zyzzyva qwxq?"):
            assert main(["answer", *flags, "--image-id", inst["image_id"], "--question", question]) == 0
    assert [r.getMessage() for r in caplog.records if r.name == "factrank.cli"] == [
        "every token of the question 'zyzzyva qwxq?' is unknown to the scorer's vocabulary"]
    assert "answer:" in capsys.readouterr().out


def test_cli_evaluate_missing_checkpoint_is_usage_error(synth_dir, tmp_path, capsys):
    flags = _data_flags(synth_dir, tmp_path / "empty", tmp_path / "out") + ["--fold", "1"]
    assert main(["evaluate", *flags]) == 2
    assert "missing checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    (["train", "relation", "--out", "out"], "fold", 9),
    (["evaluate", "--out", "out"], "fold", 9),
    (["answer", "--image-id", "img", "--question", "what is this"], "fold", 9),
    (["kb-stats"], "threads", 0),
    (["evaluate"], "threads", -1),
], ids=["train-relation-fold", "evaluate-fold", "answer-fold", "kb-stats-threads", "evaluate-threads"])
def test_cli_fold_or_threads_out_of_range_is_usage_error_by_flag_and_by_config_file(
        synth_dir, tmp_path, capsys, monkeypatch, command, key, value):
    # evaluate and answer used to report a fold-9 checkpoint missing, and a
    # thread count below 1 used to be exported to the BLAS environment
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}))
    data = ["--kb", str(synth_dir / "kb.tsv")] if command == ["kb-stats"] else _data_flags(synth_dir, "ckpt")
    bound = "must be in [1, 2, 3, 4, 5]" if key == "fold" else "must be >= 1"
    for source in ([f"--{key}={value}"], ["--config", str(config)]):
        assert main([*command, *data, *source]) == 2
        err = capsys.readouterr().err
        assert f"--{key}: {bound}, got {value}" in err and "Traceback" not in err
        assert [os.environ[v] for v in THREAD_VARS] == ["1"] * 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("command, flag, value, text", [
    (["evaluate"], "-k", "0", '{"k": 0}'),
    (["answer", "--image-id", "img", "--question", "what is this"], "-k", "-1", '{"k": -1}'),
    (["train", "relation"], "--relation-lr", "nan", '{"relation_lr": NaN}'),
    (["train", "scorer"], "--margin", "inf", '{"margin": Infinity}'),
    (["synth"], "--concept-signal", "-inf", '{"concept_signal": -Infinity}'),
], ids=["evaluate-k-0", "answer-k-negative", "train-relation-lr-nan", "train-scorer-margin-inf",
        "synth-concept-signal-minus-inf"])
def test_k_below_1_or_a_non_finite_float_is_usage_error_by_flag_and_by_config_file(
        synth_dir, tmp_path, capsys, monkeypatch, command, flag, value, text):
    # evaluate used to load the data and checkpoints before rejecting k, and a
    # NaN rate used to train a whole epoch before its loss stopped the run
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(text)  # Python's json reads NaN and Infinity
    data = [] if command == ["synth"] else _data_flags(synth_dir, "ckpt")
    bound = "must be >= 1" if flag == "-k" else "must be finite"
    for source in ([f"{flag}={value}"], ["--config", str(config)]):
        assert main([*command, *data, *source]) == 2
        err = capsys.readouterr().err
        assert f"{flag}: {bound}, got {value}" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


# ----------------------------------------------------------------------
# the option table
# ----------------------------------------------------------------------

COMMON = ["-h", "--help", "--config", "--threads"]
DATA = ["--kb", "--qa", "--features", "--concepts", "--concept-labels", "--wordvec", "--checkpoints", "--fold"]
TRAIN = COMMON + DATA + ["--seed", "--out"]
OPTIONS = {
    "train relation": TRAIN + ["--relation-epochs", "--relation-batch-size", "--relation-lr", "--relation-dropout"],
    "train source": TRAIN + ["--source-epochs", "--source-batch-size", "--source-lr", "--source-dropout"],
    "train scorer": TRAIN + ["--variant", "--margin", "--weight-decay", "--negatives", "--iterations",
                             "--epochs-per-iteration", "--mining-period", "--scorer-batch-size", "--scorer-lr",
                             "--scorer-dropout"],
    "evaluate": COMMON + DATA + ["--out", "-k", "--gt-relation", "--gt-source", "--reference"],
    "answer": COMMON + DATA + ["-k", "--image-id", "--question"],
    "synth": COMMON + ["--seed", "--out", "--vocab-size", "--facts-per-relation", "--qa-pairs", "--concept-signal",
                       "--image-answer-fraction", "--distractor-concepts", "--wordvec-dim", "--feature-dim",
                       "--concept-label-count"],
    "kb-stats": COMMON + ["--kb"],
    "convert-fvqa": COMMON + ["--out", "--questions", "--facts"],
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _subcommands(parser, prefix=""):
    """(name, parser) of each leaf subcommand, a train kind named "train <kind>"."""
    subparsers = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
    if subparsers is None:
        return [(prefix.strip(), parser)]
    return [leaf for name, sub in subparsers.choices.items() for leaf in _subcommands(sub, f"{prefix}{name} ")]


def test_each_subcommand_takes_exactly_its_option_strings():
    leaves = dict(_subcommands(build_parser()))
    assert sorted(leaves) == sorted(OPTIONS)
    for command, parser in leaves.items():
        taken = [s for action in parser._actions for s in action.option_strings]
        assert sorted(taken) == sorted(OPTIONS[command]), command


@pytest.mark.parametrize("argv", [
    ["evaluate", "--variant", "q+i"],  # training knob: evaluate scores the checkpoint's variant
    ["answer", "--image-id", "img", "--question", "what is this", "--out", "x"],  # answer writes nothing
    ["synth", "--kb", "x"],  # data path
    ["kb-stats", "--seed", "1"],  # shared knob
    ["synth", "--vocab", "45"],  # abbreviation of --vocab-size
    ["train", "relation", "--margin", "5"],  # scorer knob
    ["train", "source", "--variant", "q+i"],  # scorer knob
    ["train", "scorer", "--relation-epochs", "2"],  # relation classifier knob
], ids=["evaluate-variant", "answer-out", "synth-kb", "kb-stats-seed", "synth-abbreviation", "train-relation-margin",
        "train-source-variant", "train-scorer-relation-epochs"])
def test_a_flag_the_subcommand_does_not_read_is_unrecognized(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.fixture()
def captured(monkeypatch):
    """Configs that main hands to the train, evaluate, synth and kb-stats handlers, which do nothing else."""
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    seen = []
    for name in ("cmd_train", "cmd_evaluate", "cmd_synth", "cmd_kb_stats"):
        monkeypatch.setattr(cli, name, lambda cfg, *rest: seen.append(cfg) or 0)
    return seen


def _other_value(f):
    if f.metadata.get("choices"):
        return next(c for c in f.metadata["choices"] if c != f.default)
    if f.type.startswith("int"):
        return 5 if f.default is None else f.default + 1
    if f.type == "float":
        return 0.25
    return "elsewhere"


def test_every_field_is_the_same_by_flag_and_by_config_file(captured, tmp_path):
    command = {"kb-stats": ["kb-stats"], "scorer": ["train", "scorer"], "relation": ["train", "relation"],
               "source": ["train", "source"], "evaluate": ["evaluate"], "synth": ["synth"]}
    for f in dataclasses.fields(RunConfig):
        value = _other_value(f)
        assert value != f.default, f.name
        argv = next(argv for name, argv in command.items() if name in f.metadata.get("scope", command))
        flag = "-k" if f.name == "k" else "--" + f.name.replace("_", "-")
        config = tmp_path / f"{f.name}.json"
        config.write_text(json.dumps({f.name: value}))
        assert main([*argv, flag, str(value)]) == 0
        assert main([*argv, "--config", str(config)]) == 0
        by_flag, by_file = captured[-2:]
        assert by_flag == by_file == dataclasses.replace(RunConfig(), **{f.name: value}), f.name


def test_flags_override_the_config_file_and_ints_stand_for_floats(captured, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 4, "relation_lr": 1, "fold": None, "variant": "q+i"}))
    assert main(["train", "relation", "--config", str(config), "--seed", "9"]) == 0
    cfg = captured[-1]
    assert (cfg.seed, cfg.fold, cfg.variant) == (9, None, "q+i")
    assert cfg.relation_lr == 1.0 and type(cfg.relation_lr) is float


def test_a_byte_order_mark_is_no_part_of_the_config_file(tmp_path):
    text = json.dumps({"seed": 4, "relation_lr": 0.5, "variant": "q+i"})
    (tmp_path / "plain.json").write_text(text, encoding="utf-8")
    (tmp_path / "marked.json").write_text("\ufeff" + text, encoding="utf-8")
    assert RunConfig.load(str(tmp_path / "marked.json"), {}) == RunConfig.load(str(tmp_path / "plain.json"), {})


@pytest.mark.parametrize("payload, key", [({"seed": "abc"}, "seed"), ({"relation_epochs": "2"}, "relation_epochs"),
                                          ({"k": None}, "k"), ({"variant": "coin"}, "variant")])
def test_config_value_of_the_wrong_type_is_usage_error(tmp_path, capsys, payload, key):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(payload))
    assert main(["kb-stats", "--config", str(config)]) == 2
    assert repr(key) in capsys.readouterr().err


def test_a_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_bytes(b'{"seed": "\xff"}')
    assert main(["kb-stats", "--config", str(config)]) == 2
    assert capsys.readouterr().err.strip().endswith(f"--config: {config} is not UTF-8 text (invalid start byte)")


def test_table_defaults_are_the_library_defaults():
    from factrank.encoders import KINDS, EncoderTrainConfig
    from factrank.scorer import Variant
    from factrank.synth import SyntheticConfig
    from factrank.trainer import MarginConfig

    # each config built as the handlers build it, so a misnamed table field fails here
    cfg = RunConfig()
    assert [len(cli._knobs(cfg, c)) for c in ("relation", "source", "scorer", "synth")] == [4, 4, 10, 9]
    shared = dict(seed=cfg.seed)
    for kind in ("relation", "source"):
        # the library's dropout None stands for the kind's default, which the table spells out
        assert EncoderTrainConfig(**cli._knobs(cfg, kind), **shared) == EncoderTrainConfig(dropout=KINDS[kind].dropout)
    scorer = cli._knobs(cfg, "scorer")
    assert MarginConfig(**dict(scorer, variant=Variant(scorer["variant"])), **shared) == MarginConfig()
    synth = cli._knobs(cfg, "synth")
    synth["concept_labels"] = synth.pop("concept_label_count")
    assert SyntheticConfig(**synth) == SyntheticConfig()


@pytest.mark.parametrize("flag", ["--relation-epochs", "--relation-batch-size"])
def test_cli_train_with_zero_epochs_or_batch_size_is_usage_error(synth_dir, tmp_path, capsys, flag):
    flags = _data_flags(synth_dir, tmp_path / "ckpt", tmp_path / "out")
    assert main(["train", "relation", *flags, flag, "0"]) == 2
    assert "relation classifier: epochs and batch_size must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "ckpt" / "relation.ckpt").exists()


def test_cli_train_scorer_with_zero_epochs_per_iteration_is_usage_error(synth_dir, tmp_path, capsys):
    # an empty mining period would otherwise train nothing and save the initial weights
    flags = _data_flags(synth_dir, tmp_path / "ckpt", tmp_path / "out")
    assert main(["train", "scorer", *flags, "--epochs-per-iteration", "0"]) == 2
    assert "epochs_per_iteration must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "ckpt" / "scorer.ckpt").exists()


# ----------------------------------------------------------------------
# threads
# ----------------------------------------------------------------------


def test_threads_from_flag_or_config_file_set_the_blas_environment(synth_dir, tmp_path, monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    kb = ["kb-stats", "--kb", str(synth_dir / "kb.tsv")]
    assert main([*kb, "--threads=2"]) == 0
    assert [os.environ[v] for v in THREAD_VARS] == ["2"] * 3
    config = tmp_path / "threads.json"
    config.write_text(json.dumps({"threads": 3}))
    assert main([*kb, "--config", str(config)]) == 0
    assert [os.environ[v] for v in THREAD_VARS] == ["3"] * 3


def test_parsing_and_loading_the_config_leave_numpy_unimported(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"threads": 2, "relation_lr": 0.01, "fold": None}))
    code = (
        "import sys\n"
        "from factrank.cli import RunConfig, build_parser\n"
        f"args = build_parser().parse_args(['train', 'scorer', '--config', {str(config)!r}, '--seed', '1'])\n"
        "RunConfig.load(args.config, {'seed': args.seed})\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# failures that exit 1
# ----------------------------------------------------------------------


def test_cli_evaluate_truncated_checkpoint_is_load_error(synth_dir, tmp_path, capsys):
    flags = _data_flags(synth_dir, tmp_path / "ckpt", tmp_path / "out") + ["--fold", "1"]
    assert main(["train", "scorer", *flags, "--iterations", "0", "--epochs-per-iteration", "1"]) == 0
    scorer = tmp_path / "ckpt" / "scorer_fold1.ckpt"
    scorer.write_bytes(scorer.read_bytes()[:-100])
    capsys.readouterr()
    assert main(["evaluate", *flags, "--gt-relation", "--gt-source"]) == 1
    err = capsys.readouterr().err
    # tmp_path is named after the test, so only the message with the path stripped shows what it says
    assert str(scorer) in err and "not a readable checkpoint" in err.replace(str(scorer), "")


@pytest.mark.parametrize("blank_first_line", [False, True])
def test_cli_word_vector_file_without_usable_rows_is_load_error(synth_dir, tmp_path, capsys, blank_first_line):
    rows = (synth_dir / "wordvec.txt").read_text(encoding="utf-8").splitlines()
    wordvec = tmp_path / "wv.txt"
    # the row dimension comes from the first non-blank row, so the bad row is line 3, not line 2
    wordvec.write_text("\n" + rows[0] + "\nshade 0.5\n" if blank_first_line else "", encoding="utf-8")
    flags = _data_flags(synth_dir, tmp_path / "ckpt", tmp_path / "out")
    flags[flags.index("--wordvec") + 1] = str(wordvec)
    assert main(["train", "scorer", *flags, "--iterations", "0", "--epochs-per-iteration", "1"]) == 1
    expected = f"{wordvec}:3: expected {len(rows[0].split())} fields, got 2" if blank_first_line else f"{wordvec}: no word vectors"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_evaluate_with_a_non_finite_word_vector_is_load_error(synth_dir, tmp_path, capsys, value):
    # a NaN fact row would silently drop out of every ranking
    rows = (synth_dir / "wordvec.txt").read_text(encoding="utf-8").splitlines()
    wordvec = tmp_path / "wv.txt"
    wordvec.write_text("\n".join(rows[:-1] + [rows[-1].rsplit(" ", 1)[0] + " " + value]) + "\n", encoding="utf-8")
    flags = _data_flags(synth_dir, tmp_path / "ckpt", tmp_path / "out")
    flags[flags.index("--wordvec") + 1] = str(wordvec)
    assert main(["evaluate", *flags]) == 1
    assert f"{wordvec}:{len(rows)}: non-finite vector component" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "answer"])
def test_cli_word_vectors_of_another_width_than_the_scorer_are_a_data_error(synth_dir, trained, tmp_path, capsys,
                                                                           command):
    # a fact row is twice as wide as the word vectors, and the scorer's output as the rows it was trained on
    # (16 here); ranking the one against the other would fail in a matmul
    data = tmp_path / "data"
    data.mkdir()
    for name in ("kb.tsv", "qa.jsonl", "features.txt", "concepts.txt", "concept_labels.txt"):
        (data / name).write_bytes((synth_dir / name).read_bytes())
    rows = (synth_dir / "wordvec.txt").read_text(encoding="utf-8").splitlines()
    (data / "wordvec.txt").write_text("".join(" ".join(row.split(" ")[:5]) + "\n" for row in rows), encoding="utf-8")
    inst = json.loads((synth_dir / "qa.jsonl").read_text(encoding="utf-8").splitlines()[0])
    if command == "evaluate":
        extra = ["--out", str(tmp_path / "out")]
    else:
        extra = ["--image-id", inst["image_id"], "--question", inst["question"]]
    assert main([command, *_data_flags(data, trained), "--fold", "1", *extra]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: scorer output width 16 != fact matrix width 8 (set by the word vectors)"]
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_cli_train_scorer_with_negative_weight_decay_is_usage_error(synth_dir, tmp_path, capsys):
    # the optimizer applies decay only above 0, so -5 would train with none
    flags = _data_flags(synth_dir, tmp_path / "ckpt", tmp_path / "out")
    assert main(["train", "scorer", *flags, "--weight-decay", "-5"]) == 2
    assert "weight_decay must be >= 0, got -5.0" in capsys.readouterr().err
    assert not (tmp_path / "ckpt" / "scorer.ckpt").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_diverging_scorer_stops_naming_where(synth_dir, tmp_path, capsys):
    flags = _data_flags(synth_dir, tmp_path / "ckpt", tmp_path / "out")
    assert main(["train", "scorer", *flags, "--iterations", "0", "--epochs-per-iteration", "3",
                 "--scorer-lr", "1e200"]) == 1
    assert re.search(r"scorer iteration 0: epoch \d+, batch \d+: .*non-finite", capsys.readouterr().err)
    assert not (tmp_path / "ckpt" / "scorer.ckpt").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_diverged_scorer_checkpoint_exits_1_from_answer_and_evaluate(synth_dir, tmp_path, capsys):
    # finite weights whose forward pass overflows: every embedding norm is inf
    flags = _data_flags(synth_dir, tmp_path / "ckpt") + ["--fold", "1"]
    out = ["--out", str(tmp_path / "out")]
    assert main(["train", "relation", *flags, *out, "--relation-epochs", "1"]) == 0
    assert main(["train", "source", *flags, *out, "--source-epochs", "1"]) == 0
    assert main(["train", "scorer", *flags, *out, "--iterations", "0", "--epochs-per-iteration", "1"]) == 0
    path = tmp_path / "ckpt" / "scorer_fold1.ckpt"
    scorer = load_scorer(path)
    for t in scorer.tensors.values():
        t.values[...] = 1e200
    save_scorer(path, scorer)
    capsys.readouterr()
    assert main(["evaluate", *flags, *out]) == 1
    assert "non-finite embedding" in capsys.readouterr().err
    inst = json.loads((synth_dir / "qa.jsonl").read_text().splitlines()[0])
    assert main(["answer", *flags, "--image-id", inst["image_id"], "--question", inst["question"]]) == 1
    assert "non-finite embedding" in capsys.readouterr().err


# ----------------------------------------------------------------------
# convert-fvqa
# ----------------------------------------------------------------------

FVQA_FACTS = {
    "f1": {"e1_label": "umbrella", "r": "UsedFor", "e2_label": "shade"},
    "f2": {"e1_label": "dog", "r": "IsA", "e2_label": "pet"},
}
FVQA_QUESTIONS = {
    "q1": {"question": "what gives shade", "answer": "umbrella", "img_file": "a.jpg", "fact": "f1",
           "answer_source": "Image", "fold": 3},
    "q2": {"question": "what is the dog", "answer": "Pet", "image_id": "b.jpg", "fact": ["f2"]},
    "q3": {"question": "what is the dog", "answer": "cat", "image_id": "b.jpg", "fact": "f2"},
    "q4": {"question": "what is this", "answer": "pet", "image_id": "c.jpg", "fact": "f9"},
    # no answer_source: the answer is the subject up to case and punctuation, so the source is Image
    "q5": {"question": "what keeps the rain off", "answer": "Umbrella!", "image_id": "d.jpg", "fact": "f1"},
}


def test_cli_convert_fvqa_writes_kb_and_qa(tmp_path):
    (tmp_path / "facts.json").write_text(json.dumps(FVQA_FACTS))
    (tmp_path / "questions.json").write_text(json.dumps(FVQA_QUESTIONS))
    out = tmp_path / "out"
    assert main(["convert-fvqa", "--questions", str(tmp_path / "questions.json"),
                 "--facts", str(tmp_path / "facts.json"), "--out", str(out)]) == 0
    assert (out / "kb.tsv").read_text().splitlines() == ["f1\tumbrella\tUsedFor\tshade", "f2\tdog\tIsA\tpet"]
    records = [json.loads(line) for line in (out / "qa.jsonl").read_text().splitlines()]
    assert records == [
        {"question_id": "q1", "image_id": "a.jpg", "question": "what gives shade", "answer": "umbrella",
         "fact_id": "f1", "relation": "UsedFor", "answer_source": "Image", "fold": 3},
        {"question_id": "q2", "image_id": "b.jpg", "question": "what is the dog", "answer": "pet",
         "fact_id": "f2", "relation": "IsA", "answer_source": "KnowledgeBase", "fold": 1},
        {"question_id": "q5", "image_id": "d.jpg", "question": "what keeps the rain off", "answer": "umbrella",
         "fact_id": "f1", "relation": "UsedFor", "answer_source": "Image", "fold": 2},
    ]


def test_cli_convert_fvqa_questions_not_json_is_load_error(tmp_path, capsys):
    (tmp_path / "facts.json").write_text(json.dumps(FVQA_FACTS))
    questions = tmp_path / "questions.json"
    questions.write_text("{not json")
    assert main(["convert-fvqa", "--questions", str(questions), "--facts", str(tmp_path / "facts.json"),
                 "--out", str(tmp_path / "out")]) == 1
    assert str(questions) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("facts, questions, bad, record", [
    (FVQA_FACTS, {"q1": "oops"}, "questions.json", "'q1'"),
    ({"f1": "e1_label r e2_label"}, FVQA_QUESTIONS, "facts.json", "'f1'"),
])
def test_cli_convert_fvqa_record_not_an_object_is_load_error(tmp_path, capsys, facts, questions, bad, record):
    (tmp_path / "facts.json").write_text(json.dumps(facts))
    (tmp_path / "questions.json").write_text(json.dumps(questions))
    assert main(["convert-fvqa", "--questions", str(tmp_path / "questions.json"), "--facts",
                 str(tmp_path / "facts.json"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / bad) in err and record in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("facts, questions, bad, record, label", [
    (FVQA_FACTS, {"q1": {**FVQA_QUESTIONS["q1"], "answer_source": "Picture"}}, "questions.json", "'q1'", "'Picture'"),
    ({**FVQA_FACTS, "f2": {"e1_label": "dog", "r": "Likes", "e2_label": "pet"}}, FVQA_QUESTIONS, "facts.json",
     "'f2'", "'Likes'"),
])
def test_cli_convert_fvqa_unknown_label_is_load_error(tmp_path, capsys, facts, questions, bad, record, label):
    (tmp_path / "facts.json").write_text(json.dumps(facts))
    (tmp_path / "questions.json").write_text(json.dumps(questions))
    assert main(["convert-fvqa", "--questions", str(tmp_path / "questions.json"), "--facts",
                 str(tmp_path / "facts.json"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / bad) in err and record in err and label in err
    assert "kb.tsv" not in err
    assert not (tmp_path / "out").exists()


def _convert_bad_fact(tmp_path, capsys, fact, fid="f2"):
    (tmp_path / "facts.json").write_text(json.dumps({**FVQA_FACTS, fid: fact}))
    (tmp_path / "questions.json").write_text(json.dumps(FVQA_QUESTIONS))
    assert main(["convert-fvqa", "--questions", str(tmp_path / "questions.json"), "--facts",
                 str(tmp_path / "facts.json"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "facts.json") in err and repr(fid) in err
    assert "kb.tsv" not in err and not (tmp_path / "out" / "kb.tsv").exists()
    return err


@pytest.mark.parametrize("fact", [
    {"e1_label": "!!", "r": "IsA", "e2_label": "pet"},
    {"e1_label": "dog", "r": "IsA", "e2_label": "?"},
])
def test_cli_convert_fvqa_entity_without_tokens_is_load_error(tmp_path, capsys, fact):
    assert "has no tokens" in _convert_bad_fact(tmp_path, capsys, fact)


@pytest.mark.parametrize("fact", [
    {"e1_label": "hot\tdog", "r": "IsA", "e2_label": "pet"},
    {"e1_label": "dog", "r": "IsA", "e2_label": "pet\nanimal"},
])
def test_cli_convert_fvqa_tab_or_newline_in_a_field_is_load_error(tmp_path, capsys, fact):
    assert "contains a tab or a line break" in _convert_bad_fact(tmp_path, capsys, fact)


def test_cli_convert_fvqa_comment_like_fact_id_is_load_error(tmp_path, capsys):
    # kb.tsv would read the line as a comment and lose the fact
    fact = {"e1_label": "dog", "r": "IsA", "e2_label": "pet"}
    assert "comment line" in _convert_bad_fact(tmp_path, capsys, fact, fid="#2")


def test_cli_convert_fvqa_duplicate_fact_id_is_load_error(tmp_path, capsys):
    (tmp_path / "facts.json").write_text(json.dumps({**FVQA_FACTS, " f1": FVQA_FACTS["f2"]}))
    (tmp_path / "questions.json").write_text(json.dumps(FVQA_QUESTIONS))
    assert main(["convert-fvqa", "--questions", str(tmp_path / "questions.json"), "--facts",
                 str(tmp_path / "facts.json"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "facts.json") in err and "duplicate fact id 'f1'" in err
