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
from factrank.scorer import load_scorer, save_scorer


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_synth")
    code = main(["synth", "--out", str(out), "--seed", "3", "--qa-pairs", "40", "--facts-per-relation", "4",
                 "--vocab-size", "40", "--wordvec-dim", "8", "--feature-dim", "16", "--concept-label-count", "40"])
    assert code == 0
    return out


def _data_flags(d, checkpoints, out):
    return ["--kb", str(d / "kb.tsv"), "--qa", str(d / "qa.jsonl"), "--features", str(d / "features.txt"),
            "--concepts", str(d / "concepts.txt"), "--concept-labels", str(d / "concept_labels.txt"),
            "--wordvec", str(d / "wordvec.txt"), "--checkpoints", str(checkpoints), "--out", str(out)]


def test_cli_synth_train_evaluate_answer(synth_dir, tmp_path, capsys):
    flags = _data_flags(synth_dir, tmp_path / "ckpt", tmp_path / "out") + ["--fold", "1"]
    assert main(["kb-stats", "--kb", str(synth_dir / "kb.tsv")]) == 0
    assert main(["train", "relation", *flags, "--relation-epochs", "1"]) == 0
    assert main(["train", "source", *flags, "--source-epochs", "1"]) == 0
    assert main(["train", "scorer", *flags, "--iterations", "0", "--epochs-per-iteration", "1"]) == 0
    assert main(["evaluate", *flags]) == 0
    assert main(["evaluate", *flags, "--tie-break", "random"]) == 0
    inst = json.loads((synth_dir / "qa.jsonl").read_text().splitlines()[0])
    assert main(["answer", *flags, "--image-id", inst["image_id"], "--question", inst["question"],
                 "--tie-break", "random"]) == 0
    assert "answer:" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["synth"], ["train", "relation"], ["evaluate", "--tie-break", "random"]],
                         ids=["synth", "train-relation", "evaluate-random"])
def test_cli_negative_seed_is_usage_error_by_flag_and_by_config_file(synth_dir, tmp_path, capsys, command):
    # np.random.default_rng would reject it with a ValueError traceback
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": -1}))
    flags = _data_flags(synth_dir, tmp_path / "ckpt", tmp_path / "out")
    for source in (["--seed", "-1"], ["--config", str(config)]):
        assert main([*command, *flags, *source]) == 2
        err = capsys.readouterr().err
        assert "--seed: must be >= 0, got -1" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "ckpt").exists()


def test_cli_evaluate_missing_checkpoint_is_usage_error(synth_dir, tmp_path, capsys):
    flags = _data_flags(synth_dir, tmp_path / "empty", tmp_path / "out") + ["--fold", "1"]
    assert main(["evaluate", *flags]) == 2
    assert "missing checkpoint" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the option table
# ----------------------------------------------------------------------

COMMON = ["-h", "--help", "--config", "--seed", "--fold", "--variant", "--iterations", "--threads", "--out",
          "--tie-break", "-k", "--kb", "--qa", "--features", "--concepts", "--concept-labels", "--wordvec",
          "--checkpoints"]
OPTIONS = {
    "train": COMMON + ["--relation-epochs", "--source-epochs", "--epochs-per-iteration", "--mining-period",
                       "--negatives", "--relation-batch-size", "--source-batch-size", "--scorer-batch-size",
                       "--max-question-tokens", "--margin", "--weight-decay", "--scorer-lr", "--relation-lr",
                       "--source-lr", "--scorer-dropout", "--relation-dropout", "--source-dropout",
                       "--reinit-each-iteration"],
    "evaluate": COMMON + ["--gt-relation", "--gt-source", "--reference"],
    "answer": COMMON + ["--image-id", "--question"],
    "synth": COMMON + ["--vocab-size", "--facts-per-relation", "--qa-pairs", "--concept-signal",
                       "--image-answer-fraction", "--distractor-concepts", "--wordvec-dim", "--feature-dim",
                       "--concept-label-count"],
    "kb-stats": COMMON,
    "convert-fvqa": COMMON + ["--questions", "--facts"],
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_each_subcommand_takes_exactly_its_option_strings():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(OPTIONS)
    for command, parser in subparsers.choices.items():
        taken = [s for action in parser._actions for s in action.option_strings]
        assert sorted(taken) == sorted(OPTIONS[command]), command


@pytest.fixture()
def captured(monkeypatch):
    """Configs that main hands to the train, synth and kb-stats handlers, which do nothing else."""
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    seen = []
    for name in ("cmd_train", "cmd_synth", "cmd_kb_stats"):
        monkeypatch.setattr(cli, name, lambda cfg, *rest: seen.append(cfg) or 0)
    return seen


def _other_value(f):
    if f.metadata.get("choices"):
        return next(c for c in f.metadata["choices"] if c != f.default)
    if f.type == "bool":
        return True
    if f.type.startswith("int"):
        return 5 if f.default is None else f.default + 1
    if f.type == "float":
        return 0.25
    return "elsewhere"


def test_every_field_is_the_same_by_flag_and_by_config_file(captured, tmp_path):
    command = {"all": ["kb-stats"], "train": ["train", "scorer"], "synth": ["synth"]}
    for f in dataclasses.fields(RunConfig):
        value = _other_value(f)
        assert value != f.default, f.name
        argv = command[f.metadata.get("scope", "all")]
        flag = "-k" if f.name == "k" else "--" + f.name.replace("_", "-")
        config = tmp_path / f"{f.name}.json"
        config.write_text(json.dumps({f.name: value}))
        assert main([*argv, flag] if value is True else [*argv, flag, str(value)]) == 0
        assert main([*argv, "--config", str(config)]) == 0
        by_flag, by_file = captured[-2:]
        assert by_flag == by_file == dataclasses.replace(RunConfig(), **{f.name: value}), f.name


def test_flags_override_the_config_file_and_ints_stand_for_floats(captured, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 4, "relation_lr": 1, "fold": None, "reinit_each_iteration": True}))
    assert main(["train", "relation", "--config", str(config), "--seed", "9"]) == 0
    cfg = captured[-1]
    assert (cfg.seed, cfg.fold, cfg.reinit_each_iteration) == (9, None, True)
    assert cfg.relation_lr == 1.0 and type(cfg.relation_lr) is float


@pytest.mark.parametrize("payload, key", [({"seed": "abc"}, "seed"), ({"relation_epochs": "2"}, "relation_epochs"),
                                          ({"k": None}, "k"), ({"tie_break": "coin"}, "tie_break")])
def test_config_value_of_the_wrong_type_is_usage_error(tmp_path, capsys, payload, key):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(payload))
    assert main(["kb-stats", "--config", str(config)]) == 2
    assert repr(key) in capsys.readouterr().err


def test_table_defaults_are_the_library_defaults():
    from factrank.encoders import KINDS, EncoderTrainConfig
    from factrank.synth import SyntheticConfig
    from factrank.trainer import MarginConfig

    cfg, enc, margin, synth = RunConfig(), EncoderTrainConfig(), MarginConfig(), SyntheticConfig()
    for prefix in ("relation", "source"):
        assert (getattr(cfg, f"{prefix}_epochs"), getattr(cfg, f"{prefix}_batch_size"),
                getattr(cfg, f"{prefix}_lr")) == (enc.epochs, enc.batch_size, enc.lr)
    assert (cfg.relation_dropout, cfg.source_dropout) == (KINDS["relation"].dropout, KINDS["source"].dropout)
    assert cfg.seed == enc.seed == margin.seed
    assert cfg.max_question_tokens == enc.max_tokens == margin.max_question_tokens
    assert (cfg.margin, cfg.weight_decay, cfg.negatives, cfg.iterations, cfg.epochs_per_iteration,
            cfg.mining_period, cfg.scorer_batch_size, cfg.scorer_lr, cfg.scorer_dropout, cfg.variant,
            cfg.reinit_each_iteration) == (
        margin.margin, margin.weight_decay, margin.negatives, margin.iterations, margin.epochs_per_iteration,
        margin.mining_period, margin.batch_size, margin.lr, margin.dropout, margin.variant.value,
        margin.reinitialize_each_iteration)
    synth_fields = [f.name for f in dataclasses.fields(RunConfig) if f.metadata.get("scope") == "synth"]
    assert len(synth_fields) == 9
    for name in synth_fields:
        assert getattr(cfg, name) == getattr(synth, "concept_labels" if name == "concept_label_count" else name), name


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


@pytest.mark.parametrize("kind", ["relation", "source", "scorer"])
@pytest.mark.parametrize("tokens", ["0", "-1"])
def test_cli_train_with_fewer_than_one_question_token_is_usage_error(synth_dir, tmp_path, capsys, kind, tokens):
    # -1 would otherwise train on every question but its last token
    flags = _data_flags(synth_dir, tmp_path / "ckpt", tmp_path / "out")
    assert main(["train", kind, *flags, f"--max-question-tokens={tokens}", "--iterations", "0"]) == 2
    assert re.search(rf"max_(question_)?tokens must be >= 1, got {tokens}", capsys.readouterr().err)
    assert not (tmp_path / "ckpt" / f"{kind}.ckpt").exists()


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
    assert str(scorer) in err and "truncated" in err


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
    flags = _data_flags(synth_dir, tmp_path / "ckpt", tmp_path / "out") + ["--fold", "1"]
    assert main(["train", "relation", *flags, "--relation-epochs", "1"]) == 0
    assert main(["train", "source", *flags, "--source-epochs", "1"]) == 0
    assert main(["train", "scorer", *flags, "--iterations", "0", "--epochs-per-iteration", "1"]) == 0
    path = tmp_path / "ckpt" / "scorer_fold1.ckpt"
    scorer = load_scorer(path)
    for t in scorer.tensors.values():
        t.values[...] = 1e200
    save_scorer(path, scorer)
    capsys.readouterr()
    assert main(["evaluate", *flags]) == 1
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
