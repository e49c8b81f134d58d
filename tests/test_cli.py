import json

import pytest

from factrank.cli import main


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


def test_cli_evaluate_missing_checkpoint_is_usage_error(synth_dir, tmp_path, capsys):
    flags = _data_flags(synth_dir, tmp_path / "empty", tmp_path / "out") + ["--fold", "1"]
    assert main(["evaluate", *flags]) == 2
    assert "missing checkpoint" in capsys.readouterr().err
