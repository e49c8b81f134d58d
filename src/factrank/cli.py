"""Command-line entry point.

Subcommands: train relation, train source, train scorer, evaluate, answer,
synth, kb-stats, convert-fvqa. :class:`RunConfig` is the one option table:
each of its fields is a key of the optional JSON ``--config`` file and a
``--field-name`` flag (``-k`` for ``k``), and a flag overrides the file.
A field's annotation is the type that both must have; its metadata gives
the allowed choices and the subcommands whose handlers read it, each train
kind being a subcommand of its own. Only those take its flag (``threads``
names none and goes to every one), under one spelling: flags have no
abbreviations. The fields that one subcommand alone reads are its knobs
(:func:`_knobs`), from which its handler builds the library config. A
config file may set any field for any subcommand, so one run file serves
them all; every float must be finite. Every command is deterministic given
its config; only ``train`` and ``synth`` draw random numbers, so only they
take ``--seed``. A run writes nothing until every check that can end it
with a usage error has passed (``convert-fvqa``, until both inputs are
read and checked). Every file, ``synth``'s and ``convert-fvqa``'s too, is
written atomically by :func:`text.write_atomic`; checkpoints and metrics
embed the config hash, seed, and package version. Exit codes: 0 success,
1 runtime failure, 2 usage or configuration error.

Heavy imports happen inside the command handlers so that ``threads``,
from a flag or the config file, sets the BLAS thread environment before
numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import DataError, FactrankError, UsageError

logger = logging.getLogger(__name__)
_TYPES = {"str": str, "int": int, "float": float}
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_KINDS = ("relation", "source", "scorer")  # the train subcommands
_DATA = (*_KINDS, "evaluate", "answer")  # the subcommands that read the data paths and the fold


def _opt(default, *scope: str, choices: tuple | None = None):
    """A table field whose flag only the subcommands in ``scope`` take."""
    return field(default=default, metadata={"scope": scope, "choices": choices})


@dataclass
class RunConfig:
    """The one option table of the CLI (see the module docstring)."""

    # input and output paths
    kb: str | None = _opt(None, *_DATA, "kb-stats")
    qa: str | None = _opt(None, *_DATA)
    features: str | None = _opt(None, *_DATA)
    concepts: str | None = _opt(None, *_DATA)
    concept_labels: str | None = _opt(None, *_DATA)
    wordvec: str | None = _opt(None, *_DATA)
    checkpoints: str = _opt("checkpoints", *_DATA)
    out: str = _opt("out", *_KINDS, "evaluate", "synth", "convert-fvqa")
    # shared knobs
    seed: int = _opt(0, *_KINDS, "synth")
    fold: int | None = _opt(None, *_DATA)
    variant: str = _opt("q+i+vc", "scorer", choices=("q+i", "q+vc", "q+i+vc"))
    threads: int | None = None
    k: int = _opt(3, "evaluate", "answer")
    # relation classifier
    relation_epochs: int = _opt(50, "relation")
    relation_batch_size: int = _opt(100, "relation")
    relation_lr: float = _opt(1e-3, "relation")
    relation_dropout: float = _opt(0.7, "relation")
    # source classifier
    source_epochs: int = _opt(50, "source")
    source_batch_size: int = _opt(100, "source")
    source_lr: float = _opt(1e-3, "source")
    source_dropout: float = _opt(0.5, "source")
    # scorer / margin training
    margin: float = _opt(1.0, "scorer")
    weight_decay: float = _opt(1e-4, "scorer")
    negatives: int = _opt(99, "scorer")
    iterations: int = _opt(2, "scorer")
    epochs_per_iteration: int = _opt(50, "scorer")
    mining_period: int = _opt(10, "scorer")
    scorer_batch_size: int = _opt(100, "scorer")
    scorer_lr: float = _opt(1e-3, "scorer")
    scorer_dropout: float = _opt(0.5, "scorer")
    # synthetic corpus, with SyntheticConfig's defaults
    vocab_size: int = _opt(60, "synth")
    facts_per_relation: int = _opt(46, "synth")
    qa_pairs: int = _opt(1000, "synth")
    concept_signal: float = _opt(1.0, "synth")
    image_answer_fraction: float = _opt(0.5, "synth")
    distractor_concepts: int = _opt(2, "synth")
    wordvec_dim: int = _opt(100, "synth")
    feature_dim: int = _opt(2048, "synth")
    concept_label_count: int = _opt(1176, "synth")

    @classmethod
    def load(cls, config_path: str | None, overrides: dict) -> "RunConfig":
        """The config file's values, type-checked against the table, under the non-None ``overrides``."""
        values: dict = {}
        if config_path:
            path = Path(config_path)
            if not path.exists():
                raise UsageError(f"--config: file not found: {path}")
            try:
                loaded = json.loads(path.read_text(encoding="utf-8-sig"))
            except json.JSONDecodeError as exc:
                raise UsageError(f"--config: {path} is not valid JSON: {exc}") from None
            except UnicodeDecodeError as exc:
                raise UsageError(f"--config: {path} is not UTF-8 text ({exc.reason})") from None
            if not isinstance(loaded, dict):
                raise UsageError(f"--config: {path} must hold a JSON object")
            fields = {f.name: f for f in dataclasses.fields(cls)}
            unknown = sorted(set(loaded) - set(fields))
            if unknown:
                raise UsageError(f"--config: unknown keys {unknown}")
            values.update({key: _checked(fields[key], value) for key, value in loaded.items()})
        values.update({k: v for k, v in overrides.items() if v is not None})
        cfg = cls(**values)
        for name, low in {"seed": 0, "threads": 1, "k": 1}.items():
            value = getattr(cfg, name)
            if value is not None and value < low:
                raise UsageError(f"{_flag(name)}: must be >= {low}, got {value}")
        for name, value in vars(cfg).items():
            if type(value) is float and not math.isfinite(value):
                raise UsageError(f"{_flag(name)}: must be finite, got {value}")
        return cfg

    def hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def meta(self) -> dict:
        return {"config_hash": self.hash(), "seed": self.seed, "version": __version__}


def _flag(name: str) -> str:
    return "-k" if name == "k" else "--" + name.replace("_", "-")


def _knobs(cfg: RunConfig, command: str) -> dict:
    """The fields only ``command`` reads, named without the ``command_`` prefix."""
    return {f.name.removeprefix(f"{command}_"): getattr(cfg, f.name)
            for f in dataclasses.fields(cfg) if f.metadata.get("scope") == (command,)}


def _field_type(f: dataclasses.Field) -> tuple[type, bool]:
    """(base type, whether None is allowed) of a table field's annotation."""
    base, _, rest = f.type.partition(" | ")
    return _TYPES[base], rest == "None"


def _checked(f: dataclasses.Field, value):
    """A config-file value of field ``f``; an int stands for a float, None only for an optional field."""
    kind, optional = _field_type(f)
    if value is None and optional:
        return None
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise UsageError(f"--config: {f.name!r} must be {kind.__name__}{' or null' if optional else ''}, got {value!r}")
    choices = f.metadata.get("choices")
    if choices and value not in choices:
        raise UsageError(f"--config: {f.name!r} must be one of {list(choices)}, got {value!r}")
    return value


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        value = getattr(cfg, name.replace("-", "_"))
        if not value:
            raise UsageError(f"--{name}: required path not set")
        if not Path(value).exists():
            raise UsageError(f"--{name}: file not found: {value}")


def _write_jsonl(path: Path, records: list[dict]) -> None:
    from .text import write_lines

    write_lines(path, [json.dumps(r, sort_keys=True) for r in records])


def _suffix(fold: int | None) -> str:
    return f"_fold{fold}" if fold is not None else ""


def _checkpoint(ckpt_dir: Path, name: str, fold: int | None) -> Path:
    path = ckpt_dir / f"{name}{_suffix(fold)}.ckpt"
    if not path.exists():
        raise UsageError(f"--checkpoints: missing checkpoint {path}")
    return path


def _load_bundle(cfg: RunConfig):
    from .dataio import FOLDS, load_dataset
    from .wordvec import load_vectors

    if cfg.fold is not None and cfg.fold not in FOLDS:
        raise UsageError(f"--fold: must be in {list(FOLDS)}, got {cfg.fold}")
    _require(cfg, "kb", "qa", "features", "concepts", "concept-labels", "wordvec")
    instances, store, kb = load_dataset(cfg.kb, cfg.qa, cfg.features, cfg.concepts, cfg.concept_labels)
    return instances, store, kb, load_vectors(cfg.wordvec)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_train(cfg: RunConfig, kind: str) -> int:
    from .dataio import split_fold
    from .encoders import KINDS, EncoderTrainConfig, accuracy, save_classifier, train_classifier
    from .scorer import Variant, save_scorer
    from .trainer import MarginConfig, train_scorer

    instances, store, kb, table = _load_bundle(cfg)
    train_set, heldout = (instances, None) if cfg.fold is None else split_fold(instances, cfg.fold)
    knobs = dict(_knobs(cfg, kind), seed=cfg.seed)

    if kind == "scorer":
        knobs["variant"] = Variant(knobs["variant"])
        result = train_scorer(train_set, kb, store, table, MarginConfig(**knobs), heldout=heldout)
        save, model, history = save_scorer, result.params, result.metrics
        iter_summaries = [m for m in history if m["type"] == "iteration"]
        summary = {"type": "summary", "iterations": len(iter_summaries)}
        if iter_summaries and "precision1" in iter_summaries[-1]:
            summary["heldout_precision1"] = iter_summaries[-1]["precision1"]
            summary["heldout_precision3"] = iter_summaries[-1]["precision3"]
    else:
        pairs = [(i.question, getattr(i, kind)) for i in train_set]
        held = [(i.question, getattr(i, kind)) for i in heldout] if heldout else None
        clf, history = train_classifier(kind, pairs, EncoderTrainConfig(**knobs), held)
        save, model = save_classifier, clf
        summary = {"type": "summary", "train_top1" if kind == "relation" else "train_acc": accuracy(clf, pairs)}
        if held:
            # the last epoch record measured these same parameters
            summary[KINDS[kind].metric] = history[-1][KINDS[kind].metric]
            if kind == "relation":
                summary["heldout_top3"] = accuracy(clf, held, 3)

    # only a run that got this far writes anything, so a usage error leaves no directory behind
    meta = cfg.meta()
    for directory in (cfg.checkpoints, cfg.out):
        Path(directory).mkdir(parents=True, exist_ok=True)
    save(Path(cfg.checkpoints) / f"{kind}{_suffix(cfg.fold)}.ckpt", model, meta)
    records = [{"type": "meta", **meta}] + [dict(r) for r in history] + [summary]
    metrics_path = Path(cfg.out) / f"{kind}_metrics{_suffix(cfg.fold)}.jsonl"
    _write_jsonl(metrics_path, records)
    print(f"wrote {metrics_path}")
    for key, value in summary.items():
        if key != "type":
            print(f"{key}: {value}")
    return 0


def render_metrics_table(records: list[dict]) -> str:
    """Human-readable table of the rates in the fold and average metrics records."""
    from .pipeline import RATE_FIELDS

    lines = ["fold      " + "".join(f"{f.metadata['label']:<9}" for f in RATE_FIELDS).rstrip()]
    for rec in records:
        if rec.get("type") in ("fold", "average"):
            lines.append(f"fold={rec['fold']:<4} " + " ".join(f"{rec[f.name]:.6f}" for f in RATE_FIELDS))
    return "\n".join(lines)


def cmd_evaluate(cfg: RunConfig, gt_relation: bool, gt_source: bool, reference: bool) -> int:
    from .dataio import FOLDS, split_fold
    from .encoders import load_classifier
    from .pipeline import FVQA_REFERENCE, FVQA_REFERENCE_TOLERANCE, PipelineModels, average_metrics, evaluate
    from .scorer import check_width, load_scorer
    from .wordvec import FactMatrix

    instances, store, kb, table = _load_bundle(cfg)
    ckpt_dir = Path(cfg.checkpoints)

    folds = [cfg.fold] if cfg.fold is not None else [f for f in FOLDS if (ckpt_dir / f"scorer_fold{f}.ckpt").exists()]
    if cfg.fold is None and not folds:
        # single un-folded checkpoint evaluated on the whole dataset
        folds = [None]
    saved = {  # each fold's scorer, and the paths of its classifiers
        fold: (
            load_scorer(_checkpoint(ckpt_dir, "scorer", fold)),
            None if gt_relation else _checkpoint(ckpt_dir, "relation", fold),
            None if gt_source else _checkpoint(ckpt_dir, "source", fold),
        )
        for fold in folds
    }
    for scorer, _, _ in saved.values():  # before the build, so a run that stops on the width keeps its cache
        check_width(scorer, 2 * table.dim)
    fact_matrix = FactMatrix.build(kb, table)

    per_fold, predictions = {}, {}
    records: list[dict] = [{"type": "meta", **cfg.meta(), "gt_relation": gt_relation, "gt_source": gt_source,
                            "duplicate_count": table.duplicate_count, "oov_phrase_count": fact_matrix.oov_phrase_count}]
    for fold, (scorer, rel_path, src_path) in saved.items():
        relation = load_classifier(rel_path) if rel_path else None
        source = load_classifier(src_path) if src_path else None
        models = PipelineModels(scorer=scorer, fact_matrix=fact_matrix, relation=relation, source=source)
        subset = instances if fold is None else split_fold(instances, fold)[1]
        metrics, predictions[fold] = evaluate(models, kb, subset, store, k=cfg.k, oracle_relation=gt_relation,
                                              oracle_source=gt_source)
        label = fold if fold is not None else "all"
        per_fold[label] = metrics
        records.append({"type": "fold", "fold": label, **metrics.as_dict()})
    if len(per_fold) > 1:
        records.append({"type": "average", "fold": "mean", **average_metrics(per_fold)})

    # every fold has been evaluated, so a usage error leaves no directory behind
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for fold, fold_predictions in predictions.items():
        _write_jsonl(out_dir / f"predictions{_suffix(fold)}.jsonl", [p.as_record() for p in fold_predictions])
    metrics_path = out_dir / "evaluate_metrics.jsonl"
    _write_jsonl(metrics_path, records)
    print(render_metrics_table(records))
    print(f"wrote {metrics_path}")
    if reference:
        print("reference results on the full FVQA release (percent, +/- "
              f"{FVQA_REFERENCE_TOLERANCE} points, hardware and data dependent):")
        for key, value in FVQA_REFERENCE.items():
            print(f"  {key}: {value}")
    return 0


def cmd_answer(cfg: RunConfig, image_id: str, question: str) -> int:
    from .encoders import UNK_ID, load_classifier
    from .pipeline import PipelineModels, answer_question
    from .scorer import check_width, load_scorer
    from .wordvec import FactMatrix

    instances, store, kb, table = _load_bundle(cfg)
    try:
        [feat], [concepts] = store.stack([image_id])
    except DataError as exc:
        raise UsageError(f"--image-id: {exc}") from None
    ckpt_dir = Path(cfg.checkpoints)
    scorer_path, relation, source = (_checkpoint(ckpt_dir, name, cfg.fold) for name in ("scorer", "relation", "source"))
    scorer = load_scorer(scorer_path)
    check_width(scorer, 2 * table.dim)  # before the build, as evaluate checks it
    models = PipelineModels(
        scorer=scorer,
        fact_matrix=FactMatrix.build(kb, table),
        relation=load_classifier(relation),
        source=load_classifier(source),
    )
    if set(models.scorer.vocab.encode(question)) == {UNK_ID}:
        logger.warning("every token of the question %r is unknown to the scorer's vocabulary", question)
    prediction = answer_question(
        models, kb, feat, concepts, question, k=cfg.k, question_id="cli", image_id=image_id)
    print(f"status: {prediction.status}")
    print(f"relation: {prediction.relation.value}")
    print(f"source: {prediction.source.value} (p={prediction.source_prob:.4f})")
    if prediction.status == "no_fact":
        print("no supporting fact: the predicted relation bucket is empty")
        return 0
    for fid, s in prediction.top_facts:
        fact = kb.fact(fid)
        print(f"fact: {fid} score={s:.6f} ({fact.subject} | {fact.relation.value} | {fact.obj})")
    print(f"answer: {prediction.answer}")
    return 0


def cmd_synth(cfg: RunConfig) -> int:
    from .synth import SyntheticConfig, generate_synthetic

    knobs = _knobs(cfg, "synth")
    # --concept-labels is the concept label file, so the table names the count concept_label_count
    knobs["concept_labels"] = knobs.pop("concept_label_count")
    synth_cfg = SyntheticConfig(**knobs, seed=cfg.seed)
    paths = generate_synthetic(synth_cfg, cfg.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def cmd_kb_stats(cfg: RunConfig) -> int:
    from .kb import parse_kb

    _require(cfg, "kb")
    kb = parse_kb(cfg.kb)
    width = max(len(r.value) for r in kb.buckets)
    for relation, bucket in kb.buckets.items():
        print(f"{relation.value:<{width}} {bucket.stop - bucket.start}")
    print(f"total facts: {len(kb)}")
    print(f"vocabulary size: {len(kb.tokens)}")
    return 0


def cmd_convert_fvqa(cfg: RunConfig, questions: str, facts: str) -> int:
    from .dataio import convert_fvqa

    for flag, value in (("--questions", questions), ("--facts", facts)):
        if not Path(value).exists():
            raise UsageError(f"{flag}: file not found: {value}")
    paths = convert_fvqa(questions, facts, cfg.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    """``--config`` plus one flag per table field that ``command`` takes."""
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for f in dataclasses.fields(RunConfig):
        if command not in f.metadata.get("scope", (command,)):
            continue
        parser.add_argument(_flag(f.name), dest=f.name, type=_field_type(f)[0], choices=f.metadata.get("choices"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="factrank", description="Learned fact retrieval for visual question answering")
    no_abbrev = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=no_abbrev)

    p_train = sub.add_parser("train", help="train one of the three models")
    kinds = p_train.add_subparsers(dest="kind", required=True, parser_class=no_abbrev)
    for kind in _KINDS:
        _add_options(kinds.add_parser(kind, help=f"train the {kind} model"), kind)

    p_eval = sub.add_parser("evaluate", help="score a dataset fold (or all folds) with trained checkpoints")
    _add_options(p_eval, "evaluate")
    p_eval.add_argument("--gt-relation", action="store_true", help="use groundtruth relations instead of the classifier")
    p_eval.add_argument("--gt-source", action="store_true", help="use groundtruth answer sources instead of the classifier")
    p_eval.add_argument("--reference", action="store_true", help="also print full-dataset reference results")

    p_answer = sub.add_parser("answer", help="answer a single question")
    _add_options(p_answer, "answer")
    p_answer.add_argument("--image-id", required=True)
    p_answer.add_argument("--question", required=True)

    _add_options(sub.add_parser("synth", help="generate the synthetic fixture files"), "synth")
    _add_options(sub.add_parser("kb-stats", help="summarize a knowledge base file"), "kb-stats")

    p_conv = sub.add_parser("convert-fvqa", help="convert original-release JSON dictionaries")
    _add_options(p_conv, "convert-fvqa")
    p_conv.add_argument("--questions", required=True)
    p_conv.add_argument("--facts", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cfg = RunConfig.load(args.config, {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)})
        if cfg.threads is not None:
            # before any handler imports numpy, so BLAS starts with this many threads
            os.environ.update({var: str(cfg.threads) for var in _THREAD_VARS})
        if args.command == "train":
            return cmd_train(cfg, args.kind)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.gt_relation, args.gt_source, args.reference)
        if args.command == "answer":
            return cmd_answer(cfg, args.image_id, args.question)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "kb-stats":
            return cmd_kb_stats(cfg)
        if args.command == "convert-fvqa":
            return cmd_convert_fvqa(cfg, args.questions, args.facts)
        raise UsageError(f"unknown command {args.command!r}")  # pragma: no cover
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FactrankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
