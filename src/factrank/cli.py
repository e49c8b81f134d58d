"""Command-line entry point.

Subcommands: train (relation | source | scorer), evaluate, answer, synth,
kb-stats, convert-fvqa. Options come from an optional JSON config file
with command-line flags taking precedence. Every command is deterministic
given its config and seed; outputs are written atomically and embed the
config hash, seed, and package version. Exit codes: 0 success, 1 runtime
failure, 2 usage or configuration error.

Heavy imports happen inside the command handlers so a ``--threads`` cap
can set the BLAS thread environment before numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import FactrankError, UsageError

VERSION = "0.1.0"


@dataclass
class RunConfig:
    # input and output paths
    kb: str | None = None
    qa: str | None = None
    features: str | None = None
    concepts: str | None = None
    concept_labels: str | None = None
    wordvec: str | None = None
    checkpoints: str = "checkpoints"
    out: str = "out"
    # shared knobs
    seed: int = 0
    fold: int | None = None
    variant: str = "q+i+vc"
    threads: int | None = None
    tie_break: str = "id"
    k: int = 3
    max_question_tokens: int = 30
    # relation classifier
    relation_epochs: int = 50
    relation_batch_size: int = 100
    relation_lr: float = 1e-3
    relation_dropout: float = 0.7
    # source classifier
    source_epochs: int = 50
    source_batch_size: int = 100
    source_lr: float = 1e-3
    source_dropout: float = 0.5
    # scorer / margin training
    margin: float = 1.0
    weight_decay: float = 1e-4
    negatives: int = 99
    iterations: int = 2
    epochs_per_iteration: int = 50
    mining_period: int = 10
    scorer_batch_size: int = 100
    scorer_lr: float = 1e-3
    scorer_dropout: float = 0.5
    reinit_each_iteration: bool = False

    @classmethod
    def load(cls, config_path: str | None, overrides: dict) -> "RunConfig":
        values: dict = {}
        if config_path:
            path = Path(config_path)
            if not path.exists():
                raise UsageError(f"--config: file not found: {path}")
            try:
                loaded = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise UsageError(f"--config: {path} is not valid JSON: {exc}") from None
            known = {f.name for f in dataclasses.fields(cls)}
            unknown = sorted(set(loaded) - known)
            if unknown:
                raise UsageError(f"--config: unknown keys {unknown}")
            values.update(loaded)
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)

    def hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def meta(self) -> dict:
        return {"config_hash": self.hash(), "seed": self.seed, "version": VERSION}


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        value = getattr(cfg, name.replace("-", "_"))
        if not value:
            raise UsageError(f"--{name}: required path not set")
        if not Path(value).exists():
            raise UsageError(f"--{name}: file not found: {value}")


def _write_jsonl(path: Path, records: list[dict]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _suffix(fold: int | None) -> str:
    return f"_fold{fold}" if fold is not None else ""


def _load_bundle(cfg: RunConfig):
    from .dataio import load_dataset
    from .wordvec import load_vectors

    _require(cfg, "kb", "qa", "features", "concepts", "concept-labels", "wordvec")
    instances, store, kb = load_dataset(cfg.kb, cfg.qa, cfg.features, cfg.concepts, cfg.concept_labels)
    with open(cfg.wordvec, encoding="utf-8") as fh:
        first = fh.readline().split()
    table = load_vectors(cfg.wordvec, len(first) - 1)
    return instances, store, kb, table


def _split(cfg: RunConfig, instances):
    from .dataio import split_fold

    if cfg.fold is None:
        return instances, None
    return split_fold(instances, cfg.fold)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_train(cfg: RunConfig, kind: str) -> int:
    from .encoders import (
        EncoderTrainConfig,
        relation_accuracy,
        save_classifier,
        source_accuracy,
        train_relation_classifier,
        train_source_classifier,
    )
    from .scorer import Variant, save_scorer
    from .trainer import MarginConfig, train_scorer

    instances, store, kb, table = _load_bundle(cfg)
    train_set, heldout = _split(cfg, instances)
    out_dir = Path(cfg.checkpoints)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_dir = Path(cfg.out)
    metrics_dir.mkdir(parents=True, exist_ok=True)
    meta = cfg.meta()

    if kind == "relation":
        pairs = [(i.question, i.relation) for i in train_set]
        held = [(i.question, i.relation) for i in heldout] if heldout else None
        enc_cfg = EncoderTrainConfig(
            epochs=cfg.relation_epochs,
            batch_size=cfg.relation_batch_size,
            lr=cfg.relation_lr,
            dropout=cfg.relation_dropout,
            seed=cfg.seed,
            max_tokens=cfg.max_question_tokens,
        )
        clf, history = train_relation_classifier(pairs, enc_cfg, held)
        save_classifier(out_dir / f"relation{_suffix(cfg.fold)}.ckpt", clf, meta)
        summary = {"type": "summary", "train_top1": relation_accuracy(clf, pairs, 1)}
        if held:
            summary["heldout_top1"] = relation_accuracy(clf, held, 1)
            summary["heldout_top3"] = relation_accuracy(clf, held, 3)
    elif kind == "source":
        pairs = [(i.question, i.source) for i in train_set]
        held = [(i.question, i.source) for i in heldout] if heldout else None
        enc_cfg = EncoderTrainConfig(
            epochs=cfg.source_epochs,
            batch_size=cfg.source_batch_size,
            lr=cfg.source_lr,
            dropout=cfg.source_dropout,
            seed=cfg.seed,
            max_tokens=cfg.max_question_tokens,
        )
        clf, history = train_source_classifier(pairs, enc_cfg, held)
        save_classifier(out_dir / f"source{_suffix(cfg.fold)}.ckpt", clf, meta)
        summary = {"type": "summary", "train_acc": source_accuracy(clf, pairs)}
        if held:
            summary["heldout_acc"] = source_accuracy(clf, held)
    elif kind == "scorer":
        margin_cfg = MarginConfig(
            margin=cfg.margin,
            weight_decay=cfg.weight_decay,
            negatives=cfg.negatives,
            iterations=cfg.iterations,
            epochs_per_iteration=cfg.epochs_per_iteration,
            mining_period=cfg.mining_period,
            batch_size=cfg.scorer_batch_size,
            lr=cfg.scorer_lr,
            seed=cfg.seed,
            dropout=cfg.scorer_dropout,
            variant=Variant.parse(cfg.variant),
            max_question_tokens=cfg.max_question_tokens,
            reinitialize_each_iteration=cfg.reinit_each_iteration,
        )
        result = train_scorer(train_set, kb, store, table, margin_cfg, heldout=heldout)
        save_scorer(out_dir / f"scorer{_suffix(cfg.fold)}.ckpt", result.params, meta)
        history = result.metrics
        iter_summaries = [m for m in history if m["type"] == "iteration"]
        summary = {"type": "summary", "iterations": len(iter_summaries)}
        if iter_summaries and "precision1" in iter_summaries[-1]:
            summary["heldout_precision1"] = iter_summaries[-1]["precision1"]
            summary["heldout_precision3"] = iter_summaries[-1]["precision3"]
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown training kind {kind!r}")

    records = [{"type": "meta", **meta}] + [dict(r) for r in history] + [summary]
    metrics_path = metrics_dir / f"{kind}_metrics{_suffix(cfg.fold)}.jsonl"
    _write_jsonl(metrics_path, records)
    print(f"wrote {metrics_path}")
    for key, value in summary.items():
        if key != "type":
            print(f"{key}: {value}")
    return 0


def _metric_row(record: dict) -> str:
    keys = ("answer_at1", "answer_at3", "fact_at1", "fact_at3", "relation_at1", "relation_at3", "source_acc")
    cells = " ".join(f"{record[k]:.6f}" for k in keys)
    return f"fold={record['fold']:<4} {cells}"


def render_metrics_table(records: list[dict]) -> str:
    """Human-readable table rendered from parsed metrics records."""
    header = "fold      ans@1    ans@3    fact@1   fact@3   rel@1    rel@3    source"
    lines = [header]
    for rec in records:
        if rec.get("type") == "fold" or rec.get("type") == "average":
            lines.append(_metric_row(rec))
    return "\n".join(lines)


def cmd_evaluate(cfg: RunConfig, gt_relation: bool, gt_source: bool, reference: bool) -> int:
    import numpy as np

    from .dataio import FOLDS, split_fold
    from .encoders import load_classifier
    from .pipeline import FVQA_REFERENCE, FVQA_REFERENCE_TOLERANCE, PipelineModels, average_metrics, evaluate
    from .scorer import load_scorer
    from .wordvec import FactMatrix

    instances, store, kb, table = _load_bundle(cfg)
    fact_matrix = FactMatrix.build(kb, table)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_dir = Path(cfg.checkpoints)

    folds = [cfg.fold] if cfg.fold is not None else [f for f in FOLDS if (ckpt_dir / f"scorer_fold{f}.ckpt").exists()]
    if cfg.fold is None and not folds:
        # single un-folded checkpoint evaluated on the whole dataset
        folds = [None]

    per_fold = {}
    records: list[dict] = [{"type": "meta", **cfg.meta(), "gt_relation": gt_relation, "gt_source": gt_source}]
    for fold in folds:
        scorer_path = ckpt_dir / f"scorer{_suffix(fold)}.ckpt"
        if not scorer_path.exists():
            raise UsageError(f"--checkpoints: missing checkpoint {scorer_path}")
        scorer = load_scorer(scorer_path)
        relation = source = None
        if not gt_relation:
            rel_path = ckpt_dir / f"relation{_suffix(fold)}.ckpt"
            if not rel_path.exists():
                raise UsageError(f"--checkpoints: missing checkpoint {rel_path}")
            relation = load_classifier(rel_path)
        if not gt_source:
            src_path = ckpt_dir / f"source{_suffix(fold)}.ckpt"
            if not src_path.exists():
                raise UsageError(f"--checkpoints: missing checkpoint {src_path}")
            source = load_classifier(src_path)
        models = PipelineModels(scorer=scorer, fact_matrix=fact_matrix, relation=relation, source=source)
        subset = instances if fold is None else split_fold(instances, fold)[1]
        metrics, predictions = evaluate(
            models,
            kb,
            subset,
            store,
            k=cfg.k,
            oracle_relation=gt_relation,
            oracle_source=gt_source,
            tie_break=cfg.tie_break,
            rng=np.random.default_rng(cfg.seed),
        )
        label = fold if fold is not None else "all"
        per_fold[label] = metrics
        records.append({"type": "fold", "fold": label, **metrics.as_dict()})
        _write_jsonl(
            out_dir / f"predictions{_suffix(fold)}.jsonl",
            [p.as_record() for p in predictions],
        )
    if len(per_fold) > 1:
        records.append({"type": "average", "fold": "mean", **average_metrics(per_fold)})

    metrics_path = out_dir / "evaluate_metrics.jsonl"
    _write_jsonl(metrics_path, records)
    print(render_metrics_table(_read_jsonl(metrics_path)))
    print(f"wrote {metrics_path}")
    if reference:
        print("reference results on the full FVQA release (percent, +/- "
              f"{FVQA_REFERENCE_TOLERANCE} points, hardware and data dependent):")
        for key, value in FVQA_REFERENCE.items():
            print(f"  {key}: {value}")
    return 0


def cmd_answer(cfg: RunConfig, image_id: str, question: str) -> int:
    import numpy as np

    from .encoders import load_classifier
    from .pipeline import PipelineModels, answer_question
    from .scorer import load_scorer
    from .wordvec import FactMatrix

    instances, store, kb, table = _load_bundle(cfg)
    ckpt_dir = Path(cfg.checkpoints)
    for name in ("scorer", "relation", "source"):
        if not (ckpt_dir / f"{name}{_suffix(cfg.fold)}.ckpt").exists():
            raise UsageError(f"--checkpoints: missing checkpoint {ckpt_dir / name}{_suffix(cfg.fold)}.ckpt")
    models = PipelineModels(
        scorer=load_scorer(ckpt_dir / f"scorer{_suffix(cfg.fold)}.ckpt"),
        fact_matrix=FactMatrix.build(kb, table),
        relation=load_classifier(ckpt_dir / f"relation{_suffix(cfg.fold)}.ckpt"),
        source=load_classifier(ckpt_dir / f"source{_suffix(cfg.fold)}.ckpt"),
    )
    feat = store.feature(image_id)
    concepts = store.concept(image_id)
    prediction = answer_question(
        models, kb, feat, concepts, question, k=cfg.k, question_id="cli", image_id=image_id,
        tie_break=cfg.tie_break, rng=np.random.default_rng(cfg.seed),
    )
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


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .synth import SyntheticConfig, generate_synthetic

    synth_cfg = SyntheticConfig(
        seed=cfg.seed,
        vocab_size=args.vocab_size,
        facts_per_relation=args.facts_per_relation,
        qa_pairs=args.qa_pairs,
        concept_signal=args.concept_signal,
        image_answer_fraction=args.image_answer_fraction,
        distractor_concepts=args.distractor_concepts,
        wordvec_dim=args.wordvec_dim,
        feature_dim=args.feature_dim,
        concept_labels=args.concept_label_count,
    )
    paths = generate_synthetic(synth_cfg, cfg.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def cmd_kb_stats(cfg: RunConfig) -> int:
    from .kb import kb_stats, parse_kb

    _require(cfg, "kb")
    stats = kb_stats(parse_kb(cfg.kb))
    width = max(len(r.value) for r in stats.relation_counts)
    for relation, count in stats.relation_counts.items():
        print(f"{relation.value:<{width}} {count}")
    print(f"total facts: {stats.total_facts}")
    print(f"vocabulary size: {stats.vocabulary_size}")
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--fold", type=int)
    parser.add_argument("--variant", choices=["q+i", "q+vc", "q+i+vc"])
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--out")
    parser.add_argument("--tie-break", dest="tie_break", choices=["id", "random"])
    parser.add_argument("-k", type=int, dest="k")
    for flag in ("kb", "qa", "features", "concepts", "concept-labels", "wordvec", "checkpoints"):
        parser.add_argument(f"--{flag}", dest=flag.replace("-", "_"))


_OVERRIDE_KEYS = (
    "kb qa features concepts concept_labels wordvec checkpoints out seed fold variant threads "
    "tie_break k iterations relation_epochs source_epochs epochs_per_iteration mining_period "
    "negatives margin weight_decay scorer_lr relation_lr source_lr scorer_batch_size "
    "relation_batch_size source_batch_size scorer_dropout relation_dropout source_dropout "
    "max_question_tokens reinit_each_iteration"
).split()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="factrank", description="Learned fact retrieval for visual question answering")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one of the three models")
    p_train.add_argument("kind", choices=["relation", "source", "scorer"])
    _add_common(p_train)
    for flag in ("relation-epochs", "source-epochs", "epochs-per-iteration", "mining-period", "negatives",
                 "relation-batch-size", "source-batch-size", "scorer-batch-size", "max-question-tokens"):
        p_train.add_argument(f"--{flag}", dest=flag.replace("-", "_"), type=int)
    for flag in ("margin", "weight-decay", "scorer-lr", "relation-lr", "source-lr",
                 "scorer-dropout", "relation-dropout", "source-dropout"):
        p_train.add_argument(f"--{flag}", dest=flag.replace("-", "_"), type=float)
    p_train.add_argument("--reinit-each-iteration", dest="reinit_each_iteration", action="store_const", const=True)

    p_eval = sub.add_parser("evaluate", help="score a dataset fold (or all folds) with trained checkpoints")
    _add_common(p_eval)
    p_eval.add_argument("--gt-relation", action="store_true", help="use groundtruth relations instead of the classifier")
    p_eval.add_argument("--gt-source", action="store_true", help="use groundtruth answer sources instead of the classifier")
    p_eval.add_argument("--reference", action="store_true", help="also print full-dataset reference results")

    p_answer = sub.add_parser("answer", help="answer a single question")
    _add_common(p_answer)
    p_answer.add_argument("--image-id", required=True)
    p_answer.add_argument("--question", required=True)

    p_synth = sub.add_parser("synth", help="generate the synthetic fixture files")
    _add_common(p_synth)
    p_synth.add_argument("--vocab-size", type=int, default=60)
    p_synth.add_argument("--facts-per-relation", type=int, default=46)
    p_synth.add_argument("--qa-pairs", type=int, default=1000)
    p_synth.add_argument("--concept-signal", type=float, default=1.0)
    p_synth.add_argument("--image-answer-fraction", type=float, default=0.5)
    p_synth.add_argument("--distractor-concepts", type=int, default=5)
    p_synth.add_argument("--wordvec-dim", type=int, default=100)
    p_synth.add_argument("--feature-dim", type=int, default=2048)
    p_synth.add_argument("--concept-label-count", type=int, default=1176)

    p_stats = sub.add_parser("kb-stats", help="summarize a knowledge base file")
    _add_common(p_stats)

    p_conv = sub.add_parser("convert-fvqa", help="convert original-release JSON dictionaries")
    _add_common(p_conv)
    p_conv.add_argument("--questions", required=True)
    p_conv.add_argument("--facts", required=True)

    return parser


def _set_thread_env(argv: list[str]) -> None:
    if "--threads" not in argv:
        return
    idx = argv.index("--threads")
    if idx + 1 >= len(argv):
        return
    value = argv[idx + 1]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, value)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _set_thread_env(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {k: getattr(args, k, None) for k in _OVERRIDE_KEYS}
        cfg = RunConfig.load(getattr(args, "config", None), overrides)
        if args.command == "train":
            return cmd_train(cfg, args.kind)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.gt_relation, args.gt_source, args.reference)
        if args.command == "answer":
            return cmd_answer(cfg, args.image_id, args.question)
        if args.command == "synth":
            return cmd_synth(cfg, args)
        if args.command == "kb-stats":
            return cmd_kb_stats(cfg)
        if args.command == "convert-fvqa":
            return cmd_convert_fvqa(cfg, args.questions, args.facts)
        raise UsageError(f"unknown command {args.command!r}")  # pragma: no cover
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FactrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
