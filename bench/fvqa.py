"""FVQA-scale fixture and model build for the benchmark.

The knowledge base, word vectors and concept labels come from
``factrank.synth`` at FVQA size: 13 relations x 14,881 facts = 193,453
facts, the size of the FVQA release. The question set is built here
instead, because ``synth`` maps question *q* to fact *q* mod |KB|, which
puts every question of a 5,826-question set into the first relation
bucket. Here the groundtruth facts are a seeded sample stratified by
relation, and each question, concept vector and image feature follows
the scheme documented in ``factrank.synth``: a cue token for the answer
source, the relation keyword, the two subject tokens and 2-4 fillers in
shuffled order; the subject tokens' concept bits hot plus two distractor
bits from label slots no fact uses; a standard-normal image feature.

``build`` then trains the three models briefly on folds 2-5 and saves
them as checkpoints, so the fvqa workloads only load them. Run as a
script it builds one directory::

    python3 bench/fvqa.py --out .bench_build/factrank/fvqa
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

FACTS_PER_RELATION = 14_881
QUESTIONS = 5_826
SUBJECT_TOKENS = 623  # smallest n with n * (n - 1) / 2 >= 193,453 distinct subject pairs
FEATURE_DIM = 2048
CONCEPT_LABELS = 1176
WORDVEC_DIM = 100
DISTRACTOR_CONCEPTS = 2
FOLDS = 5
HELDOUT_FOLD = 1
SEED = 7

FILES = ("kb", "qa", "features", "concepts", "concept_labels", "wordvec")


def paths(out_dir: Path) -> dict[str, Path]:
    names = {"kb": "kb.tsv", "qa": "qa.jsonl", "features": "features.txt", "concepts": "concepts.txt",
             "concept_labels": "concept_labels.txt", "wordvec": "wordvec.txt"}
    return {key: out_dir / names[key] for key in FILES}


def generate(out_dir: Path, seed: int = SEED) -> dict[str, Path]:
    """Write the six fixture files of the FVQA-scale set into ``out_dir``."""
    from factrank.kb import Relation, parse_kb
    from factrank.synth import IMAGE_CUE, KB_CUE, RELATION_KEYWORDS, SyntheticConfig, generate_synthetic

    config = SyntheticConfig(
        seed=seed,
        vocab_size=SUBJECT_TOKENS + len(Relation) + 2 + 6 + 3,  # subjects, keywords, cues, fillers, objects
        facts_per_relation=FACTS_PER_RELATION,
        qa_pairs=1,
        wordvec_dim=WORDVEC_DIM,
        feature_dim=FEATURE_DIM,
        concept_labels=CONCEPT_LABELS,
        folds=FOLDS,
    )
    files = generate_synthetic(config, out_dir)
    kb = parse_kb(files["kb"])
    labels = files["concept_labels"].read_text(encoding="utf-8").split()
    subject_bit = {token: i for i, token in enumerate(labels[: config.subject_token_count()])}
    objects = {f.obj for f in kb.facts()}
    keywords = set(RELATION_KEYWORDS.values())
    vocab = [line.split(" ", 1)[0] for line in files["wordvec"].read_text(encoding="utf-8").splitlines()]
    fillers = [t for t in vocab if t not in subject_bit and t not in objects and t not in keywords
               and t not in (IMAGE_CUE, KB_CUE)]

    rng = np.random.default_rng([seed, 31])
    relations = list(Relation)
    per_relation = np.full(len(relations), QUESTIONS // len(relations))
    per_relation[: QUESTIONS % len(relations)] += 1
    facts = []
    for relation, count in zip(relations, per_relation):
        bucket = kb.facts_with_relation(relation)
        facts += [bucket[i] for i in rng.choice(len(bucket), size=int(count), replace=False)]
    facts = [facts[i] for i in rng.permutation(len(facts))]

    qa_lines, feature_lines, concept_lines = [], [], []
    for q_idx, fact in enumerate(facts):
        image_id = f"img{q_idx:05d}"
        from_image = rng.random() < 0.5
        subject_tokens = fact.subject.split()
        tokens = [IMAGE_CUE if from_image else KB_CUE, RELATION_KEYWORDS[fact.relation], *subject_tokens]
        tokens += [fillers[int(rng.integers(len(fillers)))] for _ in range(int(rng.integers(2, 5)))]
        question = " ".join(tokens[i] for i in rng.permutation(len(tokens)))
        qa_lines.append(json.dumps({
            "question_id": f"q{q_idx:05d}",
            "image_id": image_id,
            "question": question,
            "answer": fact.subject if from_image else fact.obj,
            "fact_id": fact.fact_id,
            "relation": fact.relation.value,
            "answer_source": "Image" if from_image else "KnowledgeBase",
            "fold": q_idx % FOLDS + 1,
        }, sort_keys=True))
        feat = rng.standard_normal(FEATURE_DIM)
        feature_lines.append(f"{image_id} {FEATURE_DIM} " + " ".join(f"{v:.6f}" for v in feat))
        hot = {subject_bit[t] for t in subject_tokens}
        hot.update(int(d) for d in rng.integers(len(subject_bit), CONCEPT_LABELS, size=DISTRACTOR_CONCEPTS))
        concept_lines.append(image_id + " " + ",".join(str(i) for i in sorted(hot)))
    for key, lines in (("qa", qa_lines), ("features", feature_lines), ("concepts", concept_lines)):
        files[key].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return files


def build(out_dir: Path) -> None:
    """Generate the fixture, warm the feature cache, train and save the models."""
    from factrank.dataio import load_dataset, split_fold
    from factrank.encoders import (EncoderTrainConfig, save_classifier, train_relation_classifier,
                                   train_source_classifier)
    from factrank.scorer import save_scorer
    from factrank.trainer import MarginConfig, train_scorer
    from factrank.wordvec import FactMatrix, load_vectors

    files = generate(out_dir)
    instances, store, kb = load_dataset(*(files[k] for k in ("kb", "qa", "features", "concepts", "concept_labels")))
    table = load_vectors(files["wordvec"], WORDVEC_DIM)
    fact_matrix = FactMatrix.build(kb, table)
    train, _ = split_fold(instances, HELDOUT_FOLD)
    enc = EncoderTrainConfig(epochs=3, lr=1e-2)
    relation, _ = train_relation_classifier([(i.question, i.relation) for i in train], enc)
    save_classifier(out_dir / "relation.ckpt", relation)
    source, _ = train_source_classifier([(i.question, i.source) for i in train], enc)
    save_classifier(out_dir / "source.ckpt", source)
    # iterations=0: hard-negative mining scans the whole KB once per question
    result = train_scorer(train, kb, store, table, MarginConfig(iterations=0, epochs_per_iteration=2, mining_period=2,
                                                                lr=1e-2), fact_matrix=fact_matrix)
    save_scorer(out_dir / "scorer.ckpt", result.params)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    build(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
