"""Synthetic dataset generator with recoverable ground truth.

Builds a desk-scale corpus whose correct answers can be found by
exhaustive search, so end-to-end behaviour is checkable without any real
image data. Per QA pair it plants:

* a groundtruth fact whose subject is a unique two-token phrase;
* a question containing a keyword deterministically tied to the fact's
  relation, a cue token tied to the answer source, the subject's tokens,
  and a few filler words, in shuffled order;
* a concept vector with the subject tokens' bits hot (with probability
  ``concept_signal`` per instance) plus a few distractor bits drawn from
  label slots no fact uses;
* a random image feature vector (pure noise by construction);
* random-but-fixed word vectors for every token.

Subject phrases are distinct across facts, so the hot concept bits plus
the question tokens identify the groundtruth fact; a bag-of-words reading
of the planted keyword recovers the relation exactly. Generation is a
pure function of the config, including its seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import FOLDS
from .errors import UsageError
from .kb import Relation

RELATION_KEYWORDS: dict[Relation, str] = {r: r.value.lower() for r in Relation}
IMAGE_CUE = "shown"
KB_CUE = "known"

_FILLERS = ["what", "is", "the", "which", "this", "that"]
_OBJECTS = ["attr00", "attr01", "attr02"]  # each fact's object is one of these tokens


@dataclass
class SyntheticConfig:
    seed: int = 7
    vocab_size: int = 60
    facts_per_relation: int = 46
    qa_pairs: int = 1000
    concept_signal: float = 1.0
    image_answer_fraction: float = 0.5
    distractor_concepts: int = 2
    wordvec_dim: int = 100
    feature_dim: int = 2048
    concept_labels: int = 1176
    folds: int = 5

    def validate(self) -> None:
        positive = {
            "vocab_size": self.vocab_size,
            "facts_per_relation": self.facts_per_relation,
            "qa_pairs": self.qa_pairs,
            "wordvec_dim": self.wordvec_dim,
            "feature_dim": self.feature_dim,
            "concept_labels": self.concept_labels,
        }
        for name, value in positive.items():
            if value < 1:
                raise UsageError(f"{name} must be positive, got {value}")
        if not 1 <= self.folds <= len(FOLDS):
            raise UsageError(f"folds must be in [1, {len(FOLDS)}], got {self.folds}")
        if not 0.0 <= self.concept_signal <= 1.0:
            raise UsageError(f"concept_signal must be in [0, 1], got {self.concept_signal}")
        if not 0.0 <= self.image_answer_fraction <= 1.0:
            raise UsageError(f"image_answer_fraction must be in [0, 1], got {self.image_answer_fraction}")
        if self.distractor_concepts < 0:
            raise UsageError("distractor_concepts must be >= 0")
        if self.subject_token_count() < 2:
            raise UsageError("vocab_size leaves no room for subject tokens")
        total = self.total_facts()
        n = self.subject_token_count()
        if n * (n - 1) // 2 < total:
            raise UsageError(
                f"vocab_size {self.vocab_size} supports at most {n * (n - 1) // 2} "
                f"distinct subject pairs but {total} facts were requested"
            )
        if self.concept_labels < n:
            raise UsageError("concept_labels must cover all subject tokens")

    def total_facts(self) -> int:
        return self.facts_per_relation * len(Relation)

    def subject_token_count(self) -> int:
        reserved = len(Relation) + 2 + len(_FILLERS) + len(_OBJECTS)
        return self.vocab_size - reserved


def generate_synthetic(config: SyntheticConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write the six fixture files and return their paths.

    Files: kb.tsv, qa.jsonl, features.txt, concepts.txt,
    concept_labels.txt, wordvec.txt.
    """
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    subjects = [f"ent{i:02d}" for i in range(config.subject_token_count())]
    keywords = [RELATION_KEYWORDS[r] for r in Relation]
    vocab = subjects + _OBJECTS + _FILLERS + keywords + [IMAGE_CUE, KB_CUE]

    # word vectors: random but fixed per token
    wordvec_lines = []
    for token in vocab:
        vec = rng.standard_normal(config.wordvec_dim) / np.sqrt(config.wordvec_dim)
        wordvec_lines.append(token + " " + " ".join(f"{v:.6f}" for v in vec))

    # facts: one distinct unordered subject-token pair per fact
    pairs = list(itertools.combinations(range(len(subjects)), 2))
    pair_order = rng.permutation(len(pairs))
    relations = list(Relation)
    facts = []
    kb_lines = []
    for idx in range(config.total_facts()):
        a, b = pairs[pair_order[idx]]
        relation = relations[idx // config.facts_per_relation]
        subject = f"{subjects[a]} {subjects[b]}"
        obj = _OBJECTS[int(rng.integers(len(_OBJECTS)))]
        fact_id = f"f{idx:04d}"
        facts.append((fact_id, subject, relation, obj, (a, b)))
        kb_lines.append("\t".join([fact_id, subject, relation.value, obj]))

    # concept labels: subject tokens first, filler labels after
    labels = subjects + [f"c{i:04d}" for i in range(config.concept_labels - len(subjects))]

    qa_lines = []
    feature_lines = []
    concept_lines = []
    n_subj = len(subjects)
    for q_idx in range(config.qa_pairs):
        fact_id, subject, relation, obj, (a, b) = facts[q_idx % len(facts)]
        image_id = f"img{q_idx:04d}"
        from_image = rng.random() < config.image_answer_fraction
        cue = IMAGE_CUE if from_image else KB_CUE
        tokens = [cue, RELATION_KEYWORDS[relation], subjects[a], subjects[b]]
        n_fill = int(rng.integers(2, 5))
        tokens += [_FILLERS[int(rng.integers(len(_FILLERS)))] for _ in range(n_fill)]
        order = rng.permutation(len(tokens))
        question = " ".join(tokens[i] for i in order)
        answer = subject if from_image else obj
        qa_lines.append(
            json.dumps(
                {
                    "question_id": f"q{q_idx:04d}",
                    "image_id": image_id,
                    "question": question,
                    "answer": answer,
                    "fact_id": fact_id,
                    "relation": relation.value,
                    "answer_source": "Image" if from_image else "KnowledgeBase",
                    "fold": q_idx % config.folds + 1,
                },
                sort_keys=True,
            )
        )
        feat = rng.standard_normal(config.feature_dim)
        feature_lines.append(
            f"{image_id} {config.feature_dim} " + " ".join(f"{v:.6f}" for v in feat)
        )
        hot: set[int] = set()
        if rng.random() < config.concept_signal:
            hot.update((a, b))
        if config.concept_labels > n_subj and config.distractor_concepts:
            distractors = rng.integers(n_subj, config.concept_labels, size=config.distractor_concepts)
            hot.update(int(d) for d in distractors)
        concept_lines.append(image_id + " " + ",".join(str(i) for i in sorted(hot)))

    paths = {
        "kb": out_dir / "kb.tsv",
        "qa": out_dir / "qa.jsonl",
        "features": out_dir / "features.txt",
        "concepts": out_dir / "concepts.txt",
        "concept_labels": out_dir / "concept_labels.txt",
        "wordvec": out_dir / "wordvec.txt",
    }
    paths["kb"].write_text("\n".join(kb_lines) + "\n", encoding="utf-8")
    paths["qa"].write_text("\n".join(qa_lines) + "\n", encoding="utf-8")
    paths["features"].write_text("\n".join(feature_lines) + "\n", encoding="utf-8")
    paths["concepts"].write_text("\n".join(concept_lines) + "\n", encoding="utf-8")
    paths["concept_labels"].write_text("\n".join(labels) + "\n", encoding="utf-8")
    paths["wordvec"].write_text("\n".join(wordvec_lines) + "\n", encoding="utf-8")
    return paths
