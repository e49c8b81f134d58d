"""The benchmark's three workloads, driven through the library API.

Each workload has an untimed ``prepare`` (fixtures and, for the fvqa
workloads, a one-off model build in a child process), a timed ``setup``
that ``run.py`` repeats, and a timed ``op`` that it repeats until
the run's time is up. ``check`` verifies the outputs after measuring and
``report`` gives the workload's own end-to-end figures.

* ``desk-train``: the default ``SyntheticConfig`` set (1,000 questions,
  598 facts), fold 1 held out; one op trains the relation, source and
  scorer models on a fixed short schedule, as ``train ... --fold 1``
  does, then evaluates the held-out fold (not part of the op time).
* ``fvqa-evaluate``: the FVQA-scale set of ``fvqa.py`` with its
  checkpoints; one op runs ``pipeline.evaluate`` over a seeded sample of
  held-out questions, then ``trainer.fact_precision`` over another.
* ``fvqa-answer``: same set; one op is one ``pipeline.answer_question``
  call, a closed loop with one caller and no think time.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import fvqa

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HELDOUT_FOLD = 1
CHECK_SAMPLE = 10  # questions per run whose top-3 is re-ranked by brute force

# desk-train schedule: every model sees a few epochs, the scorer one mining
# iteration, and held-out metrics are computed every epoch
RELATION_EPOCHS = 4
SOURCE_EPOCHS = 4
SCORER_ITERATIONS = 1
SCORER_EPOCHS = 2

# fvqa-evaluate sizes: one op takes ~1.5 s, so a run has several to take the
# median of. fact_precision holds the dense score matrix, its negated copy
# and int64 argpartition indices: about 3 x 64 x 193,453 x 8 B = 0.3 GB on
# top of a ~0.8 GB base, far below the 5.4 GB of the full 1,166-question fold
EVALUATE_QUESTIONS = 32
PRECISION_QUESTIONS = 64
ANSWER_MIN_CALLS = 200  # >= 10 samples above the 95th percentile


def cache_dir() -> Path:
    """Build directory keyed to the library and fixture sources, so a stale
    fixture or checkpoint is never reused after either changes."""
    h = hashlib.sha256()
    for path in sorted(SRC.glob("factrank/*.py")) + [BENCH_DIR / "fvqa.py"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    base = ROOT / ".bench_build"
    current = base / f"factrank-{h.hexdigest()[:12]}"
    if base.exists():
        for old in base.glob("factrank-*"):
            if old != current:
                shutil.rmtree(old, ignore_errors=True)
    return current


def brute_force_top3(kb, fact_matrix, iq, relation) -> list[tuple[str, float]]:
    """Top-3 of the relation bucket by scalar ``scorer.score``, ties by fact id."""
    from factrank.scorer import score

    ranked = [(fid, score(fact_matrix.row(fid), iq)) for fid in kb.ids_with_relation(relation)]
    ranked.sort(key=lambda e: (-e[1], e[0]))
    return ranked[:3]


def _files(directory: Path):
    files = fvqa.paths(directory)
    return [files[k] for k in ("kb", "qa", "features", "concepts", "concept_labels")], files["wordvec"]


class Workload:
    """Interface: ``prepare`` (sets ``dir``), ``setup``, ``op``, ``check``,
    ``quality`` and ``report``; ``op`` returns its timed phases in seconds,
    the reported operation time under ``op_s``."""

    name = ""
    setup_repeats = 3  # set-ups per run; the run reports their median
    min_ops = 3  # operations measured even when the run's time is up
    op_items = 1  # attempted operations counted per op

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def feature_path(self) -> Path:
        return fvqa.paths(self.dir)["features"]


class DeskTrain(Workload):
    name = "desk-train"
    setup_repeats = 9  # a desk set-up takes ~0.07 s, so take the median of more

    def prepare(self) -> None:
        from factrank.synth import SyntheticConfig, generate_synthetic

        self.dir = cache_dir() / f"desk-seed{self.seed}"
        for other in self.dir.parent.glob("desk-seed*"):
            if other != self.dir:
                shutil.rmtree(other)
        done = self.dir / "complete"
        if not done.exists():
            generate_synthetic(SyntheticConfig(seed=self.seed), self.dir)
            done.touch()
        from factrank.dataio import load_features

        load_features(self.feature_path())  # warm the feature cache
        self.results: list[tuple] = []

    def setup(self) -> None:
        from factrank.dataio import load_dataset, split_fold
        from factrank.synth import SyntheticConfig
        from factrank.wordvec import FactMatrix, load_vectors

        data, wordvec = _files(self.dir)
        self.instances, self.store, self.kb = load_dataset(*data)
        self.table = load_vectors(wordvec, SyntheticConfig().wordvec_dim)
        self.fact_matrix = FactMatrix.build(self.kb, self.table)
        self.train, self.heldout = split_fold(self.instances, HELDOUT_FOLD)
        self.op_items = 3 + len(self.heldout)  # three trainings, then each held-out question

    def op(self) -> dict[str, float]:
        from factrank.encoders import EncoderTrainConfig, train_relation_classifier, train_source_classifier
        from factrank.pipeline import PipelineModels, evaluate
        from factrank.trainer import MarginConfig, train_scorer

        train, held = self.train, self.heldout
        start = time.perf_counter()
        relation, _ = train_relation_classifier(
            [(i.question, i.relation) for i in train],
            EncoderTrainConfig(epochs=RELATION_EPOCHS, dropout=0.7, seed=self.seed),
            [(i.question, i.relation) for i in held],
        )
        source, _ = train_source_classifier(
            [(i.question, i.source) for i in train],
            EncoderTrainConfig(epochs=SOURCE_EPOCHS, dropout=0.5, seed=self.seed),
            [(i.question, i.source) for i in held],
        )
        config = MarginConfig(iterations=SCORER_ITERATIONS, epochs_per_iteration=SCORER_EPOCHS,
                              mining_period=SCORER_EPOCHS, seed=self.seed)
        result = train_scorer(train, self.kb, self.store, self.table, config, heldout=held,
                              fact_matrix=self.fact_matrix)
        trained = time.perf_counter()
        models = PipelineModels(result.params, self.fact_matrix, relation, source)
        metrics, predictions = evaluate(models, self.kb, held, self.store)
        done = time.perf_counter()
        self.results.append((models, metrics, predictions))
        return {"op_s": trained - start, "evaluate_s": done - trained}

    def check(self) -> None:
        from factrank.scorer import embed_batch

        first = self.results[0][1].as_dict()
        for _, metrics, _ in self.results[1:]:
            again = metrics.as_dict()
            if (again["fact_at1"], again["answer_at1"]) != (first["fact_at1"], first["answer_at1"]):
                self.failed += 1
        models, _, predictions = self.results[-1]
        held = self.heldout
        feats, cons = self.store.stack([i.image_id for i in held])
        iq = embed_batch(models.scorer, feats, cons, [i.question for i in held])
        rng = np.random.default_rng([self.seed, 43])
        for idx in rng.choice(len(held), size=min(CHECK_SAMPLE, len(held)), replace=False):
            p = predictions[idx]
            if brute_force_top3(self.kb, self.fact_matrix, iq[idx], p.relation) != p.top_facts:
                self.failed += 1

    def quality(self) -> dict[str, float]:
        metrics = self.results[-1][1]
        return {"fact_at1": metrics.fact_at1, "answer_at1": metrics.answer_at1}

    def report(self, phases):
        q = self.quality()
        evaluate_s = statistics.median(p["evaluate_s"] for p in phases)
        return {
            "train_s": (statistics.median(p["op_s"] for p in phases), "s"),
            "evaluate_qps": (len(self.heldout) / evaluate_s, "questions/s"),
            "fact_at1": (q["fact_at1"], "fraction"),
            "answer_at1": (q["answer_at1"], "fraction"),
        }


class Fvqa(Workload):
    """Shared set-up of the two FVQA-scale workloads."""

    def prepare(self) -> None:
        self.dir = cache_dir() / "fvqa"
        if not (self.dir / "complete").exists():
            tmp = self.dir.with_name("fvqa.tmp")
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir(parents=True)
            env = dict(os.environ, PYTHONPATH=str(SRC))
            subprocess.run([sys.executable, str(BENCH_DIR / "fvqa.py"), "--out", str(tmp)], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            (tmp / "complete").touch()
            shutil.rmtree(self.dir, ignore_errors=True)
            os.replace(tmp, self.dir)

    def setup(self) -> None:
        from factrank.dataio import load_dataset, split_fold
        from factrank.encoders import load_classifier
        from factrank.pipeline import PipelineModels
        from factrank.scorer import load_scorer
        from factrank.wordvec import FactMatrix, load_vectors

        # drop the previous set-up first, so only one copy is ever resident
        self.models = self.fact_matrix = self.kb = self.store = self.instances = None
        data, wordvec = _files(self.dir)
        self.instances, self.store, self.kb = load_dataset(*data)
        self.fact_matrix = FactMatrix.build(self.kb, load_vectors(wordvec, fvqa.WORDVEC_DIM))
        self.models = PipelineModels(
            scorer=load_scorer(self.dir / "scorer.ckpt"),
            fact_matrix=self.fact_matrix,
            relation=load_classifier(self.dir / "relation.ckpt"),
            source=load_classifier(self.dir / "source.ckpt"),
        )
        self.heldout = split_fold(self.instances, HELDOUT_FOLD)[1]


class FvqaEvaluate(Fvqa):
    name = "fvqa-evaluate"
    op_items = EVALUATE_QUESTIONS + PRECISION_QUESTIONS

    def prepare(self) -> None:
        super().prepare()
        self.results: list[tuple] = []

    def setup(self) -> None:
        super().setup()
        held, rng = self.heldout, np.random.default_rng([self.seed, 41])
        self.eval_qs = [held[i] for i in rng.choice(len(held), EVALUATE_QUESTIONS, replace=False)]
        self.prec_qs = [held[i] for i in rng.choice(len(held), PRECISION_QUESTIONS, replace=False)]

    def op(self) -> dict[str, float]:
        from factrank.pipeline import evaluate
        from factrank.trainer import fact_precision

        start = time.perf_counter()
        metrics, predictions = evaluate(self.models, self.kb, self.eval_qs, self.store)
        evaluated = time.perf_counter()
        precision = fact_precision(self.models.scorer, self.prec_qs, self.store, self.fact_matrix)
        done = time.perf_counter()
        self.results.append((metrics, predictions, precision))
        return {"op_s": done - start, "evaluate_s": evaluated - start, "precision_s": done - evaluated}

    def check(self) -> None:
        from factrank.scorer import embed_batch

        metrics, predictions, precision = self.results[0]
        for again in self.results[1:]:
            if again[0].as_dict() != metrics.as_dict() or again[2] != precision:
                self.failed += 1
        if not all(0.0 <= v <= 1.0 for v in precision.values()):
            self.failed += 1
        qs = self.eval_qs
        feats, cons = self.store.stack([i.image_id for i in qs])
        iq = embed_batch(self.models.scorer, feats, cons, [i.question for i in qs])
        rng = np.random.default_rng([self.seed, 43])
        for idx in rng.choice(len(qs), size=min(CHECK_SAMPLE, len(qs)), replace=False):
            p = predictions[idx]
            if brute_force_top3(self.kb, self.fact_matrix, iq[idx], p.relation) != p.top_facts:
                self.failed += 1

    def quality(self) -> dict[str, float]:
        metrics = self.results[-1][0]
        return {"fact_at1": metrics.fact_at1, "answer_at1": metrics.answer_at1}

    def report(self, phases):
        return {
            "evaluate_qps": (EVALUATE_QUESTIONS / statistics.median(p["evaluate_s"] for p in phases), "questions/s"),
            "precision_qps": (PRECISION_QUESTIONS / statistics.median(p["precision_s"] for p in phases),
                              "questions/s"),
        }


class FvqaAnswer(Fvqa):
    name = "fvqa-answer"
    min_ops = ANSWER_MIN_CALLS

    def prepare(self) -> None:
        super().prepare()
        self.calls: list[tuple] = []

    def setup(self) -> None:
        super().setup()
        self.order = np.random.default_rng([self.seed, 41]).permutation(len(self.heldout))

    def op(self) -> dict[str, float]:
        from factrank.pipeline import answer_question

        inst = self.heldout[self.order[len(self.calls) % len(self.order)]]
        feat, concepts = self.store.feature(inst.image_id), self.store.concept(inst.image_id)
        start = time.perf_counter()
        prediction = answer_question(self.models, self.kb, feat, concepts, inst.question, k=3,
                                     question_id=inst.question_id, image_id=inst.image_id)
        done = time.perf_counter()
        self.calls.append((inst, prediction))
        return {"op_s": done - start}

    def check(self) -> None:
        from factrank.scorer import embed_image_question

        first: dict[str, object] = {}
        for inst, prediction in self.calls:
            if first.setdefault(inst.question_id, prediction) != prediction:
                self.failed += 1
        rng = np.random.default_rng([self.seed, 43])
        for idx in rng.choice(len(self.calls), size=min(CHECK_SAMPLE, len(self.calls)), replace=False):
            inst, p = self.calls[idx]
            iq = embed_image_question(self.models.scorer, self.store.feature(inst.image_id),
                                      self.store.concept(inst.image_id), inst.question)
            if brute_force_top3(self.kb, self.fact_matrix, iq, p.relation) != p.top_facts:
                self.failed += 1

    def quality(self) -> dict[str, float]:
        from factrank.pipeline import answers_match

        n = len(self.calls)
        facts = sum(bool(p.top_facts) and p.top_facts[0][0] == inst.fact_id for inst, p in self.calls)
        answers = sum(answers_match(p.answer, inst.answer) for inst, p in self.calls)
        return {"fact_at1": facts / n, "answer_at1": answers / n}

    def report(self, phases):
        ms = sorted(p["op_s"] * 1e3 for p in phases)
        p95 = float(np.percentile(ms, 95))
        return {
            "answer_p50_ms": (statistics.median(ms), "ms"),
            "answer_p95_ms": (p95, "ms"),
            "answer_samples": (len(ms), "count"),
            "answer_samples_above_p95": (sum(v > p95 for v in ms), "count"),
        }


WORKLOADS = {w.name: w for w in (DeskTrain, FvqaEvaluate, FvqaAnswer)}
