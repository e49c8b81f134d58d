"""Max-margin training of the fact scorer with hard-negative mining.

Training runs in iterations t = 0..T. Iteration 0 pairs every training
question with its groundtruth fact plus N uniformly sampled wrong facts;
each later iteration rebuilds the candidate sets from the wrong facts the
model scored highest during the previous iteration (harvested every
``mining_period`` epochs), topping up any shortfall with fresh random
negatives. Within an iteration the structured hinge

    max_f { task_loss(f*, f) + S(f) } - S(f*)

is minimized by minibatch Adam with decoupled weight decay, one run of
:func:`encoders.fit` per iteration; its loss callback gathers each batch's
candidate rows, applies ``Tape.hinge_mean`` and harvests the mining
pools. The groundtruth fact sits inside the max with task loss 0, so the
loss is never negative. Weights carry over between iterations by default;
a fresh-start mode is available behind a switch.

The hinge is piecewise linear in the candidate scores, and each epoch takes
fixed-size Adam steps on its subgradient: a step that lowers the current
top negative can raise another, so the per-epoch loss need not fall every
epoch. With scores the cosines of the output ``u`` against the unit
groundtruth row ``g`` and unit negative rows ``f_j`` (margin 1), one
candidate set's loss is ``max(0, 1 - min_j u.(g - f_j))``, which no output
takes below ``1 - dist(0, conv{g - f_j})``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataio import FeatureStore, QAInstance
from .errors import DataError, UsageError
from .kb import KnowledgeBase
from .optim import make_optimizer
from .scorer import ScorerDims, ScorerParams, Variant, embed_batch, iq_embedding_batch, rank_rows
from .encoders import Vocabulary, fit
from .wordvec import FactMatrix, WordVectorTable

Array = np.ndarray


@dataclass
class MarginConfig:
    margin: float = 1.0
    weight_decay: float = 1e-4
    negatives: int = 99
    iterations: int = 2
    epochs_per_iteration: int = 50
    mining_period: int = 10
    batch_size: int = 100
    lr: float = 1e-3
    seed: int = 0
    clip_norm: float | None = 5.0
    dropout: float = 0.5
    variant: Variant = Variant.Q_I_VC
    max_question_tokens: int = 30
    reinitialize_each_iteration: bool = False

    def validate(self) -> None:
        if self.margin <= 0:
            raise UsageError(f"margin must be positive, got {self.margin}")
        if self.negatives < 1:
            raise UsageError(f"negatives must be >= 1, got {self.negatives}")
        if self.iterations < 0:
            raise UsageError(f"iterations must be >= 0, got {self.iterations}")
        if self.epochs_per_iteration < 1 or self.mining_period < 1 or self.batch_size < 1:
            raise UsageError("epochs_per_iteration, mining_period and batch_size must be >= 1")
        if self.lr <= 0:
            raise UsageError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class CandidateSet:
    """Groundtruth fact plus sampled negatives for one (image, question) key."""

    question_id: str
    image_id: str
    gt_fact_id: str
    negative_ids: list[str]

    def candidate_ids(self) -> list[str]:
        """All candidates with the groundtruth at index 0."""
        return [self.gt_fact_id, *self.negative_ids]


@dataclass
class MiningState:
    """Per-question pools of wrong facts that scored above the margin line."""

    iteration: int
    pools: dict[str, dict[str, float]] = field(default_factory=dict)
    empty_pool_fallbacks: int = 0

    def pool_total(self) -> int:
        return sum(len(p) for p in self.pools.values())


def build_initial_dataset(
    instances: Sequence[QAInstance],
    kb: KnowledgeBase,
    negatives: int = 99,
    seed: int = 0,
) -> list[CandidateSet]:
    """Iteration-0 candidate sets: groundtruth plus uniform negatives.

    Negatives are drawn without replacement from the whole knowledge base
    excluding the groundtruth; a KB smaller than ``negatives + 1`` yields
    every non-groundtruth fact. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng([seed, 29])
    all_ids = kb.fact_ids()
    index_of = {fid: i for i, fid in enumerate(all_ids)}
    sets = []
    for inst in instances:
        if inst.fact_id not in index_of:
            raise DataError(f"question {inst.question_id}: fact id {inst.fact_id!r} not in knowledge base")
        gt_idx = index_of[inst.fact_id]
        n = min(negatives, len(all_ids) - 1)
        # sample from a range one short of the KB and shift past the gt slot
        draw = rng.choice(len(all_ids) - 1, size=n, replace=False)
        negs = [all_ids[c if c < gt_idx else c + 1] for c in draw]
        sets.append(CandidateSet(inst.question_id, inst.image_id, inst.fact_id, negs))
    return sets


def mine_hard_negatives(
    pools: dict[str, dict[str, float]],
    state: MiningState,
    current: Sequence[CandidateSet],
    kb: KnowledgeBase,
    negatives: int,
    rng: np.random.Generator,
) -> list[CandidateSet]:
    """Next-iteration candidate sets from the previous iteration's ``pools``.

    Per key: the highest-scoring pooled wrong facts, topped up with uniform
    random negatives when the pool is short. An empty pool falls back to
    all-random and is counted on ``state``, the state of the iteration the
    new sets are for. The groundtruth is always kept and never appears
    among the negatives.
    """
    all_ids = kb.fact_ids()
    new_sets = []
    for cs in current:
        n = min(negatives, len(all_ids) - 1)
        pool = pools.get(cs.question_id, {})
        entries = [(fid, s) for fid, s in pool.items() if fid != cs.gt_fact_id]
        entries.sort(key=lambda e: (-e[1], e[0]))
        chosen = [fid for fid, _ in entries[:n]]
        if not entries:
            state.empty_pool_fallbacks += 1
        shortfall = n - len(chosen)
        if shortfall > 0:
            excluded = set(chosen)
            excluded.add(cs.gt_fact_id)
            remaining = [fid for fid in all_ids if fid not in excluded]
            draw = rng.choice(len(remaining), size=shortfall, replace=False)
            chosen += [remaining[i] for i in draw]
        new_sets.append(CandidateSet(cs.question_id, cs.image_id, cs.gt_fact_id, chosen))
    return new_sets


@dataclass
class TrainScorerResult:
    params: ScorerParams
    metrics: list[dict]
    candidate_history: list[list[CandidateSet]]
    mining_states: list[MiningState]


def fact_precision(
    params: ScorerParams,
    instances: Sequence[QAInstance],
    store: FeatureStore,
    fact_matrix: FactMatrix,
) -> dict[str, float]:
    """Precision@1/@3 of groundtruth-fact retrieval over the whole KB,
    ranked exactly (ties by fact id) in row blocks by ``scorer.rank_rows``:
    no (questions x KB) score matrix is built."""
    feats, cons = store.stack([i.image_id for i in instances])
    iq = embed_batch(params, feats, cons, [i.question for i in instances])
    if np.any(np.linalg.norm(iq, axis=1) == 0.0):
        raise UsageError("fact_precision got a zero-norm embedding row")
    tops = rank_rows(iq, fact_matrix.rows, fact_matrix.norms, fact_matrix.fact_ids, 3)
    found = [[fid for fid, _ in top] for top in tops]
    return {
        "precision1": float(np.mean([f[0] == i.fact_id for f, i in zip(found, instances)])),
        "precision3": float(np.mean([i.fact_id in f for f, i in zip(found, instances)])),
    }


def train_scorer(
    train_instances: Sequence[QAInstance],
    kb: KnowledgeBase,
    store: FeatureStore,
    word_table: WordVectorTable,
    config: MarginConfig,
    heldout: Sequence[QAInstance] | None = None,
    dims: ScorerDims | None = None,
    fact_matrix: FactMatrix | None = None,
) -> TrainScorerResult:
    """Run the full mining schedule and return the trained scorer.

    Emits one metrics record per epoch (iteration, epoch, mean loss,
    held-out precision@1/@3 when ``heldout`` is given, pool size) and one
    summary record per iteration. Deterministic for a fixed config seed.

    Each epoch takes subgradient steps on the piecewise-linear hinge, so
    an epoch's loss may sit above the previous one's; each candidate set's
    loss is bounded below by ``1 - dist(0, conv{g - f_j})`` for margin 1
    (``margin - dist`` in general; see the module docstring).
    """
    config.validate()
    if not train_instances:
        raise DataError("scorer training needs at least one instance")
    if fact_matrix is None:
        fact_matrix = FactMatrix.build(kb, word_table)
    dims = dims or ScorerDims(
        image_dim=store.feature_dim, concept_dim=store.concept_dim, output_dim=fact_matrix.dim
    )
    if store.feature_dim != dims.image_dim:
        raise DataError(f"feature length {store.feature_dim} != scorer image_dim {dims.image_dim}")
    if store.concept_dim != dims.concept_dim:
        raise DataError(f"concept length {store.concept_dim} != scorer concept_dim {dims.concept_dim}")
    if fact_matrix.dim != dims.output_dim:
        raise DataError(f"fact embedding length {fact_matrix.dim} != scorer output_dim {dims.output_dim}")

    vocab = Vocabulary.build(i.question for i in train_instances)
    rng_train = np.random.default_rng([config.seed, 19])
    rng_mine = np.random.default_rng([config.seed, 23])

    def fresh_params(*seed: int) -> ScorerParams:
        return ScorerParams.init(vocab, np.random.default_rng([config.seed, 17, *seed]), dims, dropout=config.dropout,
                                 variant=config.variant, max_tokens=config.max_question_tokens)

    params = fresh_params()

    feats, cons = store.stack([i.image_id for i in train_instances])
    encoded = [vocab.encode(i.question, config.max_question_tokens) for i in train_instances]
    for inst, ids in zip(train_instances, encoded):
        if not ids:
            raise DataError(f"question {inst.question_id}: question has no tokens")

    metrics: list[dict] = []
    candidate_history: list[list[CandidateSet]] = []
    mining_states: list[MiningState] = []
    sets: list[CandidateSet] = []

    for t in range(config.iterations + 1):
        state = MiningState(iteration=t)
        if t == 0:
            sets = build_initial_dataset(train_instances, kb, config.negatives, config.seed)
        else:
            sets = mine_hard_negatives(mining_states[-1].pools, state, sets, kb, config.negatives, rng_mine)
        candidate_history.append(sets)
        if config.reinitialize_each_iteration and t > 0:
            params = fresh_params(t)
        cand_idx = np.array(
            [[fact_matrix.row_of[fid] for fid in cs.candidate_ids()] for cs in sets], dtype=np.intp
        )

        def batch_loss(tape, epoch, batch, ids, lengths):
            iq = iq_embedding_batch(tape, params, feats[batch], cons[batch], ids, lengths, train=True, rng=rng_train)
            scores = tape.cosine_rows(iq, fact_matrix.rows[cand_idx[batch]])
            if epoch % config.mining_period == 0:
                _harvest_pools(state, sets, batch, scores.values, config.margin)
            return tape.hinge_mean(scores, np.zeros(len(batch), dtype=np.intp), config.margin)

        def epoch_record(epoch, loss):
            record = {"type": "epoch", "iteration": t, "epoch": epoch, "loss": loss, "pool_size": state.pool_total()}
            if heldout:
                record.update(fact_precision(params, heldout, store, fact_matrix))
            return record

        opt = make_optimizer("adam", config.lr, weight_decay=config.weight_decay)
        metrics += fit(params.tensors, encoded, opt, rng_train, config.epochs_per_iteration,
                       config.batch_size, config.clip_norm, batch_loss, epoch_record)
        summary = {
            "type": "iteration",
            "iteration": t,
            "hard_pool_total": state.pool_total(),
            "empty_pool_fallbacks": state.empty_pool_fallbacks,
            "candidate_set_size": int(cand_idx.shape[1]),
        }
        if heldout:
            summary.update(fact_precision(params, heldout, store, fact_matrix))
        metrics.append(summary)
        mining_states.append(state)

    return TrainScorerResult(
        params=params, metrics=metrics, candidate_history=candidate_history, mining_states=mining_states
    )


def _harvest_pools(state: MiningState, sets, batch, scores: Array, margin: float) -> None:
    # a wrong fact is "hard" when it scores above the groundtruth minus the margin
    gt = scores[:, 0]
    for row, inst_idx in enumerate(batch):
        cs = sets[inst_idx]
        pool = state.pools.setdefault(cs.question_id, {})
        hard = np.nonzero(scores[row, 1:] > gt[row] - margin)[0]
        for j in hard:
            fid = cs.negative_ids[j]
            s = float(scores[row, j + 1])
            if fid not in pool or s > pool[fid]:
                pool[fid] = s
