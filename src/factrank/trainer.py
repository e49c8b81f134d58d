"""Max-margin training of the fact scorer with hard-negative mining.

Training runs in iterations t = 0..T. Iteration 0 pairs every training
question with its groundtruth fact plus N uniformly sampled wrong facts;
each later iteration rebuilds the candidate sets from the wrong facts the
model scored highest during the previous iteration (harvested every
``mining_period`` epochs), topping up any shortfall with fresh random
negatives. An iteration's candidate sets are one (questions, 1 + N) array
of KB positions (indices into ``kb.fact_ids()``, groundtruth in column 0)
and its pools one (questions, N) array of the best score each negative
reached above the margin line. Within an iteration the structured hinge

    max_f { task_loss(f*, f) + S(f) } - S(f*)

is minimized by minibatch Adam with decoupled weight decay, one run of
:func:`encoders.fit` per iteration; its loss callback gathers each batch's
candidate rows, applies ``Tape.hinge_mean`` and updates the pools. The
groundtruth fact sits inside the max with task loss 0, so the loss is
never negative. Weights carry over between iterations by default;
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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataio import FeatureStore, QAInstance
from .errors import DataError, DegenerateInputError, UsageError
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
        if self.mining_period < 1:
            raise UsageError(f"mining_period must be >= 1, got {self.mining_period}")
        if self.lr <= 0:
            raise UsageError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class MiningState:
    """One iteration's hard-negative pools: ``pools[i, j]`` is the best score
    that negative ``j`` of instance ``i`` (candidate column ``j + 1``) reached
    above the margin line, and ``-inf`` while it never has."""

    iteration: int
    pools: Array
    empty_pool_fallbacks: int = 0

    def pool_total(self) -> int:
        return int(np.count_nonzero(self.pools > -np.inf))


def _candidate_row(gt: int, hard: Array, n: int, kb_size: int, rng: np.random.Generator) -> Array:
    """``[gt, *hard]`` topped up to ``1 + n`` KB positions by a uniform draw
    without replacement from the other positions, in KB load order."""
    free = np.ones(kb_size, dtype=bool)
    free[gt] = False
    free[hard] = False
    draw = rng.choice(kb_size - 1 - len(hard), size=n - len(hard), replace=False)
    return np.concatenate([[gt], hard, np.flatnonzero(free)[draw]])


def build_initial_dataset(
    instances: Sequence[QAInstance],
    kb: KnowledgeBase,
    negatives: int = 99,
    seed: int = 0,
) -> Array:
    """Iteration-0 candidate sets: an (instances, 1 + n) array of KB
    positions (indices into ``kb.fact_ids()``), the groundtruth in column 0
    and ``n = min(negatives, len(kb) - 1)`` uniform negatives after it.

    Negatives are drawn without replacement from the whole knowledge base
    excluding the groundtruth; a KB smaller than ``negatives + 1`` yields
    every non-groundtruth fact. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng([seed, 29])
    position = {fid: i for i, fid in enumerate(kb.fact_ids())}
    n = min(negatives, len(kb) - 1)
    rows = []
    for inst in instances:
        if inst.fact_id not in position:
            raise DataError(f"question {inst.question_id}: fact id {inst.fact_id!r} not in knowledge base")
        rows.append(_candidate_row(position[inst.fact_id], np.zeros(0, dtype=np.intp), n, len(kb), rng))
    return np.array(rows, dtype=np.intp).reshape(len(instances), n + 1)


def mine_hard_negatives(
    pools: Array,
    state: MiningState,
    current: Array,
    kb: KnowledgeBase,
    rng: np.random.Generator,
) -> Array:
    """Next-iteration candidate sets from the previous iteration's ``pools``
    over its candidate array ``current``; the result has the same shape.

    Per row: the pooled negatives by falling score (ties by fact id),
    topped up with uniform random negatives when the pool is short. An
    empty pool falls back to all-random and is counted on ``state``, the
    state of the iteration the new sets are for. The groundtruth stays in
    column 0 and never appears among the negatives.
    """
    ids = np.array(kb.fact_ids())
    order = np.lexsort((ids[current[:, 1:]], -pools))  # -inf, never hard, sorts last
    pooled = np.count_nonzero(pools > -np.inf, axis=1)
    state.empty_pool_fallbacks += int(np.count_nonzero(pooled == 0))
    rows = [_candidate_row(cand[0], cand[1:][o[:k]], current.shape[1] - 1, len(kb), rng)
            for cand, o, k in zip(current, order, pooled)]
    return np.array(rows, dtype=np.intp).reshape(current.shape)


@dataclass
class TrainScorerResult:
    """The trained scorer, its metrics records, and per iteration its
    candidate array (KB positions, groundtruth in column 0) and its
    mining state."""

    params: ScorerParams
    metrics: list[dict]
    candidate_history: list[Array]
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
    norms = np.linalg.norm(iq, axis=1)
    if np.any(norms == 0.0):
        raise UsageError("fact_precision got a zero-norm embedding row")
    if not np.all(np.isfinite(norms)):
        raise DegenerateInputError("fact_precision got a non-finite embedding row")
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
    candidate_history: list[Array] = []
    mining_states: list[MiningState] = []
    # KB position -> fact-matrix row: buckets reorder the rows by relation
    row_of_position = np.array([fact_matrix.row_of[fid] for fid in kb.fact_ids()], dtype=np.intp)
    pool_shape = (len(train_instances), min(config.negatives, len(kb) - 1))

    for t in range(config.iterations + 1):
        state = MiningState(iteration=t, pools=np.full(pool_shape, -np.inf))
        if t == 0:
            sets = build_initial_dataset(train_instances, kb, config.negatives, config.seed)
        else:
            sets = mine_hard_negatives(mining_states[-1].pools, state, sets, kb, rng_mine)
        candidate_history.append(sets)
        if config.reinitialize_each_iteration and t > 0:
            params = fresh_params(t)
        cand_idx = row_of_position[sets]

        def batch_loss(tape, epoch, batch, ids, lengths):
            iq = iq_embedding_batch(tape, params, feats[batch], cons[batch], ids, lengths, train=True, rng=rng_train)
            scores = tape.cosine_rows(iq, fact_matrix.rows[cand_idx[batch]])
            if epoch % config.mining_period == 0:
                # a wrong fact is "hard" when it scores above the groundtruth minus the margin
                s = scores.values[:, 1:]
                kept = state.pools[batch]
                state.pools[batch] = np.where(s > scores.values[:, :1] - config.margin, np.maximum(kept, s), kept)
            return tape.hinge_mean(scores, np.zeros(len(batch), dtype=np.intp), config.margin)

        def epoch_record(epoch, loss):
            record = {"type": "epoch", "iteration": t, "epoch": epoch, "loss": loss, "pool_size": state.pool_total()}
            if heldout:
                record.update(fact_precision(params, heldout, store, fact_matrix))
            return record

        opt = make_optimizer("adam", config.lr, weight_decay=config.weight_decay)
        metrics += fit(params.tensors, encoded, opt, rng_train, config.epochs_per_iteration,
                       config.batch_size, config.clip_norm, batch_loss, epoch_record, f"scorer iteration {t}: ")
        summary = {
            "type": "iteration",
            "iteration": t,
            "hard_pool_total": state.pool_total(),
            "empty_pool_fallbacks": state.empty_pool_fallbacks,
            "candidate_set_size": int(cand_idx.shape[1]),
        }
        if heldout:
            # the last epoch record has scored the parameters this iteration ends with
            summary.update({k: metrics[-1][k] for k in ("precision1", "precision3")})
        metrics.append(summary)
        mining_states.append(state)

    return TrainScorerResult(
        params=params, metrics=metrics, candidate_history=candidate_history, mining_states=mining_states
    )
