"""Max-margin training of the fact scorer with hard-negative mining.

Training runs in iterations t = 0..T of ``epochs_per_iteration`` epochs.
Iteration 0 starts by pairing every training question with its groundtruth
fact plus N uniformly sampled wrong facts. Before epoch e of any iteration
with ``(e - 1) % mining_period == 0``, except epoch 1 of iteration 0, the
candidate sets are mined afresh: the training questions are embedded with
the current parameters (no tape, no dropout) and the whole KB is ranked by
the exact kernel ``scorer.rank_rows``; each set keeps its groundtruth and
the N wrong facts that score highest, ties by fact id. Mining draws no
random number. A wrong fact whose fact-matrix row equals the groundtruth's
(facts that differ only in relation embed identically) scores as the
groundtruth does and gives the hinge no gradient, so such twins rank after
every other wrong fact. Within an iteration the structured hinge

    max_f { task_loss(f*, f) + S(f) } - S(f*)

is minimized by minibatch Adam with decoupled weight decay, one run of
:func:`encoders.fit` per iteration; its loss callback gathers each batch's
candidate rows and applies ``Tape.hinge_mean``. The groundtruth fact sits
inside the max with task loss 0, so the loss is never negative. Weights
carry over between iterations by default; a fresh-start mode, behind a
switch, reinitializes them after each iteration's first mining step.

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
from .errors import DataError, UsageError
from .kb import KnowledgeBase
from .optim import make_optimizer
from .scorer import ScorerDims, ScorerParams, Variant, embed_batch, iq_embedding_batch, rank_rows, score
from .encoders import Vocabulary, fit
from .wordvec import FactMatrix, WordVectorTable

Array = np.ndarray


@dataclass
class MarginConfig:
    margin: float = 1.0
    weight_decay: float = 1e-4
    negatives: int = 99  # wrong facts per candidate set; a smaller KB gives all of its own
    iterations: int = 2  # mining iterations after iteration 0, each of epochs_per_iteration epochs
    epochs_per_iteration: int = 50
    mining_period: int = 10  # re-mine the whole KB before every this-many-th epoch (module docstring)
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
    """One iteration's last mining step, or zeros if the iteration did not
    mine: ``hard_pool_total`` mined negatives scored above their groundtruth
    minus the margin, and ``empty_pool_fallbacks`` questions had no such
    negative."""

    iteration: int
    hard_pool_total: int = 0
    empty_pool_fallbacks: int = 0


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
    excluding the groundtruth, in KB load order; a KB smaller than
    ``negatives + 1`` yields every non-groundtruth fact. Deterministic for a
    fixed seed.
    """
    rng = np.random.default_rng([seed, 29])
    position = {fid: i for i, fid in enumerate(kb.fact_ids())}
    n = min(negatives, len(kb) - 1)
    rows = []
    for inst in instances:
        if inst.fact_id not in position:
            raise DataError(f"question {inst.question_id}: fact id {inst.fact_id!r} not in knowledge base")
        gt = position[inst.fact_id]
        draw = rng.choice(len(kb) - 1, size=n, replace=False)
        rows.append([gt, *(draw + (draw >= gt))])  # skip over the groundtruth
    return np.array(rows, dtype=np.intp).reshape(len(instances), n + 1)


def mine_hard_negatives(iq: Array, gt: Array, fact_matrix: FactMatrix, n: int, margin: float,
                        state: MiningState) -> Array:
    """Candidate sets mined from the whole KB: a (questions, 1 + n) array of
    fact-matrix rows, row ``gt[i]`` in column 0 and after it the ``n`` other
    rows that score highest against the embedding ``iq[i]``, ordered as
    :func:`scorer.rank_rows` orders them (ties by fact id), except that
    twins of the groundtruth (rows bitwise equal to its row) come after
    every other wrong fact. Sets ``state``'s counts of mined negatives
    scored above the groundtruth minus ``margin`` and of questions with
    none."""
    fm = fact_matrix
    groups: dict[bytes, int] = {}
    twin_group = np.array([groups.setdefault(r.tobytes(), len(groups)) for r in fm.rows], dtype=np.intp)
    twins = np.bincount(twin_group)[twin_group[gt]] - 1
    k = n + 1 + int(twins.max(initial=0))
    sets = np.empty((len(gt), 1 + n), dtype=np.intp)
    hard = np.empty(len(gt), dtype=np.intp)
    for c in range(0, len(gt), 256):  # ranking is per question: chunks bound the shortlists held
        for i, top in enumerate(rank_rows(iq[c : c + 256], fm.rows, fm.norms, fm.fact_ids, k), start=c):
            g = gt[i]
            wrong = [(fm.row_of[fid], s) for fid, s in top if fm.row_of[fid] != g]
            if twins[i]:
                wrong.sort(key=lambda e: twin_group[e[0]] == twin_group[g])  # stable: twins last
            wrong = wrong[:n]
            sets[i] = [g, *(r for r, _ in wrong)]
            line = score(fm.rows[g], iq[i]) - margin
            hard[i] = sum(s > line for _, s in wrong)
    state.hard_pool_total = int(hard.sum())
    state.empty_pool_fallbacks = int(np.count_nonzero(hard == 0))
    return sets


@dataclass
class TrainScorerResult:
    """The trained scorer, its metrics records, and per iteration the
    candidate sets its last epoch trained on (an array of KB positions,
    indices into ``kb.fact_ids()``, groundtruth in column 0) and its
    :class:`MiningState`."""

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
    held-out precision@1/@3 when ``heldout`` is given, and as ``pool_size``
    the hard negatives counted at the iteration's latest mining step) and
    one summary record per iteration. Deterministic for a fixed config seed.

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

    def fresh_params(*seed: int) -> ScorerParams:
        return ScorerParams.init(vocab, np.random.default_rng([config.seed, 17, *seed]), dims, dropout=config.dropout,
                                 variant=config.variant, max_tokens=config.max_question_tokens)

    params = fresh_params()

    feats, cons = store.stack([i.image_id for i in train_instances])
    questions = [i.question for i in train_instances]
    encoded = [vocab.encode(q, config.max_question_tokens) for q in questions]
    for inst, ids in zip(train_instances, encoded):
        if not ids:
            raise DataError(f"question {inst.question_id}: question has no tokens")

    metrics: list[dict] = []
    candidate_history: list[Array] = []
    mining_states: list[MiningState] = []
    # KB position <-> fact-matrix row: buckets reorder the rows by relation
    row_of_position = np.array([fact_matrix.row_of[fid] for fid in kb.fact_ids()], dtype=np.intp)
    position_of_row = np.argsort(row_of_position)
    cand = row_of_position[build_initial_dataset(train_instances, kb, config.negatives, config.seed)]

    for t in range(config.iterations + 1):
        state = MiningState(iteration=t)

        def mine() -> None:
            nonlocal cand
            iq = embed_batch(params, feats, cons, questions)
            cand = mine_hard_negatives(iq, cand[:, 0], fact_matrix, cand.shape[1] - 1, config.margin, state)

        if t > 0:
            mine()  # with the parameters the previous iteration ended with
            if config.reinitialize_each_iteration:
                params = fresh_params(t)

        def batch_loss(tape, epoch, batch, ids, lengths):
            iq = iq_embedding_batch(tape, params, feats[batch], cons[batch], ids, lengths, train=True, rng=rng_train)
            scores = tape.cosine_rows(iq, fact_matrix.rows[cand[batch]])
            return tape.hinge_mean(scores, np.zeros(len(batch), dtype=np.intp), config.margin)

        def epoch_record(epoch, loss):
            record = {"type": "epoch", "iteration": t, "epoch": epoch, "loss": loss, "pool_size": state.hard_pool_total}
            if heldout:
                record.update(fact_precision(params, heldout, store, fact_matrix))
            if epoch < config.epochs_per_iteration and epoch % config.mining_period == 0:
                mine()  # for the next epoch
            return record

        opt = make_optimizer(config.lr, weight_decay=config.weight_decay)
        metrics += fit(params.tensors, encoded, opt, rng_train, config.epochs_per_iteration,
                       config.batch_size, config.clip_norm, batch_loss, epoch_record, f"scorer iteration {t}: ")
        summary = {"type": "iteration", "iteration": t, "hard_pool_total": state.hard_pool_total,
                   "empty_pool_fallbacks": state.empty_pool_fallbacks, "candidate_set_size": int(cand.shape[1])}
        if heldout:
            # the last epoch record has scored the parameters this iteration ends with
            summary.update({k: metrics[-1][k] for k in ("precision1", "precision3")})
        metrics.append(summary)
        candidate_history.append(position_of_row[cand])
        mining_states.append(state)

    return TrainScorerResult(params, metrics, candidate_history, mining_states)
