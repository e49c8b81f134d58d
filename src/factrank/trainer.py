"""Max-margin training of the fact scorer with hard-negative mining.

Training runs in iterations t = 0..T of ``epochs_per_iteration`` epochs,
written as one loop over mining periods: each iteration's epochs are cut
into runs of ``mining_period`` (the last may be shorter), and each run is
one call of :func:`encoders.fit`. Iteration 0 starts by pairing every
training question with its groundtruth fact plus N uniformly sampled wrong
facts. Before every other run the candidate sets are mined afresh: the
training questions are embedded with the current parameters (no tape, no
dropout), the whole KB is shortlisted by the exact kernel
``scorer.shortlist_rows``, and each set keeps its groundtruth and the N
wrong facts that score highest, ties by fact id. Mining draws no random
number. A wrong fact whose row equals the groundtruth's (a twin in
``FactMatrix.twin_groups``: facts that differ only in relation) scores as
the groundtruth does and gives the hinge no gradient, so twins rank after
every other wrong fact. Candidate sets are arrays of fact-matrix rows.
Within an iteration the structured hinge

    max_f { task_loss(f*, f) + S(f) } - S(f*)

is minimized by minibatch Adam with decoupled weight decay, one optimizer
per iteration; the loss callback gathers each batch's candidate rows and
applies ``Tape.hinge_mean``. The groundtruth fact sits inside the max with
task loss 0, so the loss is never negative. The weights are initialized
once and carry over from each iteration to the next.

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
from .numerics import cosines, row_norms
from .optim import make_optimizer
from .scorer import ScorerDims, ScorerParams, Variant, embed_batch, iq_embedding_batch, rank_rows, shortlist_rows
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
    dropout: float = 0.5
    variant: Variant = Variant.Q_I_VC
    max_question_tokens: int = 30

    def validate(self) -> None:
        for name in ("margin", "lr"):
            if not getattr(self, name) > 0:  # NaN too
                raise UsageError(f"{name} must be positive, got {getattr(self, name)}")
        lows = dict(weight_decay=0, negatives=1, iterations=0, epochs_per_iteration=1, mining_period=1,
                    max_question_tokens=1)
        for name, low in lows.items():
            if not getattr(self, name) >= low:
                raise UsageError(f"{name} must be >= {low}, got {getattr(self, name)}")
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
    """Iteration-0 candidate sets: an (instances, 1 + n) array of KB load
    positions (indices into ``kb.fact_ids()``; ``kb.load_order`` maps them
    to rows), the groundtruth in column 0 and ``n = min(negatives, len(kb) -
    1)`` uniform negatives after it.

    Negatives are drawn without replacement from the whole knowledge base
    excluding the groundtruth, in KB load order; a KB smaller than
    ``negatives + 1`` yields every non-groundtruth fact. Deterministic for a
    fixed seed.
    """
    rng = np.random.default_rng([seed, 29])
    loaded = np.empty(len(kb), dtype=np.intp)  # row -> load position
    loaded[kb.load_order] = np.arange(len(kb))
    n = min(negatives, len(kb) - 1)
    rows = []
    for inst in instances:
        if inst.fact_id not in kb:
            raise DataError(f"question {inst.question_id}: fact id {inst.fact_id!r} not in knowledge base")
        gt = int(loaded[kb.position[inst.fact_id]])
        draw = rng.choice(len(kb) - 1, size=n, replace=False)
        rows.append([gt, *(draw + (draw >= gt))])  # skip over the groundtruth
    return np.array(rows, dtype=np.intp).reshape(len(instances), n + 1)


def mine_hard_negatives(iq: Array, gt: Array, fact_matrix: FactMatrix, n: int, margin: float,
                        state: MiningState) -> Array:
    """Candidate sets mined from the whole KB: a (questions, 1 + n) array of
    fact-matrix rows, row ``gt[i]`` in column 0 and after it the ``n`` other
    rows first in ``(twin of the groundtruth, -score against iq[i], fact
    id)`` order, a twin being a row bitwise equal to the groundtruth's: the
    exact top scores, ties by fact id, with twins after every other wrong
    fact. Sets ``state``'s counts of mined negatives scored above the
    groundtruth minus ``margin`` and of questions with none."""
    fm, twin_group = fact_matrix, fact_matrix.twin_groups
    twins = np.bincount(twin_group)[twin_group[gt]] - 1
    # the exact top k holds the groundtruth, its twins and at least n others
    k = n + 1 + int(twins.max(initial=0))
    lines = cosines(fm.rows[gt], fm.norms[gt], iq, row_norms(iq)) - margin
    sets = np.empty((len(gt), 1 + n), dtype=np.intp)
    hard = np.empty(len(gt), dtype=np.intp)
    for c in range(0, len(gt), 256):  # ranking is per question: chunks bound the GEMM hits held
        for i, (r, s) in enumerate(shortlist_rows(iq[c : c + 256], fm.rows, fm.norms, k), start=c):
            g = int(gt[i])
            r, s = r[r != g], s[r != g]
            wrong = np.lexsort(([fm.fact_ids[j] for j in r.tolist()], -s, twin_group[r] == twin_group[g]))[:n]
            sets[i] = [g, *r[wrong]]
            hard[i] = np.count_nonzero(s[wrong] > lines[i])
    state.hard_pool_total = int(hard.sum())
    state.empty_pool_fallbacks = int(np.count_nonzero(hard == 0))
    return sets


@dataclass
class TrainScorerResult:
    """The trained scorer, its metrics records, and per iteration the
    candidate sets its last epoch trained on (an array of fact-matrix rows,
    groundtruth in column 0) and its :class:`MiningState`."""

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
    fact_matrix.check_built_from(kb)
    dims = ScorerDims(image_dim=store.feature_dim, concept_dim=store.concept_dim, output_dim=fact_matrix.dim)

    vocab = Vocabulary.build(i.question for i in train_instances)
    rng_train = np.random.default_rng([config.seed, 19])
    params = ScorerParams.init(vocab, np.random.default_rng([config.seed, 17]), dims, dropout=config.dropout,
                               variant=config.variant, max_tokens=config.max_question_tokens)

    feats, cons = store.stack([i.image_id for i in train_instances])
    questions = [i.question for i in train_instances]
    encoded = [vocab.encode(q, config.max_question_tokens) for q in questions]
    for inst, ids in zip(train_instances, encoded):
        if not ids:
            raise DataError(f"question {inst.question_id}: question has no tokens")

    metrics: list[dict] = []
    candidate_history: list[Array] = []
    mining_states: list[MiningState] = []
    cand = kb.load_order[build_initial_dataset(train_instances, kb, config.negatives, config.seed)]

    def batch_loss(tape, epoch, batch, ids, lengths):
        iq = iq_embedding_batch(tape, params, feats[batch], cons[batch], ids, lengths, rng_train)
        rows = np.empty((len(batch), cand.shape[1], fact_matrix.dim))  # float64: no float32 gather beside it
        for i, b in enumerate(batch):
            rows[i] = fact_matrix.rows[cand[b]]
        scores = tape.cosine_rows(iq, rows)
        return tape.hinge_mean(scores, np.zeros(len(batch), dtype=np.intp), config.margin)

    def epoch_record(epoch, loss):
        record = {"type": "epoch", "iteration": state.iteration, "epoch": epoch, "loss": loss,
                  "pool_size": state.hard_pool_total}
        if heldout:
            record.update(fact_precision(params, heldout, store, fact_matrix))
        return record

    for t in range(config.iterations + 1):
        state = MiningState(iteration=t)
        opt = make_optimizer(config.lr, weight_decay=config.weight_decay)
        for start in range(0, config.epochs_per_iteration, config.mining_period):
            if t or start:  # iteration 0 starts on the sampled sets
                iq = embed_batch(params, feats, cons, questions)
                cand = mine_hard_negatives(iq, cand[:, 0], fact_matrix, cand.shape[1] - 1, config.margin, state)
            epochs = range(start + 1, min(start + config.mining_period, config.epochs_per_iteration) + 1)
            metrics += fit(params.tensors, encoded, opt, rng_train, epochs, config.batch_size, batch_loss,
                           epoch_record, f"scorer iteration {t}: ")
        summary = {"type": "iteration", "iteration": t, "hard_pool_total": state.hard_pool_total,
                   "empty_pool_fallbacks": state.empty_pool_fallbacks, "candidate_set_size": int(cand.shape[1])}
        if heldout:
            # the last epoch record has scored the parameters this iteration ends with
            summary.update({k: metrics[-1][k] for k in ("precision1", "precision3")})
        metrics.append(summary)
        candidate_history.append(cand)
        mining_states.append(state)

    return TrainScorerResult(params, metrics, candidate_history, mining_states)
