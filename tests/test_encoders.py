import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrank import encoders
from factrank.checkpoint import load_checkpoint, save_checkpoint
from factrank.errors import DataError, FactrankError, LoadError, UsageError
from factrank.encoders import (
    PAD_ID,
    UNK_ID,
    _head_logits,
    EncoderTrainConfig,
    MAX_QUESTION_TOKENS,
    Classifier,
    Vocabulary,
    accuracy,
    answer_source,
    encode_batch,
    fit,
    init_tensors,
    load_classifier,
    lstm_hidden,
    lstm_shapes,
    predict_relation_batch,
    predict_source_batch,
    ranked_relations,
    save_classifier,
    train_relation_classifier,
    train_source_classifier,
)
from factrank.kb import AnswerSource, Relation
from factrank.numerics import Tape, constant, parameter
from factrank.optim import make_optimizer
from gradcheck import check_grads, total
from spoil import rewrite_header

RELATION_KEYWORD = {r: r.value.lower() for r in Relation}


def _planted_relation_pairs(per_relation, seed, fillers=("what", "is", "the", "item")):
    """Questions with one keyword deterministically tied to the relation."""
    rng = np.random.default_rng(seed)
    pairs = []
    for r in Relation:
        for _ in range(per_relation):
            tokens = [RELATION_KEYWORD[r]] + [fillers[rng.integers(len(fillers))] for _ in range(3)]
            rng.shuffle(tokens)
            pairs.append((" ".join(tokens), r))
    return pairs


def _planted_source_pairs(n, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        src = AnswerSource.IMAGE if i % 2 == 0 else AnswerSource.KNOWLEDGE_BASE
        cue = "shown" if src is AnswerSource.IMAGE else "known"
        tokens = [cue, "what", "is", "that"]
        rng.shuffle(tokens)
        pairs.append((" ".join(tokens), src))
    return pairs


# ----------------------------------------------------------------------
# vocabulary
# ----------------------------------------------------------------------


def test_vocabulary_build_is_contiguous_and_reserved():
    vocab = Vocabulary.build(["the cat", "a cat sat"])
    assert vocab.tokens[PAD_ID] == "<pad>"
    assert vocab.tokens[UNK_ID] == "<unk>"
    assert sorted(vocab.index.values()) == list(range(len(vocab)))


def test_vocabulary_unknown_maps_to_unk():
    vocab = Vocabulary.build(["cat"])
    assert vocab.encode("dog cat") == [UNK_ID, vocab.index["cat"]]


def test_vocabulary_truncates_at_max_tokens():
    # every question is cut to its first 30 tokens, in training and at inference alike
    words = [f"w{i}" for i in range(45)]
    vocab = Vocabulary.build([" ".join(words)])
    assert MAX_QUESTION_TOKENS == 30
    for count in (29, 30, 31, 45):
        ids = vocab.encode(" ".join(words[:count]))
        assert ids == [vocab.index[w] for w in words[: min(count, 30)]]
    ids, lengths = encode_batch(vocab, [" ".join(words[:31]), "w0"])
    assert ids.shape == (2, 30) and lengths.tolist() == [30, 1]


def test_encode_batch_pads_and_reports_lengths():
    vocab = Vocabulary.build(["a b", "c"])
    ids, lengths = encode_batch(vocab, ["a b", "c"])
    assert ids.shape == (2, 2)
    assert list(lengths) == [2, 1]
    assert ids[1, 1] == PAD_ID


def test_encode_batch_empty_question_rejected():
    vocab = Vocabulary.build(["a"])
    with pytest.raises(UsageError):
        encode_batch(vocab, ["..."])


# ----------------------------------------------------------------------
# lstm
# ----------------------------------------------------------------------


def _lstm(rng, vocab_size, input_dim, hidden_dim):
    return init_tensors(rng, lstm_shapes(vocab_size, input_dim, hidden_dim))


def _per_step_lstm(tape, tensors, ids, lengths, dropout_rate=0.0, rng=None):
    """The LSTM as a composition of per-step tape primitives, about 18
    records a step: the oracle that ``Tape.lstm_sequence`` must reproduce
    within rounding."""
    b, steps = ids.shape
    w = {name.removeprefix(encoders.LSTM_PREFIX): t for name, t in tensors.items()}
    hdim = w["b_gates"].shape[0] // 4
    h = constant(np.zeros((b, hdim)))
    c = constant(np.zeros((b, hdim)))
    for t in range(steps):
        x = tape.embedding(w["embed"], ids[:, t])
        x = tape.dropout(x, dropout_rate, rng)
        xh = tape.concat([x, h])
        gates = tape.add(tape.matmul(xh, w["w_gates"]), w["b_gates"])
        gate_i = tape.sigmoid(tape.slice_cols(gates, 0, hdim))
        gate_f = tape.sigmoid(tape.slice_cols(gates, hdim, 2 * hdim))
        gate_g = tape.tanh(tape.slice_cols(gates, 2 * hdim, 3 * hdim))
        gate_o = tape.sigmoid(tape.slice_cols(gates, 3 * hdim, 4 * hdim))
        c_new = tape.add(tape.mul(gate_f, c), tape.mul(gate_i, gate_g))
        h_new = tape.mul(gate_o, tape.tanh(c_new))
        live = lengths > t
        if live.all():
            h, c = h_new, c_new
        else:
            keep_new = constant(live.astype(np.float64)[:, None])
            keep_old = constant((~live).astype(np.float64)[:, None])
            c = tape.add(tape.mul(keep_new, c_new), tape.mul(keep_old, c))
            h = tape.add(tape.mul(keep_new, h_new), tape.mul(keep_old, h))
    return h


def _oracle_case(batch, steps, dim, hidden):
    params = _lstm(np.random.default_rng(8), 11, dim, hidden)
    rng = np.random.default_rng(9)
    lengths = np.array([steps, 1, *rng.integers(1, steps + 1, batch - 2)])  # full, a single token, mixed
    ids = rng.integers(2, 11, size=(batch, steps))
    ids[np.arange(steps) >= lengths[:, None]] = PAD_ID
    return params, ids, lengths


@pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
@pytest.mark.parametrize("batch, steps, dim, hidden", [(6, 4, 5, 6), (20, 7, 16, 24)])
def test_lstm_is_the_per_step_composition_within_rounding(dropout_rate, batch, steps, dim, hidden):
    params, ids, lengths = _oracle_case(batch, steps, dim, hidden)
    head = constant(np.random.default_rng(11).standard_normal((hidden, 3)))  # every hidden unit gets its own gradient

    def run(lstm):
        tape = Tape()
        h = lstm(tape, params, ids, lengths, dropout_rate, np.random.default_rng(10))
        tape.backward(total(tape, tape.tanh(tape.matmul(h, head))))
        out = [h.values] + [t.grad.copy() for t in params.values()]
        for t in params.values():
            t.grad[...] = 0.0
        return out, len(tape)

    fused, fused_records = run(lstm_hidden)
    reference, reference_records = run(_per_step_lstm)
    # the hoisted input projection and the gradients summed over all steps at
    # once round differently from the per-step records: the bound is 1e-13
    # relative (~450 float64 ulps) plus 1e-15 absolute, and the largest gap
    # seen is under a tenth of it
    for got, want in zip(fused, reference):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
    assert not np.array_equal(fused[0], np.zeros_like(fused[0]))
    # one record for the whole sequence, against 17 a step (18 with dropout)
    # and 6 more a step that freezes finished rows; 4 records of loss
    assert (fused_records, reference_records) == (1 + 4, steps * (17 + (dropout_rate > 0)) + (steps - 1) * 6 + 4)


@pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
def test_lstm_dropout_leaves_the_generator_where_the_per_step_composition_does(dropout_rate):
    params, ids, lengths = _oracle_case(20, 7, 16, 24)
    states = []
    for lstm in (lstm_hidden, _per_step_lstm):
        rng = np.random.default_rng(10)
        lstm(Tape(), params, ids, lengths, dropout_rate, rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]
    assert (states[0] == np.random.default_rng(10).bit_generator.state) == (dropout_rate == 0.0)
    # one (steps, batch, d) draw in the batch's own row order, though the rows are stepped sorted by length: the
    # oracle test above sees the same masks on the same rows
    draw = np.random.default_rng(10)
    if dropout_rate:
        draw.random((7, 20, 16))
    assert states[0] == draw.bit_generator.state


def test_lstm_values_and_gradients_do_not_depend_on_the_row_order():
    params, ids, lengths = _oracle_case(20, 7, 16, 24)
    head = constant(np.random.default_rng(11).standard_normal((24, 3)))

    def run(rows):
        tape = Tape()
        h = lstm_hidden(tape, params, ids[rows], lengths[rows])
        tape.backward(total(tape, tape.tanh(tape.matmul(h, head))))
        out = [h.values[np.argsort(rows)]] + [t.grad.copy() for t in params.values()]
        for t in params.values():
            t.grad[...] = 0.0
        return out

    reference = run(np.arange(20))
    # shortest first reverses the length sort's work; equal lengths keep their relative order
    for rows in (np.argsort(lengths, kind="stable"), np.arange(20)[::-1], np.random.default_rng(12).permutation(20)):
        for got, want in zip(run(rows), reference):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_lstm_zero_weights_gives_zero_hidden():
    params = _lstm(np.random.default_rng(0), 6, 3, 4)
    for t in params.values():
        t.values[...] = 0.0
    out = lstm_hidden(Tape(), params, np.array([[1, 2, 3]]), np.array([3]))
    np.testing.assert_array_equal(out.values, np.zeros((1, 4)))


def test_lstm_sequence_length_changes_state():
    params = _lstm(np.random.default_rng(1), 6, 3, 4)
    h1 = lstm_hidden(Tape(), params, np.array([[2]]), np.array([1])).values
    h2 = lstm_hidden(Tape(), params, np.array([[2, 2]]), np.array([2])).values
    assert not np.allclose(h1, h2)


def test_lstm_empty_sequence_rejected():
    params = _lstm(np.random.default_rng(2), 6, 3, 4)
    with pytest.raises(UsageError):
        lstm_hidden(Tape(), params, np.zeros((1, 0), dtype=np.intp), np.array([0]))


def test_lstm_grad_matches_finite_differences():
    params = _lstm(np.random.default_rng(3), 7, 3, 4)
    ids = np.array([[2, 5, 1]])

    def forward():
        t = Tape()
        return total(t, t.tanh(lstm_hidden(t, params, ids, np.array([3]))))

    assert check_grads(forward, params, tol=1e-4) <= 1e-4


@settings(max_examples=10, deadline=None)
@given(
    seq_len=st.integers(1, 8),
    hidden=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_lstm_grads(seq_len, hidden, seed):
    rng = np.random.default_rng(seed)
    params = _lstm(rng, 9, 4, hidden)
    ids = rng.integers(0, 9, size=(1, seq_len))

    def forward():
        t = Tape()
        return total(t, lstm_hidden(t, params, ids, np.array([seq_len])))

    check_grads(forward, params, tol=1e-4)


def test_lstm_pad_suffix_invariance():
    params = _lstm(np.random.default_rng(4), 7, 3, 5)
    plain = lstm_hidden(Tape(), params, np.array([[2, 5, 1]]), np.array([3])).values
    padded = lstm_hidden(Tape(), params, np.array([[2, 5, 1, PAD_ID, PAD_ID]]), np.array([3])).values
    np.testing.assert_array_equal(plain, padded)


def test_lstm_batch_rows_match_single_runs():
    params = _lstm(np.random.default_rng(5), 9, 3, 4)
    seqs = [[1, 2, 3], [4], [5, 6]]
    ids = np.full((3, 3), PAD_ID, dtype=np.intp)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
    batch = lstm_hidden(Tape(), params, ids, np.array([3, 1, 2])).values
    for i, s in enumerate(seqs):
        single = lstm_hidden(Tape(), params, np.array([s]), np.array([len(s)])).values[0]
        np.testing.assert_allclose(batch[i], single, atol=1e-12)


# ----------------------------------------------------------------------
# classifiers
# ----------------------------------------------------------------------


def test_untrained_zero_weight_relation_probs_uniform():
    vocab = Vocabulary.build(["what is this"])
    clf = Classifier.init("relation", vocab, np.random.default_rng(0))
    for t in clf.tensors.values():
        t.values[...] = 0.0
    ranked = ranked_relations(predict_relation_batch(clf, ["what is this"])[0])
    assert len(ranked) == 13
    for _, p in ranked:
        assert p == pytest.approx(1 / 13, abs=1e-12)


def test_predict_relation_sorted_and_top1_in_top3():
    vocab = Vocabulary.build(["what is this"])
    clf = Classifier.init("relation", vocab, np.random.default_rng(1))
    ranked = ranked_relations(predict_relation_batch(clf, ["what is this"])[0])
    probs = [p for _, p in ranked]
    assert probs == sorted(probs, reverse=True)
    assert ranked[0][0] in [r for r, _ in ranked[:3]]


def test_relation_probs_sum_to_one():
    vocab = Vocabulary.build(["alpha beta gamma"])
    clf = Classifier.init("relation", vocab, np.random.default_rng(2))
    probs = predict_relation_batch(clf, ["alpha beta", "gamma"])
    np.testing.assert_allclose(probs.sum(axis=1), [1.0, 1.0], atol=1e-9)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_predict_relation_empty_question_rejected():
    vocab = Vocabulary.build(["a"])
    clf = Classifier.init("relation", vocab, np.random.default_rng(3))
    with pytest.raises(UsageError):
        predict_relation_batch(clf, ["?!"])


def test_zero_weight_source_tie_resolves_to_image():
    vocab = Vocabulary.build(["what"])
    clf = Classifier.init("source", vocab, np.random.default_rng(4))
    for t in clf.tensors.values():
        t.values[...] = 0.0
    p = predict_source_batch(clf, ["what"])[0]
    source = answer_source(p)
    assert p == 0.5
    assert source is AnswerSource.IMAGE


def test_source_probability_in_open_interval():
    vocab = Vocabulary.build(["what is"])
    clf = Classifier.init("source", vocab, np.random.default_rng(5))
    p = predict_source_batch(clf, ["what is"])[0]
    assert 0.0 < p < 1.0


def test_eval_predictions_are_deterministic():
    vocab = Vocabulary.build(["what is this thing"])
    clf = Classifier.init("relation", vocab, np.random.default_rng(6))
    a = predict_relation_batch(clf, ["what is this thing"])
    b = predict_relation_batch(clf, ["what is this thing"])
    np.testing.assert_array_equal(a, b)


def test_inference_tape_records_nothing():
    vocab = Vocabulary.build(["what is this thing used for"])
    clf = Classifier.init("relation", vocab, np.random.default_rng(7), 4, 5)
    ids, lengths = encode_batch(vocab, ["what is this thing used for", "what is it"])
    recorded = _head_logits(Tape(), clf, ids, lengths, None)
    tape = Tape(record=False)
    logits = _head_logits(tape, clf, ids, lengths, None)
    assert logits.values.tobytes() == recorded.values.tobytes()
    assert len(tape) == 0
    assert not logits.requires_grad and logits.tape is None
    with pytest.raises(UsageError):
        tape.backward(total(tape, logits))


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------


def test_relation_training_memorizes_single_example():
    pairs = [("which thing is shown", Relation.USED_FOR)]
    clf, history = train_relation_classifier(pairs, EncoderTrainConfig(epochs=50, seed=0))
    assert accuracy(clf, pairs, 1) == 1.0
    assert len(history) == 50


def test_relation_training_loss_decreases():
    pairs = _planted_relation_pairs(4, seed=1)
    _, history = train_relation_classifier(pairs, EncoderTrainConfig(epochs=12, seed=1))
    assert history[-1]["loss"] <= history[0]["loss"]


def test_relation_training_on_planted_keywords_generalizes():
    train = _planted_relation_pairs(20, seed=2)
    heldout = _planted_relation_pairs(5, seed=3)
    clf, _ = train_relation_classifier(train, EncoderTrainConfig(epochs=40, seed=2))
    assert accuracy(clf, heldout, 1) >= 0.95


def test_epoch_records_report_pre_clip_gradient_norms(monkeypatch):
    pairs = _planted_relation_pairs(2, 0)
    history = {}
    for clip_norm in (np.inf, 1e-6):
        monkeypatch.setattr(encoders, "CLIP_NORM", clip_norm)
        cfg = EncoderTrainConfig(epochs=2, batch_size=len(pairs), lr=1e-2, seed=3)
        history[clip_norm] = train_relation_classifier(pairs, cfg)[1]
    free, clipped = history[np.inf], history[1e-6]
    # one batch an epoch, and the first is measured before any step: clipping cannot move its norm
    assert free[0]["grad_norm_mean"] == free[0]["grad_norm_max"] == clipped[0]["grad_norm_max"] > 0.0
    assert [r["clipped_fraction"] for r in free] == [0.0, 0.0]
    assert [r["clipped_fraction"] for r in clipped] == [1.0, 1.0]


@pytest.mark.parametrize("kind", ["relation", "source"])
def test_an_empty_heldout_list_is_no_heldout_set(kind):
    pairs = _planted_relation_pairs(2, 0) if kind == "relation" else _planted_source_pairs(6, 0)
    cfg = EncoderTrainConfig(epochs=2, seed=3)
    _, history = encoders.train_classifier(kind, pairs, cfg, heldout=[])
    assert history == encoders.train_classifier(kind, pairs, cfg)[1]
    assert encoders.KINDS[kind].metric not in history[0]


def test_relation_training_rejects_bad_labels():
    with pytest.raises(DataError):
        train_relation_classifier([("what", "UsedFor")], EncoderTrainConfig(epochs=1))


def test_source_training_memorizes_single_example():
    pairs = [("what is shown here", AnswerSource.IMAGE)]
    clf, _ = train_source_classifier(pairs, EncoderTrainConfig(epochs=50, seed=4))
    assert accuracy(clf, pairs) == 1.0


def test_source_training_on_planted_cues_generalizes():
    train = _planted_source_pairs(200, seed=5)
    heldout = _planted_source_pairs(60, seed=6)
    clf, _ = train_source_classifier(train, EncoderTrainConfig(epochs=25, seed=5))
    assert accuracy(clf, heldout) >= 0.98


def test_training_deterministic_under_seed():
    pairs = _planted_relation_pairs(3, seed=7)
    cfg = EncoderTrainConfig(epochs=3, seed=9)
    a, hist_a = train_relation_classifier(pairs, cfg)
    b, hist_b = train_relation_classifier(pairs, cfg)
    assert hist_a == hist_b
    for (name, pa), pb in zip(a.tensors.items(), b.tensors.values()):
        np.testing.assert_array_equal(pa.values, pb.values, err_msg=name)


def _toy_fit(w, batch_loss, epochs=3, batch_size=3):
    """``fit`` of the weights ``w`` over ten one-token sequences, four batches an epoch."""
    return fit({"w": w}, [[1]] * 10, make_optimizer(0.1), np.random.default_rng(0), range(1, epochs + 1), batch_size,
               batch_loss, lambda epoch, loss: {"loss": loss}, "toy: ")


def test_fit_stops_on_a_non_finite_loss_before_stepping_on_it():
    w = parameter(np.ones((1, 2)))
    seen = []  # the weights at each loss call

    def batch_loss(tape, batch, ids, lengths):
        seen.append(w.values.copy())
        x = np.full((len(batch), 1), np.nan if len(seen) == 7 else 1.0)  # epoch 2's third batch
        return tape.softmax_cross_entropy(tape.matmul(constant(x), w), np.zeros(len(batch), dtype=np.intp))

    with pytest.raises(FactrankError, match=r"^toy: epoch 2, batch 3: non-finite loss nan$"):
        _toy_fit(w, batch_loss)
    assert len(seen) == 7 and not np.array_equal(seen[-2], seen[-1])  # six steps were taken
    np.testing.assert_array_equal(w.values, seen[-1])  # and none on the non-finite loss
    assert w.values.dtype == np.float64 and w.grad is None  # handed back as after a finished run


def test_fit_trains_in_float32_and_hands_back_its_exact_float64_upcast():
    w = parameter(np.full((1, 2), 0.1))  # no float32 holds 0.1, so the first cast rounds
    seen = []

    def batch_loss(tape, batch, ids, lengths):
        seen.append((w.values.dtype, w.grad.dtype))
        x = constant(np.ones((len(batch), 1), dtype=np.float32))
        return tape.softmax_cross_entropy(tape.matmul(x, w), np.zeros(len(batch), dtype=np.intp))

    _toy_fit(w, batch_loss)
    assert set(seen) == {(np.dtype(np.float32),) * 2} and len(seen) == 12
    assert w.values.dtype == np.float64 and w.grad is None
    np.testing.assert_array_equal(w.values.astype(np.float32).astype(np.float64), w.values)
    assert not np.array_equal(w.values, np.full((1, 2), 0.1))


@pytest.mark.parametrize("epochs, batch_size", [(0, 3), (-1, 3), (2, 0)])
def test_fit_rejects_fewer_than_one_epoch_or_example_a_batch(epochs, batch_size):
    calls = []
    with pytest.raises(UsageError, match="^toy: epochs and batch_size must be >= 1"):
        _toy_fit(parameter(np.ones((1, 2))), lambda *args: calls.append(args), epochs, batch_size)
    assert calls == []


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def test_classifier_checkpoint_round_trip(tmp_path):
    pairs = _planted_relation_pairs(2, seed=8)
    clf, _ = train_relation_classifier(pairs, EncoderTrainConfig(epochs=2, seed=8))
    path = tmp_path / "relation.ckpt"
    save_classifier(path, clf, meta={"note": "test"})
    loaded = load_classifier(path)
    assert loaded.kind == "relation"
    # inference never differentiates: no tensor of a loaded model holds a gradient buffer
    assert all(not t.requires_grad and t.grad is None for t in loaded.tensors.values())
    # trained in float32 and handed back as float64, so the checkpoint's float64 members are exact upcasts
    for t in loaded.tensors.values():
        assert t.values.dtype == np.float64
        np.testing.assert_array_equal(t.values.astype(np.float32).astype(np.float64), t.values)
    questions = [q for q, _ in pairs]
    np.testing.assert_array_equal(
        predict_relation_batch(clf, questions), predict_relation_batch(loaded, questions)
    )


def test_classifier_checkpoint_with_an_older_max_tokens_key_loads(tmp_path):
    # checkpoints written while the token bound was a setting hold it in their dims; the loader ignores it
    pairs = _planted_relation_pairs(2, seed=8)
    clf, _ = train_relation_classifier(pairs, EncoderTrainConfig(epochs=2, seed=8))
    path = tmp_path / "relation.ckpt"
    save_classifier(path, clf)
    assert "max_tokens" not in load_checkpoint(path).dims
    rewrite_header(path, dims={**load_checkpoint(path).dims, "max_tokens": 30})
    assert load_checkpoint(path).dims["max_tokens"] == 30
    questions = [q for q, _ in pairs] + [" ".join(pairs[0][0].split() * 12)]  # the last is cut to 30 tokens
    np.testing.assert_array_equal(
        predict_relation_batch(clf, questions), predict_relation_batch(load_classifier(path), questions)
    )


def test_accuracy_on_no_pairs_is_a_usage_error():
    clf = Classifier.init("relation", Vocabulary.build(["what is it"]), np.random.default_rng(7), 4, 5)
    with pytest.raises(UsageError, match="accuracy needs at least one"):
        accuracy(clf, [])


def test_source_checkpoint_round_trip(tmp_path):
    pairs = _planted_source_pairs(10, seed=9)
    clf, _ = train_source_classifier(pairs, EncoderTrainConfig(epochs=2, seed=9))
    path = tmp_path / "source.ckpt"
    save_classifier(path, clf)
    loaded = load_classifier(path)
    assert loaded.kind == "source"
    assert accuracy(loaded, pairs) == accuracy(clf, pairs)


def test_classifier_checkpoint_with_wrong_head_shape_raises_load_error(tmp_path):
    clf = Classifier.init("relation", Vocabulary.build(["what is it used for"]), np.random.default_rng(3), 4, 5)
    path = tmp_path / "relation.ckpt"
    save_classifier(path, clf)
    data = load_checkpoint(path)
    data.tensors["w_out"] = data.tensors["w_out"][:, :12]  # a 12-way head where the relation head has 13
    save_checkpoint(path, data.kind, data.dims, data.vocab, data.tensors)
    with pytest.raises(LoadError, match=r"tensor 'w_out' has shape \(5, 12\), expected \(5, 13\)") as err:
        load_classifier(path)
    assert str(path) in str(err.value)


def _wrong_kind(data):
    data.kind = "scorer"


def _no_pad_unk_head(data):
    data.vocab = ["pad", "unk"] + data.vocab[2:]


def _duplicate_token(data):
    data.vocab = data.vocab[:-1] + data.vocab[-2:-1]


def _missing_dim(data):
    del data.dims["hidden_dim"]


def _dropout_out_of_range(data):
    data.dims["dropout"] = 1.5


# header faults that save_checkpoint would reject: each returns the raw
# header fields to write over the saved file
def _token_not_a_string(data):
    return {"vocab": data.vocab[:2] + [5] + data.vocab[3:]}


def _vocab_not_a_list(data):
    return {"vocab": 5}


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_wrong_kind, "checkpoint kind 'scorer'"),
        (_no_pad_unk_head, "vocabulary must start with the PAD and UNK tokens"),
        (_duplicate_token, "vocabulary tokens must be unique"),
        (_missing_dim, "'hidden_dim'"),
        (_dropout_out_of_range, "'dropout'"),
        (_token_not_a_string, "header vocab is not a list of strings"),
        (_vocab_not_a_list, "header vocab is not a list of strings"),
    ],
)
def test_malformed_classifier_checkpoint_raises_load_error_naming_file(tmp_path, spoil, message):
    clf = Classifier.init("source", Vocabulary.build(["what is shown here"]), np.random.default_rng(4), 4, 5)
    path = tmp_path / "source.ckpt"
    save_classifier(path, clf)
    data = load_checkpoint(path)
    header = spoil(data)
    save_checkpoint(path, data.kind, data.dims, data.vocab, data.tensors)
    if header:
        rewrite_header(path, **header)
    with pytest.raises(LoadError) as err:
        load_classifier(path)
    assert str(path) in str(err.value)
    assert message in str(err.value)
