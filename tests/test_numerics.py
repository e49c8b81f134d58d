import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrank.errors import DegenerateInputError, ShapeError, UsageError
from factrank.numerics import Tape, Tensor, constant, cosines, parameter, row_norms, stable_sigmoid
from gradcheck import check_grads, fd_grad, rel_err, total


def test_matmul_identity():
    t = Tape()
    out = t.matmul(constant(np.eye(2)), constant([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out.values, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_unit_vector_selection():
    t = Tape()
    out = t.matmul(constant([[1.0, 0.0]]), constant([[2.0], [5.0]]))
    np.testing.assert_array_equal(out.values, [[2.0]])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        Tape().matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))


def test_matmul_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = parameter(rng.standard_normal((3, 4)))
    b = parameter(rng.standard_normal((4, 2)))

    def forward():
        t = Tape()
        return total(t, t.tanh(t.matmul(a, b)))

    worst = check_grads(forward, {"a": a, "b": b}, tol=1e-6)
    assert worst <= 1e-6


def test_add_zero():
    t = Tape()
    out = t.add(constant([1.0, 2.0]), constant([0.0, 0.0]))
    np.testing.assert_array_equal(out.values, [1.0, 2.0])


def test_add_bias_broadcast():
    t = Tape()
    out = t.add(constant([[1.0, 2.0], [3.0, 4.0]]), constant([1.0, 1.0]))
    np.testing.assert_array_equal(out.values, [[2.0, 3.0], [4.0, 5.0]])


def test_add_incompatible_shapes():
    with pytest.raises(ShapeError):
        Tape().add(constant(np.ones((2, 3))), constant(np.ones(2)))


def test_add_bias_grad_is_column_sum():
    rng = np.random.default_rng(1)
    x = constant(rng.standard_normal((5, 3)))
    b = parameter(rng.standard_normal(3))

    def forward():
        t = Tape()
        return total(t, t.tanh(t.add(x, b)))

    loss = forward()
    loss.tape.backward(loss)
    numeric = fd_grad(lambda: forward().item(), b.values)
    assert rel_err(b.grad, numeric) <= 1e-6


def test_concat_values():
    t = Tape()
    out = t.concat([constant([1.0, 2.0]), constant([3.0])])
    np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])


def test_concat_widths_64_plus_128():
    t = Tape()
    out = t.concat([constant(np.zeros((1, 64))), constant(np.zeros((1, 128)))])
    assert out.shape == (1, 192)


def test_concat_empty_rejected():
    with pytest.raises(UsageError):
        Tape().concat([])


def test_concat_backward_reassembles_upstream():
    rng = np.random.default_rng(2)
    a = parameter(rng.standard_normal((2, 3)))
    b = parameter(rng.standard_normal((2, 4)))
    t = Tape()
    out = t.concat([a, b])
    upstream = rng.standard_normal((2, 7))
    loss = total(t, t.mul(out, constant(upstream)))
    t.backward(loss)
    np.testing.assert_array_equal(a.grad, upstream[:, :3])
    np.testing.assert_array_equal(b.grad, upstream[:, 3:])


def test_sigmoid_and_tanh_at_zero():
    t = Tape()
    assert t.sigmoid(constant([0.0])).values[0] == 0.5
    assert t.tanh(constant([0.0])).values[0] == 0.0


def _masked_sigmoid(z):
    # the branching formula: exp of -z where z >= 0, of z elsewhere
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_stable_sigmoid_is_bitwise_the_masked_formula():
    z = np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, np.inf, -np.inf, np.nan])
    z = np.concatenate([z, np.random.default_rng(16).standard_normal(37) * 40.0])
    assert stable_sigmoid(z).tobytes() == _masked_sigmoid(z).tobytes()
    assert stable_sigmoid(z[::3]).tobytes() == _masked_sigmoid(z[::3]).tobytes()
    assert stable_sigmoid(np.asarray(0.0)).shape == ()


def test_mul_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    a = parameter(rng.standard_normal((2, 3)))
    b = parameter(rng.standard_normal((2, 3)))

    def forward():
        t = Tape()
        return total(t, t.mul(a, b))

    assert check_grads(forward, {"a": a, "b": b}, tol=1e-6) <= 1e-6


def test_softmax_ce_uniform_is_log13():
    t = Tape()
    loss = t.softmax_cross_entropy(constant(np.zeros((1, 13))), [4])
    assert loss.item() == pytest.approx(math.log(13), abs=1e-12)


def test_softmax_ce_confident_correct_limit():
    t = Tape()
    logits = np.zeros((1, 5))
    logits[0, 2] = 50.0
    loss = t.softmax_cross_entropy(constant(logits), [2])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_softmax_ce_label_out_of_range():
    with pytest.raises(UsageError):
        Tape().softmax_cross_entropy(constant(np.zeros((1, 5))), [5])


def test_softmax_ce_grad_matches_finite_differences():
    rng = np.random.default_rng(4)
    logits = parameter(rng.standard_normal((4, 13)))
    labels = rng.integers(0, 13, size=4)

    def forward():
        t = Tape()
        return t.softmax_cross_entropy(logits, labels)

    assert check_grads(forward, {"logits": logits}, tol=1e-5) <= 1e-5


def test_bce_at_zero_logit_is_log2():
    t = Tape()
    loss = t.binary_cross_entropy(constant([0.0]), [1.0])
    assert loss.item() == pytest.approx(math.log(2), abs=1e-12)


def test_bce_saturated_correct_is_zero():
    t = Tape()
    loss = t.binary_cross_entropy(constant([20.0]), [1.0])
    assert loss.item() == pytest.approx(0.0, abs=1e-8)


def test_bce_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    logits = parameter(rng.standard_normal(8))
    labels = rng.integers(0, 2, size=8).astype(float)

    def forward():
        t = Tape()
        return t.binary_cross_entropy(logits, labels)

    assert check_grads(forward, {"logits": logits}, tol=1e-5) <= 1e-5


def test_cosine_self_is_one():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(9)
    assert Tape().cosine_rows(constant(v[None]), v[None, None]).item() == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal_is_zero():
    out = Tape().cosine_rows(constant([[1.0, 0.0]]), [[[0.0, 1.0]]])
    assert out.item() == 0.0


def test_cosine_zero_norm_rejected():
    with pytest.raises(DegenerateInputError):
        Tape().cosine_rows(constant([[0.0, 0.0]]), [[[1.0, 0.0]]])


def test_cosine_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    u = parameter(rng.standard_normal((1, 6)))
    v = parameter(rng.standard_normal((1, 6)))

    # cosine_rows differentiates its query only; the cosine is symmetric,
    # so each vector takes a turn as the query against the other
    def forward_u():
        return Tape().cosine_rows(u, v.values[None])

    def forward_v():
        return Tape().cosine_rows(v, u.values[None])

    assert check_grads(forward_u, {"u": u}, tol=1e-5) <= 1e-5
    assert check_grads(forward_v, {"v": v}, tol=1e-5) <= 1e-5


def test_cosine_at_maximum_has_zero_grad():
    rng = np.random.default_rng(8)
    u = parameter(rng.standard_normal((1, 5)))
    t = Tape()
    out = t.cosine_rows(u, u.values[None])
    t.backward(out)
    np.testing.assert_allclose(u.grad, np.zeros((1, 5)), atol=1e-12)


def test_dropout_rate_zero_and_eval_are_identity():
    x = constant([[1.0, 2.0], [3.0, 4.0]])
    t = Tape()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert t.dropout(x, 0.0, rng) is x
    assert rng.bit_generator.state == state  # a zero rate draws nothing
    assert t.dropout(x, 0.7) is x


def test_dropout_rate_one_rejected():
    with pytest.raises(UsageError):
        Tape().dropout(constant([1.0]), 1.0, np.random.default_rng(0))


def test_dropout_monte_carlo_expectation():
    # inverted dropout preserves the mean: pooled estimate over 10^4 masks
    rng = np.random.default_rng(9)
    x = constant(np.full(16, 3.0))
    t = Tape()
    total = 0.0
    n = 10_000
    for _ in range(n):
        total += t.dropout(x, 0.7, rng).values.mean()
    assert abs(total / n / 3.0 - 1.0) <= 0.02


def test_dropout_fixed_seed_reproducible():
    x = constant(np.arange(12.0).reshape(3, 4))
    a = Tape().dropout(x, 0.5, np.random.default_rng(42)).values
    b = Tape().dropout(x, 0.5, np.random.default_rng(42)).values
    np.testing.assert_array_equal(a, b)


def test_backward_of_sum_is_ones():
    x = parameter(np.arange(6.0).reshape(2, 3))
    t = Tape()
    loss = total(t, x)
    t.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_untouched_parameter_has_zero_grad():
    x = parameter(np.ones(3))
    unused = parameter(np.ones(4))
    t = Tape()
    t.backward(total(t, x))
    np.testing.assert_array_equal(unused.grad, np.zeros(4))


def test_backward_twice_rejected():
    x = parameter(np.ones(3))
    t = Tape()
    loss = total(t, x)
    t.backward(loss)
    with pytest.raises(UsageError):
        t.backward(loss)


def test_backward_foreign_loss_rejected():
    x = parameter(np.ones(3))
    t1 = Tape()
    loss = total(t1, x)
    with pytest.raises(UsageError):
        Tape().backward(loss)


def test_spent_tape_holds_no_record():
    rng = np.random.default_rng(15)
    w = parameter(rng.standard_normal((3, 4)))
    b = parameter(rng.standard_normal(4))
    x = constant(rng.standard_normal((2, 3)))

    def forward(tape, hidden):
        h = tape.tanh(tape.add(tape.matmul(x, w), b))
        hidden.append(h)
        return total(tape, tape.mul(h, h))

    # reference gradients, with the caller holding on to the intermediate
    kept = []
    reference = Tape()
    reference.backward(forward(reference, kept))
    expected_w, expected_b = w.grad.copy(), b.grad.copy()
    w.grad[...] = 0.0
    b.grad[...] = 0.0

    tape = Tape()
    hidden = []
    loss = forward(tape, hidden)
    alive = weakref.ref(hidden.pop().values)
    tape.backward(loss)
    assert alive() is None
    assert len(tape) == 6  # matmul, add, tanh, mul, and two matmuls of the sum
    np.testing.assert_array_equal(w.grad, expected_w)
    np.testing.assert_array_equal(b.grad, expected_b)


# ----------------------------------------------------------------------
# fused LSTM sequence (its bitwise oracle is in test_encoders.py)
# ----------------------------------------------------------------------


def _lstm_case(seed, batch=3, steps=4, vocab=7, dim=3, hidden=4):
    rng = np.random.default_rng(seed)
    tensors = {
        "embed": parameter(rng.uniform(-0.5, 0.5, (vocab, dim))),
        "w_gates": parameter(rng.uniform(-0.5, 0.5, (dim + hidden, 4 * hidden))),
        "b_gates": parameter(rng.uniform(-0.5, 0.5, 4 * hidden)),
    }
    lengths = np.array([steps, 1, *rng.integers(1, steps + 1, batch - 2)])
    ids = rng.integers(1, vocab, (batch, steps))
    ids[np.arange(steps) >= lengths[:, None]] = 0
    return tensors, ids, lengths


def test_lstm_sequence_grads_match_finite_differences_with_dropout_and_mixed_lengths():
    tensors, ids, lengths = _lstm_case(17)
    head = constant(np.random.default_rng(18).standard_normal((4, 2)))

    def forward():
        t = Tape()
        h = t.lstm_sequence(*tensors.values(), ids, lengths, 0.4, np.random.default_rng(19))
        return total(t, t.tanh(t.matmul(h, head)))

    check_grads(forward, tensors, tol=1e-6)


class _ScatterSpy(np.ndarray):
    """A gradient buffer that calls ``on_scatter`` before each ``np.add.at`` into it."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "at":
            self.on_scatter()
        inputs = [i.view(np.ndarray) if isinstance(i, _ScatterSpy) else i for i in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_spent_lstm_tape_holds_no_step_cache():
    steps = 5
    tensors, ids, lengths = _lstm_case(20, steps=steps)
    tape = Tape()
    h = tape.lstm_sequence(*tensors.values(), ids, lengths, 0.4, np.random.default_rng(21))
    [(_, backward)] = tape._records
    [cache] = [cell.cell_contents for cell in backward.__closure__ if isinstance(cell.cell_contents, list)]
    alive = [[weakref.ref(a) for a in step if isinstance(a, np.ndarray)] for step in cache]
    assert len(alive) == steps and all(len(refs) >= 7 for refs in alive)
    del backward, cache
    # the walk scatters into the embedding once per step, last step first;
    # by then every later step's cache is gone
    live_steps = []
    embed = tensors["embed"]
    embed.grad = embed.grad.view(_ScatterSpy)
    embed.grad.on_scatter = lambda: live_steps.append(sum(any(r() is not None for r in refs) for refs in alive))
    tape.backward(total(tape, h))
    assert live_steps == [steps - i for i in range(steps)]
    assert all(r() is None for refs in alive for r in refs)
    assert len(tape) == 3  # the sequence and two matmuls of the sum


def test_untracked_lstm_sequence_keeps_nothing():
    tensors, ids, lengths = _lstm_case(22, batch=40, steps=12, hidden=16)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        untracked_tape = Tape(record=False)
        untracked = untracked_tape.lstm_sequence(*tensors.values(), ids, lengths, 0.0)
        kept_untracked = tracemalloc.get_traced_memory()[0] - start
        tracked_tape = Tape()
        tracked = tracked_tape.lstm_sequence(*tensors.values(), ids, lengths, 0.0)
        kept_tracked = tracemalloc.get_traced_memory()[0] - start - kept_untracked
    finally:
        tracemalloc.stop()
    assert untracked.values.tobytes() == tracked.values.tobytes()
    assert (len(untracked_tape), untracked.requires_grad, untracked.tape) == (0, False, None)
    # the output alone (40 x 16 floats, 5 kB) against 12 steps of cached gates
    assert kept_untracked < untracked.values.nbytes + 2048 < kept_tracked


def test_embedding_gather_and_scatter():
    table = parameter(np.arange(12.0).reshape(4, 3))
    t = Tape()
    out = t.embedding(table, [1, 1, 3])
    np.testing.assert_array_equal(out.values, [[3.0, 4.0, 5.0], [3.0, 4.0, 5.0], [9.0, 10.0, 11.0]])
    t.backward(total(t, out))
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_embedding_id_out_of_range():
    with pytest.raises(UsageError):
        Tape().embedding(parameter(np.zeros((4, 3))), [4])


def test_slice_cols_grad():
    x = parameter(np.arange(8.0).reshape(2, 4))
    t = Tape()
    out = t.slice_cols(x, 1, 3)
    t.backward(total(t, out))
    expected = np.zeros((2, 4))
    expected[:, 1:3] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


def test_hinge_margin_satisfied_is_zero():
    t = Tape()
    loss = t.hinge_mean(constant([[0.9, -0.1]]), [0], margin=1.0)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_hinge_violated_margin_value():
    t = Tape()
    loss = t.hinge_mean(constant([[0.2, 0.5]]), [0], margin=1.0)
    assert loss.item() == pytest.approx(1.3, abs=1e-12)


def test_hinge_single_candidate_is_zero():
    t = Tape()
    assert t.hinge_mean(constant([[0.37]]), [0]).item() == 0.0


def test_hinge_grad_matches_finite_differences():
    rng = np.random.default_rng(10)
    scores = parameter(rng.standard_normal((1, 5)))

    def forward():
        t = Tape()
        return t.hinge_mean(scores, [2], margin=1.0)

    assert check_grads(forward, {"scores": scores}, tol=1e-6) <= 1e-6


def test_hinge_mean_matches_per_row_hinges():
    rng = np.random.default_rng(11)
    scores = rng.standard_normal((6, 7))
    gts = rng.integers(0, 7, size=6)
    t = Tape()
    batched = t.hinge_mean(constant(scores), gts).item()
    rows = [Tape().hinge_mean(constant(scores[i : i + 1]), gts[i : i + 1]).item() for i in range(6)]
    assert batched == pytest.approx(np.mean(rows), abs=1e-12)


def test_cosine_rows_matches_single_cosines():
    rng = np.random.default_rng(12)
    x = constant(rng.standard_normal((3, 5)))
    rows = rng.standard_normal((3, 4, 5))
    batched = Tape().cosine_rows(x, rows).values
    for b in range(3):
        for c in range(4):
            a, r = x.values[b], rows[b, c]
            single = float(np.dot(a, r) / (np.linalg.norm(a) * np.linalg.norm(r)))
            assert batched[b, c] == pytest.approx(single, abs=1e-12)


def test_cosine_rows_zero_norm_candidate_scores_neg_inf():
    rng = np.random.default_rng(13)
    x = parameter(rng.standard_normal((1, 4)))
    rows = rng.standard_normal((1, 3, 4))
    rows[0, 1] = 0.0
    t = Tape()
    scores = t.cosine_rows(x, rows)
    assert scores.values[0, 1] == float("-inf")
    t.backward(t.hinge_mean(scores, [0]))
    assert np.all(np.isfinite(x.grad))


def test_cosine_rows_grad_matches_finite_differences():
    rng = np.random.default_rng(14)
    x = parameter(rng.standard_normal((2, 5)))
    rows = rng.standard_normal((2, 4, 5))
    gts = np.array([1, 3])

    def forward():
        t = Tape()
        return t.hinge_mean(t.cosine_rows(x, rows), gts)

    assert check_grads(forward, {"x": x}, tol=1e-6) <= 1e-6


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 5),
    inner=st.integers(1, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_matmul_chain_grads(rows, inner, cols, seed):
    rng = np.random.default_rng(seed)
    a = parameter(rng.standard_normal((rows, inner)))
    b = parameter(rng.standard_normal((inner, cols)))
    bias = parameter(rng.standard_normal(cols))

    def forward():
        t = Tape()
        return total(t, t.sigmoid(t.add(t.matmul(a, b), bias)))

    check_grads(forward, {"a": a, "b": b, "bias": bias}, tol=1e-4)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(1, 8))
def test_property_cosine_in_unit_interval(seed, dim):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    v = rng.standard_normal(dim)
    if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
        return
    s = Tape().cosine_rows(constant(u[None]), v[None, None]).item()
    assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_forward_outputs_finite(seed):
    rng = np.random.default_rng(seed)
    logits = constant(rng.standard_normal((3, 5)) * 500.0)
    labels = rng.integers(0, 5, size=3)
    t = Tape()
    assert np.isfinite(t.softmax_cross_entropy(logits, labels).item())
    z = constant(rng.standard_normal(6) * 500.0)
    y = rng.integers(0, 2, size=6).astype(float)
    assert np.isfinite(Tape().binary_cross_entropy(z, y).item())


def test_tensor_invariants():
    t = Tensor(np.ones((2, 3)), requires_grad=True)
    assert t.shape == (2, 3)
    assert t.grad is not None and t.grad.shape == (2, 3)
    with pytest.raises(ShapeError):
        t.item()


def _scalar_norm_and_cosines(rows, iq):
    # the reference arithmetic: one np.linalg.norm and one np.dot a contiguous
    # row, zero norms scoring -inf
    rows, nq = np.ascontiguousarray(rows), np.linalg.norm(iq)
    norms = [np.linalg.norm(r) for r in rows]
    scores = [-np.inf if nf == 0.0 or nq == 0.0 else np.dot(r, iq) / (nf * nq) for r, nf in zip(rows, norms)]
    return np.array(norms, dtype=np.float64), np.array(scores, dtype=np.float64)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 30), dim=st.sampled_from([*range(1, 10), 200]))
def test_property_cosines_and_row_norms_are_bitwise_the_scalar_arithmetic(seed, n, dim):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    for i in rng.choice(n, size=n // 2):  # planted duplicates, zero rows and one-ulp neighbours
        src, kind = rng.integers(n), rng.integers(3)
        rows[i] = rows[src] if kind == 0 else 0.0 if kind == 1 else np.nextafter(rows[src], np.inf)
    iq = rng.standard_normal(dim) if rng.random() < 0.8 else np.zeros(dim)
    gathered = rows[rng.integers(n, size=2 * n)]
    # strided views and a column-major copy score as their contiguous rows do
    for block in (rows, rows[::2], rows[::-1], gathered, np.asfortranarray(rows), rows[:, ::-1]):
        norms, scores = _scalar_norm_and_cosines(block, iq)
        assert row_norms(block).tobytes() == norms.tobytes()
        assert cosines(block, row_norms(block), iq, np.linalg.norm(iq)).tobytes() == scores.tobytes()
    # one query a row: per-pair queries broadcast against their rows
    queries = np.where(rng.random((n, 1)) < 0.2, 0.0, rng.standard_normal((n, dim)))
    pairs = [_scalar_norm_and_cosines(r[None], q)[1][0] for r, q in zip(rows, queries)]
    got = cosines(rows, row_norms(rows), queries, row_norms(queries))
    assert got.tobytes() == np.array(pairs).tobytes()
