"""Define-by-run reverse-mode differentiation on float32 or float64 numpy arrays.

A :class:`Tape` records every primitive applied to tensors that
(transitively) require gradients. ``Tape.backward`` walks the records once,
in reverse, accumulating into ``Tensor.grad``. It pops each record as it
runs and drops that record's output gradient, so intermediates and their
gradient buffers are freed during the walk. Tapes are rebuilt for every
forward pass and each tape can be differentiated exactly once; a second
``backward`` call is rejected. ``Tape(record=False)`` records nothing and
its outputs carry no gradient; evaluation forward passes use it.

The library uses matrix product, addition with a row-broadcast bias,
last-axis concatenation, tanh, inverted dropout, a whole LSTM sequence as
one record with a hand-written backward through time, softmax and binary
cross-entropy, batched-row cosine similarity, and the structured hinge of
margin training. Column slicing, sigmoid, the Hadamard product and
embedding-row gather have no library caller: the benchmark's trace names
them, and the tests compose them into the per-step LSTM that
``lstm_sequence`` must match within rounding. There is no sum primitive: a
loss reaches a scalar through the hinge or a cross-entropy.

Every primitive computes in its inputs' dtype: its output, gradients and
the buffers, masks and constant blocks it makes follow them, so float32
parameters train with no upcast, and float64 ones check gradients and infer.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, ShapeError, UsageError

Array = np.ndarray


class Tensor:
    """A shaped array, float32 kept and anything else as float64, with an
    optional gradient buffer of the same dtype.

    Leaf tensors created with ``requires_grad=True`` own a zero-filled
    gradient buffer from the start, so parameters untouched by a forward
    pass still report an all-zero gradient after ``backward``.
    """

    __slots__ = ("values", "requires_grad", "grad", "tape")

    def __init__(self, values, requires_grad: bool = False, tape: "Tape | None" = None):
        values = np.asarray(values)
        self.values: Array = values.astype(np.float32 if values.dtype == np.float32 else np.float64, copy=False)
        self.requires_grad = requires_grad
        self.grad: Array | None = (
            np.zeros_like(self.values) if requires_grad and tape is None else None
        )
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(values) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(values, requires_grad=True)


def constant(values) -> Tensor:
    """A non-trainable leaf tensor."""
    return Tensor(values, requires_grad=False)


def _accumulate(t: Tensor, g: Array, at=None) -> None:
    """Add ``g`` into ``t``'s gradient, or into its distinct entries ``at``, making the buffer on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    if at is None:
        t.grad += g
    else:
        t.grad[at] += g


def _sum_to_shape(g: Array, shape: tuple[int, ...]) -> Array:
    """Undo numpy broadcasting: reduce ``g`` down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def stable_sigmoid(z: Array) -> Array:
    """Numerically stable logistic function of a float array, branch-free, in its dtype.

    ``exp`` sees only ``minimum(z, -z)``, which is ``-|z|`` but keeps a
    NaN's sign, so it never overflows and each element gets the bits of
    ``1 / (1 + exp(-z))`` for ``z >= 0`` and ``exp(z) / (1 + exp(z))`` below.
    """
    z = np.asarray(z)
    e = np.empty_like(z)
    np.exp(np.minimum(z, np.negative(z, out=e), out=e), out=e)
    out = np.where(z >= 0, 1.0, e)
    out /= np.add(e, 1.0, out=e)
    return out


def row_norms(rows: Array) -> Array:
    """Each row's ``np.linalg.norm``, bitwise: the root of one unit-stride dot a row."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    return np.sqrt(np.vecdot(rows, rows))


def cosines(rows: Array, norms: Array, iq: Array, nq) -> Array:
    """The one exact cosine ``rows . iq / (norms * nq)`` along the last axis:
    bitwise the scalar ``np.dot(row, iq) / (nf * nq)`` of contiguous vectors
    for any batch shape or layout. A zero norm on either side scores -inf."""
    dots = np.vecdot(np.ascontiguousarray(rows, dtype=np.float64), np.ascontiguousarray(iq, dtype=np.float64))
    return np.divide(dots, norms * nq, out=np.full(np.shape(dots), -np.inf), where=(norms != 0.0) & (nq != 0.0))


def _dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator | None, dtype) -> Array | None:
    """Inverted-dropout mask of ``dtype`` drawn from ``rng`` (one float64
    draw whatever the dtype), survivors scaled by 1/(1-rate); None, with no
    draw, when no generator is given or the rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise UsageError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return None
    return np.divide(rng.random(shape) >= rate, 1.0 - rate, dtype=dtype)


class Tape:
    """Ordered record of primitive applications for one forward pass.

    With ``record=False`` every output has ``requires_grad`` False and no
    tape, whatever its inputs. ``len(tape)`` counts every record emitted,
    also after ``backward`` has released them.
    """

    def __init__(self, record: bool = True):
        self._records: list[tuple[Tensor, Callable[[Array], None]]] = []
        self._record = record
        self._emitted = 0
        self._spent = False

    def __len__(self) -> int:
        return self._emitted

    def _tracks(self, inputs: Sequence[Tensor]) -> bool:
        return self._record and any(i.requires_grad for i in inputs)

    def _emit(self, values: Array, inputs: Sequence[Tensor], backward) -> Tensor:
        needs = self._tracks(inputs)
        out = Tensor(values, requires_grad=needs, tape=self if needs else None)
        if needs:
            self._records.append((out, backward))
            self._emitted += 1
        return out

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
        values = a.values @ b.values

        def backward(g: Array) -> None:
            if a.requires_grad:
                _accumulate(a, g @ b.values.T)
            if b.requires_grad:
                _accumulate(b, a.values.T @ g)

        return self._emit(values, (a, b), backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise sum; ``b`` may be a bias vector broadcast over rows of ``a``."""
        bias = False
        if a.shape == b.shape:
            pass
        elif a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
            bias = True
        else:
            raise ShapeError(f"add shapes incompatible: {a.shape} + {b.shape}")
        values = a.values + b.values

        def backward(g: Array) -> None:
            if a.requires_grad:
                _accumulate(a, g)
            if b.requires_grad:
                _accumulate(b, g.sum(axis=0) if bias else g)

        return self._emit(values, (a, b), backward)

    def concat(self, parts: Sequence[Tensor]) -> Tensor:
        """Concatenate along the last axis."""
        if not parts:
            raise UsageError("concat needs at least one tensor")
        ndim = parts[0].ndim
        lead = parts[0].shape[:-1]
        for p in parts:
            if p.ndim != ndim or p.shape[:-1] != lead:
                raise ShapeError(
                    f"concat parts disagree on non-concat dims: {[p.shape for p in parts]}"
                )
        values = np.concatenate([p.values for p in parts], axis=-1)

        def backward(g: Array) -> None:
            start = 0
            for p in parts:
                width = p.shape[-1]
                if p.requires_grad:
                    _accumulate(p, g[..., start : start + width])
                start += width

        return self._emit(values, tuple(parts), backward)

    def slice_cols(self, x: Tensor, start: int, stop: int) -> Tensor:
        if x.ndim != 2:
            raise ShapeError(f"slice_cols needs a 2-d tensor, got {x.shape}")
        if not (0 <= start < stop <= x.shape[1]):
            raise UsageError(f"bad column range [{start}:{stop}] for shape {x.shape}")
        values = x.values[:, start:stop].copy()

        def backward(g: Array) -> None:
            if x.requires_grad:
                _accumulate(x, g, (slice(None), slice(start, stop)))

        return self._emit(values, (x,), backward)

    def tanh(self, x: Tensor) -> Tensor:
        values = np.tanh(x.values)

        def backward(g: Array) -> None:
            if x.requires_grad:
                _accumulate(x, g * (1.0 - values * values))

        return self._emit(values, (x,), backward)

    def sigmoid(self, x: Tensor) -> Tensor:
        values = stable_sigmoid(x.values)

        def backward(g: Array) -> None:
            if x.requires_grad:
                _accumulate(x, g * values * (1.0 - values))

        return self._emit(values, (x,), backward)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        """Hadamard product with numpy broadcasting."""
        try:
            values = a.values * b.values
        except ValueError as exc:
            raise ShapeError(f"mul shapes incompatible: {a.shape} * {b.shape}") from exc

        def backward(g: Array) -> None:
            if a.requires_grad:
                _accumulate(a, _sum_to_shape(g * b.values, a.shape))
            if b.requires_grad:
                _accumulate(b, _sum_to_shape(g * a.values, b.shape))

        return self._emit(values, (a, b), backward)

    def embedding(self, table: Tensor, ids) -> Tensor:
        """Gather rows of ``table``; backward scatter-adds into the table."""
        ids = np.asarray(ids, dtype=np.intp)
        if table.ndim != 2:
            raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
        if ids.ndim != 1:
            raise ShapeError(f"embedding ids must be 1-d, got {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
            raise UsageError("embedding id out of range")
        values = table.values[ids]

        def backward(g: Array) -> None:
            if table.requires_grad:
                if table.grad is None:
                    table.grad = np.zeros_like(table.values)
                np.add.at(table.grad, ids, g)

        return self._emit(values, (table,), backward)

    def dropout(self, x: Tensor, rate: float, rng: np.random.Generator | None = None) -> Tensor:
        """Inverted dropout given a generator: survivors scaled by
        1/(1-rate); the identity without one."""
        mask = _dropout_mask(x.shape, rate, rng, x.values.dtype)
        if mask is None:
            return x
        values = x.values * mask

        def backward(g: Array) -> None:
            if x.requires_grad:
                _accumulate(x, g * mask)

        return self._emit(values, (x,), backward)

    def lstm_sequence(self, embed: Tensor, w_gates: Tensor, b_gates: Tensor, ids: Array, lengths: Array,
                      rate: float, rng: np.random.Generator | None = None) -> Tensor:
        """Final hidden state of an LSTM over right-padded ``ids`` (batch, steps), as one record.

        Rows are sorted by length once, stably and longest first, so step t
        runs, forward and backward, on the prefix of rows it has not passed
        (their positions packed time-major); each row's state after its last
        token is output in the batch's own row order. Step t gathers rows of ``embed``, applies inverted dropout given a
        generator (one ``(steps, batch, d)`` draw in the batch's row order,
        which yields the numbers of one draw a step) and computes
        ``concat([x, h]) @ w_gates + b_gates`` (gate blocks: input, forget,
        candidate, output). The input half, ``x @ w_gates[:d] + b_gates``, is
        one GEMM over all live positions, so a step multiplies only ``h``
        (Appleyard et al., arXiv:1604.01946). Backward is one reverse loop
        through time that pops each step's cache; after it, the weight
        gradient, the input gradient and the input gradient's sorted scatter
        into ``embed`` are each one pass over all live positions. Values and
        gradients are within rounding of the per-step composition of
        primitives, and of the same call on the rows in any order.
        """
        b, steps = ids.shape
        d, hdim = embed.shape[1], b_gates.shape[0] // 4
        if w_gates.shape != (d + hdim, 4 * hdim):
            raise ShapeError(f"w_gates shape {w_gates.shape} does not fit input {d} and hidden {hdim}")
        if ids.size and (ids.min() < 0 or ids.max() >= embed.shape[0]):
            raise UsageError("embedding id out of range")
        tracked = self._tracks((embed, w_gates, b_gates))
        dtype = embed.values.dtype
        w_x, w_h = w_gates.values[:d], w_gates.values[d:]
        order = np.argsort(-lengths, kind="stable")
        live = lengths[order] > np.arange(steps)[:, None]  # (steps, batch): step t's live rows, a sorted prefix
        n = [*live.sum(axis=1).tolist(), 0]  # live rows at each step, and none after the last
        at = (0, *itertools.accumulate(n))  # step t's rows of the packed positions start at at[t]
        tokens = ids[order].T[live]
        xh = np.empty((len(tokens), d + hdim), dtype)  # each live position's input and the hidden state it reads
        xh[:, :d] = embed.values[tokens]
        mask = _dropout_mask((steps, b, d), rate, rng, dtype)
        if mask is not None:
            mask = mask[:, order][live]
            xh[:, :d] *= mask
        gates_x = xh[:, :d] @ w_x
        gates_x += b_gates.values
        cache = []
        last = np.empty((b, hdim), dtype)  # each row's state after its last token, in sorted order
        h = c = np.zeros((b, hdim), dtype)
        for t in range(steps):
            k, done = n[t], n[t + 1]  # rows done..k end at this step
            h, c_prev = h[:k], c[:k]
            xh[at[t] : at[t + 1], d:] = h
            gates = gates_x[at[t] : at[t + 1]]
            gates += h @ w_h
            gif, go = stable_sigmoid(gates[:, : 2 * hdim]), stable_sigmoid(gates[:, 3 * hdim :])
            gi, gf = gif[:, :hdim], gif[:, hdim:]
            gg = np.tanh(gates[:, 2 * hdim : 3 * hdim])
            c = gf * c_prev + gi * gg
            tc = np.tanh(c)
            h = go * tc
            if done < k:
                last[done:k] = h[done:]
            if tracked:
                cache.append((gi, gf, gg, go, c_prev, tc))

        def backward(g: Array) -> None:
            dgates = np.empty((len(tokens), 4 * hdim), dtype)
            dh = g[order]  # a row's gradient on its last state, read at the step it ends
            dc = np.zeros_like(dh)
            for t in range(steps - 1, -1, -1):
                gi, gf, gg, go, c_prev, tc = cache.pop()
                k = len(gi)
                dhk, dck = dh[:k], dc[:k]
                dck += dhk * go * (1.0 - tc * tc)
                dg = dgates[at[t] : at[t + 1]]
                dg[:, :hdim] = dck * gg * gi * (1.0 - gi)
                dg[:, hdim : 2 * hdim] = dck * c_prev * gf * (1.0 - gf)
                dg[:, 2 * hdim : 3 * hdim] = dck * gi * (1.0 - gg * gg)
                dg[:, 3 * hdim :] = dhk * tc * go * (1.0 - go)
                if t:
                    dhk[...] = dg @ w_h.T
                    dck *= gf
            if b_gates.requires_grad:
                _accumulate(b_gates, dgates.sum(axis=0))
            if w_gates.requires_grad:
                _accumulate(w_gates, xh.T @ dgates)
            if embed.requires_grad:
                dx = dgates @ w_x.T
                if mask is not None:
                    dx *= mask
                # one scatter: sort the ids, sum each id's run of rows, add each sum once
                by_id = np.argsort(tokens, kind="stable")
                starts = np.flatnonzero(np.diff(tokens[by_id], prepend=-1))
                _accumulate(embed, np.add.reduceat(dx[by_id], starts, axis=0), tokens[by_id[starts]])

        return self._emit(last[np.argsort(order)], (embed, w_gates, b_gates), backward)

    def softmax_cross_entropy(self, logits: Tensor, labels) -> Tensor:
        """Mean negative log-likelihood of integer class labels."""
        labels = np.asarray(labels, dtype=np.intp)
        if logits.ndim != 2:
            raise ShapeError(f"logits must be 2-d, got {logits.shape}")
        n, k = logits.shape
        if labels.shape != (n,):
            raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
        if labels.size and (labels.min() < 0 or labels.max() >= k):
            raise UsageError(f"class label out of range [0, {k})")
        shifted = logits.values - logits.values.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        total = exp.sum(axis=1)
        softmax = exp / total[:, None]
        rows = np.arange(n)
        values = np.asarray((np.log(total) - shifted[rows, labels]).mean())

        def backward(g: Array) -> None:
            if logits.requires_grad:
                d = softmax.copy()
                d[rows, labels] -= 1.0
                _accumulate(logits, (float(g) / n) * d)

        return self._emit(values, (logits,), backward)

    def binary_cross_entropy(self, logits: Tensor, labels) -> Tensor:
        """Mean stabilized sigmoid cross-entropy over 0/1 labels."""
        z = logits.values.reshape(-1)
        y = np.asarray(labels, dtype=z.dtype).reshape(-1)
        if y.shape != z.shape:
            raise ShapeError(f"labels shape {y.shape} does not match logits {z.shape}")
        if y.size and not np.all((y == 0.0) | (y == 1.0)):
            raise UsageError("binary labels must be 0 or 1")
        per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
        values = np.asarray(per.mean())

        def backward(g: Array) -> None:
            if logits.requires_grad:
                d = (stable_sigmoid(z) - y) * (float(g) / z.size)
                _accumulate(logits, d.reshape(logits.shape))

        return self._emit(values, (logits,), backward)

    def cosine_rows(self, x: Tensor, rows: Array, norms: Array) -> Tensor:
        """Cosine of each batch row of ``x`` against a constant candidate block.

        ``rows`` has shape (batch, candidates, dim), carries no gradient, and
        comes with its stored row norms, shape (batch, candidates), such as
        the gathered ``FactMatrix.norms``; both are taken in the dtype of
        ``x``. A zero-norm candidate row scores ``-inf`` and receives no
        gradient flow.
        """
        rows = np.asarray(rows, dtype=x.values.dtype)
        rnorm = np.asarray(norms, dtype=x.values.dtype)
        if x.ndim != 2 or rows.ndim != 3:
            raise ShapeError(f"cosine_rows needs (b,d) x (b,c,d), got {x.shape}, {rows.shape}")
        if rows.shape[0] != x.shape[0] or rows.shape[2] != x.shape[1] or rnorm.shape != rows.shape[:2]:
            raise ShapeError(f"cosine_rows shapes disagree: {x.shape} vs {rows.shape} and norms {rnorm.shape}")
        xnorm = np.linalg.norm(x.values, axis=1)
        if np.any(xnorm == 0.0):
            raise DegenerateInputError("cosine_rows got a zero-norm query row")
        valid = rnorm > 0.0
        safe_rnorm = np.where(valid, rnorm, 1.0)
        raw = np.einsum("bd,bcd->bc", x.values, rows)
        scores = np.where(valid, raw / (safe_rnorm * xnorm[:, None]), -np.inf)

        def backward(g: Array) -> None:
            if not x.requires_grad:
                return
            gv = np.where(valid, g, 0.0)
            w = gv / (safe_rnorm * xnorm[:, None])
            direct = np.einsum("bc,bcd->bd", w, rows)
            finite_scores = np.where(valid, scores, 0.0)
            along = (gv * finite_scores).sum(axis=1) / (xnorm * xnorm)
            _accumulate(x, direct - along[:, None] * x.values)

        return self._emit(scores, (x,), backward)

    def hinge_mean(self, scores: Tensor, gt_indices, margin: float = 1.0) -> Tensor:
        """Mean structured hinge over a batch of candidate rows.

        Per row, ``max_j(task_loss_j + s_j) - s_gt`` with task loss ``margin``
        for every candidate except the groundtruth (task loss 0 there), so the
        result is never negative. The subgradient touches only each row's
        argmax candidate and its groundtruth entry.
        """
        gts = np.asarray(gt_indices, dtype=np.intp)
        if scores.ndim != 2:
            raise ShapeError(f"hinge_mean needs a 2-d score matrix, got {scores.shape}")
        b, n = scores.shape
        if gts.shape != (b,):
            raise ShapeError(f"gt_indices shape {gts.shape} does not match batch {b}")
        if gts.size and (gts.min() < 0 or gts.max() >= n):
            raise UsageError("gt index out of range")
        rows = np.arange(b)
        if not np.all(np.isfinite(scores.values[rows, gts])):
            raise DegenerateInputError("a groundtruth candidate has a non-finite score")
        aug = scores.values + margin
        aug[rows, gts] = scores.values[rows, gts]
        j = np.argmax(aug, axis=1)
        values = np.asarray((aug[rows, j] - scores.values[rows, gts]).mean())

        def backward(g: Array) -> None:
            if scores.requires_grad:
                gs = float(g) / b
                d = np.zeros_like(scores.values)
                np.add.at(d, (rows, j), gs)
                np.add.at(d, (rows, gts), -gs)
                _accumulate(scores, d)

        return self._emit(values, (scores,), backward)

    # ------------------------------------------------------------------
    # reverse pass
    # ------------------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Populate gradients for everything reachable from ``loss``.

        Each record runs once, in reverse order, and is then popped with its
        output's gradient; leaf gradients are kept. A tape can be
        differentiated only once; rebuild the forward pass to do it again.
        """
        if loss.tape is not self:
            raise UsageError("loss tensor was not produced on this tape")
        if loss.values.size != 1:
            raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
        if self._spent:
            raise UsageError("tape already differentiated; rebuild the forward pass")
        self._spent = True
        loss.grad = np.ones_like(loss.values)
        while self._records:
            out, bwd = self._records.pop()
            if out.grad is not None:
                bwd(out.grad)
                out.grad = None

