"""Dense-tensor reverse-mode automatic differentiation on a recording tape.

Tensors wrap float64 numpy arrays. Every operation validates its operands,
computes the result eagerly, and (inside a ``with Graph():`` block, when any
operand requires gradients) records a backward closure on that Graph. There
is no default graph: ops outside a Graph compute values and record nothing.
``backward`` replays the tape in exact reverse recording order, accumulating
gradients into every tensor that requires them. ``grad_check`` verifies any
recorded computation against central finite differences.

Gradients are dense arrays shaped like their tensors, allocated on first
use and accumulated until ``zero_grads``. Two ops add into a gradient in
place instead of writing a full-size one: ``embedding_lookup`` scatters
only the rows a lookup read into the table's gradient, so a table's
gradient is one dense buffer per ``zero_grads`` round (a training batch),
however many lookups feed it; and ``conv_max_pool`` adds each window's
gradient into the rows of ``emb.grad`` that the window read.

``embedding_lookup`` also records the rows it scatters into, next to the
gradient; ``grad_rows`` returns them, and every other row of that gradient
holds ``+0.0``. The record lasts until ``zero_grads``. Any other write into
the gradient (``_accumulate``, or assigning ``grad``) makes it dense, and
``grad_rows`` then returns ``None``: any row may be nonzero.

``gru_scan`` and ``conv_max_pool`` are fused encoder ops over all the
sentences of a document: one call takes the N per-sentence embedding
matrices, returns one row per sentence, and records one tape entry for
what would otherwise be N chains of per-token or per-window ops. They
repeat those chains' floating-point operations exactly, using stacked
products whose items are bit-identical to one-sentence products, and fold
their parameter gradients in the chains' tape order (sentence N-1 down to
0), so their results are bit-identical to the chains' (kept as references
in ``saam.oracles``) and to N one-sentence calls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(ArithmeticError):
    """An operation produced (or was asked to produce) non-finite values."""


def _all_finite(data) -> bool:
    """True when no element of ``data`` is NaN or Inf.

    The sum of squares (one BLAS dot product) is NaN or Inf whenever an
    element is, so a finite result proves every element finite. Only a
    non-finite result (a NaN or Inf, or finite values whose squares
    overflow) needs the elementwise scan. Unlike a numpy reduction, the dot
    product never prints an overflow or invalid-value warning.
    """
    return math.isfinite(np.vdot(data, data)) or bool(np.isfinite(data).all())


_node_ids = itertools.count()


class Tensor:
    """A float64 array plus gradient bookkeeping.

    ``grad`` stays ``None`` until a backward pass deposits something.
    ``node_id`` is a process-wide identity; ``graph`` points at the Graph
    that recorded the producing op (``None`` for leaves and for results
    computed outside every Graph, which require no gradient).
    ``row_record`` is ``(grad, rows)`` while ``grad`` is nonzero only in
    the set ``rows``; read it through ``grad_rows``.
    """

    __slots__ = ("data", "requires_grad", "grad", "node_id", "graph", "row_record")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self.node_id = next(_node_ids)
        self.graph = None
        self.row_record = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class Graph:
    """Ordered record of operations; the tape replayed by ``backward``.

    Used as a context manager, a graph is the active recording target; it
    is the only way to record. Ops run outside every Graph compute their
    values and record nothing. Each graph supports one backward pass over
    what it recorded; ``backward`` consumes the entries it replays.
    """

    def __init__(self):
        self.ops = []  # list of (output Tensor, backward closure)

    def record(self, out: Tensor, backward_fn) -> None:
        out.graph = self
        self.ops.append((out, backward_fn))

    def __enter__(self):
        _graph_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _graph_stack.pop()
        return False


_graph_stack = []  # innermost active Graph last; empty outside every Graph


def zero_grads(params) -> None:
    tensors = params.values() if isinstance(params, dict) else params
    for p in tensors:
        p.grad = None
        p.row_record = None


def grad_rows(t: Tensor):
    """Sorted indices of the rows of ``t.grad`` that may be nonzero, or
    ``None`` when any row may be (a dense gradient, or none at all).

    Only ``embedding_lookup``'s backward records rows; the record counts
    while ``t.grad`` is still the array it was made for.
    """
    record = t.row_record
    if record is None or record[0] is not t.grad:
        return None
    rows = np.fromiter(record[1], dtype=np.intp, count=len(record[1]))
    rows.sort()
    return rows


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g
        t.row_record = None


def _records(parents) -> bool:
    """Whether an op on ``parents`` records: inside a Graph, with an operand
    that requires gradients."""
    return bool(_graph_stack) and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents, backward_fn, op_name: str) -> Tensor:
    if not _all_finite(data):
        raise NumericError(f"{op_name} produced non-finite values")
    if _records(parents):
        out = Tensor(data, requires_grad=True)
        _graph_stack[-1].record(out, backward_fn)
        return out
    return Tensor(data)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` for every tensor the scalar ``loss`` depends on.

    Replays the recording graph in exact reverse order, then consumes the
    replayed entries, so parameter gradients accumulate across successive
    forward/backward rounds while intermediate results cannot be
    double-counted. A loss that requires no gradient (a constant, or a
    result built outside every Graph) raises ``ValueError``.
    """
    if loss.data.size != 1:
        raise DimensionError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: the loss requires no gradient; it is a constant or "
                         "was built outside any Graph (build it inside `with Graph():`)")
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    else:
        loss.grad = loss.grad + np.ones_like(loss.data)
    graph = loss.graph
    if graph is None:
        return  # loss is a leaf; its own gradient is all there is
    for out, backward_fn in reversed(graph.ops):
        if out.grad is not None:
            backward_fn(out)
    graph.ops.clear()


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul requires rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward_fn(out):
        _accumulate(a, out.grad @ b.data.T)
        _accumulate(b, a.data.T @ out.grad)

    return _make(out_data, (a, b), backward_fn, "matmul")


def outer(u: Tensor, v: Tensor) -> Tensor:
    if u.data.ndim != 1 or v.data.ndim != 1:
        raise DimensionError(f"outer requires rank-1 operands, got {u.shape} and {v.shape}")
    out_data = np.outer(u.data, v.data)

    def backward_fn(out):
        _accumulate(u, out.grad @ v.data)
        _accumulate(v, u.data @ out.grad)

    return _make(out_data, (u, v), backward_fn, "outer")


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError(f"transpose requires a rank-2 tensor, got {x.shape}")
    out_data = x.data.T.copy()

    def backward_fn(out):
        _accumulate(x, out.grad.T)

    return _make(out_data, (x,), backward_fn, "transpose")


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted for stability."""
    if x.data.size == 0:
        raise DimensionError("softmax_lastdim on an empty tensor")
    shifted = x.data - np.max(x.data, axis=-1, keepdims=True)
    exps = np.exp(shifted)
    y = exps / np.sum(exps, axis=-1, keepdims=True)

    def backward_fn(out):
        g = out.grad
        dot = np.sum(g * y, axis=-1, keepdims=True)
        _accumulate(x, y * (g - dot))

    return _make(y, (x,), backward_fn, "softmax_lastdim")


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def _binary(op_name, a: Tensor, b, fwd, da, db) -> Tensor:
    """Shared shape/broadcast handling for binary elementwise ops.

    Operands must have equal shapes, or one side must be a plain number
    or a single-element tensor (scalar broadcast; its gradient is the sum
    of its upstream term, reshaped to its own shape).
    """
    if not isinstance(b, Tensor):
        x, y, parents = a.data, float(b), (a,)
    elif a.shape == b.shape:
        x, y, parents = a.data, b.data, (a, b)
    elif b.data.size == 1:
        x, y, parents = a.data, b.data.reshape(()), (a, b)
    elif a.data.size == 1:
        x, y, parents = a.data.reshape(()), b.data, (a, b)
    else:
        raise DimensionError(f"{op_name}: shapes {a.shape} and {b.shape} are neither equal nor scalar-broadcastable")
    out_data = fwd(x, y)

    def backward_fn(out):
        for t, d in zip(parents, (da, db)):
            g = d(out.grad, x, y)
            _accumulate(t, g if t.shape == out.shape else np.sum(g).reshape(t.shape))

    return _make(out_data, parents, backward_fn, op_name)


def add(a, b):
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    denom = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    if np.any(denom == 0.0):
        raise NumericError("div: division by zero")
    return _binary("div", a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = x.data * c

    def backward_fn(out):
        _accumulate(x, out.grad * c)

    return _make(out_data, (x,), backward_fn, "scale")


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def backward_fn(out):
        _accumulate(x, out.grad * (1.0 - y * y))

    return _make(y, (x,), backward_fn, "tanh")


def _sigmoid_values(d: np.ndarray) -> np.ndarray:
    # branch on sign so exp never overflows
    ex = np.exp(-np.abs(d))
    den = 1.0 + ex
    return np.where(d >= 0, 1.0 / den, ex / den)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid_values(x.data)

    def backward_fn(out):
        _accumulate(x, out.grad * y * (1.0 - y))

    return _make(y, (x,), backward_fn, "sigmoid")


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)

    def backward_fn(out):
        _accumulate(x, out.grad * (x.data > 0.0))

    return _make(y, (x,), backward_fn, "relu")


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _check_axis(x: Tensor, axis: int) -> None:
    if not (-x.data.ndim <= axis < x.data.ndim):
        raise DimensionError(f"axis {axis} invalid for shape {x.shape}")


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    if axis is not None:
        _check_axis(x, axis)
    out_data = np.sum(x.data, axis=axis)

    def backward_fn(out):
        g = out.grad if axis is None else np.expand_dims(out.grad, axis)
        _accumulate(x, np.broadcast_to(g, x.shape).copy())

    return _make(out_data, (x,), backward_fn, "reduce_sum")


def reduce_mean(x: Tensor, axis=None) -> Tensor:
    if axis is not None:
        _check_axis(x, axis)
    count = x.data.size if axis is None else x.shape[axis]
    if count == 0:
        raise DimensionError("reduce_mean over an empty axis")
    out_data = np.mean(x.data, axis=axis)

    def backward_fn(out):
        g = out.grad if axis is None else np.expand_dims(out.grad, axis)
        _accumulate(x, np.broadcast_to(g / count, x.shape).copy())

    return _make(out_data, (x,), backward_fn, "reduce_mean")


def max_over_axis(x: Tensor, axis: int) -> Tensor:
    """Max along an axis; gradient flows to the first maximal element only."""
    _check_axis(x, axis)
    out_data = np.max(x.data, axis=axis)
    argmax = np.argmax(x.data, axis=axis)  # first occurrence on ties

    def backward_fn(out):
        g = np.zeros_like(x.data)
        np.put_along_axis(g, np.expand_dims(argmax, axis),
                          np.expand_dims(out.grad, axis), axis=axis)
        _accumulate(x, g)

    return _make(out_data, (x,), backward_fn, "max_over_axis")


# ---------------------------------------------------------------------------
# gather / scatter and structural ops
# ---------------------------------------------------------------------------

def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows ``ids`` of a rank-2 table, as an ``[len(ids), e]`` tensor.

    The backward pass coalesces repeated ids once (a dict over the id list:
    at sentence length ``np.unique`` costs more than the scatter itself),
    sums their upstream rows in lookup order into a ``[distinct ids, e]``
    block, and adds that block into the rows of ``table.grad``.
    ``table.grad`` is allocated dense on the first backward after
    ``zero_grads``, so every lookup of a batch shares that one buffer. The
    result is bit-identical to adding a full table-sized scatter per
    lookup: each row sums in the same order, and such a scatter only adds
    ``+0.0`` to the rows a lookup did not read.

    The rows it adds into join ``table.row_record`` (see ``grad_rows``),
    unless the gradient is already dense. Every other row of a gradient
    that this op allocated holds ``+0.0``.
    """
    if table.data.ndim != 2:
        raise DimensionError(f"embedding table must be rank-2, got {table.shape}")
    ids = [int(i) for i in ids]
    vocab = table.shape[0]
    for i in ids:
        if not 0 <= i < vocab:
            raise IndexError(f"embedding id {i} out of range [0, {vocab})")
    idx = np.asarray(ids, dtype=np.intp)
    out_data = table.data[idx] if ids else np.zeros((0, table.shape[1]))

    def backward_fn(out):
        # row of block that each id sums into, distinct ids in first-seen order
        block_row = {}
        inverse = [block_row.setdefault(i, len(block_row)) for i in ids]
        block = np.zeros((len(block_row), table.shape[1]))
        np.add.at(block, inverse, out.grad)
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
            table.row_record = (table.grad, set())
        if table.row_record is not None and table.row_record[0] is table.grad:
            table.row_record[1].update(block_row)
        table.grad[list(block_row)] += block

    return _make(out_data, (table,), backward_fn, "embedding_lookup")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}")
    out_data = x.data.reshape(shape).copy()

    def backward_fn(out):
        _accumulate(x, out.grad.reshape(x.shape))

    return _make(out_data, (x,), backward_fn, "reshape")


def stack_rows(rows) -> Tensor:
    """Stack rank-1 tensors of equal length into a matrix."""
    rows = list(rows)
    if not rows:
        raise DimensionError("stack_rows needs at least one row")
    width = rows[0].data.size
    for r in rows:
        if r.data.ndim != 1 or r.data.size != width:
            raise DimensionError("stack_rows requires equal-length rank-1 tensors")
    out_data = np.stack([r.data for r in rows])

    def backward_fn(out):
        for i, r in enumerate(rows):
            _accumulate(r, out.grad[i])

    return _make(out_data, tuple(rows), backward_fn, "stack_rows")


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim < 1:
        raise DimensionError("slice_rows needs rank >= 1")
    if not (0 <= start <= stop <= x.shape[0]):
        raise DimensionError(f"slice_rows [{start}:{stop}] out of bounds for shape {x.shape}")
    out_data = x.data[start:stop].copy()

    def backward_fn(out):
        g = np.zeros_like(x.data)
        g[start:stop] = out.grad
        _accumulate(x, g)

    return _make(out_data, (x,), backward_fn, "slice_rows")


def pad_rows(x: Tensor, total_rows: int) -> Tensor:
    """Append zero rows along axis 0 until the tensor has total_rows rows."""
    if x.data.ndim < 1:
        raise DimensionError("pad_rows needs rank >= 1")
    n = x.shape[0]
    if total_rows < n:
        raise DimensionError(f"pad_rows target {total_rows} smaller than current {n}")
    out_data = np.zeros((total_rows,) + x.shape[1:])
    out_data[:n] = x.data

    def backward_fn(out):
        _accumulate(x, out.grad[:n])

    return _make(out_data, (x,), backward_fn, "pad_rows")


def concat(tensors) -> Tensor:
    """Concatenate tensors along their last axis; every other axis must agree
    (rank-1 vectors end to end, or ``[N, f_i]`` matrices side by side)."""
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat needs at least one tensor")
    lead = tensors[0].shape[:-1]
    for t in tensors:
        if t.data.ndim < 1 or t.shape[:-1] != lead:
            raise DimensionError(f"concat needs tensors that differ only in the last axis, "
                                 f"got {[t.shape for t in tensors]}")
    out_data = np.concatenate([t.data for t in tensors], axis=-1)
    offsets = np.cumsum([0] + [t.shape[-1] for t in tensors])

    def backward_fn(out):
        for i, t in enumerate(tensors):
            _accumulate(t, out.grad[..., offsets[i]:offsets[i + 1]])

    return _make(out_data, tuple(tensors), backward_fn, "concat")


# ---------------------------------------------------------------------------
# fused encoder ops
# ---------------------------------------------------------------------------

def _add_rows_in_place(t: Tensor, start: int, rows: np.ndarray) -> None:
    """Add ``rows`` into ``t.grad[start:start + len(rows)]``, allocating it."""
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad[start:start + rows.shape[0]] += rows
        t.row_record = None


def _fold(t: Tensor, right: np.ndarray, left: np.ndarray | None = None) -> None:
    """Add the terms ``right[k]`` (or ``left[k] * right[k]``), k = 0, 1, ...,
    into ``t.grad`` one after another, as a chain of ``_accumulate`` calls
    would: ``((grad + term0) + term1) + ...``. Without ``left``, ``right``
    is overwritten.

    numpy reduces a C-contiguous stack along axis 0 row after row, adding
    whole terms elementwise; only a one-element term is summed pairwise, so
    that case takes ``np.add.accumulate``, which is sequential by definition.
    """
    if not t.requires_grad or len(right) == 0:
        return
    terms = right if left is None else left * right
    # from zeros, as ``_accumulate`` starts (so a -0.0 term lands as +0.0)
    terms[0] += np.zeros_like(t.data) if t.grad is None else t.grad
    if t.data.size > 1:
        t.grad = np.add.reduce(terms, axis=0)
    else:
        t.grad = np.add.accumulate(terms, axis=0)[-1].copy()


def _sentence_inputs(op_name: str, embs) -> tuple:
    """Validate a document's per-sentence ``[T_i, e]`` inputs; (embs, lengths, e)."""
    embs = list(embs)
    if not embs:
        raise DimensionError(f"{op_name} needs at least one sentence")
    e = embs[0].shape[1] if embs[0].data.ndim == 2 else -1
    for emb in embs:
        if emb.data.ndim != 2 or emb.shape[1] != e or e < 1:
            raise DimensionError(f"{op_name} needs [T, e] sentences of one width e >= 1, "
                                 f"got {[emb.shape for emb in embs]}")
    return embs, [emb.shape[0] for emb in embs], e


def gru_scan(embs, wz: Tensor, uz: Tensor, bz: Tensor, wr: Tensor, ur: Tensor,
             br: Tensor, wh: Tensor, uh: Tensor, bh: Tensor) -> Tensor:
    """Final states ``[N, H]`` of a GRU run from a zero state over each of
    the N sentences ``embs`` (``[T_i, e]`` each), recorded as one tape entry.
    A sentence with no rows gives an exact zero row and receives no gradient.

    Per token x: ``z = sigmoid((x@Wz + h@Uz) + bz)``, ``r`` likewise,
    ``cand = tanh((x@Wh + (r*h)@Uh) + bh)`` and ``h = z*h + (1-z)*cand``.
    Every product is a stacked ``(..., 1, k) @ (k, m)`` one, whose items
    carry the bits of separate ``(1, k) @ (k, m)`` products (an ``[n, k]``
    product rounds differently): the input products of all tokens before
    the scan, the state products once per step. The sentences are ordered
    by length, so those still running at step t are a prefix, and all of
    them step together. The backward walks the steps from last to first
    and repeats the per-token op chain's arithmetic: the gradient of the
    previous state sums the ``z*h``, ``r*h``, ``@ Ur.T`` and ``@ Uz.T``
    terms in that order, and each token's input gradient the ``Wh``, ``Wr``
    and ``Wz`` terms. Parameter terms are folded into ``p.grad`` in the
    chain's tape order, sentence N-1 down to 0 and within each sentence
    token last to first, so the result equals N one-sentence calls on one
    tape bit for bit. The finite scan checks every gate pre-activation of
    every real token: each intermediate of the chain is finite whenever
    they are.
    """
    embs, lengths, e = _sentence_inputs("gru_scan", embs)
    h_dim = uz.shape[0] if uz.data.ndim == 2 else 0
    if h_dim < 1:
        raise DimensionError(f"gru_scan needs a hidden size >= 1, got Uz {uz.shape}")
    for w, u, b in ((wz, uz, bz), (wr, ur, br), (wh, uh, bh)):
        if w.shape != (e, h_dim) or u.shape != (h_dim, h_dim) or b.shape != (1, h_dim):
            raise DimensionError(f"gru_scan: gate shapes {w.shape}, {u.shape}, {b.shape} do not "
                                 f"fit input width {e} and hidden size {h_dim}")
    Wz, Uz, Bz = wz.data, uz.data, bz.data
    Wr, Ur, Br = wr.data, ur.data, br.data
    Wh, Uh, Bh = wh.data, uh.data, bh.data
    n = len(embs)
    order = sorted(range(n), key=lambda i: -lengths[i])  # stable: ties keep sentence order
    slot = [0] * n  # row of sentence i in the length-ordered stack
    for s, i in enumerate(order):
        slot[i] = s
    steps = max(lengths)
    running = [sum(1 for length in lengths if length > t) for t in range(steps)]
    xs = np.zeros((steps, n, 1, e))
    for s, i in enumerate(order):
        xs[:lengths[i], s, 0] = embs[i].data
    states = np.zeros((steps + 1, n, 1, h_dim))  # states[t]: the state before token t
    # every token's input products at once: stacked, they keep their bits
    x_z, x_r, x_h = xs @ Wz, xs @ Wr, xs @ Wh
    parents = (*embs, wz, uz, bz, wr, ur, br, wh, uh, bh)
    record = _records(parents)
    rh_steps = np.zeros((steps, n, 1, h_dim)) if record else None
    saved = []
    for t in range(steps):
        m = running[t]
        h = states[t, :m]
        # the z and r pre-activations side by side, so one sigmoid serves both
        pre_zr = np.empty((m, 1, 2 * h_dim))
        np.add(x_z[t, :m] + h @ Uz, Bz, out=pre_zr[..., :h_dim])
        np.add(x_r[t, :m] + h @ Ur, Br, out=pre_zr[..., h_dim:])
        zr = _sigmoid_values(pre_zr)
        z, r = zr[..., :h_dim], zr[..., h_dim:]
        rh = r * h
        pre_h = x_h[t, :m] + rh @ Uh + Bh
        if not (_all_finite(pre_zr) and _all_finite(pre_h)):
            raise NumericError("gru_scan produced non-finite values")
        cand = np.tanh(pre_h)
        one_minus_z = 1.0 - z
        states[t + 1, :m] = z * h + one_minus_z * cand
        if record:
            rh_steps[t, :m] = rh
            saved.append((z, r, cand, one_minus_z))
    out_data = states[lengths, slot, 0]

    def backward_fn(out):
        g_state = out.grad.reshape(n, 1, h_dim)[order]
        g_cands, g_rs, g_zs = (np.zeros((steps, n, 1, h_dim)) for _ in range(3))
        for t in range(steps - 1, -1, -1):
            m = running[t]
            g, h = g_state[:m], states[t, :m]
            z, r, cand, one_minus_z = saved[t]
            g_z = -(g * cand) + g * h
            g_h_prev = g * z
            g_cand = (g * one_minus_z) * (1.0 - cand * cand)
            g_rh = g_cand @ Uh.T
            g_h_prev = g_h_prev + g_rh * r
            g_r = (g_rh * h) * r * (1.0 - r)
            g_h_prev = g_h_prev + g_r @ Ur.T
            g_z = g_z * z * (1.0 - z)
            g_h_prev = g_h_prev + g_z @ Uz.T
            g_state[:m] = g_h_prev
            g_cands[t, :m], g_rs[t, :m], g_zs[t, :m] = g_cand, g_r, g_z
        # every token's input gradient at once, summing the Wh, Wr and Wz terms
        g_xs = (g_cands @ Wh.T + g_rs @ Wr.T) + g_zs @ Wz.T
        # (step, row) of every real token in tape order: sentence N-1 down to
        # 0, each from its last token to its first
        tape = [t * n + slot[i] for i in range(n - 1, -1, -1)
                for t in range(lengths[i] - 1, -1, -1)]
        x_cols = xs.reshape(steps * n, e, 1)[tape]            # x.T per token
        h_cols = states[:-1].reshape(steps * n, h_dim, 1)[tape]
        rh_cols = rh_steps.reshape(steps * n, h_dim, 1)[tape]
        for g_rows, b, u, u_cols, w in (
                (g_cands, bh, uh, rh_cols, wh), (g_rs, br, ur, h_cols, wr),
                (g_zs, bz, uz, h_cols, wz)):
            g_rows = g_rows.reshape(steps * n, 1, h_dim)[tape]
            # an outer product x.T @ g is one rounded product per entry
            _fold(u, g_rows, u_cols)
            _fold(w, g_rows, x_cols)
            _fold(b, g_rows)  # last: it overwrites g_rows
        for i in range(n - 1, -1, -1):
            _add_rows_in_place(embs[i], 0, g_xs[:lengths[i], slot[i], 0])

    return _make(out_data, parents, backward_fn, "gru_scan")


def conv_max_pool(embs, w: Tensor, b: Tensor, width: int) -> Tensor:
    """Kim-style convolution over each of the N sentences ``embs``
    (``[T_i, e]`` each) with ``width``-row windows, relu, and max over
    positions: ``[N, f]``, recorded as one tape entry. A sentence with no
    rows gives an exact zero row and receives no gradient.

    Each sentence's ``[P, width*e]`` window matrix meets ``w``
    (``[width*e, f]``) in one product, and ``b`` (``[f]``) is added per
    position. Sentences with the same window count P share one stacked
    ``(n, P, width*e) @ (width*e, f)`` product, whose items are exactly
    the one-sentence products (a stack padded to a common P is not: for
    narrow ``f`` a BLAS may round a P-row product differently from the
    same rows inside a longer one, and a one-window product takes another
    path altogether). A sentence shorter than ``width`` is zero-padded to
    ``width`` rows, leaving one window; the padding is structural, not a
    token's embedding. Positions past a sentence's last window hold zero,
    so the first-occurrence max never picks them. The backward repeats the
    per-sentence arithmetic: the filter and bias terms ``windows.T @ g``
    and ``ones(P) @ g`` each hold one nonzero product per entry (g has one
    nonzero per column) and are folded into ``p.grad`` from sentence N-1
    down to 0; the window gradients add into each ``emb.grad`` in place,
    each row summing its windows from the last to the first.
    """
    width = int(width)
    embs, lengths, e = _sentence_inputs("conv_max_pool", embs)
    if width < 1:
        raise DimensionError(f"conv_max_pool needs a width >= 1, got {width}")
    if w.data.ndim != 2 or w.shape[0] != width * e or b.shape != (w.shape[1],):
        raise DimensionError(f"conv_max_pool: filter {w.shape} and bias {b.shape} do not fit "
                             f"width {width} over {e}-wide rows")
    n, k_dim, f = len(embs), width * e, w.shape[1]
    positions = [max(length - width + 1, 1) if length else 0 for length in lengths]
    p_max = max(max(positions), 1)
    tokens = np.zeros((n, p_max + width - 1, e))
    for i, emb in enumerate(embs):
        tokens[i, :lengths[i]] = emb.data
    windows = tokens[:, np.arange(p_max)[:, None] + np.arange(width)].reshape(n, p_max, k_dim)
    groups = {}  # window count -> sentences with that many windows
    for i, p in enumerate(positions):
        if p:
            groups.setdefault(p, []).append(i)
    pre = np.zeros((n, p_max, f))
    for p, rows in groups.items():
        pre[rows, :p] = windows[rows, :p] @ w.data + b.data
    if not _all_finite(pre):
        raise NumericError("conv_max_pool produced non-finite values")
    acts = np.maximum(pre, 0.0)
    top = np.max(acts, axis=1)
    # the value at the first maximal position: where the max is zero every
    # position holds +-0 and the first is the one taken
    out_data = np.where(top == 0.0, acts[:, 0], top)

    def backward_fn(out):
        # g, the gradient of acts, has one nonzero per column: the upstream
        # gradient at the first maximal position, where the activation is positive
        g_sel = out.grad * (out_data > 0.0)
        g = np.zeros_like(pre)
        g[np.arange(n)[:, None], np.argmax(acts, axis=1), np.arange(f)] = g_sel
        tape = [i for i in range(n - 1, -1, -1) if positions[i]]
        # each entry of windows.T @ g and of ones(P) @ g is one product, so
        # stacking (and the zero windows past P) cannot change a bit
        _fold(w, windows[tape].transpose(0, 2, 1) @ g[tape])
        _fold(b, g_sel[tape])
        if not any(emb.requires_grad for emb in embs):
            return
        g_windows = [None] * n
        for p, rows in groups.items():
            stacked = (g[rows, :p] @ w.data.T).reshape(len(rows), p, width, e)
            for j, i in enumerate(rows):
                g_windows[i] = stacked[j]
        for i in tape:
            # row k of every window at once: row r sums windows r, r-1, ...
            for k in range(min(width, lengths[i])):
                _add_rows_in_place(embs[i], k, g_windows[i][:, k])

    return _make(out_data, (*embs, w, b), backward_fn, "conv_max_pool")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

LOG_CLAMP = 1e-12


def cross_entropy(pred_dist: Tensor, target_class: int) -> Tensor:
    """Negative log-likelihood of target_class under a rank-1 distribution.

    The probability is clamped at LOG_CLAMP before the log so a confidently
    wrong prediction yields a large finite loss instead of infinity.
    """
    if pred_dist.data.ndim != 1:
        raise DimensionError(f"cross_entropy expects a rank-1 distribution, got {pred_dist.shape}")
    if abs(float(np.sum(pred_dist.data)) - 1.0) > 1e-6:
        raise ValueError("cross_entropy: distribution does not sum to 1 within 1e-6")
    target_class = int(target_class)
    if not 0 <= target_class < pred_dist.data.size:
        raise IndexError(f"class index {target_class} out of range [0, {pred_dist.data.size})")
    p = float(pred_dist.data[target_class])
    clamped = max(p, LOG_CLAMP)
    out_data = np.asarray(-np.log(clamped))

    def backward_fn(out):
        g = np.zeros_like(pred_dist.data)
        if p > LOG_CLAMP:
            g[target_class] = -float(out.grad) / p
        _accumulate(pred_dist, g)

    return _make(out_data, (pred_dist,), backward_fn, "cross_entropy")


def squared_error(pred: Tensor, target: float) -> Tensor:
    if pred.data.size != 1:
        raise DimensionError(f"squared_error expects a scalar prediction, got shape {pred.shape}")
    target = float(target)
    diff = float(pred.data.reshape(())) - target
    out_data = np.asarray(diff * diff)

    def backward_fn(out):
        _accumulate(pred, (2.0 * diff * out.grad).reshape(pred.shape))

    return _make(out_data, (pred,), backward_fn, "squared_error")


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckEntry:
    name: str
    checked_elements: int
    max_rel_error: float
    worst_index: int
    passed: bool


@dataclass
class GradCheckReport:
    entries: list = field(default_factory=list)
    h: float = 1e-5
    tol: float = 1e-4

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def failures(self):
        return [e.name for e in self.entries if not e.passed]

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lines = [f"grad_check {status}: max rel error {self.max_rel_error:.3e} (tol {self.tol:g}, h {self.h:g})"]
        for e in self.entries:
            mark = "ok " if e.passed else "BAD"
            lines.append(f"  [{mark}] {e.name}: {e.max_rel_error:.3e} over {e.checked_elements} elements")
        return "\n".join(lines)


# Guard keeps the relative error stable when both gradients are ~0; finite
# difference noise on a true-zero gradient then reads as ~1e-6, not ~1.
_REL_GUARD = 1e-3


def _loss_value(build_loss) -> float:
    v = float(build_loss().data.reshape(()))
    if not np.isfinite(v):
        raise NumericError("non-finite loss value while probing")
    return v


GRAD_CHECK_MAX_ELEMENTS = 100


def grad_check(build_loss, params, h: float = 1e-5, tol: float = 1e-4,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of build_loss() against central differences.

    ``build_loss`` must deterministically rebuild the computation from the
    current contents of ``params`` (a name -> Tensor mapping). Tensors larger
    than ``GRAD_CHECK_MAX_ELEMENTS`` are probed on a fixed-seed sample of
    that many elements.
    """
    if not isinstance(params, dict):
        params = {f"param{i}": p for i, p in enumerate(params)}
    zero_grads(params)
    with Graph():
        loss = build_loss()
        backward(loss)
    analytic = {}
    for name, p in params.items():
        analytic[name] = np.zeros_like(p.data) if p.grad is None else p.grad.copy()

    rng = np.random.default_rng(seed)
    report = GradCheckReport(h=h, tol=tol)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if n > GRAD_CHECK_MAX_ELEMENTS:
            indices = np.sort(rng.choice(n, size=GRAD_CHECK_MAX_ELEMENTS, replace=False))
        else:
            indices = np.arange(n)
        worst = 0.0
        worst_idx = -1
        a_flat = analytic[name].reshape(-1)
        for idx in indices:
            saved = flat[idx]
            try:
                flat[idx] = saved + h
                f_plus = _loss_value(build_loss)
                flat[idx] = saved - h
                f_minus = _loss_value(build_loss)
            finally:
                flat[idx] = saved
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(a_flat[idx])
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), _REL_GUARD)
            if rel > worst:
                worst = rel
                worst_idx = int(idx)
        report.entries.append(GradCheckEntry(name, len(indices), worst, worst_idx, worst < tol))
    return report
