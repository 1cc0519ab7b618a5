"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation the sequence model needs is an explicit op with a
hand-written backward rule: matrix products over the last two axes,
row-wise softmax, layer normalization, the two losses, and a handful of
structural ops (reshape, permute, concat, slicing). Graphs are built
eagerly; `backward()` on a scalar walks them once in reverse topological
order. Tensors are immutable after creation except for gradient
accumulation, so separate graphs can run on separate threads.

A training step costs Python work per graph node more than arithmetic,
so the model's recurring patterns are fused ops, one node each:
`linear` (affine map), `attention` (multi-head scaled dot-product
attention, head split and merge included), `attention_block` (a whole
attention sublayer: q, k and v projections, attention, output
projection), `feed_forward` (affine, relu, affine) and `add_layer_norm`
(post-norm residual). Each equals a composition of the primitive ops,
which stay public; the sublayer ops equal the composition of `linear`,
`attention` and `relu` bit for bit, gradients included. The fused ops
share one affine forward and backward (`_affine`, `_affine_backward`) and
one head-split softmax (`_heads`), and check every intermediate for NaN
and Inf as an op checks its result.

An op computes in place only in arrays it has made in the same call:
never in an input, in the upstream delta `dout`, or in an array it has
handed out (its result, the attention weights). Inside that rule the
fused ops save array passes. The softmax scales, shifts, exponentiates
and normalises its scores' array in place; its row maximum is an
elementwise `np.maximum` over the key columns, exact like any maximum and
so the bits of `max(axis=-1)`, at a fraction of the cost of numpy's
reduction over a short last axis. The heads' context and the q, k and v
deltas are written by their products straight into merged (..., L, D)
arrays, and the layer norm centres, scales and applies its affine in
place, so its forward makes two full-size arrays (the normalised input,
which backward keeps, and the result). Every sum stays numpy's own
reduction, whose association sets the bits: each output and gradient is
bit for bit that of the plain expressions.

A trainable parameter (`parameter`) is a leaf over storage its owner
lays out: its data is a view into one parameter buffer, which the owner
checks for NaN and Inf as a whole, and its gradient a view into one
gradient buffer, so an optimizer updates every parameter in one pass.
`grad` stays None until a backward pass reaches the parameter; the first
delta is then written into its slice, by the affine maps and the layer
norms straight from their GEMM or reduction. Any
other tensor's gradient is its own array: the first delta an op has
just made becomes it, and a delta that is a view of another node's
gradient is copied. A literal `Tensor` copies its array; `adopt` takes
an array its caller has just built (the inference forward's encoder
input) as it is, with an op result's finiteness check.

An optional leading batch axis (or several) is supported everywhere:
matmul broadcasts over leading axes and reduces gradients back, and `add`
accepts a trailing-shape operand (bias vectors, positional tables). Ops
validate their outputs and raise `NonFiniteError` as soon as a NaN or Inf
appears, which is what the training loop's divergence guard catches.
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "parameter",
    "adopt",
    "ShapeError",
    "NonFiniteError",
    "NonDeterministicError",
    "no_grad",
    "matmul",
    "linear",
    "attention",
    "attention_block",
    "feed_forward",
    "permute",
    "reshape",
    "concat",
    "narrow",
    "take_rows",
    "zero_rows",
    "expand_leading",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "softmax_rows",
    "layer_norm",
    "add_layer_norm",
    "mse",
    "cross_entropy",
    "sum_all",
    "grad_check",
    "check_step",
    "GradCheckReport",
    "ParamCheck",
]


class ShapeError(ValueError):
    """Raised on incompatible shapes; the message carries both shapes."""


class NonFiniteError(ArithmeticError):
    """Raised when a tensor literal or an op result contains NaN or Inf."""


class NonDeterministicError(RuntimeError):
    """Raised when two evaluations of a supposedly pure function disagree."""


_STATE = threading.local()  # distinct graphs may run on distinct threads


def _grad_enabled() -> bool:
    return getattr(_STATE, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (forward-only passes)."""
    prev = _grad_enabled()
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prev


class Tensor:
    """A dense float64 array plus an optional same-shape gradient.

    Leaves are constructed directly; `requires_grad=True` marks trainable
    parameters. Interior nodes are produced by the module-level ops and
    carry the closures needed for the backward pass. After `backward()`,
    every leaf that requires a gradient has one accumulated in `.grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op",
                 "_grad_store", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        _check_literal(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = "leaf"
        self._grad_store = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Same values, no graph, no gradient requirement."""
        return _graph_free(self.data, "detach")

    def backward(self):
        """Reverse-mode sweep from a scalar; accumulates into leaf grads."""
        if self.data.ndim != 0:
            raise ShapeError(f"backward() starts from a scalar, got shape {self.shape}")
        topo = _toposort(self)
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{flag})"


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _check_literal(arr: np.ndarray):
    if arr.size == 0:
        raise ShapeError(f"zero-size tensor with shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError("tensor literal contains NaN or Inf")


def parameter(data: np.ndarray, grad_store: np.ndarray) -> Tensor:
    """A trainable leaf over `data`, taken as is (neither copied nor
    checked: its owner checks its whole parameter buffer for NaN and Inf
    once), whose gradient is accumulated in `grad_store`, an array of the
    same shape: the owner's slices of its parameter and gradient buffers."""
    if grad_store.shape != data.shape:
        raise ShapeError(f"parameter: gradient store {grad_store.shape} does not "
                         f"match data {data.shape}")
    out = _graph_free(data, "leaf")
    out.requires_grad = True
    out._grad_store = grad_store
    return out


def adopt(data: np.ndarray) -> Tensor:
    """A tensor outside any graph over `data`, an array the caller has just
    made and hands over: taken as is (not copied) and checked for NaN and
    Inf as an op result is (a `NonFiniteError` names op 'input')."""
    return _node(data, (), "input", None)


def _graph_free(data: np.ndarray, op: str) -> Tensor:
    """A tensor over `data` (taken as is, not copied) outside any graph."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out._parents = ()
    out._backward = None
    out._op = op
    out._grad_store = None
    return out


def _finite(data: np.ndarray, op: str) -> np.ndarray:
    """`data` as a C-contiguous array, checked to hold no NaN or Inf: the
    check on every op result and on every intermediate of a fused op."""
    if not data.flags.c_contiguous:
        data = np.ascontiguousarray(data)
    # `logical_and.reduce` is `.all()` without its Python wrapper; a sum
    # would need an errstate to stay silent on finite data that overflows
    if not np.logical_and.reduce(np.isfinite(data), axis=None):
        raise NonFiniteError(f"op {op!r} produced non-finite values")
    return data


def _node(data: np.ndarray, parents: tuple, op: str, backward) -> Tensor:
    data = _finite(np.asarray(data, dtype=np.float64), op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    out._grad_store = None
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _acc(t: Tensor, delta: np.ndarray, owned: bool = False):
    """Add `delta` to `t`'s gradient. `owned` says the calling op has just
    made `delta` and keeps no other reference to it, so a first delta can
    become the gradient as it is. Any other first delta is copied: it may
    be a view of another node's gradient, which a later `+=` here would
    then overwrite. A parameter's first delta goes into its gradient
    store, unless the op already wrote it there (`_grad_target`)."""
    if t.grad is not None:
        t.grad += delta
    elif t._grad_store is not None:
        if delta is not t._grad_store:
            np.copyto(t._grad_store, delta)
        t.grad = t._grad_store
    elif owned and type(delta) is np.ndarray and delta.flags.c_contiguous:
        t.grad = delta
    else:
        t.grad = np.array(delta, dtype=np.float64, order="C")


def _grad_target(t: Tensor) -> np.ndarray | None:
    """Where an op may write `t`'s next delta itself (`out=`): the gradient
    store of a parameter that has no gradient yet, else None."""
    return t._grad_store if t.grad is None else None


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad


def _check_trailing(a: Tensor, b: Tensor, op: str):
    if a.shape == b.shape:
        return
    if a.ndim > b.ndim and a.shape[a.ndim - b.ndim:] == b.shape:
        return
    if b.ndim > a.ndim and b.shape[b.ndim - a.ndim:] == a.shape:
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not equal "
                     "and neither is a trailing slice of the other")


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_trailing(a, b, "add")
    out = a.data + b.data

    def backward(dout):
        if a.requires_grad:
            da = _unbroadcast(dout, a.shape)
            _acc(a, da, da is not dout)
        if b.requires_grad:
            db = _unbroadcast(dout, b.shape)
            _acc(b, db, db is not dout)

    return _node(out, (a, b), "add", backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_trailing(a, b, "sub")
    out = a.data - b.data

    def backward(dout):
        if a.requires_grad:
            da = _unbroadcast(dout, a.shape)
            _acc(a, da, da is not dout)
        if b.requires_grad:
            _acc(b, _unbroadcast(-dout, b.shape), True)

    return _node(out, (a, b), "sub", backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_trailing(a, b, "mul")
    out = a.data * b.data

    def backward(dout):
        if a.requires_grad:
            _acc(a, _unbroadcast(dout * b.data, a.shape), True)
        if b.requires_grad:
            _acc(b, _unbroadcast(dout * a.data, b.shape), True)

    return _node(out, (a, b), "mul", backward)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = x.data * c

    def backward(dout):
        if x.requires_grad:
            _acc(x, dout * c, True)

    return _node(out, (x,), "scale", backward)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def backward(dout):
        if x.requires_grad:
            _acc(x, dout * (x.data > 0.0), True)

    return _node(out, (x,), "relu", backward)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum())

    def backward(dout):
        if x.requires_grad:
            _acc(x, np.full_like(x.data, float(dout)), True)

    return _node(out, (x,), "sum_all", backward)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.shape} and {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul: incompatible leading axes for {a.shape} and {b.shape}") from exc

    def backward(dout):
        if a.requires_grad:
            _acc(a, _unbroadcast(dout @ np.swapaxes(b.data, -1, -2), a.shape), True)
        if b.requires_grad:
            if b.ndim == 2:
                _acc(b, _weight_grad(a.data, dout), True)
            else:
                _acc(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ dout, b.shape), True)

    return _node(out, (a, b), "matmul", backward)


def _weight_grad(x: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Gradient of a 2-D right operand of `x @ w`: one GEMM over the
    flattened leading axes, never a per-batch-element stack."""
    return x.reshape(-1, x.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])


def _check_affine(shape: tuple[int, ...], w: Tensor, b: Tensor, op: str) -> tuple[int, ...]:
    """Check that an input of `shape` fits the affine map (`w`, `b`);
    returns the output's shape."""
    if w.ndim != 2 or b.shape != w.shape[1:]:
        raise ShapeError(f"{op}: weight {w.shape} / bias {b.shape} are not "
                         "(fan_in, fan_out) / (fan_out,)")
    if len(shape) < 1 or shape[-1] != w.shape[0]:
        raise ShapeError(f"{op}: input {shape} does not match weight {w.shape}")
    return shape[:-1] + w.shape[1:]


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`x @ w + b` over the last axis of `x`, as a fresh array.

    The leading axes are flattened into one GEMM, where numpy would run
    one per leading index. That gives the same bits whenever each leading
    index holds more than one row; an input of single rows (the heads'
    (..., 1, D) slots) keeps numpy's product, so inference is unchanged.
    """
    if x.ndim > 2 and x.shape[-2] > 1:
        out = (x.reshape(-1, w.shape[0]) @ w).reshape(x.shape[:-1] + w.shape[1:])
    else:
        out = x @ w
    out += b
    return out


def _affine_backward(x: np.ndarray, w: Tensor, b: Tensor, dout: np.ndarray,
                     need_dx: bool) -> np.ndarray | None:
    """Backward of `_affine(x, w.data, b.data)` for the output delta `dout`:
    three 2-D products. The weight and bias gradients are accumulated, the
    first straight into their stores (`out=`); the input's delta is
    returned when `need_dx` (else None) for the caller to hand over."""
    fan_in, fan_out = w.shape
    dout2 = dout.reshape(-1, fan_out)
    dx = (dout2 @ np.ascontiguousarray(w.data.T)).reshape(x.shape) if need_dx else None
    if w.requires_grad:
        _acc(w, np.matmul(x.reshape(-1, fan_in).T, dout2, out=_grad_target(w)), True)
    if b.requires_grad:
        _acc(b, np.add.reduce(dout2, axis=0, out=_grad_target(b)), True)
    return dx


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map `x @ w + b` over the last axis of `x`, as one node.

    `w` is (fan_in, fan_out) and `b` is (fan_out,); `x` may carry any
    leading axes. Equals `add(matmul(x, w), b)`, with the leading axes run
    as one GEMM (`_affine`).
    """
    _check_affine(x.shape, w, b, "linear")
    out = _affine(x.data, w.data, b.data)

    def backward(dout):
        dx = _affine_backward(x.data, w, b, dout, x.requires_grad)
        if dx is not None:
            _acc(x, dx, True)

    return _node(out, (x, w, b), "linear", backward)


def _check_attention(q: tuple[int, ...], k: tuple[int, ...], v: tuple[int, ...],
                     n_heads: int, op: str):
    """Check that query, key and value shapes fit multi-head attention."""
    fits = (len(q) >= 2 and k == v and q[:-2] == k[:-2] and q[-1] == k[-1])
    if not fits:
        raise ShapeError(f"{op}: query {q}, key {k} and value {v} do not fit together")
    if n_heads < 1 or q[-1] % n_heads:
        raise ShapeError(f"{op}: width {q[-1]} does not split into {n_heads} heads")


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., L, D) -> (..., H, L, D / H), a view."""
    return np.swapaxes(x.reshape(x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)), -2, -3)


def _heads(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int):
    """Multi-head scaled dot-product attention of arrays that fit it.

    Returns the context (..., Lq, D), the weights (..., H, Lq, Lk), and
    the backward: a function of the context's delta and three flags that
    returns the deltas of q, k and v, None for one not asked for.

    The softmax works in place in the scores' array, and its row maximum
    is taken column by column (`_row_max`). The context and the deltas of
    q, k and v are written by their products straight into merged
    (..., L, D) arrays, through head views of them (`_split_heads`).
    """
    qh, kh, vh = _split_heads(q, n_heads), _split_heads(k, n_heads), _split_heads(v, n_heads)
    c = 1.0 / np.sqrt(q.shape[-1] // n_heads)
    weights = qh @ np.swapaxes(kh, -1, -2)
    weights *= c
    weights -= _row_max(weights)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    ctx = np.empty(q.shape)
    np.matmul(weights, vh, out=_split_heads(ctx, n_heads))

    def backward(dout: np.ndarray, need_q: bool, need_k: bool, need_v: bool):
        dctx = _split_heads(dout, n_heads)
        dq = dk = dv = None
        if need_v:
            dv = np.empty(v.shape)
            np.matmul(np.swapaxes(weights, -1, -2), dctx, out=_split_heads(dv, n_heads))
        if need_q or need_k:
            dscores = dctx @ np.swapaxes(vh, -1, -2)
            dscores -= (dscores * weights).sum(axis=-1, keepdims=True)
            dscores *= weights
            dscores *= c
            if need_q:
                dq = np.empty(q.shape)
                np.matmul(dscores, kh, out=_split_heads(dq, n_heads))
            if need_k:
                dk = np.empty(k.shape)
                np.matmul(np.swapaxes(dscores, -1, -2), qh, out=_split_heads(dk, n_heads))
        return dq, dk, dv

    return ctx, weights, backward


def _row_max(x: np.ndarray) -> np.ndarray:
    """`x.max(axis=-1, keepdims=True)`, as an elementwise maximum over the
    columns: a maximum is exact, so the bits are the same, and a short
    last axis costs numpy's reduction far more than a few column passes."""
    out = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(out, x[..., j:j + 1], out=out)
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> tuple[Tensor, Tensor]:
    """Multi-head scaled dot-product attention, as one node.

    `q` is (..., Lq, D); `k` and `v` are (..., Lk, D) with the same
    leading axes. Each head reads its own D / n_heads columns; the heads'
    contexts are concatenated back to (..., Lq, D). Returns the context
    and the attention weights (..., n_heads, Lq, Lk); the weights are
    outside the graph, so no gradient flows through them.
    """
    _check_attention(q.shape, k.shape, v.shape, n_heads, "attention")
    out, weights, heads_backward = _heads(q.data, k.data, v.data, n_heads)

    def backward(dout):
        dq, dk, dv = heads_backward(dout, q.requires_grad, k.requires_grad, v.requires_grad)
        for t, delta in ((v, dv), (q, dq), (k, dk)):
            if delta is not None:
                _acc(t, delta, True)

    return _node(out, (q, k, v), "attention", backward), _graph_free(weights, "attention_weights")


def attention_block(queries: Tensor, keys: Tensor, values: Tensor,
                    projections: Sequence[tuple[Tensor, Tensor]], n_heads: int) -> Tensor:
    """A whole attention sublayer, `out(attention(q(queries), k(keys),
    v(values)))`, as one node.

    `projections` holds the four (weight, bias) pairs q, k, v and out in
    that order. Equals the composition of `linear` and `attention` bit for
    bit, gradients included: the backward hands the three inputs their
    deltas in the order that composition does, q's first, and every
    intermediate (each projection, the context) is checked as an op
    result would be.
    """
    inputs = (queries, keys, values)
    *in_projections, (wo, bo) = projections
    shapes = [_check_affine(x.shape, w, b, "attention_block")
              for x, (w, b) in zip(inputs, in_projections)]
    _check_attention(*shapes, n_heads, "attention_block")
    _check_affine(shapes[0], wo, bo, "attention_block")
    q, k, v = (_finite(_affine(x.data, w.data, b.data), "attention_block")
               for x, (w, b) in zip(inputs, in_projections))
    ctx, _, heads_backward = _heads(q, k, v, n_heads)
    ctx = _finite(ctx, "attention_block")
    out = _affine(ctx, wo.data, bo.data)

    def backward(dout):
        need = [x.requires_grad or w.requires_grad or b.requires_grad
                for x, (w, b) in zip(inputs, in_projections)]
        dctx = _affine_backward(ctx, wo, bo, dout, any(need))
        if dctx is None:
            return
        for x, (w, b), delta in zip(inputs, in_projections, heads_backward(dctx, *need)):
            if delta is not None:
                dx = _affine_backward(x.data, w, b, delta, x.requires_grad)
                if dx is not None:
                    _acc(x, dx, True)

    return _node(out, inputs + tuple(t for pair in projections for t in pair),
                 "attention_block", backward)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The feed-forward sublayer `linear(relu(linear(x, w1, b1)), w2, b2)`,
    as one node, bit for bit. The hidden pre-activation is checked as an
    op result would be, so a NaN or Inf there raises even where `relu`
    would zero it."""
    hidden_shape = _check_affine(x.shape, w1, b1, "feed_forward")
    _check_affine(hidden_shape, w2, b2, "feed_forward")
    hidden = _finite(_affine(x.data, w1.data, b1.data), "feed_forward")
    # relu in place: on finite data `hidden > 0` is the pre-activation's mask
    np.maximum(hidden, 0.0, out=hidden)
    out = _affine(hidden, w2.data, b2.data)

    def backward(dout):
        need_hidden = x.requires_grad or w1.requires_grad or b1.requires_grad
        dhidden = _affine_backward(hidden, w2, b2, dout, need_hidden)
        if dhidden is not None:
            dhidden *= hidden > 0.0
            dx = _affine_backward(x.data, w1, b1, dhidden, x.requires_grad)
            if dx is not None:
                _acc(x, dx, True)

    return _node(out, (x, w1, b1, w2, b2), "feed_forward", backward)


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permute: axes {axes} are not a permutation for shape {x.shape}")
    inverse = np.argsort(axes)
    out = np.transpose(x.data, axes)

    def backward(dout):
        if x.requires_grad:
            _acc(x, np.transpose(dout, inverse))

    return _node(out, (x,), "permute", backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = x.data.reshape(shape)

    def backward(dout):
        if x.requires_grad:
            _acc(x, dout.reshape(x.shape))

    return _node(out, (x,), "reshape", backward)


def concat(parts: list[Tensor], axis: int = -2) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    ax = axis if axis >= 0 else parts[0].ndim + axis
    sizes = [p.shape[ax] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=ax)
    splits = np.cumsum(sizes)[:-1]

    def backward(dout):
        pieces = np.split(dout, splits, axis=ax)
        for p, g in zip(parts, pieces):
            if p.requires_grad:
                _acc(p, g)

    return _node(out, tuple(parts), "concat", backward)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of `length` entries along one axis."""
    ax = axis if axis >= 0 else x.ndim + axis
    if not (0 <= start and start + length <= x.shape[ax]):
        raise ShapeError(f"narrow: [{start}:{start + length}] out of range "
                         f"for axis {axis} of shape {x.shape}")
    index = [slice(None)] * x.ndim
    index[ax] = slice(start, start + length)
    index = tuple(index)
    out = x.data[index]

    def backward(dout):
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[index] = dout
            _acc(x, g, True)

    return _node(out, (x,), "narrow", backward)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows of a 2-D tensor; repeated indices are allowed."""
    if x.ndim != 2:
        raise ShapeError(f"take_rows needs a 2-D tensor, got {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"take_rows: indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"take_rows: index out of range for {x.shape[0]} rows")
    out = x.data[idx]

    def backward(dout):
        if x.requires_grad:
            g = np.zeros_like(x.data)
            np.add.at(g, idx, dout)
            _acc(x, g, True)

    return _node(out, (x,), "take_rows", backward)


def zero_rows(x: Tensor, row: int) -> Tensor:
    """Zero one row along axis -2; gradient never flows into that row."""
    if x.ndim < 2:
        raise ShapeError(f"zero_rows needs ndim >= 2, got {x.shape}")
    n = x.shape[-2]
    if not (0 <= row < n):
        raise ShapeError(f"zero_rows: row {row} out of range for shape {x.shape}")
    out = x.data.copy()
    out[..., row, :] = 0.0

    def backward(dout):
        if x.requires_grad:
            g = dout.copy()
            g[..., row, :] = 0.0
            _acc(x, g, True)

    return _node(out, (x,), "zero_rows", backward)


def expand_leading(x: Tensor, leading: tuple[int, ...]) -> Tensor:
    """Materialize `x` repeated over new leading axes."""
    leading = tuple(int(s) for s in leading)
    out = np.broadcast_to(x.data, leading + x.shape)
    k = len(leading)

    def backward(dout):
        if x.requires_grad:
            _acc(x, dout.sum(axis=tuple(range(k))), True)

    return _node(out, (x,), "expand_leading", backward)


# ---------------------------------------------------------------------------
# normalization and losses


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by per-row max subtraction."""
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(dout):
        if x.requires_grad:
            inner = (dout * y).sum(axis=-1, keepdims=True)
            _acc(x, (dout - inner) * y, True)

    return _node(y, (x,), "softmax_rows", backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize the last axis (biased variance + eps), then affine."""
    return _normalize(x.data, (x,), gain, bias, eps, "layer_norm")


def add_layer_norm(x: Tensor, residual: Tensor, gain: Tensor, bias: Tensor,
                   eps: float = 1e-5) -> Tensor:
    """Post-norm residual `layer_norm(x + residual)`, as one node."""
    if x.shape != residual.shape:
        raise ShapeError(f"add_layer_norm: shapes {x.shape} and {residual.shape} differ")
    return _normalize(x.data + residual.data, (x, residual), gain, bias, eps,
                      "add_layer_norm", owned=True)


def _normalize(s: np.ndarray, inputs: tuple, gain: Tensor, bias: Tensor, eps: float,
               op: str, owned: bool = False) -> Tensor:
    """Layer norm of `s`, the sum of `inputs`; each input gets its gradient.
    `owned` says the caller has just made `s`, so it is centred in place."""
    d = s.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"{op}: gain {gain.shape} / bias {bias.shape} "
                         f"do not match feature width {d}")
    # `mean` is this sum divided by the count: the same bits, less Python per call
    mu = s.sum(axis=-1, keepdims=True) / d
    xhat = np.subtract(s, mu, out=s if owned else None)
    out = xhat * xhat  # the squared deviations, then the result
    inv = out.sum(axis=-1, keepdims=True) / d  # the variance, then 1 / sqrt(var + eps)
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def backward(dout):
        prod = None
        if gain.requires_grad:
            prod = dout * xhat
            _acc(gain, np.add.reduce(prod.reshape(-1, d), axis=0, out=_grad_target(gain)),
                 True)
        if bias.requires_grad:
            _acc(bias, np.add.reduce(dout.reshape(-1, d), axis=0, out=_grad_target(bias)),
                 True)
        takers = [t for t in inputs if t.requires_grad]
        if takers:
            ds = dout * gain.data
            m1 = ds.sum(axis=-1, keepdims=True) / d
            m2 = np.multiply(ds, xhat, out=prod).sum(axis=-1, keepdims=True) / d
            ds -= m1
            ds -= np.multiply(xhat, m2, out=prod)
            ds *= inv
            for t in takers[:-1]:
                _acc(t, ds)
            _acc(takers[-1], ds, True)

    return _node(out, inputs + (gain, bias), op, backward)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of squared elementwise differences (scalar)."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse: shapes {pred.shape} and {target.shape} differ")
    diff = pred.data - target.data
    out = np.asarray((diff * diff).mean())
    n = diff.size

    def backward(dout):
        c = 2.0 * float(dout) / n
        if pred.requires_grad:
            _acc(pred, c * diff, True)
        if target.requires_grad:
            _acc(target, -c * diff, True)

    return _node(out, (pred, target), "mse", backward)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log softmax probability of the target classes.

    `targets` is an integer array shaped like `logits` without its last
    axis (a bare int for 1-D logits). The mean runs over all target
    positions.
    """
    t = np.asarray(targets)
    if t.dtype.kind not in "iu":
        raise TypeError(f"cross_entropy: targets must be integers, got dtype {t.dtype}")
    if t.shape != logits.shape[:-1]:
        raise ShapeError(f"cross_entropy: targets shape {t.shape} does not match "
                         f"logits shape {logits.shape}")
    n_classes = logits.shape[-1]
    if t.size and (t.min() < 0 or t.max() >= n_classes):
        raise IndexError(f"cross_entropy: class index out of range [0, {n_classes})")
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=-1, keepdims=True)
    lse = (m + np.log(z))[..., 0]
    picked = np.take_along_axis(x, t[..., None], axis=-1)[..., 0]
    losses = lse - picked
    out = np.asarray(losses.mean())
    n = losses.size

    def backward(dout):
        if logits.requires_grad:
            g = e / z
            hit = np.take_along_axis(g, t[..., None], axis=-1) - 1.0
            np.put_along_axis(g, t[..., None], hit, axis=-1)
            _acc(logits, g * (float(dout) / n), True)

    return _node(out, (logits,), "cross_entropy", backward)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class ParamCheck:
    """Finite-difference comparison for one parameter tensor."""

    name: str
    max_rel_err: float
    worst_index: tuple[int, ...]
    failing: list[tuple[tuple[int, ...], float, float, float]] = field(default_factory=list)

    def passed(self, tol: float) -> bool:
        return self.max_rel_err < tol


@dataclass
class GradCheckReport:
    """Result of `grad_check`: worst relative error per parameter and overall."""

    h: float
    tol: float
    checks: list[ParamCheck]
    max_rel_err: float
    worst_param: str

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def failures(self) -> list[ParamCheck]:
        return [c for c in self.checks if not c.passed(self.tol)]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"grad_check {status}: max rel err {self.max_rel_err:.3e} "
                 f"(param {self.worst_param!r}, tol {self.tol:g}, h {self.h:g})"]
        for c in self.failures():
            lines.append(f"  FAIL {c.name}: rel err {c.max_rel_err:.3e} at {c.worst_index}, "
                         f"{len(c.failing)} coordinate(s) over tol")
        return "\n".join(lines)


def check_step(h: float):
    if not (1e-6 <= h <= 1e-4):  # the steps `grad_check` takes
        raise ValueError(f"grad_check: h={h:g} outside [1e-6, 1e-4]")


def grad_check(f, params: dict[str, Tensor], h: float = 1e-5, tol: float = 1e-6,
               rel_floor: float = 1e-3) -> GradCheckReport:
    """Compare analytic gradients of scalar `f()` against central differences.

    `f` must be deterministic and close over `params`; every entry of every
    parameter is perturbed by ±h in place. Relative error uses
    |analytic − numeric| / max(|analytic|, |numeric|, rel_floor), so small
    gradients are judged on the absolute scale tol*rel_floor. The default
    floor keeps that scale above central-difference roundoff, which is
    about eps*scale/h where scale is the size of intermediate values
    (roughly 1e-11 per unit of internal magnitude at h=1e-5).
    """
    check_step(h)
    with no_grad():
        first = f().item()
        second = f().item()
    if first != second:
        raise NonDeterministicError(
            f"f() is not deterministic: {first!r} != {second!r}")

    loss = f()
    loss.backward()
    analytic = {}
    for name, p in params.items():
        analytic[name] = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        p.grad = None

    checks = []
    overall = 0.0
    worst = ""
    for name, p in params.items():
        ana = analytic[name]
        worst_err = 0.0
        worst_idx = ()
        failing = []
        flat = p.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with no_grad():
                fp = f().item()
            flat[i] = orig - h
            with no_grad():
                fm = f().item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = ana_flat[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), rel_floor)
            if err > worst_err:
                worst_err = err
                worst_idx = np.unravel_index(i, p.data.shape)
            if err >= tol:
                failing.append((tuple(np.unravel_index(i, p.data.shape)),
                                float(a), float(numeric), float(err)))
        checks.append(ParamCheck(name=name, max_rel_err=worst_err,
                                 worst_index=tuple(int(k) for k in worst_idx),
                                 failing=failing))
        if worst_err > overall:
            overall = worst_err
            worst = name
    return GradCheckReport(h=h, tol=tol, checks=checks,
                           max_rel_err=overall, worst_param=worst)
