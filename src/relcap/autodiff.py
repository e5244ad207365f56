"""Dense-tensor computation graph with reverse-mode differentiation.

Everything runs on contiguous float64 numpy arrays. A graph is recorded
while the forward pass executes and is discarded by ``backward``; there is
no persistent tape. Inside ``no_grad`` nothing is recorded: every op
returns a plain leaf, so inference keeps no graph alive. All stochastic
operations take an explicit ``numpy.random.Generator``.

Every row product (``affine``, ``matmul``) runs in fixed tiles of ``TILE``
rows, the last one zero-padded, so a row's result does not depend on how
many other rows share its batch.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

TILE = 32       # rows per GEMM tile


class Tensor:
    """One node of the computation graph.

    ``data`` is always float64. ``grad`` stays ``None`` on intermediate
    nodes until a backward pass reaches them; ``Parameter`` keeps a
    persistent zero-initialized gradient buffer instead.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Parameter(Tensor):
    """A named learnable tensor with a persistent gradient accumulator."""

    __slots__ = ("name",)

    def __init__(self, name: str, data, grad=None):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data) if grad is None else grad

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class _Recording(threading.local):
    enabled = True


# Per thread, so a decoding thread cannot switch off recording in a
# training thread.
_recording = _Recording()


@contextlib.contextmanager
def no_grad():
    """Run the enclosed ops without recording a graph (this thread only)."""
    previous = _recording.enabled
    _recording.enabled = False
    try:
        yield
    finally:
        _recording.enabled = previous


def is_recording() -> bool:
    """Whether ops on this thread record a graph (False inside ``no_grad``)."""
    return _recording.enabled


def _node(data, parents, back) -> Tensor:
    """An op's result: a graph node while recording, a plain leaf otherwise."""
    if _recording.enabled:
        return Tensor(data, parents, back)
    return Tensor(data)


def _accumulate(node: Tensor, grad: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.array(grad, dtype=np.float64)
    else:
        node.grad += grad


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss node.

    Populates ``grad`` on every reachable node (accumulating into the
    persistent buffers of ``Parameter`` leaves) and then discards the
    recorded graph so nodes cannot be back-propagated twice.
    """
    if not _recording.enabled:
        raise RuntimeError("backward called inside no_grad: no graph was recorded")
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")

    # Iterative topological sort; graphs for long sequences exceed the
    # default recursion limit.
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    else:
        loss.grad += np.ones_like(loss.data)

    for node in reversed(order):
        fn = node._backward
        if fn is not None:
            fn(node.grad)
        # Per-pass graph: drop edges so the pass cannot be replayed.
        node._parents = ()
        node._backward = None


def custom_op(data, parents, backward) -> Tensor:
    """A graph node computed outside this module; ``backward(g)`` returns
    one gradient per entry of ``parents`` (a repeated parent accumulates
    each of its gradients)."""
    parents = tuple(parents)

    def _back(g):
        for parent, grad in zip(parents, backward(g), strict=True):
            _accumulate(parent, grad)

    return _node(data, parents, _back)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def tile_rows(x: np.ndarray) -> np.ndarray:
    """``x``, rows on its second-last axis, as ``(..., tiles, TILE, K)``,
    zero-padded in its own dtype to a multiple of TILE rows; no copy when
    the row count already is one."""
    *lead, n, k = x.shape
    pad = -n % TILE
    if pad:
        x = np.concatenate([x, np.zeros((*lead, pad, k), x.dtype)], axis=-2)
    return x.reshape(*lead, -1, TILE, k)


def _tile_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` as a stack of ``(TILE, K) @ w`` products.

    Each row of the result is then bit-equal to that row multiplied alone,
    whatever the row count (one BLAS GEMM per tile rounds every row alike).
    Whole tiles are multiplied as a view of ``x``; only a last partial tile
    is zero-padded (``tile_rows``), and its padding rows are dropped. An
    input of less than one tile, or of whole tiles only, is one product.

    A leading image axis, ``x`` of ``(I, n, K)`` and ``w`` of ``(I, K, M)``,
    multiplies each image by its own ``w`` in the same tiles, each image
    padded to whole tiles, so image i's rows are the bits of ``x[i] @ w[i]``.
    """
    n, full = x.shape[-2], x.shape[-2] - x.shape[-2] % TILE
    if x.ndim > 2 or full in (0, n):
        tiles = np.matmul(tile_rows(x), w[:, None] if w.ndim > 2 else w)
        return tiles.reshape(*x.shape[:-2], -1, w.shape[-1])[..., :n, :]
    out = np.empty((n, w.shape[1]), np.result_type(x, w))
    np.matmul(x[:full].reshape(-1, TILE, x.shape[1]), w,
              out=out[:full].reshape(-1, TILE, w.shape[1]))
    out[full:] = np.matmul(tile_rows(x[full:]), w)[0, :n - full]
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fully-connected layer: ``x @ w + b`` with exact gradients."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(
            f"affine: cannot multiply input of shape {x.data.shape} by weight of shape {w.data.shape}"
        )
    if b.data.shape != (w.data.shape[1],):
        raise ValueError(
            f"affine: bias shape {b.data.shape} does not match weight columns {w.data.shape}"
        )

    def _back(g):
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, g.sum(axis=0))

    return _node(_tile_matmul(x.data, w.data) + b.data, (x, w, b), _back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dims of {a.data.shape} and {b.data.shape} disagree")

    def _back(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _node(_tile_matmul(a.data, b.data), (a, b), _back)


def transpose(x: Tensor) -> Tensor:
    return _node(x.data.T, (x,), lambda g: _accumulate(x, g.T))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add: shapes {a.data.shape} and {b.data.shape} differ")

    def _back(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _node(a.data + b.data, (a, b), _back)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node(x.data * c, (x,), lambda g: _accumulate(x, g * c))


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # 1 / (1 + e) for v >= 0, else e / (1 + e), with e = exp(-|v|) so exp
    # cannot overflow; every element takes the same operations.
    # min(v, -v) is -|v| that keeps a NaN's sign.
    e = np.negative(v)
    np.minimum(v, e, out=e)
    np.exp(e, out=e)
    out = np.where(v >= 0, 1.0, e)
    out /= e + 1.0
    return out


def relu(x: Tensor) -> Tensor:
    # derivative at exactly 0 is defined as 0
    return _node(np.maximum(x.data, 0.0), (x,), lambda g: _accumulate(x, g * (x.data > 0)))


def _row_max(x: np.ndarray) -> np.ndarray:
    # One pass over a transposed copy, far faster than a reduce over a short
    # last axis; a max does not depend on the order it is taken in.
    return np.ascontiguousarray(np.swapaxes(x, -1, -2)).max(axis=-2)[..., None]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a plain array (each row of a matrix),
    stabilized by max subtraction."""
    e = np.exp(logits - _row_max(logits))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray, column: int | None = None) -> np.ndarray:
    """Log-softmax over each row of a plain matrix; with ``column``, that
    column's entries only, ``(rows,)``."""
    shifted = logits - _row_max(logits)
    total = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - total if column is None else shifted[:, column] - total[:, 0]


def concat(tensors) -> Tensor:
    tensors = tuple(tensors)

    def _back(g):
        splits = np.cumsum([t.data.shape[1] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=1)):
            _accumulate(t, piece)

    return _node(np.concatenate([t.data for t in tensors], axis=1), tensors, _back)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows by index (embedding lookup); gradient scatters back."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise IndexError(f"gather_rows: index out of range for {x.data.shape[0]} rows")

    def _back(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        _accumulate(x, full)

    return _node(x.data[idx], (x,), _back)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout drawing its mask from ``rng``; identity without one."""
    if rng is None or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.data.shape) < keep) / keep
    return _node(x.data * mask, (x,), lambda g: _accumulate(x, g * mask))


def weighted_cross_entropy(logits: Tensor, targets, weights) -> Tensor:
    """Sum over rows of ``weights[i] * -log softmax(logits)[i, targets[i]]``.

    The caller encodes masking / averaging conventions in ``weights``;
    gradient is exactly ``weights[i] * (softmax - onehot)`` per row.
    """
    t = np.asarray(targets, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    n, v = logits.data.shape
    if t.shape != (n,) or w.shape != (n,):
        raise ValueError(f"cross_entropy: {n} logit rows but {t.shape} targets / {w.shape} weights")
    if t.size and (t.min() < 0 or t.max() >= v):
        raise IndexError(f"cross_entropy: target index out of range for {v} classes")
    logp = log_softmax(logits.data)
    nll = -logp[np.arange(n), t]

    def _back(g):
        p = np.exp(logp)
        p[np.arange(n), t] -= 1.0
        _accumulate(logits, (float(g)) * p * w[:, None])

    return _node(np.float64(np.dot(w, nll)), (logits,), _back)


def binary_logistic_loss(logits: Tensor, labels, weights) -> Tensor:
    """Weighted sum of stable binary cross-entropy terms on raw scores."""
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    z = logits.data.reshape(-1)
    if y.shape != z.shape or w.shape != z.shape:
        raise ValueError(f"binary_logistic_loss: {z.shape} logits vs {y.shape} labels / {w.shape} weights")
    loss = np.dot(w, np.logaddexp(0.0, z) - y * z)

    def _back(g):
        _accumulate(logits, (float(g) * w * (_sigmoid(z) - y)).reshape(logits.data.shape))

    return _node(np.float64(loss), (logits,), _back)


def smooth_l1(pred: Tensor, target, weights=None) -> Tensor:
    """Huber-style loss: per-coordinate 0.5 d^2 if |d| < 1 else |d| - 0.5.

    ``pred`` is N x K; coordinates are summed within a row and rows are
    combined with ``weights`` (default: plain sum).
    """
    t = np.asarray(target, dtype=np.float64)
    if pred.data.ndim != 2 or t.shape != pred.data.shape:
        raise ValueError(f"smooth_l1: prediction shape {pred.data.shape} vs target shape {t.shape}")
    d = pred.data - t
    small = np.abs(d) < 1.0
    row_sums = np.where(small, 0.5 * d * d, np.abs(d) - 0.5).sum(axis=1)
    w = np.ones(row_sums.shape[0]) if weights is None else np.asarray(weights, dtype=np.float64)

    def _back(g):
        _accumulate(pred, float(g) * np.where(small, d, np.sign(d)) * w[:, None])

    return _node(np.float64(np.dot(w, row_sums)), (pred,), _back)


def add_scalars(terms) -> Tensor:
    """Sum a list of scalar loss nodes."""
    terms = tuple(terms)

    def _back(g):
        for t in terms:
            _accumulate(t, np.float64(g))

    return _node(np.float64(sum(float(t.data) for t in terms)), terms, _back)


# ---------------------------------------------------------------------------
# the parameter store and Adam
# ---------------------------------------------------------------------------

def glorot_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class ModelParams(dict):
    """Name -> Parameter in layout order, zero-initialized; shared weights
    appear once. Every ``.data`` / ``.grad`` is a view of the flat float64
    buffer ``data`` / ``grad``."""

    def __init__(self, shapes: dict):
        self.shapes = dict(shapes)
        size = sum(math.prod(shape) for shape in self.shapes.values())
        self.data, self.grad = np.zeros(size), np.zeros(size)
        data, grad = self.views(self.data), self.views(self.grad)
        super().__init__((name, Parameter(name, data[name], grad[name])) for name in data)

    def views(self, flat: np.ndarray) -> dict:
        """Name -> that parameter's slot of ``flat``, a buffer laid out
        like ``data`` (the gradient and Adam moments are)."""
        ends = np.cumsum([math.prod(shape) for shape in self.shapes.values()])
        return {name: part.reshape(shape) for (name, shape), part
                in zip(self.shapes.items(), np.split(flat, ends[:-1]))}


class OptimizerState:
    """Adam settings, step count and moments (flat, laid out like ``data``)."""

    def __init__(self, params: ModelParams, lr, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.step_count = 0
        self.m = np.zeros(len(params.data))     # not zeros_like: pages untouched until written
        self.v = np.zeros(len(params.data))


def adam_step(params: ModelParams, state: OptimizerState) -> None:
    """One bias-corrected Adam update of the whole store; zeroes its
    gradient afterwards."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    g, m, v = params.grad, state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    params.data -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.epsilon)
    g.fill(0.0)
