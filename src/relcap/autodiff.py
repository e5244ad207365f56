"""Dense-tensor computation graph with reverse-mode differentiation.

Everything runs on contiguous float64 numpy arrays. A graph is recorded
while the forward pass executes and is discarded by ``backward``; there is
no persistent tape. All stochastic operations take an explicit
``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np


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

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Parameter(Tensor):
    """A named learnable tensor with a persistent gradient accumulator."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


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


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

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
    out = Tensor(x.data @ w.data + b.data, _parents=(x, w, b))

    def _back(g):
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, g.sum(axis=0))

    out._backward = _back
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dims of {a.data.shape} and {b.data.shape} disagree")
    out = Tensor(a.data @ b.data, _parents=(a, b))

    def _back(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    out._backward = _back
    return out


def transpose(x: Tensor) -> Tensor:
    out = Tensor(x.data.T, _parents=(x,))
    out._backward = lambda g: _accumulate(x, g.T)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, _parents=(a, b))

    def _back(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    out._backward = _back
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, _parents=(a, b))

    def _back(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    out._backward = _back
    return out


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c, _parents=(x,))
    out._backward = lambda g: _accumulate(x, g * c)
    return out


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # Branch on sign to avoid overflow in exp.
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0), _parents=(x,))
    # derivative at exactly 0 is defined as 0
    out._backward = lambda g: _accumulate(x, g * (x.data > 0))
    return out


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    out = Tensor(y, _parents=(x,))
    out._backward = lambda g: _accumulate(x, g * y * (1.0 - y))
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y, _parents=(x,))
    out._backward = lambda g: _accumulate(x, g * (1.0 - y * y))
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over each row of a plain array, stabilized by max subtraction."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over each row of a plain array."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def row_softmax(x: Tensor) -> Tensor:
    """Softmax over each row, stabilized by per-row max subtraction."""
    if x.data.ndim != 2:
        raise ValueError(f"row_softmax expects a 2-D tensor, got shape {x.data.shape}")
    y = softmax(x.data)
    out = Tensor(y, _parents=(x,))

    def _back(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accumulate(x, (g - dot) * y)

    out._backward = _back
    return out


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), _parents=tuple(tensors))
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def _back(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    out._backward = _back
    return out


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(x.data[:, start:stop].copy(), _parents=(x,))

    def _back(g):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        _accumulate(x, full)

    out._backward = _back
    return out


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows by index (embedding lookup); gradient scatters back."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise IndexError(f"gather_rows: index out of range for {x.data.shape[0]} rows")
    out = Tensor(x.data[idx], _parents=(x,))

    def _back(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        _accumulate(x, full)

    out._backward = _back
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity outside training mode."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.data.shape) < keep) / keep
    out = Tensor(x.data * mask, _parents=(x,))
    out._backward = lambda g: _accumulate(x, g * mask)
    return out


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
    out = Tensor(np.float64(np.dot(w, nll)), _parents=(logits,))

    def _back(g):
        p = np.exp(logp)
        p[np.arange(n), t] -= 1.0
        _accumulate(logits, (float(g)) * p * w[:, None])

    out._backward = _back
    return out


def cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    """Mean negative log-likelihood over unmasked steps.

    ``logits`` is T x V; an all-masked sequence yields 0 with zero gradient.
    """
    n = logits.data.shape[0]
    m = np.ones(n) if mask is None else np.asarray(mask, dtype=np.float64)
    total = m.sum()
    weights = m / total if total > 0 else np.zeros(n)
    return weighted_cross_entropy(logits, targets, weights)


def binary_logistic_loss(logits: Tensor, labels, weights) -> Tensor:
    """Weighted sum of stable binary cross-entropy terms on raw scores."""
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    z = logits.data.reshape(-1)
    if y.shape != z.shape or w.shape != z.shape:
        raise ValueError(f"binary_logistic_loss: {z.shape} logits vs {y.shape} labels / {w.shape} weights")
    loss = np.dot(w, np.logaddexp(0.0, z) - y * z)
    out = Tensor(np.float64(loss), _parents=(logits,))

    def _back(g):
        _accumulate(logits, (float(g) * w * (_sigmoid(z) - y)).reshape(logits.data.shape))

    out._backward = _back
    return out


def smooth_l1(pred: Tensor, target, weights=None) -> Tensor:
    """Huber-style loss: per-coordinate 0.5 d^2 if |d| < 1 else |d| - 0.5.

    Coordinates are summed within a row; rows are combined with ``weights``
    (default: plain sum).
    """
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.data.shape:
        raise ValueError(f"smooth_l1: prediction shape {pred.data.shape} vs target shape {t.shape}")
    d = pred.data - t
    small = np.abs(d) < 1.0
    per = np.where(small, 0.5 * d * d, np.abs(d) - 0.5)
    if pred.data.ndim == 1:
        row_sums = per.sum(keepdims=True)
        w = np.ones(1) if weights is None else np.asarray(weights, dtype=np.float64)
    else:
        row_sums = per.sum(axis=1)
        w = np.ones(row_sums.shape[0]) if weights is None else np.asarray(weights, dtype=np.float64)
    out = Tensor(np.float64(np.dot(w, row_sums)), _parents=(pred,))

    def _back(g):
        local = np.where(small, d, np.sign(d))
        if pred.data.ndim == 1:
            _accumulate(pred, float(g) * w[0] * local)
        else:
            _accumulate(pred, float(g) * local * w[:, None])

    out._backward = _back
    return out


def add_scalars(terms) -> Tensor:
    """Sum a list of scalar loss nodes."""
    terms = list(terms)
    out = Tensor(np.float64(sum(float(t.data) for t in terms)), _parents=tuple(terms))

    def _back(g):
        for t in terms:
            _accumulate(t, np.broadcast_to(g, t.data.shape).copy() if t.data.shape else np.float64(g))

    out._backward = _back
    return out


# ---------------------------------------------------------------------------
# parameter initialization and Adam
# ---------------------------------------------------------------------------

def glorot_init(name: str, fan_in: int, fan_out: int, rng: np.random.Generator,
                shape=None) -> Parameter:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    shape = (fan_in, fan_out) if shape is None else shape
    return Parameter(name, rng.uniform(-limit, limit, size=shape))


class OptimizerState:
    """Adam accumulators, keyed by parameter name."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}


def adam_step(params, state: OptimizerState) -> None:
    """One bias-corrected Adam update; zeroes gradients afterwards."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for p in params:
        g = p.grad
        m = state.m[p.name]
        v = state.v[p.name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.epsilon)
        p.zero_grad()


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def finite_diff_check(forward, params, eps: float = 1e-5,
                      max_coords_per_param: int = 8,
                      rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``forward`` must be a deterministic closure returning a scalar Tensor;
    determinism is verified by evaluating the baseline twice. Up to
    ``max_coords_per_param`` coordinates are probed per parameter.
    """
    if eps <= 0:
        raise ValueError("finite_diff_check: eps must be positive")
    params = list(params)
    base_a = forward().data.item()
    base_b = forward().data.item()
    if base_a != base_b:
        raise ValueError("finite_diff_check: forward closure is not deterministic")

    for p in params:
        p.zero_grad()
    backward(forward())
    analytic = {p.name: p.grad.copy() for p in params}
    for p in params:
        p.zero_grad()

    rng = np.random.default_rng(0) if rng is None else rng
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            f_plus = forward().data.item()
            flat[c] = orig - eps
            f_minus = forward().data.item()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[p.name].reshape(-1)[c]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if rel > worst:
                worst = rel
    return worst
