"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small: exactly the operations the toy MoE transformer and its
losses need. Everything runs in 64-bit floats so gradient checks can use
tight tolerances. Natural logarithms throughout.
"""

from __future__ import annotations

import contextlib

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 ndarray plus the bookkeeping for reverse-mode autodiff.

    Treat the data as immutable once the tensor participates in a graph;
    only the optimizer mutates leaf parameters, between graphs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(parents) -> bool:
    """Whether an op on ``parents`` becomes a graph node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if _recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(data, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _make(data, (a, b), vjp)


def tlog(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return _make(data, (a,), vjp)


def silu(a) -> Tensor:
    a = as_tensor(a)
    sig = 1.0 / (1.0 + np.exp(-a.data))
    data = a.data * sig

    def vjp(g):
        return (g * (sig * (1.0 + a.data * (1.0 - sig))),)

    return _make(data, (a,), vjp)


# ---------------------------------------------------------------------------
# linear algebra and shape


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        if ga.shape != a.shape:
            ga = _unbroadcast(ga, a.shape)
        if gb.shape != b.shape:
            gb = _unbroadcast(gb, b.shape)
        return ga, gb

    return _make(data, (a, b), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return _make(data, (a,), vjp)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    data = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def vjp(g):
        return (np.transpose(g, inv),)

    return _make(data, (a,), vjp)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(tensors), vjp)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(data, (a,), vjp)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.shape[axis]

    def vjp(g):
        g = np.asarray(g) / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(data, (a,), vjp)


# ---------------------------------------------------------------------------
# indexing


def _sum_rows(values, idx, num_rows) -> np.ndarray:
    """Zero base of ``num_rows`` rows with out[idx[j]] += values[j].

    ``idx`` holds non-negative row numbers. Unique ones are a plain
    assignment. Repeated ones go through one weighted ``bincount`` over
    (row, column) cells, which adds each cell's terms in index order: the
    same bits as adding them one by one.
    """
    tail = values.shape[idx.ndim:]
    width = int(np.prod(tail))
    idx = idx.reshape(-1)
    values = values.reshape(idx.size, width)
    if np.bincount(idx, minlength=num_rows).max(initial=0) <= 1:
        out = np.zeros((num_rows, width))
        out[idx] = values
    else:
        cells = (idx[:, None] * width + np.arange(width)).reshape(-1)
        out = np.bincount(cells, weights=values.reshape(-1), minlength=num_rows * width)
    return out.reshape((num_rows,) + tail)


def take_rows(a, idx) -> Tensor:
    """Select rows along axis 0 (``idx`` of any shape); backward sums repeats."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]

    def vjp(g):
        return (_sum_rows(g, idx, a.shape[0]),)

    return _make(data, (a,), vjp)


def _require_distinct_in_rows(idx, op):
    """Refuse an index array with a repeat along its last axis."""
    if idx.shape[-1] > 1 and np.any(np.diff(np.sort(idx, axis=-1), axis=-1) == 0):
        raise ValueError(f"{op}: repeated index within a row")


def take_along_last(a, idx) -> Tensor:
    """Gather along the last axis; indices must be distinct within a row.

    Distinct indices (a top-K selection) make the backward a plain
    assignment into a zero base.
    """
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    _require_distinct_in_rows(idx, "take_along_last")
    data = np.take_along_axis(a.data, idx, axis=-1)

    def vjp(g):
        out = np.zeros_like(a.data)
        np.put_along_axis(out, idx, g, axis=-1)
        return (out,)

    return _make(data, (a,), vjp)


# ---------------------------------------------------------------------------
# neural-net primitives


def softmax_rows(a) -> Tensor:
    """Softmax along the last axis, computed with max-subtraction.

    Raises on non-finite input; output rows sum to 1.
    """
    a = as_tensor(a)
    if not np.all(np.isfinite(a.data)):
        raise ValueError("softmax_rows: non-finite input")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        return (data * (g - dot),)

    return _make(data, (a,), vjp)


def layernorm(a, eps=1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    a = as_tensor(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - xhat * gx),)

    return _make(xhat, (a,), vjp)


def cross_entropy_mean(logits, targets) -> Tensor:
    """Mean negative log-likelihood of ``targets`` under row-softmax of ``logits``.

    ``logits`` is [T, V]; ``targets`` is an int array of length T with values
    in [0, V). Natural log.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.intp)
    t, v = logits.shape
    if targets.shape != (t,):
        raise ValueError(f"cross_entropy_mean: expected {t} targets, got {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ValueError("cross_entropy_mean: target id out of range")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    logp = shifted[np.arange(t), targets] - lse
    data = -logp.mean()

    def vjp(g):
        probs = np.exp(shifted - lse[:, None])
        probs[np.arange(t), targets] -= 1.0
        return (probs * (float(g) / t),)

    return _make(data, (logits,), vjp)


def expert_mixture(x, gates, selected, experts) -> Tensor:
    """Sparse mixture of SiLU-gated MLP experts as one graph node.

    ``x`` is [T, d], ``gates`` [T, K] and ``selected`` an int array [T, K]
    of expert indices, distinct within a row; ``experts`` lists one
    (w_gate [d, m], w_up [d, m], w_down [m, d]) triple per expert. Returns
    y [T, d] with

        y[t] = sum_k gates[t, k] * E_{selected[t, k]}(x[t]),
        E(x) = (silu(x w_gate) * (x w_up)) w_down.

    The (token, k) slots are sorted by expert once, stably, so each expert
    runs on one contiguous slice of slots holding its tokens in ascending
    order (dropless grouped dispatch as in MegaBlocks). A token appears at
    most once per expert, so each gated expert output is added into its
    token rows by plain assignment, expert by expert. Selections are
    constants of the backward pass; experts that get no token get no
    gradient.
    """
    x, gates = as_tensor(x), as_tensor(gates)
    experts = [tuple(as_tensor(w) for w in triple) for triple in experts]
    parents = (x, gates) + tuple(w for triple in experts for w in triple)
    selected = np.asarray(selected, dtype=np.intp)
    _require_distinct_in_rows(selected, "expert_mixture")
    t, k = selected.shape
    counts = np.bincount(selected.reshape(-1), minlength=len(experts))
    if counts.size != len(experts):
        raise ValueError("expert_mixture: expert index out of range")
    bounds = np.concatenate(([0], np.cumsum(counts)))
    order = np.argsort(selected.reshape(-1), kind="stable")  # slot t * K + k
    slot_tokens = order // k
    slot_gates = gates.data.reshape(-1)[order][:, None]
    record = _recording(parents)

    data = np.zeros((t, x.shape[1]))
    saved = []
    for (w_gate, w_up, w_down), lo, hi in zip(experts, bounds[:-1], bounds[1:]):
        rows = slot_tokens[lo:hi]
        xi = x.data[rows]
        pre = xi @ w_gate.data
        sig = 1.0 / (1.0 + np.exp(-pre))
        act = pre * sig
        up = xi @ w_up.data
        h = act * up
        expert_out = h @ w_down.data
        data[rows] += expert_out * slot_gates[lo:hi]
        if record:
            saved.append((xi, pre, sig, act, up, h, expert_out))

    def vjp(g):
        g_x = np.zeros_like(x.data)
        g_gates = np.empty(t * k)
        g_weights = []
        for (w_gate, w_up, w_down), lo, hi, (xi, pre, sig, act, up, h, expert_out) in zip(
                experts, bounds[:-1], bounds[1:], saved):
            if lo == hi:
                g_weights += [None, None, None]
                continue
            rows = slot_tokens[lo:hi]
            g_rows = g[rows]
            g_gates[order[lo:hi]] = (expert_out * g_rows).sum(axis=1)
            go = g_rows * slot_gates[lo:hi]
            gh = go @ w_down.data.T
            g_pre = gh * up * (sig * (1.0 + pre * (1.0 - sig)))
            g_up = gh * act
            g_x[rows] += g_pre @ w_gate.data.T + g_up @ w_up.data.T
            g_weights += [xi.T @ g_pre, xi.T @ g_up, h.T @ go]
        return (g_x, g_gates.reshape(t, k), *g_weights)

    return _make(data, parents, vjp)


# ---------------------------------------------------------------------------
# reverse pass


def _toposort(root: Tensor):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> dict:
    """Propagate d(root)/d(leaf) to every requires_grad leaf.

    Returns a map {leaf Tensor: gradient ndarray} and also stores each
    gradient on ``leaf.grad``. The root must be scalar. Gradients of shared
    subexpressions accumulate additively; the traversal order is a function
    of graph construction order, so identical graphs give bit-identical
    results.
    """
    if root.data.size != 1:
        raise ValueError("backward: root must be a scalar")
    order = _toposort(root)
    grads = {id(root): np.ones_like(root.data)}
    leaf_grads = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                leaf_grads[node] = g
                node.grad = g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return leaf_grads


def grad_check(f, params, h=1e-5) -> float:
    """Max relative error between backward() and central finite differences.

    ``f`` is a zero-argument callable returning a scalar Tensor built from
    ``params`` (a list of requires_grad leaf tensors). Each parameter
    coordinate is perturbed in place by ±h.
    """
    root = f()
    analytic = backward(root)
    worst = 0.0
    for p in params:
        a = analytic.get(p)
        if a is None:
            a = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f().item()
            flat[i] = orig - h
            fm = f().item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            denom = max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst
