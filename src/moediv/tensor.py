"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small: exactly the operations the toy MoE transformer needs,
with its heavy steps as fused ops that each make one graph node with a
hand-written VJP. ``node`` builds such a node, so the router and the
auxiliary losses make their own. Everything runs in 64-bit floats so
gradient checks can use tight tolerances. Natural logarithms throughout.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

_grad_enabled = True
_TILE = 1 << 15  # values per no-grad fused-op tile and AdamW slice (256 KB): stays in cache


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

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(parents) -> bool:
    """Whether an op on ``parents`` becomes a graph node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def node(data, parents, vjp) -> Tensor:
    """A Tensor of ``data``; a graph node over ``parents`` when recording.

    ``vjp(g)`` maps the gradient of the output to one gradient per parent,
    in order; a None entry gives that parent nothing.
    """
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

    return node(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return node(data, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return node(data, (a, b), vjp)


# ---------------------------------------------------------------------------
# shape and reduction


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return node(data, (a,), vjp)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return node(data, (a,), vjp)


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

    return node(data, (a,), vjp)


def _require_distinct_in_rows(idx, op):
    """Refuse an index array with a repeat along its last axis."""
    s = np.sort(idx, axis=-1)
    if (s[..., 1:] == s[..., :-1]).any():
        raise ValueError(f"{op}: repeated index within a row")


# ---------------------------------------------------------------------------
# neural-net primitives


def require_finite(op, **tensors):
    """Raise ValueError naming ``op`` and the first of ``tensors`` that holds a
    non-finite value. A fused op checks its inputs before its first product,
    so this error, not a numpy warning from inside the product, reports them."""
    for name, a in tensors.items():
        if not np.isfinite(a.data).all():
            raise ValueError(f"{op}: non-finite {name}")


def _tile(parents, whole, part, *widths):
    """Tile size of a fused op: ``part`` for a no-grad call, else ``whole``.

    A recorded call runs one tile and saves it for its VJP. So does any call
    with an output width in ``widths`` that is not a multiple of 8: there
    OpenBLAS's kernel for small products rounds unlike its kernel for large
    ones, so a tile's rows would differ in the last bits from the same rows
    of the whole product. Where other widths do that, the op picks ``part``
    by width: ``causal_attention`` tiles d / H >= 32 by whole sequences.
    """
    return whole if _recording(parents) or any(w % 8 for w in widths) else part


def _tiles(lo, hi, size):
    """[a, b) ranges of ``size`` over [lo, hi); a one-row remainder joins the one
    before it, as numpy's one-row product (a GEMV) rounds unlike a GEMM's rows."""
    if hi - lo <= size + 1:
        return ((lo, hi),)
    cuts = list(range(lo + size, hi - 1, size))
    return zip([lo] + cuts, cuts + [hi])


def affine_norm(x, gain, bias, eps=1e-5) -> Tensor:
    """LayerNorm of each row of [T, d] ``x`` times ``gain`` plus ``bias``, one graph node.

    ``gain`` and ``bias`` are [d]. Each row is centred on its mean and scaled
    by 1 / sqrt(var + eps), var its population variance. A no-grad call walks
    tiles of ``_TILE`` // d rows and normalises each in place in its slice of
    the output, so no full-size temporary exists; a recorded call runs one
    tile and saves the normalised rows. The row sums and the VJP keep the op
    order of ``np.mean``, ``np.var`` and a layernorm, mul and add graph.
    """
    x, gain, bias = parents = as_tensor(x), as_tensor(gain), as_tensor(bias)
    t, d = x.shape
    for name, p in (("gain", gain), ("bias", bias)):
        if p.shape != (d,):
            raise ValueError(f"affine_norm: {name} has shape {p.shape}, expected ({d},)")
    record = _recording(parents)
    out = np.empty((t, d))
    for a, b in _tiles(0, t, max(1, t if record else _TILE // d)):
        o = out[a:b]
        np.subtract(x.data[a:b], x.data[a:b].sum(axis=1, keepdims=True) / d, out=o)
        inv = 1.0 / np.sqrt((o * o).sum(axis=1, keepdims=True) / d + eps)
        o *= inv
        xhat = o.copy() if record else None
        o *= gain.data
        o += bias.data

    def vjp(g):
        g_xhat = g * gain.data
        gm = g_xhat.mean(axis=-1, keepdims=True)
        gx = (g_xhat * xhat).mean(axis=-1, keepdims=True)
        return inv * (g_xhat - gm - xhat * gx), (g * xhat).sum(axis=0), g.sum(axis=0)

    return node(out, parents, vjp)


def next_token_nll(hidden, lm_head, tokens) -> Tensor:
    """Mean next-token negative log-likelihood of a [B, L] batch, one graph node.

    ``hidden`` is [B*L, d], one row per position of ``tokens``, and
    ``lm_head`` is [d, V]. Row s*L + p predicts tokens[s, p + 1] by the
    row-softmax of its logits ``hidden @ lm_head``; a sequence's last row has
    no target. Natural log. A no-grad call walks tiles of ``_TILE`` // V
    rows, so no [B*L, V] logits array exists; a recorded call (or one at V
    not a multiple of 8, see ``_tile``) runs one tile and saves its shifted
    logits. The VJP leaves zero logit gradients at the last rows, and the
    head's weight gradient spans all B*L rows.
    """
    hidden, lm_head = parents = as_tensor(hidden), as_tensor(lm_head)
    tokens = np.asarray(tokens, dtype=np.intp)
    b, l = tokens.shape
    t, v = b * l, lm_head.shape[1]
    if l < 2:
        raise ValueError("next_token_nll: needs sequences of length >= 2")
    if hidden.shape[0] != t:
        raise ValueError(f"next_token_nll: expected {t} rows, got {hidden.shape[0]}")
    if tokens[:, 1:].min() < 0 or tokens[:, 1:].max() >= v:
        raise ValueError("next_token_nll: target id out of range")
    flat = tokens.reshape(-1)
    targets = np.concatenate((flat[1:], flat[:1]))  # a last row's target is unused
    logp = np.empty((b, l))
    for a, c in _tiles(0, t, max(1, _tile(parents, t, _TILE // v, v))):
        z = hidden.data[a:c] @ lm_head.data
        z -= z.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1))
        logp.reshape(-1)[a:c] = z[np.arange(c - a), targets[a:c]] - lse

    def vjp(g):
        probs = z - lse[:, None]
        np.exp(probs, out=probs)
        probs[np.arange(t), targets] -= 1.0
        probs *= float(g) / (t - b)
        probs.reshape(b, l, v)[:, -1] = 0.0
        return probs @ lm_head.data.T, hidden.data.T @ probs

    # the mean of a contiguous copy of the kept rows' NLL, one [B*(L-1)] vector,
    # as sum / count: np.mean's arithmetic
    return node(-(logp[:, :-1].reshape(-1).sum() / (t - b)), parents, vjp)


@functools.lru_cache(maxsize=8)
def _causal_mask(l):
    """Read-only [L, L] additive mask: -1e30 above the diagonal, else 0."""
    mask = np.where(np.arange(l)[:, None] < np.arange(l), -1e30, 0.0)
    mask.flags.writeable = False
    return mask


def causal_attention(xn, wq, wk, wv, wo, batch, num_heads) -> Tensor:
    """Multi-head causal self-attention over ``batch`` sequences, one graph node.

    ``xn`` is [B*L, d] and ``wq``, ``wk``, ``wv``, ``wo`` are [d, d]; each of
    ``num_heads`` heads attends with its d / H columns of q, k and v to earlier
    and equal positions. A no-grad call walks groups of a few sequences: it
    projects q, k and v for the group's rows only, runs tiles of 32 query rows
    [r0, r1) (whole sequences at d / H >= 32), each scored only against keys
    [0, r1), into the group's merged heads, and writes their product with
    ``wo`` into the group's rows of the output. So it holds one tile of the
    [B, H, L, L] scores and no [B*L, d] array but its output. A recorded call
    runs one tile of everything and saves q, k, v, the weights and the merged
    heads (a no-grad call at d / H not a multiple of 8 also runs one tile, see
    ``_tile``). The scores become the weights in place. Returns [B*L, d].
    Raises ValueError on a non-finite input or score.
    """
    xn, wq, wk, wv, wo = parents = tuple(as_tensor(a) for a in (xn, wq, wk, wv, wo))
    require_finite("causal_attention", xn=xn, wq=wq, wk=wk, wv=wv, wo=wo)
    t, d = xn.shape
    l, dh = t // batch, d // num_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(a):  # [n*L, d] -> [n, H, L, dh]
        return np.transpose(a.reshape(-1, l, num_heads, dh), (0, 2, 1, 3))

    def merge(a):  # [B, H, L, dh] -> [B*L, d]
        return np.transpose(a, (0, 2, 1, 3)).reshape(t, d)

    mask = _causal_mask(l)
    # key prefixes r1 that are multiples of 32 (or L) add only exact zeros
    # less than whole rows do, to the row sums and to the K loop of att @ v; at
    # d / H >= 32 a 32-row tile's scores round unlike the whole q @ k.T's
    part = 32 if dh < 32 else l
    rows, seqs = _tile(parents, (l, batch), (part, max(1, _TILE // (part * num_heads * l))), dh)
    data = np.empty((t, d))
    for b0, b1 in _tiles(0, batch, seqs):
        x = xn.data[b0 * l:b1 * l]
        q, k, v = (heads(x @ w.data) for w in (wq, wk, wv))
        merged = np.empty(x.shape)
        out = heads(merged)  # att @ v lands in the merged heads' layout
        for r0, r1 in _tiles(0, l, rows):
            att = np.matmul(q[:, :, r0:r1], np.swapaxes(k[:, :, :r1], -1, -2))
            att *= scale
            att += mask[r0:r1, :r1]
            if not np.all(np.isfinite(att)):
                raise ValueError("causal_attention: non-finite attention score")
            att -= att.max(axis=-1, keepdims=True)
            np.exp(att, out=att)
            att /= att.sum(axis=-1, keepdims=True)
            np.matmul(att, v[:, :, :r1], out=out[:, :, r0:r1])
        np.matmul(merged, wo.data, out=data[b0 * l:b1 * l])

    def vjp(g):
        g_out = heads(g @ wo.data.T)
        g_s = np.matmul(g_out, np.swapaxes(v, -1, -2))
        g_s -= (g_s * att).sum(axis=-1, keepdims=True)
        g_s *= att
        g_s *= scale
        g_q = merge(np.matmul(g_s, k))
        g_k = merge(np.transpose(np.matmul(np.swapaxes(q, -1, -2), g_s), (0, 1, 3, 2)))
        g_v = merge(np.matmul(np.swapaxes(att, -1, -2), g_out))
        # the q, k and v terms add up in the order of the generic-op graph's backward
        g_xn = (g_q @ wq.data.T + g_k @ wk.data.T) + g_v @ wv.data.T
        return (g_xn, xn.data.T @ g_q, xn.data.T @ g_k, xn.data.T @ g_v, merged.T @ g)

    return node(data, parents, vjp)


def expert_mixture(x, probs, selected, experts) -> Tensor:
    """Sparse mixture of SiLU-gated MLP experts as one graph node.

    ``x`` is [T, d], ``probs`` the [T, N] router output and ``selected`` an
    int array [T, K] of expert indices, distinct within a row. ``experts``
    [N, 3, d, m] holds expert i's w_gate [d, m] at ``experts[i, 0]``, its
    w_up [d, m] at ``experts[i, 1]`` and its w_down [m, d] as the same m*d
    values as ``experts[i, 2]``. Returns y [T, d] with

        y[t] = sum_k gates[t, k] * E_{selected[t, k]}(x[t]),
        gates[t, k] = probs[t, selected[t, k]] / sum_j probs[t, selected[t, j]],
        E(x) = (silu(x w_gate) * (x w_up)) w_down.

    The (token, k) slots are sorted by expert once, stably, so each expert
    runs on one contiguous slice of slots holding its tokens in ascending
    order (dropless grouped dispatch as in MegaBlocks). A no-grad call walks
    each slice in tiles of ``_TILE`` // m rows, so its temporaries stay in
    cache; a recorded call runs each slice as one tile and saves it for the
    backward (a no-grad call at m or d not a multiple of 8 also runs one
    tile, see ``_tile``). A token appears at most once per expert, so each gated expert
    output is added into its token rows by plain assignment, expert by
    expert. Selections are constants of the backward pass: ``probs`` gets
    gradient only at its selected entries, through the renormalised gates,
    and the gradient slices of experts that get no token are zero.
    """
    x, probs, experts = as_tensor(x), as_tensor(probs), as_tensor(experts)
    parents = (x, probs, experts)
    selected = np.asarray(selected, dtype=np.intp)
    _require_distinct_in_rows(selected, "expert_mixture")
    t, k = selected.shape
    n, _, d, m = experts.shape
    counts = np.bincount(selected.reshape(-1), minlength=n)
    if counts.size != n:
        raise ValueError("expert_mixture: expert index out of range")
    token_rows = np.arange(t)[:, None]
    chosen = probs.data[token_rows, selected]
    norm = chosen.sum(axis=-1, keepdims=True)
    gates = chosen / norm
    bounds = [0, *np.cumsum(counts).tolist()]
    order = np.argsort(selected.reshape(-1), kind="stable")  # slot t * K + k
    slot_tokens = order // k
    slot_gates = gates.reshape(-1)[order][:, None]
    record = _recording(parents)
    rows = max(1, _tile(parents, t * k, _TILE // m, m, d))

    def weights(w, i):  # expert i's (w_gate, w_up, w_down), as views of w
        return w[i, 0], w[i, 1], w[i, 2].reshape(m, d)

    data = np.zeros((t, x.shape[1]))
    saved = []
    with np.errstate(over="ignore"):  # exp(-pre) overflows to inf for pre < ~-709: sig is then 0
        for i, lo, hi in zip(range(n), bounds[:-1], bounds[1:]):
            w_gate, w_up, w_down = weights(experts.data, i)
            for a, b in _tiles(lo, hi, rows):
                tokens = slot_tokens[a:b]
                xi = x.data[tokens]
                pre = xi @ w_gate
                sig = 1.0 / (1.0 + np.exp(-pre))
                act = pre * sig
                up = xi @ w_up
                h = act * up
                expert_out = h @ w_down
                data[tokens] += expert_out * slot_gates[a:b]
                if record:
                    saved.append((i, a, b, xi, pre, sig, act, up, h, expert_out))

    def vjp(g):
        g_x = np.zeros_like(x.data)
        g_gates = np.empty(t * k)
        g_experts = np.zeros(experts.shape)
        for i, lo, hi, xi, pre, sig, act, up, h, expert_out in saved:
            w_gate, w_up, w_down = weights(experts.data, i)
            g_w_gate, g_w_up, g_w_down = weights(g_experts, i)
            tokens = slot_tokens[lo:hi]
            g_rows = g[tokens]
            g_gates[order[lo:hi]] = (expert_out * g_rows).sum(axis=1)
            go = g_rows * slot_gates[lo:hi]
            gh = go @ w_down.T
            g_pre = gh * up * (sig * (1.0 + pre * (1.0 - sig)))
            g_up = gh * act
            g_x[tokens] += g_pre @ w_gate.T + g_up @ w_up.T
            g_w_gate[...] = xi.T @ g_pre
            g_w_up[...] = xi.T @ g_up
            g_w_down[...] = h.T @ go
        # d gates / d chosen: the quotient rule, with the norm's term summed
        # over the row, in the order of a gather, sum and divide graph
        g_gates = g_gates.reshape(t, k)
        g_norm = (-g_gates * chosen / (norm * norm)).sum(axis=1, keepdims=True)
        g_probs = np.zeros_like(probs.data)
        g_probs[token_rows, selected] = g_gates / norm + g_norm
        return g_x, g_probs, g_experts

    return node(data, parents, vjp)


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

    Returns a map {leaf Tensor: gradient ndarray}. The root must be
    scalar. Gradients of shared subexpressions accumulate additively; the
    traversal order is a function of graph construction order, so identical
    graphs give bit-identical results.
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
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return leaf_grads


def grad_check(f, params, h=1e-5) -> dict:
    """Max relative error between backward() and central finite differences.

    ``f`` is a zero-argument callable returning a dict of named scalar
    Tensors built from ``params`` (a list of requires_grad leaf tensors).
    Each parameter coordinate is perturbed in place by ±h, and one call of
    ``f`` per perturbation, made under ``no_grad``, serves every name. The
    coordinate is restored even when ``f`` raises.
    Returns {name: max relative error}.
    """
    roots = f()
    analytic = {name: backward(root) for name, root in roots.items()}
    worst = dict.fromkeys(roots, 0.0)
    with no_grad():
        for p in params:
            flat = p.data.reshape(-1)
            aflat = {
                name: grads[p].reshape(-1) if p in grads else np.zeros(flat.size)
                for name, grads in analytic.items()
            }
            for i in range(flat.size):
                orig = flat[i]
                try:
                    flat[i] = orig + h
                    fp = {name: t.item() for name, t in f().items()}
                    flat[i] = orig - h
                    fm = {name: t.item() for name, t in f().items()}
                finally:
                    flat[i] = orig
                for name in roots:
                    numeric = (fp[name] - fm[name]) / (2.0 * h)
                    a = aflat[name][i]
                    denom = max(abs(a), abs(numeric), 1e-8)
                    worst[name] = max(worst[name], abs(a - numeric) / denom)
    return worst
