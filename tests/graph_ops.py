"""Generic graph ops that the library's fused nodes replaced, kept as oracles.

The ops are the engine's former ``sub``, ``div``, ``tlog``, ``matmul``,
``transpose``, ``concat``, ``tmean``, ``take_along_last``, ``softmax_rows``
and ``layernorm``, built on ``tensor.node``. The composites below rebuild,
from them, the router, the top-K gates, L_LB, L_ED, the affine norm, the
layer mean and L_final as the many-node graphs that ``routing.route``,
``tensor.expert_mixture``, ``losses.load_balance_loss_t``,
``losses.expert_divergence_loss_t``, ``tensor.affine_norm``,
``trainer._layer_mean`` and ``losses.compose_t`` each replaced with one node.
"""

import numpy as np

from moediv import losses
from moediv import tensor as T
from moediv.divergence import DEFAULT_EPS
from moediv.tensor import Tensor, as_tensor


def silu(a):
    """SiLU as one graph op, the formula ``expert_mixture`` inlines."""
    sig = 1.0 / (1.0 + np.exp(-a.data))
    return T.node(a.data * sig, (a,), lambda g: (g * (sig * (1.0 + a.data * (1.0 - sig))),))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def vjp(g):
        return T._unbroadcast(g, a.shape), T._unbroadcast(-g, b.shape)

    return T.node(data, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def vjp(g):
        ga = T._unbroadcast(g / b.data, a.shape)
        gb = T._unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return T.node(data, (a, b), vjp)


def tlog(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return T.node(data, (a,), vjp)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        if ga.shape != a.shape:
            ga = T._unbroadcast(ga, a.shape)
        if gb.shape != b.shape:
            gb = T._unbroadcast(gb, b.shape)
        return ga, gb

    return T.node(data, (a, b), vjp)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    data = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def vjp(g):
        return (np.transpose(g, inv),)

    return T.node(data, (a,), vjp)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return T.node(data, tuple(tensors), vjp)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.shape[axis]

    def vjp(g):
        g = np.asarray(g) / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return T.node(data, (a,), vjp)


def take_along_last(a, idx) -> Tensor:
    """Gather along the last axis; indices must be distinct within a row.

    Distinct indices (a top-K selection) make the backward a plain
    assignment into a zero base.
    """
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    T._require_distinct_in_rows(idx, "take_along_last")
    data = np.take_along_axis(a.data, idx, axis=-1)

    def vjp(g):
        out = np.zeros_like(a.data)
        np.put_along_axis(out, idx, g, axis=-1)
        return (out,)

    return T.node(data, (a,), vjp)


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

    return T.node(data, (a,), vjp)


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

    return T.node(xhat, (a,), vjp)


# ---------------------------------------------------------------------------
# the composite graphs of the fused norm, router, gates and loss nodes


def composite_affine_norm(x, gain, bias):
    """The affine norm as ``layernorm``, ``mul`` and ``add``."""
    return T.add(T.mul(layernorm(x), gain), bias)


def composite_route(w_r, x):
    """Router probabilities as ``matmul``, ``transpose`` and ``softmax_rows``."""
    return softmax_rows(matmul(x, transpose(w_r, (1, 0))))


def composite_gates(probs, selected):
    """Top-K gates as a gather, a row sum and a divide."""
    chosen = take_along_last(probs, selected)
    return div(chosen, T.tsum(chosen, axis=-1, keepdims=True))


def composite_load_balance(probs, selections):
    """L_LB = N * sum_i f_i * P_i as ``tmean``, ``mul``, ``tsum`` and ``mul``."""
    n = probs.shape[1]
    f = losses._selection_fractions(selections, n)
    p_mean = tmean(probs, axis=0)
    return T.mul(T.tsum(T.mul(p_mean, f)), float(n))


def composite_layer_mean(terms):
    """The mean of per-layer scalars as ``add``s left to right and a ``div``."""
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return div(total, float(len(terms)))


def composite_final(l_lm, l_lb, l_ed, alpha, beta):
    """L_final = L_LM + alpha*L_LB + beta*L_ED as ``add``s and ``mul``s."""
    return T.add(T.add(l_lm, T.mul(l_lb, alpha)), T.mul(l_ed, beta))


def composite_entropy(p):
    # softmax means are strictly positive, but closed-form probes may pass
    # exact one-hots; the 1e-300 floor keeps 0*log(0) at 0 without moving
    # any representable positive probability
    return T.mul(T.tsum(T.mul(p, tlog(T.add(p, 1e-300))), axis=-1), -1.0)


def composite_expert_divergence(probs, domains, eps=DEFAULT_EPS):
    """L_ED of [B, L, N] ``probs`` through sequence means, domain means,
    pair rows and entropies, each a graph node; zero below two domains."""
    domains = list(domains)
    unique = list(dict.fromkeys(domains))
    if len(unique) < 2:
        return Tensor(0.0)

    seq_means = tmean(probs, axis=1)  # [B, N]
    darr = np.asarray(domains)
    means = concat(
        [tmean(T.take_rows(seq_means, np.nonzero(darr == d)[0]), axis=0, keepdims=True)
         for d in unique],
        axis=0,
    )  # [M_B, N]
    j, k = np.triu_indices(len(unique), 1)
    pj, pk = T.take_rows(means, j), T.take_rows(means, k)  # [P, N]
    m = T.mul(T.add(pj, pk), 0.5)
    halves = T.mul(T.add(composite_entropy(pj), composite_entropy(pk)), 0.5)
    jsd = sub(composite_entropy(m), halves)
    return tmean(T.mul(tlog(T.add(jsd, eps)), -1.0))
