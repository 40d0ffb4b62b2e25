"""Auxiliary losses and composition of the final training objective.

Every loss here returns an autodiff Tensor (suffix ``_t``): L_LB and L_ED
are one graph node each, with a closed-form VJP into the router
probabilities, and ``compose_t`` adds the terms with generic ops.
Plain-float values come from ``.item()`` on the result. The hard selection
frequencies f_i are always treated as non-differentiable constants;
gradient reaches the router only through the soft probabilities.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .divergence import DEFAULT_EPS, _pair_jsd
from .tensor import Tensor


def _selection_fractions(selections, num_experts: int) -> np.ndarray:
    """f_i: fraction of tokens whose top-K set contains expert i."""
    sel = np.asarray(selections)
    t = sel.shape[0]
    if t == 0:
        raise ValueError("load_balance_loss_t: empty batch")
    counts = np.bincount(sel.reshape(-1), minlength=num_experts).astype(np.float64)
    return counts / t


def load_balance_loss_t(probs: Tensor, selections) -> Tensor:
    """L_LB = N * sum_i f_i * P_i over a [T, N] batch, one graph node.

    P_i is the batch-mean probability of expert i and f_i enters as a
    constant, so d L_LB / d probs[t, i] = N * f_i / T (Switch Transformer).
    """
    t, n = probs.shape
    f = _selection_fractions(selections, n)
    value = (probs.data.sum(axis=0) / t * f).sum() * n  # sum / t: np.mean's bits

    def vjp(g):
        return (np.broadcast_to(g * n * f / t, probs.shape).copy(),)

    return T.node(value, (probs,), vjp)


def _entropy_vjp(p: np.ndarray, g, acc=0.0):
    """VJP of ``divergence._entropy`` at the rows of ``p`` for row cotangents
    ``g``, added to the gradient ``acc`` that ``p`` already has. It
    differentiates the floored form: -g * (log(p + 1e-300) + p / (p + 1e-300)).
    """
    floored = p + 1e-300
    g = (g * -1.0)[:, None]
    return (acc + g * np.log(floored)) + g * p / floored


def expert_divergence_loss_t(probs: Tensor, domains, eps: float = DEFAULT_EPS) -> Tensor:
    """Differentiable L_ED for one MoE layer, one graph node.

    ``probs`` is the [B, L, N] router output and ``domains`` gives one
    label per sequence. Token distributions are averaged to sequence means,
    sequence means to unweighted domain means, and the loss is the mean of
    -ln(JSD + eps) over unique domain pairs. With fewer than two domains the
    loss is a constant zero (divergence-skipped). The VJP differentiates the
    JSD through the entropy (Lin 1991) and spreads each domain mean's
    gradient evenly over its sequences and their tokens.
    """
    domains = list(domains)
    if len(domains) != probs.shape[0]:
        raise ValueError(
            f"expert_divergence_loss_t: {len(domains)} domain labels "
            f"for {probs.shape[0]} sequences"
        )
    groups = {}  # domain -> its rows, domains in first-seen order
    for row, d in enumerate(domains):
        groups.setdefault(d, []).append(row)
    if len(groups) < 2:
        return Tensor(0.0)

    b, l, n = probs.shape
    members = list(groups.values())
    seq_means = probs.data.sum(axis=1) / l  # [B, N]; each mean is sum / count, as np.mean
    means = np.stack([seq_means[rows].sum(axis=0) / len(rows) for rows in members])  # [M_B, N]
    j, k, jsd = _pair_jsd(means)  # one JSD per domain pair j < k
    jsd_eps = jsd + eps
    value = (np.log(jsd_eps) * -1.0).sum() / len(j)

    def vjp(g):
        g_jsd = g / len(j) * -1.0 / jsd_eps
        pj, pk = means[j], means[k]  # [P, N], one row per domain pair
        g_mix = _entropy_vjp((pj + pk) * 0.5, g_jsd) * 0.5  # pj and pk are half the mixture each
        g_half = -g_jsd * 0.5
        g_means = (T._sum_rows(_entropy_vjp(pj, g_half, g_mix), j, len(members))
                   + T._sum_rows(_entropy_vjp(pk, g_half, g_mix), k, len(members)))
        g_seq = np.empty((b, n))
        for rows, g_mean in zip(members, g_means):
            g_seq[rows] = g_mean / len(rows)
        return (np.broadcast_to((g_seq / l)[:, None], probs.shape).copy(),)

    return T.node(value, (probs,), vjp)


def compose_t(l_lm: Tensor, l_lb: Tensor, l_ed: Tensor, alpha: float, beta: float) -> Tensor:
    """L_final = L_LM + alpha*L_LB + beta*L_ED, added left to right.

    Raises ValueError naming the first non-finite component, L_final included.
    """
    total = T.add(T.add(l_lm, T.mul(l_lb, alpha)), T.mul(l_ed, beta))
    for name, part in (("l_lm", l_lm), ("l_lb", l_lb), ("l_ed", l_ed), ("l_final", total)):
        value = part.item()
        if not math.isfinite(value):
            raise ValueError(f"compose_t: non-finite loss component {name}={value}")
    return total
