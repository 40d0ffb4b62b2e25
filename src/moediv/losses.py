"""Auxiliary losses and composition of the final training objective.

Every loss here builds autodiff graph nodes (suffix ``_t``); plain-float
values come from ``.item()`` on the result. The hard selection frequencies
f_i are always treated as non-differentiable constants; gradient reaches the
router only through the soft probabilities.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .divergence import DEFAULT_EPS
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
    """L_LB = N * sum_i f_i * P_i over a [T, N] batch; f_i enters as a constant."""
    n = probs.shape[1]
    f = _selection_fractions(selections, n)
    p_mean = T.tmean(probs, axis=0)
    return T.mul(T.tsum(T.mul(p_mean, f)), float(n))


def _entropy_t(p: Tensor) -> Tensor:
    # softmax means are strictly positive, but closed-form probes may pass
    # exact one-hots; the 1e-300 floor keeps 0*log(0) at 0 without moving
    # any representable positive probability
    return T.mul(T.tsum(T.mul(p, T.tlog(T.add(p, 1e-300))), axis=-1), -1.0)


def expert_divergence_loss_t(probs: Tensor, domains, eps: float = DEFAULT_EPS) -> Tensor:
    """Differentiable L_ED for one MoE layer.

    ``probs`` is the [B, L, N] router output and ``domains`` gives one
    label per sequence. Token distributions are averaged to sequence means,
    sequence means to unweighted domain means, and the loss is the mean of
    -ln(JSD + eps) over unique domain pairs. With fewer than two domains the
    loss is a constant zero (divergence-skipped).
    """
    domains = list(domains)
    if len(domains) != probs.shape[0]:
        raise ValueError(
            f"expert_divergence_loss_t: {len(domains)} domain labels "
            f"for {probs.shape[0]} sequences"
        )
    unique = list(dict.fromkeys(domains))
    if len(unique) < 2:
        return Tensor(0.0)

    seq_means = T.tmean(probs, axis=1)  # [B, N]
    darr = np.asarray(domains)
    means = T.concat(
        [T.tmean(T.take_rows(seq_means, np.nonzero(darr == d)[0]), axis=0, keepdims=True)
         for d in unique],
        axis=0,
    )  # [M_B, N]
    j, k = np.triu_indices(len(unique), 1)
    pj, pk = T.take_rows(means, j), T.take_rows(means, k)  # [P, N]
    m = T.mul(T.add(pj, pk), 0.5)
    jsd = T.sub(_entropy_t(m), T.mul(T.add(_entropy_t(pj), _entropy_t(pk)), 0.5))
    return T.tmean(T.mul(T.tlog(T.add(jsd, eps)), -1.0))


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
