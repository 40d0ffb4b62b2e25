"""Auxiliary losses and composition of the final training objective.

Every loss here builds autodiff graph nodes (suffix ``_t``); plain-float
values come from ``.item()`` on the result. The hard selection frequencies
f_i are always treated as non-differentiable constants; gradient reaches the
router only through the soft probabilities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .divergence import DEFAULT_EPS
from .tensor import Tensor


@dataclass
class LossBreakdown:
    l_lm: float
    l_lb: float
    l_ed: float
    l_final: float
    alpha: float
    beta: float


def _selection_fractions(selections, num_experts: int) -> np.ndarray:
    """f_i: fraction of tokens whose top-K set contains expert i."""
    sel = np.asarray(selections)
    t = sel.shape[0]
    if t == 0:
        raise ValueError("load_balance_loss_t: empty batch")
    counts = np.bincount(sel.reshape(-1), minlength=num_experts).astype(np.float64)
    return counts / t


def load_balance_loss_t(probs: Tensor, selections, num_experts: int) -> Tensor:
    """L_LB = N * sum_i f_i * P_i over a [T, N] batch; f_i enters as a constant."""
    f = _selection_fractions(selections, num_experts)
    p_mean = T.tmean(probs, axis=0)
    return T.mul(T.tsum(T.mul(p_mean, f)), float(num_experts))


def _entropy_t(p: Tensor) -> Tensor:
    # softmax means are strictly positive, but closed-form probes may pass
    # exact one-hots; the 1e-300 floor keeps 0*log(0) at 0 without moving
    # any representable positive probability
    return T.mul(T.tsum(T.mul(p, T.tlog(T.add(p, 1e-300))), axis=-1), -1.0)


def expert_divergence_loss_t(
    probs: Tensor,
    num_sequences: int,
    seq_len: int,
    domains,
    eps: float = DEFAULT_EPS,
):
    """Differentiable L_ED for one MoE layer.

    ``probs`` is the [B*L, N] router output with sequences packed in order;
    ``domains`` gives one label per sequence. Token distributions are
    averaged to sequence means, sequence means to unweighted domain means,
    and the loss is the mean of -ln(JSD + eps) over unique domain pairs.

    Returns (loss Tensor, number of distinct domains). With fewer than two
    domains the loss is a constant zero (divergence-skipped).
    """
    domains = list(domains)
    if len(domains) != num_sequences:
        raise ValueError("one domain label per sequence required")
    unique = []
    for d in domains:
        if d not in unique:
            unique.append(d)
    m_b = len(unique)
    if m_b < 2:
        return Tensor(0.0), m_b

    n_experts = probs.shape[-1]
    seq_means = T.tmean(
        T.reshape(probs, (num_sequences, seq_len, n_experts)), axis=1
    )  # [B, N]
    domain_rows = []
    darr = np.asarray(domains)
    for d in unique:
        idx = np.nonzero(darr == d)[0]
        rows = T.take_rows(seq_means, idx)
        domain_rows.append(T.tmean(rows, axis=0, keepdims=True))
    means = T.concat(domain_rows, axis=0)  # [M_B, N]

    terms = []
    for j, k in itertools.combinations(range(m_b), 2):
        pj = T.take_rows(means, np.array([j]))
        pk = T.take_rows(means, np.array([k]))
        m = T.mul(T.add(pj, pk), 0.5)
        jsd = T.sub(
            _entropy_t(m),
            T.mul(T.add(_entropy_t(pj), _entropy_t(pk)), 0.5),
        )
        terms.append(T.mul(T.tlog(T.add(jsd, eps)), -1.0))
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    return T.reshape(T.div(total, float(len(terms))), ()), m_b


def compose_t(l_lm: Tensor, l_lb: Tensor, l_ed: Tensor, alpha: float, beta: float):
    """L_final = L_LM + alpha*L_LB + beta*L_ED; returns (total Tensor, LossBreakdown).

    Raises ValueError naming the first non-finite component, L_final included.
    """
    parts = {"l_lm": l_lm.item(), "l_lb": l_lb.item(), "l_ed": l_ed.item()}
    parts["l_final"] = parts["l_lm"] + alpha * parts["l_lb"] + beta * parts["l_ed"]
    for name, value in parts.items():
        if not math.isfinite(value):
            raise ValueError(f"compose_t: non-finite loss component {name}={value}")
    total = T.add(l_lm, T.add(T.mul(l_lb, alpha), T.mul(l_ed, beta)))
    return total, LossBreakdown(**parts, alpha=alpha, beta=beta)
