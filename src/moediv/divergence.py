"""Entropy, KL and Jensen-Shannon divergence over expert routing distributions,
plus the inter/intra decomposition of total routing diversity and the
second-order proportionality check between the pairwise-JSD sum and the
inter-domain component.

All values are in nats and computed in plain numpy. The differentiable
training loss L_ED lives in :mod:`moediv.losses`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

DEFAULT_EPS = 1e-8


def _validate_dist(p, name="p"):
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError(f"{name}: negative probability entry")
    if abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"{name}: entries sum to {p.sum()}, not 1")
    return p


def entropy(p) -> float:
    """Shannon entropy -sum p ln p, with 0 ln 0 = 0."""
    return _entropy(_validate_dist(p))


def _entropy(p) -> float:  # entropy of a validated distribution
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def kl(p, q) -> float:
    """KL divergence sum p ln(p/q).

    Returns +inf when p puts mass where q has none (documented marker, never
    raises for that case).
    """
    return _kl(_validate_dist(p, "p"), _validate_dist(q, "q"))


def _kl(p, q) -> float:  # kl of two validated distributions
    mask = p > 0
    if np.any(q[mask] == 0):
        return float("inf")
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def jsd_pair(p, q) -> float:
    """Jensen-Shannon divergence with weights (1/2, 1/2).

    Computed in entropy form H(m) - H(p)/2 - H(q)/2, which is finite for any
    pair of valid distributions and lies in [0, ln 2].
    """
    p = _validate_dist(p, "p")
    q = _validate_dist(q, "q")
    m = 0.5 * (p + q)
    return _entropy(m) - 0.5 * _entropy(p) - 0.5 * _entropy(q)


def generalized_jsd(dists, weights) -> float:
    """Weighted-mean KL from each distribution to the weighted mean.

    Defined as sum_k pi_k KL(p_k || mean); equal (to float precision) to the
    entropy form H(mean) - sum_k pi_k H(p_k), see
    :func:`generalized_jsd_entropy_form`.
    """
    dists = [_validate_dist(d, f"dists[{i}]") for i, d in enumerate(dists)]
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {weights.sum()}, not 1")
    mean = sum(w * d for w, d in zip(weights, dists))
    return float(sum(w * _kl(d, mean) for w, d in zip(weights, dists) if w > 0))


def generalized_jsd_entropy_form(dists, weights) -> float:
    """Entropy form of the generalized JSD: H(mean) - mean of entropies."""
    dists = [_validate_dist(d, f"dists[{i}]") for i, d in enumerate(dists)]
    weights = np.asarray(weights, dtype=np.float64)
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {weights.sum()}, not 1")
    mean = sum(w * d for w, d in zip(weights, dists))
    return _entropy(mean) - float(sum(w * _entropy(d) for w, d in zip(weights, dists)))


def pairwise_sum(means) -> float:
    """Raw sum of pairwise JSDs between the rows of an [M, N] array of domain means."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] < 2:
        raise ValueError("pairwise_sum needs at least two domains")
    return float(sum(jsd_pair(p, q) for p, q in itertools.combinations(means, 2)))


# ---------------------------------------------------------------------------
# decomposition of total routing diversity


@dataclass
class DivergenceReport:
    """Total/inter/intra routing diversity of a labeled token batch."""

    d_total: float
    d_inter: float
    d_intra: float


def decompose(probs, labels) -> DivergenceReport:
    """Split the routing diversity of labeled tokens into inter + intra parts.

    ``probs`` is [T, N] (one routing distribution per token), ``labels`` one
    domain label per token. Domain means here are token-weighted, matching
    the decomposition's T_j/T weights.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = list(labels)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError("decompose: need a [T, N] array with T >= 1")
    if len(labels) != probs.shape[0]:
        raise ValueError("decompose: every token needs a domain label")
    t = probs.shape[0]
    global_mean = probs.mean(axis=0)
    plogp = np.where(probs > 0, probs * np.log(np.where(probs > 0, probs, 1.0)), 0.0)
    mean_token_entropy = float(-plogp.sum(axis=1).mean())

    labels_arr = np.asarray(labels)
    h_global = entropy(global_mean)
    weighted_domain_entropy = 0.0
    for dom in dict.fromkeys(labels):
        sel = probs[labels_arr == dom]
        weighted_domain_entropy += (sel.shape[0] / t) * entropy(sel.mean(axis=0))
    d_total = h_global - mean_token_entropy
    d_inter = h_global - weighted_domain_entropy
    d_intra = weighted_domain_entropy - mean_token_entropy
    return DivergenceReport(d_total=d_total, d_inter=d_inter, d_intra=d_intra)


def proportionality_check(base, deltas, t):
    """Second-order relation between the pairwise-JSD sum and D_inter.

    Builds distributions base + t*delta_j (the deltas must each sum to zero
    coordinate-wise and to zero across domains) and returns
    (S_pair, D_inter, ratio). As t -> 0 the ratio converges to M^2/4 where M
    is the number of domains. At t = 0 both quantities vanish and the ratio
    is reported as None.
    """
    base = _validate_dist(base, "base")
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.ndim != 2 or deltas.shape[1] != base.shape[0]:
        raise ValueError("deltas must be [M, N] matching base")
    if np.max(np.abs(deltas.sum(axis=0))) > 1e-9:
        raise ValueError("deltas must sum to zero across domains")
    if np.max(np.abs(deltas.sum(axis=1))) > 1e-9:
        raise ValueError("each delta must sum to zero (distributions stay normalized)")
    dists = base[None, :] + t * deltas
    if np.any(dists < 0):
        raise ValueError("perturbed distribution has negative entries")
    m = deltas.shape[0]
    if t == 0:
        return 0.0, 0.0, None
    s_pair = pairwise_sum(dists)
    d_inter = generalized_jsd_entropy_form(dists, np.full(m, 1.0 / m))
    ratio = s_pair / d_inter if d_inter != 0 else None
    return s_pair, d_inter, ratio
