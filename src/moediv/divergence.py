"""Entropy, KL and Jensen-Shannon divergence over expert routing distributions,
plus the inter/intra decomposition of total routing diversity and the
second-order proportionality check between the pairwise-JSD sum and the
inter-domain component.

All values are in nats and computed in plain numpy. The one entropy and the
one pairwise JSD live here, and the training loss L_ED in :mod:`moediv.losses`
is built from them. Each public function checks its inputs once, with
``_checked``; a bad input raises ValueError naming the function and argument.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

DEFAULT_EPS = 1e-8


def _checked(fn, name, p, ndim=1, n=None, tol=1e-6):
    """``p`` as float64 with ``ndim`` axes, the last holding distributions (of
    ``n`` entries, if given): non-negative, each summing to 1 within ``tol``.
    Raises ValueError naming ``fn`` and ``name``."""
    try:
        p = np.asarray(p, dtype=np.float64)
    except ValueError:
        raise ValueError(f"{fn}: {name} has rows of unequal length") from None
    if p.ndim != ndim or p.shape[-1] == 0 or n not in (None, p.shape[-1]):
        want = ("[N]", "[M, N]")[ndim - 1] + (f" with N = {n}" if n is not None else "")
        raise ValueError(f"{fn}: {name} has shape {p.shape}, expected {want}")
    if np.any(p < 0):
        raise ValueError(f"{fn}: {name} has a negative entry")
    sums = p.sum(axis=-1)
    if not np.all(np.abs(sums - 1.0) <= tol):  # so a NaN fails too
        raise ValueError(f"{fn}: {name} sums to {sums}, not 1")
    return p


def _entropy(p):
    """Entropy of each distribution along the last axis of checked ``p``. The
    1e-300 floor keeps 0 ln 0 at 0 and moves no entry above ~1e-284."""
    return (p * np.log(p + 1e-300)).sum(axis=-1) * -1.0


@functools.lru_cache(maxsize=16)
def _pairs(m):
    """Read-only index arrays (j, k) of the pairs j < k of m >= 2 rows, in
    ``itertools.combinations`` order."""
    j, k = np.array(list(itertools.combinations(range(m), 2)), dtype=np.intp).T.copy()
    j.flags.writeable = k.flags.writeable = False
    return j, k


def _pair_jsd(means):
    """(j, k, jsd) of the M >= 2 rows of checked ``means``: the pairs j < k of
    ``_pairs`` and each pair's JSD in entropy form (Lin 1991),
    H((p_j + p_k) / 2) - (H(p_j) + H(p_k)) / 2."""
    j, k = _pairs(len(means))
    pj, pk = means[j], means[k]
    return j, k, _entropy((pj + pk) * 0.5) - (_entropy(pj) + _entropy(pk)) * 0.5


def entropy(p) -> float:
    """Shannon entropy -sum p ln p, with 0 ln 0 = 0."""
    return float(_entropy(_checked("entropy", "p", p)))


def kl(p, q) -> float:
    """KL divergence sum p ln(p/q).

    Returns +inf when p puts mass where q has none (documented marker, never
    raises for that case).
    """
    p = _checked("kl", "p", p)
    return _kl(p, _checked("kl", "q", q, n=p.size))


def _kl(p, q) -> float:  # kl of two checked distributions
    mask = p > 0
    if np.any(q[mask] == 0):
        return float("inf")
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def jsd_pair(p, q) -> float:
    """Jensen-Shannon divergence with weights (1/2, 1/2).

    Computed in entropy form H(m) - (H(p) + H(q)) / 2, which is finite for
    any pair of valid distributions and lies in [0, ln 2].
    """
    p = _checked("jsd_pair", "p", p)
    return float(_pair_jsd(np.stack((p, _checked("jsd_pair", "q", q, n=p.size))))[2][0])


def generalized_jsd(dists, weights) -> float:
    """Weighted-mean KL from each distribution to the weighted mean.

    Defined as sum_k pi_k KL(p_k || mean); equal (to float precision) to the
    entropy form H(mean) - sum_k pi_k H(p_k), see
    :func:`generalized_jsd_entropy_form`.
    """
    dists = _checked("generalized_jsd", "dists", dists, ndim=2)
    weights = _checked("generalized_jsd", "weights", weights, n=len(dists), tol=1e-9)
    mean = sum(w * d for w, d in zip(weights, dists))
    return float(sum(w * _kl(d, mean) for w, d in zip(weights, dists) if w > 0))


def generalized_jsd_entropy_form(dists, weights) -> float:
    """Entropy form of the generalized JSD: H(mean) - mean of entropies."""
    dists = _checked("generalized_jsd_entropy_form", "dists", dists, ndim=2)
    weights = _checked("generalized_jsd_entropy_form", "weights", weights, n=len(dists), tol=1e-9)
    mean = sum(w * d for w, d in zip(weights, dists))
    return float(_entropy(mean) - sum(w * h for w, h in zip(weights, _entropy(dists))))


def pairwise_sum(means) -> float:
    """Raw sum of pairwise JSDs between the rows of an [M, N] array of domain means."""
    means = _checked("pairwise_sum", "means", means, ndim=2)
    if len(means) < 2:
        raise ValueError("pairwise_sum: means needs at least two domains")
    return float(sum(_pair_jsd(means)[2].tolist()))


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
    probs = _checked("decompose", "probs", probs, ndim=2)
    labels = list(labels)
    if probs.shape[0] == 0:
        raise ValueError("decompose: need a [T, N] array with T >= 1")
    if len(labels) != probs.shape[0]:
        raise ValueError("decompose: every token needs a domain label")
    t = probs.shape[0]
    global_mean = probs.mean(axis=0)
    mean_token_entropy = float(_entropy(probs).mean())

    labels_arr = np.asarray(labels)
    h_global = float(_entropy(global_mean))
    weighted_domain_entropy = 0.0
    for dom in dict.fromkeys(labels):
        sel = probs[labels_arr == dom]
        weighted_domain_entropy += (sel.shape[0] / t) * float(_entropy(sel.mean(axis=0)))
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
    base = _checked("proportionality_check", "base", base)
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
