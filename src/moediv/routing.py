"""Router and sparse mixture-of-experts layer.

The router is a linear map to expert logits followed by a softmax, one
graph node; top-K gating selects the K most probable experts,
``tensor.expert_dispatch`` renormalizes their probabilities into mixture
weights and groups the tokens by expert, and ``tensor.expert_mixture`` runs
the experts on that dispatch. The full pre-selection distribution is always
kept, because the divergence losses and all routing analyses operate on it,
not on the sparse gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class MoELayer:
    """Router weights plus the expert weights of one layer."""

    router: Tensor   # [N, d], one row per expert
    experts: Tensor  # [N, 3, d, m], laid out as ``tensor.expert_mixture`` reads it
    top_k: int

    @property
    def num_experts(self) -> int:
        return self.router.shape[0]


def route(w_r, x) -> Tensor:
    """Router probabilities of a [T, d] token batch as one graph node.

    The max-shifted softmax of the logits ``x @ w_r.T``, one [N] row per
    token; ``w_r`` is [N, d]. Raises ValueError on a non-finite input or
    logit.
    """
    w_r, x = T.as_tensor(w_r), T.as_tensor(x)
    if len(x.shape) != 2 or x.shape[1] != w_r.shape[1]:
        raise ValueError(f"route: tokens of shape {x.shape} do not match router {w_r.shape}")
    T.require_finite("route", w_r=w_r, x=x)
    logits = x.data @ w_r.data.T
    if not np.all(np.isfinite(logits)):
        raise ValueError("route: non-finite router logit")
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        g = probs * (g - (g * probs).sum(axis=-1, keepdims=True))
        # (x.T @ g).T, not g.T @ x: the product of a matmul-and-transpose
        # graph, whose rounding the training bits were pinned with
        return g @ w_r.data, (x.data.T @ g).T

    return T.node(probs, (x, w_r), vjp)


def topk_select(probs: np.ndarray, k: int) -> np.ndarray:
    """The [T, K] indices of each row's K largest probabilities of a [T, N]
    array, in descending order. Ties break toward the lowest expert index
    (stable sort on negated probabilities).
    """
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"topk: K={k} out of range for {n} experts")
    return np.argsort(-probs, axis=-1, kind="stable")[..., :k]


def moe_forward_batch(layer: MoELayer, x: Tensor, mix: bool = True):
    """Sparse MoE forward for a [T, d] token batch.

    Returns (y [T, d], probs Tensor [T, N], selected [T, K]). Only selected
    experts run, all of a layer's experts in one ``expert_mixture`` node on
    the routing's ``expert_dispatch``, which renormalises the selected
    probabilities into gates; selection indices are constants for the
    backward pass, so gradients reach the router solely through the gate
    values and the auxiliary losses. With ``mix`` false no expert runs, no
    dispatch is built and y is None.
    """
    probs = route(layer.router, x)
    selected = topk_select(probs.data, layer.top_k)
    if not mix:
        return None, probs, selected
    dispatch = T.expert_dispatch(probs, selected, layer.num_experts)
    return T.expert_mixture(x, dispatch, layer.experts), probs, selected
