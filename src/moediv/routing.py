"""Router and sparse mixture-of-experts layer.

The router is a linear map to expert logits followed by a softmax; top-K
gating selects the K most probable experts and renormalizes their
probabilities into mixture weights. The full pre-selection distribution is
always kept, because the divergence losses and all routing analyses operate
on it, not on the sparse gates.
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
    """Softmax of router logits W_r x; accepts a [d] vector or [T, d] batch."""
    w_r = T.as_tensor(w_r)
    x = T.as_tensor(x)
    if x.shape[-1] != w_r.shape[1]:
        raise ValueError(
            f"route: hidden size {x.shape[-1]} does not match router {w_r.shape}"
        )
    logits = T.matmul(x, T.transpose(w_r, (1, 0)))
    return T.softmax_rows(logits)


def topk_select(probs: np.ndarray, k: int):
    """Vectorized top-K for a [T, N] probability array.

    Returns (selected [T, K] indices in descending-probability order, gates
    [T, K] renormalized to sum 1). Ties break toward the lowest expert index
    (stable sort on negated probabilities).
    """
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"topk: K={k} out of range for {n} experts")
    selected = np.argsort(-probs, axis=-1, kind="stable")[..., :k]
    chosen = np.take_along_axis(probs, selected, axis=-1)
    gates = chosen / chosen.sum(axis=-1, keepdims=True)
    return selected, gates


def moe_forward_batch(layer: MoELayer, x: Tensor):
    """Sparse MoE forward for a [T, d] token batch.

    Returns (y [T, d], probs Tensor [T, N], selected [T, K], gates Tensor
    [T, K]). Only selected experts run, all of a layer's experts in one
    ``expert_mixture`` node; selection indices are constants for the
    backward pass, so gradients reach the router solely through the
    renormalized gate values and the auxiliary losses.
    """
    probs = route(layer.router, x)
    selected, _ = topk_select(probs.data, layer.top_k)
    chosen = T.take_along_last(probs, selected)
    gates = T.div(chosen, T.tsum(chosen, axis=-1, keepdims=True))
    y = T.expert_mixture(x, gates, selected, layer.experts)
    return y, probs, selected, gates
