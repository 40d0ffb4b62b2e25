"""Training loop: the training objective, AdamW, warmup schedule, metrics
logging and checkpointing.

One trainer per model instance; everything is deterministic given
(seed, config, corpus), and the metrics log is reproducible byte-for-byte.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import divergence, losses
from . import tensor as T
from .model import MoEModel, forward, lm_loss, save_checkpoint

log = logging.getLogger("moediv.trainer")


@dataclass
class TrainConfig:
    alpha: float = 1e-3
    beta: float = 5e-4
    eps: float = 1e-8
    lr: float = 5e-4
    warmup_steps: int = 100
    adam_beta1: float = 0.9
    adam_beta2: float = 0.95
    weight_decay: float = 0.1
    total_steps: int = 2000
    seed: int = 0
    grad_clip: float = 1.0
    checkpoint_interval: int = 500

    def __post_init__(self):
        for key, value in asdict(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            if key.startswith("adam_beta") and not 0 <= value < 1:
                raise ValueError(f"{key} must be in [0, 1), got {value}")
            if value < 0 and key in ("alpha", "beta", "lr", "warmup_steps", "weight_decay",
                                     "total_steps", "seed", "grad_clip"):
                raise ValueError(f"{key} must be nonnegative, got {value}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must not exceed total_steps")
        if self.checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be at least 1, got {self.checkpoint_interval}")


@dataclass
class AdamWState:
    """Adam moments, vectors in the layout of ``MoEModel.flat``."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, params_vec: np.ndarray):
        return cls(m=np.zeros_like(params_vec), v=np.zeros_like(params_vec), t=0)


def lr_at(step: int, config: TrainConfig) -> float:
    """Linear ramp 0 -> lr over warmup_steps, then constant."""
    if config.warmup_steps > 0 and step < config.warmup_steps:
        return config.lr * step / config.warmup_steps
    return config.lr


def adamw_update(params_vec: np.ndarray, grads_vec: np.ndarray, state: AdamWState,
                 lr: float, beta1: float, beta2: float, weight_decay: float,
                 eps: float = 1e-8):
    """Standard decoupled-weight-decay Adam step with bias correction.

    Updates ``params_vec`` and the moments of ``state`` in place.
    """
    if grads_vec.shape != params_vec.shape:
        raise ValueError(
            f"adamw_update: gradient shape {grads_vec.shape} does not match "
            f"parameters {params_vec.shape}"
        )
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for start in range(0, params_vec.size, T._TILE):  # whole-vector temporaries miss the cache
        part = slice(start, start + T._TILE)
        p, g, m, v = params_vec[part], grads_vec[part], state.m[part], state.v[part]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p *= 1.0 - lr * weight_decay
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return state


def _flat_gradient(model: MoEModel, leaf_grads: dict, max_norm: float) -> np.ndarray:
    """The step gradient in ``model.flat``'s layout, zero for parameters
    that got none, scaled to global norm ``max_norm`` when above it
    (``max_norm`` <= 0 disables clipping)."""
    grad = np.zeros_like(model.flat)
    views = model.split(grad)
    for name, p in model.params.items():
        g = leaf_grads.get(p)
        if g is not None:
            views[name][...] = g
    # einsum sums in one thread; BLAS ``grad @ grad`` splits the sum across
    # threads, so its last bits would depend on the thread count
    total = math.sqrt(np.einsum("i,i->", grad, grad))
    if max_norm > 0 and total > max_norm:
        grad *= max_norm / total
    return grad


def _layer_mean(terms):
    """The mean of per-layer scalar Tensors as one graph node: their sum,
    added left to right, divided by their count; each gets g / count."""
    n = float(len(terms))
    total = terms[0].data
    for t in terms[1:]:
        total = total + t.data
    return T.node(total / n, terms, lambda g: [g / n] * len(terms))


def _layer_losses(trace, batch, config: TrainConfig):
    """(L_LB, L_ED) of one MoE layer's trace on ``batch``, one graph node each."""
    return (losses.load_balance_loss_t(trace.probs, trace.selected),
            losses.expert_divergence_loss_t(T.reshape(trace.probs, batch.sequences.shape + (-1,)),
                                            batch.domain_ids, eps=config.eps))


def objective(model: MoEModel, batch, config: TrainConfig, start=None):
    """L_final = L_LM + alpha*L_LB + beta*L_ED on one batch, from one forward.

    L_LB and L_ED are means over the MoE layers. ``start``, a ``Resume`` of
    the batch's tokens, is passed on to ``forward``; its ``losses`` stand for
    the ``_layer_losses`` of its first traces, so a caller that resumes from
    one point many times computes them once. Returns (terms, layers):
    ``terms`` maps l_lm, l_lb, l_ed and l_final to scalar Tensors, equal to
    the full run's from any resume, and ``layers`` is the forward's
    LayerTrace list (``probs`` are graph nodes).
    """
    tokens = batch.sequences
    hidden, layers = forward(model, tokens, start=start)
    l_lm = lm_loss(model, hidden, tokens)
    given = start.losses if start else ()
    per_layer = [*given, *(_layer_losses(layer, batch, config) for layer in layers[len(given):])]
    lb_terms, ed_terms = zip(*per_layer)
    l_lb = _layer_mean(lb_terms)
    l_ed = _layer_mean(ed_terms)
    l_final = losses.compose_t(l_lm, l_lb, l_ed, config.alpha, config.beta)
    return {"l_lm": l_lm, "l_lb": l_lb, "l_ed": l_ed, "l_final": l_final}, layers


def train_step(model: MoEModel, batch, config: TrainConfig, state: AdamWState) -> dict:
    """One optimization step at step ``state.t``: the objective, backward, AdamW update.

    Returns the step's ``metrics.jsonl`` record: step, lr, the number of
    distinct domains m_b (L_ED is a constant zero below two), the four loss
    terms and the per-layer D_total, D_inter and D_intra.
    """
    terms, layers = objective(model, batch, config)
    leaf_grads = T.backward(terms["l_final"])
    lr = lr_at(state.t, config)
    record = {"step": state.t, "lr": lr, "m_b": len(set(batch.domain_ids.tolist()))}
    record.update((name, t.item()) for name, t in terms.items())
    token_ids = np.repeat(batch.domain_ids, batch.sequences.shape[1])
    reports = [divergence.decompose(layer.probs.data, token_ids) for layer in layers]
    for key in ("d_total", "d_inter", "d_intra"):
        record[key] = [getattr(rep, key) for rep in reports]
    del terms, layers  # released nodes and the traces' probs go before the gradient vector
    grad = _flat_gradient(model, leaf_grads, config.grad_clip)
    adamw_update(
        model.flat, grad, state, lr,
        config.adam_beta1, config.adam_beta2, config.weight_decay,
    )
    return record


def run_training(model: MoEModel, batches, config: TrainConfig, out_dir,
                 state: AdamWState | None = None):
    """Loop train_step over a fixed batch schedule from step ``state.t`` (0 if None).

    The schedule cycles ``batches`` in order (they arrive pre-shuffled from
    the packer), so a run resumed at step s sees exactly the batches the
    uninterrupted run would have seen, and appends to its ``metrics.jsonl``.
    Checkpoints are written atomically at the configured interval and at the end.
    """
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    ckpt_path = os.path.join(out_dir, "checkpoint.moediv")
    if state is None:
        state = AdamWState.init(model.flat)
    mode = "a" if state.t > 0 else "w"
    with open(metrics_path, mode, encoding="utf-8") as mf:
        for step in range(state.t, config.total_steps):
            batch = batches[step % len(batches)]
            t0 = time.perf_counter()
            try:
                record = train_step(model, batch, config, state)
            except ValueError as exc:
                raise ValueError(f"step {step}: {exc}") from exc
            step_ms = 1e3 * (time.perf_counter() - t0)
            mf.write(json.dumps(record, sort_keys=True) + "\n")
            if record["m_b"] < 2:
                log.debug("step %d: divergence-skipped (single-domain batch)", step)
            if (step + 1) % config.checkpoint_interval == 0:
                mf.flush()  # a kill after the checkpoint leaves the log up to its step
                save_checkpoint(ckpt_path, model, state)
                log.info("step %d: checkpoint written", step + 1)
            if step % 100 == 0:
                log.info(
                    "step %d: l_lm=%.4f l_lb=%.4f l_ed=%.4f (%.1f ms)",
                    step, record["l_lm"], record["l_lb"], record["l_ed"], step_ms,
                )
    final_path = os.path.join(out_dir, "final.moediv")
    save_checkpoint(final_path, model, state)
    return final_path, metrics_path
