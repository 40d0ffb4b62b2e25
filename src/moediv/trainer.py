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
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must not exceed total_steps")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
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
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return T.div(total, float(len(terms)))


def objective(model: MoEModel, batch, config: TrainConfig, start=None):
    """L_final = L_LM + alpha*L_LB + beta*L_ED on one batch, from one forward.

    L_LB and L_ED are means over the MoE layers. ``start=(l, prefix)`` is
    passed on to ``forward``, and the terms then read layers l on only, so at
    l = 0 they equal the full run's. Returns (terms, layers):
    ``terms`` maps l_lm, l_lb, l_ed and l_final to scalar Tensors and
    ``layers`` is the forward's LayerTrace list (``probs`` are graph nodes).
    """
    tokens = batch.sequences
    hidden, layers = forward(model, tokens, start=start)
    l_lm = lm_loss(model, hidden, tokens)
    lb_terms, ed_terms = [], []
    for layer in layers:
        lb_terms.append(losses.load_balance_loss_t(layer.probs, layer.selected))
        ed_terms.append(losses.expert_divergence_loss_t(
            T.reshape(layer.probs, tokens.shape + (-1,)), batch.domains, eps=config.eps
        ))
    l_lb = _layer_mean(lb_terms)
    l_ed = _layer_mean(ed_terms)
    l_final = losses.compose_t(l_lm, l_lb, l_ed, config.alpha, config.beta)
    return {"l_lm": l_lm, "l_lb": l_lb, "l_ed": l_ed, "l_final": l_final}, layers


def train_step(model: MoEModel, batch, config: TrainConfig, state: AdamWState,
               step: int) -> dict:
    """One optimization step: the objective, backward, AdamW update.

    Returns the step's ``metrics.jsonl`` record: step, lr, the number of
    distinct domains m_b (L_ED is a constant zero below two), the four loss
    terms and the per-layer D_total, D_inter and D_intra.
    """
    terms, layers = objective(model, batch, config)
    leaf_grads = T.backward(terms["l_final"])
    lr = lr_at(step, config)
    record = {"step": step, "lr": lr, "m_b": len(set(batch.domains))}
    record.update((name, t.item()) for name, t in terms.items())
    seq_len = batch.sequences.shape[1]
    token_labels = [d for d in batch.domains for _ in range(seq_len)]
    reports = [divergence.decompose(layer.probs.data, token_labels) for layer in layers]
    for key in ("d_total", "d_inter", "d_intra"):
        record[key] = [getattr(rep, key) for rep in reports]
    del terms, layers  # the graph's saved arrays go before the gradient vector comes
    grad = _flat_gradient(model, leaf_grads, config.grad_clip)
    adamw_update(
        model.flat, grad, state, lr,
        config.adam_beta1, config.adam_beta2, config.weight_decay,
    )
    return record


def run_training(model: MoEModel, batches, config: TrainConfig, out_dir,
                 start_step: int = 0, opt_state: AdamWState | None = None):
    """Loop train_step over a fixed batch schedule.

    The schedule cycles ``batches`` in order (they arrive pre-shuffled from
    the packer), so a resumed run at step s sees exactly the batches the
    uninterrupted run would have seen. Checkpoints are written atomically at
    the configured interval and at the end.
    """
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    ckpt_path = os.path.join(out_dir, "checkpoint.moediv")
    if opt_state is None:
        opt_state = AdamWState.init(model.flat)
    mode = "a" if start_step > 0 else "w"
    with open(metrics_path, mode, encoding="utf-8") as mf:
        for step in range(start_step, config.total_steps):
            batch = batches[step % len(batches)]
            t0 = time.perf_counter()
            try:
                record = train_step(model, batch, config, opt_state, step)
            except ValueError as exc:
                raise ValueError(f"step {step}: {exc}") from exc
            step_ms = 1e3 * (time.perf_counter() - t0)
            mf.write(json.dumps(record, sort_keys=True) + "\n")
            if record["m_b"] < 2:
                log.debug("step %d: divergence-skipped (single-domain batch)", step)
            if (step + 1) % config.checkpoint_interval == 0:
                mf.flush()  # a kill after the checkpoint leaves the log up to its step
                save_checkpoint(ckpt_path, model, step=step + 1, opt_state=opt_state)
                log.info("step %d: checkpoint written", step + 1)
            if step % 100 == 0:
                log.info(
                    "step %d: l_lm=%.4f l_lb=%.4f l_ed=%.4f (%.1f ms)",
                    step, record["l_lm"], record["l_lb"], record["l_ed"], step_ms,
                )
    final_path = os.path.join(out_dir, "final.moediv")
    save_checkpoint(final_path, model, step=config.total_steps, opt_state=opt_state)
    return final_path, metrics_path
