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
from dataclasses import dataclass

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
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must not exceed total_steps")


@dataclass
class AdamWState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def init(cls, params: dict):
        return cls(
            m={n: np.zeros_like(p.data) for n, p in params.items()},
            v={n: np.zeros_like(p.data) for n, p in params.items()},
            t=0,
        )


@dataclass
class StepMetrics:
    step: int
    breakdown: losses.LossBreakdown
    d_total: list
    d_inter: list
    d_intra: list
    m_b: int
    lr: float
    ed_skipped: bool
    wall_time: float

    def to_record(self) -> dict:
        # wall_time deliberately excluded: the log must be reproducible
        return {
            "step": self.step,
            "l_lm": self.breakdown.l_lm,
            "l_lb": self.breakdown.l_lb,
            "l_ed": self.breakdown.l_ed,
            "l_final": self.breakdown.l_final,
            "d_total": self.d_total,
            "d_inter": self.d_inter,
            "d_intra": self.d_intra,
            "m_b": self.m_b,
            "lr": self.lr,
        }


def lr_at(step: int, config: TrainConfig) -> float:
    """Linear ramp 0 -> lr over warmup_steps, then constant."""
    if config.warmup_steps > 0 and step < config.warmup_steps:
        return config.lr * step / config.warmup_steps
    return config.lr


def adamw_update(params: dict, grads: dict, state: AdamWState, lr: float,
                 beta1: float, beta2: float, weight_decay: float, eps: float = 1e-8):
    """Standard decoupled-weight-decay Adam step with bias correction."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ValueError(f"adamw_update: gradient shape mismatch for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data = p.data * (1.0 - lr * weight_decay) - lr * (m / bc1) / (
            np.sqrt(v / bc2) + eps
        )
    return state


def _clip_gradients(grads: dict, max_norm: float) -> dict:
    if max_norm <= 0:
        return grads
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        grads = {n: g * scale for n, g in grads.items()}
    return grads


def _layer_mean(terms):
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return T.div(total, float(len(terms)))


def objective(model: MoEModel, batch, config: TrainConfig):
    """L_final = L_LM + alpha*L_LB + beta*L_ED on one batch, from one forward.

    L_LB and L_ED are means over the MoE layers. Returns (terms, breakdown,
    trace, m_b): ``terms`` maps l_lm, l_lb, l_ed and l_final to scalar
    Tensors, ``breakdown`` holds their float values, ``trace`` is the
    forward's RoutingTrace and ``m_b`` the number of distinct domains in the
    batch (L_ED is a constant zero below two).
    """
    tokens = batch.sequences
    b, l = tokens.shape
    logits, trace, live = forward(model, tokens, domains=batch.domains)
    l_lm = lm_loss(logits, tokens)
    lb_terms, ed_terms = [], []
    m_b = 0
    for layer in live:
        lb_terms.append(
            losses.load_balance_loss_t(
                layer["probs"], layer["selected"], model.config.num_experts
            )
        )
        ed_t, m_b = losses.expert_divergence_loss_t(
            layer["probs"], b, l, batch.domains, eps=config.eps
        )
        ed_terms.append(ed_t)
    l_lb = _layer_mean(lb_terms)
    l_ed = _layer_mean(ed_terms)
    l_final, breakdown = losses.compose_t(l_lm, l_lb, l_ed, config.alpha, config.beta)
    terms = {"l_lm": l_lm, "l_lb": l_lb, "l_ed": l_ed, "l_final": l_final}
    return terms, breakdown, trace, m_b


def train_step(model: MoEModel, batch, config: TrainConfig, state: AdamWState,
               step: int) -> StepMetrics:
    """One optimization step: the objective, backward, AdamW update."""
    t0 = time.perf_counter()
    terms, breakdown, trace, m_b = objective(model, batch, config)

    leaf_grads = T.backward(terms["l_final"])
    grads = {n: leaf_grads[p] for n, p in model.params.items() if p in leaf_grads}
    grads = _clip_gradients(grads, config.grad_clip)
    lr = lr_at(step, config)
    adamw_update(
        model.params, grads, state, lr,
        config.adam_beta1, config.adam_beta2, config.weight_decay,
    )

    token_labels = trace.token_labels()
    d_total, d_inter, d_intra = [], [], []
    for layer_trace in trace.layers:
        rep = divergence.decompose(layer_trace.probs, token_labels)
        d_total.append(rep.d_total)
        d_inter.append(rep.d_inter)
        d_intra.append(rep.d_intra)

    return StepMetrics(
        step=step,
        breakdown=breakdown,
        d_total=d_total,
        d_inter=d_inter,
        d_intra=d_intra,
        m_b=m_b,
        lr=lr,
        ed_skipped=m_b < 2,
        wall_time=time.perf_counter() - t0,
    )


def run_training(model: MoEModel, batches, config: TrainConfig, out_dir,
                 start_step: int = 0, opt_state: AdamWState | None = None,
                 metrics_name: str = "metrics.jsonl"):
    """Loop train_step over a fixed batch schedule.

    The schedule cycles ``batches`` in order (they arrive pre-shuffled from
    the packer), so a resumed run at step s sees exactly the batches the
    uninterrupted run would have seen. Checkpoints are written atomically at
    the configured interval and at the end.
    """
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, metrics_name)
    ckpt_path = os.path.join(out_dir, "checkpoint.moediv")
    if opt_state is None:
        opt_state = AdamWState.init(model.params)
    mode = "a" if start_step > 0 else "w"
    with open(metrics_path, mode, encoding="utf-8") as mf:
        for step in range(start_step, config.total_steps):
            batch = batches[step % len(batches)]
            metrics = train_step(model, batch, config, opt_state, step)
            mf.write(json.dumps(metrics.to_record(), sort_keys=True) + "\n")
            if metrics.ed_skipped:
                log.debug("step %d: divergence-skipped (single-domain batch)", step)
            if (step + 1) % config.checkpoint_interval == 0:
                save_checkpoint(ckpt_path, model, step=step + 1, opt_state=opt_state)
                log.info("step %d: checkpoint written", step + 1)
            if step % 100 == 0:
                log.info(
                    "step %d: l_lm=%.4f l_lb=%.4f l_ed=%.4f (%.1f ms)",
                    step, metrics.breakdown.l_lm, metrics.breakdown.l_lb,
                    metrics.breakdown.l_ed, 1e3 * metrics.wall_time,
                )
    final_path = os.path.join(out_dir, "final.moediv")
    save_checkpoint(final_path, model, step=config.total_steps, opt_state=opt_state)
    return final_path, metrics_path
