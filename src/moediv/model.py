"""Toy decoder-only transformer with a sparse MoE feed-forward in every block.

Pre-norm blocks, multi-head causal self-attention with learned absolute
position embeddings, byte-level vocabulary. Small enough to train on one CPU
core in minutes while still producing authentic per-layer routing traces.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .routing import ExpertFFN, MoELayer, moe_forward_batch
from .tensor import Tensor

CHECKPOINT_MAGIC = b"MOEDIV1\n"


@dataclass
class ModelConfig:
    num_layers: int = 2
    hidden_size: int = 64
    intermediate_size: int = 128
    num_experts: int = 8
    top_k: int = 2
    num_heads: int = 4
    vocab_size: int = 256
    max_seq_len: int = 128

    def __post_init__(self):
        if self.top_k > self.num_experts:
            raise ValueError("top_k must not exceed num_experts")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")


@dataclass
class LayerTrace:
    """Per-token routing record of one MoE layer (numpy copies, no graph)."""

    probs: np.ndarray     # [T, N]
    selected: np.ndarray  # [T, K]


@dataclass
class RoutingTrace:
    layers: list[LayerTrace]
    batch_shape: tuple  # (num_sequences, seq_len)
    domains: list = field(default_factory=list)

    def token_labels(self):
        """One domain label per token, sequence labels repeated seq_len times."""
        b, l = self.batch_shape
        return [d for d in self.domains for _ in range(l)]


class MoEModel:
    """Parameter store plus structured per-layer views."""

    def __init__(self, config: ModelConfig, seed: int = 0, arrays=None):
        """Random init drawn from ``seed``, or a copy of ``arrays``.

        ``arrays`` maps every parameter name to an array of its shape; no
        random init is drawn then.
        """
        self.config = config
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)
        c = config

        def param(name, shape, init):
            if arrays is None:
                data = init(shape)
            else:
                if name not in arrays:
                    raise ValueError(f"missing parameter {name}")
                data = np.array(arrays[name], dtype=np.float64)
                if data.shape != shape:
                    raise ValueError(
                        f"parameter {name} has shape {data.shape}, expected {shape}"
                    )
            t = Tensor(data, requires_grad=True)
            self.params[name] = t
            return t

        def p(name, shape, std=0.02):
            return param(name, shape, lambda s: rng.normal(0.0, std, size=s))

        def ones(name, shape):
            return param(name, shape, np.ones)

        def zeros(name, shape):
            return param(name, shape, np.zeros)

        self.tok_emb = p("tok_emb", (c.vocab_size, c.hidden_size))
        self.pos_emb = p("pos_emb", (c.max_seq_len, c.hidden_size))
        self.blocks = []
        for l in range(c.num_layers):
            pre = f"layers.{l}."
            block = {
                "ln1_g": ones(pre + "ln1.g", (c.hidden_size,)),
                "ln1_b": zeros(pre + "ln1.b", (c.hidden_size,)),
                "wq": p(pre + "attn.wq", (c.hidden_size, c.hidden_size)),
                "wk": p(pre + "attn.wk", (c.hidden_size, c.hidden_size)),
                "wv": p(pre + "attn.wv", (c.hidden_size, c.hidden_size)),
                "wo": p(pre + "attn.wo", (c.hidden_size, c.hidden_size)),
                "ln2_g": ones(pre + "ln2.g", (c.hidden_size,)),
                "ln2_b": zeros(pre + "ln2.b", (c.hidden_size,)),
            }
            router = p(pre + "moe.router", (c.num_experts, c.hidden_size))
            experts = []
            for e in range(c.num_experts):
                epre = f"{pre}experts.{e}."
                experts.append(
                    ExpertFFN(
                        w_gate=p(epre + "w_gate", (c.hidden_size, c.intermediate_size)),
                        w_up=p(epre + "w_up", (c.hidden_size, c.intermediate_size)),
                        w_down=p(epre + "w_down", (c.intermediate_size, c.hidden_size)),
                    )
                )
            block["moe"] = MoELayer(router=router, experts=experts, top_k=c.top_k)
            self.blocks.append(block)
        self.ln_f_g = ones("ln_f.g", (c.hidden_size,))
        self.ln_f_b = zeros("ln_f.b", (c.hidden_size,))
        self.lm_head = p("lm_head", (c.hidden_size, c.vocab_size))
        if arrays is not None and len(arrays) != len(self.params):
            extra = sorted(set(arrays) - set(self.params))
            raise ValueError(f"unknown parameters {extra}")

    def param_list(self):
        return list(self.params.values())


def _affine_norm(x, g, b):
    return T.add(T.mul(T.layernorm(x), g), b)


def _attention(block, xn, b, l, h, dh):
    def split(t):
        return T.transpose(T.reshape(t, (b, l, h, dh)), (0, 2, 1, 3))

    q = split(T.matmul(xn, block["wq"]))
    k = split(T.matmul(xn, block["wk"]))
    v = split(T.matmul(xn, block["wv"]))
    scale = 1.0 / np.sqrt(dh)
    mask = np.triu(np.full((l, l), -1e30), k=1)
    scores = T.add(T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), scale), mask)
    att = T.softmax_rows(scores)
    out = T.matmul(att, v)
    out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (b * l, h * dh))
    return T.matmul(out, block["wo"])


def forward(model: MoEModel, tokens, domains=None):
    """Run the model on a [B, L] batch of token ids.

    Returns (logits Tensor [B*L, V], RoutingTrace, live) where ``live`` holds
    the in-graph per-layer router probability Tensors and selections needed
    by the differentiable auxiliary losses.
    """
    c = model.config
    tokens = np.asarray(tokens, dtype=np.intp)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    b, l = tokens.shape
    if l > c.max_seq_len:
        raise ValueError(f"sequence length {l} exceeds max_seq_len {c.max_seq_len}")
    if tokens.min() < 0 or tokens.max() >= c.vocab_size:
        raise ValueError("token id out of vocabulary range")

    # [B, L, d] token rows plus the first L position rows, broadcast over B
    x = T.add(T.take_rows(model.tok_emb, tokens), T.take_rows(model.pos_emb, np.arange(l)))
    x = T.reshape(x, (b * l, c.hidden_size))

    h, dh = c.num_heads, c.hidden_size // c.num_heads
    traces = []
    live = []
    for block in model.blocks:
        xn = _affine_norm(x, block["ln1_g"], block["ln1_b"])
        x = T.add(x, _attention(block, xn, b, l, h, dh))
        hn = _affine_norm(x, block["ln2_g"], block["ln2_b"])
        y, probs, selected, _ = moe_forward_batch(block["moe"], hn)
        x = T.add(x, y)
        traces.append(LayerTrace(probs=probs.data.copy(), selected=selected.copy()))
        live.append({"probs": probs, "selected": selected})

    xf = _affine_norm(x, model.ln_f_g, model.ln_f_b)
    logits = T.matmul(xf, model.lm_head)
    trace = RoutingTrace(
        layers=traces,
        batch_shape=(b, l),
        domains=list(domains) if domains is not None else [],
    )
    return logits, trace, live


def lm_loss(logits, tokens):
    """Next-token cross entropy over a [B, L] batch (nats).

    Position t predicts token t+1 within its own sequence; final positions
    have no target and are excluded.
    """
    tokens = np.asarray(tokens, dtype=np.intp)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    b, l = tokens.shape
    if l < 2:
        raise ValueError("lm_loss needs sequences of length >= 2")
    keep = np.concatenate([np.arange(l - 1) + i * l for i in range(b)])
    targets = tokens[:, 1:].reshape(-1)
    return T.cross_entropy_mean(T.take_rows(logits, keep), targets)


def perplexity(model: MoEModel, batches) -> float:
    """exp(mean token NLL) over all next-token targets in ``batches``."""
    total_nll = 0.0
    total_tok = 0
    n_batches = 0
    with T.no_grad():
        for batch in batches:
            tokens = np.asarray(getattr(batch, "sequences", batch), dtype=np.intp)
            if tokens.ndim == 1:
                tokens = tokens[None, :]
            logits, _, _ = forward(model, tokens)
            nll = lm_loss(logits, tokens).item()
            count = tokens.shape[0] * (tokens.shape[1] - 1)
            total_nll += nll * count
            total_tok += count
            n_batches += 1
    if n_batches == 0 or total_tok == 0:
        raise ValueError("perplexity: empty dataset")
    return float(np.exp(total_nll / total_tok))


# ---------------------------------------------------------------------------
# checkpoint io


def save_checkpoint(path, model: MoEModel, step: int = 0, opt_state=None):
    """Write config + parameters (+ optimizer moments) atomically.

    Layout: magic line, one JSON header line, then raw little-endian float64
    blobs in header order (all params, then per-param Adam m and v).
    """
    names = list(model.params.keys())
    header = {
        "config": asdict(model.config),
        "step": int(step),
        "params": [[n, list(model.params[n].shape)] for n in names],
        "has_opt": opt_state is not None,
        "opt_t": int(opt_state.t) if opt_state is not None else 0,
    }
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for n in names:
            f.write(np.ascontiguousarray(model.params[n].data, dtype="<f8").tobytes())
        if opt_state is not None:
            for n in names:
                f.write(np.ascontiguousarray(opt_state.m[n], dtype="<f8").tobytes())
                f.write(np.ascontiguousarray(opt_state.v[n], dtype="<f8").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path):
    """Read a checkpoint; returns (model, step, opt_state_or_None)."""
    from .trainer import AdamWState  # local import to avoid a cycle

    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a moediv checkpoint (bad magic)")
        header = json.loads(f.readline().decode())
        config = ModelConfig(**header["config"])
        arrays = {}
        for name, shape in header["params"]:
            n_items = int(np.prod(shape)) if shape else 1
            arrays[name] = np.frombuffer(f.read(n_items * 8), dtype="<f8").reshape(shape)
        model = MoEModel(config, arrays=arrays)
        opt_state = None
        if header.get("has_opt"):
            m, v = {}, {}
            for name, shape in header["params"]:
                n_items = int(np.prod(shape)) if shape else 1
                m[name] = np.frombuffer(f.read(n_items * 8), dtype="<f8").reshape(shape).copy()
                v[name] = np.frombuffer(f.read(n_items * 8), dtype="<f8").reshape(shape).copy()
            opt_state = AdamWState(m=m, v=v, t=header.get("opt_t", 0))
    return model, header["step"], opt_state
