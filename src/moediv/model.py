"""Toy decoder-only transformer with a sparse MoE feed-forward in every block.

Pre-norm blocks, multi-head causal self-attention as one
``tensor.causal_attention`` node per block, learned absolute position
embeddings, byte-level vocabulary. Small enough to train on one CPU core in
minutes while still producing authentic per-layer routing traces.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .routing import MoELayer, moe_forward_batch
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
        for key, value in asdict(self).items():
            if type(value) is not int:  # a float, bool or str from a checkpoint header
                raise ValueError(f"{key} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(f"{key} must be at least 1, got {value}")
        if self.top_k > self.num_experts:
            raise ValueError("top_k must not exceed num_experts")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")


@dataclass
class LayerTrace:
    """Routing record of one MoE layer: the router output and its top-K."""

    probs: Tensor         # [T, N]; a graph node unless made under no_grad
    selected: np.ndarray  # [T, K]


class Resume(NamedTuple):
    """The state of a ``forward`` run entering stage ``stage``: what a run
    stopped there returns and a run started there reads. ``rows`` are the
    [B*L, d] residual rows (None at the embedding) and ``traces`` the
    LayerTrace of each layer routed so far. Inside a layer's mixture, at its
    expert or combine stages, ``normed`` are the rows its router read,
    ``dispatch`` the ``tensor.expert_dispatch`` of its trace, built when
    an expert first runs, and ``gated`` each expert's gated rows, None for
    one still to run. ``losses`` may give the (L_LB, L_ED) pairs of the
    first traces, for ``trainer.objective``.
    """

    stage: str
    rows: Tensor | None
    traces: list
    normed: Tensor | None = None
    dispatch: T.Dispatch | None = None
    gated: tuple | None = None
    losses: tuple = ()


def _layout(c: ModelConfig):
    """(stages, shapes, size, header): ``stages`` maps each of ``forward``'s
    stages, in run order, to the parameters it reads, as (name, index into
    the first axis) pairs (the head is ``lm_loss``'s); ``shapes`` maps every
    parameter to its shape in the order they are first read, which is
    ``MoEModel.flat``'s; ``size`` is their number of values and ``header``
    the checkpoint header's ``params`` list of [name, shape]."""
    d, n = c.hidden_size, c.num_experts
    stages, shapes = {}, {}

    def stage(name, params, index=...):
        stages[name] = [(param, index) for param in params]
        shapes.update(params)

    stage("embed", {"tok_emb": (c.vocab_size, d), "pos_emb": (c.max_seq_len, d)})
    for l in range(c.num_layers):
        pre = f"layers.{l}."
        stage(pre + "attn", {pre + "ln1.g": (d,), pre + "ln1.b": (d,),
                             **{pre + "attn." + w: (d, d) for w in ("wq", "wk", "wv", "wo")}})
        stage(pre + "route", {pre + "ln2.g": (d,), pre + "ln2.b": (d,), pre + "moe.router": (n, d)})
        for e in range(n):
            stage(f"{pre}expert.{e}", {pre + "moe.experts": (n, 3, d, c.intermediate_size)}, e)
        stage(pre + "combine", {})
    stage("head", {"ln_f.g": (d,), "ln_f.b": (d,), "lm_head": (d, c.vocab_size)})
    return (stages, shapes, sum(math.prod(s) for s in shapes.values()),
            [[name, list(s)] for name, s in shapes.items()])


class MoEModel:
    """Every parameter in one float64 vector ``flat``; ``params`` holds a
    named view of it per parameter. ``stages`` is ``_layout``'s map of
    ``forward``'s stages."""

    def __init__(self, config: ModelConfig, seed: int = 0, flat=None):
        """Random init drawn from ``seed``, or a copy of ``flat``.

        ``flat`` is a vector in this config's layout; no random init is
        drawn then. Otherwise layer-norm gains start at one, biases at zero
        and every weight at N(0, 0.02^2), drawn in ``params`` order.
        """
        self.config = config
        self.stages, self.shapes, size, _ = _layout(config)
        if flat is None:
            self.flat = np.zeros(size)
        else:
            self.flat = np.array(flat, dtype=np.float64)
            if self.flat.shape != (size,):
                raise ValueError(f"flat has shape {self.flat.shape}, expected ({size},)")
        self.params = {
            name: Tensor(view, requires_grad=True) for name, view in self.split(self.flat).items()
        }
        if flat is None:
            rng = np.random.default_rng(seed)
            for name, p in self.params.items():
                if name.endswith(".g"):
                    p.data[...] = 1.0
                elif not name.endswith(".b"):
                    p.data[...] = rng.normal(0.0, 0.02, size=p.shape)

    def split(self, vector) -> dict:
        """{name: view} of each parameter's part of a vector in ``flat``'s layout."""
        views, start = {}, 0
        for name, shape in self.shapes.items():
            size = math.prod(shape)
            views[name] = vector[start:start + size].reshape(shape)
            start += size
        return views


def forward(model: MoEModel, tokens, start=None, stop=None):
    """Run the model on a [B, L] batch of token ids, B and L at least 1.

    Returns (hidden Tensor [B*L, d], [LayerTrace per MoE layer]): ``hidden``
    is the last block's residual rows, before the final norm, which
    ``lm_loss`` applies with the LM head; the routing analyses read only the
    traces. Each trace's ``probs`` is the router output itself, so the
    auxiliary losses differentiate through it; under ``no_grad`` it is a
    plain Tensor.

    The run is one loop over ``model.stages`` from ``start``'s stage to
    ``stop``'s: the embedding; per layer, attention, route, one stage per
    expert and the combine, which adds the experts' gated rows to the
    residual rows; the head. The route step mixes if the run goes on
    through the layer's combine; if not, the combine step mixes the
    resume's routing, running only the experts whose gated rows it lacks.
    Expert stages do nothing in the loop. With ``stop`` a stage's name, the
    run returns the ``Resume`` entering it; inside a mixture it has routed
    that layer and holds at expert e every other expert's gated rows,
    filled after the loop, at the combine only those its start held. With
    ``start`` a ``Resume`` of the same tokens, the run begins at its stage
    and its traces open the returned list. Every row and trace is bit-equal
    to the full run's. A resume that does not fit the tokens is refused.
    """
    c = model.config
    tokens = np.asarray(tokens, dtype=np.intp)
    if tokens.ndim != 2 or tokens.size == 0:
        raise ValueError(f"forward: need a non-empty [B, L] token array, got shape {tokens.shape}")
    b, l = tokens.shape
    if l > c.max_seq_len:
        raise ValueError(f"sequence length {l} exceeds max_seq_len {c.max_seq_len}")
    if tokens.min() < 0 or tokens.max() >= c.vocab_size:
        raise ValueError("token id out of vocabulary range")

    names, start = list(model.stages), start or Resume("embed", None, [])
    try:
        first, last = (names.index(n) for n in (start.stage, "head" if stop is None else stop))
    except ValueError as exc:
        raise ValueError(f"forward: no such stage: {exc}") from None
    if first > last:
        raise ValueError(f"forward: cannot stop at {stop} when starting at {start.stage}")
    x, normed, dispatch, gated = start.rows, start.normed, start.dispatch, start.gated
    traces, t, run = list(start.traces), b * l, names[first:last]
    if first:  # the resume's rows and traces must fit the tokens
        inside = _in_mixture(start.stage)
        routings = traces + [dispatch] * (dispatch is not None)
        routed = sum(name.endswith(".route") for name in names[:first])
        got = [getattr(a, "shape", None) for a in (x, normed)[:1 + inside]]
        got += [(r.probs.shape, r.selected.shape) for r in routings]
        want = [(t, c.hidden_size)] * (1 + inside) + [((t, c.num_experts), (t, c.top_k))] * (
            routed + len(routings) - len(traces))
        if got != want:
            raise ValueError(f"forward: a resume at {start.stage} for {t} tokens needs shapes "
                             f"{want}, got {got}")

    # each norm's output is dropped once the op that reads it returns (the
    # route's at the combine), and y after the add, so under no_grad a
    # sublayer's input is freed as soon as it has been read
    p, y = model.params, None
    for stage in run:
        pre, _, kind = stage.rpartition(".")
        if kind == "embed":
            # [B, L, d] token rows plus the first L position rows, broadcast over B
            x = T.add(T.take_rows(p["tok_emb"], tokens), T.take_rows(p["pos_emb"], np.arange(l)))
            x = T.reshape(x, (t, c.hidden_size))
        elif kind == "attn":
            weights = [p[f"{pre}.attn.{name}"] for name in ("wq", "wk", "wv", "wo")]
            x = T.add(x, T.causal_attention(T.affine_norm(x, p[pre + ".ln1.g"], p[pre + ".ln1.b"]),
                                            *weights, b, c.num_heads))
        elif kind == "route":
            normed = T.affine_norm(x, p[pre + ".ln2.g"], p[pre + ".ln2.b"])
            moe = MoELayer(p[pre + ".moe.router"], p[pre + ".moe.experts"], c.top_k)
            y, probs, selected = moe_forward_batch(moe, normed, mix=pre + ".combine" in run)
            traces.append(LayerTrace(probs, selected))
        elif kind == "combine":
            if y is None:  # the route step did not mix: mix on the resume's routing
                dispatch = dispatch or T.expert_dispatch(traces[-1].probs, traces[-1].selected,
                                                         c.num_experts)
                y = T.expert_mixture(normed, dispatch, p[pre + ".moe.experts"],
                                     gated and list(gated))
            normed = dispatch = gated = None
            x, y = T.add(x, y), None

    if stop is None:
        return x, traces
    if not _in_mixture(stop):
        return Resume(stop, x, traces)
    gated = list(gated or [None] * c.num_experts)
    if not stop.endswith(".combine"):  # at an expert: hold every other expert's rows
        [(experts, e)] = model.stages[stop]
        dispatch = dispatch or T.expert_dispatch(traces[-1].probs, traces[-1].selected,
                                                 c.num_experts)
        T.expert_mixture(normed, dispatch, p[experts], gated)
        gated[e] = None
    return Resume(stop, x, traces, normed, dispatch, tuple(gated))


def _in_mixture(stage: str) -> bool:
    """Whether ``stage`` is one of a layer's expert or combine stages."""
    return ".expert." in stage or stage.endswith(".combine")


def lm_loss(model: MoEModel, hidden, tokens):
    """Next-token cross entropy (nats) of ``forward``'s ``hidden`` rows of a
    [B, L] batch: the final norm, then ``model``'s LM head and the NLL in
    one ``T.next_token_nll``.

    Position t predicts token t+1 within its own sequence; final positions
    have no target and are excluded.
    """
    p = model.params
    return T.next_token_nll(T.affine_norm(hidden, p["ln_f.g"], p["ln_f.b"]), p["lm_head"], tokens)


def perplexity(model: MoEModel, tokens, start=None) -> float:
    """exp(mean next-token NLL) of ``model`` on one [B, L] token array; under
    ``no_grad`` the head runs in row tiles, so no [B*L, V] logits exist.
    ``start`` is ``forward``'s ``Resume`` to begin from."""
    with T.no_grad():
        hidden, _ = forward(model, tokens, start=start)
        return float(np.exp(lm_loss(model, hidden, tokens).item()))


# ---------------------------------------------------------------------------
# checkpoint io


def save_checkpoint(path, model: MoEModel, state):
    """Write config, parameters and AdamW's ``state`` atomically.

    Layout: magic line, one JSON header line {config, params, step} with
    ``step`` AdamW's step count ``state.t``, then raw little-endian float64
    vectors in ``model.flat``'s layout: ``model.flat``, then Adam's m and v.
    """
    header = {"config": asdict(model.config), "params": _layout(model.config)[3],
              "step": int(state.t)}
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for vector in (model.flat, state.m, state.v):
            f.write(vector.astype("<f8", copy=False))
    os.replace(tmp, path)


def load_checkpoint(path):
    """Read a checkpoint; returns (model, AdamWState with t the header's step).

    Raises ValueError naming ``path`` for a bad magic line, an unreadable
    header or config, a ``step`` that is not a non-negative int, a parameter
    layout that is not the config's, and a truncated file (a file without
    the Adam moments among them) or trailing bytes.
    """
    from .trainer import AdamWState  # local import to avoid a cycle

    with open(path, "rb") as f:
        if f.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a moediv checkpoint (bad magic)")
        try:
            header = json.loads(f.readline())
            config = ModelConfig(**header["config"])
            step = header["step"]
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(f"{path}: bad header: {exc}") from exc
        if type(step) is not int or step < 0:  # a bool is an int subclass: refused
            raise ValueError(f"{path}: bad header: step must be a non-negative int, got {step!r}")
        _, _, n, params = _layout(config)
        if header.get("params") != params:
            raise ValueError(f"{path}: parameter names and shapes do not match the config")
        expected = 24 * n
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != expected:
            reason = "truncated" if size < expected else f"{size - expected} trailing bytes"
            raise ValueError(f"{path}: {reason}: expected {expected} data bytes "
                             f"(weights and Adam moments), read {size}")

        def vector():  # the next n values, read straight into their own array
            out = np.empty(n, dtype="<f8")
            if f.readinto(out) != 8 * n:
                raise ValueError(f"{path}: truncated while reading")
            return out

        model = MoEModel(config, flat=vector())
        state = AdamWState(m=vector(), v=vector(), t=step)
    return model, state
