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
            if value < 1:
                raise ValueError(f"{key} must be at least 1, got {value}")
        if self.top_k > self.num_experts:
            raise ValueError("top_k must not exceed num_experts")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")


@dataclass
class LayerTrace:
    """Routing record of one MoE layer: the router output and its top-K.

    Only the last trace of a run stopped at a layer's router holds
    ``normed``, the rows that router read, which a run resumed after that
    routing mixes its experts on. ``dispatch`` is the routing's
    ``tensor.expert_dispatch`` for such a resume, which builds one when it
    is None; a caller that resumes from one trace many times sets it once.
    """

    probs: Tensor         # [T, N]; a graph node unless made under no_grad
    selected: np.ndarray  # [T, K]
    normed: Tensor | None = None        # [T, d] router input, on a stopped run's last trace
    dispatch: T.Dispatch | None = None  # set by a caller that resumes from the trace


def _layout(c: ModelConfig):
    """({name: shape} of every parameter, their number of values, and the
    checkpoint header's ``params`` list of [name, shape]), in the order of
    ``MoEModel.flat``, which is the order ``forward`` and ``lm_loss`` read them in."""
    d, m = c.hidden_size, c.intermediate_size
    shapes = {"tok_emb": (c.vocab_size, d), "pos_emb": (c.max_seq_len, d)}
    for l in range(c.num_layers):
        pre = f"layers.{l}."
        shapes.update({pre + "ln1.g": (d,), pre + "ln1.b": (d,)})
        shapes.update({pre + "attn." + w: (d, d) for w in ("wq", "wk", "wv", "wo")})
        shapes.update({pre + "ln2.g": (d,), pre + "ln2.b": (d,),
                       pre + "moe.router": (c.num_experts, d),
                       pre + "moe.experts": (c.num_experts, 3, d, m)})
    shapes.update({"ln_f.g": (d,), "ln_f.b": (d,), "lm_head": (d, c.vocab_size)})
    return (shapes, sum(math.prod(s) for s in shapes.values()),
            [[n, list(s)] for n, s in shapes.items()])


class MoEModel:
    """Every parameter in one float64 vector ``flat``; ``params`` holds a
    named view of it per parameter."""

    def __init__(self, config: ModelConfig, seed: int = 0, flat=None):
        """Random init drawn from ``seed``, or a copy of ``flat``.

        ``flat`` is a vector in this config's layout; no random init is
        drawn then. Otherwise layer-norm gains start at one, biases at zero
        and every weight at N(0, 0.02^2), drawn in ``params`` order.
        """
        self.config = config
        self.shapes, size, _ = _layout(config)
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

    Returns (hidden Tensor [B*L, d], [LayerTrace per MoE layer run]):
    ``hidden`` is the last block's residual rows, before the final norm,
    which ``lm_loss`` applies with the LM head; the routing analyses read
    only the traces. Each trace's ``probs`` is the router output itself, so
    the auxiliary losses differentiate through it; under ``no_grad`` it is a
    plain Tensor.

    The run can start and stop at a MoE layer's router. With ``stop=l`` it
    returns once layer l is routed: ``hidden`` is then the residual rows that
    enter layer l's MoE sublayer (the "prefix"), and the traces end with
    layer l's, which also holds the normed rows its router read.
    ``start=(l, prefix)`` resumes from such a prefix of the same tokens: the
    run begins at layer l's MoE sublayer and its traces begin with layer
    l's. ``start=(l, prefix, trace)``, with the last trace of that stopped
    run, resumes after layer l's routing: layer l reads neither its ``ln2``
    nor its router, mixes its experts on ``trace``'s normed rows through
    ``trace.dispatch`` (or a dispatch of its probabilities and selection
    built here when that is None), and its trace is ``trace`` itself. With
    l the number of layers, ``start=(l, hidden)`` takes the final rows and
    returns them with no traces. Either way every row is bit-equal to the
    full run's.
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

    p = model.params
    routed = None  # layer first's trace, when the run starts after its routing
    if start is None:
        first = 0
        # [B, L, d] token rows plus the first L position rows, broadcast over B
        x = T.add(T.take_rows(p["tok_emb"], tokens), T.take_rows(p["pos_emb"], np.arange(l)))
        x = T.reshape(x, (b * l, c.hidden_size))
    else:
        first, x = start[0], T.as_tensor(start[1])
        routed = start[2] if len(start) > 2 else None
        last = c.num_layers - (routed is not None)  # the final rows route no layer
        if not 0 <= first <= last or x.shape != (b * l, c.hidden_size):
            raise ValueError(f"forward: cannot start at layer {first} from rows of shape "
                             f"{x.shape} for {c.num_layers} layers and {b * l} tokens")
    if routed is not None:
        want = ((b * l, c.num_experts), (b * l, c.top_k))
        if (routed.probs.shape, routed.selected.shape) != want:
            raise ValueError(f"forward: a trace of probs {routed.probs.shape} and selected "
                             f"{routed.selected.shape} does not route {b * l} tokens")
        if routed.normed is None or routed.normed.shape != x.shape:
            raise ValueError(f"forward: a start after layer {first}'s routing needs the last "
                             f"trace of a run stopped there, which holds the {x.shape} rows "
                             f"its router read")
        if stop == first:
            raise ValueError(f"forward: cannot stop at layer {stop} when starting after its "
                             f"routing")
    if stop is not None and not first <= stop < c.num_layers:
        raise ValueError(f"forward: cannot stop at layer {stop} when starting at layer {first} "
                         f"of {c.num_layers}")

    layers = []
    for i in range(first, c.num_layers):
        pre = f"layers.{i}."
        # each norm's output is dropped once the op that reads it returns,
        # and y after the add, so under no_grad a sublayer's input is freed
        # as soon as it has been read
        if start is None or i > first:
            attn = [p[pre + "attn." + name] for name in ("wq", "wk", "wv", "wo")]
            x = T.add(x, T.causal_attention(T.affine_norm(x, p[pre + "ln1.g"], p[pre + "ln1.b"]),
                                            *attn, b, c.num_heads))
        if i == first and routed is not None:
            dispatch = routed.dispatch or T.expert_dispatch(routed.probs, routed.selected,
                                                            c.num_experts)
            y = T.expert_mixture(routed.normed, dispatch, p[pre + "moe.experts"])
            del dispatch  # one built here is not held through the later layers
            layers.append(routed)
        else:
            xn = T.affine_norm(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
            moe = MoELayer(p[pre + "moe.router"], p[pre + "moe.experts"], c.top_k)
            y, probs, selected = moe_forward_batch(moe, xn, mix=i != stop)
            layers.append(LayerTrace(probs, selected, xn if i == stop else None))
            del xn
        if i == stop:
            break
        x = T.add(x, y)
        del y

    return x, layers


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
    ``start`` is ``forward``'s: a (layer, prefix) or (layer, prefix, trace)
    to resume from."""
    with T.no_grad():
        hidden, _ = forward(model, tokens, start=start)
        return float(np.exp(lm_loss(model, hidden, tokens).item()))


# ---------------------------------------------------------------------------
# checkpoint io


def save_checkpoint(path, model: MoEModel, step: int = 0, opt_state=None):
    """Write config + parameters (+ optimizer moments) atomically.

    Layout: magic line, one JSON header line, then raw little-endian float64
    vectors in ``model.flat``'s layout: ``model.flat``, then Adam's m and v.
    """
    header = {
        "config": asdict(model.config),
        "step": int(step),
        "params": _layout(model.config)[2],
        "has_opt": opt_state is not None,
        "opt_t": int(opt_state.t) if opt_state is not None else 0,
    }
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        f.write(model.flat.astype("<f8", copy=False))
        if opt_state is not None:
            f.write(opt_state.m.astype("<f8", copy=False))
            f.write(opt_state.v.astype("<f8", copy=False))
    os.replace(tmp, path)


def load_checkpoint(path):
    """Read a checkpoint; returns (model, step, opt_state_or_None).

    Raises ValueError naming ``path`` for a bad magic line, an unreadable
    header or config, a ``step`` or ``opt_t`` that is not a non-negative
    int, a ``has_opt`` that is not a bool, a parameter layout that is not
    the config's, and a truncated file or trailing bytes.
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
        for field in ("step", "opt_t"):
            value = header.get(field, 0)
            if type(value) is not int or value < 0:  # a bool is an int subclass: refused
                raise ValueError(f"{path}: bad header: {field} must be a non-negative int, "
                                 f"got {value!r}")
        has_opt = header.get("has_opt", False)
        if type(has_opt) is not bool:
            raise ValueError(f"{path}: bad header: has_opt must be a bool, got {has_opt!r}")
        _, n, params = _layout(config)
        if header.get("params") != params:
            raise ValueError(f"{path}: parameter names and shapes do not match the config")
        expected = 8 * n * (3 if has_opt else 1)
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != expected:
            reason = "truncated" if size < expected else f"{size - expected} trailing bytes"
            raise ValueError(f"{path}: {reason}: expected {expected} data bytes, read {size}")

        def vector():  # the next n values, read straight into their own array
            out = np.empty(n, dtype="<f8")
            if f.readinto(out) != 8 * n:
                raise ValueError(f"{path}: truncated while reading")
            return out

        model = MoEModel(config, flat=vector())
        opt_state = None
        if has_opt:
            opt_state = AdamWState(m=vector(), v=vector(), t=header.get("opt_t", 0))
    return model, step, opt_state
