"""The library contracts that the benchmark's ``--trace 1`` hooks rely on."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from moediv.model import ModelConfig, MoEModel, forward  # noqa: E402

SMALL = ModelConfig(
    num_layers=2, hidden_size=16, intermediate_size=24, num_experts=4,
    top_k=2, num_heads=2, vocab_size=17, max_seq_len=12,
)


def test_routing_hook_counts_active_experts():
    # the hook wraps model.moe_forward_batch and reads MoELayer.num_experts
    tracer = tracing.Tracer()
    with tracing.patched(workloads.instrument(tracer, names={"routing.moe_forward_batch"})):
        _, layers = forward(MoEModel(SMALL, seed=0), np.arange(12).reshape(2, 6))
    active = sum(len(np.unique(layer.selected)) for layer in layers)
    assert tracer.counters["routing.active_experts"] == active
    assert sum(span[0] == "routing.moe_forward_batch" for span in tracer.spans) == SMALL.num_layers
