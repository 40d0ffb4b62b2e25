"""Post-hoc specialization analyses over a frozen model.

Router-permutation perplexity deltas (one record per domain, the line
``moediv perturb`` prints), domain/expert activation heatmaps (and the
expert-centric inverse form), ternary simplex coordinates for 3-domain
setups, and per-layer divergence reports on validation sets. All matrices
export as CSV with a one-line header.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .divergence import DivergenceReport, decompose
from .model import MoEModel, forward, perplexity


@dataclass
class HeatmapMatrix:
    rows: list[str]
    cols: list[str]
    values: np.ndarray
    flagged_rows: list[str] = field(default_factory=list)  # rows forced uniform

    def to_csv(self) -> str:
        text = csv_table(["row", *self.cols], zip(self.rows, self.values))
        if self.flagged_rows:
            text += "# never selected: " + ",".join(self.flagged_rows) + "\n"
        return text


def csv_table(header, rows) -> str:
    """The CSV text of every verb's tables: the ``header`` line, then per
    (label, values) pair of ``rows`` the label and each value in ``.10g``."""
    lines = [",".join(header)]
    lines += [",".join([str(label)] + [f"{v:.10g}" for v in values]) for label, values in rows]
    return "\n".join(lines) + "\n"


def permute_router(model: MoEModel, layer: int, seed: int, out=None) -> tuple:
    """Return (model copy with layer's router rows permuted, permutation).

    Only the given layer's router weight matrix differs from ``model``'s; a
    uniformly random permutation of its row indices other than the identity
    is drawn from ``seed``. The copy is ``out`` when given, a model whose
    other parameters equal ``model``'s, so a caller that draws several
    permutations copies ``model`` once; otherwise a new one. A one-expert
    model has no such permutation and is refused.
    """
    if not 0 <= layer < model.config.num_layers:
        raise ValueError(f"layer {layer} out of range (model has {model.config.num_layers})")
    n = model.config.num_experts
    if n < 2:
        raise ValueError(f"permute_router needs at least 2 experts, model has {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    while np.array_equal(perm, np.arange(n)):
        perm = rng.permutation(n)
    shuffled = MoEModel(model.config, flat=model.flat) if out is None else out
    name = f"layers.{layer}.moe.router"
    shuffled.params[name].data[...] = model.params[name].data[perm]
    return shuffled, perm


def delta_ppl(model: MoEModel, layer: int, valsets: dict, seed: int,
              ppl_original: dict, prefixes: dict, out=None) -> list[dict]:
    """Perplexity increase per domain after permuting one layer's router rows.

    ``ppl_original`` maps each domain to ``model``'s perplexity on it, and
    ``prefixes`` to the ``Resume`` of ``model``'s forward stopped at layer's
    route stage; a caller that draws several permutations computes both
    once. No row before layer's router depends on its rows, so each
    permuted forward resumes from the prefix. ``out`` is
    ``permute_router``'s. Returns one record per domain, in sorted order, as
    ``moediv perturb`` prints it: layer, domain, ppl_orig, ppl_shuf, delta,
    seed and permutation.
    """
    if not valsets:
        raise ValueError("delta_ppl: empty validation sets")
    shuffled, perm = permute_router(model, layer, seed, out)
    records = []
    for dom in sorted(valsets):
        ppl = perplexity(shuffled, valsets[dom], prefixes[dom])
        records.append({"layer": layer, "domain": dom, "ppl_orig": ppl_original[dom],
                        "ppl_shuf": ppl, "delta": ppl - ppl_original[dom], "seed": seed,
                        "permutation": perm.tolist()})
    return records


def delta_ppl_mean(model: MoEModel, layer: int, valsets: dict, seed: int,
                   draws: int = 3) -> dict:
    """Mean per-domain delta-PPL over ``draws`` independent permutations.

    Each domain's prefix, the run stopped at layer's route stage, is
    computed once and serves the original model and every draw; it holds
    the rows entering layer's MoE sublayer and no normed rows, which a
    resume after the routing would hold through the rest of the forward,
    one more [B*L, d] array at the forward's peak, to save one routing. One
    domain's prefix is held at a time, and one model copy is permuted for
    every draw.
    Returns {"mean_delta": {domain: mean}, "draws": [delta_ppl's records per
    draw]}.
    """
    if not valsets:
        raise ValueError("delta_ppl_mean: empty validation sets")
    results = [[] for _ in range(draws)]
    shuffled = MoEModel(model.config, flat=model.flat)
    for dom in sorted(valsets):
        with T.no_grad():
            prefix = {dom: forward(model, valsets[dom], stop=f"layers.{layer}.route")}
        ppl_original = {dom: perplexity(model, valsets[dom], prefix[dom])}
        for i, records in enumerate(results):
            records += delta_ppl(model, layer, {dom: valsets[dom]}, seed + i,
                                 ppl_original, prefix, shuffled)
    mean = {
        dom: float(np.mean([records[j]["delta"] for records in results]))
        for j, dom in enumerate(sorted(valsets))
    }
    return {"mean_delta": mean, "draws": results}


def collect_traces(model: MoEModel, valsets: dict) -> dict:
    """Forward every domain's validation set once; {domain: [LayerTrace]}.

    The heatmaps and the divergence report read any layer from the result,
    so one call serves every layer of a command. Each forward stops at the
    last layer's combine stage, once it is routed, as nothing reads its
    expert mixture; only the traces of its ``Resume`` are kept, not the
    normed rows and dispatch that a resume would read.
    """
    stop = f"layers.{model.config.num_layers - 1}.combine"
    with T.no_grad():
        return {dom: forward(model, valsets[dom], stop=stop).traces for dom in sorted(valsets)}


def activation_heatmap(traces: dict, layer: int) -> HeatmapMatrix:
    """Rows = domains, cols = experts; mean router probability, rows sum to 1.

    ``traces`` comes from ``collect_traces``.
    """
    doms = sorted(traces)
    n = traces[doms[0]][layer].probs.shape[1]
    rows = []
    for dom in doms:
        row = traces[dom][layer].probs.data.mean(axis=0)
        rows.append(row / row.sum())
    return HeatmapMatrix(
        rows=doms, cols=[f"expert_{i}" for i in range(n)], values=np.stack(rows)
    )


def inverse_heatmap(traces: dict, layer: int) -> HeatmapMatrix:
    """Rows = experts, cols = domains; selection frequency P(domain | expert).

    ``traces`` comes from ``collect_traces``. Experts never selected on any
    domain get a uniform row and are flagged.
    """
    doms = sorted(traces)
    n = traces[doms[0]][layer].probs.shape[1]
    counts = np.zeros((n, len(doms)))
    for j, dom in enumerate(doms):
        counts[:, j] = np.bincount(traces[dom][layer].selected.reshape(-1), minlength=n)
    totals = counts.sum(axis=1, keepdims=True)
    values = np.where(totals > 0, counts / np.maximum(totals, 1), 1.0 / len(doms))
    flagged = [f"expert_{i}" for i in np.flatnonzero(totals == 0)]
    return HeatmapMatrix(
        rows=[f"expert_{i}" for i in range(n)], cols=doms, values=values,
        flagged_rows=flagged,
    )


TERNARY_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])


def ternary_coords(inverse: HeatmapMatrix) -> np.ndarray:
    """Barycentric projection of 3-domain P(domain|expert) rows to the plane.

    Vertex order follows the matrix columns: first domain at (0,0), second at
    (1,0), third at (0.5, sqrt(3)/2). One (x, y) point per expert.
    """
    if len(inverse.cols) != 3:
        raise ValueError(f"ternary_coords needs exactly 3 domains, got {len(inverse.cols)}")
    return inverse.values @ TERNARY_VERTICES


def divergence_report(traces: dict) -> list[DivergenceReport]:
    """Per-layer diversity decomposition over the pooled validation tokens.

    ``traces`` comes from ``collect_traces``.
    """
    if not traces:
        raise ValueError("divergence_report: empty validation sets")
    doms = sorted(traces)
    reports = []
    for layer in range(len(traces[doms[0]])):
        parts = [traces[d][layer].probs.data for d in doms]
        ids = np.repeat(np.arange(len(doms)), [len(p) for p in parts])
        reports.append(decompose(np.concatenate(parts), ids))
    return reports


def report_csv(reports) -> str:
    return csv_table(["layer", "d_total", "d_inter", "d_intra"],
                     ((i, (r.d_total, r.d_inter, r.d_intra)) for i, r in enumerate(reports)))
