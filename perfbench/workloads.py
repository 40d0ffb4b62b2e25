"""The benchmark's workloads and the call sites its tracing wraps.

Each workload prepares its inputs in ``setup`` and then runs units of work,
one after another in one process with one caller (a closed loop). A unit
checks its own outputs and returns an ``Outcome``. The library is driven
only through its public functions and ``moediv.cli.run``.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from moediv import checks, cli, data, model, trainer

import tracing

SEQ_LEN = 64
BATCH_SIZE = 8
VAL_SEQUENCES = 100
# One train unit is a whole run_training at the default TrainConfig except
# for its length: 100 steps keep a unit near six seconds, so a run holds
# several units, and a checkpoint every 50 steps writes one mid-run.
TRAIN_STEPS = 100
CHECKPOINT_INTERVAL = 50
# The analyze workload's checkpoint comes from this many steps in set-up.
SETUP_TRAIN_STEPS = 20
ANALYZE_VERBS = (("decompose",), ("perturb", "--layer", "0"), ("heatmap",), ("ternary",))
# end-to-end figures that only one workload has; the others report 0
FIGURES = ("step_ms_p50", "step_ms_p90", "train_run_s", "train_tokens_per_s",
           "decompose_s", "perturb_s", "heatmap_s", "ternary_s", "check_s")

# span name -> modules whose callers look the function up there; the
# function is the span name's last part, defined in moediv.<first part>
SITES = {
    "tensor.backward": ("tensor",),
    "tensor.grad_check": ("tensor",),
    "routing.route": ("routing",),
    "routing.topk_select": ("routing",),
    "routing.moe_forward_batch": ("model",),
    "model.forward": ("model", "trainer", "analysis", "checks"),
    "model.lm_loss": ("model", "trainer", "checks"),
    "model.perplexity": ("analysis",),
    "model.save_checkpoint": ("trainer",),
    "model.load_checkpoint": ("cli",),
    "losses.load_balance_loss_t": ("losses",),
    "losses.expert_divergence_loss_t": ("losses",),
    "losses.compose_t": ("losses",),
    "divergence.decompose": ("divergence", "analysis"),
    "divergence.generalized_jsd": ("divergence",),
    "trainer.run_training": ("trainer",),
    "trainer.train_step": ("trainer",),
    "trainer.adamw_update": ("trainer",),
    "data.synth_corpus": ("data",),
    "data.split_validation": ("data",),
    "data.pack_batches": ("data",),
    "data.load_corpus": ("data",),
    "analysis.delta_ppl_mean": ("analysis",),
    "analysis.delta_ppl": ("analysis",),
    "analysis.permute_router": ("analysis",),
    "analysis.activation_heatmap": ("analysis",),
    "analysis.inverse_heatmap": ("analysis",),
    "analysis.divergence_report": ("analysis",),
}


def _count_graph_nodes(tracer, args):
    # nodes reachable from the backward root; the engine keeps a node's
    # inputs in Tensor._parents
    root = args[0]
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    tracer.count("tensor.graph_nodes", len(seen))


def _count_routing(tracer, args, result):
    layer, selected = args[0], result[2]
    load = np.bincount(selected.reshape(-1), minlength=layer.num_experts)
    tracer.count("routing.active_experts", int(np.count_nonzero(load)))
    tracer.count("routing.load_max_over_mean", float(load.max() / load.mean()))


HOOKS = {
    "tensor.backward": {"before": _count_graph_nodes},
    "routing.moe_forward_batch": {"after": _count_routing},
}


# every workload calls it often, at most about a second apart, so the
# reference slices run before its calls
PACED = "model.forward"


def instrument(tracer, names=None, pacer=None):
    """(module, attribute, wrapper) triples for ``tracing.patched``.

    ``names`` picks span names from SITES to trace; None traces every site
    and also each check that ``moediv check`` runs, through
    ``checks.ALL_CHECKS``. With a ``pacer``, calls to PACED first run any
    reference slice that is due.
    """
    out = []
    for name in SITES:
        traced = names is None or name in names
        paced = pacer is not None and name == PACED
        if not (traced or paced):
            continue
        layer, func = name.split(".")
        wrapper = getattr(importlib.import_module("moediv." + layer), func)
        if traced:
            wrapper = tracer.wrap(wrapper, name, **HOOKS.get(name, {}))
        if paced:
            wrapper = pacer.paced(wrapper)
        for module in SITES[name]:
            out.append((importlib.import_module("moediv." + module), func, wrapper))
    if names is None:
        wrapped = [(label, tracer.wrap(fn, "checks." + fn.__name__))
                   for label, fn in checks.ALL_CHECKS]
        out.append((checks, "ALL_CHECKS", wrapped))
    return out


@dataclass
class Outcome:
    """One unit of work: its checked operations and its outputs."""

    attempted: int
    failed: int
    outputs: dict  # output name -> sha256; every unit must produce the same


def _sha256(data_bytes):
    return hashlib.sha256(data_bytes).hexdigest()


def run_cli(argv):
    """``moediv.cli.run(argv)`` with its output captured: (code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()) as err:
        code = cli.run(argv)
    if code != 0:
        print(f"moediv {argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, out.getvalue()


def demo_corpus(seed):
    docs, _ = data.synth_corpus(data.three_domain_demo_specs(), seed=seed)
    return docs


def train_batches(docs):
    train_docs, _ = data.split_validation(docs, SEQ_LEN, VAL_SEQUENCES)
    return data.pack_batches(train_docs, SEQ_LEN, BATCH_SIZE, trainer.TrainConfig().seed)


def bad_train_records(lines):
    """Records with a non-finite loss or a broken D_total = D_inter + D_intra."""
    bad = 0
    for line in lines:
        rec = json.loads(line)
        finite = all(math.isfinite(rec[k]) for k in ("l_lm", "l_lb", "l_ed", "l_final"))
        identity = all(
            abs(t - e - a) <= 1e-10
            for t, e, a in zip(rec["d_total"], rec["d_inter"], rec["d_intra"])
        )
        bad += not (finite and identity)
    return bad


class Train:
    """run_training on the held-out split of the demo corpus."""

    name = "train"
    run_spans = ("bench.run_training",)
    measured_spans = run_spans + ("trainer.train_step",)
    timing_sites = ("trainer.train_step",)

    def __init__(self, seed):
        self.seed = seed

    def setup(self, work_dir):
        self.batches = train_batches(demo_corpus(self.seed))

    def run_unit(self, unit_dir, tracer):
        config = trainer.TrainConfig(total_steps=TRAIN_STEPS,
                                     checkpoint_interval=CHECKPOINT_INTERVAL)
        net = model.MoEModel(model.ModelConfig(), seed=config.seed)
        try:
            with tracer.span("bench.run_training"):
                trainer.run_training(net, self.batches, config, unit_dir)
        except Exception:
            traceback.print_exc()
            return Outcome(TRAIN_STEPS, TRAIN_STEPS, {})
        names = ("metrics.jsonl", "checkpoint.moediv", "final.moediv")
        blobs = {n: (unit_dir / n).read_bytes() for n in names}
        lines = blobs["metrics.jsonl"].decode().splitlines()
        failed = bad_train_records(lines) + abs(TRAIN_STEPS - len(lines))
        return Outcome(TRAIN_STEPS, min(failed, TRAIN_STEPS),
                       {n: _sha256(b) for n, b in blobs.items()})

    def figures(self, units, runs):
        steps_ms = [1e3 * s for u in units for s in u["trainer.train_step"]]
        tokens = TRAIN_STEPS * BATCH_SIZE * SEQ_LEN
        return {
            "step_ms_p50": tracing.median(steps_ms),
            "step_ms_p90": tracing.percentile(steps_ms, 90),
            "train_run_s": tracing.median(runs),
            "train_tokens_per_s": tracing.median([tokens / r for r in runs]),
        }


def _rows(block):
    return [[float(v) for v in line.split(",")[1:]] for line in block[1:]]


def _layer_blocks(text):
    blocks = []
    for line in text.splitlines():
        if line.startswith("# layer"):
            blocks.append([])
        else:
            blocks[-1].append(line)
    return blocks


def check_decompose(text, num_layers):
    lines = text.splitlines()
    rows = _rows(lines)
    return (lines[0] == "layer,d_total,d_inter,d_intra" and len(rows) == num_layers
            and all(abs(t - e - a) <= 5e-10 * (abs(t) + abs(e) + abs(a)) + 1e-15
                    for t, e, a in rows))


def check_perturb(text, num_domains, draws=3):
    recs = [json.loads(line) for line in text.splitlines()]
    deltas = [r["delta"] for r in recs[:-1]] + list(recs[-1]["mean_delta"].values())
    return len(recs) == draws * num_domains + 1 and all(math.isfinite(d) for d in deltas)


def check_heatmap(text, num_layers, num_domains):
    blocks = _layer_blocks(text)
    return len(blocks) == num_layers and all(
        len(_rows(b)) == num_domains
        and all(min(r) >= 0 and abs(sum(r) - 1.0) <= 1e-9 for r in _rows(b))
        for b in blocks
    )


def check_ternary(text, num_layers, num_experts):
    blocks = _layer_blocks(text)
    for b in blocks:
        rows = _rows(b)
        bary = [r[2:] for r in rows]  # expert, x, y, then one p_<domain> per vertex
        if len(rows) != num_experts or any(
                min(p) < 0 or abs(sum(p) - 1.0) > 1e-9 for p in bary):
            return False
    return len(blocks) == num_layers


class Analyze:
    """The analysis verbs through the CLI, on a checkpoint trained in set-up."""

    name = "analyze"
    run_spans = measured_spans = tuple("cli.run." + verb[0] for verb in ANALYZE_VERBS)
    timing_sites = ()

    def __init__(self, seed):
        self.seed = seed

    def setup(self, work_dir):
        docs = demo_corpus(self.seed)
        config = trainer.TrainConfig(total_steps=SETUP_TRAIN_STEPS, warmup_steps=0,
                                     checkpoint_interval=SETUP_TRAIN_STEPS)
        self.config = model.ModelConfig()
        self.ckpt, _ = trainer.run_training(
            model.MoEModel(self.config, seed=config.seed), train_batches(docs), config,
            work_dir / "run",
        )
        self.corpus = work_dir / "corpus.jsonl"
        with open(self.corpus, "w", encoding="utf-8") as f:
            for doc in docs:
                text = doc.tokens.tobytes().decode("utf-8")
                f.write(json.dumps({"text": text, "domain": doc.domain}) + "\n")
        self.num_domains = len({doc.domain for doc in docs})

    def _correct(self, verb, text):
        c = self.config
        checkers = {
            "decompose": lambda: check_decompose(text, c.num_layers),
            "perturb": lambda: check_perturb(text, self.num_domains),
            "heatmap": lambda: check_heatmap(text, c.num_layers, self.num_domains),
            "ternary": lambda: check_ternary(text, c.num_layers, c.num_experts),
        }
        try:
            return checkers[verb]()
        except (ValueError, KeyError, IndexError, TypeError):
            return False

    def run_unit(self, unit_dir, tracer):
        results = []
        for verb, *flags in ANALYZE_VERBS:
            argv = [verb, "--ckpt", str(self.ckpt), "--data", str(self.corpus), *flags]
            with tracer.span("cli.run." + verb):
                code, text = run_cli(argv)
            results.append((verb, code, text))
        failed = sum(code != 0 or not self._correct(verb, text)
                     for verb, code, text in results)
        return Outcome(len(results), failed,
                       {verb: _sha256(text.encode()) for verb, _, text in results})

    def figures(self, units, runs):
        return {verb + "_s": tracing.median([u["cli.run." + verb][0] for u in units])
                for verb, *_ in ANALYZE_VERBS}


class Check:
    """``moediv check``: the invariant suite, dominated by per-op overhead."""

    name = "check"
    run_spans = measured_spans = ("cli.run.check",)
    timing_sites = ()

    def __init__(self, seed):
        self.seed = seed  # the suite takes no input, so nothing depends on it

    def setup(self, work_dir):
        pass

    def run_unit(self, unit_dir, tracer):
        expected = len(checks.ALL_CHECKS)
        with tracer.span("cli.run.check"):
            code, text = run_cli(["check"])
        lines = text.splitlines()
        failed = sum(not line.startswith("[PASS]") for line in lines)
        failed += max(0, expected - len(lines))
        if code != 0:
            failed = max(failed, 1)
        return Outcome(max(expected, len(lines)), failed,
                       {"stdout": _sha256(text.encode())})

    def figures(self, units, runs):
        return {"check_s": tracing.median(runs)}


WORKLOADS = {w.name: w for w in (Train, Analyze, Check)}
