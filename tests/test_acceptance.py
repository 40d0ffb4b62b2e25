"""End-to-end acceptance gate.

Each test asserts one numbered criterion at its pinned tolerance and records
a single pass/fail line (printed in the terminal summary). The twin-run
fixture trains the full-size 2000-step pair once and is shared by the
training-synergy, perturbation, and heatmap criteria.
"""

import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from moediv import analysis, checks, losses
from moediv.data import (
    pack_batches,
    split_validation,
    synth_corpus,
    three_domain_demo_specs,
)
from moediv.model import ModelConfig, MoEModel, load_checkpoint
from moediv.tensor import Tensor
from moediv.trainer import TrainConfig, run_training

RESULTS = []


def record(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    RESULTS.append(line)
    assert ok, line


def test_c1_decomposition_identity():
    t0 = time.perf_counter()
    ok, detail = checks.check_decomposition(n_trials=1000, tol=1e-10)
    dt = time.perf_counter() - t0
    record(1, "decomposition identity", ok and dt < 10.0, f"{detail}, {dt:.1f}s (<10s)")


def test_c2_dual_formula():
    t0 = time.perf_counter()
    ok, detail = checks.check_dual_formula(n_trials=1000, tol=1e-12)
    dt = time.perf_counter() - t0
    record(2, "generalized JSD dual formula", ok and dt < 5.0, f"{detail}, {dt:.1f}s (<5s)")


def test_c3_proportionality():
    t0 = time.perf_counter()
    ok, detail = checks.check_proportionality(n=16, scales=(1e-2, 1e-3, 1e-4),
                                              tol_at_1e3=0.01)
    dt = time.perf_counter() - t0
    record(3, "pairwise/inter proportionality", ok and dt < 5.0,
           f"{detail}, {dt:.1f}s (<5s)")


def test_c4_gradient_checks():
    t0 = time.perf_counter()
    ok, detail = checks.check_gradients(tol=1e-4, h=1e-5)
    dt = time.perf_counter() - t0
    record(4, "gradient checks", ok and dt < 30.0, f"{detail}, {dt:.1f}s (<30s)")


def test_c5_closed_form_losses():
    n, k, t = 8, 2, 16
    probs = np.full((t, n), 1.0 / n)
    sel = np.stack([np.arange(t) % n, (np.arange(t) + n // 2) % n], axis=1)
    lb = losses.load_balance_loss_t(Tensor(probs), sel).item()
    err_lb = abs(lb - k)

    same = np.tile([0.5, 0.5], (8, 1))
    ed_same = losses.expert_divergence_loss_t(
        Tensor(same.reshape(4, 2, 2)), ["a", "a", "b", "b"]
    )
    err_same = abs(ed_same.item() - (-np.log(1e-8)))

    disjoint = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4)
    ed_dis = losses.expert_divergence_loss_t(
        Tensor(disjoint.reshape(4, 2, 2)), ["a", "a", "b", "b"]
    )
    err_dis = abs(ed_dis.item() - (-np.log(np.log(2.0) + 1e-8)))

    ok = max(err_lb, err_same, err_dis) <= 1e-6
    record(5, "closed-form loss values", ok,
           f"|L_LB-K|={err_lb:.2e}, |L_ED-(-ln eps)|={err_same:.2e}, "
           f"|L_ED-(-ln(ln2+eps))|={err_dis:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# twin 2000-step runs shared by criteria 6-8


@pytest.fixture(scope="module")
def twin(tmp_path_factory):
    root = tmp_path_factory.mktemp("twin")
    docs, _ = synth_corpus(three_domain_demo_specs(num_docs=8, doc_len=2048), seed=7)
    train_docs, valsets = split_validation(docs, seq_len=64, val_sequences=30)
    batches = pack_batches(train_docs, seq_len=64, batch_size=8, seed=7)

    out = {"valsets": valsets, "wall": {}}
    for tag, beta in (("edl", 5e-4), ("base", 0.0)):
        t0 = time.perf_counter()
        model = MoEModel(ModelConfig(), seed=1)
        cfg = TrainConfig(total_steps=2000, beta=beta, seed=1)
        final, metrics = run_training(model, batches, cfg, root / tag)
        out[tag] = {
            "model": model,
            "metrics": [json.loads(l) for l in Path(metrics).read_text().splitlines()],
        }
        out["wall"][tag] = time.perf_counter() - t0
    return out


def test_c6_training_synergy(twin):
    stats = {}
    for tag in ("edl", "base"):
        last = twin[tag]["metrics"][-100:]
        stats[tag] = {
            "d_inter": float(np.mean([np.mean(r["d_inter"]) for r in last])),
            "l_lm": float(np.mean([r["l_lm"] for r in last])),
        }
    ratio = stats["edl"]["d_inter"] / stats["base"]["d_inter"]
    lm_rel = stats["edl"]["l_lm"] / stats["base"]["l_lm"] - 1.0
    wall = max(twin["wall"].values())
    ok = ratio >= 1.5 and lm_rel <= 0.02 and wall < 1800
    record(6, "training synergy", ok,
           f"D_inter ratio {ratio:.2f} (>=1.5), L_LM delta {100 * lm_rel:+.2f}% "
           f"(<=+2%), slowest run {wall:.0f}s (<1800s)")


@pytest.fixture(scope="module")
def perturbation(twin):
    """Mean per-layer delta-PPL (3 draws) for both twins, plus timing."""
    t0 = time.perf_counter()
    out = {}
    n_layers = twin["edl"]["model"].config.num_layers
    for tag in ("edl", "base"):
        per_layer = []
        for layer in range(n_layers):
            res = analysis.delta_ppl_mean(
                twin[tag]["model"], layer, twin["valsets"], seed=11, draws=3
            )
            per_layer.append(res["mean_delta"])
        out[tag] = per_layer
    out["wall"] = time.perf_counter() - t0
    return out


def test_c7_perturbation(twin, perturbation):
    edl = perturbation["edl"]
    worst = min(min(d.values()) for d in edl)
    all_positive = worst > 0
    overall = [float(np.mean(list(d.values()))) for d in edl]
    top_layer = int(np.argmax(overall))
    edl_top = overall[top_layer]
    base_top = float(np.mean(list(perturbation["base"][top_layer].values())))
    ok = all_positive and edl_top > base_top and perturbation["wall"] < 300
    record(7, "perturbation analysis", ok,
           f"min delta-PPL {worst:.3f} (>0 all layers/domains), layer {top_layer}: "
           f"EDL {edl_top:.3f} > baseline {base_top:.3f}, {perturbation['wall']:.0f}s (<300s)")


def test_c8_heatmap_ternary(twin, perturbation):
    overall = [float(np.mean(list(d.values()))) for d in perturbation["edl"]]
    top_layer = int(np.argmax(overall))

    row_err = 0.0
    cosines = {}
    traces = {tag: analysis.collect_traces(twin[tag]["model"], twin["valsets"])
              for tag in ("edl", "base")}
    for tag in ("edl", "base"):
        hm = analysis.activation_heatmap(traces[tag], top_layer)
        row_err = max(row_err, float(np.abs(hm.values.sum(axis=1) - 1.0).max()))
        sims = []
        for i in range(len(hm.rows)):
            for j in range(i + 1, len(hm.rows)):
                a, b = hm.values[i], hm.values[j]
                sims.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        cosines[tag] = float(np.mean(sims))

    inv = analysis.inverse_heatmap(traces["edl"], top_layer)
    row_err = max(row_err, float(np.abs(inv.values.sum(axis=1) - 1.0).max()))
    pts = analysis.ternary_coords(inv)
    v = analysis.TERNARY_VERTICES
    t_mat = np.stack([v[0] - v[2], v[1] - v[2]], axis=1)
    bary_min = 1.0
    for p in pts:
        lam = np.linalg.solve(t_mat, p - v[2])
        bary = np.array([lam[0], lam[1], 1.0 - lam.sum()])
        bary_min = min(bary_min, float(bary.min()))

    ok = row_err <= 1e-9 and bary_min >= -1e-12 and cosines["edl"] < cosines["base"]
    record(8, "heatmap/ternary contracts", ok,
           f"max row-sum error {row_err:.1e} (<=1e-9), min barycentric coord "
           f"{bary_min:.1e} (>=0), cosine EDL {cosines['edl']:.4f} < "
           f"baseline {cosines['base']:.4f}")


def test_c9_determinism_and_resume(tmp_path):
    config = ModelConfig(
        num_layers=2, hidden_size=32, intermediate_size=48, num_experts=4,
        top_k=2, num_heads=2, vocab_size=128, max_seq_len=32,
    )
    docs, _ = synth_corpus(three_domain_demo_specs(num_docs=2, doc_len=512), seed=4)
    batches = pack_batches(docs, seq_len=16, batch_size=4, seed=4)
    cfg = TrainConfig(total_steps=30, warmup_steps=5, checkpoint_interval=15, seed=4)

    logs = []
    for sub in ("r1", "r2"):
        model = MoEModel(config, seed=4)
        _, metrics = run_training(model, batches, cfg, tmp_path / sub)
        logs.append(Path(metrics).read_bytes())
    identical = logs[0] == logs[1]

    half_cfg = TrainConfig(total_steps=15, warmup_steps=5, checkpoint_interval=15, seed=4)
    model = MoEModel(config, seed=4)
    run_training(model, batches, half_cfg, tmp_path / "half")
    resumed, state = load_checkpoint(tmp_path / "half" / "checkpoint.moediv")
    (tmp_path / "resume").mkdir()
    shutil.copy(tmp_path / "half" / "metrics.jsonl", tmp_path / "resume" / "metrics.jsonl")
    run_training(resumed, batches, cfg, tmp_path / "resume", state)
    resume_log = (tmp_path / "resume" / "metrics.jsonl").read_bytes()
    resume_ok = resume_log == logs[0]
    ckpt_ok = (
        (tmp_path / "r1" / "final.moediv").read_bytes()
        == (tmp_path / "resume" / "final.moediv").read_bytes()
    )

    ok = identical and resume_ok and ckpt_ok
    record(9, "determinism and resume", ok,
           f"twin logs byte-identical: {identical}, resumed log byte-identical: "
           f"{resume_ok}, resumed final checkpoint byte-identical: {ckpt_ok}")
