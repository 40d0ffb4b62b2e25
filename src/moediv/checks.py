"""Self-contained invariant suite behind the ``moediv check`` command.

Each check returns (ok, detail string); run_all prints one line per check.
"""

from __future__ import annotations

import numpy as np

from . import divergence, trainer
from . import tensor as T
from .data import DomainBatch
from .model import ModelConfig, MoEModel, forward

# Unused here, but perfbench/workloads.py patches ``lm_loss`` on this module
# by name, so the name must stay importable from it.
from .model import lm_loss  # noqa: F401


def _random_dist(rng, n):
    p = rng.random(n) + 1e-3
    return p / p.sum()


def check_decomposition(n_trials=1000, seed=0, tol=1e-10):
    """D_total == D_inter + D_intra on random labeled traces."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        n = int(rng.integers(4, 65))
        m = int(rng.integers(2, 9))
        t = int(rng.integers(8, 513))
        probs = rng.random((t, n)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, m, size=t).tolist()
        rep = divergence.decompose(probs, labels)
        worst = max(worst, abs(rep.d_total - rep.d_inter - rep.d_intra))
    return worst <= tol, f"max residual {worst:.3e} (tol {tol:.0e})"


def check_dual_formula(n_trials=1000, seed=1, tol=1e-12):
    """Generalized JSD: KL form equals entropy form."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        n = int(rng.integers(2, 33))
        k = int(rng.integers(2, 9))
        dists = [_random_dist(rng, n) for _ in range(k)]
        w = rng.random(k) + 1e-3
        w /= w.sum()
        a = divergence.generalized_jsd(dists, w)
        b = divergence.generalized_jsd_entropy_form(dists, w)
        worst = max(worst, abs(a - b))
    return worst <= tol, f"max |KL form - entropy form| {worst:.3e} (tol {tol:.0e})"


def make_deltas(rng, m, n):
    """Double-centered perturbations: rows sum to 0 and columns sum to 0."""
    z = rng.normal(size=(m, n))
    z -= z.mean(axis=0, keepdims=True)
    z -= z.mean(axis=1, keepdims=True)
    return z


def check_proportionality(seed=2, n=16, scales=(1e-2, 1e-3, 1e-4), tol_at_1e3=0.01):
    """S_pair / D_inter converges to M^2/4, with error shrinking in t."""
    rng = np.random.default_rng(seed)
    ok = True
    details = []
    for m in (2, 3, 4, 6):
        base = _random_dist(rng, n)
        deltas = make_deltas(rng, m, n)
        deltas /= np.abs(deltas).max() * 4.0  # keep base + t*delta positive
        target = m * m / 4.0
        devs = []
        for t in scales:
            _, _, ratio = divergence.proportionality_check(base, deltas, t)
            devs.append(abs(ratio - target) / target)
        # for M=2 the two quantities coincide exactly, so the deviation is
        # float noise; treat anything below 1e-9 as converged
        monotone = all(
            devs[i + 1] < devs[i] or devs[i + 1] < 1e-9
            for i in range(len(devs) - 1)
        )
        ok = ok and devs[1] <= tol_at_1e3 and monotone
        details.append(f"M={m}: dev@1e-3={devs[1]:.2e} monotone={monotone}")
    return ok, "; ".join(details)


def gradient_check_fixture(seed=5):
    """Small 1-layer model + 2-domain batch used by all gradient checks."""
    config = ModelConfig(
        num_layers=1, hidden_size=8, intermediate_size=16, num_experts=4,
        top_k=2, num_heads=2, vocab_size=13, max_seq_len=8,
    )
    model = MoEModel(config, seed=seed)
    # Inflate the weight scale: at the default tiny init the routing
    # distributions are near-uniform, which puts top-K selection at a
    # near-tie (discontinuous under perturbation) and the pairwise JSD at
    # ~1e-8 where the -log curvature ruins central differences. A spread-out
    # model keeps all losses locally smooth.
    rng = np.random.default_rng(seed + 1)
    for name, p in model.params.items():
        if name.endswith((".g", ".b")):
            continue
        p.data[...] = rng.normal(0.0, 0.4, size=p.shape)
    tokens = rng.integers(0, config.vocab_size, size=(4, 6))
    batch = DomainBatch(
        sequences=tokens.astype(np.intp),
        domains=["a", "a", "b", "b"],
    )
    return model, batch


def check_gradients(tol=1e-4, h=1e-5, seed=5):
    """Analytic gradients of each term of the training objective vs central
    differences, all terms from one finite-difference pass per stage of
    ``forward`` that reads parameters.

    Each parameter is perturbed on the objective resumed at the stage that
    reads it, so an evaluation reruns nothing the parameter cannot change;
    an expert's weights on a resume that holds every other expert's gated
    rows. The resumes come from one chain of stopped forwards and hold the
    (L_LB, L_ED) pairs of the layers they have routed.
    """
    model, batch = gradient_check_fixture(seed)
    train_config = trainer.TrainConfig(total_steps=1, warmup_steps=0)
    passes, resume = [], None
    for stage, reads in model.stages.items():
        if not reads:
            continue
        with T.no_grad():
            resume = forward(model, batch.sequences, start=resume, stop=stage)
        resume = resume._replace(losses=tuple(trainer._layer_losses(trace, batch, train_config)
                                              for trace in resume.traces))
        passes.append(T.grad_check(
            lambda r=resume: trainer.objective(model, batch, train_config, r)[0],
            [(model.params[name], i) for name, i in reads], h=h))
    errs = {name: max(p[name] for p in passes) for name in passes[0]}
    ok = all(e <= tol for e in errs.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
    return ok, f"max relative errors: {detail} (tol {tol:.0e})"


ALL_CHECKS = [
    ("decomposition identity", check_decomposition),
    ("generalized JSD dual formula", check_dual_formula),
    ("pairwise/inter proportionality", check_proportionality),
    ("gradient checks", check_gradients),
]


def run_all(out=print) -> bool:
    all_ok = True
    for name, fn in ALL_CHECKS:
        ok, detail = fn()
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        all_ok = all_ok and ok
    return all_ok
