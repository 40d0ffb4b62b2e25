import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moediv import analysis, checks, divergence
from moediv import data as D
from moediv import tensor as T
from moediv import trainer as TR
from moediv.model import ModelConfig, MoEModel, load_checkpoint

SMALL = ModelConfig(
    num_layers=1, hidden_size=16, intermediate_size=24, num_experts=4,
    top_k=2, num_heads=2, vocab_size=128, max_seq_len=16,
)


def tiny_batches(seed=0, n_batches=4):
    specs = [
        D.SynthDomainSpec("a", "abcdefgh", 2, 300, bigram_gain=1.0),
        D.SynthDomainSpec("b", "abcdefgh", 2, 300, bigram_gain=1.0),
    ]
    docs, _ = D.synth_corpus(specs, seed=seed)
    return D.pack_batches(docs, seq_len=8, batch_size=4, seed=seed)[:n_batches]


class TestTrainConfig:
    def test_defaults(self):
        c = TR.TrainConfig()
        assert (c.alpha, c.beta, c.eps) == (1e-3, 5e-4, 1e-8)
        assert (c.lr, c.warmup_steps) == (5e-4, 100)
        assert (c.adam_beta1, c.adam_beta2, c.weight_decay) == (0.9, 0.95, 0.1)

    def test_warmup_bound(self):
        with pytest.raises(ValueError):
            TR.TrainConfig(total_steps=50, warmup_steps=100)

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            TR.TrainConfig(beta=-0.1)


class TestSchedule:
    def test_linear_warmup(self):
        c = TR.TrainConfig(lr=1.0, warmup_steps=10, total_steps=100)
        assert TR.lr_at(0, c) == 0.0
        assert TR.lr_at(5, c) == pytest.approx(0.5)
        assert TR.lr_at(10, c) == 1.0
        assert TR.lr_at(99, c) == 1.0

    def test_no_warmup(self):
        c = TR.TrainConfig(lr=0.3, warmup_steps=0, total_steps=10)
        assert TR.lr_at(0, c) == 0.3


class TestAdamW:
    def test_first_step_unit_direction(self):
        # with bias correction, step 1 moves each coordinate by
        # lr * g/|g| (up to eps), independent of gradient magnitude
        p = np.zeros(3)
        state = TR.AdamWState.init(p)
        g = np.array([10.0, -0.01, 0.0])
        TR.adamw_update(p, g, state, lr=0.1, beta1=0.9, beta2=0.95, weight_decay=0.0)
        np.testing.assert_allclose(p[:2], [-0.1, 0.1], atol=1e-5)
        assert p[2] == 0.0

    def test_decoupled_decay(self):
        # zero gradient: parameter shrinks by exactly (1 - lr*wd)
        p = np.array([2.0])
        state = TR.AdamWState.init(p)
        TR.adamw_update(p, np.zeros(1), state, lr=0.1, beta1=0.9,
                        beta2=0.95, weight_decay=0.5)
        assert p[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), abs=1e-12)

    @staticmethod
    def scalar_reference(w, steps, lr, b1, b2, wd, eps):
        """Independent scalar AdamW on the gradient of w^2."""
        m = v = 0.0
        for t in range(1, steps + 1):
            g = float(2 * w)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            w = w * (1 - lr * wd) - lr * mhat / (np.sqrt(vhat) + eps)
        return w

    def test_scalar_reference_trajectory(self):
        # independent scalar re-implementation of 5 steps
        lr, b1, b2, wd, eps = 0.01, 0.9, 0.95, 0.1, 1e-8
        p = np.array([1.0])
        state = TR.AdamWState.init(p)
        for _ in range(5):
            TR.adamw_update(p, 2 * p, state, lr=lr, beta1=b1, beta2=b2, weight_decay=wd)
        w = self.scalar_reference(1.0, 5, lr, b1, b2, wd, eps)
        assert p[0] == pytest.approx(w, abs=1e-12)
        assert state.t == 5

    def test_slices_match_scalar_reference(self):
        # the update walks the vector in slices; values on both sides of a
        # slice boundary and at the ragged end follow the scalar reference
        # bit for bit
        lr, b1, b2, wd, eps = 0.01, 0.9, 0.95, 0.1, 1e-8
        n = 2 ** 15 + 3
        p = np.linspace(-1.0, 1.0, n)
        start = p.copy()
        state = TR.AdamWState.init(p)
        for _ in range(5):
            TR.adamw_update(p, 2 * p, state, lr=lr, beta1=b1, beta2=b2, weight_decay=wd)
        for i in (0, 2 ** 15 - 1, 2 ** 15, n - 1):
            assert p[i] == self.scalar_reference(start[i], 5, lr, b1, b2, wd, eps), i

    def test_shape_mismatch(self):
        p = np.zeros(3)
        state = TR.AdamWState.init(p)
        with pytest.raises(ValueError):
            TR.adamw_update(p, np.zeros(4), state, lr=0.1,
                            beta1=0.9, beta2=0.95, weight_decay=0.0)


def flat_gradient(grads, max_norm):
    """``_flat_gradient`` of {name: array} leaf gradients of a SMALL model,
    as (flat vector, {name: view})."""
    model = MoEModel(SMALL, seed=0)
    flat = TR._flat_gradient(model, {model.params[n]: g for n, g in grads.items()}, max_norm)
    return flat, model.split(flat)


def vec(*head, size=SMALL.hidden_size):
    return np.concatenate([head, np.zeros(size - len(head))])


class TestClipping:
    def test_below_threshold_untouched(self):
        g = {"ln_f.b": vec(0.3, 0.4)}
        flat, out = flat_gradient(g, 1.0)
        assert np.array_equal(out["ln_f.b"], g["ln_f.b"])
        assert np.count_nonzero(flat) == 2

    def test_scaled_to_max_norm(self):
        g = {"ln_f.g": vec(3.0, 0.0), "ln_f.b": vec(4.0)}
        flat, out = flat_gradient(g, 1.0)
        total = np.sqrt(float((flat * flat).sum()))
        assert total == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(out["ln_f.g"][:2], [0.6, 0.0])

    def test_disabled(self):
        g = {"ln_f.b": vec(100.0)}
        assert np.array_equal(flat_gradient(g, 0.0)[1]["ln_f.b"], g["ln_f.b"])


class TestTrainStep:
    def test_metrics_fields(self):
        model = MoEModel(SMALL, seed=0)
        batch = tiny_batches()[0]
        state = TR.AdamWState.init(model.flat)
        cfg = TR.TrainConfig(total_steps=10, warmup_steps=2)
        rec = TR.train_step(model, batch, cfg, state, step=0)
        assert rec["step"] == 0
        assert len(rec["d_total"]) == SMALL.num_layers
        assert np.isfinite(rec["l_final"])
        assert "wall_time" not in rec
        assert set(rec) == {"step", "l_lm", "l_lb", "l_ed", "l_final",
                            "d_total", "d_inter", "d_intra", "m_b", "lr"}

    def test_parameters_move(self):
        model = MoEModel(SMALL, seed=1)
        before = {n: p.data.copy() for n, p in model.params.items()}
        state = TR.AdamWState.init(model.flat)
        cfg = TR.TrainConfig(total_steps=10, warmup_steps=0)
        TR.train_step(model, tiny_batches()[0], cfg, state, step=0)
        moved = [n for n in before if not np.array_equal(before[n], model.params[n].data)]
        assert len(moved) > len(before) // 2

    def test_single_domain_batch_skips_divergence(self):
        model = MoEModel(SMALL, seed=2)
        batch = tiny_batches()[0]
        batch.domains = ["a"] * len(batch.sequences)
        state = TR.AdamWState.init(model.flat)
        cfg = TR.TrainConfig(total_steps=10, warmup_steps=0)
        rec = TR.train_step(model, batch, cfg, state, step=0)
        assert rec["m_b"] == 1
        assert rec["l_ed"] == 0.0

    def test_graph_freed_before_update(self, monkeypatch):
        # the forward's saved arrays are gone before the gradient vector and
        # the AdamW temporaries are allocated, which lowers the step's peak
        live_graph_nodes = []
        flat_gradient = TR._flat_gradient

        def spy(*args):
            live_graph_nodes.append(sum(isinstance(o, T.Tensor) and o._vjp is not None
                                        for o in gc.get_objects()))
            return flat_gradient(*args)

        monkeypatch.setattr(TR, "_flat_gradient", spy)
        model = MoEModel(SMALL, seed=4)
        cfg = TR.TrainConfig(total_steps=10, warmup_steps=0)
        TR.train_step(model, tiny_batches()[0], cfg, TR.AdamWState.init(model.flat), step=0)
        assert live_graph_nodes == [0]

    def test_loss_decreases_over_steps(self):
        model = MoEModel(SMALL, seed=3)
        batches = tiny_batches(seed=3)
        state = TR.AdamWState.init(model.flat)
        cfg = TR.TrainConfig(total_steps=60, warmup_steps=5, lr=3e-3)
        first = TR.train_step(model, batches[0], cfg, state, 0)["l_lm"]
        last = None
        for step in range(1, 60):
            last = TR.train_step(model, batches[step % len(batches)], cfg, state, step)
        assert last["l_lm"] < first


class TestObjective:
    @staticmethod
    def count_calls(monkeypatch):
        calls = []
        real = TR.objective

        def counted(model, batch, config, start=None):
            calls.append(start)
            return real(model, batch, config, start)

        monkeypatch.setattr(TR, "objective", counted)
        return calls

    def test_train_step_uses_objective(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        model = MoEModel(SMALL, seed=7)
        cfg = TR.TrainConfig(total_steps=10, warmup_steps=0)
        TR.train_step(model, tiny_batches()[0], cfg, TR.AdamWState.init(model.flat), 0)
        assert len(calls) == 1

    def test_check_gradients_uses_objective(self, monkeypatch):
        calls = self.count_calls(monkeypatch)

        def one_eval(f, params, h=1e-5):
            return dict.fromkeys(f(), 0.0)

        monkeypatch.setattr(T, "grad_check", one_eval)
        ok, _ = checks.check_gradients()
        # one evaluation per pass serves every term: l_lm, l_lb, l_ed,
        # l_final; the second pass resumes from layer 0's prefix
        assert ok and len(calls) == 2
        assert calls[0] is None and calls[1][0] == 0

    def test_terms_match_record(self):
        # the record is the objective's terms: l_final is exactly the float
        # sum l_lm + alpha*l_lb + beta*l_ed
        cfg = TR.TrainConfig(total_steps=10, warmup_steps=0)
        batch = tiny_batches()[0]
        terms, layers = TR.objective(MoEModel(SMALL, seed=8), batch, cfg)
        model = MoEModel(SMALL, seed=8)
        rec = TR.train_step(model, batch, cfg, TR.AdamWState.init(model.flat), 0)
        assert rec["l_final"] == rec["l_lm"] + cfg.alpha * rec["l_lb"] + cfg.beta * rec["l_ed"]
        for name in ("l_lm", "l_lb", "l_ed", "l_final"):
            assert rec[name] == terms[name].item()
        assert rec["m_b"] == 2 and len(layers) == SMALL.num_layers

    def test_step_decomposition_reads_objective_layers(self):
        # train_step's D values are decompose() of the objective's router
        # probabilities, each sequence's label repeated once per token
        batch = tiny_batches()[0]
        cfg = TR.TrainConfig(total_steps=10, warmup_steps=0)
        model = MoEModel(SMALL, seed=9)
        _, layers = TR.objective(MoEModel(SMALL, seed=9), batch, cfg)
        rec = TR.train_step(model, batch, cfg, TR.AdamWState.init(model.flat), 0)
        seq_len = batch.sequences.shape[1]
        labels = [d for d in batch.domains for _ in range(seq_len)]
        for i, layer in enumerate(layers):
            rep = divergence.decompose(layer.probs.data, labels)
            assert (rec["d_total"][i], rec["d_inter"][i], rec["d_intra"][i]) == (
                rep.d_total, rep.d_inter, rep.d_intra)

    def test_layer_probs_are_graph_nodes(self):
        model = MoEModel(SMALL, seed=10)
        cfg = TR.TrainConfig(total_steps=10, warmup_steps=0)
        _, layers = TR.objective(model, tiny_batches()[0], cfg)
        assert layers[0].probs.requires_grad
        traces = analysis.collect_traces(model, {"a": tiny_batches()[0].sequences})
        assert not traces["a"][0].probs.requires_grad

    def test_graph_node_count(self):
        # a default-config step on a three-domain demo batch: per block two
        # affine norms (one node each), attention, router, experts and two
        # residual adds; per layer one L_LB node and one L_ED node (behind a
        # reshape); the final affine norm and the head's NLL
        docs, _ = D.synth_corpus(D.three_domain_demo_specs(), seed=3)
        train_docs, _ = D.split_validation(docs, 64, 100)
        batch = D.pack_batches(train_docs, 64, 8, 0)[0]
        assert len(set(batch.domains)) == 3
        terms, _ = TR.objective(MoEModel(ModelConfig(), seed=0), batch, TR.TrainConfig())
        assert len(T._toposort(terms["l_final"])) == 63


class TestCheckGradients:
    """The gradient check perturbs the parameters read after layer 0's
    prefix on an objective resumed from it, and nothing else changes."""

    def test_split_passes_equal_one_full_pass(self, monkeypatch):
        passes = []
        real = T.grad_check

        def spy(*args, **kwargs):
            passes.append(real(*args, **kwargs))
            return passes[-1]

        monkeypatch.setattr(T, "grad_check", spy)
        _, detail = checks.check_gradients()
        model, batch = checks.gradient_check_fixture()
        cfg = TR.TrainConfig(total_steps=1, warmup_steps=0)
        full = real(lambda: TR.objective(model, batch, cfg)[0],
                    list(model.params.values()), h=1e-5)
        # an early parameter perturbed on the resumed objective would read 1.0
        assert {name: max(p[name] for p in passes) for name in full} == full
        assert detail == "max relative errors: " + ", ".join(
            f"{k}={v:.2e}" for k, v in full.items()) + " (tol 1e-04)"

    def test_forward_counts(self, monkeypatch):
        counts = {"embeddings": 0, "resumed": 0}
        real = checks.forward

        def counted(model, tokens, start=None, stop=None):
            counts["embeddings" if start is None else "resumed"] += 1
            return real(model, tokens, start=start, stop=stop)

        monkeypatch.setattr(checks, "forward", counted)
        monkeypatch.setattr(TR, "forward", counted)
        checks.check_gradients()
        # the prefix (stop=0), then one analytic pass and 2 x coordinates per
        # group: 440 from the embeddings to layer 0's attention, 1,704 after
        assert counts == {"embeddings": 1 + 1 + 2 * 440, "resumed": 1 + 2 * 1704}


KILLED_RUN = """
import os, sys
sys.path.insert(0, sys.argv[2])
from test_trainer import SMALL, tiny_batches
from moediv import trainer as TR
from moediv.model import MoEModel

save = TR.save_checkpoint

def save_then_die(*args, step, **kwargs):
    save(*args, step=step, **kwargs)
    if step == 20:
        os._exit(0)

TR.save_checkpoint = save_then_die
cfg = TR.TrainConfig(total_steps=25, warmup_steps=2, checkpoint_interval=10)
TR.run_training(MoEModel(SMALL, seed=13), tiny_batches(seed=13), cfg, sys.argv[1])
"""


class TestRunTraining:
    def test_kill_after_checkpoint_keeps_log_to_its_step(self, tmp_path):
        # a process killed right after the step-20 checkpoint, with no
        # chance to flush, leaves the log's first 20 lines on disk
        env = dict(os.environ, PYTHONPATH=str(Path(TR.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", KILLED_RUN, str(tmp_path / "killed"),
                               str(Path(__file__).parent)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        assert load_checkpoint(tmp_path / "killed" / "checkpoint.moediv")[1] == 20
        cfg = TR.TrainConfig(total_steps=25, warmup_steps=2, checkpoint_interval=10)
        _, full = TR.run_training(MoEModel(SMALL, seed=13), tiny_batches(seed=13), cfg,
                                  tmp_path / "full")
        killed = (tmp_path / "killed" / "metrics.jsonl").read_text().splitlines()
        assert killed == Path(full).read_text().splitlines()[:20]

    def test_outputs_and_metrics_lines(self, tmp_path):
        model = MoEModel(SMALL, seed=4)
        cfg = TR.TrainConfig(total_steps=6, warmup_steps=2, checkpoint_interval=3)
        final, metrics = TR.run_training(model, tiny_batches(), cfg, tmp_path)
        lines = [json.loads(l) for l in Path(metrics).read_text().splitlines()]
        assert [l["step"] for l in lines] == list(range(6))
        assert (tmp_path / "final.moediv").exists()
        assert (tmp_path / "checkpoint.moediv").exists()

    def test_deterministic_metrics(self, tmp_path):
        cfg = TR.TrainConfig(total_steps=5, warmup_steps=1, checkpoint_interval=100)
        out = []
        for sub in ("r1", "r2"):
            model = MoEModel(SMALL, seed=5)
            _, metrics = TR.run_training(model, tiny_batches(seed=5), cfg, tmp_path / sub)
            out.append(Path(metrics).read_bytes())
        assert out[0] == out[1]

    def test_resume_byte_identical(self, tmp_path):
        cfg = TR.TrainConfig(total_steps=8, warmup_steps=2, checkpoint_interval=4)
        batches = tiny_batches(seed=6)

        model_full = MoEModel(SMALL, seed=6)
        full_ckpt, full_metrics = TR.run_training(model_full, batches, cfg, tmp_path / "full")

        model_half = MoEModel(SMALL, seed=6)
        TR.run_training(model_half, batches, TR.TrainConfig(
            total_steps=4, warmup_steps=2, checkpoint_interval=4), tmp_path / "part")
        resumed, step, opt = load_checkpoint(tmp_path / "part" / "checkpoint.moediv")
        assert step == 4
        # continue in the same directory so the metrics log is appended
        import shutil
        shutil.copy(tmp_path / "part" / "metrics.jsonl", tmp_path / "part2.jsonl")
        (tmp_path / "resume").mkdir()
        shutil.copy(tmp_path / "part" / "metrics.jsonl", tmp_path / "resume" / "metrics.jsonl")
        TR.run_training(resumed, batches, cfg, tmp_path / "resume",
                        start_step=step, opt_state=opt)

        a = Path(full_metrics).read_bytes()
        b = (tmp_path / "resume" / "metrics.jsonl").read_bytes()
        assert a == b
        fa = Path(full_ckpt).read_bytes()
        fb = (tmp_path / "resume" / "final.moediv").read_bytes()
        assert fa == fb

    def test_non_finite_loss_names_step(self, tmp_path):
        model = MoEModel(SMALL, seed=11)
        cfg = TR.TrainConfig(alpha=1e308, total_steps=2, warmup_steps=0)
        with pytest.raises(ValueError, match=r"^step 0: .*l_final"), \
                pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            TR.run_training(model, tiny_batches(), cfg, tmp_path)


def test_params_stay_views_of_flat(tmp_path):
    # every path that builds or updates a model writes into ``flat`` in place
    def assert_views(model):
        for name, p in model.params.items():
            assert np.shares_memory(p.data, model.flat), name

    model = MoEModel(SMALL, seed=12)
    cfg = TR.TrainConfig(total_steps=2, warmup_steps=0, checkpoint_interval=2)
    final, _ = TR.run_training(model, tiny_batches(), cfg, tmp_path)
    assert_views(model)
    loaded, _, _ = load_checkpoint(final)
    assert_views(loaded)
    assert_views(analysis.permute_router(loaded, 0, seed=0)[0])
    assert_views(checks.gradient_check_fixture()[0])
