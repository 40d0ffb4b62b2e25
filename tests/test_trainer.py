import json

import numpy as np
import pytest

from moediv import checks
from moediv import data as D
from moediv import tensor as T
from moediv import trainer as TR
from moediv.model import ModelConfig, MoEModel, load_checkpoint
from moediv.tensor import Tensor

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
        p = {"w": Tensor(np.zeros(3), requires_grad=True)}
        state = TR.AdamWState.init(p)
        g = {"w": np.array([10.0, -0.01, 0.0])}
        TR.adamw_update(p, g, state, lr=0.1, beta1=0.9, beta2=0.95, weight_decay=0.0)
        np.testing.assert_allclose(p["w"].data[:2], [-0.1, 0.1], atol=1e-5)
        assert p["w"].data[2] == 0.0

    def test_decoupled_decay(self):
        # zero gradient: parameter shrinks by exactly (1 - lr*wd)
        p = {"w": Tensor(np.array([2.0]), requires_grad=True)}
        state = TR.AdamWState.init(p)
        TR.adamw_update(p, {"w": np.zeros(1)}, state, lr=0.1, beta1=0.9,
                        beta2=0.95, weight_decay=0.5)
        assert p["w"].data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), abs=1e-12)

    def test_scalar_reference_trajectory(self):
        # independent scalar re-implementation of 5 steps
        lr, b1, b2, wd, eps = 0.01, 0.9, 0.95, 0.1, 1e-8
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        state = TR.AdamWState.init(p)
        w, m, v = 1.0, 0.0, 0.0
        for t in range(1, 6):
            g = float(2 * w)  # gradient of w^2
            TR.adamw_update(p, {"w": np.array([2 * p["w"].data[0]])}, state,
                            lr=lr, beta1=b1, beta2=b2, weight_decay=wd)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            w = w * (1 - lr * wd) - lr * mhat / (np.sqrt(vhat) + eps)
        assert p["w"].data[0] == pytest.approx(w, abs=1e-12)
        assert state.t == 5

    def test_shape_mismatch(self):
        p = {"w": Tensor(np.zeros(3), requires_grad=True)}
        state = TR.AdamWState.init(p)
        with pytest.raises(ValueError):
            TR.adamw_update(p, {"w": np.zeros(4)}, state, lr=0.1,
                            beta1=0.9, beta2=0.95, weight_decay=0.0)


class TestClipping:
    def test_below_threshold_untouched(self):
        g = {"a": np.array([0.3, 0.4])}
        out = TR._clip_gradients(g, 1.0)
        assert out["a"] is g["a"]

    def test_scaled_to_max_norm(self):
        g = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
        out = TR._clip_gradients(g, 1.0)
        total = np.sqrt(sum(float((x * x).sum()) for x in out.values()))
        assert total == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(out["a"], [0.6, 0.0])

    def test_disabled(self):
        g = {"a": np.array([100.0])}
        assert TR._clip_gradients(g, 0.0)["a"] is g["a"]


class TestTrainStep:
    def test_metrics_fields(self):
        model = MoEModel(SMALL, seed=0)
        batch = tiny_batches()[0]
        state = TR.AdamWState.init(model.params)
        cfg = TR.TrainConfig(total_steps=10, warmup_steps=2)
        m = TR.train_step(model, batch, cfg, state, step=0)
        assert m.step == 0
        assert len(m.d_total) == SMALL.num_layers
        assert np.isfinite(m.breakdown.l_final)
        rec = m.to_record()
        assert "wall_time" not in rec
        assert set(rec) == {"step", "l_lm", "l_lb", "l_ed", "l_final",
                            "d_total", "d_inter", "d_intra", "m_b", "lr"}

    def test_parameters_move(self):
        model = MoEModel(SMALL, seed=1)
        before = {n: p.data.copy() for n, p in model.params.items()}
        state = TR.AdamWState.init(model.params)
        cfg = TR.TrainConfig(total_steps=10, warmup_steps=0)
        TR.train_step(model, tiny_batches()[0], cfg, state, step=0)
        moved = [n for n in before if not np.array_equal(before[n], model.params[n].data)]
        assert len(moved) > len(before) // 2

    def test_single_domain_batch_skips_divergence(self):
        model = MoEModel(SMALL, seed=2)
        batch = tiny_batches()[0]
        batch.domains = ["a"] * batch.num_sequences
        state = TR.AdamWState.init(model.params)
        cfg = TR.TrainConfig(total_steps=10, warmup_steps=0)
        m = TR.train_step(model, batch, cfg, state, step=0)
        assert m.ed_skipped and m.m_b == 1
        assert m.breakdown.l_ed == 0.0

    def test_loss_decreases_over_steps(self):
        model = MoEModel(SMALL, seed=3)
        batches = tiny_batches(seed=3)
        state = TR.AdamWState.init(model.params)
        cfg = TR.TrainConfig(total_steps=60, warmup_steps=5, lr=3e-3)
        first = TR.train_step(model, batches[0], cfg, state, 0).breakdown.l_lm
        last = None
        for step in range(1, 60):
            last = TR.train_step(model, batches[step % len(batches)], cfg, state, step)
        assert last.breakdown.l_lm < first


class TestObjective:
    @staticmethod
    def count_calls(monkeypatch):
        calls = []
        real = TR.objective

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(TR, "objective", counted)
        return calls

    def test_train_step_uses_objective(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        model = MoEModel(SMALL, seed=7)
        cfg = TR.TrainConfig(total_steps=10, warmup_steps=0)
        TR.train_step(model, tiny_batches()[0], cfg, TR.AdamWState.init(model.params), 0)
        assert len(calls) == 1

    def test_check_gradients_uses_objective(self, monkeypatch):
        calls = self.count_calls(monkeypatch)

        def one_eval(f, params, h=1e-5):
            f()
            return 0.0

        monkeypatch.setattr(T, "grad_check", one_eval)
        ok, _ = checks.check_gradients()
        # one evaluation per term: l_lm, l_lb, l_ed, l_final
        assert ok and len(calls) == 4

    def test_terms_match_breakdown(self):
        model = MoEModel(SMALL, seed=8)
        cfg = TR.TrainConfig(total_steps=10, warmup_steps=0)
        terms, bd, trace, m_b = TR.objective(model, tiny_batches()[0], cfg)
        assert terms["l_final"].item() == pytest.approx(bd.l_final, abs=1e-15)
        for name in ("l_lm", "l_lb", "l_ed"):
            assert terms[name].item() == getattr(bd, name)
        assert m_b == 2 and len(trace.layers) == SMALL.num_layers


class TestRunTraining:
    def test_outputs_and_metrics_lines(self, tmp_path):
        model = MoEModel(SMALL, seed=4)
        cfg = TR.TrainConfig(total_steps=6, warmup_steps=2, checkpoint_interval=3)
        final, metrics = TR.run_training(model, tiny_batches(), cfg, tmp_path)
        lines = [json.loads(l) for l in open(metrics)]
        assert [l["step"] for l in lines] == list(range(6))
        assert (tmp_path / "final.moediv").exists()
        assert (tmp_path / "checkpoint.moediv").exists()

    def test_deterministic_metrics(self, tmp_path):
        cfg = TR.TrainConfig(total_steps=5, warmup_steps=1, checkpoint_interval=100)
        out = []
        for sub in ("r1", "r2"):
            model = MoEModel(SMALL, seed=5)
            _, metrics = TR.run_training(model, tiny_batches(seed=5), cfg, tmp_path / sub)
            out.append(open(metrics, "rb").read())
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

        a = open(full_metrics, "rb").read()
        b = open(tmp_path / "resume" / "metrics.jsonl", "rb").read()
        assert a == b
        fa = open(full_ckpt, "rb").read()
        fb = open(tmp_path / "resume" / "final.moediv", "rb").read()
        assert fa == fb
