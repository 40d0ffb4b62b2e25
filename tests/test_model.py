import numpy as np
import pytest

from moediv import tensor as T
from moediv.model import (
    ModelConfig,
    MoEModel,
    forward,
    lm_loss,
    load_checkpoint,
    perplexity,
    save_checkpoint,
)
from moediv.trainer import AdamWState

SMALL = ModelConfig(
    num_layers=2, hidden_size=16, intermediate_size=24, num_experts=4,
    top_k=2, num_heads=2, vocab_size=17, max_seq_len=12,
)


class TestConfig:
    def test_defaults(self):
        c = ModelConfig()
        assert (c.num_layers, c.hidden_size, c.num_experts, c.top_k) == (2, 64, 8, 2)

    def test_topk_bound(self):
        with pytest.raises(ValueError):
            ModelConfig(num_experts=4, top_k=5)

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(hidden_size=10, num_heads=4)


class TestForward:
    def test_shapes(self):
        model = MoEModel(SMALL, seed=0)
        tokens = np.arange(12).reshape(3, 4) % SMALL.vocab_size
        logits, layers = forward(model, tokens)
        assert logits.shape == (12, SMALL.vocab_size)
        assert len(layers) == 2
        assert layers[0].probs.shape == (12, 4)
        assert layers[0].selected.shape == (12, 2)

    def test_causality(self):
        # changing a future token must not change earlier logits
        model = MoEModel(SMALL, seed=1)
        tokens = np.array([[1, 2, 3, 4, 5]])
        logits1, _ = forward(model, tokens)
        tokens2 = tokens.copy()
        tokens2[0, 4] = 9
        logits2, _ = forward(model, tokens2)
        np.testing.assert_array_equal(logits1.data[:4], logits2.data[:4])
        assert np.any(logits1.data[4] != logits2.data[4])

    def test_sequences_independent(self):
        # batched forward must equal per-sequence forward
        model = MoEModel(SMALL, seed=2)
        tokens = np.array([[1, 2, 3], [7, 8, 9]])
        both, _ = forward(model, tokens)
        one, _ = forward(model, tokens[:1])
        two, _ = forward(model, tokens[1:])
        np.testing.assert_allclose(both.data[:3], one.data, atol=1e-10)
        np.testing.assert_allclose(both.data[3:], two.data, atol=1e-10)

    def test_deterministic(self):
        tokens = np.array([[3, 1, 4, 1, 5]])
        a, _ = forward(MoEModel(SMALL, seed=3), tokens)
        b, _ = forward(MoEModel(SMALL, seed=3), tokens)
        assert np.array_equal(a.data, b.data)

    def test_bad_tokens(self):
        model = MoEModel(SMALL, seed=0)
        with pytest.raises(ValueError):
            forward(model, np.array([[0, SMALL.vocab_size]]))
        with pytest.raises(ValueError):
            forward(model, np.zeros((1, SMALL.max_seq_len + 1), dtype=int))

    def test_one_dim_tokens_refused(self):
        model = MoEModel(SMALL, seed=0)
        with pytest.raises(ValueError, match=r"\(4,\)"):
            forward(model, np.array([1, 2, 3, 4]))


class TestLMLoss:
    def test_matches_shifted_oracle(self):
        model = MoEModel(SMALL, seed=4)
        tokens = np.array([[2, 5, 7, 1], [3, 3, 0, 8]])
        logits, _ = forward(model, tokens)
        loss = lm_loss(logits, tokens)
        # oracle: average -log softmax(logits[t])[tokens[t+1]] over the
        # 3 predicting positions of each sequence
        total = 0.0
        data = logits.data
        for s in range(2):
            for t in range(3):
                row = data[s * 4 + t]
                p = np.exp(row - row.max())
                p /= p.sum()
                total += -np.log(p[tokens[s, t + 1]])
        assert loss.item() == pytest.approx(total / 6, rel=1e-12)

    def test_too_short(self):
        model = MoEModel(SMALL, seed=0)
        logits, _ = forward(model, np.array([[1]]))
        with pytest.raises(ValueError):
            lm_loss(logits, np.array([[1]]))

    def test_uniform_model_near_log_vocab(self):
        # zeroed head gives uniform next-token predictions
        model = MoEModel(SMALL, seed=5)
        model.lm_head.data[:] = 0.0
        model.ln_f_b.data[:] = 0.0
        tokens = np.array([[1, 2, 3, 4]])
        logits, _ = forward(model, tokens)
        assert lm_loss(logits, tokens).item() == pytest.approx(
            np.log(SMALL.vocab_size), abs=1e-10
        )


class TestPerplexity:
    def test_uniform_equals_vocab(self):
        model = MoEModel(SMALL, seed=6)
        model.lm_head.data[:] = 0.0
        batches = [np.array([[1, 2, 3], [4, 5, 6]])]
        assert perplexity(model, batches) == pytest.approx(SMALL.vocab_size, rel=1e-10)

    def test_token_weighted(self):
        # pooled PPL must equal exp of the token-weighted mean NLL, not the
        # mean of per-batch PPLs
        model = MoEModel(SMALL, seed=7)
        b1 = np.array([[1, 2]])
        b2 = np.array([[3, 4, 5, 6, 7]])
        pooled = perplexity(model, [b1, b2])
        n1 = np.log(perplexity(model, [b1]))
        n2 = np.log(perplexity(model, [b2]))
        expected = np.exp((n1 * 1 + n2 * 4) / 5)
        assert pooled == pytest.approx(expected, rel=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            perplexity(MoEModel(SMALL, seed=0), [])


class TestCheckpoint:
    def test_roundtrip_params(self, tmp_path):
        model = MoEModel(SMALL, seed=8)
        path = tmp_path / "m.moediv"
        save_checkpoint(path, model, step=42)
        loaded, step, opt = load_checkpoint(path)
        assert step == 42 and opt is None
        assert loaded.config == model.config
        for name in model.params:
            assert np.array_equal(loaded.params[name].data, model.params[name].data)

    def test_roundtrip_with_optimizer(self, tmp_path):
        model = MoEModel(SMALL, seed=9)
        state = AdamWState.init(model.params)
        rng = np.random.default_rng(0)
        for n in state.m:
            state.m[n][:] = rng.normal(size=state.m[n].shape)
            state.v[n][:] = rng.random(state.v[n].shape)
        state.t = 7
        path = tmp_path / "m.moediv"
        save_checkpoint(path, model, step=100, opt_state=state)
        _, _, loaded = load_checkpoint(path)
        assert loaded.t == 7
        for n in state.m:
            assert np.array_equal(loaded.m[n], state.m[n])
            assert np.array_equal(loaded.v[n], state.v[n])

    def test_byte_identical_rewrites(self, tmp_path):
        model = MoEModel(SMALL, seed=10)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_checkpoint(p1, model, step=1)
        save_checkpoint(p2, model, step=1)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_same_outputs(self, tmp_path):
        model = MoEModel(SMALL, seed=11)
        path = tmp_path / "m.moediv"
        save_checkpoint(path, model)
        loaded, _, _ = load_checkpoint(path)
        tokens = np.array([[1, 2, 3, 4]])
        a, _ = forward(model, tokens)
        b, _ = forward(loaded, tokens)
        assert np.array_equal(a.data, b.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOTACKPT\n{}")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("with_opt", [False, True])
    def test_truncated_refused(self, tmp_path, with_opt):
        model = MoEModel(SMALL, seed=13)
        path = tmp_path / "m.moediv"
        save_checkpoint(path, model, opt_state=AdamWState.init(model.params) if with_opt else None)
        path.write_bytes(path.read_bytes()[:-12])
        with pytest.raises(ValueError, match=r"m\.moediv: truncated: expected \d+ data bytes, read"):
            load_checkpoint(path)

    def test_trailing_bytes_refused(self, tmp_path):
        model = MoEModel(SMALL, seed=14)
        path = tmp_path / "m.moediv"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes() + b"\0" * 5)
        with pytest.raises(ValueError, match=r"m\.moediv: 5 trailing bytes"):
            load_checkpoint(path)

    def test_no_tmp_file_left(self, tmp_path):
        model = MoEModel(SMALL, seed=12)
        save_checkpoint(tmp_path / "m.moediv", model)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.moediv"]


class TestFromArrays:
    def test_copies_given_arrays(self):
        model = MoEModel(SMALL, seed=13)
        arrays = {name: p.data for name, p in model.params.items()}
        built = MoEModel(SMALL, arrays=arrays)
        assert list(built.params) == list(model.params)
        for name, p in built.params.items():
            assert np.array_equal(p.data, arrays[name])
            assert p.data is not arrays[name] and p.requires_grad
        tokens = np.array([[1, 2, 3, 4]])
        assert np.array_equal(forward(model, tokens)[0].data, forward(built, tokens)[0].data)

    def test_draws_no_random_init(self, monkeypatch):
        arrays = {name: p.data for name, p in MoEModel(SMALL, seed=14).params.items()}

        class NoDraws:
            def normal(self, *args, **kwargs):
                raise AssertionError("random init drawn")

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws())
        with pytest.raises(AssertionError):
            MoEModel(SMALL, seed=0)
        MoEModel(SMALL, arrays=arrays)

    def test_rejects_mismatched_arrays(self):
        arrays = {name: p.data for name, p in MoEModel(SMALL, seed=15).params.items()}
        missing = dict(arrays)
        del missing["lm_head"]
        with pytest.raises(ValueError, match="missing parameter lm_head"):
            MoEModel(SMALL, arrays=missing)
        with pytest.raises(ValueError, match="layers.0.attn.wq"):
            MoEModel(SMALL, arrays={**arrays, "layers.0.attn.wq": np.zeros((2, 2))})
        with pytest.raises(ValueError, match="bogus"):
            MoEModel(SMALL, arrays={**arrays, "bogus": np.zeros(1)})
