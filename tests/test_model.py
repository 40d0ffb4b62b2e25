import contextlib
import json
import tracemalloc

import numpy as np
import pytest

from moediv import model as model_mod
from moediv import tensor as T
from moediv.model import (
    LayerTrace,
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
        hidden, layers = forward(model, tokens)
        assert hidden.shape == (12, SMALL.hidden_size)
        assert len(layers) == 2
        assert layers[0].probs.shape == (12, 4)
        assert layers[0].selected.shape == (12, 2)

    def test_causality(self):
        # changing a future token must not change earlier hidden rows
        model = MoEModel(SMALL, seed=1)
        tokens = np.array([[1, 2, 3, 4, 5]])
        hidden1, _ = forward(model, tokens)
        tokens2 = tokens.copy()
        tokens2[0, 4] = 9
        hidden2, _ = forward(model, tokens2)
        np.testing.assert_array_equal(hidden1.data[:4], hidden2.data[:4])
        assert np.any(hidden1.data[4] != hidden2.data[4])

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

    def test_zero_length_tokens_refused(self):
        model = MoEModel(SMALL, seed=0)
        with pytest.raises(ValueError, match=r"got shape \(2, 0\)"):
            forward(model, np.zeros((2, 0), dtype=np.intp))

    def test_no_grad_peak_below_three_score_arrays(self, no_grad_peak):
        # attention turns its [B, H, L, L] scores into the weights in place,
        # so a no-grad forward never holds several arrays of that size
        c = ModelConfig()
        model = MoEModel(c, seed=0)
        tokens = np.random.default_rng(0).integers(0, c.vocab_size, size=(16, 128))
        score_bytes = 16 * c.num_heads * 128 * 128 * 8
        peak = no_grad_peak(lambda: forward(model, tokens))
        assert peak < 3 * score_bytes, f"peak {peak / score_bytes:.2f} score arrays"

    def test_no_grad_peak_below_six_residual_arrays(self, no_grad_peak):
        # a sublayer's input is freed once read, and attention holds no
        # [B*L, d] array but its output
        c = ModelConfig()
        model = MoEModel(c, seed=0)
        tokens = np.random.default_rng(1).integers(0, c.vocab_size, size=(32, 128))
        residual_bytes = 32 * 128 * c.hidden_size * 8
        peak = no_grad_peak(lambda: forward(model, tokens))
        assert peak < 6 * residual_bytes, f"peak {peak / residual_bytes:.2f} residual arrays"


class TestStartStop:
    """A forward stopped at any stage, or resumed from the ``Resume`` such a
    forward returns, gives bit-for-bit the rows and traces of the full one."""

    @staticmethod
    def assert_traces_equal(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g.probs.data, w.probs.data)
            assert np.array_equal(g.selected, w.selected)

    def test_stages_read_every_parameter_once_in_layout_order(self):
        # embed; per layer attn, route, one stage per expert, combine; head
        model = MoEModel(SMALL, seed=0)
        names = list(model.stages)
        assert names[:8] == ["embed", "layers.0.attn", "layers.0.route"] + [
            f"layers.0.expert.{e}" for e in range(4)] + ["layers.0.combine"]
        assert names[-1] == "head" and len(names) == 2 + SMALL.num_layers * (SMALL.num_experts + 3)
        reads = [read for stage in names for read in model.stages[stage]]
        assert list(dict.fromkeys(name for name, _ in reads)) == list(model.params)
        assert len(reads) == len(model.params) - SMALL.num_layers + SMALL.num_layers * 4
        assert [i for name, i in reads if name == "layers.1.moe.experts"] == [0, 1, 2, 3]

    # 9 sequences of 128 run several tiles of each op; the small model's 5
    # sequences of 13 fit in one tile of each
    @pytest.mark.parametrize("config, batch, length", [
        (ModelConfig(), 9, 128),
        (ModelConfig(num_layers=3, hidden_size=20, intermediate_size=36, num_experts=5,
                     top_k=2, num_heads=2, vocab_size=31, max_seq_len=16), 5, 13),
    ])
    @pytest.mark.parametrize("recorded", [False, True])
    def test_matches_full_forward(self, config, batch, length, recorded):
        model = MoEModel(config, seed=0)
        tokens = np.random.default_rng(4).integers(0, config.vocab_size, size=(batch, length))
        grad_mode = contextlib.nullcontext() if recorded else T.no_grad()
        with grad_mode:
            hidden, layers = forward(model, tokens)
            chained = None
            for stage in model.stages:
                stopped = forward(model, tokens, stop=stage)
                assert stopped.stage == stage
                kept = None if stopped.rows is None else stopped.rows.data.copy()
                # each stop resumed twice, and each resumed from the one
                # before it; a resume leaves its rows as they were
                chained = forward(model, tokens, start=chained, stop=stage)
                for start in (stopped, stopped, chained):
                    resumed, traces = forward(model, tokens, start=start)
                    assert np.array_equal(resumed.data, hidden.data)
                    self.assert_traces_equal(traces, layers)
                self.assert_traces_equal(stopped.traces, layers[:len(stopped.traces)])
                assert traces[:len(chained.traces)] == chained.traces
                assert kept is None or np.array_equal(stopped.rows.data, kept)
        assert resumed.requires_grad == recorded
        prefix = forward(model, tokens, stop=f"layers.{config.num_layers - 1}.route")
        assert perplexity(model, tokens, prefix) == perplexity(model, tokens)

    def test_expert_stops_hold_every_other_experts_rows(self):
        model = MoEModel(SMALL, seed=5)
        tokens = np.random.default_rng(3).integers(0, SMALL.vocab_size, size=(3, 8))
        with T.no_grad():
            routed = forward(model, tokens, stop="layers.1.combine")
            assert routed.gated == (None,) * 4 and len(routed.traces) == 2
            for e in range(4):
                held = forward(model, tokens, stop=f"layers.1.expert.{e}")
                assert [g is None for g in held.gated] == [i == e for i in range(4)]
                again = forward(model, tokens, start=held, stop="layers.1.combine")
                assert again.gated == held.gated

    def test_bad_start_and_stop_refused(self):
        model = MoEModel(SMALL, seed=0)
        tokens = np.zeros((2, 5), dtype=np.intp)
        with T.no_grad():
            prefix = forward(model, tokens, stop="layers.1.route")
            routed = forward(model, tokens, stop="layers.1.expert.2")
            for stop in ("layers.2.attn", "layers.1.expert.4", "mix", 0, 1):
                with pytest.raises(ValueError, match=f"forward: no such stage: {stop!r}"):
                    forward(model, tokens, stop=stop)
            with pytest.raises(ValueError, match="forward: no such stage: 'layers.7.route'"):
                forward(model, tokens, start=prefix._replace(stage="layers.7.route"))
            with pytest.raises(ValueError, match="cannot stop at layers.1.attn when starting at "
                                                 "layers.1.route"):
                forward(model, tokens, start=prefix, stop="layers.1.attn")
            # rows or traces that do not fit the tokens, and a resume inside
            # a mixture without the normed rows its router read
            trace = prefix.traces[0]
            narrow = T.Tensor(prefix.rows.data[:, 1:])
            for wrong in (prefix._replace(rows=narrow), prefix._replace(rows=None),
                          prefix._replace(traces=[]), prefix._replace(traces=[trace, trace]),
                          prefix._replace(traces=[LayerTrace(T.Tensor(trace.probs.data[:-1]),
                                                             trace.selected)]),
                          prefix._replace(traces=[LayerTrace(trace.probs, trace.selected[:, :1])]),
                          routed._replace(normed=None), routed._replace(normed=narrow),
                          routed._replace(dispatch=T.expert_dispatch(
                              T.Tensor(trace.probs.data[:-1]), trace.selected[:-1], 4))):
                with pytest.raises(ValueError, match=f"forward: a resume at {wrong.stage} for 10 "
                                                     "tokens needs shapes"):
                    forward(model, tokens, start=wrong)
            with pytest.raises(ValueError, match="forward: a resume at layers.1.route for 5 "):
                forward(model, tokens[:1], start=prefix)

    @pytest.mark.parametrize("layer", [0, 1])
    def test_routed_resume_reads_no_ln2_or_router(self, layer):
        # a run resumed inside layer's mixture mixes on the stopped run's
        # normed rows and dispatch, so layer's ln2 and router may hold
        # anything; one resumed at an expert stage runs only that expert, so
        # every other expert's weights may hold anything too
        model = MoEModel(SMALL, seed=2)
        tokens = np.random.default_rng(7).integers(0, SMALL.vocab_size, size=(3, 9))
        with T.no_grad():
            hidden, layers = forward(model, tokens)
            for stage in [f"layers.{layer}.expert.{e}" for e in range(4)] + [
                    f"layers.{layer}.combine"]:
                stopped = forward(model, tokens, stop=stage)
                broken = MoEModel(SMALL, flat=model.flat)
                for name in ("ln2.g", "ln2.b", "moe.router"):
                    broken.params[f"layers.{layer}.{name}"].data[...] = np.nan
                experts = broken.params[f"layers.{layer}.moe.experts"].data
                for e, rows in enumerate(stopped.gated):
                    if rows is not None:
                        experts[e] = np.nan
                resumed, traces = forward(broken, tokens, start=stopped)
                assert np.array_equal(resumed.data, hidden.data)
                assert traces[layer] is stopped.traces[layer]
                self.assert_traces_equal(traces, layers)

    def test_resume_with_a_given_routing(self):
        # a caller may route layer 1 itself: here with the routing of a copy
        # whose layer-1 router rows are permuted, on the same normed rows,
        # which gives that copy's rows
        model = MoEModel(SMALL, seed=4)
        permuted = MoEModel(SMALL, flat=model.flat)
        router = permuted.params["layers.1.moe.router"].data
        router[...] = router[[2, 0, 3, 1]]
        tokens = np.random.default_rng(9).integers(0, SMALL.vocab_size, size=(3, 8))
        with T.no_grad():
            want, _ = forward(permuted, tokens)
            routed = forward(model, tokens, stop="layers.1.combine")
            trace = forward(permuted, tokens, stop="layers.1.combine").traces[1]
            given = routed._replace(traces=[routed.traces[0], trace])
            dispatch = T.expert_dispatch(trace.probs, trace.selected, SMALL.num_experts)
            # the combine stop ran no expert, so it built no dispatch: the
            # resumed run builds one from its last trace unless given one
            assert routed.dispatch is None
            for start in (given, given._replace(dispatch=dispatch)):
                rows, traces = forward(model, tokens, start=start)
                assert np.array_equal(rows.data, want.data) and traces[1] is trace
        assert not np.array_equal(trace.selected, routed.traces[1].selected)

    def test_final_rows_start(self):
        # a start at the head takes the final rows: no block parameter is
        # read, and the head gives the full run's perplexity
        model = MoEModel(SMALL, seed=3)
        tokens = np.random.default_rng(8).integers(0, SMALL.vocab_size, size=(2, 7))
        want = perplexity(model, tokens)
        with T.no_grad():
            hidden, layers = forward(model, tokens)
            final = forward(model, tokens, stop="head")
        assert np.array_equal(final.rows.data, hidden.data)
        for name, p in model.params.items():
            if name.startswith("layers."):
                p.data[...] = np.nan
        with T.no_grad():
            rows, traces = forward(model, tokens, start=final)
        assert rows is final.rows and traces == final.traces and len(traces) == 2
        assert perplexity(model, tokens, final) == want


def test_every_start_and_stop_pair_matches_full_forward():
    # a run started inside one layer's mixture and stopped inside a later
    # one mixes each layer on that layer's own routing and gated rows
    model = MoEModel(SMALL, seed=1)
    tokens = np.random.default_rng(1).integers(0, SMALL.vocab_size, size=(2, 6))
    names = list(model.stages)
    with T.no_grad():
        hidden, layers = forward(model, tokens)
        for i, first in enumerate(names):
            start = forward(model, tokens, stop=first)
            for stop in names[i:]:
                resumed, traces = forward(model, tokens, start=forward(model, tokens, start=start,
                                                                       stop=stop))
                assert np.array_equal(resumed.data, hidden.data), (first, stop)
                TestStartStop.assert_traces_equal(traces, layers)


class TestStageWork:
    """The work of a partial forward: a layer routed by the run calls
    ``moe_forward_batch`` once, mixing only when the run goes on through
    that layer's combine; a stop at a combine runs none of that layer's
    experts, and a resume inside a mixture runs only the experts whose
    gated rows it lacks, in one ``expert_mixture`` call."""

    ALL = (True,) * SMALL.num_experts  # every expert's gated rows missing

    @pytest.fixture
    def calls(self, monkeypatch):
        # ("route", mix) per moe_forward_batch call and ("mixture", which
        # experts' gated rows are missing when it is called) per
        # expert_mixture call, the one moe_forward_batch makes included
        calls, route, mixture = [], model_mod.moe_forward_batch, T.expert_mixture

        def counted_route(layer, x, mix=True):
            calls.append(("route", mix))
            return route(layer, x, mix)

        def counted_mixture(x, dispatch, experts, gated=None):
            calls.append(("mixture", gated and tuple(g is None for g in gated)))
            return mixture(x, dispatch, experts, gated)

        monkeypatch.setattr(model_mod, "moe_forward_batch", counted_route)
        monkeypatch.setattr(T, "expert_mixture", counted_mixture)
        return calls

    @pytest.mark.parametrize("stop, want", [
        (None, [("route", True), ("mixture", None)] * 2),
        ("layers.0.route", []),
        ("layers.0.expert.2", [("route", False), ("mixture", ALL)]),
        ("layers.0.combine", [("route", False)]),
        ("layers.1.attn", [("route", True), ("mixture", None)]),
        ("layers.1.expert.0", [("route", True), ("mixture", None), ("route", False),
                               ("mixture", ALL)]),
        # analysis.collect_traces's stop: the last layer routed, none of its experts run
        ("layers.1.combine", [("route", True), ("mixture", None), ("route", False)]),
        ("head", [("route", True), ("mixture", None)] * 2),
    ])
    def test_stopped_run(self, calls, stop, want):
        tokens = np.random.default_rng(2).integers(0, SMALL.vocab_size, size=(2, 7))
        with T.no_grad():
            forward(MoEModel(SMALL, seed=6), tokens, stop=stop)
        assert calls == want

    @pytest.mark.parametrize("layer", [0, 1])
    def test_resumed_run(self, calls, layer):
        model = MoEModel(SMALL, seed=6)
        tokens = np.random.default_rng(2).integers(0, SMALL.vocab_size, size=(2, 7))
        rest = [("route", True), ("mixture", None)] * (SMALL.num_layers - 1 - layer)
        with T.no_grad():
            for e in range(SMALL.num_experts):
                held = forward(model, tokens, stop=f"layers.{layer}.expert.{e}")
                calls.clear()
                forward(model, tokens, start=held)
                missing = tuple(i == e for i in range(SMALL.num_experts))
                assert calls == [("mixture", missing)] + rest
            for stage, first in (("route", [("route", True), ("mixture", None)]),
                                 ("combine", [("mixture", self.ALL)])):
                held = forward(model, tokens, stop=f"layers.{layer}.{stage}")
                calls.clear()
                forward(model, tokens, start=held)
                assert calls == first + rest


class TestLMLoss:
    def test_matches_shifted_oracle(self):
        model = MoEModel(SMALL, seed=4)
        tokens = np.array([[2, 5, 7, 1], [3, 3, 0, 8]])
        hidden, _ = forward(model, tokens)
        loss = lm_loss(model, hidden, tokens)
        # oracle: the final norm of the residual rows, then the average
        # -log softmax(logits[t])[tokens[t+1]] over the 3 predicting
        # positions of each sequence
        h = hidden.data
        h = (h - h.mean(axis=1, keepdims=True)) / np.sqrt(h.var(axis=1, keepdims=True) + 1e-5)
        h = h * model.params["ln_f.g"].data + model.params["ln_f.b"].data
        total = 0.0
        data = h @ model.params["lm_head"].data
        for s in range(2):
            for t in range(3):
                row = data[s * 4 + t]
                p = np.exp(row - row.max())
                p /= p.sum()
                total += -np.log(p[tokens[s, t + 1]])
        assert loss.item() == pytest.approx(total / 6, rel=1e-12)

    def test_too_short(self):
        model = MoEModel(SMALL, seed=0)
        hidden, _ = forward(model, np.array([[1]]))
        with pytest.raises(ValueError):
            lm_loss(model, hidden, np.array([[1]]))

    def test_uniform_model_near_log_vocab(self):
        # zeroed head gives uniform next-token predictions
        model = MoEModel(SMALL, seed=5)
        model.params["lm_head"].data[:] = 0.0
        model.params["ln_f.b"].data[:] = 0.0
        tokens = np.array([[1, 2, 3, 4]])
        hidden, _ = forward(model, tokens)
        assert lm_loss(model, hidden, tokens).item() == pytest.approx(
            np.log(SMALL.vocab_size), abs=1e-10
        )


class TestPerplexity:
    def test_uniform_equals_vocab(self):
        model = MoEModel(SMALL, seed=6)
        model.params["lm_head"].data[:] = 0.0
        tokens = np.array([[1, 2, 3], [4, 5, 6]])
        assert perplexity(model, tokens) == pytest.approx(SMALL.vocab_size, rel=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"non-empty \[B, L\] token array, got shape \(0, 4\)"):
            perplexity(MoEModel(SMALL, seed=0), np.zeros((0, 4), dtype=np.intp))


class TestCheckpoint:
    def test_roundtrip_params(self, tmp_path):
        model = MoEModel(SMALL, seed=8)
        path = tmp_path / "m.moediv"
        state = AdamWState.init(model.flat)
        state.t = 42
        save_checkpoint(path, model, state)
        loaded, state = load_checkpoint(path)
        assert state.t == 42
        assert loaded.config == model.config
        for name in model.params:
            assert np.array_equal(loaded.params[name].data, model.params[name].data)

    def test_roundtrip_with_optimizer(self, tmp_path):
        model = MoEModel(SMALL, seed=9)
        state = AdamWState.init(model.flat)
        rng = np.random.default_rng(0)
        state.m[:] = rng.normal(size=state.m.shape)
        state.v[:] = rng.random(state.v.shape)
        state.t = 7
        path = tmp_path / "m.moediv"
        save_checkpoint(path, model, state)
        _, loaded = load_checkpoint(path)
        assert loaded.t == 7
        assert np.array_equal(loaded.m, state.m)
        assert np.array_equal(loaded.v, state.v)

    def test_loaded_moments_are_writable_and_separate(self, tmp_path):
        model = MoEModel(SMALL, seed=19)
        path = tmp_path / "m.moediv"
        save_checkpoint(path, model, AdamWState.init(model.flat))
        loaded, state = load_checkpoint(path)
        arrays = (loaded.flat, state.m, state.v)
        assert all(a.flags.writeable for a in arrays)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_load_peak_at_most_four_flat_vectors(self, tmp_path):
        # the file size is checked first, then each vector is read once into
        # its own array: no whole-file bytes object and no copies of it
        model = MoEModel(ModelConfig(), seed=20)
        path = tmp_path / "m.moediv"
        save_checkpoint(path, model, AdamWState.init(model.flat))
        load_checkpoint(path)  # warm-up
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * model.flat.nbytes, f"peak {peak / model.flat.nbytes:.2f} flat vectors"

    def test_data_is_flat_then_moments(self, tmp_path):
        model = MoEModel(SMALL, seed=17)
        state = AdamWState.init(model.flat)
        rng = np.random.default_rng(1)
        state.m[:] = rng.normal(size=state.m.shape)
        state.v[:] = rng.random(state.v.shape)
        path = tmp_path / "m.moediv"
        save_checkpoint(path, model, state)
        _, _, blob = path.read_bytes().split(b"\n", 2)
        assert blob == np.concatenate([model.flat, state.m, state.v]).astype("<f8").tobytes()

    def test_byte_identical_rewrites(self, tmp_path):
        model = MoEModel(SMALL, seed=10)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        state = AdamWState.init(model.flat)
        state.t = 1
        save_checkpoint(p1, model, state)
        save_checkpoint(p2, model, state)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_same_outputs(self, tmp_path):
        model = MoEModel(SMALL, seed=11)
        path = tmp_path / "m.moediv"
        save_checkpoint(path, model, AdamWState.init(model.flat))
        loaded, _ = load_checkpoint(path)
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
        save_checkpoint(path, model, AdamWState.init(model.flat))
        blob = path.read_bytes()
        if not with_opt:  # the weights without the moments, then cut short
            blob = blob[:-2 * model.flat.nbytes]
        path.write_bytes(blob[:-12])
        with pytest.raises(ValueError, match=r"m\.moediv: truncated: expected \d+ data bytes "
                                             r"\(weights and Adam moments\), read"):
            load_checkpoint(path)

    def test_trailing_bytes_refused(self, tmp_path):
        model = MoEModel(SMALL, seed=14)
        path = tmp_path / "m.moediv"
        save_checkpoint(path, model, AdamWState.init(model.flat))
        path.write_bytes(path.read_bytes() + b"\0" * 5)
        with pytest.raises(ValueError, match=r"m\.moediv: 5 trailing bytes"):
            load_checkpoint(path)

    def test_no_tmp_file_left(self, tmp_path):
        model = MoEModel(SMALL, seed=12)
        save_checkpoint(tmp_path / "m.moediv", model, AdamWState.init(model.flat))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.moediv"]

    @staticmethod
    def edit_header(path, edit):
        magic, header, blob = path.read_bytes().split(b"\n", 2)
        header = json.loads(header)
        edit(header)
        path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + blob)

    def test_cut_header_refused(self, tmp_path):
        path = tmp_path / "m.moediv"
        path.write_bytes(b"MOEDIV1\n" + b'{"config": {"hid')
        with pytest.raises(ValueError, match=r"m\.moediv: bad header: Unterminated string"):
            load_checkpoint(path)

    def test_unknown_config_key_refused(self, tmp_path):
        path = tmp_path / "m.moediv"
        model = MoEModel(SMALL, seed=15)
        save_checkpoint(path, model, AdamWState.init(model.flat))
        self.edit_header(path, lambda h: h["config"].update(bogus=1))
        with pytest.raises(ValueError, match=r"m\.moediv: bad header: .*'bogus'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [1.0, True, "2"], ids=["float", "bool", "str"])
    def test_non_int_config_value_refused(self, tmp_path, value):
        # JSON keeps 1.0 and true apart from 1; ModelConfig would take them as
        # num_layers and fail later, or never, without naming the path
        path = tmp_path / "m.moediv"
        model = MoEModel(SMALL, seed=15)
        save_checkpoint(path, model, AdamWState.init(model.flat))
        self.edit_header(path, lambda h: h["config"].update(num_layers=value))
        with pytest.raises(ValueError, match=rf"m\.moediv: bad header: num_layers must be an "
                                             rf"int, got {value!r}$"):
            load_checkpoint(path)

    def test_param_layout_mismatch_refused(self, tmp_path):
        # same data size, so only the layout comparison can catch it
        path = tmp_path / "m.moediv"
        model = MoEModel(SMALL, seed=16)
        save_checkpoint(path, model, AdamWState.init(model.flat))

        def transpose_lm_head(h):
            h["params"][-1][1] = h["params"][-1][1][::-1]

        self.edit_header(path, transpose_lm_head)
        with pytest.raises(ValueError, match=r"m\.moediv: parameter names and shapes do not"):
            load_checkpoint(path)

    def test_per_expert_layout_refused(self, tmp_path):
        # the header of a checkpoint written when each expert weight was a
        # parameter of its own; the data size is the same
        path = tmp_path / "m.moediv"
        model = MoEModel(SMALL, seed=18)
        save_checkpoint(path, model, AdamWState.init(model.flat))
        d, m = SMALL.hidden_size, SMALL.intermediate_size

        def per_expert_names(h):
            params = []
            for name, shape in h["params"]:
                if not name.endswith(".moe.experts"):
                    params.append([name, shape])
                    continue
                pre = name[:-len("moe.experts")]
                for e in range(SMALL.num_experts):
                    params += [[f"{pre}experts.{e}.w_gate", [d, m]],
                               [f"{pre}experts.{e}.w_up", [d, m]],
                               [f"{pre}experts.{e}.w_down", [m, d]]]
            h["params"] = params

        self.edit_header(path, per_expert_names)
        with pytest.raises(ValueError, match=r"m\.moediv: parameter names and shapes do not"):
            load_checkpoint(path)


class TestInit:
    def test_one_expert_tensor_per_layer(self):
        c = ModelConfig()
        model = MoEModel(c)
        assert len(model.params) == 25
        assert model.params["layers.1.moe.experts"].shape == (
            c.num_experts, 3, c.hidden_size, c.intermediate_size)

    def test_matches_per_expert_draws(self):
        # the draws of a model whose expert weights are separate
        # parameters: w_gate [d, m], w_up [d, m], w_down [m, d] per expert
        model = MoEModel(SMALL, seed=19)
        rng = np.random.default_rng(19)
        c, p = SMALL, model.params
        d, m = c.hidden_size, c.intermediate_size
        draw = lambda *shape: rng.normal(0.0, 0.02, size=shape)
        assert np.array_equal(p["tok_emb"].data, draw(c.vocab_size, d))
        assert np.array_equal(p["pos_emb"].data, draw(c.max_seq_len, d))
        for l in range(c.num_layers):
            pre = f"layers.{l}."
            for w in ("wq", "wk", "wv", "wo"):
                assert np.array_equal(p[pre + "attn." + w].data, draw(d, d))
            assert np.array_equal(p[pre + "moe.router"].data, draw(c.num_experts, d))
            experts = p[pre + "moe.experts"].data
            for e in range(c.num_experts):
                assert np.array_equal(experts[e, 0], draw(d, m))
                assert np.array_equal(experts[e, 1], draw(d, m))
                assert np.array_equal(experts[e, 2].reshape(m, d), draw(m, d))
        assert np.array_equal(p["lm_head"].data, draw(d, c.vocab_size))
        for name, t in p.items():
            if name.endswith((".g", ".b")):
                assert np.all(t.data == (1.0 if name.endswith(".g") else 0.0))


class TestFromArrays:
    def test_copies_given_arrays(self):
        model = MoEModel(SMALL, seed=13)
        built = MoEModel(SMALL, flat=model.flat)
        assert list(built.params) == list(model.params)
        assert not np.shares_memory(built.flat, model.flat)
        for name, p in built.params.items():
            assert np.array_equal(p.data, model.params[name].data)
            assert np.shares_memory(p.data, built.flat) and p.requires_grad
        tokens = np.array([[1, 2, 3, 4]])
        assert np.array_equal(forward(model, tokens)[0].data, forward(built, tokens)[0].data)

    def test_draws_no_random_init(self, monkeypatch):
        flat = MoEModel(SMALL, seed=14).flat

        class NoDraws:
            def normal(self, *args, **kwargs):
                raise AssertionError("random init drawn")

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws())
        with pytest.raises(AssertionError):
            MoEModel(SMALL, seed=0)
        MoEModel(SMALL, flat=flat)

    def test_rejects_mismatched_arrays(self):
        flat = MoEModel(SMALL, seed=15).flat
        for bad in (flat[:-1], np.append(flat, 0.0), flat.reshape(1, -1)):
            with pytest.raises(ValueError, match=rf"expected \({flat.size},\)"):
                MoEModel(SMALL, flat=bad)
