import dataclasses
import signal

import numpy as np
import pytest

from moediv import analysis as A
from moediv import divergence as dv
from moediv import model as model_mod
from moediv import tensor as T
from moediv.model import ModelConfig, MoEModel, forward, perplexity

CFG = ModelConfig(
    num_layers=2, hidden_size=16, intermediate_size=24, num_experts=4,
    top_k=2, num_heads=2, vocab_size=128, max_seq_len=16,
)


@pytest.fixture(scope="module")
def model():
    return MoEModel(CFG, seed=0)


@pytest.fixture(scope="module")
def valsets():
    rng = np.random.default_rng(1)
    return {
        dom: rng.integers(97, 110, size=(3, 12))
        for dom in ("news", "code", "math")
    }


def domain_perplexities(model, valsets):
    return {dom: perplexity(model, tokens) for dom, tokens in valsets.items()}


def prefixes(model, valsets, layer):
    with T.no_grad():
        return {dom: forward(model, tokens, stop=f"layers.{layer}.route")
                for dom, tokens in valsets.items()}


class TestPermuteRouter:
    def test_only_target_layer_changes(self, model):
        shuffled, perm = A.permute_router(model, layer=1, seed=0)
        for name, p in model.params.items():
            q = shuffled.params[name].data
            if name == "layers.1.moe.router":
                np.testing.assert_array_equal(q, p.data[perm])
                assert not np.array_equal(q, p.data)
            else:
                np.testing.assert_array_equal(q, p.data)

    def test_identity_rejected(self, model):
        for seed in range(20):
            _, perm = A.permute_router(model, layer=0, seed=seed)
            assert not np.array_equal(perm, np.arange(CFG.num_experts))

    def test_original_untouched(self, model):
        before = model.params["layers.0.moe.router"].data.copy()
        A.permute_router(model, layer=0, seed=3)
        np.testing.assert_array_equal(
            model.params["layers.0.moe.router"].data, before
        )

    def test_out_is_permuted_in_place(self, model):
        out = MoEModel(CFG, flat=model.flat)
        for seed in (0, 1):
            shuffled, perm = A.permute_router(model, layer=1, seed=seed, out=out)
            fresh, fresh_perm = A.permute_router(model, layer=1, seed=seed)
            assert shuffled is out and np.array_equal(perm, fresh_perm)
            np.testing.assert_array_equal(out.flat, fresh.flat)

    def test_layer_out_of_range(self, model):
        with pytest.raises(ValueError):
            A.permute_router(model, layer=2, seed=0)

    def test_one_expert_refused(self):
        # rng.permutation(1) is always the identity, so the redraw loop
        # would never end; the alarm turns a hang into a failure
        one = MoEModel(dataclasses.replace(CFG, num_experts=1, top_k=1), seed=0)

        def hang(signum, frame):
            raise TimeoutError("permute_router did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(3)
        try:
            with pytest.raises(ValueError, match="at least 2 experts, model has 1"):
                A.permute_router(one, layer=0, seed=0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestDeltaPPL:
    def test_identity_perm_zero_delta(self, valsets):
        # with every router row equal, any permutation of them leaves the
        # model unchanged
        same = MoEModel(CFG, seed=0)
        router = same.params["layers.0.moe.router"].data
        router[...] = router[0]
        recs = A.delta_ppl(same, 0, valsets, seed=0,
                           ppl_original=domain_perplexities(same, valsets),
                           prefixes=prefixes(same, valsets, 0))
        assert len(recs) == len(valsets)
        for rec in recs:
            assert rec["delta"] == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_perplexity(self, model, valsets):
        recs = A.delta_ppl(model, 0, valsets, seed=5,
                           ppl_original=domain_perplexities(model, valsets),
                           prefixes=prefixes(model, valsets, 0))
        shuffled, _ = A.permute_router(model, 0, seed=5)
        for rec in recs:
            dom = rec["domain"]
            assert rec["ppl_orig"] == perplexity(model, valsets[dom])
            assert rec["ppl_shuf"] == perplexity(shuffled, valsets[dom])
            assert rec["delta"] == rec["ppl_shuf"] - rec["ppl_orig"]

    @pytest.mark.parametrize("layer", [0, 1])
    def test_mean_matches_direct_perplexity(self, model, valsets, layer):
        # every forward of delta_ppl_mean after a domain's first resumes
        # from its prefix; the records hold the perplexities of forwards run
        # from the embeddings
        out = A.delta_ppl_mean(model, layer, valsets, seed=7, draws=2)
        for i, records in enumerate(out["draws"]):
            shuffled, perm = A.permute_router(model, layer, 7 + i)
            for rec in records:
                tokens = valsets[rec["domain"]]
                assert rec["ppl_orig"] == perplexity(model, tokens)
                assert rec["ppl_shuf"] == perplexity(shuffled, tokens)
                assert rec["permutation"] == perm.tolist()

    def test_empty_valsets(self, model):
        with pytest.raises(ValueError, match="empty validation sets"):
            A.delta_ppl_mean(model, 0, {}, seed=0)

    def test_mean_peak_within_one_prefix_of_a_forward(self, no_grad_peak):
        # beside the forward it runs, delta_ppl_mean holds its one permuted
        # model copy and one domain's [B*L, d] prefix, not every domain's
        c = dataclasses.replace(CFG, hidden_size=32, intermediate_size=48, max_seq_len=64)
        model = MoEModel(c, seed=0)
        rng = np.random.default_rng(5)
        valsets = {dom: rng.integers(0, c.vocab_size, size=(40, 64)) for dom in "abc"}
        prefix = 40 * 64 * c.hidden_size * 8
        forward_peak = no_grad_peak(lambda: perplexity(model, valsets["a"]))
        mean_peak = no_grad_peak(lambda: A.delta_ppl_mean(model, 0, valsets, seed=0, draws=2))
        extra = mean_peak - forward_peak - model.flat.nbytes
        assert extra <= 1.1 * prefix, f"{extra / prefix:.2f} prefixes"

    def test_mean_copies_the_model_once(self, model, valsets, monkeypatch):
        copies = []

        def counted(*args, **kwargs):
            copies.append(kwargs)
            return MoEModel(*args, **kwargs)

        before = model.flat.copy()
        monkeypatch.setattr(A, "MoEModel", counted)
        A.delta_ppl_mean(model, 0, valsets, seed=0, draws=3)
        assert len(copies) == 1
        np.testing.assert_array_equal(model.flat, before)

    def test_mean_over_draws(self, model, valsets):
        out = A.delta_ppl_mean(model, 0, valsets, seed=2, draws=3)
        assert len(out["draws"]) == 3
        seeds = {rec["seed"] for recs in out["draws"] for rec in recs}
        assert seeds == {2, 3, 4}
        for dom in valsets:
            expected = np.mean(
                [rec["delta"] for recs in out["draws"] for rec in recs if rec["domain"] == dom]
            )
            assert out["mean_delta"][dom] == pytest.approx(expected, abs=1e-15)

    def test_records(self, model, valsets):
        recs = A.delta_ppl(model, 1, valsets, seed=0,
                           ppl_original=domain_perplexities(model, valsets),
                           prefixes=prefixes(model, valsets, 1))
        assert len(recs) == 3
        assert all(r["layer"] == 1 for r in recs)
        assert [r["domain"] for r in recs] == sorted(valsets)
        assert all(set(r) == {"layer", "domain", "ppl_orig", "ppl_shuf", "delta",
                              "seed", "permutation"} for r in recs)


class TestHeatmaps:
    def test_rows_normalized(self, model, valsets):
        for layer in range(CFG.num_layers):
            hm = A.activation_heatmap(A.collect_traces(model, valsets), layer)
            np.testing.assert_allclose(hm.values.sum(axis=1), 1.0, atol=1e-9)
            assert hm.rows == sorted(valsets)
            assert len(hm.cols) == CFG.num_experts
            assert np.all(hm.values >= 0)

    def test_soft_matches_trace_oracle(self, model, valsets):
        hm = A.activation_heatmap(A.collect_traces(model, valsets), 0)
        for i, dom in enumerate(sorted(valsets)):
            _, layers = forward(model, valsets[dom])
            mean = layers[0].probs.data.mean(axis=0)
            np.testing.assert_allclose(hm.values[i], mean / mean.sum(), atol=1e-12)

    def test_inverse_rows_normalized(self, model, valsets):
        hm = A.inverse_heatmap(A.collect_traces(model, valsets), 0)
        np.testing.assert_allclose(hm.values.sum(axis=1), 1.0, atol=1e-9)
        assert hm.rows == [f"expert_{i}" for i in range(CFG.num_experts)]
        assert hm.cols == sorted(valsets)

    def test_inverse_bayes_consistent(self, model, valsets):
        # the inverse rows must match joint counts taken from the forward
        inv = A.inverse_heatmap(A.collect_traces(model, valsets), 0)
        doms = sorted(valsets)
        joint = np.zeros((CFG.num_experts, len(doms)))
        for j, dom in enumerate(doms):
            _, layers = forward(model, valsets[dom])
            joint[:, j] = np.bincount(
                layers[0].selected.reshape(-1), minlength=CFG.num_experts
            )
        for i in range(CFG.num_experts):
            if f"expert_{i}" in inv.flagged_rows:
                continue
            np.testing.assert_allclose(
                inv.values[i], joint[i] / joint[i].sum(), atol=1e-12
            )

    def test_unused_expert_flagged_uniform(self, valsets):
        # drive the pre-router activation strongly along coordinate 0 and
        # point expert 3's router weight against it, so its logit sits far
        # below the others and it never enters a top-2 set
        m = MoEModel(CFG, seed=3)
        m.params["layers.0.ln2.b"].data[0] = 100.0
        m.params["layers.0.moe.router"].data[3] = 0.0
        m.params["layers.0.moe.router"].data[3, 0] = -1.0
        hm = A.inverse_heatmap(A.collect_traces(m, valsets), 0)
        assert "expert_3" in hm.flagged_rows
        np.testing.assert_allclose(hm.values[3], 1.0 / 3.0, atol=1e-12)

    def test_csv_roundtrip(self, model, valsets):
        hm = A.activation_heatmap(A.collect_traces(model, valsets), 0)
        text = hm.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "row," + ",".join(hm.cols)
        assert len(lines) == 1 + len(hm.rows)
        vals = np.array([[float(v) for v in l.split(",")[1:]] for l in lines[1:]])
        np.testing.assert_allclose(vals, hm.values, atol=1e-9)


class TestTernary:
    def test_vertices(self):
        hm = A.HeatmapMatrix(
            rows=["e0", "e1", "e2"], cols=["a", "b", "c"], values=np.eye(3)
        )
        np.testing.assert_allclose(A.ternary_coords(hm), A.TERNARY_VERTICES)

    def test_centroid(self):
        hm = A.HeatmapMatrix(
            rows=["e0"], cols=["a", "b", "c"], values=np.full((1, 3), 1 / 3)
        )
        np.testing.assert_allclose(
            A.ternary_coords(hm)[0], [0.5, np.sqrt(3) / 6], atol=1e-12
        )

    def test_inside_simplex(self, model, valsets):
        pts = A.ternary_coords(A.inverse_heatmap(A.collect_traces(model, valsets), 0))
        # all points inside the triangle: barycentric coordinates of each
        # point w.r.t. the vertices are nonnegative
        v = A.TERNARY_VERTICES
        t_mat = np.stack([v[0] - v[2], v[1] - v[2]], axis=1)
        for p in pts:
            lam = np.linalg.solve(t_mat, p - v[2])
            bary = np.array([lam[0], lam[1], 1 - lam.sum()])
            assert np.all(bary >= -1e-9) and np.all(bary <= 1 + 1e-9)

    def test_needs_three_domains(self):
        hm = A.HeatmapMatrix(rows=["e0"], cols=["a", "b"], values=np.full((1, 2), 0.5))
        with pytest.raises(ValueError):
            A.ternary_coords(hm)


class TestDivergenceReport:
    def test_per_layer_identity(self, model, valsets):
        traces = A.collect_traces(model, valsets)
        reports = A.divergence_report(traces)
        assert len(reports) == CFG.num_layers
        for layer, rep in enumerate(reports):
            assert abs(rep.d_total - rep.d_inter - rep.d_intra) <= 1e-10
            # D_inter from the token-weighted domain means
            probs = [traces[d][layer].probs.data for d in sorted(traces)]
            means = [p.mean(axis=0) for p in probs]
            assert len(means) == 3
            pooled = np.concatenate(probs)
            inter = dv._entropy(pooled.mean(axis=0)) - sum(
                len(p) / len(pooled) * dv._entropy(m) for p, m in zip(probs, means))
            assert abs(rep.d_inter - inter) <= 1e-10

    def test_csv_format(self, model, valsets):
        text = A.report_csv(A.divergence_report(A.collect_traces(model, valsets)))
        lines = text.strip().split("\n")
        assert lines[0] == "layer,d_total,d_inter,d_intra"
        assert len(lines) == 1 + CFG.num_layers

    def test_empty_valsets(self, model):
        with pytest.raises(ValueError):
            A.divergence_report(A.collect_traces(model, {}))


def count_forwards(monkeypatch):
    """Record each model.forward call, wherever analysis or perplexity look
    it up, as (start stage or None, stop stage or None)."""
    calls = []
    original = model_mod.forward

    def counted(*args, start=None, stop=None):
        calls.append((None if start is None else start.stage, stop))
        return original(*args, start=start, stop=stop)

    monkeypatch.setattr(model_mod, "forward", counted)
    monkeypatch.setattr(A, "forward", counted)
    return calls


class TestForwardCounts:
    """Per domain, one forward from the embeddings per analysis, whatever
    the layers; perturb resumes every model's forward from its prefix."""

    @pytest.mark.parametrize("draws", [1, 3])
    def test_delta_ppl_mean(self, model, valsets, monkeypatch, draws):
        calls = count_forwards(monkeypatch)
        A.delta_ppl_mean(model, 0, valsets, seed=0, draws=draws)
        assert calls.count((None, "layers.0.route")) == len(valsets)
        assert calls.count(("layers.0.route", None)) == (draws + 1) * len(valsets)
        assert len(calls) == (draws + 2) * len(valsets)

    def test_traces_serve_every_layer(self, model, valsets, monkeypatch):
        calls = count_forwards(monkeypatch)
        traces = A.collect_traces(model, valsets)
        for layer in range(CFG.num_layers):
            A.activation_heatmap(traces, layer)
            A.inverse_heatmap(traces, layer)
        A.divergence_report(traces)
        assert calls == [(None, f"layers.{CFG.num_layers - 1}.combine")] * len(valsets)

    def test_traces_hold_no_normed_rows(self, model, valsets):
        # the last layer's router input, its dispatch and any gated rows are
        # the stopped forward's Resume, for a resume, which no analysis of
        # the traces makes: only the traces are kept
        traces = A.collect_traces(model, valsets)
        assert [f.name for f in dataclasses.fields(model_mod.LayerTrace)] == ["probs", "selected"]
        assert all(type(layers) is list and len(layers) == CFG.num_layers
                   and all(type(t) is model_mod.LayerTrace for t in layers)
                   for layers in traces.values())


class TestTiledForward:
    """The verbs' no-grad forwards run the fused ops in tiles; they give the
    values of a recorded forward of the same tokens."""

    def test_traces_and_perplexity_match_recorded_forward(self):
        c = ModelConfig()
        model = MoEModel(c, seed=0)
        # 9 sequences of 128: attention runs four groups of two and a partial one
        tokens = np.random.default_rng(2).integers(0, c.vocab_size, size=(9, c.max_seq_len))
        hidden, layers = forward(model, tokens)
        assert hidden.requires_grad
        # some expert gets more than one 256-row tile
        assert max(np.bincount(t.selected.reshape(-1)).max() for t in layers) > 256
        traces = A.collect_traces(model, {"d": tokens})["d"]
        for got, want in zip(traces, layers):
            assert np.array_equal(got.probs.data, want.probs.data)
            assert np.array_equal(got.selected, want.selected)
        # perplexity's head runs nine 128-row tiles
        recorded_ppl = float(np.exp(model_mod.lm_loss(model, hidden, tokens).item()))
        assert perplexity(model, tokens) == recorded_ppl
