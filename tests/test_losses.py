import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moediv import losses
from moediv import tensor as T
from moediv.divergence import _pair_jsd
from moediv.trainer import TrainConfig, _layer_mean

import graph_ops as G


def jsd_pair(p, q):
    """JSD of two distributions through the shared pairwise kernel."""
    return _pair_jsd(np.stack((p, q)))[2][0]


def oracle_pair(composite, fused, probs, *args):
    """(values, gradients into ``probs``) of the composite graph and the
    fused node, each scaled by the same cotangent."""
    outs, grads = [], []
    for op in (composite, fused):
        y = op(probs, *args)
        outs.append(y.data)
        grads.append(T.backward(T.mul(y, 0.37)).get(probs))
    return outs, grads


def assert_same(new, old):
    np.testing.assert_allclose(new, old, rtol=1e-12, atol=0)


def load_balance(probs, sel):
    return losses.load_balance_loss_t(T.Tensor(probs), sel).item()


def compose(l_lm, l_lb, l_ed, alpha, beta):
    return losses.compose_t(T.Tensor(l_lm), T.Tensor(l_lb), T.Tensor(l_ed), alpha, beta).item()


def ed_loss(probs, seq_len, domains):
    """L_ED of [B*L, N] token rows packed sequence by sequence."""
    probs = T.as_tensor(probs)
    return losses.expert_divergence_loss_t(
        T.reshape(probs, (len(domains), seq_len, probs.shape[-1])), domains
    )


class TestLoadBalance:
    def test_uniform_routing_equals_k(self):
        # P_i = 1/N everywhere and every expert selected by a K/N fraction
        # of tokens gives exactly N * sum (K/N)(1/N) = K
        n, k, t = 8, 2, 16
        probs = np.full((t, n), 1.0 / n)
        sel = np.stack([np.arange(t) % n, (np.arange(t) + n // 2) % n], axis=1)
        counts = np.bincount(sel.reshape(-1), minlength=n)
        assert np.all(counts == counts[0])
        assert load_balance(probs, sel) == pytest.approx(k, abs=1e-12)

    def test_collapse_equals_n(self):
        # everything routed to expert 0 with probability 1: loss = N
        n, t = 6, 10
        probs = np.zeros((t, n))
        probs[:, 0] = 1.0
        sel = np.zeros((t, 1), dtype=int)
        assert load_balance(probs, sel) == pytest.approx(n, abs=1e-12)

    def test_scalar_oracle(self):
        rng = np.random.default_rng(0)
        n, k, t = 5, 2, 12
        probs = rng.random((t, n)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        sel = np.stack([rng.permutation(n)[:k] for _ in range(t)])
        f = [sum(1 for row in sel if i in row) / t for i in range(n)]
        p = [probs[:, i].mean() for i in range(n)]
        expected = n * sum(fi * pi for fi, pi in zip(f, p))
        assert load_balance(probs, sel) == pytest.approx(expected, rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            load_balance(np.zeros((0, 4)), np.zeros((0, 2), dtype=int))

    def test_graph_version_matches_float(self):
        rng = np.random.default_rng(1)
        probs = rng.random((9, 6)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        sel = np.stack([rng.permutation(6)[:2] for _ in range(9)])
        # plain-numpy N * sum_i f_i * P_i as the reference
        f = np.bincount(sel.reshape(-1), minlength=6) / 9
        ref = float(6 * (f * probs.mean(axis=0)).sum())
        out = losses.load_balance_loss_t(T.Tensor(probs), sel)
        assert out.item() == pytest.approx(ref, rel=1e-12)

    def test_fractions_are_constants(self):
        # gradient must flow only through the soft mean, so d/dp of
        # N * sum f_i P_i is N * f_i / T for every token row
        rng = np.random.default_rng(2)
        probs = T.Tensor(rng.dirichlet(np.ones(4), size=6), requires_grad=True)
        sel = np.stack([rng.permutation(4)[:2] for _ in range(6)])
        out = losses.load_balance_loss_t(probs, sel)
        grads = T.backward(out)
        f = losses._selection_fractions(sel, 4)
        expected = np.tile(4 * f / 6, (6, 1))
        np.testing.assert_allclose(grads[probs], expected, atol=1e-12)


    @pytest.mark.parametrize("t, n, k", [(9, 6, 2), (12, 4, 4), (1, 3, 1)])  # K = N at n = 4
    def test_matches_composite_oracle(self, t, n, k):
        rng = np.random.default_rng(t)
        probs = T.Tensor(rng.dirichlet(np.ones(n), size=t), requires_grad=True)
        sel = np.argsort(rng.random((t, n)), axis=1)[:, :k]
        (old, new), (g_old, g_new) = oracle_pair(
            G.composite_load_balance, losses.load_balance_loss_t, probs, sel)
        assert_same(new, old)
        assert_same(g_new, g_old)

    def test_one_graph_node(self):
        probs = T.Tensor(np.full((3, 4), 0.25), requires_grad=True)
        out = losses.load_balance_loss_t(probs, np.array([[0], [1], [1]]))
        assert out._parents == (probs,)


class TestExpertDivergenceT:
    @staticmethod
    def _probs_for(domain_means, per_domain_seqs, seq_len):
        rows = []
        for mean in domain_means:
            for _ in range(per_domain_seqs * seq_len):
                rows.append(mean)
        return np.asarray(rows, dtype=np.float64)

    def test_identical_means_closed_form(self):
        probs = self._probs_for([[0.5, 0.5], [0.5, 0.5]], 2, 3)
        out = ed_loss(probs, 3, ["a", "a", "b", "b"])
        assert out.item() == pytest.approx(-np.log(1e-8), abs=1e-9)

    def test_disjoint_means_closed_form(self):
        probs = self._probs_for([[1.0, 0.0], [0.0, 1.0]], 1, 4)
        out = ed_loss(probs, 4, ["a", "b"])
        assert out.item() == pytest.approx(-np.log(np.log(2.0) + 1e-8), abs=1e-12)

    def test_single_domain_skipped(self):
        probs = self._probs_for([[0.6, 0.4]], 2, 3)
        out = ed_loss(probs, 3, ["a", "a"])
        assert out.item() == 0.0

    def test_three_domain_scalar_oracle(self):
        rng = np.random.default_rng(3)
        b, l, n = 6, 4, 5
        probs = rng.dirichlet(np.ones(n), size=b * l)
        domains = ["x", "y", "z", "x", "y", "z"]
        out = ed_loss(probs, l, domains)
        seq_means = probs.reshape(b, l, n).mean(axis=1)
        dm = {d: np.mean([seq_means[i] for i in range(b) if domains[i] == d], axis=0)
              for d in "xyz"}
        pairs = [("x", "y"), ("x", "z"), ("y", "z")]
        expected = np.mean([-np.log(jsd_pair(dm[a], dm[b_]) + 1e-8) for a, b_ in pairs])
        assert out.item() == pytest.approx(expected, rel=1e-11)

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            losses.expert_divergence_loss_t(T.Tensor(np.full((2, 2, 2), 0.5)), ["a"])

    @pytest.mark.parametrize("shape, labels", [
        ((3, 2, 2), ["a", "b"]),
        ((3, 2, 2), ["a", "b", "a", "b"]),
        ((8, 2), ["a", "a", "b", "b"]),  # flat [B*L, N] rows: 8 sequences to the loss
    ])
    def test_label_count_must_match_batch(self, shape, labels):
        with pytest.raises(ValueError, match=f"{len(labels)} domain labels for {shape[0]} sequences"):
            losses.expert_divergence_loss_t(T.Tensor(np.full(shape, 0.5)), labels)

    @staticmethod
    def _many_domains(m, seed, n=5, seq_len=3):
        # two sequences per domain, the domains interleaved
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(n), size=2 * m * seq_len)
        return probs, [f"d{i % m}" for i in range(2 * m)]

    @pytest.mark.parametrize("m", [4, 5])
    def test_many_domains_scalar_oracle(self, m):
        probs, domains = self._many_domains(m, seed=10 + m)
        out = ed_loss(probs, 3, domains)
        seq_means = probs.reshape(2 * m, 3, -1).mean(axis=1)
        dm = [np.mean([seq_means[i] for i in range(2 * m) if domains[i] == d], axis=0)
              for d in dict.fromkeys(domains)]
        expected = np.mean([-np.log(jsd_pair(dm[a], dm[b]) + 1e-8)
                            for a in range(m) for b in range(a + 1, m)])
        assert out.item() == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("m", [4, 5])
    def test_many_domains_grad_check(self, m):
        probs, domains = self._many_domains(m, seed=20 + m)
        probs = T.Tensor(probs, requires_grad=True)
        errs = T.grad_check(lambda: {"l_ed": ed_loss(probs, 3, domains)}, [probs])
        assert errs["l_ed"] <= 1e-6

    def test_sequence_means_unweighted(self):
        # two sequences of the same domain contribute equally regardless of
        # how peaked their token rows are
        probs = np.array(
            [[0.9, 0.1], [0.9, 0.1],       # seq 1, domain a
             [0.1, 0.9], [0.1, 0.9],       # seq 2, domain a
             [0.3, 0.7], [0.3, 0.7],       # seq 3, domain b
             [0.7, 0.3], [0.7, 0.3]]       # seq 4, domain b
        )
        out = ed_loss(probs, 2, ["a", "a", "b", "b"])
        # both domain means are (0.5, 0.5): identical means closed form
        assert out.item() == pytest.approx(-np.log(1e-8), abs=1e-9)

    @pytest.mark.parametrize("domains, one_hot", [
        (["a", "b", "a", "a"], False),            # 2 domains: 3 and 1 sequences
        (["x", "y", "z", "x", "y", "x"], False),  # 3 domains: 3, 2 and 1 sequences
        (["a", "b", "c", "b"], True),             # domain a's mean is an exact one-hot
    ])
    def test_matches_composite_oracle(self, domains, one_hot):
        rng = np.random.default_rng(len(domains))
        probs = rng.dirichlet(np.ones(4), size=(len(domains), 3))
        if one_hot:
            probs[0] = [0.0, 0.0, 1.0, 0.0]  # zeros meet the 1e-300 floor
        probs = T.Tensor(probs, requires_grad=True)
        (old, new), (g_old, g_new) = oracle_pair(
            G.composite_expert_divergence, losses.expert_divergence_loss_t, probs, domains)
        assert_same(new, old)
        assert_same(g_new, g_old)
        assert np.all(np.isfinite(g_new))

    def test_interleaved_labels_equal_composite_oracle(self):
        # domains in first-seen order b, a, c, each over its rows in ascending order
        domains = ["b", "a", "b", "c", "a"]
        probs = T.Tensor(np.random.default_rng(9).dirichlet(np.ones(4), size=(5, 3)),
                         requires_grad=True)
        (old, new), (g_old, g_new) = oracle_pair(
            G.composite_expert_divergence, losses.expert_divergence_loss_t, probs, domains)
        assert new == old
        assert np.array_equal(g_new, g_old)

    def test_single_domain_has_no_gradient(self):
        probs = T.Tensor(np.full((2, 3, 4), 0.25), requires_grad=True)
        (old, new), (g_old, g_new) = oracle_pair(
            G.composite_expert_divergence, losses.expert_divergence_loss_t, probs, ["a", "a"])
        assert new == old == 0.0
        assert g_new is None and g_old is None

    def test_one_graph_node(self):
        probs = T.Tensor(np.full((2, 3, 4), 0.25), requires_grad=True)
        out = losses.expert_divergence_loss_t(probs, ["a", "b"])
        assert out._parents == (probs,)

    def test_gradient_flows_to_probs(self):
        rng = np.random.default_rng(4)
        probs = T.Tensor(rng.dirichlet(np.ones(4), size=8), requires_grad=True)
        out = ed_loss(probs, 2, ["a", "a", "b", "b"])
        grads = T.backward(out)
        assert probs in grads
        assert np.any(grads[probs] != 0)


class TestCompose:
    def test_frozen_example(self):
        total = compose(2.0, 1.0, 18.4207, alpha=1e-3, beta=5e-4)
        assert total == pytest.approx(2.01021035, abs=1e-9)

    def test_default_weights(self):
        c = TrainConfig()
        assert c.alpha == 1e-3 and c.beta == 5e-4
        total = compose(1.0, 2.0, 3.0, c.alpha, c.beta)
        assert total == pytest.approx(1.0 + 1e-3 * 2.0 + 5e-4 * 3.0, abs=1e-15)

    def test_non_finite_named(self):
        with pytest.raises(ValueError, match="l_ed"):
            compose(1.0, 1.0, float("nan"), 1e-3, 5e-4)
        with pytest.raises(ValueError, match="l_lb"):
            compose(1.0, float("inf"), 1.0, 1e-3, 5e-4)

    def test_non_finite_total_named(self):
        # every part finite, but alpha * l_lb overflows
        with pytest.raises(ValueError, match="l_final"), \
                pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            compose(1.0, 10.0, 1.0, 1e308, 5e-4)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_linear_in_components(self, a, b, c):
        total = compose(a, b, c, alpha=0.5, beta=0.25)
        assert total == pytest.approx(a + 0.5 * b + 0.25 * c, abs=1e-9)

    def test_graph_version_matches(self):
        # the Tensor adds left to right, so it equals the float sum exactly
        assert compose(1.5, 0.8, 4.0, 1e-3, 5e-4) == 1.5 + 1e-3 * 0.8 + 5e-4 * 4.0

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_fused_tail_matches_generic_graph(self, num_layers):
        # the layer means and L_final, one node each, give the value and
        # every term's gradient of the add / mul / div graph they replaced
        rng = np.random.default_rng(num_layers)
        l_lm = T.Tensor(rng.random() * 5.0, requires_grad=True)
        lb = [T.Tensor(1.0 + rng.random(), requires_grad=True) for _ in range(num_layers)]
        ed = [T.Tensor(rng.random() * 20.0, requires_grad=True) for _ in range(num_layers)]
        c = TrainConfig()
        fused = losses.compose_t(l_lm, _layer_mean(lb), _layer_mean(ed), c.alpha, c.beta)
        generic = G.composite_final(l_lm, G.composite_layer_mean(lb),
                                    G.composite_layer_mean(ed), c.alpha, c.beta)
        assert fused.item() == generic.item()
        new, old = (T.backward(T.mul(y, 0.37)) for y in (fused, generic))
        for term in (l_lm, *lb, *ed):
            assert np.array_equal(new[term], old[term])
