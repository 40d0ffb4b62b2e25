import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moediv import losses
from moediv import tensor as T
from moediv.divergence import jsd_pair
from moediv.trainer import TrainConfig


def load_balance(probs, sel, n):
    return losses.load_balance_loss_t(T.Tensor(probs), sel, n).item()


def compose(l_lm, l_lb, l_ed, alpha, beta):
    return losses.compose_t(T.Tensor(l_lm), T.Tensor(l_lb), T.Tensor(l_ed), alpha, beta)[1]


class TestLoadBalance:
    def test_uniform_routing_equals_k(self):
        # P_i = 1/N everywhere and every expert selected by a K/N fraction
        # of tokens gives exactly N * sum (K/N)(1/N) = K
        n, k, t = 8, 2, 16
        probs = np.full((t, n), 1.0 / n)
        sel = np.stack([np.arange(t) % n, (np.arange(t) + n // 2) % n], axis=1)
        counts = np.bincount(sel.reshape(-1), minlength=n)
        assert np.all(counts == counts[0])
        assert load_balance(probs, sel, n) == pytest.approx(k, abs=1e-12)

    def test_collapse_equals_n(self):
        # everything routed to expert 0 with probability 1: loss = N
        n, t = 6, 10
        probs = np.zeros((t, n))
        probs[:, 0] = 1.0
        sel = np.zeros((t, 1), dtype=int)
        assert load_balance(probs, sel, n) == pytest.approx(n, abs=1e-12)

    def test_scalar_oracle(self):
        rng = np.random.default_rng(0)
        n, k, t = 5, 2, 12
        probs = rng.random((t, n)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        sel = np.stack([rng.permutation(n)[:k] for _ in range(t)])
        f = [sum(1 for row in sel if i in row) / t for i in range(n)]
        p = [probs[:, i].mean() for i in range(n)]
        expected = n * sum(fi * pi for fi, pi in zip(f, p))
        assert load_balance(probs, sel, n) == pytest.approx(expected, rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            load_balance(np.zeros((0, 4)), np.zeros((0, 2), dtype=int), 4)

    def test_graph_version_matches_float(self):
        rng = np.random.default_rng(1)
        probs = rng.random((9, 6)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        sel = np.stack([rng.permutation(6)[:2] for _ in range(9)])
        # plain-numpy N * sum_i f_i * P_i as the reference
        f = np.bincount(sel.reshape(-1), minlength=6) / 9
        ref = float(6 * (f * probs.mean(axis=0)).sum())
        out = losses.load_balance_loss_t(T.Tensor(probs), sel, 6)
        assert out.item() == pytest.approx(ref, rel=1e-12)

    def test_fractions_are_constants(self):
        # gradient must flow only through the soft mean, so d/dp of
        # N * sum f_i P_i is N * f_i / T for every token row
        rng = np.random.default_rng(2)
        probs = T.Tensor(rng.dirichlet(np.ones(4), size=6), requires_grad=True)
        sel = np.stack([rng.permutation(4)[:2] for _ in range(6)])
        out = losses.load_balance_loss_t(probs, sel, 4)
        grads = T.backward(out)
        f = losses._selection_fractions(sel, 4)
        expected = np.tile(4 * f / 6, (6, 1))
        np.testing.assert_allclose(grads[probs], expected, atol=1e-12)


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
        out, m_b = losses.expert_divergence_loss_t(
            T.Tensor(probs), 4, 3, ["a", "a", "b", "b"]
        )
        assert m_b == 2
        assert out.item() == pytest.approx(-np.log(1e-8), abs=1e-9)

    def test_disjoint_means_closed_form(self):
        probs = self._probs_for([[1.0, 0.0], [0.0, 1.0]], 1, 4)
        out, _ = losses.expert_divergence_loss_t(T.Tensor(probs), 2, 4, ["a", "b"])
        assert out.item() == pytest.approx(-np.log(np.log(2.0) + 1e-8), abs=1e-12)

    def test_single_domain_skipped(self):
        probs = self._probs_for([[0.6, 0.4]], 2, 3)
        out, m_b = losses.expert_divergence_loss_t(T.Tensor(probs), 2, 3, ["a", "a"])
        assert m_b == 1
        assert out.item() == 0.0

    def test_three_domain_scalar_oracle(self):
        rng = np.random.default_rng(3)
        b, l, n = 6, 4, 5
        probs = rng.dirichlet(np.ones(n), size=b * l)
        domains = ["x", "y", "z", "x", "y", "z"]
        out, m_b = losses.expert_divergence_loss_t(T.Tensor(probs), b, l, domains)
        assert m_b == 3
        seq_means = probs.reshape(b, l, n).mean(axis=1)
        dm = {d: np.mean([seq_means[i] for i in range(b) if domains[i] == d], axis=0)
              for d in "xyz"}
        pairs = [("x", "y"), ("x", "z"), ("y", "z")]
        expected = np.mean([-np.log(jsd_pair(dm[a], dm[b_]) + 1e-8) for a, b_ in pairs])
        assert out.item() == pytest.approx(expected, rel=1e-11)

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            losses.expert_divergence_loss_t(
                T.Tensor(np.full((4, 2), 0.5)), 2, 2, ["a"]
            )

    def test_sequence_means_unweighted(self):
        # two sequences of the same domain contribute equally regardless of
        # how peaked their token rows are
        probs = np.array(
            [[0.9, 0.1], [0.9, 0.1],       # seq 1, domain a
             [0.1, 0.9], [0.1, 0.9],       # seq 2, domain a
             [0.3, 0.7], [0.3, 0.7],       # seq 3, domain b
             [0.7, 0.3], [0.7, 0.3]]       # seq 4, domain b
        )
        out, _ = losses.expert_divergence_loss_t(
            T.Tensor(probs), 4, 2, ["a", "a", "b", "b"]
        )
        # both domain means are (0.5, 0.5): identical means closed form
        assert out.item() == pytest.approx(-np.log(1e-8), abs=1e-9)

    def test_gradient_flows_to_probs(self):
        rng = np.random.default_rng(4)
        probs = T.Tensor(rng.dirichlet(np.ones(4), size=8), requires_grad=True)
        out, _ = losses.expert_divergence_loss_t(probs, 4, 2, ["a", "a", "b", "b"])
        grads = T.backward(out)
        assert probs in grads
        assert np.any(grads[probs] != 0)


class TestCompose:
    def test_frozen_example(self):
        bd = compose(2.0, 1.0, 18.4207, alpha=1e-3, beta=5e-4)
        assert bd.l_final == pytest.approx(2.01021035, abs=1e-9)

    def test_default_weights(self):
        c = TrainConfig()
        bd = compose(1.0, 2.0, 3.0, c.alpha, c.beta)
        assert bd.alpha == 1e-3 and bd.beta == 5e-4
        assert bd.l_final == pytest.approx(1.0 + 1e-3 * 2.0 + 5e-4 * 3.0, abs=1e-15)

    def test_non_finite_named(self):
        with pytest.raises(ValueError, match="l_ed"):
            compose(1.0, 1.0, float("nan"), 1e-3, 5e-4)
        with pytest.raises(ValueError, match="l_lb"):
            compose(1.0, float("inf"), 1.0, 1e-3, 5e-4)

    def test_non_finite_total_named(self):
        # every part finite, but alpha * l_lb overflows
        with pytest.raises(ValueError, match="l_final"):
            compose(1.0, 10.0, 1.0, 1e308, 5e-4)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_linear_in_components(self, a, b, c):
        bd = compose(a, b, c, alpha=0.5, beta=0.25)
        assert bd.l_final == pytest.approx(a + 0.5 * b + 0.25 * c, abs=1e-9)

    def test_graph_version_matches(self):
        total, bd = losses.compose_t(
            T.Tensor(1.5), T.Tensor(0.8), T.Tensor(4.0), 1e-3, 5e-4
        )
        assert total.item() == pytest.approx(bd.l_final, abs=1e-15)
        assert bd.l_lm == 1.5 and bd.l_lb == 0.8 and bd.l_ed == 4.0
