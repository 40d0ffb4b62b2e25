import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from moediv import routing as R
from moediv import tensor as T


def scalar_softmax(row):
    m = max(row)
    exps = [np.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


class TestRoute:
    def test_zero_router_uniform(self):
        out = R.route(np.zeros((4, 3)), np.array([0.7, -0.2, 1.5]))
        np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(16, 6))
        xs = rng.normal(size=(8, 6))
        out = R.route(w, xs)
        for t in range(8):
            logits = [float(w[i] @ xs[t]) for i in range(16)]
            np.testing.assert_allclose(out.data[t], scalar_softmax(logits), atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            R.route(np.zeros((4, 3)), np.zeros(5))

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, (5, 4), elements=st.floats(-5, 5)),
           arrays(np.float64, (4,), elements=st.floats(-5, 5)))
    def test_valid_distribution(self, w, x):
        out = R.route(w, x).data
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) <= 1e-12


class TestTopK:
    def test_basic_selection(self):
        selected, gates = R.topk_select([[0.1, 0.5, 0.15, 0.25]], 2)
        assert list(selected[0]) == [1, 3]
        np.testing.assert_allclose(gates[0], [0.5 / 0.75, 0.25 / 0.75], atol=1e-15)

    def test_tie_breaks_low_index(self):
        selected, gates = R.topk_select([[0.25, 0.25, 0.25, 0.25]], 2)
        assert list(selected[0]) == [0, 1]
        np.testing.assert_allclose(gates[0], [0.5, 0.5])

    def test_k_equals_n(self):
        p = [0.4, 0.1, 0.3, 0.2]
        _, gates = R.topk_select([p], 4)
        np.testing.assert_allclose(sorted(gates[0]), sorted(p), atol=1e-15)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            R.topk_select([[0.5, 0.5]], 3)
        with pytest.raises(ValueError):
            R.topk_select([[0.5, 0.5]], 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_gates_renormalized(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, n + 1))
        p = rng.random(n) + 1e-6
        p /= p.sum()
        sel, gates = R.topk_select(p[None, :], k)
        assert abs(gates.sum() - 1.0) <= 1e-12
        # the selected set is an actual top-K set
        chosen = p[sel[0]]
        rest = np.delete(p, sel[0])
        if rest.size:
            assert chosen.min() >= rest.max() - 1e-15


def run_expert(expert, x):
    """One expert's SiLU-gated MLP as separate graph ops (the oracle)."""
    h = T.mul(T.silu(T.matmul(x, expert.w_gate)), T.matmul(x, expert.w_up))
    return T.matmul(h, expert.w_down)


def loop_moe_forward(layer, x):
    """The per-expert dispatch loop that ``expert_mixture`` replaced.

    Gathers each expert's tokens, runs the expert, weights it by its gate
    and scatters it back (a one-hot matmul), accumulating over experts in
    index order.
    """
    probs = R.route(layer.router, x)
    selected, _ = R.topk_select(probs.data, layer.top_k)
    chosen = T.take_along_last(probs, selected)
    gates = T.div(chosen, T.tsum(chosen, axis=-1, keepdims=True))
    flat_gates = T.reshape(gates, (-1,))
    y = None
    for i, expert in enumerate(layer.experts):
        rows, cols = np.nonzero(selected == i)
        if rows.size == 0:
            continue
        hi = run_expert(expert, T.take_rows(x, rows))
        wi = T.reshape(T.take_rows(flat_gates, rows * layer.top_k + cols), (rows.size, 1))
        scatter = (np.arange(x.shape[0])[:, None] == rows[None, :]).astype(np.float64)
        contrib = T.matmul(scatter, T.mul(hi, wi))
        y = contrib if y is None else T.add(y, contrib)
    return y, probs, selected, gates


def make_layer(rng, n_experts, d, m, k):
    experts = [
        R.ExpertFFN(
            w_gate=T.Tensor(rng.normal(size=(d, m)), requires_grad=True),
            w_up=T.Tensor(rng.normal(size=(d, m)), requires_grad=True),
            w_down=T.Tensor(rng.normal(size=(m, d)), requires_grad=True),
        )
        for _ in range(n_experts)
    ]
    router = T.Tensor(rng.normal(size=(n_experts, d)), requires_grad=True)
    return R.MoELayer(router=router, experts=experts, top_k=k)


class TestMoEForward:
    def test_identical_experts_gate_invariant(self):
        # if every expert computes the same function, the mixture equals it
        rng = np.random.default_rng(1)
        layer = make_layer(rng, 4, 5, 7, 2)
        for e in layer.experts[1:]:
            e.w_gate = layer.experts[0].w_gate
            e.w_up = layer.experts[0].w_up
            e.w_down = layer.experts[0].w_down
        x = rng.normal(size=5)
        y, _, _, _ = R.moe_forward_batch(layer, T.Tensor(x[None, :]))
        ref = run_expert(layer.experts[0], T.Tensor(x[None, :]))
        np.testing.assert_allclose(y.data[0], ref.data[0], atol=1e-12)

    def test_k1_single_expert(self):
        rng = np.random.default_rng(2)
        layer = make_layer(rng, 4, 5, 7, 1)
        x = rng.normal(size=5)
        y, probs, selected, gates = R.moe_forward_batch(layer, T.Tensor(x[None, :]))
        assert gates.data[0, 0] == pytest.approx(1.0)
        picked = int(selected[0, 0])
        assert picked == int(np.argmax(probs.data[0]))
        ref = run_expert(layer.experts[picked], T.Tensor(x[None, :]))
        np.testing.assert_allclose(y.data[0], ref.data[0], atol=1e-12)

    def test_matches_dense_oracle(self):
        # brute-force oracle: run every expert densely and mix with the
        # renormalized top-K weights
        rng = np.random.default_rng(3)
        layer = make_layer(rng, 6, 4, 9, 3)
        xs = rng.normal(size=(10, 4))
        y, probs, selected, gates = R.moe_forward_batch(layer, T.Tensor(xs))
        dense = np.stack(
            [run_expert(layer.experts[i], T.Tensor(xs)).data for i in range(6)], axis=0
        )
        for t in range(10):
            expected = sum(
                gates.data[t, j] * dense[selected[t, j], t] for j in range(3)
            )
            np.testing.assert_allclose(y.data[t], expected, atol=1e-10)

    def test_probs_full_not_sparse(self):
        rng = np.random.default_rng(4)
        layer = make_layer(rng, 8, 4, 6, 2)
        _, probs, _, _ = R.moe_forward_batch(layer, T.Tensor(rng.normal(size=(3, 4))))
        assert probs.shape == (3, 8)
        assert np.all(probs.data > 0)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)

    def test_unselected_expert_gets_no_output_grad(self):
        # an expert the router never picks must receive zero gradient from
        # the mixture output (it can still get one via auxiliary losses)
        rng = np.random.default_rng(5)
        layer = make_layer(rng, 4, 5, 7, 1)
        x = rng.normal(size=(6, 5))
        y, _, selected, _ = R.moe_forward_batch(layer, T.Tensor(x))
        used = set(selected.ravel().tolist())
        unused = [i for i in range(4) if i not in used]
        if not unused:
            pytest.skip("all experts selected for this draw")
        grads = T.backward(T.tsum(T.mul(y, y)))
        for i in unused:
            assert layer.experts[i].w_down not in grads

    def test_router_gradient_flows(self):
        rng = np.random.default_rng(6)
        layer = make_layer(rng, 4, 5, 7, 2)
        x = rng.normal(size=(6, 5))
        y, _, _, _ = R.moe_forward_batch(layer, T.Tensor(x))
        grads = T.backward(T.tsum(T.mul(y, y)))
        assert layer.router in grads
        assert np.any(grads[layer.router] != 0)

    def test_shift_invariant_routing(self):
        # adding a constant to all router logits leaves the mixture unchanged;
        # emulate by adding a constant column direction to the router rows
        rng = np.random.default_rng(7)
        layer = make_layer(rng, 4, 5, 7, 2)
        x = rng.normal(size=(3, 5))
        y1, p1, _, _ = R.moe_forward_batch(layer, T.Tensor(x))
        # shift logits per token by routing against x with a rank-1 update
        # that adds the same value to every expert: rows += c * v where
        # logits_i += c * (v . x) for all i equally
        v = rng.normal(size=5)
        layer2 = R.MoELayer(
            router=T.Tensor(layer.router.data + 3.0 * v[None, :]),
            experts=layer.experts,
            top_k=2,
        )
        y2, p2, _, _ = R.moe_forward_batch(layer2, T.Tensor(x))
        np.testing.assert_allclose(p1.data, p2.data, atol=1e-10)
        np.testing.assert_allclose(y1.data, y2.data, atol=1e-10)


def expert_weights(layer):
    return [(e.w_gate, e.w_up, e.w_down) for e in layer.experts]


class TestExpertMixture:
    """The fused expert op against the per-expert loop it replaced."""

    @pytest.mark.parametrize("n, k", [(6, 1), (6, 2), (4, 4)])
    def test_forward_bit_identical_to_loop(self, n, k):
        # both add each token's gated expert outputs in expert order
        rng = np.random.default_rng(30 + k)
        layer = make_layer(rng, n, 5, 7, k)
        x = T.Tensor(rng.normal(size=(40, 5)))
        new = R.moe_forward_batch(layer, x)
        old = loop_moe_forward(layer, x)
        assert np.array_equal(new[0].data, old[0].data)
        assert np.array_equal(new[1].data, old[1].data)
        assert np.array_equal(new[2], old[2])

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_gradients_match_loop(self, k):
        rng = np.random.default_rng(40 + k)
        layer = make_layer(rng, 4, 5, 7, k)
        x = T.Tensor(rng.normal(size=(9, 5)), requires_grad=True)
        weights = rng.normal(size=(9, 5))
        params = [x, layer.router] + [w for triple in expert_weights(layer) for w in triple]
        new = T.backward(T.tsum(T.mul(R.moe_forward_batch(layer, x)[0], weights)))
        old = T.backward(T.tsum(T.mul(loop_moe_forward(layer, x)[0], weights)))
        for p in params:
            assert (p in new) == (p in old)
            if p in new:
                np.testing.assert_allclose(new[p], old[p], rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("k, selected", [
        (1, [[0], [2], [2], [0], [3]]),                   # expert 1 gets no token
        (2, [[0, 2], [2, 0], [3, 2], [0, 3], [2, 3]]),    # expert 1 gets no token
        (4, [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2],
             [2, 0, 3, 1], [0, 2, 1, 3]]),                # K = N
    ])
    def test_grad_check(self, k, selected):
        rng = np.random.default_rng(50 + k)
        layer = make_layer(rng, 4, 3, 4, k)
        x = T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        gates = T.Tensor(rng.random((5, k)) + 0.1, requires_grad=True)
        selected = np.array(selected)
        weights = rng.normal(size=(5, 3))
        experts = expert_weights(layer)
        params = [x, gates] + [w for triple in experts for w in triple]

        def f():
            y = T.expert_mixture(x, gates, selected, experts)
            return T.tsum(T.mul(y, weights))

        assert T.grad_check(f, params, h=1e-6) <= 1e-6

    def test_idle_expert_gets_no_gradient(self):
        rng = np.random.default_rng(60)
        layer = make_layer(rng, 4, 3, 4, 2)
        x = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        gates = T.Tensor(np.full((3, 2), 0.5), requires_grad=True)
        y = T.expert_mixture(x, gates, np.array([[0, 2], [2, 3], [3, 0]]),
                             expert_weights(layer))
        grads = T.backward(T.tsum(T.mul(y, y)))
        idle = layer.experts[1]
        assert all(w not in grads for w in (idle.w_gate, idle.w_up, idle.w_down))
        assert all(w in grads for w in (layer.experts[0].w_gate, x, gates))

    def test_one_graph_node(self):
        rng = np.random.default_rng(61)
        layer = make_layer(rng, 4, 3, 4, 2)
        x = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        y, _, _, _ = R.moe_forward_batch(layer, x)
        assert y._parents[0] is x
        assert len(y._parents) == 2 + 3 * 4

    def test_repeated_expert_in_row(self):
        rng = np.random.default_rng(63)
        layer = make_layer(rng, 3, 3, 4, 2)
        with pytest.raises(ValueError, match="repeated"):
            T.expert_mixture(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 2))),
                             np.array([[0, 1], [2, 2]]), expert_weights(layer))

    def test_expert_out_of_range(self):
        rng = np.random.default_rng(62)
        layer = make_layer(rng, 2, 3, 4, 1)
        with pytest.raises(ValueError, match="out of range"):
            T.expert_mixture(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 1))),
                             np.array([[0], [2]]), expert_weights(layer))
