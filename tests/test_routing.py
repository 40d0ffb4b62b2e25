import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from moediv import routing as R
from moediv import tensor as T

import graph_ops as G


def scalar_softmax(row):
    m = max(row)
    exps = [np.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


class TestRoute:
    def test_zero_router_uniform(self):
        out = R.route(np.zeros((4, 3)), np.array([[0.7, -0.2, 1.5]]))
        np.testing.assert_allclose(out.data, [[0.25] * 4], atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(16, 6))
        xs = rng.normal(size=(8, 6))
        out = R.route(w, xs)
        for t in range(8):
            logits = [float(w[i] @ xs[t]) for i in range(16)]
            np.testing.assert_allclose(out.data[t], scalar_softmax(logits), atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="route: tokens of shape"):
            R.route(np.zeros((4, 3)), np.zeros((2, 5)))
        with pytest.raises(ValueError, match="route: tokens of shape"):
            R.route(np.zeros((4, 3)), np.zeros(3))  # one [d] vector, not a [T, d] batch

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, (5, 4), elements=st.floats(-5, 5)),
           arrays(np.float64, (1, 4), elements=st.floats(-5, 5)))
    def test_valid_distribution(self, w, x):
        out = R.route(w, x).data
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        x = np.ones((3, 4))
        x[1, 2] = bad
        with pytest.raises(ValueError, match="route: non-finite"):
            R.route(np.full((5, 4), 0.1), x)

    def test_no_overflow(self):
        # logits of 1000 and 0 are max-shifted before exp
        out = R.route(np.array([[1000.0], [0.0]]), np.ones((1, 1)))
        np.testing.assert_allclose(out.data[0], scalar_softmax([1000.0, 0.0]), atol=1e-15)

    @pytest.mark.parametrize("t, n, d", [(7, 5, 3), (1, 2, 4), (40, 8, 16)])
    def test_matches_composite_oracle(self, t, n, d):
        rng = np.random.default_rng(10 + t)
        w = T.Tensor(rng.normal(size=(n, d)), requires_grad=True)
        x = T.Tensor(rng.normal(size=(t, d)), requires_grad=True)
        cot = rng.normal(size=(t, n))
        outs, grads = [], []
        for op in (G.composite_route, R.route):
            y = op(w, x)
            outs.append(y.data)
            grads.append(T.backward(T.tsum(T.mul(y, cot))))
        np.testing.assert_allclose(outs[1], outs[0], rtol=1e-12, atol=0)
        for p in (w, x):
            np.testing.assert_allclose(grads[1][p], grads[0][p], rtol=1e-12, atol=0)

    def test_one_graph_node(self):
        rng = np.random.default_rng(11)
        w = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        assert R.route(w, x)._parents == (x, w)
        with T.no_grad():
            assert not R.route(w, x).requires_grad


class TestTopK:
    def test_basic_selection(self):
        selected = R.topk_select([[0.1, 0.5, 0.15, 0.25]], 2)
        assert selected.tolist() == [[1, 3]]

    def test_tie_breaks_low_index(self):
        selected = R.topk_select([[0.25, 0.25, 0.25, 0.25]], 2)
        assert selected.tolist() == [[0, 1]]

    def test_k_equals_n(self):
        selected = R.topk_select([[0.4, 0.1, 0.3, 0.2]], 4)
        assert selected.tolist() == [[0, 2, 3, 1]]

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
        sel = R.topk_select(p[None, :], k)
        # the selected set is an actual top-K set
        chosen = p[sel[0]]
        rest = np.delete(p, sel[0])
        if rest.size:
            assert chosen.min() >= rest.max() - 1e-15
        # expert_mixture renormalises the selected probabilities: with every
        # expert the same function E, the mixture is (sum of the gates) * E(x)
        experts = np.broadcast_to(rng.normal(size=(1, 3, 2, 3)), (n, 3, 2, 3))
        x = rng.normal(size=(1, 2))
        mixed = mixture(x, p[None, :], sel, experts).data
        alone = mixture(x, np.ones((1, 1)), np.zeros((1, 1)), experts[:1]).data
        np.testing.assert_allclose(mixed, alone, rtol=1e-12, atol=0)


def mixture(x, probs, selected, experts):
    """``expert_mixture`` on a dispatch of ``selected`` made for this call."""
    dispatch = T.expert_dispatch(probs, selected, T.as_tensor(experts).shape[0])
    return T.expert_mixture(x, dispatch, experts)


def expert_weight(layer, i, j):
    """Slice j of expert i's block in the stacked expert tensor, as a graph op."""
    n, _, d, m = layer.experts.shape
    return T.take_rows(T.reshape(layer.experts, (n * 3, d, m)), 3 * i + j)


def run_expert(layer, i, x):
    """Expert i's SiLU-gated MLP as separate graph ops (the oracle)."""
    _, _, d, m = layer.experts.shape
    w_gate, w_up = expert_weight(layer, i, 0), expert_weight(layer, i, 1)
    w_down = T.reshape(expert_weight(layer, i, 2), (m, d))
    h = T.mul(G.silu(G.matmul(x, w_gate)), G.matmul(x, w_up))
    return G.matmul(h, w_down)


def loop_moe_forward(layer, x):
    """The router and per-expert dispatch loop that ``route`` and
    ``expert_mixture`` replaced.

    Routes through the composite router and gates, gathers each expert's
    tokens, runs the expert, weights it by its gate and scatters it back (a
    one-hot matmul), accumulating over experts in index order.
    """
    probs = G.composite_route(layer.router, x)
    selected = R.topk_select(probs.data, layer.top_k)
    gates = G.composite_gates(probs, selected)
    flat_gates = T.reshape(gates, (-1,))
    y = None
    for i in range(layer.num_experts):
        rows, cols = np.nonzero(selected == i)
        if rows.size == 0:
            continue
        hi = run_expert(layer, i, T.take_rows(x, rows))
        wi = T.reshape(T.take_rows(flat_gates, rows * layer.top_k + cols), (rows.size, 1))
        scatter = (np.arange(x.shape[0])[:, None] == rows[None, :]).astype(np.float64)
        contrib = G.matmul(scatter, T.mul(hi, wi))
        y = contrib if y is None else T.add(y, contrib)
    return y, probs, selected


def make_layer(rng, n_experts, d, m, k):
    # per expert: w_gate [d, m], w_up [d, m], w_down [m, d] stored as [d, m]
    experts = T.Tensor(rng.normal(size=(n_experts, 3, d, m)), requires_grad=True)
    router = T.Tensor(rng.normal(size=(n_experts, d)), requires_grad=True)
    return R.MoELayer(router=router, experts=experts, top_k=k)


class TestMoEForward:
    def test_identical_experts_gate_invariant(self):
        # if every expert computes the same function, the mixture equals it
        rng = np.random.default_rng(1)
        layer = make_layer(rng, 4, 5, 7, 2)
        layer.experts.data[1:] = layer.experts.data[0]
        x = rng.normal(size=5)
        y, _, _ = R.moe_forward_batch(layer, T.Tensor(x[None, :]))
        ref = run_expert(layer, 0, T.Tensor(x[None, :]))
        np.testing.assert_allclose(y.data[0], ref.data[0], atol=1e-12)

    def test_k1_single_expert(self):
        rng = np.random.default_rng(2)
        layer = make_layer(rng, 4, 5, 7, 1)
        x = rng.normal(size=5)
        y, probs, selected = R.moe_forward_batch(layer, T.Tensor(x[None, :]))
        picked = int(selected[0, 0])
        assert picked == int(np.argmax(probs.data[0]))
        ref = run_expert(layer, picked, T.Tensor(x[None, :]))
        np.testing.assert_allclose(y.data[0], ref.data[0], atol=1e-12)

    def test_matches_dense_oracle(self):
        # brute-force oracle: run every expert densely and mix with the
        # renormalized top-K weights
        rng = np.random.default_rng(3)
        layer = make_layer(rng, 6, 4, 9, 3)
        xs = rng.normal(size=(10, 4))
        y, probs, selected = R.moe_forward_batch(layer, T.Tensor(xs))
        gates = np.take_along_axis(probs.data, selected, axis=1)
        gates /= gates.sum(axis=1, keepdims=True)
        dense = np.stack(
            [run_expert(layer, i, T.Tensor(xs)).data for i in range(6)], axis=0
        )
        for t in range(10):
            expected = sum(
                gates[t, j] * dense[selected[t, j], t] for j in range(3)
            )
            np.testing.assert_allclose(y.data[t], expected, atol=1e-10)

    def test_probs_full_not_sparse(self):
        rng = np.random.default_rng(4)
        layer = make_layer(rng, 8, 4, 6, 2)
        _, probs, _ = R.moe_forward_batch(layer, T.Tensor(rng.normal(size=(3, 4))))
        assert probs.shape == (3, 8)
        assert np.all(probs.data > 0)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)

    def test_unselected_expert_gets_no_output_grad(self):
        # an expert the router never picks must receive zero gradient from
        # the mixture output (it can still get one via auxiliary losses)
        rng = np.random.default_rng(5)
        layer = make_layer(rng, 4, 5, 7, 1)
        x = rng.normal(size=(6, 5))
        y, _, selected = R.moe_forward_batch(layer, T.Tensor(x))
        used = set(selected.ravel().tolist())
        unused = [i for i in range(4) if i not in used]
        if not unused:
            pytest.skip("all experts selected for this draw")
        grads = T.backward(T.tsum(T.mul(y, y)))
        for i in unused:
            assert not np.any(grads[layer.experts][i])

    def test_router_gradient_flows(self):
        rng = np.random.default_rng(6)
        layer = make_layer(rng, 4, 5, 7, 2)
        x = rng.normal(size=(6, 5))
        y, _, _ = R.moe_forward_batch(layer, T.Tensor(x))
        grads = T.backward(T.tsum(T.mul(y, y)))
        assert layer.router in grads
        assert np.any(grads[layer.router] != 0)

    def test_shift_invariant_routing(self):
        # adding a constant to all router logits leaves the mixture unchanged;
        # emulate by adding a constant column direction to the router rows
        rng = np.random.default_rng(7)
        layer = make_layer(rng, 4, 5, 7, 2)
        x = rng.normal(size=(3, 5))
        y1, p1, _ = R.moe_forward_batch(layer, T.Tensor(x))
        # shift logits per token by routing against x with a rank-1 update
        # that adds the same value to every expert: rows += c * v where
        # logits_i += c * (v . x) for all i equally
        v = rng.normal(size=5)
        layer2 = R.MoELayer(
            router=T.Tensor(layer.router.data + 3.0 * v[None, :]),
            experts=layer.experts,
            top_k=2,
        )
        y2, p2, _ = R.moe_forward_batch(layer2, T.Tensor(x))
        np.testing.assert_allclose(p1.data, p2.data, atol=1e-10)
        np.testing.assert_allclose(y1.data, y2.data, atol=1e-10)


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

    @pytest.mark.parametrize("k, t, m", [(1, 9, 7), (2, 9, 7), (4, 9, 7), (2, 600, 128)],
                             ids=["1", "2", "4", "multi-tile"])
    def test_gradients_match_loop(self, k, t, m):
        # multi-tile: 1,200 slots among 4 experts, so some slice holds 300 or
        # more and spans two 256-row tiles at m = 128: the VJP regathers x and
        # recomputes the SiLU products over rows that two tiles wrote
        rng = np.random.default_rng(40 + k)
        layer = make_layer(rng, 4, 5, m, k)
        x = T.Tensor(rng.normal(size=(t, 5)), requires_grad=True)
        weights = rng.normal(size=(t, 5))
        params = [x, layer.router, layer.experts]
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
        probs = T.Tensor(rng.random((5, 4)) + 0.1, requires_grad=True)
        selected = np.array(selected)
        weights = rng.normal(size=(5, 3))
        params = [x, probs, layer.experts]

        def f():
            y = mixture(x, probs, selected, layer.experts)
            return T.tsum(T.mul(y, weights))

        assert T.grad_check(lambda: {"y": f()}, params, h=1e-5)["y"] <= 1e-6

    def test_idle_expert_gets_no_gradient(self):
        rng = np.random.default_rng(60)
        layer = make_layer(rng, 4, 3, 4, 2)
        x = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        probs = T.Tensor(rng.dirichlet(np.ones(4), size=3), requires_grad=True)
        selected = np.array([[0, 2], [2, 3], [3, 0]])
        y = mixture(x, probs, selected, layer.experts)
        grads = T.backward(T.tsum(T.mul(y, y)))
        assert not np.any(grads[layer.experts][1])
        assert all(np.any(grads[layer.experts][i, j]) for i in (0, 2, 3) for j in range(3))
        assert all(w in grads for w in (x, probs))
        # probs get gradient only at their selected entries
        unselected = np.ones((3, 4), dtype=bool)
        np.put_along_axis(unselected, selected, False, axis=1)
        assert not np.any(grads[probs][unselected])

    def test_given_gated_rows_run_only_the_other_experts(self):
        # 300 tokens of top-2 among 3 experts: each ~200-slot slice spans two
        # 128-row tiles at m = 256
        rng = np.random.default_rng(64)
        layer = make_layer(rng, 3, 4, 256, 2)
        x = T.Tensor(rng.normal(size=(300, 4)))
        probs = T.Tensor(rng.dirichlet(np.ones(3), size=300))
        dispatch = T.expert_dispatch(probs, R.topk_select(probs.data, 2), 3)
        gated = [None] * 3
        full = T.expert_mixture(x, dispatch, layer.experts, gated)
        assert np.array_equal(full.data, T.expert_mixture(x, dispatch, layer.experts).data)
        assert [len(g) for g in gated] == np.diff(dispatch.bounds).tolist()
        assert min(np.diff(dispatch.bounds)) > 129
        # expert 1 alone runs: the others' weights are never read, every
        # output bit stays, and only expert 1's rows are written
        broken = T.Tensor(layer.experts.data.copy(), requires_grad=True)
        broken.data[[0, 2]] = np.nan
        held = [gated[0], None, gated[2]]
        y = T.expert_mixture(x, dispatch, broken, held)
        assert np.array_equal(y.data, full.data)
        assert np.array_equal(held[1], gated[1]) and held[0] is gated[0]
        grads = T.backward(T.tsum(T.mul(y, y)))[broken]
        assert not np.any(grads[[0, 2]]) and np.all(np.isfinite(grads[1]))
        whole = T.backward(T.tsum(T.mul(*[T.expert_mixture(x, dispatch, layer.experts)] * 2)))
        assert np.array_equal(grads[1], whole[layer.experts][1])

    def test_one_graph_node(self):
        rng = np.random.default_rng(61)
        layer = make_layer(rng, 4, 3, 4, 2)
        x = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        y, probs, _ = R.moe_forward_batch(layer, x)
        assert y._parents == (x, probs, layer.experts)

    def test_repeated_expert_in_row(self):
        rng = np.random.default_rng(63)
        layer = make_layer(rng, 3, 3, 4, 2)
        with pytest.raises(ValueError, match="repeated"):
            mixture(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))),
                             np.array([[0, 1], [2, 2]]), layer.experts)

    def test_expert_out_of_range(self):
        rng = np.random.default_rng(62)
        layer = make_layer(rng, 2, 3, 4, 1)
        with pytest.raises(ValueError, match="out of range"):
            mixture(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 2))),
                             np.array([[0], [2]]), layer.experts)

    def test_negative_expert_index(self):
        rng = np.random.default_rng(62)
        layer = make_layer(rng, 2, 3, 4, 1)
        with pytest.raises(ValueError, match="^expert_dispatch: expert index out of range$"):
            mixture(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 2))),
                             np.array([[0], [-1]]), layer.experts)

    def test_dispatch_among_other_expert_count(self):
        rng = np.random.default_rng(62)
        layer = make_layer(rng, 3, 3, 4, 1)
        dispatch = T.expert_dispatch(np.ones((2, 2)), np.array([[0], [1]]), 2)
        with pytest.raises(ValueError, match="^expert_mixture: a dispatch among 2 experts for 3$"):
            T.expert_mixture(T.Tensor(np.ones((2, 3))), dispatch, layer.experts)

    def test_silu_overflow_is_silent(self):
        # exp(-pre) overflows to inf at pre < ~-709, where sig is then an exact
        # 0; under the suite's filterwarnings = error a warning would raise
        rng = np.random.default_rng(67)
        x = T.Tensor(1e3 * rng.normal(size=(6, 3)), requires_grad=True)
        probs = T.Tensor(rng.random((6, 4)) + 0.1, requires_grad=True)
        experts = T.Tensor(rng.normal(size=(4, 3, 3, 8)), requires_grad=True)
        selected = np.argsort(rng.random((6, 4)), axis=1)[:, :2]
        pre = np.einsum("td,tkdm->tkm", x.data, experts.data[selected, 0])
        assert pre.min() < -710
        recorded = mixture(x, probs, selected, experts)
        with T.no_grad():
            silent = mixture(x, probs, selected, experts)
        assert np.array_equal(silent.data, recorded.data)
        assert np.all(np.isfinite(recorded.data))
        grads = T.backward(T.tsum(recorded))
        assert all(np.all(np.isfinite(grads[p])) for p in (x, probs, experts))

    def test_no_grad_tiles_match_recorded_call(self):
        # at m = 128 a tile is 256 rows; expert 0 is in all 900 rows
        # (three tiles and a part), expert 1 in the first 257 (a tile and one
        # row, which joins it), expert 2 in the other 643, and expert 3 is idle
        rng = np.random.default_rng(64)
        t = 900
        x = T.Tensor(rng.normal(size=(t, 64)), requires_grad=True)
        probs = T.Tensor(rng.random((t, 4)) + 0.1, requires_grad=True)
        experts = T.Tensor(0.1 * rng.normal(size=(4, 3, 64, 128)), requires_grad=True)
        selected = np.zeros((t, 2), dtype=np.intp)
        selected[:257, 1] = 1
        selected[257:, 1] = 2
        selected[::3] = selected[::3, ::-1]  # not every slot k = 0 goes first
        assert np.array_equal(np.bincount(selected.reshape(-1), minlength=4), [900, 257, 643, 0])
        recorded = mixture(x, probs, selected, experts)
        assert recorded.requires_grad
        with T.no_grad():
            tiled = mixture(x, probs, selected, experts)
        assert np.array_equal(tiled.data, recorded.data)

    @pytest.mark.parametrize("m", [100, 132])
    def test_no_grad_matches_recorded_call_at_width_not_multiple_of_8(self, m):
        # tiles of 327 and 248 rows: both calls run each ~1,000-row slice in
        # the same tiles, though at such a width they round unlike the whole slice
        rng = np.random.default_rng(66)
        t = 2_000
        x = T.Tensor(rng.normal(size=(t, 64)), requires_grad=True)
        probs = T.Tensor(rng.random((t, 4)) + 0.1, requires_grad=True)
        experts = T.Tensor(0.1 * rng.normal(size=(4, 3, 64, m)), requires_grad=True)
        selected = np.argsort(rng.random((t, 4)), axis=1)[:, :2]
        recorded = mixture(x, probs, selected, experts)
        with T.no_grad():
            tiled = mixture(x, probs, selected, experts)
        assert np.array_equal(tiled.data, recorded.data)

    def test_no_grad_peak_below_two_outputs(self, no_grad_peak):
        # analysis size: 100 sequences of 128 tokens, top-2 of 8 experts;
        # each expert's ~3,200 rows run in tiles, not as whole-slice
        # temporaries, also at m = 100, not a multiple of 8
        rng = np.random.default_rng(65)
        t, d = 12_800, 64
        x = rng.normal(size=(t, d))
        selected = np.argsort(rng.random((t, 8)), axis=1)[:, :2]
        probs = rng.random((t, 8))
        out_bytes = t * d * 8
        for m in (128, 100):
            experts = 0.1 * rng.normal(size=(8, 3, d, m))
            peak = no_grad_peak(lambda: mixture(x, probs, selected, experts))
            assert peak < 2 * out_bytes, f"m = {m}: peak {peak / out_bytes:.2f} outputs"
