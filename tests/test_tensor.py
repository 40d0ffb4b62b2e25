import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from moediv import tensor as T

import graph_ops as G


def scalar_softmax(row):
    """Independent oracle: shifted softmax computed with plain floats."""
    m = max(row)
    exps = [np.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


class TestSoftmax:
    def test_symmetric(self):
        out = G.softmax_rows(T.Tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-15)

    def test_analytic(self):
        out = G.softmax_rows(T.Tensor([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)

    def test_no_overflow(self):
        out = G.softmax_rows(T.Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, scalar_softmax([1000.0, 0.0]), atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            G.softmax_rows(T.Tensor([np.inf, 0.0]))
        with pytest.raises(ValueError):
            G.softmax_rows(T.Tensor([np.nan, 0.0]))

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, (3, 7), elements=st.floats(-50, 50)))
    def test_rows_sum_to_one(self, logits):
        out = G.softmax_rows(T.Tensor(logits))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out.data >= 0)


def cross_entropy_mean(logits, targets):
    """The generic op ``next_token_nll`` replaced: mean NLL of ``targets``
    under the row-softmax of [T, V] ``logits``, one graph node."""
    logits = T.as_tensor(logits)
    targets = np.asarray(targets, dtype=np.intp)
    t, v = logits.shape
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ValueError("cross_entropy_mean: target id out of range")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    logp = shifted[np.arange(t), targets] - lse

    def vjp(g):
        probs = np.exp(shifted - lse[:, None])
        probs[np.arange(t), targets] -= 1.0
        return (probs * (float(g) / t),)

    return T.node(-logp.mean(), (logits,), vjp)


def composite_nll(hidden, lm_head, tokens):
    """The graph that ``next_token_nll`` replaced: the head's ``matmul``, a
    ``take_rows`` of every row but each sequence's last, ``cross_entropy_mean``."""
    b, l = tokens.shape
    keep = np.concatenate([np.arange(l - 1) + i * l for i in range(b)])
    rows = T.take_rows(G.matmul(hidden, lm_head), keep)
    return cross_entropy_mean(rows, tokens[:, 1:].reshape(-1))


class TestCrossEntropy:
    def test_uniform(self):
        logits = T.Tensor(np.zeros((3, 4)))
        loss = cross_entropy_mean(logits, [0, 2, 3])
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-14)

    def test_confident_limit(self):
        # one-hot logits at magnitude 50: loss -> 0
        logits = np.zeros((2, 5))
        logits[0, 1] = 50.0
        logits[1, 4] = 50.0
        loss = cross_entropy_mean(T.Tensor(logits), [1, 4])
        assert abs(loss.item()) <= 1e-10

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(3, 5))
        targets = [4, 0, 2]
        # independent oracle: direct scalar re-computation
        total = 0.0
        for t in range(3):
            probs = scalar_softmax(list(logits[t]))
            total += -np.log(probs[targets[t]])
        expected = total / 3
        loss = cross_entropy_mean(T.Tensor(logits), targets)
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_target(self):
        with pytest.raises(ValueError):
            cross_entropy_mean(T.Tensor(np.zeros((2, 4))), [0, 4])
        with pytest.raises(ValueError):
            cross_entropy_mean(T.Tensor(np.zeros((2, 4))), [-1, 0])


class TestBackward:
    def test_sum_gradient(self):
        x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        grads = T.backward(T.tsum(x))
        np.testing.assert_array_equal(grads[x], [1.0, 1.0, 1.0])

    def test_product_gradients(self):
        x = T.Tensor(2.0, requires_grad=True)
        y = T.Tensor(5.0, requires_grad=True)
        grads = T.backward(T.mul(x, y))
        assert grads[x] == 5.0 and grads[y] == 2.0

    def test_non_scalar_root_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            T.backward(T.mul(x, 2.0))

    def test_fanout_accumulates(self):
        x = T.Tensor(3.0, requires_grad=True)
        y = T.add(T.mul(x, x), x)  # x^2 + x -> grad 2x + 1
        grads = T.backward(y)
        assert grads[x] == pytest.approx(7.0)

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(11)
        w = T.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        v = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)

        def build():
            h = G.silu(G.matmul(w, v))
            p = G.softmax_rows(G.layernorm(h))
            return T.tsum(T.mul(p, G.tlog(p)))

        g1 = T.backward(build())
        g2 = T.backward(build())
        assert np.array_equal(g1[w], g2[w])
        assert np.array_equal(g1[v], g2[v])

    def test_no_grad_suppresses_graph(self):
        x = T.Tensor(1.0, requires_grad=True)
        with T.no_grad():
            y = T.mul(x, 2.0)
        assert y._vjp is None and not y.requires_grad


class TestGradCheck:
    def test_quadratic(self):
        p = T.Tensor([0.3, -1.2, 2.0], requires_grad=True)
        err = T.grad_check(lambda: {"y": T.mul(T.tsum(T.mul(p, p)), 0.5)}, [p], h=1e-5)
        assert err["y"] <= 1e-9

    def test_composed_scalar(self):
        rng = np.random.default_rng(4)
        w = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(4,)), requires_grad=True)
        x = rng.normal(size=(5, 4))

        def f():
            h = G.silu(T.add(G.matmul(x, w), b))
            p = G.softmax_rows(h)
            return G.tmean(T.mul(p, p))

        assert T.grad_check(lambda: {"y": f()}, [w, b], h=1e-5)["y"] <= 1e-4

    def test_indexing_ops(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        idx = np.array([0, 0, 3, 5])

        def f():
            rows = T.take_rows(x, idx)
            back = G.matmul(one_hot(idx, 6).T, rows)
            picked = G.take_along_last(back, np.tile([1, 2], (6, 1)))
            return T.tsum(T.mul(picked, picked))

        assert T.grad_check(lambda: {"y": f()}, [x], h=1e-5)["y"] <= 1e-6

    def test_perturbed_calls_do_not_record(self):
        p = T.Tensor([0.3, -1.2], requires_grad=True)
        recorded = []

        def f():
            y = T.tsum(T.mul(p, p))
            recorded.append(y.requires_grad)
            return {"y": y}

        T.grad_check(f, [p], h=1e-5)
        # the analytic pass records; the 2 x 2 perturbed calls do not
        assert recorded == [True, False, False, False, False]
        assert T.tsum(T.mul(p, p)).requires_grad

    def test_raising_f_leaves_parameter_unperturbed(self):
        p = T.Tensor([0.3, -1.2], requires_grad=True)
        calls = []

        def f():
            calls.append(None)
            if len(calls) == 2:  # the first perturbed call, at p[0] + h
                raise ValueError("f failed")
            return {"y": T.tsum(T.mul(p, p))}

        with pytest.raises(ValueError, match="f failed"):
            T.grad_check(f, [p], h=1e-5)
        assert p.data.tolist() == [0.3, -1.2]


def one_hot(idx, n):
    """[len(idx), n] matrix with a 1 at (j, idx[j]); a dense gather matrix."""
    out = np.zeros((len(idx), n))
    out[np.arange(len(idx)), idx] = 1.0
    return out


class TestGatherBackward:
    """Gather backwards against the dense one-hot-matmul reference."""

    @pytest.mark.parametrize("idx", [
        [4, 0, 2],                    # unique, unsorted
        [3, 3, 0, 5, 3, 0, 1, 3, 3],  # repeated, like token embeddings
        [],
    ])
    def test_take_rows(self, idx):
        rng = np.random.default_rng(20)
        a = T.Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        idx = np.array(idx, dtype=np.intp)
        weights = rng.normal(size=(idx.size, 5))
        grads = T.backward(T.tsum(T.mul(T.take_rows(a, idx), weights)))
        expected = one_hot(idx, 6).T @ weights
        if idx.size:
            np.testing.assert_allclose(grads[a], expected, rtol=0, atol=1e-14)
        else:
            assert a not in grads or np.array_equal(grads[a], expected)

    def test_take_rows_2d_index(self):
        # a [B, L] index gives [B, L, d] rows; repeats across the batch sum
        rng = np.random.default_rng(21)
        a = T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([[0, 4, 4], [2, 0, 4]])
        weights = rng.normal(size=(2, 3, 3))
        out = T.take_rows(a, idx)
        assert out.shape == (2, 3, 3)
        grads = T.backward(T.tsum(T.mul(out, weights)))
        expected = one_hot(idx.reshape(-1), 5).T @ weights.reshape(-1, 3)
        np.testing.assert_allclose(grads[a], expected, rtol=0, atol=1e-14)

    def test_repeated_rows_sum_in_index_order(self):
        # the repeated-index path adds each row's terms in index order, so it
        # matches a sequential scatter-add bit for bit
        rng = np.random.default_rng(22)
        idx = rng.integers(0, 7, size=300)
        values = rng.normal(size=(300, 4)) * 10.0 ** rng.integers(-8, 8, size=(300, 1))
        a = T.Tensor(np.zeros((7, 4)), requires_grad=True)
        grads = T.backward(T.tsum(T.mul(T.take_rows(a, idx), values)))
        sequential = np.zeros((7, 4))
        for j, row in enumerate(idx):
            sequential[row] += values[j]
        assert np.array_equal(grads[a], sequential)

    def test_take_along_last(self):
        rng = np.random.default_rng(24)
        a = T.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        idx = np.array([[5, 0], [2, 3], [0, 1], [4, 2]])
        weights = rng.normal(size=(4, 2))
        out = G.take_along_last(a, idx)
        grads = T.backward(T.tsum(T.mul(out, weights)))
        for r in range(4):
            np.testing.assert_array_equal(out.data[r], one_hot(idx[r], 6) @ a.data[r])
            np.testing.assert_allclose(grads[a][r], one_hot(idx[r], 6).T @ weights[r],
                                       rtol=0, atol=1e-15)

    def test_take_along_last_rejects_repeats(self):
        # the backward assigns, so a repeated index within a row would lose
        # a term; it is refused up front
        with pytest.raises(ValueError, match="repeated"):
            G.take_along_last(T.Tensor(np.ones((2, 4))), np.array([[0, 1], [2, 2]]))


class TestRequireDistinctInRows:
    @pytest.mark.parametrize("idx", [[[0, 1], [2, 2]], [[0, 1, 2], [3, 1, 3]], [[4, 4, 0]]])
    def test_repeat_refused(self, idx):
        with pytest.raises(ValueError, match="op: repeated index within a row"):
            T._require_distinct_in_rows(np.array(idx), "op")

    @pytest.mark.parametrize("idx", [[[0], [0], [3]], [[0, 1], [1, 0]], [[2, 0, 1]]])
    def test_distinct_accepted(self, idx):
        T._require_distinct_in_rows(np.array(idx), "op")


def listed_tiles(lo, hi, size):
    """``_tiles`` as lists of cuts, for every span."""
    cuts = list(range(lo + size, hi - 1, size))
    return list(zip([lo] + cuts, cuts + [hi]))


def test_tiles_match_list_form():
    # empty spans, one-row remainders, exact multiples and one-tile spans
    for lo in (0, 3):
        for size in (1, 2, 3, 5, 8):
            for hi in range(lo, lo + 4 * size + 3):
                assert list(T._tiles(lo, hi, size)) == listed_tiles(lo, hi, size), (lo, hi, size)


def test_causal_mask_is_cached_and_read_only():
    for l in (1, 2, 7, 32):
        mask = T._causal_mask(l)
        assert mask is T._causal_mask(l)
        assert np.array_equal(mask, np.triu(np.full((l, l), -1e30), k=1))
        with pytest.raises(ValueError, match="read-only"):
            mask[0, -1] = 0.0


def composite_attention(xn, wq, wk, wv, wo, batch, num_heads):
    """The generic-op graph that ``causal_attention`` replaced: projections,
    head split, scaled and masked scores, ``softmax_rows``, head merge and
    output projection, each a graph node."""
    l, dh = xn.shape[0] // batch, xn.shape[1] // num_heads

    def split(t):
        return G.transpose(T.reshape(t, (batch, l, num_heads, dh)), (0, 2, 1, 3))

    q, k, v = (split(G.matmul(xn, w)) for w in (wq, wk, wv))
    mask = np.triu(np.full((l, l), -1e30), k=1)
    scores = T.add(T.mul(G.matmul(q, G.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh)), mask)
    out = G.matmul(G.softmax_rows(scores), v)
    out = T.reshape(G.transpose(out, (0, 2, 1, 3)), (batch * l, num_heads * dh))
    return G.matmul(out, wo)


def attention_inputs(seed, batch, length, d=8):
    """(xn, wq, wk, wv, wo) as requires_grad leaves, and a fixed cotangent."""
    rng = np.random.default_rng(seed)
    xn = T.Tensor(rng.normal(size=(batch * length, d)), requires_grad=True)
    weights = [T.Tensor(0.5 * rng.normal(size=(d, d)), requires_grad=True) for _ in range(4)]
    return [xn, *weights], rng.normal(size=(batch * length, d))


ATTENTION_SHAPES = [(2, 5, 2), (1, 1, 2)]  # (B, L, H)


class TestCausalAttention:
    @pytest.mark.parametrize("batch, length, heads", ATTENTION_SHAPES)
    def test_matches_composite_oracle(self, batch, length, heads):
        inputs, cot = attention_inputs(30, batch, length)
        outs, grads = [], []
        for op in (composite_attention, T.causal_attention):
            y = op(*inputs, batch, heads)
            outs.append(y.data)
            grads.append(T.backward(T.tsum(T.mul(y, cot))))
        assert np.array_equal(outs[0], outs[1])
        for p in inputs:
            assert np.array_equal(grads[0][p], grads[1][p])

    @pytest.mark.parametrize("batch, length, heads", ATTENTION_SHAPES)
    def test_grad_check(self, batch, length, heads):
        inputs, cot = attention_inputs(31, batch, length)
        f = lambda: {"y": T.tsum(T.mul(T.causal_attention(*inputs, batch, heads), cot))}
        assert T.grad_check(f, inputs, h=1e-5)["y"] <= 1e-6

    def test_one_graph_node(self):
        inputs, _ = attention_inputs(32, 2, 5)
        y = T.causal_attention(*inputs, 2, 2)
        assert y._parents == tuple(inputs)
        assert len(T._toposort(y)) == 6
        with T.no_grad():
            y = T.causal_attention(*inputs, 2, 2)
        assert y._vjp is None and not y.requires_grad

    def test_non_finite_score_rejected(self):
        inputs, _ = attention_inputs(34, 2, 5)
        inputs[1].data[0, 0] = np.inf
        with pytest.raises(ValueError, match="causal_attention: non-finite"):
            T.causal_attention(*inputs, 2, 2)

    # (B, L, d, H): partial last sequence groups, L not a multiple of the
    # 32-row query block (L = 33 is one block: a one-row remainder joins the
    # block before it), the analysis length L = 128, sequences of one and
    # two tokens whose groups of 256 and 128 project 256 rows each before a
    # partial last group, one sequence, and heads of d / H >= 32 at L >= 64,
    # whose 32-row query tiles would round their scores apart
    @pytest.mark.parametrize("batch, length, d, heads", [
        (7, 40, 64, 4), (3, 33, 64, 4), (9, 65, 32, 2), (3, 128, 64, 4),
        (300, 1, 64, 4), (200, 2, 64, 4), (1, 128, 64, 4),
        (1, 64, 64, 2), (3, 65, 64, 2), (2, 128, 128, 4), (3, 100, 96, 2),
    ])
    def test_no_grad_tiles_match_recorded_call(self, batch, length, d, heads):
        inputs, _ = attention_inputs(35, batch, length, d)
        recorded = T.causal_attention(*inputs, batch, heads)
        assert recorded.requires_grad
        with T.no_grad():
            tiled = T.causal_attention(*inputs, batch, heads)
        assert np.array_equal(tiled.data, recorded.data)

    @pytest.mark.parametrize("where", ["weight", "last token"])
    def test_non_finite_score_rejected_under_no_grad(self, where):
        inputs, _ = attention_inputs(36, 7, 40, 64)
        if where == "weight":
            inputs[1].data[0, 0] = np.inf
        else:  # only the last query block of the last sequence group sees it
            inputs[0].data[-1] = np.inf
        # the inputs are refused before any product, so numpy has no NaN
        # to warn about, whichever thread would have computed it
        with warnings.catch_warnings(record=True) as seen, T.no_grad(), \
                pytest.raises(ValueError, match="causal_attention: non-finite"):
            warnings.simplefilter("always")
            T.causal_attention(*inputs, 7, 4)
        assert not seen

    def test_no_grad_peak_below_one_score_array(self, no_grad_peak):
        # tiles of a few sequences and 32 query rows: no [B, H, L, L] array
        batch, length, heads = 16, 128, 4
        inputs, _ = attention_inputs(37, batch, length, 64)
        peak = no_grad_peak(lambda: T.causal_attention(*inputs, batch, heads))
        score_bytes = batch * heads * length * length * 8
        assert peak < score_bytes, f"peak {peak / score_bytes:.2f} score arrays"

    def test_no_grad_peak_below_one_and_a_half_outputs(self, no_grad_peak):
        # q, k, v and the merged heads exist one sequence group at a time
        batch, length, heads = 100, 128, 4
        inputs, _ = attention_inputs(38, batch, length, 64)
        peak = no_grad_peak(lambda: T.causal_attention(*inputs, batch, heads))
        out_bytes = batch * length * 64 * 8
        assert peak < 1.5 * out_bytes, f"peak {peak / out_bytes:.2f} output arrays"


@pytest.mark.parametrize("case", ["attention weight", "attention last token", "route"])
def test_non_finite_input_raises_only_value_error_at_one_blas_thread(case):
    # at one BLAS thread the calling thread computes every row, so a NaN
    # made inside a product would warn; the thread count is fixed before
    # numpy loads, hence the fresh interpreter
    script = "\n".join([
        "import sys, warnings",
        "import numpy as np",
        "from moediv import routing, tensor as T",
        "warnings.simplefilter('error')",
        "rng = np.random.default_rng(36)",
        "xn = rng.normal(size=(7 * 40, 64))",
        "ws = [0.5 * rng.normal(size=(64, 64)) for _ in range(4)]",
        "case = sys.argv[1]",
        "if case == 'attention weight': ws[0][0, 0] = np.inf",
        "else: xn[-1] = np.inf",
        "try:",
        "    with T.no_grad():",
        "        if case == 'route': routing.route(ws[0][:8], xn)",
        "        else: T.causal_attention(xn, *ws, 7, 4)",
        "except ValueError as exc:",
        "    print(exc)",
    ])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(pathlib.Path(T.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, case], env=env,
                          capture_output=True, text=True, timeout=60)
    op = "route" if case == "route" else "causal_attention"
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert done.stdout.startswith(f"{op}: non-finite ")


def nll_inputs(seed, batch, length, d, v):
    """(hidden, lm_head) as requires_grad leaves and [B, L] tokens in [0, V)."""
    rng = np.random.default_rng(seed)
    hidden = T.Tensor(rng.normal(size=(batch * length, d)), requires_grad=True)
    lm_head = T.Tensor(0.5 * rng.normal(size=(d, v)), requires_grad=True)
    return hidden, lm_head, rng.integers(0, v, size=(batch, length))


class TestNextTokenNLL:
    @pytest.mark.parametrize("batch, length, v", [(3, 5, 7), (2, 2, 16), (1, 9, 256)])
    def test_matches_composite_oracle(self, batch, length, v):
        hidden, lm_head, tokens = nll_inputs(70, batch, length, 8, v)
        outs, grads = [], []
        for op in (composite_nll, T.next_token_nll):
            y = op(hidden, lm_head, tokens)
            outs.append(y.data)
            grads.append(T.backward(y))
        assert np.array_equal(outs[0], outs[1])
        for p in (hidden, lm_head):
            assert np.array_equal(grads[0][p], grads[1][p])

    def test_one_graph_node(self):
        hidden, lm_head, tokens = nll_inputs(71, 2, 5, 8, 7)
        y = T.next_token_nll(hidden, lm_head, tokens)
        assert y._parents == (hidden, lm_head)
        assert len(T._toposort(y)) == 3
        with T.no_grad():
            y = T.next_token_nll(hidden, lm_head, tokens)
        assert y._vjp is None and not y.requires_grad

    # (B, L, V): at V = 256 a no-grad tile is 128 rows; L = 33 cuts sequences
    # across tiles, 3 x 43 = 129 rows leave a one-row remainder (always a
    # sequence's last row, which has no target) that joins the tile before
    # it, and V = 100 (not a multiple of 8) runs one tile
    @pytest.mark.parametrize("batch, length, v", [(8, 33, 256), (3, 43, 256), (100, 128, 100)])
    def test_no_grad_tiles_match_recorded_call(self, batch, length, v):
        hidden, lm_head, tokens = nll_inputs(72, batch, length, 64, v)
        recorded = T.next_token_nll(hidden, lm_head, tokens)
        assert recorded.requires_grad
        with T.no_grad():
            tiled = T.next_token_nll(hidden, lm_head, tokens)
        assert np.array_equal(tiled.data, recorded.data)

    def test_grad_check(self):
        hidden, lm_head, tokens = nll_inputs(73, 2, 5, 4, 7)
        f = lambda: {"y": T.next_token_nll(hidden, lm_head, tokens)}
        assert T.grad_check(f, [hidden, lm_head], h=1e-5)["y"] <= 1e-6

    def test_out_of_range_target(self):
        hidden, lm_head, _ = nll_inputs(74, 2, 3, 4, 4)
        for tokens in ([[0, 1, 4], [0, 1, 2]], [[0, 1, 2], [0, -1, 2]]):
            with pytest.raises(ValueError, match="target id out of range"):
                T.next_token_nll(hidden, lm_head, np.array(tokens))

    def test_no_grad_peak_below_half_a_logits_array(self, no_grad_peak):
        # analysis size: 100 sequences of 128 tokens through a 64 x 256 head;
        # row tiles of 128, never the [T, V] logits
        batch, length, v = 100, 128, 256
        hidden, lm_head, tokens = nll_inputs(75, batch, length, 64, v)
        peak = no_grad_peak(lambda: T.next_token_nll(hidden, lm_head, tokens))
        logits_bytes = batch * length * v * 8
        assert peak < logits_bytes / 2, f"peak {peak / logits_bytes:.2f} logits arrays"


def norm_inputs(seed, t, d):
    """(x, gain, bias) as requires_grad leaves and a fixed [T, d] cotangent."""
    rng = np.random.default_rng(seed)
    x = T.Tensor(3.0 * rng.normal(size=(t, d)) + 1.0, requires_grad=True)
    gain = T.Tensor(1.0 + 0.1 * rng.normal(size=d), requires_grad=True)
    bias = T.Tensor(0.1 * rng.normal(size=d), requires_grad=True)
    return [x, gain, bias], rng.normal(size=(t, d))


# (T, d): at d = 64 a no-grad tile is 512 rows, so 12800 rows (the analysis
# shape) run 25 tiles, 1025 leave a one-row remainder that joins the tile
# before it and 513 run as one tile; 4000 rows at d = 20 run three 1638-row
# tiles and a partial one; widths 20 and 36 are not multiples of 8
NORM_SHAPES = [(12800, 64), (1025, 64), (513, 64), (4000, 20), (1152, 20), (195, 36),
               (24, 8), (1, 64)]


class TestAffineNorm:
    @pytest.mark.parametrize("t, d", NORM_SHAPES)
    def test_matches_composite_oracle(self, t, d):
        inputs, cot = norm_inputs(80, t, d)
        outs, grads = [], []
        for op in (G.composite_affine_norm, T.affine_norm):
            y = op(*inputs)
            outs.append(y.data)
            grads.append(T.backward(T.tsum(T.mul(y, cot))))
        with T.no_grad():
            tiled = T.affine_norm(*inputs)
        assert np.array_equal(outs[1], outs[0])
        assert np.array_equal(tiled.data, outs[0])
        for p in inputs:
            assert np.array_equal(grads[1][p], grads[0][p])

    def test_one_graph_node(self):
        inputs, _ = norm_inputs(81, 4, 8)
        y = T.affine_norm(*inputs)
        assert y._parents == tuple(inputs)
        assert len(T._toposort(y)) == 4
        with T.no_grad():
            y = T.affine_norm(*inputs)
        assert y._vjp is None and not y.requires_grad

    def test_grad_check(self):
        inputs, cot = norm_inputs(82, 3, 5)
        f = lambda: {"y": T.tsum(T.mul(T.affine_norm(*inputs), cot))}
        assert T.grad_check(f, inputs, h=1e-5)["y"] <= 1e-6

    @pytest.mark.parametrize("name, shape", [("gain", (9,)), ("gain", (1, 8)), ("bias", (7,)),
                                             ("bias", ())])
    def test_parameter_shape_refused(self, name, shape):
        x, gain, bias = norm_inputs(83, 4, 8)[0]
        args = {"gain": gain, "bias": bias, name: np.ones(shape)}
        with pytest.raises(ValueError, match=rf"^affine_norm: {name} has shape"):
            T.affine_norm(x, **args)

    def test_no_grad_peak_below_one_and_a_quarter_outputs(self, no_grad_peak):
        # analysis size: each 512-row tile is normalised in place in its
        # slice of the output, with no full-size temporary beside it
        inputs, _ = norm_inputs(84, 12800, 64)
        peak = no_grad_peak(lambda: T.affine_norm(*inputs))
        out_bytes = 12800 * 64 * 8
        assert peak < 1.25 * out_bytes, f"peak {peak / out_bytes:.2f} outputs"
