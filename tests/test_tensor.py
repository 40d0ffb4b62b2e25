import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from moediv import tensor as T


def scalar_softmax(row):
    """Independent oracle: shifted softmax computed with plain floats."""
    m = max(row)
    exps = [np.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


class TestSoftmax:
    def test_symmetric(self):
        out = T.softmax_rows(T.Tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-15)

    def test_analytic(self):
        out = T.softmax_rows(T.Tensor([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)

    def test_no_overflow(self):
        out = T.softmax_rows(T.Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, scalar_softmax([1000.0, 0.0]), atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            T.softmax_rows(T.Tensor([np.inf, 0.0]))
        with pytest.raises(ValueError):
            T.softmax_rows(T.Tensor([np.nan, 0.0]))

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, (3, 7), elements=st.floats(-50, 50)))
    def test_rows_sum_to_one(self, logits):
        out = T.softmax_rows(T.Tensor(logits))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out.data >= 0)


class TestCrossEntropy:
    def test_uniform(self):
        logits = T.Tensor(np.zeros((3, 4)))
        loss = T.cross_entropy_mean(logits, [0, 2, 3])
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-14)

    def test_confident_limit(self):
        # one-hot logits at magnitude 50: loss -> 0
        logits = np.zeros((2, 5))
        logits[0, 1] = 50.0
        logits[1, 4] = 50.0
        loss = T.cross_entropy_mean(T.Tensor(logits), [1, 4])
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
        loss = T.cross_entropy_mean(T.Tensor(logits), targets)
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_target(self):
        with pytest.raises(ValueError):
            T.cross_entropy_mean(T.Tensor(np.zeros((2, 4))), [0, 4])
        with pytest.raises(ValueError):
            T.cross_entropy_mean(T.Tensor(np.zeros((2, 4))), [-1, 0])


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
            h = T.silu(T.matmul(w, v))
            p = T.softmax_rows(T.layernorm(h))
            return T.tsum(T.mul(p, T.tlog(p)))

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
        err = T.grad_check(lambda: T.mul(T.tsum(T.mul(p, p)), 0.5), [p], h=1e-5)
        assert err <= 1e-9

    def test_composed_scalar(self):
        rng = np.random.default_rng(4)
        w = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(4,)), requires_grad=True)
        x = rng.normal(size=(5, 4))

        def f():
            h = T.silu(T.add(T.matmul(x, w), b))
            p = T.softmax_rows(h)
            return T.tmean(T.mul(p, p))

        assert T.grad_check(f, [w, b], h=1e-5) <= 1e-4

    def test_indexing_ops(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        idx = np.array([0, 0, 3, 5])

        def f():
            rows = T.take_rows(x, idx)
            back = T.matmul(one_hot(idx, 6).T, rows)
            picked = T.take_along_last(back, np.tile([1, 2], (6, 1)))
            return T.tsum(T.mul(picked, picked))

        assert T.grad_check(f, [x], h=1e-5) <= 1e-6


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
        out = T.take_along_last(a, idx)
        grads = T.backward(T.tsum(T.mul(out, weights)))
        for r in range(4):
            np.testing.assert_array_equal(out.data[r], one_hot(idx[r], 6) @ a.data[r])
            np.testing.assert_allclose(grads[a][r], one_hot(idx[r], 6).T @ weights[r],
                                       rtol=0, atol=1e-15)

    def test_take_along_last_rejects_repeats(self):
        # the backward assigns, so a repeated index within a row would lose
        # a term; it is refused up front
        with pytest.raises(ValueError, match="repeated"):
            T.take_along_last(T.Tensor(np.ones((2, 4))), np.array([[0, 1], [2, 2]]))
