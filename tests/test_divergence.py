import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moediv import divergence as dv
from moediv import losses
from moediv import tensor as T

LN2 = np.log(2.0)


def random_dist(rng, n):
    p = rng.random(n) + 1e-3
    return p / p.sum()


def entropy(p):
    """Entropy of one distribution through the shared kernel."""
    return float(dv._entropy(dv._checked("entropy", "p", p)))


def kl(p, q):
    """KL(p || q) of two checked distributions through the shared kernel."""
    return dv._kl(dv._checked("kl", "p", p), dv._checked("kl", "q", q))


def jsd(p, q):
    """JSD of two distributions: the pairwise sum of their two rows."""
    return dv.pairwise_sum([p, q])


dists = st.integers(2, 12).flatmap(
    lambda n: st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)
).map(lambda xs: np.array(xs) / np.sum(xs))


class TestEntropy:
    def test_uniform(self):
        for n in (2, 5, 16):
            assert entropy(np.full(n, 1.0 / n)) == pytest.approx(np.log(n), abs=1e-12)

    def test_one_hot(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_half_half(self):
        assert entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-12)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            entropy([1.1, -0.1])


class TestKL:
    def test_identical(self):
        p = [0.2, 0.3, 0.5]
        assert kl(p, p) == 0.0

    def test_one_hot_vs_uniform(self):
        assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(LN2, abs=1e-12)

    def test_absolute_continuity_marker(self):
        assert kl([0.5, 0.5], [1.0, 0.0]) == np.inf

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        p, q = random_dist(rng, 8), random_dist(rng, 8)
        expected = sum(pi * np.log(pi / qi) for pi, qi in zip(p, q))
        assert kl(p, q) == pytest.approx(expected, rel=1e-12)


# one call per public function on rows of unequal length and on rows with a
# negative entry that still sum to 1, and on the weights [1.5, -0.5]
UNEQUAL, NEGATIVE = [[1.0], [0.5, 0.5]], [[1.1, -0.1], [0.9, 0.1]]
REFUSALS = {
    "generalized_jsd": dv.generalized_jsd,
    "generalized_jsd_entropy_form": dv.generalized_jsd_entropy_form,
    "pairwise_sum": lambda rows, w: dv.pairwise_sum(rows),
    "decompose": lambda rows, w: dv.decompose(rows, ["a", "a"]),
}


class TestInputCheck:
    @pytest.mark.parametrize("fn", REFUSALS)
    @pytest.mark.parametrize("rows, what", [
        pytest.param(UNEQUAL, "unequal length|shape", id="unequal"),
        pytest.param(NEGATIVE, "negative entry", id="negative"),
    ])
    def test_bad_rows_refused_by_name(self, fn, rows, what):
        # a numpy warning raised before the refusal fails this under
        # filterwarnings = error
        with pytest.raises(ValueError, match=f"^{fn}: .*({what})"):
            REFUSALS[fn](rows, [0.5, 0.5])

    @pytest.mark.parametrize("fn", ["generalized_jsd", "generalized_jsd_entropy_form"])
    @pytest.mark.parametrize("weights", [[1.5, -0.5], [1.0], [0.6, 0.5]],
                             ids=["negative", "short", "sum-1.1"])
    def test_bad_weights_refused_by_name(self, fn, weights):
        with pytest.raises(ValueError, match=f"^{fn}: weights"):
            REFUSALS[fn]([[1.0, 0.0], [0.5, 0.5]], weights)

    def test_nan_refused(self):
        with pytest.raises(ValueError, match=r"^decompose: probs sums to \[nan\]"):
            dv.decompose([[np.nan, 1.0]], ["a"])


class TestJSDPair:
    def test_identical_zero(self):
        assert jsd([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_supports(self):
        assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(LN2, abs=1e-12)

    def test_kl_and_entropy_forms_agree(self):
        # frozen from the KL-form oracle: 1/2 KL(p||m) + 1/2 KL(q||m)
        p, q = np.array([0.5, 0.5]), np.array([1.0, 0.0])
        m = 0.5 * (p + q)
        kl_form = 0.5 * kl(p, m) + 0.5 * kl(q, m)
        assert kl_form == pytest.approx(0.21576155433883565, abs=1e-14)
        assert jsd(p, q) == pytest.approx(kl_form, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(dists, dists)
    def test_bounds_and_symmetry(self, p, q):
        if len(p) != len(q):
            q = np.resize(q, len(p))
            q = q / q.sum()
        v = jsd(p, q)
        assert -1e-12 <= v <= LN2 + 1e-12
        assert jsd(q, p) == pytest.approx(v, abs=1e-12)


class TestGeneralizedJSD:
    def test_identical_dists(self):
        d = [np.array([0.4, 0.6])] * 3
        assert dv.generalized_jsd(d, [0.2, 0.5, 0.3]) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_one_hots(self):
        d = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert dv.generalized_jsd(d, [0.5, 0.5]) == pytest.approx(LN2, abs=1e-12)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            dv.generalized_jsd([[0.5, 0.5], [0.5, 0.5]], [0.6, 0.5])

    def test_dual_formula_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            ds = [random_dist(rng, 6) for _ in range(5)]
            w = rng.random(5)
            w /= w.sum()
            a = dv.generalized_jsd(ds, w)
            b = dv.generalized_jsd_entropy_form(ds, w)
            assert abs(a - b) <= 1e-12


def domain_means(rows):
    """Token-weighted domain means of (domain, distribution) rows, one token
    each, in first-seen domain order.

    Also checks that ``decompose``'s D_inter is H(global mean) minus the
    token-weighted entropies of these means.
    """
    labels = [d for d, _ in rows]
    probs = np.array([p for _, p in rows], dtype=np.float64)
    aggs = []
    for dom in dict.fromkeys(labels):
        sel = probs[[lab == dom for lab in labels]]
        aggs.append(SimpleNamespace(domain=dom, mean=sel.mean(axis=0), num_tokens=len(sel)))
    inter = entropy(probs.mean(axis=0)) - sum(
        a.num_tokens / len(rows) * entropy(a.mean) for a in aggs)
    assert dv.decompose(probs, labels).d_inter == pytest.approx(inter, abs=1e-12)
    return aggs


def ed_loss(means):
    """L_ED of an [M, N] array of domain means: one one-token sequence per domain."""
    means = np.asarray(means, dtype=np.float64)
    m = means.shape[0]
    out = losses.expert_divergence_loss_t(T.Tensor(means[:, None, :]), [str(j) for j in range(m)])
    return out.item()


class TestAggregation:
    def test_sequence_mean_single(self):
        p = np.array([0.1, 0.9])
        np.testing.assert_array_equal(domain_means([("s", p)])[0].mean, p)

    def test_sequence_mean_opposite(self):
        out = domain_means([("s", [1.0, 0.0]), ("s", [0.0, 1.0])])[0].mean
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_sequence_mean_scalar_oracle(self):
        rng = np.random.default_rng(2)
        toks = [random_dist(rng, 4) for _ in range(7)]
        expected = [sum(t[i] for t in toks) / 7 for i in range(4)]
        out = domain_means([("s", t) for t in toks])[0].mean
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_sequence_mean_empty(self):
        with pytest.raises(ValueError):
            dv.decompose(np.zeros((0, 4)), [])

    def test_domain_mean_echo(self):
        aggs = domain_means([("a", [0.3, 0.7]), ("b", [0.9, 0.1])])
        assert [a.domain for a in aggs] == ["a", "b"]
        np.testing.assert_allclose(aggs[0].mean, [0.3, 0.7])
        assert aggs[0].num_tokens == 1

    def test_domain_mean_duplicates(self):
        aggs = domain_means([("a", [0.3, 0.7]), ("a", [0.3, 0.7])])
        np.testing.assert_allclose(aggs[0].mean, [0.3, 0.7])
        assert aggs[0].num_tokens == 2

    def test_domain_mean_grouped_oracle(self):
        rng = np.random.default_rng(3)
        rows = []
        expected = {}
        for dom, count in (("x", 1), ("y", 2), ("z", 4)):
            ms = [random_dist(rng, 5) for _ in range(count)]
            for m in ms:
                rows.append((dom, m))
            expected[dom] = np.stack(ms).mean(axis=0)
        for agg in domain_means(rows):
            np.testing.assert_allclose(agg.mean, expected[agg.domain], atol=1e-14)


class TestExpertDivergenceLoss:
    def test_identical_means(self):
        means = [[0.5, 0.5], [0.5, 0.5]]
        assert ed_loss(means) == pytest.approx(-np.log(1e-8), abs=1e-9)
        assert ed_loss(means) == pytest.approx(18.4207, abs=1e-3)

    def test_disjoint_one_hots(self):
        expected = -np.log(LN2 + 1e-8)
        assert ed_loss([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3665, abs=1e-4)

    def test_three_domain_scalar_oracle(self):
        rng = np.random.default_rng(4)
        means = np.stack([random_dist(rng, 6) for _ in "abc"])
        pairs = list(itertools.combinations(range(3), 2))
        expected = np.mean(
            [-np.log(jsd(means[j], means[k]) + 1e-8) for j, k in pairs]
        )
        assert ed_loss(means) == pytest.approx(expected, rel=1e-12)

    def test_single_domain_skipped(self):
        assert ed_loss([[0.5, 0.5]]) == 0.0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_value_is_mean_over_shared_pair_jsds(self, m):
        rng = np.random.default_rng(40 + m)
        means = np.stack([random_dist(rng, 8) for _ in range(m)])
        j, k, pair_jsd = dv._pair_jsd(means)
        pairs = list(itertools.combinations(range(m), 2))
        assert list(zip(j.tolist(), k.tolist())) == pairs
        assert pair_jsd.tolist() == [jsd(means[a], means[b]) for a, b in pairs]
        assert ed_loss(means) == np.mean([-np.log(v + 1e-8) for v in pair_jsd])

    def test_monotone_in_jsd(self):
        # -ln is strictly decreasing: larger pairwise JSD, smaller loss
        values = []
        for gap in (0.0, 0.1, 0.3, 0.5):
            values.append(ed_loss([[0.5 + gap, 0.5 - gap], [0.5 - gap, 0.5 + gap]]))
        assert all(values[i] > values[i + 1] for i in range(3))


class TestPairwiseSum:
    def test_identical(self):
        assert dv.pairwise_sum([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint(self):
        assert dv.pairwise_sum([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(LN2, abs=1e-12)

    def test_four_domain_oracle(self):
        rng = np.random.default_rng(5)
        means = np.stack([random_dist(rng, 8) for _ in "abcd"])
        expected = sum(
            jsd(means[j], means[k])
            for j, k in itertools.combinations(range(4), 2)
        )
        assert len(list(itertools.combinations(range(4), 2))) == 6
        assert dv.pairwise_sum(means) == pytest.approx(expected, rel=1e-12)

    def test_single_domain_rejected(self):
        with pytest.raises(ValueError):
            dv.pairwise_sum([[0.5, 0.5]])

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_equals_sum_of_jsd_pair(self, m):
        rng = np.random.default_rng(50 + m)
        means = np.stack([random_dist(rng, 8) for _ in range(m)])
        expected = sum(jsd(p, q) for p, q in itertools.combinations(means, 2))
        assert dv.pairwise_sum(means) == expected


class TestDecompose:
    def test_identical_tokens(self):
        probs = np.tile([0.25, 0.25, 0.25, 0.25], (6, 1))
        rep = dv.decompose(probs, list("aabbcc"))
        assert rep.d_total == pytest.approx(0.0, abs=1e-12)
        assert rep.d_inter == pytest.approx(0.0, abs=1e-12)
        assert rep.d_intra == pytest.approx(0.0, abs=1e-12)

    def test_two_disjoint_domains(self):
        rep = dv.decompose(np.array([[1.0, 0.0], [0.0, 1.0]]), ["a", "b"])
        assert rep.d_total == pytest.approx(LN2, abs=1e-12)
        assert rep.d_inter == pytest.approx(LN2, abs=1e-12)
        assert rep.d_intra == pytest.approx(0.0, abs=1e-12)

    def test_kl_form_oracle(self):
        # brute-force the KL-form definitions of all three components
        rng = np.random.default_rng(6)
        probs = np.stack([random_dist(rng, 5) for _ in range(12)])
        labels = [d for d in "abc" for _ in range(4)]
        rep = dv.decompose(probs, labels)
        t = 12
        gmean = probs.mean(axis=0)
        d_total = sum(kl(p, gmean) for p in probs) / t
        doms = {d: probs[[i for i, l in enumerate(labels) if l == d]] for d in "abc"}
        d_inter = sum(
            (len(v) / t) * kl(v.mean(axis=0), gmean) for v in doms.values()
        )
        d_intra = sum(
            (len(v) / t) * np.mean([kl(p, v.mean(axis=0)) for p in v])
            for v in doms.values()
        )
        assert rep.d_total == pytest.approx(d_total, abs=1e-10)
        assert rep.d_inter == pytest.approx(d_inter, abs=1e-10)
        assert rep.d_intra == pytest.approx(d_intra, abs=1e-10)

    def test_unlabeled_token_rejected(self):
        with pytest.raises(ValueError):
            dv.decompose(np.array([[0.5, 0.5], [0.5, 0.5]]), ["a"])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_decomposition_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 17))
        t = int(rng.integers(1, 40))
        probs = np.stack([random_dist(rng, n) for _ in range(t)])
        labels = rng.integers(0, 4, size=t).tolist()
        rep = dv.decompose(probs, labels)
        assert abs(rep.d_total - rep.d_inter - rep.d_intra) <= 1e-10


class TestProportionality:
    @staticmethod
    def _setup(seed, m, n):
        rng = np.random.default_rng(seed)
        base = random_dist(rng, n)
        z = rng.normal(size=(m, n))
        z -= z.mean(axis=0, keepdims=True)
        z -= z.mean(axis=1, keepdims=True)
        z /= np.abs(z).max() * 4
        return base, z

    def test_zero_scale(self):
        base, deltas = self._setup(0, 3, 8)
        s, d, ratio = dv.proportionality_check(base, deltas, 0.0)
        assert s == 0.0 and d == 0.0 and ratio is None

    def test_two_point_case(self):
        base, deltas = self._setup(1, 2, 8)
        _, _, ratio = dv.proportionality_check(base, deltas, 1e-3)
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_converges_to_msq_over_4(self):
        base, deltas = self._setup(2, 4, 16)
        devs = []
        for t in (1e-2, 1e-3, 1e-4):
            _, _, ratio = dv.proportionality_check(base, deltas, t)
            devs.append(abs(ratio - 4.0) / 4.0)
        assert devs[1] <= 0.01
        assert devs[0] > devs[1] > devs[2]

    def test_uncentered_deltas_rejected(self):
        base = np.full(4, 0.25)
        with pytest.raises(ValueError):
            dv.proportionality_check(base, np.ones((2, 4)), 1e-3)

    def test_invalid_perturbation_rejected(self):
        base = np.array([0.01, 0.99])
        deltas = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError):
            dv.proportionality_check(base, deltas, 0.5)
