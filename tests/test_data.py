import json

import numpy as np
import pytest

from moediv import cli
from moediv import data as D


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")


class TestLoadCorpus:
    def test_basic(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [
            {"text": "hello", "domain": "news"},
            {"text": "world", "domain": "code"},
            {"text": "again", "domain": "news"},
        ])
        docs = D.load_corpus(p)
        assert [d.domain for d in docs] == ["news", "code", "news"]  # file order
        assert bytes(docs[0].tokens) == b"hello"

    def test_utf8_bytes(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"text": "café", "domain": "a"}])
        docs = D.load_corpus(p)
        assert bytes(docs[0].tokens) == "café".encode("utf-8")
        assert len(docs[0].tokens) == 5

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "x", "domain": "a"}\n\n{"text": "y", "domain": "b"}\n')
        docs = D.load_corpus(p)
        assert [d.domain for d in docs] == ["a", "b"]

    def test_malformed_json_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "x", "domain": "a"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            D.load_corpus(p)

    def test_not_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_bytes(b'{"text": "x", "domain": "a"}\n{"text": "\x98", "domain": "a"}\n')
        with pytest.raises(ValueError, match=r"c\.jsonl:2: malformed record: 'utf-8' codec"):
            D.load_corpus(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"text": "x"}])
        with pytest.raises(ValueError, match="domain"):
            D.load_corpus(p)

    @pytest.mark.parametrize("record, message", [
        ({"text": 123, "domain": "a"}, "'text' must be a string, got 123"),
        ({"text": "x", "domain": None}, "'domain' must be a string, got None"),
    ])
    def test_non_string_field_names_file_line_and_field(self, tmp_path, record, message):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"text": "x", "domain": "a"}, record])
        with pytest.raises(ValueError, match=rf"c\.jsonl:2: {message}$"):
            D.load_corpus(p)


class TestSynthCorpus:
    def test_deterministic(self):
        specs = D.three_domain_demo_specs(num_docs=2, doc_len=64)
        a, _ = D.synth_corpus(specs, seed=3)
        b, _ = D.synth_corpus(specs, seed=3)
        assert all(np.array_equal(x.tokens, y.tokens) for x, y in zip(a, b))

    def test_seed_changes_output(self):
        specs = D.three_domain_demo_specs(num_docs=2, doc_len=64)
        a, _ = D.synth_corpus(specs, seed=3)
        b, _ = D.synth_corpus(specs, seed=4)
        assert any(not np.array_equal(x.tokens, y.tokens) for x, y in zip(a, b))

    def test_counts_and_alphabet(self):
        specs = D.three_domain_demo_specs(num_docs=2, doc_len=50)
        docs, vocab = D.synth_corpus(specs, seed=0)
        assert vocab == ["news", "code", "math"]
        assert len(docs) == 6
        allowed = set(b"abcdefghijkl")
        for d in docs:
            assert len(d.tokens) == 50
            assert set(d.tokens.tolist()) <= allowed

    def test_needs_two_domains(self):
        with pytest.raises(ValueError):
            D.synth_corpus([D.SynthDomainSpec("a", "xy", 1, 10)], seed=0)

    def test_custom_weights(self):
        spec = [
            D.SynthDomainSpec("a", "xy", 4, 500, weights=[0.9, 0.1]),
            D.SynthDomainSpec("b", "xy", 4, 500, weights=[0.1, 0.9]),
        ]
        docs, _ = D.synth_corpus(spec, seed=1)
        xs = np.concatenate([d.tokens for d in docs if d.domain == "a"])
        frac_x = (xs == ord("x")).mean()
        assert 0.85 < frac_x < 0.95

    def test_demo_domains_differ_in_bigrams(self):
        # every domain uses the full shared alphabet, but the empirical
        # bigram tables are clearly distinct between domains
        specs = D.three_domain_demo_specs(num_docs=4, doc_len=4096)
        docs, _ = D.synth_corpus(specs, seed=2)
        lo = ord("a")
        tables = {}
        for dom in ("news", "code", "math"):
            toks = np.concatenate([d.tokens for d in docs if d.domain == dom])
            counts = np.bincount(toks, minlength=256)[lo:lo + 12]
            assert np.all(counts > 0.01 * counts.sum())
            big = np.zeros((12, 12))
            np.add.at(big, (toks[:-1] - lo, toks[1:] - lo), 1.0)
            tables[dom] = big / big.sum()
        for a, b in (("news", "code"), ("news", "math"), ("code", "math")):
            assert np.abs(tables[a] - tables[b]).sum() > 0.3


# The per-token sampler that ``synth_corpus`` replaced: one ``rng.choice``
# call per token, the oracle of the inverse-CDF table walk.

def oracle_synth_corpus(specs, seed):
    rng = np.random.default_rng(seed)
    docs, vocab = [], []
    for spec in specs:
        vocab.append(spec.name)
        chars = np.frombuffer(spec.alphabet.encode("utf-8"), dtype=np.uint8)
        k = len(chars)
        if spec.weights is None:
            uni = np.full(k, 1.0 / k)
        else:
            uni = np.asarray(spec.weights, dtype=np.float64)
            uni = uni / uni.sum()
        if spec.bigram_gain > 0:
            noise = rng.normal(0.0, spec.bigram_gain, size=(k, k))
            trans = uni[None, :] * np.exp(noise)
            trans /= trans.sum(axis=1, keepdims=True)
        else:
            trans = None
        for _ in range(spec.num_docs):
            idx = np.empty(spec.doc_len, dtype=np.intp)
            idx[0] = rng.choice(k, p=uni)
            if trans is None:
                idx[1:] = rng.choice(k, size=spec.doc_len - 1, p=uni)
            else:
                for t in range(1, spec.doc_len):
                    idx[t] = rng.choice(k, p=trans[idx[t - 1]])
            docs.append(D.Document(tokens=chars[idx], domain=spec.name))
    return docs, vocab


SYNTH_CASES = {
    **{f"demo seed {seed}": (D.three_domain_demo_specs(), seed) for seed in (0, 3, 7)},
    # uneven weights with a zero, a multi-byte alphabet, and bigram noise
    "weighted": ([D.SynthDomainSpec("a", "xyz", 3, 300, weights=[0.7, 0.2, 0.1],
                                    bigram_gain=0.8),
                  D.SynthDomainSpec("b", "xé", 2, 100, weights=[1, 0, 2], bigram_gain=0.5)],
                 5),
    "bigram_gain 0": ([D.SynthDomainSpec("a", "abcd", 3, 200),
                       D.SynthDomainSpec("b", "xy", 2, 50, weights=[3, 1])], 11),
    "doc_len 1": ([D.SynthDomainSpec("a", "abcd", 3, 1, bigram_gain=1.0),
                   D.SynthDomainSpec("b", "xy", 2, 1)], 2),
}


@pytest.mark.parametrize("case", list(SYNTH_CASES))
def test_synth_corpus_matches_choice_oracle(case):
    specs, seed = SYNTH_CASES[case]
    docs, vocab = D.synth_corpus(specs, seed)
    docs_e, vocab_e = oracle_synth_corpus(specs, seed)
    assert vocab == vocab_e
    assert [d.domain for d in docs] == [d.domain for d in docs_e]
    for got, expected in zip(docs, docs_e, strict=True):
        assert got.tokens.dtype == expected.tokens.dtype == np.uint8
        assert got.tokens.tobytes() == expected.tokens.tobytes()


def test_synth_corpus_peak_memory(no_grad_peak):
    # temporaries stay within one document's [doc_len, k + 1] table
    specs = D.three_domain_demo_specs()
    assert no_grad_peak(lambda: D.synth_corpus(specs, 3)) < 1.5e6


@pytest.mark.parametrize("change, field", [
    ({"weights": [1, 2]}, "weights"),
    ({"weights": [1, 2, 3, 4]}, "weights"),
    ({"weights": [0, 0, 0]}, "weights"),
    ({"weights": [1, -1, 1]}, "weights"),
    ({"weights": [1, float("nan"), 1]}, "weights"),
    ({"weights": [1, float("inf"), 1]}, "weights"),
    ({"weights": [1e308, 1e308, 1]}, "weights"),
    ({"alphabet": ""}, "alphabet"),
    ({"num_docs": 0}, "num_docs"),
    ({"doc_len": 0}, "doc_len"),
    ({"bigram_gain": -0.5}, "bigram_gain"),
    ({"bigram_gain": float("nan")}, "bigram_gain"),
    ({"bigram_gain": float("inf")}, "bigram_gain"),
])
def test_synth_spec_refusals(change, field):
    kw = {"name": "news", "alphabet": "xyz", "num_docs": 2, "doc_len": 8, **change}
    with pytest.raises(ValueError, match=rf"^SynthDomainSpec 'news': {field} must"):
        D.SynthDomainSpec(**kw)


class TestPacking:
    @staticmethod
    def docs():
        return [
            D.Document(tokens=np.arange(10, dtype=np.uint8), domain="a"),
            D.Document(tokens=np.arange(7, dtype=np.uint8) + 50, domain="b"),
            D.Document(tokens=np.arange(5, dtype=np.uint8) + 20, domain="a"),
        ]

    def test_no_domain_crossing(self):
        packed = D.pack_sequences(self.docs(), seq_len=4)
        for lab, rows in packed.items():
            src = set(range(10)) | set(range(20, 25)) if lab == "a" else set(range(50, 57))
            for s in rows:
                assert set(s.tolist()) <= src

    def test_per_domain_token_conservation(self):
        packed = D.pack_sequences(self.docs(), seq_len=4)
        kept = {lab: rows.size for lab, rows in packed.items()}
        # domain a has 15 tokens -> 3 chunks of 4, remainder 3 dropped
        # domain b has 7 tokens -> 1 chunk, remainder 3 dropped
        assert kept == {"a": 12, "b": 4}

    def test_stream_order_preserved(self):
        packed = D.pack_sequences(self.docs(), seq_len=5)
        np.testing.assert_array_equal(packed["a"].ravel()[:10], np.arange(10))

    def test_per_domain_arrays(self):
        # first-seen domain order; a domain shorter than one sequence keeps
        # its key with no rows
        docs = self.docs() + [D.Document(tokens=np.arange(3, dtype=np.uint8), domain="c")]
        packed = D.pack_sequences(docs, seq_len=4)
        assert list(packed) == ["a", "b", "c"]
        assert [rows.shape for rows in packed.values()] == [(3, 4), (1, 4), (0, 4)]
        assert all(rows.dtype == np.intp for rows in packed.values())

    def test_batches_deterministic(self):
        docs = self.docs()
        b1 = D.pack_batches(docs, seq_len=4, batch_size=2, seed=9)
        b2 = D.pack_batches(docs, seq_len=4, batch_size=2, seed=9)
        assert len(b1) == len(b2)
        for x, y in zip(b1, b2):
            assert np.array_equal(x.sequences, y.sequences)
            assert np.array_equal(x.domain_ids, y.domain_ids)

    def test_partial_batch_dropped(self):
        # 4 sequences at batch_size 3 -> exactly one batch
        batches = D.pack_batches(self.docs(), seq_len=4, batch_size=3, seed=0)
        assert len(batches) == 1
        assert batches[0].sequences.shape == (3, 4)

    def test_batch_too_large(self):
        with pytest.raises(ValueError):
            D.pack_batches(self.docs(), seq_len=4, batch_size=50, seed=0)

    def test_corpus_too_short(self):
        docs = [D.Document(tokens=np.arange(3, dtype=np.uint8), domain="a")]
        with pytest.raises(ValueError):
            D.pack_batches(docs, seq_len=8, batch_size=1, seed=0)


class TestValidationSplit:
    def test_split_shapes(self):
        specs = D.three_domain_demo_specs(num_docs=2, doc_len=512)
        docs, _ = D.synth_corpus(specs, seed=0)
        train, valsets = D.split_validation(docs, seq_len=32, val_sequences=4)
        assert set(valsets) == {"news", "code", "math"}
        for v in valsets.values():
            assert v.shape == (4, 32)
        assert {d.domain for d in train} == {"news", "code", "math"}

    def test_no_overlap(self):
        specs = D.three_domain_demo_specs(num_docs=2, doc_len=512)
        docs, _ = D.synth_corpus(specs, seed=0)
        total = {d: sum(len(x.tokens) for x in docs if x.domain == d)
                 for d in ("news", "code", "math")}
        train, valsets = D.split_validation(docs, seq_len=32, val_sequences=4)
        for dom in total:
            kept = sum(len(d.tokens) for d in train if d.domain == dom)
            assert kept + valsets[dom].size <= total[dom]

    def test_small_domain_keeps_training_data(self):
        docs = [
            D.Document(tokens=np.arange(64, dtype=np.uint8), domain="a"),
            D.Document(tokens=np.arange(64, dtype=np.uint8), domain="b"),
        ]
        train, valsets = D.split_validation(docs, seq_len=8, val_sequences=100)
        # cap at a fifth of the sequences so training never goes empty
        assert all(v.shape[0] >= 1 for v in valsets.values())
        assert len(train) == 2


# The list-based packing that ``pack_sequences`` replaced, with the three
# consumers that each regrouped its flat lists by domain: the oracles of the
# per-domain arrays.

def oracle_pack_sequences(docs, seq_len):
    streams, order = {}, []
    for doc in docs:
        if doc.domain not in streams:
            streams[doc.domain] = []
            order.append(doc.domain)
        streams[doc.domain].append(doc.tokens)
    sequences, labels = [], []
    for dom in order:
        data = np.concatenate(streams[dom])
        for i in range(len(data) // seq_len):
            sequences.append(data[i * seq_len : (i + 1) * seq_len])
            labels.append(dom)
    return sequences, labels


def oracle_pack_batches(docs, seq_len, batch_size, seed):
    sequences, labels = oracle_pack_sequences(docs, seq_len)
    order = list(dict.fromkeys(doc.domain for doc in docs))
    perm = np.random.default_rng(seed).permutation(len(sequences))
    return [
        D.DomainBatch(sequences=np.stack([sequences[i] for i in take]).astype(np.intp),
                      domain_ids=np.array([order.index(labels[i]) for i in take]))
        for take in (perm[s : s + batch_size]
                     for s in range(0, len(perm) - batch_size + 1, batch_size))
    ]


def oracle_split_validation(docs, seq_len, val_sequences):
    sequences, labels = oracle_pack_sequences(docs, seq_len)
    per_domain = {}
    for s, d in zip(sequences, labels):
        per_domain.setdefault(d, []).append(s)
    valsets, train_docs = {}, []
    for dom, seqs in per_domain.items():
        n_val = min(val_sequences, max(1, len(seqs) // 5))
        valsets[dom] = np.stack(seqs[-n_val:]).astype(np.intp)
        if seqs[:-n_val]:
            train_docs.append(D.Document(tokens=np.concatenate(seqs[:-n_val]), domain=dom))
    return train_docs, valsets


def oracle_load_valsets(path, seq_len, limit):
    docs = D.load_corpus(path)
    sequences, labels = oracle_pack_sequences(docs, seq_len)
    valsets = {}
    for s, d in zip(sequences, labels):
        valsets.setdefault(d, []).append(s)
    short = sorted({doc.domain for doc in docs} - valsets.keys())
    if short:
        raise cli.UsageError(f"--data: shorter than one sequence of {seq_len} tokens: "
                             f"domain {', '.join(short)}")
    return {d: np.stack(seqs[:limit]).astype(np.intp) for d, seqs in valsets.items()}


def _stream(domain, start, n):
    return D.Document(tokens=(np.arange(start, start + n) % 128).astype(np.uint8),
                      domain=domain)


@pytest.fixture(scope="module")
def demo_docs():
    return D.synth_corpus(D.three_domain_demo_specs(), seed=3)[0]


# interleaved: domains alternate in the stream and no document is a whole
# number of sequences; short: domain "z" holds fewer tokens than one sequence
PACKING_CASES = {
    "demo-64": (None, 64, 8, 100, 100),
    "demo-128": (None, 128, 8, 100, 100),
    "interleaved": ([_stream("a", 0, 13), _stream("b", 100, 9), _stream("a", 13, 30),
                     _stream("c", 200, 17), _stream("b", 109, 22), _stream("a", 43, 5)],
                    6, 3, 2, 4),
    "short domain": ([_stream("a", 0, 40), _stream("z", 150, 5), _stream("b", 100, 25),
                      _stream("a", 40, 11)], 6, 2, 1, 3),
}


def assert_same_arrays(got, expected):
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("case", list(PACKING_CASES))
class TestPackingMatchesListOracle:
    """Values, dtypes, labels and order equal to the list-based packing."""

    @pytest.fixture
    def setup(self, case, demo_docs):
        docs, seq_len, batch_size, val_sequences, limit = PACKING_CASES[case]
        return (demo_docs if docs is None else docs), seq_len, batch_size, val_sequences, limit

    def test_pack_batches(self, setup):
        docs, seq_len, batch_size, _, _ = setup
        got = D.pack_batches(docs, seq_len, batch_size, seed=5)
        expected = oracle_pack_batches(docs, seq_len, batch_size, seed=5)
        assert len(got) == len(expected) > 0
        for g, e in zip(got, expected):
            assert_same_arrays(g.sequences, e.sequences)
            assert np.array_equal(g.domain_ids, e.domain_ids)

    def test_batch_ids_index_pack_sequences(self, setup):
        # a batch row with id i is a row of the i-th domain of pack_sequences,
        # which counts a domain shorter than one sequence too
        docs, seq_len, batch_size, _, _ = setup
        packed = D.pack_sequences(docs, seq_len)
        for batch in D.pack_batches(docs, seq_len, batch_size, seed=5):
            assert batch.domain_ids.dtype == np.intp
            assert batch.domain_ids.shape == (batch_size,)
            for row, i in zip(batch.sequences, batch.domain_ids):
                assert (packed[list(packed)[i]] == row).all(axis=1).any()

    def test_split_validation(self, setup):
        docs, seq_len, _, val_sequences, _ = setup
        train, valsets = D.split_validation(docs, seq_len, val_sequences)
        train_e, valsets_e = oracle_split_validation(docs, seq_len, val_sequences)
        assert [d.domain for d in train] == [d.domain for d in train_e]
        for g, e in zip(train, train_e):
            assert_same_arrays(g.tokens, e.tokens)
        assert list(valsets) == list(valsets_e)
        for dom in valsets:
            assert_same_arrays(valsets[dom], valsets_e[dom])

    def test_load_valsets(self, case, setup, tmp_path):
        docs, seq_len, _, _, limit = setup
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"text": bytes(d.tokens).decode("ascii"), "domain": d.domain}
                           for d in docs])
        if case == "short domain":
            with pytest.raises(cli.UsageError) as expected:
                oracle_load_valsets(path, seq_len, limit)
            with pytest.raises(cli.UsageError) as got:
                cli._load_valsets(cli._read(D.load_corpus, path), seq_len, limit)
            assert str(got.value) == str(expected.value)
            return
        expected = oracle_load_valsets(path, seq_len, limit)
        got = cli._load_valsets(cli._read(D.load_corpus, path), seq_len, limit)
        assert list(got) == list(expected)
        for dom in got:
            assert_same_arrays(got[dom], expected[dom])
