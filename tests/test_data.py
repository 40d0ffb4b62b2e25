import json

import numpy as np
import pytest

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
        docs, vocab = D.load_corpus(p)
        assert vocab == ["news", "code"]  # first-seen order
        assert [d.domain for d in docs] == ["news", "code", "news"]
        assert bytes(docs[0].tokens) == b"hello"

    def test_utf8_bytes(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"text": "café", "domain": "a"}])
        docs, _ = D.load_corpus(p)
        assert bytes(docs[0].tokens) == "café".encode("utf-8")
        assert len(docs[0].tokens) == 5

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "x", "domain": "a"}\n\n{"text": "y", "domain": "b"}\n')
        docs, vocab = D.load_corpus(p)
        assert len(docs) == 2 and vocab == ["a", "b"]

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


class TestPacking:
    @staticmethod
    def docs():
        return [
            D.Document(tokens=np.arange(10, dtype=np.uint8), domain="a"),
            D.Document(tokens=np.arange(7, dtype=np.uint8) + 50, domain="b"),
            D.Document(tokens=np.arange(5, dtype=np.uint8) + 20, domain="a"),
        ]

    def test_no_domain_crossing(self):
        seqs, labels = D.pack_sequences(self.docs(), seq_len=4)
        for s, lab in zip(seqs, labels):
            src = set(range(10)) | set(range(20, 25)) if lab == "a" else set(range(50, 57))
            assert set(s.tolist()) <= src

    def test_per_domain_token_conservation(self):
        seqs, labels = D.pack_sequences(self.docs(), seq_len=4)
        kept = {"a": 0, "b": 0}
        for s, lab in zip(seqs, labels):
            kept[lab] += len(s)
        # domain a has 15 tokens -> 3 chunks of 4, remainder 3 dropped
        # domain b has 7 tokens -> 1 chunk, remainder 3 dropped
        assert kept == {"a": 12, "b": 4}

    def test_stream_order_preserved(self):
        seqs, labels = D.pack_sequences(self.docs(), seq_len=5)
        a_seqs = [s for s, l in zip(seqs, labels) if l == "a"]
        np.testing.assert_array_equal(np.concatenate(a_seqs)[:10], np.arange(10))

    def test_batches_deterministic(self):
        docs = self.docs()
        b1 = D.pack_batches(docs, seq_len=4, batch_size=2, seed=9)
        b2 = D.pack_batches(docs, seq_len=4, batch_size=2, seed=9)
        assert len(b1) == len(b2)
        for x, y in zip(b1, b2):
            assert np.array_equal(x.sequences, y.sequences)
            assert x.domains == y.domains

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
