"""Domain-labeled corpora: JSONL ingestion, synthetic generation, packing.

Text is tokenized as raw UTF-8 bytes (vocab 256), so the artifact needs no
external tokenizer assets. ``pack_sequences`` cuts each domain's stream into
its own [n, seq_len] array, so a packed sequence never mixes bytes from
documents of different domains; batching, the validation split and the
analysis verbs slice those arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate

import numpy as np


@dataclass
class Document:
    tokens: np.ndarray  # uint8 byte values
    domain: str


@dataclass
class DomainBatch:
    """A [B, L] block of packed token sequences and its [B] intp domain ids,
    which index the domains of ``pack_sequences`` in first-seen order."""

    sequences: np.ndarray
    domain_ids: np.ndarray


@dataclass
class DataConfig:
    """How ``moediv train`` packs its corpus; ``val_sequences`` is not read
    yet. ``seq_len``'s upper bound, the running model's ``max_seq_len``, is
    the CLI's to check."""

    seq_len: int = 64
    batch_size: int = 8
    val_sequences: int = 100

    def __post_init__(self):
        for key, lo in (("seq_len", 2), ("batch_size", 1), ("val_sequences", 1)):
            if getattr(self, key) < lo:
                raise ValueError(f"{key} must be at least {lo}, got {getattr(self, key)}")


def load_corpus(path):
    """Read a JSONL file of {"text": ..., "domain": ...} records.

    Returns the list of documents, in file order. A malformed record, one
    that is not UTF-8, or one whose ``text`` or ``domain`` is not a JSON
    string raises ValueError naming the file and line.
    """
    docs = []
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
            if not isinstance(rec, dict) or "text" not in rec or "domain" not in rec:
                raise ValueError(
                    f"{path}:{lineno}: record must have 'text' and 'domain' fields"
                )
            for field in ("text", "domain"):
                if not isinstance(rec[field], str):
                    raise ValueError(f"{path}:{lineno}: '{field}' must be a string, "
                                     f"got {rec[field]!r}")
            tokens = np.frombuffer(rec["text"].encode("utf-8"), dtype=np.uint8)
            docs.append(Document(tokens=tokens.copy(), domain=rec["domain"]))
    return docs


@dataclass
class SynthDomainSpec:
    """Recipe for one synthetic domain's character source.

    ``weights`` are unigram probabilities over ``alphabet`` (uniform when
    omitted). ``bigram_gain`` > 0 perturbs the per-character transition rows
    with seeded log-normal noise, giving each domain its own order-1
    statistics for the router to pick up.
    """

    name: str
    alphabet: str
    num_docs: int
    doc_len: int
    weights: list | None = None
    bigram_gain: float = 0.0

    def __post_init__(self):
        def refuse(field, why):
            raise ValueError(f"SynthDomainSpec {self.name!r}: {field} {why}")
        k = len(self.alphabet.encode("utf-8"))
        if k == 0:
            refuse("alphabet", "must not be empty")
        for field in ("num_docs", "doc_len"):
            if getattr(self, field) < 1:
                refuse(field, f"must be at least 1, got {getattr(self, field)}")
        if not (np.isfinite(self.bigram_gain) and self.bigram_gain >= 0):
            refuse("bigram_gain", f"must be finite and non-negative, got {self.bigram_gain}")
        w = np.ones(k) if self.weights is None else np.asarray(self.weights, dtype=np.float64)
        if w.shape != (k,):
            refuse("weights", f"must hold one value per alphabet byte ({k}), got shape {w.shape}")
        if not (np.isfinite(w).all() and (w >= 0).all() and 0 < sum(w.tolist()) < np.inf):
            refuse("weights", f"must be non-negative with a finite positive sum, got {w}")


def synth_corpus(specs, seed: int):
    """Generate a deterministic labeled corpus from per-domain specs."""
    specs = list(specs)
    if len(specs) < 2:
        raise ValueError("synth_corpus needs at least 2 domains")
    rng = np.random.default_rng(seed)
    docs = []
    vocab = []
    for spec in specs:
        vocab.append(spec.name)
        chars = np.frombuffer(spec.alphabet.encode("utf-8"), dtype=np.uint8)
        k = len(chars)
        uni = np.ones(k) if spec.weights is None else np.asarray(spec.weights, dtype=np.float64)
        uni = uni / uni.sum()
        trans = np.broadcast_to(uni, (k, k))
        if spec.bigram_gain > 0:
            noise = rng.normal(0.0, spec.bigram_gain, size=(k, k))
            trans = uni[None, :] * np.exp(noise)
            trans /= trans.sum(axis=1, keepdims=True)
        # inverse CDFs built as Generator.choice(p=) builds them, so a token is
        # what one rng.choice(k, p=row) call draws from the same uniform: row c
        # is the law after token c, row k the first token's law
        cdf = np.vstack([trans, uni]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        for _ in range(spec.num_docs):
            u = rng.random(spec.doc_len)
            # nxt[t][c]: token t when token t - 1 is c (or c = k at t = 0)
            nxt = np.stack([np.searchsorted(row, u, side="right") for row in cdf], axis=1)
            walk = list(accumulate(nxt.tolist(), lambda c, row: row[c], initial=k))
            docs.append(Document(tokens=chars[walk[1:]], domain=spec.name))
    return docs, vocab


def three_domain_demo_specs(num_docs: int = 8, doc_len: int = 2048):
    """Standard 3-domain synthetic corpus for twin-run experiments.

    All domains share one alphabet and a uniform unigram law; only their
    bigram statistics differ. A router that keys on token identity alone
    therefore cannot separate the domains, so inter-domain routing
    divergence has to come from learned contextual features.
    """
    return [
        SynthDomainSpec(
            name=name,
            alphabet="abcdefghijkl",
            num_docs=num_docs,
            doc_len=doc_len,
            bigram_gain=1.5,
        )
        for name in ("news", "code", "math")
    ]


def pack_sequences(docs, seq_len: int):
    """Cut each domain's token stream into [n, seq_len] rows.

    Documents are concatenated per domain, in stream order, and each domain
    stream is cut into seq_len chunks; only each domain's tail remainder is
    dropped, so token conservation holds per domain. Returns
    {domain: [n, seq_len] intp array} with domains in first-seen order; a
    domain shorter than one sequence maps to a [0, seq_len] array.
    """
    streams: dict[str, list] = {}
    for doc in docs:
        streams.setdefault(doc.domain, []).append(doc.tokens)
    packed = {}
    for dom, parts in streams.items():
        data = np.concatenate(parts)
        n = len(data) // seq_len
        packed[dom] = data[: n * seq_len].reshape(n, seq_len).astype(np.intp)
    return packed


def pack_batches(docs, seq_len: int, batch_size: int, seed: int):
    """Pack a document stream into shuffled DomainBatch blocks.

    Deterministic given ``seed``; a trailing group smaller than batch_size is
    dropped so every batch has the same shape.
    """
    packed = pack_sequences(docs, seq_len)
    ids = np.repeat(np.arange(len(packed)), [len(rows) for rows in packed.values()])
    if not len(ids):
        raise ValueError("corpus shorter than one packed sequence")
    sequences = np.concatenate(list(packed.values()))
    perm = np.random.default_rng(seed).permutation(len(ids))
    batches = [
        DomainBatch(sequences=sequences[take], domain_ids=ids[take])
        for take in (perm[s : s + batch_size]
                     for s in range(0, len(perm) - batch_size + 1, batch_size))
    ]
    if not batches:
        raise ValueError(f"corpus yields {len(ids)} sequences, "
                         f"fewer than batch_size={batch_size}")
    return batches


def split_validation(docs, seq_len: int, val_sequences: int):
    """Hold out the tail of each domain as its validation slice.

    Returns (train_docs, valsets): valsets maps each domain to its last
    ``val_sequences`` rows of ``pack_sequences`` (at most a fifth of them,
    at least one), and train_docs holds one Document per domain with the
    rest. A domain shorter than one sequence is left out of both.
    """
    valsets, train_docs = {}, []
    for dom, rows in pack_sequences(docs, seq_len).items():
        if not len(rows):
            continue
        n_val = min(val_sequences, max(1, len(rows) // 5))
        valsets[dom], train = rows[-n_val:], rows[:-n_val]
        if len(train):
            train_docs.append(Document(tokens=train.ravel().astype(np.uint8), domain=dom))
    if not train_docs:
        raise ValueError("no training data left after validation split")
    return train_docs, valsets
