"""Domain-labeled corpora: JSONL ingestion, synthetic generation, batch packing.

Text is tokenized as raw UTF-8 bytes (vocab 256), so the artifact needs no
external tokenizer assets. Every packed sequence carries exactly one domain
label and never mixes bytes from documents of different domains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class Document:
    tokens: np.ndarray  # uint8 byte values
    domain: str


@dataclass
class DomainBatch:
    """A [B, L] block of packed token sequences with per-sequence labels."""

    sequences: np.ndarray
    domains: list[str]


def load_corpus(path):
    """Read a JSONL file of {"text": ..., "domain": ...} records.

    Returns (documents, domain_vocab); unknown domains enter the vocabulary
    in first-seen order. A malformed record, or one that is not UTF-8, raises
    ValueError naming the file and line.
    """
    docs = []
    vocab: list[str] = []
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
            domain = str(rec["domain"])
            if domain not in vocab:
                vocab.append(domain)
            tokens = np.frombuffer(str(rec["text"]).encode("utf-8"), dtype=np.uint8)
            docs.append(Document(tokens=tokens.copy(), domain=domain))
    return docs, vocab


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
            docs.append(Document(tokens=chars[idx], domain=spec.name))
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
    """Chunk documents into fixed-length sequences without crossing domains.

    Documents are concatenated per domain (in stream order) and each domain
    stream is cut into seq_len chunks; only each domain's tail remainder is
    dropped, so token conservation holds per domain.
    """
    streams: dict[str, list] = {}
    order: list[str] = []
    for doc in docs:
        if doc.domain not in streams:
            streams[doc.domain] = []
            order.append(doc.domain)
        streams[doc.domain].append(doc.tokens)
    sequences = []
    labels = []
    for dom in order:
        data = np.concatenate(streams[dom])
        n = len(data) // seq_len
        for i in range(n):
            sequences.append(data[i * seq_len : (i + 1) * seq_len])
            labels.append(dom)
    return sequences, labels


def pack_batches(docs, seq_len: int, batch_size: int, seed: int):
    """Pack a document stream into shuffled DomainBatch blocks.

    Deterministic given ``seed``; a trailing group smaller than batch_size is
    dropped so every batch has the same shape.
    """
    sequences, labels = pack_sequences(docs, seq_len)
    if not sequences:
        raise ValueError("corpus shorter than one packed sequence")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(sequences))
    batches = []
    for start in range(0, len(perm) - batch_size + 1, batch_size):
        take = perm[start : start + batch_size]
        batches.append(
            DomainBatch(
                sequences=np.stack([sequences[i] for i in take]).astype(np.intp),
                domains=[labels[i] for i in take],
            )
        )
    if not batches:
        raise ValueError(
            f"corpus yields {len(sequences)} sequences, fewer than batch_size={batch_size}"
        )
    return batches


def split_validation(docs, seq_len: int, val_sequences: int):
    """Hold out the tail of each domain as its validation slice.

    Returns (train_docs, valsets) where valsets maps domain -> [n, seq_len]
    token array (up to ``val_sequences`` sequences per domain).
    """
    sequences, labels = pack_sequences(docs, seq_len)
    per_domain: dict[str, list] = {}
    for s, d in zip(sequences, labels):
        per_domain.setdefault(d, []).append(s)
    valsets = {}
    train_docs = []
    for dom, seqs in per_domain.items():
        n_val = min(val_sequences, max(1, len(seqs) // 5))
        val = seqs[-n_val:]
        train = seqs[:-n_val]
        valsets[dom] = np.stack(val).astype(np.intp)
        if train:
            train_docs.append(Document(tokens=np.concatenate(train), domain=dom))
    if not train_docs:
        raise ValueError("no training data left after validation split")
    return train_docs, valsets
