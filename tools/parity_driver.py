"""Train, checkpoint and predict over a matrix of small configurations and
print SHA-256 digests of everything produced, as one JSON object.

Run by ``tools/parity.py`` under one tree's ``src/`` on ``PYTHONPATH``; it
reads the configuration matrix (a JSON list of ``[name, corpus, TrainConfig
dict]`` triples, ``vocab_size`` filled in here) from stdin. It uses only
interfaces that older trees share, so it can drive any revision being
compared. Stdlib and numpy only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from saam.text import AspectSet, build_vocabulary, docs_from_records, generate_synthetic_corpus
from saam.training import TrainConfig, save_checkpoint, train

N_ASPECTS = 2


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_digest(arr) -> str:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return _digest(repr(arr.shape).encode() + arr.tobytes())


def ragged(docs, seed: int = 7) -> list:
    """The same documents with sentences of 1 to 7 tokens (cut with a fixed
    seed), the first sentence of every fifth document (from the second) cut
    to one token, the second sentence of every third document all pad, and
    every fourth document cut to its first sentence."""
    rng = np.random.default_rng(seed)
    out = []
    for k, doc in enumerate(docs):
        sentences = [sent[:int(rng.integers(1, 8))] for sent in doc.sentences]
        if k % 5 == 1:
            sentences[0] = sentences[0][:1]
        if k % 3 == 1:
            sentences[1] = [0] * len(sentences[1])
        if k % 4 == 0:
            sentences = sentences[:1]
        labels = doc.sentence_labels
        out.append(dataclasses.replace(
            doc, sentences=sentences, raw_sentences=doc.raw_sentences[:len(sentences)],
            sentence_labels=None if labels is None else labels[:len(sentences)]))
    return out


def run_config(config_dict: dict, docs, vocab_size: int, tmp: str) -> dict:
    config = TrainConfig.from_dict({**config_dict,
                                    "encoder": {**config_dict["encoder"],
                                                "vocab_size": vocab_size}})
    checkpoint, history = train(config, {"train": docs[:12], "dev": docs[12:]})
    path = os.path.join(tmp, "model.ckpt")
    save_checkpoint(checkpoint, path)
    with open(path, "rb") as f:
        digests = {"checkpoint": _digest(f.read())}
    digests["history"] = _digest(json.dumps(history, sort_keys=True).encode())
    model = checkpoint.build_model()
    for doc in docs:
        preds, attribution = model.predict(doc.sentences)
        digests[f"{doc.doc_id}.overall"] = _array_digest(preds.overall.data)
        for i, out in enumerate(preds.per_aspect):
            digests[f"{doc.doc_id}.aspect{i}"] = _array_digest(out.data)
        if attribution is not None:
            for key, value in sorted(vars(attribution).items()):
                if isinstance(value, np.ndarray):
                    digests[f"{doc.doc_id}.{key}"] = _array_digest(value)
    return digests


def main() -> int:
    matrix = json.load(sys.stdin)
    # six-token sentences, so t_max 4 truncates and a width of 8 exceeds them all
    records = generate_synthetic_corpus(n_aspects=N_ASPECTS, n_docs=16, seed=11,
                                        tokens_per_sentence=5, sentences_per_aspect=2)
    names = tuple(f"aspect{i + 1}" for i in range(N_ASPECTS))
    vocab = build_vocabulary([s for rec in records for s in rec["sentences"]])
    docs = docs_from_records(records, vocab, AspectSet(names))
    corpora = {"regular": docs, "ragged": ragged(docs)}
    results = {}
    with tempfile.TemporaryDirectory(prefix="saam-parity-run-") as tmp:
        for name, corpus, config_dict in matrix:
            results[name] = run_config(config_dict, corpora[corpus], vocab.size, tmp)
    json.dump(results, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
