"""Train, checkpoint and predict over a matrix of small configurations and
print SHA-256 digests of everything produced, as one JSON object.

Run by ``tools/parity.py`` under one tree's ``src/`` on ``PYTHONPATH``; it
reads the configuration matrix (a JSON list of ``[name, TrainConfig dict]``
pairs, ``vocab_size`` filled in here) from stdin. It uses only interfaces
that older trees share, so it can drive any revision being compared.
Stdlib and numpy only.
"""

from __future__ import annotations

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


def run_config(config_dict: dict, records, tmp: str) -> dict:
    names = tuple(f"aspect{i + 1}" for i in range(N_ASPECTS))
    vocab = build_vocabulary([s for rec in records for s in rec["sentences"]])
    docs = docs_from_records(records, vocab, AspectSet(names))
    config = TrainConfig.from_dict({**config_dict,
                                    "encoder": {**config_dict["encoder"],
                                                "vocab_size": vocab.size}})
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
    results = {}
    with tempfile.TemporaryDirectory(prefix="saam-parity-run-") as tmp:
        for name, config_dict in matrix:
            results[name] = run_config(config_dict, records, tmp)
    json.dump(results, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
