"""Sentence encoders: token ids in, one feature vector per sentence out.

Three encoders share an embedding table and produce the per-sentence
feature matrix consumed by the prediction heads: a max-over-time CNN, a
GRU that returns the hidden state at the last real token, and a
mean-of-embeddings encoder cheap enough for property tests. The CNN and
the GRU encode all the sentences of a document in one fused op call (per
filter width for the CNN), bit-identical to encoding them one at a time.
Padded token positions never reach any encoder; padded sentence slots and
sentences without tokens come back as exact zero rows, so downstream
masking stays bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

ENCODER_KINDS = ("cnn", "gru", "mean")


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class EncoderConfig:
    kind: str
    vocab_size: int
    embedding_dim: int
    cnn_filter_widths: tuple = (3, 4, 5)
    cnn_filters_per_width: int = 100
    gru_hidden: int | None = None

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {self.kind!r}; known: {ENCODER_KINDS}")
        self.cnn_filter_widths = tuple(self.cnn_filter_widths)
        if self.kind == "gru" and self.gru_hidden is None:
            self.gru_hidden = self.embedding_dim
        if not self.cnn_filter_widths or min(self.cnn_filter_widths) < 1:
            raise ValueError(f"cnn_filter_widths must be one or more widths >= 1, "
                             f"got {list(self.cnn_filter_widths)}")
        for name in ("embedding_dim", "cnn_filters_per_width", "gru_hidden"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    @property
    def feature_dim(self) -> int:
        if self.kind == "cnn":
            return len(self.cnn_filter_widths) * self.cnn_filters_per_width
        if self.kind == "gru":
            return self.gru_hidden
        return self.embedding_dim

    def to_dict(self) -> dict:
        return {"kind": self.kind, "vocab_size": self.vocab_size,
                "embedding_dim": self.embedding_dim,
                "cnn_filter_widths": list(self.cnn_filter_widths),
                "cnn_filters_per_width": self.cnn_filters_per_width,
                "gru_hidden": self.gru_hidden}

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        d = dict(d)
        # configs written before dropout was removed carry "dropout": 0.0
        if d.pop("dropout", 0.0) != 0.0:
            raise ValueError("dropout is not supported; only 0.0 is accepted")
        d["cnn_filter_widths"] = tuple(d.get("cnn_filter_widths", (3, 4, 5)))
        return cls(**d)


@dataclass
class SentenceEmbeddingMatrix:
    """Per-sentence feature rows with a validity mask; pad rows are zero."""
    values: Tensor               # [n_slots x d]
    sentence_mask: list = field(default_factory=list)

    @property
    def n_real(self) -> int:
        return sum(1 for m in self.sentence_mask if m)


def init_encoder_params(config: EncoderConfig, rng: np.random.Generator) -> dict:
    """Fresh parameter tensors, keyed by dotted names shared with checkpoints."""
    e = config.embedding_dim
    params = {"encoder.embedding": ad.parameter(
        xavier_uniform(rng, config.vocab_size, e, (config.vocab_size, e)))}
    if config.kind == "cnn":
        f = config.cnn_filters_per_width
        for w in config.cnn_filter_widths:
            params[f"encoder.cnn.w{w}"] = ad.parameter(xavier_uniform(rng, w * e, f, (w * e, f)))
            params[f"encoder.cnn.b{w}"] = ad.parameter(np.zeros(f))
    elif config.kind == "gru":
        h = config.gru_hidden
        for gate in ("z", "r", "h"):
            params[f"encoder.gru.w{gate}"] = ad.parameter(xavier_uniform(rng, e, h, (e, h)))
            params[f"encoder.gru.u{gate}"] = ad.parameter(xavier_uniform(rng, h, h, (h, h)))
            params[f"encoder.gru.b{gate}"] = ad.parameter(np.zeros((1, h)))
    return params


def _zero_vector(d: int) -> Tensor:
    return ad.constant(np.zeros(d))


def encode_mean(token_ids, params, config: EncoderConfig) -> Tensor:
    """Mean of the real tokens' embeddings; zero vector when there are none."""
    if not token_ids:
        return _zero_vector(config.feature_dim)
    emb = ad.embedding_lookup(params["encoder.embedding"], token_ids)
    return ad.reduce_mean(emb, axis=0)


def encode_document(sentences, s_max: int, params, config: EncoderConfig,
                    t_max: int | None = None) -> SentenceEmbeddingMatrix:
    """Encode up to s_max sentences; unused slots become zero rows.

    Sentences are truncated to t_max tokens when given. Each sentence with
    tokens gets its own ``embedding_lookup``; the CNN then makes one
    ``conv_max_pool`` call per filter width over all the sentences
    (``concat`` joins the widths' features), and the GRU one ``gru_scan``
    call. The mean encoder runs sentence by sentence. The same parameter
    tensors serve every sentence, so gradients accumulate across sentences
    and documents.
    """
    real = []
    for sent in sentences[:s_max]:
        tokens = [t for t in sent if t != 0]
        real.append(tokens if t_max is None else tokens[:t_max])
    mask = [True] * len(real) + [False] * (s_max - len(real))
    d = config.feature_dim
    if config.kind == "mean":
        rows = [encode_mean(tokens, params, config) for tokens in real]
        rows += [_zero_vector(d) for _ in range(s_max - len(real))]
        return SentenceEmbeddingMatrix(ad.stack_rows(rows), mask)
    if not real:
        return SentenceEmbeddingMatrix(ad.constant(np.zeros((s_max, d))), mask)
    table = params["encoder.embedding"]
    embs = [ad.embedding_lookup(table, tokens) if tokens
            else ad.constant(np.zeros((0, config.embedding_dim))) for tokens in real]
    if config.kind == "cnn":
        values = ad.concat([ad.conv_max_pool(embs, params[f"encoder.cnn.w{w}"],
                                             params[f"encoder.cnn.b{w}"], w)
                            for w in config.cnn_filter_widths])
    else:
        values = ad.gru_scan(embs, *(params[f"encoder.gru.{kind}{gate}"]
                                     for gate in "zrh" for kind in "wub"))
    if len(real) < s_max:
        values = ad.pad_rows(values, s_max)
    return SentenceEmbeddingMatrix(values, mask)
