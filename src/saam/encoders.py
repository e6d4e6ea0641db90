"""Sentence encoders: token ids in, one feature vector per sentence out.

Three encoders share an embedding table and produce the per-sentence
feature matrix consumed by the prediction heads: a max-over-time CNN, a
GRU that returns the hidden state at the last real token, and a
mean-of-embeddings encoder cheap enough for property tests. Padded token
positions never reach any encoder; padded sentence slots come back as
exact zero rows, so downstream masking stays bit-exact.
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


def encode_cnn(token_ids, params, config: EncoderConfig) -> Tensor:
    """Per filter width: valid-window convolution, relu, max over time.

    Sentences shorter than a filter width are zero-padded up to it so the
    single remaining window is still valid; the zero padding is structural,
    not the pad token's embedding, which keeps trailing pads invisible.
    """
    if not token_ids:
        return _zero_vector(config.feature_dim)
    e = config.embedding_dim
    emb = ad.embedding_lookup(params["encoder.embedding"], token_ids)
    n = len(token_ids)
    pooled = []
    for w in config.cnn_filter_widths:
        padded = ad.pad_rows(emb, w) if n < w else emb
        positions = max(n - w + 1, 1)
        windows = [ad.reshape(ad.slice_rows(padded, p, p + w), (w * e,)) for p in range(positions)]
        stacked = ad.stack_rows(windows)
        acts = ad.matmul(stacked, params[f"encoder.cnn.w{w}"])
        bias = ad.outer(ad.constant(np.ones(positions)), params[f"encoder.cnn.b{w}"])
        acts = ad.relu(ad.add(acts, bias))
        pooled.append(ad.max_over_axis(acts, 0))
    return ad.concat(pooled) if len(pooled) > 1 else pooled[0]


def encode_gru(token_ids, params, config: EncoderConfig) -> Tensor:
    """GRU over real tokens only; returns the final hidden state."""
    h_dim = config.gru_hidden
    if not token_ids:
        return _zero_vector(h_dim)
    emb = ad.embedding_lookup(params["encoder.embedding"], token_ids)
    h = ad.constant(np.zeros((1, h_dim)))
    ones = ad.constant(np.ones((1, h_dim)))
    for t in range(len(token_ids)):
        x = ad.slice_rows(emb, t, t + 1)
        z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, params["encoder.gru.wz"]),
                                     ad.matmul(h, params["encoder.gru.uz"])),
                              params["encoder.gru.bz"]))
        r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, params["encoder.gru.wr"]),
                                     ad.matmul(h, params["encoder.gru.ur"])),
                              params["encoder.gru.br"]))
        cand = ad.tanh(ad.add(ad.add(ad.matmul(x, params["encoder.gru.wh"]),
                                     ad.matmul(ad.mul(r, h), params["encoder.gru.uh"])),
                              params["encoder.gru.bh"]))
        h = ad.add(ad.mul(z, h), ad.mul(ad.sub(ones, z), cand))
    return ad.reshape(h, (h_dim,))


_ENCODE = {"cnn": encode_cnn, "gru": encode_gru, "mean": encode_mean}


def encode_sentence(token_ids, params, config: EncoderConfig) -> Tensor:
    return _ENCODE[config.kind](token_ids, params, config)


def encode_document(sentences, s_max: int, params, config: EncoderConfig,
                    t_max: int | None = None) -> SentenceEmbeddingMatrix:
    """Encode up to s_max sentences; unused slots become zero rows.

    Sentences are truncated to t_max tokens when given. The same parameter
    tensors serve every sentence, so gradients accumulate across sentences
    and documents.
    """
    d = config.feature_dim
    rows = []
    mask = []
    for sent in sentences[:s_max]:
        real = [t for t in sent if t != 0]
        if t_max is not None:
            real = real[:t_max]
        rows.append(encode_sentence(real, params, config))
        mask.append(True)
    while len(rows) < s_max:
        rows.append(_zero_vector(d))
        mask.append(False)
    return SentenceEmbeddingMatrix(ad.stack_rows(rows), mask)
