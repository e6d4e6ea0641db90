"""Brute-force oracles for every head variant (``HEAD_ORACLES``), shared by
the self-test and the unit tests, plus the random heads they are run on,
and the op-chain references for the fused CNN and GRU encoders.

The head oracles use explicit python loops over sentences, slots, features
and classes and share no arithmetic with ``heads``, so the two can disagree.
The encoder references (``ENCODER_REFERENCES``) build each sentence from the
elementary tape ops, one chain per window or token, and
``encode_document_by_sentence`` stacks them into a document; the fused
``conv_max_pool`` and ``gru_scan``, which encode a whole document per call,
must match them bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .encoders import EncoderConfig, SentenceEmbeddingMatrix
from .heads import HeadConfig, init_head_params


def softmax_np(x):
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def embed(rows, s_max=None):
    """A sentence matrix holding ``rows``, zero-padded to ``s_max`` slots."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    total = n if s_max is None else s_max
    values = np.zeros((total, rows.shape[1]))
    values[:n] = rows
    mask = [True] * n + [False] * (total - n)
    return SentenceEmbeddingMatrix(ad.constant(values), mask)


def random_head_instance(rng, variant, n_aspects=2, n_classes=3, d=5, s_max=4, n_real=None):
    """(config, params, sentence matrix, real sentence count) drawn from ``rng``."""
    config = HeadConfig(variant, n_aspects=n_aspects, feature_dim=d, s_max=s_max,
                        n_classes=n_classes)
    params = init_head_params(config, rng)
    for p in params.values():
        p.data[...] = rng.normal(scale=0.8, size=p.shape)
    n = n_real if n_real is not None else int(rng.integers(1, s_max + 1))
    u = embed(rng.normal(size=(n, d)), s_max=s_max)
    return config, params, u, n


def _dense_oracle(u_rows, w, b, config):
    """One dense output over the sentence rows (pad rows add zero): a softmax
    over the flattened matrix, or a sentence-count normalized linear form."""
    n, d = len(u_rows), config.feature_dim
    if not config.is_classification:
        return (sum(u_rows[i][x] * w[i, x] for i in range(n) for x in range(d)) + float(b)) / n
    # row i of the flattened matrix holds sentence i's features
    logits = [sum(u_rows[i][x] * w[i * d + x, c] for i in range(n) for x in range(d)) + b[0, c]
              for c in range(config.n_classes)]
    return softmax_np(np.array(logits))


def _layer(params, name):
    return params[f"head.w_{name}"].data, params[f"head.b_{name}"].data


def _sentence_layers(u_rows, params, config):
    """Per sentence: its rating scores and its attribution weights over the slots."""
    d = config.feature_dim
    (w_s, b_s), (w_a, b_a) = _layer(params, "score"), _layer(params, "attr")
    scores = [[sum(t[x] * w_s[x, c] for x in range(d)) + b_s[c] for c in range(len(b_s))]
              for t in u_rows]
    weights = [softmax_np(np.array([sum(t[x] * w_a[x, j] for x in range(d)) + b_a[j]
                                    for j in range(len(b_a))])) for t in u_rows]
    return scores, weights


def loop_oracle_classification(u_rows, params, config):
    """C1/C2: per slot, a softmax over the attribution-weighted class-score sums."""
    scores, weights = _sentence_layers(u_rows, params, config)
    dists = [softmax_np(np.array([sum(w[j] * s[c] for s, w in zip(scores, weights))
                                  for c in range(config.n_classes)]))
             for j in range(config.n_attribution_slots)]
    if config.variant == "C1":
        overall = _dense_oracle(u_rows, *_layer(params, "overall"), config)
    else:
        overall = dists[config.n_aspects]
    return overall, dists[:config.n_aspects]


def weighted_average_oracle(u_rows, params, config):
    """R: scalar scores combined per aspect as an explicit weighted average."""
    scores, weights = _sentence_layers(u_rows, params, config)
    per_aspect = []
    for j in range(config.n_aspects):
        num = sum(w[j] * s[0] for s, w in zip(scores, weights))
        den = sum(w[j] for w in weights) + config.epsilon
        per_aspect.append(num / den)
    return _dense_oracle(u_rows, *_layer(params, "overall"), config), per_aspect


def flat_loop_oracle(u_rows, params, config):
    """Flat baselines: one dense output per rating, the overall output first."""
    outputs = [_dense_oracle(u_rows, *_layer(params, f"flat{t}"), config)
               for t in range(config.n_aspects + 1)]
    return outputs[0], outputs[1:]


HEAD_ORACLES = {
    "C1": loop_oracle_classification,
    "C2": loop_oracle_classification,
    "R": weighted_average_oracle,
    "flat-c": flat_loop_oracle,
    "flat-r": flat_loop_oracle,
}


def encode_cnn_reference(token_ids, params, config: EncoderConfig):
    """The CNN encoder as per-window ``slice_rows``/``reshape`` chains."""
    if not token_ids:
        return ad.constant(np.zeros(config.feature_dim))
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
    return ad.concat(pooled)


def encode_gru_reference(token_ids, params, config: EncoderConfig):
    """The GRU encoder as a 21-op chain per token."""
    h_dim = config.gru_hidden
    if not token_ids:
        return ad.constant(np.zeros(h_dim))
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


ENCODER_REFERENCES = {"cnn": encode_cnn_reference, "gru": encode_gru_reference}


def encode_document_by_sentence(encode_sentence, sentences, s_max, params,
                                config: EncoderConfig, t_max=None):
    """``encoders.encode_document`` one sentence at a time:
    ``encode_sentence(tokens, params, config)`` on each sentence's real
    tokens (truncated to t_max), the rows stacked and zero-padded to s_max.
    With ``ENCODER_REFERENCES`` it is the op-chain reference document."""
    rows = []
    for sent in sentences[:s_max]:
        tokens = [t for t in sent if t != 0]
        rows.append(encode_sentence(tokens[:t_max], params, config))
    mask = [True] * len(rows) + [False] * (s_max - len(rows))
    rows += [ad.constant(np.zeros(config.feature_dim)) for _ in range(s_max - len(rows))]
    return SentenceEmbeddingMatrix(ad.stack_rows(rows), mask)
