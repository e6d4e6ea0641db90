"""Built-in numerical self-test: gradient checks for every tensor op and
for each encoder/head combination at toy sizes, comparisons of every head
variant against its brute-force loop oracle (``saam.oracles``), bit-for-bit
comparisons of the fused CNN and GRU encoders (one op call per document)
with their op-chain references, and a check of the BLAS properties those
comparisons rest on.

Each check is written only here: the command-line ``selftest``, the unit
tests and the acceptance suite all run it from this module. Each check
returns (name, passed, detail); the whole suite runs in well under a minute.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .encoders import EncoderConfig, encode_document, init_encoder_params
from .heads import HEADS, VARIANTS, head_forward
from .model import SaamModel
from .oracles import (ENCODER_REFERENCES, HEAD_ORACLES, encode_document_by_sentence,
                      random_head_instance)
from .text import ReviewDocument
from .training import TrainConfig, document_loss

TOY_DIMS = {"d": 8, "s_max": 4, "n_aspects": 2, "n_classes": 3}
MODEL_GRADCHECK_PAIRS = tuple((encoder_kind, variant) for encoder_kind in ("mean", "cnn", "gru")
                              for variant in VARIANTS)


def _weighted(t, seed):
    w = np.random.default_rng(seed).normal(size=t.shape)
    return ad.reduce_sum(ad.mul(t, ad.constant(w)))


def op_gradcheck_cases():
    """(name, build_loss, params) for every differentiable op."""
    rng = np.random.default_rng(1234)
    a = ad.parameter(rng.normal(size=(3, 4)))
    b = ad.parameter(rng.normal(size=(4, 2)))
    u = ad.parameter(rng.normal(size=5))
    v = ad.parameter(rng.normal(size=3))
    e1 = ad.parameter(rng.normal(size=(2, 3)))
    e2 = ad.parameter(rng.normal(size=(2, 3)))
    away_from_kink = rng.normal(size=(3, 3)) + np.where(rng.normal(size=(3, 3)) > 0, 2.0, -2.0)
    r = ad.parameter(away_from_kink)
    denom = ad.parameter(np.abs(rng.normal(size=(2, 3))) + 0.5)
    table = ad.parameter(rng.normal(size=(4, 3)))
    m = ad.parameter(rng.normal(size=(3, 4)) * 2.0)
    sc = ad.parameter(rng.normal(size=()) + 3.0)
    seq = ad.parameter(rng.normal(size=(3, 2)))
    gru = {f"{kind}{gate}": ad.parameter(rng.normal(size=shape)) for gate in "zrh"
           for kind, shape in (("w", (2, 3)), ("u", (3, 3)), ("b", (1, 3)))}
    filt2 = ad.parameter(rng.normal(size=(4, 3)))
    filt4 = ad.parameter(rng.normal(size=(8, 3)))
    fbias = ad.parameter(rng.normal(size=3))
    # a ragged document: 3, 1, 0 and 4 tokens, so 2, 1, 0 and 3 width-2 windows
    doc = [ad.parameter(rng.normal(size=(n, 2))) for n in (3, 1)]
    doc += [ad.constant(np.zeros((0, 2))), ad.parameter(rng.normal(size=(4, 2)))]
    doc_params = {f"sent{i}": s for i, s in enumerate(doc) if s.requires_grad}
    m2 = ad.parameter(rng.normal(size=(3, 2)))
    return [
        ("matmul", lambda: _weighted(ad.matmul(a, b), 0), {"a": a, "b": b}),
        ("softmax_lastdim", lambda: _weighted(ad.softmax_lastdim(a), 1), {"a": a}),
        ("outer", lambda: _weighted(ad.outer(u, v), 2), {"u": u, "v": v}),
        ("add", lambda: _weighted(ad.add(e1, e2), 3), {"e1": e1, "e2": e2}),
        ("sub", lambda: _weighted(ad.sub(e1, e2), 4), {"e1": e1, "e2": e2}),
        ("mul", lambda: _weighted(ad.mul(e1, e2), 5), {"e1": e1, "e2": e2}),
        ("div", lambda: _weighted(ad.div(e1, denom), 6), {"e1": e1, "denom": denom}),
        ("tanh", lambda: _weighted(ad.tanh(e1), 7), {"e1": e1}),
        ("sigmoid", lambda: _weighted(ad.sigmoid(e1), 8), {"e1": e1}),
        ("relu", lambda: _weighted(ad.relu(r), 9), {"r": r}),
        ("scale", lambda: _weighted(ad.scale(e1, 2.5), 10), {"e1": e1}),
        ("reduce_sum", lambda: _weighted(ad.reduce_sum(a, axis=1), 11), {"a": a}),
        ("reduce_mean", lambda: _weighted(ad.reduce_mean(a, axis=0), 12), {"a": a}),
        ("reduce_sum_all", lambda: _weighted(ad.reduce_sum(a), 21), {"a": a}),
        ("reduce_mean_all", lambda: _weighted(ad.reduce_mean(a), 22), {"a": a}),
        ("max_over_axis", lambda: _weighted(ad.max_over_axis(m, 0), 13), {"m": m}),
        ("embedding_lookup", lambda: _weighted(ad.embedding_lookup(table, [2, 0, 2]), 14),
         {"table": table}),
        ("cross_entropy",
         lambda: ad.cross_entropy(ad.reshape(ad.softmax_lastdim(ad.reshape(u, (1, 5))), (5,)), 2),
         {"u": u}),
        ("squared_error", lambda: ad.squared_error(sc, 1.25), {"sc": sc}),
        # an upstream gradient other than 1 reaches the rule's out.grad factor
        ("squared_error_upstream", lambda: ad.scale(ad.squared_error(sc, 1.25), 3.0), {"sc": sc}),
        ("transpose", lambda: _weighted(ad.transpose(a), 15), {"a": a}),
        ("reshape", lambda: _weighted(ad.reshape(a, (2, 6)), 16), {"a": a}),
        ("stack_rows", lambda: _weighted(ad.stack_rows([u, u]), 17), {"u": u}),
        ("slice_rows", lambda: _weighted(ad.slice_rows(a, 1, 3), 18), {"a": a}),
        ("pad_rows", lambda: _weighted(ad.pad_rows(a, 5), 19), {"a": a}),
        ("concat", lambda: _weighted(ad.concat([u, v]), 20), {"u": u, "v": v}),
        ("concat_rows", lambda: _weighted(ad.concat([a, m2]), 26), {"a": a, "m2": m2}),
        ("gru_scan", lambda: _weighted(ad.gru_scan([seq], *gru.values()), 23),
         {"seq": seq, **gru}),
        ("gru_scan_document", lambda: _weighted(ad.gru_scan(doc, *gru.values()), 27),
         {**doc_params, **gru}),
        ("conv_max_pool", lambda: _weighted(ad.conv_max_pool([seq], filt2, fbias, 2), 24),
         {"seq": seq, "filt2": filt2, "fbias": fbias}),
        # a sentence shorter than the width: one zero-padded window
        ("conv_max_pool_short", lambda: _weighted(ad.conv_max_pool([seq], filt4, fbias, 4), 25),
         {"seq": seq, "filt4": filt4, "fbias": fbias}),
        ("conv_max_pool_document",
         lambda: _weighted(ad.conv_max_pool(doc, filt2, fbias, 2), 28),
         {**doc_params, "filt2": filt2, "fbias": fbias}),
    ]


def toy_encoder_config(kind: str) -> EncoderConfig:
    d = TOY_DIMS["d"]
    if kind == "cnn":
        return EncoderConfig("cnn", vocab_size=12, embedding_dim=4,
                             cnn_filter_widths=(2, 3), cnn_filters_per_width=d // 2)
    if kind == "gru":
        return EncoderConfig("gru", vocab_size=12, embedding_dim=4, gru_hidden=d)
    return EncoderConfig("mean", vocab_size=12, embedding_dim=d)


def toy_train_config(encoder_kind: str, variant: str) -> TrainConfig:
    return TrainConfig(variant=variant, encoder=toy_encoder_config(encoder_kind),
                       n_aspects=TOY_DIMS["n_aspects"], s_max=TOY_DIMS["s_max"],
                       n_classes=TOY_DIMS["n_classes"], t_max=8)


def model_gradcheck(encoder_kind: str, variant: str) -> ad.GradCheckReport:
    """Full forward (encoder + head + loss) gradient check at toy dims."""
    config = toy_train_config(encoder_kind, variant)
    model = SaamModel(config.encoder, config.head_config(), seed=0, t_max=config.t_max)
    rng = np.random.default_rng(0)
    sentences = [[int(rng.integers(2, 12)) for _ in range(int(rng.integers(3, 6)))]
                 for _ in range(3)]
    overall, aspects = (2.0, [1.0, 3.0]) if model.kind == "classification" else (2.5, [1.5, 3.5])
    doc = ReviewDocument("toy", sentences, [], overall, aspects)

    def build():
        preds, _ = model.forward(doc.sentences)
        return document_loss(model, preds, doc, config)

    return ad.grad_check(build, model.params)


def head_oracle_check(variant: str, rng: np.random.Generator, instances: int = 25):
    """Compare the head against its brute-force loop oracle on ``instances``
    random heads drawn from ``rng``; returns (passed, detail). A difference
    above 1e-12 (or NaN), an output shape or aspect output count other than
    the oracle's, or an attribution result the variant's ``HEADS`` row does
    not call for fails."""
    has_attribution = HEADS[variant].slot_labels is not None
    worst = 0.0
    for _ in range(instances):
        config, params, u, n = random_head_instance(rng, variant)
        preds, attribution = head_forward(u, params, config)
        overall, per_aspect = HEAD_ORACLES[variant](list(u.values.data[:n]), params, config)
        if len(preds.per_aspect) != len(per_aspect):
            return False, f"{len(preds.per_aspect)} aspect outputs, oracle has {len(per_aspect)}"
        if (attribution is not None) != has_attribution:
            return False, f"attribution {'missing' if has_attribution else 'from a flat head'}"
        for got, want in zip([preds.overall, *preds.per_aspect], [overall, *per_aspect]):
            if got.data.shape != np.shape(want):
                return False, f"output shape {got.data.shape}, oracle {np.shape(want)}"
            worst = float(np.maximum(worst, np.max(np.abs(got.data - want))))
    return bool(worst <= 1e-12), f"max abs diff {worst:.2e}"


def _random_params(config: EncoderConfig) -> dict:
    """Encoder parameters drawn from fixed seeds; every bias is non-zero."""
    params = init_encoder_params(config, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for p in params.values():
        p.data[...] = rng.normal(scale=0.5, size=p.shape)
    return params


def _differs(got: dict, want: dict):
    """Name of the first entry of ``want`` that ``got`` does not match bit
    for bit (a missing gradient counts), or None."""
    for name, expected in want.items():
        actual = got[name]
        if (actual is None) != (expected is None) or (
                expected is not None and not np.array_equal(actual, expected)):
            return name
    return None


def _ragged_documents(rng, vocab_size: int, t_max: int, s_max: int) -> list:
    """Documents of 1 to s_max + 1 sentences of 0 to t_max + 2 tokens (pad
    id 0 included, so some sentences are all pad), from few ids so ids
    repeat; the first t_max + 2 are one-sentence documents of each length,
    and the last has no real token at all."""
    ids = range(2, min(vocab_size, 8))
    docs = [[rng.choice(ids, size=n).tolist()] for n in range(1, t_max + 3)]
    for _ in range(6):
        docs.append([rng.choice([0, *ids], size=int(rng.integers(0, t_max + 3))).tolist()
                     for _ in range(int(rng.integers(1, s_max + 2)))])
    docs.append([[0, 0, 0], [], rng.choice(ids, size=2).tolist()])
    docs.append([[0, 0], []])
    return docs


FUSED_ENCODERS = {
    # widths below, equal to and above the sentence lengths; then library sizes
    "cnn": (EncoderConfig("cnn", vocab_size=8, embedding_dim=3, cnn_filter_widths=(1, 4, 11),
                          cnn_filters_per_width=3),
            EncoderConfig("cnn", vocab_size=8, embedding_dim=32, cnn_filters_per_width=100)),
    # hidden size 1: one-element parameters, whose folds numpy would sum pairwise
    "gru": (EncoderConfig("gru", vocab_size=8, embedding_dim=3, gru_hidden=5),
            EncoderConfig("gru", vocab_size=8, embedding_dim=3, gru_hidden=1),
            EncoderConfig("gru", vocab_size=8, embedding_dim=32, gru_hidden=32)),
}


def fused_encoder_check(kind: str):
    """Compare the fused ``cnn`` or ``gru`` encoder (``encode_document``, one
    op call per document) with its op-chain reference
    (``saam.oracles.ENCODER_REFERENCES``, one chain per window or token,
    stacked by ``encode_document_by_sentence``) for every configuration in
    ``FUSED_ENCODERS[kind]``; returns (passed, detail).

    A weighted sum of every document's output is differentiated on one
    Graph, so gradients accumulate across documents. The outputs and every
    parameter and embedding-table gradient must be equal bit for bit, on
    ragged documents (see ``_ragged_documents``), truncated at t_max.
    """
    s_max, t_max = 4, 9
    checked = 0
    for config in FUSED_ENCODERS[kind]:
        rng = np.random.default_rng(2)
        docs = _ragged_documents(rng, config.vocab_size, t_max, s_max)
        weights = rng.normal(size=(len(docs), s_max, config.feature_dim))

        def run(encode):
            params = _random_params(config)
            with ad.Graph():
                outs = [encode(doc, s_max, params, config, t_max).values for doc in docs]
                loss = ad.reduce_sum(ad.mul(ad.concat(outs),
                                            ad.constant(np.concatenate(weights, axis=-1))))
                ad.backward(loss)
            return {"output": np.stack([out.data for out in outs]),
                    **{name: p.grad for name, p in params.items()}}

        def reference(doc, s_max, params, config, t_max):
            return encode_document_by_sentence(ENCODER_REFERENCES[kind], doc, s_max, params,
                                               config, t_max)

        name = _differs(run(encode_document), run(reference))
        if name is not None:
            return False, (f"{name} differs (e={config.embedding_dim}, "
                           f"d={config.feature_dim}) on documents {docs}")
        checked += len(docs)
    return True, f"{checked} documents bit-identical"


def blas_stacked_rows_check():
    """Check, at the fused ops' toy and library sizes, the BLAS properties
    their bit identity rests on; returns (passed, detail).

    1. Each item of a stacked ``(n, 1, k) @ (k, m)`` or
       ``(s, n, 1, k) @ (k, m)`` product, its items slices of a larger
       buffer, equals a separate ``(1, k) @ (k, m)`` product, also against
       a transposed ``(m, k).T``.
    2. Each item of a stacked ``(n, P, k) @ (k, m)`` product equals a
       separate ``(P, k) @ (k, m)`` product.
    3. A product in which every entry has one nonzero term, such as
       ``x.T @ g`` or a window matrix against a one-hot-per-column
       gradient, equals that term, elementwise.
    Bit identity is claimed for the host where this passes, not across
    BLAS builds.
    """
    rng = np.random.default_rng(4)
    sizes = ((3, 5), (5, 5), (3, 3), (12, 3), (32, 32), (160, 100), (100, 160), (96, 100))
    for k, m in sizes:
        w = rng.normal(size=(k, m))
        w_t = rng.normal(size=(m, k)).T
        buffer = rng.normal(size=(3, 6, 1, k))
        for b in (w, w_t):
            stacked = buffer @ b
            if not all(np.array_equal(stacked[s, i], buffer[s, i].copy() @ b)
                       for s in range(3) for i in range(6)):
                return False, f"stacked rows differ from one-row products at k={k}, m={m}"
        for n in (1, 2, 5):
            for b in (w, w_t):
                stacked = buffer[1, :n] @ b
                if not all(np.array_equal(stacked[i], buffer[1, i].copy() @ b) for i in range(n)):
                    return False, f"stacked rows differ from one-row products at k={k}, m={m}"
            for p in (1, 2, 3, 7):
                a = rng.normal(size=(n, p, k))
                stacked = a @ w
                if not all(np.array_equal(stacked[i], a[i].copy() @ w) for i in range(n)):
                    return False, f"stacked {p}-row products differ at k={k}, m={m}"
        x, g = rng.normal(size=(1, k)), rng.normal(size=(1, m))
        if not np.array_equal(x.T @ g, x.T * g):
            return False, f"outer product x.T @ g differs from x.T * g at k={k}, m={m}"
        windows = rng.normal(size=(7, k))
        pick = rng.integers(0, 7, size=m)
        one_hot = np.zeros((7, m))
        one_hot[pick, np.arange(m)] = rng.normal(size=m)
        if not np.array_equal(windows.T @ one_hot, windows[pick].T * one_hot[pick, np.arange(m)]):
            return False, f"one-term product differs from its term at k={k}, m={m}"
    return True, f"{len(sizes)} shapes"


def corruptible_ops() -> tuple:
    """The autodiff ops that ``run_selftest(corrupt_op=...)`` can break:
    those with a gradient check of their own."""
    return tuple(sorted({name for name, _, _ in op_gradcheck_cases()
                         if callable(getattr(ad, name, None))}))


def run_selftest(corrupt_op: str | None = None):
    """Run every check; returns a list of (name, passed, detail) tuples.

    ``corrupt_op``, one of ``corruptible_ops()``, deliberately breaks one
    op's backward rule for the duration of the run, to prove the harness
    catches bad gradients.
    """
    results = []
    if corrupt_op is not None:
        original = getattr(ad, corrupt_op)

        def corrupted(*args, **kwargs):
            out = original(*args, **kwargs)  # correct forward, wrong backward: drop the entry
            if out.graph is not None:  # recorded, so its entry is the tape's last
                out.graph.ops[-1] = (out, lambda _out: None)
            return out

        setattr(ad, corrupt_op, corrupted)
    try:
        for name, build, params in op_gradcheck_cases():
            report = ad.grad_check(build, params)
            results.append((f"op:{name}", report.passed,
                            f"max rel err {report.max_rel_error:.2e}"))
        for encoder_kind, variant in MODEL_GRADCHECK_PAIRS:
            report = model_gradcheck(encoder_kind, variant)
            results.append((f"model:{encoder_kind}+{variant}", report.passed,
                            f"max rel err {report.max_rel_error:.2e}"))
        for variant in VARIANTS:
            results.append((f"oracle:{variant}",
                            *head_oracle_check(variant, np.random.default_rng(0))))
        for kind in ENCODER_REFERENCES:
            results.append((f"fused:{kind}", *fused_encoder_check(kind)))
        results.append(("blas:stacked-rows", *blas_stacked_rows_check()))
    finally:
        if corrupt_op is not None:
            setattr(ad, corrupt_op, original)
    return results
