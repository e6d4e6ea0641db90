"""Independent reference implementations the package code is checked against.

The head oracles compute everything with explicit python loops over
sentences, attribution slots, features, and classes; no outer products, no
matrix aggregation. The embedding lookup and Adam step oracles are the plain
allocating forms of those two training-path operations: a table-sized
gradient scatter per lookup, and an Adam update that builds a new array
per expression. They stay deliberately separate from the package code so
the two routes can disagree.
"""

import numpy as np

from saam import autodiff as ad
from saam.encoders import SentenceEmbeddingMatrix
from saam.heads import HeadConfig, init_head_params


def softmax_np(x):
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def embed(rows, s_max=None):
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    total = n if s_max is None else s_max
    values = np.zeros((total, rows.shape[1]))
    values[:n] = rows
    mask = [True] * n + [False] * (total - n)
    return SentenceEmbeddingMatrix(ad.constant(values), mask)


def random_head_instance(rng, variant, n_aspects=2, n_classes=3, d=5, s_max=4, n_real=None):
    config = HeadConfig(variant, n_aspects=n_aspects, feature_dim=d, s_max=s_max,
                        n_classes=n_classes)
    params = init_head_params(config, rng)
    for p in params.values():
        p.data[...] = rng.normal(scale=0.8, size=p.shape)
    n = n_real if n_real is not None else int(rng.integers(1, s_max + 1))
    u = embed(rng.normal(size=(n, d)), s_max=s_max)
    return config, params, u, n


def loop_oracle_classification(u_rows, params, config):
    """Explicit loops over sentences, aspect slots, and classes."""
    n = len(u_rows)
    k = config.n_attribution_slots
    c = config.n_classes
    w_s, b_s = params["head.w_score"].data, params["head.b_score"].data
    w_a, b_a = params["head.w_attr"].data, params["head.b_attr"].data
    sums = np.zeros((k, c))
    for i in range(n):
        t = u_rows[i]
        score_i = np.array([sum(t[x] * w_s[x, cc] for x in range(len(t))) + b_s[cc]
                            for cc in range(c)])
        logits_i = np.array([sum(t[x] * w_a[x, j] for x in range(len(t))) + b_a[j]
                             for j in range(k)])
        aspect_i = softmax_np(logits_i)
        for j in range(k):
            for cc in range(c):
                sums[j, cc] += aspect_i[j] * score_i[cc]
    dists = np.stack([softmax_np(sums[j]) for j in range(k)])
    if config.variant == "C1":
        w_o, b_o = params["head.w_overall"].data, params["head.b_overall"].data
        flat = np.zeros(config.s_max * config.feature_dim)
        flat[:n * config.feature_dim] = np.concatenate(u_rows)
        overall = softmax_np(flat @ w_o + b_o[0])
    else:
        overall = dists[config.n_aspects]
    return overall, [dists[j] for j in range(config.n_aspects)]


def weighted_average_oracle(u_rows, params, config):
    """Scalar scores combined per aspect as an explicit weighted average."""
    n = len(u_rows)
    w_s, b_s = params["head.w_score"].data, params["head.b_score"].data
    w_a, b_a = params["head.w_attr"].data, params["head.b_attr"].data
    scores = [float(np.dot(u_rows[i], w_s[:, 0]) + b_s[0]) for i in range(n)]
    weights = [softmax_np(u_rows[i] @ w_a + b_a) for i in range(n)]
    per_aspect = []
    for j in range(config.n_aspects):
        num = sum(weights[i][j] * scores[i] for i in range(n))
        den = sum(weights[i][j] for i in range(n)) + config.epsilon
        per_aspect.append(num / den)
    w_o, b_o = params["head.w_overall"].data, params["head.b_overall"].data
    total = sum(float(np.dot(w_o[i], u_rows[i])) for i in range(n))
    overall = (total + float(b_o)) / n
    return overall, per_aspect


def flat_loop_oracle(u_rows, params, config):
    """Flat baselines: one dense output per rating, summed with explicit loops
    over sentences, features and classes (the overall output first)."""
    n = len(u_rows)
    d = config.feature_dim
    outputs = []
    for t in range(config.n_aspects + 1):
        w, b = params[f"head.w_flat{t}"].data, params[f"head.b_flat{t}"].data
        if config.variant == "flat-c":
            # row i of the flattened matrix holds sentence i's features; pads add zero
            logits = np.array([sum(u_rows[i][x] * w[i * d + x, cc]
                                   for i in range(n) for x in range(d)) + b[0, cc]
                               for cc in range(config.n_classes)])
            outputs.append(softmax_np(logits))
        else:
            total = sum(u_rows[i][x] * w[i, x] for i in range(n) for x in range(d))
            outputs.append((total + float(b)) / n)
    return outputs[0], outputs[1:]


def dense_scatter_embedding_lookup(table, ids):
    """``ad.embedding_lookup`` with a table-sized gradient scatter per lookup."""
    idx = np.asarray([int(i) for i in ids], dtype=np.intp)
    out_data = table.data[idx] if idx.size else np.zeros((0, table.shape[1]))

    def backward_fn(out):
        g = np.zeros_like(table.data)
        np.add.at(g, idx, out.grad)
        ad._accumulate(table, g)

    return ad._make(out_data, (table,), backward_fn, "embedding_lookup")


def allocating_adam_step(opt):
    """``Adam.step`` written as whole-array expressions, each allocating its result."""
    opt.t += 1
    b1t = 1.0 - opt.beta1 ** opt.t
    b2t = 1.0 - opt.beta2 ** opt.t
    for name, p in opt.params.items():
        if p.grad is None:
            continue
        g = p.grad
        opt.m[name] = opt.beta1 * opt.m[name] + (1.0 - opt.beta1) * g
        opt.v[name] = opt.beta2 * opt.v[name] + (1.0 - opt.beta2) * (g * g)
        m_hat = opt.m[name] / b1t
        v_hat = opt.v[name] / b2t
        p.data -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)
