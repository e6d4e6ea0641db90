"""Plain allocating forms of two training-path operations, kept separate
from the package code so the two routes can disagree: an embedding lookup
that scatters a table-sized gradient per lookup, and an Adam update that
builds a new array per expression. The head oracles live in
``saam.oracles``.
"""

import numpy as np

from saam import autodiff as ad


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
