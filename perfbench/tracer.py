"""Outside-in tracing of the saam package for the benchmark's traced runs.

saam's modules import each other's names (``from .encoders import
encode_document``), so a layer is traced by replacing the name in every
saam module that holds it, and a method by replacing it on its class.
Nothing inside ``src/`` changes.

Each wrapper opens a frame on a stack. When the frame closes, its duration
counts as covered time of the enclosing frame, so a layer's self time is
its duration minus the part its child frames cover. Layer calls are kept
as spans (name, start, end, parent, document); autodiff ops, called
hundreds of times per document, only add to per-name totals, which keeps
memory bounded.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import sys
import time

# Public autodiff ops; each is looked up as ``ad.<op>`` at call time.
AUTODIFF_OPS = (
    "matmul", "outer", "transpose", "softmax_lastdim",
    "add", "sub", "mul", "div", "scale", "tanh", "sigmoid", "relu",
    "reduce_sum", "reduce_mean", "max_over_axis",
    "embedding_lookup", "reshape", "stack_rows", "slice_rows", "pad_rows", "concat",
    "cross_entropy", "squared_error",
)

# (defining module, function, span name) for layer functions traced as spans.
LAYER_FUNCTIONS = (
    ("saam.autodiff", "backward", "autodiff.backward"),
    ("saam.encoders", "encode_document", "encoders.encode_document"),
    ("saam.heads", "head_forward", "heads.head_forward"),
    ("saam.heads", "extract_attribution", "heads.extract_attribution"),
    ("saam.heads", "sentence_scalar_scores", "heads.sentence_scalar_scores"),
    ("saam.snippets", "extract_snippets", "snippets.extract_snippets"),
    ("saam.training", "train", "training.train"),
    ("saam.training", "document_loss", "training.document_loss"),
    ("saam.training", "clip_gradients", "training.clip_gradients"),
    ("saam.training", "save_checkpoint", "training.save_checkpoint"),
    ("saam.training", "load_checkpoint", "training.load_checkpoint"),
    ("saam.evaluation", "evaluate_model", "evaluation.evaluate_model"),
    ("saam.evaluation", "evaluate_attribution", "evaluation.evaluate_attribution"),
)

SAAM_MODULES = ("autodiff", "text", "encoders", "heads", "model", "training",
                "evaluation", "snippets", "selftest", "cli")

MAX_SPANS = 500_000


class Tracer:
    """Span stack, per-name totals and the counters read from the tape."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []          # (name, start_s, end_s, parent index, doc)
        self.dropped_spans = 0
        self.totals = {}         # name -> [calls, inclusive s, self s]
        self.doc = None          # sequence number of the latest model.forward call
        self._docs_started = 0
        self._stack = []         # [name, start, covered, span index, parent index]
        self._patches = []
        # tape and embedding counters, filled by the hooks below
        self.train_docs = 0
        self.train_tape_ops = 0
        self.train_tensors = 0
        self.predict_tape_ops = 0
        self.steps = 0
        self.step_embedding_bytes = 0
        self.step_touched_frac = 0.0
        self._fwd_probe_id = None
        self._doc_lookups = []   # (ids, table rows, table bytes) since the last forward
        self._step_ids = set()
        self._step_bytes = 0
        self._step_rows = 0

    # -- frames ------------------------------------------------------------

    def enter(self, name: str, keep: bool = True):
        parent = None
        if self._stack:
            top = self._stack[-1]
            parent = top[3] if top[3] is not None else top[4]
        index = None
        if keep:
            if len(self.spans) < MAX_SPANS:
                index = len(self.spans)
                self.spans.append(None)
            else:
                self.dropped_spans += 1
        frame = [name, time.perf_counter(), 0.0, index, parent]
        self._stack.append(frame)
        return frame

    def exit(self, frame) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, covered, index, parent = frame
        duration = end - start
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            self.spans[index] = (name, start - self.t0, end - self.t0, parent, self.doc)

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def total(self, name: str):
        """(calls, inclusive seconds, self seconds) for a span or op name."""
        return tuple(self.totals.get(name, (0, 0.0, 0.0)))

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, fn, name: str, keep: bool, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = tracer.enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _patch_everywhere(self, module_name: str, attr: str, traced) -> None:
        """Replace ``attr`` in every saam module that holds the same object."""
        original = getattr(sys.modules[module_name], attr)
        for short in SAAM_MODULES:
            module = sys.modules.get(f"saam.{short}")
            if module is not None and getattr(module, attr, None) is original:
                setattr(module, attr, traced)
                self._patches.append((module, attr, original))

    def _patch_method(self, cls, attr: str, traced) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, traced)

    def install(self) -> None:
        import saam.autodiff as ad
        import saam.model as model_mod
        import saam.training as training_mod

        self._tensor = ad.Tensor
        for module_name, attr, name in LAYER_FUNCTIONS:
            before = self._before_backward if name == "autodiff.backward" else None
            fn = getattr(sys.modules[module_name], attr)
            self._patch_everywhere(module_name, attr, self._wrap(fn, name, True, before))
        for op in AUTODIFF_OPS:
            before = self._before_lookup if op == "embedding_lookup" else None
            fn = getattr(ad, op)
            self._patch_everywhere("saam.autodiff", op,
                                   self._wrap(fn, f"autodiff.op.{op}", False, before))
        model_cls = model_mod.SaamModel
        self._patch_method(model_cls, "forward",
                           self._wrap(model_cls.__dict__["forward"], "model.forward", True,
                                      self._before_forward))
        self._patch_method(model_cls, "predict",
                           self._wrap(model_cls.__dict__["predict"], "model.predict", True,
                                      None, self._after_predict))
        # every workload trains with Adam
        adam = training_mod.Adam
        self._patch_method(adam, "step",
                           self._wrap(adam.__dict__["step"], "training.optimizer_step", True,
                                      None, self._after_step))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters read from outside the package --------------------------------

    def _before_forward(self, args, kwargs) -> None:
        # A probe tensor marks where this document's tensors start.
        self._fwd_probe_id = self._tensor(0.0).node_id
        self._doc_lookups = []
        self._docs_started += 1
        self.doc = self._docs_started

    def _before_lookup(self, args, kwargs) -> None:
        table, ids = args[0], args[1]
        if table.requires_grad:
            self._doc_lookups.append((list(ids), table.data.shape[0], table.data.nbytes))

    def _before_backward(self, args, kwargs) -> None:
        loss = args[0]
        graph = loss.graph
        self.train_docs += 1
        self.train_tape_ops += len(graph.ops) if graph is not None else 0
        if self._fwd_probe_id is not None:
            self.train_tensors += loss.node_id - self._fwd_probe_id
        # each recorded lookup allocates a table-sized gradient in backward
        for ids, rows, nbytes in self._doc_lookups:
            self._step_ids.update(ids)
            self._step_bytes += nbytes
            self._step_rows = rows
        self._doc_lookups = []

    def _after_predict(self, args, kwargs, result) -> None:
        preds = result[0]
        graph = preds.overall.graph
        self.predict_tape_ops += len(graph.ops) if graph is not None else 0

    def _after_step(self, args, kwargs, result) -> None:
        self.steps += 1
        self.step_embedding_bytes += self._step_bytes
        if self._step_rows:
            self.step_touched_frac += len(self._step_ids) / self._step_rows
        self._step_ids = set()
        self._step_bytes = 0

    # -- output ------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, doc = span
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "doc": doc}) + "\n")


class GcMonitor:
    """Cyclic-GC pause time and gen-2 collection count via ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self._start = None

    def _callback(self, phase, info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause_s += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, exc_type, exc, tb):
        gc.callbacks.remove(self._callback)
        return False
