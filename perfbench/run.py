"""saam benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload seq_train --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; saam is imported from ``src/``.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. Lines
before it are a human-readable summary. Scratch files go to
``.perfbench_work/`` (removed on exit); a traced run writes its spans to
``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Every matrix is tiny, so one BLAS thread; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Autodiff ops that every workload calls, so each traced run reports them.
COMMON_OPS = ("embedding_lookup", "matmul", "add", "outer", "softmax_lastdim", "transpose",
              "slice_rows", "reshape", "stack_rows", "pad_rows", "scale")


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    def span(self, name):
        return contextlib.nullcontext()

    def total(self, name):
        return 0, 0.0, 0.0


def import_saam():
    if not (SRC / "saam" / "__init__.py").is_file():
        raise SystemExit(f"error: no saam package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import saam
    if Path(saam.__file__).resolve().parent != (SRC / "saam").resolve():
        raise SystemExit(f"error: imported saam from {saam.__file__}, not {SRC}")
    import saam.cli  # noqa: F401  (the tracer patches names cli imported)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_metrics(workload, seed, work_dir):
    """Three passes of the same fixed work: untraced, traced, untraced."""
    import workloads as W
    from tracer import GcMonitor, Tracer

    def untraced_pass(name):
        start = time.perf_counter()
        outcome = W.run_pass(workload, seed, 0.0, work_dir / name, NullTracer())
        return outcome, time.perf_counter() - start

    faults = minor_faults()
    with GcMonitor() as gc_stats:
        plain, plain_s = untraced_pass("plain")
    faults = minor_faults() - faults

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        traced = W.run_pass(workload, seed, 0.0, work_dir / "traced", tracer)
    finally:
        tracer.uninstall()
    traced_s = time.perf_counter() - start
    # An untraced pass on each side of the traced one cancels warm-up and drift.
    after, after_s = untraced_pass("after")

    def incl(name):
        return tracer.total(name)[1]

    def self_s(name):
        return tracer.total(name)[2]

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    op_names = [n for n in tracer.totals if n.startswith("autodiff.op.")]
    m = {
        "encoders.encode_document.self_s": (self_s("encoders.encode_document"), "s"),
        "heads.head_forward.self_s": (self_s("heads.head_forward"), "s"),
        "training.document_loss.self_s": (self_s("training.document_loss"), "s"),
        "model.forward.self_s": (self_s("model.forward"), "s"),
        "autodiff.backward.s": (incl("autodiff.backward"), "s"),
        "training.optimizer_step.s": (incl("training.optimizer_step"), "s"),
        "training.optimizer_step.calls": (tracer.total("training.optimizer_step")[0], "count"),
        "training.clip_gradients.s": (incl("training.clip_gradients"), "s"),
        "training.train.s": (incl("training.train"), "s"),
        "autodiff.tape_ops_per_doc": (per(tracer.train_tape_ops, tracer.train_docs), "ops/doc"),
        "autodiff.tensors_per_doc": (per(tracer.train_tensors, tracer.train_docs), "tensors/doc"),
        "autodiff.embedding_grad_bytes_per_step":
            (per(tracer.step_embedding_bytes, tracer.steps), "B/step"),
        "embedding.touched_row_frac": (per(tracer.step_touched_frac, tracer.steps), "fraction"),
        "autodiff.ops.calls": (sum(tracer.total(n)[0] for n in op_names), "count"),
        "autodiff.ops.self_s": (sum(self_s(n) for n in op_names), "s"),
    }
    for op in COMMON_OPS:
        calls, _, op_self = tracer.total(f"autodiff.op.{op}")
        m[f"autodiff.op.{op}.calls"] = (calls, "count")
        m[f"autodiff.op.{op}.self_s"] = (op_self, "s")
    m.update({
        "model.predict.s": (incl("model.predict"), "s"),
        "model.predict.tape_ops_per_doc":
            (per(tracer.predict_tape_ops, tracer.total("model.predict")[0]), "ops/doc"),
        "heads.extract_attribution.s": (incl("heads.extract_attribution"), "s"),
        "heads.sentence_scalar_scores.s": (incl("heads.sentence_scalar_scores"), "s"),
        "snippets.extract_snippets.s": (incl("snippets.extract_snippets"), "s"),
        "evaluation.evaluate_model.s": (incl("evaluation.evaluate_model"), "s"),
        "evaluation.evaluate_attribution.s": (incl("evaluation.evaluate_attribution"), "s"),
        "evaluation.predict_calls_per_doc":
            (per(traced.eval_predict_calls, traced.eval_docs), "calls/doc"),
        "cli.eval.s": (incl("cli.eval"), "s"),
        "text.corpus_build_s": (incl("text.corpus_build"), "s"),
        "training.save_checkpoint.s": (incl("training.save_checkpoint"), "s"),
        "training.load_checkpoint.s": (incl("training.load_checkpoint"), "s"),
        "py.gc_pause_s": (gc_stats.pause_s, "s"),
        "py.gc_collections.gen2": (gc_stats.collections[2], "count"),
        "proc.minor_faults": (faults, "count"),
        "trace.overhead_ratio": (2.0 * traced_s / (plain_s + after_s), "ratio"),
        "trace.unattributed_s":
            (sum(self_s(n) for n in tracer.totals if n.startswith("bench.")), "s"),
    })

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    print(f"spans kept: {sum(1 for s in tracer.spans if s)}, dropped: {tracer.dropped_spans}")
    print(f"untraced pass {plain_s:.3f} s, traced pass {traced_s:.3f} s, "
          f"untraced pass {after_s:.3f} s")
    phase_s = sum(incl(n) for n in tracer.totals if n.startswith("bench."))
    print("self time by layer (traced pass):")
    for name, (calls, inclusive, own) in sorted(tracer.totals.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:42s} calls {calls:8d}  self {own:9.4f} s "
              f"({100.0 * own / phase_s:5.1f}%)  incl {inclusive:9.4f} s")
    print_phase_split(tracer)
    return m, [plain, traced, after]


PHASE_LAYERS = ("model.predict", "encoders.encode_document", "heads.head_forward",
                "training.document_loss", "autodiff.backward", "training.optimizer_step",
                "training.clip_gradients", "heads.extract_attribution",
                "heads.sentence_scalar_scores", "snippets.extract_snippets", "cli.eval")


def print_phase_split(tracer) -> None:
    """Inclusive time of the main layers within each benchmark phase."""
    root = {}
    for i, span in enumerate(tracer.spans):
        if span is not None:
            name, _, _, parent, _ = span
            root[i] = name if parent is None else root[parent]
    phases = {}
    for i, span in enumerate(tracer.spans):
        if span is not None:
            name, start, end, _, _ = span
            phases.setdefault(root[i], {}).setdefault(name, 0.0)
            phases[root[i]][name] += end - start
    for phase, layers in phases.items():
        total = layers[phase]
        split = ", ".join(f"{n} {100.0 * layers[n] / total:.1f}%"
                          for n in PHASE_LAYERS if n in layers)
        print(f"{phase} {total:.3f} s: {split}")


def untraced_metrics(workload, seed, seconds, work_dir):
    import workloads as W
    outcome = W.run_pass(workload, seed, seconds, work_dir, NullTracer())
    m = W.end_to_end(outcome)
    m["peak_rss_mb"] = (peak_rss_mb(), "MB")
    print(f"samples: train reps {len(outcome.train_units)}, predict docs "
          f"{len(outcome.predict_latencies_s)} ({len(outcome.predict_units)} chunks), "
          f"eval reps {len(outcome.eval_units)}, set-ups {len(outcome.setup_s)}")
    return m, [outcome]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be at least 0")

    import_saam()
    import workloads as W
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(W.WORKLOADS)}")
    workload = W.WORKLOADS[args.workload]

    work_dir = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, outcomes = traced_metrics(workload, args.seed, work_dir)
        else:
            metrics, outcomes = untraced_metrics(workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # only when no other run is using it

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = all(o.correct for o in outcomes)
    print(f"workload: {workload.name}  seed: {args.seed}  trace: {args.trace}")
    print(f"input_hash: {outcomes[0].input_hash}  corpus_hash: {outcomes[0].corpus_hash}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(f"fail_ratio: {failed / attempted if attempted else 0.0} (failed/attempted, "
          f"{failed}/{attempted})")
    for o in outcomes:
        for problem in o.problems:
            print(f"problem: {problem}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
