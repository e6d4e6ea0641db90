"""Run alternating pairs of ``perfbench/run.py`` on another git revision and
on this checkout, and write every run and the per-metric summary to JSON.

    python tools/bench_pairs.py --base <rev> --workload wide_vocab_train \
        --pairs 10 --seed 4 --out BENCH_<n>.json

``<rev>`` is exported with ``git archive <rev> | tar -x`` (the helper
``tools/parity.py`` uses) into a temporary directory; this checkout's
working tree is the change. Pair k runs both trees with seed ``--seed`` + k,
the base first in even pairs and the change first in odd ones, each from its
own tree's root, and reads the JSON object on the last line of stdout.
``--workload`` may be repeated; each workload gets its own pairs.

Per workload the output holds every run (side, seed, order, metrics,
``fail_ratio``, input hashes) and, per metric, the median of each side
with the base's quartiles, the number of pairs the change won (by the
metric's direction in ``BENCHMARK.json``), whether the change is better
in at least 9 of 10 pairs and in the median by more than the base's IQR,
and the median's relative change against the metric's bound. A metric
is ``unresolved`` when the base's IQR exceeds the bound (relative to the
base median) and the two sides' runs overlap: its median then shows
neither a gain nor a loss. It also says
whether ``dev_loss`` and ``attr_accuracy`` were equal in every pair, and it
records the host: CPU count, Python, numpy and its BLAS, and the thread
variables (``perfbench/run.py`` sets the BLAS ones to 1 itself). The file
is rewritten after every run. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from parity import REPO, export_revision

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EQUAL_METRICS = ("dev_loss", "attr_accuracy")
HASH_LINE = re.compile(r"^input_hash: (\S+)\s+corpus_hash: (\S+)$", re.MULTILINE)


NUMPY_PROBE = """
import json
import numpy as np
try:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas = {lib: {k: info.get(k) for k in ("name", "version", "openblas configuration")}
            for lib, info in deps.items()}
except Exception as e:  # numpy before 1.25 has no mode="dicts"
    blas = repr(e)
print(json.dumps({"numpy": np.__version__, "blas": blas}))
"""


def host_info() -> dict:
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE], capture_output=True, text=True)
    numpy_info = json.loads(proc.stdout) if proc.returncode == 0 else {"error": proc.stderr}
    return {"cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), **numpy_info,
            "thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES}}


def metric_directions() -> dict:
    """name -> (better, bound) for the end-to-end metrics of BENCHMARK.json."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=10 * seconds + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed in {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    hashes = HASH_LINE.search(proc.stdout)
    attempted = result["attempted"]
    return {"correct": result["correct"], "attempted": attempted, "failed": result["failed"],
            "fail_ratio": result["failed"] / attempted if attempted else 0.0,
            "input_hash": hashes.group(1) if hashes else None,
            "corpus_hash": hashes.group(2) if hashes else None,
            "wall_s": time.perf_counter() - started,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list, directions: dict) -> dict:
    pairs = sorted({r["pair"] for r in runs})
    by_side = {side: {r["pair"]: r for r in runs if r["side"] == side}
               for side in ("base", "change")}
    complete = [k for k in pairs if k in by_side["base"] and k in by_side["change"]]
    names = sorted({n for r in runs for n in r["metrics"]})
    metrics = {}
    for name in names:
        base = [by_side["base"][k]["metrics"][name] for k in complete]
        change = [by_side["change"][k]["metrics"][name] for k in complete]
        if not base:
            continue
        q1, q3 = quartiles(base)
        entry = {"base_median": statistics.median(base), "base_q1": q1, "base_q3": q3,
                 "change_median": statistics.median(change), "pairs": len(complete)}
        better, bound = directions.get(name, (None, None))
        if better in ("higher", "lower"):
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
            gain = sign * (entry["change_median"] - entry["base_median"])
            entry.update(better=better, change_better_pairs=wins,
                         clear_gain=wins >= 0.9 * len(complete) and gain > q3 - q1)
            if entry["base_median"]:
                rel = sign * (entry["change_median"] / entry["base_median"] - 1.0)
                entry.update(relative_gain=rel, bound=bound,
                             within_bound=bound is None or rel >= -bound)
                # the parent's own spread is wider than the bound, so a
                # median inside it says nothing, unless the runs do not overlap
                separated = all(sign * (c - b) > 0 for b in base for c in change)
                entry["unresolved"] = (bound is not None and not separated
                                       and (q3 - q1) / abs(entry["base_median"]) > bound)
        metrics[name] = entry
    equal = {name: all(by_side["base"][k]["metrics"].get(name)
                       == by_side["change"][k]["metrics"].get(name) for k in complete)
             for name in EQUAL_METRICS}
    return {
        "complete_pairs": len(complete),
        "metrics": metrics,
        "equal_in_every_pair": equal,
        "fail_ratio": {side: max((r["fail_ratio"] for r in by_side[side].values()), default=0.0)
                       for side in by_side},
        "all_correct": all(r["correct"] for r in runs),
        "input_hashes_equal": all(by_side["base"][k]["input_hash"]
                                  == by_side["change"][k]["input_hash"] for k in complete),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be at least 1 and --seed at least 0")

    def git(*cmd):
        return subprocess.run(["git", "-C", str(REPO), *cmd], capture_output=True,
                              text=True, check=True).stdout.strip()

    directions = metric_directions()
    report = {"base": args.base, "base_commit": git("rev-parse", args.base),
              "change_commit": git("rev-parse", "HEAD"),
              "change_has_uncommitted_edits": bool(git("status", "--porcelain",
                                                       "--untracked-files=no")),
              "pairs": args.pairs, "first_seed": args.seed, "seconds": args.seconds,
              "host": host_info(), "workloads": {}}
    out = Path(args.out)
    with tempfile.TemporaryDirectory(prefix="saam-bench-pairs-") as tmp:
        base_tree = Path(tmp) / "base"
        base_tree.mkdir()
        export_revision(args.base, base_tree)
        trees = {"base": base_tree, "change": REPO}
        for workload in args.workload:
            runs = []
            for k in range(args.pairs):
                seed = args.seed + k
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for position, side in enumerate(order):
                    run = run_once(trees[side], workload, seed, args.seconds)
                    runs.append({"pair": k, "seed": seed, "side": side, "order": position,
                                 **run})
                    print(f"{workload} pair {k} seed {seed} {side}: "
                          + ", ".join(f"{n} {run['metrics'][n]:.4g}"
                                      for n in ("train_docs_per_s", "predict_docs_per_s")
                                      if n in run["metrics"]), file=sys.stderr, flush=True)
                    report["workloads"][workload] = {"runs": runs,
                                                     **summarize(runs, directions)}
                    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, data in report["workloads"].items():
        for name, m in data["metrics"].items():
            if "change_better_pairs" in m:
                print(f"{workload} {name}: base {m['base_median']:.4g} "
                      f"[{m['base_q1']:.4g}, {m['base_q3']:.4g}] -> change "
                      f"{m['change_median']:.4g}, better in {m['change_better_pairs']}/"
                      f"{m['pairs']} pairs"
                      + (", unresolved: parent spread wider than the bound"
                         if m.get("unresolved") else ""))
        print(f"{workload}: equal {data['equal_in_every_pair']}, "
              f"fail_ratio {data['fail_ratio']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
