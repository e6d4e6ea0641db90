"""Check that this checkout trains, checkpoints and predicts byte for byte
like another git revision.

    python tools/parity.py --base <rev>

``<rev>`` is exported with ``git archive <rev> | tar -x`` into a temporary
directory (no checkout, no worktree). ``tools/parity_driver.py`` then runs
once under each tree's ``src/`` in a subprocess, over a matrix of small
trainings: mean, CNN (widths 2, 3, 5), CNN with one width wider than every
sentence, and GRU encoders at e=6, plus CNN (100 filters per width) and
GRU (hidden 32) encoders at the library's e=32, x C1/C2/R/flat-c/flat-r
heads x hard/soft attribution masks x ``t_max`` 7 and 4, on two corpora:
six-token sentences, and the same documents made ragged (see
``parity_driver.ragged``). For each configuration it compares SHA-256
digests of the checkpoint bytes, the training history and every
``predict`` output and attribution array. Exit status 0 when every digest
matches; otherwise 1, naming the first configuration that differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DRIVER = Path(__file__).resolve().parent / "parity_driver.py"

ENCODERS = {
    "mean": {"kind": "mean", "embedding_dim": 6},
    "cnn": {"kind": "cnn", "embedding_dim": 6, "cnn_filter_widths": [2, 3, 5],
            "cnn_filters_per_width": 3},
    "cnn-wide": {"kind": "cnn", "embedding_dim": 6, "cnn_filter_widths": [8],
                 "cnn_filters_per_width": 3},
    "gru": {"kind": "gru", "embedding_dim": 6, "gru_hidden": 5},
    # the library's sizes, where CNN products reach K = 5 * 32 = 160
    "cnn-e32": {"kind": "cnn", "embedding_dim": 32, "cnn_filters_per_width": 100},
    "gru-e32": {"kind": "gru", "embedding_dim": 32, "gru_hidden": 32},
}
VARIANTS = ("C1", "C2", "R", "flat-c", "flat-r")
CORPORA = ("regular", "ragged")


def matrix() -> list:
    """[name, corpus, TrainConfig dict] triples, in the order they are compared."""
    return [[f"{corpus}/{enc}+{variant}/{mask}/t_max={t_max}", corpus,
             {"variant": variant, "encoder": encoder, "n_aspects": 2, "s_max": 4,
              "t_max": t_max, "lr": 0.05, "batch_size": 4, "max_epochs": 2, "patience": 2,
              "seed": 3, "attribution_mask_mode": mask}]
            for corpus in CORPORA for enc, encoder in ENCODERS.items() for variant in VARIANTS
            for mask in ("hard", "soft") for t_max in (7, 4)]


def run_driver(src: Path, configs: list, cwd: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, str(DRIVER)], input=json.dumps(configs),
                          capture_output=True, text=True, env=env, cwd=cwd)
    if proc.returncode != 0:
        raise RuntimeError(f"driver failed under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def export_revision(rev: str, dest: Path) -> None:
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", rev], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"could not export revision {rev!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    configs = matrix()
    with tempfile.TemporaryDirectory(prefix="saam-parity-") as tmp:
        base_tree = Path(tmp) / "base"
        base_tree.mkdir()
        export_revision(args.base, base_tree)
        base = run_driver(base_tree / "src", configs, tmp)
        head = run_driver(REPO / "src", configs, tmp)
    compared = 0
    for name, _, _ in configs:
        differing = sorted(k for k in base[name].keys() | head[name].keys()
                           if base[name].get(k) != head[name].get(k))
        if differing:
            print(f"differs: {name}: {', '.join(differing[:5])}"
                  + (f" and {len(differing) - 5} more" if len(differing) > 5 else ""))
            return 1
        compared += len(base[name])
    print(f"no difference from {args.base}: {len(configs)} configurations, "
          f"{compared} digests compared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
