"""The three benchmark workloads and the phases they run.

Inputs come from ``generate_synthetic_corpus``: the training and dev
documents from a fixed seed, the held-out documents from one derived from
the seed the run is given. saam is driven through its public functions only:

* set-up: build the corpora and vocabulary, write a prepared data directory
  (and, for ``serve_predict``, train, save and load a checkpoint); repeated
  through the run for ``setup_s``;
* train: repeated ``train`` calls on the training split (not in
  ``serve_predict``); the first saves and loads the checkpoints;
* predict: a one-caller closed loop over the held-out documents doing what
  ``saam attribute`` and ``saam snippets`` do per document;
* eval: in-process ``saam eval --attribution-labels`` over the first held-out
  documents.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import saam
from saam import cli
from saam import encoders as E
from saam import evaluation as EV
from saam import heads as H
from saam import snippets as S
from saam import text as T
from saam import training as TR

N_ASPECTS = 4
TOKENS_PER_SENTENCE = 9        # keywords; the generator adds one sentiment token
MODEL_SEED = 0
# Model sizes, learning rate (Adam, 0.01) and batch size (16) are the
# library's defaults, with ROADMAP's e=32 for the sequence encoders. Clipping
# at 5 (the GRU default) is set for every model, so that clip_gradients runs
# on the wide table too.
GRAD_CLIP = 5.0
MIN_TRAIN_UNITS = 3
# Training and dev documents are the same for every --seed, so dev_loss,
# attr_accuracy and the trained models repeat exactly; --seed picks the
# held-out documents that prediction and evaluation run on. They come from
# generator seed --seed + 1, and --seed is at least 0, so held-out documents
# never replay the training stream.
FIT_SEED = 0
MIN_PREDICT_DOCS = 1000        # p99 then has at least ten samples beyond it
PREDICT_CHUNK = 100            # documents per throughput sample
SUM_TOL = 1e-12
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class ModelSpec:
    label: str
    variant: str
    encoder: dict               # EncoderConfig fields except vocab_size


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple               # every model trains on, and serves, each document
    keywords_per_aspect: int
    sentences_per_aspect: int
    n_train: int
    n_dev: int
    n_test: int                 # held-out documents; the predict loop cycles over them
    n_eval: int                 # leading held-out documents the eval phase scores
    shares: tuple               # set-up, train, predict, eval share of --seconds
    epochs: int = 1
    vocab_types: int = 0        # pad the vocabulary with unused types up to this many
    train_in_setup: bool = False
    # A setup_s sample is the mean time of builds_per_sample complete set-ups,
    # so that each lasts about a second or more and spans both of the host's
    # speed states, which last about 0.5-2 s each: a median of samples that
    # each saw one state jumps between them. At least min_setup_samples.
    builds_per_sample: int = 1
    min_setup_samples: int = 5


CNN = {"kind": "cnn", "embedding_dim": 32}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="seq_train",
        models=(ModelSpec("gru+R", "R", {"kind": "gru", "embedding_dim": 32}),
                ModelSpec("cnn+C2", "C2", CNN)),
        keywords_per_aspect=30, sentences_per_aspect=1,
        n_train=48, n_dev=32, n_test=500, n_eval=32,
        builds_per_sample=10, shares=(0.15, 0.15, 0.57, 0.13)),
    Workload(
        name="wide_vocab_train",
        models=(ModelSpec("mean+C1", "C1", {"kind": "mean", "embedding_dim": 100}),),
        keywords_per_aspect=50, sentences_per_aspect=2,
        n_train=128, n_dev=64, n_test=500, n_eval=200, vocab_types=20000,
        builds_per_sample=3, shares=(0.15, 0.45, 0.20, 0.20)),
    Workload(
        name="serve_predict",
        models=(ModelSpec("cnn+R", "R", CNN),),
        keywords_per_aspect=4, sentences_per_aspect=1,
        n_train=64, n_dev=32, n_test=500, n_eval=200, epochs=8,
        train_in_setup=True, min_setup_samples=3, shares=(0.45, 0.0, 0.35, 0.20)),
)}


# ---------------------------------------------------------------------------
# results and correctness
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one pass over a workload measured and checked."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    # (documents, seconds) per unit; a rate is all documents over all seconds
    train_units: list = field(default_factory=list)
    predict_latencies_s: list = field(default_factory=list)
    predict_units: list = field(default_factory=list)
    eval_units: list = field(default_factory=list)
    dev_losses: list = field(default_factory=list)
    attr_accuracy: list = field(default_factory=list)
    eval_docs: int = 0
    eval_predict_calls: int = 0
    input_hash: str = ""
    corpus_hash: str = ""

    def fail(self, docs: int, problem: str) -> None:
        self.failed += docs
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def prediction_problems(model, preds, attribution, n_sentences: int) -> list:
    """Correctness gate for one prediction: normalisation and finiteness."""
    problems = []
    rows = attribution.aspect_dist
    if rows.shape[0] != n_sentences:
        problems.append(f"{rows.shape[0]} attribution rows for {n_sentences} sentences")
    elif np.any(np.abs(rows.sum(axis=1) - 1.0) > SUM_TOL):
        problems.append("attribution row does not sum to 1")
    outputs = [preds.overall] + list(preds.per_aspect)
    if model.kind == "classification":
        for dist in outputs:
            if not np.all(np.isfinite(dist.data)) or abs(float(dist.data.sum()) - 1.0) > SUM_TOL:
                problems.append("class distribution does not sum to 1")
                break
    elif not all(math.isfinite(float(t.data)) for t in outputs):
        problems.append("non-finite regression output")
    return problems


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    vocab: object
    aspect_names: list
    splits: dict
    data_dir: Path
    input_hash: str
    corpus_hash: str
    models: list = field(default_factory=list)      # (spec, SaamModel) after load
    checkpoints: list = field(default_factory=list)  # paths
    history: list = field(default_factory=list)      # per model, from train


def _aspect_vocabularies(workload: Workload):
    names = [f"aspect{i + 1}" for i in range(N_ASPECTS)]
    vocabularies = [[f"kw{a}_{k}" for k in range(workload.keywords_per_aspect)]
                    for a in range(N_ASPECTS)]
    return names, vocabularies


def _input_hash(records, lexicon, seed: int) -> tuple:
    """(hash of inputs and settings, hash of the generated documents alone)."""
    corpus = hashlib.sha256(json.dumps(records, sort_keys=True).encode("utf-8"))
    corpus.update(" ".join(lexicon).encode("utf-8"))
    full = hashlib.sha256(corpus.digest())
    settings = {
        "seed": seed, "saam": saam.__version__, "numpy": np.__version__,
        "python": platform.python_version(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    full.update(json.dumps(settings, sort_keys=True).encode("utf-8"))
    return full.hexdigest(), corpus.hexdigest()


def _train_config(spec: ModelSpec, workload: Workload, vocab_size: int):
    encoder = E.EncoderConfig(vocab_size=vocab_size, **spec.encoder)
    return TR.TrainConfig(
        variant=spec.variant, encoder=encoder, n_aspects=N_ASPECTS,
        s_max=N_ASPECTS * workload.sentences_per_aspect, t_max=TOKENS_PER_SENTENCE + 1,
        max_epochs=workload.epochs,
        patience=workload.epochs, seed=MODEL_SEED, grad_clip=GRAD_CLIP)


def _generate(workload: Workload, n_docs: int, seed: int) -> list:
    names, vocabularies = _aspect_vocabularies(workload)
    return T.generate_synthetic_corpus(
        n_aspects=N_ASPECTS, n_docs=n_docs, seed=seed,
        tokens_per_sentence=TOKENS_PER_SENTENCE,
        sentences_per_aspect=workload.sentences_per_aspect,
        aspect_names=names, aspect_vocabularies=vocabularies)


def build_setup(workload: Workload, seed: int, work_dir: Path, tracer) -> Setup:
    """Training and dev documents from FIT_SEED, held-out documents from ``seed`` + 1."""
    names, vocabularies = _aspect_vocabularies(workload)
    with tracer.span("text.corpus_build"):
        fit_records = _generate(workload, workload.n_train + workload.n_dev, FIT_SEED)
        held_out_records = _generate(workload, workload.n_test, seed + 1)
        # The vocabulary covers every keyword, and for wide_vocab_train types
        # no document uses, as a vocabulary built over a larger corpus does.
        sentences = [s for rec in fit_records for s in rec["sentences"]]
        keywords = [token for words in vocabularies for token in words]
        known = {token for s in sentences for token in s.split()}.union(keywords)
        lexicon = keywords + [f"bg{k}" for k in range(max(workload.vocab_types - len(known), 0))]
        vocab = T.build_vocabulary(sentences + [" ".join(lexicon)])
        if workload.vocab_types and vocab.size - 2 != workload.vocab_types:
            raise RuntimeError(f"vocabulary has {vocab.size - 2} types, "
                               f"not {workload.vocab_types}")
        aspects = T.aspect_names_from_records(fit_records)
        splits = T.split_corpus(T.docs_from_records(fit_records, vocab, aspects), seed=FIT_SEED,
                                dev_size=workload.n_dev, train_fraction=1.0)
        splits["test"] = T.docs_from_records(held_out_records, vocab, aspects)
    sizes = {k: len(v) for k, v in splits.items()}
    if sizes != {"train": workload.n_train, "dev": workload.n_dev, "test": workload.n_test}:
        raise RuntimeError(f"unexpected split sizes {sizes}")
    input_hash, corpus_hash = _input_hash(fit_records + held_out_records, lexicon, seed)

    data_dir = work_dir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    T.write_corpus(held_out_records[:workload.n_eval], data_dir / "test.jsonl")
    vocab.save(data_dir / "vocab.tsv")
    (data_dir / "aspects.json").write_text(json.dumps(names) + "\n", encoding="utf-8")
    return Setup(vocab, names, splits, data_dir, input_hash, corpus_hash)


def train_models(workload: Workload, setup: Setup, outcome: Outcome, save: bool) -> None:
    """One train call per model; a training document counts once for all the
    workload's models."""
    elapsed = 0.0
    splits = {"train": setup.splits["train"], "dev": setup.splits["dev"]}
    n = workload.n_train * workload.epochs
    outcome.attempted += n
    for i, spec in enumerate(workload.models):
        config = _train_config(spec, workload, setup.vocab.size)
        start = time.perf_counter()
        try:
            checkpoint, history = TR.train(config, splits, vocab_hash=setup.vocab.content_hash())
        except (ArithmeticError, ValueError) as e:
            outcome.fail(n, f"{spec.label}: train raised {e!r}")
            return
        elapsed += time.perf_counter() - start
        losses = [h[k] for h in history for k in ("train_loss", "dev_loss")]
        if len(history) != workload.epochs or not all(math.isfinite(v) for v in losses):
            outcome.fail(n, f"{spec.label}: non-finite loss or early stop in {history}")
        if len(setup.history) <= i:
            setup.history.append(history)
        elif history != setup.history[i]:
            outcome.problems.append(f"{spec.label}: same-seed training gave another history")
        if save:
            path = setup.data_dir.parent / f"model{i}.ckpt"
            TR.save_checkpoint(checkpoint, path)
            setup.checkpoints.append(path)
    outcome.train_units.append((n, elapsed))


def load_models(workload: Workload, setup: Setup) -> None:
    expect = setup.vocab.content_hash()
    setup.models = [(spec, TR.load_checkpoint(path, expect_vocab_hash=expect).build_model())
                    for spec, path in zip(workload.models, setup.checkpoints)]


def setup_sample(workload: Workload, seed: int, work_dir: Path, outcome: Outcome,
                 tracer) -> list:
    """One setup_s sample: ``builds_per_sample`` complete set-ups from scratch."""
    builds = []
    start = time.perf_counter()
    for _ in range(workload.builds_per_sample):
        with tracer.span("bench.setup"):
            current = build_setup(workload, seed, work_dir / f"setup{len(outcome.setup_s)}-"
                                  f"{len(builds)}", tracer)
            if workload.train_in_setup:
                train_models(workload, current, outcome, save=True)
                load_models(workload, current)
        builds.append(current)
    outcome.setup_s.append((time.perf_counter() - start) / workload.builds_per_sample)
    return builds


# ---------------------------------------------------------------------------
# timed phases
# ---------------------------------------------------------------------------

def serve_document(model, doc, aspect_names, aspect: str):
    """What ``saam attribute`` and ``saam snippets`` do for one document."""
    preds, attribution = model.predict(doc.sentences)
    labels = H.extract_attribution(attribution, aspect_names)
    scores = H.sentence_scalar_scores(attribution)
    found = S.extract_snippets(doc, attribution, aspect_names, aspect,
                               polarity="lowest", tau=S.DEFAULT_TAU, top_k=1)
    return preds, attribution, labels, scores, found


class TimedPhases:
    """The set-up, train, predict and eval phases, run as interleaved units.

    Each phase gets its share of ``--seconds`` (and at least its minimum
    number of units), and the next unit always goes to the phase furthest
    behind, so every metric samples the whole run: a slow stretch of a
    shared host weighs on all metrics alike, not on whichever phase ran in
    it.
    """

    def __init__(self, workload: Workload, seed: int, work_dir: Path, outcome: Outcome,
                 tracer):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.outcome = outcome
        self.tracer = tracer
        self.setup = None
        self.setup_unit()
        self.requests = 0
        self.predicted = [[] for _ in workload.models]
        self.eval_accuracies = []   # per eval unit, per model

    def setup_unit(self) -> None:
        """One setup_s sample. The first set-up serves the other phases; every
        later one must reproduce its inputs (and set-up training), and is removed."""
        for current in setup_sample(self.workload, self.seed, self.work_dir, self.outcome,
                                    self.tracer):
            if self.setup is None:
                self.setup = current
                continue
            if current.input_hash != self.setup.input_hash:
                self.outcome.problems.append("same seed generated different inputs")
            if self.workload.train_in_setup and current.history != self.setup.history:
                self.outcome.problems.append("same-seed set-up training gave another history")
            shutil.rmtree(current.data_dir.parent)

    def train_unit(self) -> None:
        with self.tracer.span("bench.train"):
            save = not self.setup.checkpoints
            train_models(self.workload, self.setup, self.outcome, save=save)
            if save:
                load_models(self.workload, self.setup)

    def predict_unit(self) -> None:
        """PREDICT_CHUNK requests of a one-caller closed loop: request k serves
        held-out document k % n_test with every model of the workload."""
        docs = self.setup.splits["test"]
        names = self.setup.aspect_names
        outcome = self.outcome
        chunk_start = time.perf_counter()
        with self.tracer.span("bench.predict"):
            for k in range(self.requests, self.requests + PREDICT_CHUNK):
                doc = docs[k % len(docs)]
                outcome.attempted += 1
                problems = []
                start = time.perf_counter()
                for m, (spec, model) in enumerate(self.setup.models):
                    try:
                        preds, attribution, labels, scores, found = serve_document(
                            model, doc, names, names[k % len(names)])
                    except (ArithmeticError, ValueError, IndexError) as e:
                        problems.append(f"{spec.label}: predict raised {e!r}")
                        continue
                    problems += prediction_problems(model, preds, attribution, doc.n_sentences)
                    if len(labels) != doc.n_sentences or not np.all(np.isfinite(scores)):
                        problems.append(f"{spec.label}: attribution labels or scores malformed")
                    if any(s.weight < S.DEFAULT_TAU for s in found):
                        problems.append(f"{spec.label}: snippet below the attribution threshold")
                    if k < self.workload.n_eval:
                        self.predicted[m].extend(label for label, _ in labels)
                outcome.predict_latencies_s.append(time.perf_counter() - start)
                if problems:
                    outcome.fail(1, f"{doc.doc_id}: {problems[0]}")
        self.requests += PREDICT_CHUNK
        outcome.predict_units.append((PREDICT_CHUNK, time.perf_counter() - chunk_start))

    def eval_unit(self) -> None:
        """In-process ``saam eval --attribution-labels`` for each model."""
        setup = self.setup
        outcome = self.outcome
        n = self.workload.n_eval
        outcome.attempted += n
        problems = []
        accuracies = []
        elapsed = 0.0
        with self.tracer.span("bench.eval"):
            for i, path in enumerate(setup.checkpoints):
                out_dir = setup.data_dir.parent / f"eval{i}"
                argv = ["eval", "--checkpoint", str(path), "--data", str(setup.data_dir),
                        "--split", "test", "--out", str(out_dir),
                        "--attribution-labels", str(setup.data_dir / "test.jsonl")]
                predict_calls = self.tracer.total("model.predict")[0]
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err, \
                        self.tracer.span("cli.eval"):
                    code = cli.main(argv)
                elapsed += time.perf_counter() - start
                outcome.eval_predict_calls += self.tracer.total("model.predict")[0] - predict_calls
                outcome.eval_docs += n
                if code != cli.EXIT_OK:
                    problems.append(f"eval exited {code}: {err.getvalue().strip()}")
                    continue
                report = json.loads((out_dir / "report-test.json").read_text())
                values = [v for t in report["targets"].values() for v in t.values()
                          if v is not None]
                accuracies.append(report.get("attribution_accuracy"))
                if (report["n_documents"] != n or accuracies[-1] is None
                        or not all(math.isfinite(v) for v in values)):
                    problems.append(f"eval report malformed: {report}")
        if problems:
            outcome.fail(n, problems[0])
        self.eval_accuracies.append(accuracies)
        outcome.eval_units.append((n, elapsed))

    def run(self, seconds: float) -> None:
        """Run for ``seconds``, counting the set-up made on construction; 0 runs
        fixed work instead: that set-up, one train unit, one pass over the
        held-out documents and one eval unit."""
        workload = self.workload
        setup_share, train_share, predict_share, eval_share = workload.shares
        if seconds:
            min_setup, min_train = workload.min_setup_samples, MIN_TRAIN_UNITS
            min_predict = MIN_PREDICT_DOCS
        else:
            min_setup, min_train, min_predict = 1, 1, workload.n_test
        # (unit, time budget, minimum units); training comes before predict
        # and eval, so its first unit saves the checkpoints they load
        phases = [(self.setup_unit, setup_share * seconds, min_setup)]
        if not workload.train_in_setup:
            phases.append((self.train_unit, train_share * seconds, min_train))
        phases += [(self.predict_unit, predict_share * seconds,
                    math.ceil(min_predict / PREDICT_CHUNK)),
                   (self.eval_unit, eval_share * seconds, 1)]
        spent = [workload.builds_per_sample * self.outcome.setup_s[0]] + [0.0] * (len(phases) - 1)
        done = [1] + [0] * (len(phases) - 1)
        while True:
            behind = []
            for i, (_, budget, minimum) in enumerate(phases):
                # another unit while, at the pace so far, it would end less
                # than half a unit past the budget
                pace = spent[i] / done[i] if done[i] else 0.0
                if done[i] < minimum or spent[i] + pace / 2 < budget:
                    # expected total: the budget, or the minimum at the pace so far
                    target = max(budget, minimum * pace)
                    behind.append((spent[i] / target if target else 0.0, i))
            if not behind:
                break
            _, i = min(behind)
            start = time.perf_counter()
            phases[i][0]()
            spent[i] += time.perf_counter() - start
            done[i] += 1
        self._finish()

    def _finish(self) -> None:
        """Every eval report must match the attribution accuracy of the predict
        loop's labels for the documents it scored. The reported attr_accuracy
        is that of the dev documents, which, like dev_loss, are the same for
        every --seed: over the held-out documents it moved with the seed by a
        binomial spread of up to 9% between seeds."""
        docs = self.setup.splits["test"]
        outcome = self.outcome
        gold = [label for doc in docs[:self.workload.n_eval] for label in doc.sentence_labels]
        expected = [EV.attribution_accuracy(p[:len(gold)], gold) for p in self.predicted]
        for reported in self.eval_accuracies:
            if any(r is None or abs(r - e) > 1e-6 for r, e in zip(reported, expected)):
                outcome.problems.append(f"eval attribution accuracy {reported} != {expected} "
                                        "from the predict loop")
        dev = self.setup.splits["dev"]
        dev_gold = [label for doc in dev for label in doc.sentence_labels]
        names = self.setup.aspect_names
        with self.tracer.span("bench.quality"):
            for spec, model in self.setup.models:
                labels = []
                for doc in dev:
                    preds, attribution = model.predict(doc.sentences)
                    problems = prediction_problems(model, preds, attribution, doc.n_sentences)
                    if problems:
                        outcome.problems.append(f"{spec.label} dev {doc.doc_id}: {problems[0]}")
                    labels.extend(label for label, _ in H.extract_attribution(attribution, names))
                outcome.attr_accuracy.append(EV.attribution_accuracy(labels, dev_gold))
        outcome.dev_losses = [h[-1]["dev_loss"] for h in self.setup.history]


def run_pass(workload: Workload, seed: int, seconds: float, work_dir: Path, tracer) -> Outcome:
    """Set-up plus the timed phases; ``seconds`` = 0 runs fixed work."""
    if workload.n_test > MIN_PREDICT_DOCS:
        raise RuntimeError("the predict loop must cover every held-out document")
    outcome = Outcome()
    phases = TimedPhases(workload, seed, work_dir, outcome, tracer)
    outcome.input_hash, outcome.corpus_hash = phases.setup.input_hash, phases.setup.corpus_hash
    phases.run(seconds)
    return outcome


def rate(units: list) -> float:
    """Documents per second over all units. The host switches between a fast
    and a slow state (request latencies fall in two modes about 1.7x apart),
    so a median of unit rates jumps between the modes, while the total moves
    with the share of time spent in each."""
    return sum(docs for docs, _ in units) / sum(seconds for _, seconds in units)


def end_to_end(outcome: Outcome) -> dict:
    """End-to-end metrics (value, unit) from one untraced pass."""
    latencies_ms = np.asarray(outcome.predict_latencies_s) * 1e3
    # The median of each predict unit's requests, averaged over the units:
    # a unit lasts well under a second and mostly sees one host state, so
    # the mean moves with the time share of each state, where the median of
    # all requests jumps from one mode to the other.
    unit_medians = np.median(latencies_ms.reshape(-1, PREDICT_CHUNK), axis=1)
    return {
        "train_docs_per_s": (rate(outcome.train_units), "docs/s"),
        "predict_docs_per_s": (rate(outcome.predict_units), "docs/s"),
        "predict_latency_p50_ms": (float(np.mean(unit_medians)), "ms"),
        "predict_latency_p99_ms": (float(np.percentile(latencies_ms, 99)), "ms"),
        "eval_docs_per_s": (rate(outcome.eval_units), "docs/s"),
        "dev_loss": (statistics.fmean(outcome.dev_losses), "loss"),
        "attr_accuracy": (statistics.fmean(outcome.attr_accuracy), "fraction"),
        "setup_s": (statistics.median(outcome.setup_s), "s"),
    }
