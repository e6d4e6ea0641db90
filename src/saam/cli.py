"""Command-line operator surface.

Subcommands: generate (synthetic corpus), prepare (splits + vocabulary),
train, eval, attribute, snippets, selftest. Every command is deterministic
given its inputs and seed, and writes a run manifest beside its outputs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .encoders import EncoderConfig
from .evaluation import (
    attribution_score,
    predict_corpus,
    prediction_report,
    render_report,
    report_to_dict,
)
from .heads import extract_attribution, sentence_scalar_scores
from .selftest import run_selftest
from .snippets import extract_snippets, snippet_record
from .text import (
    AspectSet,
    CorpusError,
    KEYWORD_SCHEMES,
    ReviewDocument,
    Vocabulary,
    aspect_names_from_records,
    build_vocabulary,
    docs_from_records,
    generate_synthetic_corpus,
    keyword_label_sentences,
    read_corpus,
    record_sentences,
    split_corpus,
    write_corpus,
)
from .training import (
    CheckpointError,
    TrainConfig,
    TrainingDivergedError,
    VocabularyHashError,
    load_checkpoint,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _version_string() -> str:
    return f"saam-{__version__}"


def write_manifest(out_dir: Path, command: str, config: dict, seed,
                   inputs: list, outputs: list, started: float, **extra) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": _version_string(),
        "duration_seconds": round(time.monotonic() - started, 3),
    }
    manifest.update(extra)
    path = Path(out_dir) / f"manifest-{command}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    started = time.monotonic()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    records = generate_synthetic_corpus(
        n_aspects=args.aspects, n_docs=args.docs, seed=args.seed,
        keywords_per_aspect=args.keywords_per_aspect,
        sentences_per_aspect=args.sentences_per_aspect,
        rating_scheme=args.rating_scheme, overlap_fraction=args.overlap,
        exact_mean_only=args.exact_mean)
    write_corpus(records, out)
    write_manifest(out.parent, "generate",
                   {k: v for k, v in vars(args).items() if k != "func"}, args.seed,
                   [], [out], started, documents=len(records))
    print(f"wrote {len(records)} synthetic documents to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def cmd_prepare(args) -> int:
    started = time.monotonic()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = read_corpus(args.corpus)
    aspects = aspect_names_from_records(records)

    kept = []
    skipped_unrated = 0
    for rec in records:
        if any(rec["aspects"].get(name) is None for name in aspects.names):
            skipped_unrated += 1
            print(f"warning: {rec['doc_id']}: missing aspect rating, skipped", file=sys.stderr)
            continue
        kept.append(rec)
    if args.keyword_scheme:
        if args.keyword_scheme not in KEYWORD_SCHEMES:
            raise UsageError(f"unknown keyword scheme {args.keyword_scheme!r}")
        for rec in kept:
            if "sentence_labels" not in rec:
                pairs = record_sentences(rec)
                probe = ReviewDocument(rec["doc_id"], [[] for _ in pairs],
                                       [t for t, _ in pairs], 0.0, [0.0])
                rec["sentence_labels"] = keyword_label_sentences(probe, args.keyword_scheme)

    vocab = build_vocabulary([s for rec in kept for s, _ in record_sentences(rec)],
                             min_frequency=args.min_frequency)
    docs = docs_from_records(kept, vocab, aspects)
    splits = split_corpus(docs, seed=args.seed, dev_size=args.dev_size,
                          min_sentences=args.min_sentences)
    skipped_short = len(kept) - sum(len(v) for v in splits.values())

    by_id = {rec["doc_id"]: rec for rec in kept}
    outputs = []
    for name in ("train", "dev", "test"):
        path = out_dir / f"{name}.jsonl"
        write_corpus([by_id[d.doc_id] for d in splits[name]], path)
        outputs.append(path)
    vocab_path = out_dir / "vocab.tsv"
    vocab.save(vocab_path)
    aspects_path = out_dir / "aspects.json"
    aspects_path.write_text(json.dumps(list(aspects.names)) + "\n", encoding="utf-8")
    outputs += [vocab_path, aspects_path]

    write_manifest(out_dir, "prepare",
                   {k: v for k, v in vars(args).items() if k != "func"}, args.seed,
                   [args.corpus], outputs, started,
                   documents_read=len(records), skipped_unrated=skipped_unrated,
                   skipped_short=skipped_short,
                   split_sizes={k: len(v) for k, v in splits.items()})
    print(f"prepared {sum(len(v) for v in splits.values())} documents: "
          + ", ".join(f"{k}={len(v)}" for k, v in splits.items()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {"variant", "encoder", "s_max", "t_max", "n_classes", "lr", "optimizer",
                "batch_size", "max_epochs", "patience", "seed", "lambda_overall",
                "lambda_aspect", "epsilon", "attribution_mask_mode", "grad_clip"}
_ENCODER_KEYS = {"kind", "embedding_dim", "cnn_filter_widths", "cnn_filters_per_width",
                 "gru_hidden", "dropout", "vocab_size"}


def _load_train_config(path, data_dir: Path, overrides: dict) -> tuple:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}: config is not valid JSON: {e.msg}")
    for key in raw:
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}: unknown config key {key!r}")
    encoder_raw = dict(raw.get("encoder") or {})
    for key in encoder_raw:
        if key not in _ENCODER_KEYS:
            raise UsageError(f"{path}: unknown encoder config key {key!r}")

    vocab = Vocabulary.load(data_dir / "vocab.tsv")
    aspect_names = json.loads((data_dir / "aspects.json").read_text(encoding="utf-8"))
    encoder_raw["vocab_size"] = vocab.size
    raw["encoder"] = encoder_raw
    raw["n_aspects"] = len(aspect_names)
    raw.update({k: v for k, v in overrides.items() if v is not None})
    try:
        encoder = EncoderConfig.from_dict(raw.pop("encoder"))
        config = TrainConfig(encoder=encoder, **raw)
    except (TypeError, ValueError) as e:
        raise UsageError(f"{path}: {e}")
    return config, vocab, aspect_names


def _corpus_docs(path, vocab, aspect_names):
    return docs_from_records(read_corpus(path), vocab, AspectSet(tuple(aspect_names)))


def _load_split(data_dir: Path, name: str, vocab, aspect_names):
    path = Path(data_dir) / f"{name}.jsonl"
    if not path.exists():
        raise CorpusError(f"missing split file {path}")
    return _corpus_docs(path, vocab, aspect_names)


def cmd_train(args) -> int:
    started = time.monotonic()
    data_dir = Path(args.data)
    overrides = {"lr": args.lr, "seed": args.seed, "max_epochs": args.max_epochs,
                 "batch_size": args.batch_size, "patience": args.patience,
                 "variant": args.variant}
    config, vocab, aspect_names = _load_train_config(args.config, data_dir, overrides)
    splits = {"train": _load_split(data_dir, "train", vocab, aspect_names),
              "dev": _load_split(data_dir, "dev", vocab, aspect_names)}
    checkpoint, history = train(config, splits, vocab_hash=vocab.content_hash())
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(checkpoint, out)
    history_path = out.with_suffix(out.suffix + ".history.json")
    history_path.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
    write_manifest(out.parent, "train", config.to_dict(), config.seed,
                   [args.config, str(data_dir)], [out, history_path], started,
                   epochs_run=len(history), best_epoch=checkpoint.best_epoch,
                   best_dev_loss=checkpoint.best_dev_loss)
    print(f"trained {len(history)} epochs; best dev loss "
          f"{checkpoint.best_dev_loss:.6f} at epoch {checkpoint.best_epoch}; wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _model_from_checkpoint(path, vocab: Vocabulary | None):
    expect = vocab.content_hash() if vocab is not None else None
    checkpoint = load_checkpoint(path, expect_vocab_hash=expect)
    return checkpoint, checkpoint.build_model()


def _load_corpus_inputs(args):
    """(model, aspect names, documents) for the attribute and snippets commands."""
    vocab = Vocabulary.load(args.vocab)
    _, model = _model_from_checkpoint(args.checkpoint, vocab)
    aspect_names = json.loads(Path(args.aspects).read_text(encoding="utf-8"))
    return model, aspect_names, _corpus_docs(args.corpus, vocab, aspect_names)


def cmd_eval(args) -> int:
    started = time.monotonic()
    data_dir = Path(args.data)
    vocab = Vocabulary.load(data_dir / "vocab.tsv")
    aspect_names = json.loads((data_dir / "aspects.json").read_text(encoding="utf-8"))
    checkpoint, model = _model_from_checkpoint(args.checkpoint, vocab)
    if args.kind and args.kind != model.kind:
        raise UsageError(f"checkpoint is a {model.kind} model, not {args.kind}")
    docs = _load_split(data_dir, args.split, vocab, aspect_names)
    # one prediction pass feeds both the metrics and attribution accuracy
    rows, attributions = predict_corpus(model, docs)
    report = prediction_report(model.kind, rows, docs, aspect_names)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    text_path = out_dir / f"report-{args.split}.txt"
    json_path = out_dir / f"report-{args.split}.json"
    payload = report_to_dict(report)
    text = render_report(report)

    attribution_note = None
    if args.attribution_labels:
        labels_by_id = {}
        for rec in read_corpus(args.attribution_labels):
            labels_by_id[str(rec["doc_id"])] = rec.get("sentence_labels") or []
        gold = [labels_by_id.get(doc.doc_id, ["unlabeled"] * doc.n_sentences) for doc in docs]
        try:
            acc = attribution_score(attributions, aspect_names, gold)
            payload["attribution_accuracy"] = round(acc, 6)
            text += f"[attribution]\n  accuracy: {acc:.6f}\n"
        except ValueError:
            attribution_note = "n/a (no labeled sentences)"
            payload["attribution_accuracy"] = None
            text += "[attribution]\n  accuracy: n/a\n"

    text_path.write_text(text, encoding="utf-8")
    json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    write_manifest(out_dir, "eval", {k: v for k, v in vars(args).items() if k != "func"},
                   None, [args.checkpoint, str(data_dir)], [text_path, json_path], started,
                   attribution_note=attribution_note)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# attribute
# ---------------------------------------------------------------------------

def cmd_attribute(args) -> int:
    started = time.monotonic()
    model, aspect_names, docs = _load_corpus_inputs(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    n_sentences = 0
    with open(out, "w", encoding="utf-8") as f:
        for doc in docs:
            _, attribution = model.predict(doc.sentences)
            labels = extract_attribution(attribution, aspect_names)
            scores = sentence_scalar_scores(attribution)
            for i, (label, confidence) in enumerate(labels):
                text = doc.raw_sentences[i] if i < len(doc.raw_sentences) else ""
                row = {
                    "doc_id": doc.doc_id,
                    "sentence_index": i,
                    "text": text,
                    "aspect_dist": [round(float(v), 6) for v in attribution.aspect_dist[i]],
                    "label": label,
                    "confidence": round(confidence, 6),
                    "score": round(float(scores[i]), 6),
                    "rendered": f"{text} [{float(scores[i]):.3f}, {label}]",
                }
                f.write(json.dumps(row, ensure_ascii=False) + "\n")
                n_sentences += 1
    write_manifest(out.parent, "attribute",
                   {k: v for k, v in vars(args).items() if k != "func"}, None,
                   [args.checkpoint, args.corpus], [out], started, sentences=n_sentences)
    print(f"attributed {n_sentences} sentences from {len(docs)} documents to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# snippets
# ---------------------------------------------------------------------------

def cmd_snippets(args) -> int:
    started = time.monotonic()
    model, aspect_names, docs = _load_corpus_inputs(args)
    if args.aspect not in aspect_names:
        raise UsageError(f"unknown aspect {args.aspect!r}; known: {aspect_names}")
    if model.kind == "classification" and not args.expected_value_proxy:
        raise UsageError("snippets need a regression checkpoint; pass "
                         "--expected-value-proxy to use expected class values instead")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    n_snippets = 0
    with open(out, "w", encoding="utf-8") as f:
        for doc in docs:
            _, attribution = model.predict(doc.sentences)
            found = extract_snippets(doc, attribution, aspect_names, args.aspect,
                                     polarity=args.polarity, tau=args.tau, top_k=args.top_k)
            for s in found:
                f.write(json.dumps(snippet_record(s), ensure_ascii=False) + "\n")
                n_snippets += 1
    notice = None
    if n_snippets == 0:
        notice = f"no sentence cleared the attribution threshold tau={args.tau}"
        print(f"notice: {notice}")
    write_manifest(out.parent, "snippets",
                   {k: v for k, v in vars(args).items() if k != "func"}, None,
                   [args.checkpoint, args.corpus], [out], started,
                   snippets=n_snippets, notice=notice)
    print(f"wrote {n_snippets} snippets to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def cmd_selftest(args) -> int:
    started = time.monotonic()
    results = run_selftest(corrupt_op=args.corrupt)
    failures = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        print(f"[{'pass' if ok else 'FAIL'}] {name}: {detail}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "selftest.json"
        path.write_text(json.dumps(
            [{"name": n, "passed": ok, "detail": d} for n, ok, d in results], indent=2) + "\n",
            encoding="utf-8")
        write_manifest(out_dir, "selftest", {"corrupt": args.corrupt}, None, [], [path],
                       started, failures=failures)
    if failures:
        print(f"selftest FAILED: {', '.join(failures)}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"selftest passed ({len(results)} checks)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="saam", description=__doc__)
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--aspects", type=int, default=4)
    p.add_argument("--docs", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keywords-per-aspect", type=int, default=6)
    p.add_argument("--sentences-per-aspect", type=int, default=1)
    p.add_argument("--rating-scheme", choices=("integer", "half"), default="integer")
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--exact-mean", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("prepare", help="split a corpus and build its vocabulary")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--min-sentences", type=int, default=4)
    p.add_argument("--dev-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keyword-scheme", default=None)
    p.add_argument("--min-frequency", type=int, default=1)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="directory produced by prepare")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--variant", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "dev", "test"))
    p.add_argument("--out", required=True)
    p.add_argument("--attribution-labels", default=None)
    p.add_argument("--kind", choices=("classification", "regression"), default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("attribute", help="dump per-sentence aspect attributions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--aspects", required=True, help="aspects.json from prepare")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("snippets", help="extract extreme-sentiment snippets per aspect")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--aspects", required=True)
    p.add_argument("--aspect", required=True)
    p.add_argument("--polarity", choices=("lowest", "highest"), default="lowest")
    p.add_argument("--tau", type=float, default=0.3)
    p.add_argument("--top-k", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--expected-value-proxy", action="store_true")
    p.set_defaults(func=cmd_snippets)

    p = sub.add_parser("selftest", help="gradient checks and head oracles")
    p.add_argument("--out", default=None)
    p.add_argument("--corrupt", default=None, help="break one op's backward (negative control)")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, CheckpointError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ad.NumericError, TrainingDivergedError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
