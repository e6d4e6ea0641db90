"""Document-level metrics, sentence-attribution accuracy, and annotator
agreement.

A MetricReport covers the overall rating plus every aspect; the "Avg"
block averages over the aspects only. Classification MSE treats the
argmax class as a real rating value; regression adds the coefficient of
determination about the gold mean, reported as None when the golds have
zero variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .heads import extract_attribution
from .text import NONE_LABEL, UNLABELED


@dataclass
class MetricReport:
    kind: str                       # classification | regression
    targets: dict = field(default_factory=dict)   # name -> {metric: value}
    aspect_avg: dict = field(default_factory=dict)
    n_documents: int = 0


def _class_from_dist(dist: np.ndarray) -> int:
    return int(np.argmax(dist))


def classification_metrics(preds, golds, target_names) -> MetricReport:
    """Accuracy and class-value MSE per target.

    ``preds``: per document, a list of class distributions aligned with
    ``target_names`` (overall first). ``golds``: per document, the rating
    values in the same order. MSE regards the argmax class, mapped back to
    its 1-based rating, as a real value.
    """
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} golds")
    report = MetricReport("classification", n_documents=len(preds))
    per_target_acc = []
    per_target_mse = []
    for t, name in enumerate(target_names):
        hits = 0
        sq = 0.0
        for p, g in zip(preds, golds):
            pred_rating = _class_from_dist(p[t]) + 1
            gold_rating = int(round(g[t]))
            hits += int(pred_rating == gold_rating)
            sq += (pred_rating - gold_rating) ** 2
        acc = hits / len(preds)
        mse = sq / len(preds)
        report.targets[name] = {"accuracy": acc, "mse": mse}
        per_target_acc.append(acc)
        per_target_mse.append(mse)
    if len(per_target_acc) > 1:
        report.aspect_avg = {"accuracy": float(np.mean(per_target_acc[1:])),
                             "mse": float(np.mean(per_target_mse[1:]))}
    else:
        report.aspect_avg = {"accuracy": None, "mse": None}
    return report


def regression_metrics(preds, golds, target_names) -> MetricReport:
    """MSE and R-squared per target; R2 = 1 - SS_res / SS_tot."""
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} golds")
    report = MetricReport("regression", n_documents=len(preds))
    mses = []
    for t, name in enumerate(target_names):
        p = np.array([row[t] for row in preds], dtype=np.float64)
        g = np.array([row[t] for row in golds], dtype=np.float64)
        mse = float(np.mean((p - g) ** 2))
        ss_tot = float(np.sum((g - g.mean()) ** 2))
        r2 = None if ss_tot == 0.0 else 1.0 - float(np.sum((p - g) ** 2)) / ss_tot
        report.targets[name] = {"mse": mse, "r2": r2}
        mses.append(mse)
    if len(mses) > 1:
        report.aspect_avg = {"mse": float(np.mean(mses[1:]))}
        aspect_r2 = [report.targets[n]["r2"] for n in target_names[1:]]
        report.aspect_avg["r2"] = None if any(v is None for v in aspect_r2) \
            else float(np.mean(aspect_r2))
    else:
        report.aspect_avg = {"mse": None, "r2": None}
    return report


def attribution_accuracy(predicted_labels, gold_labels) -> float:
    """Fraction of gold-labeled sentences whose dominant slot matches.

    Sentences with gold "unlabeled" are excluded; a gold "none" matches a
    prediction of the other-aspect slot.
    """
    if len(predicted_labels) != len(gold_labels):
        raise ValueError(f"{len(predicted_labels)} predictions vs {len(gold_labels)} golds")
    hits = 0
    total = 0
    for pred, gold in zip(predicted_labels, gold_labels):
        if gold == UNLABELED:
            continue
        total += 1
        hits += int(pred == gold)
    if total == 0:
        raise ValueError("no labeled sentences to score")
    return hits / total


def cohen_kappa(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two labelings of the same items."""
    if len(labels_a) != len(labels_b):
        raise ValueError(f"label lists differ in length: {len(labels_a)} vs {len(labels_b)}")
    if not labels_a:
        raise ValueError("empty label lists")
    n = len(labels_a)
    observed = sum(a == b for a, b in zip(labels_a, labels_b)) / n
    values = sorted(set(labels_a) | set(labels_b))
    expected = 0.0
    for v in values:
        pa = sum(a == v for a in labels_a) / n
        pb = sum(b == v for b in labels_b) / n
        expected += pa * pb
    if expected == 1.0:
        # only possible when both annotators are constant and identical
        return 1.0
    return (observed - expected) / (1.0 - expected)


# ---------------------------------------------------------------------------
# model evaluation
# ---------------------------------------------------------------------------

def predict_corpus(model, docs):
    """(prediction rows, attribution results) for a document list.

    A prediction row is [overall, aspect...] — distributions for
    classification models, scalars for regression.
    """
    rows = []
    attributions = []
    for doc in docs:
        preds, attribution = model.predict(doc.sentences)
        if model.kind == "classification":
            rows.append([preds.overall.data.copy()] + [t.data.copy() for t in preds.per_aspect])
        else:
            rows.append([float(preds.overall.data)] + [float(t.data) for t in preds.per_aspect])
        attributions.append(attribution)
    return rows, attributions


def prediction_report(kind: str, rows, docs, aspect_names) -> MetricReport:
    """Metrics of ``predict_corpus`` rows against the documents' ratings."""
    golds = [[doc.overall_rating] + list(doc.aspect_ratings) for doc in docs]
    names = ["overall"] + list(aspect_names)
    if kind == "classification":
        return classification_metrics(rows, golds, names)
    return regression_metrics(rows, golds, names)


def attribution_score(attributions, aspect_names, gold_label_lists) -> float:
    """Attribution accuracy of ``predict_corpus`` attributions against gold
    sentence labels; each document is scored over the sentences both cover."""
    predicted = []
    golds = []
    for attribution, gold in zip(attributions, gold_label_lists):
        labels = [label for label, _ in extract_attribution(attribution, aspect_names)]
        labels = [NONE_LABEL if l == "overall" else l for l in labels]
        n = min(len(labels), len(gold))
        predicted.extend(labels[:n])
        golds.extend(gold[:n])
    return attribution_accuracy(predicted, golds)


def evaluate_model(model, docs, aspect_names) -> MetricReport:
    rows, _ = predict_corpus(model, docs)
    return prediction_report(model.kind, rows, docs, aspect_names)


def evaluate_attribution(model, docs, aspect_names, gold_label_lists) -> float:
    _, attributions = predict_corpus(model, docs)
    return attribution_score(attributions, aspect_names, gold_label_lists)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return "undefined" if value is None else f"{value:.6f}"


def report_to_dict(report: MetricReport) -> dict:
    out = {"kind": report.kind, "n_documents": report.n_documents, "targets": {}, "aspect_avg": {}}
    for name, metrics in report.targets.items():
        out["targets"][name] = {k: (None if v is None else round(v, 6))
                                for k, v in metrics.items()}
    out["aspect_avg"] = {k: (None if v is None else round(v, 6))
                         for k, v in report.aspect_avg.items()}
    return out


def render_report(report: MetricReport) -> str:
    lines = [f"kind: {report.kind}", f"documents: {report.n_documents}"]
    for name, metrics in report.targets.items():
        lines.append(f"[{name}]")
        for k, v in metrics.items():
            lines.append(f"  {k}: {_fmt(v)}")
    lines.append("[aspect average]")
    for k, v in report.aspect_avg.items():
        lines.append(f"  {k}: {_fmt(v)}")
    return "\n".join(lines) + "\n"
