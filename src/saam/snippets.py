"""Aspect-specific snippet extraction from a trained model's latent outputs.

A snippet is the extreme-sentiment sentence for one aspect: candidate
sentences are those whose attribution weight for the aspect clears a
threshold, ranked by their raw sentence score (lowest or highest first).
Ranking by raw score and filtering by weight keeps a near-zero-weight
sentence with a huge score from winning on the product alone.

For classification models the scalar sentence score is the expected
rating value under softmax of the class scores, and ``explain_discrepancy``
compares the expected rating values of the document-level distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heads import AttributionResult, sentence_scalar_scores

DEFAULT_TAU = 0.3
DEFAULT_MARGIN = 1.0


@dataclass
class Snippet:
    doc_id: str
    sentence_index: int
    text: str
    aspect: str
    weight: float   # attribution mass on the aspect
    score: float    # raw sentence sentiment score
    polarity: str   # lowest | highest


def extract_snippets(doc, attribution: AttributionResult, aspect_names, aspect: str,
                     polarity: str = "lowest", tau: float = DEFAULT_TAU,
                     top_k: int | None = None) -> list:
    """Ranked snippets for one aspect; empty when nothing clears tau.

    Sorting is stable with sentence index as the tiebreak, so tau=0 with
    top_k=None yields a total order of the document by sentence score.
    """
    if aspect not in aspect_names:
        raise KeyError(f"unknown aspect {aspect!r}; known: {list(aspect_names)}")
    if polarity not in ("lowest", "highest"):
        raise ValueError(f"polarity must be lowest or highest, got {polarity!r}")
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must be in [0, 1)")
    j = list(aspect_names).index(aspect)
    scores = sentence_scalar_scores(attribution)
    candidates = []
    for i in range(attribution.n_sentences):
        weight = float(attribution.aspect_dist[i, j])
        if weight >= tau:
            text = doc.raw_sentences[i] if i < len(doc.raw_sentences) else ""
            candidates.append(Snippet(doc.doc_id, i, text, aspect, weight,
                                      float(scores[i]), polarity))
    reverse = polarity == "highest"
    candidates.sort(key=lambda s: ((-s.score if reverse else s.score), s.sentence_index))
    return candidates if top_k is None else candidates[:top_k]


def _rating_value(kind: str, output) -> float:
    """A prediction as a rating: the score itself (regression) or the
    expected rating under the class distribution (classification), with
    class c standing for rating c + 1 as in ``sentence_scalar_scores``."""
    if kind == "classification":
        return float(output.data @ np.arange(1, output.data.size + 1, dtype=np.float64))
    return float(output.data)


def explain_discrepancy(doc, predictions, attribution: AttributionResult, aspect_names,
                        margin: float = DEFAULT_MARGIN, tau: float = DEFAULT_TAU) -> list:
    """One extreme snippet per aspect whose prediction deviates from overall.

    An aspect predicted more than ``margin`` below the overall score gets
    its lowest-score snippet; one above gets the highest. Classification
    models compare expected rating values. Results follow aspect order;
    aspects without a qualifying sentence are skipped.
    """
    overall = _rating_value(predictions.kind, predictions.overall)
    out = []
    for j, name in enumerate(aspect_names):
        aspect_score = _rating_value(predictions.kind, predictions.per_aspect[j])
        if aspect_score < overall - margin:
            polarity = "lowest"
        elif aspect_score > overall + margin:
            polarity = "highest"
        else:
            continue
        found = extract_snippets(doc, attribution, aspect_names, name,
                                 polarity=polarity, tau=tau, top_k=1)
        out.extend(found)
    return out


def snippet_record(snippet: Snippet) -> dict:
    return {"doc_id": snippet.doc_id, "sentence_index": snippet.sentence_index,
            "aspect": snippet.aspect, "score": round(snippet.score, 3),
            "weight": round(snippet.weight, 3), "polarity": snippet.polarity,
            "text": snippet.text}
