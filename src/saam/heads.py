"""Prediction heads mapping sentence feature matrices to document outputs.

Every variant is one row of ``HEADS``: its task kind, the labels of the
slots after the aspects, and whether the overall output comes from a dense
layer or from slot |A|. One ``head_forward`` runs every row. An attribution
variant has a rating score layer (class scores or a scalar score per
sentence), a softmax attribution layer that distributes each sentence's
score over the aspects plus the extra slots, and an aggregation of the
scaled scores into per-slot document predictions:

* C1 - classification; the overall distribution comes from a dense softmax
  layer over the flattened feature matrix; the extra "none" slot lets the
  model discard a sentence.
* C2 - classification; slot |A| ("overall") aggregates toward the overall
  prediction and slot |A|+1 ("none") is the discard slot.
* R - regression; scalar scores. The overall score is a dense
  sentence-count normalized linear form over the whole matrix; each aspect
  score is the attribution-weighted average of the sentence scores
  (guarded by epsilon against an aspect receiving no attribution mass).

``flat-c``/``flat-r`` are ablation baselines without attribution: one dense
output per rating, each the same computation as C1's or R's overall.

Hard mask mode (default) drops padded sentence slots from every sum and
from the sentence count; soft mode treats all slots as real so the model
must learn to discard padding by itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import SentenceEmbeddingMatrix, xavier_uniform

NONE_SLOT_LABEL = "none"
OVERALL_SLOT_LABEL = "overall"


@dataclass(frozen=True)
class HeadSpec:
    kind: str                  # "classification" or "regression"
    slot_labels: tuple | None  # labels of the slots after the aspects; None: no attribution
    dense_overall: bool        # overall from a dense layer, else from slot |A|


HEADS = {
    "C1": HeadSpec("classification", (NONE_SLOT_LABEL,), dense_overall=True),
    "C2": HeadSpec("classification", (OVERALL_SLOT_LABEL, NONE_SLOT_LABEL), dense_overall=False),
    "R": HeadSpec("regression", (NONE_SLOT_LABEL,), dense_overall=True),
    "flat-c": HeadSpec("classification", None, dense_overall=True),
    "flat-r": HeadSpec("regression", None, dense_overall=True),
}
VARIANTS = tuple(HEADS)
CLASSIFICATION_VARIANTS = tuple(v for v, spec in HEADS.items() if spec.kind == "classification")

# An aspect whose total attribution mass falls below this is flagged: its
# guarded weighted average is formally defined but carries no evidence.
LOW_ATTRIBUTION_MASS = 1e-3


@dataclass
class HeadConfig:
    variant: str
    n_aspects: int
    feature_dim: int
    s_max: int
    n_classes: int = 5
    epsilon: float = 1e-8
    attribution_mask_mode: str = "hard"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; known: {VARIANTS}")
        if self.n_aspects < 1:
            raise ValueError("n_aspects must be >= 1")
        if self.is_classification and self.n_classes < 2:
            raise ValueError("classification needs n_classes >= 2")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.attribution_mask_mode not in ("hard", "soft"):
            raise ValueError(f"unknown attribution_mask_mode {self.attribution_mask_mode!r}")

    @property
    def spec(self) -> HeadSpec:
        return HEADS[self.variant]

    @property
    def is_classification(self) -> bool:
        return self.spec.kind == "classification"

    @property
    def n_attribution_slots(self) -> int:
        """Aspects plus the extra slots (attribution variants only)."""
        return self.n_aspects + len(self.spec.slot_labels or ())

    def to_dict(self) -> dict:
        return {"variant": self.variant, "n_aspects": self.n_aspects,
                "feature_dim": self.feature_dim, "s_max": self.s_max,
                "n_classes": self.n_classes, "epsilon": self.epsilon,
                "attribution_mask_mode": self.attribution_mask_mode}

    @classmethod
    def from_dict(cls, d: dict) -> "HeadConfig":
        return cls(**d)


@dataclass
class PredictionSet:
    """Document-level outputs: overall plus one entry per real aspect.

    Classification entries are rank-1 distributions over the rating
    classes; regression entries are scalars. All are graph tensors so a
    loss can backpropagate through them.
    """
    kind: str
    overall: Tensor
    per_aspect: list
    low_attribution_aspects: list = field(default_factory=list)

    def overall_value(self):
        return self.overall.data.copy() if self.kind == "classification" else float(self.overall.data)

    def aspect_values(self):
        if self.kind == "classification":
            return [t.data.copy() for t in self.per_aspect]
        return [float(t.data) for t in self.per_aspect]


@dataclass
class AttributionResult:
    """Detached per-sentence internals: who said what about which aspect.

    ``scaled_scores[i][j]`` is exactly ``aspect_dist[i][j] * rating_scores[i]``.
    """
    aspect_dist: np.ndarray    # [n_real, slots]
    rating_scores: np.ndarray  # [n_real, |C|] or [n_real]
    scaled_scores: np.ndarray  # [n_real, slots, |C|] or [n_real, slots]
    variant: str

    @property
    def n_sentences(self) -> int:
        return self.aspect_dist.shape[0]


def _dense_targets(config: HeadConfig) -> list:
    """Names of the dense outputs: every rating for the flat baselines
    (the overall first), the overall alone when the row says so."""
    if config.spec.slot_labels is None:
        return [f"flat{t}" for t in range(config.n_aspects + 1)]
    return ["overall"] if config.spec.dense_overall else []


def init_head_params(config: HeadConfig, rng: np.random.Generator) -> dict:
    d = config.feature_dim
    c = config.n_classes
    params = {}
    if config.spec.slot_labels is not None:
        score_out = c if config.is_classification else 1
        k = config.n_attribution_slots
        params["head.w_score"] = ad.parameter(xavier_uniform(rng, d, score_out, (d, score_out)))
        params["head.b_score"] = ad.parameter(np.zeros(score_out))
        params["head.w_attr"] = ad.parameter(xavier_uniform(rng, d, k, (d, k)))
        params["head.b_attr"] = ad.parameter(np.zeros(k))
    for name in _dense_targets(config):
        if config.is_classification:
            flat = config.s_max * d
            w, b = xavier_uniform(rng, flat, c, (flat, c)), np.zeros((1, c))
        else:
            w, b = xavier_uniform(rng, config.s_max, d, (config.s_max, d)), np.zeros(())
        params[f"head.w_{name}"] = ad.parameter(w)
        params[f"head.b_{name}"] = ad.parameter(b)
    return params


def _real_rows(u: SentenceEmbeddingMatrix, config: HeadConfig):
    """Select the sentence rows that take part in the head computation.

    Hard mode keeps the real prefix only, so appended pad slots never enter
    the graph at all. Soft mode treats all s_max slots (padding included)
    as real sentences the attribution layer must learn to discard.
    """
    if u.values.shape[0] > config.s_max:
        raise ad.DimensionError(
            f"{u.values.shape[0]} sentence slots exceed configured s_max {config.s_max}")
    if u.values.data.ndim != 2 or u.values.shape[1] != config.feature_dim:
        raise ad.DimensionError(
            f"feature matrix shape {u.values.shape} does not match head config "
            f"(d={config.feature_dim})")
    mask = list(u.sentence_mask)
    if not any(mask):
        raise ValueError("document has zero real sentences")
    if config.attribution_mask_mode == "soft":
        return ad.pad_rows(u.values, config.s_max), config.s_max
    n = 0
    for m in mask:
        if not m:
            break
        n += 1
    if any(mask[n:]):
        raise ValueError("sentence mask must be a true-prefix (real sentences first)")
    return ad.slice_rows(u.values, 0, n), n


def _bias_rows(n: int, bias: Tensor) -> Tensor:
    return ad.outer(ad.constant(np.ones(n)), bias)


def _attribution_result(aspect: Tensor, score: Tensor, config: HeadConfig) -> AttributionResult:
    a = aspect.data.copy()
    if config.is_classification:
        s = score.data.copy()
        scaled = a[:, :, None] * s[:, None, :]
    else:
        s = score.data.reshape(-1).copy()
        scaled = a * s[:, None]
    return AttributionResult(a, s, scaled, config.variant)


def _dense_target(x: Tensor, n: int, params: dict, name: str, config: HeadConfig) -> Tensor:
    """Softmax layer over the flattened matrix ``x`` [1 x s_max*d], or a
    sentence-count normalized linear form over the padded ``x`` [s_max x d]."""
    w, b = params[f"head.w_{name}"], params[f"head.b_{name}"]
    if config.is_classification:
        logits = ad.add(ad.matmul(x, w), b)
        return ad.reshape(ad.softmax_lastdim(logits), (config.n_classes,))
    return ad.scale(ad.add(ad.reduce_sum(ad.mul(w, x)), b), 1.0 / n)


def head_forward(u: SentenceEmbeddingMatrix, params: dict, config: HeadConfig):
    """(PredictionSet, AttributionResult) for one document; the attribution
    is None for the flat baselines."""
    spec = config.spec
    u_real, n = _real_rows(u, config)
    slots, low, attribution = [], [], None
    if spec.slot_labels is not None:
        score = ad.add(ad.matmul(u_real, params["head.w_score"]),
                       _bias_rows(n, params["head.b_score"]))
        logits = ad.add(ad.matmul(u_real, params["head.w_attr"]),
                        _bias_rows(n, params["head.b_attr"]))
        aspect = ad.softmax_lastdim(logits)
        sums = ad.matmul(ad.transpose(aspect), score)        # [slots x |C|] or [slots x 1]
        if config.is_classification:
            per_slot, shape = ad.softmax_lastdim(sums), (config.n_classes,)
        else:
            numer = ad.reshape(sums, (config.n_attribution_slots,))
            mass = ad.reduce_sum(aspect, axis=0)
            per_slot, shape = ad.div(numer, ad.add(mass, config.epsilon)), ()
            low = [j for j in range(config.n_aspects)
                   if float(mass.data[j]) < LOW_ATTRIBUTION_MASS]
        # the aspect slots, then slot |A| when it carries the overall output;
        # the remaining slots are discarded
        n_out = config.n_aspects + (0 if spec.dense_overall else 1)
        slots = [ad.reshape(ad.slice_rows(per_slot, j, j + 1), shape) for j in range(n_out)]
        attribution = _attribution_result(aspect, score, config)
    if spec.dense_overall:
        x = ad.pad_rows(u_real, config.s_max)
        if config.is_classification:
            x = ad.reshape(x, (1, config.s_max * config.feature_dim))
        dense = [_dense_target(x, n, params, name, config) for name in _dense_targets(config)]
        overall, per_aspect = dense[0], dense[1:] + slots
    else:
        overall, per_aspect = slots[-1], slots[:-1]
    return PredictionSet(spec.kind, overall, per_aspect, low_attribution_aspects=low), attribution


def extract_attribution(result: AttributionResult, aspect_names) -> list:
    """Dominant-slot label and its probability for every real sentence.

    The slots after the real aspects take the variant's ``HEADS`` labels.
    Ties go to the lowest index.
    """
    n_aspects = len(aspect_names)
    labels = list(aspect_names) + list(HEADS[result.variant].slot_labels)
    if result.aspect_dist.shape[1] != len(labels):
        raise ad.DimensionError(
            f"attribution has {result.aspect_dist.shape[1]} slots but {n_aspects} aspects "
            f"imply {len(labels)} for variant {result.variant}")
    out = []
    for row in result.aspect_dist:
        idx = int(np.argmax(row))
        out.append((labels[idx], float(row[idx])))
    return out


def sentence_scalar_scores(result: AttributionResult, n_classes: int | None = None) -> np.ndarray:
    """Scalar sentiment per sentence: the raw score (regression) or the
    expected rating value under softmax(score) (classification)."""
    if result.rating_scores.ndim == 1:
        return result.rating_scores.copy()
    logits = result.rating_scores
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
    classes = np.arange(1, logits.shape[1] + 1, dtype=np.float64)
    return probs @ classes
