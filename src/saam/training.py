"""Losses, optimizers, the training loop, and portable checkpoints.

Training is mini-batch gradient descent with dev-set early stopping: after
each epoch the dev loss is measured, the best parameter snapshot is kept,
and training stops once ``patience`` epochs pass without improvement.
Everything is driven by one seed, so equal configs produce byte-identical
checkpoints.

Checkpoint wire format, version 2 (little-endian): magic ``SAAMCKPT``, u32
format version, u32 config-blob length + UTF-8 JSON blob, 32-byte
vocabulary hash, u32 best epoch, f64 best dev loss, u32 entry count, then
per entry: u32 name length + name, u32 rank, u32 per dimension, and the
row-major float64 values. Version 1 lacked the best epoch and best dev
loss; loading it raises ``CheckpointVersionError``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .encoders import EncoderConfig, check_number
from .heads import HeadConfig
from .model import SaamModel
from .text import CorpusError

CHECKPOINT_MAGIC = b"SAAMCKPT"
CHECKPOINT_VERSION = 2

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

DEFAULT_GRU_CLIP = 5.0


class CheckpointError(ValueError):
    """Base for checkpoint load failures."""


class CorruptCheckpointError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class VocabularyHashError(CheckpointError):
    pass


class TrainingDivergedError(ArithmeticError):
    pass


@dataclass
class TrainConfig:
    variant: str
    encoder: EncoderConfig
    n_aspects: int
    s_max: int
    t_max: int = 30
    n_classes: int = 5
    lr: float = 0.01
    optimizer: str = "adam"
    batch_size: int = 16
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    lambda_overall: float = 1.0
    lambda_aspect: float = 1.0
    epsilon: float = 1e-8
    attribution_mask_mode: str = "hard"
    grad_clip: float | str | None = "auto"

    def __post_init__(self):
        for name in ("n_aspects", "s_max", "t_max", "n_classes", "batch_size", "max_epochs",
                     "patience", "seed"):
            check_number(name, getattr(self, name), integer=True)
        for name in ("lr", "lambda_overall", "lambda_aspect", "epsilon"):
            check_number(name, getattr(self, name))
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        for name in ("s_max", "t_max", "batch_size", "max_epochs", "patience"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.grad_clip is not None and self.grad_clip != "auto":
            check_number("grad_clip", self.grad_clip)
            if not self.grad_clip > 0:
                raise ValueError(f"grad_clip must be > 0, got {self.grad_clip}")
        self.head_config()  # HeadConfig checks the head fields

    def resolved_grad_clip(self) -> float | None:
        if self.grad_clip == "auto":
            return DEFAULT_GRU_CLIP if self.encoder.kind == "gru" else None
        return self.grad_clip

    def head_config(self) -> HeadConfig:
        return HeadConfig(self.variant, n_aspects=self.n_aspects,
                          feature_dim=self.encoder.feature_dim, s_max=self.s_max,
                          n_classes=self.n_classes, epsilon=self.epsilon,
                          attribution_mask_mode=self.attribution_mask_mode)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["encoder"] = self.encoder.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        d["encoder"] = EncoderConfig.from_dict(d["encoder"])
        return cls(**d)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _rating_to_class(rating: float, n_classes: int) -> int:
    cls = int(round(rating)) - 1
    if abs(rating - round(rating)) > 1e-9 or not 0 <= cls < n_classes:
        raise ValueError(f"rating {rating} outside the 1..{n_classes} class domain")
    return cls


def classification_loss(preds, doc, n_classes: int = 5,
                        lambda_overall: float = 1.0, lambda_aspect: float = 1.0):
    loss = ad.scale(ad.cross_entropy(preds.overall,
                                     _rating_to_class(doc.overall_rating, n_classes)),
                    lambda_overall)
    for dist, rating in zip(preds.per_aspect, doc.aspect_ratings):
        loss = ad.add(loss, ad.scale(ad.cross_entropy(dist, _rating_to_class(rating, n_classes)),
                                     lambda_aspect))
    return loss


def regression_loss(preds, doc, lambda_overall: float = 1.0, lambda_aspect: float = 1.0):
    loss = ad.scale(ad.squared_error(preds.overall, doc.overall_rating), lambda_overall)
    for pred, rating in zip(preds.per_aspect, doc.aspect_ratings):
        loss = ad.add(loss, ad.scale(ad.squared_error(pred, rating), lambda_aspect))
    return loss


def document_loss(model: SaamModel, preds, doc, config: TrainConfig):
    if model.kind == "classification":
        return classification_loss(preds, doc, config.n_classes,
                                   config.lambda_overall, config.lambda_aspect)
    return regression_loss(preds, doc, config.lambda_overall, config.lambda_aspect)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def _scale_gradient(p: ad.Tensor, factor: float) -> None:
    """``p.grad *= factor``, multiplying only the rows that ``ad.grad_rows``
    names when there is a record: every other row holds ``+0.0``, which the
    factor (always ``> 0``: a batch mean or a clip) leaves as it is."""
    rows = ad.grad_rows(p)
    if rows is None:
        p.grad *= factor
    else:
        p.grad[rows] *= factor


def clip_gradients(params: dict, max_norm: float) -> None:
    # one dense sum per gradient: its pairwise order sets the bits
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = np.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                _scale_gradient(p, factor)


class Sgd:
    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr

    def step(self) -> None:
        for p in self.params.values():
            if p.grad is not None:
                p.data -= self.lr * p.grad


# Share of a table's rows above which Adam's dense update is faster than the
# gather-update-scatter of the live rows. On a 20002x100 table (2-CPU x86-64,
# numpy 2.4) the row update takes 9 ms at a 30% share, 17-18 ms at 35-40%
# and 55 ms at 100%, against 17-20 ms dense; the cut sits below that range.
DENSE_ABOVE_LIVE_SHARE = 0.25


class Adam:
    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0
        # name -> bool mask of the rows that have had a gradient so far, for
        # tables whose gradients have all come with a row record and whose
        # live share is still at most DENSE_ABOVE_LIVE_SHARE; None once the
        # dense update runs, which it then does for good
        self.live_rows = {}

    def step(self) -> None:
        """One dense Adam update of every parameter that has a gradient.

        ``m``, ``v`` and the parameters are updated in place through two
        scratch buffers, in the operation order of
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
        ``p -= lr*(m/b1t) / (sqrt(v/b2t) + eps)``, so the result is
        bit-identical to evaluating those expressions. Every ufunc gets an
        ``out=`` array: on a 0-d operand it would otherwise return a scalar.

        Of a table whose gradients have so far all come with a row record
        (``ad.grad_rows``), only the live rows are updated: those that have
        had a gradient at this step or any earlier one. Each of the others
        has ``g = m = v = 0``, where dense Adam is an exact no-op (``m`` and
        ``v`` stay ``0``, the step is ``0 / (0 + eps) = 0``, and ``p - 0``
        is ``p``, ``-0.0`` included). A live row is updated at every step,
        as dense Adam does, also while its gradient is zero. Once more than
        ``DENSE_ABOVE_LIVE_SHARE`` of a table's rows are live, the table
        takes the dense update for good: gathering and scattering that many
        rows costs more than the contiguous passes. Either path gives the
        same bits, so the switch changes no result.
        """
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            live = self._live_rows(name, p)
            if live is None:
                self._update(p.grad, self.m[name], self.v[name], p.data, b1t, b2t)
            else:
                m, v = self.m[name][live], self.v[name][live]
                data = p.data[live]
                self._update(p.grad[live], m, v, data, b1t, b2t)
                self.m[name][live], self.v[name][live], p.data[live] = m, v, data

    def _live_rows(self, name: str, p: ad.Tensor):
        """Sorted rows of ``p`` that have had a gradient at this step or an
        earlier one, or ``None`` for every row."""
        rows = ad.grad_rows(p)
        if rows is None:
            self.live_rows[name] = None
            return None
        if name not in self.live_rows:
            self.live_rows[name] = np.zeros(p.data.shape[0], dtype=bool)
        mask = self.live_rows[name]
        if mask is None:
            return None
        mask[rows] = True
        live = np.flatnonzero(mask)
        if len(live) > DENSE_ABOVE_LIVE_SHARE * len(mask):
            self.live_rows[name] = None
            return None
        return live

    def _update(self, g, m, v, data, b1t: float, b2t: float) -> None:
        """Adam's ufunc sequence on ``m``, ``v`` and ``data``, in place."""
        step = np.empty_like(m)
        denom = np.empty_like(v)
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        np.add(m, step, out=m)
        np.multiply(g, g, out=denom)
        np.multiply(denom, 1.0 - ADAM_BETA2, out=denom)
        np.multiply(v, ADAM_BETA2, out=v)
        np.add(v, denom, out=v)
        np.divide(m, b1t, out=step)
        np.multiply(step, self.lr, out=step)
        np.divide(v, b2t, out=denom)
        np.sqrt(denom, out=denom)
        np.add(denom, ADAM_EPS, out=denom)
        np.divide(step, denom, out=step)
        np.subtract(data, step, out=data)


def make_optimizer(kind: str, params: dict, lr: float):
    return Adam(params, lr) if kind == "adam" else Sgd(params, lr)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _mean_split_loss(model: SaamModel, docs, config: TrainConfig) -> float:
    total = 0.0
    for doc in docs:
        preds, _ = model.forward(doc.sentences)
        total += float(document_loss(model, preds, doc, config).data)
    return total / len(docs)


def train(config: TrainConfig, splits: dict, vocab_hash: bytes = b"\x00" * 32):
    """Train a model on ``splits['train']`` with early stopping on dev loss.

    Returns (Checkpoint of the best-dev parameters, per-epoch history).
    History entries carry epoch, train_loss, dev_loss, and best flag. A
    classification variant raises ``CorpusError`` before the first epoch
    on a train or dev rating outside its 1..n_classes domain.
    """
    train_docs = list(splits["train"])
    dev_docs = list(splits.get("dev") or [])
    if not train_docs:
        raise ValueError("empty training split")
    if config.head_config().is_classification:  # regression takes any rating
        for doc in train_docs + dev_docs:
            for rating in (doc.overall_rating, *doc.aspect_ratings):
                try:
                    _rating_to_class(rating, config.n_classes)
                except ValueError as e:
                    raise CorpusError(f"document {doc.doc_id}: {e}") from None
    model = SaamModel(config.encoder, config.head_config(), seed=config.seed,
                      t_max=config.t_max)
    optimizer = make_optimizer(config.optimizer, model.params, config.lr)
    clip = config.resolved_grad_clip()
    rng = np.random.default_rng(config.seed)

    best_loss = np.inf
    best_arrays = model.param_arrays()
    best_epoch = 0
    history = []
    epochs_since_best = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_docs))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            ad.zero_grads(model.params)
            batch_loss = 0.0
            for bi in batch_idx:
                doc = train_docs[bi]
                try:
                    with ad.Graph():
                        preds, _ = model.forward(doc.sentences)
                        loss = document_loss(model, preds, doc, config)
                        value = float(loss.data)
                        ad.backward(loss)
                except ad.NumericError as e:
                    raise TrainingDivergedError(
                        f"training diverged at epoch {epoch}, batch {start // config.batch_size}, "
                        f"doc {doc.doc_id}: {e}") from e
                batch_loss += value
            scale = 1.0 / len(batch_idx)
            for p in model.params.values():
                if p.grad is not None:
                    _scale_gradient(p, scale)
            if clip is not None:
                clip_gradients(model.params, clip)
            optimizer.step()
            epoch_loss += batch_loss
        train_loss = epoch_loss / len(train_docs)
        dev_loss = _mean_split_loss(model, dev_docs, config) if dev_docs else train_loss
        improved = dev_loss < best_loss
        if improved:
            best_loss = dev_loss
            best_arrays = model.param_arrays()
            best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "dev_loss": dev_loss, "best": improved})
        if epochs_since_best >= config.patience:
            break
    checkpoint = Checkpoint(
        version=CHECKPOINT_VERSION,
        config=config.to_dict(),
        vocab_hash=vocab_hash,
        entries=[(name, best_arrays[name]) for name in model.params],
        best_epoch=best_epoch,
        best_dev_loss=float(best_loss),
    )
    return checkpoint, history


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    version: int
    config: dict
    vocab_hash: bytes
    entries: list = field(default_factory=list)  # (name, float64 ndarray) pairs
    best_epoch: int = 0
    best_dev_loss: float = float("nan")

    def arrays(self) -> dict:
        return {name: arr for name, arr in self.entries}

    def build_model(self) -> SaamModel:
        config = TrainConfig.from_dict(self.config)
        model = SaamModel(config.encoder, config.head_config(), seed=config.seed,
                          t_max=config.t_max)
        model.load_param_arrays(self.arrays())
        return model


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    config_blob = json.dumps(checkpoint.config, sort_keys=True).encode("utf-8")
    if len(checkpoint.vocab_hash) != 32:
        raise ValueError("vocab_hash must be 32 bytes")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", checkpoint.version))
        f.write(struct.pack("<I", len(config_blob)))
        f.write(config_blob)
        f.write(checkpoint.vocab_hash)
        f.write(struct.pack("<Id", checkpoint.best_epoch, checkpoint.best_dev_loss))
        f.write(struct.pack("<I", len(checkpoint.entries)))
        for name, arr in checkpoint.entries:
            name_bytes = name.encode("utf-8")
            f.write(struct.pack("<I", len(name_bytes)))
            f.write(name_bytes)
            f.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path, expect_vocab_hash: bytes | None = None) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    view = memoryview(blob)
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(view):
            raise CorruptCheckpointError(f"{path}: truncated while reading {what}")
        out = view[pos:pos + n]
        pos += n
        return out

    if bytes(take(8, "magic")) != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError(f"{path}: bad magic bytes; not a checkpoint file")
    version = struct.unpack("<I", take(4, "version"))[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, this build reads {CHECKPOINT_VERSION}")
    config_len = struct.unpack("<I", take(4, "config length"))[0]
    try:
        config = json.loads(bytes(take(config_len, "config blob")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CorruptCheckpointError(f"{path}: unreadable config blob: {e}") from None
    vocab_hash = bytes(take(32, "vocabulary hash"))
    if expect_vocab_hash is not None and vocab_hash != expect_vocab_hash:
        raise VocabularyHashError(
            f"{path}: checkpoint was built against a different vocabulary "
            f"(hash {vocab_hash.hex()[:12]}... != expected {expect_vocab_hash.hex()[:12]}...)")
    best_epoch, best_dev_loss = struct.unpack("<Id", take(12, "best epoch and dev loss"))
    n_entries = struct.unpack("<I", take(4, "entry count"))[0]
    entries = []
    for _ in range(n_entries):
        name_len = struct.unpack("<I", take(4, "name length"))[0]
        name = bytes(take(name_len, "name")).decode("utf-8")
        rank = struct.unpack("<I", take(4, "rank"))[0]
        shape = tuple(struct.unpack("<I", take(4, "dim"))[0] for _ in range(rank))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        data = np.frombuffer(take(8 * count, f"values of {name}"), dtype="<f8").reshape(shape)
        entries.append((name, data.astype(np.float64)))
    if pos != len(view):
        raise CorruptCheckpointError(f"{path}: {len(view) - pos} trailing bytes")
    return Checkpoint(version=version, config=config, vocab_hash=vocab_hash, entries=entries,
                      best_epoch=best_epoch, best_dev_loss=best_dev_loss)
