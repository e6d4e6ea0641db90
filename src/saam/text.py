"""Corpus ingestion: tokenization, vocabulary, splits, batching, and the
synthetic separable-aspect corpus generator used by the convergence tests.

Corpus files are UTF-8 JSON lines, one document per line:
``{"doc_id": str, "text": str | "sentences": [str], "overall": number,
"aspects": {name: number}, "sentence_labels": [str] (optional)}``.
Vocabulary files are ``token TAB id TAB count`` lines sorted by id.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

PAD_ID = 0
UNK_ID = 1

UNLABELED = "unlabeled"
NONE_LABEL = "none"

# Reviewer formatting prefixes that mark the aspect of a sentence.
KEYWORD_SCHEMES = {
    "beer": {"a": "Appearance", "s": "Aroma", "m": "Palate", "t": "Taste"},
}

_SENTENCE_END = re.compile(r"[.!?]+(?:\s+|$)")
_PREFIX_TOKEN = re.compile(r"^[a-z]:$")
_WORD = re.compile(r"[a-z0-9_]+")


class CorpusError(ValueError):
    """A corpus file or record violates the documented format."""


@dataclass(frozen=True)
class AspectSet:
    names: tuple

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) == 0:
            raise ValueError("aspect set must contain at least one aspect")
        if len(set(names)) != len(names) or any(not n for n in names):
            raise ValueError(f"aspect names must be unique and nonempty: {names}")

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown aspect {name!r}; known: {list(self.names)}") from None


@dataclass
class ReviewDocument:
    doc_id: str
    sentences: list            # token-id sequences
    raw_sentences: list        # original sentence strings, aligned
    overall_rating: float
    aspect_ratings: list       # one per aspect; None marks an unrated aspect
    sentence_labels: list | None = None

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)

    def fully_rated(self) -> bool:
        return all(r is not None for r in self.aspect_ratings)


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------

def _tokenize_chunk(chunk: str) -> list:
    chunk = chunk.lower()
    if _PREFIX_TOKEN.match(chunk):
        return [chunk]  # keep "a:"-style markers whole for keyword labeling
    return _WORD.findall(chunk)


def split_sentences(raw_text: str) -> list:
    """Split on terminal punctuation, then into lowercase tokens.

    Returns a list of (sentence_text, tokens) pairs; empty sentences are
    dropped.
    """
    out = []
    for piece in _SENTENCE_END.split(raw_text):
        piece = piece.strip()
        if not piece:
            continue
        tokens = []
        for chunk in piece.split():
            tokens.extend(_tokenize_chunk(chunk))
        if tokens:
            out.append((piece, tokens))
    return out


def tokenize_and_split(raw_text: str, vocab: "Vocabulary") -> list:
    """Sentence-split and map to token ids; unknown tokens become UNK_ID."""
    return [vocab.encode(tokens) for _, tokens in split_sentences(raw_text)]


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

@dataclass
class Vocabulary:
    token_to_id: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.token_to_id) + 2  # ids 0 (pad) and 1 (unk) are reserved

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def encode(self, tokens) -> list:
        return [self.id_for(t) for t in tokens]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for token, tid in sorted(self.token_to_id.items(), key=lambda kv: kv[1]):
                f.write(f"{token}\t{tid}\t{self.counts.get(token, 0)}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        token_to_id = {}
        counts = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if not line:
                    continue
                token, tid, count = line.split("\t")
                token_to_id[token] = int(tid)
                counts[token] = int(count)
        return cls(token_to_id, counts)

    def content_hash(self) -> bytes:
        h = hashlib.sha256()
        for token, tid in sorted(self.token_to_id.items(), key=lambda kv: kv[1]):
            h.update(f"{token}\t{tid}\t{self.counts.get(token, 0)}\n".encode("utf-8"))
        return h.digest()


def build_vocabulary(corpus, min_frequency: int = 1) -> Vocabulary:
    """Count tokens and assign dense ids from 2 upward.

    ``corpus`` holds raw text strings or pre-tokenized documents (lists of
    token lists). Ids go to tokens with count >= min_frequency, in
    descending-frequency order, ties broken lexicographically.
    """
    counts = {}
    for doc in corpus:
        if isinstance(doc, str):
            token_lists = [tokens for _, tokens in split_sentences(doc)]
        else:
            token_lists = doc
        for tokens in token_lists:
            for t in tokens:
                counts[t] = counts.get(t, 0) + 1
    kept = sorted((t for t, c in counts.items() if c >= min_frequency),
                  key=lambda t: (-counts[t], t))
    token_to_id = {t: i + 2 for i, t in enumerate(kept)}
    return Vocabulary(token_to_id, {t: counts[t] for t in kept})


# ---------------------------------------------------------------------------
# splits and silver labels
# ---------------------------------------------------------------------------

def split_corpus(docs, seed: int, dev_size: int | None = None,
                 min_sentences: int = 4, train_fraction: float = 0.75) -> dict:
    """Filter, shuffle, and partition documents into train/dev/test.

    Keeps documents with at least ``min_sentences`` sentences and every
    aspect rated. The shuffled remainder splits train_fraction/rest into
    train/test; ``dev_size`` documents (default min(1000, 10% of train))
    then move from train to dev.
    """
    eligible = [d for d in docs if d.n_sentences >= min_sentences and d.fully_rated()]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(eligible))
    shuffled = [eligible[i] for i in order]
    n = len(shuffled)
    n_test = int(round(n * (1.0 - train_fraction)))
    test = shuffled[:n_test]
    train = shuffled[n_test:]
    if dev_size is None:
        dev_size = min(1000, len(train) // 10)
    if dev_size > len(train):
        raise CorpusError(f"dev size {dev_size} exceeds training pool of {len(train)} "
                          f"({n} eligible documents after filtering)")
    dev = train[:dev_size]
    train = train[dev_size:]
    if not train:
        raise CorpusError(f"no training documents left from {n} eligible")
    return {"train": train, "dev": dev, "test": test}


def keyword_label_sentences(doc: ReviewDocument, scheme: str = "beer") -> list:
    """Silver aspect labels from the first token of each sentence.

    A sentence starting with a letter-colon marker mapped by the scheme
    gets that aspect; every other sentence is "unlabeled".
    """
    try:
        mapping = KEYWORD_SCHEMES[scheme]
    except KeyError:
        raise ValueError(f"unknown keyword scheme {scheme!r}; known: {sorted(KEYWORD_SCHEMES)}") from None
    labels = []
    for raw in doc.raw_sentences:
        chunks = raw.split()
        first = _tokenize_chunk(chunks[0]) if chunks else []
        label = UNLABELED
        if first and _PREFIX_TOKEN.match(first[0]):
            label = mapping.get(first[0][0], UNLABELED)
        labels.append(label)
    return labels


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class PaddedBatch:
    token_ids: np.ndarray      # [batch, s_max, t_max] int64, pad id 0
    sentence_mask: np.ndarray  # [batch, s_max] bool
    token_mask: np.ndarray     # [batch, s_max, t_max] bool
    overall: np.ndarray        # [batch] float64
    aspect_ratings: np.ndarray  # [batch, |A|] float64
    docs: list

    def __len__(self):
        return self.token_ids.shape[0]

    def doc_sentences(self, b: int) -> list:
        """Real token-id sequences for document b, via the masks."""
        out = []
        for s in range(self.token_ids.shape[1]):
            if not self.sentence_mask[b, s]:
                break
            row = self.token_ids[b, s]
            out.append([int(t) for t in row[self.token_mask[b, s]]])
        return out


def make_batch(docs, s_max: int, t_max: int) -> PaddedBatch:
    if s_max < 1 or t_max < 1:
        raise ValueError("s_max and t_max must be >= 1")
    batch = len(docs)
    n_aspects = len(docs[0].aspect_ratings) if docs else 0
    token_ids = np.zeros((batch, s_max, t_max), dtype=np.int64)
    sentence_mask = np.zeros((batch, s_max), dtype=bool)
    token_mask = np.zeros((batch, s_max, t_max), dtype=bool)
    overall = np.zeros(batch)
    aspects = np.zeros((batch, n_aspects))
    for b, doc in enumerate(docs):
        overall[b] = doc.overall_rating
        aspects[b] = [r if r is not None else np.nan for r in doc.aspect_ratings]
        for s, sent in enumerate(doc.sentences[:s_max]):
            kept = sent[:t_max]
            token_ids[b, s, :len(kept)] = kept
            token_mask[b, s, :len(kept)] = True
            sentence_mask[b, s] = True
    return PaddedBatch(token_ids, sentence_mask, token_mask, overall, aspects, list(docs))


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------

def write_corpus(records, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def read_corpus(path) -> list:
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"{path}: line {lineno}: invalid JSON ({e.msg})") from None
            if not isinstance(rec, dict) or "doc_id" not in rec:
                raise CorpusError(f"{path}: line {lineno}: record must be an object with doc_id")
            if "text" not in rec and "sentences" not in rec:
                raise CorpusError(f"{path}: line {lineno}: record needs text or sentences")
            if "overall" not in rec or "aspects" not in rec:
                raise CorpusError(f"{path}: line {lineno}: record needs overall and aspects")
            _check_ratings(rec, f"{path}: line {lineno}")
            records.append(rec)
    return records


def _is_rating(value) -> bool:
    """A JSON number that is finite as a float: not a string, a boolean or null."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past float range
        return False


def _check_ratings(rec, where: str) -> None:
    """CorpusError unless ``overall`` is a finite number and ``aspects`` an
    object whose ratings are finite numbers or null (unrated)."""
    if not _is_rating(rec["overall"]):
        raise CorpusError(f"{where}: overall rating {rec['overall']!r} is not a number")
    if not isinstance(rec["aspects"], dict):
        raise CorpusError(f"{where}: aspects must be an object of ratings")
    for name, value in rec["aspects"].items():
        if value is not None and not _is_rating(value):
            raise CorpusError(f"{where}: aspect {name!r} rating {value!r} is not a number")


def record_sentences(rec) -> list:
    """(sentence_text, tokens) pairs for a corpus record."""
    if "sentences" in rec:
        out = []
        for s in rec["sentences"]:
            tokens = []
            for chunk in s.split():
                tokens.extend(_tokenize_chunk(chunk))
            if tokens:
                out.append((s, tokens))
        return out
    return split_sentences(rec["text"])


def docs_from_records(records, vocab: Vocabulary, aspects: AspectSet) -> list:
    docs = []
    for rec in records:
        pairs = record_sentences(rec)
        ratings = [rec["aspects"].get(name) for name in aspects.names]
        labels = rec.get("sentence_labels")
        docs.append(ReviewDocument(
            doc_id=str(rec["doc_id"]),
            sentences=[vocab.encode(tokens) for _, tokens in pairs],
            raw_sentences=[text for text, _ in pairs],
            overall_rating=float(rec["overall"]),
            aspect_ratings=[float(r) if r is not None else None for r in ratings],
            sentence_labels=list(labels) if labels is not None else None,
        ))
    return docs


def aspect_names_from_records(records) -> AspectSet:
    """Aspect order = key order of the first record's aspects object."""
    if not records:
        raise CorpusError("empty corpus")
    return AspectSet(tuple(records[0]["aspects"].keys()))


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

_RATING_GRIDS = {
    "integer": [float(r) for r in range(1, 6)],
    "half": [1.0 + 0.5 * k for k in range(9)],
}


def _sentiment_token(rating: float, variant: int) -> str:
    if rating == int(rating):
        return f"sent_{int(rating)}_{variant}"
    return f"sent_{int(rating)}p5_{variant}"


def _round_to_grid(value: float, scheme: str) -> float:
    if scheme == "integer":
        return float(int(np.floor(value + 0.5)))
    return float(np.floor(value * 2.0 + 0.5)) / 2.0


def generate_synthetic_corpus(n_aspects: int = 4, n_docs: int = 100, seed: int = 0,
                              keywords_per_aspect: int = 6, tokens_per_sentence: int = 3,
                              sentences_per_aspect: int = 1, rating_scheme: str = "integer",
                              overlap_fraction: float = 0.0, shared_pool_size: int = 8,
                              sentiment_variants: int = 2, exact_mean_only: bool = False,
                              aspect_names=None, aspect_vocabularies=None) -> list:
    """Generate corpus records whose sentence aspects and scores are known.

    Each sentence belongs to exactly one aspect: it mixes keywords from that
    aspect's vocabulary (or, with probability ``overlap_fraction`` per slot,
    from a pool shared across aspects) with one sentiment token that encodes
    the aspect's rating. The overall rating is the mean of the aspect
    ratings rounded to the rating grid; ``exact_mean_only`` rejects rating
    draws whose mean is off-grid, making every target exactly representable.
    Ground-truth sentence labels are stored in ``sentence_labels``.
    """
    if rating_scheme not in _RATING_GRIDS:
        raise ValueError(f"unknown rating scheme {rating_scheme!r}")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError("overlap_fraction must be in [0, 1)")
    if aspect_names is None:
        aspect_names = [f"aspect{i + 1}" for i in range(n_aspects)]
    if len(aspect_names) != n_aspects:
        raise ValueError("aspect_names length must equal n_aspects")
    if aspect_vocabularies is None:
        aspect_vocabularies = [[f"kw_{name}_{k}" for k in range(keywords_per_aspect)]
                               for name in aspect_names]
    seen = set()
    for vocab in aspect_vocabularies:
        for token in vocab:
            if token in seen:
                raise ValueError(f"overlapping aspect vocabularies: token {token!r} appears twice")
            seen.add(token)
    shared_pool = [f"shared_{k}" for k in range(shared_pool_size)]

    grid = _RATING_GRIDS[rating_scheme]
    rng = np.random.default_rng(seed)
    records = []
    for d in range(n_docs):
        while True:
            ratings = [grid[rng.integers(len(grid))] for _ in range(n_aspects)]
            mean = float(np.mean(ratings))
            overall = _round_to_grid(mean, rating_scheme)
            if not exact_mean_only or overall == mean:
                break
        sentences = []
        labels = []
        slots = [a for a in range(n_aspects) for _ in range(sentences_per_aspect)]
        rng.shuffle(slots)
        for a in slots:
            tokens = []
            for _ in range(tokens_per_sentence):
                if overlap_fraction > 0.0 and rng.random() < overlap_fraction:
                    tokens.append(shared_pool[rng.integers(len(shared_pool))])
                else:
                    vocab = aspect_vocabularies[a]
                    tokens.append(vocab[rng.integers(len(vocab))])
            tokens.append(_sentiment_token(ratings[a], int(rng.integers(sentiment_variants))))
            rng.shuffle(tokens)
            sentences.append(" ".join(tokens))
            labels.append(aspect_names[a])
        records.append({
            "doc_id": f"syn{d:05d}",
            "sentences": sentences,
            "overall": overall,
            "aspects": {name: ratings[i] for i, name in enumerate(aspect_names)},
            "sentence_labels": labels,
        })
    return records
