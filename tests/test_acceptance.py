"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Numeric tolerances are pinned in the assertions.

Full-scale reference results for context (recorded, deliberately not
asserted — they come from corpora and training budgets far beyond this
test environment): CNN+C2 average aspect MSE 0.968 on hotel reviews;
RNN+R average aspect MSE 0.201 on beer reviews; GRU+R agreement with
keyword labels 0.95.
"""

import functools
import json
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from saam import autodiff as ad
from saam.encoders import EncoderConfig
from saam.evaluation import (
    classification_metrics,
    cohen_kappa,
    evaluate_attribution,
    evaluate_model,
    regression_metrics,
)
from saam.heads import head_forward
from saam.oracles import embed, random_head_instance
from saam.selftest import (
    MODEL_GRADCHECK_PAIRS,
    head_oracle_check,
    model_gradcheck,
    op_gradcheck_cases,
)
from saam.text import (
    ReviewDocument,
    aspect_names_from_records,
    build_vocabulary,
    docs_from_records,
    generate_synthetic_corpus,
    keyword_label_sentences,
    split_corpus,
)
from saam.training import TrainConfig, save_checkpoint, train

DATA_DIR = Path(__file__).parent / "data"


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}")
                raise
            print(f"[PASS] criterion {number}: {title}")
            return result
        return wrapper
    return deco


def synthetic_splits(n_aspects, n_docs, seed, **generator_kwargs):
    records = generate_synthetic_corpus(n_aspects=n_aspects, n_docs=n_docs, seed=seed,
                                        **generator_kwargs)
    aspects = aspect_names_from_records(records)
    vocab = build_vocabulary([s for rec in records for s in rec["sentences"]])
    docs = docs_from_records(records, vocab, aspects)
    return split_corpus(docs, seed=seed), vocab, aspects


def mean_r_train_config(vocab, n_aspects, seed, **overrides):
    defaults = dict(
        variant="R",
        encoder=EncoderConfig("mean", vocab_size=vocab.size, embedding_dim=16),
        n_aspects=n_aspects, s_max=4, t_max=8, lr=0.05, optimizer="adam",
        batch_size=32, max_epochs=40, patience=8, seed=seed)
    defaults.update(overrides)
    return TrainConfig(**defaults)


@criterion(1, "gradient correctness for every op and all fifteen encoder+head combos, < 60 s")
def test_c01_gradient_correctness():
    started = time.monotonic()
    for name, build, params in op_gradcheck_cases():
        report = ad.grad_check(build, params)
        assert report.passed, f"{name}: {report.summary()}"
    for encoder_kind, variant in MODEL_GRADCHECK_PAIRS:
        report = model_gradcheck(encoder_kind, variant)
        assert report.passed, f"{encoder_kind}+{variant}: {report.summary()}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


@criterion(2, "heads match brute-force loop oracles to 1e-12 on 100 random instances")
def test_c02_oracle_equivalence():
    rng = np.random.default_rng(202)
    for variant in ("C1", "C2", "R"):
        ok, detail = head_oracle_check(variant, rng, instances=100)
        assert ok, f"{variant}: {detail}"


@criterion(3, "every softmax output sums to 1 within 1e-9 over 1000 random instances")
def test_c03_normalization_invariants():
    rng = np.random.default_rng(303)
    variants = ("C1", "C2", "R")
    for i in range(1000):
        config, params, u, _ = random_head_instance(rng, variants[i % 3])
        preds, attribution = head_forward(u, params, config)
        rows = attribution.aspect_dist
        assert np.all(rows >= 0.0) and np.all(rows <= 1.0)
        assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-9, rtol=0)
        if config.is_classification:
            assert_allclose(preds.overall.data.sum(), 1.0, atol=1e-9, rtol=0)
            for dist in preds.per_aspect:
                assert_allclose(dist.data.sum(), 1.0, atol=1e-9, rtol=0)


@criterion(4, "appending padded sentence slots leaves predictions bit-identical (hard mask)")
def test_c04_mask_invariance():
    rng = np.random.default_rng(404)
    variants = ("C1", "C2", "R")
    for i in range(100):
        variant = variants[i % 3]
        config, params, _, _ = random_head_instance(rng, variant, s_max=5)
        n = int(rng.integers(1, 5))
        rows = rng.normal(size=(n, 5))
        base_preds, _ = head_forward(embed(rows, s_max=n), params, config)
        base_overall = base_preds.overall.data.copy()
        base_aspects = [t.data.copy() for t in base_preds.per_aspect]
        for extra in range(1, 5 - n + 1):
            preds, _ = head_forward(embed(rows, s_max=n + extra), params, config)
            assert np.array_equal(preds.overall.data, base_overall)
            for got, want in zip(preds.per_aspect, base_aspects):
                assert np.array_equal(got.data, want)


@criterion(5, "one gradient step moves attribution and sentiment in the documented directions")
def test_c05_gradient_direction_two_document_example():
    # document 1: sentiment 3.0 is right, attribution [service, room] ~ [0, 1]
    # is wrong; targets are service 3.0 / room 0.0.
    sentiment = ad.parameter(3.0)
    logits = ad.parameter([-2.0, 2.0])
    with ad.Graph():
        att = ad.softmax_lastdim(logits)
        scaled = ad.mul(att, sentiment)
        loss = ad.add(ad.squared_error(ad.slice_rows(scaled, 0, 1), 3.0),
                      ad.squared_error(ad.slice_rows(scaled, 1, 2), 0.0))
        ad.backward(loss)
    service_logit_before, room_logit_before = logits.data.copy()
    lr = 0.01
    stepped = logits.data - lr * logits.grad
    assert stepped[0] > service_logit_before   # service attribution logit moves up
    assert stepped[1] < room_logit_before      # room attribution logit moves down

    # document 2: attribution ~ [1, 0] is right, sentiment 3.0 is too high
    # for target service 1.0.
    sentiment = ad.parameter(3.0)
    logits = ad.parameter([2.0, -2.0])
    with ad.Graph():
        att = ad.softmax_lastdim(logits)
        scaled = ad.mul(att, sentiment)
        loss = ad.add(ad.squared_error(ad.slice_rows(scaled, 0, 1), 1.0),
                      ad.squared_error(ad.slice_rows(scaled, 1, 2), 0.0))
        ad.backward(loss)
    assert float(sentiment.data - lr * sentiment.grad) < 3.0  # sentiment moves down


@criterion(6, "4-aspect synthetic corpus: attribution accuracy >= 0.95, "
              "per-aspect MSE <= 0.05, < 5 min")
def test_c06_synthetic_convergence():
    started = time.monotonic()
    splits, vocab, aspects = synthetic_splits(
        n_aspects=4, n_docs=2000, seed=11, rating_scheme="half", exact_mean_only=True)
    config = mean_r_train_config(vocab, n_aspects=4, seed=11, max_epochs=300, patience=8)
    checkpoint, history = train(config, splits, vocab_hash=vocab.content_hash())
    assert len(history) <= 300
    model = checkpoint.build_model()
    report = evaluate_model(model, splits["test"], aspects.names)
    for name in aspects.names:
        assert report.targets[name]["mse"] <= 0.05, \
            f"{name}: mse {report.targets[name]['mse']:.4f}"
    gold = [doc.sentence_labels for doc in splits["test"]]
    accuracy = evaluate_attribution(model, splits["test"], aspects.names, gold)
    assert accuracy >= 0.95, f"attribution accuracy {accuracy:.3f}"
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"convergence run took {elapsed:.0f}s"


@criterion(7, "attribution head beats the flat multi-head baseline by >= 10% relative "
              "aspect MSE on a 30%-overlap corpus, 3 seeds")
def test_c07_directional_improvement_over_flat_baseline():
    improvements = []
    for seed in (1, 2, 3):
        splits, vocab, aspects = synthetic_splits(
            n_aspects=4, n_docs=600, seed=seed, rating_scheme="half",
            overlap_fraction=0.3, exact_mean_only=True)
        mses = {}
        for variant in ("R", "flat-r"):
            config = mean_r_train_config(vocab, n_aspects=4, seed=seed, variant=variant)
            checkpoint, _ = train(config, splits, vocab_hash=vocab.content_hash())
            report = evaluate_model(checkpoint.build_model(), splits["test"], aspects.names)
            mses[variant] = report.aspect_avg["mse"]
        improvements.append((mses["flat-r"] - mses["R"]) / mses["flat-r"])
    mean_improvement = float(np.mean(improvements))
    assert mean_improvement >= 0.10, \
        f"mean relative improvement {mean_improvement:.1%} (per seed: {improvements})"


@criterion(8, "keyword labeler maps A:/S:/M:/T: prefixes exactly on the golden fixture")
def test_c08_keyword_labeler_golden_fixture():
    rows = [json.loads(line) for line in
            (DATA_DIR / "keyword_golden.jsonl").read_text().splitlines()]
    assert rows, "fixture file is empty"
    doc = ReviewDocument("golden", [[] for _ in rows], [r["sentence"] for r in rows],
                         4.0, [4.0, 4.0, 4.0, 4.0])
    labels = keyword_label_sentences(doc, scheme="beer")
    expected = [r["label"] for r in rows]
    assert labels == expected
    covered = {r["label"] for r in rows}
    assert covered >= {"Appearance", "Aroma", "Palate", "Taste", "unlabeled"}


@criterion(9, "equal seed/config gives byte-identical checkpoints; "
              "save/load round-trips predictions bit-exactly")
def test_c09_determinism_and_persistence(tmp_path):
    splits, vocab, aspects = synthetic_splits(n_aspects=2, n_docs=60, seed=9,
                                              exact_mean_only=True, sentences_per_aspect=2)
    config = mean_r_train_config(vocab, n_aspects=2, seed=9, max_epochs=5, patience=5)
    paths = []
    checkpoints = []
    for run in ("a", "b"):
        checkpoint, _ = train(config, splits, vocab_hash=vocab.content_hash())
        path = tmp_path / f"{run}.ckpt"
        save_checkpoint(checkpoint, path)
        paths.append(path)
        checkpoints.append(checkpoint)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    from saam.training import load_checkpoint
    loaded = load_checkpoint(paths[0], expect_vocab_hash=vocab.content_hash())
    m_orig = checkpoints[0].build_model()
    m_loaded = loaded.build_model()
    for doc in splits["test"][:10]:
        a, _ = m_orig.predict(doc.sentences)
        b, _ = m_loaded.predict(doc.sentences)
        assert float(a.overall.data) == float(b.overall.data)
        for x, y in zip(a.per_aspect, b.per_aspect):
            assert float(x.data) == float(y.data)


@criterion(10, "metric definitions: class-value MSE, R2 of the mean predictor, kappa hand cases")
def test_c10_metric_correctness():
    # classification MSE regards predicted classes as real rating values
    def onehot(c):
        v = np.zeros(5)
        v[c] = 1.0
        return v

    preds = [[onehot(2)] for _ in range(4)]   # always predicts rating 3
    golds = [[5.0]] * 4
    report = classification_metrics(preds, golds, ["overall"])
    assert report.targets["overall"]["mse"] == 4.0
    assert report.targets["overall"]["accuracy"] == 0.0

    # R2 of the gold-mean constant predictor is exactly zero
    golds = [[1.0], [2.0], [3.0], [4.0]]
    mean_preds = [[2.5]] * 4
    report = regression_metrics(mean_preds, golds, ["overall"])
    assert report.targets["overall"]["r2"] == 0.0

    # hand kappa cases
    assert cohen_kappa(["x", "x", "y", "y"], ["x", "y", "x", "y"]) == pytest.approx(0.0)
    assert cohen_kappa(["x", "y", "x"], ["x", "y", "x"]) == 1.0
    rng = np.random.default_rng(10)
    a = [("x" if v else "y") for v in rng.integers(0, 2, size=4000)]
    b = [("x" if v else "y") for v in rng.integers(0, 2, size=4000)]
    assert abs(cohen_kappa(a, b)) < 0.05
