import gc
import math
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from saam import autodiff as ad
from saam.encoders import EncoderConfig
from saam.model import SaamModel
from saam.text import (
    CorpusError,
    aspect_names_from_records,
    build_vocabulary,
    docs_from_records,
    generate_synthetic_corpus,
)
from saam.training import (
    Adam,
    Checkpoint,
    CheckpointVersionError,
    CorruptCheckpointError,
    Sgd,
    TrainConfig,
    TrainingDivergedError,
    VocabularyHashError,
    _mean_split_loss,
    classification_loss,
    clip_gradients,
    document_loss,
    load_checkpoint,
    regression_loss,
    save_checkpoint,
    train,
)

from oracles import allocating_adam_step, dense_scatter_embedding_lookup


def synthetic_docs(n_aspects=2, n_docs=40, seed=0, **kwargs):
    records = generate_synthetic_corpus(n_aspects=n_aspects, n_docs=n_docs, seed=seed, **kwargs)
    aspects = aspect_names_from_records(records)
    vocab = build_vocabulary([s for rec in records for s in rec["sentences"]])
    return docs_from_records(records, vocab, aspects), vocab, aspects


def mean_r_config(vocab, n_aspects=2, s_max=2, **overrides):
    encoder = EncoderConfig("mean", vocab_size=vocab.size, embedding_dim=12)
    defaults = dict(variant="R", encoder=encoder, n_aspects=n_aspects, s_max=s_max,
                    t_max=8, lr=0.05, optimizer="adam", batch_size=16,
                    max_epochs=30, patience=30, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class FakeDoc:
    def __init__(self, overall, aspects):
        self.doc_id = "fake"
        self.overall_rating = overall
        self.aspect_ratings = list(aspects)


class FakePreds:
    def __init__(self, overall, per_aspect):
        self.overall = overall
        self.per_aspect = per_aspect


class TestLosses:
    def test_perfect_one_hot_classification(self):
        preds = FakePreds(ad.constant([0.0, 0.0, 1.0, 0.0, 0.0]),
                          [ad.constant([1.0, 0.0, 0.0, 0.0, 0.0])])
        doc = FakeDoc(3.0, [1.0])
        assert classification_loss(preds, doc).item() == pytest.approx(0.0)

    def test_uniform_predictions_give_log_classes(self):
        uniform = ad.constant([0.2] * 5)
        preds = FakePreds(uniform, [ad.constant([0.2] * 5) for _ in range(5)])
        doc = FakeDoc(4.0, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert classification_loss(preds, doc).item() == pytest.approx(6 * math.log(5), abs=1e-9)

    def test_lambda_aspect_zero_reduces_to_overall(self):
        preds = FakePreds(ad.constant([0.2] * 5), [ad.constant([1.0, 0.0, 0.0, 0.0, 0.0])])
        doc = FakeDoc(2.0, [5.0])
        got = classification_loss(preds, doc, lambda_aspect=0.0)
        assert got.item() == pytest.approx(math.log(5), abs=1e-9)

    def test_rating_outside_domain(self):
        preds = FakePreds(ad.constant([0.2] * 5), [])
        with pytest.raises(ValueError, match="outside"):
            classification_loss(preds, FakeDoc(6.0, []))
        with pytest.raises(ValueError, match="outside"):
            classification_loss(preds, FakeDoc(2.5, []))

    def test_regression_exact(self):
        preds = FakePreds(ad.constant(3.0), [ad.constant(4.0)])
        assert regression_loss(preds, FakeDoc(3.0, [4.0])).item() == 0.0

    def test_regression_overall_off_by_two(self):
        preds = FakePreds(ad.constant(5.0), [ad.constant(4.0)])
        assert regression_loss(preds, FakeDoc(3.0, [4.0])).item() == pytest.approx(4.0)

    def test_regression_four_aspects_off_by_one(self):
        preds = FakePreds(ad.constant(3.0), [ad.constant(2.0)] * 4)
        doc = FakeDoc(3.0, [3.0, 3.0, 3.0, 3.0])
        assert regression_loss(preds, doc).item() == pytest.approx(4.0)

    def test_loss_nonnegative_random(self):
        docs, vocab, _ = synthetic_docs(n_docs=8)
        config = mean_r_config(vocab)
        model = SaamModel(config.encoder, config.head_config(), seed=1)
        for doc in docs:
            preds, _ = model.forward(doc.sentences)
            assert document_loss(model, preds, doc, config).item() >= 0.0


class TestOptimizers:
    def test_sgd_step(self):
        p = ad.parameter([1.0, 2.0])
        p.grad = np.array([0.5, -0.5])
        Sgd({"p": p}, lr=0.1).step()
        assert_allclose(p.data, [0.95, 2.05])

    def test_adam_zero_lr_leaves_params(self):
        p = ad.parameter([1.0, 2.0])
        p.grad = np.array([0.5, -0.5])
        Adam({"p": p}, lr=0.0).step()
        assert_allclose(p.data, [1.0, 2.0])

    def test_adam_first_step_magnitude(self):
        # bias correction makes the first step ~lr * sign(grad)
        p = ad.parameter([1.0])
        p.grad = np.array([3.0])
        Adam({"p": p}, lr=0.01).step()
        assert_allclose(p.data, [1.0 - 0.01], atol=1e-6)

    def test_adam_in_place_bit_identical_to_allocating_step(self):
        rng = np.random.default_rng(9)
        shapes = {"b": (), "u": (5,), "w": (4, 3)}
        init = {k: rng.normal(size=s) for k, s in shapes.items()}
        grads = [{k: rng.normal(scale=10.0 ** rng.integers(-4, 2), size=s)
                  for k, s in shapes.items()} for _ in range(6)]
        grads[3]["u"] = None  # a parameter without a gradient this step

        def run(step):
            params = {k: ad.parameter(v.copy()) for k, v in init.items()}
            opt = Adam(params, lr=0.03)
            for g in grads:
                for k, p in params.items():
                    p.grad = None if g[k] is None else g[k].copy()
                step(opt)
            return opt

        fast = run(Adam.step)
        slow = run(allocating_adam_step)
        for k in shapes:
            assert np.array_equal(fast.params[k].data, slow.params[k].data)
            assert np.array_equal(fast.m[k], slow.m[k])
            assert np.array_equal(fast.v[k], slow.v[k])
            assert isinstance(fast.m[k], np.ndarray) and fast.m[k].shape == shapes[k]
            assert isinstance(fast.params[k].data, np.ndarray)

    def test_clip_gradients(self):
        p = ad.parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        clip_gradients({"p": p}, max_norm=1.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_descent_property_epsilon_sweep(self):
        docs, vocab, _ = synthetic_docs(n_docs=4)
        config = mean_r_config(vocab)
        model = SaamModel(config.encoder, config.head_config(), seed=3)
        doc = docs[0]

        def loss_value():
            preds, _ = model.forward(doc.sentences)
            return document_loss(model, preds, doc, config).item()

        before = loss_value()
        decreased = False
        for eps in (1e-3, 1e-4, 1e-5, 1e-6):
            snapshot = model.param_arrays()
            ad.zero_grads(model.params)
            with ad.Graph():
                preds, _ = model.forward(doc.sentences)
                ad.backward(document_loss(model, preds, doc, config))
            Sgd(model.params, lr=eps).step()
            if loss_value() < before:
                decreased = True
            model.load_param_arrays(snapshot)
            if decreased:
                break
        assert decreased


class TestTrainLoop:
    def test_zero_lr_leaves_params_and_loss_constant(self):
        docs, vocab, _ = synthetic_docs(n_docs=12)
        config = mean_r_config(vocab, lr=0.0, max_epochs=3, patience=3)
        splits = {"train": docs[:10], "dev": docs[10:]}
        reference = SaamModel(config.encoder, config.head_config(), seed=config.seed)
        checkpoint, history = train(config, splits)
        for name, arr in checkpoint.arrays().items():
            assert_allclose(arr, reference.params[name].data, atol=0)
        dev_losses = [h["dev_loss"] for h in history]
        assert all(d == pytest.approx(dev_losses[0]) for d in dev_losses)

    def test_synthetic_two_aspect_convergence(self):
        docs, vocab, _ = synthetic_docs(n_docs=60, seed=5, exact_mean_only=True)
        config = mean_r_config(vocab, lr=0.05, max_epochs=200, patience=200, batch_size=16)
        checkpoint, history = train(config, {"train": docs, "dev": []})
        assert len(history) <= 200
        assert history[-1]["train_loss"] < 0.05

    def test_batch_gradient_is_mean_of_document_gradients(self):
        # one SGD step on one batch of two documents, no clipping
        docs, vocab, _ = synthetic_docs(n_docs=2, seed=12)
        config = mean_r_config(vocab, optimizer="sgd", lr=0.1, grad_clip=None,
                               batch_size=2, max_epochs=1, patience=1)
        model = SaamModel(config.encoder, config.head_config(), seed=config.seed,
                          t_max=config.t_max)
        initial = model.param_arrays()
        grads = []
        for doc in docs:
            ad.zero_grads(model.params)
            with ad.Graph():
                preds, _ = model.forward(doc.sentences)
                ad.backward(document_loss(model, preds, doc, config))
            grads.append({name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                          for name, p in model.params.items()})
        checkpoint, _ = train(config, {"train": docs, "dev": []})
        for name, trained in checkpoint.arrays().items():
            mean_grad = (grads[0][name] + grads[1][name]) / 2.0
            assert np.any(mean_grad != 0.0), name
            assert_allclose(trained, initial[name] - config.lr * mean_grad,
                            atol=1e-12, rtol=0, err_msg=name)

    def test_rating_outside_class_domain_is_corpus_error(self):
        docs, vocab, _ = synthetic_docs(n_docs=6, seed=13)
        docs[5].aspect_ratings[1] = 4.5
        config = TrainConfig(variant="C1", n_aspects=2, s_max=2, max_epochs=1,
                             encoder=EncoderConfig("mean", vocab_size=vocab.size,
                                                   embedding_dim=4))
        with pytest.raises(CorpusError, match=f"{docs[5].doc_id}.*4.5"):
            train(config, {"train": docs[:4], "dev": docs[4:]})
        # regression accepts any rating
        train(mean_r_config(vocab, max_epochs=1), {"train": docs[:4], "dev": docs[4:]})

    def test_same_seed_identical_history_and_checkpoint(self, tmp_path):
        docs, vocab, _ = synthetic_docs(n_docs=16, seed=2)
        config = mean_r_config(vocab, max_epochs=4, patience=4)
        splits = {"train": docs[:12], "dev": docs[12:]}
        c1, h1 = train(config, splits, vocab_hash=vocab.content_hash())
        c2, h2 = train(config, splits, vocab_hash=vocab.content_hash())
        assert h1 == h2
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(c1, p1)
        save_checkpoint(c2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_early_stopping_respects_patience(self):
        docs, vocab, _ = synthetic_docs(n_docs=16, seed=3)
        config = mean_r_config(vocab, lr=0.0, max_epochs=50, patience=2)
        _, history = train(config, {"train": docs[:12], "dev": docs[12:]})
        # lr=0: first epoch sets best, then patience epochs without improvement
        assert len(history) == 3

    def test_divergence_aborts_with_location(self):
        docs, vocab, _ = synthetic_docs(n_docs=8, seed=4)
        config = mean_r_config(vocab, lr=1e6, optimizer="sgd", max_epochs=10, patience=10)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="epoch"):
                train(config, {"train": docs, "dev": []})

    def test_t_max_truncates_forward_path(self):
        docs, vocab, _ = synthetic_docs(n_docs=4)
        config = mean_r_config(vocab, t_max=2)
        model = SaamModel(config.encoder, config.head_config(), seed=0, t_max=config.t_max)
        doc = docs[0]
        full, _ = model.predict(doc.sentences)
        truncated, _ = model.predict([s[:2] for s in doc.sentences])
        assert float(full.overall.data) == float(truncated.overall.data)

    @pytest.mark.parametrize("encoder_kind", ["mean", "cnn", "gru"])
    @pytest.mark.parametrize("variant", ["C1", "C2", "R"])
    def test_bit_identical_to_allocating_oracles(self, encoder_kind, variant, tmp_path,
                                                 monkeypatch):
        records = generate_synthetic_corpus(n_aspects=2, n_docs=14, seed=11)
        aspects = aspect_names_from_records(records)
        # unused types give the table rows no lookup reads, which dense Adam still moves
        vocab = build_vocabulary([s for rec in records for s in rec["sentences"]]
                                 + [" ".join(f"unused{k}" for k in range(40))])
        docs = docs_from_records(records, vocab, aspects)
        encoder = EncoderConfig(encoder_kind, vocab_size=vocab.size, embedding_dim=6,
                                gru_hidden=5, cnn_filters_per_width=3)
        config = TrainConfig(variant=variant, encoder=encoder, n_aspects=2, s_max=2, t_max=6,
                             lr=0.05, batch_size=4, max_epochs=2, patience=2, seed=3,
                             grad_clip=0.5)
        splits = {"train": docs[:10], "dev": docs[10:]}

        def checkpoint_bytes(name):
            checkpoint, _ = train(config, splits, vocab_hash=vocab.content_hash())
            path = tmp_path / name
            save_checkpoint(checkpoint, path)
            return path.read_bytes()

        fast = checkpoint_bytes("fast.ckpt")
        monkeypatch.setattr(ad, "embedding_lookup", dense_scatter_embedding_lookup)
        monkeypatch.setattr(Adam, "step", allocating_adam_step)
        assert checkpoint_bytes("oracle.ckpt") == fast

    def test_classification_training_runs(self):
        docs, vocab, _ = synthetic_docs(n_docs=12, seed=6)
        encoder = EncoderConfig("mean", vocab_size=vocab.size, embedding_dim=8)
        config = TrainConfig(variant="C2", encoder=encoder, n_aspects=2, s_max=2,
                             t_max=8, lr=0.02, max_epochs=2, patience=2, seed=1)
        checkpoint, history = train(config, {"train": docs, "dev": []})
        assert len(history) == 2
        model = checkpoint.build_model()
        preds, att = model.predict(docs[0].sentences)
        assert preds.kind == "classification"
        assert att.aspect_dist.shape[1] == 4  # |A| + 2


class TestCheckpointIO:
    def make_checkpoint(self, vocab_hash=b"\x07" * 32):
        docs, vocab, _ = synthetic_docs(n_docs=8, seed=7)
        config = mean_r_config(vocab, max_epochs=1, patience=1)
        checkpoint, _ = train(config, {"train": docs, "dev": []}, vocab_hash=vocab_hash)
        return checkpoint

    def test_roundtrip_identical_predictions(self, tmp_path):
        docs, vocab, _ = synthetic_docs(n_docs=8, seed=8)
        config = mean_r_config(vocab, max_epochs=2, patience=2)
        checkpoint, _ = train(config, {"train": docs, "dev": []},
                              vocab_hash=vocab.content_hash())
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path, expect_vocab_hash=vocab.content_hash())
        m1 = checkpoint.build_model()
        m2 = loaded.build_model()
        for doc in docs:
            a, _ = m1.predict(doc.sentences)
            b, _ = m2.predict(doc.sentences)
            assert float(a.overall.data) == float(b.overall.data)
            for x, y in zip(a.per_aspect, b.per_aspect):
                assert float(x.data) == float(y.data)

    def test_roundtrip_keeps_best_epoch_and_dev_loss(self, tmp_path):
        docs, vocab, _ = synthetic_docs(n_docs=16, seed=2)
        config = mean_r_config(vocab, max_epochs=4, patience=4)
        checkpoint, history = train(config, {"train": docs[:12], "dev": docs[12:]})
        best = min(history, key=lambda h: h["dev_loss"])
        assert (checkpoint.best_epoch, checkpoint.best_dev_loss) == (best["epoch"], best["dev_loss"])
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.version == 2
        assert loaded.best_epoch == checkpoint.best_epoch
        assert loaded.best_dev_loss == checkpoint.best_dev_loss

    def test_version_1_file_rejected_naming_both_versions(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.make_checkpoint(), path)
        blob = path.read_bytes()
        config_len = struct.unpack("<I", blob[12:16])[0]
        fields_at = 16 + config_len + 32  # after the vocabulary hash
        # version 1 had no best-epoch / best-dev-loss fields
        v1 = blob[:8] + struct.pack("<I", 1) + blob[12:fields_at] + blob[fields_at + 12:]
        path.write_bytes(v1)
        with pytest.raises(CheckpointVersionError, match=r"version 1\b.*reads 2"):
            load_checkpoint(path)

    def test_config_blob_with_zero_dropout_loads(self, tmp_path):
        # checkpoints written before EncoderConfig.dropout was removed carry it as 0.0
        checkpoint = self.make_checkpoint()
        checkpoint.config["encoder"]["dropout"] = 0.0
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, path)
        assert b'"dropout": 0.0' in path.read_bytes()
        model = load_checkpoint(path).build_model()
        assert list(model.params) == [name for name, _ in checkpoint.entries]
        for name, arr in checkpoint.entries:
            assert np.array_equal(model.params[name].data, arr)
        checkpoint.config["encoder"]["dropout"] = 0.5
        save_checkpoint(checkpoint, path)
        with pytest.raises(ValueError, match="dropout"):
            load_checkpoint(path).build_model()

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.make_checkpoint(), path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CorruptCheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTSAAM!" + b"\x00" * 64)
        with pytest.raises(CorruptCheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.make_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99  # version field
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError, match="version"):
            load_checkpoint(path)

    def test_vocab_hash_mismatch(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.make_checkpoint(vocab_hash=b"\x01" * 32), path)
        with pytest.raises(VocabularyHashError, match="vocabulary"):
            load_checkpoint(path, expect_vocab_hash=b"\x02" * 32)

    def test_load_without_expectation_skips_hash_check(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.make_checkpoint(vocab_hash=b"\x01" * 32), path)
        assert load_checkpoint(path).vocab_hash == b"\x01" * 32


class TestTrainConfig:
    def test_roundtrip(self):
        encoder = EncoderConfig("gru", vocab_size=50, embedding_dim=8, gru_hidden=6)
        config = TrainConfig(variant="C1", encoder=encoder, n_aspects=3, s_max=4)
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_grad_clip_auto(self):
        gru = TrainConfig(variant="R", n_aspects=2, s_max=2,
                          encoder=EncoderConfig("gru", vocab_size=10, embedding_dim=4))
        mean = TrainConfig(variant="R", n_aspects=2, s_max=2,
                           encoder=EncoderConfig("mean", vocab_size=10, embedding_dim=4))
        assert gru.resolved_grad_clip() == 5.0
        assert mean.resolved_grad_clip() is None

    def test_invalid_optimizer(self):
        with pytest.raises(ValueError, match="optimizer"):
            TrainConfig(variant="R", n_aspects=2, s_max=2, optimizer="rmsprop",
                        encoder=EncoderConfig("mean", vocab_size=10, embedding_dim=4))


@pytest.mark.parametrize("encoder_kind", ["mean", "cnn", "gru"])
def test_inference_leaves_no_cyclic_garbage(encoder_kind):
    # predict and the dev loss record no tape, so they build no reference
    # cycles for the cyclic collector to find
    docs, vocab, _ = synthetic_docs(n_docs=3, seed=14)
    config = mean_r_config(vocab, encoder=EncoderConfig(
        encoder_kind, vocab_size=vocab.size, embedding_dim=6, gru_hidden=5,
        cnn_filters_per_width=3))
    model = SaamModel(config.encoder, config.head_config(), seed=0, t_max=config.t_max)
    model.predict(docs[0].sentences)
    _mean_split_loss(model, docs, config)
    gc.collect()
    gc.disable()
    try:
        model.predict(docs[0].sentences)
        assert gc.collect() == 0
        _mean_split_loss(model, docs, config)
        assert gc.collect() == 0
    finally:
        gc.enable()
