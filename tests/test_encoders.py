import numpy as np
import pytest
from numpy.testing import assert_allclose

from saam import autodiff as ad
from saam import encoders
from saam.encoders import (
    EncoderConfig,
    encode_document,
    encode_mean,
    init_encoder_params,
)
from saam.oracles import ENCODER_REFERENCES, encode_document_by_sentence
from saam.selftest import fused_encoder_check


def config_for(kind):
    # toy dims: e=4, d=6
    if kind == "cnn":
        return EncoderConfig("cnn", vocab_size=9, embedding_dim=4,
                             cnn_filter_widths=(2, 3), cnn_filters_per_width=3)
    if kind == "gru":
        return EncoderConfig("gru", vocab_size=9, embedding_dim=4, gru_hidden=6)
    return EncoderConfig("mean", vocab_size=9, embedding_dim=6)


def fresh(kind, seed=0):
    cfg = config_for(kind)
    return cfg, init_encoder_params(cfg, np.random.default_rng(seed))


def encode_one(tokens, params, cfg):
    """One sentence through encode_document: its ``[d]`` row."""
    return ad.reshape(encode_document([tokens], 1, params, cfg).values, (cfg.feature_dim,))


def reference_row(tokens, params, cfg):
    """The op-chain reference encoding of one sentence."""
    doc = encode_document_by_sentence(ENCODER_REFERENCES[cfg.kind], [tokens], 1, params, cfg)
    return doc.values.data[0]


class TestConfig:
    def test_cnn_feature_dim(self):
        cfg = config_for("cnn")
        assert cfg.feature_dim == 2 * 3

    def test_default_cnn_matches_reference_dims(self):
        cfg = EncoderConfig("cnn", vocab_size=10, embedding_dim=8)
        assert cfg.cnn_filter_widths == (3, 4, 5)
        assert cfg.feature_dim == 300

    def test_gru_hidden_defaults_to_embedding(self):
        cfg = EncoderConfig("gru", vocab_size=10, embedding_dim=7)
        assert cfg.feature_dim == 7

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EncoderConfig("bert", vocab_size=10, embedding_dim=4)

    def test_dropout_unsupported(self):
        d = EncoderConfig("cnn", vocab_size=10, embedding_dim=4).to_dict()
        with pytest.raises(ValueError, match="dropout"):
            EncoderConfig.from_dict({**d, "dropout": 0.5})

    def test_zero_dropout_entry_dropped(self):
        # configs written before the field was removed carry "dropout": 0.0
        cfg = config_for("cnn")
        assert EncoderConfig.from_dict({**cfg.to_dict(), "dropout": 0.0}) == cfg

    def test_roundtrip_dict(self):
        cfg = config_for("cnn")
        assert EncoderConfig.from_dict(cfg.to_dict()) == cfg


class TestMeanEncoder:
    def test_single_token_is_its_embedding(self):
        cfg, params = fresh("mean")
        out = encode_mean([3], params, cfg)
        assert_allclose(out.data, params["encoder.embedding"].data[3])

    def test_repeated_token_unchanged(self):
        cfg, params = fresh("mean")
        assert_allclose(encode_mean([3, 3], params, cfg).data,
                        encode_mean([3], params, cfg).data)

    def test_average_of_two(self):
        cfg, params = fresh("mean")
        table = params["encoder.embedding"].data
        table[2] = [1, 0, 0, 0, 0, 0]
        table[3] = [0, 1, 0, 0, 0, 0]
        out = encode_mean([2, 3], params, cfg)
        assert_allclose(out.data, [0.5, 0.5, 0, 0, 0, 0])

    def test_empty_is_zero(self):
        cfg, params = fresh("mean")
        assert_allclose(encode_mean([], params, cfg).data, np.zeros(6))


class TestCnnEncoder:
    def test_short_sentence_zero_padded_to_width(self):
        cfg, params = fresh("cnn")
        out = encode_one([2], params, cfg)  # shorter than both widths
        assert out.shape == (6,)
        assert np.all(np.isfinite(out.data))

    def test_all_zero_weights_give_zero(self):
        cfg, params = fresh("cnn")
        for name, p in params.items():
            p.data[:] = 0.0
        assert_allclose(encode_one([2, 3, 4, 5], params, cfg).data, np.zeros(6))

    def test_trailing_pads_do_not_change_output(self):
        # masking oracle: the op-chain reference on the tokens without the pads
        cfg, params = fresh("cnn", seed=3)
        with_pads = [2, 3, 4, 0, 0]
        real = [t for t in with_pads if t != 0]
        doc = encode_document([with_pads], s_max=1, params=params, config=cfg)
        assert_allclose(doc.values.data[0], reference_row(real, params, cfg), atol=0)

    def test_gradcheck(self):
        cfg, params = fresh("cnn", seed=5)
        target = np.random.default_rng(0).normal(size=6)

        def build():
            out = encode_one([2, 3, 4, 5, 6], params, cfg)
            return ad.reduce_sum(ad.mul(out, ad.constant(target)))

        report = ad.grad_check(build, params, h=1e-5, tol=1e-4)
        assert report.passed, report.summary()


class TestGruEncoder:
    def test_empty_is_zero(self):
        cfg, params = fresh("gru")
        assert_allclose(encode_one([], params, cfg).data, np.zeros(6))

    def test_zero_weights_single_token(self):
        cfg, params = fresh("gru")
        for p in params.values():
            p.data[:] = 0.0
        # z = sigmoid(0) = 0.5, cand = tanh(0) = 0, h = 0.5*0 + 0.5*0 = 0
        assert_allclose(encode_one([2], params, cfg).data, np.zeros(6))

    def test_appending_pads_does_not_change_output(self):
        cfg, params = fresh("gru", seed=2)
        real = [4, 5, 6]
        doc = encode_document([real + [0, 0, 0]], s_max=1, params=params, config=cfg)
        assert_allclose(doc.values.data[0], reference_row(real, params, cfg), atol=0)

    def test_gradcheck(self):
        cfg, params = fresh("gru", seed=7)
        target = np.random.default_rng(1).normal(size=6)

        def build():
            out = encode_one([2, 3, 4], params, cfg)
            return ad.reduce_sum(ad.mul(out, ad.constant(target)))

        report = ad.grad_check(build, params, h=1e-5, tol=1e-4)
        assert report.passed, report.summary()


@pytest.mark.parametrize("kind", ["cnn", "gru"])
def test_fused_encoder_matches_op_chain_reference(kind):
    passed, detail = fused_encoder_check(kind)
    assert passed, detail


@pytest.mark.parametrize("kind", ["cnn", "gru"])
def test_fused_check_sees_a_last_bit_change(kind, monkeypatch):
    # the input gradient of either fused op, off by one unit in the last place
    add_rows = ad._add_rows_in_place
    monkeypatch.setattr(ad, "_add_rows_in_place",
                        lambda t, start, rows: add_rows(t, start, rows * (1.0 + 2.0 ** -52)))
    passed, detail = fused_encoder_check(kind)
    assert not passed and detail.startswith("encoder.embedding differs"), detail


@pytest.mark.parametrize("kind", ["cnn", "gru"])
def test_fused_check_sees_a_reordered_parameter_fold(kind, monkeypatch):
    # the document's parameter terms folded first sentence first
    fold = ad._fold

    def reordered(t, right, left=None):
        if len(right) > 1 and t.data.ndim == 2 and t.shape[0] > 1:
            right = right[::-1]
            left = None if left is None else left[::-1]
        fold(t, right, left)

    monkeypatch.setattr(ad, "_fold", reordered)
    passed, detail = fused_encoder_check(kind)
    assert not passed and detail.startswith("encoder."), detail


class TestEncodeDocument:
    @pytest.mark.parametrize("kind", ["mean", "cnn", "gru"])
    def test_pad_slots_are_zero_rows(self, kind):
        cfg, params = fresh(kind)
        doc = encode_document([[2, 3], [4]], s_max=4, params=params, config=cfg)
        assert doc.sentence_mask == [True, True, False, False]
        assert_allclose(doc.values.data[2:], 0.0)
        assert doc.n_real == 2

    @pytest.mark.parametrize("kind", ["mean", "cnn", "gru"])
    def test_sentence_permutation_equivariance(self, kind):
        cfg, params = fresh(kind, seed=4)
        s1, s2 = [2, 3, 4], [5, 6]
        a = encode_document([s1, s2], s_max=2, params=params, config=cfg).values.data
        b = encode_document([s2, s1], s_max=2, params=params, config=cfg).values.data
        assert_allclose(a, b[::-1], atol=0)

    def test_parameter_sharing_accumulates_gradient(self):
        cfg, params = fresh("mean")
        emb = params["encoder.embedding"]
        with ad.Graph():
            doc = encode_document([[2], [2]], s_max=2, params=params, config=cfg)
            ad.backward(ad.reduce_sum(doc.values))
        # both sentences read row 2: gradients add
        expected = np.zeros_like(emb.data)
        expected[2] = 2.0
        assert_allclose(emb.grad, expected)

    @pytest.mark.parametrize("kind", ["cnn", "gru"])
    def test_one_op_call_per_document(self, kind):
        cfg, params = fresh(kind)
        with ad.Graph() as graph:
            encode_document([[2, 3], [4], [0, 0], [5, 6, 7]], s_max=5, params=params, config=cfg)
        # a lookup per sentence with tokens, the fused op (once per width and a
        # concat for the cnn), and the padding to s_max
        fused = len(cfg.cnn_filter_widths) + 1 if kind == "cnn" else 1
        assert len(graph.ops) == 3 + fused + 1

    def test_truncation_beyond_s_max(self):
        cfg, params = fresh("mean")
        doc = encode_document([[2], [3], [4]], s_max=2, params=params, config=cfg)
        assert doc.values.shape == (2, 6)
        assert doc.n_real == 2

    def test_mean_gradcheck_through_document(self):
        cfg, params = fresh("mean", seed=8)
        target = np.random.default_rng(2).normal(size=(3, 6))

        def build():
            doc = encode_document([[2, 3], [4], [5, 6, 7]], s_max=3, params=params, config=cfg)
            return ad.reduce_sum(ad.mul(doc.values, ad.constant(target)))

        report = ad.grad_check(build, params, h=1e-5, tol=1e-4)
        assert report.passed, report.summary()
