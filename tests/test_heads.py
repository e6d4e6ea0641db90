import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from saam import autodiff as ad
from saam.encoders import SentenceEmbeddingMatrix, xavier_uniform
from saam.heads import (
    AttributionResult,
    HeadConfig,
    extract_attribution,
    head_forward,
    init_head_params,
    sentence_scalar_scores,
)


from oracles import (
    embed,
    flat_loop_oracle,
    loop_oracle_classification,
    random_head_instance as random_instance,
    softmax_np,
    weighted_average_oracle,
)


class TestHeadConfig:
    def test_attribution_slots(self):
        mk = lambda v: HeadConfig(v, n_aspects=3, feature_dim=4, s_max=2)
        assert mk("C1").n_attribution_slots == 4
        assert mk("C2").n_attribution_slots == 5
        assert mk("R").n_attribution_slots == 4

    @pytest.mark.parametrize("variant,extra", [("C1", ["none"]), ("C2", ["overall", "none"]),
                                               ("R", ["none"])])
    def test_attribution_slots_match_extract_labels(self, variant, extra):
        config = HeadConfig(variant, n_aspects=2, feature_dim=4, s_max=3)
        k = config.n_attribution_slots
        # one sentence per slot, all of its mass on that slot
        result = AttributionResult(np.eye(k), np.zeros(k), np.zeros((k, k)), variant)
        labels = [label for label, _ in extract_attribution(result, ["Room", "Service"])]
        assert labels == ["Room", "Service"] + extra
        for wrong in (k - 1, k + 1):
            result = AttributionResult(np.eye(wrong), np.zeros(wrong), np.zeros((wrong, wrong)),
                                       variant)
            with pytest.raises(ad.DimensionError):
                extract_attribution(result, ["Room", "Service"])

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            HeadConfig("C3", n_aspects=2, feature_dim=4, s_max=2)

    def test_roundtrip(self):
        cfg = HeadConfig("R", n_aspects=2, feature_dim=4, s_max=3, epsilon=1e-6)
        assert HeadConfig.from_dict(cfg.to_dict()) == cfg


class TestInitHeadParams:
    # checkpoint entry layout at n_aspects=2, d=4, s_max=3, n_classes=5
    LAYOUT = {
        "C1": [("head.w_score", (4, 5)), ("head.b_score", (5,)), ("head.w_attr", (4, 3)),
               ("head.b_attr", (3,)), ("head.w_overall", (12, 5)), ("head.b_overall", (1, 5))],
        "C2": [("head.w_score", (4, 5)), ("head.b_score", (5,)), ("head.w_attr", (4, 4)),
               ("head.b_attr", (4,))],
        "R": [("head.w_score", (4, 1)), ("head.b_score", (1,)), ("head.w_attr", (4, 3)),
              ("head.b_attr", (3,)), ("head.w_overall", (3, 4)), ("head.b_overall", ())],
        "flat-c": [entry for t in range(3)
                   for entry in ((f"head.w_flat{t}", (12, 5)), (f"head.b_flat{t}", (1, 5)))],
        "flat-r": [entry for t in range(3)
                   for entry in ((f"head.w_flat{t}", (3, 4)), (f"head.b_flat{t}", ()))],
    }

    @staticmethod
    def init(variant):
        config = HeadConfig(variant, n_aspects=2, feature_dim=4, s_max=3, n_classes=5)
        return init_head_params(config, np.random.default_rng(0))

    @pytest.mark.parametrize("variant", list(LAYOUT))
    def test_names_in_order_and_shapes(self, variant):
        params = self.init(variant)
        assert [(name, p.shape) for name, p in params.items()] == self.LAYOUT[variant]

    @pytest.mark.parametrize("variant", list(LAYOUT))
    def test_xavier_draws_in_entry_order(self, variant):
        # each weight is one Xavier draw with fans equal to its shape, in
        # entry order; biases start at zero and draw nothing
        params = self.init(variant)
        replay = np.random.default_rng(0)
        for name, shape in self.LAYOUT[variant]:
            if name.startswith("head.w_"):
                expected = xavier_uniform(replay, shape[0], shape[1], shape)
            else:
                expected = np.zeros(shape)
            assert np.array_equal(params[name].data, expected), name


class TestC1:
    def test_single_sentence_uniform_attribution(self):
        # W^r = 0 makes attribution [0.5, 0.5]; L^1 = softmax(0.5 * score)
        rng = np.random.default_rng(0)
        config = HeadConfig("C1", n_aspects=1, feature_dim=4, s_max=2, n_classes=3)
        params = init_head_params(config, rng)
        params["head.w_attr"].data[:] = 0.0
        params["head.b_attr"].data[:] = 0.0
        u = embed(rng.normal(size=(1, 4)), s_max=2)
        preds, attribution = head_forward(u, params, config)
        assert_allclose(attribution.aspect_dist[0], [0.5, 0.5])
        score = attribution.rating_scores[0]
        assert_allclose(preds.per_aspect[0].data, softmax_np(0.5 * score), atol=1e-12)

    def test_all_zero_params_give_uniform(self):
        config = HeadConfig("C1", n_aspects=2, feature_dim=4, s_max=3, n_classes=5)
        params = init_head_params(config, np.random.default_rng(0))
        for p in params.values():
            p.data[:] = 0.0
        u = embed(np.random.default_rng(1).normal(size=(2, 4)), s_max=3)
        preds, _ = head_forward(u, params, config)
        assert_allclose(preds.overall.data, 0.2)
        for dist in preds.per_aspect:
            assert_allclose(dist.data, 0.2)

    def test_loop_oracle_100_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            config, params, u, n = random_instance(rng, "C1")
            preds, _ = head_forward(u, params, config)
            rows = [u.values.data[i] for i in range(n)]
            overall, per_aspect = loop_oracle_classification(rows, params, config)
            assert_allclose(preds.overall.data, overall, atol=1e-12)
            for got, want in zip(preds.per_aspect, per_aspect):
                assert_allclose(got.data, want, atol=1e-12)

    def test_zero_real_sentences_rejected(self):
        config = HeadConfig("C1", n_aspects=2, feature_dim=4, s_max=2)
        params = init_head_params(config, np.random.default_rng(0))
        u = SentenceEmbeddingMatrix(ad.constant(np.zeros((2, 4))), [False, False])
        with pytest.raises(ValueError, match="zero real sentences"):
            head_forward(u, params, config)

    def test_scaled_scores_exact_identity(self):
        rng = np.random.default_rng(5)
        config, params, u, n = random_instance(rng, "C1")
        _, attribution = head_forward(u, params, config)
        for i in range(n):
            expected = attribution.aspect_dist[i][:, None] * attribution.rating_scores[i][None, :]
            assert np.array_equal(attribution.scaled_scores[i], expected)


class TestC2:
    def test_parameter_count_reduction(self):
        c1 = HeadConfig("C1", n_aspects=5, feature_dim=300, s_max=20, n_classes=5)
        c2 = HeadConfig("C2", n_aspects=5, feature_dim=300, s_max=20, n_classes=5)
        rng = np.random.default_rng(0)
        p1 = init_head_params(c1, rng)
        p2 = init_head_params(c2, rng)
        assert p1["head.w_overall"].size == 20 * 300 * 5  # 30000 dedicated weights
        assert "head.w_overall" not in p2
        extra_attr = (p2["head.w_attr"].size + p2["head.b_attr"].size) - \
                     (p1["head.w_attr"].size + p1["head.b_attr"].size)
        assert extra_attr == 300 + 1

    def test_all_zero_params(self):
        config = HeadConfig("C2", n_aspects=2, feature_dim=4, s_max=3, n_classes=5)
        params = init_head_params(config, np.random.default_rng(0))
        for p in params.values():
            p.data[:] = 0.0
        u = embed(np.random.default_rng(1).normal(size=(2, 4)), s_max=3)
        preds, attribution = head_forward(u, params, config)
        assert_allclose(preds.overall.data, 0.2)
        assert_allclose(attribution.aspect_dist, 0.25)  # uniform over |A|+2 slots

    def test_loop_oracle_100_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            config, params, u, n = random_instance(rng, "C2")
            preds, _ = head_forward(u, params, config)
            rows = [u.values.data[i] for i in range(n)]
            overall, per_aspect = loop_oracle_classification(rows, params, config)
            assert_allclose(preds.overall.data, overall, atol=1e-12)
            for got, want in zip(preds.per_aspect, per_aspect):
                assert_allclose(got.data, want, atol=1e-12)

    def test_forced_overall_attribution_equivalence(self):
        # with all attribution mass on the overall slot, the overall
        # prediction is softmax of the plain sum of sentence scores
        rng = np.random.default_rng(9)
        config = HeadConfig("C2", n_aspects=2, feature_dim=4, s_max=3, n_classes=3)
        params = init_head_params(config, rng)
        params["head.w_attr"].data[:] = 0.0
        params["head.b_attr"].data[:] = -800.0
        params["head.b_attr"].data[config.n_aspects] = 0.0  # overall slot wins exactly
        u = embed(rng.normal(size=(3, 4)), s_max=3)
        preds, attribution = head_forward(u, params, config)
        assert_allclose(attribution.aspect_dist[:, config.n_aspects], 1.0)
        expected = softmax_np(attribution.rating_scores.sum(axis=0))
        assert_allclose(preds.overall.data, expected, atol=1e-12)


class TestR:
    def test_uniform_attribution_equal_scores_fixed_point(self):
        # every sentence scores c with identical attribution -> L^j = c (up to epsilon)
        config = HeadConfig("R", n_aspects=2, feature_dim=4, s_max=3)
        params = init_head_params(config, np.random.default_rng(0))
        params["head.w_score"].data[:] = 0.0
        params["head.b_score"].data[:] = 2.5
        params["head.w_attr"].data[:] = 0.0
        params["head.b_attr"].data[:] = 0.0
        u = embed(np.random.default_rng(1).normal(size=(3, 4)), s_max=3)
        preds, _ = head_forward(u, params, config)
        for t in preds.per_aspect:
            assert float(t.data) == pytest.approx(2.5, abs=1e-7)

    def test_forced_selection(self):
        # attribution forced to [1, 0] on aspect 1: L^1 equals that sentence's score
        config = HeadConfig("R", n_aspects=1, feature_dim=2, s_max=2)
        params = init_head_params(config, np.random.default_rng(0))
        params["head.w_score"].data[:] = np.array([[1.0], [0.0]])
        params["head.b_score"].data[:] = 0.0
        params["head.w_attr"].data[:] = np.array([[0.0, 0.0], [800.0, -800.0]])
        params["head.b_attr"].data[:] = 0.0
        # sentence 1: score 2, second feature +1 (all mass on aspect); sentence 2: score 4, -1
        u = embed([[2.0, 1.0], [4.0, -1.0]])
        preds, attribution = head_forward(u, params, config)
        assert_allclose(attribution.rating_scores, [2.0, 4.0])
        assert_allclose(attribution.aspect_dist[:, 0], [1.0, 0.0])
        assert float(preds.per_aspect[0].data) == pytest.approx(2.0, abs=1e-6)

    def test_hand_weighted_average(self):
        # scores {2, 4}, aspect-1 weights {0.25, 0.75} -> (0.5 + 3.0) / 1.0 = 3.5
        config = HeadConfig("R", n_aspects=1, feature_dim=2, s_max=2)
        params = init_head_params(config, np.random.default_rng(0))
        params["head.w_score"].data[:] = np.array([[1.0], [0.0]])
        params["head.b_score"].data[:] = 0.0
        params["head.w_attr"].data[:] = np.array([[0.0, 0.0], [1.0, 0.0]])
        params["head.b_attr"].data[:] = 0.0
        w1 = math.log(1.0 / 3.0)   # softmax([log(1/3), 0]) = [0.25, 0.75]
        w2 = math.log(3.0)         # softmax([log 3, 0]) = [0.75, 0.25] -> weight .75 on aspect
        u = embed([[2.0, w1], [4.0, w2]])
        preds, attribution = head_forward(u, params, config)
        assert_allclose(attribution.aspect_dist[:, 0], [0.25, 0.75], atol=1e-12)
        assert float(preds.per_aspect[0].data) == pytest.approx(3.5, abs=1e-6)

    def test_weighted_average_oracle_100_instances(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            config, params, u, n = random_instance(rng, "R")
            preds, _ = head_forward(u, params, config)
            rows = [u.values.data[i] for i in range(n)]
            overall, per_aspect = weighted_average_oracle(rows, params, config)
            assert float(preds.overall.data) == pytest.approx(overall, abs=1e-12)
            for got, want in zip(preds.per_aspect, per_aspect):
                assert float(got.data) == pytest.approx(want, abs=1e-12)

    def test_bounded_weighted_average(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            config, params, u, n = random_instance(rng, "R", n_aspects=3, s_max=5)
            preds, attribution = head_forward(u, params, config)
            lo, hi = attribution.rating_scores.min(), attribution.rating_scores.max()
            span = hi - lo
            for j, t in enumerate(preds.per_aspect):
                if attribution.aspect_dist[:, j].sum() >= 1e-3:
                    assert lo - 1e-4 * max(span, 1.0) <= float(t.data) <= hi + 1e-4 * max(span, 1.0)

    def test_low_attribution_flagged(self):
        config = HeadConfig("R", n_aspects=2, feature_dim=2, s_max=2)
        params = init_head_params(config, np.random.default_rng(0))
        params["head.w_attr"].data[:] = 0.0
        params["head.b_attr"].data[:] = np.array([-800.0, 0.0, 0.0])
        u = embed(np.random.default_rng(1).normal(size=(2, 2)))
        preds, _ = head_forward(u, params, config)
        assert preds.low_attribution_aspects == [0]


class TestFlat:
    @pytest.mark.parametrize("variant", ["flat-c", "flat-r"])
    def test_loop_oracle_100_instances(self, variant):
        rng = np.random.default_rng(50)
        for _ in range(100):
            config, params, u, n = random_instance(rng, variant)
            preds, attribution = head_forward(u, params, config)
            assert attribution is None
            rows = [u.values.data[i] for i in range(n)]
            overall, per_aspect = flat_loop_oracle(rows, params, config)
            assert_allclose(preds.overall.data, overall, rtol=0, atol=1e-12)
            assert len(preds.per_aspect) == config.n_aspects
            for got, want in zip(preds.per_aspect, per_aspect):
                assert_allclose(got.data, want, rtol=0, atol=1e-12)


class TestMaskInvariance:
    @pytest.mark.parametrize("variant", ["C1", "C2", "R", "flat-c", "flat-r"])
    def test_appending_pad_slots_bit_identical(self, variant):
        rng = np.random.default_rng(46)
        config = HeadConfig(variant, n_aspects=2, feature_dim=5, s_max=5, n_classes=3)
        params = init_head_params(config, rng)
        rows = rng.normal(size=(2, 5))
        for extra in range(0, 4):
            u = embed(rows, s_max=2 + extra)
            preds, _ = head_forward(u, params, config)
            if extra == 0:
                base_overall = preds.overall.data.copy()
                base_aspects = [t.data.copy() for t in preds.per_aspect]
            else:
                assert np.array_equal(preds.overall.data, base_overall)
                for got, want in zip(preds.per_aspect, base_aspects):
                    assert np.array_equal(got.data, want)

    def test_soft_mode_uses_all_slots(self):
        rng = np.random.default_rng(47)
        config = HeadConfig("R", n_aspects=2, feature_dim=3, s_max=4,
                            attribution_mask_mode="soft")
        params = init_head_params(config, rng)
        rows = rng.normal(size=(2, 3))
        p2, _ = head_forward(embed(rows, s_max=2), params, config)
        p4, _ = head_forward(embed(rows, s_max=4), params, config)
        # soft mode treats pads as sentences: same zero-extension either way
        assert np.array_equal(p2.overall.data, p4.overall.data)
        _, att = head_forward(embed(rows, s_max=4), params, config)
        assert att.n_sentences == 4


class TestNormalization:
    @pytest.mark.parametrize("variant", ["C1", "C2", "R"])
    def test_every_softmax_row_sums_to_one(self, variant):
        rng = np.random.default_rng(48)
        for _ in range(60):
            config, params, u, n = random_instance(rng, variant)
            preds, attribution = head_forward(u, params, config)
            sums = attribution.aspect_dist.sum(axis=-1)
            assert_allclose(sums, 1.0, atol=1e-9)
            if config.is_classification:
                assert_allclose(preds.overall.data.sum(), 1.0, atol=1e-9)
                for t in preds.per_aspect:
                    assert_allclose(t.data.sum(), 1.0, atol=1e-9)


class TestAttributionShift:
    def test_gradient_directions_on_two_document_example(self):
        """One squared-error step fixes a wrong attribution (doc 1) and a
        wrong sentiment score (doc 2), in sign."""
        # doc 1: sentiment correct at 3.0, attribution wrongly on room.
        sentiment = ad.parameter(3.0)
        logits = ad.parameter([-2.0, 2.0])  # [service, room] -> softmax ~ [0.02, 0.98]
        with ad.Graph():
            att = ad.softmax_lastdim(logits)
            scaled = ad.mul(att, sentiment)  # prediction per aspect
            target = [3.0, 0.0]              # truth: all service
            loss = ad.add(ad.squared_error(ad.slice_rows(scaled, 0, 1), target[0]),
                          ad.squared_error(ad.slice_rows(scaled, 1, 2), target[1]))
            ad.backward(loss)
        assert logits.grad[0] < 0.0  # descent raises the service logit
        assert logits.grad[1] > 0.0  # and lowers the room logit

        # doc 2: attribution correct on service, sentiment too high.
        sentiment = ad.parameter(3.0)
        logits = ad.parameter([2.0, -2.0])
        with ad.Graph():
            att = ad.softmax_lastdim(logits)
            scaled = ad.mul(att, sentiment)
            loss = ad.add(ad.squared_error(ad.slice_rows(scaled, 0, 1), 1.0),
                          ad.squared_error(ad.slice_rows(scaled, 1, 2), 0.0))
            ad.backward(loss)
        assert sentiment.grad > 0.0  # descent lowers the sentiment score


class TestExtractAttribution:
    def make_result(self, dist, variant="R"):
        dist = np.asarray(dist, dtype=np.float64)
        scores = np.zeros(dist.shape[0])
        return AttributionResult(dist, scores, dist * 0.0, variant)

    def test_dominant_aspect(self):
        result = self.make_result([[0.7, 0.2, 0.1]])
        assert extract_attribution(result, ["Room", "Service"]) == [("Room", 0.7)]

    def test_other_slot_maps_to_none(self):
        result = self.make_result([[0.1, 0.1, 0.8]])
        assert extract_attribution(result, ["Room", "Service"]) == [("none", 0.8)]

    def test_tie_goes_to_first(self):
        result = self.make_result([[0.5, 0.5, 0.0]])
        assert extract_attribution(result, ["Room", "Service"])[0][0] == "Room"

    def test_c2_overall_and_none_slots(self):
        result = self.make_result([[0.1, 0.1, 0.6, 0.2], [0.0, 0.1, 0.2, 0.7]], variant="C2")
        got = extract_attribution(result, ["Room", "Service"])
        assert got[0] == ("overall", 0.6)
        assert got[1] == ("none", 0.7)


class TestScalarScores:
    def test_regression_scores_are_raw(self):
        result = AttributionResult(np.ones((2, 2)) * 0.5, np.array([1.5, -2.0]),
                                   np.zeros((2, 2)), "R")
        assert_allclose(sentence_scalar_scores(result), [1.5, -2.0])

    def test_classification_expected_value(self):
        # logits heavily favoring class 3 (rating 4) -> expectation near 4
        scores = np.array([[0.0, 0.0, 0.0, 50.0, 0.0]])
        result = AttributionResult(np.ones((1, 2)) * 0.5, scores, np.zeros((1, 2, 5)), "C1")
        assert sentence_scalar_scores(result)[0] == pytest.approx(4.0, abs=1e-6)

    def test_uniform_logits_give_midpoint(self):
        scores = np.zeros((1, 5))
        result = AttributionResult(np.ones((1, 2)) * 0.5, scores, np.zeros((1, 2, 5)), "C1")
        assert sentence_scalar_scores(result)[0] == pytest.approx(3.0)


class TestGradChecks:
    @pytest.mark.parametrize("variant", ["C1", "C2", "R", "flat-c", "flat-r"])
    def test_head_gradcheck(self, variant):
        rng = np.random.default_rng(49)
        config = HeadConfig(variant, n_aspects=2, feature_dim=4, s_max=3, n_classes=3)
        params = init_head_params(config, rng)
        u_rows = rng.normal(size=(2, 4))

        def build():
            u = embed(u_rows, s_max=3)
            preds, _ = head_forward(u, params, config)
            if config.is_classification:
                loss = ad.cross_entropy(preds.overall, 1)
                for t in preds.per_aspect:
                    loss = ad.add(loss, ad.cross_entropy(t, 2))
            else:
                loss = ad.squared_error(preds.overall, 3.5)
                for t in preds.per_aspect:
                    loss = ad.add(loss, ad.squared_error(t, 2.0))
            return loss

        report = ad.grad_check(build, params, h=1e-5, tol=1e-4)
        assert report.passed, report.summary()
