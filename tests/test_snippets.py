import numpy as np
import pytest

from saam import autodiff as ad
from saam.heads import AttributionResult, PredictionSet
from saam.snippets import Snippet, explain_discrepancy, extract_snippets, snippet_record
from saam.text import ReviewDocument

ASPECTS = ["Value", "Room", "Location"]


def make_doc(n):
    return ReviewDocument("doc1", [[2]] * n, [f"sentence {i}" for i in range(n)],
                          3.0, [3.0, 3.0, 3.0])


def make_attribution(weights, scores):
    weights = np.asarray(weights, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    return AttributionResult(weights, scores, weights * scores[:, None], "R")


def regression_preds(overall, aspects):
    return PredictionSet("regression", ad.constant(float(overall)),
                         [ad.constant(float(a)) for a in aspects])


class TestExtractSnippets:
    def test_single_candidate_wins_regardless_of_score(self):
        att = make_attribution([[0.9, 0.05, 0.05], [0.1, 0.8, 0.1]], [5.0, -5.0])
        got = extract_snippets(make_doc(2), att, ASPECTS, "Value", tau=0.5)
        assert [s.sentence_index for s in got] == [0]

    def test_tau_zero_pure_score_sort(self):
        att = make_attribution([[0.2, 0.4, 0.4]] * 3, [0.5, -1.0, 2.0])
        got = extract_snippets(make_doc(3), att, ASPECTS, "Value", tau=0.0)
        assert [s.sentence_index for s in got] == [1, 0, 2]

    def test_filter_then_sort_oracle(self):
        # weights {0.8, 0.9, 0.1}, tau 0.3: sentence 2 filtered; lowest is -2.9
        att = make_attribution([[0.8, 0.1, 0.1], [0.9, 0.05, 0.05], [0.1, 0.5, 0.4]],
                               [-2.9, 1.3, 0.4])
        got = extract_snippets(make_doc(3), att, ASPECTS, "Value", polarity="lowest", tau=0.3)
        assert got[0].sentence_index == 0
        assert got[0].score == pytest.approx(-2.9)
        assert all(s.weight >= 0.3 for s in got)

    def test_highest_polarity(self):
        att = make_attribution([[0.6, 0.2, 0.2]] * 3, [1.0, 3.0, 2.0])
        got = extract_snippets(make_doc(3), att, ASPECTS, "Value", polarity="highest", top_k=1)
        assert got[0].sentence_index == 1

    def test_weight_equal_to_tau_is_kept(self):
        att = make_attribution([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]], [1.0, 2.0])
        got = extract_snippets(make_doc(2), att, ASPECTS, "Value", tau=0.5)
        assert [s.sentence_index for s in got] == [0]

    def test_nothing_clears_tau(self):
        att = make_attribution([[0.1, 0.45, 0.45]] * 2, [1.0, 2.0])
        assert extract_snippets(make_doc(2), att, ASPECTS, "Value", tau=0.9) == []

    def test_ties_break_by_sentence_index(self):
        att = make_attribution([[0.5, 0.25, 0.25]] * 3, [2.0, 2.0, 2.0])
        got = extract_snippets(make_doc(3), att, ASPECTS, "Value", tau=0.0)
        assert [s.sentence_index for s in got] == [0, 1, 2]

    def test_unknown_aspect(self):
        att = make_attribution([[1.0, 0.0, 0.0]], [1.0])
        with pytest.raises(KeyError, match="Pool"):
            extract_snippets(make_doc(1), att, ASPECTS, "Pool")

    def test_deterministic_rerun(self):
        att = make_attribution([[0.5, 0.3, 0.2], [0.4, 0.3, 0.3]], [1.5, -0.5])
        a = extract_snippets(make_doc(2), att, ASPECTS, "Value")
        b = extract_snippets(make_doc(2), att, ASPECTS, "Value")
        assert a == b

    def test_render_bracket_format(self):
        s = Snippet("d", 0, "the beach was fabulous", "Location", 0.9, 5.99, "highest")
        assert s.render() == "the beach was fabulous [Location, 5.990]"
        rec = snippet_record(s)
        assert rec["score"] == 5.99
        assert rec["weight"] == 0.9


class TestExplainDiscrepancy:
    def test_no_deviation_empty(self):
        att = make_attribution([[0.5, 0.3, 0.2]], [3.0])
        preds = regression_preds(3.0, [3.0, 3.2, 2.8])
        assert explain_discrepancy(make_doc(1), preds, att, ASPECTS) == []

    def test_exactly_margin_from_overall_is_no_discrepancy(self):
        # Value sits exactly margin below overall and Room exactly margin
        # above; both have sentences that clear tau
        att = make_attribution([[0.4, 0.35, 0.25]] * 2, [1.0, 5.0])
        preds = regression_preds(3.0, [2.0, 4.0, 3.0])
        assert explain_discrepancy(make_doc(2), preds, att, ASPECTS, margin=1.0) == []

    def test_low_aspect_gets_lowest_snippet(self):
        att = make_attribution([[0.9, 0.05, 0.05], [0.8, 0.1, 0.1]], [1.5, 4.0])
        preds = regression_preds(4.5, [2.0, 4.5, 4.5])
        got = explain_discrepancy(make_doc(2), preds, att, ASPECTS, margin=1.0)
        assert len(got) == 1
        assert got[0].aspect == "Value"
        assert got[0].polarity == "lowest"
        assert got[0].sentence_index == 0

    def test_two_deviating_aspects_in_order(self):
        att = make_attribution([[0.9, 0.05, 0.05], [0.05, 0.05, 0.9]], [1.0, 5.0])
        preds = regression_preds(3.0, [1.0, 3.0, 5.0])
        got = explain_discrepancy(make_doc(2), preds, att, ASPECTS, margin=1.0)
        assert [s.aspect for s in got] == ["Value", "Location"]
        assert [s.polarity for s in got] == ["lowest", "highest"]

    @pytest.mark.parametrize("variant", ["C1", "C2"])
    def test_classification_compares_expected_ratings(self, variant):
        # overall expects rating 3.5; Value 1.5 (low), Room 4.0 (within 1), Location 5.0 (high)
        def dist(*probs):
            return ad.constant(np.array(probs, dtype=np.float64))

        preds = PredictionSet("classification", dist(0, 0, 0.5, 0.5, 0),
                              [dist(0.5, 0.5, 0, 0, 0), dist(0, 0, 0, 1, 0),
                               dist(0, 0, 0, 0, 1)])
        weights = np.array([[0.9, 0.02, 0.02, 0.06], [0.02, 0.02, 0.9, 0.06]])
        scores = np.array([[5.0, 0, 0, 0, 0], [0, 0, 0, 0, 5.0]])
        att = AttributionResult(weights, scores, weights[:, :, None] * scores[:, None, :],
                                variant)
        got = explain_discrepancy(make_doc(2), preds, att, ASPECTS, margin=1.0)
        assert [(s.aspect, s.polarity, s.sentence_index) for s in got] == [
            ("Value", "lowest", 0), ("Location", "highest", 1)]

    @pytest.mark.parametrize("variant", ["C1", "C2", "R"])
    def test_every_attribution_variant_on_model_outputs(self, variant):
        from saam.model import SaamModel
        from saam.selftest import toy_train_config
        config = toy_train_config("mean", variant)
        model = SaamModel(config.encoder, config.head_config(), seed=2, t_max=config.t_max)
        doc = ReviewDocument("doc1", [[2, 3], [4, 5], [6]], ["s0", "s1", "s2"], 3.0, [3.0, 3.0])
        preds, att = model.predict(doc.sentences)
        got = explain_discrepancy(doc, preds, att, ["A", "B"], margin=0.0, tau=0.0)
        values = [float(p.data) if preds.kind == "regression"
                  else float(p.data @ np.arange(1.0, p.data.size + 1))
                  for p in (preds.overall, *preds.per_aspect)]
        want = [("lowest" if v < values[0] else "highest", name)
                for name, v in zip(["A", "B"], values[1:]) if v != values[0]]
        assert [(s.polarity, s.aspect) for s in got] == want
