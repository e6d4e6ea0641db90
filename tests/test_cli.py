import json

import pytest

from saam.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from saam.heads import VARIANTS, head_forward
from saam.model import SaamModel


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated corpus, prepared splits, and a small trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    data = root / "data"
    ckpt = root / "run" / "model.ckpt"
    assert main(["generate", "--out", str(corpus), "--aspects", "2", "--docs", "90",
                 "--seed", "7", "--exact-mean", "--sentences-per-aspect", "2"]) == EXIT_OK
    assert main(["prepare", str(corpus), "--out", str(data), "--seed", "3",
                 "--dev-size", "6"]) == EXIT_OK
    config = root / "config.json"
    config.write_text(json.dumps({
        "variant": "R",
        "encoder": {"kind": "mean", "embedding_dim": 10},
        "s_max": 4, "t_max": 8, "lr": 0.05, "optimizer": "adam",
        "batch_size": 16, "max_epochs": 25, "patience": 25, "seed": 1,
    }))
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(ckpt)]) == EXIT_OK
    return {"root": root, "corpus": corpus, "data": data, "ckpt": ckpt, "config": config}


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["generate", "--out", str(out), "--docs", "15", "--seed", "5"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "c.jsonl"
        main(["generate", "--out", str(out), "--docs", "5", "--seed", "1"])
        manifest = json.loads((tmp_path / "manifest-generate.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 1
        assert manifest["documents"] == 5
        assert "duration_seconds" in manifest


class TestPrepare:
    def test_split_sizes_follow_rule(self, workspace):
        manifest = json.loads((workspace["data"] / "manifest-prepare.json").read_text())
        sizes = manifest["split_sizes"]
        assert sizes["test"] == round(0.25 * 90)
        assert sizes["dev"] == 6
        assert sizes["train"] == 90 - sizes["test"] - 6

    def test_unrated_record_skipped_with_count(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        # three documents fall below the default four sentences
        rows = [{"doc_id": f"d{i}", "sentences": ["a b"] * (2 if i < 3 else 4), "overall": 3,
                 "aspects": {"X": 3, "Y": 4}} for i in range(20)]
        rows[5] = {"doc_id": "bad", "sentences": ["a b"] * 4, "overall": 3,
                   "aspects": {"X": 3}}
        corpus.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "data"
        assert main([
            "prepare", str(corpus), "--out", str(out), "--dev-size", "2"]) == EXIT_OK
        manifest = json.loads((out / "manifest-prepare.json").read_text())
        assert manifest["skipped_unrated"] == 1
        assert manifest["skipped_short"] == 3
        assert sum(manifest["split_sizes"].values()) == 16
        assert "missing aspect rating" in capsys.readouterr().err

    def test_malformed_record_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("this is not json\n")
        assert main(["prepare", str(corpus), "--out", str(tmp_path / "d")]) == EXIT_DATA
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("field,record", [
        ("overall", {"overall": "x", "aspects": {"X": 3, "Y": 4}}),
        ("overall", {"overall": None, "aspects": {"X": 3, "Y": 4}}),
        ("overall", {"overall": True, "aspects": {"X": 3, "Y": 4}}),
        ("overall", {"overall": "4", "aspects": {"X": 3, "Y": 4}}),
        ("overall", {"overall": 10 ** 400, "aspects": {"X": 3, "Y": 4}}),
        ("aspect 'X'", {"overall": 3, "aspects": {"X": False, "Y": 4}}),
        ("aspect 'Y'", {"overall": 3, "aspects": {"X": 3, "Y": "4"}}),
        ("aspect 'Y'", {"overall": 3, "aspects": {"X": 3, "Y": "four"}}),
        ("aspects", {"overall": 3, "aspects": [3, 4]}),
    ])
    def test_non_numeric_rating_is_data_error(self, tmp_path, capsys, field, record):
        corpus = tmp_path / "c.jsonl"
        rows = [{"doc_id": f"d{i}", "sentences": ["a b"] * 4, "overall": 3,
                 "aspects": {"X": 3, "Y": 4}} for i in range(3)]
        rows.append({"doc_id": "bad", "sentences": ["a b"] * 4, **record})
        corpus.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["prepare", str(corpus), "--out", str(tmp_path / "d")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "line 4" in err and field in err

    def test_fixed_seed_identical_bytes(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        main(["generate", "--out", str(corpus), "--docs", "40", "--seed", "2"])
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            assert main(["prepare", str(corpus), "--out", str(out), "--seed", "11",
                         "--dev-size", "3"]) == EXIT_OK
            outs.append(out)
        for fname in ("train.jsonl", "dev.jsonl", "test.jsonl", "vocab.tsv", "aspects.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_keyword_scheme_adds_silver_labels(self, tmp_path):
        corpus = tmp_path / "beer.jsonl"
        rows = [{"doc_id": f"b{i}",
                 "sentences": ["A: pours golden", "S: floral hops", "T: bitter finish",
                               "M: thin body", "would buy again"],
                 "overall": 4, "aspects": {"Appearance": 4, "Aroma": 4, "Palate": 3, "Taste": 4}}
                for i in range(12)]
        corpus.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "data"
        assert main(["prepare", str(corpus), "--out", str(out), "--dev-size", "1",
                     "--keyword-scheme", "beer"]) == EXIT_OK
        rec = json.loads((out / "train.jsonl").read_text().splitlines()[0])
        assert rec["sentence_labels"] == ["Appearance", "Aroma", "Taste", "Palate", "unlabeled"]

    def test_unknown_keyword_scheme_is_usage_error(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        main(["generate", "--out", str(corpus), "--docs", "30", "--seed", "2"])
        assert main(["prepare", str(corpus), "--out", str(tmp_path / "d"),
                     "--keyword-scheme", "wine"]) == EXIT_USAGE


class TestTrain:
    def test_bad_variant_is_usage_error(self, workspace, capsys):
        assert main(["train", "--config", str(workspace["config"]), "--data",
                     str(workspace["data"]), "--out", str(workspace["root"] / "x.ckpt"),
                     "--variant", "C9"]) == EXIT_USAGE
        assert "unknown variant" in capsys.readouterr().err

    def test_unknown_config_key_named(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for extra, encoder_extra, message in [
                ({"learning_rate": 0.1}, {}, "unknown config key 'learning_rate'"),
                ({"n_aspects": 2}, {}, "unknown config key 'n_aspects'"),
                ({}, {"filters": 8}, "unknown encoder config key 'filters'")]:
            bad.write_text(json.dumps({"variant": "R", "s_max": 4, **extra, "encoder": {
                "kind": "mean", "embedding_dim": 8, **encoder_extra}}))
            assert main(["train", "--config", str(bad), "--data", str(workspace["data"]),
                         "--out", str(tmp_path / "x.ckpt")]) == EXIT_USAGE
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind,top,encoder,field", [
        ("cnn", {}, {"cnn_filter_widths": []}, "cnn_filter_widths"),
        ("cnn", {}, {"cnn_filter_widths": [0]}, "cnn_filter_widths"),
        ("cnn", {}, {"cnn_filters_per_width": 0}, "cnn_filters_per_width"),
        ("gru", {}, {"gru_hidden": 0}, "gru_hidden"),
        ("mean", {}, {"embedding_dim": 0}, "embedding_dim"),
        ("mean", {"s_max": 0}, {}, "s_max"),
        ("mean", {"t_max": 0}, {}, "t_max"),
        ("mean", {"batch_size": 0}, {}, "batch_size"),
        ("mean", {"max_epochs": 0}, {}, "max_epochs"),
    ], ids=["widths=[]", "widths=[0]", "filters=0", "gru_hidden=0", "embedding_dim=0",
            "s_max=0", "t_max=0", "batch_size=0", "max_epochs=0"])
    def test_unusable_size_is_usage_error(self, workspace, tmp_path, capsys,
                                          kind, top, encoder, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"variant": "R", "s_max": 4, **top, "encoder": {
            "kind": kind, "embedding_dim": 4, **encoder}}))
        out = tmp_path / "x.ckpt"
        assert main(["train", "--config", str(bad), "--data", str(workspace["data"]),
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:") and field in err[0], err
        assert not out.exists()

    def test_nonzero_dropout_is_usage_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"variant": "R", "s_max": 4,
                                   "encoder": {"kind": "mean", "embedding_dim": 8,
                                               "dropout": 0.5}}))
        assert main(["train", "--config", str(bad), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "x.ckpt")]) == EXIT_USAGE
        assert "dropout" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["C1", "C2", "flat-c"])
    def test_half_ratings_on_classification_is_data_error(self, tmp_path, capsys, variant):
        corpus, data = tmp_path / "half.jsonl", tmp_path / "data"
        assert main(["generate", "--out", str(corpus), "--aspects", "2", "--docs", "30",
                     "--seed", "4", "--sentences-per-aspect", "2",
                     "--rating-scheme", "half"]) == EXIT_OK
        assert main(["prepare", str(corpus), "--out", str(data), "--dev-size", "3"]) == EXIT_OK
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"variant": variant, "s_max": 4,
                                      "encoder": {"kind": "mean", "embedding_dim": 4}}))
        capsys.readouterr()
        ckpt = tmp_path / "x.ckpt"
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(ckpt)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("data error: document ") and ".5 outside the 1..5" in err
        assert not ckpt.exists()

    def test_rerun_same_seed_identical_checkpoint(self, workspace, tmp_path):
        outs = []
        for name in ("r1.ckpt", "r2.ckpt"):
            out = tmp_path / name
            assert main(["train", "--config", str(workspace["config"]), "--data",
                         str(workspace["data"]), "--out", str(out),
                         "--max-epochs", "3"]) == EXIT_OK
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_history_file_written(self, workspace):
        history = json.loads(
            (workspace["ckpt"].parent / "model.ckpt.history.json").read_text())
        assert len(history) == 25
        assert {"epoch", "train_loss", "dev_loss", "best"} <= set(history[0])
        # converged on the synthetic corpus
        assert history[-1]["dev_loss"] < history[0]["dev_loss"]


class TestEval:
    def test_eval_converged_run_near_perfect(self, workspace):
        out = workspace["root"] / "eval"
        assert main(["eval", "--checkpoint", str(workspace["ckpt"]), "--data",
                     str(workspace["data"]), "--split", "train", "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "report-train.json").read_text())
        assert payload["aspect_avg"]["mse"] < 0.1

    def test_kind_mismatch_rejected(self, workspace):
        assert main(["eval", "--checkpoint", str(workspace["ckpt"]), "--data",
                     str(workspace["data"]), "--out", str(workspace["root"] / "e2"),
                     "--kind", "classification"]) == EXIT_USAGE

    def test_attribution_labels_scored(self, workspace):
        out = workspace["root"] / "eval-att"
        assert main(["eval", "--checkpoint", str(workspace["ckpt"]), "--data",
                     str(workspace["data"]), "--split", "test", "--out", str(out),
                     "--attribution-labels", str(workspace["data"] / "test.jsonl")]) == EXIT_OK
        payload = json.loads((out / "report-test.json").read_text())
        assert payload["attribution_accuracy"] is not None
        assert payload["attribution_accuracy"] > 0.9

    def test_attribution_labels_share_one_prediction_pass(self, workspace, monkeypatch):
        calls = []
        predict = SaamModel.predict

        def counting_predict(model, sentences):
            calls.append(sentences)
            return predict(model, sentences)

        monkeypatch.setattr(SaamModel, "predict", counting_predict)
        out = workspace["root"] / "eval-once"
        assert main(["eval", "--checkpoint", str(workspace["ckpt"]), "--data",
                     str(workspace["data"]), "--split", "test", "--out", str(out),
                     "--attribution-labels", str(workspace["data"] / "test.jsonl")]) == EXIT_OK
        n_docs = json.loads((out / "report-test.json").read_text())["n_documents"]
        assert n_docs > 0
        assert len(calls) == n_docs

    def test_zero_labeled_sentences_marked_na(self, workspace, tmp_path):
        labels = tmp_path / "labels.jsonl"
        records = [json.loads(line) for line in
                   (workspace["data"] / "test.jsonl").read_text().splitlines()]
        for rec in records:
            rec["sentence_labels"] = ["unlabeled"] * len(rec["sentences"])
        labels.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out = workspace["root"] / "eval-na"
        assert main(["eval", "--checkpoint", str(workspace["ckpt"]), "--data",
                     str(workspace["data"]), "--split", "test", "--out", str(out),
                     "--attribution-labels", str(labels)]) == EXIT_OK
        assert "n/a" in (out / "report-test.txt").read_text()

    def test_vocab_hash_mismatch_is_data_error(self, workspace, tmp_path):
        other = tmp_path / "other"
        corpus = tmp_path / "other.jsonl"
        main(["generate", "--out", str(corpus), "--docs", "40", "--seed", "99",
              "--aspects", "2", "--keywords-per-aspect", "9"])
        main(["prepare", str(corpus), "--out", str(other), "--dev-size", "2"])
        assert main(["eval", "--checkpoint", str(workspace["ckpt"]), "--data", str(other),
                     "--out", str(tmp_path / "e")]) == EXIT_DATA


class TestAttribute:
    def test_dump_matches_ground_truth_for_converged_model(self, workspace):
        out = workspace["root"] / "attribution.jsonl"
        assert main(["attribute", "--checkpoint", str(workspace["ckpt"]),
                     "--corpus", str(workspace["data"] / "test.jsonl"),
                     "--vocab", str(workspace["data"] / "vocab.tsv"),
                     "--aspects", str(workspace["data"] / "aspects.json"),
                     "--out", str(out)]) == EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        records = [json.loads(line) for line in
                   (workspace["data"] / "test.jsonl").read_text().splitlines()]
        gold = {(r["doc_id"], i): label for r in records
                for i, label in enumerate(r["sentence_labels"])}
        hits = sum(row["label"] == gold[(row["doc_id"], row["sentence_index"])] for row in rows)
        assert hits / len(rows) > 0.9
        assert all("rendered" in row for row in rows)

    def test_empty_corpus_succeeds(self, workspace, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "att.jsonl"
        assert main(["attribute", "--checkpoint", str(workspace["ckpt"]),
                     "--corpus", str(empty),
                     "--vocab", str(workspace["data"] / "vocab.tsv"),
                     "--aspects", str(workspace["data"] / "aspects.json"),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text() == ""

    def test_deterministic_across_reruns(self, workspace, tmp_path):
        outs = []
        for name in ("a1.jsonl", "a2.jsonl"):
            out = tmp_path / name
            main(["attribute", "--checkpoint", str(workspace["ckpt"]),
                  "--corpus", str(workspace["data"] / "dev.jsonl"),
                  "--vocab", str(workspace["data"] / "vocab.tsv"),
                  "--aspects", str(workspace["data"] / "aspects.json"),
                  "--out", str(out)])
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()


    @pytest.mark.parametrize("content", [
        '{"aspect1": 0, "aspect2": 1}', '["aspect1", 2]', '["aspect1", "aspect1"]', "[]",
        "not json", '["aspect1", "aspect2", "aspect3"]',
    ])
    def test_bad_aspects_file_is_data_error(self, workspace, tmp_path, capsys, content):
        aspects = tmp_path / "aspects.json"
        aspects.write_text(content)
        assert main(["attribute", "--checkpoint", str(workspace["ckpt"]),
                     "--corpus", str(workspace["data"] / "dev.jsonl"),
                     "--vocab", str(workspace["data"] / "vocab.tsv"),
                     "--aspects", str(aspects), "--out", str(tmp_path / "a.jsonl")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(aspects) in err


class TestSnippets:
    def test_lowest_top1(self, workspace, tmp_path):
        out = tmp_path / "snip.jsonl"
        assert main(["snippets", "--checkpoint", str(workspace["ckpt"]),
                     "--corpus", str(workspace["data"] / "test.jsonl"),
                     "--vocab", str(workspace["data"] / "vocab.tsv"),
                     "--aspects", str(workspace["data"] / "aspects.json"),
                     "--aspect", "aspect1", "--polarity", "lowest", "--top-k", "1",
                     "--out", str(out)]) == EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        per_doc = {}
        for row in rows:
            per_doc.setdefault(row["doc_id"], []).append(row)
        assert all(len(v) == 1 for v in per_doc.values())

    def test_high_tau_empty_with_notice(self, workspace, tmp_path, capsys):
        out = tmp_path / "snip.jsonl"
        assert main(["snippets", "--checkpoint", str(workspace["ckpt"]),
                     "--corpus", str(workspace["data"] / "test.jsonl"),
                     "--vocab", str(workspace["data"] / "vocab.tsv"),
                     "--aspects", str(workspace["data"] / "aspects.json"),
                     "--aspect", "aspect1", "--tau", "0.9999999",
                     "--out", str(out)]) == EXIT_OK
        assert "notice" in capsys.readouterr().out

    def test_unknown_aspect_is_usage_error(self, workspace, tmp_path):
        assert main(["snippets", "--checkpoint", str(workspace["ckpt"]),
                     "--corpus", str(workspace["data"] / "test.jsonl"),
                     "--vocab", str(workspace["data"] / "vocab.tsv"),
                     "--aspects", str(workspace["data"] / "aspects.json"),
                     "--aspect", "Pool", "--out", str(tmp_path / "s.jsonl")]) == EXIT_USAGE


class TestSelftestAndUsage:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["prepare", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "d")]) == EXIT_DATA

    def test_dropped_aspect_output_fails_every_oracle_row(self, tmp_path, monkeypatch):
        def drop_last_aspect(u, params, config):
            preds, attribution = head_forward(u, params, config)
            preds.per_aspect = preds.per_aspect[:-1]
            return preds, attribution

        monkeypatch.setattr("saam.selftest.head_forward", drop_last_aspect)
        assert main(["selftest", "--out", str(tmp_path)]) == EXIT_NUMERIC
        failed = [r for r in json.loads((tmp_path / "selftest.json").read_text())
                  if not r["passed"]]
        assert [r["name"] for r in failed] == [f"oracle:{v}" for v in VARIANTS]
        assert all(r["detail"] == "1 aspect outputs, oracle has 2" for r in failed)

    def test_corrupted_op_fails_naming_it(self, tmp_path, capsys):
        assert main(["selftest", "--corrupt", "tanh", "--out", str(tmp_path)]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "op:tanh" in captured.out
        assert "tanh" in captured.err
        results = json.loads((tmp_path / "selftest.json").read_text())
        assert any(r["name"] == "op:tanh" and not r["passed"] for r in results)
        manifest = json.loads((tmp_path / "manifest-selftest.json").read_text())
        assert "op:tanh" in manifest["failures"]
