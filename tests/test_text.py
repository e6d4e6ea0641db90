import hashlib

import numpy as np
import pytest

from saam import text
from saam.text import (
    AspectSet,
    CorpusError,
    PAD_ID,
    ReviewDocument,
    UNK_ID,
    UNLABELED,
    Vocabulary,
    build_vocabulary,
    docs_from_records,
    generate_synthetic_corpus,
    keyword_label_sentences,
    make_batch,
    read_corpus,
    split_corpus,
    split_sentences,
    write_corpus,
)


def make_doc(doc_id, n_sentences, ratings=(3.0, 4.0), overall=3.0):
    sents = [[2, 3] for _ in range(n_sentences)]
    raws = [f"s{i}" for i in range(n_sentences)]
    return ReviewDocument(doc_id, sents, raws, overall, list(ratings))


class TestTokenization:
    def test_two_sentences(self):
        got = split_sentences("Good room. Bad food!")
        assert [tokens for _, tokens in got] == [["good", "room"], ["bad", "food"]]

    def test_empty(self):
        assert split_sentences("") == []

    def test_prefix_token_preserved(self):
        got = split_sentences("A: pours amber.")
        assert len(got) == 1
        assert got[0][1][0] == "a:"

    def test_unknowns_map_to_unk(self):
        vocab = build_vocabulary(["good room"])
        ids = [vocab.encode(tokens) for _, tokens in split_sentences("good stuff. spam!")]
        assert ids == [[vocab.id_for("good"), UNK_ID], [UNK_ID]]

    def test_no_split_on_inner_period(self):
        got = split_sentences("rated 4.5 overall")
        assert len(got) == 1
        assert got[0][1] == ["rated", "4", "5", "overall"]


class TestVocabulary:
    def test_basic_assignment(self):
        vocab = build_vocabulary(["a a b"], min_frequency=1)
        assert vocab.token_to_id == {"a": 2, "b": 3}

    def test_min_frequency_filters(self):
        vocab = build_vocabulary(["a a b"], min_frequency=2)
        assert vocab.token_to_id == {"a": 2}
        assert vocab.id_for("b") == UNK_ID

    def test_deterministic_rebuild(self):
        corpus = ["c a b b", "a c c"]
        assert build_vocabulary(corpus).token_to_id == build_vocabulary(corpus).token_to_id

    def test_tie_broken_lexicographically(self):
        vocab = build_vocabulary(["z q z q"])
        assert vocab.token_to_id == {"q": 2, "z": 3}

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocabulary(["alpha beta alpha"])
        p = tmp_path / "vocab.tsv"
        vocab.save(p)
        loaded = Vocabulary.load(p)
        assert loaded.token_to_id == vocab.token_to_id
        assert loaded.counts == vocab.counts
        assert loaded.content_hash() == vocab.content_hash()

    def test_content_hash_is_sha256_of_the_file_lines(self, tmp_path):
        vocab = Vocabulary({"b": 3, "café": 2, "z": 4}, {"b": 1, "café": 7})
        per_line = hashlib.sha256()
        for line in ("café\t2\t7\n", "b\t3\t1\n", "z\t4\t0\n"):
            per_line.update(line.encode("utf-8"))
        assert vocab.content_hash() == per_line.digest()
        vocab.save(tmp_path / "vocab.tsv")
        assert hashlib.sha256((tmp_path / "vocab.tsv").read_bytes()).digest() == per_line.digest()

    def test_size_counts_reserved_ids(self):
        assert build_vocabulary(["a b"]).size == 4


class TestSplitCorpus:
    def test_arithmetic_from_rule(self):
        docs = [make_doc(f"d{i}", 5) for i in range(100)]
        splits = split_corpus(docs, seed=1, dev_size=10)
        assert len(splits["train"]) == 65
        assert len(splits["dev"]) == 10
        assert len(splits["test"]) == 25

    def test_three_sentence_doc_excluded(self):
        docs = [make_doc("short", 3)] + [make_doc(f"d{i}", 4) for i in range(20)]
        splits = split_corpus(docs, seed=0, dev_size=2)
        all_ids = {d.doc_id for part in splits.values() for d in part}
        assert "short" not in all_ids
        assert len(all_ids) == 20

    def test_unrated_aspect_excluded(self):
        bad = make_doc("unrated", 5, ratings=(3.0, None))
        splits = split_corpus([bad] + [make_doc(f"d{i}", 5) for i in range(20)], seed=0, dev_size=2)
        assert all(d.doc_id != "unrated" for part in splits.values() for d in part)

    def test_same_seed_identical(self):
        docs = [make_doc(f"d{i}", 4 + i % 3) for i in range(40)]
        a = split_corpus(docs, seed=7, dev_size=3)
        b = split_corpus(docs, seed=7, dev_size=3)
        for part in ("train", "dev", "test"):
            assert [d.doc_id for d in a[part]] == [d.doc_id for d in b[part]]

    def test_partition_property(self):
        docs = [make_doc(f"d{i}", 4) for i in range(37)]
        splits = split_corpus(docs, seed=3, dev_size=4)
        ids = [d.doc_id for part in ("train", "dev", "test") for d in splits[part]]
        assert sorted(ids) == sorted(d.doc_id for d in docs)
        assert len(set(ids)) == len(ids)

    def test_insufficient_documents(self):
        with pytest.raises(CorpusError):
            split_corpus([make_doc("only", 5)], seed=0, dev_size=5)


class TestKeywordLabels:
    def test_paper_prefixes(self):
        doc = ReviewDocument(
            "b1",
            sentences=[[2]] * 5,
            raw_sentences=["A: pours amber", "S: citrus nose", "M: thin body",
                           "T: sweet malt", "Great beer overall"],
            overall_rating=4.0,
            aspect_ratings=[4.0, 4.0, 4.0, 4.0],
        )
        labels = keyword_label_sentences(doc, "beer")
        assert labels == ["Appearance", "Aroma", "Palate", "Taste", UNLABELED]

    def test_case_insensitive(self):
        doc = ReviewDocument("b2", [[2]], ["t: hops forward"], 4.0, [4.0] * 4)
        assert keyword_label_sentences(doc)[0] == "Taste"

    def test_unknown_scheme(self):
        doc = ReviewDocument("b3", [[2]], ["fine"], 4.0, [4.0])
        with pytest.raises(ValueError):
            keyword_label_sentences(doc, "hotel")

    def test_depends_only_on_first_token(self):
        doc = ReviewDocument("b4", [[2]], ["nice A: pours amber"], 4.0, [4.0] * 4)
        assert keyword_label_sentences(doc)[0] == UNLABELED


class TestMakeBatch:
    def test_sentence_mask(self):
        batch = make_batch([make_doc("d", 2)], s_max=4, t_max=5)
        assert batch.sentence_mask.tolist() == [[True, True, False, False]]

    def test_token_mask(self):
        doc = ReviewDocument("d", [[2, 3, 4]], ["x"], 3.0, [3.0])
        batch = make_batch([doc], s_max=2, t_max=5)
        assert batch.token_mask[0, 0].tolist() == [True, True, True, False, False]

    def test_truncation_keeps_first(self):
        doc = ReviewDocument("d", [[i + 2] for i in range(6)], ["x"] * 6, 3.0, [3.0])
        batch = make_batch([doc], s_max=4, t_max=3)
        assert batch.token_ids[0, :, 0].tolist() == [2, 3, 4, 5]

    def test_masked_positions_carry_pad_id(self):
        docs = [make_doc(f"d{i}", 1 + i) for i in range(3)]
        batch = make_batch(docs, s_max=4, t_max=6)
        assert np.all(batch.token_ids[~batch.token_mask] == PAD_ID)
        assert np.all(batch.token_ids[batch.token_mask] != PAD_ID)

    def test_doc_sentences_roundtrip(self):
        doc = ReviewDocument("d", [[2, 3], [4]], ["x", "y"], 3.0, [3.0])
        batch = make_batch([doc], s_max=3, t_max=4)
        assert batch.sentence_mask[0].tolist() == [True, True, False]
        assert [batch.token_ids[0, s][batch.token_mask[0, s]].tolist()
                for s in range(2)] == [[2, 3], [4]]


class TestSyntheticCorpus:
    def test_sentence_count_and_labels_by_construction(self):
        records = generate_synthetic_corpus(n_aspects=2, n_docs=10, seed=0)
        for rec in records:
            assert len(rec["sentences"]) == 2
            assert sorted(rec["sentence_labels"]) == ["aspect1", "aspect2"]

    def test_overall_is_rounded_mean(self):
        records = generate_synthetic_corpus(n_aspects=2, n_docs=50, seed=1)
        found_5_1 = False
        for rec in records:
            ratings = list(rec["aspects"].values())
            assert rec["overall"] == float(int(np.floor(np.mean(ratings) + 0.5)))
            if sorted(ratings) == [1.0, 5.0]:
                assert rec["overall"] == 3.0
                found_5_1 = True
        assert found_5_1

    def test_same_seed_byte_identical_file(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(generate_synthetic_corpus(n_aspects=3, n_docs=20, seed=9), p1)
        write_corpus(generate_synthetic_corpus(n_aspects=3, n_docs=20, seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sentiment_token_encodes_rating(self):
        records = generate_synthetic_corpus(n_aspects=2, n_docs=30, seed=2, rating_scheme="half")
        for rec in records:
            for sentence, label in zip(rec["sentences"], rec["sentence_labels"]):
                rating = rec["aspects"][label]
                sent_tokens = [t for t in sentence.split() if t.startswith("sent_")]
                assert len(sent_tokens) == 1
                enc = sent_tokens[0].split("_")[1]
                decoded = float(enc.replace("p5", ".5"))
                assert decoded == rating

    def test_overlapping_vocabularies_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            generate_synthetic_corpus(n_aspects=2, n_docs=5, seed=0,
                                      aspect_vocabularies=[["x", "y"], ["y", "z"]])

    def test_exact_mean_only(self):
        records = generate_synthetic_corpus(n_aspects=2, n_docs=40, seed=3, exact_mean_only=True)
        for rec in records:
            assert rec["overall"] == np.mean(list(rec["aspects"].values()))

    def test_overlap_fraction_mixes_shared_tokens(self):
        records = generate_synthetic_corpus(n_aspects=2, n_docs=50, seed=4, overlap_fraction=0.5)
        tokens = [t for rec in records for s in rec["sentences"] for t in s.split()]
        assert any(t.startswith("shared_") for t in tokens)
        assert any(t.startswith("kw_") for t in tokens)


class TestCorpusIO:
    def test_roundtrip(self, tmp_path):
        records = generate_synthetic_corpus(n_aspects=2, n_docs=5, seed=0)
        p = tmp_path / "c.jsonl"
        write_corpus(records, p)
        assert read_corpus(p) == records

    def test_invalid_json_names_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"doc_id": "a", "sentences": ["x"], "overall": 3, "aspects": {}}\nnot json\n')
        with pytest.raises(CorpusError, match="line 2"):
            read_corpus(p)

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"doc_id": "a", "overall": 3, "aspects": {}}\n')
        with pytest.raises(CorpusError, match="text or sentences"):
            read_corpus(p)

    def test_docs_from_records(self):
        records = generate_synthetic_corpus(n_aspects=2, n_docs=4, seed=5)
        aspects = text.aspect_names_from_records(records)
        vocab = build_vocabulary([s for rec in records for s in rec["sentences"]])
        docs = docs_from_records(records, vocab, aspects)
        assert len(docs) == 4
        assert all(d.fully_rated() for d in docs)
        assert docs[0].sentence_labels == records[0]["sentence_labels"]
        assert all(UNK_ID not in sent for d in docs for sent in d.sentences)

    def test_text_form_record(self):
        records = [{"doc_id": "t", "text": "Good room. Bad food!", "overall": 3,
                    "aspects": {"Value": 3.0}}]
        vocab = build_vocabulary(["good room bad food"])
        docs = docs_from_records(records, vocab, AspectSet(("Value",)))
        assert docs[0].raw_sentences == ["Good room", "Bad food"]
        assert docs[0].sentences == [[vocab.id_for("good"), vocab.id_for("room")],
                                     [vocab.id_for("bad"), vocab.id_for("food")]]

    def test_missing_aspect_rating_becomes_none(self):
        records = [{"doc_id": "r", "sentences": ["good stuff"], "overall": 4,
                    "aspects": {"Value": 4}}]
        docs = docs_from_records(records, build_vocabulary(["good stuff"]),
                                 AspectSet(("Value", "Room")))
        assert docs[0].aspect_ratings == [4.0, None]
        assert not docs[0].fully_rated()


class TestAspectSet:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            AspectSet(("Room", "Room"))

    def test_index(self):
        aspects = AspectSet(("Value", "Room"))
        assert aspects.index("Room") == 1
        with pytest.raises(KeyError):
            aspects.index("Pool")
