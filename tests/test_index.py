import json
import math
import random

import pytest
from oracles import brute_force_ranking

from iterqe.corpus import Corpus, Document
from iterqe.index import Bm25Params, PostingIndex, build_index, search_topk


def make_corpus(texts):
    corpus = Corpus()
    for i, text in enumerate(texts):
        corpus._add(Document(f"d{i}", text), i + 1)
    return corpus


class TestBuild:
    def test_posting_counts(self):
        index = build_index(make_corpus(["alpha", "beta", "alpha"]))
        assert len(index.term_postings["alpha"]) == 2
        assert len(index.term_postings["beta"]) == 1
        assert index.avg_doc_length == 1

    def test_term_frequency(self):
        index = build_index(make_corpus(["wax wax wax"]))
        assert index.term_postings["wax"] == [(0, 3)]

    def test_avg_doc_length(self):
        index = build_index(make_corpus(["one two", "one two three four"]))
        assert index.avg_doc_length == 3

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_index(make_corpus([]))

    def test_postings_sorted_unique(self):
        texts = ["tok common", "common", "tok tok common"]
        index = build_index(make_corpus(texts))
        for postings in index.term_postings.values():
            ords = [d for d, _ in postings]
            assert ords == sorted(set(ords))
            for d, tf in postings:
                assert 1 <= tf <= index.doc_lengths[d]


class TestScore:
    def test_absent_term_scores_zero(self):
        index = build_index(make_corpus(["alpha", "beta"]))
        assert search_topk(index, "gamma", 2) == []

    def test_single_doc_closed_form(self):
        # one doc, one term: idf = ln(1 + 0.5/1.5), tf-part = 1.9/(1+0.9)
        index = build_index(make_corpus(["wax"]))
        expected = math.log(4 / 3)
        assert search_topk(index, "wax", 1)[0].score == pytest.approx(expected, rel=1e-12)

    def test_duplicate_query_term_doubles(self):
        index = build_index(make_corpus(["wax paper", "paper"]))
        single = search_topk(index, "wax", 1)[0].score
        double = search_topk(index, "wax wax", 1)[0].score
        assert double == pytest.approx(2 * single)


class TestSearch:
    def test_k_exceeds_matches(self):
        index = build_index(make_corpus(["alpha", "beta", "alpha gamma"]))
        hits = search_topk(index, "alpha", 10)
        assert len(hits) == 2

    def test_tie_broken_by_doc_id(self):
        index = build_index(make_corpus(["same text", "same text"]))
        hits = search_topk(index, "same", 2)
        assert [h.doc_id for h in hits] == ["d0", "d1"]
        assert hits[0].score == hits[1].score

    def test_matches_brute_force_on_toy_corpus(self):
        texts = [
            "columbia river basin",
            "river boat tour",
            "columbia sportswear jacket",
            "pacific northwest rain",
            "river columbia exploration history",
        ]
        index = build_index(make_corpus(texts))
        hits = search_topk(index, "columbia river", 5)
        oracle = brute_force_ranking(texts, [f"d{i}" for i in range(5)], "columbia river")
        assert [h.doc_id for h in hits] == [d for _, d in oracle]
        for hit, (score, _) in zip(hits, oracle):
            assert hit.score == pytest.approx(score, rel=1e-9)

    def test_empty_query_returns_empty(self):
        index = build_index(make_corpus(["alpha"]))
        assert search_topk(index, "the and of", 5) == []

    def test_ranks_contiguous(self):
        index = build_index(make_corpus(["a b c", "b c", "c"]))
        hits = search_topk(index, "b c", 3)
        assert [h.rank for h in hits] == list(range(1, len(hits) + 1))
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_random_corpora_match_oracle(self):
        rng = random.Random(1234)
        vocab = [f"term{i}" for i in range(40)]
        for _ in range(25):
            n_docs = rng.randint(2, 60)
            texts = [
                " ".join(rng.choices(vocab, k=rng.randint(1, 30)))
                for _ in range(n_docs)
            ]
            doc_ids = [f"d{i}" for i in range(n_docs)]
            index = build_index(make_corpus(texts))
            for _ in range(5):
                query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
                hits = search_topk(index, query, n_docs)
                oracle = brute_force_ranking(texts, doc_ids, query)
                assert [h.doc_id for h in hits] == [d for _, d in oracle]
                for hit, (score, _) in zip(hits, oracle):
                    assert hit.score == pytest.approx(score, rel=1e-9)

    def test_monotonic_in_tf(self):
        # swapping a filler term for another query-term occurrence (same length)
        low = ["wax pad pad filler", "other words here"]
        high = ["wax pad wax filler", "other words here"]
        s_low = search_topk(build_index(make_corpus(low)), "wax", 1)[0].score
        s_high = search_topk(build_index(make_corpus(high)), "wax", 1)[0].score
        assert s_high >= s_low

    def test_scores_non_negative(self):
        index = build_index(make_corpus(["alpha beta", "alpha", "gamma"]))
        for hits in (search_topk(index, "alpha gamma", 3),):
            for h in hits:
                assert h.score > 0


class TestPersistence:
    def test_roundtrip_identical_results(self, tmp_path):
        texts = ["columbia river", "river boat", "jacket store columbia"]
        index = build_index(make_corpus(texts), Bm25Params(k1=1.2, b=0.75))
        path = tmp_path / "index.gz"
        index.save(str(path))
        loaded = PostingIndex.load(str(path))
        assert loaded.params == index.params
        for query in ("columbia", "river boat", "jacket"):
            assert search_topk(loaded, query, 3) == search_topk(index, query, 3)

    def test_rejects_wrong_format(self, tmp_path):
        import gzip

        path = tmp_path / "bogus.gz"
        with gzip.open(path, "wt") as fh:
            json.dump({"format": "something-else"}, fh)
        with pytest.raises(ValueError, match="not an index file"):
            PostingIndex.load(str(path))
