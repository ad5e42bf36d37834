import errno
import gzip
import io
import math
import os
import random
import tempfile
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (assert_same_ranking, brute_force_ranking, reference_gap_planes,
                     reference_postings, reference_scores, rewrite_index_version)

from iterqe import index as index_module
from iterqe.corpus import Corpus
from iterqe.index import Bm25Params, PostingIndex, build_index, search_topk


def make_corpus(texts):
    return Corpus([f"d{i}" for i in range(len(texts))], list(texts))


def postings_of(index, term):
    """``(doc_ordinal, tf)`` pairs of a term, by ascending ordinal."""
    row = index.term_rows.get(term)
    if row is None:
        return []
    lo, hi = index.offsets[row], index.offsets[row + 1]
    return list(zip(index.doc_ordinals[lo:hi].tolist(), index.tfs[lo:hi].tolist()))


@pytest.mark.parametrize("k1", [-0.1, math.nan, math.inf])
def test_bm25_params_reject_k1(k1):
    with pytest.raises(ValueError, match="k1 must be finite and non-negative"):
        Bm25Params(k1=k1)


class TestBuild:
    def test_posting_counts(self):
        index = build_index(make_corpus(["alpha", "beta", "alpha"]))
        assert len(postings_of(index, "alpha")) == 2
        assert len(postings_of(index, "beta")) == 1
        assert index.avg_doc_length == 1

    def test_term_frequency(self):
        index = build_index(make_corpus(["wax wax wax"]))
        assert postings_of(index, "wax") == [(0, 3)]

    def test_avg_doc_length(self):
        # 7 tokens in 6 postings: a length counts every occurrence of a term
        index = build_index(make_corpus(["one one two", "one two three four"]))
        assert index.avg_doc_length == 3.5

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_index(make_corpus([]))

    def test_repeated_term_rejected(self):
        # a lookup of "wax" would find only the postings of its last row
        with pytest.raises(ValueError, match="a term is stored twice"):
            PostingIndex(["wax", "wax"], np.array([0, 1, 2]), np.array([0, 1]), np.array([1, 1]),
                         ["d0", "d1"])

    def test_repeated_doc_id_rejected(self):
        # a corpus built by hand is not checked as ingest_corpus checks a file
        with pytest.raises(ValueError, match="the doc ids are not strictly ascending"):
            build_index(Corpus(["d1", "d0", "d1"], ["alpha", "beta", "gamma"]))

    def test_ordinals_number_documents_in_doc_id_order(self):
        index = build_index(Corpus(["d2", "d10", "d1"], ["beta", "alpha", "alpha beta"]))
        assert index.doc_ids == ["d1", "d10", "d2"]
        assert postings_of(index, "alpha") == [(0, 1), (1, 1)]
        assert postings_of(index, "beta") == [(0, 1), (2, 1)]

    def test_postings_sorted_unique(self):
        rng = random.Random(7)
        # enough postings per term for an unstable sort to reorder them
        texts = ["tok common", "common", "tok tok common"] + [
            " ".join(rng.choices(["tok", "common", "rare", "other"], k=rng.randint(1, 6)))
            for _ in range(500)
        ]
        corpus = make_corpus(texts)
        index = build_index(corpus)
        lengths = reference_postings(corpus.texts)[4]
        for term in index.term_rows:
            postings = postings_of(index, term)
            ords = [d for d, _ in postings]
            assert ords == sorted(set(ords))
            for d, tf in postings:
                assert 1 <= tf <= lengths[d]


# "the" and "of" are stopwords, so a document may analyse to no terms at all
CHUNK_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "the", "of"]
BAD_TFS = "the term frequencies are not integers in 1..2147483647"
INDEX_ARRAYS = {"offsets": np.int64, "doc_ordinals": np.int32, "tfs": np.int32}


def npz_bytes(**arrays):
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def zip_bytes(**members):
    """A zip archive of the members as written, with no ``.npy`` framing."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    return buffer.getvalue()


def stored_arrays(path):
    """The arrays of an index file, by name."""
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


def assert_arrays_equal(index, expected):
    """Same values as ``expected`` and the dtypes the rest of the program expects."""
    for name, values in expected.items():
        got = getattr(index, name)
        assert got.dtype == INDEX_ARRAYS[name], name
        assert got.tolist() == list(values), name


def assert_loaded_equals_built(loaded, built, stored):
    """The loaded index holds the built one's terms and arrays, and no tfs.

    A loaded index drops its tfs once it has computed the impacts, so the
    built index's tfs are checked against ``stored``, the file's arrays.
    """
    assert loaded.term_rows == built.term_rows
    assert_arrays_equal(loaded, {name: getattr(built, name).tolist()
                                 for name in ("offsets", "doc_ordinals")})
    assert "tfs" not in vars(loaded)
    assert stored["tfs"].tolist() == built.tfs.tolist()


class TestChunkedBuild:
    @settings(max_examples=60, deadline=None)
    @given(docs=st.lists(st.lists(st.sampled_from(CHUNK_WORDS), max_size=6), min_size=1,
                         max_size=12))
    # "zeta" first appears in the last chunk whatever the chunk size; d1 is empty
    @example(docs=[["alpha", "alpha", "beta"], [], ["the", "of"], ["beta", "alpha"],
                   ["zeta", "alpha", "zeta"]])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 10_000])
    def test_equals_per_document_build(self, chunk, docs):
        corpus = make_corpus([" ".join(words) for words in docs])
        # ids d0, d1, d10, ...: the corpus numbers its texts in that order
        terms, offsets, doc_ordinals, tfs, doc_lengths = reference_postings(corpus.texts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(index_module, "BUILD_CHUNK_DOCS", chunk)
            index = build_index(corpus)
        assert list(index.term_rows) == terms
        assert index.doc_ids == sorted(f"d{i}" for i in range(len(docs)))
        assert_arrays_equal(index, {"offsets": offsets, "doc_ordinals": doc_ordinals,
                                    "tfs": tfs})
        assert index.avg_doc_length == sum(doc_lengths) / len(docs)
        reference = PostingIndex(terms, np.array(offsets), np.array(doc_ordinals),
                                 np.array(tfs), index.doc_ids)
        assert index.impacts.dtype == np.float64
        assert index.impacts.tobytes() == reference.impacts.tobytes()

    def test_stopwords_only_corpus_saves_and_loads(self, tmp_path):
        index = build_index(make_corpus(["the of", "and", ""]))
        assert index.term_rows == {} and index.offsets.tolist() == [0]
        path = tmp_path / "index.npz"
        index.save(str(path))
        loaded = PostingIndex.load(str(path))
        assert loaded.term_rows == {} and loaded.doc_ids == ["d0", "d1", "d2"]
        assert_arrays_equal(loaded, {"offsets": [0], "doc_ordinals": []})
        assert stored_arrays(path)["tfs"].tolist() == []
        # every document's length is 0
        assert loaded.avg_doc_length == 0
        assert len(search_topk(loaded, "alpha", 3)) == 0


class TestScore:
    def test_absent_term_scores_zero(self):
        index = build_index(make_corpus(["alpha", "beta"]))
        assert len(search_topk(index, "gamma", 2)) == 0

    def test_single_doc_closed_form(self):
        # one doc, one term: idf = ln(1 + 0.5/1.5), tf-part = 1.9/(1+0.9)
        index = build_index(make_corpus(["wax"]))
        expected = math.log(4 / 3)
        assert list(search_topk(index, "wax", 1))[0].score == pytest.approx(expected, rel=1e-12)

    def test_duplicate_query_term_doubles(self):
        index = build_index(make_corpus(["wax paper", "paper"]))
        single = list(search_topk(index, "wax", 1))[0].score
        double = list(search_topk(index, "wax wax", 1))[0].score
        assert double == pytest.approx(2 * single)


class TestSearch:
    def test_k_exceeds_matches(self):
        index = build_index(make_corpus(["alpha", "beta", "alpha gamma"]))
        hits = search_topk(index, "alpha", 10)
        assert len(hits) == 2

    def test_tie_broken_by_doc_id(self):
        index = build_index(make_corpus(["same text", "same text"]))
        hits = list(search_topk(index, "same", 2))
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
        assert len(search_topk(index, "the and of", 5)) == 0

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
        s_low = list(search_topk(build_index(make_corpus(low)), "wax", 1))[0].score
        s_high = list(search_topk(build_index(make_corpus(high)), "wax", 1))[0].score
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
            assert list(search_topk(loaded, query, 3)) == list(search_topk(index, query, 3))

    def test_built_then_searched_equals_loaded(self, tmp_path):
        # ids d0..d29 sort as d0, d1, d10, ..., so ties exercise the id order
        texts = [f"wax paper{i % 3} " + "river " * (i % 4) for i in range(30)]
        index = build_index(make_corpus(texts), Bm25Params(k1=1.2, b=0.75))
        path = tmp_path / "index.npz"
        index.save(str(path))
        # building and saving, all that `iterqe index` does, compute neither
        assert "impacts" not in vars(index)
        loaded = PostingIndex.load(str(path))
        assert "impacts" in vars(loaded)
        # each fact held once: the terms are term_rows' keys, the lengths sums
        # of the tfs, and a loaded index, which only searches, keeps no tfs
        assert not {"terms", "doc_lengths"} & set(vars(index))
        assert not {"terms", "doc_lengths", "tfs"} & set(vars(loaded))
        for query in ("wax", "river paper1", "paper2 paper2 wax", "absent"):
            got = search_topk(index, query, 7)
            expected = search_topk(loaded, query, 7)
            assert got.ordinals.tolist() == expected.ordinals.tolist()
            assert got.scores.tobytes() == expected.scores.tobytes()
        assert index.impacts.tobytes() == loaded.impacts.tobytes()
        assert loaded.doc_ids == index.doc_ids == sorted(index.doc_ids)

    def test_saved_arrays_are_narrowest_unsigned(self, tmp_path):
        texts = [f"river basin{i} " + "wax " * (i % 300) for i in range(300)]
        index = build_index(make_corpus(texts))
        path = tmp_path / "index.npz"
        index.save(str(path))
        stored = stored_arrays(path)
        # 300 documents: gaps up to 299 (basin299's first) need 16 bits, so two
        # byte planes; a tf of at most 299 needs 16 bits too
        planes = stored["doc_gap_planes"]
        assert planes.dtype == np.uint8 and planes.shape == (2, len(index.doc_ordinals))
        counts = np.diff(index.offsets).tolist()
        assert planes.tobytes() == reference_gap_planes(index.doc_ordinals.tolist(), counts,
                                                        2).tobytes()
        assert stored["tfs"].dtype == np.uint16
        for name in ("posting_counts", "tfs"):
            values = stored[name]
            assert values.dtype == np.min_scalar_type(int(values.max())), name
        for name, strings in (("terms", index.term_rows), ("doc_ids", index.doc_ids)):
            assert stored[name].dtype == np.uint8
            assert stored[name].tobytes() == "\n".join(strings).encode(), name
        assert set(stored) == {"format", "version", "params", "terms", "doc_ids",
                               "posting_counts", "doc_gap_planes", "tfs"}
        loaded = PostingIndex.load(str(path))
        assert_loaded_equals_built(loaded, index, stored)
        assert loaded.impacts.tobytes() == index.impacts.tobytes()

    def test_array_that_would_not_shrink_keeps_its_dtype(self, tmp_path):
        # a gap above 65,535 needs 32 bits: int32's four bytes, stored as four planes
        n = 70_000
        index = PostingIndex(["wax"], np.array([0, 2]), np.array([0, n - 1]), np.array([1, 3]),
                             [f"d{i:05d}" for i in range(n)])
        path = tmp_path / "index.npz"
        index.save(str(path))
        stored = stored_arrays(path)
        for name in ("posting_counts", "doc_gap_planes", "tfs"):
            assert stored[name].dtype == np.uint8, name
        # gaps 0 and 69,999 = 0x0001116F, low byte first
        assert stored["doc_gap_planes"].tolist() == [[0, 0x6F], [0, 0x11], [0, 0x01], [0, 0]]
        loaded = PostingIndex.load(str(path))
        assert_loaded_equals_built(loaded, index, stored)
        assert loaded.impacts.tobytes() == index.impacts.tobytes()

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 6])
    def test_rejects_every_other_version(self, tmp_path, version):
        path = tmp_path / "index.npz"
        build_index(make_corpus(["columbia river", "river boat", "jacket"])).save(str(path))
        rewrite_index_version(path, version)
        with pytest.raises(ValueError) as info:
            PostingIndex.load(str(path))
        assert str(info.value) == (f"{path}: index file of version [{version}], but this code "
                                   "reads version [5]: rebuild the index with `iterqe index`")

    @settings(max_examples=60, deadline=None)
    @given(docs=st.lists(st.lists(st.sampled_from(CHUNK_WORDS), max_size=6), min_size=1,
                         max_size=12),
           # stopword-only documents first push the first gaps past one byte
           lead=st.sampled_from([0, 300]),
           params=st.sampled_from([Bm25Params(), Bm25Params(k1=1.2, b=0.75)]))
    def test_round_trip_on_random_corpora(self, docs, lead, params):
        texts = ["the"] * lead + [" ".join(words) for words in docs]
        # ids that sort in text order, so that the stopword-only documents come first
        index = build_index(Corpus([f"d{i:03d}" for i in range(len(texts))], texts), params)
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "index.npz")
            index.save(path)
            stored = stored_arrays(path)
            loaded = PostingIndex.load(path)
        planes = stored["doc_gap_planes"]
        # the first gaps exceed a byte only after the stopword-only documents
        assert len(planes) == (2 if lead and len(index.doc_ordinals) else 1)
        counts = np.diff(index.offsets).tolist()
        assert planes.tobytes() == reference_gap_planes(index.doc_ordinals.tolist(), counts,
                                                        len(planes)).tobytes()
        assert (loaded.doc_ids, loaded.params) == (index.doc_ids, params)
        assert_loaded_equals_built(loaded, index, stored)
        assert loaded.impacts.tobytes() == index.impacts.tobytes()

    @pytest.mark.parametrize("doc_ids, terms, what", [
        pytest.param(["a b", "d1"], None, "doc id", id="space-in-doc-id"),
        pytest.param(["", "d1"], None, "doc id", id="empty-doc-id"),
        pytest.param(["d0", "no\u00a0break"], None, "doc id", id="nbsp-in-doc-id"),
        pytest.param(["d0", "d1"], ["wax paper"], "term", id="space-in-term"),
        pytest.param(["d0", "d1"], [""], "term", id="empty-term"),
    ])
    def test_save_refuses_a_name_that_is_empty_or_holds_whitespace(self, tmp_path, doc_ids,
                                                                  terms, what):
        # the postings of build_index(Corpus(doc_ids, ["wax", "wax"])), with the given term
        index = PostingIndex(terms or ["wax"], np.array([0, 2]), np.array([0, 1]),
                             np.array([1, 1]), doc_ids)
        with pytest.raises(ValueError, match=f"a {what} is empty or holds whitespace"):
            index.save(str(tmp_path / "index.npz"))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("failure", [OSError(errno.ENOSPC, "No space left on device"),
                                         KeyboardInterrupt()], ids=["disk-full", "interrupt"])
    def test_failed_save_leaves_the_earlier_file(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "index.npz"
        build_index(make_corpus(["columbia river", "river boat"])).save(str(path))
        before = path.read_bytes()
        write_arrays = np.savez_compressed

        def write_some_arrays_then_fail(fh, **arrays):
            write_arrays(fh, **dict(list(arrays.items())[:5]))
            raise failure

        monkeypatch.setattr(np, "savez_compressed", write_some_arrays_then_fail)
        with pytest.raises(type(failure)):
            build_index(make_corpus(["jacket store", "wax paper"])).save(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["index.npz"]

    def test_roundtrip_exact_path_strings_and_params(self, tmp_path):
        # neither NUL nor a lone surrogate is whitespace to str.split
        doc_ids = ["caf\u00e9\u2603", "nul\x00", "lone\ud800", "plain"]
        texts = ["columbia river basin", "river boat", "columbia jacket", "river river"]
        index = build_index(Corpus(list(doc_ids), texts), Bm25Params(k1=1.2, b=0.75))
        path = tmp_path / "index.gz"
        index.save(str(path))
        assert sorted(os.listdir(tmp_path)) == ["index.gz"]
        loaded = PostingIndex.load(str(path))
        assert loaded.doc_ids == sorted(doc_ids)
        assert loaded.params == Bm25Params(k1=1.2, b=0.75)
        assert loaded.term_rows == index.term_rows
        assert np.array_equal(loaded.impacts, index.impacts)
        for query in ("columbia", "river boat", "jacket river columbia", "absent"):
            assert list(search_topk(loaded, query, 4)) == list(search_topk(index, query, 4))

    # a gzip file is what index format version 1 wrote
    @pytest.mark.parametrize("content", [
        b"", b"not an index", b"PK\x03\x04 truncated zip",
        pytest.param(gzip.compress(b'{"format": "iterqe-index", "version": 1}'), id="gzip"),
        pytest.param(npz_bytes(weights=np.ones(3)), id="foreign-npz"),
        # NpzFile reads a member that is not an .npy array as its raw bytes
        pytest.param(zip_bytes(format=b"iterqe-index"), id="member-not-an-array"),
    ])
    def test_rejects_bogus_file(self, tmp_path, content):
        path = tmp_path / "index.gz"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="not an index file"):
            PostingIndex.load(str(path))

    # Each change gets the stored arrays and the file's doc ordinals and posting
    # counts as lists. The ids name the corruption in the ordinals and offsets it decodes to.
    @pytest.mark.parametrize("change, message", [
        pytest.param(lambda a, o, c: {
                         "doc_gap_planes": reference_gap_planes([x + 5 for x in o], c)},
                     "outside 0..3", id="ordinals-shifted-by-5"),
        # the largest ordinal at the document count: one past the last document
        pytest.param(lambda a, o, c: {
                         "doc_gap_planes": reference_gap_planes([x + 1 for x in o], c)},
                     "outside 0..3", id="ordinals-shifted-by-1"),
        # -1 as a 4-byte gap is 0xFFFFFFFF, far past the last document
        pytest.param(lambda a, o, c: {
                         "doc_gap_planes": reference_gap_planes([x - 1 for x in o], c, 4)},
                     "outside 0..3", id="negative-ordinal"),
        pytest.param(lambda a, o, c: {"posting_counts": a["posting_counts"][:-1]},
                     "7 posting offsets for 7 terms", id="offsets-one-short"),
        # every offset one further: the first count one larger
        pytest.param(lambda a, o, c: {"posting_counts": np.array([c[0] + 1, *c[1:]])},
                     "do not rise from 0", id="offsets-not-from-0"),
        # the offsets of the first two terms swapped: a negative count
        pytest.param(lambda a, o, c: {"posting_counts": np.diff(np.cumsum([0, *c])[
                         [0, 2, 1, *range(3, 8)]])},
                     "do not rise from 0", id="offsets-decreasing"),
        pytest.param(lambda a, o, c: {"posting_counts": np.array([*c[:-1], c[-1] + 1])},
                     "do not rise from 0 to 9 postings", id="offsets-past-the-postings"),
        pytest.param(lambda a, o, c: {"posting_counts": np.array([*c[:-1], c[-1] - 1])},
                     "do not rise from 0 to 9 postings", id="counts-short-of-the-postings"),
        # 2**64 - 1 wraps to -1 in the running sum, which still reaches 9
        pytest.param(lambda a, o, c: {"posting_counts": np.array(
                         [2**64 - 1, c[0] + c[1] + 1, *c[2:]], dtype=np.uint64)},
                     "do not rise from 0 to 9 postings", id="count-past-2-to-the-63"),
        pytest.param(lambda a, o, c: {"tfs": a["tfs"][:-1]},
                     "8 term frequencies for 9 postings", id="tfs-one-short"),
        # tfs that are not counts the index can hold as int32, each of which
        # would rank wrong
        pytest.param(lambda a, o, c: {"tfs": np.array([0, *a["tfs"][1:]], dtype=np.uint8)},
                     BAD_TFS, id="tf-of-0"),
        pytest.param(lambda a, o, c: {"tfs": np.array([-1, *a["tfs"][1:]], dtype=np.int8)},
                     BAD_TFS, id="negative-int8-tf"),
        # truncated to int32 as they load
        pytest.param(lambda a, o, c: {"tfs": a["tfs"] + 0.5},
                     "lacks tfs as a 1-D array of dtype kind i or u", id="float-tfs"),
        # read as int32, 2**32 - 1 is -1
        pytest.param(lambda a, o, c: {"tfs": np.array([2**32 - 1, *a["tfs"][1:]], dtype=np.uint32)},
                     BAD_TFS, id="uint32-tf-2-to-the-32-minus-1"),
        pytest.param(lambda a, o, c: {"doc_ids": a["doc_ids"][:0]},
                     "holds no document", id="no-document"),
        pytest.param(lambda a, o, c: {"doc_ids": np.frombuffer(
                         b"\xff" + a["doc_ids"].tobytes()[1:], dtype=np.uint8)},
                     "can't decode byte 0xff", id="doc-ids-not-utf-8"),
        # d0 d0 d2 d3: a ranking would name d0 twice
        pytest.param(lambda a, o, c: {"doc_ids": np.frombuffer(
                         a["doc_ids"].tobytes().replace(b"d1", b"d0"), dtype=np.uint8)},
                     "the doc ids are not strictly ascending", id="repeated-doc-id"),
        # e0 d1 d2 d3: a tie by ordinal would not be a tie by doc id
        pytest.param(lambda a, o, c: {"doc_ids": np.frombuffer(
                         a["doc_ids"].tobytes().replace(b"d0", b"e0"), dtype=np.uint8)},
                     "the doc ids are not strictly ascending", id="falling-doc-ids"),
        # columbia river boat jacket store boat paper: a lookup of "boat" would
        # find the postings of wax, the last row of the name
        pytest.param(lambda a, o, c: {"terms": np.frombuffer(
                         a["terms"].tobytes().replace(b"wax", b"boat"), dtype=np.uint8)},
                     "a term is stored twice", id="repeated-term"),
        pytest.param(lambda a, o, c: {"params": np.array([math.nan, 0.4])},
                     "k1 must be finite", id="k1-nan"),
        pytest.param(lambda a, o, c: {"params": np.array([math.inf, 0.4])},
                     "k1 must be finite", id="k1-inf"),
        # the last list, [3], ends at the document count
        pytest.param(lambda a, o, c: {
                         "doc_gap_planes": reference_gap_planes([*o[:-1], 4], c)},
                     "outside 0..3", id="last-ordinal-at-doc-count"),
        # the first list's gaps 0xFFFFFFFF and 2 sum to 1 in 32 bits
        pytest.param(lambda a, o, c: {"doc_gap_planes": reference_gap_planes(
                         [2**32 - 1, 2**32 + 1, *o[2:]], c, 4)},
                     "outside 0..3", id="gaps-that-wrap-at-32-bits"),
        pytest.param(lambda a, o, c: {"doc_gap_planes": np.vstack(
                         [a["doc_gap_planes"], np.zeros((2, 9), dtype=np.uint8)])},
                     "not stored as 1, 2 or 4 byte planes", id="three-byte-planes"),
        pytest.param(lambda a, o, c: {"doc_gap_planes": a["doc_gap_planes"].astype(np.uint16)},
                     "not stored as 1, 2 or 4 byte planes", id="planes-not-bytes"),
    ])
    def test_rejects_arrays_that_do_not_fit_together(self, tmp_path, change, message):
        # 7 terms, 9 postings, 4 documents; the first two terms have 2 postings each
        texts = ["columbia river", "river boat", "jacket store columbia", "wax paper"]
        path = tmp_path / "index.npz"
        index = build_index(make_corpus(texts))
        index.save(str(path))
        with np.load(path) as npz:
            arrays = {name: npz[name] for name in npz.files}
        assert len(arrays["doc_gap_planes"]) == 1
        ordinals, counts = index.doc_ordinals.tolist(), np.diff(index.offsets).tolist()
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **{**arrays, **change(arrays, ordinals, counts)})
        with pytest.raises(ValueError, match=message) as info:
            PostingIndex.load(str(path))
        assert str(info.value).startswith(f"{path}: ")

    # terms wax, candl, paper, boat with postings [0 2], [0], [1 2], [1]: a list's
    # ordinals rise strictly, and fall only where the next list starts. A list
    # that names a document twice has a zero gap; one whose ordinals fall has a
    # negative gap, which wraps to a gap past the last document in a uint8 plane.
    @pytest.mark.parametrize("ordinals, message", [
        pytest.param([0, 0, 0, 1, 2, 1], "a posting list names a document twice or out of order",
                     id="wax-names-d0-twice"),
        pytest.param([2, 0, 0, 1, 2, 1], "outside 0..2", id="wax-falls"),
        pytest.param([0, 2, 0, 2, 1, 1], "outside 0..2", id="paper-falls"),
    ])
    def test_rejects_a_posting_list_that_does_not_rise(self, tmp_path, ordinals, message):
        path = tmp_path / "index.npz"
        index = build_index(make_corpus(["wax candle wax", "paper boat", "wax paper"]))
        index.save(str(path))
        assert PostingIndex.load(str(path)).doc_ordinals.tolist() == [0, 2, 0, 1, 2, 1]
        with np.load(path) as npz:
            arrays = {name: npz[name] for name in npz.files}
        arrays["doc_gap_planes"] = reference_gap_planes(ordinals, np.diff(index.offsets).tolist())
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(ValueError, match=message) as info:
            PostingIndex.load(str(path))
        assert str(info.value).startswith(f"{path}: ")


    # each stored array in a shape or dtype that no save writes: loading refuses
    # it with a message that names the file, or reads the same values (float params)
    @pytest.mark.parametrize("name", sorted(index_module._ARRAYS))
    @pytest.mark.parametrize("form", [
        pytest.param(lambda a: a[..., None], id="one-more-dimension"),
        pytest.param(lambda a: a.astype(str), id="strings"),
        pytest.param(lambda a: a.astype(bytes), id="bytes"),
        pytest.param(lambda a: np.array(a.flat[0]), id="0-d"),
        pytest.param(lambda a: a.astype(np.float64), id="float"),
        pytest.param(lambda a: a[:0], id="empty"),
    ])
    def test_malformed_array_is_a_value_error_that_names_the_file(self, tmp_path, name, form):
        path = tmp_path / "index.npz"
        build_index(make_corpus(["columbia river", "river boat"])).save(str(path))
        with np.load(path) as npz:
            arrays = {key: npz[key] for key in npz.files}
        arrays[name] = form(arrays[name])
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        try:
            PostingIndex.load(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")


WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "the", "of"]


class TestScatterAddMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        docs=st.lists(st.lists(st.sampled_from(WORDS), max_size=8), min_size=1, max_size=14),
        query=st.lists(st.sampled_from(WORDS + ["zeta", "omega"]), min_size=1, max_size=6),
        k=st.integers(min_value=1, max_value=16),
        params=st.sampled_from([Bm25Params(), Bm25Params(k1=1.2, b=0.75), Bm25Params(0, 1)]),
    )
    # d5 and d6 score exactly equal in the program, which sums multiplicity x
    # impact; the oracle adds one term per query occurrence and puts d5 one
    # ulp lower, so the two orders differ within the tolerance
    @example(docs=[[], [], [], [], ["alpha"], ["alpha", "alpha", "alpha", "beta"],
                   ["alpha", "beta"]],
             query=["alpha", "alpha", "beta", "alpha"], k=1, params=Bm25Params(0, 1))
    def test_random_corpora(self, docs, query, k, params):
        # duplicate documents make tied blocks; query words repeat or are absent
        texts = [" ".join(words) for words in docs]
        doc_ids = [f"d{i}" for i in range(len(texts))]
        index = build_index(make_corpus(texts), params)
        query_text = " ".join(query)
        hits = search_topk(index, query_text, k)
        oracle = brute_force_ranking(texts, doc_ids, query_text, params.k1, params.b)
        assert_same_ranking(hits, oracle, k)

    @settings(max_examples=100, deadline=None)
    @given(
        docs=st.lists(st.lists(st.sampled_from(WORDS), max_size=8), min_size=1, max_size=20),
        common=st.integers(min_value=0, max_value=300),
        query=st.lists(st.sampled_from(WORDS + ["zeta"]), min_size=1, max_size=12),
        k=st.integers(min_value=1, max_value=40),
        params=st.sampled_from([Bm25Params(), Bm25Params(k1=1.2, b=0.75)]),
    )
    # d7 holds all three query terms; summed as epsilon, beta, alpha its score
    # is one ulp below the sum in query order
    @example(docs=[[], ["alpha", "alpha"]], common=6, query=["alpha", "beta", "epsilon"], k=1,
             params=Bm25Params(k1=1.2, b=0.75))
    def test_scores_equal_the_scalar_sum_bit_for_bit(self, docs, common, query, k, params):
        # `common` more documents that all hold alpha, beta and gamma: long
        # posting lists, whose documents each add up three terms or more
        texts = [" ".join(words) for words in docs]
        texts += [" ".join(["alpha", "beta", "gamma", *WORDS[:i % 7]]) for i in range(common)]
        index = build_index(make_corpus(texts), params)
        query_text = " ".join(query)
        ranking = search_topk(index, query_text, k)
        scores = reference_scores(index, query_text)
        expected = sorted((o for o, score in enumerate(scores) if score > 0.0),
                          key=lambda o: (-scores[o], index.doc_ids[o]))[:k]
        assert ranking.ordinals.tolist() == expected
        assert ranking.scores.tobytes() == np.array([scores[o] for o in expected]).tobytes()

    def test_tied_block_cut_at_k_keeps_smallest_doc_ids(self):
        texts = ["wax"] + ["wax paper"] * 11 + ["paper"]
        index = build_index(make_corpus(texts))
        hits = search_topk(index, "wax", 4)
        # d1..d11 tie; by doc_id "d10" and "d11" sort before "d2"
        assert [h.doc_id for h in hits] == ["d0", "d1", "d10", "d11"]

    def test_k_larger_than_matches(self):
        index = build_index(make_corpus(["wax", "paper", "wax paper"]))
        assert [h.doc_id for h in search_topk(index, "wax wax", 100)] == ["d0", "d2"]

    def test_one_document_corpus(self):
        index = build_index(make_corpus(["wax wax paper"]))
        hits = list(search_topk(index, "paper wax absent", 3))
        oracle = brute_force_ranking(["wax wax paper"], ["d0"], "paper wax absent")
        assert [(h.doc_id, h.rank) for h in hits] == [("d0", 1)]
        assert hits[0].score == pytest.approx(oracle[0][0], rel=1e-9)

    def test_impacts_equal_the_scalar_formula_exactly(self):
        # "river" in all 29 documents: an idf where np.log and math.log differ
        # in the last bit on some builds
        texts = [f"river basin{i} " + "columbia " * (i % 4) + "boat" * (i % 3 == 0)
                 for i in range(29)]
        corpus = make_corpus(texts)
        index = build_index(corpus, Bm25Params(k1=1.2, b=0.75))
        k1, b = 1.2, 0.75
        lengths = reference_postings(corpus.texts)[4]
        avgdl = sum(lengths) / index.doc_count
        for term, row in index.term_rows.items():
            postings = postings_of(index, term)
            df = len(postings)
            idf = math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))
            impacts = index.impacts[index.offsets[row]:index.offsets[row + 1]].tolist()
            for (ordinal, tf), impact in zip(postings, impacts):
                norm = k1 * (1.0 - b + b * lengths[ordinal] / avgdl)
                assert impact == idf * (tf * (k1 + 1.0)) / (tf + norm)
