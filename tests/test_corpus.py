import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from oracles import reference_ingest_jsonl, reference_postings

from iterqe.corpus import Corpus, CorpusFormatError, ingest_corpus, truncate_text
from iterqe.index import build_index


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class TestIngest:
    def test_jsonl_two_docs(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": "d1", "contents": "alpha"}, {"id": "d2", "contents": "beta"}])
        corpus = ingest_corpus(str(path), "jsonl")
        assert corpus.doc_count == 2
        assert corpus.doc_ids == ["d1", "d2"]
        assert corpus.texts == ["alpha", "beta"]

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    def test_passages_in_doc_id_order(self, tmp_path, fmt):
        # d10 sorts between d1 and d2, whatever the lines' order
        path = tmp_path / f"corpus.{fmt}"
        docs = [("d2", "two"), ("d10", "ten"), ("d1", "one")]
        if fmt == "jsonl":
            write_jsonl(path, [{"id": d, "contents": t} for d, t in docs])
        else:
            path.write_text("".join(f"{d}\t{t}\n" for d, t in docs))
        corpus = ingest_corpus(str(path), fmt)
        assert corpus.doc_ids == ["d1", "d10", "d2"]
        assert corpus.texts == ["one", "ten", "two"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert ingest_corpus(str(path), "jsonl").doc_count == 0

    def test_duplicate_id_names_offender(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, [
            {"id": "d1", "contents": "a"},
            {"id": "d2", "contents": "b"},
            {"id": "d1", "contents": "c"},
        ])
        with pytest.raises(CorpusFormatError, match="'d1'"):
            ingest_corpus(str(path), "jsonl")

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "d1", "contents": "a"}\nnot json\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            ingest_corpus(str(path), "jsonl")

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "d1"}\n')
        with pytest.raises(CorpusFormatError, match="line 1"):
            ingest_corpus(str(path), "jsonl")

    def test_tsv(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("d1\talpha beta\nd2\tgamma\n")
        corpus = ingest_corpus(str(path), "tsv")
        assert corpus.doc_count == 2
        assert corpus.texts[1] == "gamma"

    def test_tsv_bad_row(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d1 alpha\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            ingest_corpus(str(path), "tsv")

    @pytest.mark.parametrize("fmt, line", [("jsonl", '{"id": "d1", "contents": "a"}'),
                                           ("tsv", "d1\ta")])
    def test_leading_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path, fmt, line):
        path = tmp_path / f"c.{fmt}"
        path.write_text(f"\ufeff{line}\n", encoding="utf-8")
        assert ingest_corpus(str(path), fmt).doc_ids == ["d1"]

    def test_jsonl_roundtrip_preserves_text(self, tmp_path):
        text = 'weird  spacing\tand "quotes" é'
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "x", "contents": text}])
        assert ingest_corpus(str(path), "jsonl").texts == [text]

    def test_empty_text_is_valid(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "x", "contents": ""}])
        assert ingest_corpus(str(path), "jsonl").texts == [""]


# JSON values on which orjson and json disagree or that are not strings:
# big integers (orjson reads them as floats), NaN and 1e400 (orjson rejects
# them), lone-surrogate escapes, and nested values
ODD_VALUES = ["123456789012345678901234567890", "-0", "1.5", "1e400", "NaN", "-Infinity",
              "true", "null", '"\\ud800"', '"a\\udfffb"', '"\\ud83d\\ude00"',
              '[1, {"id": "x"}]', '{"contents": "nested"}', '""']
JSON_VALUES = st.one_of(
    st.sampled_from(["d1", "d2", "d3", "", " "]).map(json.dumps),
    st.text(max_size=6).map(lambda t: json.dumps(t, ensure_ascii=False)),
    st.integers(-3, 3).map(json.dumps),
    st.sampled_from(ODD_VALUES),
)
# objects built from key/value pairs, so that keys may repeat or be missing
OBJECTS = st.lists(
    st.tuples(st.sampled_from(["id", "contents", "other"]), JSON_VALUES), max_size=4,
).map(lambda pairs: "{" + ", ".join(f'"{k}": {v}' for k, v in pairs) + "}")
LINES = st.one_of(
    OBJECTS, OBJECTS, OBJECTS,
    st.sampled_from(["", " ", "\t", "not json", "{", "[1, 2]", '"d1"', "3", "null",
                     '{"id": "d9", "contents": }', '\ufeff{"id": "d9", "contents": "x"}']),
    st.text(max_size=8).filter(lambda t: "\n" not in t and "\r" not in t),
)


class TestJsonlMatchesReference:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(LINES, max_size=8))
    @example(lines=['{"id": 123456789012345678901234567890, "contents": "x"}'])
    @example(lines=['{"id": "d1", "contents": "a"}', '{"id": 1e400, "contents": NaN}',
                    '{"id": "\\ud800", "id": "d2", "contents": "b"}'])
    def test_same_columns_or_same_error(self, tmp_path, lines):
        path = tmp_path / "c.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        try:
            expected = reference_ingest_jsonl(str(path))
        except ValueError as exc:
            with pytest.raises(CorpusFormatError) as info:
                ingest_corpus(str(path), "jsonl")
            assert str(info.value) == f"{path}: {exc}"
        else:
            corpus = ingest_corpus(str(path), "jsonl")
            assert (corpus.doc_ids, corpus.texts) == expected


def nested_line(doc_id, depth):
    """A JSONL record whose extra field is a list nested ``depth`` deep."""
    return f'{{"id": {doc_id}, "contents": "b", "x": {"[" * depth}{"]" * depth}}}'


class TestDeeplyNestedLine:
    # A line with a non-string id is parsed again with json, whose decoder
    # recurses once per level: 5000 levels are past Python's recursion limit.
    def test_too_deep_for_json_is_a_format_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1", "contents": "a"}\n' + nested_line("5", 5000) + "\n")
        with pytest.raises(CorpusFormatError) as info:
            ingest_corpus(str(path), "jsonl")
        assert str(info.value) == f"{path}: line 2: invalid JSON (nested too deeply)"
        with pytest.raises(ValueError) as reference:
            reference_ingest_jsonl(str(path))
        assert f"{path}: {reference.value}" == str(info.value)

    def test_deep_line_with_string_fields_is_read(self, tmp_path):
        # orjson alone decides such a line, and it has no depth limit
        path = tmp_path / "c.jsonl"
        path.write_text(nested_line('"d5"', 5000) + "\n")
        corpus = ingest_corpus(str(path), "jsonl")
        assert (corpus.doc_ids, corpus.texts) == (["d5"], ["b"])

    @pytest.mark.parametrize("doc_id", ["5", '"d5"'])
    def test_shallow_nesting_is_read(self, tmp_path, doc_id):
        path = tmp_path / "c.jsonl"
        path.write_text(nested_line(doc_id, 50) + "\n")
        corpus = ingest_corpus(str(path), "jsonl")
        assert (corpus.doc_ids, corpus.texts) == reference_ingest_jsonl(str(path))
        assert corpus.texts == ["b"]


# a blank line before the offender, so that its line number is not its ordinal + 1
BAD_ID_FILES = [
    ("jsonl", ['{"id": "d1", "contents": "a"}', "", '{"id": "d1", "contents": "b"}'],
     "line 3: duplicate document id 'd1'"),
    ("jsonl", ['{"id": "d1", "contents": "a"}', "", '{"id": "", "contents": "c"}'],
     "line 3: empty document id"),
    ("tsv", ["d1\ta", "", "d1\tb"], "line 3: duplicate document id 'd1'"),
    ("tsv", ["d1\ta", "  ", "\tc"], "line 3: empty document id"),
]


class TestColumns:
    def test_ingest_rejects_empty_and_duplicate_ids_by_line(self, tmp_path):
        for fmt, lines, message in BAD_ID_FILES:
            path = tmp_path / f"c.{fmt}"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            with pytest.raises(CorpusFormatError) as info:
                ingest_corpus(str(path), fmt)
            assert str(info.value) == f"{path}: {message}"

    # a run file splits its lines at whitespace, so such an id would break it
    @pytest.mark.parametrize("fmt, line, doc_id", [
        ("tsv", "d 1\tzork flim", "d 1"),
        ("tsv", "d\u20031\tzork flim", "d\u20031"),
        ("tsv", " \tzork flim", " "),
        ("jsonl", '{"id": "d 1", "contents": "zork flim"}', "d 1"),
        ("jsonl", '{"id": "d\\n1", "contents": "zork flim"}', "d\n1"),
        ("jsonl", '{"id": [1, 2], "contents": "zork flim"}', "[1, 2]"),
    ])
    def test_ingest_rejects_an_id_with_whitespace(self, tmp_path, fmt, line, doc_id):
        path = tmp_path / f"c.{fmt}"
        first = "d0\ta" if fmt == "tsv" else '{"id": "d0", "contents": "a"}'
        path.write_text(f"{first}\n\n{line}\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as info:
            ingest_corpus(str(path), fmt)
        assert str(info.value) == f"{path}: line 3: document id {doc_id!r} contains whitespace"

    def test_index_equals_one_built_from_documents(self, tmp_path):
        rng = np.random.default_rng(7)
        words = ["alpha", "beta", "gamma", "delta", "the", "of", "river", "boat"]
        doc_ids = [f"p{i}" for i in range(2500)]
        texts = [" ".join(rng.choice(words, size=rng.integers(0, 9))) for _ in doc_ids]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": d, "contents": t} for d, t in zip(doc_ids, texts)])
        by_hand = Corpus(list(doc_ids), texts)
        got, expected = build_index(ingest_corpus(str(path))), build_index(by_hand)
        assert got.term_rows == expected.term_rows
        assert got.doc_ids == expected.doc_ids == sorted(doc_ids)
        for name in ("offsets", "doc_ordinals", "tfs", "impacts"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
        lengths = reference_postings(by_hand.texts)[4]
        assert got.avg_doc_length == expected.avg_doc_length == sum(lengths) / len(lengths)


class TestTruncate:
    def test_cuts_to_limit(self):
        assert truncate_text("a b c d", 2) == "a b"

    def test_under_limit_unchanged(self):
        assert truncate_text("a b", 5) == "a b"

    def test_empty(self):
        assert truncate_text("", 128) == ""

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            truncate_text("a", 0)

    @given(st.text(), st.integers(min_value=1, max_value=50))
    def test_idempotent(self, text, k):
        once = truncate_text(text, k)
        assert truncate_text(once, k) == once

    @given(st.text(), st.integers(min_value=1, max_value=50))
    def test_never_exceeds_limit(self, text, k):
        assert len(truncate_text(text, k).split()) <= k
