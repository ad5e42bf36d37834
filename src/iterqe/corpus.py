"""Document collection ingestion and storage."""

from __future__ import annotations

import json

import orjson

from .evaluate import is_run_field, utf8_text


FORMATS = ("jsonl", "tsv")  # the first is the default


class CorpusFormatError(ValueError):
    """Raised when a corpus file cannot be parsed."""


class Corpus:
    """A document collection as two columns, ``doc_ids`` and ``texts``, sorted by id.

    A passage is addressed by its ordinal, its position in both lists: the rank
    of its id, whatever order the columns came in. An index built from the
    corpus numbers passages the same way, so a ranking's ordinals read the texts.
    """

    __slots__ = ("doc_ids", "texts")

    def __init__(self, doc_ids: list[str], texts: list[str]):
        order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
        self.doc_ids = [doc_ids[i] for i in order]
        self.texts = [texts[i] for i in order]

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)


def _jsonl_rows(lines):
    """``(line_no, doc_id, text)`` of every non-blank JSONL line.

    orjson parses each line; its record is used only when ``"id"`` and
    ``"contents"`` are both strings. Any other line is parsed again with
    ``json``, which decides as it always has: orjson reads big integers as
    floats (so ``str`` of the id would differ) and rejects ``NaN``,
    ``1e400`` and lone-surrogate escapes, all of which ``json`` accepts.
    """
    loads = orjson.loads
    for line_no, line in enumerate(lines, 1):
        try:
            record = loads(line)
        except orjson.JSONDecodeError:
            record = None
        if type(record) is dict:
            doc_id = record.get("id")
            text = record.get("contents")
            if type(doc_id) is str and type(text) is str:
                yield line_no, doc_id, text
                continue
        if line.strip():
            yield line_no, *_json_row(line, line_no)


def _json_row(line: str, line_no: int) -> tuple[str, str]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
    except RecursionError:
        # json's decoder recurses once per level of nesting
        raise CorpusFormatError(f"line {line_no}: invalid JSON (nested too deeply)") from None
    if not isinstance(record, dict) or "id" not in record or "contents" not in record:
        raise CorpusFormatError(f'line {line_no}: expected object with "id" and "contents"')
    return str(record["id"]), str(record["contents"])


def _tsv_rows(lines):
    """``(line_no, doc_id, text)`` of every non-blank ``id<TAB>text`` line."""
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t", 1)
        if len(parts) != 2:
            raise CorpusFormatError(f"line {line_no}: expected id<TAB>text")
        yield line_no, parts[0], parts[1]


def ingest_corpus(path: str, fmt: str = FORMATS[0]) -> Corpus:
    """Load a corpus file; jsonl rows need "id"/"contents", tsv rows are id<TAB>text."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown corpus format {fmt!r}")
    doc_ids: list[str] = []
    texts: list[str] = []
    seen: set[str] = set()  # dropped on return: no id map outlives ingestion
    with utf8_text(path, CorpusFormatError) as fh:
        try:
            for line_no, doc_id, text in (_jsonl_rows if fmt == "jsonl" else _tsv_rows)(fh):
                # an id is a field of the run file's lines
                if not is_run_field(doc_id):
                    if not doc_id:
                        raise CorpusFormatError(f"line {line_no}: empty document id")
                    raise CorpusFormatError(
                        f"line {line_no}: document id {doc_id!r} contains whitespace")
                if doc_id in seen:
                    raise CorpusFormatError(f"line {line_no}: duplicate document id {doc_id!r}")
                seen.add(doc_id)
                doc_ids.append(doc_id)
                texts.append(text)
        except CorpusFormatError as exc:  # utf8_text names the file in a decode error
            raise CorpusFormatError(f"{path}: {exc}") from None
    return Corpus(doc_ids, texts)


def truncate_text(text: str, max_tokens: int) -> str:
    """Keep the first max_tokens whitespace-delimited words, space-joined."""
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    return " ".join(text.split()[:max_tokens])
