"""Document collection ingestion and storage."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


class CorpusFormatError(ValueError):
    """Raised when a corpus file cannot be parsed."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


@dataclass
class Corpus:
    """Immutable-after-ingestion document collection with id lookup."""

    docs: list[Document] = field(default_factory=list)
    _by_id: dict[str, Document] = field(default_factory=dict, repr=False)

    @property
    def doc_count(self) -> int:
        return len(self.docs)

    def get(self, doc_id: str) -> Document:
        return self._by_id[doc_id]

    def __iter__(self):
        return iter(self.docs)

    def _add(self, doc: Document, line_no: int) -> None:
        if not doc.doc_id:
            raise CorpusFormatError(f"line {line_no}: empty document id")
        if doc.doc_id in self._by_id:
            raise CorpusFormatError(
                f"line {line_no}: duplicate document id {doc.doc_id!r}"
            )
        self.docs.append(doc)
        self._by_id[doc.doc_id] = doc


def ingest_corpus(path: str, fmt: str = "jsonl") -> Corpus:
    """Load a corpus file; jsonl rows need "id"/"contents", tsv rows are id<TAB>text."""
    if fmt not in ("jsonl", "tsv"):
        raise ValueError(f"unknown corpus format {fmt!r}")
    corpus = Corpus()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            if fmt == "jsonl":
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusFormatError(
                        f"line {line_no}: invalid JSON ({exc.msg})"
                    ) from exc
                if not isinstance(record, dict) or "id" not in record or "contents" not in record:
                    raise CorpusFormatError(
                        f'line {line_no}: expected object with "id" and "contents"'
                    )
                doc = Document(str(record["id"]), str(record["contents"]))
            else:
                parts = line.rstrip("\n").split("\t", 1)
                if len(parts) != 2:
                    raise CorpusFormatError(f"line {line_no}: expected id<TAB>text")
                doc = Document(parts[0], parts[1])
            corpus._add(doc, line_no)
    return corpus


def truncate_text(text: str, max_tokens: int) -> str:
    """Keep the first max_tokens whitespace-delimited words, space-joined."""
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    return " ".join(text.split()[:max_tokens])
