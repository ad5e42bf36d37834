"""Inverted index with Okapi BM25 scoring (Lucene-style idf, k1=0.9, b=0.4)."""

from __future__ import annotations

import gzip
import json
import math
from dataclasses import dataclass, field

from .analysis import analyze
from .corpus import Corpus

INDEX_FORMAT = "iterqe-index"
INDEX_VERSION = 1


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self):
        if self.k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0 <= self.b <= 1:
            raise ValueError("b must lie in [0, 1]")


@dataclass(frozen=True)
class ScoredHit:
    doc_id: str
    score: float
    rank: int


@dataclass
class PostingIndex:
    """term -> sorted (doc_ordinal, tf) postings plus the length statistics BM25 needs."""

    term_postings: dict[str, list[tuple[int, int]]]
    doc_lengths: list[int]
    doc_ids: list[str]
    params: Bm25Params = field(default_factory=Bm25Params)

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @property
    def avg_doc_length(self) -> float:
        return sum(self.doc_lengths) / self.doc_count

    def idf(self, term: str) -> float:
        df = len(self.term_postings.get(term, ()))
        n = self.doc_count
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def save(self, path: str) -> None:
        payload = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "params": {"k1": self.params.k1, "b": self.params.b},
            "doc_ids": self.doc_ids,
            "doc_lengths": self.doc_lengths,
            "term_postings": {t: [list(p) for p in ps] for t, ps in self.term_postings.items()},
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path: str) -> "PostingIndex":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("format") != INDEX_FORMAT:
            raise ValueError(f"{path}: not an index file")
        if payload.get("version") != INDEX_VERSION:
            raise ValueError(f"{path}: unsupported index version {payload.get('version')}")
        return cls(
            term_postings={t: [tuple(p) for p in ps] for t, ps in payload["term_postings"].items()},
            doc_lengths=payload["doc_lengths"],
            doc_ids=payload["doc_ids"],
            params=Bm25Params(**payload["params"]),
        )


def build_index(corpus: Corpus, params: Bm25Params | None = None) -> PostingIndex:
    """Analyze every document and build sorted postings."""
    if corpus.doc_count == 0:
        raise ValueError("cannot index an empty corpus")
    term_postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    doc_ids: list[str] = []
    for ordinal, doc in enumerate(corpus):
        terms = analyze(doc.text)
        doc_lengths.append(len(terms))
        doc_ids.append(doc.doc_id)
        counts: dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        # ordinals increase monotonically, so appends keep postings sorted
        for t, tf in counts.items():
            term_postings.setdefault(t, []).append((ordinal, tf))
    return PostingIndex(term_postings, doc_lengths, doc_ids, params or Bm25Params())


def search_topk(index: PostingIndex, query_text: str, k: int) -> list[ScoredHit]:
    """Top-k BM25 hits, score descending, ties by doc_id ascending; zero scores dropped."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query_terms = analyze(query_text)
    if not query_terms:
        return []
    k1, b = index.params.k1, index.params.b
    avgdl = index.avg_doc_length or 1.0
    accum: dict[int, float] = {}
    term_counts: dict[str, int] = {}
    for t in query_terms:
        term_counts[t] = term_counts.get(t, 0) + 1
    for term, mult in term_counts.items():
        postings = index.term_postings.get(term)
        if not postings:
            continue
        idf = index.idf(term)
        for ordinal, tf in postings:
            norm = k1 * (1.0 - b + b * index.doc_lengths[ordinal] / avgdl)
            contrib = idf * (tf * (k1 + 1.0)) / (tf + norm)
            accum[ordinal] = accum.get(ordinal, 0.0) + mult * contrib
    scored = [
        (score, index.doc_ids[ordinal])
        for ordinal, score in accum.items()
        if score > 0.0
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [
        ScoredHit(doc_id=doc_id, score=score, rank=i)
        for i, (score, doc_id) in enumerate(scored[:k], 1)
    ]
