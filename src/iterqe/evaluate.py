"""TREC-style evaluation: mAP, nDCG@10, Recall@1000, plus run/qrels file IO."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, count, repeat

NDCG_K = 10
RECALL_K = 1000
RELEVANCE_THRESHOLD = 1  # the least grade counted relevant for mAP and recall
# qid, doc id, rank, score, tag; the ids and the tag are arguments, never part
# of the template, because they may contain a %
RUN_LINE = "%s Q0 %s %d %.6f %s\n"


class TrecFormatError(ValueError):
    """Raised when a run or qrels file cannot be parsed."""


def is_run_field(text: str) -> bool:
    """Whether ``text`` is one field of a run file line: non-empty, no whitespace.

    Query ids, passage ids and the run name are written as such fields.
    """
    return text.split() == [text]


def run_lines(query_id: str, doc_ids, scores, tag: str) -> str:
    """One query's run lines, ranked 1, 2, ... in the order of ``doc_ids``.

    One % operation a query: no Python code runs per line.
    """
    return (RUN_LINE * len(doc_ids)) % tuple(chain.from_iterable(zip(
        repeat(query_id), doc_ids, count(1), scores, repeat(tag))))


@contextmanager
def utf8_text(path: str, error: type[Exception]):
    """The file opened as UTF-8 text; a decode error while it is read raises ``error``.

    The one rule for the corpus, query, run, qrels and config files: the message names
    the file, and a leading byte order mark is dropped, never read into the first id.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: {exc}") from None


@dataclass
class Qrels:
    """Graded relevance judgments keyed by (query_id, doc_id)."""

    judgments: dict[str, dict[str, int]] = field(default_factory=dict)

    @classmethod
    def read(cls, path: str) -> "Qrels":
        qrels = cls()
        with utf8_text(path, TrecFormatError) as fh:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                parts = line.split()
                if len(parts) != 4:
                    raise TrecFormatError(f"{path}:{line_no}: expected 4 fields, got {len(parts)}")
                qid, _, docid, grade = parts
                try:
                    g = int(grade)
                except ValueError:
                    raise TrecFormatError(f"{path}:{line_no}: grade {grade!r} is not an integer")
                if g < 0:
                    raise TrecFormatError(f"{path}:{line_no}: negative grade")
                qrels.judgments.setdefault(qid, {})[docid] = g
        return qrels


@dataclass
class RunFile:
    """Per-query ranked doc lists with scores, TREC run-file semantics."""

    rankings: dict[str, dict[str, float]] = field(default_factory=dict)
    tag: str = "iterqe"

    def add(self, query_id: str, doc_id: str, score: float) -> None:
        ranking = self.rankings.setdefault(query_id, {})
        if doc_id in ranking:
            raise ValueError(f"duplicate doc {doc_id!r} for query {query_id!r}")
        ranking[doc_id] = score

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for qid, ranking in sorted(self.rankings.items()):
                fh.write(run_lines(qid, ranking, ranking.values(), self.tag))

    @classmethod
    def read(cls, path: str) -> "RunFile":
        run = cls()
        with utf8_text(path, TrecFormatError) as fh:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                parts = line.split()
                if len(parts) != 6:
                    raise TrecFormatError(f"{path}:{line_no}: expected 6 fields, got {len(parts)}")
                qid, _, docid, _rank, score, tag = parts
                try:
                    s = float(score)
                    if s != s:  # NaN: no order among scores, so ranked() could not sort it
                        raise ValueError
                except ValueError:
                    raise TrecFormatError(f"{path}:{line_no}: score {score!r} is not a number")
                try:
                    run.add(qid, docid, s)
                except ValueError as exc:
                    raise TrecFormatError(f"{path}:{line_no}: {exc}")
                run.tag = tag
        return run

    def ranked(self) -> dict[str, list[str]]:
        """Each query's doc ids by score, descending; tied scores keep the run's order."""
        # a stable sort; trec_eval would break a tie by docno instead
        return {qid: sorted(scores, key=scores.__getitem__, reverse=True)
                for qid, scores in self.rankings.items()}


def ndcg_at_k(ranking: list[str], grades: dict[str, int], k: int) -> float:
    """Exponential-gain nDCG over the top k; 0 when nothing is relevant."""
    if k < 1:
        raise ValueError("k must be >= 1")
    dcg = 0.0
    for i, doc_id in enumerate(ranking[:k], 1):
        g = grades.get(doc_id, 0)
        dcg += (2**g - 1) / math.log2(i + 1)
    ideal = sorted(grades.values(), reverse=True)[:k]
    idcg = sum((2**g - 1) / math.log2(i + 1) for i, g in enumerate(ideal, 1))
    return dcg / idcg if idcg > 0 else 0.0


def average_precision(ranking: list[str], relevant: set[str]) -> float:
    """Binary AP normalized by the total number of judged-relevant docs."""
    if not relevant:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for i, doc_id in enumerate(ranking, 1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / i
    return precision_sum / len(relevant)


def recall_at_k(ranking: list[str], relevant: set[str], k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        return 0.0
    return len(relevant & set(ranking[:k])) / len(relevant)


@dataclass
class EvalResult:
    per_query: dict[str, dict[str, float]]
    means: dict[str, float]


def evaluate_run(rankings: dict[str, list[str]], qrels: Qrels,
                 binary_threshold: int = RELEVANCE_THRESHOLD) -> EvalResult:
    """Per-query and mean mAP / nDCG@10 / Recall@1000 over the qrels query set.

    ``rankings`` maps a query id to its doc ids, best first. An empty ranking
    counts as absent, as a query with no hits has no line in a run file.
    """
    query_ids = sorted(qrels.judgments)
    if not any(rankings.get(qid) for qid in query_ids):
        raise ValueError("run and qrels share no query ids")
    per_query: dict[str, dict[str, float]] = {}
    for qid in query_ids:
        grades = qrels.judgments[qid]
        relevant = {d for d, g in grades.items() if g >= binary_threshold}
        ranking = rankings.get(qid, ())
        per_query[qid] = {
            "map": average_precision(ranking, relevant),
            f"ndcg@{NDCG_K}": ndcg_at_k(ranking, grades, NDCG_K),
            f"recall@{RECALL_K}": recall_at_k(ranking, relevant, RECALL_K),
        }
    metrics = ["map", f"ndcg@{NDCG_K}", f"recall@{RECALL_K}"]
    means = {m: sum(per_query[q][m] for q in query_ids) / len(query_ids) for m in metrics}
    return EvalResult(per_query=per_query, means=means)
