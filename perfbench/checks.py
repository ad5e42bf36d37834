"""Output checks that do not trust the code under test.

The quality metrics are recomputed from the run and qrels files on disk, and
a few final queries are re-ranked by brute-force BM25 over the raw corpus.
Only ``iterqe.analysis.analyze`` is shared with the program: it defines the
vocabulary, which the brute force has to agree on.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter

_TOKEN_RE = re.compile(r"[a-z0-9]+")
RELEVANT_GRADE = 1  # iterqe eval's default relevance threshold
K1, B = 0.9, 0.4  # iterqe's default BM25 parameters, which the workloads use


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- TREC files ---------------------------------------------------------------

def read_run(path: str) -> dict[str, list[tuple[str, float]]]:
    run: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, _, docid, rank, score, _tag = line.split()
            ranking = run.setdefault(qid, [])
            require(int(rank) == len(ranking) + 1, f"run rank gap at {qid} {docid}")
            ranking.append((docid, float(score)))
    return run


def read_qrels(path: str) -> dict[str, dict[str, int]]:
    qrels: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, _, docid, grade = line.split()
            qrels.setdefault(qid, {})[docid] = int(grade)
    return qrels


def quality(run_path: str, qrels_path: str) -> dict[str, float]:
    """Mean AP, nDCG@10 (exponential gain) and Recall@1000 over the qrels queries."""
    run = read_run(run_path)
    qrels = read_qrels(qrels_path)
    sums = {"map": 0.0, "ndcg@10": 0.0, "recall@1000": 0.0}
    for qid, grades in qrels.items():
        ranking = [d for d, _ in run.get(qid, [])]
        relevant = {d for d, g in grades.items() if g >= RELEVANT_GRADE}
        hits, precisions = 0, 0.0
        for i, d in enumerate(ranking, 1):
            if d in relevant:
                hits += 1
                precisions += hits / i
        sums["map"] += precisions / len(relevant) if relevant else 0.0
        dcg = sum((2 ** grades.get(d, 0) - 1) / math.log2(i + 1)
                  for i, d in enumerate(ranking[:10], 1))
        ideal = sorted(grades.values(), reverse=True)[:10]
        idcg = sum((2 ** g - 1) / math.log2(i + 1) for i, g in enumerate(ideal, 1))
        sums["ndcg@10"] += dcg / idcg if idcg else 0.0
        found = len(relevant & set(ranking[:1000]))
        sums["recall@1000"] += found / len(relevant) if relevant else 0.0
    return {k: v / len(qrels) for k, v in sums.items()}


def read_means(json_path: str) -> dict[str, float]:
    """The mean of each measure that ``iterqe eval --json`` wrote."""
    with open(json_path, encoding="utf-8") as fh:
        means = json.load(fh)["means"]
    require(isinstance(means, dict), "eval output: means is not an object")
    return means


def check_quality(reported: dict[str, float], run_path: str, qrels_path: str) -> None:
    for name, value in quality(run_path, qrels_path).items():
        require(name in reported, f"eval output lacks {name}")
        require(math.isclose(reported[name], value, rel_tol=1e-9, abs_tol=1e-12),
                f"{name}: eval says {reported[name]!r}, recomputed {value!r}")


def check_trace(trace_path: str, run_path: str, query_ids: list[str],
                records_per_query: int) -> list[dict]:
    """Every query has a non-empty final ranking and the expected trace records.

    Returns the final trace record of each query, in file order.
    """
    per_query: dict[str, list[dict]] = {}
    with open(trace_path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            per_query.setdefault(record["query_id"], []).append(record)
    run = read_run(run_path)
    finals = []
    for qid in query_ids:
        records = per_query.get(qid, [])
        require(len(records) == records_per_query,
                f"{qid}: {len(records)} trace records, expected {records_per_query}")
        require(run.get(qid), f"{qid}: no final ranking in the run file")
        final = records[-1]
        require([h["doc_id"] for h in final["retrieved"]] == [d for d, _ in run[qid]],
                f"{qid}: run file differs from the final retrieval in the trace")
        finals.append(final)
    require(set(per_query) == set(query_ids), "trace holds unknown query ids")
    return finals


def check_round_trip(run_path: str, copy_path: str) -> None:
    """RunFile.read then write reproduces the run file byte for byte."""
    from iterqe.evaluate import RunFile

    RunFile.read(run_path).write(copy_path)
    require(sha256_file(run_path) == sha256_file(copy_path),
            "run file does not round-trip through RunFile.read")


# -- brute-force BM25 -----------------------------------------------------------

class BruteForceBm25:
    """Scores every passage for a query straight from the corpus text."""

    def __init__(self, corpus_path: str):
        from iterqe.analysis import analyze

        stems: dict[str, list[str]] = {}
        self.doc_ids: list[str] = []
        self.tfs: list[Counter] = []
        df: Counter = Counter()
        with open(corpus_path, encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                terms: list[str] = []
                for token in _TOKEN_RE.findall(row["contents"].lower()):
                    if token not in stems:
                        stems[token] = analyze(token)
                    terms.extend(stems[token])
                tf = Counter(terms)
                self.doc_ids.append(str(row["id"]))
                self.tfs.append(tf)
                df.update(tf.keys())
        self.lengths = [sum(tf.values()) for tf in self.tfs]
        n = len(self.doc_ids)
        self.avgdl = sum(self.lengths) / n
        self.idf = {t: math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for t, d in df.items()}
        self._analyze = analyze

    def rank(self, query: str, depth: int) -> list[tuple[str, float]]:
        counts = Counter(self._analyze(query))
        k1, b = K1, B
        scored = []
        for doc_id, tf, length in zip(self.doc_ids, self.tfs, self.lengths):
            norm = k1 * (1.0 - b + b * length / self.avgdl)
            score = 0.0
            for term, mult in counts.items():
                f = tf.get(term, 0)
                if f:
                    score += mult * self.idf[term] * (f * (k1 + 1.0)) / (f + norm)
            if score > 0.0:
                scored.append((doc_id, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:depth]


def check_ranking(expected: list[tuple[str, float]], hits, label: str) -> None:
    """Same documents in the same order; scores within 1e-9 relative.

    Two documents whose scores agree within the tolerance may swap places.
    """
    got = [(h.doc_id, h.score) for h in hits]
    require(len(got) == len(expected), f"{label}: {len(got)} hits, brute force {len(expected)}")
    expected_scores = dict(expected)
    for i, ((d_exp, s_exp), (d_got, s_got)) in enumerate(zip(expected, got), 1):
        require(math.isclose(s_exp, s_got, rel_tol=1e-9),
                f"{label}: score at rank {i} is {s_got!r}, brute force {s_exp!r}")
        if d_exp != d_got:
            require(d_got in expected_scores
                    and math.isclose(expected_scores[d_got], s_got, rel_tol=1e-9),
                    f"{label}: rank {i} holds {d_got}, brute force {d_exp}")
