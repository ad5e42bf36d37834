"""Independent reference implementations used as test oracles.

These deliberately share no code with the package internals they check:
ranking is recomputed document-by-document from the scoring definition, and
metrics are recomputed from the on-disk TREC files.
"""

import json
import math
import random
import re
from collections import Counter

import numpy as np

from iterqe.analysis import STOPWORDS, analyze


def brute_force_ranking(texts, doc_ids, query, k1=0.9, b=0.4):
    """Score every document straight from the BM25 definition, no index."""
    analyzed = [analyze(t) for t in texts]
    n = len(texts)
    lengths = [len(a) for a in analyzed]
    avgdl = (sum(lengths) / n) or 1.0
    df = Counter()
    for terms in analyzed:
        df.update(set(terms))
    query_terms = analyze(query)
    scored = []
    for i, terms in enumerate(analyzed):
        tf = Counter(terms)
        score = 0.0
        for q in query_terms:
            if tf[q] == 0:
                continue
            idf = math.log(1 + (n - df[q] + 0.5) / (df[q] + 0.5))
            score += idf * tf[q] * (k1 + 1) / (tf[q] + k1 * (1 - b + b * lengths[i] / avgdl))
        if score > 0:
            scored.append((score, doc_ids[i]))
    scored.sort(key=lambda p: (-p[0], p[1]))
    return scored


def reference_scores(index, query_text):
    """Every document's BM25 score in ``index``, summed one posting at a time.

    For each distinct query term, in order of first occurrence, and for each
    of its postings, ``multiplicity * impact`` is added to the document's
    score, a Python float that starts at 0.0. This fixes the order of every
    addition, so the program's scores must equal these bit for bit. Returns
    a list with one score per document ordinal.
    """
    counts = {}
    for term in analyze(query_text):
        counts[term] = counts.get(term, 0) + 1
    scores = [0.0] * index.doc_count
    ordinals, impacts = index.doc_ordinals.tolist(), index.impacts.tolist()
    for term, mult in counts.items():
        row = index.term_rows.get(term)
        if row is None:
            continue
        for p in range(int(index.offsets[row]), int(index.offsets[row + 1])):
            scores[ordinals[p]] += mult * impacts[p]
    return scores


def reference_postings(texts):
    """CSR postings built one document at a time, with no numpy.

    Returns ``(terms, offsets, doc_ordinals, tfs, doc_lengths)`` as lists:
    terms in order of first occurrence in the corpus, and each term's
    postings, ``(ordinal, tf)`` by ascending ordinal, concatenated by term.
    """
    rows = {}
    postings = []
    doc_lengths = []
    for ordinal, text in enumerate(texts):
        terms = analyze(text)
        doc_lengths.append(len(terms))
        for term, tf in Counter(terms).items():
            if term not in rows:
                rows[term] = len(postings)
                postings.append([])
            postings[rows[term]].append((ordinal, tf))
    offsets = [0]
    for plist in postings:
        offsets.append(offsets[-1] + len(plist))
    doc_ordinals = [ordinal for plist in postings for ordinal, _ in plist]
    tfs = [tf for plist in postings for _, tf in plist]
    return list(rows), offsets, doc_ordinals, tfs, doc_lengths


def reference_gap_planes(doc_ordinals, counts, width=1):
    """The byte planes of an index file's doc gaps, one posting at a time.

    Each posting list's ordinals become gaps, the first counted from 0; each
    gap is taken modulo ``256 ** width`` (a negative gap wraps as it would in
    an unsigned dtype of that width), and row ``k`` holds byte ``k`` of every
    gap, low byte first.
    """
    gaps, start = [], 0
    for count in counts:
        previous = 0
        for ordinal in doc_ordinals[start:start + count]:
            gaps.append((ordinal - previous) % 256 ** width)
            previous = ordinal
        start += count
    return np.array([[gap >> 8 * k & 0xFF for gap in gaps] for k in range(width)],
                    dtype=np.uint8).reshape(width, len(gaps))


def rewrite_index_version(path, version):
    """Rewrite a saved index file as one of format ``version``, and drop its tfs.

    A file of another version must be refused for its version, not for the
    arrays that the current version reads and it lacks.
    """
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files if name != "tfs"}
    arrays["version"] = np.array([version], dtype=np.int64)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def reference_echo_answer(query, passages, seed, n_terms):
    """The echo_terms mock's answer, computed one token at a time.

    The ``n_terms`` most frequent non-stopword tokens of the passages, by
    count descending and then token ascending, shuffled by a generator
    seeded from the seed, the query and the number of passages; the query
    itself when the passages have no such token.
    """
    counts = Counter()
    for passage in passages:
        for tok in re.findall(r"[a-z0-9]+", passage.lower()):
            if tok not in STOPWORDS:
                counts[tok] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    terms = [t for t, _ in ranked[:n_terms]]
    if not terms:
        return query
    rng = random.Random((seed, query, len(passages)).__repr__())
    rng.shuffle(terms)
    return " ".join(terms)


def reference_ingest_jsonl(path):
    """``(doc_ids, texts)`` of a JSONL corpus, parsed one line at a time with ``json``,
    in doc-id order.

    Raises ``ValueError`` with the message the program gives for the first
    bad line: invalid JSON, a record that is not an object with ``"id"`` and
    ``"contents"``, an empty id, an id with whitespace in it or a repeated
    id. Non-string ids and contents are read as their ``str``.
    """
    doc_ids, texts, seen = [], [], set()
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_no}: invalid JSON ({exc.msg})")
            except RecursionError:
                raise ValueError(f"line {line_no}: invalid JSON (nested too deeply)")
            if not isinstance(record, dict) or "id" not in record or "contents" not in record:
                raise ValueError(f'line {line_no}: expected object with "id" and "contents"')
            doc_id, text = str(record["id"]), str(record["contents"])
            if not doc_id:
                raise ValueError(f"line {line_no}: empty document id")
            if any(c.isspace() for c in doc_id):
                raise ValueError(f"line {line_no}: document id {doc_id!r} contains whitespace")
            if doc_id in seen:
                raise ValueError(f"line {line_no}: duplicate document id {doc_id!r}")
            seen.add(doc_id)
            doc_ids.append(doc_id)
            texts.append(text)
    # the ids are unique, so the pairs sort by id
    pairs = sorted(zip(doc_ids, texts))
    return [d for d, _ in pairs], [t for _, t in pairs]


def assert_same_ranking(hits, oracle, k, rel=1e-9):
    """Check the program's top-k ``hits`` against the whole ``brute_force_ranking``.

    Rank by rank the scores agree within ``rel``, and so does each hit's
    score with the oracle's score of the same document. Two documents whose
    oracle scores agree within ``rel`` may therefore swap places, also across
    the cut at k: summing in another order can move a score by an ulp.
    Documents that the program scores exactly equal must come in doc_id order.
    """
    got = [(h.doc_id, h.score) for h in hits]
    assert len(got) == min(k, len(oracle)), (got, oracle)
    oracle_scores = {doc_id: score for score, doc_id in oracle}
    assert len(set(oracle_scores).intersection(d for d, _ in got)) == len(got), (got, oracle)
    for rank, ((doc_id, score), (expected, _)) in enumerate(zip(got, oracle), 1):
        assert math.isclose(score, expected, rel_tol=rel), (rank, got, oracle)
        assert math.isclose(score, oracle_scores[doc_id], rel_tol=rel), (rank, got, oracle)
    for (d1, s1), (d2, s2) in zip(got, got[1:]):
        assert s1 > s2 or (s1 == s2 and d1 < d2), (got, oracle)


def reference_eval(run_path, qrels_path, threshold=1):
    """trec_eval-style mAP / nDCG@10 / Recall@1000 recomputed from the files."""
    judgments = {}
    with open(qrels_path) as fh:
        for line in fh:
            qid, _, docid, grade = line.split()
            judgments.setdefault(qid, {})[docid] = int(grade)
    rankings = {}
    with open(run_path) as fh:
        for line in fh:
            qid, _, docid, _rank, score, _tag = line.split()
            rankings.setdefault(qid, []).append((float(score), docid))
    out = {}
    for qid, grades in judgments.items():
        # trec_eval orders by score, descending
        docs = [d for s, d in sorted(rankings.get(qid, []), key=lambda p: (-p[0], p[1]))]
        rel = {d for d, g in grades.items() if g >= threshold}
        num_hits, ap_sum = 0, 0.0
        for i, d in enumerate(docs, 1):
            if d in rel:
                num_hits += 1
                ap_sum += num_hits / i
        ap = ap_sum / len(rel) if rel else 0.0
        dcg = sum(
            (2 ** grades.get(d, 0) - 1) / math.log2(i + 1)
            for i, d in enumerate(docs[:10], 1)
        )
        ideal = sorted(grades.values(), reverse=True)[:10]
        idcg = sum((2 ** g - 1) / math.log2(i + 1) for i, g in enumerate(ideal, 1))
        ndcg = dcg / idcg if idcg > 0 else 0.0
        recall = len(rel & set(docs[:1000])) / len(rel) if rel else 0.0
        out[qid] = {"map": ap, "ndcg@10": ndcg, "recall@1000": recall}
    means = {
        m: sum(row[m] for row in out.values()) / len(out)
        for m in ("map", "ndcg@10", "recall@1000")
    }
    return out, means
