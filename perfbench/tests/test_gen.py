import hashlib
import json
import os

import gen
from iterqe.analysis import analyze

SMALL = gen.Sizes(passages=400, vocabulary=2000, queries=6)


def _digests(inputs: gen.Inputs) -> list[str]:
    paths = (inputs.corpus_path, inputs.queries_path, inputs.qrels_path)
    return [hashlib.sha256(open(p, "rb").read()).hexdigest() for p in paths]


def test_same_seed_gives_identical_files(tmp_path):
    a = gen.generate(str(tmp_path / "a"), 7, SMALL)
    b = gen.generate(str(tmp_path / "b"), 7, SMALL)
    c = gen.generate(str(tmp_path / "c"), 8, SMALL)
    assert _digests(a) == _digests(b)
    assert _digests(a) != _digests(c)


def test_sizes_and_planted_judgments(tmp_path):
    inputs = gen.generate(str(tmp_path), 3, SMALL)
    with open(inputs.corpus_path) as fh:
        docs = {row["id"]: row["contents"] for row in map(json.loads, fh)}
    with open(inputs.queries_path) as fh:
        queries = dict(line.rstrip("\n").split("\t") for line in fh)
    qrels = {}
    with open(inputs.qrels_path) as fh:
        for line in fh:
            qid, _, docid, grade = line.split()
            qrels.setdefault(qid, {})[docid] = int(grade)

    assert len(docs) == SMALL.passages
    assert list(queries) == inputs.query_ids and len(queries) == SMALL.queries
    assert inputs.corpus_bytes == os.path.getsize(inputs.corpus_path)
    for qid, text in queries.items():
        assert len(text.split()) == SMALL.query_words
        assert sorted(qrels[qid].values(), reverse=True) == list(gen.GRADE_PLAN)
        query_terms = set(analyze(text))
        for docid, grade in qrels[qid].items():
            shared = query_terms & set(analyze(docs[docid]))
            assert len(shared) >= (SMALL.query_words if grade == 3 else 1)


def test_suffixes_reach_the_stemmer():
    vocab = gen._vocabulary(gen.np.random.default_rng(0), 500)
    stemmed = sum(1 for w in vocab if analyze(w) != [w])
    assert stemmed > len(vocab) // 3
