"""Metric tests, checked against the independent reference scorer in oracles.py."""

import math
import random

import pytest
from oracles import reference_eval

from iterqe.evaluate import (
    Qrels,
    RunFile,
    TrecFormatError,
    average_precision,
    evaluate_run,
    ndcg_at_k,
    recall_at_k,
    run_lines,
)


def random_run_and_qrels(rng, n_queries, depth):
    qrels = Qrels()
    run = RunFile()
    doc_pool = [f"doc{i}" for i in range(depth * 2)]
    for q in range(n_queries):
        qid = f"q{q}"
        judged = rng.sample(doc_pool, rng.randint(1, depth))
        for d in judged:
            qrels.judgments.setdefault(qid, {})[d] = rng.randint(0, 3)
        retrieved = rng.sample(doc_pool, rng.randint(1, depth))
        # distinct scores keep ordering unambiguous between implementations
        score = 100.0
        for d in retrieved:
            run.add(qid, d, score)
            score -= rng.random() + 0.01
    return run, qrels


# -- unit examples ----------------------------------------------------------

class TestNdcg:
    def test_ideal_ordering_is_one(self):
        grades = {"a": 3, "b": 2, "c": 1}
        assert ndcg_at_k(["a", "b", "c"], grades, 10) == pytest.approx(1.0)

    def test_no_relevant_is_zero(self):
        assert ndcg_at_k(["a", "b"], {}, 10) == 0.0

    def test_two_doc_example(self):
        # relevant doc at rank 2: (1/log2(3)) / (1/log2(2))
        value = ndcg_at_k(["d1", "d2"], {"d1": 0, "d2": 1}, 2)
        assert value == pytest.approx(1 / math.log2(3), abs=1e-4)
        assert value == pytest.approx(0.6309, abs=1e-4)

    def test_below_k_permutation_invariant(self):
        grades = {"a": 2, "b": 1}
        base = ndcg_at_k(["a", "b", "x", "y"], grades, 2)
        assert ndcg_at_k(["a", "b", "y", "x"], grades, 2) == base


class TestAveragePrecision:
    def test_perfect(self):
        assert average_precision(["a", "b", "x"], {"a", "b"}) == 1.0

    def test_normalizes_by_total_relevant(self):
        # one of two relevant docs found, at rank 2
        assert average_precision(["x", "a"], {"a", "b"}) == pytest.approx(0.25)

    def test_no_relevant(self):
        assert average_precision(["x"], set()) == 0.0

    def test_trailing_irrelevant_never_helps(self):
        base = average_precision(["a", "x"], {"a", "b"})
        assert average_precision(["a", "x", "y"], {"a", "b"}) <= base


class TestRecall:
    def test_all_found(self):
        assert recall_at_k(["a", "b"], {"a", "b"}, 10) == 1.0

    def test_partial(self):
        assert recall_at_k(["a", "x", "y"], {"a", "b", "c", "d"}, 3) == 0.25

    def test_empty_ranking(self):
        assert recall_at_k([], {"a"}, 10) == 0.0

    def test_relevant_at_exactly_rank_k_counts(self):
        assert recall_at_k(["x", "y", "a", "b"], {"a", "b"}, 3) == 0.5


class TestEvaluateRun:
    def test_ideal_run(self):
        qrels = Qrels({"q1": {"a": 2, "b": 1}})
        result = evaluate_run({"q1": ["a", "b"]}, qrels)
        assert result.means["ndcg@10"] == pytest.approx(1.0)
        assert result.means["map"] == pytest.approx(1.0)

    def test_mean_over_queries(self):
        qrels = Qrels({"q1": {"a": 1}, "q2": {"b": 1}})
        # AP 1.0 and AP 0.0
        assert evaluate_run({"q1": ["a"], "q2": ["x"]}, qrels).means["map"] == pytest.approx(0.5)

    def test_missing_query_scores_zero(self):
        qrels = Qrels({"q1": {"a": 1}, "q2": {"b": 1}})
        result = evaluate_run({"q1": ["a"]}, qrels)
        assert result.per_query["q2"] == {"map": 0.0, "ndcg@10": 0.0, "recall@1000": 0.0}

    def test_disjoint_queries_error(self):
        qrels = Qrels({"q1": {"a": 1}})
        with pytest.raises(ValueError, match="share no query"):
            evaluate_run({"q9": ["a"]}, qrels)

    def test_empty_ranking_counts_as_absent(self, tmp_path):
        # a query with no hits writes no run line, so it is absent when read back
        path = tmp_path / "run.txt"
        path.write_text("r Q0 b 1 1.0 t\n")
        qrels = Qrels({"q": {"a": 1}, "r": {"b": 1}})
        from_file = evaluate_run(RunFile.read(str(path)).ranked(), qrels)
        in_memory = evaluate_run({"q": [], "r": ["b"]}, qrels)
        assert in_memory == from_file
        assert in_memory.per_query["q"] == {"map": 0.0, "ndcg@10": 0.0, "recall@1000": 0.0}
        path.write_text("")
        errors = []
        for rankings in ({"q": []}, RunFile.read(str(path)).ranked()):
            with pytest.raises(ValueError, match="share no query ids") as exc:
                evaluate_run(rankings, Qrels({"q": {"a": 1}}))
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_binary_threshold(self):
        qrels = Qrels({"q1": {"a": 1, "b": 2}})
        strict = evaluate_run({"q1": ["a", "b"]}, qrels, binary_threshold=2)
        assert strict.per_query["q1"]["map"] == pytest.approx(0.5)

    def test_ranks_by_score_not_by_line_order(self, tmp_path):
        path = tmp_path / "run.txt"
        # q1's lines are out of score order; q2's two scores tie
        path.write_text("q1 Q0 dA 1 1.0 t\nq1 Q0 dB 2 2.0 t\n"
                        "q2 Q0 dX 1 1.0 t\nq2 Q0 dY 2 1.0 t\n")
        qrels_path = tmp_path / "qrels.txt"
        qrels_path.write_text("q1 0 dB 1\nq2 0 dY 1\n")
        ranked = RunFile.read(str(path)).ranked()
        assert ranked == {"q1": ["dB", "dA"], "q2": ["dX", "dY"]}
        result = evaluate_run(ranked, Qrels.read(str(qrels_path)))
        ref_per_query, _ = reference_eval(str(path), str(qrels_path))
        assert result.per_query["q1"]["map"] == ref_per_query["q1"]["map"] == 1.0
        # a tie keeps the run's order: dX first, so dY's AP is 1/2
        assert result.per_query["q2"]["map"] == 0.5
        # the run itself keeps its file order
        assert list(RunFile.read(str(path)).rankings["q1"]) == ["dA", "dB"]

    def test_reference_oracle_parity(self, tmp_path):
        rng = random.Random(7)
        for trial in range(10):
            run, qrels = random_run_and_qrels(rng, n_queries=rng.randint(1, 8), depth=50)
            run_path = tmp_path / f"run{trial}.txt"
            qrels_path = tmp_path / f"qrels{trial}.txt"
            run.write(str(run_path))
            with open(qrels_path, "w") as fh:
                for qid, grades in qrels.judgments.items():
                    for d, g in grades.items():
                        fh.write(f"{qid} 0 {d} {g}\n")
            result = evaluate_run(RunFile.read(str(run_path)).ranked(),
                                  Qrels.read(str(qrels_path)))
            _, ref_means = reference_eval(str(run_path), str(qrels_path))
            for metric, value in ref_means.items():
                assert result.means[metric] == pytest.approx(value, abs=1e-4)


class TestFileIO:
    def test_qrels_parse(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 2\nq1 0 d2 0\nq2 0 d1 1\n")
        qrels = Qrels.read(str(path))
        assert qrels.judgments["q1"] == {"d1": 2, "d2": 0}
        assert sorted(qrels.judgments) == ["q1", "q2"]

    def test_qrels_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 0\nq1 0 d2 -1\n")
        with pytest.raises(TrecFormatError, match=":2: negative grade"):
            Qrels.read(str(path))

    def test_qrels_bad_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1\n")
        with pytest.raises(TrecFormatError, match=":1:"):
            Qrels.read(str(path))

    def test_run_roundtrip(self, tmp_path):
        run = RunFile(tag="mytag")
        run.add("q1", "d2", 3.5)
        run.add("q1", "d1", 1.25)
        path = tmp_path / "run.txt"
        run.write(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "q1 Q0 d2 1 3.500000 mytag"
        loaded = RunFile.read(str(path))
        assert list(loaded.rankings["q1"]) == ["d2", "d1"]

    def test_write_equals_per_line_format(self, tmp_path):
        # braces and percent signs in every free field, .6f rounding edges and
        # an empty ranking, through run_lines and through RunFile.write
        tag = "t{0}%s{}"
        rankings = {
            "q{}": (["d{0}", "%d", "}{", "caf\u00e9"], [1e17, 0.0000005, 1e-7, 0.0]),
            "q%": (["a", "b", "c"], [0.0000015, 0.0000025, 2.5e-7]),
            "q": ([], []),
        }

        def expected(qid):
            doc_ids, scores = rankings[qid]
            return "".join(f"{qid} Q0 {docid} {rank} {score:.6f} {tag}\n"
                           for rank, (docid, score) in enumerate(zip(doc_ids, scores), 1))

        for qid, (doc_ids, scores) in rankings.items():
            assert run_lines(qid, doc_ids, scores, tag) == expected(qid)
        run = RunFile(rankings={qid: dict(zip(*r)) for qid, r in rankings.items()}, tag=tag)
        run.write(str(tmp_path / "run.txt"))
        assert (tmp_path / "run.txt").read_text(encoding="utf-8") == \
            "".join(map(expected, sorted(rankings)))

    def test_run_duplicate_doc_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t\n")
        with pytest.raises(TrecFormatError, match=":2:"):
            RunFile.read(str(path))

    @pytest.mark.parametrize("score", ["nan", "NaN", "-nan", "x"])
    def test_run_score_that_is_not_a_number_rejected(self, tmp_path, score):
        # a NaN has no order: ranked() would put b anywhere, first among these
        path = tmp_path / "run.txt"
        path.write_text("".join(f"q1 Q0 {d} {rank} {s} t\n" for rank, (d, s) in enumerate(
            [("a", "3.0"), ("b", score), ("c", "2.0"), ("d", "5.0"), ("e", "inf")], 1)))
        with pytest.raises(TrecFormatError) as info:
            RunFile.read(str(path))
        assert str(info.value) == f"{path}:2: score {score!r} is not a number"

    def test_run_infinite_scores_ranked(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 a 1 3.0 t\nq1 Q0 b 2 -inf t\nq1 Q0 c 3 inf t\n")
        assert RunFile.read(str(path)).ranked() == {"q1": ["c", "a", "b"]}

    def test_run_bad_field_count(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 d1 1 2.0\n")
        with pytest.raises(TrecFormatError, match="expected 6 fields"):
            RunFile.read(str(path))
