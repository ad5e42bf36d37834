"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py`; a per-criterion PASS/FAIL summary
is printed at the end of the session (see conftest.py).
"""

import json
import os
import random
import time
from dataclasses import dataclass, field

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from oracles import brute_force_ranking, reference_eval

from iterqe.cli import main as cli_main
from iterqe.corpus import Corpus
from iterqe.evaluate import Qrels, RunFile, evaluate_run
from iterqe.expansion import MockBackend
from iterqe.index import build_index, search_topk
from iterqe.pipeline import (
    PipelineConfig,
    QueryState,
    render_query,
    repetition_count,
    run_pipeline,
    run_round,
)


def make_corpus(texts, ids=None):
    return Corpus(list(ids) if ids else [f"d{i}" for i in range(len(texts))], list(texts))


# 30 documents: five feedback docs matching the query and carrying bridge
# terms, one target doc sharing vocabulary only with the feedback docs,
# and 24 fillers.
PLANTED_TEXTS = [
    "zork flim margle brint voyage",
    "zork flim margle brint tide",
    "zork flim margle coast",
    "zork flim brint coast",
    "zork flim margle brint harbor",
    "margle brint margle brint margle",
] + [f"filler{i} noise{i} misc{i}" for i in range(24)]
PLANTED_IDS = ["f1", "f2", "f3", "f4", "f5", "target"] + [f"x{i}" for i in range(24)]
PLANTED_QUERY = "zork flim"


def test_criterion_1_bm25_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20240501)
    vocab = [f"v{i}" for i in range(50)]
    for _ in range(50):
        n_docs = rng.randint(2, 200)
        texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 25))) for _ in range(n_docs)]
        doc_ids = [f"d{i}" for i in range(n_docs)]
        index = build_index(make_corpus(texts))
        for _ in range(20):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            hits = search_topk(index, query, n_docs)
            oracle = brute_force_ranking(texts, doc_ids, query)
            assert [h.doc_id for h in hits] == [d for _, d in oracle]
            for hit, (score, _) in zip(hits, oracle):
                assert abs(hit.score - score) <= 1e-9 * max(abs(score), 1e-12)
    assert time.monotonic() - started < 10.0


def test_criterion_2_metric_parity_with_reference(tmp_path):
    started = time.monotonic()
    rng = random.Random(77)
    for trial in range(25):
        n_queries = rng.randint(1, 10)
        depth = rng.randint(5, 100)
        doc_pool = [f"doc{i}" for i in range(depth * 2)]
        qrels = Qrels()
        run = RunFile()
        for q in range(n_queries):
            qid = f"q{q}"
            for d in rng.sample(doc_pool, rng.randint(1, depth)):
                qrels.judgments.setdefault(qid, {})[d] = rng.randint(0, 3)
            score = 1000.0
            for d in rng.sample(doc_pool, rng.randint(1, depth)):
                run.add(qid, d, score)
                score -= rng.random() + 0.01
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
        for metric, ref_value in ref_means.items():
            assert abs(result.means[metric] - ref_value) <= 1e-4
    assert time.monotonic() - started < 30.0


def test_criterion_3_pipeline_set_algebra():
    rng = random.Random(555)
    vocab = [f"word{i}" for i in range(40)]
    violations = 0
    trials = 0
    while trials < 100:
        n_docs = rng.randint(5, 50)
        texts = [" ".join(rng.choices(vocab, k=rng.randint(2, 15))) for _ in range(n_docs)]
        corpus = make_corpus(texts)
        index = build_index(corpus)
        config = PipelineConfig(
            rounds=rng.randint(1, 4),
            top_k_feedback=rng.randint(1, 6),
            samples_per_round=rng.randint(1, 3),
            retrieval_depth=rng.randint(5, 60),
        )
        backend = MockBackend(seed=trials)
        state = QueryState(" ".join(rng.choices(vocab, k=rng.randint(1, 3))))
        for _ in range(config.rounds):
            before = state
            state, record = run_round(state, corpus, index, backend, config)
            trials += 1
            excluded = before.blacklist | set(before.prev_feedback)
            if set(record.feedback_docs) & {index.doc_ids[o] for o in excluded}:
                violations += 1  # filter soundness
            if not state.blacklist >= before.blacklist:
                violations += 1  # blacklist monotonicity
            if state.expansions[:-1] != before.expansions:
                violations += 1  # accumulation prefix
            if len(record.feedback_docs) > config.top_k_feedback:
                violations += 1
    assert violations == 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(alphabet="abcde", min_size=1, max_size=6), min_size=1, max_size=8),
    st.lists(
        st.lists(st.text(alphabet="fghij", min_size=1, max_size=6), min_size=0, max_size=40),
        min_size=0, max_size=4,
    ),
    st.floats(min_value=0.25, max_value=10),
)
def test_criterion_4_repetition_rule(q0_words, segment_words, lambda_):
    q0 = " ".join(q0_words)
    segments = [" ".join(ws) for ws in segment_words]
    total = sum(len(ws) for ws in segment_words)
    n = repetition_count(q0, segments, lambda_)
    assert n == max(1, int(total / (len(q0_words) * lambda_)))
    rendered = render_query(QueryState(q0, expansions=segments), lambda_)
    assert len(rendered.split()) == n * len(q0_words) + total


def test_criterion_4_worked_example():
    q0 = "who is robert gray"
    segments = [" ".join(["w"] * 36)]
    assert repetition_count(q0, segments, 3.0) == 3


@dataclass
class CountingBackend(MockBackend):
    """The mock, with a list of the sample counts it is asked for."""

    asked: list[int] = field(default_factory=list)

    def generate(self, inputs, num_samples):
        self.asked.append(num_samples)
        return super().generate(inputs, num_samples)


@pytest.mark.parametrize("mode", ["interaction", "parallel"])
@pytest.mark.parametrize("rounds,expected_calls", [(1, 2), (2, 4), (3, 6)])
def test_criterion_5_call_accounting(mode, rounds, expected_calls):
    corpus = make_corpus(PLANTED_TEXTS, PLANTED_IDS)
    index = build_index(corpus)
    backend = CountingBackend(seed=1)
    config = PipelineConfig(rounds=rounds, samples_per_round=2, mode=mode)
    _, trace = run_pipeline(PLANTED_QUERY, corpus, index, backend, config)
    # the backend is asked for rounds x samples samples, and the trace, from
    # which the run's metadata counts them, holds one thinking trace for each
    assert sum(backend.asked) == expected_calls
    assert sum(len(record.thinking_traces) for record in trace) == expected_calls


def test_criterion_6_feedback_propagation():
    corpus = make_corpus(PLANTED_TEXTS, PLANTED_IDS)
    index = build_index(corpus)
    plain = [h.doc_id for h in search_topk(index, PLANTED_QUERY, 1000)]
    assert "target" not in plain  # shares no vocabulary with the query

    config = PipelineConfig(rounds=2, top_k_feedback=5, retrieval_depth=100)
    results = []
    for _ in range(2):
        backend = MockBackend(mode="echo_terms", seed=11)
        final_hits, _ = run_pipeline(PLANTED_QUERY, corpus, index, backend, config)
        results.append([h.doc_id for h in final_hits])
    assert results[0] == results[1]  # deterministic under fixed seed
    assert "target" in results[0][:10]


def _write_workspace(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w") as fh:
        for doc_id, text in zip(PLANTED_IDS, PLANTED_TEXTS):
            fh.write(json.dumps({"id": doc_id, "contents": text}) + "\n")
    queries_path = tmp_path / "queries.tsv"
    queries_path.write_text(f"q1\t{PLANTED_QUERY}\n")
    runner = CliRunner()
    index_path = tmp_path / "index.gz"
    result = runner.invoke(cli_main, ["index", "--corpus", str(corpus_path),
                                      "--out", str(index_path)])
    assert result.exit_code == 0, result.output
    return runner, corpus_path, queries_path, index_path


def _run_cell(runner, corpus_path, queries_path, index_path, out_dir, extra):
    args = ["run", "--corpus", str(corpus_path), "--index", str(index_path),
            "--queries", str(queries_path), "--out-dir", str(out_dir),
            "--backend", "mock", "--seed", "5", "--rounds", "2", *extra]
    result = runner.invoke(cli_main, args)
    assert result.exit_code == 0, result.output
    trace_path = os.path.join(out_dir, "iterqe.trace.jsonl")
    with open(trace_path) as fh:
        return [json.loads(line) for line in fh]


def test_criterion_7_ablation_distinction(tmp_path):
    runner, corpus_path, queries_path, index_path = _write_workspace(tmp_path)

    full = _run_cell(runner, corpus_path, queries_path, index_path,
                     tmp_path / "full", [])
    no_filter = _run_cell(runner, corpus_path, queries_path, index_path,
                          tmp_path / "nofilter", ["--no-filter"])
    no_accum = _run_cell(runner, corpus_path, queries_path, index_path,
                         tmp_path / "noaccum", ["--no-accumulation"])

    def feedback(trace, rnd):
        return set(next(r for r in trace if r["round"] == rnd)["feedback_docs"])

    # filter on: round-2 feedback disjoint from round-1
    assert feedback(full, 0) and feedback(full, 1)
    assert not feedback(full, 0) & feedback(full, 1)
    # filter off: round-2 feedback overlaps round-1
    assert feedback(no_filter, 0) & feedback(no_filter, 1)

    # accumulation off: final rendered query holds exactly the latest segment
    segments = [r["expansion_segment"] for r in no_accum if r["expansion_segment"]]
    final_query = no_accum[-1]["rendered_query"]
    assert len(segments) == 2 and segments[0] != segments[1]
    assert segments[1] in final_query
    assert segments[0] not in final_query
    # with accumulation both segments reach the final query
    acc_segments = [r["expansion_segment"] for r in full if r["expansion_segment"]]
    acc_final = full[-1]["rendered_query"]
    assert all(seg in acc_final for seg in acc_segments)


@pytest.mark.skipif(
    "ITERQE_MSMARCO_DIR" not in os.environ,
    reason="needs the MS MARCO passage corpus (~30 GB) plus DL19 queries/qrels; "
    "set ITERQE_MSMARCO_DIR to run",
)
def test_criterion_8_msmarco_bm25_baseline():
    """Large-scale check: plain BM25 (no expansion) on DL19 lands near 50.6 nDCG@10."""
    base = os.environ["ITERQE_MSMARCO_DIR"]
    from iterqe.corpus import ingest_corpus
    from iterqe.index import PostingIndex

    index_path = os.path.join(base, "msmarco.index.gz")
    if os.path.exists(index_path):
        index = PostingIndex.load(index_path)
    else:
        corpus = ingest_corpus(os.path.join(base, "collection.jsonl"), "jsonl")
        index = build_index(corpus)
        index.save(index_path)
    with open(os.path.join(base, "dl19-queries.tsv")) as fh:
        rankings = {qid: search_topk(index, text, 1000).doc_ids()
                    for qid, text in (line.rstrip("\n").split("\t", 1) for line in fh)}
    qrels = Qrels.read(os.path.join(base, "dl19-qrels.txt"))
    result = evaluate_run(rankings, qrels, binary_threshold=2)
    assert abs(result.means["ndcg@10"] * 100 - 50.6) <= 2.0
