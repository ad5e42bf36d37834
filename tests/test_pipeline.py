import json
import logging
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iterqe.corpus import Corpus
from iterqe.expansion import (ChatCompletionsBackend, ExpansionResponse, MockBackend,
                              strip_thinking)
from iterqe.index import Ranking, build_index, search_topk
from iterqe.pipeline import (
    PipelineConfig,
    QueryState,
    RoundRecord,
    _score_texts,
    filter_feedback,
    render_query,
    repetition_count,
    run_pipeline,
    run_round,
)


def make_corpus(texts, prefix="d"):
    return Corpus([f"{prefix}{i}" for i in range(len(texts))], list(texts))


@pytest.mark.parametrize("lambda_", [0.0, -1.0, math.nan, math.inf])
def test_config_rejects_lambda(lambda_):
    with pytest.raises(ValueError, match="lambda must be finite and positive"):
        PipelineConfig(lambda_=lambda_)


class TestRepetitionCount:
    def test_worked_example(self):
        q0 = "who is robert gray"
        expansions = [" ".join(["w"] * 36)]
        assert repetition_count(q0, expansions, 3.0) == 3

    def test_no_expansions_clamps_to_one(self):
        assert repetition_count("any query", [], 3.0) == 1

    def test_below_threshold_clamps(self):
        q0 = " ".join(["q"] * 5)
        expansions = [" ".join(["w"] * 14)]
        assert repetition_count(q0, expansions, 3.0) == 1

    def test_multiple_segments_summed(self):
        q0 = "a b"  # 2 words
        expansions = [" ".join(["w"] * 6), " ".join(["w"] * 6)]  # 12 words
        assert repetition_count(q0, expansions, 3.0) == 2

    def test_empty_q0_rejected(self):
        with pytest.raises(ValueError):
            repetition_count("   ", [], 3.0)


class TestRenderQuery:
    def test_base_case(self):
        assert render_query(QueryState("plain query"), 3.0) == "plain query"

    def test_repeats_original(self):
        state = QueryState("who is robert gray", expansions=[" ".join(["w"] * 36)])
        rendered = render_query(state, 3.0)
        assert rendered.startswith("who is robert gray who is robert gray who is robert gray")

    def test_segments_in_order(self):
        state = QueryState("q", expansions=["first seg", "second seg"])
        rendered = render_query(state, 3.0)
        assert rendered.index("first seg") < rendered.index("second seg")

    @given(
        st.lists(st.text(alphabet="abcde", min_size=1, max_size=6), min_size=1, max_size=6),
        st.lists(
            st.lists(st.text(alphabet="fghij", min_size=1, max_size=6), min_size=0, max_size=30),
            min_size=0, max_size=4,
        ),
        st.floats(min_value=0.5, max_value=10),
    )
    def test_token_composition(self, q0_words, segment_words, lambda_):
        q0 = " ".join(q0_words)
        segments = [" ".join(ws) for ws in segment_words]
        state = QueryState(q0, expansions=segments)
        n = repetition_count(q0, segments, lambda_)
        expected = n * len(q0_words) + sum(len(ws) for ws in segment_words)
        assert len(render_query(state, lambda_).split()) == expected


class TestFilterFeedback:
    def test_set_algebra_example(self):
        retrieved = [f"d{i}" for i in range(1, 11)]
        feedback, blacklist = filter_feedback(retrieved, {"d1"}, ["d2", "d3"], 5)
        assert feedback == ["d4", "d5", "d6", "d7", "d8"]
        assert blacklist >= {"d1", "d2", "d3"}

    def test_no_exclusions(self):
        retrieved = ["a", "b", "c"]
        feedback, blacklist = filter_feedback(retrieved, set(), [], 2)
        assert feedback == ["a", "b"]
        assert blacklist == set()

    def test_all_blacklisted(self):
        retrieved = ["a", "b"]
        feedback, blacklist = filter_feedback(retrieved, {"a", "b"}, [], 5)
        assert feedback == []
        assert blacklist == {"a", "b"}

    def test_blacklist_grows_with_excluded_only(self):
        retrieved = ["a", "b", "c", "d"]
        feedback, blacklist = filter_feedback(retrieved, set(), ["b"], 2)
        assert feedback == ["a", "c"]
        # d was cut by top-k, not by the set test, so it stays clean
        assert blacklist == {"b"}

    def test_unretrieved_exclusions_do_not_join(self):
        feedback, blacklist = filter_feedback(["a", "b", "c"], {"x"}, ["b", "y"], 5)
        assert feedback == ["a", "c"]
        # only previous feedback that was retrieved again joins
        assert blacklist == {"x", "b"}


FEEDBACK_CORPUS = [
    "zork flim margle brint voyage",
    "zork flim margle brint tide",
    "zork flim margle coast",
    "zork flim brint coast",
    "zork flim margle brint harbor",
    "margle brint margle brint margle",  # target: shares terms only with feedback docs
] + [f"filler{i} noise{i} misc{i}" for i in range(24)]


def feedback_setup():
    corpus = make_corpus(FEEDBACK_CORPUS)
    index = build_index(corpus)
    return corpus, index


class TestRunRound:
    def test_fixed_text_segments(self):
        corpus, index = feedback_setup()
        backend = MockBackend(mode="fixed_text", fixed_text="E")
        config = PipelineConfig(rounds=3, samples_per_round=2)
        state, record = run_round(QueryState("zork flim"), corpus, index, backend, config)
        assert record.expansion_segment == "E E"
        assert state.expansions == ["E E"]
        assert state.round == 1

    def test_retrieves_to_the_configured_depth(self):
        corpus, index = feedback_setup()
        config = PipelineConfig(retrieval_depth=3)  # "zork flim" matches five passages
        _, record = run_round(QueryState("zork flim"), corpus, index, MockBackend(), config)
        assert len(record.retrieved) == 3

    def test_filter_disabled_keeps_topk(self):
        corpus, index = feedback_setup()
        backend = MockBackend()
        config = PipelineConfig(filter_enabled=False)
        state = QueryState("zork flim", blacklist={0, 1})
        new_state, record = run_round(state, corpus, index, backend, config)
        assert record.feedback_docs == record.retrieved.doc_ids()[:5]
        assert new_state.blacklist == {0, 1}

    def test_accumulation_disabled_keeps_latest(self):
        corpus, index = feedback_setup()
        backend = MockBackend(mode="fixed_text", fixed_text="X")
        config = PipelineConfig(accumulation_enabled=False)
        state = QueryState("zork flim")
        for _ in range(2):
            state, _ = run_round(state, corpus, index, backend, config)
        assert len(state.expansions) == 1

    def test_prompt_uses_original_query(self):
        corpus, index = feedback_setup()

        class SpyBackend(MockBackend):
            def generate(self, inputs, params):
                self.last_inputs = inputs
                return super().generate(inputs, params)

        backend = SpyBackend(mode="fixed_text", fixed_text="pad " * 30)
        config = PipelineConfig()
        state = QueryState("zork flim", expansions=["existing long segment " * 5])
        run_round(state, corpus, index, backend, config)
        assert backend.last_inputs.query == "zork flim"

    def test_passages_truncated(self):
        corpus, index = feedback_setup()

        class SpyBackend(MockBackend):
            def generate(self, inputs, params):
                self.last_inputs = inputs
                return super().generate(inputs, params)

        backend = SpyBackend()
        config = PipelineConfig(prompt_doc_truncation=2)
        run_round(QueryState("zork flim"), corpus, index, backend, config)
        for passage in backend.last_inputs.passages:
            assert len(passage.split()) <= 2


class TestDegenerateSamples:
    """A sample that ends inside <think> adds no words, and each round that has
    any is logged once, with its count."""

    class CappedBackend(MockBackend):
        # two of every three samples hit the token cap inside their thinking
        def generate(self, inputs, num_samples):
            return [strip_thinking("<think>ran out of tokens"),
                    ExpansionResponse("", "E"),
                    strip_thinking("<think>also")][:num_samples]

    def warnings(self, caplog):
        return [r.getMessage() for r in caplog.records
                if r.name == "iterqe.pipeline" and "<think>" in r.getMessage()]

    def test_one_warning_per_round_with_the_count(self, caplog):
        corpus, index = feedback_setup()
        config = PipelineConfig(rounds=2, samples_per_round=3)
        with caplog.at_level(logging.WARNING, logger="iterqe.pipeline"):
            _, trace = run_pipeline("zork flim", corpus, index, self.CappedBackend(), config)
        # only the answers join, with no space for an empty one
        assert [r.expansion_segment for r in trace[:-1]] == ["E", "E"]
        assert self.warnings(caplog) == [
            f"round {n}: 2 of 3 samples ended inside <think> and add no words" for n in (0, 1)]

    def test_no_warning_without_degenerate_samples(self, caplog):
        corpus, index = feedback_setup()
        config = PipelineConfig(rounds=2, samples_per_round=1)
        with caplog.at_level(logging.WARNING, logger="iterqe.pipeline"):
            run_pipeline("zork flim", corpus, index, MockBackend(), config)
        assert self.warnings(caplog) == []


def test_round_without_feedback_warns_once_with_the_http_backend(caplog):
    # a query with no hits has no feedback; the round says so, and the prompt does not again
    class OneReplySession:
        def post(self, url, json=None, headers=None, timeout=None):
            choices = [{"message": {"content": "<think>t</think>answer"}}] * json["n"]
            return SimpleNamespace(status_code=200, json=lambda: {"choices": choices})

    corpus, index = feedback_setup()
    backend = ChatCompletionsBackend("http://backend/v1", "m", session=OneReplySession())
    with caplog.at_level(logging.WARNING):
        _, record = run_round(QueryState("unheard"), corpus, index, backend,
                              PipelineConfig(samples_per_round=2))
    assert len(record.retrieved) == 0 and record.expansion_segment == "answer answer"
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("iterqe.pipeline", "round 0: no feedback documents survived filtering")]


def samples_drawn(trace):
    """The samples a run drew, as the CLI counts them: one thinking trace each."""
    return sum(len(record.thinking_traces) for record in trace)


class TestRunPipeline:
    def test_interaction_call_accounting(self):
        corpus, index = feedback_setup()
        config = PipelineConfig(rounds=3, samples_per_round=2)
        _, trace = run_pipeline("zork flim", corpus, index, MockBackend(), config)
        assert [len(r.thinking_traces) for r in trace] == [2, 2, 2, 0]
        assert samples_drawn(trace) == 6

    def test_parallel_call_accounting(self):
        corpus, index = feedback_setup()
        config = PipelineConfig(rounds=3, samples_per_round=2, mode="parallel")
        _, trace = run_pipeline("zork flim", corpus, index, MockBackend(), config)
        assert samples_drawn(trace) == 6
        # one expansion record plus the final retrieval record
        assert len(trace) == 2

    def test_zero_rounds_is_plain_bm25(self):
        corpus, index = feedback_setup()
        config = PipelineConfig(rounds=0)
        final_hits, trace = run_pipeline("zork flim", corpus, index, MockBackend(), config)
        from iterqe.index import search_topk

        assert list(final_hits) == list(search_topk(index, "zork flim", config.retrieval_depth))
        assert samples_drawn(trace) == 0

    def test_final_retrieval_to_the_configured_depth(self):
        corpus, index = feedback_setup()
        config = PipelineConfig(rounds=1, retrieval_depth=3)
        final_hits, trace = run_pipeline("zork flim", corpus, index, MockBackend(), config)
        # the expanded query matches six passages
        assert len(search_topk(index, trace[-1].rendered_query, 1000)) == 6
        assert len(final_hits) == 3
        assert trace[-1].retrieved is final_hits

    def test_trace_shape_interaction(self):
        corpus, index = feedback_setup()
        config = PipelineConfig(rounds=2)
        _, trace = run_pipeline("zork flim", corpus, index, MockBackend(), config)
        assert [r.round for r in trace] == [0, 1, 2]
        assert trace[-1].expansion_segment == ""

    def test_empty_query_rejected(self):
        corpus, index = feedback_setup()
        with pytest.raises(ValueError):
            run_pipeline("  ", corpus, index, MockBackend(), PipelineConfig())

    def test_corpus_not_paired_with_its_index_rejected(self):
        corpus, index = feedback_setup()
        # equal ids are not enough: only one shared list proves the ordinals agree
        for other in (make_corpus(FEEDBACK_CORPUS), Corpus(list(corpus.doc_ids), corpus.texts)):
            with pytest.raises(ValueError, match="share one doc_ids list"):
                run_pipeline("zork flim", other, index, MockBackend(), PipelineConfig())


class TestLoopInvariants:
    def test_randomized_invariant_suite(self):
        rng = random.Random(99)
        vocab = [f"word{i}" for i in range(30)]
        violations = 0
        for trial in range(30):
            n_docs = rng.randint(5, 40)
            texts = [" ".join(rng.choices(vocab, k=rng.randint(2, 12))) for _ in range(n_docs)]
            corpus = make_corpus(texts)
            index = build_index(corpus)
            config = PipelineConfig(
                rounds=rng.randint(1, 4),
                top_k_feedback=rng.randint(1, 6),
                samples_per_round=rng.randint(1, 3),
                retrieval_depth=rng.randint(5, 50),
            )
            backend = MockBackend(seed=trial)
            state = QueryState(" ".join(rng.choices(vocab, k=rng.randint(1, 3))))
            for _ in range(config.rounds):
                before = state
                state, record = run_round(state, corpus, index, backend, config)
                # the state holds ordinals, the record ids
                excluded = {index.doc_ids[o] for o in before.blacklist | set(before.prev_feedback)}
                if set(record.feedback_docs) & excluded:
                    violations += 1
                if record.feedback_docs != [index.doc_ids[o] for o in state.prev_feedback]:
                    violations += 1
                if not state.blacklist >= before.blacklist:
                    violations += 1
                if state.expansions[:-1] != before.expansions:
                    violations += 1
                if len(record.feedback_docs) > config.top_k_feedback:
                    violations += 1
        assert violations == 0

    def test_feedback_vocabulary_propagates(self):
        corpus, index = feedback_setup()
        backend = MockBackend(seed=3)
        config = PipelineConfig(rounds=2, top_k_feedback=5, retrieval_depth=30)
        final_hits, _ = run_pipeline("zork flim", corpus, index, backend, config)
        assert "d5" in final_hits.doc_ids()[:10]  # the bridge-term document
        from iterqe.index import search_topk

        plain = [h.doc_id for h in search_topk(index, "zork flim", 1000)]
        assert "d5" not in plain


# repr writes positional notation on [1e-4, 1e16) and an exponent outside it
BELOW_1E_4 = math.nextafter(1e-4, 0)
BELOW_1E16 = math.nextafter(1e16, 0)


class TestScoreTexts:
    @given(st.lists(st.one_of(
        st.floats(min_value=1e-4, max_value=BELOW_1E16),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    ), max_size=20))
    def test_equal_repr(self, scores):
        assert list(_score_texts(np.array(scores, dtype=np.float64))) == list(map(repr, scores))

    @pytest.mark.parametrize("scores", [
        [1e-4], [BELOW_1E_4], [BELOW_1E16], [1e16], [5e-324], [12.0], [],
        [BELOW_1E16, 12.0, 1e-4], [1e16, 12.0, BELOW_1E_4],
    ])
    def test_edges_equal_repr(self, scores):
        assert list(_score_texts(np.array(scores, dtype=np.float64))) == list(map(repr, scores))


def expected_trace_line(record, query_id):
    return json.dumps({
        "query_id": query_id,
        "round": record.round,
        "retrieved": [{"doc_id": h.doc_id, "score": h.score, "rank": h.rank}
                      for h in record.retrieved],
        "feedback_docs": record.feedback_docs,
        "rendered_query": record.rendered_query,
        "expansion_segment": record.expansion_segment,
        "thinking_traces": record.thinking_traces,
    })


class TestTraceLine:
    # JSON escapes, a control character, non-ASCII, an astral character and a
    # lone surrogate
    DOC_IDS = ['say "hi"', "back\\slash", "line\nbreak", "nul\x00", "caf\u00e9",
               "emoji\U0001f600", "lone\ud800"]

    def test_trace_lines_equal_json_dumps(self):
        texts = [f"zork flim margle{i} brint" for i in range(len(self.DOC_IDS))]
        corpus = Corpus(list(self.DOC_IDS), texts)
        index = build_index(corpus)
        config = PipelineConfig(rounds=2, top_k_feedback=3)
        _, trace = run_pipeline("zork flim", corpus, index, MockBackend(), config)
        assert {d for r in trace for d in r.retrieved.doc_ids()} == set(self.DOC_IDS)
        for qid in ("q1", 'q "\u00e9\ud83d"'):
            for record in trace:
                assert record.trace_line(qid) == expected_trace_line(record, qid)

    @pytest.mark.parametrize("scores", [
        # either side of [1e-4, 1e16), where the score texts change path
        [BELOW_1E16, 1e15, 12.0, 0.1, 1e-4],
        [1e16, BELOW_1E16, 12.0, 1e-4, BELOW_1E_4, 5e-324],
        # lengths about the powers of two that rank texts are cached for
        *(np.linspace(30.0, 1.0, n).tolist() for n in (1, 2, 3, 4, 1023, 1024, 1025)),
    ])
    def test_hand_built_rankings(self, scores):
        names = [f"d{i}" for i in range(len(scores))]
        ranking = Ranking(np.arange(len(scores)), np.array(scores), names)
        record = RoundRecord(round=1, retrieved=ranking, feedback_docs=["d0"],
                             rendered_query="zork", expansion_segment="flim",
                             thinking_traces=["why"])
        assert record.trace_line("q1") == expected_trace_line(record, "q1")

    def test_empty_ranking(self):
        corpus, index = feedback_setup()
        config = PipelineConfig(rounds=1)
        _, trace = run_pipeline("absent words", corpus, index, MockBackend(), config)
        assert len(trace[-1].retrieved) == 0
        line = json.loads(trace[-1].trace_line("q"))
        assert line["retrieved"] == []
        assert list(line) == ["query_id", "round", "retrieved", "feedback_docs",
                              "rendered_query", "expansion_segment", "thinking_traces"]


class TestRanking:
    def test_reads_like_a_list_of_hits(self):
        corpus, index = feedback_setup()
        ranking = search_topk(index, "zork flim margle", 10)
        hits = list(ranking)
        assert len(ranking) == len(hits) == 6
        assert [h.rank for h in hits] == [1, 2, 3, 4, 5, 6]
        assert ranking.doc_ids() == [h.doc_id for h in hits]
        assert ranking.ordinals.tolist() == [index.doc_ids.index(h.doc_id) for h in hits]
        assert ranking.scores.tolist() == [h.score for h in hits]
        assert all(type(h.score) is float for h in hits)

    def test_shares_the_index_doc_ids(self):
        corpus, index = feedback_setup()
        assert search_topk(index, "zork", 3)._names is index.doc_ids

    def test_doc_ids_built_once(self):
        corpus, index = feedback_setup()
        ranking = search_topk(index, "zork flim margle", 10)
        ids = ranking.doc_ids()
        assert ranking.doc_ids() is ids
