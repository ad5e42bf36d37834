"""Iterative expansion loop: retrieve, filter redundant feedback, expand, update query."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from .corpus import Corpus, truncate_text
from .expansion import ExpansionBackend, PromptInputs
from .index import PostingIndex, Ranking, search_topk

log = logging.getLogger(__name__)

# the text that opens each hit of a trace line after the first
_NEXT_HIT = ', {"doc_id": '


@dataclass(frozen=True)
class PipelineConfig:
    MODES = ("interaction", "parallel")
    rounds: int = 3
    top_k_feedback: int = 5
    prompt_doc_truncation: int = 128
    samples_per_round: int = 2
    lambda_: float = 3.0
    mode: str = "interaction"
    accumulation_enabled: bool = True
    filter_enabled: bool = True
    retrieval_depth: int = 1000

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if self.mode not in self.MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 < self.lambda_ < math.inf:  # NaN fails every comparison
            raise ValueError("lambda must be finite and positive")
        for name in ("top_k_feedback", "prompt_doc_truncation", "samples_per_round",
                     "retrieval_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class QueryState:
    q0: str
    expansions: list[str] = field(default_factory=list)
    # index ordinals, as in prev_feedback
    blacklist: set[int] = field(default_factory=set)
    prev_feedback: list[int] = field(default_factory=list)
    round: int = 0


@dataclass
class RoundRecord:
    """One retrieval of a query and, for a round, the expansion it fed.

    The final retrieval's record keeps the empty defaults.
    """

    round: int
    retrieved: Ranking
    rendered_query: str
    feedback_docs: list[str] = field(default_factory=list)
    expansion_segment: str = ""
    thinking_traces: list[str] = field(default_factory=list)

    def trace_line(self, query_id: str) -> str:
        """The record as one JSON line of the trace, without the newline.

        The hits are one join over texts made in C, with no Python code
        run per hit; the rest is ``json.dumps``. The line equals
        ``json.dumps`` of the record as a dict with the keys in this order
        (``encode_basestring_ascii`` is ``json.dumps``'s own string encoder,
        and ``_score_texts`` gives the scores' JSON numbers).
        """
        ranking = self.retrieved
        n = len(ranking)
        # zip stops at the shortest input, so a longer tuple of rank texts serves
        hits = "".join(chain.from_iterable(zip(
            map(encode_basestring_ascii, ranking.doc_ids()), repeat(', "score": '),
            _score_texts(ranking.scores), _rank_texts(1 << n.bit_length()),
        )))
        # the last rank text opens a hit that does not exist
        retrieved = '{"doc_id": ' + hits[:-len(_NEXT_HIT)] if n else ""
        head = json.dumps({"query_id": query_id, "round": self.round})
        tail = json.dumps({
            "feedback_docs": self.feedback_docs,
            "rendered_query": self.rendered_query,
            "expansion_segment": self.expansion_segment,
            "thinking_traces": self.thinking_traces,
        })
        return f'{head[:-1]}, "retrieved": [{retrieved}], {tail[1:]}'


@lru_cache(maxsize=None)
def _rank_texts(size: int) -> tuple[str, ...]:
    """The text after the score of the hits ranked 1 to ``size``: the rank,
    the end of the hit and the opening of the next one.

    ``trace_line`` asks only for powers of two, so the cache holds fewer
    texts than four times the longest ranking.
    """
    return tuple(f', "rank": {rank}}}{_NEXT_HIT}' for rank in range(1, size + 1))


def _score_texts(scores: np.ndarray):
    """``repr`` of each float64 score, which is how ``json.dumps`` writes it.

    On [1e-4, 1e16) ``repr`` writes the shortest round-trip digits in
    positional notation, and so does orjson, at a fifth of the cost. Outside
    that range ``repr`` switches to an exponent and orjson does not (``1e+16``
    against ``1e16``), so a ranking with any score there takes ``repr``.
    """
    if len(scores) and scores.min() >= 1e-4 and scores.max() < 1e16:
        return orjson.dumps(scores.tolist())[1:-1].decode().split(",")
    return map(repr, scores.tolist())


def repetition_count(q0: str, expansions: list[str], lambda_: float) -> int:
    """How many times to repeat the original query against expansion dilution."""
    q0_words = len(q0.split())
    if q0_words < 1:
        raise ValueError("q0 must contain at least one word")
    total = sum(len(e.split()) for e in expansions)
    return max(1, int(total / (q0_words * lambda_)))


def render_query(state: QueryState, lambda_: float) -> str:
    """Repeated original query followed by every expansion segment in round order."""
    n = repetition_count(state.q0, state.expansions, lambda_)
    parts = [state.q0] * n + list(state.expansions)
    return " ".join(parts)


def filter_feedback(
    ranked: list[int],
    blacklist: set[int],
    prev_feedback: list[int],
    k: int,
) -> tuple[list[int], set[int]]:
    """Drop blacklisted and previous-round docs from the ranked doc ordinals.

    The first k left are the feedback; every excluded doc that was retrieved
    joins the blacklist.
    """
    excluded = blacklist | set(prev_feedback)
    feedback = list(islice((d for d in ranked if d not in excluded), k))
    return feedback, blacklist | excluded.intersection(ranked)


def _retrieve(state: QueryState, index: PostingIndex, config: PipelineConfig) -> RoundRecord:
    """The record of a retrieval at the state's rendered query."""
    rendered = render_query(state, config.lambda_)
    return RoundRecord(state.round, search_topk(index, rendered, config.retrieval_depth),
                       rendered)


def run_round(
    state: QueryState,
    corpus: Corpus,
    index: PostingIndex,
    backend: ExpansionBackend,
    config: PipelineConfig,
) -> tuple[QueryState, RoundRecord]:
    """One loop iteration: retrieval, redundancy filtering, expansion, query update."""
    record = _retrieve(state, index, config)
    ranked = record.retrieved.ordinals.tolist()
    if config.filter_enabled:
        feedback, new_blacklist = filter_feedback(
            ranked, state.blacklist, state.prev_feedback, config.top_k_feedback
        )
    else:
        feedback = ranked[:config.top_k_feedback]
        new_blacklist = set(state.blacklist)
    if not feedback:
        log.warning("round %d: no feedback documents survived filtering", state.round)
    passages = tuple(
        truncate_text(corpus.texts[o], config.prompt_doc_truncation) for o in feedback
    )
    # the generator always sees the original query, never the rendered one
    inputs = PromptInputs(query=state.q0, passages=passages)
    responses = backend.generate(inputs, config.samples_per_round)
    # a sample that ends inside <think> has no answer and adds no words; the
    # warning is the first sign that the trace ran into the token cap
    degenerate = sum(r.degenerate for r in responses)
    if degenerate:
        log.warning("round %d: %d of %d samples ended inside <think> and add no words",
                    state.round, degenerate, len(responses))
    segment = " ".join(r.answer_text for r in responses if r.answer_text)
    if config.accumulation_enabled:
        expansions = state.expansions + [segment]
    else:
        expansions = [segment]
    new_state = QueryState(
        q0=state.q0,
        expansions=expansions,
        blacklist=new_blacklist,
        prev_feedback=feedback,
        round=state.round + 1,
    )
    record.feedback_docs = [index.doc_ids[o] for o in feedback]
    record.expansion_segment = segment
    record.thinking_traces = [r.thinking_trace for r in responses]
    return new_state, record


def run_pipeline(
    q0: str,
    corpus: Corpus,
    index: PostingIndex,
    backend: ExpansionBackend,
    config: PipelineConfig,
) -> tuple[Ranking, list[RoundRecord]]:
    """Full expansion run for one query; returns final ranking and per-round trace."""
    # one shared id list, as build_index(corpus) leaves it, proves that the
    # ordinals of a ranking address the corpus's texts
    if corpus.doc_ids is not index.doc_ids:
        raise ValueError("the corpus and the index must share one doc_ids list")
    if not q0.strip():
        raise ValueError("query must be non-empty")
    state = QueryState(q0=q0)
    trace: list[RoundRecord] = []
    if config.mode == "parallel" and config.rounds > 0:
        # compute-matched parallel scaling is one round from the initial retrieval
        # with the whole sample budget; the blacklist and expansions are still
        # empty, so filtering and accumulation change nothing
        config = replace(
            config, rounds=1, samples_per_round=config.rounds * config.samples_per_round
        )
    for _ in range(config.rounds):
        state, record = run_round(state, corpus, index, backend, config)
        trace.append(record)
    # the final retrieval is part of the audit trail too
    trace.append(_retrieve(state, index, config))
    return trace[-1].retrieved, trace
