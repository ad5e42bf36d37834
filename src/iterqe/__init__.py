"""Iterative thinking-based query expansion over BM25 with TREC evaluation."""

from .corpus import Corpus, ingest_corpus, truncate_text
from .evaluate import Qrels, RunFile, average_precision, evaluate_run, ndcg_at_k, recall_at_k
from .expansion import (
    ChatCompletionsBackend,
    ExpansionResponse,
    GenerationParams,
    MockBackend,
    PromptInputs,
    build_prompt,
    strip_thinking,
)
from .index import Bm25Params, PostingIndex, Ranking, ScoredHit, build_index, search_topk
from .pipeline import (
    PipelineConfig,
    QueryState,
    RoundRecord,
    filter_feedback,
    render_query,
    repetition_count,
    run_pipeline,
    run_round,
)

__version__ = "0.1.0"
