"""Command-line entry points: index, run, eval, ablate."""

from __future__ import annotations

import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import click

from . import expansion
from .corpus import FORMATS, ingest_corpus
from .evaluate import (RELEVANCE_THRESHOLD, Qrels, RunFile, evaluate_run, is_run_field,
                       run_lines, utf8_text)
from .expansion import ChatCompletionsBackend, GenerationParams, MockBackend
from .index import Bm25Params, PostingIndex, build_index
from .pipeline import PipelineConfig, run_pipeline


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with utf8_text(path, click.ClickException) as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:
            raise click.ClickException(f"{path}: not a JSON config file: {exc}")
    if not isinstance(config, dict):
        raise click.ClickException(f"{path}: the config must be a JSON object")
    return config


def _read_queries(path: str) -> list[tuple[str, str]]:
    """``(qid, text)`` pairs sorted by qid, the order in which queries run and are written."""
    queries = {}
    with utf8_text(path, click.ClickException) as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t", 1)
            if len(parts) != 2:
                raise click.ClickException(f"{path}:{line_no}: expected qid<TAB>text")
            if not is_run_field(parts[0]):
                raise click.ClickException(f"{path}:{line_no}: query id {parts[0]!r} "
                                           "is empty or contains whitespace")
            if not parts[1].strip():
                raise click.ClickException(f"{path}:{line_no}: empty query text")
            if parts[0] in queries:
                raise click.ClickException(f"{path}:{line_no}: duplicate query id {parts[0]!r}")
            queries[parts[0]] = parts[1]
    return sorted(queries.items())


def _prompt_template_hash() -> str:
    blob = (expansion.PROMPT_HEADER + expansion.PROMPT_FOOTER).encode()
    return hashlib.sha256(blob).hexdigest()


class _Commands(click.Group):
    """The one error boundary: a ValueError or OSError is bad input, an ``Error:`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
def main():
    """Iterative thinking-based query expansion over a BM25 index."""


# an existing file; a directory is refused by click instead of raising on open
INPUT_FILE = click.Path(exists=True, dir_okay=False)
CORPUS_FORMAT = click.option("--format", "fmt", type=click.Choice(FORMATS), default=FORMATS[0])
BACKENDS = ("mock", "http")


@main.command("index")
@click.option("--corpus", "corpus_path", required=True, type=INPUT_FILE)
@CORPUS_FORMAT
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--k1", type=float, default=Bm25Params.k1, show_default=True)
@click.option("--b", type=float, default=Bm25Params.b, show_default=True)
@click.option("--force", is_flag=True, help="Overwrite an existing index file.")
def cmd_index(corpus_path, fmt, out_path, k1, b, force):
    """Ingest a corpus and persist a BM25 index."""
    if os.path.exists(out_path) and not force:
        raise click.ClickException(f"{out_path} exists; pass --force to rebuild")
    out_dir = os.path.dirname(os.path.abspath(out_path))
    if not os.path.isdir(out_dir):
        raise click.ClickException(f"output directory not found: {out_dir}")
    params = Bm25Params(k1=k1, b=b)
    index = build_index(ingest_corpus(corpus_path, fmt), params)
    index.save(out_path)
    click.echo(
        f"indexed doc_count={index.doc_count} term_count={len(index.term_rows)} "
        f"avg_doc_length={index.avg_doc_length:.2f} -> {out_path}"
    )


def _pipeline_options(fn):
    opts = [
        click.option("--config", "config_path", type=INPUT_FILE, default=None),
        click.option("--corpus", "corpus_path", required=True, type=INPUT_FILE),
        CORPUS_FORMAT,
        click.option("--index", "index_path", required=True, type=INPUT_FILE),
        click.option("--queries", "queries_path", required=True, type=INPUT_FILE),
        click.option("--out-dir", required=True, type=click.Path(file_okay=False)),
        click.option("--rounds", type=int, default=None),
        click.option("--samples", type=int, default=None),
        click.option("--top-k", type=int, default=None),
        click.option("--truncate", type=int, default=None),
        click.option("--lambda", "lambda_", type=float, default=None),
        click.option("--depth", type=int, default=None),
        click.option("--backend", type=click.Choice(BACKENDS), default=None),
        click.option("--mock-mode", type=click.Choice(MockBackend.MODES), default=None),
        click.option("--fixed-text", default=None),
        click.option("--seed", type=int, default=None),
        click.option("--base-url", default=None),
        click.option("--model", default=None),
        click.option("--key-env", default=None),
        click.option("--thinking-mode", type=click.Choice(GenerationParams.THINKING_MODES),
                     default=None),
        click.option("--temperature", type=float, default=None),
        click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


# run config key -> the PipelineConfig, GenerationParams or MockBackend field it
# sets; the defaults of those classes are the defaults of the config
PIPELINE_KEYS = {
    "rounds": "rounds", "samples": "samples_per_round", "top_k": "top_k_feedback",
    "truncate": "prompt_doc_truncation", "lambda_": "lambda_", "depth": "retrieval_depth",
    "mode": "mode", "accumulation_enabled": "accumulation_enabled",
    "filter_enabled": "filter_enabled",
}
GENERATION_KEYS = {"thinking_mode": "thinking_mode", "temperature": "temperature"}
MOCK_KEYS = {"mock_mode": "mode", "fixed_text": "fixed_text", "seed": "seed"}


def _resolve_run_config(config_path, kwargs) -> dict:
    file_cfg = _load_config_file(config_path)
    defaults = {
        **{key: getattr(PipelineConfig, f) for key, f in PIPELINE_KEYS.items()},
        **{key: getattr(GenerationParams, f) for key, f in GENERATION_KEYS.items()},
        **{key: getattr(MockBackend, f) for key, f in MOCK_KEYS.items()},
        "backend": "mock", "base_url": "", "model": "", "key_env": "ITERQE_API_KEY",
    }
    unknown = [key for key in file_cfg if key not in defaults]
    if unknown:
        raise click.ClickException(
            f"{config_path}: unknown config keys {', '.join(map(repr, unknown))}; "
            f"the keys are {', '.join(defaults)}"
        )
    for key, value in file_cfg.items():
        # a value has its default's type, save that an integer serves for a float
        expected = type(defaults[key])
        if type(value) is not expected and (expected, type(value)) != (float, int):
            raise click.ClickException(f"{config_path}: config key {key!r} must be "
                                       f"{expected.__name__}, not {json.dumps(value)}")
    # a flag wins over the config file, the config file over the built-in default
    cfg = {key: file_cfg.get(key, default) if kwargs.get(key) is None else kwargs[key]
           for key, default in defaults.items()}
    if cfg["backend"] not in BACKENDS:
        raise click.ClickException(f"unknown backend {cfg['backend']!r}; "
                                   f"the backends are {', '.join(BACKENDS)}")
    if cfg["backend"] == "http" and not cfg["base_url"]:
        raise click.ClickException("--base-url is required with the http backend")
    return cfg


def _build_run(cfg: dict):
    """Pipeline config and a backend holding the generation parameters; bad values fail here."""
    pipe_cfg = PipelineConfig(**{f: cfg[key] for key, f in PIPELINE_KEYS.items()})
    params = GenerationParams(**{f: cfg[key] for key, f in GENERATION_KEYS.items()})
    if cfg["backend"] == "mock":
        backend = MockBackend(**{f: cfg[key] for key, f in MOCK_KEYS.items()}, params=params)
    else:
        api_key = os.environ.get(cfg["key_env"], "") if cfg["key_env"] else ""
        backend = ChatCompletionsBackend(
            base_url=cfg["base_url"], model=cfg["model"], api_key=api_key, params=params
        )
    return pipe_cfg, backend


def _load_inputs(corpus_path, fmt, index_path, queries_path):
    corpus = ingest_corpus(corpus_path, fmt)
    index = PostingIndex.load(index_path)
    # the corpus must hold every passage the index names; both number them in id order
    if corpus.doc_ids != index.doc_ids:
        raise click.ClickException(
            f"{corpus_path} is not the corpus {index_path} was built from (their passage "
            "ids differ); rebuild the index with `iterqe index`"
        )
    # equal lists: keep one, which run_pipeline requires
    corpus.doc_ids = index.doc_ids
    return corpus, index, _read_queries(queries_path)


def _execute_batch(corpus, index, queries, cfg, pipe_cfg, backend, out_dir, run_name,
                   workers):
    """Run the pipeline over all queries and write run/trace/metadata files.

    Queries run in the given order, qid order from ``_read_queries``; each
    query's run and trace lines are written as its result arrives, so a failed
    query leaves the queries before it in both files. The sample count is the
    thinking traces written, on this thread. Returns the run file's path, the
    metadata and each query's ranked doc ids, kept as they are written.
    """
    os.makedirs(out_dir, exist_ok=True)

    def one(item):
        qid, text = item
        return run_pipeline(text, corpus, index, backend, pipe_cfg)

    run_path = os.path.join(out_dir, f"{run_name}.run.txt")
    trace_path = os.path.join(out_dir, f"{run_name}.trace.jsonl")
    with open(run_path, "w", encoding="utf-8") as rf, \
            open(trace_path, "w", encoding="utf-8") as tf:
        rankings = {}

        def write(results) -> int:
            samples = 0
            for (qid, _), (final, trace) in zip(queries, results):
                rankings[qid] = final.doc_ids()  # cached: the run line reads the same list
                rf.write(run_lines(qid, final.doc_ids(), final.scores.tolist(), run_name))
                for record in trace:
                    tf.write(record.trace_line(qid) + "\n")
                    samples += len(record.thinking_traces)
            return samples

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                samples = write(pool.map(one, queries))
        else:
            samples = write(map(one, queries))

    metadata = {
        "run_name": run_name,
        "config": {**cfg, "pipeline": asdict(pipe_cfg)},
        "prompt_template_sha256": _prompt_template_hash(),
        "backend": backend.describe(),
        "generation_calls": samples,
        "query_count": len(queries),
    }
    meta_path = os.path.join(out_dir, f"{run_name}.metadata.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
    return run_path, metadata, rankings


@main.command("run")
@_pipeline_options
@click.option("--mode", type=click.Choice(PipelineConfig.MODES), default=None)
@click.option("--no-accumulation", "accumulation_enabled", flag_value=False, default=None)
@click.option("--no-filter", "filter_enabled", flag_value=False, default=None)
@click.option("--run-name", default="iterqe")
def cmd_run(config_path, corpus_path, fmt, index_path, queries_path, out_dir,
            workers, run_name, **kwargs):
    """Execute the expansion pipeline over a query set and write a TREC run."""
    if not is_run_field(run_name):  # the tag field of every run line
        raise click.BadParameter(f"{run_name!r} is empty or contains whitespace",
                                 param_hint="--run-name")
    if os.path.dirname(run_name):  # it names the files written in --out-dir
        raise click.BadParameter(f"{run_name!r} contains a path separator",
                                 param_hint="--run-name")
    cfg = _resolve_run_config(config_path, kwargs)
    pipe_cfg, backend = _build_run(cfg)
    corpus, index, queries = _load_inputs(corpus_path, fmt, index_path, queries_path)
    run_path, metadata, _ = _execute_batch(
        corpus, index, queries, cfg, pipe_cfg, backend, out_dir, run_name, workers
    )
    click.echo(
        f"wrote {run_path} ({metadata['query_count']} queries, "
        f"{metadata['generation_calls']} generation calls)"
    )


@main.command("eval")
@click.option("--run", "run_path", required=True, type=INPUT_FILE)
@click.option("--qrels", "qrels_path", required=True, type=INPUT_FILE)
@click.option("--threshold", type=int, default=RELEVANCE_THRESHOLD, show_default=True,
              help="Minimum grade counted as relevant for mAP/recall.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def cmd_eval(run_path, qrels_path, threshold, json_path):
    """Score a TREC run against qrels (mAP, nDCG@10, Recall@1000)."""
    result = evaluate_run(RunFile.read(run_path).ranked(), Qrels.read(qrels_path),
                          binary_threshold=threshold)
    # the JSON first: a --json that cannot be written prints no table before its error
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump({"per_query": result.per_query, "means": result.means}, fh, indent=2)
    metrics = list(result.means)
    click.echo(f"{'query':<12}" + "".join(f"{m:>14}" for m in metrics))
    for qid in sorted(result.per_query):
        row = result.per_query[qid]
        click.echo(f"{qid:<12}" + "".join(f"{row[m]:>14.4f}" for m in metrics))
    click.echo(f"{'mean':<12}" + "".join(f"{result.means[m]:>14.4f}" for m in metrics))


ABLATION_CELLS = {
    "full": {"accumulation_enabled": True, "filter_enabled": True, "mode": "interaction"},
    "accum_only": {"accumulation_enabled": True, "filter_enabled": False, "mode": "interaction"},
    "filter_only": {"accumulation_enabled": False, "filter_enabled": True, "mode": "interaction"},
    "parallel": {"accumulation_enabled": True, "filter_enabled": True, "mode": "parallel"},
}


@main.command("ablate")
@_pipeline_options
@click.option("--qrels", "qrels_path", type=INPUT_FILE, default=None)
@click.option("--cells", default=",".join(ABLATION_CELLS),
              show_default=True, help="Comma-separated ablation cells to execute.")
def cmd_ablate(config_path, corpus_path, fmt, index_path, queries_path, out_dir,
               workers, qrels_path, cells, **kwargs):
    """Run the accumulation/filter ablation grid plus the parallel-scaling baseline."""
    cell_names = [c.strip() for c in cells.split(",") if c.strip()]
    if not cell_names:
        raise click.ClickException("--cells names no ablation cell")
    unknown = [c for c in cell_names if c not in ABLATION_CELLS]
    if unknown:
        raise click.ClickException(f"unknown ablation cells: {', '.join(unknown)}")
    if len(set(cell_names)) < len(cell_names):  # a cell's second run would overwrite its first
        raise click.ClickException("--cells names a cell more than once")
    base_cfg = _resolve_run_config(config_path, kwargs)
    cell_runs = []
    for cell in cell_names:
        cfg = {**base_cfg, **ABLATION_CELLS[cell]}
        cell_runs.append((cell, cfg, *_build_run(cfg)))
    corpus, index, queries = _load_inputs(corpus_path, fmt, index_path, queries_path)
    qrels = Qrels.read(qrels_path) if qrels_path else None
    if qrels is not None and not set(qrels.judgments).intersection(qid for qid, _ in queries):
        raise click.ClickException(f"{qrels_path} shares no query id with {queries_path}")

    summary = []
    for cell, cfg, pipe_cfg, backend in cell_runs:
        run_path, metadata, rankings = _execute_batch(
            corpus, index, queries, cfg, pipe_cfg, backend, out_dir, f"ablate_{cell}", workers
        )
        row = {"cell": cell, "run": run_path,
               "generation_calls": metadata["generation_calls"]}
        if qrels is not None:
            row.update(evaluate_run(rankings, qrels).means)
        summary.append(row)

    cols = list(summary[0])
    click.echo("  ".join(f"{c:<18}" for c in cols))
    for row in summary:
        click.echo("  ".join(
            f"{row[c]:<18.4f}" if isinstance(row[c], float) else f"{str(row[c]):<18}"
            for c in cols
        ))
    with open(os.path.join(out_dir, "ablation_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)


if __name__ == "__main__":
    sys.exit(main())
