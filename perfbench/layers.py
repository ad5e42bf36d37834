"""Per-layer metrics from the spans of a workload's traced pass.

Each metric names the end-to-end metric it should move (see BENCHMARK.json
and the README in this directory). A metric whose span target no longer
exists in the program is left out, and the run says which targets are
missing.
"""

from __future__ import annotations

import json
import os
import statistics

import spans


def _feedback(trace_path: str) -> tuple[float, float, float]:
    """Mean final-query words, and mean feedback docs kept and filtered per round."""
    final_words, kept, filtered, rounds, queries = 0, 0, 0, 0, 0
    by_query: dict[str, list[dict]] = {}
    with open(trace_path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            by_query.setdefault(record["query_id"], []).append(record)
    for records in by_query.values():
        queries += 1
        final_words += len(records[-1]["rendered_query"].split())
        for record in records[:-1]:
            ids = [h["doc_id"] for h in record["retrieved"]]
            fb = record["feedback_docs"]
            rounds += 1
            kept += len(fb)
            # Filtered: retrieved documents skipped before the last one kept.
            if fb:
                filtered += max(ids.index(d) for d in fb) + 1 - len(fb)
    per_round = max(rounds, 1)
    return final_words / max(queries, 1), kept / per_round, filtered / per_round


def per_layer(w, run_path: str) -> dict[str, tuple[float, str]]:
    tracer = w.traced
    stats = spans.summarise(tracer)
    installed = tracer.installed_names
    kids = tracer.children()
    empty = spans.LayerStats()

    def get(command: str, layer: str, name: str) -> spans.LayerStats:
        return stats.get((command, layer, name), empty)

    def across(layer: str, name: str) -> list[spans.Span]:
        return [s for (_, lay, nm), st in stats.items() if (lay, nm) == (layer, name)
                for s in st.spans]

    def mean_duration(layer: str, name: str) -> float:
        found = across(layer, name)
        return sum(s.duration for s in found) / len(found) if found else 0.0

    def value(st: spans.LayerStats, i: int = 0) -> int:
        return st.values[i] if len(st.values) > i else 0

    m: dict[str, tuple[float, str, tuple[str, str]]] = {}

    def put(name: str, val: float, unit: str, needs: tuple[str, str]) -> None:
        m[name] = (val, unit, needs)

    put("corpus.ingest_s", mean_duration("corpus", "ingest"), "s", ("corpus", "ingest"))
    trunc = get("run", "corpus", "truncate")
    put("corpus.truncate_calls", trunc.calls, "count", ("corpus", "truncate"))
    put("corpus.truncate_s", trunc.total_s, "s", ("corpus", "truncate"))

    # Query analysis inside `iterqe run`, and passage analysis inside `iterqe index`.
    for prefix, command in (("analysis.", "run"), ("analysis.index.", "index")):
        an = get(command, "analysis", "analyze")
        put(prefix + "analyze_calls", an.calls, "count", ("analysis", "analyze"))
        put(prefix + "terms_out", value(an), "count", ("analysis", "analyze"))
        put(prefix + "analyze_s", an.self_s, "s", ("analysis", "analyze"))
        put(prefix + "terms_per_s", value(an) / an.self_s if an.self_s else 0.0, "1/s",
            ("analysis", "analyze"))
    query_an = get("run", "analysis", "analyze")

    put("index.build_s", get("index", "index", "build").self_s, "s", ("index", "build"))
    put("index.save_s", get("index", "index", "save").total_s, "s", ("index", "save"))
    put("index.bytes", os.path.getsize(w.index_path), "bytes", ("index", "save"))
    put("index.load_s", mean_duration("index", "load"), "s", ("index", "load"))
    search = get("run", "index", "search")
    terms = sum(k.values[0] for s in search.spans for k in kids.get(s.sid, [])
                if k.name == "analyze" and k.values)
    put("index.search_calls", search.calls, "count", ("index", "search"))
    put("index.search_s", search.self_s, "s", ("index", "search"))
    put("index.search_terms_mean", terms / search.calls if search.calls else 0.0, "count",
        ("index", "search"))

    gen = get("run", "expansion", "generate")
    samples, answered = value(gen, 0), value(gen, 1)
    put("expansion.generate_calls", gen.calls, "count", ("expansion", "generate"))
    put("expansion.samples", samples, "count", ("expansion", "generate"))
    put("expansion.generate_s", gen.total_s, "s", ("expansion", "generate"))
    put("expansion.build_prompt_s", get("run", "expansion", "build_prompt").total_s, "s",
        ("expansion", "build_prompt"))
    put("expansion.answer_share", answered / samples if samples else 0.0, "ratio",
        ("expansion", "generate"))
    put("expansion.server_requests", w.server_requests, "count", ("expansion", "generate"))
    retries = w.server_requests - gen.calls if w.server_requests else 0
    put("expansion.retries", retries, "count", ("expansion", "generate"))

    pipe = get("run", "pipeline", "run_pipeline")
    trace_path = os.path.join(os.path.dirname(run_path), "iterqe.trace.jsonl")
    final_words, kept, filtered = _feedback(trace_path)
    put("pipeline.self_s", pipe.self_s, "s", ("pipeline", "run_pipeline"))
    put("pipeline.final_query_words", final_words, "words", ("cli", "run"))
    put("pipeline.feedback_kept", kept, "count", ("cli", "run"))
    put("pipeline.feedback_filtered", filtered, "count", ("cli", "run"))

    add = get("run", "evaluate", "run_add")
    put("evaluate.run_add_calls", add.calls, "count", ("evaluate", "run_add"))
    put("evaluate.run_add_s", add.total_s, "s", ("evaluate", "run_add"))
    put("evaluate.run_write_s", get("run", "evaluate", "run_write").total_s, "s",
        ("evaluate", "run_write"))
    put("evaluate.run_read_s", get("eval", "evaluate", "run_read").total_s, "s",
        ("evaluate", "run_read"))
    put("evaluate.evaluate_run_s", get("eval", "evaluate", "evaluate_run").total_s, "s",
        ("evaluate", "evaluate_run"))

    command = get("run", "cli", "run")
    wall = command.total_s
    if wall:
        worker_s = wall * w.workers
        shares = {"expansion.generate": gen.total_s, "index.search": search.total_s,
                  "analysis.analyze (in search)": query_an.total_s,
                  "evaluate.run_add": add.total_s, "cli self": command.self_s}
        w.out.notes.append(
            f"traced iterqe run: {wall:.3f} s wall x {w.workers} workers; share of worker "
            "time: " + ", ".join(f"{k} {v / worker_s:.3f}" for k, v in shares.items()))
    put("cli.self_s", command.self_s, "s", ("cli", "run"))
    put("cli.trace_bytes", os.path.getsize(trace_path), "bytes", ("cli", "run"))
    put("cli.run_bytes", os.path.getsize(run_path), "bytes", ("cli", "run"))
    put("cli.worker_busy_share", pipe.total_s / (wall * w.workers) if wall else 0.0, "ratio",
        ("pipeline", "run_pipeline"))

    try:
        probe = w.probe_search()
    except (ImportError, AttributeError) as exc:
        w.out.notes.append(f"search probe missing: {exc}")
        probe = {}
    for length, ms in probe.items():
        put(f"index.search_ms.{length}", ms, "ms", ("cli", "run"))

    untraced_qps = statistics.median(w.out.samples["qps"])
    traced_qps = w.inputs.sizes.queries / w.traced_run.wall_s
    put("trace.overhead", (untraced_qps - traced_qps) / untraced_qps, "ratio", ("cli", "run"))

    installed = installed | {("cli", "run")}
    return {name: (val, unit) for name, (val, unit, needs) in m.items() if needs in installed}
