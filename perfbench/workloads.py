"""The interact and remote workloads.

Both drive the program through ``iterqe.cli.main`` in-process, on inputs
made by :mod:`gen` from the seed, and check its outputs afterwards:

* interact: ``iterqe run --mode interaction`` with the mock backend, so
  retrieval over the growing query and writing the run dominate.
* remote:   ``iterqe run --backend http --mode parallel --workers 2``
  against the fake endpoint, which runs in its own process, so generation
  dominates.

A run repeats one cycle until ``--seconds`` have passed: ``iterqe index``,
two one-query ``iterqe run`` (set-up), the full ``iterqe run``, and
three ``iterqe eval``. Interleaving the commands spreads every metric's
samples over the whole window, so a slow spell of a shared machine touches
each metric a little instead of one metric entirely.

Untraced commands are timed from outside. The only wrappers are on
``iterqe.cli.run_pipeline`` and ``iterqe.cli.build_index``: they mark where
set-up ends, where indexing starts, and time each query. A traced run then
runs every command once more with all span wrappers of :mod:`spans`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request
from dataclasses import dataclass, field

import checks
import gen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))

ROUNDS = 3
SETUP_RUNS_PER_CYCLE = 2
EVALS_PER_CYCLE = 3  # eval is short and the host's speed drifts: take more samples
MIN_CYCLES = 2
CHECKED_QUERIES = 3
PROBE_LENGTHS = (4, 50, 200, 1000)
QUALITY = {"map": "map", "ndcg_at_10": "ndcg@10", "recall_at_1000": "recall@1000"}

RUN_PIPELINE = spans.Target("pipeline", "run_pipeline", "iterqe.cli", "run_pipeline")
BUILD_INDEX = spans.Target("index", "build", "iterqe.cli", "build_index")


class BenchError(RuntimeError):
    """The benchmark cannot measure this tree (for example, a probe target is gone)."""


@dataclass
class Command:
    wall_s: float
    ok: bool
    tracer: spans.Tracer

    def root(self) -> spans.Span:
        return next(s for s in self.tracer.spans if s.parent is None)

    def named(self, name: str) -> list[spans.Span]:
        return [s for s in self.tracer.spans if s.name == name]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    checks_failed: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layer_metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def median(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Workload:
    name = ""
    mode = "interaction"
    workers = 1

    def __init__(self, work_dir: str, seed: int, seconds: float, trace: bool):
        self.work = work_dir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = Outcome()
        self.inputs = gen.generate(os.path.join(work_dir, "inputs"), seed)
        self.index_path = os.path.join(work_dir, "index.gz")
        self.run_files: list[str] = []
        self.means: dict[str, float] = {}
        self.traced = spans.Tracer()
        self.traced_run: Command | None = None
        self.server_requests = 0

    # -- invoking the program ---------------------------------------------

    def cli(self, argv: list[str], probes: list[spans.Target],
            tracer: spans.Tracer | None = None) -> Command:
        """Run one ``iterqe`` command in-process; its stdout is discarded.

        Without a tracer only ``probes`` are wrapped, and they must exist.
        """
        from iterqe.cli import main

        if tracer is None:
            tracer = spans.Tracer()
            tracer.install(probes)
            if tracer.missing:
                tracer.uninstall()
                raise BenchError(f"cannot time the program: {tracer.missing} no longer exist")
        else:
            tracer.install()
        gc.collect()  # leave the previous command's garbage out of this one's time
        start = time.perf_counter()
        ok = True
        try:
            with tracer.command(argv[0]), contextlib.redirect_stdout(io.StringIO()):
                main.main(argv, prog_name="iterqe", standalone_mode=False)
        except Exception:  # the program failed: count it and keep measuring
            ok = False
            self.out.notes.append(f"iterqe {argv[0]} failed:\n{traceback.format_exc()}")
        finally:
            tracer.uninstall()
        return Command(time.perf_counter() - start, ok, tracer)

    def index(self, tracer: spans.Tracer | None = None) -> Command:
        cmd = self.cli(["index", "--corpus", self.inputs.corpus_path,
                        "--out", self.index_path, "--force"], [BUILD_INDEX], tracer)
        self.out.attempted += 1
        if not cmd.ok:
            self.out.failed += 1
        elif tracer is None:
            build = cmd.named("build")[0]
            self.out.sample("index_docs_per_s",
                            self.inputs.sizes.passages / (cmd.root().end - build.start))
        return cmd

    def run_args(self, queries_path: str, out_dir: str, rounds: int) -> list[str]:
        return ["run", "--corpus", self.inputs.corpus_path, "--index", self.index_path,
                "--queries", queries_path, "--out-dir", out_dir,
                "--rounds", str(rounds), "--mode", self.mode,
                "--workers", str(self.workers)]

    def run(self, out_dir: str, rounds: int, queries_path: str | None = None,
            tracer: spans.Tracer | None = None) -> Command:
        """One ``iterqe run``; untraced, it samples the time to the first query."""
        queries_path = queries_path or self.inputs.queries_path
        with open(queries_path, encoding="utf-8") as fh:
            n_queries = sum(1 for line in fh if line.strip())
        cmd = self.cli(self.run_args(queries_path, out_dir, rounds), [RUN_PIPELINE], tracer)
        self.out.attempted += n_queries
        if not cmd.ok:
            self.out.failed += n_queries
        elif tracer is None:
            first = min(s.start for s in cmd.named("run_pipeline"))
            self.out.sample("run_setup_s", first - cmd.root().start)
        return cmd

    def eval(self, run_path: str, tracer: spans.Tracer | None = None) -> Command:
        json_path = os.path.join(self.work, "eval.json")
        cmd = self.cli(["eval", "--run", run_path, "--qrels", self.inputs.qrels_path,
                        "--json", json_path], [], tracer)
        self.out.attempted += 1
        if not cmd.ok:
            self.out.failed += 1
        elif tracer is None:
            self.out.sample("eval_s", cmd.wall_s)
            self.means = self.check("eval output", checks.read_means, json_path) or {}
        return cmd

    def check(self, label: str, fn, *args):
        """A failed check counts as a failed operation, whatever it raised."""
        self.out.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a broken program must still give a result line
            self.out.failed += 1
            self.out.checks_failed.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    # -- phases -----------------------------------------------------------

    def measure(self) -> None:
        """Index, set-up, run and eval cycles until the deadline."""
        one = os.path.join(self.work, "one_query.tsv")
        with open(self.inputs.queries_path, encoding="utf-8") as src, \
                open(one, "w", encoding="utf-8") as dst:
            dst.write(src.readline())
        deadline = time.perf_counter() + self.seconds
        for cycle in itertools.count():
            if not self.index().ok:
                return
            for i in range(SETUP_RUNS_PER_CYCLE):
                self.run(os.path.join(self.work, f"setup{cycle}.{i}"), 0, one)
            out_dir = os.path.join(self.work, f"run{cycle}")
            cmd = self.run(out_dir, ROUNDS)
            if not cmd.ok:
                return
            self.out.sample("qps", self.inputs.sizes.queries / cmd.wall_s)
            latencies = [s.duration * 1000.0 for s in cmd.named("run_pipeline")]
            self.out.sample("query_p50_ms", median(latencies))
            self.out.sample("query_p90_ms", p90(latencies))
            run_path = os.path.join(out_dir, "iterqe.run.txt")
            self.run_files.append(run_path)
            for _ in range(EVALS_PER_CYCLE):
                if not self.eval(run_path).ok:
                    return
            if cycle + 1 >= MIN_CYCLES and time.perf_counter() >= deadline:
                break
        self.summary_metrics()

    def summary_metrics(self) -> None:
        s = self.out.samples
        self.out.metrics.update({
            "setup_s": (median(s["run_setup_s"]), "s"),
            "index_docs_per_s": (median(s["index_docs_per_s"]), "1/s"),
            "index_bytes_per_corpus_byte": (
                os.path.getsize(self.index_path) / self.inputs.corpus_bytes, "ratio"),
            "qps": (median(s["qps"]), "1/s"),
            # Per-cycle quantiles, then their median: one slow cycle cannot
            # move the result as far as it moves a pooled p90.
            "query_p50_ms": (median(s["query_p50_ms"]), "ms"),
            "query_p90_ms": (median(s["query_p90_ms"]), "ms"),
            "eval_s": (median(s["eval_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        })
        # A quality mean that eval did not report is left out; the quality
        # check then fails the run.
        for metric, key in QUALITY.items():
            if key in self.means:
                self.out.metrics[metric] = (self.means[key], "ratio")

    def execute(self) -> Outcome:
        self.measure()
        if self.run_files:
            self.verify()
            if self.trace:
                self.traced_pass()
        return self.out

    # -- output checks --------------------------------------------------------

    def records_per_query(self) -> int:
        """Round records plus the final retrieval; parallel mode has one round."""
        return 2 if self.mode == "parallel" else ROUNDS + 1

    def verify(self) -> None:
        """Untimed checks on the files of the first run."""
        run_path = self.run_files[0]
        out_dir = os.path.dirname(run_path)
        digest = checks.sha256_file(run_path)
        self.out.notes.append(f"run_sha256 seed={self.seed} {digest}")
        for other in self.run_files[1:]:
            self.check("deterministic run", checks.require,
                       checks.sha256_file(other) == digest, f"{other} differs from {run_path}")
        finals = self.check("trace", checks.check_trace,
                            os.path.join(out_dir, "iterqe.trace.jsonl"), run_path,
                            self.inputs.query_ids, self.records_per_query()) or []
        self.check("run round trip", checks.check_round_trip, run_path,
                   os.path.join(self.work, "roundtrip.run.txt"))
        self.check("quality", checks.check_quality, self.means, run_path,
                   self.inputs.qrels_path)
        rankers = self.check("brute-force BM25 set-up", self.rankers) if finals else None
        if rankers is None:
            return
        brute, search = rankers
        for i in sorted(random.Random(self.seed).sample(range(len(finals)), CHECKED_QUERIES)):
            qid, query = finals[i]["query_id"], finals[i]["rendered_query"]
            depth = len(finals[i]["retrieved"])
            self.check(f"brute-force BM25 {qid}", lambda: checks.check_ranking(
                brute.rank(query, depth), search(query, depth), qid))

    def rankers(self):
        """Brute-force BM25 over the corpus, and ``search_topk`` over the saved index."""
        from iterqe.index import PostingIndex, search_topk

        index = PostingIndex.load(self.index_path)
        return (checks.BruteForceBm25(self.inputs.corpus_path),
                lambda query, depth: search_topk(index, query, depth))

    # -- traced pass ----------------------------------------------------------

    def requests_served(self) -> int:
        """Completion requests the generation endpoint has counted so far."""
        return 0

    def traced_pass(self) -> None:
        """Every command once more with all span wrappers installed."""
        import layers

        self.index(self.traced)
        out_dir = os.path.join(self.work, "traced")
        before = self.requests_served()
        self.traced_run = self.run(out_dir, ROUNDS, tracer=self.traced)
        self.server_requests = self.requests_served() - before
        self.out.notes.extend(f"trace target missing: {m}" for m in self.traced.missing)
        if not self.traced_run.ok:
            return
        run_path = os.path.join(out_dir, "iterqe.run.txt")
        self.check("traced run identical", checks.require,
                   checks.sha256_file(run_path) == checks.sha256_file(self.run_files[0]),
                   "the traced run differs from the untraced one")
        self.eval(run_path, self.traced)
        self.out.layer_metrics.update(self.check("per-layer metrics", layers.per_layer,
                                                 self, run_path) or {})

    def probe_search(self) -> dict[str, float]:
        """Median ``search_topk`` time for queries of fixed word counts."""
        from iterqe.index import PostingIndex, search_topk

        index = PostingIndex.load(self.index_path)
        rng = random.Random(self.seed)
        with open(self.inputs.corpus_path, encoding="utf-8") as fh:
            words = [w for line in fh for w in json.loads(line)["contents"].split()]
        out = {}
        for length in PROBE_LENGTHS:
            query = " ".join(rng.choice(words) for _ in range(length))
            times = []
            for _ in range(3):
                start = time.perf_counter()
                search_topk(index, query, 1000)
                times.append(time.perf_counter() - start)
            out[f"q{length}"] = median(times) * 1000.0
        return out


class Interact(Workload):
    name = "interact"


class Remote(Interact):
    name = "remote"
    mode = "parallel"
    workers = 2

    def run_args(self, queries_path: str, out_dir: str, rounds: int) -> list[str]:
        return super().run_args(queries_path, out_dir, rounds) + [
            "--backend", "http", "--base-url", self.base_url, "--model", "fake-reasoner"]

    def requests_served(self) -> int:
        # Loopback only: never route through a proxy from the environment.
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"{self.base_url}/stats", timeout=10) as resp:
            return json.load(resp)["requests"]

    def execute(self) -> Outcome:
        """Serve the fake endpoint from its own process for the whole workload."""
        os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "fake_endpoint.py")],
            stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            line = proc.stdout.readline() if ready else ""
            if not line.startswith("listening "):
                raise BenchError("fake endpoint did not start")
            self.base_url = f"http://127.0.0.1:{int(line.split()[1])}/v1"
            return super().execute()
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


WORKLOADS = {w.name: w for w in (Interact, Remote)}
