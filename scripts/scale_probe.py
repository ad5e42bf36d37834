"""Seeded scale probe: index build, save, load and search on a large synthetic corpus.

    python3 scripts/scale_probe.py                        # 200,000 passages
    python3 scripts/scale_probe.py --passages 1000000 --seed 5

Run from the root of a source tree: iterqe is imported from ``src/`` and
the corpus generator from ``perfbench/gen.py`` of the same tree (read
only), with that generator's sizes except the number of passages. A child
process writes the corpus to a temporary directory under ``$TMPDIR`` (or
the system's default), removed afterwards, so that generation leaves
nothing in the measured process. The last line of standard output is one
JSON object: wall seconds of ingest, build, save and load, the index
file's bytes, the process's peak RSS so far after ingest, build and load
and at the end, and the median ``search_topk`` milliseconds (top 1000)
for queries of 4, 50, 200 and 1000 words drawn from the corpus.

A round of the paper's loop searches every live query once. So for each
length it also times a round: one ``search_topk`` call (top 1000) for
each of ``ROUND_QUERIES`` (16) other queries of that length, spread over
a pool of one thread (``round16_ms_1t.q<words>``) and of two
(``round16_ms_2t.q<words>``); the median wall milliseconds of three
rounds. The two differ as far as a search releases the GIL.

The process's own peak after the load is the build's, so it cannot show
what loading costs. ``load_peak_rss_above_baseline_mb`` can: a fresh
spawned child, which has imported what this script imports, loads the
saved index and reports how far its peak RSS rose above its peak before
the load. The same child reports ``held_rss_after_load_mb``, what the
loaded index keeps: its RSS after the load and a ``gc.collect()``, minus
its RSS before the load.

At its default size it is not a test: 200,000 passages need about half
a gigabyte and a minute or more on two cores. Tier-1 runs it with
``--passages 2000`` (``tests/test_scale_probe.py``) to check that it
still runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
import numpy as np  # noqa: E402
from iterqe.corpus import ingest_corpus  # noqa: E402
from iterqe.index import PostingIndex, build_index, search_topk  # noqa: E402

DEFAULT_PASSAGES = 200_000
QUERY_LENGTHS = (4, 50, 200, 1000)
# passages whose words make up the query vocabulary
QUERY_SOURCE_DOCS = 2000
# queries searched in one timed round, and the thread counts it runs on
ROUND_QUERIES = 16
ROUND_THREADS = (1, 2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def own_rss_mb(field: str) -> float:
    """This process image's ``VmHWM`` (peak RSS) or ``VmRSS`` (RSS now), from Linux.

    Unlike ``ru_maxrss``, ``VmHWM`` starts again at exec, so a spawned child
    does not inherit the peak of the process that started it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith(f"{field}:"))
    return int(kib) / 1024.0


def load_in_fresh_process(index_path: str, conn) -> None:
    """Run in a fresh process: send the peak RSS that loading the index adds
    and the RSS that the loaded index holds."""
    peak_before, held_before = own_rss_mb("VmHWM"), own_rss_mb("VmRSS")
    index = PostingIndex.load(index_path)  # noqa: F841 (held while measured)
    load_peak = own_rss_mb("VmHWM") - peak_before
    gc.collect()
    conn.send((load_peak, own_rss_mb("VmRSS") - held_before))
    conn.close()


def timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def round_ms(index: PostingIndex, queries: list[str], threads: int) -> float:
    """Median wall milliseconds of three rounds that search each query once."""
    times = []
    with ThreadPoolExecutor(threads) as pool:
        for _ in range(3):
            start = time.perf_counter()
            list(pool.map(search_topk, repeat(index), queries, repeat(1000)))
            times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def probe(passages: int, seed: int, work_dir: str) -> dict:
    spawn = multiprocessing.get_context("spawn")
    child = spawn.Process(
        target=gen.generate, args=(work_dir, seed, gen.Sizes(passages=passages)))
    child.start()
    child.join()
    if child.exitcode != 0:
        sys.exit(f"error: corpus generation failed (exit code {child.exitcode})")
    corpus_path = os.path.join(work_dir, "corpus.jsonl")
    out = {"passages": passages, "seed": seed, "corpus_bytes": os.path.getsize(corpus_path),
           "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": np.__version__}}
    corpus, out["ingest_s"] = timed(ingest_corpus, corpus_path)
    out["peak_rss_after_ingest_mb"] = peak_rss_mb()
    index, out["build_s"] = timed(build_index, corpus)
    out["peak_rss_after_build_mb"] = peak_rss_mb()
    out["postings"] = int(index.offsets[-1])
    out["terms"] = len(index.term_rows)
    index_path = os.path.join(work_dir, "index.npz")
    _, out["save_s"] = timed(index.save, index_path)
    out["index_bytes"] = os.path.getsize(index_path)
    del index
    gc.collect()
    receiver, sender = spawn.Pipe(duplex=False)
    child = spawn.Process(target=load_in_fresh_process, args=(index_path, sender))
    child.start()
    sender.close()
    try:
        out["load_peak_rss_above_baseline_mb"], out["held_rss_after_load_mb"] = receiver.recv()
    except EOFError:
        sys.exit("error: loading the index in a fresh process failed")
    finally:
        child.join()
    index, out["load_s"] = timed(PostingIndex.load, index_path)
    out["peak_rss_after_load_mb"] = peak_rss_mb()

    rng = random.Random(seed)
    words = [w for text in corpus.texts[:QUERY_SOURCE_DOCS] for w in text.split()]
    for length in QUERY_LENGTHS:
        query = " ".join(rng.choice(words) for _ in range(length))
        times = [timed(search_topk, index, query, 1000)[1] for _ in range(3)]
        out[f"search_ms_q{length}"] = statistics.median(times) * 1000.0
    # drawn after the queries above, so that those stay the same
    for length in QUERY_LENGTHS:
        queries = [" ".join(rng.choice(words) for _ in range(length))
                   for _ in range(ROUND_QUERIES)]
        for threads in ROUND_THREADS:
            out[f"round{ROUND_QUERIES}_ms_{threads}t.q{length}"] = round_ms(index, queries, threads)
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passages", type=int, default=DEFAULT_PASSAGES)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    if args.passages < 1:
        parser.error("--passages must be >= 1")
    with tempfile.TemporaryDirectory(prefix="iterqe-scale-") as work_dir:
        result = probe(args.passages, args.seed, work_dir)
    for key, value in result.items():
        if key != "machine":
            print(f"{key:<32} {value:.4g}" if isinstance(value, float) else f"{key:<32} {value}")
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
