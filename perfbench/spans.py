"""In-memory spans around the calls into each iterqe layer.

A :class:`Tracer` replaces functions where their caller module binds them
(``iterqe.cli.run_pipeline``, ``iterqe.pipeline.search_topk``,
``iterqe.index.analyze``, ...) with wrappers that record one span per call:
layer, name, start, end, parent span and a small integer payload. A target
that no longer exists is listed in :attr:`Tracer.missing` instead of failing,
so internals can be renamed without breaking the benchmark; the metrics that
depend on it are then reported as missing.

Spans are kept in a list and only summarised after the traced work ends.
Self time is a span's duration minus the union of its children's intervals,
so overlapping children from worker threads are not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    values: tuple[int, ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """``module:attr.path`` of a callable, with the layer and span name it gets."""

    layer: str
    name: str
    module: str
    attr: str
    # Maps the call's result to the span's integer payload (terms, samples, ...).
    measure: Callable[[object], tuple[int, ...]] | None = None


def _count(result) -> tuple[int, ...]:
    return (len(result),)


def _samples(responses) -> tuple[int, ...]:
    return len(responses), sum(1 for r in responses if r.answer_text)


# Where each layer's public functions are bound by the code that calls them.
TARGETS = [
    Target("corpus", "ingest", "iterqe.cli", "ingest_corpus"),
    Target("corpus", "truncate", "iterqe.pipeline", "truncate_text"),
    Target("analysis", "analyze", "iterqe.index", "analyze", _count),
    Target("index", "build", "iterqe.cli", "build_index"),
    Target("index", "save", "iterqe.index", "PostingIndex.save"),
    Target("index", "load", "iterqe.index", "PostingIndex.load"),
    Target("index", "search", "iterqe.pipeline", "search_topk"),
    Target("expansion", "generate", "iterqe.expansion", "MockBackend.generate", _samples),
    Target("expansion", "generate", "iterqe.expansion", "ChatCompletionsBackend.generate",
           _samples),
    Target("expansion", "build_prompt", "iterqe.expansion", "build_prompt"),
    Target("pipeline", "run_pipeline", "iterqe.cli", "run_pipeline"),
    Target("evaluate", "run_add", "iterqe.evaluate", "RunFile.add"),
    Target("evaluate", "run_write", "iterqe.evaluate", "RunFile.write"),
    Target("evaluate", "run_read", "iterqe.evaluate", "RunFile.read"),
    Target("evaluate", "evaluate_run", "iterqe.cli", "evaluate_run"),
]


class Tracer:
    """Installs span wrappers, records spans per thread, and restores the program."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None
        self._installed: list[tuple[object, str, object]] = []
        self.installed_names: set[tuple[str, str]] = set()

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        # A worker thread's first span is caused by the command that started it.
        parent = stack[-1] if stack else self._root
        span = Span(next(self._ids), parent.sid if parent else None, layer, name,
                    time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def command(self, name: str):
        """Root span of one CLI command; worker-thread spans attach to it."""
        span = self.open("cli", name)
        self._root = span
        try:
            yield span
        finally:
            self._root = None
            self.close(span)

    def wrap(self, target: Target, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(target.layer, target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if target.measure is not None:
                span.values = target.measure(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, targets: list[Target] = TARGETS) -> None:
        self.missing = []
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self.wrap(target, raw.__func__))
            elif callable(raw):
                replacement = self.wrap(target, raw)
            else:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            self._installed.append((owner, attr, raw))
            self.installed_names.add((target.layer, target.name))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    # -- summaries --------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out


def covered(span: Span, kids: list[Span]) -> float:
    """Length of the part of span's interval that the union of kids covers."""
    total = 0.0
    cursor = span.start
    for kid in sorted(kids, key=lambda s: s.start):
        lo, hi = max(kid.start, cursor), min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    values: list[int] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)


def summarise(tracer: Tracer) -> dict[tuple[str, str, str], LayerStats]:
    """Calls, inclusive time, self time and payload sums per (command, layer, name).

    The command is the name of the root span the span descends from.
    """
    kids = tracer.children()
    by_id = {span.sid: span for span in tracer.spans}

    def command(span: Span) -> str:
        while span.parent is not None:
            span = by_id[span.parent]
        return span.name

    stats: dict[tuple[str, str, str], LayerStats] = {}
    for span in tracer.spans:
        s = stats.setdefault((command(span), span.layer, span.name), LayerStats())
        s.calls += 1
        s.total_s += span.duration
        s.self_s += span.duration - covered(span, kids.get(span.sid, []))
        for i, v in enumerate(span.values):
            if i == len(s.values):
                s.values.append(0)
            s.values[i] += v
        s.spans.append(span)
    return stats
