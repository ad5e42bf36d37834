"""Expansion generation: prompt building, thinking-trace handling, backends."""

from __future__ import annotations

import email.utils
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, replace
from datetime import timezone
from operator import itemgetter

import requests

from .analysis import STOPWORDS, tokenize

THINK_OPEN = "<think>"
THINK_CLOSE = "</think>"
NO_THINK_PREFILL = "<think>Okay, I think I have finished thinking.</think>"
MOCK_ECHO_TERMS = 8  # most frequent passage terms the echo_terms mock answers with
MAX_OUTPUT_TOKENS = 1024  # max_tokens of every chat-completions request
REQUEST_TIMEOUT_S = 120.0  # per request; also the longest Retry-After wait that is kept
MAX_ATTEMPTS = 3  # per request, counting the first

PROMPT_HEADER = (
    'Given a question "{query}" and its possible answering passages '
    "(most of these passages are wrong) enumerated as:"
)
PROMPT_FOOTER = (
    "please write a correct answering passage. "
    "Use your own knowledge, not just the example passages!"
)


class GenerationError(RuntimeError):
    """Backend failed to produce usable expansions."""


@dataclass(frozen=True)
class GenerationParams:
    THINKING_MODES = ("think", "no_think_prefill")
    temperature: float = 0.7
    thinking_mode: str = "think"

    def __post_init__(self):
        if not 0 <= self.temperature < math.inf:  # NaN fails every comparison
            raise ValueError("temperature must be finite and non-negative")
        if self.thinking_mode not in self.THINKING_MODES:
            raise ValueError(f"unknown thinking_mode {self.thinking_mode!r}")


@dataclass(frozen=True)
class ExpansionResponse:
    thinking_trace: str
    answer_text: str
    degenerate: bool = False


@dataclass(frozen=True)
class PromptInputs:
    query: str
    passages: tuple[str, ...]

    def __post_init__(self):
        if not self.query:
            raise ValueError("query must be non-empty")


def build_prompt(inputs: PromptInputs) -> str:
    """Render the expansion prompt; passage substitution is literal."""
    lines = [PROMPT_HEADER.format(query=inputs.query)]
    for i, passage in enumerate(inputs.passages, 1):
        sep = ";" if i < len(inputs.passages) else ""
        lines.append(f"{i}. {passage}{sep}")
    lines.append(PROMPT_FOOTER)
    return "\n".join(lines)


def strip_thinking(raw: str) -> ExpansionResponse:
    """Split a raw generation into its thinking trace and answer text.

    A ``</think>`` with no opener before it ends a trace whose opener was
    in the prompt, as R1-style chat templates put it there.
    """
    text = raw
    if THINK_OPEN in text:
        start = text.index(THINK_OPEN) + len(THINK_OPEN)
        if THINK_CLOSE in text[start:]:
            end = text.index(THINK_CLOSE, start)
            thinking = text[start:end]
            answer = (text[: text.index(THINK_OPEN)] + text[end + len(THINK_CLOSE):]).strip()
            return ExpansionResponse(thinking, answer)
        # opener without closer: everything after it is thinking
        return ExpansionResponse(text[start:], "", degenerate=True)
    if THINK_CLOSE in text:
        end = text.index(THINK_CLOSE)
        return ExpansionResponse(text[:end], text[end + len(THINK_CLOSE):].strip())
    return ExpansionResponse("", text.strip())


class ExpansionBackend:
    """Interface of both backends: a configuration; ``generate`` writes no attribute."""

    def generate(self, inputs: PromptInputs, num_samples: int) -> list[ExpansionResponse]:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class ChatCompletionsBackend(ExpansionBackend):
    """Chat-completions-style HTTP backend with bounded retries."""

    def __init__(self, base_url: str, model: str, api_key: str = "",
                 session: requests.Session | None = None,
                 params: GenerationParams = GenerationParams()):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.session = session or requests.Session()
        self.params = params

    def describe(self) -> dict:
        return {"backend": "chat_completions", "base_url": self.base_url, "model": self.model}

    def _post(self, body: dict) -> list[dict]:
        """The message of each choice of the endpoint's reply to ``body``."""
        url = f"{self.base_url}/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        delay = 1.0
        last_error: Exception | None = None
        for attempt in range(1, MAX_ATTEMPTS + 1):
            named_wait = None
            try:
                resp = self.session.post(url, json=body, headers=headers, timeout=REQUEST_TIMEOUT_S)
            except requests.RequestException as exc:
                last_error = exc
            else:
                if resp.status_code == 200:
                    try:
                        return _choice_messages(resp.json())
                    except ValueError as exc:
                        raise GenerationError(
                            f"backend returned a non-JSON or malformed response ({exc}): "
                            f"{resp.status_code} {resp.text[:200]}"
                        ) from None
                if resp.status_code == 429:
                    # rate limited: retried, after the wait the server names if it names one
                    named_wait = _retry_after(resp.headers.get("Retry-After", ""))
                    if named_wait is not None and named_wait > REQUEST_TIMEOUT_S:
                        raise GenerationError(
                            f"backend rate limited the request for {named_wait:g} s, longer "
                            f"than the {REQUEST_TIMEOUT_S:g} s a request may take")
                elif 400 <= resp.status_code < 500:
                    raise GenerationError(f"backend rejected request: {resp.status_code} {resp.text[:200]}")
                last_error = GenerationError(f"backend error {resp.status_code}")
            if attempt < MAX_ATTEMPTS:
                # "equal jitter" on the back-off, so that clients that failed together
                # do not retry together; a wait the server names is kept as given
                time.sleep(random.uniform(delay / 2, delay) if named_wait is None else named_wait)
                delay *= 2
        raise GenerationError(f"backend unreachable after {MAX_ATTEMPTS} attempts: {last_error}")

    def generate(self, inputs: PromptInputs, num_samples: int) -> list[ExpansionResponse]:
        messages = [{"role": "user", "content": build_prompt(inputs)}]
        prefilled = self.params.thinking_mode == "no_think_prefill"
        if prefilled:
            messages.append({"role": "assistant", "content": NO_THINK_PREFILL})
        body = {
            "model": self.model,
            "messages": messages,
            "temperature": self.params.temperature,
            "n": num_samples,
            "max_tokens": MAX_OUTPUT_TOKENS,
        }
        responses = []
        for message in self._post(body):
            # reasoning servers may send a null content, and the thinking in a
            # field of its own
            raw = message.get("content") or ""
            if prefilled:
                # continuation after the prefill carries no thinking of its own
                raw = raw.removeprefix(NO_THINK_PREFILL)
                response = ExpansionResponse("", raw.strip())
            else:
                response = strip_thinking(raw)
            reasoning = message.get("reasoning_content")
            if isinstance(reasoning, str):
                response = replace(response, thinking_trace=reasoning)
            responses.append(response)
        if len(responses) != num_samples:
            raise GenerationError(
                f"backend returned {len(responses)} samples, expected {num_samples}"
            )
        if all(not r.answer_text for r in responses):
            raise GenerationError("all samples produced empty answers")
        return responses


def _retry_after(value: str) -> float | None:
    """The seconds a ``Retry-After`` value names, or None if it names none.

    Both forms of RFC 9110 10.2.3 are read: delay-seconds, and an HTTP-date,
    which is in UTC and of which a past one waits 0 s.
    """
    value = value.strip()
    if value.isascii() and value.isdigit():
        return int(value)
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (ValueError, OverflowError):  # a year too large for a C long overflows
        return None
    if when.tzinfo is None:  # the asctime form names no zone
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, when.timestamp() - time.time())


def _choice_messages(payload) -> list[dict]:
    """The message of each choice of a chat-completions reply.

    Raises ValueError unless ``"choices"`` is a list of objects, each with a
    ``"message"`` object whose ``"content"`` is a string, null or absent.
    """
    choices = payload.get("choices") if isinstance(payload, dict) else None
    if not isinstance(choices, list):
        raise ValueError("the reply has no list of choices")
    messages = [choice.get("message") if isinstance(choice, dict) else None
                for choice in choices]
    if not all(isinstance(m, dict) and isinstance(m.get("content"), (str, type(None)))
               for m in messages):
        raise ValueError("a choice has no message with a text content")
    return messages


@dataclass
class MockBackend(ExpansionBackend):
    """Deterministic offline backend for tests and reproducible runs."""

    MODES = ("echo_terms", "fixed_text")
    mode: str = "echo_terms"
    seed: int = 0
    fixed_text: str = "mock expansion"
    params: GenerationParams = GenerationParams()

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValueError(f"unknown mock mode {self.mode!r}")
        # an empty answer adds no words to the query, only a space
        if self.mode == "fixed_text" and not self.fixed_text.strip():
            raise ValueError("fixed_text must hold a non-space character")

    def describe(self) -> dict:
        return {"backend": "mock", "mode": self.mode, "seed": self.seed}

    def _echo_answer(self, inputs: PromptInputs) -> str:
        # a space joins no two tokens, so this counts each passage's tokens
        counts = Counter(tokenize(" ".join(inputs.passages)))
        for stopword in STOPWORDS.intersection(counts):
            del counts[stopword]
        # count descending, ties by token ascending: the sort is stable
        ranked = sorted(sorted(counts.items()), key=itemgetter(1), reverse=True)
        terms = [t for t, _ in ranked[:MOCK_ECHO_TERMS]]
        if not terms:
            return inputs.query
        rng = random.Random((self.seed, inputs.query, len(inputs.passages)).__repr__())
        rng.shuffle(terms)
        return " ".join(terms)

    def generate(self, inputs: PromptInputs, num_samples: int) -> list[ExpansionResponse]:
        answer = self.fixed_text if self.mode == "fixed_text" else self._echo_answer(inputs)
        thinking = ("" if self.params.thinking_mode != "think"
                    else f"considering {len(inputs.passages)} passages")
        return [ExpansionResponse(thinking, answer)] * num_samples
