import json
import math

import pytest
import requests
from hypothesis import example, given, strategies as st
from oracles import reference_echo_answer

from iterqe.expansion import (
    MAX_OUTPUT_TOKENS,
    MOCK_ECHO_TERMS,
    NO_THINK_PREFILL,
    REQUEST_TIMEOUT_S,
    ChatCompletionsBackend,
    GenerationError,
    GenerationParams,
    MockBackend,
    PromptInputs,
    build_prompt,
    strip_thinking,
)

NO_THINK = GenerationParams(thinking_mode="no_think_prefill")

GOLDEN_PROMPT = (
    'Given a question "q" and its possible answering passages '
    "(most of these passages are wrong) enumerated as:\n"
    "1. p1;\n"
    "2. p2\n"
    "please write a correct answering passage. "
    "Use your own knowledge, not just the example passages!"
)


class TestPrompt:
    def test_golden_two_passages(self):
        assert build_prompt(PromptInputs("q", ("p1", "p2"))) == GOLDEN_PROMPT

    def test_quote_preserved_verbatim(self):
        prompt = build_prompt(PromptInputs('say "hi"', ("p",)))
        assert '"say "hi""' in prompt

    def test_zero_passages(self):
        prompt = build_prompt(PromptInputs("q", ()))
        assert prompt.startswith('Given a question "q"')
        assert prompt.endswith("not just the example passages!")
        assert "1." not in prompt

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            PromptInputs("", ("p",))

    def test_byte_stable(self):
        inputs = PromptInputs("stable query", ("aaa", "bbb", "ccc"))
        assert build_prompt(inputs) == build_prompt(inputs)


class TestStripThinking:
    def test_well_formed_block(self):
        resp = strip_thinking("<think>abc</think>xyz")
        assert resp.thinking_trace == "abc"
        assert resp.answer_text == "xyz"
        assert not resp.degenerate

    def test_answer_around_the_block_is_stripped(self):
        resp = strip_thinking(" lead <think>t</think> answer here ")
        assert resp.thinking_trace == "t"
        assert resp.answer_text == "lead  answer here"

    def test_no_block(self):
        resp = strip_thinking("xyz")
        assert resp.thinking_trace == ""
        assert resp.answer_text == "xyz"

    def test_unterminated_block_degenerate(self):
        resp = strip_thinking("<think>abc")
        assert resp.degenerate
        assert resp.answer_text == ""
        assert resp.thinking_trace == "abc"

    def test_lone_close_ends_thinking(self):
        resp = strip_thinking("I reason here</think>the answer")
        assert resp.thinking_trace == "I reason here"
        assert resp.answer_text == "the answer"
        assert not resp.degenerate

    def test_lone_close_with_empty_answer(self):
        resp = strip_thinking("only reasoning</think>  ")
        assert resp.thinking_trace == "only reasoning"
        assert resp.answer_text == ""

    @given(st.text(min_size=1), st.text())
    def test_reconstruction(self, thinking, answer):
        # delimiters inside the generated parts would change the parse
        if "<think>" in thinking + answer or "</think>" in thinking + answer:
            return
        raw = f"<think>{thinking}</think>{answer}"
        resp = strip_thinking(raw)
        rebuilt = f"<think>{resp.thinking_trace}</think>{resp.answer_text}"
        assert rebuilt.strip() == raw.strip() or resp.answer_text == answer.strip()


class TestMockBackend:
    def test_fixed_text(self):
        responses = MockBackend(mode="fixed_text", fixed_text="hello", params=NO_THINK).generate(
            PromptInputs("q", ("p",)), 2
        )
        assert all(r.answer_text == "hello" for r in responses)

    def test_deterministic(self):
        inputs = PromptInputs("grays harbor", ("grays bay water", "bay tide"))
        a = MockBackend(seed=7, params=NO_THINK).generate(inputs, 2)
        b = MockBackend(seed=7, params=NO_THINK).generate(inputs, 2)
        assert a == b

    def test_echo_most_frequent_term(self):
        responses = MockBackend(mode="echo_terms", params=NO_THINK).generate(
            PromptInputs("q", ("alpha beta alpha",)), 2
        )
        assert "alpha" in responses[0].answer_text

    def test_echo_contains_passage_terms(self):
        inputs = PromptInputs("q", ("grays bay exploration", "grays bay tide"))
        responses = MockBackend(params=NO_THINK).generate(inputs, 2)
        assert "grays" in responses[0].answer_text
        assert "bay" in responses[0].answer_text

    # few distinct words, so that counts tie, plus stopwords, case, digits,
    # punctuation and non-ASCII letters between them
    ECHO_WORDS = st.sampled_from(["bay", "Bay", "tide", "grays", "x1", "the", "AND", "of",
                                  "a", "harbor", "K", "é", "１２", "-", "ǅ"])
    ECHO_PASSAGES = st.lists(
        st.one_of(st.lists(ECHO_WORDS, max_size=12).map(" ".join), st.text(max_size=20)),
        max_size=5)

    @given(passages=ECHO_PASSAGES, seed=st.integers(0, 3),
           query=st.sampled_from(["q", "grays bay"]))
    @example(passages=["b a c", "c b a"], seed=0, query="q")  # every count tied; "a" a stopword
    @example(passages=["the the the bay", "of of and tide"], seed=0, query="q")  # stopwords lead
    @example(passages=["the of and"], seed=0, query="q")  # only stopwords: the query
    @example(passages=[" ".join(f"w{i}" for i in range(20))], seed=1, query="q")  # ties cut at 8
    @example(passages=["ab", "cd"], seed=2, query="q")  # a passage boundary splits tokens
    def test_echo_matches_reference(self, passages, seed, query):
        answer = MockBackend(seed=seed, params=NO_THINK).generate(
            PromptInputs(query, tuple(passages)), 2)
        expected = reference_echo_answer(query, passages, seed, MOCK_ECHO_TERMS)
        assert [r.answer_text for r in answer] == [expected] * 2

    def test_sample_count(self):
        backend = MockBackend(mode="fixed_text")
        out = backend.generate(PromptInputs("q", ()), 3)
        assert len(out) == 3

    @pytest.mark.parametrize("text", ["", "  ", "\t\n"])
    def test_fixed_text_without_a_word_rejected(self, text):
        # an empty answer would add only a space to the query each round
        with pytest.raises(ValueError, match="fixed_text must hold a non-space character"):
            MockBackend(mode="fixed_text", fixed_text=text)

    def test_echo_mode_never_reads_the_fixed_text(self):
        backend = MockBackend(mode="echo_terms", fixed_text="", params=NO_THINK)
        assert backend.generate(PromptInputs("q", ("alpha",)), 1)[0].answer_text == "alpha"

    def test_think_mode_has_trace(self):
        backend = MockBackend(mode="fixed_text", params=GenerationParams(thinking_mode="think"))
        out = backend.generate(PromptInputs("q", ("p",)), 2)
        assert all(r.thinking_trace for r in out)


@pytest.mark.parametrize("mode", ["base_model", "Think", ""])
def test_params_reject_an_unknown_thinking_mode(mode):
    with pytest.raises(ValueError, match="unknown thinking_mode"):
        GenerationParams(thinking_mode=mode)


@pytest.mark.parametrize("temperature", [-0.1, math.nan, math.inf])
def test_params_reject_temperature(temperature):
    with pytest.raises(ValueError, match="temperature must be finite and non-negative"):
        GenerationParams(temperature=temperature)


class FakeResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text
        self.headers = headers or {}

    def json(self):
        return self._payload


class NonJsonResponse(FakeResponse):
    """A 200 response whose body is not JSON, as a proxy's error page."""

    def json(self):
        raise requests.JSONDecodeError("Expecting value", self.text, 0)


class FakeSession:
    """Scripted stand-in for requests.Session."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def chat_payload(*contents):
    return {"choices": [{"message": {"content": c}} for c in contents]}


@pytest.mark.parametrize("kind", ["mock", "chat_completions"])
def test_generate_writes_no_attribute(kind):
    # a backend is its configuration: the run counts its samples from the trace
    if kind == "mock":
        backend = MockBackend()
    else:
        session = FakeSession([FakeResponse(200, chat_payload("a", "b"))])
        backend = ChatCompletionsBackend("http://backend/v1", "m", session=session)
    before = dict(vars(backend))
    assert len(backend.generate(PromptInputs("q", ("p",)), 2)) == 2
    assert vars(backend) == before


class TestHttpBackend:
    def make(self, responses, params=GenerationParams()):
        session = FakeSession(responses)
        backend = ChatCompletionsBackend(
            "http://backend/v1", "test-model", api_key="sk-test", session=session, params=params
        )
        return backend, session

    def test_success_parses_thinking(self):
        backend, session = self.make(
            [FakeResponse(200, chat_payload("<think>hmm</think>passage one",
                                            "<think>hm2</think>passage two"))]
        )
        out = backend.generate(PromptInputs("q", ("p",)), 2)
        assert [r.answer_text for r in out] == ["passage one", "passage two"]
        assert [r.thinking_trace for r in out] == ["hmm", "hm2"]
        body = session.requests[0]["json"]
        assert body["model"] == "test-model"
        assert body["n"] == 2
        assert body["temperature"] == 0.7
        assert body["max_tokens"] == MAX_OUTPUT_TOKENS
        assert session.requests[0]["timeout"] == REQUEST_TIMEOUT_S
        assert session.requests[0]["headers"]["Authorization"] == "Bearer sk-test"

    def test_retries_on_server_error(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        backend, session = self.make(
            [FakeResponse(503), FakeResponse(200, chat_payload("a"))]
        )
        out = backend.generate(PromptInputs("q", ()), 1)
        assert out[0].answer_text == "a"
        assert len(session.requests) == 2

    def test_gives_up_after_max_attempts(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        backend, session = self.make([FakeResponse(503)] * 3)
        with pytest.raises(GenerationError, match="unreachable"):
            backend.generate(PromptInputs("q", ()), 1)
        assert len(session.requests) == 3

    def test_retries_on_rate_limit(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        monkeypatch.setattr("random.uniform", lambda low, high: high)
        backend, session = self.make(
            [FakeResponse(429, text="slow down"), FakeResponse(200, chat_payload("a"))]
        )
        out = backend.generate(PromptInputs("q", ()), 1)
        assert out[0].answer_text == "a"
        assert len(session.requests) == 2
        assert sleeps == [1.0]  # no Retry-After: the doubling back-off

    def test_back_off_has_jitter(self, monkeypatch):
        sleeps, draws = [], []
        monkeypatch.setattr("time.sleep", sleeps.append)

        def lowest(low, high):
            draws.append((low, high))
            return low

        monkeypatch.setattr("random.uniform", lowest)
        backend, _ = self.make([FakeResponse(503), FakeResponse(429),
                                FakeResponse(200, chat_payload("a"))])
        backend.generate(PromptInputs("q", ()), 1)
        # each wait is drawn from the upper half of the doubling back-off
        assert draws == [(0.5, 1.0), (1.0, 2.0)]
        assert sleeps == [0.5, 1.0]

    NOW = 1445412479.0  # Wed, 21 Oct 2015 07:27:59 GMT

    @pytest.mark.parametrize("retry_after, pause", [
        ("7", 7), (" 0 ", 0), ("soon", 1.0), ("", 1.0), ("1.5", 1.0), ("-1", 1.0),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 1.0),  # the IMF-fixdate form
        ("Wed, 21 Oct 2015 07:28:29 GMT", 30.0),
        ("Wednesday, 21-Oct-15 07:28:29 GMT", 30.0),  # the obsolete RFC 850 form
        ("Wed Oct 21 07:28:29 2015", 30.0),  # the obsolete asctime form: no zone, so UTC
        ("Wed, 21 Oct 2015 07:27:00 GMT", 0.0),  # a date gone by waits nothing
        # no such date: the back-off
        ("Wed, 32 Oct 2015 07:28:00 GMT", 1.0),
        ("Wed, 21 Oct 99999999999999999999 07:28:00 GMT", 1.0),
    ])
    def test_rate_limit_waits_the_seconds_the_server_names(self, monkeypatch, retry_after,
                                                          pause):
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        monkeypatch.setattr("time.time", lambda: self.NOW)
        monkeypatch.setattr("random.uniform", lambda low, high: high)
        backend, session = self.make([FakeResponse(429, headers={"Retry-After": retry_after}),
                                      FakeResponse(503), FakeResponse(200, chat_payload("a"))])
        backend.generate(PromptInputs("q", ()), 1)
        assert len(session.requests) == 3
        # the back-off doubles from 1 s whatever the server asked for
        assert sleeps == [pause, 2.0]

    def test_gives_up_on_rate_limit_after_max_attempts(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        backend, session = self.make([FakeResponse(429, headers={"Retry-After": "7"})] * 3)
        with pytest.raises(GenerationError, match="after 3 attempts: backend error 429"):
            backend.generate(PromptInputs("q", ()), 1)
        assert len(session.requests) == 3
        assert sleeps == [7, 7]

    @pytest.mark.parametrize("retry_after, wait", [
        ("86400", "86400"),
        ("Fri, 01 Jan 2100 00:00:00 GMT", "2.65"),  # some 2.7e9 s after NOW
    ])
    def test_rate_limit_longer_than_a_request_fails_at_once(self, monkeypatch, retry_after,
                                                           wait):
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        monkeypatch.setattr("time.time", lambda: self.NOW)
        backend, session = self.make([FakeResponse(429, headers={"Retry-After": retry_after}),
                                      FakeResponse(200, chat_payload("a"))])
        with pytest.raises(GenerationError, match=f"rate limited the request for {wait}"):
            backend.generate(PromptInputs("q", ()), 1)
        assert len(session.requests) == 1
        assert sleeps == []

    def test_rate_limit_as_long_as_a_request_is_kept(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        backend, _ = self.make([FakeResponse(429, headers={"Retry-After": "120"}),
                                FakeResponse(200, chat_payload("a"))])
        assert backend.generate(PromptInputs("q", ()), 1)[0].answer_text == "a"
        assert sleeps == [REQUEST_TIMEOUT_S]

    def test_4xx_not_retried(self):
        backend, session = self.make([FakeResponse(400, text="bad request")])
        with pytest.raises(GenerationError, match="rejected"):
            backend.generate(PromptInputs("q", ()), 1)
        assert len(session.requests) == 1

    def test_no_think_prefill(self):
        backend, session = self.make(
            [FakeResponse(200, chat_payload(NO_THINK_PREFILL + " direct answer"))],
            GenerationParams(thinking_mode="no_think_prefill"),
        )
        out = backend.generate(PromptInputs("q", ("p",)), 1)
        assert out[0].thinking_trace == ""
        assert out[0].answer_text == "direct answer"
        messages = session.requests[0]["json"]["messages"]
        assert messages[-1] == {"role": "assistant", "content": NO_THINK_PREFILL}

    def test_sample_shortfall_is_error(self):
        backend, _ = self.make([FakeResponse(200, chat_payload("only one"))])
        with pytest.raises(GenerationError, match="expected 2"):
            backend.generate(PromptInputs("q", ()), 2)

    def test_all_empty_answers_is_error(self):
        backend, _ = self.make([FakeResponse(200, chat_payload("", ""))])
        with pytest.raises(GenerationError, match="empty"):
            backend.generate(PromptInputs("q", ()), 2)

    def test_non_json_200_is_error(self):
        page = "<html><body>502 Bad Gateway</body></html>"
        backend, session = self.make([NonJsonResponse(200, text=page)])
        with pytest.raises(GenerationError, match="non-JSON") as info:
            backend.generate(PromptInputs("q", ()), 1)
        assert "200 <html><body>502 Bad Gateway" in str(info.value)
        assert len(session.requests) == 1

    # JSON that is not a chat-completions reply: no retry, and the message quotes it
    @pytest.mark.parametrize("payload", [
        pytest.param({"choices": [{"text": "a completions-style choice"}]}, id="no-message"),
        pytest.param([1, 2], id="a-list"),
        pytest.param({"choices": [{"message": {"content": [{"type": "text", "text": "a"}]}}]},
                     id="content-parts"),
        pytest.param({"choices": None}, id="null-choices"),
        pytest.param({"choices": ["a"]}, id="string-choice"),
        pytest.param({"error": "no choices"}, id="no-choices"),
    ])
    def test_malformed_json_200_is_error(self, payload):
        text = json.dumps(payload)
        backend, session = self.make([FakeResponse(200, payload, text=text)])
        with pytest.raises(GenerationError, match="malformed") as info:
            backend.generate(PromptInputs("q", ()), 1)
        assert f"200 {text[:200]}" in str(info.value)
        assert len(session.requests) == 1

    def test_null_content_with_reasoning_field(self):
        payload = {"choices": [
            {"message": {"content": None, "reasoning_content": "ran out of tokens"}},
            {"message": {"content": "the answer", "reasoning_content": "thought hard"}},
        ]}
        backend, _ = self.make([FakeResponse(200, payload)])
        out = backend.generate(PromptInputs("q", ()), 2)
        assert [r.answer_text for r in out] == ["", "the answer"]
        assert [r.thinking_trace for r in out] == ["ran out of tokens", "thought hard"]

    def test_all_null_content_is_error(self):
        payload = {"choices": [{"message": {"content": None, "reasoning_content": "t"}}] * 2}
        backend, _ = self.make([FakeResponse(200, payload)])
        with pytest.raises(GenerationError, match="empty"):
            backend.generate(PromptInputs("q", ()), 2)

    def test_lone_close_in_content(self):
        backend, _ = self.make([FakeResponse(200, chat_payload("reasoning</think>answer"))])
        out = backend.generate(PromptInputs("q", ()), 1)
        assert out[0].thinking_trace == "reasoning"
        assert out[0].answer_text == "answer"
