import json
import threading
import urllib.error
import urllib.request

import pytest

import fake_endpoint
from iterqe.expansion import ChatCompletionsBackend, GenerationParams, PromptInputs

PROMPT_INPUTS = PromptInputs(query="bright lanterns", passages=(
    "Lanterns glow in the harbour at night.", "Bright lights guide the ships home."))


@pytest.fixture
def endpoint():
    server = fake_endpoint.FakeEndpoint(0)
    server.service_s = 0.0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _open(url, body=None):
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(url, data=data,
                                     headers={"Content-Type": "application/json"})
    with opener.open(request, timeout=10) as resp:
        return json.load(resp)


def _completion(url, n, prompt="Given a question \"q\" and its possible\n1. alpha beta\nend"):
    return _open(f"{url}/chat/completions",
                 {"model": "m", "n": n, "messages": [{"role": "user", "content": prompt}]})


def test_honours_n_and_is_stable(endpoint):
    first = _completion(endpoint, 3)
    again = _completion(endpoint, 3)
    texts = [c["message"]["content"] for c in first["choices"]]
    assert len(texts) == 3
    assert texts == [c["message"]["content"] for c in again["choices"]]
    assert len(set(texts)) == 3
    for text in texts:
        thinking, answer = text.split("</think>")
        assert thinking.startswith("<think>")
        assert len(answer.split()) == fake_endpoint.ANSWER_WORDS
    assert _open(f"{endpoint}/stats") == {"requests": 2, "choices": 6}


def test_rejects_bad_paths_and_bodies(endpoint):
    with pytest.raises(urllib.error.HTTPError) as err:
        _open(f"{endpoint}/completions", {"n": 1})
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        _open(f"{endpoint}/chat/completions", {"messages": []})
    assert err.value.code == 400


def test_program_backend_reads_the_replies(endpoint, monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    backend = ChatCompletionsBackend(base_url=endpoint, model="m")
    responses = backend.generate(PROMPT_INPUTS, GenerationParams(num_samples=4))
    assert len(responses) == 4 and backend.generation_calls == 4
    for r in responses:
        assert r.thinking_trace.startswith("The question asks about bright lanterns")
        words = r.answer_text.split()
        assert words[:2] == ["bright", "lanterns"] and len(words) == fake_endpoint.ANSWER_WORDS
