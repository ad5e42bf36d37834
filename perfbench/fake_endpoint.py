"""Fake chat-completions endpoint: a scaled stand-in for a reasoning model.

Run as its own process; it prints ``listening <port>`` once it accepts
connections and serves until terminated:

    python3 perfbench/fake_endpoint.py

Every POST to ``.../chat/completions`` sleeps ``SERVICE_S``, then returns
``n`` choices. Each choice is ``<think>...</think>`` followed by an answer
of ``ANSWER_WORDS`` words drawn from the words of the prompt, seeded
by a hash of the prompt, the model name and the choice index, so the same
request always gets the same reply. ``GET /stats`` returns the number of
completion requests and choices served so far.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

SERVICE_S = 0.150  # fixed time per call
ANSWER_WORDS = 100

_WORD_RE = re.compile(r"[a-z0-9]+")
_QUERY_RE = re.compile(r'question "(.*?)" and its possible')


def completion_text(prompt: str, model: str, index: int) -> str:
    """The deterministic raw completion for one choice of one prompt."""
    digest = hashlib.sha256(f"{model}\x00{index}\x00{prompt}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    match = _QUERY_RE.search(prompt)
    query = match.group(1) if match else ""
    query_words = _WORD_RE.findall(query.lower())
    passage_words = [
        w for line in prompt.splitlines()[1:-1] for w in _WORD_RE.findall(line.lower())
        if not w.isdigit()
    ]
    pool = passage_words or query_words or ["answer"]
    thinking = (
        f"The question asks about {query}. "
        + " ".join(rng.choice(pool) for _ in range(ANSWER_WORDS // 3))
        + " seems relevant."
    )
    answer = query_words + [rng.choice(pool) for _ in range(ANSWER_WORDS - len(query_words))]
    return f"<think>{thinking}</think>\n" + " ".join(answer)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):  # keep the benchmark's output clean
        pass

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path.rstrip("/").endswith("/stats"):
            with self.server.lock:
                stats = {"requests": self.server.requests, "choices": self.server.choices}
            self._reply(200, stats)
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        if not self.path.rstrip("/").endswith("/chat/completions"):
            self._reply(404, {"error": "not found"})
            return
        try:
            body = json.loads(raw)
            prompt = body["messages"][0]["content"]
            n = int(body.get("n", 1))
            model = str(body.get("model", ""))
        except (ValueError, KeyError, IndexError, TypeError):
            self._reply(400, {"error": "malformed request"})
            return
        with self.server.lock:
            self.server.requests += 1
            self.server.choices += n
        time.sleep(self.server.service_s)
        choices = []
        completion_words = 0
        for i in range(n):
            text = completion_text(prompt, model, i)
            completion_words += len(text.split())
            choices.append({"index": i, "finish_reason": "stop",
                            "message": {"role": "assistant", "content": text}})
        self._reply(200, {
            "object": "chat.completion",
            "model": model,
            "choices": choices,
            "usage": {"prompt_tokens": len(prompt.split()),
                      "completion_tokens": completion_words},
        })


class FakeEndpoint(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, port: int):
        super().__init__(("127.0.0.1", port), _Handler)
        self.service_s = SERVICE_S
        self.lock = threading.Lock()
        self.requests = 0
        self.choices = 0


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--port", type=int, default=0, help="0 picks a free port")
    args = ap.parse_args(argv)
    server = FakeEndpoint(args.port)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"listening {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
