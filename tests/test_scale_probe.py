"""Smoke test of ``scripts/scale_probe.py`` at a small size, so that a change
to the API it drives cannot break it unnoticed."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_KEYS = {
    "passages", "seed", "corpus_bytes", "machine", "ingest_s", "peak_rss_after_ingest_mb",
    "build_s", "peak_rss_after_build_mb", "postings", "terms", "save_s", "index_bytes",
    "load_s", "peak_rss_after_load_mb", "load_peak_rss_above_baseline_mb",
    "held_rss_after_load_mb", "search_ms_q4",
    "search_ms_q50", "search_ms_q200", "search_ms_q1000", "peak_rss_mb",
    *(f"round16_ms_{threads}t.q{words}" for threads in (1, 2) for words in (4, 50, 200, 1000)),
}


def test_scale_probe_runs_on_2000_passages(tmp_path):
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "scale_probe.py"),
         "--passages", "2000"],
        capture_output=True, text=True, timeout=120,
        # tempfile puts the probe's temporary directory under TMPDIR
        env={**os.environ, "TMPDIR": str(tmp_path)},
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    assert set(out) == PROBE_KEYS
    assert out["passages"] == 2000
    assert out["postings"] > 0
    assert all(out[key] > 0 for key in PROBE_KEYS if key.startswith("round16_ms_"))
    # a fresh process's own rise, so above 0 and below this process's peak,
    # which the build set
    assert 0 < out["load_peak_rss_above_baseline_mb"] < out["peak_rss_mb"]
    # the same child's RSS held by the loaded index
    assert out["held_rss_after_load_mb"] > 0
    # the probe removes its temporary corpus directory
    assert os.listdir(tmp_path) == []
