import hashlib
import json
import os
import random
import zipfile

import numpy as np
import pytest
from click.testing import CliRunner
from oracles import reference_gap_planes, rewrite_index_version

from iterqe.cli import main
from iterqe.expansion import GenerationError, MockBackend
from iterqe.index import PostingIndex

CORPUS_DOCS = [
    {"id": "f1", "contents": "zork flim margle brint voyage"},
    {"id": "f2", "contents": "zork flim margle brint tide"},
    {"id": "f3", "contents": "zork flim margle coast"},
    {"id": "f4", "contents": "zork flim brint coast"},
    {"id": "f5", "contents": "zork flim margle brint harbor"},
    {"id": "target", "contents": "margle brint margle brint margle"},
] + [{"id": f"x{i}", "contents": f"filler{i} noise{i}"} for i in range(10)]


@pytest.fixture
def workspace(tmp_path):
    write_corpus(tmp_path / "corpus.jsonl", CORPUS_DOCS)
    queries = tmp_path / "queries.tsv"
    queries.write_text("q1\tzork flim\nq2\tbrint coast\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("q1 0 target 2\nq1 0 f1 1\nq2 0 f4 2\n")
    return tmp_path


def write_corpus(path, docs):
    with open(path, "w") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")


def not_the_indexed_corpus(workspace, change):
    """Rewrite the corpus with one passage dropped or one passage's id renamed."""
    docs = list(CORPUS_DOCS)
    if change == "dropped":
        del docs[2]
    else:
        # f3b sorts where f3 did: as many ids as indexed, and still ascending
        docs[2] = {**docs[2], "id": "f3b"}
    write_corpus(workspace / "corpus.jsonl", docs)


def shuffle_corpus(workspace, seed):
    """Rewrite the corpus with its lines shuffled, so that its ids no longer ascend by line."""
    docs = list(CORPUS_DOCS)
    random.Random(seed).shuffle(docs)
    assert [d["id"] for d in docs] != sorted(d["id"] for d in docs)
    write_corpus(workspace / "corpus.jsonl", docs)


def invoke(args):
    runner = CliRunner()
    return runner.invoke(main, args, catch_exceptions=False)


def assert_error_line(result, message):
    """Bad input ends in an ``Error:`` line and exit status 1, not a traceback."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error: " in result.output
    assert message in result.output


def build_index_file(workspace):
    idx = workspace / "index.gz"
    result = invoke(["index", "--corpus", str(workspace / "corpus.jsonl"),
                     "--out", str(idx)])
    assert result.exit_code == 0, result.output
    return idx


class TestIndexCommand:
    def test_reports_stats(self, workspace):
        result = invoke(["index", "--corpus", str(workspace / "corpus.jsonl"),
                         "--out", str(workspace / "i.gz")])
        assert result.exit_code == 0
        assert "doc_count=16" in result.output

    @pytest.mark.parametrize("flag", ["--corpus", "--out"])
    def test_directory_for_a_file_rejected(self, workspace, flag):
        paths = {"--corpus": workspace / "corpus.jsonl", "--out": workspace / "i.gz",
                 flag: workspace}
        result = invoke(["index", "--corpus", str(paths["--corpus"]),
                         "--out", str(paths["--out"]), "--force"])
        assert result.exit_code != 0
        assert "directory" in result.output
        assert str(workspace) in result.output

    def test_missing_corpus(self, workspace):
        result = invoke(["index", "--corpus", str(workspace / "nope.jsonl"),
                         "--out", str(workspace / "i.gz")])
        assert result.exit_code != 0
        assert "nope.jsonl" in result.output

    def test_deeply_nested_corpus_line(self, workspace):
        corpus = workspace / "corpus.jsonl"
        with open(corpus, "a") as fh:
            fh.write('{"id": 5, "contents": "b", "x": ' + "[" * 5000 + "]" * 5000 + "}\n")
        out = workspace / "i.gz"
        result = invoke(["index", "--corpus", str(corpus), "--out", str(out)])
        assert result.exit_code != 0
        assert f"line {len(CORPUS_DOCS) + 1}: invalid JSON (nested too deeply)" in result.output
        assert not out.exists()

    def test_corpus_not_utf8(self, workspace):
        corpus = workspace / "corpus.jsonl"
        with open(corpus, "ab") as fh:
            fh.write(b'{"id": "z", "contents": "abc \xff def"}\n')
        out = workspace / "i.gz"
        result = invoke(["index", "--corpus", str(corpus), "--out", str(out)])
        assert result.exit_code != 0
        assert f"{corpus}: not UTF-8 text" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("k1", ["nan", "inf"])
    def test_non_finite_k1_rejected(self, workspace, k1):
        out = workspace / "i.gz"
        result = invoke(["index", "--corpus", str(workspace / "corpus.jsonl"),
                         "--out", str(out), "--k1", k1])
        assert result.exit_code != 0
        assert "k1 must be finite and non-negative" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    def test_corpus_id_with_whitespace_rejected(self, workspace, fmt):
        corpus = workspace / f"spaced.{fmt}"
        corpus.write_text('{"id": "d 1", "contents": "zork flim"}\n' if fmt == "jsonl"
                          else "d 1\tzork flim\n")
        idx = workspace / "index.gz"
        result = invoke(["index", "--corpus", str(corpus), "--format", fmt, "--out", str(idx)])
        assert result.exit_code != 0
        assert "line 1: document id 'd 1' contains whitespace" in result.output
        assert not idx.exists()

    def test_missing_output_directory(self, workspace):
        result = invoke(["index", "--corpus", str(workspace / "corpus.jsonl"),
                         "--out", str(workspace / "missing_dir" / "i.gz")])
        assert result.exit_code != 0
        assert "missing_dir" in result.output

    def test_refuses_overwrite_without_force(self, workspace):
        idx = build_index_file(workspace)
        result = invoke(["index", "--corpus", str(workspace / "corpus.jsonl"),
                         "--out", str(idx)])
        assert result.exit_code != 0
        assert "--force" in result.output
        result = invoke(["index", "--corpus", str(workspace / "corpus.jsonl"),
                         "--out", str(idx), "--force"])
        assert result.exit_code == 0


def run_args(workspace, idx, out_dir, extra=()):
    return ["run",
            "--corpus", str(workspace / "corpus.jsonl"),
            "--index", str(idx),
            "--queries", str(workspace / "queries.tsv"),
            "--out-dir", str(out_dir),
            "--backend", "mock", *extra]


class TestRunCommand:
    def test_call_accounting_interaction(self, workspace):
        idx = build_index_file(workspace)
        out = workspace / "out"
        result = invoke(run_args(workspace, idx, out, ["--rounds", "3", "--samples", "2"]))
        assert result.exit_code == 0, result.output
        meta = json.loads((out / "iterqe.metadata.json").read_text())
        # 2 queries x 3 rounds x 2 samples
        assert meta["generation_calls"] == 12
        assert meta["prompt_template_sha256"]
        assert (out / "iterqe.run.txt").exists()
        assert (out / "iterqe.trace.jsonl").exists()

    def test_parallel_same_calls_fewer_records(self, workspace):
        idx = build_index_file(workspace)
        out = workspace / "out_par"
        result = invoke(run_args(workspace, idx, out,
                                 ["--rounds", "3", "--samples", "2", "--mode", "parallel"]))
        assert result.exit_code == 0, result.output
        meta = json.loads((out / "iterqe.metadata.json").read_text())
        assert meta["generation_calls"] == 12
        records = [json.loads(l) for l in (out / "iterqe.trace.jsonl").read_text().splitlines()]
        q1_records = [r for r in records if r["query_id"] == "q1"]
        # one expansion record + one final-retrieval record
        assert len(q1_records) == 2

    def test_mock_run_deterministic(self, workspace):
        idx = build_index_file(workspace)
        outputs = []
        for name in ("a", "b"):
            out = workspace / f"det_{name}"
            result = invoke(run_args(workspace, idx, out, ["--seed", "42"]))
            assert result.exit_code == 0
            outputs.append((out / "iterqe.run.txt").read_bytes())
        assert outputs[0] == outputs[1]

    def test_config_file_with_flag_override(self, workspace):
        idx = build_index_file(workspace)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"rounds": 1, "samples": 1}))
        out = workspace / "out_cfg"
        result = invoke(run_args(workspace, idx, out,
                                 ["--config", str(cfg), "--samples", "2"]))
        assert result.exit_code == 0
        meta = json.loads((out / "iterqe.metadata.json").read_text())
        assert meta["config"]["rounds"] == 1   # from file
        assert meta["config"]["samples"] == 2  # flag wins

    def test_leading_byte_order_mark_is_not_read(self, workspace):
        # one before the corpus, the queries, the config, the run and the qrels
        for path in (workspace / "corpus.jsonl", workspace / "queries.tsv"):
            path.write_text("\ufeff" + path.read_text(), encoding="utf-8")
        cfg = workspace / "cfg.json"
        cfg.write_text('\ufeff{"rounds": 1}', encoding="utf-8")
        out = workspace / "out"
        result = invoke(run_args(workspace, build_index_file(workspace), out,
                                 ["--config", str(cfg)]))
        assert result.exit_code == 0, result.output
        assert json.loads((out / "iterqe.metadata.json").read_text())["config"]["rounds"] == 1
        run = out / "iterqe.run.txt"
        run.write_text("\ufeff" + run.read_text(), encoding="utf-8")
        qrels = workspace / "qrels.txt"
        qrels.write_text(f"\ufeffq1 0 {run.read_text().split()[2]} 1\n", encoding="utf-8")
        result = invoke(["eval", "--run", str(run), "--qrels", str(qrels)])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[1].split() == ["q1", "1.0000", "1.0000", "1.0000"]

    @pytest.mark.parametrize("flag,value,field", [
        ("--samples", "0", "samples_per_round"),
        ("--depth", "0", "retrieval_depth"),
        ("--rounds", "-1", "rounds"),
        ("--top-k", "0", "top_k_feedback"),
        ("--truncate", "0", "prompt_doc_truncation"),
        ("--workers", "0", "--workers"),
        ("--lambda", "nan", "lambda must be finite and positive"),
        ("--lambda", "inf", "lambda must be finite and positive"),
        ("--temperature", "nan", "temperature must be finite and non-negative"),
        ("--temperature", "inf", "temperature must be finite and non-negative"),
    ])
    def test_invalid_parameter_rejected_before_writing(self, workspace, flag, value, field):
        idx = build_index_file(workspace)
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out, [flag, value]))
        assert result.exit_code != 0
        assert field in result.output
        assert not out.exists()

    def test_invalid_config_file_value_rejected(self, workspace):
        idx = build_index_file(workspace)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"top_k": 0}))
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out, ["--config", str(cfg)]))
        assert result.exit_code != 0
        assert "top_k_feedback" in result.output
        assert not out.exists()

    # Python's json reads NaN and Infinity, which strict JSON has no words for
    @pytest.mark.parametrize("text, message", [
        ('{"lambda_": NaN}', "lambda must be finite and positive"),
        ('{"temperature": Infinity}', "temperature must be finite and non-negative"),
    ])
    def test_non_finite_config_file_value_rejected(self, workspace, text, message):
        idx = build_index_file(workspace)
        cfg = workspace / "cfg.json"
        cfg.write_text(text)
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out, ["--config", str(cfg)]))
        assert result.exit_code != 0
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"rounds": 1', "[1, 2]", '{"top-k": 0, "bogus": 1}'])
    def test_malformed_config_file_rejected(self, workspace, text):
        idx = build_index_file(workspace)
        cfg = workspace / "cfg.json"
        cfg.write_text(text)
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out, ["--config", str(cfg)]))
        assert result.exit_code != 0
        assert "cfg.json" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("second", ["brint", "zork flim"])
    def test_duplicate_query_id_rejected(self, workspace, second):
        idx = build_index_file(workspace)
        (workspace / "queries.tsv").write_text(f"q1\tzork\nq1\t{second}\n")
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out, ["--rounds", "0"]))
        assert result.exit_code != 0
        assert "queries.tsv:2: duplicate query id 'q1'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "   ", " \t "])
    def test_blank_query_text_rejected(self, workspace, text):
        idx = build_index_file(workspace)
        (workspace / "queries.tsv").write_text(f"q1\tzork flim\nq2\t{text}\n")
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out))
        assert result.exit_code != 0
        assert "queries.tsv:2: empty query text" in result.output
        assert not out.exists()

    def test_queries_not_utf8(self, workspace):
        idx = build_index_file(workspace)
        (workspace / "queries.tsv").write_bytes(b"q1\tabc \xff def\n")
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out))
        assert result.exit_code != 0
        assert "queries.tsv: not UTF-8 text" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"rounds": 2.5}, "'rounds' must be int, not 2.5"),
        ({"top_k": True}, "'top_k' must be int, not true"),
        ({"top_k": 1.5}, "'top_k' must be int, not 1.5"),
        ({"lambda_": "3"}, "'lambda_' must be float, not \"3\""),
        ({"filter_enabled": 0}, "'filter_enabled' must be bool, not 0"),
        ({"mode": None}, "'mode' must be str, not null"),
    ])
    def test_config_value_of_the_wrong_type_rejected(self, workspace, config, message):
        idx = build_index_file(workspace)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out, ["--config", str(cfg)]))
        assert result.exit_code != 0
        assert f"cfg.json: config key {message}" in result.output
        assert not out.exists()

    def test_integer_config_value_accepted_for_a_float(self, workspace):
        idx = build_index_file(workspace)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"lambda_": 3, "temperature": 1, "rounds": 1}))
        out = workspace / "out_cfg"
        result = invoke(run_args(workspace, idx, out, ["--config", str(cfg)]))
        assert result.exit_code == 0, result.output
        meta = json.loads((out / "iterqe.metadata.json").read_text())
        assert meta["config"]["pipeline"]["lambda_"] == 3

    @pytest.mark.parametrize("qid", ["q 1", "", " q1", "q1\x0b", "q\u20031"])
    def test_query_id_that_breaks_the_run_file_rejected(self, workspace, qid):
        idx = build_index_file(workspace)
        (workspace / "queries.tsv").write_text(f"q0\tzork\n{qid}\tzork flim\n")
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out))
        assert result.exit_code != 0
        assert f"queries.tsv:2: query id {qid!r} is empty or contains whitespace" \
            in result.output
        assert not out.exists()

    @pytest.mark.parametrize("name", ["my run", "", "run\t2"])
    def test_run_name_that_breaks_the_run_file_rejected(self, workspace, name):
        idx = build_index_file(workspace)
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out, ["--run-name", name]))
        assert result.exit_code != 0
        assert "--run-name" in result.output
        assert "is empty or contains whitespace" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a/b", "../escape", "runs/"])
    def test_run_name_with_a_path_separator_rejected(self, workspace, name):
        idx = build_index_file(workspace)
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out, ["--run-name", name]))
        assert result.exit_code != 0
        assert "--run-name" in result.output
        assert "contains a path separator" in result.output
        assert not out.exists()
        assert not (workspace / "escape.run.txt").exists()

    def test_corpus_id_with_whitespace_rejected_before_writing(self, workspace):
        idx = build_index_file(workspace)
        write_corpus(workspace / "corpus.jsonl",
                     [{"id": "f 1", "contents": "zork flim"}, *CORPUS_DOCS[1:]])
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out))
        assert result.exit_code != 0
        assert "line 1: document id 'f 1' contains whitespace" in result.output
        assert not out.exists()

    def test_run_file_of_odd_but_valid_names_reads_back(self, workspace):
        idx = build_index_file(workspace)
        (workspace / "queries.tsv").write_text("q-1é\tzork flim\n")
        out = workspace / "out"
        result = invoke(run_args(workspace, idx, out, ["--run-name", "run.2"]))
        assert result.exit_code == 0, result.output
        qrels = workspace / "qrels.txt"
        qrels.write_text("q-1é 0 target 2\n")
        result = invoke(["eval", "--run", str(out / "run.2.run.txt"), "--qrels", str(qrels)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("change", ["dropped", "renamed"])
    def test_corpus_not_the_indexed_one_rejected(self, workspace, change):
        idx = build_index_file(workspace)
        not_the_indexed_corpus(workspace, change)
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out))
        assert result.exit_code != 0
        assert "corpus.jsonl is not the corpus" in result.output
        assert "iterqe index" in result.output
        assert not out.exists()

    def test_indexed_corpus_in_another_line_order_runs(self, workspace):
        # both number the passages in id order, whatever the lines' order
        idx = build_index_file(workspace)
        shuffle_corpus(workspace, 1)
        command, expected = BYTE_IDENTITY_CASES["interaction-3x2"]
        assert output_digests(workspace, command, idx) == expected

    def test_index_that_is_not_gzip(self, workspace):
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, workspace / "corpus.jsonl", out))
        assert result.exit_code != 0
        assert not out.exists()

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 6])
    def test_other_index_version_rejected_before_writing(self, workspace, version):
        idx = build_index_file(workspace)
        rewrite_index_version(idx, version)
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out))
        assert_error_line(result, f"{idx}: index file of version [{version}], but this code "
                                  "reads version [5]: rebuild the index with `iterqe index`")
        assert not out.exists()

    def test_bogus_index_rejected_before_writing(self, workspace):
        idx = workspace / "index.gz"
        idx.write_bytes(b"PK\x03\x04 not really a zip archive")
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out))
        assert result.exit_code != 0
        assert "not an index file" in result.output
        assert not out.exists()

    # each change gets the stored arrays and the loaded index; the first value
    # names what it corrupts
    @pytest.mark.parametrize("name, change, message", [
        ("doc_ordinals", lambda a, index: {"doc_gap_planes": reference_gap_planes(
            [o + 5 for o in index.doc_ordinals.tolist()], np.diff(index.offsets).tolist())},
         "a posting names a document outside"),
        ("offsets", lambda a, index: {"posting_counts": a["posting_counts"][:-1]},
         "posting offsets for"),
        ("doc_ids", lambda a, index: {"doc_ids": np.frombuffer(
            b"\xff" + a["doc_ids"].tobytes()[1:], dtype=np.uint8)},
         "can't decode byte 0xff"),
        # f1 f1 f3 ...: an id repeats; g1 f2 ...: the ids fall
        pytest.param("doc_ids", lambda a, index: {"doc_ids": np.frombuffer(
                         a["doc_ids"].tobytes().replace(b"f2", b"f1"), dtype=np.uint8)},
                     "the doc ids are not strictly ascending", id="repeated-doc-id"),
        pytest.param("doc_ids", lambda a, index: {"doc_ids": np.frombuffer(
                         a["doc_ids"].tobytes().replace(b"f1", b"g1"), dtype=np.uint8)},
                     "the doc ids are not strictly ascending", id="falling-doc-ids"),
    ])
    def test_index_whose_arrays_do_not_fit_rejected_before_writing(self, workspace, name,
                                                                    change, message):
        idx = build_index_file(workspace)
        with np.load(idx) as npz:
            arrays = {key: npz[key] for key in npz.files}
        arrays.update(change(arrays, PostingIndex.load(str(idx))))
        with open(idx, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out))
        assert_error_line(result, f"{idx}: ")
        assert message in result.output
        assert not out.exists()

    def test_out_dir_that_is_a_file_rejected(self, workspace):
        idx = build_index_file(workspace)
        out = workspace / "queries.tsv"
        before = out.read_bytes()
        result = invoke(run_args(workspace, idx, out))
        assert result.exit_code != 0
        assert "is a file" in result.output
        assert out.read_bytes() == before
        assert not (workspace / "iterqe.run.txt").exists()

    def test_out_dir_under_a_file_rejected(self, workspace):
        idx = build_index_file(workspace)
        corpus = workspace / "corpus.jsonl"
        before = corpus.read_bytes()
        result = invoke(run_args(workspace, idx, corpus / "sub"))
        assert_error_line(result, f"Not a directory: '{corpus / 'sub'}'")
        assert corpus.read_bytes() == before

    @pytest.mark.parametrize("backend", ["Mock", "HTTP", ""])
    def test_unknown_backend_in_config_file_rejected_before_writing(self, workspace, backend):
        idx = build_index_file(workspace)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"backend": backend}))
        out = workspace / "out_bad"
        args = run_args(workspace, idx, out, ["--config", str(cfg)])
        args.remove("--backend")
        args.remove("mock")
        result = invoke(args)
        assert_error_line(result, f"unknown backend {backend!r}; the backends are mock, http")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_base_model_thinking_mode_rejected_before_writing(self, workspace, source):
        idx = build_index_file(workspace)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"thinking_mode": "base_model"}))
        out = workspace / "out_bad"
        extra = (["--thinking-mode", "base_model"] if source == "flag"
                 else ["--config", str(cfg)])
        result = invoke(run_args(workspace, idx, out, extra))
        assert result.exit_code != 0
        assert ("Invalid value for '--thinking-mode'" if source == "flag"
                else "unknown thinking_mode 'base_model'") in result.output
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "  "])
    def test_fixed_text_without_a_word_rejected_before_writing(self, workspace, text):
        idx = build_index_file(workspace)
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out,
                                 ["--mock-mode", "fixed_text", "--fixed-text", text]))
        assert_error_line(result, "fixed_text must hold a non-space character")
        assert not out.exists()

    @pytest.mark.parametrize("file_value", [True, False])
    def test_no_filter_flag_wins_over_the_config_file(self, workspace, file_value):
        idx = build_index_file(workspace)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"filter_enabled": file_value, "rounds": 1}))
        for flags, expected in [([], file_value), (["--no-filter"], False)]:
            out = workspace / f"out_{len(flags)}"
            result = invoke(run_args(workspace, idx, out, ["--config", str(cfg), *flags]))
            assert result.exit_code == 0, result.output
            meta = json.loads((out / "iterqe.metadata.json").read_text())
            assert meta["config"]["filter_enabled"] is expected
            assert meta["config"]["pipeline"]["filter_enabled"] is expected

    def test_malformed_corpus(self, workspace):
        idx = build_index_file(workspace)
        (workspace / "corpus.jsonl").write_text('{"id": "a", "contents": "x"}\nnot json\n')
        out = workspace / "out_bad"
        result = invoke(run_args(workspace, idx, out))
        assert result.exit_code != 0
        assert "line 2" in result.output
        assert not out.exists()


class TestEvalCommand:
    def test_ideal_run(self, workspace):
        run = workspace / "ideal.run"
        run.write_text("q1 Q0 target 1 3.0 t\nq1 Q0 f1 2 2.0 t\nq2 Q0 f4 1 1.0 t\n")
        result = invoke(["eval", "--run", str(run),
                         "--qrels", str(workspace / "qrels.txt")])
        assert result.exit_code == 0
        assert "1.0000" in result.output

    def test_malformed_line(self, workspace):
        run = workspace / "bad.run"
        run.write_text("q1 Q0 target 1\n")
        result = invoke(["eval", "--run", str(run),
                         "--qrels", str(workspace / "qrels.txt")])
        assert result.exit_code != 0
        assert ":1:" in result.output

    def test_run_not_utf8(self, workspace):
        run = workspace / "bad.run"
        run.write_bytes(b"q1 Q0 target 1 3.0 t\xff\n")
        result = invoke(["eval", "--run", str(run),
                         "--qrels", str(workspace / "qrels.txt")])
        assert result.exit_code != 0
        assert "bad.run: not UTF-8 text" in result.output

    def test_json_output(self, workspace):
        run = workspace / "r.run"
        run.write_text("q1 Q0 target 1 3.0 t\n")
        out_json = workspace / "metrics.json"
        result = invoke(["eval", "--run", str(run),
                         "--qrels", str(workspace / "qrels.txt"),
                         "--json", str(out_json)])
        assert result.exit_code == 0
        data = json.loads(out_json.read_text())
        assert set(data) == {"per_query", "means"}

    def test_json_output_that_is_a_directory_rejected(self, workspace):
        run = workspace / "r.run"
        run.write_text("q1 Q0 target 1 3.0 t\n")
        result = invoke(["eval", "--run", str(run),
                         "--qrels", str(workspace / "qrels.txt"),
                         "--json", str(workspace)])
        assert result.exit_code != 0
        assert "is a directory" in result.output
        # rejected before the metric table is printed
        assert "mean" not in result.output and "q1" not in result.output

    def test_json_output_in_a_missing_directory_rejected(self, workspace):
        run = workspace / "r.run"
        run.write_text("q1 Q0 target 1 3.0 t\n")
        out_json = workspace / "missing" / "metrics.json"
        result = invoke(["eval", "--run", str(run), "--qrels", str(workspace / "qrels.txt"),
                         "--json", str(out_json)])
        assert_error_line(result, f"No such file or directory: '{out_json}'")
        # the JSON is written before the table, so the error comes alone
        assert "mean" not in result.output


class TestAblateCommand:
    def test_default_grid(self, workspace):
        idx = build_index_file(workspace)
        out = workspace / "ablate"
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.jsonl"),
                         "--index", str(idx),
                         "--queries", str(workspace / "queries.tsv"),
                         "--qrels", str(workspace / "qrels.txt"),
                         "--out-dir", str(out),
                         "--rounds", "2", "--samples", "2"])
        assert result.exit_code == 0, result.output
        for cell in ("full", "accum_only", "filter_only", "parallel"):
            assert (out / f"ablate_{cell}.run.txt").exists()
        summary = json.loads((out / "ablation_summary.json").read_text())
        assert {row["cell"] for row in summary} == {"full", "accum_only", "filter_only", "parallel"}
        # ablate scores the rankings it wrote; eval scores the file: the same means, exactly
        for row in summary:
            means = out / f"{row['cell']}.means.json"
            result = invoke(["eval", "--run", row["run"],
                             "--qrels", str(workspace / "qrels.txt"), "--json", str(means)])
            assert result.exit_code == 0, result.output
            expected = json.loads(means.read_text())["means"]
            assert {m: row[m] for m in expected} == expected
            assert set(row) == {"cell", "run", "generation_calls", *expected}

    def test_cell_selection(self, workspace):
        idx = build_index_file(workspace)
        out = workspace / "ablate_one"
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.jsonl"),
                         "--index", str(idx),
                         "--queries", str(workspace / "queries.tsv"),
                         "--out-dir", str(out),
                         "--cells", "accum_only"])
        assert result.exit_code == 0, result.output
        files = os.listdir(out)
        assert "ablate_accum_only.run.txt" in files
        assert "ablate_full.run.txt" not in files

    def test_repeated_cell_rejected_before_writing(self, workspace):
        idx = build_index_file(workspace)
        out = workspace / "ablate_bad"
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.jsonl"),
                         "--index", str(idx),
                         "--queries", str(workspace / "queries.tsv"),
                         "--out-dir", str(out),
                         "--cells", "full,accum_only,full"])
        assert_error_line(result, "--cells names a cell more than once")
        assert not out.exists()

    def test_invalid_parameter_rejected_before_writing(self, workspace):
        idx = build_index_file(workspace)
        out = workspace / "ablate_bad"
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.jsonl"),
                         "--index", str(idx),
                         "--queries", str(workspace / "queries.tsv"),
                         "--out-dir", str(out),
                         "--samples", "0"])
        assert result.exit_code != 0
        assert "samples_per_round" in result.output
        assert not out.exists()

    def test_malformed_corpus(self, workspace):
        idx = build_index_file(workspace)
        (workspace / "corpus.jsonl").write_text("not json\n")
        out = workspace / "ablate_bad"
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.jsonl"),
                         "--index", str(idx),
                         "--queries", str(workspace / "queries.tsv"),
                         "--out-dir", str(out)])
        assert result.exit_code != 0
        assert "line 1" in result.output
        assert f"{workspace / 'corpus.jsonl'}: line 1: invalid JSON (" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 6, pytest.param(None, id="not-an-index")])
    def test_other_index_version_rejected_before_writing(self, workspace, version):
        idx = build_index_file(workspace)
        if version is None:
            idx.write_text("not an index\n")
        else:
            rewrite_index_version(idx, version)
        out = workspace / "ablate_bad"
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.jsonl"),
                         "--index", str(idx),
                         "--queries", str(workspace / "queries.tsv"),
                         "--out-dir", str(out)])
        assert_error_line(result, "not an index file" if version is None
                          else f"version [{version}], but this code reads version [5]")
        assert not out.exists()

    def test_out_dir_that_is_a_file_rejected(self, workspace):
        idx = build_index_file(workspace)
        out = workspace / "queries.tsv"
        before = out.read_bytes()
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.jsonl"),
                         "--index", str(idx),
                         "--queries", str(out),
                         "--out-dir", str(out),
                         "--cells", "full"])
        assert result.exit_code != 0
        assert "is a file" in result.output
        assert out.read_bytes() == before
        assert not (workspace / "ablate_full.run.txt").exists()

    @pytest.mark.parametrize("change", ["dropped", "renamed"])
    def test_corpus_not_the_indexed_one_rejected(self, workspace, change):
        idx = build_index_file(workspace)
        not_the_indexed_corpus(workspace, change)
        out = workspace / "ablate_bad"
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.jsonl"),
                         "--index", str(idx),
                         "--queries", str(workspace / "queries.tsv"),
                         "--out-dir", str(out)])
        assert result.exit_code != 0
        assert "corpus.jsonl is not the corpus" in result.output
        assert not out.exists()

    def test_indexed_corpus_in_another_line_order_runs(self, workspace):
        idx = build_index_file(workspace)
        shuffle_corpus(workspace, 2)
        command, expected = BYTE_IDENTITY_CASES["ablate"]
        assert output_digests(workspace, command, idx) == expected

    @pytest.mark.parametrize("qrels,message", [
        ("q1 0 d1 x\n", "qrels.txt:1: grade 'x' is not an integer"),
        ("q9 0 f1 1\n", "qrels.txt shares no query id with"),
    ])
    def test_bad_qrels_rejected_before_writing(self, workspace, qrels, message):
        idx = build_index_file(workspace)
        (workspace / "qrels.txt").write_text(qrels)
        out = workspace / "ablate_bad"
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.jsonl"),
                         "--index", str(idx),
                         "--queries", str(workspace / "queries.tsv"),
                         "--qrels", str(workspace / "qrels.txt"),
                         "--out-dir", str(out)])
        assert result.exit_code != 0
        assert message in result.output
        assert not out.exists()

    def test_corpus_id_with_whitespace_rejected_before_writing(self, workspace):
        idx = build_index_file(workspace)
        (workspace / "corpus.tsv").write_text(
            "".join(f"{d['id']}\t{d['contents']}\n" for d in CORPUS_DOCS).replace("x3", "x 3"))
        out = workspace / "ablate_bad"
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.tsv"), "--format", "tsv",
                         "--index", str(idx),
                         "--queries", str(workspace / "queries.tsv"),
                         "--out-dir", str(out)])
        assert result.exit_code != 0
        assert "line 10: document id 'x 3' contains whitespace" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--no-filter", "--no-accumulation"])
    def test_flag_that_every_cell_overrides_rejected(self, workspace, flag):
        # each cell sets accumulation_enabled and filter_enabled itself
        assert flag not in invoke(["ablate", "--help"]).output
        idx = build_index_file(workspace)
        out = workspace / "ablate_bad"
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.jsonl"),
                         "--index", str(idx),
                         "--queries", str(workspace / "queries.tsv"),
                         "--out-dir", str(out),
                         "--cells", "full", flag])
        assert result.exit_code != 0
        assert f"No such option '{flag}'" in result.output
        assert not out.exists()

    def test_unknown_cell(self, workspace):
        idx = build_index_file(workspace)
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.jsonl"),
                         "--index", str(idx),
                         "--queries", str(workspace / "queries.tsv"),
                         "--out-dir", str(workspace / "x"),
                         "--cells", "bogus"])
        assert result.exit_code != 0
        assert "bogus" in result.output

    def test_no_cell(self, workspace):
        idx = build_index_file(workspace)
        out = workspace / "ablate_bad"
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.jsonl"),
                         "--index", str(idx),
                         "--queries", str(workspace / "queries.tsv"),
                         "--out-dir", str(out),
                         "--cells", ","])
        assert result.exit_code != 0
        assert "--cells" in result.output
        assert not out.exists()

    def test_blank_query_text_rejected(self, workspace):
        idx = build_index_file(workspace)
        (workspace / "queries.tsv").write_text("q1\tzork flim\nq2\t   \n")
        out = workspace / "ablate_bad"
        result = invoke(["ablate",
                         "--corpus", str(workspace / "corpus.jsonl"),
                         "--index", str(idx),
                         "--queries", str(workspace / "queries.tsv"),
                         "--out-dir", str(out)])
        assert result.exit_code != 0
        assert "queries.tsv:2: empty query text" in result.output
        assert not out.exists()


# sha256 of every run, trace and metadata file that `run` and `ablate` write on
# the workspace fixture. A change that alters these outputs on purpose updates
# the constants and says so in CHANGES.md.
BYTE_IDENTITY_CASES = {
    "interaction-3x2": (["run", "--mode", "interaction", "--rounds", "3", "--samples", "2"], {
        "iterqe.metadata.json": "556f09ac0ef1264ffe24f062887bb6b2b386dd7f51cfd96cf7a52c5da5b7178b",
        "iterqe.run.txt": "29c9420a42f98c136be874c38b466938d0e42e184b3d723a2577f1c76ac81d31",
        "iterqe.trace.jsonl": "7e461c48e074f90657163a30c494d226f4fb486fee26ba59d40358a36bd7174d",
    }),
    "interaction-2x3": (["run", "--mode", "interaction", "--rounds", "2", "--samples", "3"], {
        "iterqe.metadata.json": "fe72997c1bf5083485056b8b87792d0df49eaa4a4b9ee794b113cd508ef3886f",
        "iterqe.run.txt": "e2af7984ac5a1fa64fbab621b4ae2e6c87ee9900331adb5af8b65da812d3e789",
        "iterqe.trace.jsonl": "0ae18a3786401843c6812ef345a786c2067de28b58fa7ab8f23ff65acb18a575",
    }),
    "parallel-3x2": (["run", "--mode", "parallel", "--rounds", "3", "--samples", "2"], {
        "iterqe.metadata.json": "b5ff12f8601e125ad44014ef10571aa44b4785339f5a0ca44d5ea3d6fcfb6783",
        "iterqe.run.txt": "bf994b35a7c28f9518bb3c4a3368cb37b7614648a37c6b22adda071c63924748",
        "iterqe.trace.jsonl": "d23a0fc9fd96552924701a509bfe607c8c01b92b458c5bad88ab7a860021c5c8",
    }),
    "parallel-2x3": (["run", "--mode", "parallel", "--rounds", "2", "--samples", "3"], {
        "iterqe.metadata.json": "32746cbc430961e151e92d4af6e03f9eb56afdda758b6ad9af2dd7c5e15fc63c",
        "iterqe.run.txt": "bf994b35a7c28f9518bb3c4a3368cb37b7614648a37c6b22adda071c63924748",
        "iterqe.trace.jsonl": "d23a0fc9fd96552924701a509bfe607c8c01b92b458c5bad88ab7a860021c5c8",
    }),
    "ablate": (["ablate", "--qrels", "QRELS"], {
        "ablate_accum_only.metadata.json": "e37d3b85534ecd91854744d7e6946aa9fb47149dc2f1ccfdc9de7f0d02ec4a0c",
        "ablate_accum_only.run.txt": "a65825a9ae01dc572170196418593590a331dabaa221e39f15dc012b9d03f96c",
        "ablate_accum_only.trace.jsonl": "d643ec676eeee69e61565fb5c9fc0a17fadbc3371bf1f09288bbecf9afe2577c",
        "ablate_filter_only.metadata.json": "ed349fe7245836c40177c0ef947df6bac5037096e0e3d69cc2f81f871a32df7d",
        "ablate_filter_only.run.txt": "5555f539bab914f1b8fe1fd217fedb3704a2d9008346399475becc9b94a468bb",
        "ablate_filter_only.trace.jsonl": "b4cf402a4120ac7924a10ed70772d564e41c14cbcce9ee184e89d6638fef96d0",
        "ablate_full.metadata.json": "54f22484fbc374d187febd26d081bb5d8a5eb54810a8dcc18d169b82600d1efe",
        "ablate_full.run.txt": "dc9210959699b857e7ba51896dc5b01570ce5b504d9053752df48a52d1594936",
        "ablate_full.trace.jsonl": "7e461c48e074f90657163a30c494d226f4fb486fee26ba59d40358a36bd7174d",
        "ablate_parallel.metadata.json": "b8d570d318fb2e74345e001ff072a512e080e6c3e680c98d707ee0dbece28d0a",
        "ablate_parallel.run.txt": "afb77d1a9dae25b82dcb64f7b9da212eb8b7ab00fec9cf7e5d6bf9a8c12eb084",
        "ablate_parallel.trace.jsonl": "d23a0fc9fd96552924701a509bfe607c8c01b92b458c5bad88ab7a860021c5c8",
    }),
}

# Queries run concurrently must give the outputs of the serial run; `workers`
# is not written to the metadata.
BYTE_IDENTITY_CASES.update({
    f"{case}-workers{workers}": ([*BYTE_IDENTITY_CASES[case][0], "--workers", str(workers)],
                                 BYTE_IDENTITY_CASES[case][1])
    for case in ("interaction-3x2", "parallel-3x2") for workers in (2, 4)
})


def output_digests(workspace, command, idx=None):
    """sha256 of each run, trace and metadata file that the command writes.

    The command runs on ``idx``, or on an index built from the workspace's corpus.
    """
    idx = idx or build_index_file(workspace)
    out = workspace / "out"
    extra = [str(workspace / "qrels.txt") if a == "QRELS" else a for a in command[1:]]
    result = invoke([command[0],
                     "--corpus", str(workspace / "corpus.jsonl"),
                     "--index", str(idx),
                     "--queries", str(workspace / "queries.tsv"),
                     "--out-dir", str(out), *extra])
    assert result.exit_code == 0, result.output
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(out))
        if name.endswith((".run.txt", ".trace.jsonl", ".metadata.json"))
    }


@pytest.mark.parametrize("case", sorted(BYTE_IDENTITY_CASES))
def test_outputs_byte_identical(workspace, case):
    command, expected = BYTE_IDENTITY_CASES[case]
    assert output_digests(workspace, command) == expected


@pytest.mark.parametrize("workers", ["1", "2"])
def test_outputs_independent_of_query_order(workspace, workers):
    # queries run and are written in qid order, whatever the file's order
    (workspace / "queries.tsv").write_text("q2\tbrint coast\nq1\tzork flim\n")
    command, expected = BYTE_IDENTITY_CASES["interaction-3x2"]
    assert output_digests(workspace, [*command, "--workers", workers]) == expected


def index_members(idx):
    """The bytes of each array in an index file; the zip's timestamps vary with the time."""
    with zipfile.ZipFile(idx) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


@pytest.mark.parametrize("case", ["interaction-3x2", "parallel-3x2"])
def test_outputs_independent_of_corpus_line_order(workspace, case):
    # passages are numbered in id order: the index, and so every output, is
    # the same whatever the order of the corpus file's lines
    idx = build_index_file(workspace)
    stored = index_members(idx)
    for seed in (3, 4):
        idx.unlink()
        shuffle_corpus(workspace, seed)
        assert index_members(build_index_file(workspace)) == stored
    command, expected = BYTE_IDENTITY_CASES[case]
    assert output_digests(workspace, command, idx) == expected


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_query_keeps_the_queries_before_it(workspace, monkeypatch, workers):
    # q2 fails; the run and trace files hold q1's lines as a full run writes them
    idx = build_index_file(workspace)
    extra = ["--rounds", "3", "--samples", "2", "--workers", workers]
    result = invoke(run_args(workspace, idx, workspace / "full", extra))
    assert result.exit_code == 0, result.output
    generate = MockBackend.generate

    def fail_on_q2(self, inputs, params):
        if inputs.query == "brint coast":
            raise GenerationError("endpoint down")
        return generate(self, inputs, params)

    monkeypatch.setattr(MockBackend, "generate", fail_on_q2)
    out = workspace / "failed"
    result = CliRunner().invoke(main, run_args(workspace, idx, out, extra))
    assert result.exit_code != 0
    assert isinstance(result.exception, GenerationError)
    for name, qid_of in [("iterqe.run.txt", lambda line: line.split()[0]),
                         ("iterqe.trace.jsonl", lambda line: json.loads(line)["query_id"])]:
        full = (workspace / "full" / name).read_text().splitlines(keepends=True)
        q1_lines = [line for line in full if qid_of(line) == "q1"]
        assert 0 < len(q1_lines) < len(full)
        assert (out / name).read_text().splitlines(keepends=True) == q1_lines
    assert not (out / "iterqe.metadata.json").exists()
