"""Mutation check of Tier-1's tests: named one-line mutants of ``src/``.

    python3 scripts/mutants.py

Each mutant replaces one exact string of one file of ``src/iterqe`` with
another; the string must occur there exactly once. The script copies
``src/``, ``tests/``, ``scripts/``, ``perfbench/`` and ``pyproject.toml``
into a temporary directory, checks that Tier-1 passes on the unmutated
copy, and then, one mutant at a time, mutates the copy and runs Tier-1
there with ``-x`` and a timeout of ``TIMEOUT_S`` seconds.
``tests/test_mutants.py`` is left out of these runs: it checks this table
against the source, so any mutant would fail it. Everything is written in
the temporary directory, never in the working tree. A mutant is killed when the tests
fail or time out, and survives when they pass; the exit status is 1 when
any mutant survives.

Equivalent mutants change no observable result, so no test can kill them.
They are listed with the reason and are not run.

Tier-1 does not run the mutants (the whole table takes minutes); it checks
with ``table_problems`` that every mutant still applies
(``tests/test_mutants.py``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "iterqe")
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
TIMEOUT_S = 300.0
TABLE_TEST = os.path.join("tests", "test_mutants.py")


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name in src/iterqe
    old: str
    new: str
    equivalent: str = ""  # why no test can tell it from the program, if none can


MUTANTS = [
    # analysis
    Mutant("analysis-stopwords-kept", "analysis.py",
           'return "" if token in STOPWORDS else _STEMMER.stem(token)',
           "return _STEMMER.stem(token)"),
    Mutant("analysis-step1a-ies", "analysis.py",
           'if word.endswith("ies"):', 'if word.endswith("xies"):'),
    Mutant("analysis-measure-or", "analysis.py",
           "if cons and prev_vowel:", "if cons or prev_vowel:"),
    Mutant("analysis-digit-9-dropped", "analysis.py",
           "0x30 <= c <= 0x39", "0x30 <= c <= 0x38"),
    # corpus
    Mutant("corpus-duplicate-id-accepted", "corpus.py",
           "if doc_id in seen:", "if doc_id in ():"),
    Mutant("corpus-whitespace-id-accepted", "corpus.py",
           "if not is_run_field(doc_id):", "if not doc_id:"),
    Mutant("corpus-error-names-no-file", "corpus.py",
           'raise CorpusFormatError(f"{path}: {exc}") from None', "raise"),
    Mutant("corpus-file-order-kept", "corpus.py",
           "order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)",
           "order = range(len(doc_ids))"),
    Mutant("corpus-truncate-one-more", "corpus.py",
           'return " ".join(text.split()[:max_tokens])',
           'return " ".join(text.split()[:max_tokens + 1])'),
    # index
    Mutant("index-idf-without-one", "index.py",
           "math.log(1.0 + (n - df + 0.5) / (df + 0.5))",
           "math.log((n - df + 0.5) / (df + 0.5))"),
    Mutant("index-length-norm-without-b", "index.py",
           "denominator += 1.0 - b", "denominator += 1.0"),
    Mutant("index-query-multiplicity-ignored", "index.py",
           "np.add.at(scores, index.doc_ordinals[lo:hi], mult * index.impacts[lo:hi])",
           "np.add.at(scores, index.doc_ordinals[lo:hi], index.impacts[lo:hi])"),
    # each document's sum in another order: the same scores within an ulp or two
    Mutant("index-terms-summed-out-of-order", "index.py",
           "for term, mult in term_counts.items():",
           "for term, mult in reversed(term_counts.items()):"),
    Mutant("index-tie-break-reversed", "index.py",
           'candidates[np.argsort(-scores[candidates], kind="stable")]',
           'candidates[::-1][np.argsort(-scores[candidates[::-1]], kind="stable")]'),
    Mutant("index-repeated-doc-id-accepted", "index.py",
           "map(str.__lt__, doc_ids,", "map(str.__le__, doc_ids,"),
    Mutant("index-kth-tie-dropped", "index.py",
           "candidates = candidates[scores[candidates] >= kth]",
           "candidates = candidates[scores[candidates] > kth]"),
    Mutant("index-saved-params-swapped", "index.py",
           "np.array([self.params.k1, self.params.b], dtype=np.float64)",
           "np.array([self.params.b, self.params.k1], dtype=np.float64)"),
    Mutant("index-k1-non-finite-accepted", "index.py",
           "if not 0 <= self.k1 < math.inf:", "if self.k1 < 0:"),
    Mutant("index-doc-lengths-count-postings", "index.py",
           "np.add.at(doc_lengths, self.doc_ordinals, self.tfs)",
           "np.add.at(doc_lengths, self.doc_ordinals, 1)"),
    Mutant("index-average-length-counts-postings", "index.py",
           "int(self.tfs.sum(dtype=np.int64))", "len(self.tfs)"),
    Mutant("index-loaded-tfs-kept", "index.py", "del index.tfs", "pass"),
    Mutant("index-whitespace-name-saved", "index.py",
           "if text.split() != strings:", "if False:"),
    Mutant("index-repeated-term-accepted", "index.py",
           "if len(self.term_rows) != len(terms):", "if False:"),
    # the strings decoded where a decode error escapes without the path
    Mutant("index-undecodable-name-unnamed", "index.py",
           "except ValueError as exc:",
           "except ValueError as exc:\n"
           "            if isinstance(exc, UnicodeDecodeError):\n"
           "                raise"),
    Mutant("index-negative-posting-count-accepted", "index.py",
           "or counts.min(initial=0) < 0:", ":"),
    Mutant("index-three-byte-planes-accepted", "index.py",
           "len(planes) not in (1, 2, 4)", "len(planes) not in (1, 2, 3, 4)"),
    Mutant("index-last-ordinal-at-doc-count-accepted", "index.py",
           "last.max(initial=0) >= doc_count", "last.max(initial=0) > doc_count"),
    Mutant("index-wrapped-gap-sum-accepted", "index.py",
           "or last.sum(dtype=np.int64) != gaps.sum(dtype=np.int64)):", "):"),
    Mutant("index-bad-tf-accepted", "index.py",
           "if tfs.min(initial=1) < 1 or tfs.max(initial=1) > _TF_MAX:", "if False:"),
    Mutant("index-non-array-member-read", "index.py",
           "(not all(isinstance(a, np.ndarray) for a in arrays.values())\n                or ",
           "("),
    Mutant("index-other-version-read", "index.py",
           "if version != [INDEX_VERSION]:", "if version is None:"),
    Mutant("index-array-kind-unchecked", "index.py",
           "a.dtype.kind not in kinds or a.ndim != ndim:", "a.ndim != ndim:"),
    Mutant("index-array-ndim-unchecked", "index.py",
           "a.dtype.kind not in kinds or a.ndim != ndim:", "a.dtype.kind not in kinds:"),
    Mutant("index-zero-gap-accepted", "index.py",
           "len(starts) - np.count_nonzero(ordinals[starts]):",
           "len(starts) - np.count_nonzero(ordinals[starts]) and False:"),
    Mutant("index-list-start-fixup-dropped", "index.py",
           "ordinals[starts[1:]] -= last[:-1]", "ordinals[starts[1:]] -= 0"),
    Mutant("index-saved-gaps-cross-lists", "index.py",
           "gaps[starts] = ordinals[starts]", "gaps[starts[:0]] = ordinals[starts[:0]]"),
    # evaluate
    Mutant("evaluate-byte-order-mark-read", "evaluate.py",
           'open(path, encoding="utf-8-sig")', 'open(path, encoding="utf-8")'),
    Mutant("evaluate-nan-score-read", "evaluate.py",
           "if s != s:", "if False:"),
    Mutant("evaluate-recall-cut-at-k-minus-1", "evaluate.py",
           "return len(relevant & set(ranking[:k])) / len(relevant)",
           "return len(relevant & set(ranking[:k - 1])) / len(relevant)"),
    Mutant("evaluate-qrels-grade-minus-1-accepted", "evaluate.py",
           "if g < 0:", "if g < -1:"),
    Mutant("evaluate-ndcg-linear-gain", "evaluate.py",
           "dcg += (2**g - 1) / math.log2(i + 1)", "dcg += g / math.log2(i + 1)"),
    Mutant("evaluate-ap-over-hits", "evaluate.py",
           "return precision_sum / len(relevant)", "return precision_sum / max(hits, 1)"),
    Mutant("evaluate-run-ranks-from-0", "evaluate.py",
           "repeat(query_id), doc_ids, count(1), scores, repeat(tag)",
           "repeat(query_id), doc_ids, count(0), scores, repeat(tag)"),
    Mutant("evaluate-ranked-in-file-order", "evaluate.py",
           "return {qid: sorted(scores, key=scores.__getitem__, reverse=True)",
           "return {qid: list(scores)"),
    Mutant("evaluate-ties-reversed", "evaluate.py",
           "return {qid: sorted(scores, key=scores.__getitem__, reverse=True)",
           "return {qid: sorted(scores, key=scores.__getitem__)[::-1]"),
    Mutant("evaluate-empty-ranking-counts-as-present", "evaluate.py",
           "if not any(rankings.get(qid) for qid in query_ids):",
           "if not set(query_ids) & set(rankings):"),
    # expansion
    Mutant("expansion-prefill-ignored", "expansion.py",
           'prefilled = self.params.thinking_mode == "no_think_prefill"', "prefilled = False"),
    Mutant("expansion-4xx-retried", "expansion.py",
           "if 400 <= resp.status_code < 500:", "if 400 <= resp.status_code < 400:"),
    Mutant("expansion-one-sample-requested", "expansion.py",
           '"n": num_samples,', '"n": 1,'),
    Mutant("expansion-echo-ties-by-first-occurrence", "expansion.py",
           "ranked = sorted(sorted(counts.items()), key=itemgetter(1), reverse=True)",
           "ranked = sorted(counts.items(), key=itemgetter(1), reverse=True)"),
    Mutant("expansion-answer-not-stripped", "expansion.py",
           "answer = (text[: text.index(THINK_OPEN)] + text[end + len(THINK_CLOSE):]).strip()",
           "answer = text[: text.index(THINK_OPEN)] + text[end + len(THINK_CLOSE):]"),
    Mutant("expansion-temperature-non-finite-accepted", "expansion.py",
           "if not 0 <= self.temperature < math.inf:", "if self.temperature < 0:"),
    Mutant("expansion-429-not-retried", "expansion.py",
           "if resp.status_code == 429:", "if resp.status_code == 0:"),
    Mutant("expansion-retry-after-ignored", "expansion.py",
           "return int(value)", "return None"),
    Mutant("expansion-retry-after-date-ignored", "expansion.py",
           "when = email.utils.parsedate_to_datetime(value)",
           'when = email.utils.parsedate_to_datetime("")'),
    Mutant("expansion-retry-after-past-date-negative", "expansion.py",
           "return max(0.0, when.timestamp() - time.time())",
           "return when.timestamp() - time.time()"),
    Mutant("expansion-back-off-without-jitter", "expansion.py",
           "random.uniform(delay / 2, delay)", "delay"),
    Mutant("expansion-long-retry-after-slept", "expansion.py",
           "named_wait > REQUEST_TIMEOUT_S:", "named_wait > math.inf:"),
    Mutant("expansion-blank-fixed-text-accepted", "expansion.py",
           'if self.mode == "fixed_text" and not self.fixed_text.strip():',
           'if self.mode == "fixed_text" and not self.fixed_text:'),
    Mutant("expansion-reply-content-type-unchecked", "expansion.py",
           'isinstance(m.get("content"), (str, type(None)))', "True"),
    # pipeline
    Mutant("pipeline-retrieval-depth-1000", "pipeline.py",
           "search_topk(index, rendered, config.retrieval_depth)",
           "search_topk(index, rendered, 1000)"),
    Mutant("pipeline-lambda-non-finite-accepted", "pipeline.py",
           "if not 0 < self.lambda_ < math.inf:", "if self.lambda_ <= 0:"),
    Mutant("pipeline-filter-ignores-blacklist", "pipeline.py",
           "excluded = blacklist | set(prev_feedback)", "excluded = set(prev_feedback)"),
    Mutant("pipeline-repetition-floor-0", "pipeline.py",
           "return max(1, int(total / (q0_words * lambda_)))",
           "return max(0, int(total / (q0_words * lambda_)))"),
    Mutant("pipeline-parallel-budget-not-pooled", "pipeline.py",
           "rounds=1, samples_per_round=config.rounds * config.samples_per_round",
           "rounds=1, samples_per_round=config.samples_per_round"),
    Mutant("pipeline-no-accumulation", "pipeline.py",
           "expansions = state.expansions + [segment]", "expansions = [segment]"),
    Mutant("pipeline-degenerate-samples-not-logged", "pipeline.py",
           "if degenerate:", "if False:"),
    Mutant("pipeline-empty-answers-joined", "pipeline.py",
           'segment = " ".join(r.answer_text for r in responses if r.answer_text)',
           'segment = " ".join(r.answer_text for r in responses)'),
    # cli
    Mutant("cli-queries-in-file-order", "cli.py",
           "return sorted(queries.items())", "return list(queries.items())"),
    Mutant("cli-no-filter-flag-ignored", "cli.py",
           '"--no-filter", "filter_enabled", flag_value=False',
           '"--no-filter", "filter_enabled", flag_value=True'),
    Mutant("cli-config-backend-unchecked", "cli.py",
           'if cfg["backend"] not in BACKENDS:', "if False:"),
    Mutant("cli-boundary-lets-oserror-through", "cli.py",
           "except (ValueError, OSError) as exc:", "except ValueError as exc:"),
    Mutant("cli-run-name-separator-accepted", "cli.py",
           "if os.path.dirname(run_name):", "if False:"),
    Mutant("cli-sample-count-of-the-last-record", "cli.py",
           "samples += len(record.thinking_traces)", "samples = len(record.thinking_traces)"),
    Mutant("cli-eval-table-before-json", "cli.py",
           "if json_path:", 'if click.echo("mean") or json_path:'),
    Mutant("cli-ablate-scores-the-first-retrieval", "cli.py",
           "rankings[qid] = final.doc_ids()", "rankings[qid] = trace[0].retrieved.doc_ids()"),
    Mutant("cli-repeated-cell-run", "cli.py",
           "if len(set(cell_names)) < len(cell_names):", "if False:"),
    Mutant("cli-corpus-checked-by-length", "cli.py",
           "if corpus.doc_ids != index.doc_ids:",
           "if len(corpus.doc_ids) != len(index.doc_ids):"),
    # equivalent: listed, not run
    Mutant("index-idf-sum-commuted", "index.py",
           "math.log(1.0 + (n - df + 0.5) / (df + 0.5))",
           "math.log((n - df + 0.5) / (df + 0.5) + 1.0)",
           equivalent="IEEE addition commutes: every idf is bit-identical"),
    Mutant("index-partition-at-exactly-k", "index.py",
           "if candidates.size > k:", "if candidates.size >= k:",
           equivalent="with exactly k candidates the k-th score is their minimum, "
                      "so the filter keeps all of them"),
    Mutant("index-doc-ids-not-cached", "index.py",
           "if self._ids is None:", "if True:",
           equivalent="the id list is rebuilt with the same values on every call; "
                      "only slower"),
    Mutant("pipeline-rank-texts-exact-size", "pipeline.py",
           "_rank_texts(1 << n.bit_length())", "_rank_texts(n + 1)",
           equivalent="zip stops at the ranking's n hits, and any size >= n gives "
                      "the same texts; only the cache holds more sizes"),
]


def table_problems(root: str = ROOT) -> list[str]:
    """Why mutants of the table do not apply to the source under ``root``; [] if all do."""
    problems = []
    for m in MUTANTS:
        path = os.path.join(root, PACKAGE, m.module)
        if not os.path.isfile(path):
            problems.append(f"{m.name}: no file {m.module}")
            continue
        with open(path, encoding="utf-8") as fh:
            found = fh.read().count(m.old)
        if found != 1:
            problems.append(f"{m.name}: {m.old!r} occurs {found} times in {m.module}")
        if m.old == m.new:
            problems.append(f"{m.name}: the new string equals the old one")
    return problems


def run_tests(copy: str) -> tuple[bool, str]:
    """Tier-1 on the copy: (passed, how it ended)."""
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           f"--ignore={TABLE_TEST}", "tests"]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S:g} s"
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 0, lines[-1] if lines else f"exit status {proc.returncode}"


def main() -> int:
    problems = table_problems()
    if problems:
        sys.exit("the mutant table does not apply:\n  " + "\n  ".join(problems))

    with tempfile.TemporaryDirectory(prefix="iterqe-mutants-") as copy:
        for item in COPIED:
            src, dst = os.path.join(ROOT, item), os.path.join(copy, item)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work"))
            else:
                shutil.copy2(src, dst)
        passed, how = run_tests(copy)
        if not passed:
            sys.exit(f"Tier-1 fails on the unmutated copy ({how}); no mutant was run")
        survived = []
        for m in MUTANTS:
            if m.equivalent:
                print(f"equivalent {m.name}: {m.equivalent}", flush=True)
                continue
            path = os.path.join(copy, PACKAGE, m.module)
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                passed, how = run_tests(copy)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
            verdict = "survived" if passed else "killed"
            print(f"{verdict:<10} {m.name} ({time.perf_counter() - start:.1f} s: {how})",
                  flush=True)
            if passed:
                survived.append(m.name)
    run = [m for m in MUTANTS if not m.equivalent]
    print(f"{len(run) - len(survived)} of {len(run)} killed"
          + (f"; survived: {', '.join(survived)}" if survived else ""))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
