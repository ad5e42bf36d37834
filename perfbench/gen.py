"""Seeded synthetic inputs: a passage corpus, short queries and graded qrels.

Word types follow a Zipf law over a fixed vocabulary. Each type is a
pronounceable root plus an English suffix, so the Porter stemmer's steps
fire and several surface forms share one stem. Every query owns a small
topic: its own words plus related words that never appear in the query.
Relevant passages are planted at random positions with three grades:

* two of grade 3 hold every query word twice and some related words,
* three of grade 2 hold half of the query words and more related words,
* three of grade 1 hold one query word and mostly related words, so BM25
  on the bare query ranks them low and only expansion can lift them.

The same seed always yields byte-identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

ONSETS = ["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
          "v", "w", "z", "br", "cl", "dr", "gr", "pl", "st", "tr", "sh", "ch"]
NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
CODAS = ["", "", "n", "r", "l", "m", "t", "nd", "rt", "st"]
# Suffixes that trigger Porter steps 1 to 5 (plural, -ed/-ing, -ational, -ness, ...).
SUFFIXES = ["", "", "", "s", "es", "ies", "ed", "ing", "ly", "ation", "ational",
            "ness", "fulness", "ment", "ize", "izer", "ity", "ities", "ive",
            "iveness", "ous", "ousness", "al", "alism", "ence", "able", "er", "ism"]
# A sample of English function words; the analyser drops most of them.
FUNCTION_WORDS = ["the", "of", "and", "to", "in", "is", "for", "that", "with",
                  "as", "on", "by", "it", "this", "are", "from", "which", "its"]
# The language is the same for every seed, so that seeds vary the passages
# and queries but not how costly the words are to stem or how they collide.
VOCABULARY_SEED = 20250610
GRADE_PLAN = (3, 3, 2, 2, 2, 1, 1, 1)


@dataclass(frozen=True)
class Sizes:
    passages: int = 5000
    passage_words: int = 60
    vocabulary: int = 20000
    zipf_s: float = 1.05
    queries: int = 60
    query_words: int = 4
    function_word_share: float = 0.2


@dataclass
class Inputs:
    corpus_path: str
    queries_path: str
    qrels_path: str
    sizes: Sizes
    corpus_bytes: int
    query_ids: list[str]


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set(FUNCTION_WORDS)
    while len(words) < size:
        syllables = 1 + int(rng.random() < 0.45)
        root = "".join(
            ONSETS[rng.integers(len(ONSETS))] + NUCLEI[rng.integers(len(NUCLEI))]
            + CODAS[rng.integers(len(CODAS))]
            for _ in range(syllables)
        )
        word = root + SUFFIXES[rng.integers(len(SUFFIXES))]
        if len(word) >= 3 and word not in seen:
            seen.add(word)
            words.append(word)
    # Frequent words are short, as in natural text.
    return sorted(words, key=len)


def _filler(rng: np.random.Generator, vocab: list[str], cdf: np.ndarray, n: int,
            function_share: float) -> list[str]:
    ranks = np.searchsorted(cdf, rng.random(n), side="right")
    ranks = np.minimum(ranks, len(vocab) - 1)
    out = [vocab[r] for r in ranks]
    for i in np.flatnonzero(rng.random(n) < function_share):
        out[i] = FUNCTION_WORDS[rng.integers(len(FUNCTION_WORDS))]
    return out


def _sentence(words: list[str]) -> str:
    words = list(words)
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def generate(out_dir: str, seed: int, sizes: Sizes = Sizes()) -> Inputs:
    """Write corpus.jsonl, queries.tsv and qrels.txt for one seed under out_dir."""
    vocab = _vocabulary(np.random.default_rng(VOCABULARY_SEED), sizes.vocabulary)
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, sizes.vocabulary + 1) ** sizes.zipf_s
    cdf = np.cumsum(weights / weights.sum())

    def passage_len() -> int:
        return int(np.clip(rng.normal(sizes.passage_words, sizes.passage_words / 5),
                           sizes.passage_words // 3, sizes.passage_words * 2))

    texts = [
        _sentence(_filler(rng, vocab, cdf, passage_len(), sizes.function_word_share))
        for _ in range(sizes.passages)
    ]

    # Topic words come from the middle of the frequency ranking: rare enough
    # to identify a topic, common enough that BM25 also finds distractors.
    band = np.arange(200, sizes.vocabulary // 2)
    plant_slots = rng.permutation(sizes.passages)
    slot = 0
    queries: list[tuple[str, str]] = []
    qrels: list[tuple[str, str, int]] = []
    for q in range(sizes.queries):
        qid = f"q{q:03d}"
        picks = rng.choice(band, size=sizes.query_words + 8, replace=False)
        query_words = [vocab[r] for r in picks[:sizes.query_words]]
        related = [vocab[r] for r in picks[sizes.query_words:]]
        queries.append((qid, " ".join(query_words)))
        for grade in GRADE_PLAN:
            if grade == 3:
                topical = query_words * 2 + list(rng.choice(related, 4, replace=False))
            elif grade == 2:
                half = max(1, sizes.query_words // 2)
                topical = list(rng.choice(query_words, half, replace=False)) \
                    + list(rng.choice(related, 6, replace=False))
            else:
                topical = [query_words[rng.integers(len(query_words))]] \
                    + list(rng.choice(related, 6, replace=False)) * 2
            n_fill = max(passage_len() - len(topical), 10)
            words = _filler(rng, vocab, cdf, n_fill, sizes.function_word_share) + topical
            order = rng.permutation(len(words))
            ordinal = int(plant_slots[slot])
            slot += 1
            texts[ordinal] = _sentence([words[i] for i in order])
            qrels.append((qid, f"p{ordinal:06d}", grade))

    os.makedirs(out_dir, exist_ok=True)
    corpus_path = os.path.join(out_dir, "corpus.jsonl")
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for ordinal, text in enumerate(texts):
            fh.write(json.dumps({"id": f"p{ordinal:06d}", "contents": text}) + "\n")
    queries_path = os.path.join(out_dir, "queries.tsv")
    with open(queries_path, "w", encoding="utf-8") as fh:
        for qid, text in queries:
            fh.write(f"{qid}\t{text}\n")
    qrels_path = os.path.join(out_dir, "qrels.txt")
    with open(qrels_path, "w", encoding="utf-8") as fh:
        for qid, docid, grade in qrels:
            fh.write(f"{qid} 0 {docid} {grade}\n")
    return Inputs(corpus_path, queries_path, qrels_path, sizes,
                  os.path.getsize(corpus_path), [qid for qid, _ in queries])


def describe(inputs: Inputs) -> dict:
    return {**asdict(inputs.sizes), "corpus_bytes": inputs.corpus_bytes}
